"""The per-context memos: generator images in `contour.apply_letter`,
removal factors in `contour.apply_raising_hat`, Cartan factors in
`contour.apply_cartan`, factor images in `hopf.act_word_pair` and signed
left sums in `hopf.act_tensor_element`.

`apply_word`, `apply_raising_hat`, `apply_cartan`, `act_word_pair` and
`act_tensor_element` must agree with uncached or fresh computation however
the memo is warmed, must never hand out a memoized dict, and must stay
scoped to one context, so that a clean sweep cannot leak images into a
negative control.  A left sum must never be served for other coefficients
than those it was built from.  The sweeps add stored images through
`accumulate` with a scale, which must add what the scaled terms add.
"""

import itertools
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen import contour
from qscreen.contour import (
    DepthExceededError,
    FaultInjection,
    ModuleContext,
    accumulate,
    apply_cartan,
    apply_letter,
    apply_lowering,
    apply_raising,
    apply_raising_hat,
    apply_word,
    parse_word,
    render_vector,
    seq_parity,
    state,
    vec_add,
    vec_eq,
    vec_scale,
    word_parity,
)
from qscreen.hopf import (
    TensorContext,
    act_tensor_element,
    act_word_pair,
    coproduct_element,
    defining_relations,
    render_tensor_vector,
    tensor_state,
    verify_coproduct,
    verify_relations,
)
from qscreen.phase import PhaseScalar, q_power, rational
from qscreen.rootdata import CATALOG, Weight, load_datum
from test_phasering import _is_unit, monomials, scalars

FAULTS = (None, "drop_hat_parity", "drop_interchange_sign",
          "flip_raising_prefactor")
CONCRETE = {"sl2": [Fraction(3, 2)], "osp1_2": [Fraction(1, 3)],
            "sl3": [Fraction(1, 2), -3], "sl2_1": [1, 2]}
# Shared across hypothesis examples, so later examples read images that
# earlier ones stored, with other coefficients and other words.
_CONTEXTS: dict = {}


def shared_context(name: str, concrete: bool, fault) -> ModuleContext:
    key = (name, concrete, fault)
    if key not in _CONTEXTS:
        weight = (Weight.concrete(CONCRETE[name]) if concrete
                  else Weight.generic())
        faults = FaultInjection(**({fault: True} if fault else {}))
        _CONTEXTS[key] = ModuleContext(datum=CATALOG[name], weight=weight,
                                       depth=6, faults=faults)
    return _CONTEXTS[key]


def direct(ctx: ModuleContext, word, v):
    """The word composed from the uncached single-generator operators."""
    for letter in reversed(word):
        if letter[0] == "F":
            v = apply_lowering(ctx, letter[1], v)
        elif letter[0] == "E":
            v = apply_raising(ctx, letter[1], v)
        else:
            v = apply_cartan(ctx, letter[1], v, sign=letter[2])
    return v


@st.composite
def memo_cases(draw):
    name = draw(st.sampled_from(sorted(CATALOG)))
    ctx = shared_context(name, draw(st.booleans()), draw(st.sampled_from(FAULTS)))
    rank = ctx.datum.rank
    index = st.integers(0, rank - 1)
    letter = st.one_of(
        st.tuples(st.sampled_from("EF"), index),
        st.tuples(st.just("K"), index, st.sampled_from([1, -1])))
    word = tuple(draw(st.lists(letter, max_size=3)))
    v: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        seq = tuple(draw(st.lists(index, max_size=3)))
        coeff = (draw(st.integers(-3, 3).filter(bool))
                 * q_power(Fraction(draw(st.integers(-2, 2)), 2), ctx.arity))
        v = vec_add(v, {seq: coeff})
    return ctx, word, v


@settings(max_examples=200, deadline=None)
@given(memo_cases())
def test_memoized_word_matches_uncached_composition(case):
    ctx, word, v = case
    before = dict(v)
    expected = direct(ctx, word, v)
    first = apply_word(ctx, word, v)
    second = apply_word(ctx, word, v)  # every E/K image is now a memo hit
    assert vec_eq(first, expected)
    assert vec_eq(second, expected)
    assert v == before


def test_memo_hits_skip_the_operators_and_raising_stays_uncached(monkeypatch):
    calls = {"hat": 0, "cartan": 0}
    hat, cartan = contour.apply_raising_hat, contour.apply_cartan

    def counting_hat(*args, **kwargs):
        calls["hat"] += 1
        return hat(*args, **kwargs)

    def counting_cartan(*args, **kwargs):
        calls["cartan"] += 1
        return cartan(*args, **kwargs)

    monkeypatch.setattr(contour, "apply_raising_hat", counting_hat)
    monkeypatch.setattr(contour, "apply_cartan", counting_cartan)
    ctx = ModuleContext(datum=CATALOG["sl3"])
    v = state(ctx, (0, 1, 0))
    word = parse_word("K2- E1")
    first = apply_word(ctx, word, v)
    seen = dict(calls)
    assert seen["hat"] == 1
    assert vec_eq(apply_word(ctx, word, v), first)
    assert calls == seen
    contour.apply_raising(ctx, 0, v)
    contour.apply_raising(ctx, 0, v)
    assert calls["hat"] == seen["hat"] + 2


def test_returned_vectors_are_fresh():
    ctx = ModuleContext(datum=CATALOG["sl2"])
    v = state(ctx, (0, 0))
    for word in (parse_word("E1"), parse_word("K1"), parse_word("K1- E1")):
        expected = direct(ctx, word, v)
        got = apply_word(ctx, word, v)
        for seq in list(got):
            got[seq] = PhaseScalar.zero(ctx.arity)
        got[(0, 0, 0)] = PhaseScalar.one(ctx.arity)
        assert vec_eq(apply_word(ctx, word, v), expected)
        assert vec_eq(apply_letter(ctx, word[-1], v),
                      direct(ctx, word[-1:], v))


def test_depth_overflow_raises_every_time():
    ctx = ModuleContext(datum=CATALOG["sl2"], depth=2)
    full = state(ctx, (0, 0))
    for _ in range(2):
        with pytest.raises(DepthExceededError):
            apply_word(ctx, parse_word("F1 K1"), full)
        with pytest.raises(DepthExceededError):
            apply_word(ctx, parse_word("F1 F1 F1"), state(ctx, ()))
        with pytest.raises(DepthExceededError):
            apply_letter(ctx, ("F", 0), full)


def test_clean_sweep_does_not_leak_into_negative_control():
    datum = CATALOG["sl2"]
    assert verify_relations(datum, 4).passed
    flipped = FaultInjection(flip_raising_prefactor=True)
    assert not verify_relations(datum, 4, faults=flipped).passed


def test_memo_is_scoped_to_one_context():
    clean = ModuleContext(datum=CATALOG["sl2"])
    v = state(clean, (0, 0))
    warm = apply_word(clean, parse_word("E1 K1"), v)
    flipped = replace(clean, faults=FaultInjection(flip_raising_prefactor=True))
    assert not vec_eq(apply_word(flipped, parse_word("E1 K1"), v), warm)
    # the memo takes no part in equality, hashing or repr
    fresh = ModuleContext(datum=CATALOG["sl2"])
    assert clean == fresh and hash(clean) == hash(fresh)
    assert repr(clean) == repr(fresh)


def test_tensor_factor_contexts_are_reused():
    tctx = TensorContext(datum=CATALOG["sl3"], depth=3)
    assert tctx.left is tctx.left and tctx.right is tctx.right
    assert tctx.left != tctx.right
    assert tctx == TensorContext(datum=CATALOG["sl3"], depth=3)
    scaled = vec_scale(q_power(2, tctx.left.arity), state(tctx.left, (1,)))
    assert vec_eq(apply_word(tctx.left, parse_word("K1"), scaled),
                  direct(tctx.left, parse_word("K1"), scaled))


# ---- factor images in the tensor square ----

_TENSOR_CONTEXTS: dict = {}


def shared_tensor_context(name: str, concrete: bool, fault) -> TensorContext:
    key = (name, concrete, fault)
    if key not in _TENSOR_CONTEXTS:
        weights = ({"weight1": Weight.concrete(CONCRETE[name]),
                    "weight2": Weight.concrete([-w for w in CONCRETE[name]])}
                   if concrete else {})
        faults = FaultInjection(**({fault: True} if fault else {}))
        _TENSOR_CONTEXTS[key] = TensorContext(datum=CATALOG[name], depth=6,
                                              faults=faults, **weights)
    return _TENSOR_CONTEXTS[key]


def direct_pair(tctx: TensorContext, w1, w2, tv):
    """w1 (x) w2 composed from the uncached operators, state pair by pair."""
    datum = tctx.datum
    out: dict = {}
    for (s1, s2), c in tv.items():
        if (word_parity(datum, w2) and seq_parity(datum, s1)
                and not tctx.faults.drop_interchange_sign):
            c = -c
        v2 = direct(tctx.right, w2, {s2: PhaseScalar.one(tctx.arity)})
        for t1, c1 in direct(tctx.left, w1, {s1: c}).items():
            accumulate(out, (((t1, t2), c1 * c2) for t2, c2 in v2.items()))
    return out


@st.composite
def tensor_cases(draw):
    name = draw(st.sampled_from(sorted(CATALOG)))
    tctx = shared_tensor_context(name, draw(st.booleans()),
                                 draw(st.sampled_from(FAULTS)))
    index = st.integers(0, tctx.datum.rank - 1)
    letter = st.one_of(
        st.tuples(st.sampled_from("EF"), index),
        st.tuples(st.just("K"), index, st.sampled_from([1, -1])))
    words = [tuple(draw(st.lists(letter, max_size=3))) for _ in range(2)]
    seq = st.lists(index, max_size=3).map(tuple)
    tv: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        coeff = (draw(st.integers(-3, 3).filter(bool))
                 * q_power(Fraction(draw(st.integers(-2, 2)), 2), tctx.arity))
        tv = vec_add(tv, {(draw(seq), draw(seq)): coeff})
    return tctx, words, tv


@settings(max_examples=200, deadline=None)
@given(tensor_cases())
def test_word_pair_matches_uncached_composition(case):
    tctx, (w1, w2), tv = case
    before = dict(tv)
    expected = direct_pair(tctx, w1, w2, tv)
    first = act_word_pair(tctx, w1, w2, tv)
    second = act_word_pair(tctx, w1, w2, tv)  # every factor image is a hit
    assert vec_eq(first, expected)
    assert vec_eq(second, expected)
    assert tv == before


def test_clean_coproduct_does_not_leak_into_negative_control():
    datum = CATALOG["sl2_1"]
    assert verify_coproduct(datum, 2).passed
    swapped = FaultInjection(drop_interchange_sign=True)
    assert not verify_coproduct(datum, 2, faults=swapped).passed


def test_tensor_memo_is_scoped_to_one_context():
    datum = CATALOG["sl2_1"]
    w1, w2 = parse_word("E2 F1"), parse_word("F2")
    tv = tensor_state(TensorContext(datum=datum), (1, 0), (1,))
    first, second = TensorContext(datum=datum), TensorContext(datum=datum)
    warm = act_word_pair(first, w1, w2, tv)
    assert first.left._images and first.right._images
    assert not second.left._images and not second.right._images
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert vec_eq(act_word_pair(second, w1, w2, tv), warm)
    flipped = replace(first, faults=FaultInjection(flip_raising_prefactor=True))
    assert not flipped.left._images and not flipped.right._images
    assert not vec_eq(act_word_pair(flipped, w1, w2, tv), warm)


def test_word_pair_returns_fresh_vectors():
    tctx = TensorContext(datum=CATALOG["sl2"], depth=3)
    tv = tensor_state(tctx, (0,), (0, 0))
    for w1, w2 in ((parse_word("E1"), parse_word("K1")),
                   (parse_word("F1"), ()), ((), parse_word("K1- E1"))):
        expected = direct_pair(tctx, w1, w2, tv)
        got = act_word_pair(tctx, w1, w2, tv)
        for key in list(got):
            got[key] = PhaseScalar.zero(tctx.arity)
        got[((0, 0), ())] = PhaseScalar.one(tctx.arity)
        assert vec_eq(act_word_pair(tctx, w1, w2, tv), expected)
        assert all(image is not got for ctx in (tctx.left, tctx.right)
                   for image in ctx._images.values())


# ---- removal factors of the raising operator ----

def test_factor_memo_keeps_the_cleared_and_full_factors_apart():
    datum = CATALOG["sl2_1"]
    v = {(1, 0, 1, 1): PhaseScalar.one(2), (0, 1, 1): q_power(1, 2)}
    for order in ((True, False), (False, True)):
        shared = ModuleContext(datum=datum)
        for clear in order + order:
            got = apply_raising_hat(shared, 1, v, clear_denominator=clear)
            fresh = apply_raising_hat(ModuleContext(datum=datum), 1, v,
                                      clear_denominator=clear)
            assert vec_eq(got, fresh)
            assert render_vector(got) == render_vector(fresh)
        assert {key[1] for key in shared._factors} == {True, False}
    cleared = apply_raising_hat(shared, 1, v, clear_denominator=True)
    assert not vec_eq(cleared, apply_raising_hat(shared, 1, v))


def test_factor_memo_is_scoped_to_one_context():
    datum = CATALOG["sl2_1"]
    clean = ModuleContext(datum=datum)
    v = state(clean, (1, 0, 1))
    warm = apply_raising_hat(clean, 1, v)
    assert clean._factors
    for fault in ("drop_hat_parity", "flip_raising_prefactor"):
        faulted = replace(clean, faults=FaultInjection(**{fault: True}))
        assert not faulted._factors
        got = apply_raising_hat(faulted, 1, v)
        assert vec_eq(got, apply_raising_hat(replace(faulted), 1, v))
        assert not vec_eq(got, warm)
        assert vec_eq(apply_raising_hat(clean, 1, v), warm)
    weight = Weight.concrete([1, 2])
    concrete = replace(clean, weight=weight)
    assert not concrete._factors
    assert vec_eq(apply_raising_hat(concrete, 1, v),
                  apply_raising_hat(ModuleContext(datum=datum, weight=weight),
                                    1, v))
    # the memo takes no part in equality, hashing or repr
    fresh = ModuleContext(datum=datum)
    assert clean == fresh and hash(clean) == hash(fresh)
    assert repr(clean) == repr(fresh)


def _stored(v):
    return {seq: (c.num, c.den, c.step) for seq, c in v.items()}


SCALAR_MEMO_WEIGHTS = [Weight.generic(), Weight.concrete([1, 2]),
                       Weight.concrete([Fraction(-7, 2), Fraction(-5, 3)])]


@pytest.mark.parametrize("name", ["sl3", "sl2_1"])
@pytest.mark.parametrize("weight", SCALAR_MEMO_WEIGHTS,
                         ids=lambda w: w.label)
@pytest.mark.parametrize("fault", FAULTS)
def test_scalar_memos_match_fresh_contexts(name, weight, fault):
    """On one shared context, every removal and Cartan factor, whether
    built or read from its memo, stores what a fresh context stores.  The
    states reach each bracket under several crossings (sign, exponent),
    which both crossing faults change."""
    datum = CATALOG[name]
    faults = FaultInjection(**{fault: True}) if fault else FaultInjection()

    def fresh():
        return ModuleContext(datum=datum, weight=weight, faults=faults)

    shared = fresh()
    coeff = (1 - q_power(Fraction(1, 2), shared.arity)) * q_power(-1, shared.arity)
    seqs = [seq for n in range(5)
            for seq in itertools.product(range(datum.rank), repeat=n)]
    for seq in seqs:
        for j in range(datum.rank):
            v = {seq: coeff}
            for clear in (False, True):
                got = apply_raising_hat(shared, j, v, clear_denominator=clear)
                assert _stored(got) == _stored(apply_raising_hat(
                    fresh(), j, v, clear_denominator=clear))
            for sign in (1, -1):
                assert _stored(apply_cartan(shared, j, v, sign=sign)) == \
                    _stored(apply_cartan(fresh(), j, v, sign=sign))
    crossings: dict = {}
    for j, clear, sign, exp, inner in shared._factors:
        crossings.setdefault((j, clear, inner), set()).add((sign, exp))
    assert max(map(len, crossings.values())) > 1
    assert {key[1] for key in shared._cartans} == {1, -1}
    moved = replace(shared, weight=Weight.concrete([2, 1]))
    assert not (moved._factors or moved._cartans or moved._images)


ALGEBRAS = Path(__file__).resolve().parent / "algebras"
BRACKET_DATA = [CATALOG[name] for name in sorted(CATALOG)] + [
    load_datum(str(path)) for path in sorted(ALGEBRAS.glob("*.json"))]


def bracket_weights(rank: int) -> list[Weight]:
    """Generic, integral, half and sixth weights of this rank."""
    sixths = [Fraction(-7, 2), Fraction(-5, 3), Fraction(1, 6)]
    return [Weight.generic(), Weight.concrete([2, -1, 3][:rank]),
            Weight.concrete([Fraction(1, 2)] * rank),
            Weight.concrete((sixths * rank)[:rank])]


@pytest.mark.parametrize("datum", BRACKET_DATA, ids=lambda d: d.label)
def test_brackets_store_the_formula(datum):
    """`ModuleContext.removal_factor`, a deformation bracket times its
    crossing, writes its value from its keys; it stores the num, den and
    step, in the same order, of the formula
    sign q^exp (1 - qz(2 inner, j, 2)) / bracket_denominator(j), or of its
    numerator with clear_denominator, in module and tensor contexts, for
    both signs and integral and half-integral exponents.  The inner sums
    include, at each concrete weight, the one that makes the factor zero,
    and only that one does."""
    rank = datum.rank
    inners = {rational(Fraction(n, 6)) for n in range(-12, 13)}
    exps = (0, -1, Fraction(1, 2), Fraction(-3, 2))
    for weight in bracket_weights(rank):
        for arity, z_offset in ((rank, 0), (2 * rank, 0), (2 * rank, rank)):
            ctx = ModuleContext(datum=datum, weight=weight, arity=arity,
                                z_offset=z_offset)
            for j, clear in itertools.product(range(rank), (False, True)):
                vanishing = set() if weight.is_generic else {ctx.pairings[j]}
                for inner, sign, exp in itertools.product(
                        sorted(inners | vanishing), (1, -1), exps):
                    want = (sign * q_power(exp, arity)
                            * (1 - ctx.qz(2 * inner, j, 2)))
                    if not clear:
                        want = want / ctx.bracket_denominator(j)
                    got = ctx.removal_factor(j, clear, sign, exp, inner)
                    assert ctx.removal_factor(j, clear, sign, exp,
                                              inner) is got
                    assert (list(got.num.items()), list(got.den.items()),
                            got.step, got.arity) == \
                        (list(want.num.items()), list(want.den.items()),
                         want.step, want.arity)
                    assert got.is_zero() == (inner in vanishing)


# ---- signed left sums of tensor elements ----

def by_word_pairs(tctx: TensorContext, te, tv):
    """The tensor action as the sum of coeff * act_word_pair, pair by pair."""
    out: dict = {}
    for (w1, w2), coeff in te.items():
        accumulate(out, ((k, coeff * c)
                         for k, c in act_word_pair(tctx, w1, w2, tv).items()))
    return out


@st.composite
def element_cases(draw):
    name = draw(st.sampled_from(["sl2_1", "osp1_2"]))
    tctx = shared_tensor_context(name, draw(st.booleans()),
                                 draw(st.sampled_from(FAULTS)))
    arity = tctx.arity
    index = st.integers(0, tctx.datum.rank - 1)
    letter = st.one_of(
        st.tuples(st.sampled_from("EF"), index),
        st.tuples(st.just("K"), index, st.sampled_from([1, -1])))
    word = st.lists(letter, max_size=2).map(tuple)
    coeff = st.builds(
        lambda n, a: n * q_power(Fraction(a, 2), arity),
        st.integers(-3, 3).filter(bool), st.integers(-2, 2))
    # few right words, so that entries share them
    rights = draw(st.lists(word, min_size=1, max_size=2))
    te: dict = {}
    for _ in range(draw(st.integers(1, 4))):
        te = vec_add(te, {(draw(word), draw(st.sampled_from(rights))):
                          draw(coeff)})
    if draw(st.booleans()):
        # a relation's coproduct: its left sums cancel on most states
        relations = list(defining_relations(tctx.datum, arity))
        _, rel = draw(st.sampled_from(relations))
        te = vec_add(te, vec_scale(draw(coeff),
                                   coproduct_element(tctx.datum, rel, arity)))
    seq = st.lists(index, max_size=2).map(tuple)
    tv: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        tv = vec_add(tv, {(draw(seq), draw(seq)): draw(coeff)})
    return tctx, te, tv


@settings(max_examples=150, deadline=None)
@given(element_cases())
def test_tensor_element_matches_its_word_pairs(case):
    tctx, te, tv = case
    before_te, before_tv = dict(te), dict(tv)
    expected = by_word_pairs(tctx, te, tv)
    first = act_tensor_element(tctx, te, tv)
    second = act_tensor_element(tctx, te, tv)  # every left sum is a hit
    assert vec_eq(first, expected)
    assert vec_eq(second, expected)
    assert (te, tv) == (before_te, before_tv)


def test_left_sums_follow_the_coefficients():
    tctx = TensorContext(datum=CATALOG["sl2_1"], depth=4)
    arity = tctx.arity
    e1f2, f1, k2 = parse_word("E1 F2"), parse_word("F1"), parse_word("K2")
    tv = vec_add(tensor_state(tctx, (1, 0), (1,)),
                 vec_scale(q_power(2, arity), tensor_state(tctx, (0,), ())))

    def check(te):
        got = act_tensor_element(tctx, te, tv)
        assert vec_eq(got, by_word_pairs(tctx, te, tv))
        assert render_tensor_vector(got) == render_tensor_vector(
            act_tensor_element(TensorContext(datum=tctx.datum, depth=4), te, tv))
        return got

    # the same words under other coefficients
    first = check({(e1f2, k2): q_power(1, arity), (f1, k2): q_power(-1, arity)})
    assert not vec_eq(check({(e1f2, k2): q_power(1, arity),
                             (f1, k2): q_power(1, arity)}), first)
    # each coefficient dropped after its call: CPython hands a freed
    # coefficient's id to the next one, which the memo must not mistake
    # for the old coefficient
    k1 = parse_word("K1")
    for n in range(20):
        coeff = PhaseScalar.from_rational(n + 2, arity)
        expected = {key: coeff * c
                    for key, c in act_word_pair(tctx, k1, k2, tv).items()}
        assert vec_eq(act_tensor_element(tctx, {(k1, k2): coeff}, tv),
                      expected)
        del coeff, expected
    # one element mutated between calls
    te = {(e1f2, k2): q_power(1, arity), (f1, k2): q_power(-1, arity)}
    check(te)
    te[(f1, k2)] = -q_power(-1, arity)
    assert not vec_eq(check(te), first)
    te[((), k2)] = PhaseScalar.one(arity)
    check(te)
    del te[(e1f2, k2)]
    check(te)
    # the same coefficient objects, in the same order, under other words
    te[(f1, ())] = te.pop((f1, k2))
    te[((), ())] = te.pop(((), k2))
    check(te)


# ---- sums with a scale ----

@st.composite
def scaled_terms(draw):
    """A zero-free vector, terms on few keys, and a unit, zero or monomial
    scale."""
    arity = draw(st.integers(1, 2))
    term = st.tuples(st.sampled_from([(), (0,), (1, 0)]), scalars(arity))
    start = accumulate({}, draw(st.lists(term, max_size=3)))
    scale = draw(st.one_of(st.just(PhaseScalar.one(arity)),
                           st.just(PhaseScalar.zero(arity)),
                           monomials(arity)))
    return start, draw(st.lists(term, max_size=6)), scale


@settings(max_examples=200, deadline=None)
@given(scaled_terms())
def test_accumulate_with_a_scale_adds_the_scaled_terms(case):
    """`accumulate(out, terms, scale)` adds what `accumulate` of the terms
    times the scale adds, keeps `out` zero-free and leaves the terms as
    they were; where the scale is not 1 it stores the same products."""
    start, terms, scale = case

    def snapshot():
        return [(k, dict(c.num), dict(c.den), c.step) for k, c in terms]

    before = snapshot()
    expected = accumulate(dict(start), [(k, scale * c) for k, c in terms])
    got = accumulate(dict(start), terms, scale)
    assert vec_eq(got, expected)
    assert all(not c.is_zero() for c in got.values())
    if not _is_unit(scale):
        assert _stored(got) == _stored(expected)
    assert snapshot() == before
