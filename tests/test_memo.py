"""The per-context memos of generator images in `contour.apply_letter` and
of factor images in `hopf.act_word_pair`.

`apply_word` and `act_word_pair` must agree with the uncached operators
however the memo is warmed, must never hand out a memoized dict, and must
stay scoped to one context, so that a clean sweep cannot leak images into a
negative control.
"""

from dataclasses import replace
from fractions import Fraction

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
    apply_word,
    parse_word,
    seq_parity,
    state,
    vacuum,
    vec_add,
    vec_eq,
    vec_scale,
    word_parity,
)
from qscreen.hopf import (
    TensorContext,
    act_word_pair,
    tensor_state,
    verify_coproduct,
    verify_relations,
)
from qscreen.phase import PhaseScalar, q_power
from qscreen.rootdata import CATALOG, Weight

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
            apply_word(ctx, parse_word("F1 F1 F1"), vacuum(ctx))
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
    scaled = vec_scale(tctx.left.q(2), state(tctx.left, (1,)))
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
