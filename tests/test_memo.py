"""The per-context memo of generator images in `contour.apply_letter`.

`apply_word` must agree with the uncached operators however the memo is
warmed, must never hand out a memoized dict, and must stay scoped to one
context, so that a clean sweep cannot leak images into a negative control.
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
    apply_cartan,
    apply_letter,
    apply_lowering,
    apply_raising,
    apply_word,
    parse_word,
    state,
    vacuum,
    vec_add,
    vec_eq,
    vec_scale,
)
from qscreen.hopf import TensorContext, verify_relations
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
