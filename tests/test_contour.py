"""Direct checks of the generator actions on contour states.

The expected coefficients here were derived by hand from the defining
formulas and are frozen: any change in conventions will show up as a diff
against these strings.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.contour import (
    NO_FAULTS,
    DepthExceededError,
    FaultInjection,
    ModuleContext,
    accumulate,
    apply_cartan,
    apply_lowering,
    apply_raising,
    apply_raising_hat,
    apply_word,
    lowering_word,
    parse_letter,
    parse_word,
    render_vector,
    state,
    vacuum,
    vec_eq,
    vec_scale,
    word_token,
)
from qscreen.phase import PhaseScalar, q_number, q_power, z_power
from qscreen.rootdata import CATALOG, Weight


def ctx_for(name, **kw):
    return ModuleContext(datum=CATALOG[name], **kw)


def test_lowering_nests_outside():
    ctx = ctx_for("sl3")
    v = apply_word(ctx, lowering_word([0, 1, 0]), vacuum(ctx))
    # rightmost letter acts first, each new contour is outermost
    assert list(v) == [(0, 1, 0)]
    assert render_vector(v) == "1·U(1,2,1)"


def test_lowering_respects_depth():
    ctx = ctx_for("sl2", depth=2)
    v = vacuum(ctx)
    v = apply_lowering(ctx, 0, v)
    v = apply_lowering(ctx, 0, v)
    with pytest.raises(DepthExceededError):
        apply_lowering(ctx, 0, v)


def test_cartan_on_vacuum():
    ctx = ctx_for("sl2")
    v = apply_cartan(ctx, 0, vacuum(ctx))
    assert render_vector(v) == "z1^-1·U()"
    assert vec_eq(apply_cartan(ctx, 0, v, sign=-1), vacuum(ctx))


def test_cartan_collects_gram_exponents():
    ctx = ctx_for("sl2")
    v = apply_cartan(ctx, 0, state(ctx, (0, 0)))
    assert render_vector(v) == "q^-4·z1^-1·U(1,1)"


def test_cartan_mixed_roots():
    ctx = ctx_for("sl3")
    v = apply_cartan(ctx, 1, state(ctx, (0, 1)))
    # exponent -(n_21 + n_22) = -(-1 + 2) = -1
    assert render_vector(v) == "q^-1·z2^-1·U(1,2)"


def test_raising_hat_single_contour():
    ctx = ctx_for("sl2")
    v = apply_raising_hat(ctx, 0, state(ctx, (0,)))
    assert render_vector(v) == "(1 - z1^2)/(q - q^-1)·U()"


def test_raising_hat_two_contours():
    ctx = ctx_for("sl2")
    v = apply_raising_hat(ctx, 0, state(ctx, (0, 0)))
    q = q_power(1, 1)
    z = z_power(0, 1, 1)
    expected = (1 + q ** 2) * (1 - q ** 2 * z ** 2) / (q - q ** -1)
    assert vec_eq(v, vec_scale(expected, state(ctx, (0,))))


def test_raising_hat_misses_other_roots():
    ctx = ctx_for("sl3")
    assert apply_raising_hat(ctx, 1, state(ctx, (0, 0))) == {}


def test_raising_hat_odd_isotropic_square_dies():
    # two nested isotropic odd contours: the two removal terms cancel exactly
    ctx = ctx_for("sl2_1")
    assert apply_raising_hat(ctx, 1, state(ctx, (1, 1))) == {}


def test_raising_hat_odd_nonisotropic():
    ctx = ctx_for("osp1_2")
    v = apply_raising_hat(ctx, 0, state(ctx, (0, 0)))
    q = q_power(1, 1)
    h = q_power(Fraction(1, 2), 1)
    z = z_power(0, 1, 1)
    expected = (1 - q) * (1 + q * z ** 2) / (h - h ** -1)
    assert vec_eq(v, vec_scale(expected, state(ctx, (0,))))


def test_raising_includes_cartan():
    ctx = ctx_for("sl2")
    v = apply_raising(ctx, 0, state(ctx, (0,)))
    assert render_vector(v) == "(z1^-1 - z1)/(q - q^-1)·U()"


def test_raising_kills_vacuum():
    for name in CATALOG:
        ctx = ctx_for(name)
        for j in range(ctx.datum.rank):
            assert apply_raising(ctx, j, vacuum(ctx)) == {}


def test_bracket_on_vacuum_state():
    # E_j F_j -+ F_j E_j on the vacuum equals (K_j - K_j^-1)/(q_j - q_j^-1);
    # the F E term drops since E annihilates the vacuum
    for name in ("sl2", "osp1_2", "sl2_1"):
        ctx = ctx_for(name)
        for j in range(ctx.datum.rank):
            ef = apply_raising(ctx, j, apply_lowering(ctx, j, vacuum(ctx)))
            kk = vec_scale(
                PhaseScalar.one(ctx.arity) / ctx.bracket_denominator(j),
                {(): ctx.z(j, -1) - ctx.z(j, 1)})
            assert vec_eq(ef, kk)


def test_rank1_closed_form_matches_sum():
    # on a tower of n nested contours of a single root, the removal sum
    # telescopes into a deformed integer
    for name, sign in (("sl2", 1), ("osp1_2", -1)):
        ctx = ctx_for(name, depth=7)
        njj = ctx.datum.pair(0, 0)
        b = sign * q_power(njj, 1)
        z = z_power(0, 1, 1)
        for n in range(1, 7):
            v = apply_raising_hat(ctx, 0, state(ctx, (0,) * n))
            closed = (1 - z ** 2 * b ** (n - 1)) * q_number(n, b) / ctx.bracket_denominator(0)
            assert vec_eq(v, vec_scale(closed, state(ctx, (0,) * (n - 1))))


def test_concrete_weight_matches_specialized_generic():
    datum = CATALOG["sl3"]
    weight = Weight.concrete([Fraction(3, 2), 2])
    pairings = [weight.root_pairing(datum, j) for j in range(2)]
    gen = ModuleContext(datum=datum)
    con = ModuleContext(datum=datum, weight=weight)
    word = parse_word("E1 F1 F2 F1")
    vg = apply_word(gen, word, vacuum(gen))
    vc = apply_word(con, word, vacuum(con))
    zero = PhaseScalar.zero(gen.arity)
    # a generic coefficient may specialize to zero, so compare over the union
    for seq in set(vg) | set(vc):
        specialized = vg.get(seq, zero).substitute_z([-p for p in pairings])
        assert specialized == vc.get(seq, zero)


def test_fault_injection_changes_results():
    clean = ctx_for("sl2_1")
    v = state(clean, (1, 1, 1))
    base = apply_raising_hat(clean, 1, v)
    hatless = ctx_for("sl2_1", faults=FaultInjection(drop_hat_parity=True))
    assert not vec_eq(base, apply_raising_hat(hatless, 1, v))

    clean2 = ctx_for("sl2")
    v2 = state(clean2, (0, 0))
    flipped = ctx_for("sl2", faults=FaultInjection(flip_raising_prefactor=True))
    assert not vec_eq(apply_raising_hat(clean2, 0, v2),
                      apply_raising_hat(flipped, 0, v2))


def _stored(v):
    return {seq: (c.num, c.den) for seq, c in v.items()}


STORED_FORM_CASES = [("sl3", Weight.generic()), ("sl2_1", Weight.generic()),
                     ("osp1_2", Weight.generic()),
                     ("sl3", Weight.concrete([Fraction(-3, 2), Fraction(5, 3)])),
                     ("sl2_1", Weight.concrete([Fraction(-7, 2), Fraction(-5, 3)]))]
STORED_FORM_FAULTS = [NO_FAULTS, FaultInjection(flip_raising_prefactor=True),
                      FaultInjection(drop_hat_parity=True)]


@pytest.mark.parametrize("name, weight", STORED_FORM_CASES,
                         ids=lambda x: x if isinstance(x, str) else x.label)
def test_generator_factors_keep_the_formula_stored_form(name, weight):
    """`apply_raising_hat` and `apply_cartan` store exactly the num and den
    of the module docstring's formula, computed here term by term, on a
    vector of every state up to depth 4, with a unit and with a non-unit
    coefficient on each."""
    datum = CATALOG[name]
    seqs = [seq for n in range(5)
            for seq in itertools.product(range(datum.rank), repeat=n)]
    for faults in STORED_FORM_FAULTS:
        ctx = ModuleContext(datum=datum, weight=weight, faults=faults)
        q = ctx.q
        one = PhaseScalar.one(ctx.arity)
        for c, j in itertools.product(
                [one, (1 - q(Fraction(1, 2)) * ctx.z(0)) / (q(1) + q(-1))],
                range(datum.rank)):
            v = {seq: c for seq in seqs}
            for sign in (1, -1):
                expected = {seq: c * (q(-sign * sum(datum.pair(j, i) for i in seq))
                                      * ctx.z(j, -sign)) for seq in seqs}
                got = apply_cartan(ctx, j, v, sign=sign)
                assert _stored(got) == _stored(expected)
            for clear in (False, True):
                denom = one if clear else ctx.bracket_denominator(j)
                expected = {}
                for seq, l in itertools.product(seqs, range(4)):
                    if l >= len(seq) or seq[l] != j:
                        continue
                    crossing = one
                    for i in seq[:l]:
                        e = datum.pair(j, i)
                        crossing = crossing * q(-e if faults.flip_raising_prefactor else e)
                        if (datum.parity(j) * datum.parity(i)
                                and not faults.drop_hat_parity):
                            crossing = -crossing
                    inner = sum(datum.pair(j, i) for i in seq[l + 1:])
                    bracket = (1 - q(2 * inner) * ctx.z(j, 2)) / denom
                    accumulate(expected, [(seq[:l] + seq[l + 1:],
                                           c * crossing * bracket)])
                got = apply_raising_hat(ctx, j, v, clear_denominator=clear)
                assert _stored(got) == _stored(expected)


def test_word_tokens_roundtrip():
    text = "E1 F2 K1 K2-"
    word = parse_word(text)
    assert word == (("E", 0), ("F", 1), ("K", 0, 1), ("K", 1, -1))
    assert word_token(word) == text
    assert parse_word("F1·F2") == (("F", 0), ("F", 1))
    assert parse_word("1") == ()
    assert word_token(()) == "1"


def test_bad_tokens_rejected():
    for bad in ("G1", "E0", "E", "K-", "Fx", "E1.5"):
        with pytest.raises(ValueError):
            parse_letter(bad)


# ---- property tests ----

seqs = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4).map(tuple)


@settings(max_examples=40, deadline=None)
@given(seqs, st.sampled_from(["sl3", "sl2_1"]))
def test_cartan_operators_commute(seq, name):
    ctx = ctx_for(name)
    v = state(ctx, seq)
    a = apply_cartan(ctx, 0, apply_cartan(ctx, 1, v))
    b = apply_cartan(ctx, 1, apply_cartan(ctx, 0, v))
    assert vec_eq(a, b)


@settings(max_examples=40, deadline=None)
@given(seqs, st.sampled_from(["sl3", "sl2_1"]), st.integers(0, 1), st.integers(0, 1))
def test_cartan_conjugates_lowering(seq, name, i, j):
    # K_i F_j = q^{-n_ij} F_j K_i as operators
    ctx = ctx_for(name)
    v = state(ctx, seq)
    lhs = apply_cartan(ctx, i, apply_lowering(ctx, j, v))
    rhs = vec_scale(ctx.q(-ctx.datum.pair(i, j)),
                    apply_lowering(ctx, j, apply_cartan(ctx, i, v)))
    assert vec_eq(lhs, rhs)


@settings(max_examples=30, deadline=None)
@given(seqs, st.sampled_from(["sl3", "sl2_1"]), st.integers(0, 1), st.integers(0, 1))
def test_cartan_conjugates_raising(seq, name, i, j):
    # K_i E_j = q^{+n_ij} E_j K_i as operators
    ctx = ctx_for(name)
    v = state(ctx, seq)
    lhs = apply_cartan(ctx, i, apply_raising(ctx, j, v))
    rhs = vec_scale(ctx.q(ctx.datum.pair(i, j)),
                    apply_raising(ctx, j, apply_cartan(ctx, i, v)))
    assert vec_eq(lhs, rhs)
