"""Tests for the exact phase-scalar field."""

import operator
import signal
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qscreen.phase import (
    ArityMismatchError,
    DenominatorVanishesError,
    KeyPacking,
    PhaseScalar,
    _indivisible,
    _padd,
    _pdiv_exact,
    _pneg,
    _pmul,
    q_number,
    q_power,
    ratio,
    rational,
    term_order,
)
from test_serre import scalar_to_sympy


def test_zero_and_one():
    zero = PhaseScalar.zero(1)
    one = PhaseScalar.one(1)
    assert zero.is_zero()
    assert not one.is_zero()
    assert one == 1
    assert zero + one == one
    assert one * zero == zero


def test_monomial_arithmetic():
    q = q_power(1, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    assert q * q == q_power(2, 1)
    assert q * q ** -1 == PhaseScalar.one(1)
    assert z ** 3 == PhaseScalar.monomial(1, 0, (3,), 1)
    assert (q * z) ** 2 == q_power(2, 1) * PhaseScalar.monomial(1, 0, (2,), 1)


def test_half_integer_exponents():
    h = q_power(Fraction(1, 2), 1)
    assert h * h == q_power(1, 1)
    assert h ** -2 == q_power(-1, 1)


def test_fraction_equality_cross_multiplication():
    q = q_power(1, 1)
    # (q^2 - 1)/(q - 1) == q + 1 without any gcd computation
    lhs = (q ** 2 - 1) / (q - 1)
    rhs = q + 1
    assert lhs == rhs
    assert (lhs - rhs).is_zero()


def test_single_monomial_denominator_folds():
    q = q_power(1, 1)
    x = (q ** 2 + 1) / q ** 3
    # denominator was a unit, so it should have been folded into the numerator
    assert x.den == {(Fraction(0), (0,)): Fraction(1)}
    assert x == q ** -1 + q ** -3


def test_rendering_matches_expected_strings():
    q = q_power(1, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    assert str((z ** -1 - z) / (q - q ** -1)) == "(z1^-1 - z1)/(q - q^-1)"
    assert str(q_power(Fraction(1, 2), 1)) == "q^(1/2)"
    assert str(PhaseScalar.from_rational(Fraction(-3, 2), 1) * z ** 2) == "-3/2·z1^2"
    assert str(PhaseScalar.zero(2)) == "0"
    assert str(q ** 2 * z) == "q^2·z1"


def test_rendering_term_order_is_deterministic():
    q = q_power(1, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    a = 1 + q * z + q ** -1
    b = q ** -1 + q * z + 1
    assert str(a) == str(b) == "1 + q^-1 + q·z1"


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        q_power(1, 1) + q_power(1, 2)
    with pytest.raises(ArityMismatchError):
        q_power(1, 1) * PhaseScalar.monomial(1, 0, (0, 1), 2)
    with pytest.raises(ArityMismatchError):
        PhaseScalar.monomial(1, 0, (0, 0, 0, 1), 2)


def test_arity_mismatch_raises_before_the_unit_and_zero_shortcuts():
    """`*` returns the other operand for a unit and `+` for a zero, but only
    after the arity check, whichever side holds the unit or the zero."""
    pairs = [(PhaseScalar.one(1), q_power(1, 2)),
             (q_power(1, 1), PhaseScalar.one(2)),
             (PhaseScalar.zero(1), q_power(1, 2)),
             (q_power(1, 1), PhaseScalar.zero(2))]
    for arity in (1, 2):
        other = q_power(1, 3 - arity)
        for n in (0, 1, 3):
            c = PhaseScalar.from_rational(n, arity)
            pairs += [(c, other), (other, c)]
    for a, b in pairs:
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ArityMismatchError):
                op(a, b)


def test_substitute_z_specializes():
    q = q_power(1, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    x = (1 - z ** 2) / (q - q ** -1)
    # z -> q^-2, i.e. alpha.lambda = 2
    y = x.substitute_z([-2])
    assert y == (1 - q ** -4) / (q - q ** -1)


def test_substitute_z_detects_vanishing_denominator():
    q = q_power(1, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    x = 1 / (1 - z * q)
    with pytest.raises(DenominatorVanishesError):
        x.substitute_z([-1])


def test_q_number_small_values():
    q = q_power(1, 1)
    assert q_number(0, q).is_zero()
    assert q_number(1, q) == PhaseScalar.one(1)
    assert q_number(2, q) == 1 + q
    assert q_number(3, q ** 2) == 1 + q ** 2 + q ** 4


def test_q_number_at_degenerate_base():
    one = PhaseScalar.one(1)
    assert q_number(5, one) == PhaseScalar.from_rational(5, 1)


# ---- property tests ----

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def scalars(draw, arity=1, allow_fraction=True):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    x = PhaseScalar.zero(arity)
    for _ in range(n_terms):
        c = draw(rationals)
        a = draw(rationals)
        m = tuple(draw(small_ints) for _ in range(arity))
        x = x + PhaseScalar.monomial(c, a, m, arity)
    if allow_fraction and draw(st.booleans()):
        d = PhaseScalar.zero(arity)
        while d.is_zero():
            c = draw(rationals.filter(lambda f: f != 0))
            a = draw(rationals)
            m = tuple(draw(small_ints) for _ in range(arity))
            d = d + PhaseScalar.monomial(c, a, m, arity)
            if draw(st.booleans()):
                break
        x = x / d
    return x


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverse_roundtrip(a):
    if not a.is_zero():
        assert a * a.invert() == 1
        assert (1 / a) * a == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12), small_ints)
def test_q_number_telescopes(a, e):
    base = q_power(e, 1)
    # [a] * (1 - base) telescopes to 1 - base^a even when base == 1
    assert q_number(a, base) * (1 - base) == 1 - base ** a


@settings(max_examples=40, deadline=None)
@given(scalars(arity=2), scalars(arity=2))
def test_arity_two_field(a, b):
    assert a * b == b * a
    assert (a + b) - b == a


# ---- exact division of sums ----

def _sum(*terms):
    """A raw sum from (coeff, q-exponent, z-exponents) triples; a raw sum
    holds each q-exponent as an int over its step."""
    return _padd({}, {(a, tuple(m)): Fraction(c) for c, a, m in terms})


def test_exact_division_known_quotients():
    # (q^2 - q^-2) / (q - q^-1) = q + q^-1
    assert _pdiv_exact(_sum((1, 2, ()), (-1, -2, ())),
                       _sum((1, 1, ()), (-1, -1, ()))) == _sum((1, 1, ()), (1, -1, ()))
    # (1 - z1^2) / (1 + z1) = 1 - z1
    assert _pdiv_exact(_sum((1, 0, (0,)), (-1, 0, (2,))),
                       _sum((1, 0, (0,)), (1, 0, (1,)))) == _sum((1, 0, (0,)), (-1, 0, (1,)))
    # quotients beyond every input exponent: (q^2 + q^3) / (q^-3 + q^-2) = q^5
    # and (z1^2 + z1^3) / (z1^-3 + z1^-2) = z1^5
    assert _pdiv_exact(_sum((1, 2, ()), (1, 3, ())),
                       _sum((1, -3, ()), (1, -2, ()))) == _sum((1, 5, ()))
    assert _pdiv_exact(_sum((1, 0, (2,)), (1, 0, (3,))),
                       _sum((1, 0, (-3,)), (1, 0, (-2,)))) == _sum((1, 0, (5,)))
    assert _pdiv_exact({}, _sum((1, 0, ()), (1, 1, ()))) == {}
    with pytest.raises(ZeroDivisionError):
        _pdiv_exact(_sum((1, 0, ())), {})


def _divide_or_time_out(n, d, seconds=1.0):
    """`_pdiv_exact` under an alarm: a division that never stops fails the
    test with TimeoutError instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("exact division did not stop")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return _pdiv_exact(n, d)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_division_stops_on_infinite_series():
    # 1 / (1 - q) and (1 - z1) / (1 - z2) only expand as infinite series; the
    # second never passes HT(n)/HT(d) in lex order and stops at the plan's
    # guard box
    with pytest.raises(ValueError):
        _divide_or_time_out(_sum((1, 0, ())), _sum((1, 0, ()), (-1, 1, ())))
    with pytest.raises(ValueError):
        _divide_or_time_out(_sum((1, 0, (0, 0)), (-1, 0, (1, 0))),
                            _sum((1, 0, (0, 0)), (-1, 0, (0, 1))))


def _raw_sums(arity, min_size=1):
    """Raw sums over step 2: the int q-exponent n stands for q^(n/2)."""
    key = st.tuples(st.integers(-6, 6), st.tuples(*[small_ints] * arity))
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(lambda f: f != 0)
    return st.dictionaries(key, coeff, min_size=min_size, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(_raw_sums(n), _raw_sums(n))))
def test_exact_division_inverts_multiplication(pair):
    a, b = pair
    assert _pdiv_exact(_pmul(a, b), b) == a


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    _raw_sums(n, min_size=0), _raw_sums(n, min_size=2), _raw_sums(n).map(
        lambda p: dict([next(iter(p.items()))])))))
def test_exact_division_rejects_non_multiples(triple):
    # a sum with two or more terms divides no monomial, so a·b + t is not a
    # multiple of b for a single term t
    a, b, t = triple
    with pytest.raises(ValueError):
        _divide_or_time_out(_padd(_pmul(a, b), t), b)


def _exponents(p, step):
    """A stored sum with each int q-exponent a read as a / step."""
    return {(ratio(a, step), m): c for (a, m), c in p.items()}


def test_reduce_exact_on_thirds():
    """`reduce_exact` divides on int exponents over the scalar's step: it
    is exact, and every stored q-exponent is an int."""
    q = q_power(Fraction(1, 3), 0)
    third = ((q + q ** 3) / (1 + q ** 2)).reduce_exact()
    assert _exponents(third.num, third.step) == {(Fraction(1, 3), ()): 1}
    assert third.den == {(0, ()): 1}
    whole = ((q ** 2 + q ** 4) / (q ** -1 + q)).reduce_exact()
    assert _exponents(whole.num, whole.step) == {(1, ()): 1}
    assert [type(a) for a, _ in whole.num] == [int]
    # a true quotient comes back unchanged, exponents and all
    kept = (q / (1 + q)).reduce_exact()
    assert _exponents(kept.num, kept.step) == {(Fraction(1, 3), ()): 1}
    assert _exponents(kept.den, kept.step) == {(0, ()): 1,
                                               (Fraction(1, 3), ()): 1}
    assert all(type(a) is int for x in (third, whole, kept)
               for p in (x.num, x.den) for a, _ in p)


def _long_division(n, d):
    """`_pdiv_exact` for a d of two or more terms, without the early test:
    `KeyPacking.divide` alone, or ValueError."""
    plan = KeyPacking((n, d), len(next(iter(d))[1]), 2)
    return plan.unpack_poly(plan.divide(plan.pack_poly(n), plan.pack_poly(d)))


def _outcome(divide, n, d):
    try:
        return divide(n, d)
    except ValueError:
        return ValueError


@st.composite
def division_pairs(draw):
    """(n, d, step): d of two or more terms, n a multiple of d or one
    perturbed by a term.  Coefficients are small or past 64 bits, of
    either sign, and sometimes Fractions; sums are z-free or carry up to
    three z-slots."""
    arity = draw(st.integers(0, 3))
    z_free = arity == 0 or draw(st.booleans())
    z = st.just((0,) * arity) if z_free else st.tuples(*[small_ints] * arity)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70),
                      st.fractions(-4, 4, max_denominator=3)).filter(bool)
    def sums(min_size):
        return st.dictionaries(st.tuples(st.integers(-9, 9), z),
                               coeff.map(rational), min_size=min_size,
                               max_size=5)
    d, q = draw(sums(2)), draw(sums(0))
    n = _pmul(q, d)
    if draw(st.booleans()):
        n = _padd(n, draw(sums(1)))
    return n, d, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(division_pairs())
def test_early_rejection_keeps_every_division(case):
    """The same quotient, or ValueError, as the long division alone, over
    every step: a key is an int exponent read over the scalar's step."""
    n, d, step = case
    expected = _outcome(_long_division, n, d)
    assert _outcome(_pdiv_exact, n, d) == expected
    if _indivisible(n, d):
        assert expected is ValueError
    arity = len(next(iter(d))[1])
    reduced = PhaseScalar._of(n, d, arity, step).reduce_exact()
    if expected is ValueError:
        assert (reduced.num, reduced.den) == (n, d)
    else:
        assert (reduced.num, reduced.den, reduced.step) == (
            expected, {(0, (0,) * arity): 1}, step)


def _int_sum(*terms):
    """A raw sum with int coefficients, as `_sum` takes them."""
    return {(a, tuple(m)): c for c, a, m in terms}


def test_early_rejection_applies_to_z_free_int_sums_only():
    # (q^2 + 1) / (q + 1): at x = 4, 5 does not divide 17
    assert _indivisible(_int_sum((1, 2, ()), (1, 0, ())),
                        _int_sum((1, 1, ()), (1, 0, ())))
    # a span shorter than the divisor's
    assert _indivisible(_int_sum((1, 1, ())), _int_sum((1, 2, ()), (1, 0, ())))
    # a true multiple, a z-slot in use and a Fraction coefficient prove nothing
    assert not _indivisible(_int_sum((1, 2, ()), (-1, 0, ())),
                            _int_sum((1, 1, ()), (1, 0, ())))
    assert not _indivisible(_int_sum((1, 2, (1,)), (1, 0, (0,))),
                            _int_sum((1, 1, (0,)), (1, 0, (0,))))
    assert not _indivisible(_sum((Fraction(1, 2), 2, ()), (1, 0, ())),
                            _int_sum((1, 1, ()), (1, 0, ())))
    # z-free sums over several slots are tested
    assert _indivisible(_int_sum((1, 2, (0, 0)), (1, 0, (0, 0))),
                        _int_sum((1, 1, (0, 0)), (1, 0, (0, 0))))


# ---- packed monomial keys ----

@st.composite
def packed_keys(draw):
    """A packing plan over some keys of arity 0-3 with q-exponents n/d,
    d in 1-4, held as ints over step 12, those keys and the plan's factor
    count."""
    arity = draw(st.integers(0, 3))
    key = st.tuples(
        st.builds(lambda n, d: n * (12 // d),
                  st.integers(-12, 12), st.integers(1, 4)),
        st.tuples(*[st.integers(-5, 5)] * arity))
    keys = draw(st.lists(key, min_size=1, max_size=6))
    factors = draw(st.integers(1, 3))
    return KeyPacking([dict.fromkeys(keys, 1)], arity, factors), keys, factors


@settings(max_examples=100, deadline=None)
@given(packed_keys())
def test_packing_round_trips_in_term_order(case):
    plan, keys, _ = case
    for k in keys:
        back = plan.unpack(plan.pack(k))
        assert back == k
        assert type(back[0]) is type(k[0])
    for k1 in keys:
        for k2 in keys:
            assert ((term_order(k1) < term_order(k2))
                    == (plan.pack(k1) < plan.pack(k2)))


@settings(max_examples=100, deadline=None)
@given(packed_keys())
def test_packed_sums_are_monomial_products(case):
    """Within the plan a key sum is the product monomial's key and a key
    difference decodes to the quotient monomial, without carry."""
    plan, keys, factors = case
    for k1 in keys:
        for k2 in keys:
            (quotient,) = _pdiv_exact({k1: 1}, {k2: 1})
            assert plan.unpack(plan.pack(k1) - plan.pack(k2)) == quotient
            if factors >= 2:
                (product,) = _pmul({k1: 1}, {k2: 1})
                assert plan.pack(k1) + plan.pack(k2) == plan.pack(product)
                assert plan.unpack(plan.pack(k1) + plan.pack(k2)) == product


@settings(max_examples=100, deadline=None)
@given(packed_keys(), st.data())
def test_packing_beyond_the_plan_raises(case, data):
    """Each field admits the largest |exponent| of the plan's input times
    its factor count, and nothing past it; a key of another arity raises
    as well."""
    plan, keys, factors = case
    slot = data.draw(st.integers(0, plan.arity), label="field")
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    a, m = keys[0]
    if slot < plan.arity:
        top = factors * max(abs(k[1][slot]) for k in keys)
        m = m[:slot] + (sign * top,) + m[slot + 1:]
        assert plan.unpack(plan.pack((a, m))) == (a, m)
        m = m[:slot] + (sign * (top + 1),) + m[slot + 1:]
    else:
        top = factors * max(abs(k[0]) for k in keys)
        assert plan.unpack(plan.pack((sign * top, m)))[0] == sign * top
        a = sign * (top + 1)
    with pytest.raises(ValueError):
        plan.pack((a, m))
    with pytest.raises(ValueError):
        plan.pack((0, keys[0][1] + (0,)))


@settings(max_examples=100, deadline=None)
@given(packed_keys(), st.data())
def test_guard_box_check_reads_every_field(case, data):
    """`admits` tells, without decoding, whether every digit lies in its
    field's guard box [-G, G), for digits up to 3G from zero."""
    plan, keys, factors = case
    tops = [max(abs(k[1][v]) for k in keys) for v in range(plan.arity)]
    tops.append(max(abs(k[0]) for k in keys))
    guards = [1 << (factors * t).bit_length() for t in tops]
    digits = [data.draw(st.integers(-3 * g, 3 * g)) for g in guards]
    k = plan.join(digits)
    assert plan.split(k) == digits
    assert plan.admits(k) == all(-g <= e < g for e, g in zip(digits, guards))


# ---- the scalar core: int, or Fraction when non-integral ----

q_exps = st.one_of(st.integers(-4, 4),
                   st.integers(-8, 8).map(lambda n: Fraction(n, 2)),
                   st.integers(-9, 9).map(lambda n: Fraction(n, 3)))
coeffs = st.one_of(st.integers(-3, 3), st.fractions(
    min_value=-3, max_value=3, max_denominator=3)).filter(lambda c: c != 0)


def _values(x):
    """Every q-exponent and coefficient stored in a scalar."""
    for p in (x.num, x.den):
        for (a, m), c in p.items():
            assert all(type(e) is int for e in m)
            yield a
            yield c


def _exact(x):
    return all(type(v) in (int, Fraction) for v in _values(x))


def _demoted(x):
    return all(type(v) is int or v.denominator != 1 for v in _values(x))


@st.composite
def built_scalars(draw, arity):
    """A sum of 1-3 constructed monomials and the monomials themselves."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = tuple(draw(small_ints) for _ in range(arity))
        terms.append(PhaseScalar.monomial(draw(coeffs), draw(q_exps), m, arity))
    units = [PhaseScalar.from_rational(draw(coeffs), arity),
             q_power(draw(q_exps), arity)]
    if arity:
        units.append(PhaseScalar.monomial(
            1, 0, (0,) * (arity - 1) + (draw(small_ints),), arity))
    total = PhaseScalar.zero(arity)
    for t in terms:
        total = total + t
    for u in units:
        total = total * u
    return total, terms + units


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    built_scalars(n), built_scalars(n), st.lists(q_exps, min_size=n, max_size=n))))
def test_scalar_core_holds_no_floats(case):
    (a, a_parts), (b, b_parts), exps = case
    for part in a_parts + b_parts:
        assert _exact(part) and _demoted(part)
    results = [a + b, a - b, a * b]
    for d in (b, a + b + 1):
        if not d.is_zero():
            results.append(a / d)
    for x in list(results):
        try:
            special = x.substitute_z(exps)
        except DenominatorVanishesError:
            continue
        results.append(special)
        assert all(type(a) is int or a.denominator != 1
                   for p in (special.num, special.den) for a, _ in p)
    for x in results:
        assert _exact(x)
    if b.num:
        quotient = _pdiv_exact(_pmul(a.num, b.num), b.num)
        assert quotient == a.num
        assert all(type(v) in (int, Fraction) for k, c in quotient.items()
                   for v in (k[0], c))


def test_integer_division_stays_exact():
    third = PhaseScalar.from_rational(1, 0) / 3
    assert third.render() == "1/3"
    assert third.num == {(0, ()): Fraction(1, 3)}


def test_fraction_keys_equal_int_keys():
    built = PhaseScalar({(Fraction(2), (0,)): Fraction(3)},
                        {(Fraction(0), (0,)): Fraction(1)}, 1)
    assert built == 3 * q_power(2, 1)
    assert built.num == (3 * q_power(2, 1)).num
    assert str(built) == "3·q^2"


def test_substitution_folds_to_int_exponents():
    """A denominator that substitution leaves as one term is folded into
    the numerator; every q-exponent that the fold yields is an int."""
    q, z = q_power(Fraction(1, 3), 1), PhaseScalar.monomial(1, 0, (1,), 1)
    special = (q / (q ** 4 * z ** -3 + q ** 10 * z ** -2)).substitute_z([-2])
    assert _exponents(special.num, special.step) == {(-7, (0,)): Fraction(1, 2)}
    assert [type(a) for a, _ in special.num] == [int]


# ---- monomial fast paths ----

def _mixed_sums(arity, min_size, max_size):
    """Raw sums with int or Fraction coefficients and integral, half or
    third q-exponents."""
    key = st.tuples(q_exps, st.tuples(*[small_ints] * arity))
    return st.dictionaries(key, coeffs, min_size=min_size, max_size=max_size)


def _pmul_reference(p1, p2):
    """The plain double loop, merging equal keys and dropping zeros."""
    out = {}
    for (a1, m1), c1 in p1.items():
        for (a2, m2), c2 in p2.items():
            k = (a1 + a2, tuple(x + y for x, y in zip(m1, m2)))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


@st.composite
def crowded_sums(draw, arity):
    """Sums of 0-8 terms on few keys, so that products merge and cancel:
    z-free and z-carrying terms, int and Fraction coefficients of both
    signs."""
    z_free = (0,) * arity
    m = st.one_of(st.just(z_free), st.tuples(*[st.integers(-1, 1)] * arity))
    key = st.tuples(st.integers(-2, 2), m)
    c = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return draw(st.dictionaries(key, c, min_size=0, max_size=8))


@st.composite
def pmul_operands(draw):
    arity = draw(st.integers(0, 2))
    monomial, many = _mixed_sums(arity, 1, 1), _mixed_sums(arity, 0, 4)
    shape = draw(st.sampled_from(["1xn", "nx1", "nxn", "crowded"]))
    if shape == "crowded":
        return draw(crowded_sums(arity)), draw(crowded_sums(arity))
    return (draw(monomial if shape == "1xn" else many),
            draw(monomial if shape == "nx1" else many))


@settings(max_examples=300, deadline=None)
@given(pmul_operands())
def test_pmul_matches_the_double_loop(operands):
    """In both operand orders, whichever one the general case iterates."""
    p1, p2 = operands
    before = (dict(p1), dict(p2))
    product = _pmul(p1, p2)
    assert product == _pmul_reference(p1, p2)
    assert _pmul(p2, p1) == product
    assert all(c != 0 for c in product.values())
    assert (p1, p2) == before


def test_pmul_drops_the_terms_that_cancel():
    z, q = {(0, (1,)): 1}, {(1, (0,)): 1}
    one, q_inv = {(0, (0,)): 1}, {(-1, (0,)): 1}
    for a, b, product in (
            (_padd(one, z), _padd(one, _pneg(z)),
             {(0, (0,)): 1, (0, (2,)): -1}),
            (_padd(q, _pneg(q_inv)), _padd(q, q_inv),
             {(2, (0,)): 1, (-2, (0,)): -1}),
            (_padd(q, z), _padd(_pneg(q), z), {(2, (0,)): -1, (0, (2,)): 1})):
        assert _pmul(a, b) == _pmul(b, a) == product


def _snapshot(x):
    return (dict(x.num), dict(x.den), x.arity, x.step)


def _is_unit(x):
    return len(x.den) == 1 and x.num == x.den


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    scalars(n), scalars(n), st.lists(q_exps, min_size=n, max_size=n))))
def test_no_operation_mutates_an_operand(case):
    """Scalars are shared, the unit of each arity above all, so no
    operation may write to an operand's num or den."""
    a, b, exps = case
    one = PhaseScalar.one(a.arity)
    assert PhaseScalar.one(a.arity) is one
    # a monomial takes the shift path of `*`; over step 1 it leaves a's
    # step as it is, so the product shares the other operand's den dict:
    # a's, or mono's when a is a monomial too
    mono = PhaseScalar.monomial(-2, 1, (1,) * a.arity, a.arity)
    shared = a * mono
    if a.num and not _is_unit(a):
        keeper = mono if len(a.num) == len(a.den) == 1 else a
        assert shared.den is keeper.den
    operands = (a, b, one, mono, shared)
    before = [_snapshot(x) for x in operands]
    for x in operands:
        for y in operands:
            for op in (operator.add, operator.sub, operator.mul, operator.eq):
                op(x, y)
            if not y.is_zero():
                x / y
        if not x.is_zero():
            x.invert()
        x._at(2 * x.step)
        x.reduce_exact()
        x.render(wrap=True)
        try:
            x.substitute_z(exps)
        except DenominatorVanishesError:
            pass
    assert [_snapshot(x) for x in operands] == before
    assert one == 1 and _snapshot(one) == ({(0, (0,) * a.arity): 1},
                                           {(0, (0,) * a.arity): 1}, a.arity, 1)


def _assert_canonical(x):
    """No stored zero; a zero or one-term denominator is exactly 1, which
    `render` and the `den == den` shortcut of `==` rely on; every stored
    q-exponent is an int over a positive int step."""
    unit = {(0, (0,) * x.arity): 1}
    assert all(c != 0 for p in (x.num, x.den) for c in p.values())
    if len(x.den) == 1 or not x.num:
        assert x.den == unit
    assert type(x.step) is int and x.step > 0
    assert all(type(a) is int for p in (x.num, x.den) for a, _ in p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(scalars(n), scalars(n))))
def test_results_store_no_zero_and_a_unit_denominator_is_one(pair):
    a, b = pair
    results = [a + b, a - b, a * b, -a, a - a, a + (-a), a * 0]
    if not b.is_zero():
        results += [a / b, b.invert(), b / b]
    for x in results:
        _assert_canonical(x)


def test_constructor_strips_and_folds_outside_input():
    x = PhaseScalar({(0, (0,)): 0, (1, (1,)): Fraction(3)},
                    {(2, (0,)): 2, (5, (1,)): 0}, 1)
    _assert_canonical(x)
    assert x.num == {(-1, (1,)): Fraction(3, 2)}
    _assert_canonical(PhaseScalar({(1, (0,)): 0}, {(2, (1,)): 2, (3, (0,)): 1}, 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    _mixed_sums(n, 0, 4), _mixed_sums(n, 2, 4))))
def test_reduce_exact_recovers_the_factor(pair):
    """a·b / b reduces to a for exponents in halves and thirds together,
    with every q-exponent stored as an int."""
    a, b = pair
    reduced = PhaseScalar(_pmul(a, b), b, len(next(iter(b))[1])).reduce_exact()
    assert _exponents(reduced.num, reduced.step) == a
    _assert_canonical(reduced)
    assert all(type(k) is int for k, _ in reduced.num)


T = sp.Symbol("T")  # q = T^6, so halves and thirds are integer powers of T


@st.composite
def stepped_scalars(draw, arity):
    """A quotient of `_mixed_sums`, over the step its exponents need: 1,
    2, 3 or 6."""
    num = draw(_mixed_sums(arity, 0, 3))
    den = draw(_mixed_sums(arity, 1, 2))
    return PhaseScalar(num, den, arity)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    stepped_scalars(n), stepped_scalars(n),
    st.lists(q_exps, min_size=n, max_size=n),
    st.dictionaries(st.tuples(small_ints, st.tuples(*[small_ints] * n)),
                    coeffs, min_size=1, max_size=3))))
def test_arithmetic_across_steps_agrees_with_sympy(case):
    """`+`, `*`, `/` and `substitute_z` on scalars over different steps
    agree with sympy, every result is stored over int exponents, and one
    value built over step 1 and over step 6 compares and prints equal."""
    a, b, exps, ints = case
    zs = sp.symbols(f"z1:{a.arity + 1}")

    def to_sympy(x):
        _assert_canonical(x)
        return scalar_to_sympy(x, zs, q=T, scale=6)

    def same(x, expr):
        assert sp.cancel(to_sympy(x) - expr) == 0

    sa, sb = to_sympy(a), to_sympy(b)
    same(a + b, sa + sb)
    same(a - b, sa - sb)
    same(a * b, sa * sb)
    if not b.is_zero():
        same(a / b, sa / sb)
    at = {z: T ** (6 * e) for z, e in zip(zs, exps)}
    for x, sx in ((a, sa), (a * b, sa * sb)):
        try:
            special = x.substitute_z(exps)
        except DenominatorVanishesError:
            continue
        assert special.step % x.step == 0
        same(special, sx.subs(at))

    whole = PhaseScalar(ints, {(0, (0,) * a.arity): 1}, a.arity)
    sixths = whole * q_power(Fraction(1, 6), a.arity) \
        * q_power(Fraction(-1, 6), a.arity)
    assert (whole.step, sixths.step) == (1, 6)
    assert whole == sixths and sixths == whole
    assert str(whole) == str(sixths)
    assert whole + a == sixths + a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(scalars))
def test_unit_and_zero_operands_keep_the_stored_form(a):
    """Multiplying by 1 and adding 0, as scalars or as ints, leave the
    stored num and den exactly as they were."""
    one, zero = PhaseScalar.one(a.arity), PhaseScalar.zero(a.arity)
    for x in (a * one, one * a, a + zero, zero + a, a * 1, 1 * a, a + 0, 0 + a):
        assert x.num == a.num and x.den == a.den
        _assert_canonical(x)


# ---- products with a monomial factor; sums that drop what cancels ----

@st.composite
def monomials(draw, arity):
    """One term over the unit denominator, over its own step: z-free or
    z-carrying, with a coefficient of ±1 or a Fraction."""
    m = draw(st.one_of(st.just((0,) * arity),
                       st.tuples(*[small_ints] * arity)))
    c = draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 2)]))
    return PhaseScalar.monomial(c, draw(q_exps), m, arity)


def _general_product(x, y):
    """(num, den, arity, step) of x * y the general way: both over the lcm
    of their steps, numerators and denominators multiplied term by term."""
    step = lcm(x.step, y.step)
    x, y = x._at(step), y._at(step)
    num = _pmul_reference(x.num, y.num)
    den = _pmul_reference(x.den, y.den) if num else {(0, (0,) * x.arity): 1}
    return num, den, x.arity, step


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(
    monomials(n),
    st.one_of(scalars(n), monomials(n), st.just(PhaseScalar.one(n)),
              st.just(PhaseScalar.zero(n))))))
def test_monomial_product_stores_what_the_general_path_stores(case):
    """A product with a monomial factor shifts the other operand's keys;
    it stores what multiplying both sums and both denominators stores, in
    both operand orders, over operands of different steps, and against a
    monomial, the unit and zero."""
    mono, x = case
    # `*` returns the other operand for a unit; one over a step above 1
    # would keep that step where the general path takes the lcm
    assume(not (_is_unit(x) and x.step > 1))
    expected = _general_product(mono, x)
    for product in (mono * x, x * mono):
        assert _snapshot(product) == expected
        _assert_canonical(product)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2).flatmap(
    lambda n: st.tuples(crowded_sums(n), crowded_sums(n))))
def test_padd_drops_what_cancels_as_it_adds(pair):
    """`_padd` equals the sum followed by a strip of zeros, and leaves its
    operands as they were, down to a total cancellation."""
    p1, p2 = pair
    before = (dict(p1), dict(p2))
    total = dict(p1)
    for k, c in p2.items():
        total[k] = total.get(k, 0) + c
    assert _padd(p1, p2) == {k: c for k, c in total.items() if c != 0}
    assert _padd(p1, _pneg(p1)) == {}
    assert _padd(p2, p1) == _padd(p1, p2)
    assert (p1, p2) == before
