"""Tests for the exact phase-scalar field."""

import operator
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.phase import (
    ArityMismatchError,
    DenominatorVanishesError,
    KeyPacking,
    PhaseScalar,
    _padd,
    _pdiv_exact,
    _pmul,
    q_number,
    q_power,
    rational,
    term_order,
    z_power,
)


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
    z = z_power(0, 1, 1)
    assert q * q == q_power(2, 1)
    assert q * q ** -1 == PhaseScalar.one(1)
    assert z ** 3 == z_power(0, 3, 1)
    assert (q * z) ** 2 == q_power(2, 1) * z_power(0, 2, 1)


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
    z = z_power(0, 1, 1)
    assert str((z ** -1 - z) / (q - q ** -1)) == "(z1^-1 - z1)/(q - q^-1)"
    assert str(q_power(Fraction(1, 2), 1)) == "q^(1/2)"
    assert str(PhaseScalar.from_rational(Fraction(-3, 2), 1) * z ** 2) == "-3/2·z1^2"
    assert str(PhaseScalar.zero(2)) == "0"
    assert str(q ** 2 * z) == "q^2·z1"


def test_rendering_term_order_is_deterministic():
    q = q_power(1, 1)
    z = z_power(0, 1, 1)
    a = 1 + q * z + q ** -1
    b = q ** -1 + q * z + 1
    assert str(a) == str(b) == "1 + q^-1 + q·z1"


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        q_power(1, 1) + q_power(1, 2)
    with pytest.raises(ArityMismatchError):
        q_power(1, 1) * z_power(1, 1, 2)
    with pytest.raises(ArityMismatchError):
        z_power(3, 1, 2)


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
    z = z_power(0, 1, 1)
    x = (1 - z ** 2) / (q - q ** -1)
    # z -> q^-2, i.e. alpha.lambda = 2
    y = x.substitute_z([-2])
    assert y == (1 - q ** -4) / (q - q ** -1)


def test_substitute_z_detects_vanishing_denominator():
    q = q_power(1, 1)
    z = z_power(0, 1, 1)
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
    """A raw sum from (coeff, q-exponent, z-exponents) triples."""
    return _padd({}, {(Fraction(a), tuple(m)): Fraction(c) for c, a, m in terms})


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
    key = st.tuples(st.integers(-6, 6).map(lambda n: Fraction(n, 2)),
                    st.tuples(*[small_ints] * arity))
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


def test_reduce_exact_on_thirds():
    """`reduce_exact` divides on exponents scaled to ints and maps the
    quotient back: it is exact, and an integral q-exponent is an int."""
    q = q_power(Fraction(1, 3), 0)
    third = ((q + q ** 3) / (1 + q ** 2)).reduce_exact()
    assert third.num == {(Fraction(1, 3), ()): 1}
    assert third.den == {(0, ()): 1}
    whole = ((q ** 2 + q ** 4) / (q ** -1 + q)).reduce_exact()
    assert whole.num == {(1, ()): 1}
    assert [type(a) for a, _ in whole.num] == [int]
    # a true quotient comes back unchanged, exponents and all
    kept = (q / (1 + q)).reduce_exact()
    assert kept.num == {(Fraction(1, 3), ()): 1}
    assert kept.den == {(0, ()): 1, (Fraction(1, 3), ()): 1}


# ---- packed monomial keys ----

@st.composite
def packed_keys(draw):
    """A packing plan over some keys of arity 0-3 with q-exponent
    denominators 1-4, those keys and the plan's factor count."""
    arity = draw(st.integers(0, 3))
    key = st.tuples(
        st.builds(lambda n, d: rational(Fraction(n, d)),
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
    its factor count, and nothing past it; a q-exponent off the plan's
    denominator raises as well."""
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
        a = sign * (top + Fraction(1, plan.scale))
    with pytest.raises(ValueError):
        plan.pack((a, m))
    with pytest.raises(ValueError):
        plan.pack((Fraction(1, 5 * plan.scale), keys[0][1]))


@settings(max_examples=100, deadline=None)
@given(packed_keys(), st.data())
def test_guard_box_check_reads_every_field(case, data):
    """`admits` tells, without decoding, whether every digit lies in its
    field's guard box [-G, G), for digits up to 3G from zero."""
    plan, keys, factors = case
    tops = [max(abs(k[1][v]) for k in keys) for v in range(plan.arity)]
    tops.append(int(max(abs(k[0]) for k in keys) * plan.scale))
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
        units.append(z_power(arity - 1, draw(small_ints), arity))
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
    the numerator; an integral q-exponent that the fold yields is an int."""
    q, z = q_power(Fraction(1, 3), 1), z_power(0, 1, 1)
    special = (q / (q ** 4 * z ** -3 + q ** 10 * z ** -2)).substitute_z([-2])
    assert special.num == {(-7, (0,)): Fraction(1, 2)}
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
def pmul_operands(draw):
    arity = draw(st.integers(0, 2))
    monomial, many = _mixed_sums(arity, 1, 1), _mixed_sums(arity, 0, 4)
    shape = draw(st.sampled_from(["1xn", "nx1", "nxn"]))
    return (draw(monomial if shape == "1xn" else many),
            draw(monomial if shape == "nx1" else many))


@settings(max_examples=150, deadline=None)
@given(pmul_operands())
def test_pmul_matches_the_double_loop(operands):
    p1, p2 = operands
    before = (dict(p1), dict(p2))
    product = _pmul(p1, p2)
    assert product == _pmul_reference(p1, p2)
    assert all(c != 0 for c in product.values())
    assert (p1, p2) == before


def _assert_canonical(x):
    """No stored zero; a zero or one-term denominator is exactly 1, which
    `render` and the `den == den` shortcut of `==` rely on."""
    unit = {(0, (0,) * x.arity): 1}
    assert all(c != 0 for p in (x.num, x.den) for c in p.values())
    if len(x.den) == 1 or not x.num:
        assert x.den == unit


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
    with every integral q-exponent stored as an int."""
    a, b = pair
    reduced = PhaseScalar(_pmul(a, b), b, len(next(iter(b))[1])).reduce_exact()
    assert reduced.num == a
    _assert_canonical(reduced)
    assert all(type(k) is int or k.denominator != 1 for k, _ in reduced.num)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(scalars))
def test_unit_and_zero_operands_keep_the_stored_form(a):
    """Multiplying by 1 and adding 0, as scalars or as ints, leave the
    stored num and den exactly as they were."""
    one, zero = PhaseScalar.one(a.arity), PhaseScalar.zero(a.arity)
    for x in (a * one, one * a, a + zero, zero + a, a * 1, 1 * a, a + 0, 0 + a):
        assert x.num == a.num and x.den == a.den
        _assert_canonical(x)
