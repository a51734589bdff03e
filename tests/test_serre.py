"""Scanner tests, including an independent symbolic oracle.

The oracle rebuilds the raising-operator matrix with sympy straight from the
defining formula (brackets, crossing factors, parity signs) and solves it
with sympy's own linear algebra, so none of the package's exact-arithmetic
code is on that path.
"""

import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.phase import (DenominatorVanishesError, KeyPacking, PhaseScalar,
                           _one_poly, _pcross, q_power, ratio)
from qscreen import serre
from qscreen.contour import FaultInjection
from qscreen.rootdata import CATALOG, Weight, resolve_algebra
from qscreen.serre import (
    enumerate_words,
    normal_form,
    nullspace,
    residual_checks,
    singular_scan,
    specialize_scan,
    specialize_vector,
)

Q = sp.Symbol("q")
ALGEBRAS = Path(__file__).resolve().parent / "algebras"


def test_enumerate_words_orders_lexicographically():
    assert enumerate_words((2, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert enumerate_words((0, 2)) == [(1, 1)]
    assert enumerate_words((0, 0)) == [()]
    assert len(enumerate_words((2, 2))) == 6


def test_enumerate_words_lists_the_sorted_distinct_permutations():
    for rank in range(1, 5):
        for multidegree in itertools.product(range(4), repeat=rank):
            if sum(multidegree) > 7:
                continue
            letters = [j for j, d in enumerate(multidegree) for _ in range(d)]
            assert enumerate_words(multidegree) == \
                sorted(set(itertools.permutations(letters)))


def test_a_one_column_scan_above_the_recursion_limit_runs():
    """A word longer than the interpreter's recursion limit enumerates and
    scans: no call stack grows with the degree."""
    n = sys.getrecursionlimit() + 10
    assert enumerate_words((n,)) == [(0,) * n]
    words = enumerate_words((1, n))
    assert len(words) == n + 1 and words[-1] == (1,) * n + (0,)
    scan = singular_scan(CATALOG["sl2"], (n,))
    assert scan.words == [(0,) * n] and scan.polys == []


def test_enumerate_words_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_words((1, -1))


# ---- the frozen acceptance scans ----

def test_scan_odd_isotropic_square():
    result = singular_scan(CATALOG["sl2_1"], (0, 2))
    assert result.dimension == 1
    assert result.basis_as_tokens() == [{"F2 F2": "1"}]
    assert result.residuals == [{"E1": "0", "E2": "0"}]


def test_scan_sl2_degree_two_is_empty():
    result = singular_scan(CATALOG["sl2"], (2,))
    assert result.dimension == 0
    assert result.basis == []


def test_scan_sl3_mixed_degree():
    result = singular_scan(CATALOG["sl3"], (2, 1))
    assert result.dimension == 1
    q = q_power(1, 2)
    expected = [PhaseScalar.one(2), -(q + q ** -1), PhaseScalar.one(2)]
    assert result.words == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for got, want in zip(result.basis[0], expected):
        assert got == want
    assert result.residuals == [{"E1": "0", "E2": "0"}]


def test_scan_trivial_multidegree():
    result = singular_scan(CATALOG["sl2"], (0,))
    assert result.dimension == 1
    assert result.basis_as_tokens() == [{"1": "1"}]


def test_scan_validates_multidegree_length():
    with pytest.raises(ValueError):
        singular_scan(CATALOG["sl2"], (1, 1))


# ---- the independent sympy oracle ----

def oracle_matrix(datum, multidegree):
    """The raising matrix rebuilt from scratch in sympy (denominators
    dropped; the kernel is unaffected)."""
    zs = [sp.Symbol(f"z{k+1}") for k in range(datum.rank)]
    words = enumerate_words(multidegree)
    col = {w: k for k, w in enumerate(words)}
    rows = []
    for j in range(datum.rank):
        if multidegree[j] == 0:
            continue
        reduced = list(multidegree)
        reduced[j] -= 1
        targets = {t: k for k, t in enumerate(enumerate_words(reduced))}
        block = [[sp.Integer(0)] * len(words) for _ in targets]
        for w in words:
            for l, i in enumerate(w):
                if i != j:
                    continue
                inner = sum(Fraction(datum.pair(j, ip)) for ip in w[l + 1:])
                bracket = 1 - Q ** sp.Rational(2 * inner) * zs[j] ** 2
                crossing = sp.Integer(1)
                for ip in w[:l]:
                    crossing *= Q ** sp.Rational(Fraction(datum.pair(j, ip)))
                    if datum.parity(j) and datum.parity(ip):
                        crossing = -crossing
                target = w[:l] + w[l + 1:]
                block[targets[target]][col[w]] += bracket * crossing
        rows.extend(block)
    return sp.Matrix(rows) if rows else sp.zeros(0, len(words)), words, zs


def scalar_to_sympy(x: PhaseScalar, zs, q=Q, scale=1):
    """x in sympy, with q^a written as q**(a·scale), where each stored int
    exponent is read as a = ratio(stored, x.step)."""
    def poly(p):
        total = sp.Integer(0)
        for (a, m), c in p.items():
            term = sp.Rational(c) * q ** (sp.Rational(a, x.step) * scale)
            for z, e in zip(zs, m):
                term *= z ** e
            total += term
        return total

    return poly(x.num) / poly(x.den)


ORACLE_SCANS = [
    ("sl3", (2, 1)),
    ("sl3", (1, 1)),
    ("sl2", (3,)),
    ("sl2_1", (0, 2)),
    ("sl2_1", (1, 1)),
    ("sl2_1", (2, 1)),
    ("osp1_2", (2,)),
]


@pytest.mark.parametrize("name,md", ORACLE_SCANS)
def test_scans_agree_with_sympy_oracle(name, md):
    datum = CATALOG[name]
    result = singular_scan(datum, md)
    matrix, words, zs = oracle_matrix(datum, md)
    assert words == result.words
    kernel = matrix.nullspace()
    assert len(kernel) == result.dimension
    # each of our vectors must be annihilated by the oracle matrix
    for vec in result.basis:
        col = sp.Matrix([scalar_to_sympy(c, zs) for c in vec])
        residual = sp.simplify(matrix * col)
        assert residual == sp.zeros(matrix.rows, 1)


@pytest.mark.parametrize("name,md,weight", [
    (name, md, Weight.generic()) for name, md in ORACLE_SCANS
] + [("sl2_1", (2, 2), Weight.concrete([1, 1]))])
def test_kernel_lead_prints_as_one(name, md, weight):
    """The documented normal form: each kernel vector's first nonzero
    coefficient is the literal 1, not a quotient P/P."""
    result = singular_scan(CATALOG[name], md, weight=weight)
    for entry in result.basis_as_tokens():
        assert next(iter(entry.values())) == "1"


def test_concrete_kernel_is_reduced_when_exact():
    """At a concrete weight a coordinate whose denominator divides it
    exactly prints as a Laurent polynomial."""
    result = singular_scan(CATALOG["sl3"], (2, 1),
                           weight=Weight.concrete([1, 2]))
    assert result.basis_as_tokens() == [
        {"F1 F1 F2": "1", "F1 F2 F1": "-q - q^-1", "F2 F1 F1": "1"}]
    assert result.residuals == [{"E1": "0", "E2": "0"}]


def test_reduce_exact_keeps_a_true_quotient():
    q = q_power(1, 0)
    c = q / (1 + q)
    reduced = c.reduce_exact()
    assert reduced == c
    assert reduced.den == c.den != PhaseScalar.one(0).den
    assert ((q + q ** 3) / (1 + q ** 2)).reduce_exact().render() == "q"


@pytest.mark.parametrize("name,md", [("sl3", (2, 1)), ("sl2_1", (2, 2)),
                                     ("osp1_4.json", (3, 1)),
                                     ("osp1_4.json", (1, 2))])
def test_polynomial_vector_is_the_kernel_vector_times_its_lead(
        name, md, monkeypatch):
    """`nullspace` returns polynomial vectors (every denominator the unit),
    and the scan prints each in `normal_form`: the lead the literal 1,
    every coordinate v_k / v_lead.  The residual checks run on the
    polynomial vector and give the printed vector's verdict.  osp(1|4)
    brings half-integer q-exponents."""
    returned = []

    def spy(*args):
        out = nullspace(*args)
        returned.extend(out)
        return out

    monkeypatch.setattr(serre, "nullspace", spy)
    datum = resolve_algebra(name if name in CATALOG else str(ALGEBRAS / name))
    result = singular_scan(datum, md)
    assert result.basis and len(returned) == len(result.basis)
    unit = PhaseScalar.one(datum.rank).den
    for poly, vec in zip(returned, result.basis):
        assert all(c.den == unit for c in poly)
        assert [(c.num, c.den) for c in vec] == \
            [(c.num, c.den) for c in normal_form(poly)]
        lead = next(k for k, c in enumerate(vec) if not c.is_zero())
        assert vec[lead] == 1
        assert all(p == c * poly[lead] for p, c in zip(poly, vec))
        assert residual_checks(result.ctx, result.words, poly) == \
            residual_checks(result.ctx, result.words, vec)
    if name != "sl2_1":
        # v_lead is a multi-term minor here (for sl3 it carries 1 - z1^2)
        assert len(poly[lead].num) > 1


def test_sl3_frozen_vector_against_oracle_nullspace():
    datum = CATALOG["sl3"]
    matrix, _, zs = oracle_matrix(datum, (2, 1))
    kernel = matrix.nullspace()
    assert len(kernel) == 1
    vec = kernel[0]
    vec = sp.simplify(vec / vec[0])
    expected = sp.Matrix([1, -(Q + 1 / Q), 1])
    assert sp.simplify(vec - expected) == sp.zeros(3, 1)


# ---- specialization ----

def test_specialize_vector_at_safe_weight():
    datum = CATALOG["sl3"]
    result = singular_scan(datum, (2, 1))
    weight = Weight.concrete([1, 7])
    spec = specialize_vector(result.basis[0], datum, weight)
    q = q_power(1, 2)
    assert spec[0] == PhaseScalar.one(2)
    assert spec[1] == -(q + q ** -1)
    checks = residual_checks(replace(result.ctx, weight=weight),
                             result.words, spec)
    assert checks == {"E1": "0", "E2": "0"}


def test_specialize_vector_detects_vanishing_locus():
    datum = CATALOG["sl3"]
    result = singular_scan(datum, (2, 1))
    # alpha_1 . lambda = 0 here, so the un-cancelled (1 - z1^2)-type factors
    # shared by numerator and denominator both specialize to zero
    weight = Weight.concrete([1, 2])
    with pytest.raises(DenominatorVanishesError):
        specialize_vector(result.basis[0], datum, weight)
    report = specialize_scan(result, weight)
    assert report["status"] == "denominator-vanishes"
    assert report["weight"] == "1,2"


def test_specialize_scan_ok_branch():
    datum = CATALOG["sl3"]
    result = singular_scan(datum, (2, 1))
    report = specialize_scan(result, Weight.concrete([Fraction(1, 3), 5]))
    assert report["status"] == "ok"
    assert report["residual_checks"] == [{"E1": "0", "E2": "0"}]


def test_specialize_scan_uses_the_scan_context():
    """A specialization reads the datum and the faults from the scan, so a
    faulted kernel is checked against the faulted operator it came from."""
    faults = FaultInjection(flip_raising_prefactor=True)
    result = singular_scan(CATALOG["sl2_1"], (1, 2), faults=faults)
    assert result.ctx.faults == faults
    assert result.residuals == [{"E1": "0", "E2": "0"}]
    report = specialize_scan(result, Weight.concrete([3, 5]))
    assert report["status"] == "ok"
    assert report["residual_checks"] == [{"E1": "0", "E2": "0"}]


def test_specializations_check_residuals_on_the_polynomial_vector(
        monkeypatch):
    """An `ok` specialization checks the specialized polynomial vector only;
    the printed one is checked again only on a failure, or when the
    polynomial vector specializes to zero and so proves nothing."""
    datum = CATALOG["sl3"]
    result = singular_scan(datum, (2, 1))
    assert "polys" not in result.to_json()
    checked = []

    def spy(ctx, words, vec):
        checked.append(vec)
        return residual_checks(ctx, words, vec)

    monkeypatch.setattr(serre, "residual_checks", spy)
    weight = Weight.concrete([1, 7])
    assert specialize_scan(result, weight)["status"] == "ok"
    (poly,) = result.polys
    assert checked == [specialize_vector(poly, datum, weight)]
    assert all(c.den == PhaseScalar.one(2).den for c in checked[0])

    checked.clear()
    zero = [PhaseScalar.zero(2)] * len(poly)
    assert serre._kernel_residuals(result.ctx, result.words, zero,
                                   result.basis[0]) == {"E1": "0", "E2": "0"}
    assert checked == [result.basis[0]]


def test_scan_derives_its_residuals_when_first_read(monkeypatch):
    """A scan runs no residual check; its residuals are computed on the
    first read, one check per vector that passes, and kept."""
    checked = []

    def spy(ctx, words, vec):
        checked.append(vec)
        return residual_checks(ctx, words, vec)

    monkeypatch.setattr(serre, "residual_checks", spy)
    result = singular_scan(CATALOG["sl2_1"], (2, 2))
    assert result.dimension > 1 and checked == []
    first = result.residuals
    assert len(checked) == result.dimension
    assert result.residuals is first and len(checked) == result.dimension
    assert all(set(checks.values()) == {"0"} for checks in first)


def test_specialize_scan_rejects_a_concrete_scan():
    """A kernel found at a concrete weight may hold there only: sl2_1 (2,2)
    at -7/2,-5/3 fails at 2,5, where the generic kernel is `ok`."""
    datum = CATALOG["sl2_1"]
    weight = Weight.concrete([2, 5])
    concrete = singular_scan(datum, (2, 2),
                             Weight.concrete([Fraction(-7, 2), Fraction(-5, 3)]))
    with pytest.raises(ValueError, match="generic weight"):
        specialize_scan(concrete, weight)
    assert specialize_scan(singular_scan(datum, (2, 2)), weight)["status"] == "ok"


def test_scan_json_shape():
    obj = singular_scan(CATALOG["sl2_1"], (0, 2)).to_json()
    assert set(obj) == {"algebra", "multidegree", "weight", "dimension",
                        "basis", "residual_checks"}
    assert obj["multidegree"] == [0, 2]
    assert obj["dimension"] == 1
    assert obj["weight"] == "generic"


# ---- the solver against sympy on random matrices ----

rat = st.integers(min_value=-3, max_value=3)
# q-exponents with denominators 1-4, so the solver meets halves, thirds and
# quarters in one matrix and scales them by their common denominator
q_exp = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# an entry is a sum of 1-3 terms c·q^a, so elimination divides by
# multi-term pivots and the exact division is exercised
laurent = st.lists(st.tuples(rat, q_exp), min_size=1, max_size=3)
# q = T^12 makes every exponent above an integer power of T, so sympy
# works in Q(T) rather than in an algebraic extension of Q(q)
T = sp.Symbol("T")


def q_to_t(a) -> int:
    return int(Fraction(a) * 12)


@st.composite
def q_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    entries = [[draw(laurent) for _ in range(ncols)] for _ in range(nrows)]
    return nrows, ncols, entries


def package_rows(entries):
    return [[sum((PhaseScalar.monomial(c, a, (), 0) for c, a in terms),
                 PhaseScalar.zero(0)) for terms in row] for row in entries]


@settings(max_examples=40, deadline=None)
@given(q_matrices())
def test_nullspace_matches_sympy(data):
    nrows, ncols, entries = data
    basis = nullspace(package_rows(entries), ncols, 0)
    matrix = sp.Matrix([[sum(sp.Rational(c) * T ** q_to_t(a)
                             for c, a in terms)
                         for terms in row] for row in entries])
    # exact rank over Q(T): Matrix.nullspace() on sums of q-powers can run
    # for minutes on a 3x4 matrix
    rank = DomainMatrix.from_Matrix(matrix).to_field().rank()
    assert len(basis) == ncols - rank
    for vec in basis:
        assert all(x.den == PhaseScalar.one(0).den for x in vec)
        col = sp.Matrix([scalar_to_sympy(x, [], q=T, scale=12) for x in vec])
        assert sp.simplify(matrix * col) == sp.zeros(nrows, 1)


@settings(max_examples=25, deadline=None)
@given(q_matrices(), st.randoms())
def test_nullspace_dimension_is_row_order_invariant(data, rng):
    nrows, ncols, entries = data
    rows = package_rows(entries)
    dim = len(nullspace(rows, ncols, 0))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert len(nullspace(shuffled, ncols, 0)) == dim


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["sl2_1", "sl3"]),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                 st.fractions(min_value=-3, max_value=3, max_denominator=2)))
def test_concrete_kernel_contains_generic_kernel(name, md, coords):
    """Specializing the weight can only enlarge the kernel, never shrink it
    (rank of a specialized matrix cannot go up)."""
    if md == (0, 0):
        md = (1, 1)
    datum = CATALOG[name]
    generic_dim = singular_scan(datum, md).dimension
    concrete_dim = singular_scan(datum, md, weight=Weight.concrete(coords)).dimension
    assert concrete_dim >= generic_dim


# Wide exponent spread, to stress the packing plan's field widths: 5x6
# matrices of sums c·q^a·z1^m1·z2^m2 with |a| <= 40 in denominators 1-4
# and |m| <= 5, the extremes drawn often.  The oracle works in sympy's
# polynomial ring over T = q^(1/12), z1, z2, every Laurent sum shifted by
# one fixed monomial.
WIDE_Q = st.one_of(st.sampled_from([-40, 40]), st.builds(
    lambda n, d: Fraction(n, d), st.integers(-40, 40), st.integers(1, 4)
).filter(lambda a: abs(a) <= 40))
WIDE_Z = st.one_of(st.sampled_from([-5, 5]), st.integers(-5, 5))
WIDE_TERM = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), WIDE_Q,
                      st.tuples(WIDE_Z, WIDE_Z))
RING = sp.ring("T z1 z2", sp.QQ)[0]
# past every exponent of a minor, where the combined row counts twice:
# 6·40·12 in T, 6·5 in z
SHIFT = (2881, 31, 31)


def wide_entry(terms):
    return sum((PhaseScalar.monomial(c, a, m, 2) for c, a, m in terms),
               PhaseScalar.zero(2))


@st.composite
def wide_matrices(draw):
    """5x6 matrices; in some draws the last row is a monomial combination
    of two others, so the kernel has two dimensions."""
    entry = st.lists(WIDE_TERM, min_size=0, max_size=2)
    rows = [[wide_entry(draw(entry)) for _ in range(6)] for _ in range(5)]
    if draw(st.booleans()):
        u, w = (wide_entry([draw(WIDE_TERM)]) for _ in range(2))
        rows[4] = [u * x + w * y for x, y in zip(rows[0], rows[1])]
    return rows


def ring_poly(p, step):
    """A Laurent sum over `step`, times T^SHIFT[0]·z1^SHIFT[1]·z2^SHIFT[2],
    in RING."""
    terms = {(q_to_t(ratio(a, step)) + SHIFT[0], m[0] + SHIFT[1],
              m[1] + SHIFT[2]): sp.Rational(c) for (a, m), c in p.items()}
    assert all(min(exps) >= 0 for exps in terms)
    return RING(terms)


def rank_at(rows, point):
    """The exact rank over Q of the matrix at one rational point."""
    t, z1, z2 = map(sp.Rational, point)

    def value(x):
        return sum(sp.Rational(c) * t ** q_to_t(ratio(a, x.step))
                   * z1 ** m[0] * z2 ** m[1] for (a, m), c in x.num.items())

    matrix = sp.Matrix([[value(x) for x in row] for row in rows])
    return DomainMatrix.from_Matrix(matrix).to_field().rank()


@settings(max_examples=25, deadline=None)
@given(wide_matrices())
def test_nullspace_matches_sympy_on_a_wide_exponent_spread(rows):
    basis = nullspace(rows, 6, 2)
    # every vector lies in the kernel: with the distinct denominators of
    # a vector multiplied out, each row sum vanishes as a polynomial
    for vec in basis:
        dens = []  # (den, step): a sum is read over its own step
        for x in vec:
            if (x.den, x.step) not in dens:
                dens.append((x.den, x.step))
        for row in rows:
            total = RING.zero
            for m_ij, x in zip(row, vec):
                term = (ring_poly(m_ij.num, m_ij.step)
                        * ring_poly(x.num, x.step))
                for d, step in dens:
                    if (d, step) != (x.den, x.step):
                        term *= ring_poly(d, step)
                total += term
            assert total == 0
    # each vector is the only one nonzero at some column, so they are
    # independent and the rank is at most 6 - len(basis); the rank at a
    # point bounds it from below
    for vec in basis:
        assert any(not x.is_zero() and all(other[c].is_zero()
                                           for other in basis if other is not vec)
                   for c, x in enumerate(vec))
    points = ((2, 3, 5), ("3/2", 7, -2))
    assert max(rank_at(rows, pt) for pt in points) == 6 - len(basis)


def test_nullspace_rejects_quotient_entries():
    q = q_power(1, 0)
    with pytest.raises(ValueError):
        nullspace([[1 / (1 - q), PhaseScalar.one(0)]], 2, 0)


# ---- forward elimination against the Gauss-Jordan reference ----

def gauss_jordan_nullspace(rows, ncols, arity):
    """The reference: fraction-free Gauss-Jordan, which updates every other
    row at each pivot step, so that every pivot ends equal to the minor D
    and each free column's kernel vector is read off the pivot rows."""
    one = _one_poly(arity)
    step = lcm(*(e.step for row in rows for e in row))  # as `nullspace` does
    nums = [[e._at(step).num for e in row] for row in rows]
    plan = KeyPacking((x for row in nums for x in row), arity, ncols)
    matrix = [[plan.pack_poly(x) for x in row] for row in nums]
    matrix = [row for row in matrix if any(row)]
    pivots = []  # (row position, column)
    prev = {0: 1}
    r = 0
    for c in range(ncols):
        cand = [i for i in range(r, len(matrix)) if matrix[i][c]]
        if not cand:
            continue
        best = min(cand, key=lambda i: sum(len(e) for e in matrix[i]))
        matrix[r], matrix[best] = matrix[best], matrix[r]
        pivot_row = matrix[r]
        pivot = pivot_row[c]
        for i, row in enumerate(matrix):
            if i != r:
                f = row[c]
                matrix[i] = [
                    plan.divide(_pcross(pivot, x, ((f, y),)), prev)
                    if x or (f and y) else {}
                    for x, y in zip(row, pivot_row)]
        prev = pivot
        pivots.append((r, c))
        r += 1
    minor = plan.unpack_poly(prev)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [{} for _ in range(ncols)]
        vec[free] = minor
        for rp, pc in pivots:
            vec[pc] = {plan.unpack(k): -x for k, x in matrix[rp][free].items()}
        basis.append([PhaseScalar._of(x, one, arity, step) for x in vec])
    return basis


# q-exponents: half-integers, and the extremes of a wide spread
SPREAD_Q = st.one_of(st.sampled_from([-40, 40, Fraction(-79, 2), Fraction(79, 2)]),
                     st.builds(Fraction, st.integers(-12, 12), st.just(2)))
SPREAD_TERM = st.tuples(st.sampled_from([-2, -1, 1, 3]), SPREAD_Q,
                        st.integers(-4, 4))
# half the entries are zero, so zero entries sit under pivots
SPREAD_ENTRY = st.one_of(st.just([]),
                         st.lists(SPREAD_TERM, min_size=1, max_size=2))


def spread_entry(terms):
    return sum((PhaseScalar.monomial(c, a, (m,), 1) for c, a, m in terms),
               PhaseScalar.zero(1))


@st.composite
def degenerate_matrices(draw):
    """Up to 5x6 matrices in q and z1, with some rows replaced by zero rows
    or by monomial combinations of two other rows, so that the rank falls
    below the row count."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    rows = [[spread_entry(draw(SPREAD_ENTRY)) for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "dependent"]))
        if kind == "zero":
            rows[i] = [PhaseScalar.zero(1)] * ncols
        elif kind == "dependent" and nrows > 1:
            a, b = (draw(st.integers(0, nrows - 1)) for _ in range(2))
            u, w = (spread_entry([draw(SPREAD_TERM)]) for _ in range(2))
            rows[i] = [u * x + w * y for x, y in zip(rows[a], rows[b])]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(degenerate_matrices())
def test_nullspace_matches_gauss_jordan(data):
    """Forward elimination with back-substitution returns the polynomial
    vectors that Gauss-Jordan does, dict-equal in `num` and `den`."""
    rows, ncols = data
    got = nullspace(rows, ncols, 1)
    want = gauss_jordan_nullspace(rows, ncols, 1)
    assert [[(c.num, c.den) for c in vec] for vec in got] == \
        [[(c.num, c.den) for c in vec] for vec in want]
