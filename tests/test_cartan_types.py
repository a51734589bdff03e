"""The quantum Serre relations as an oracle across Cartan types.

The bundled algebras only have symmetrizers 1 and 1/2.  The configs under
`algebras/` add B2 and G2 (symmetrizers 2 and 3), A3 (rank 3) and
osp(1|4) (an odd non-isotropic root next to an even one).  For every
ordered pair (i, j) with i even, the generic kernel at multidegree
(1 - a_ij) e_i + e_j is one-dimensional and spanned by

    sum_k (-1)^k [n choose k]_{q_i} F_i^{n-k} F_j F_i^k,    n = 1 - a_ij,

with q_i = q^{d_i} and symmetric q-numbers (Lusztig, Introduction to
Quantum Groups, 1993; Jantzen, Lectures on Quantum Groups, 1996, ch. 4).
The scan's vector and the closed form are compared as projective vectors
by cross-multiplication, never by a gcd.  Higher relations at odd roots
are left out: no closed form for them is in the repository.
"""

from pathlib import Path

import pytest

from qscreen.contour import FaultInjection
from qscreen.hopf import run_suite
from qscreen.phase import PhaseScalar, q_number, q_power
from qscreen.rootdata import load_datum
from qscreen.serre import singular_scan

ALGEBRAS = Path(__file__).resolve().parent / "algebras"
FIXTURES = ("b2", "g2", "a3", "osp1_4")


def datum_for(name):
    return load_datum(str(ALGEBRAS / f"{name}.json"))


def serre_pairs(datum):
    """Each ordered pair (i, j) of distinct roots with i even, and n."""
    cartan = datum.cartan()
    return [(i, j, 1 - cartan[i][j]) for i in range(datum.rank)
            for j in range(datum.rank) if i != j and not datum.parity(i)]


def q_int(m: int, d, arity: int) -> PhaseScalar:
    """The symmetric q-number [m]_{q^d} = q^{-d(m-1)} (1 + q^{2d} + ...)."""
    return q_power(-d * (m - 1), arity) * q_number(m, q_power(2 * d, arity))


def q_binomial(n: int, k: int, d, arity: int) -> PhaseScalar:
    def factorial(m):
        out = PhaseScalar.one(arity)
        for t in range(1, m + 1):
            out = out * q_int(t, d, arity)
        return out

    return factorial(n) / (factorial(k) * factorial(n - k))


def serre_vector(datum, i, j, n, words) -> list[PhaseScalar]:
    """The closed-form relation as coordinates over the scan's words."""
    arity = datum.rank
    d = datum.symmetrizer(i)
    coeffs = {(i,) * (n - k) + (j,) + (i,) * k:
              (-1) ** k * q_binomial(n, k, d, arity) for k in range(n + 1)}
    zero = PhaseScalar.zero(arity)
    return [coeffs.get(w, zero) for w in words]


CASES = [(name, i, j, n) for name in FIXTURES
         for i, j, n in serre_pairs(datum_for(name))]


def test_fixtures_bring_new_symmetrizers():
    assert [datum_for("b2").symmetrizer(j) for j in range(2)] == [1, 2]
    assert [datum_for("g2").symmetrizer(j) for j in range(2)] == [1, 3]
    assert {n for name, _, _, n in CASES} == {1, 2, 3, 4}


@pytest.mark.parametrize("name,i,j,n", CASES,
                         ids=[f"{c[0]}-{c[1] + 1}{c[2] + 1}" for c in CASES])
def test_serre_kernel_is_the_closed_form(name, i, j, n):
    datum = datum_for(name)
    md = [0] * datum.rank
    md[i], md[j] = n, 1
    result = singular_scan(datum, md)
    assert result.dimension == 1
    (vec,) = result.basis
    expected = serre_vector(datum, i, j, n, result.words)
    ref = result.words.index((i,) * n + (j,))
    assert not vec[ref].is_zero()
    for v_k, c_k in zip(vec, expected):
        assert v_k * expected[ref] == c_k * vec[ref]


def caught(datum, fault: str) -> bool:
    reports = run_suite("all", datum, 3, faults=FaultInjection(**{fault: True}))
    return not all(rep.passed for rep in reports)


@pytest.mark.parametrize("name", FIXTURES)
def test_suites_pass_and_flipped_prefactor_is_caught(name):
    datum = datum_for(name)
    assert caught(datum, "flip_raising_prefactor")
    assert all(rep.passed for rep in run_suite("all", datum, 3))


@pytest.mark.parametrize("fault", ["drop_hat_parity", "drop_interchange_sign"])
def test_parity_controls_are_caught_on_osp1_4(fault):
    assert caught(datum_for("osp1_4"), fault)
