"""Acceptance suite: seven go/no-go criteria, one test and one printed
pass/fail line each.  Every comparison is exact equality in the phase field
— there are no numeric tolerances anywhere.

Run `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import random
import time
from fractions import Fraction

from qscreen.contour import (
    FaultInjection,
    ModuleContext,
    apply_raising_hat,
    apply_word,
    lowering_word,
    parse_word,
    state,
    vec_eq,
    vec_scale,
)
from qscreen.hopf import verify_coproduct, verify_hopf_axioms, verify_relations
from qscreen.phase import (
    DenominatorVanishesError,
    PhaseScalar,
    q_number,
    q_power,
)
from qscreen.rootdata import CATALOG, Weight
from qscreen.serre import singular_scan, specialize_scan, specialize_vector


def report(n: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_defining_relations_all_algebras_depth_4():
    """Every defining relation holds on every contour state to depth 4, at
    generic weight, for all four bundled algebras, each within 60 seconds."""
    ok = True
    timings = []
    for name, datum in CATALOG.items():
        t0 = time.perf_counter()
        rep = verify_relations(datum, depth=4)
        dt = time.perf_counter() - t0
        timings.append(f"{name}:{dt:.2f}s")
        ok = ok and rep.passed and dt < 60.0
    report(1, ok, "relation suite, depth 4, generic weight ("
           + " ".join(timings) + ")")
    assert ok


def test_criterion_2_coproduct_matches_contour_splitting():
    """The table coproduct of each lowering generator agrees with the
    contour-splitting closed form on all tensor states, depth 3 per factor,
    for sl2 and sl2_1."""
    ok = True
    for name in ("sl2", "sl2_1"):
        rep = verify_coproduct(CATALOG[name], depth=3)
        split_records = [rec for rec in rep.records
                         if "contour-splitting" in rec.identity]
        assert split_records
        ok = ok and all(rec.status == "pass" for rec in split_records)
    report(2, ok, "D(F_j) == contour splitting, sl2 and sl2_1, depth 3/factor")
    assert ok


def test_criterion_3_hopf_axioms_and_homomorphism():
    """Coassociativity, counit and antipode laws hold for every generator of
    every bundled algebra, and the coproduct maps every defining relation to
    zero on the tensor square at depth 3."""
    ok = True
    for name, datum in CATALOG.items():
        axioms = verify_hopf_axioms(datum, depth=3)
        ok = ok and axioms.passed
        cop = verify_coproduct(datum, depth=3)
        homo_records = [rec for rec in cop.records
                        if "acts as zero" in rec.identity]
        assert homo_records
        ok = ok and all(rec.status == "pass" for rec in homo_records)
    report(3, ok, "Hopf axioms on all generators + coproduct kills all "
                  "relations, all algebras, depth 3")
    assert ok


def test_criterion_4_rank1_towers_match_closed_form():
    """On n nested bosonic contours (sl2), the raising sum telescopes into
    (1 - z^2 q^{2(n-1)}) [n]_{q^2} / (q - q^{-1}) for every n from 1 to 6."""
    ctx = ModuleContext(datum=CATALOG["sl2"], depth=7)
    b = q_power(2, 1)
    z = PhaseScalar.monomial(1, 0, (1,), 1)
    ok = True
    for n in range(1, 7):
        tower = apply_word(ctx, lowering_word([0] * n), state(ctx, ()))
        got = apply_raising_hat(ctx, 0, tower)
        closed = (1 - z ** 2 * b ** (n - 1)) * q_number(n, b) / ctx.bracket_denominator(0)
        want = vec_scale(closed, apply_word(ctx, lowering_word([0] * (n - 1)),
                                            state(ctx, ())))
        ok = ok and vec_eq(got, want)
    report(4, ok, "sl2 towers of 1..6 contours match the deformed-integer "
                  "closed form")
    assert ok


def test_criterion_5_singular_vector_scans():
    """The three frozen scans: sl2_1 degree (0,2) has the one-dimensional
    kernel spanned by F2 F2; sl2 degree (2) has none; sl3 degree (2,1) has
    the one-dimensional kernel (1, -(q+q^-1), 1), confirmed independently."""
    r1 = singular_scan(CATALOG["sl2_1"], (0, 2))
    ok = (r1.dimension == 1
          and r1.basis_as_tokens() == [{"F2 F2": "1"}]
          and r1.residuals == [{"E1": "0", "E2": "0"}])

    r2 = singular_scan(CATALOG["sl2"], (2,))
    ok = ok and r2.dimension == 0

    r3 = singular_scan(CATALOG["sl3"], (2, 1))
    q = q_power(1, 2)
    frozen = [PhaseScalar.one(2), -(q + q ** -1), PhaseScalar.one(2)]
    ok = (ok and r3.dimension == 1
          and r3.words == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
          and all(a == b for a, b in zip(r3.basis[0], frozen))
          and r3.residuals == [{"E1": "0", "E2": "0"}])
    report(5, ok, "scans: sl2_1 (0,2) dim 1 = span{F2 F2}; sl2 (2) dim 0; "
                  "sl3 (2,1) dim 1 = span{F1F1F2 - (q+q^-1) F1F2F1 + F2F1F1}")
    assert ok


def test_criterion_6_concrete_weights_specialize_exactly():
    """Twenty seeded random rational weights (five per algebra): generic
    computations substituted at the weight coincide exactly with the same
    computations run in concrete-weight mode, and specializations that land
    on a vanishing denominator are detected and reported, never silently
    wrong."""
    rng = random.Random(823543)
    sample_words = {
        1: ["E1 F1 F1", "K1 F1 E1 F1"],
        2: ["E1 F1 F2 F1", "K2- E2 F2 F1 F2"],
    }
    mismatches = []
    vanishing_reports = []
    scans = {
        "sl3": singular_scan(CATALOG["sl3"], (2, 1)),
        "sl2_1": singular_scan(CATALOG["sl2_1"], (0, 2)),
    }
    n_weights = 0
    for name, datum in CATALOG.items():
        for _ in range(5):
            coords = [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
                      for _ in range(datum.rank)]
            weight = Weight.concrete(coords)
            n_weights += 1
            exps = [-weight.root_pairing(datum, j) for j in range(datum.rank)]
            gen = ModuleContext(datum=datum)
            con = ModuleContext(datum=datum, weight=weight)
            zero = PhaseScalar.zero(gen.arity)
            for text in sample_words[datum.rank]:
                word = parse_word(text)
                vg = apply_word(gen, word, state(gen, ()))
                vc = apply_word(con, word, state(con, ()))
                for seq in set(vg) | set(vc):
                    lhs = vg.get(seq, zero).substitute_z(exps)
                    if lhs != vc.get(seq, zero):
                        mismatches.append((name, coords, text, seq))
            if name in scans:
                spec = specialize_scan(scans[name], weight)
                if spec["status"] == "denominator-vanishes":
                    vanishing_reports.append((name, spec["weight"]))
                else:
                    assert spec["status"] == "ok", (name, coords)

    # deterministic vanishing-locus case: alpha_1 . lambda = 0 on sl3
    try:
        specialize_vector(scans["sl3"].basis[0], CATALOG["sl3"],
                          Weight.concrete([1, 2]))
        detected = False
    except DenominatorVanishesError:
        detected = True
    spec = specialize_scan(scans["sl3"], Weight.concrete([1, 2]))
    detected = detected and spec["status"] == "denominator-vanishes"
    vanishing_reports.append(("sl3", spec["weight"]))

    ok = not mismatches and detected and n_weights == 20
    report(6, ok, f"{n_weights} random rational weights specialize exactly; "
                  f"vanishing denominators reported for "
                  f"{sorted(set(vanishing_reports))}")
    assert ok, mismatches


def test_criterion_7_negative_controls_break_suites():
    """Sabotaging any one sign convention (odd-odd crossing parity, tensor
    interchange sign, raising crossing exponent) must make at least one
    suite fail with a recorded counterexample."""
    faults = {
        "drop_hat_parity": FaultInjection(drop_hat_parity=True),
        "drop_interchange_sign": FaultInjection(drop_interchange_sign=True),
        "flip_raising_prefactor": FaultInjection(flip_raising_prefactor=True),
    }
    ok = True
    details = []
    for fault_name, fault in faults.items():
        failures = []
        for name in ("sl2", "sl2_1"):
            datum = CATALOG[name]
            for rep in (verify_relations(datum, depth=3, faults=fault),
                        verify_coproduct(datum, depth=2, faults=fault)):
                failures.extend((name, rep.suite, rec)
                                for rec in rep.failures())
        with_counterexamples = [
            (name, suite) for name, suite, rec in failures
            if rec.counterexample
            and {"basis", "lhs", "rhs"} <= set(rec.counterexample)]
        ok = ok and bool(with_counterexamples)
        details.append(f"{fault_name}->{len(with_counterexamples)}")
    report(7, ok, "each sabotaged convention breaks a suite with a "
                  "counterexample (" + ", ".join(details) + ")")
    assert ok
