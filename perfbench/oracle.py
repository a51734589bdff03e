"""Checks every command's outcome against the frozen contracts.

The oracle reads only the exit code and the JSON the CLI printed.  Exact
values are compared with its own small polynomial arithmetic, by
cross-multiplication, so it does not rely on the code it checks.

Contracts:
  - exit 0 for positive runs, 1 for negative controls;
  - every identity passes on a positive verify; a control has at least one
    failing identity with a counterexample;
  - the frozen criterion-5 kernels (sl2_1 (0,2), sl2 (2), sl3 (2,1));
  - `denominator-vanishes` when sl3 (2,1) is specialized at weight 1,2;
    every other specialization `ok` or `denominator-vanishes`;
  - every residual equal to "0";
  - a generic kernel has the dimension in GENERIC_DIM, and a concrete
    kernel at least that dimension;
  - a `--workers` run prints exactly what its serial twin printed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import flag_values

# Generic kernel dimension per (algebra, multidegree), as scanned at the
# commit that introduced the benchmark; a concrete kernel can only grow.
GENERIC_DIM = {
    ("sl3", "2,1"): 1, ("sl3", "3,1"): 1, ("sl2_1", "2,1"): 1,
    ("sl2_1", "2,2"): 2, ("sl2_1", "0,2"): 1, ("sl2", "2"): 0,
    ("sl2", "3"): 0, ("osp1_2", "4"): 0,
}
VANISHING_SPECIALIZATION = ("sl3", "2,1", "1,2")
ONE = {(Fraction(0), ()): Fraction(1)}


# ---- exact values from rendered text ----

def _monomial(text: str):
    coeff, q, z = Fraction(1), Fraction(0), {}
    for factor in text.split("·"):
        if factor.startswith("q"):
            q += Fraction(factor[2:].strip("()")) if factor != "q" else 1
        elif factor.startswith("z"):
            slot, _, exp = factor[1:].partition("^")
            z[int(slot)] = z.get(int(slot), 0) + int(exp or 1)
        else:
            coeff *= Fraction(factor)
    return (q, tuple(sorted(z.items()))), coeff


def parse_poly(text: str) -> dict:
    """A rendered sum of monomials, e.g. `-q^(1/2)·z1 + 2/3·q^-1`."""
    out: dict = {}
    parts = re.split(r" ([+-]) ", text)
    signs = ["+"] + parts[1::2]
    for sign, term in zip(signs, parts[0::2]):
        negative = (sign == "-") != term.startswith("-")
        key, coeff = _monomial(term.lstrip("-"))
        out[key] = out.get(key, 0) + (-coeff if negative else coeff)
    return {k: c for k, c in out.items() if c}


def parse_coefficient(text: str) -> tuple[dict, dict]:
    """A rendered coefficient as (numerator, denominator) sums."""
    if text == "0":
        return {}, ONE
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(", 1)
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), ONE


def _pmul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for (a1, m1), c1 in p1.items():
        for (a2, m2), c2 in p2.items():
            z = dict(m1)
            for slot, e in m2:
                z[slot] = z.get(slot, 0) + e
            key = (a1 + a2, tuple(sorted((s, e) for s, e in z.items() if e)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def same_value(text: str, num: dict, den: dict) -> bool:
    n, d = parse_coefficient(text)
    return _pmul(n, den) == _pmul(num, d)


# sl3 (2,1): F1 F1 F2 - (q + q^-1) F1 F2 F1 + F2 F1 F1
SL3_KERNEL = {"F1 F1 F2": ONE,
              "F1 F2 F1": {(Fraction(1), ()): Fraction(-1),
                           (Fraction(-1), ()): Fraction(-1)},
              "F2 F1 F1": ONE}


# ---- printed size ----

def printed_terms(text: str) -> int:
    """Monomials in a rendered coefficient or vector; `;` joins vectors.

    Separators ` + ` and ` - ` appear only between terms or vector entries,
    and each `)/(` opens one more sum, so a vector of k entries holding s
    separators and f quotients has s + 1 + f monomials.
    """
    return sum(0 if part == "0" else
               1 + part.count(" + ") + part.count(" - ") + part.count(")/(")
               for part in text.split(" ; "))


def output_terms(argv, out: str) -> int:
    """Monomials in every coefficient a command printed.

    Scans: kernel bases and specialized bases.  Verify runs: the
    counterexample vectors of failing identities.
    """
    try:
        payload = json.loads(out)
    except ValueError:
        return 0
    if argv[0] == "serre-scan":
        vectors = list(payload.get("basis", []))
        for spec in payload.get("specializations", []):
            vectors.extend(spec.get("basis", []))
        return sum(printed_terms(c) for vec in vectors for c in vec.values())
    total = 0
    for report in payload.get("reports", []):
        for rec in report["identities"]:
            ce = rec.get("counterexample") or {}
            total += sum(printed_terms(ce[k]) for k in ("lhs", "rhs") if k in ce)
    return total


# ---- contracts ----

def _verify_problems(cmd, payload: dict) -> list[str]:
    records = [rec for rep in payload.get("reports", [])
               for rec in rep.get("identities", [])]
    if not records:
        return ["no identities reported"]
    failing = [rec for rec in records if rec["status"] != "pass"]
    if cmd.expect == "pass":
        return [f"identity failed: {rec['identity']}" for rec in failing]
    caught = [rec for rec in failing
              if all((rec.get("counterexample") or {}).get(k)
                     for k in ("basis", "lhs", "rhs"))]
    return [] if caught else ["control not caught with a counterexample"]


def _residual_problems(residuals, where: str) -> list[str]:
    return [f"{where}: nonzero residual {g}" for checks in residuals
            for g, v in checks.items() if v != "0"]


def _scan_problems(cmd, payload: dict) -> list[str]:
    flags = flag_values(cmd.argv)
    algebra, md = flags["--algebra"][0], flags["--multidegree"][0]
    generic = flags.get("--weight", ["generic"])[0] == "generic"
    problems = _residual_problems(payload["residual_checks"], "scan")
    if len(payload["residual_checks"]) != payload["dimension"]:
        problems.append("one residual check per kernel vector expected")
    want = GENERIC_DIM.get((algebra, md))
    dim = payload["dimension"]
    if want is None:
        problems.append(f"no generic dimension recorded for {algebra} ({md})")
    elif dim < want or (generic and dim != want):
        problems.append(f"kernel dimension {dim}, generic dimension {want}")
    if generic and (algebra, md) == ("sl2_1", "0,2"):
        if (payload["basis"] != [{"F2 F2": "1"}]
                or payload["residual_checks"] != [{"E1": "0", "E2": "0"}]):
            problems.append("frozen sl2_1 (0,2) kernel changed")
    if generic and (algebra, md) == ("sl3", "2,1"):
        basis = payload["basis"]
        if (len(basis) != 1 or set(basis[0]) != set(SL3_KERNEL)
                or not all(same_value(basis[0][t], v, ONE)
                           for t, v in SL3_KERNEL.items())):
            problems.append("frozen sl3 (2,1) kernel changed")
    for spec in payload.get("specializations", []):
        status = spec["status"]
        if (algebra, md, spec["weight"]) == VANISHING_SPECIALIZATION:
            if status != "denominator-vanishes":
                problems.append(f"specialization at {spec['weight']}: {status}")
        elif status == "ok":
            problems += _residual_problems(spec["residual_checks"],
                                           f"specialization {spec['weight']}")
        elif status != "denominator-vanishes":
            problems.append(f"specialization at {spec['weight']}: {status}")
    wanted = flags.get("--specialize", [])
    if [s["weight"] for s in payload.get("specializations", [])] != wanted:
        problems.append("specializations do not match the requested weights")
    return problems


def check(cmd, code, out: str) -> list[str]:
    """Every way the outcome breaks a contract; empty when it is correct."""
    want_code = 0 if cmd.expect == "pass" else 1
    problems = [] if code == want_code else [f"exit {code}, expected {want_code}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    try:
        if cmd.argv[0] == "verify":
            problems += _verify_problems(cmd, payload)
        else:
            problems += _scan_problems(cmd, payload)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
