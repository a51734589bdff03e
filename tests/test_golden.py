"""Golden reports: byte-for-byte output of `verify`, `serre-scan` and `act`.

Each case is one CLI command and the exit code it must return.  The
`verify` cases carry counterexamples, so together they pin the
counterexample sweep and every renderer.  The three negative controls cover
module vectors and tensor-square vectors.  The formal Hopf axioms never
fail under a fault, so one more case runs the `hopf` suite with a skewed
coproduct table, which breaks coassociativity, the counit laws and the
antipode laws at once.

The `serre-scan` cases pin a generic kernel with one `denominator-vanishes`
and one `ok` specialization, a concrete-weight kernel of exact Laurent
quotients, and a half-integer (`osp1_2`) kernel.  Two scans solve a matrix
blind to `E1`, so their kernels are wrong.  At generic weight both the
scan's residuals and its specialization report the failure (`NONZERO`,
`residual-nonzero`, exit 1).  At the concrete weight `-7/2,-5/3` all four
vectors are `NONZERO`, and one keeps an unreduced quotient, which pins
the residuals rendered from the printed vector.
The `act` cases pin one word at generic and at concrete weight.

The expected files under `tests/golden/` are the command's stdout.  To
regenerate one, run `python tests/test_golden.py` with `src` on the path and
review the diff.

The generic degree-5 scans, sl3 and sl2_1 at multidegree (3,2), print 87
and 147 KB of JSON, so only the sha256 of their stdout is kept, in
`<stem>.json.sha256`; each of their residual checks must print `0`.
`python tests/test_golden.py` leaves the digests alone: one changes only by
hand, after the full output has been reviewed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qscreen import hopf, serre
from qscreen.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAULTS = ("drop_hat_parity", "drop_interchange_sign", "flip_raising_prefactor")
_coproduct_letter = hopf.coproduct_letter
_apply_raising_hat = serre.apply_raising_hat


def skewed_coproduct_letter(letter, arity):
    """The table coproduct with the K_j^-1 (x) F_j term of D(F_j) doubled."""
    out = _coproduct_letter(letter, arity)
    if letter[0] == "F":
        key = ((("K", letter[1], -1),), (letter,))
        out[key] = out[key] + out[key]
    return out


def raising_hat_blind_to_e1(ctx, j, v, **kwargs):
    """The scanner's cleared raising matrix with every E1 row left out."""
    return {} if j == 0 else _apply_raising_hat(ctx, j, v, **kwargs)


SKEW = (hopf, "coproduct_letter", skewed_coproduct_letter)
BLIND = (serre, "apply_raising_hat", raising_hat_blind_to_e1)


def cases():
    """(file stem, argv, patch or None, expected exit code)."""
    base = ["verify", "--algebra", "sl2_1", "--depth", "2"]
    for fault in FAULTS:
        yield (f"verify_sl2_1_d2_{fault}",
               base + ["--suite", "all", "--inject-fault", fault], None, 1)
    yield ("verify_sl2_1_d2_skewed_coproduct", base + ["--suite", "hopf"],
           SKEW, 1)
    sl3_21 = ["serre-scan", "--algebra", "sl3", "--multidegree", "2,1"]
    yield ("scan_sl3_2_1_specialized",
           sl3_21 + ["--specialize", "1,2", "--specialize", "1,7"], None, 0)
    yield ("scan_sl2_1_2_2_concrete",
           ["serre-scan", "--algebra", "sl2_1", "--multidegree", "2,2",
            "--weight=-7/2,-5/3"], None, 0)
    yield ("scan_sl2_1_2_2_concrete_blind_to_e1",
           ["serre-scan", "--algebra", "sl2_1", "--multidegree", "2,2",
            "--weight=-7/2,-5/3"], BLIND, 1)
    yield ("scan_osp1_2_4",
           ["serre-scan", "--algebra", "osp1_2", "--multidegree", "4"], None, 0)
    yield ("scan_sl3_2_1_blind_to_e1", sl3_21 + ["--specialize", "1,7"],
           BLIND, 1)
    act = ["act", "--algebra", "sl2_1", "--word", "E2 F2 E1 F1",
           "--start", "2,1"]
    yield ("act_sl2_1_generic", act, None, 0)
    yield ("act_sl2_1_concrete", act + ["--weight", "1/2,3"], None, 0)


def run_case(argv, patch, fmt):
    with pytest.MonkeyPatch.context() as mp:
        if patch:
            mp.setattr(*patch)
        return main(argv + ["--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("stem, argv, patch, code", list(cases()),
                         ids=[c[0] for c in cases()])
def test_verify_report_matches_golden(capsys, stem, argv, patch, code, fmt):
    assert run_case(argv, patch, fmt) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.{fmt}").read_text()


DEGREE_FIVE = ("sl3", "sl2_1")


@pytest.mark.parametrize("algebra", DEGREE_FIVE)
def test_degree_five_scan_matches_its_digest(capsys, algebra):
    argv = ["serre-scan", "--algebra", algebra, "--multidegree", "3,2"]
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    digest = (GOLDEN / f"scan_{algebra}_3_2.json.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    residuals = json.loads(out)["residual_checks"]
    assert residuals and all(v == "0" for checks in residuals
                             for v in checks.values())


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, patch, _ in cases():
        for fmt in ("json", "text"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run_case(argv, patch, fmt)
            (GOLDEN / f"{stem}.{fmt}").write_text(buf.getvalue())
