"""Golden reports: the rendered counterexamples of the verification suites.

Each case is one `verify` command whose report carries counterexamples, so
together the cases pin the counterexample sweep and every renderer byte for
byte.  The three negative controls cover module vectors and tensor-square
vectors.  The formal Hopf axioms never fail under a fault, so one more case
runs the `hopf` suite with a skewed coproduct table, which breaks
coassociativity, the counit laws and the antipode laws at once.

The expected files under `tests/golden/` are the command's stdout.  To
regenerate one, run `python tests/test_golden.py` with `src` on the path and
review the diff.
"""

from pathlib import Path

import pytest

from qscreen import hopf
from qscreen.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAULTS = ("drop_hat_parity", "drop_interchange_sign", "flip_raising_prefactor")
_coproduct_letter = hopf.coproduct_letter


def skewed_coproduct_letter(letter, arity):
    """The table coproduct with the K_j^-1 (x) F_j term of D(F_j) doubled."""
    out = _coproduct_letter(letter, arity)
    if letter[0] == "F":
        key = ((("K", letter[1], -1),), (letter,))
        out[key] = out[key] + out[key]
    return out


def cases():
    """(file stem, argv, whether to skew the coproduct table)."""
    base = ["verify", "--algebra", "sl2_1", "--depth", "2"]
    for fault in FAULTS:
        yield (f"verify_sl2_1_d2_{fault}",
               base + ["--suite", "all", "--inject-fault", fault], False)
    yield ("verify_sl2_1_d2_skewed_coproduct", base + ["--suite", "hopf"], True)


def run_case(argv, skew, fmt):
    with pytest.MonkeyPatch.context() as mp:
        if skew:
            mp.setattr(hopf, "coproduct_letter", skewed_coproduct_letter)
        return main(argv + ["--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("stem, argv, skew", list(cases()),
                         ids=[c[0] for c in cases()])
def test_verify_report_matches_golden(capsys, stem, argv, skew, fmt):
    assert run_case(argv, skew, fmt) == 1
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.{fmt}").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, skew in cases():
        for fmt in ("json", "text"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run_case(argv, skew, fmt)
            (GOLDEN / f"{stem}.{fmt}").write_text(buf.getvalue())
