"""Start-up: the lazy package namespace and the modules each subcommand
loads.

`import qscreen` runs no submodule; each name of `__all__` resolves in its
home module on first access.  `qscreen.cli` imports only what every
subcommand needs, and each subcommand imports its engine when it runs, so
the module sets below are pinned in fresh interpreters, where no earlier
test has imported anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qscreen

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = ["qscreen", "qscreen.cli", "qscreen.contour", "qscreen.phase",
        "qscreen.rootdata"]

# Print, as JSON, the qscreen modules loaded after `import qscreen.cli` and
# those a call of `main(argv)` adds, with its exit code.
PROBE = """
import contextlib, io, json, sys
import qscreen.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "qscreen")
base = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = qscreen.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([base, sorted(set(loaded()) - set(base)), code]))
"""


def fresh(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.mark.parametrize("name", qscreen.__all__)
def test_every_exported_name_resolves_in_its_home_module(name):
    value = getattr(qscreen, name)
    home = __import__(f"qscreen.{qscreen._HOME[name]}", fromlist=[name])
    assert value is getattr(home, name)
    assert name in dir(qscreen)


def test_exports_are_unchanged():
    assert qscreen.__all__ == [
        "ArityMismatchError", "DenominatorVanishesError", "PhaseScalar",
        "q_number", "q_power",
        "CATALOG", "ConfigError", "RootDatum", "Weight", "datum_from_config",
        "datum_to_config", "load_datum", "resolve_algebra",
        "DepthExceededError", "FaultInjection", "ModuleContext",
        "apply_cartan", "apply_lowering", "apply_raising",
        "apply_raising_hat", "apply_word", "parse_word", "render_vector",
        "state", "word_token",
        "TensorContext", "VerificationReport", "act_tensor_element",
        "act_word_pair", "antipode_word", "braid_phase", "coproduct_letter",
        "coproduct_word", "counit_word", "run_suite", "split_lowering",
        "tensor_state", "verify_coproduct", "verify_hopf_axioms",
        "verify_relations",
        "ScanResult", "enumerate_words", "singular_scan", "specialize_scan",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qscreen.no_such_name
    assert not hasattr(qscreen, "_private")


def test_from_import_still_returns_a_submodule():
    from qscreen import serre

    assert serre.__name__ == "qscreen.serre"


def test_import_qscreen_loads_no_submodule():
    out = fresh("import sys, qscreen\n"
                "print(sorted(m for m in sys.modules if m.startswith('qscreen')))")
    assert out == "['qscreen']\n"


def test_a_name_loads_its_home_module_only_and_is_cached():
    out = fresh("import sys, qscreen\n"
                "f = qscreen.singular_scan\n"
                "print(sorted(m for m in sys.modules if m.startswith('qscreen')),"
                " vars(qscreen)['singular_scan'] is f)")
    assert out == ("['qscreen', 'qscreen.contour', 'qscreen.phase', "
                   "'qscreen.rootdata', 'qscreen.serre'] True\n")


@pytest.mark.parametrize("argv, added", [
    ((), []),
    (("serre-scan", "--algebra", "sl2", "--multidegree", "2"),
     ["qscreen.serre"]),
    (("verify", "--algebra", "sl2", "--depth", "2"), ["qscreen.hopf"]),
    (("braid", "--weight1", "1", "--weight2", "2"), ["qscreen.hopf"]),
    (("act", "--algebra", "sl2", "--word", "E1 F1"), []),
], ids=lambda v: v[0] if v and isinstance(v[0], str) else None)
def test_each_subcommand_loads_only_its_engine(argv, added):
    base, extra, code = json.loads(fresh(PROBE, *argv))
    assert base == BASE
    assert extra == added
    assert code == (0 if argv else None)


def test_json_loads_for_json_output_only():
    probe = ("import contextlib, io, sys\n"
             "import qscreen.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    qscreen.cli.main(sys.argv[1:])\n"
             "print('json' in sys.modules)")
    argv = ("act", "--algebra", "sl2", "--word", "E1 F1")
    assert fresh(probe, *argv) == "False\n"
    assert fresh(probe, *argv, "--format", "json") == "True\n"
