"""qscreen: exact contour representation of q-deformed enveloping Lie
superalgebras, with machine-verified Hopf structure and a singular-vector
scanner.

Everything is computed over an exact field of rational-coefficient q/z
monomial quotients; no floating point, no polynomial gcd.

The package namespace is lazy (PEP 562): `import qscreen` runs no
submodule.  Each name of `__all__` is looked up in its home module on
first access, which imports that module, and is then cached here, so
`qscreen.singular_scan` loads the scanner but not the Hopf engine.
`dir(qscreen)` lists every name of `__all__`, and a name the package does
not export raises AttributeError.  Submodules import as usual
(`from qscreen import serre`, `import qscreen.hopf`).
"""

from importlib import import_module

__version__ = "0.1.0"

# home module: the names it exports through the package
_EXPORTS = {
    "phase": ("ArityMismatchError", "DenominatorVanishesError", "PhaseScalar",
              "q_number", "q_power"),
    "rootdata": ("CATALOG", "ConfigError", "RootDatum", "Weight",
                 "datum_from_config", "datum_to_config", "load_datum",
                 "resolve_algebra"),
    "contour": ("DepthExceededError", "FaultInjection", "ModuleContext",
                "apply_cartan", "apply_lowering", "apply_raising",
                "apply_raising_hat", "apply_word", "parse_word",
                "render_vector", "state", "word_token"),
    "hopf": ("TensorContext", "VerificationReport", "act_tensor_element",
             "act_word_pair", "antipode_word", "braid_phase",
             "coproduct_letter", "coproduct_word", "counit_word", "run_suite",
             "split_lowering", "tensor_state", "verify_coproduct",
             "verify_hopf_axioms", "verify_relations"),
    "serre": ("ScanResult", "enumerate_words", "singular_scan",
              "specialize_scan"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
