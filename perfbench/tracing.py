"""Per-layer tracing of `qscreen`, installed from outside the package.

`Tracer` wraps the public functions of `cli`, `hopf`, `serre` and
`contour` and the arithmetic operators of `phase.PhaseScalar` for the span
of a `with` block, and puts every original back on exit.  A function is
replaced in its defining module and wherever another module imported it by
name (`hopf` and `serre` import `apply_word` and `apply_raising_hat`, the
package re-exports most names).

Coarse calls become spans (name, command, start, end, parent); fine calls
only count calls and sum their time.  Spans stay in memory; the caller
writes them out.  `rootdata` is not traced: its Gram lookups fall into the
self time of `contour`.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

SPANS = (
    ("qscreen.cli", "main", "cli.main"),
    ("qscreen.cli", "parallel_relations", "cli.pool"),
    ("qscreen.hopf", "verify_relations", "hopf.relations"),
    ("qscreen.hopf", "verify_coproduct", "hopf.coproduct"),
    ("qscreen.hopf", "verify_hopf_axioms", "hopf.axioms"),
    ("qscreen.serre", "singular_scan", "serre.scan"),
    ("qscreen.serre", "nullspace", "serre.nullspace"),
    ("qscreen.serre", "residual_checks", "serre.residual"),
    ("qscreen.serre", "specialize_scan", "serre.specialize"),
)
FINE = (
    ("qscreen.hopf", "act_tensor_element", "hopf.tensor_act"),
    ("qscreen.hopf", "act_word_pair", "hopf.word_pair"),
    ("qscreen.hopf", "split_lowering", "hopf.split"),
    ("qscreen.hopf", "act_algebra", "hopf.algebra_act"),
    ("qscreen.contour", "apply_word", "contour.word"),
    ("qscreen.contour", "apply_raising_hat", "contour.raising_hat"),
    ("qscreen.contour", "apply_cartan", "contour.cartan"),
)
# `__sub__` calls `__add__`, `__truediv__` calls `__mul__`: only the
# outermost operator call of a nest is counted and timed.
PHASE_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "add",
             "__rsub__": "add", "__mul__": "mul", "__rmul__": "mul",
             "__truediv__": "div", "__rtruediv__": "div", "__eq__": "eq"}
MARK = "_perfbench_wrapped"

PER_LAYER = (
    ("cli.self_s", "s", "lower"), ("cli.pool_s", "s", "lower"),
    ("cli.pool_speedup", "ratio", "higher"),
    ("hopf.relations_s", "s", "lower"), ("hopf.coproduct_s", "s", "lower"),
    ("hopf.axioms_s", "s", "lower"), ("hopf.tensor_act_s", "s", "lower"),
    ("hopf.tensor_act_calls", "count", "lower"),
    ("hopf.word_pair_calls", "count", "lower"), ("hopf.split_s", "s", "lower"),
    ("hopf.algebra_act_s", "s", "lower"),
    ("hopf.algebra_act_calls", "count", "lower"),
    ("hopf.checks", "count", "higher"), ("hopf.checks_per_s", "1/s", "higher"),
    ("contour.word_calls", "count", "lower"), ("contour.word_s", "s", "lower"),
    ("contour.word_repeat_frac", "ratio", "lower"),
    ("contour.raising_hat_calls", "count", "lower"),
    ("contour.raising_hat_s", "s", "lower"),
    ("contour.cartan_calls", "count", "lower"),
    ("serre.scan_s", "s", "lower"), ("serre.build_s", "s", "lower"),
    ("serre.nullspace_s", "s", "lower"), ("serre.residual_s", "s", "lower"),
    ("serre.specialize_s", "s", "lower"), ("serre.render_s", "s", "lower"),
    ("serre.matrix_cells", "count", "lower"), ("serre.rank", "count", "higher"),
    ("serre.kernel_dim", "count", "lower"),
    ("serre.max_coeff_terms", "count", "lower"),
    ("phase.mul_calls", "count", "lower"), ("phase.add_calls", "count", "lower"),
    ("phase.eq_calls", "count", "lower"), ("phase.div_calls", "count", "lower"),
    ("phase.mul_s", "s", "lower"), ("phase.add_s", "s", "lower"),
    ("phase.eq_s", "s", "lower"), ("phase.div_s", "s", "lower"),
    ("phase.term_products", "count", "lower"),
    ("phase.ns_per_term_product", "ns", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _terms(x) -> int:
    return len(x.num) + len(x.den)


class Tracer:
    """Spans and counters of one traced pass; a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, command, start, end]
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_words: set[int] = set()
        self._phase_depth = [0]

    # ---- installing and removing ----

    def __enter__(self) -> "Tracer":
        from qscreen.phase import PhaseScalar
        from qscreen.serre import ScanResult

        try:
            for targets, make in ((SPANS, self._span), (FINE, self._fine)):
                for module, name, label in targets:
                    original = getattr(importlib.import_module(module), name)
                    self._patch_everywhere(original, make(label, original))
            self._patch(ScanResult, "to_json",
                        self._span("serre.render", ScanResult.__dict__["to_json"]))
            for name, op in PHASE_OPS.items():
                self._patch(PhaseScalar, name,
                            self._phase(op, PhaseScalar.__dict__[name]))
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace `original` in every qscreen module that holds it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "qscreen":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # ---- wrappers ----

    def _span(self, label: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, label,
                      self.command, perf_counter_ns(), 0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter_ns()
                stack.pop()
            if label == "serre.nullspace":
                self._count_nullspace(args[0], args[1], result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _fine(self, label: str, fn):
        calls, ns = self.calls, self.ns
        on_call = {"contour.word": self._count_word,
                   "hopf.algebra_act": self._count_check,
                   "hopf.tensor_act": self._count_check}.get(label)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            if on_call is not None:
                on_call(label, args)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[label] += perf_counter_ns() - t0

        setattr(wrapper, MARK, True)
        return wrapper

    def _phase(self, op: str, fn):
        calls, ns, extra, depth = self.calls, self.ns, self.extra, self._phase_depth
        label = "phase." + op

        def wrapper(a, b):
            if depth[0]:
                return fn(a, b)
            depth[0] = 1
            calls[label] += 1
            if op == "mul":
                if hasattr(b, "num"):
                    extra["term_products"] += (len(a.num) * len(b.num)
                                               + len(a.den) * len(b.den))
                else:
                    extra["term_products"] += len(a.num) + len(a.den)
            t0 = perf_counter_ns()
            try:
                return fn(a, b)
            finally:
                ns[label] += perf_counter_ns() - t0
                depth[0] = 0

        setattr(wrapper, MARK, True)
        return wrapper

    # ---- counters beside the wrappers ----

    def _count_word(self, label, args) -> None:
        ctx, word, v = args[:3]
        if len(v) != 1:
            return
        self.extra["word_single"] += 1
        # Keeping hashes, not keys, bounds the memory; a 64-bit collision
        # among the ~10^4 calls of a pass is negligible.
        key = hash((ctx, word, next(iter(v))))
        if key in self._seen_words:
            self.extra["word_repeat"] += 1
        else:
            self._seen_words.add(key)

    def _count_check(self, label, args) -> None:
        # One relation check is one act_algebra call from verify_relations,
        # one coproduct check one act_tensor_element call from
        # verify_coproduct, one antipode check two act_algebra calls.
        parent = self.spans[self._stack[-1]][2] if self._stack else None
        if (label, parent) in (("hopf.algebra_act", "hopf.relations"),
                               ("hopf.tensor_act", "hopf.coproduct")):
            self.extra["checks"] += 1
        elif (label, parent) == ("hopf.algebra_act", "hopf.axioms"):
            self.extra["antipode_calls"] += 1

    def _count_nullspace(self, rows, ncols: int, basis) -> None:
        self.extra["matrix_cells"] += len(rows) * ncols
        self.extra["kernel_dim"] += len(basis)
        self.extra["rank"] += ncols - len(basis)
        terms = [_terms(x) for vec in basis for x in vec]
        self.extra["max_coeff_terms"] = max([self.extra["max_coeff_terms"]] + terms)

    # ---- metrics ----

    def span_seconds(self, label: str, command=None) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[2] == label
                   and command in (None, s[3])) / 1e9

    def self_seconds(self, label: str) -> float:
        child_ns = Counter()
        for s in self.spans:
            if s[1] is not None:
                child_ns[s[1]] += s[5] - s[4]
        return sum(s[5] - s[4] - child_ns[s[0]] for s in self.spans
                   if s[2] == label) / 1e9

    def metrics(self, pool_pairs, overhead: float) -> dict[str, float]:
        """Every PER_LAYER metric; 0 where the layer did not run.

        `pool_pairs` lists (serial command, pooled command) index pairs.
        """
        sec = self.span_seconds
        calls, ns, extra = self.calls, self.ns, self.extra
        pool_s = sec("cli.pool")
        serial_s = sum(sec("hopf.relations", i) for i, _ in pool_pairs)
        pooled_s = sum(sec("cli.pool", j) for _, j in pool_pairs)
        suites_s = sec("hopf.relations") + sec("hopf.coproduct") + sec("hopf.axioms")
        checks = extra["checks"] + extra["antipode_calls"] // 2
        products = extra["term_products"]
        out = {
            "cli.self_s": self.self_seconds("cli.main"),
            "cli.pool_s": pool_s,
            "cli.pool_speedup": serial_s / pooled_s if pooled_s else 0.0,
            "hopf.relations_s": sec("hopf.relations"),
            "hopf.coproduct_s": sec("hopf.coproduct"),
            "hopf.axioms_s": sec("hopf.axioms"),
            "hopf.tensor_act_s": ns["hopf.tensor_act"] / 1e9,
            "hopf.tensor_act_calls": calls["hopf.tensor_act"],
            "hopf.word_pair_calls": calls["hopf.word_pair"],
            "hopf.split_s": ns["hopf.split"] / 1e9,
            "hopf.algebra_act_s": ns["hopf.algebra_act"] / 1e9,
            "hopf.algebra_act_calls": calls["hopf.algebra_act"],
            "hopf.checks": checks,
            "hopf.checks_per_s": checks / suites_s if suites_s else 0.0,
            "contour.word_calls": calls["contour.word"],
            "contour.word_s": ns["contour.word"] / 1e9,
            "contour.word_repeat_frac": (extra["word_repeat"] / extra["word_single"]
                                         if extra["word_single"] else 0.0),
            "contour.raising_hat_calls": calls["contour.raising_hat"],
            "contour.raising_hat_s": ns["contour.raising_hat"] / 1e9,
            "contour.cartan_calls": calls["contour.cartan"],
            "serre.scan_s": sec("serre.scan"),
            "serre.build_s": self.self_seconds("serre.scan"),
            "serre.nullspace_s": sec("serre.nullspace"),
            "serre.residual_s": sec("serre.residual"),
            "serre.specialize_s": sec("serre.specialize"),
            "serre.render_s": sec("serre.render"),
            "serre.matrix_cells": extra["matrix_cells"],
            "serre.rank": extra["rank"],
            "serre.kernel_dim": extra["kernel_dim"],
            "serre.max_coeff_terms": extra["max_coeff_terms"],
            "phase.term_products": products,
            "phase.ns_per_term_product": ns["phase.mul"] / products if products else 0.0,
            "trace_overhead": overhead,
        }
        for op in ("mul", "add", "eq", "div"):
            out[f"phase.{op}_calls"] = calls["phase." + op]
            out[f"phase.{op}_s"] = ns["phase." + op] / 1e9
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "command": s[3],
                 "start_ns": s[4], "end_ns": s[5]} for s in self.spans]


def leftover_wrappers() -> list[str]:
    """Names in any loaded qscreen module or class still bound to a wrapper."""
    found = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "qscreen":
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [f"{mod.__name__}.{n}" for n, v in owners
                      if getattr(v, MARK, False)]
    return found
