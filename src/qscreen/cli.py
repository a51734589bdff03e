"""Command-line front end.

Subcommands:

  verify      run one or all identity suites and report pass/fail
  act         apply a generator word to a contour state and print the result
  serre-scan  scan one lowering multidegree for singular combinations
  braid       evaluate the monodromy phase of two dressed insertions

Exit codes: 0 all requested checks passed, 1 at least one identity failed,
2 configuration or usage error.  Output is text or JSON (--format, or the
QSCREEN_FORMAT environment variable).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable

from .contour import (
    DepthExceededError,
    FaultInjection,
    ModuleContext,
    apply_word,
    parse_word,
    render_vector,
    seq_token,
    state,
    word_token,
)
from .hopf import (
    IdentityRecord,
    VerificationReport,
    braid_phase,
    defining_relations,
    run_suite,
    verify_relations,
)
from .rootdata import ConfigError, RootDatum, Weight, resolve_algebra
from .serre import residuals_vanish, singular_scan, specialize_scan
from .phase import DenominatorVanishesError, rational

MAX_DEPTH = 12
FAULT_NAMES = tuple(f.name for f in dataclasses.fields(FaultInjection))


class UsageError(Exception):
    pass


def parse_weight(text: str, rank: int) -> Weight:
    if text in ("generic", "", None):
        return Weight.generic()
    try:
        coords = [rational(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad weight {text!r}: {exc}") from exc
    if len(coords) != rank:
        raise UsageError(f"bad weight {text!r}: needs {rank} coordinates, "
                         f"one per simple root")
    return Weight.concrete(coords)


def parse_seq(text: str) -> tuple[int, ...]:
    if text in ("", "vacuum"):
        return ()
    try:
        indices = tuple(int(part) - 1 for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad contour sequence {text!r}: {exc}") from exc
    if any(i < 0 for i in indices):
        raise UsageError(f"bad contour sequence {text!r}: indices are 1-based")
    return indices


def parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad multidegree {text!r}: {exc}") from exc
    if any(d < 0 for d in degrees):
        raise UsageError(f"bad multidegree {text!r}: entries are counts")
    return degrees


def check_depth(depth: int, force: bool) -> int:
    if depth < 1:
        raise UsageError("depth must be at least 1")
    if depth > MAX_DEPTH and not force:
        raise UsageError(
            f"depth {depth} exceeds the cap of {MAX_DEPTH}; state sweeps grow "
            f"exponentially, pass --force-depth if you mean it")
    return depth


def build_faults(names) -> FaultInjection:
    flags = {name: True for name in (names or [])}
    return FaultInjection(**flags)


def check_output(path: str) -> None:
    """Fail before any work when the --output file cannot be written.

    Opening for append neither truncates an existing file nor changes its
    contents; a file that the check itself created is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from exc
    if not existed:
        os.remove(path)


def emit(payload, args, text_form: Callable[[], str]) -> None:
    """Write the report: `payload` as JSON, or the text that `text_form`
    renders, which only `--format text` calls for."""
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    else:
        out = text_form()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from exc
    else:
        print(out)


def _relation_chunk(payload) -> list[IdentityRecord]:
    """Worker for --workers: verify one chunk of relation identities."""
    datum, names, depth, weight, faults = payload
    wanted = set(names)
    report = verify_relations(datum, depth, weight, faults,
                              identity_filter=lambda n: n in wanted)
    return report.records


def parallel_relations(datum: RootDatum, depth: int, weight: Weight,
                       faults: FaultInjection, workers: int) -> VerificationReport:
    """The relation suite, sharded over at most one process per relation."""
    # Imported on call: it loads multiprocessing, which only --workers N>1
    # needs, so no other command pays for the import.
    from concurrent.futures import ProcessPoolExecutor

    names = [name for name, _ in defining_relations(datum, 0)]
    n = min(workers, len(names))
    chunks = [names[k::n] for k in range(n)]
    # The frozen dataclasses pickle as they are.
    payloads = [(datum, chunk, depth, weight, faults) for chunk in chunks]
    records: dict[str, IdentityRecord] = {}
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for result in pool.map(_relation_chunk, payloads):
            records.update((rec.identity, rec) for rec in result)
    report = VerificationReport("relations", datum.label, depth, weight.label)
    report.records = [records[name] for name in names]
    return report


def cmd_verify(args) -> int:
    datum = load_algebra(args)
    depth = check_depth(args.depth, args.force_depth)
    weight1 = parse_weight(args.weight, datum.rank)
    weight2 = parse_weight(args.weight2, datum.rank)
    faults = build_faults(args.inject_fault)
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")

    suites = (("relations", "coproduct", "hopf") if args.suite == "all"
              else (args.suite,))
    reports: list[VerificationReport] = []
    for suite in suites:
        if suite == "relations" and args.workers > 1:
            reports.append(parallel_relations(datum, depth, weight1, faults,
                                              args.workers))
        else:
            reports.extend(run_suite(suite, datum, depth, weight1, weight2,
                                     faults))

    ok = all(rep.passed for rep in reports)
    payload = {"status": "pass" if ok else "fail",
               "reports": [rep.to_json() for rep in reports]}
    emit(payload, args,
         lambda: "\n\n".join(rep.to_text() for rep in reports))
    return 0 if ok else 1


def cmd_act(args) -> int:
    datum = load_algebra(args)
    depth = check_depth(args.depth, args.force_depth)
    weight = parse_weight(args.weight, datum.rank)
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    start = parse_seq(args.start)
    if any(j >= datum.rank for j in start):
        raise UsageError("contour index exceeds the rank")
    if len(start) > depth:
        raise UsageError(f"start state has {len(start)} contours, more than "
                         f"the depth cap {depth}")
    if any(letter[1] >= datum.rank for letter in word):
        raise UsageError("generator index exceeds the rank")
    ctx = ModuleContext(datum=datum, weight=weight, depth=depth,
                        faults=build_faults(args.inject_fault))
    try:
        result = apply_word(ctx, word, state(ctx, start))
    except DepthExceededError as exc:
        raise UsageError(str(exc)) from exc
    if not weight.is_generic:
        # No z is left to specialize, so no vanishing locus is at stake.
        result = {s: c.reduce_exact() for s, c in result.items()}
    payload = {
        "algebra": datum.label,
        "word": word_token(word),
        "start": seq_token(start),
        "result": {seq_token(s): c.render() for s, c in sorted(
            result.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if not c.is_zero()},
    }
    emit(payload, args, lambda: f"{word_token(word)} · {seq_token(start)} = "
                                f"{render_vector(result)}")
    return 0


def cmd_serre_scan(args) -> int:
    datum = load_algebra(args)
    multidegree = parse_multidegree(args.multidegree)
    if len(multidegree) != datum.rank:
        raise UsageError(f"multidegree needs {datum.rank} entries")
    if sum(multidegree) > MAX_DEPTH and not args.force_depth:
        raise UsageError(
            f"total degree {sum(multidegree)} exceeds {MAX_DEPTH}; "
            f"pass --force-depth if you mean it")
    weight = parse_weight(args.weight, datum.rank)
    faults = build_faults(args.inject_fault)
    result = singular_scan(datum, multidegree, weight=weight, faults=faults)
    payload = result.to_json()
    specs = []
    if args.specialize:
        generic = result if weight.is_generic else singular_scan(
            datum, multidegree, faults=faults)
        for wtext in args.specialize:
            w = parse_weight(wtext, datum.rank)
            if w.is_generic:
                raise UsageError("--specialize takes concrete weights")
            spec = specialize_scan(generic, datum, w, faults)
            specs.append(spec)
        payload["specializations"] = specs
    emit(payload, args, lambda: result.to_text() + "".join(
        f"\nspecialized at ({spec['weight']}): {spec['status']}"
        for spec in specs))
    bad = not residuals_vanish(result.residuals) or any(
        spec["status"] == "residual-nonzero" for spec in specs)
    return 1 if bad else 0


def cmd_braid(args) -> int:
    datum = load_algebra(args)
    w1 = parse_weight(args.weight1, datum.rank)
    w2 = parse_weight(args.weight2, datum.rank)
    if w1.is_generic or w2.is_generic:
        raise UsageError("braid needs two concrete weights")
    s1, s2 = parse_seq(args.seq1), parse_seq(args.seq2)
    if any(j >= datum.rank for j in s1 + s2):
        raise UsageError("contour index exceeds the rank")
    phase = braid_phase(datum, w1, s1, w2, s2,
                        faults=build_faults(args.inject_fault))
    payload = {
        "algebra": datum.label,
        "weight1": args.weight1, "seq1": seq_token(s1),
        "weight2": args.weight2, "seq2": seq_token(s2),
        "phase": phase.render(),
    }
    emit(payload, args, lambda: f"phase = {phase.render()}")
    return 0


def load_algebra(args) -> RootDatum:
    try:
        if args.config:
            from .rootdata import load_datum

            return load_datum(args.config)
        return resolve_algebra(args.algebra)
    except (ConfigError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--algebra", default="sl2",
                        help="catalog name (sl2, sl3, sl2_1, osp1_2) or a .json path")
    parser.add_argument("--config", default=None,
                        help="path to an algebra config JSON (overrides --algebra)")
    parser.add_argument("--format", choices=("text", "json"),
                        default=os.environ.get("QSCREEN_FORMAT", "text"),
                        help="output format (default from QSCREEN_FORMAT)")
    parser.add_argument("--output", default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--inject-fault", action="append",
                        choices=FAULT_NAMES, default=None,
                        help="sabotage one sign convention (negative controls)")


def add_depth_cap(parser: argparse.ArgumentParser, *,
                  depth_default: int | None = None):
    """--force-depth, and --depth for the subcommands that sweep states."""
    if depth_default is not None:
        parser.add_argument("--depth", type=int, default=depth_default,
                            help=f"contour depth cap, 1..{MAX_DEPTH}")
    parser.add_argument("--force-depth", action="store_true",
                        help=f"allow depths (or a scan's total degree) "
                             f"beyond {MAX_DEPTH}")


WEIGHT_FLAGS = ("--weight", "--weight1", "--weight2", "--specialize")


class Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report usage errors like all bad input: `error: ...`, exit 2.

        A weight that starts with `-` and follows its flag as a separate
        token reads as a flag itself, so its flag seems to have no value;
        the message then names the `--flag=-5/2` form.
        """
        flag, _, reason = message.removeprefix("argument ").partition(": ")
        if flag in WEIGHT_FLAGS and reason == "expected one argument":
            message += (f" (write a weight that starts with '-' after '=', "
                        f"as in {flag}=-5/2)")
        self.exit(2, f"error: {message}\n")


def _verify_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    add_depth_cap(p, depth_default=4)
    p.add_argument("--suite", choices=("relations", "coproduct", "hopf",
                                       "hopf-axioms", "all"),
                   default="all")
    p.add_argument("--weight", default="generic",
                   help="'generic' or comma-separated root-basis coordinates")
    p.add_argument("--weight2", default="generic",
                   help="weight of the second tensor factor")
    p.add_argument("--workers", type=int, default=1,
                   help="parallelize the relation sweep over up to this many "
                        "processes, at most one per relation (>= 1)")
    p.set_defaults(func=cmd_verify)


def _act_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    add_depth_cap(p, depth_default=8)
    p.add_argument("--word", required=True,
                   help="generator tokens, e.g. 'E1 F1 K2-'")
    p.add_argument("--start", default="",
                   help="starting contour sequence, e.g. '1,2,1' (default vacuum)")
    p.add_argument("--weight", default="generic")
    p.set_defaults(func=cmd_act)


def _serre_scan_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    add_depth_cap(p)
    p.add_argument("--multidegree", required=True,
                   help="comma-separated lowering counts per simple root, e.g. '2,1'")
    p.add_argument("--weight", default="generic",
                   help="run the scan at this weight ('generic' or coordinates)")
    p.add_argument("--specialize", action="append", default=None,
                   help="also specialize the generic kernel at this concrete "
                        "weight (repeatable)")
    p.set_defaults(func=cmd_serre_scan)


def _braid_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    p.add_argument("--weight1", required=True)
    p.add_argument("--weight2", required=True)
    p.add_argument("--seq1", default="")
    p.add_argument("--seq2", default="")
    p.set_defaults(func=cmd_braid)


# name: (help line, the function that adds the subcommand's arguments)
SUBCOMMANDS = {
    "verify": ("run identity suites", _verify_args),
    "act": ("apply a generator word to a state", _act_args),
    "serre-scan": ("scan a multidegree for singular vectors", _serre_scan_args),
    "braid": ("monodromy phase of two dressed insertions", _braid_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `qscreen` parser, with every subcommand registered.

    Only `command`'s arguments are built when it names a subcommand;
    otherwise, as with no argument, all four subcommands' are.  A parse
    that enters a subcommand reads only that subcommand's arguments, and
    the top-level help and errors list the subcommands by name and help
    line alone, so a parser built for one subcommand parses, helps and
    fails on its argv exactly as the full parser does, for less set-up.
    """
    parser = Parser(
        prog="qscreen",
        description="exact contour representation of deformed enveloping "
                    "superalgebras: identity verification and singular-vector scans")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command not in SUBCOMMANDS or command == name:
            add_args(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.output:
            check_output(args.output)
        return args.func(args)
    except (UsageError, ConfigError, DenominatorVanishesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
