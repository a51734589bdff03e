"""Command-line front end.

Subcommands:

  verify      run one or all identity suites and report pass/fail
  act         apply a generator word to a contour state and print the result
  serre-scan  scan one lowering multidegree for singular combinations
  braid       evaluate the monodromy phase of two dressed insertions

Exit codes: 0 all requested checks passed, 1 at least one identity failed,
2 configuration or usage error.  Output is text or JSON (--format, or the
QSCREEN_FORMAT environment variable).

Import rule: at module level this module imports only what every
subcommand needs (`contour`, `phase`, `rootdata`).  Each engine is imported
inside the code that runs it: `hopf` in `cmd_verify`, `parallel_relations`
and `cmd_braid`, `serre` in `cmd_serre_scan`, and `json` in `emit` for
`--format json` only.  So a `serre-scan` or `act` process never loads
`hopf`, and a `verify`, `act` or `braid` process never loads `serre`.  A
call-time `from .hopf import run_suite` reads the module attribute on each
call, so patching `qscreen.hopf.run_suite` reaches this module too.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from math import factorial, prod
from typing import TYPE_CHECKING, Callable

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
from .rootdata import (ConfigError, RootDatum, Weight, input_rational,
                       load_datum, resolve_algebra)
from .phase import DenominatorVanishesError

if TYPE_CHECKING:
    from .hopf import VerificationReport

MAX_DEPTH = 12
# Caps on the work itself, which grows faster than the depth; --force-depth
# lifts them with the depth cap.  A verify sweep covers every contour state
# below its depth, and a pair of them in the coproduct suite; a scan's
# cost grows steeply with its column count (generic sl3 scans of 10, 15
# and 20 columns take about 0.2, 12 and 60 s on one core).
MAX_STATES = 4096
MAX_COLUMNS = 12
FAULT_NAMES = tuple(f.name for f in dataclasses.fields(FaultInjection))
FORMATS = ("text", "json")
# The verify suites that sweep the tensor square, the only ones that read
# --weight2.
TENSOR_SUITES = ("coproduct", "all")


class UsageError(Exception):
    pass


def parse_weight(text: str, rank: int) -> Weight:
    if text in ("generic", "", None):
        return Weight.generic()
    try:
        coords = [input_rational(part) for part in text.split(",")]
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


def check_sweep(rank: int, depth: int, suite: str, force: bool) -> None:
    """Refuse a verify sweep over more than MAX_STATES states (state pairs
    for the coproduct suite) unless forced."""
    if force:
        return
    count = sum(rank ** n for n in range(depth))
    noun = "states"
    if suite in TENSOR_SUITES:
        count, noun = count * count, "state pairs"
    if count > MAX_STATES:
        raise UsageError(
            f"--suite {suite} at depth {depth} sweeps {count} {noun}, over "
            f"the cap of {MAX_STATES}; pass --force-depth if you mean it")


def check_columns(multidegree: tuple[int, ...], force: bool) -> None:
    """Refuse a scan of more than MAX_COLUMNS columns (the distinct words
    of its multidegree) unless forced."""
    if force:
        return
    columns = factorial(sum(multidegree)) // prod(map(factorial, multidegree))
    if columns > MAX_COLUMNS:
        raise UsageError(
            f"multidegree {','.join(map(str, multidegree))} has {columns} "
            f"columns, over the cap of {MAX_COLUMNS}; pass --force-depth if "
            f"you mean it")


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
        import json

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
        try:
            print(out, flush=True)
        except BrokenPipeError as exc:
            # stdout's reader is gone; the interpreter flushes stdout once
            # more at exit, which must then write nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write the report: {exc}") from exc


def parallel_relations(datum: RootDatum, depth: int, weight: Weight,
                       faults: FaultInjection) -> VerificationReport:
    """The relation suite of a `verify --workers N` run with N > 1.

    It sweeps in this process, as a serial run does, so the report equals
    the serial one by construction.  The name stays only because the
    benchmark times it as its `cli.pool` span; once a benchmark change
    drops that span, `cmd_verify` can call `verify_relations` directly and
    this function can go.
    """
    from .hopf import verify_relations

    return verify_relations(datum, depth, weight, faults)


def cmd_verify(args) -> int:
    from .hopf import run_suite

    datum = load_algebra(args)
    depth = check_depth(args.depth, args.force_depth)
    check_sweep(datum.rank, depth, args.suite, args.force_depth)
    weight1 = parse_weight(args.weight, datum.rank)
    weight2 = parse_weight(args.weight2, datum.rank)
    if not weight2.is_generic and args.suite not in TENSOR_SUITES:
        raise UsageError(f"--weight2 is read by --suite coproduct and all "
                         f"only, not by --suite {args.suite}")
    faults = build_faults(args.inject_fault)
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")

    suites = (("relations", "coproduct", "hopf") if args.suite == "all"
              else (args.suite,))
    reports: list[VerificationReport] = []
    for suite in suites:
        if suite == "relations" and args.workers > 1:
            reports.append(parallel_relations(datum, depth, weight1, faults))
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
            result.items(), key=lambda kv: (len(kv[0]), kv[0]))},
    }
    emit(payload, args, lambda: f"{word_token(word)} · {seq_token(start)} = "
                                f"{render_vector(result)}")
    return 0


def cmd_serre_scan(args) -> int:
    from .serre import residuals_vanish, singular_scan, specialize_scan

    datum = load_algebra(args)
    multidegree = parse_multidegree(args.multidegree)
    if len(multidegree) != datum.rank:
        raise UsageError(f"multidegree needs {datum.rank} entries")
    if sum(multidegree) > MAX_DEPTH and not args.force_depth:
        raise UsageError(
            f"total degree {sum(multidegree)} exceeds {MAX_DEPTH}; "
            f"pass --force-depth if you mean it")
    check_columns(multidegree, args.force_depth)
    weight = parse_weight(args.weight, datum.rank)
    points = [parse_weight(w, datum.rank) for w in args.specialize or ()]
    if any(w.is_generic for w in points):
        raise UsageError("--specialize takes concrete weights")
    faults = build_faults(args.inject_fault)
    result = singular_scan(datum, multidegree, weight=weight, faults=faults)
    payload = result.to_json()
    specs = []
    if points:
        generic = result if weight.is_generic else singular_scan(
            datum, multidegree, faults=faults)
        specs = [specialize_scan(generic, w) for w in points]
        payload["specializations"] = specs
    emit(payload, args, lambda: result.to_text() + "".join(
        f"\nspecialized at ({spec['weight']}): {spec['status']}"
        for spec in specs))
    bad = not residuals_vanish(result.residuals) or any(
        spec["status"] == "residual-nonzero" for spec in specs)
    return 1 if bad else 0


def cmd_braid(args) -> int:
    from .hopf import braid_phase

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
            return load_datum(args.config)
        return resolve_algebra(args.algebra)
    except (ConfigError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--algebra", default="sl2",
                        help="catalog name (sl2, sl3, sl2_1, osp1_2) or a .json path")
    parser.add_argument("--config", default=None,
                        help="path to an algebra config JSON (overrides --algebra)")
    parser.add_argument("--format", choices=FORMATS,
                        default=os.environ.get("QSCREEN_FORMAT", "text"),
                        help="output format (default from QSCREEN_FORMAT)")
    parser.add_argument("--output", default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--inject-fault", action="append",
                        choices=FAULT_NAMES, default=None,
                        help="sabotage one sign convention (negative controls)")


def add_depth_cap(parser: argparse.ArgumentParser, lifts: str, *,
                  depth_default: int | None = None):
    """--force-depth, which allows what `lifts` names, and --depth for the
    subcommands that sweep states."""
    if depth_default is not None:
        parser.add_argument("--depth", type=int, default=depth_default,
                            help=f"contour depth cap, 1..{MAX_DEPTH}")
    parser.add_argument("--force-depth", action="store_true",
                        help=f"allow {lifts}")


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
    add_depth_cap(p, f"a depth beyond {MAX_DEPTH} and a sweep over more "
                     f"than {MAX_STATES} states (state pairs for --suite "
                     f"coproduct and all)", depth_default=4)
    p.add_argument("--suite", choices=("relations", "coproduct", "hopf",
                                       "hopf-axioms", "all"),
                   default="all")
    p.add_argument("--weight", default="generic",
                   help="'generic' or comma-separated root-basis coordinates")
    p.add_argument("--weight2", default="generic",
                   help="weight of the second tensor factor")
    p.add_argument("--workers", type=int, default=1,
                   help="worker count, checked to be >= 1; every suite runs "
                        "in this process")
    p.set_defaults(func=cmd_verify)


def _act_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    add_depth_cap(p, f"a depth beyond {MAX_DEPTH}", depth_default=8)
    p.add_argument("--word", required=True,
                   help="generator tokens, e.g. 'E1 F1 K2-'")
    p.add_argument("--start", default="",
                   help="starting contour sequence, e.g. '1,2,1' (default vacuum)")
    p.add_argument("--weight", default="generic")
    p.set_defaults(func=cmd_act)


def _serre_scan_args(p: argparse.ArgumentParser) -> None:
    add_common(p)
    add_depth_cap(p, f"a total degree beyond {MAX_DEPTH} and more than "
                     f"{MAX_COLUMNS} columns")
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


def build_parser() -> argparse.ArgumentParser:
    """The `qscreen` parser, with all four subcommands."""
    parser = Parser(
        prog="qscreen",
        description="exact contour representation of deformed enveloping "
                    "superalgebras: identity verification and singular-vector scans")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand alone, for the argv after its name.

    The full parser hands every token after a subcommand's name to a
    subparser built as this one is (`add_parser` gives it this class and
    prog), and reports what that subparser leaves over in the same words.
    The top level's own help and errors arise only before a subcommand is
    named, so this parser parses, helps and fails on that argv exactly as
    the full parser does, for less set-up.
    """
    parser = Parser(prog=f"qscreen {name}")
    SUBCOMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        args = subcommand_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        if args.format not in FORMATS:  # argparse leaves defaults unchecked
            raise UsageError(f"QSCREEN_FORMAT must be one of text|json, "
                             f"not {args.format!r}")
        if args.output:
            check_output(args.output)
        return args.func(args)
    except (UsageError, ConfigError, DenominatorVanishesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
