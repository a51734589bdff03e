#!/usr/bin/env python3
"""Run every identity suite over the bundled algebras and print a summary.

Also runs the three negative controls: each sabotaged sign convention has to
make at least one suite fail, otherwise the suites are not actually
sensitive to the conventions they claim to pin down.  A depth below 1 sweeps
no state, so it is rejected with `error:` and exit 2, as in the CLI.

Usage:
    python3 scripts/run_verification_suites.py [--depth 4] [--tensor-depth 3]
"""

import sys
import time
from dataclasses import fields

from qscreen import CATALOG, FaultInjection
from qscreen.cli import Parser
from qscreen.hopf import verify_coproduct, verify_hopf_axioms, verify_relations


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--depth", type=int, default=4,
                        help="contour depth for the relation sweep")
    parser.add_argument("--tensor-depth", type=int, default=3,
                        help="per-factor depth for the coproduct sweep")
    args = parser.parse_args(argv)
    for flag, depth in (("--depth", args.depth),
                        ("--tensor-depth", args.tensor_depth)):
        if depth < 1:
            parser.error(f"{flag} must be at least 1, got {depth}")

    failures = 0
    print("== positive suites ==")
    for name, datum in CATALOG.items():
        for label, runner in (
            ("relations", lambda d: verify_relations(d, args.depth)),
            ("coproduct", lambda d: verify_coproduct(d, args.tensor_depth)),
            ("hopf-axioms", lambda d: verify_hopf_axioms(d, args.tensor_depth)),
        ):
            t0 = time.perf_counter()
            report = runner(datum)
            dt = time.perf_counter() - t0
            status = "pass" if report.passed else "FAIL"
            print(f"  {name:8s} {label:12s} {status}  "
                  f"({len(report.records)} identities, {dt:.2f}s)")
            if not report.passed:
                failures += 1
                for rec in report.failures():
                    print(f"      {rec.identity} at {rec.counterexample['basis']}")

    print("== negative controls ==")
    for fault_name in (f.name for f in fields(FaultInjection)):
        faults = FaultInjection(**{fault_name: True})
        broken = []
        for name, datum in CATALOG.items():
            if not verify_relations(datum, args.depth, faults=faults).passed:
                broken.append(f"{name}/relations")
            if not verify_coproduct(datum, args.tensor_depth, faults=faults).passed:
                broken.append(f"{name}/coproduct")
        status = "detected" if broken else "NOT DETECTED"
        print(f"  {fault_name:24s} {status}: {', '.join(broken) or '-'}")
        if not broken:
            failures += 1

    print("overall:", "ok" if failures == 0 else f"{failures} problems")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
