#!/usr/bin/env python3
"""Sweep lowering multidegrees of one algebra for singular combinations.

For every multidegree with total degree up to --max-total the scanner solves
the exact linear system at generic weight.  Each nontrivial kernel is printed
in `serre-scan`'s text format: the kernel dimension, the basis vectors and
the residual verdict of each.  These are the weight-independent
(Serre-type) combinations.  Exits 1 when a residual check does not vanish,
as `serre-scan` does, and 2 on a bad --algebra.

Usage:
    python3 scripts/scan_singular_vectors.py --algebra sl3 --max-total 5
"""

import itertools
import sys

from qscreen import ConfigError, resolve_algebra, singular_scan
from qscreen.cli import Parser
from qscreen.serre import residuals_vanish


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--algebra", default="sl3")
    parser.add_argument("--max-total", type=int, default=4)
    args = parser.parse_args(argv)

    try:
        datum = resolve_algebra(args.algebra)
    except (ConfigError, OSError) as exc:
        # Bad input, as in the CLI: `error:` and exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    found = status = 0
    for total in range(1, args.max_total + 1):
        for md in itertools.product(range(total + 1), repeat=datum.rank):
            if sum(md) != total:
                continue
            result = singular_scan(datum, md)
            if result.dimension == 0:
                continue
            found += result.dimension
            print(result.to_text())
            if not residuals_vanish(result.residuals):
                status = 1
    print(f"total singular combinations found: {found}")
    return status


if __name__ == "__main__":
    sys.exit(main())
