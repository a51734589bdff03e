#!/usr/bin/env python3
"""Sweep lowering multidegrees of one algebra for singular combinations.

For every multidegree with total degree up to --max-total the scanner solves
the exact linear system at generic weight and prints the kernel dimension;
nontrivial kernels are printed with their basis vectors.  These are the
weight-independent (Serre-type) combinations.

Usage:
    python3 scripts/scan_singular_vectors.py --algebra sl3 --max-total 5
"""

import itertools
import sys

from qscreen import ConfigError, resolve_algebra, singular_scan
from qscreen.cli import Parser


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--algebra", default="sl3")
    parser.add_argument("--max-total", type=int, default=4)
    parser.add_argument("--show-residuals", action="store_true")
    args = parser.parse_args(argv)

    try:
        datum = resolve_algebra(args.algebra)
    except (ConfigError, OSError) as exc:
        # Bad input, as in the CLI: `error:` and exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    r = datum.rank
    found = 0
    for total in range(1, args.max_total + 1):
        for md in itertools.product(range(total + 1), repeat=r):
            if sum(md) != total:
                continue
            result = singular_scan(datum, md)
            if result.dimension == 0:
                continue
            found += result.dimension
            print(f"multidegree {list(md)}: kernel dimension {result.dimension}")
            for k, entry in enumerate(result.basis_as_tokens()):
                print(f"  vector {k + 1}:")
                for token, coeff in entry.items():
                    print(f"    {token}: {coeff}")
            if args.show_residuals:
                for k, checks in enumerate(result.residuals):
                    print(f"  residuals {k + 1}: "
                          + " ".join(f"{g}={v}" for g, v in checks.items()))
    print(f"total singular combinations found: {found}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
