"""The benchmark's two workloads, as lists of `qscreen` argv lists.

The seed draws every concrete weight the way acceptance criterion 6 does:
one coordinate per simple root, numerator uniform in -8..8, denominator
uniform in 1..4.  Nothing else is random.  See README.md in this directory
for why each workload and each command group exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

RANKS = {"sl2": 1, "sl3": 2, "sl2_1": 2, "osp1_2": 1}
SUITES = ("relations", "coproduct", "all")
FAULTS = ("drop_hat_parity", "drop_interchange_sign", "flip_raising_prefactor")
VALUE_FLAGS = ("--algebra", "--depth", "--suite", "--weight", "--weight2",
               "--workers", "--multidegree", "--specialize", "--inject-fault",
               "--format")
WEIGHT_FLAGS = ("--weight", "--weight2", "--specialize")

# Concrete scans are timed on a fixed panel: PANEL_SIZE weights per scan,
# drawn with the criterion-6 procedure from criterion 6's own seed.  A
# concrete scan costs 0.02-2.4 s depending on its weight, so one seeded
# weight per scan gives 0.8-4.6 s of work over seeds 1-10, a spread far
# wider than the 0.25 bound on pass_s.  The run's own seed still draws one
# weight per scan; those commands run once per run, checked but not timed.
PANEL_SEED = 823543
PANEL_SIZE = 2
CONCRETE_SCANS = (("sl3", "2,1"), ("sl3", "3,1"), ("sl2_1", "2,1"),
                  ("sl2_1", "2,2"), ("sl2", "3"), ("osp1_2", "4"))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome the oracle expects of it:
    "pass" for positive runs, "fail" for negative controls."""

    argv: tuple[str, ...]
    expect: str = "pass"


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    untimed: list[Command] = field(default_factory=list)

    def argv_lists(self) -> dict:
        return {"timed": [list(c.argv) for c in self.commands],
                "untimed": [list(c.argv) for c in self.untimed]}


def draw_weight(rng: random.Random, rank: int) -> str:
    return ",".join(str(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])))
                    for _ in range(rank))


def _argv(subcommand: str, **flags) -> tuple[str, ...]:
    out = [subcommand]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:
            out.append(f"{flag}={v}")
    out.append("--format=json")
    return check_argv(tuple(out))


def verify(algebra: str, suite: str, depth: int, **flags) -> tuple[str, ...]:
    return _argv("verify", algebra=algebra, suite=suite, depth=depth, **flags)


def scan(algebra: str, multidegree: str, **flags) -> tuple[str, ...]:
    return _argv("serre-scan", algebra=algebra, multidegree=multidegree,
                 **flags)


def flag_values(argv) -> dict[str, list[str]]:
    """`--flag=value` tokens as {flag: [values in order]}."""
    flags: dict[str, list[str]] = {}
    for token in argv[1:]:
        name, _, value = token.partition("=")
        flags.setdefault(name, []).append(value)
    return flags


def check_argv(argv: tuple[str, ...]) -> tuple[str, ...]:
    """Reject argv lists that this commit's CLI would misread.

    - Every flag is written `--flag=value`: a value that starts with `-`
      (as in `--specialize -2,5/3`) is otherwise read as a flag, exit 2.
    - `--suite` is one the CLI accepts (`hopf-axioms` is rejected).
    - Every weight has exactly one coordinate per simple root: the CLI
      does not check, and can answer silently wrong.
    """
    if argv[0] not in ("verify", "serre-scan"):
        raise ValueError(f"unknown subcommand in {argv}")
    for token in argv[1:]:
        name, sep, value = token.partition("=")
        if not sep or name not in VALUE_FLAGS or not value:
            raise ValueError(f"{token!r} is not a --flag=value token")
    flags = flag_values(argv)
    algebra = flags.get("--algebra", [None])[0]
    if algebra not in RANKS:
        raise ValueError(f"unknown algebra in {argv}")
    if flags.get("--format") != ["json"]:
        raise ValueError(f"{argv} does not ask for JSON")
    for suite in flags.get("--suite", []):
        if suite not in SUITES:
            raise ValueError(f"suite {suite!r} is not one of {SUITES}")
    for fault in flags.get("--inject-fault", []):
        if fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
    for flag in WEIGHT_FLAGS:
        for weight in flags.get(flag, []):
            if weight != "generic" and len(weight.split(",")) != RANKS[algebra]:
                raise ValueError(f"{flag}={weight} needs {RANKS[algebra]} "
                                 f"coordinates for {algebra}")
    return argv


def verify_tensor(rng: random.Random) -> list[Command]:
    w1, w2 = draw_weight(rng, 2), draw_weight(rng, 2)
    return [
        Command(verify("sl3", "all", 3)),
        Command(verify("sl2_1", "all", 3)),
        Command(verify("sl2", "all", 4)),
        Command(verify("osp1_2", "all", 4)),
        Command(verify("sl2_1", "coproduct", 2, weight=w1, weight2=w2)),
        Command(verify("sl2_1", "coproduct", 2,
                       inject_fault="drop_interchange_sign"), expect="fail"),
    ]


def verify_deep(rng: random.Random) -> list[Command]:
    w = draw_weight(rng, 2)
    return [
        Command(verify("sl3", "relations", 6)),
        Command(verify("sl2_1", "relations", 6)),
        Command(verify("sl3", "relations", 6, workers=2)),
        Command(verify("osp1_2", "relations", 10)),
        Command(verify("sl3", "relations", 5, weight=w)),
        Command(verify("sl3", "relations", 4,
                       inject_fault="flip_raising_prefactor"), expect="fail"),
    ]


def scan_generic(rng: random.Random) -> list[Command]:
    specs = ["1,2", draw_weight(rng, 2), draw_weight(rng, 2)]
    return [
        Command(scan("sl3", "2,1", specialize=specs)),
        Command(scan("sl3", "3,1")),
        Command(scan("sl2_1", "2,2")),
        Command(scan("sl2_1", "0,2")),
        Command(scan("sl2", "2")),
    ]


def concrete_scans(rng: random.Random) -> list[Command]:
    return [Command(scan(algebra, md, weight=draw_weight(rng, RANKS[algebra])))
            for algebra, md in CONCRETE_SCANS]


def pool_pairs(commands: list[Command]) -> list[tuple[int, int]]:
    """(serial, pooled) index pairs: a `--workers` command and the command
    with the same argv but no `--workers` flag, whose output it must
    reproduce byte for byte."""
    index = {cmd.argv: k for k, cmd in enumerate(commands)}
    pairs = []
    for k, cmd in enumerate(commands):
        serial = tuple(t for t in cmd.argv if not t.startswith("--workers="))
        if serial != cmd.argv and serial in index:
            pairs.append((index[serial], k))
    return pairs


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "verify":
        return Workload(name, seed, verify_tensor(rng) + verify_deep(rng))
    generic = scan_generic(rng)
    panel_rng = random.Random(PANEL_SEED)
    panel = [cmd for _ in range(PANEL_SIZE) for cmd in concrete_scans(panel_rng)]
    return Workload(name, seed, generic + panel, untimed=concrete_scans(rng))
