"""qscreen benchmark: runs one workload of CLI commands in process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Each command goes through `qscreen.cli.main(argv)` with `--format json`, and
the oracle checks every outcome.  With `--trace 0` the run repeats whole
passes over the workload's commands for about `--seconds` seconds and
reports the end-to-end metrics.  With `--trace 1` it runs one pass plain
and one pass under `tracing.Tracer` and reports the per-layer metrics.  The
last line of standard output is the result as JSON; the full record
(provenance, pass times, spans) goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

# Modules that the set-up probe does not need are imported inside the
# functions that use them, so that setup_s times qscreen's import rather
# than the benchmark's.
import argparse
import sys
from pathlib import Path

from workloads import build, pool_pairs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "scan")
MIN_PASSES = 3
SETUP_PROBES = 2
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"),
              ("printed_terms", "count"))


def import_qscreen():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "qscreen" / "__init__.py").is_file():
        raise SystemExit(f"error: no qscreen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qscreen.cli

    if Path(qscreen.cli.__file__).resolve().parent != SRC / "qscreen":
        raise SystemExit(f"error: imported qscreen from {qscreen.cli.__file__}")
    return qscreen.cli


def run_command(cli, argv) -> tuple[object, str, float]:
    """Run one CLI call; returns (exit code, stdout, wall seconds)."""
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout
    from time import perf_counter

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception: " + traceback.format_exc(limit=-1).strip()
    return code, out.getvalue(), perf_counter() - t0


class Runner:
    """Runs commands, checks them and keeps the tallies of one run."""

    def __init__(self, cli, oracle):
        self.cli, self.oracle = cli, oracle
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, commands, tracer=None, reference=None):
        """Run every command in order; returns (per-command seconds, outputs).

        A `--workers` command must print what its serial twin printed.
        With `reference`, each output must equal the reference output.
        """
        seconds, outputs, problems = [], [], []
        for k, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = k
            code, out, dt = run_command(self.cli, cmd.argv)
            seconds.append(dt)
            outputs.append(out)
            problems.append(self.oracle.check(cmd, code, out))
        for serial, pooled in pool_pairs(commands):
            if outputs[pooled] != outputs[serial]:
                problems[pooled].append("--workers output differs from serial output")
        for k, cmd in enumerate(commands):
            if reference is not None and outputs[k] != reference[k]:
                problems[k].append("traced output differs from untraced output")
            self.record(cmd, problems[k])
        return seconds, outputs

    def record(self, cmd, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(" ".join(cmd.argv) + ": " + "; ".join(problems))


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports qscreen and builds
    the workload's argv lists."""
    import subprocess
    from time import perf_counter

    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
    t0 = perf_counter()
    subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(wl) -> dict:
    import os
    import platform

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "workload": wl.name, "seed": wl.seed,
            "argv": wl.argv_lists()}


def measure(runner, wl, seconds: float, start: float) -> dict:
    """Timed passes until the next one, at the median pass time, would end
    later than `seconds` after `start` (at least MIN_PASSES); returns the
    end-to-end metrics.

    SETUP_PROBES set-up probes run before each pass, so that set-up time
    is sampled over the whole run rather than at one moment; one untimed
    probe first warms the bytecode cache.
    """
    import resource
    import statistics
    from time import perf_counter

    setup_probe(wl.name, wl.seed)
    setup, times, first = [], [], None
    while True:
        setup += [setup_probe(wl.name, wl.seed) for _ in range(SETUP_PROBES)]
        dt, outputs = runner.run_pass(wl.commands)
        times.append(dt)
        first = first or outputs
        next_pass = statistics.median(map(sum, times)) + SETUP_PROBES * max(setup)
        if (len(times) >= MIN_PASSES
                and perf_counter() - start + next_pass > seconds):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    terms = sum(runner.oracle.output_terms(cmd.argv, out)
                for cmd, out in zip(wl.commands, first))
    return {"pass_s": statistics.median(map(sum, times)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024, "printed_terms": terms,
            "pass_times": times, "setup_times": setup}


def measure_traced(runner, wl) -> tuple[dict, dict]:
    """One plain pass, then one traced pass; returns the per-layer metrics
    and the trace record.  Traced output must equal plain output byte for
    byte."""
    from tracing import Tracer

    plain_s, plain = runner.run_pass(wl.commands)
    with Tracer() as tracer:
        traced_s, _ = runner.run_pass(wl.commands, tracer, reference=plain)
    plain_s, traced_s = sum(plain_s), sum(traced_s)
    return (tracer.metrics(pool_pairs(wl.commands), traced_s / plain_s),
            {"pass_times": [plain_s, traced_s], "spans": tracer.span_records()})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_qscreen()
    wl = build(args.workload, args.seed)
    if args.setup_probe:
        return 0

    import json
    from time import perf_counter

    import oracle
    from tracing import PER_LAYER

    start = perf_counter()
    record = {"provenance": provenance(wl)}
    print("provenance " + json.dumps(record["provenance"]), flush=True)
    runner = Runner(cli, oracle)
    # Seeded commands that are not timed (concrete scans) are still checked.
    for cmd in wl.untimed:
        code, out, _ = run_command(cli, cmd.argv)
        runner.record(cmd, oracle.check(cmd, code, out))
    if args.trace:
        layer, traced = measure_traced(runner, wl)
        record.update(traced)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        e2e = measure(runner, wl, args.seconds, start)
        record.update(pass_times=e2e["pass_times"], setup_times=e2e["setup_times"])
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, failures=runner.failures,
                  fail_frac=failed / runner.attempted)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.failures:
        print("FAILED " + line)
    print(f"fail_frac {failed}/{runner.attempted}; record in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
