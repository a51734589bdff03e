"""Self-tests of the benchmark: oracle, input guards and tracer.

Run from the root of the checkout with either of

    python3 perfbench/test_perfbench.py
    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, check_argv, scan, verify  # noqa: E402

cli = run.import_qscreen()


def run_all(commands):
    runner = run.Runner(cli, oracle)
    _, outputs = runner.run_pass(commands)
    return runner, outputs


def sabotaged(cmd: Command, fault: str) -> Command:
    return Command(cmd.argv[:-1] + (f"--inject-fault={fault}", "--format=json"))


class OracleTest(unittest.TestCase):
    def test_accepts_correct_outcomes(self):
        commands = [workloads.verify_tensor(random.Random(5))[k]
                    for k in (4, 5)]
        commands += [workloads.scan_generic(random.Random(5))[k]
                     for k in (0, 3, 4)]
        commands += workloads.concrete_scans(random.Random(5))[4:]
        runner, _ = run_all(commands)
        self.assertEqual(runner.failures, [])
        self.assertEqual(runner.attempted, len(commands))

    def test_sabotaged_positive_commands_count_as_failures(self):
        positive = [Command(verify("sl2_1", "coproduct", 2, weight="1/2,-3",
                                   weight2="5/4,2")),
                    Command(verify("sl3", "relations", 3)),
                    Command(scan("sl3", "2,1", specialize=["1,2"]))]
        for cmd, fault in zip(positive, ("drop_interchange_sign",
                                         "flip_raising_prefactor",
                                         "flip_raising_prefactor")):
            runner, _ = run_all([cmd, sabotaged(cmd, fault)])
            self.assertEqual(runner.attempted, 2)
            self.assertEqual(len(runner.failures), 1, runner.failures)
            self.assertIn(fault, runner.failures[0])

    def test_control_that_passes_is_a_failure(self):
        control = Command(verify("sl2_1", "coproduct", 2), expect="fail")
        runner, _ = run_all([control])
        self.assertEqual(len(runner.failures), 1)

    def test_workers_output_must_match_serial(self):
        serial = Command(verify("sl2", "relations", 3))
        pooled = Command(verify("sl2", "relations", 3, workers=2))
        self.assertEqual(workloads.pool_pairs([serial, pooled]), [(0, 1)])
        runner, _ = run_all([serial, pooled])
        self.assertEqual(runner.failures, [])

        class PoolDiffers:
            @staticmethod
            def main(argv):
                print(json.dumps({"pooled": "--workers=2" in argv}))
                return 0

        runner = run.Runner(PoolDiffers, oracle)
        runner.run_pass([serial, pooled])
        self.assertIn("differs from serial", runner.failures[-1])
        self.assertNotIn("differs from serial", runner.failures[0])

    def test_exact_values_from_text(self):
        q_plus_inv = oracle.SL3_KERNEL["F1 F2 F1"]
        self.assertTrue(oracle.same_value("-q - q^-1", q_plus_inv, oracle.ONE))
        self.assertTrue(oracle.same_value("(-q^2 - 1)/(q)", q_plus_inv, oracle.ONE))
        self.assertFalse(oracle.same_value("-q + q^-1", q_plus_inv, oracle.ONE))
        half = {(Fraction(1, 2), ((1, -1),)): Fraction(2, 3)}
        self.assertTrue(oracle.same_value("2/3·q^(1/2)·z1^-1", half, oracle.ONE))

    def test_printed_terms(self):
        self.assertEqual(oracle.printed_terms("0"), 0)
        self.assertEqual(oracle.printed_terms("-q^(-1/2)·z1"), 1)
        self.assertEqual(oracle.printed_terms("(q + 1)/(q - q^-1)"), 4)
        self.assertEqual(oracle.printed_terms(
            "(1 - z1^2)·U(1) + -q·U(2,1) ; 0"), 3)


class GuardTest(unittest.TestCase):
    def test_rejects_misread_inputs(self):
        bad = [
            ("serre-scan", "--algebra=sl3", "--multidegree=2,1",
             "--weight=1", "--format=json"),
            ("serre-scan", "--algebra=sl3", "--multidegree=2,1",
             "--specialize", "-2,5/3", "--format=json"),
            ("verify", "--algebra=sl2", "--suite=hopf-axioms", "--format=json"),
            ("verify", "--algebra=sl2", "--suite=all"),
        ]
        for argv in bad:
            with self.assertRaises(ValueError, msg=argv):
                check_argv(argv)

    def test_seeded_inputs(self):
        for name in run.WORKLOADS:
            first = workloads.build(name, 7).argv_lists()
            self.assertEqual(first, workloads.build(name, 7).argv_lists())
            self.assertNotEqual(first, workloads.build(name, 8).argv_lists())


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_and_workloads_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({(m["name"], m["unit"]) for m in bench["end_to_end"]},
                         set(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual(bench["run_seconds"], run.parse_args(
            ["--workload", "scan", "--seed", "1"]).seconds)


class TracerTest(unittest.TestCase):
    def test_traced_output_identical_and_wrappers_removed(self):
        import qscreen.contour
        import qscreen.hopf
        from qscreen.phase import PhaseScalar

        apply_word = qscreen.contour.apply_word
        mul = PhaseScalar.__dict__["__mul__"]
        commands = [Command(verify("sl2_1", "all", 3)),
                    Command(verify("sl3", "relations", 3)),
                    Command(verify("sl3", "relations", 3, workers=2)),
                    Command(scan("sl3", "2,1", specialize=["1,2", "1,7"]))]
        runner, plain = run_all(commands)
        with tracing.Tracer() as tracer:
            self.assertIsNot(qscreen.hopf.apply_word, apply_word)
            self.assertIs(qscreen.hopf.apply_word, qscreen.contour.apply_word)
            _, traced = runner.run_pass(commands, tracer, reference=plain)
        self.assertEqual(traced, plain)
        self.assertEqual(runner.failures, [])
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertIs(qscreen.hopf.apply_word, apply_word)
        self.assertIs(PhaseScalar.__dict__["__mul__"], mul)

        metrics = tracer.metrics([(1, 2)], 1.0)
        self.assertEqual(set(metrics), {name for name, _, _ in tracing.PER_LAYER})
        for name in ("cli.self_s", "cli.pool_s", "cli.pool_speedup",
                     "hopf.relations_s", "hopf.coproduct_s", "hopf.axioms_s",
                     "hopf.tensor_act_calls", "hopf.checks",
                     "contour.word_calls", "contour.word_repeat_frac",
                     "serre.nullspace_s", "serre.residual_s",
                     "serre.specialize_s", "serre.render_s",
                     "serre.kernel_dim", "phase.mul_calls",
                     "phase.term_products"):
            self.assertGreater(metrics[name], 0, name)


if __name__ == "__main__":
    unittest.main()
