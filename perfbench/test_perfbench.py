"""Tests of the benchmark itself: its oracle and its failure accounting.

    python3 -m pytest perfbench
"""

import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import perepair  # noqa: E402

import bench  # noqa: E402
import oracle  # noqa: E402

GF16 = 0b10011  # x^4 + x + 1


class OracleTest(unittest.TestCase):
    def test_gf16_products_match_hand_computation(self):
        cases = [
            (0x8, 0x2, 0x3),  # x^3 * x = x^4 = x + 1
            (0x9, 0x9, 0xD),  # (x^3 + 1)^2 = x^6 + 1 = x^3 + x^2 + 1
            (0xF, 0x2, 0xD),  # x^4 + x^3 + x^2 + x = x^3 + x^2 + 1
            (0x6, 0x7, 0x1),  # (x^2 + x)(x^2 + x + 1) = x^4 + x = 1
            (0x2, 0x9, 0x1),  # x (x^3 + 1) = x^4 + x = 1
            (0x0, 0xB, 0x0),
            (0x1, 0xB, 0xB),
        ]
        for a, b, want in cases:
            self.assertEqual(oracle.field_mul(a, b, GF16), want, (a, b))
            self.assertEqual(oracle.field_mul(b, a, GF16), want, (b, a))

    def test_horner_over_gf16(self):
        # 1 + x*X + x^3*X^2 at X = x: 1 + x^2 + x^5 = 1 + x^2 + x^2 + x
        self.assertEqual(oracle.horner([0x1, 0x2, 0x8], 0x2, GF16), 0x3)

    def test_cutset_matches_the_paper(self):
        self.assertEqual(oracle.cutset_bits(9, 8, 2310, 1), 10395)
        self.assertEqual(oracle.cutset_bits(10, 9, 30, 2), 300)
        self.assertEqual(oracle.cutset_bits(11, 9, 30, 2), 220)
        self.assertEqual(oracle.cutset_bits(13, 9, 30, 2), 156)

    def test_stripe_matches_a_correct_encode(self):
        plan = perepair.build_plan_c1(1, [3, 3], s=2, primes=[3, 5])
        state = perepair.init_cluster(plan, 12345)
        points = [p.v for p in plan.eval_set.points]
        want = oracle.stripe_symbols(12345, plan.k, points, plan.ctx.modulus)
        self.assertEqual([rec.symbol.v for rec in state.nodes], want)


def lying_package():
    """perepair with a run_repair that returns a wrong symbol yet claims
    to have verified it."""
    def run_repair(state, strategy="pe", d=None):
        state, report, log = perepair.run_repair(state, strategy, d)
        report.recovered = report.recovered + state.plan.ctx.one
        report.verified = True
        return state, report, log
    pe = types.SimpleNamespace(**{name: getattr(perepair, name)
                                  for name in perepair.__all__})
    pe.run_repair = run_repair
    return pe


TOY = bench.Workload(
    "toy", lambda pe: pe.build_plan_c1(1, [3, 3], s=2, primes=[3, 5]),
    shape=(1, 6, 2, 30), rebuild=(0,), cold_every=1, setup_samples=1,
    ingests=1, warm=0, naive=0, loads=0, cli_strategy="pe", cli_nodes=(0,),
    cli_every=1, cli_max=0,
)


class FailureAccountingTest(unittest.TestCase):
    def test_wrong_recovered_symbol_counts_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = bench.Runner(lying_package(), TOY, 7, 0, tmp)
            runner.setup()
            state, _, _, runner.truth = runner.ingest(0, 0)
            self.assertFalse(runner.repair("cold", state, 0))
            self.assertFalse(runner.repair("naive", state, 4))
            self.assertEqual((runner.attempted, runner.failed), (3, 2))
            self.assertEqual(runner.raw["cold"], [])

            # the run goes on: the same stripe still repairs correctly
            runner.pe = perepair
            self.assertTrue(runner.repair("warm", state, 0))
            self.assertTrue(runner.repair("naive", state, 4))
            self.assertEqual((runner.attempted, runner.failed), (5, 2))

    def test_correct_run_fails_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = bench.Runner(perepair, TOY, 7, 0, tmp).run()
            self.assertTrue(runner.correct)
            self.assertEqual(runner.failed, 0)
            self.assertEqual(runner.attempted, 2)  # one ingest, one cold repair


if __name__ == "__main__":
    unittest.main()
