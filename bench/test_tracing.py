"""Tests of the benchmark's tracer and generators (standard library only).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from superdelta import DiffOp, GradedPoly, brackets, diffop  # noqa: E402

import hostspeed  # noqa: E402
import worker  # noqa: E402
from gen import R11  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced_counts(ops):
    """Counts of one traced pass over ``ops`` with a fresh tracer."""
    tracer = Tracer().install()
    try:
        _, _, failures = worker.run_pass(ops, 0, None, tracer)
    finally:
        tracer.uninstall()
    assert not failures, failures
    metrics = tracer.layer_metrics(1)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer().install()
        self.addCleanup(self.tracer.uninstall)

    def run_active(self, fn):
        self.tracer.active = True
        try:
            return fn()
        finally:
            self.tracer.active = False

    def test_hand_checked_product(self):
        x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
        s = x + xi
        self.run_active(lambda: x * s)
        m = self.tracer.layer_metrics(1)
        self.assertEqual(m["gralg.mul.calls"][0], 1)
        self.assertEqual(m["gralg.mul.term_pairs"][0], 2)
        self.assertEqual(m["gralg.mul.useful_ratio"][0], 1.0)
        self.assertEqual(m["gralg.peak_terms"][0], 2)

    def test_rebound_name_is_counted(self):
        # brackets imports compose by name; square_bracket calls it once
        self.assertTrue(hasattr(brackets.compose, "__wrapped__"))
        self.assertIs(brackets.compose, diffop.compose)
        D = DiffOp.deriv(R11, "x") * DiffOp.deriv(R11, "xi")
        self.run_active(lambda: brackets.square_bracket(D, []))
        self.assertEqual(self.tracer.calls["diffop.compose"], 1)
        self.assertEqual(self.tracer.calls["brackets.higher_bracket"], 1)
        self.assertEqual(self.tracer.counts["diffop.compose.term_pairs"], 1)

    def test_inactive_tracer_records_nothing(self):
        x = GradedPoly.var(R11, "x")
        x * x
        self.assertEqual(len(self.tracer.span_name), 0)
        self.assertEqual(dict(self.tracer.calls), {})

    def test_scalar_product_is_not_a_polynomial_product(self):
        x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
        s = x + xi
        self.run_active(lambda: (s * 3, Fraction(1, 2) * s, x * s))
        m = self.tracer.layer_metrics(1)
        self.assertEqual(m["gralg.scale.calls"][0], 2)
        self.assertEqual(m["gralg.mul.calls"][0], 1)
        self.assertEqual(m["gralg.mul.term_pairs"][0], 2)
        self.assertEqual(m["gralg.mul.useful_ratio"][0], 1.0)

    def test_self_time_excludes_children(self):
        D = DiffOp.deriv(R11, "x") * DiffOp.mult(GradedPoly.var(R11, "xi"))
        self.run_active(lambda: diffop.commutator(D, D))
        t = self.tracer
        root = [i for i, p in enumerate(t.span_parent) if p == -1]
        self.assertEqual(len(root), 1)
        total = t.span_end[root[0]] - t.span_start[root[0]]
        # the children's bookkeeping is charged to no layer
        self.assertLessEqual(sum(t.self_s.values()), total)
        self.assertGreater(sum(t.self_s.values()), 0)


    def test_uninstall_restores_the_engine(self):
        self.tracer.uninstall()
        self.assertIs(brackets.compose, diffop.compose)
        self.assertFalse(hasattr(diffop.compose, "__wrapped__"))
        self.assertFalse(hasattr(GradedPoly.__mul__, "__wrapped__"))


class BookkeepingTest(unittest.TestCase):
    """On a clock that moves only when work is done, a parent that does
    nothing but call children has no self time, however long the tracer's
    own bookkeeping of those children takes."""

    def test_parent_without_own_work_has_no_self_time(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        account = tracer._account

        def slow_account(*args):  # bookkeeping that takes 3 time units
            now[0] += 3
            account(*args)

        def work():  # 5 time units of real work
            now[0] += 5

        tracer._account = slow_account
        child = tracer._wrap("gralg.partial", work)
        parent = tracer._wrap("diffop.commutator",
                              lambda: [child() for _ in range(4)])
        tracer.active = True
        parent()
        self.assertEqual(tracer.calls["gralg.partial"], 4)
        self.assertEqual(tracer.self_s["gralg.partial"], 20.0)
        self.assertEqual(tracer.self_s["diffop.commutator"], 0.0)


class HostSpeedTest(unittest.TestCase):
    def assertAlmostEqualAll(self, got, want):
        self.assertEqual(len(got), len(want))
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_factor_is_the_windowed_mean_over_the_reference(self):
        ref = hostspeed.PROBE_REF_S
        starts = [float(i) for i in range(12)]  # ops of 0.5 s, 1 s apart
        lat = [0.5] * 12
        self.assertAlmostEqualAll(hostspeed.factors([ref] * 12, starts, lat), [1] * 12)
        step = hostspeed.factors([ref] * 6 + [3 * ref] * 6, starts, lat)
        self.assertAlmostEqualAll(step[:3] + step[5:6] + step[-3:],
                                  [1] * 3 + [13 / 7] + [3] * 3)  # 4 of 1, 3 of 3

    def test_long_op_takes_in_the_ops_of_its_span(self):
        ref = hostspeed.PROBE_REF_S
        starts = [float(i) for i in range(12)]
        lat = [0.5] * 12
        lat[6] = 4.5  # ops 2 to 11 start within 4.5 s of its start or end
        probes = [ref] * 2 + [2 * ref] * 10
        self.assertAlmostEqual(hostspeed.factors(probes, starts, lat)[6], 2)
        lat[6] = 0.5  # a short op sees ops 3 to 9 only
        self.assertAlmostEqualAll(hostspeed.factors(probes, starts, lat)[3:7],
                                  [12 / 7, 13 / 7, 2, 2])

    def test_latencies_are_divided_by_their_factor(self):
        lat = worker.corrected([0.01, 0.02, 0.04], [2.0, 2.0, 4.0])
        self.assertEqual(lat, [0.005, 0.01, 0.01])

    def test_probe_calls_no_engine_code(self):
        tracer = Tracer().install()
        try:
            tracer.active = True
            self.assertGreater(hostspeed.probe(), 0)
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertEqual(dict(tracer.calls), {})


class DeterminismTest(unittest.TestCase):
    def test_two_traced_runs_at_one_seed_count_alike(self):
        for workload in ("density-geometry", "derived-brackets"):
            first = traced_counts(worker.build(workload, 5, 0, None)[:40])
            second = traced_counts(worker.build(workload, 5, 0, None)[:40])
            self.assertEqual(first, second, workload)
            self.assertGreater(first["gralg.mul.calls"], 0)

    def test_seed_and_pass_give_the_inputs(self):
        a = worker.build("density-geometry", 3, 0, None)
        b = worker.build("density-geometry", 3, 0, None)
        c = worker.build("density-geometry", 4, 0, None)
        d = worker.build("density-geometry", 3, 1, None)
        text = [[op.check(op.run())[1] for op in ops[:10]] for ops in (a, b, c, d)]
        self.assertEqual(text[0], text[1])
        self.assertNotEqual(text[0], text[2])
        self.assertNotEqual(text[0], text[3])

    def test_traced_passes_follow_from_the_seconds_alone(self):
        self.assertEqual(worker.trace_passes("derived-brackets", 32), 2)
        self.assertEqual(worker.trace_passes("cli-session", 1), 1)

    def test_untraced_run_makes_whole_passes_and_digests_pass_0(self):
        ops = worker.build("density-geometry", 1, 0, None)
        res = worker.run_untraced("density-geometry", 1, None, ops, 0)
        self.assertEqual(res["passes"], 1)
        self.assertEqual(res["samples"], len(ops))
        self.assertEqual(res["failures"], [])
        again = worker.run_untraced("density-geometry", 1, None, ops, 0)
        self.assertEqual(res["digest"], again["digest"])

    def test_cli_passes_share_no_module_path(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for p in (0, 1):
                ops = worker.build("cli-session", 2, p, Path(tmp))
                self.assertTrue(any(op.repeat is not None for op in ops))
                paths.append({f for f in Path(tmp, f"pass{p}").iterdir()})
            self.assertFalse(paths[0] & paths[1])


if __name__ == "__main__":
    unittest.main()
