#!/usr/bin/env python3
"""Synthetic-data checks of perfbench's own arithmetic.

    python3 perfbench/selftest.py

Not part of the repository's test suite (which only collects ``tests/``):
these check the benchmark, not the program.  They cover the block-minimum
estimator, the percentile rule, span self-time arithmetic across threads
and coroutine steps, and that installing and removing the tracer leaves
every wrapped attribute identical to the original.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import estimate, spans  # noqa: E402


class BlockMinimum(unittest.TestCase):
    def test_blocks_cover_the_replay_including_a_trailing_partial_block(self):
        completions = [10 * (k + 1) for k in range(70)]
        self.assertEqual(estimate.block_durations(completions, 32), [320, 320, 60])
        self.assertEqual(estimate.block_durations(completions[:64], 32), [320, 320])
        self.assertEqual(estimate.block_durations([], 32), [])

    def test_each_block_takes_its_minimum_from_any_replay(self):
        fast_then_slow = [1, 2, 3, 4, 14, 24, 34, 44, 45]
        slow_then_fast = [10, 20, 30, 40, 41, 42, 43, 44, 54]
        # blocks of 4: [4, 40, 1] and [40, 4, 10]
        self.assertEqual(
            estimate.quiet_duration_ns([fast_then_slow, slow_then_fast], 4), 4 + 4 + 1)

    def test_replays_of_different_length_are_refused(self):
        with self.assertRaises(ValueError):
            estimate.quiet_duration_ns([[1, 2, 3], [1, 2]], 2)

    def test_a_transaction_one_replay_aborts_and_another_commits(self):
        # The wire workload: the same eight transactions complete in both
        # replays, but replay 2 aborted one that replay 1 committed.
        completions = [[100 * (k + 1) for k in range(8)]] * 2
        throughput = estimate.throughput_per_s(completions, [8, 7], block=4)
        self.assertAlmostEqual(throughput, 7.5 / 800e-9)
        latencies = estimate.minimum_latencies([[50, 70, None], [60, None, None]])
        self.assertEqual(latencies, [50, 70, None])


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(estimate.percentile(values, 0.50), 50)
        self.assertEqual(estimate.percentile(values, 0.95), 95)
        self.assertEqual(estimate.percentile([7], 0.95), 7)
        self.assertEqual(estimate.percentile([3, 1, 2], 0.50), 2)
        self.assertEqual(estimate.samples_beyond(800, 0.90), 80)
        with self.assertRaises(ValueError):
            estimate.percentile([], 0.5)

    def test_spread_is_the_interquartile_range_over_the_median(self):
        self.assertAlmostEqual(estimate.spread([1, 2, 3, 4, 5, 6, 7]), (6 - 2) / 4)


def _span(sid, parent, thread, start, end, layer=0):
    return (sid, parent, thread, layer, 0, start, end, -1, 0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        trace = [
            _span(1, 0, 0, 0, 100),
            _span(2, 1, 0, 10, 40),
            _span(3, 2, 0, 15, 25),
            _span(4, 1, 0, 50, 70),
            # another thread, overlapping in time: nobody's child
            _span(5, 0, 1, 5, 95),
            _span(6, 5, 1, 6, 16),
        ]
        self.assertEqual(spans.self_times(trace),
                         {1: 50, 2: 20, 3: 10, 4: 20, 5: 80, 6: 10})

    def test_threads_keep_separate_stacks(self):
        tracer = spans.Tracer()
        outer = tracer.begin("harness", "outer")
        seen = {}

        def other_thread():
            token = tracer.begin("engine", "elsewhere")
            seen["parent"] = token[1]
            tracer.end(token)

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        inner = tracer.begin("engine", "inner")
        tracer.end(inner)
        tracer.end(outer)
        self.assertEqual(seen["parent"], 0)
        by_name = {tracer.names[span[4]]: span for span in tracer.spans}
        self.assertEqual(by_name["inner"][1], by_name["outer"][0])
        self.assertNotEqual(by_name["elsewhere"][2], by_name["outer"][2])

    def test_a_coroutine_is_traced_per_step_and_waiting_is_not_busy(self):
        tracer = spans.Tracer()
        gate = None

        async def waits(value):
            await gate.wait()
            return value * 2

        traced = tracer._coroutine_wrapper(
            waits, "waits", spans.Target("waits", "client"))

        async def scenario():
            nonlocal gate
            gate = asyncio.Event()
            task = asyncio.ensure_future(traced(21))
            await asyncio.sleep(0.05)
            gate.set()
            return await task

        self.assertEqual(asyncio.run(scenario()), 42)
        steps = [span for span in tracer.spans if tracer.names[span[4]] == "waits"]
        self.assertEqual(len(steps), 2)
        busy = sum(end - start for *_ignored, start, end, _txn, _size in steps)
        wall = tracer.invocations["waits"][0]
        self.assertGreaterEqual(wall, 40_000_000)
        self.assertLess(busy, wall / 4)

    def test_a_generator_is_traced_per_step_with_sizes(self):
        tracer = spans.Tracer()

        def chunks():
            yield [1, 2, 3]
            yield [4]

        traced = tracer._generator_wrapper(
            chunks, "chunks", spans.Target("chunks", "storage", size=lambda a, k, r: len(r)))
        self.assertEqual(list(traced()), [[1, 2, 3], [4]])
        self.assertEqual([span[8] for span in tracer.spans], [3, 1, 0])

    def test_an_inherited_layer_follows_the_enclosing_span(self):
        tracer = spans.Tracer()
        decode = tracer._call_wrapper(len, "decode", spans.Target("decode", None))
        for layer in ("client", "server"):
            outer = tracer.begin(layer, "read_frame")
            decode(b"abc")
            tracer.end(outer)
        layers = [spans.LAYERS[span[3]] for span in tracer.spans
                  if tracer.names[span[4]] == "decode"]
        self.assertEqual(layers, ["client", "server"])


class InstallRemove(unittest.TestCase):
    def test_every_wrapped_attribute_is_restored_identically(self):
        originals = {}
        for target in spans.TARGETS:
            owner, attr = spans._resolve(target.path)
            originals[target.path] = vars(owner)[attr]
        self.assertEqual(spans.installed_wrappers(), [])
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.unresolved, [])
            self.assertEqual(sorted(spans.installed_wrappers()),
                             sorted(originals))
        finally:
            tracer.remove()
        self.assertEqual(spans.installed_wrappers(), [])
        for target in spans.TARGETS:
            owner, attr = spans._resolve(target.path)
            self.assertIs(vars(owner)[attr], originals[target.path], target.path)

    def test_subclass_overrides_are_wrapped_and_inherited_ones_left_alone(self):
        from repro.cc import CCPolicy, SIPolicy, SSIPolicy

        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIn("on_read", vars(SSIPolicy))
            self.assertTrue(hasattr(vars(SSIPolicy)["on_read"], spans._MARK))
            # SIPolicy inherits on_read: giving it an attribute of its own
            # would change what CCPolicy.__init__ concludes about it.
            self.assertNotIn("on_read", vars(SIPolicy))
            self.assertIs(SIPolicy.on_read, CCPolicy.on_read)
        finally:
            tracer.remove()

    def test_a_target_that_no_longer_resolves_is_counted_not_raised(self):
        with self.assertRaises(AttributeError):
            spans._resolve("repro:Database.no_such_method")
        with self.assertRaises(ImportError):
            spans._resolve("repro.no_such_module:thing")


if __name__ == "__main__":
    unittest.main()
