"""Unit checks of the benchmark's own arithmetic and oracle.

Run from the repository root::

    python3 perfbench/selftest.py

Covers the percentile rule, interval coverage and self time on synthetic
spans, the span recorder, the row comparator (ties, LIMIT, floats), a
planted wrong row, the shadow model, ORDER BY key extraction, the
sums over sub-windows, byte
counting through the Filesystem seam, and that agent_oltp's task mix
still matches the tool calls of the repo's simulated agents.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import spans as sp  # noqa: E402
from oracle import Expect, Oracle, Shadow, SqliteCopy, compare_rows  # noqa: E402


def span(sid, parent, start, end, name="x", rid=1):
    return (sid, parent, rid, name, start, end, False, None)


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(measure.percentile(list(range(100)), 0.90), 89)
        self.assertIsNone(measure.percentile(list(range(99)), 0.90))
        self.assertEqual(measure.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(measure.percentile(list(range(999)), 0.99))

    def test_median_needs_one_sample(self):
        self.assertEqual(measure.median([5.0]), 5.0)
        self.assertEqual(measure.median([3, 1, 2]), 2)
        self.assertIsNone(measure.median([]))

    def test_order_does_not_matter(self):
        values = [7, 3, 9, 1] * 50
        self.assertEqual(measure.percentile(values, 0.9), 9)


class SelfTime(unittest.TestCase):
    def test_covered_merges_and_clips(self):
        self.assertAlmostEqual(sp.covered(0, 10, [(1, 3), (2, 5), (8, 12)]), 6.0)
        self.assertAlmostEqual(sp.covered(0, 10, []), 0.0)
        self.assertAlmostEqual(sp.covered(0, 10, [(-5, 20)]), 10.0)
        self.assertAlmostEqual(sp.covered(0, 10, [(11, 12)]), 0.0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 3.0),
            span(3, 1, 2.0, 5.0),  # overlaps its sibling
            span(4, 2, 1.5, 2.5),  # grandchild: counts against 2, not 1
            span(5, 1, 8.0, 12.0),  # escapes the parent
        ]
        selfs = sp.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 6.0)
        self.assertAlmostEqual(selfs[2], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_nested_self_times_sum_to_root(self):
        spans = [span(1, None, 0, 10), span(2, 1, 1, 4), span(3, 2, 2, 3), span(4, 1, 5, 9)]
        self.assertAlmostEqual(sum(sp.self_times(spans).values()), 10.0)


class Recorder(unittest.TestCase):
    def test_spans_nest_and_only_inside_requests(self):
        tracer = sp.Tracer()
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
        self.assertEqual(outer(1), 4)
        self.assertEqual(tracer.spans, [])  # no request id: untraced
        tracer.enabled = True
        tracer.begin_request(7)
        outer(1)
        tracer.end_request()
        by_name = {s[sp.NAME]: s for s in tracer.spans}
        self.assertEqual(by_name["inner"][sp.PARENT], by_name["outer"][sp.SID])
        self.assertIsNone(by_name["outer"][sp.PARENT])
        self.assertEqual({s[sp.RID] for s in tracer.spans}, {7})

    def test_errors_are_flagged_and_reraised(self):
        tracer = sp.Tracer()
        tracer.enabled = True

        def fail():
            raise KeyError("x")

        wrapped = tracer.wrap(fail, "fail")
        tracer.begin_request(1)
        with self.assertRaises(KeyError):
            wrapped()
        tracer.end_request()
        self.assertTrue(tracer.spans[0][sp.ERROR])

    def test_patch_is_undone(self):
        class Thing:
            def go(self):
                return 1

        tracer = sp.Tracer()
        original = Thing.go
        tracer.patch(Thing, "go", "thing.go")
        self.assertIsNot(Thing.go, original)
        tracer.unpatch_all()
        self.assertIs(Thing.go, original)


class Comparator(unittest.TestCase):
    def test_unordered_with_float_tolerance(self):
        self.assertIsNone(compare_rows([(2, 0.1 + 0.2), (1, "a")], [(1, "a"), (2, 0.3)]))
        self.assertIsNotNone(compare_rows([(1, 0.31)], [(1, 0.3)]))
        self.assertIsNotNone(compare_rows([(1,)], [(1,), (1,)]))

    def test_ties_may_reorder_under_order_by(self):
        expected = [(1, 9), (2, 5), (3, 5), (4, 1)]
        self.assertIsNone(compare_rows([(1, 9), (3, 5), (2, 5), (4, 1)], expected, order=(1,)))
        self.assertIsNotNone(compare_rows([(2, 5), (1, 9), (3, 5), (4, 1)], expected, order=(1,)))

    def test_limit_cuts_a_tie_group(self):
        expected = [(1, 9), (2, 5), (3, 5), (4, 5), (5, 1)]  # over-fetched
        self.assertIsNone(compare_rows([(1, 9), (4, 5)], expected, order=(1,), limit=2))
        self.assertIsNotNone(compare_rows([(1, 9), (6, 5)], expected, order=(1,), limit=2))
        self.assertIsNotNone(compare_rows([(1, 9)], expected, order=(1,), limit=2))


class OracleChecks(unittest.TestCase):
    def setUp(self):
        from repro.minidb import Database

        db = Database()
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT, s TEXT)")
        for i in range(1, 21):
            session.execute(f"INSERT INTO t VALUES ({i}, {i * 1.5}, 'row {i}')")
        self.copy = SqliteCopy()
        self.copy.load_table(db.catalog.table("t"), (row for _, row in db.heap("t").rows()))
        self.session = session

    def tearDown(self):
        self.copy.close()

    def record(self, sql, expect):
        from repro.mcp import ToolCall, ToolResult

        result = self.session.execute(sql)
        tool_result = ToolResult.ok("", rows=result.rows, columns=result.columns)

        class Rec:
            pass

        rec = Rec()
        rec.expect, rec.result, rec.call = expect, tool_result, ToolCall("select", {"sql": sql})
        return rec

    def test_minidb_agrees_with_sqlite(self):
        oracle = Oracle(self.copy)
        sql = "SELECT id, v FROM t WHERE v > 10 ORDER BY v DESC LIMIT 3"
        rec = self.record(sql, Expect("sql", sql=sql.replace("LIMIT 3", "LIMIT 67"), order=(1,), limit=3))
        self.assertIsNone(oracle.check(rec))

    def test_planted_wrong_row_is_caught(self):
        oracle = Oracle(self.copy)
        sql = "SELECT * FROM t WHERE id BETWEEN 3 AND 6"
        rec = self.record(sql, Expect("sql", sql=sql))
        self.assertIsNone(oracle.self_test([rec]))

    def test_value_ranking_matches_brute_force(self):
        from repro.core.similarity import top_k

        oracle = Oracle(self.copy)
        ranking = oracle.ranking("t", "s", "row 7", 3)
        values = [f"row {i}" for i in range(1, 21)]
        self.assertEqual(ranking, top_k("row 7", values, 3))


class ShadowModel(unittest.TestCase):
    def test_lost_commits_and_surviving_rollbacks_show(self):
        shadow = Shadow()
        shadow.tables["t"] = {1: (1, "a")}
        shadow.apply("t", 2, (2, "b"))  # an acknowledged insert
        shadow.apply("t", 1, None)  # an acknowledged delete
        self.assertEqual(shadow.diff("t", {2: (2, "b")}), [])
        self.assertEqual(len(shadow.diff("t", {})), 1)  # commit lost
        self.assertEqual(len(shadow.diff("t", {2: (2, "b"), 3: (3, "c")})), 1)  # rolled back, present
        self.assertEqual(len(shadow.diff("t", {2: (2, "x")})), 1)  # wrong row


class OrderKeys(unittest.TestCase):
    def test_keys_map_to_select_positions(self):
        from workloads import order_keys

        self.assertEqual(order_keys("SELECT a, b FROM t"), ((), None))
        self.assertEqual(order_keys("SELECT a, b FROM t ORDER BY b DESC LIMIT 5"), ((1,), 5))
        self.assertEqual(
            order_keys("SELECT c.d, COUNT(*) AS n FROM c GROUP BY c.d ORDER BY n DESC"), ((1,), None)
        )
        with self.assertRaises(ValueError):
            order_keys("SELECT a FROM t ORDER BY z")


class WindowTally(unittest.TestCase):
    def test_sub_windows_add_up(self):
        from harness import Record, Tally, Window
        from oracle import Expect
        from repro.mcp import ToolCall, ToolResult

        def rec(tool, start, end, tag="", error=False, sql="x"):
            result = ToolResult(content="e", is_error=True) if error else ToolResult.ok("abcd")
            return Record("c", ToolCall(tool, {"sql": sql}), Expect("ok", tag=tag), result, start, end)

        first = [rec("begin", 0.0, 0.1), rec("insert", 0.1, 0.2, sql="12345"),
                 rec("select", 0.2, 0.3, tag="point"), rec("commit", 0.3, 0.5)]
        second = [rec("begin", 0.0, 0.1), rec("delete", 0.1, 0.2, sql="123"),
                  rec("rollback", 0.2, 0.3), rec("select", 0.3, 0.4, tag="point", error=True)]
        tally = Tally()
        tally.add(Window(first, 0.0, 0.5, 1, {"fs_bytes_written": 40}), tokens=lambda r: 2)
        tally.add(Window(second, 0.0, 0.5, 1, {"fs_bytes_written": 10}), tokens=lambda r: 2)
        m = tally.metrics()
        self.assertEqual((tally.calls, tally.tasks), (8, 2))
        self.assertAlmostEqual(m["calls_per_s"], 8.0)
        self.assertAlmostEqual(m["result_tokens_per_call"], 2.0)
        self.assertAlmostEqual(m["point_select_p50_ms"], 100.0)  # the failed select is not a point
        self.assertAlmostEqual(m["txn_p50_ms"], 500.0)  # begin submit to commit done; rollback is none
        self.assertAlmostEqual(m["commits_per_s"], 1.0)
        self.assertAlmostEqual(m["write_amplification"], 50 / 5)  # committed DML bytes only
        self.assertNotIn("proxy_rows_per_s", m)

    def test_rates_are_scaled_to_the_reference_speed(self):
        from harness import Tally, Window

        tally = Tally()
        # 0.5 s of wall time: 0.4 s on the CPU, 0.05 s stolen, 0.05 s waiting
        part = Window([], 0.0, 0.5, 0, {"n": 1}, cpu_seconds=0.4, steal_seconds=0.05)
        merged = Window.merge([part, part])
        self.assertEqual((merged.seconds, merged.cpu_seconds, merged.counters), (1.0, 0.8, {"n": 2}))
        for _ in range(2):
            tally.add(part, tokens=lambda r: 0)
        tally.calls = 17
        m = tally.metrics(speed=2.0, reference=1.0)  # the machine ran twice as fast
        self.assertAlmostEqual(m["calls_per_s_wall"], 17.0)
        self.assertAlmostEqual(m["calls_per_s"], 17 / (2 * (0.05 + 0.4 * 2.0)))
        self.assertAlmostEqual(measure.reference_seconds(1.0, 0.6, 0.1, 1.0, 1.0), 1.0 - 0.1)

    def test_probe_leaves_the_collector_as_it_was(self):
        import gc

        speedometer = measure.Speedometer()
        speedometer.probe(0.01)
        self.assertTrue(gc.isenabled())
        self.assertGreater(speedometer.units, 0)
        self.assertGreater(speedometer.speed, 0.0)


class AgentMix(unittest.TestCase):
    def test_agent_oltp_shares_match_the_simulated_agents(self):
        from agent_mix import measure_mix
        from workloads import AGENT_MIX

        measured = measure_mix()["agent_oltp_shares"]
        for key, share in AGENT_MIX.items():
            self.assertAlmostEqual(share, measured[key], delta=0.01, msg=key)


class ByteCounting(unittest.TestCase):
    def test_counts_text_and_binary_writes(self):
        from harness import CountingFilesystem

        fs = CountingFilesystem()
        with tempfile.TemporaryDirectory() as tmp:
            fh = fs.open(os.path.join(tmp, "a"), "w", encoding="utf-8")
            fh.write("héllo")
            fs.fsync(fh)
            fh.close()
            with fs.open(os.path.join(tmp, "a"), "r", encoding="utf-8") as reader:
                self.assertEqual(reader.read(), "héllo")
        self.assertEqual(fs.bytes_written, len("héllo".encode("utf-8")))
        self.assertEqual(fs.fsyncs, 1)


if __name__ == "__main__":
    unittest.main(verbosity=1)
