"""Tests of the benchmark's own logic (no build needed):

  python3 -m unittest discover -s rbbench
"""

import json
import math
import unittest
from pathlib import Path

import ab
import loadgen
import run
import stats


class HarrellDavis(unittest.TestCase):
    def test_median_of_symmetric_and_constant_samples(self):
        self.assertAlmostEqual(stats.hd_quantile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(stats.hd_quantile([7.0] * 24, 0.5), 7.0)
        self.assertEqual(stats.hd_quantile([4.0], 0.5), 4.0)

    def test_one_sample_moves_it_less_than_the_nearest_rank(self):
        # Two runs that differ only in the job at the median, 40% slower
        # in the second, with sparse samples around it.
        xs = [10.0] * 8 + [300.0, 400.0, 500.0, 600.0] + [
            1000.0 + 200 * i for i in range(12)]
        ys = list(xs)
        ys[11] *= 1.4
        rank = stats.percentile(ys, 50) / stats.percentile(xs, 50)
        hd = stats.hd_quantile(ys, 0.5) / stats.hd_quantile(xs, 0.5)
        self.assertAlmostEqual(rank, 1.4)
        self.assertLess(hd, 1.1)
        # Evenly spaced samples: the midpoint of the middle pair.
        self.assertAlmostEqual(stats.hd_quantile(
            [100.0 * i for i in range(1, 25)], 0.5), 1250.0, delta=1.0)

    def test_failures_count_as_infinitely_late(self):
        xs = [100.0] * 23 + [float("inf")]
        self.assertEqual(stats.hd_quantile(xs, 0.5), float("inf"))


class TailRule(unittest.TestCase):
    def test_eleventh_largest_of_many(self):
        xs = list(range(1, 1001))  # 1..1000
        value, pct, n = stats.tail(xs)
        self.assertEqual((value, n), (990, 1000))
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual(stats.percentile(xs, 99), 990)

    def test_small_sample_percentile_is_lower(self):
        xs = [float(x) for x in range(30)]
        value, pct, _ = stats.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_too_few_samples_reports_max(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))

    def test_p99_beyond_count(self):
        _, beyond = stats.p99(list(range(999)))
        self.assertLess(beyond, 10)
        _, beyond = stats.p99(list(range(1000)))
        self.assertEqual(beyond, 10)

    def test_quartile_spread(self):
        med, q1, q3, spread = stats.quartile_spread([10, 11, 12, 13, 14])
        self.assertEqual(med, 12)
        self.assertAlmostEqual(spread, (q3 - q1) / 12)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeServer:
    """Answers each request `service_s` after it arrives, but not before
    `stall_until`; sending costs the generator `send_cost_s`."""

    def __init__(self, clock, service_s, stall_until=0.0, send_cost_s=0.0,
                 reply=None):
        self.clock = clock
        self.service_s = service_s
        self.stall_until = stall_until
        self.send_cost_s = send_cost_s
        self.reply = reply or (lambda rid: {"id": rid, "ok": True})
        self.pending = []

    def send(self, line):
        rid = json.loads(line)["id"]
        ready = max(self.clock.t, self.stall_until) + self.service_s
        self.pending.append((ready, rid))
        self.clock.t += self.send_cost_s

    def poll(self, timeout):
        if not self.pending:
            self.clock.t += timeout
            return []
        first = min(r for r, _ in self.pending)
        if first > self.clock.t + timeout:
            self.clock.t += timeout
            return []
        self.clock.t = max(self.clock.t, first)
        out = [json.dumps(self.reply(rid)) for r, rid in self.pending
               if r <= self.clock.t]
        self.pending = [p for p in self.pending if p[0] > self.clock.t]
        return out


def schedule(dues):
    return [loadgen.Request("r%d" % i, {"workload": "gcc"}, d)
            for i, d in enumerate(dues)]


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time_through_a_stall(self):
        clock = FakeClock()
        srv = FakeServer(clock, service_s=0.01, stall_until=1.0)
        res = loadgen.run_open_loop(srv, schedule([0.1, 0.5, 2.0]),
                                    clock=clock)
        lat = stats.latencies_from_due(res["due"], res["done"])
        # The two requests due during the stall wait for it from their
        # due time; the one after it sees only the service time.
        self.assertAlmostEqual(lat[0], 910.0, places=6)
        self.assertAlmostEqual(lat[1], 510.0, places=6)
        self.assertAlmostEqual(lat[2], 10.0, places=6)
        self.assertEqual(stats.generator_lag(res["due"], res["sent"]),
                         [0.0, 0.0, 0.0])

    def test_generator_lag_is_charged_to_latency(self):
        clock = FakeClock()
        srv = FakeServer(clock, service_s=0.001, send_cost_s=0.05)
        res = loadgen.run_open_loop(srv, schedule([0.0, 0.01, 0.02]),
                                    clock=clock)
        lag = stats.generator_lag(res["due"], res["sent"])
        self.assertAlmostEqual(lag[0], 0.0)
        self.assertAlmostEqual(lag[1], 40.0)
        self.assertAlmostEqual(lag[2], 80.0)
        lat = stats.latencies_from_due(res["due"], res["done"])
        for lg, lt in zip(lag, lat):
            self.assertGreaterEqual(lt, lg)

    def test_repeat_is_held_until_its_original_is_answered(self):
        clock = FakeClock()
        srv = FakeServer(clock, service_s=1.0)
        reqs = schedule([0.0, 0.2])
        reqs[1].after = 0
        res = loadgen.run_open_loop(srv, reqs, clock=clock)
        self.assertEqual(res["held"], [False, True])
        self.assertAlmostEqual(res["sent"][1], 1.0)
        # Its latency runs from its due time, through the hold.
        lat = stats.latencies_from_due(res["due"], res["done"])
        self.assertAlmostEqual(lat[1], 1800.0, places=6)

    def test_late_request_stops_later_rungs(self):
        clock = FakeClock()
        srv = FakeServer(clock, service_s=0.05, stall_until=1.0)
        reqs = [loadgen.Request("r%d" % i, {}, 0.25 * i, rung=i // 2)
                for i in range(8)]
        res = loadgen.run_open_loop(srv, reqs, clock=clock, late_s=0.3)
        # r0 (rung 0) is still unanswered 0.3 s after its due time, when
        # rung 0 is still being sent: rung 0 finishes, rung 1 never starts.
        self.assertEqual([s is not None for s in res["sent"]],
                         [True, True] + [False] * 6)
        self.assertTrue(all(r is not None for r in res["responses"][:2]))

    def test_spans_are_recorded_while_the_phase_runs(self):
        clock = FakeClock()
        reply = lambda rid: {"id": rid, "ok": True,  # noqa: E731
                             "host_ms": 4.0,
                             "stats": {"counters": {"core.retired": 9}}}
        srv = FakeServer(clock, service_s=0.01, reply=reply)
        spans = []
        loadgen.run_open_loop(srv, schedule([0.0, 0.5]), clock=clock,
                              spans=spans)
        self.assertEqual([s["name"] for s in spans],
                         ["loadgen.request", "server.roundtrip",
                          "service.job"] * 2)
        self.assertEqual([s["parent"] for s in spans[3:]], [-1, 3, 4])
        self.assertAlmostEqual(spans[5]["t1"] - spans[5]["t0"], 0.004)
        self.assertEqual(spans[5]["count"], 9)

    def test_missing_response_is_reported_as_none(self):
        clock = FakeClock()
        srv = FakeServer(clock, service_s=100.0)
        res = loadgen.run_open_loop(srv, schedule([0.0]), clock=clock,
                                    drain_s=1.0)
        self.assertIsNone(res["responses"][0])
        self.assertIsNone(res["done"][0])


class Failures(unittest.TestCase):
    def responses(self):
        return [{"ok": True}, {"ok": False, "code": "duplicate-in-flight"},
                {"ok": False, "code": "sim-aborted"},
                {"ok": False, "code": "sim-failed"}, None]

    def test_refusals_and_aborts_are_failures(self):
        c = stats.outcome_counts([r or {"ok": False}
                                  for r in self.responses()])
        self.assertEqual(c, {"attempted": 5, "ok": 1, "failed": 4,
                             "refused": 1, "aborted": 1})

    def test_failed_requests_miss_every_latency_limit(self):
        resp = self.responses()
        res = {"due": [0.0] * 5, "sent": [0.0] * 5,
               "done": [0.01, 0.01, 0.01, 0.01, None],
               "responses": [dict(r, stats={"counters": {}}) if r else None
                             for r in resp], "end": 0.02}
        fig = run.phase_figures(res)
        self.assertEqual(fig["lat_limited"][0], 10.0)
        self.assertTrue(all(math.isinf(x) for x in fig["lat_limited"][1:]))
        reqs = [loadgen.Request("r%d" % i, {}, 0.0, rung=0)
                for i in range(5)]
        (_, p99, ok), = run.ladder_rungs(reqs, res, 1.0, limit_ms=1e9)
        self.assertFalse(ok)
        self.assertTrue(math.isinf(p99))


class Ladder(unittest.TestCase):
    def test_interpolates_between_pass_and_miss(self):
        rungs = [(100.0, 50.0, True), (150.0, 250.0, False)]
        self.assertAlmostEqual(run.ladder_rate(rungs, 150.0), 125.0)

    def test_first_rung_miss_interpolates_from_zero(self):
        self.assertAlmostEqual(
            run.ladder_rate([(100.0, 300.0, False)], 150.0), 50.0)
        self.assertEqual(
            run.ladder_rate([(100.0, math.inf, False)], 150.0), 0.0)

    def test_backlog_miss_keeps_last_pass(self):
        rungs = [(100.0, 50.0, True), (150.0, 90.0, False)]
        self.assertEqual(run.ladder_rate(rungs, 150.0), 100.0)

    def test_all_pass(self):
        self.assertEqual(run.ladder_rate([(100.0, 5.0, True),
                                          (150.0, 6.0, True)], 150.0), 150.0)

    def test_rungs_stop_at_the_first_miss(self):
        # Two requests a rung; rung 1's second answer is 2 s late.
        reqs = [loadgen.Request("r%d" % i, {}, 0.5 * i, rung=i // 2)
                for i in range(6)]
        res = {"due": [r.due for r in reqs],
               "done": [0.1, 0.6, 1.1, 3.5, 2.1, 2.6],
               "responses": [{"ok": True}] * 6}
        rungs = run.ladder_rungs(reqs, res, 1.0, limit_ms=1000.0)
        self.assertEqual([(r, ok) for r, _, ok in rungs],
                         [(run.LADDER[0], True), (run.LADDER[1], False)])
        self.assertAlmostEqual(rungs[1][1], 2000.0)

    def test_backlog_past_the_rung_end_misses(self):
        # Each answer is within the limit of its due time, but the
        # rung's last answer comes later than the limit after its end.
        reqs = [loadgen.Request("r0", {}, 0.9, rung=0)]
        res = {"due": [0.9], "done": [1.85], "responses": [{"ok": True}]}
        (_, _, ok), = run.ladder_rungs(reqs, res, 1.0, limit_ms=1000.0)
        self.assertTrue(ok)
        res["done"] = [1.85]
        (_, _, ok), = run.ladder_rungs(reqs, res, 0.5, limit_ms=1000.0)
        self.assertFalse(ok)


class Digest(unittest.TestCase):
    snap = {"counters": {"core.cycles": 10, "core.retired": 7},
            "vectors": {"core.hist": [1, 2, 3]}}

    def test_stable_under_key_order(self):
        shuffled = {"vectors": {"core.hist": [1, 2, 3]},
                    "counters": {"core.retired": 7, "core.cycles": 10}}
        self.assertEqual(stats.digest(self.snap), stats.digest(shuffled))
        self.assertEqual(stats.digest(self.snap),
                         stats.digest(json.loads(json.dumps(self.snap))))

    def test_any_count_changes_it(self):
        other = json.loads(json.dumps(self.snap))
        other["counters"]["core.retired"] = 8
        self.assertNotEqual(stats.digest(self.snap), stats.digest(other))
        other = json.loads(json.dumps(self.snap))
        other["vectors"]["core.hist"][2] = 4
        self.assertNotEqual(stats.digest(self.snap), stats.digest(other))

    def test_merge_is_order_independent(self):
        a = {"counters": {"x": 1}, "vectors": {"v": [1, 0]}}
        b = {"counters": {"x": 2, "y": 5}, "vectors": {"v": [0, 1, 1]}}
        self.assertEqual(stats.digest(stats.merge_stats([a, b])),
                         stats.digest(stats.merge_stats([b, a])))
        self.assertEqual(stats.merge_stats([a, b])["vectors"]["v"],
                         [1, 1, 1])


class SelfTime(unittest.TestCase):
    def test_children_and_overlap(self):
        spans = [
            {"name": "batch", "t0": 0.0, "t1": 10.0, "parent": -1},
            {"name": "job", "t0": 1.0, "t1": 4.0, "parent": 0},
            {"name": "job", "t0": 3.0, "t1": 6.0, "parent": 0},
            {"name": "run", "t0": 2.0, "t1": 4.0, "parent": 1},
        ]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st["batch"], 10.0 - 5.0)  # union [1, 6]
        self.assertAlmostEqual(st["job"], (3.0 - 2.0) + 3.0)
        self.assertAlmostEqual(st["run"], 2.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [{"name": "a", "t0": 0.0, "t1": 1.0, "parent": -1},
                 {"name": "b", "t0": 0.5, "t1": 3.0, "parent": 0}]
        self.assertAlmostEqual(stats.self_times(spans)["a"], 0.5)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = loadgen.make_requests(5, 4.0, 20.0)
        b = loadgen.make_requests(5, 4.0, 20.0)
        self.assertEqual([(r.line(), r.due, r.after) for r in a],
                         [(r.line(), r.due, r.after) for r in b])
        c = loadgen.make_requests(6, 4.0, 20.0)
        self.assertNotEqual([r.line() for r in a], [r.line() for r in c])

    def session(self, seed):
        mix = loadgen.Mix(seed)
        return (mix.phase([(1.75, 14.0)], (loadgen.REFERENCE,)) +
                mix.phase([(8.0, 10.0)], (1, 2, 3, 4)))

    def test_mix_holds_each_kind_in_its_share(self):
        for seed in (1, 2, 3):
            reqs = self.session(seed)
            seen, kinds = set(), {"cell": 0, "repeat": 0, "budget": 0,
                                  "sample": 0}
            for r in reqs:
                if "sample" in r.body:
                    kinds["sample"] += 1
                elif "max_insts" in r.body:
                    kinds["budget"] += 1
                elif r.key in seen:
                    kinds["repeat"] += 1
                else:
                    kinds["cell"] += 1
                    # A grid cell is a full-length run at scale 1.
                    self.assertEqual(sorted(r.body),
                                     ["machine", "width", "workload"])
                seen.add(r.key)
            n = len(reqs)
            self.assertEqual(n, round(1.75 * 14) + 8 * 10)
            self.assertAlmostEqual(kinds["sample"] / n,
                                   1 / loadgen.SAMPLE_EVERY, delta=0.01)
            self.assertAlmostEqual(kinds["budget"] / n,
                                   loadgen.BUDGET_SHARE, delta=0.03)
            # Early repeat slots find nothing old enough and take a cell.
            self.assertAlmostEqual(kinds["repeat"] / n,
                                   loadgen.REPEAT_SHARE, delta=0.06)

    def test_reference_phase_submits_half_the_fig12_grid(self):
        for seed in (1, 2, 3):
            reqs = loadgen.make_requests(seed, 1.75, 14.0)
            cells = {r.key for r in reqs if r.after is None and
                     "max_insts" not in r.body and "sample" not in r.body}
            fig12 = {json.dumps({"workload": p, "machine": m, "width": 4},
                                sort_keys=True)
                     for p in loadgen.SPEC95 for m in ("base", "rbfull")}
            # Nearly the whole grid (how many slots draw a repeat varies
            # with the seed), and nothing from another.
            self.assertLessEqual(cells, fig12)
            self.assertGreaterEqual(len(cells), len(fig12) - 4)

    def test_repeats_are_spaced_and_follow_their_original(self):
        mix = loadgen.Mix(1)
        first = mix.phase([(4.0, 8.0)], (loadgen.REFERENCE,))
        second = mix.phase([(4.0, 8.0)], (1,))
        repeats = 0
        for phase in (first, second):
            last = {}
            for r in phase:
                if r.after is not None:
                    repeats += 1
                    orig = phase[r.after]
                    self.assertEqual(orig.key, r.key)
                    self.assertGreaterEqual(r.due - orig.due,
                                            loadgen.REPEAT_AGE_S)
                if r.key in last:
                    self.assertGreaterEqual(r.due - last[r.key],
                                            loadgen.REPEAT_AGE_S)
                last[r.key] = r.due
        # The second phase also repeats cells of the first, unheld.
        firsts = {r.key for r in first}
        self.assertTrue(any(r.after is None and r.key in firsts
                            for r in second))
        self.assertGreater(repeats, 0)


    def test_no_unheld_duplicate_within_a_phase(self):
        # The server refuses a copy of a job still in flight; a ladder
        # answer can take longer than REPEAT_AGE_S, so the only repeats
        # inside a phase are the held ones. Seed 1922190958 once drew
        # the same budgeted request twice 3.3 s apart in the ladder.
        for seed in [1922190958] + list(range(40)):
            mix = loadgen.Mix(seed)
            ref = mix.phase([(run.REF_RATE, 14.0)], (loadgen.REFERENCE,))
            ladder = mix.phase([(r, 1.5) for r in run.LADDER],
                               (1, 2, 3, 4))
            # The reference phase has drained: its answers are cached.
            answered = {r.key for r in ref}
            seen = set()
            for r in ladder:
                if r.key in seen and r.key not in answered:
                    self.assertIsNotNone(r.after, (seed, r.key))
                seen.add(r.key)


class Verdicts(unittest.TestCase):
    def test_gain_needs_nine_in_ten_wins_beyond_the_spread(self):
        a = [100.0 + i for i in range(10)]
        b = [x + 20 for x in a]
        self.assertEqual(ab.verdict(a, b, "higher", 0.25)["verdict"], "gain")
        b[0] = a[0] - 1
        b[1] = a[1] - 1
        self.assertNotEqual(ab.verdict(a, b, "higher", 0.25)["verdict"],
                            "gain")

    def test_regression_beyond_the_bound(self):
        a = [100.0] * 10
        b = [80.0] * 10
        v = ab.verdict(a, b, "higher", 0.1)
        self.assertEqual((v["verdict"], v["win_frac"]), ("regression", 0.0))
        self.assertEqual(ab.verdict(a, [120.0] * 10, "lower", 0.1)["verdict"],
                         "regression")

    def test_wide_spread_is_unresolved(self):
        a = [60.0, 140.0] * 5
        b = [140.0, 60.0] * 5
        self.assertEqual(ab.verdict(a, b, "higher", 0.1)["verdict"],
                         "unresolved")
        self.assertEqual(ab.verdict([100.0] * 10, [101.0] * 10, "higher",
                                    0.1)["verdict"], "gain")

    def test_no_gain_from_fewer_than_ten_pairs(self):
        self.assertEqual(ab.verdict([100.0] * 9, [150.0] * 9, "higher",
                                    0.1)["verdict"], "same")


class MetricsCoverBenchmarkJson(unittest.TestCase):
    """Every metric BENCHMARK.json names is produced from harness output."""

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

    def raw(self):
        job = {"traced": False, "wall_s": 2.0, "cpu_s": 7.0,
               "detailed_insts": 1e6, "covered_insts": 2e6, "jobs": 4,
               "workers": 4, "warm_simulators": 4, "cache_hits": 0,
               "cache_misses": 4, "latency_ms": [500, 900, 1500, 2000],
               "host_ms": [400, 800, 1000, 1500]}
        probes = {k: 1.0 for k in run.PER_LAYER_FROM_PROBES}
        probes["sim.sampling_window_ms"] = [float(x) for x in range(30)]
        return {"setups": [{"total_s": 0.01, "workloads.build_ms": 1.0,
                            "func.decode_ms": 1.0, "sim.construct_ms": 1.0}],
                "passes": [job, dict(job, traced=True, wall_s=2.2)],
                "peak_rss_mb": 50.0, "probes": probes,
                "stats": {"counters": {"core.cycles": 100,
                                       "core.retired": 50,
                                       "core.dispatched": 60},
                          "vectors": {}}}

    def test_closed_end_to_end(self):
        m = run.closed_end_to_end(self.raw())
        for e in self.spec["end_to_end"]:
            self.assertIn(e["name"], m)
            self.assertGreater(m[e["name"]], 0, e["name"])
        # Rates are over the passes together: 1e6 instructions in 2.0 s
        # and in 2.2 s; latencies are the median over passes.
        self.assertAlmostEqual(m["detailed_kips"], 2e6 / 4.2 / 1e3)
        self.assertAlmostEqual(m["max_rate_jps"], 8 / 4.2)
        self.assertEqual(m["latency_p50_ms"], 900)

    def test_closed_per_layer(self):
        m = run.closed_per_layer(self.raw())
        for e in self.spec["per_layer"]:
            self.assertIn(e["name"], m)
        self.assertAlmostEqual(m["trace_overhead_ratio"], 0.1)
        self.assertAlmostEqual(m["service.busy_ratio"],
                               (7.0 / 8 + 7.0 / 8.8) / 2)

    def test_spec_shape(self):
        self.assertEqual(sorted(self.spec), ["command", "end_to_end",
                                             "paths", "per_layer",
                                             "run_seconds", "workloads"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.CLOSED) + [run.SERVE])
        setup = [m for m in self.spec["end_to_end"]
                 if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
