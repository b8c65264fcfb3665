#!/usr/bin/env python3
"""The rbsim benchmark: one command that builds rbsim from source, runs
one workload, checks its outputs and prints every metric with its unit.

  python3 rbbench/run.py --workload paper-grid --seed 1 --seconds 20 \\
      --trace 0

Workloads (README.md says why each exists): paper-grid, gen-grid,
sampled-campaign, serve-openloop. With --trace 0 the last line of
standard output is one JSON object holding the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured
in a separate traced run. The exit code is 0 only when the benchmark
ran; a failed correctness check sets "correct": false.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; --build-dir points at another build (rbbench/ab.py).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import stats  # noqa: E402

CLOSED = ("paper-grid", "gen-grid", "sampled-campaign")
SERVE = "serve-openloop"
SETUP_REPS = 25          # set-ups per served run (closed: in the harness)
REF_RATE = 1.75          # requests/s of the served reference phase
LADDER = (6.0, 8.0, 10.5, 14.0, 18.0)  # requests/s


def log(*parts):
    print("rbbench:", *parts, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ------------------------------------------------------------- build

def default_build_dir():
    p = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return p if p.is_absolute() else ROOT / p


def build(bdir):
    """Configure once, then build the harness and the server (a no-op
    when up to date). Build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    "rbbench-harness", "rbsim-serve"],
                   stdout=sys.stderr, check=True)


def binaries(bdir):
    return bdir / "rbbench-harness", bdir / "rbsim" / "src" / "rbsim-serve"


# --------------------------------------------------- self-description

def source_root(bdir):
    """The checkout a build directory was configured from."""
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return Path(line.split("=", 1)[1]).parent
    except OSError:
        pass
    return ROOT


def source_digest(root):
    """Digest of the sources the benchmark builds, so a result names
    its code even outside a git checkout."""
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt", "rbbench"):
        p = root / base
        files = sorted(p.rglob("*")) if p.is_dir() else [p]
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_describe(root):
    try:
        r = subprocess.run(["git", "-C", str(root), "describe", "--always",
                            "--dirty"], capture_output=True, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def describe(bdir, seed, workers):
    harness, _ = binaries(bdir)
    out = subprocess.run([str(harness), "describe"], capture_output=True,
                         text=True, check=True)
    d = json.loads(out.stdout)
    root = source_root(bdir)
    d.update(git=git_describe(root), source=source_digest(root),
             cpu=cpu_model(), nproc=os.cpu_count(), workers=workers,
             seed=seed)
    return d


# ---------------------------------------------------- closed workloads

def run_harness(harness, args, stdin_text=None, timeout=170):
    r = subprocess.run([str(harness)] + args, input=stdin_text,
                       capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError("harness failed: " + r.stderr.strip())
    return json.loads(r.stdout.splitlines()[-1])


def setup_parts(setups):
    return {k: statistics.median(s[k] for s in setups)
            for k in ("workloads.build_ms", "func.decode_ms",
                      "sim.construct_ms")}


def closed_end_to_end(raw):
    """End-to-end metrics of a closed workload (README.md defines them
    per workload): the rates over all passes of the run together, and
    the latencies and CPU time as the median over passes."""
    ps = raw["passes"]
    wall = sum(p["wall_s"] for p in ps)
    m = {
        "detailed_kips": sum(p["detailed_insts"] for p in ps) / wall / 1e3,
        "campaign_mips": sum(p["covered_insts"] for p in ps) / wall / 1e6,
        "max_rate_jps": sum(p["jobs"] for p in ps) / wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in ps),
        "setup_s": statistics.median(s["total_s"] for s in raw["setups"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for name, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        m[name] = statistics.median(stats.percentile(p["latency_ms"], q)
                                    for p in ps)
    return m


def service_layers(jobs_ms, waits_ms, busy):
    out = {}
    for name, xs in (("service.job_ms", jobs_ms),
                     ("service.queue_wait_ms", waits_ms)):
        out[name + ".p50"] = stats.percentile(xs, 50) if xs else 0.0
        out[name + ".tail"] = stats.tail(xs)[0]
    out["service.busy_ratio"] = busy
    return out


PER_LAYER_FROM_PROBES = (
    "sim.run_ns_per_inst", "sim.run_ns_per_cycle", "sim.cosim_ns_per_inst",
    "func.step_ns_per_inst", "sim.trace_ring_ns_per_inst",
    "func.runfast_mips", "sim.fastfwd_mips", "sim.fastfwd_warm_ratio",
    "sim.checkpoint_capture_ms", "sim.sampling_collect_s",
    "sim.checkpoint_bytes", "rb.add_mops", "protocol.parse_us",
    "protocol.format_us")


def probe_layers(probes):
    """Per-layer metrics the harness's single-thread probes measure."""
    m = {k: probes[k] for k in PER_LAYER_FROM_PROBES}
    win = probes["sim.sampling_window_ms"]
    m["sim.sampling_window_ms.p50"] = stats.percentile(win, 50)
    m["sim.sampling_window_ms.tail"] = stats.tail(win)[0]
    return m


def closed_per_layer(raw):
    m = setup_parts(raw["setups"])
    m.update(probe_layers(raw["probes"]))
    jobs, waits, busy = [], [], []
    for p in raw["passes"]:
        jobs += p["host_ms"]
        # Only a traced pass times each job's completion; an untraced
        # grid pass gets every result back when its batch returns.
        if p["traced"]:
            waits += [l - h for l, h in zip(p["latency_ms"], p["host_ms"])]
        # Process CPU time, not the jobs' host time: a campaign's window
        # jobs run inside serve::runSampled, out of the benchmark's view.
        busy.append(p["cpu_s"] / (p["workers"] * p["wall_s"]))
    m.update(service_layers(jobs, waits, statistics.median(busy)))
    hits = sum(p["cache_hits"] for p in raw["passes"])
    looked = hits + sum(p["cache_misses"] for p in raw["passes"])
    m["service.cache_hit_ratio"] = hits / looked if looked else 0.0
    m["service.warm_simulators"] = float(
        max(p["warm_simulators"] for p in raw["passes"]))
    # Layers a closed workload does not pass through contribute nothing.
    m.update({"server.overhead_ms.p50": 0.0, "server.overhead_ms.tail": 0.0,
              "server.refused_ratio": 0.0, "loadgen.lag_ms.tail": 0.0})
    m.update(stats.model_counts(raw["stats"]))
    walls = {True: [], False: []}
    for p in raw["passes"]:
        walls[p["traced"]].append(p["wall_s"])
    m["trace_overhead_ratio"] = (statistics.median(walls[True]) /
                                 statistics.median(walls[False]) - 1.0)
    return m


def run_closed(workload, harness, seed, seconds, trace):
    raw = run_harness(harness, [workload, "--seed", str(seed), "--seconds",
                              str(seconds), "--trace", str(trace)])
    return {
        "metrics": (closed_per_layer(raw) if trace
                    else closed_end_to_end(raw)),
        "attempted": raw["attempted"], "failed": raw["failed"],
        "errors": raw["errors"], "digest": stats.digest(raw["stats"]),
        "spans": raw["spans"], "workers": raw["passes"][0]["workers"],
        "notes": ["%d passes of %d jobs" % (len(raw["passes"]),
                                             raw["passes"][0]["jobs"])],
        "tails": tail_notes(raw) if trace else [],
    }


def tail_notes(raw):
    jobs = [x for p in raw["passes"] for x in p["host_ms"]]
    win = raw["probes"]["sim.sampling_window_ms"]
    return [tail_note("service.job_ms", jobs),
            tail_note("sim.sampling_window_ms", win)]


def tail_note(name, xs):
    v, pct, n = stats.tail(xs)
    if n <= 10:
        return "%s.tail = max of %d samples (too few for a tail)" % (name, n)
    return "%s.tail = p%.1f of %d samples" % (name, pct, n)


# ------------------------------------------------------ served workload

def start_server(server_bin):
    return loadgen.ServeProcess(str(server_bin), str(ROOT))


def serve_phase(server_bin, seed, duration, spans=None):
    """One open-loop phase at the reference rate on a fresh server with
    default flags; with a `spans` list, spans are recorded while it
    runs."""
    reqs = loadgen.make_requests(seed, REF_RATE, duration)
    srv = start_server(server_bin)
    try:
        res = loadgen.run_open_loop(srv, reqs, spans=spans)
        res["warm_simulators"] = srv.close()
    except BaseException:
        srv.kill()
        raise
    res["requests"] = reqs
    res["workers"] = srv.workers
    return res


def phase_figures(res):
    """Latency, outcome and throughput figures of one phase."""
    resp = res["responses"]
    answered = [r if r is not None else {"ok": False, "code": "no-response"}
                for r in resp]
    counts = stats.outcome_counts(answered)
    lat = stats.latencies_from_due(res["due"], res["done"])
    detailed = covered = 0
    for r in resp:
        if r is None or not r.get("ok") or r.get("cache_hit"):
            continue
        retired = r["stats"]["counters"].get("core.retired", 0)
        detailed += retired
        covered += r.get("ff_insts", retired)
    return {"counts": counts, "lat": lat,
            "lat_limited": limited_latencies(res),
            "detailed": detailed, "covered": covered,
            "span": max(res["end"], 1e-9)}


def limited_latencies(res):
    """Latency from due time of each request, in ms; a request that was
    not answered `ok` misses any latency limit, so it counts as
    infinitely late."""
    return [(d1 - d0) * 1e3 if r is not None and r.get("ok") and
            d1 is not None else float("inf")
            for d0, d1, r in zip(res["due"], res["done"], res["responses"])]


def ladder_rungs(requests, res, rung_s, limit_ms):
    """(rate, p99_ms, passed) of each ladder rung in order, up to the
    first that misses. A rung passes when the p99 latency of its
    requests (failures count as infinitely late) meets the limit and
    the backlog did not grow: its last answer came within the limit of
    the rung's end."""
    lat = limited_latencies(res)
    rungs = []
    for k, rate in enumerate(LADDER):
        mine = [j for j, r in enumerate(requests) if r.rung == k]
        if not mine:
            continue
        t = stats.p99([lat[j] for j in mine])[0]
        last = max(res["done"][j] if res["done"][j] is not None
                   else float("inf") for j in mine)
        ok = t <= limit_ms and last <= (k + 1) * rung_s + limit_ms / 1e3
        rungs.append((rate, t, ok))
        if not ok:
            break
    return rungs


def ladder_rate(rungs, limit_ms):
    """Highest ladder rate that meets the latency limit. `rungs` holds
    (rate, p99_ms, passed) in ladder order up to the first miss. When
    that miss is on latency, the rate is interpolated on the p99
    latency between the last rung that passed (or rate 0, latency 0)
    and it, so the figure moves smoothly with capacity."""
    best, best_tail = 0.0, 0.0
    for rate, t, ok in rungs:
        if not ok:
            if limit_ms < t < float("inf"):
                best += (limit_ms - best_tail) / (t - best_tail) * (
                    rate - best)
            break
        best, best_tail = rate, t
    return best


def serve_digest(responses):
    """Digest over the distinct successful requests (a repeat and its
    original answer the same job, so each key counts once)."""
    by_key = {}
    for req, r in responses:
        if r is not None and r.get("ok"):
            by_key.setdefault(req.key, r["stats"])
    return stats.digest(stats.merge_stats(by_key[k] for k in sorted(by_key)))


def serve_setups(server_bin, seed, ref_s):
    """Set-up time: the reference schedule built and a server ready to
    read, measured SETUP_REPS times."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        loadgen.make_requests(seed, REF_RATE, ref_s)
        srv = start_server(server_bin)
        times.append(time.monotonic() - t0)
        srv.close()
    return times


def serve_session(server_bin, seed, ref_s, rung_s, limit_ms):
    """The timed session on one server: the reference phase, then,
    once it has drained, the rate ladder, which stops sending after the
    rung during which a request first waits past the limit."""
    mix = loadgen.Mix(seed)
    ref = mix.phase([(REF_RATE, ref_s)], (loadgen.REFERENCE,))
    others = [g for g in range(len(loadgen.GRIDS)) if g != loadgen.REFERENCE]
    ladder = mix.phase([(rate, rung_s) for rate in LADDER], others)
    srv = start_server(server_bin)
    try:
        cpu0, pcpu0 = srv.cpu_s(), time.process_time()
        res = loadgen.run_open_loop(srv, ref)
        res["server_cpu_s"] = max(srv.cpu_s() - cpu0, 1e-9)
        res["cpu_s"] = res["server_cpu_s"] + time.process_time() - pcpu0
        lad = loadgen.run_open_loop(srv, ladder, drain_s=2 * limit_ms / 1e3,
                                    late_s=limit_ms / 1e3)
        res["rss_mb"] = srv.peak_rss_mb()
    finally:
        srv.kill()
    res["requests"] = ref
    res["workers"] = srv.workers
    return res, ladder, lad


def run_serve(harness, server_bin, seed, seconds, trace, limit_ms):
    ref_s = 0.7 * seconds
    setups = serve_setups(server_bin, seed, ref_s)
    if not trace:
        rung_s = 0.075 * seconds
        res, ladder, lad = serve_session(server_bin, seed, ref_s, rung_s,
                                         limit_ms)
        fig = phase_figures(res)
        p99, beyond = stats.p99(fig["lat_limited"])
        rungs = ladder_rungs(ladder, lad, rung_s, limit_ms)
        # The ladder's answers count towards correctness too; requests
        # never sent (after the stop) or cut off by it do not.
        lad_ans = [r for r in lad["responses"] if r is not None]
        lad_bad = [r for r in lad_ans if not r.get("ok")]
        metrics = {
            "setup_s": statistics.median(setups),
            # Per server CPU second: at a fixed offered rate the work per
            # wall second is set by the schedule, not by rbsim.
            "detailed_kips": fig["detailed"] / res["server_cpu_s"] / 1e3,
            "campaign_mips": fig["covered"] / res["server_cpu_s"] / 1e6,
            # Harrell-Davis: 24 requests leave the nearest-rank median
            # at the mercy of one job's host time.
            "latency_p50_ms": stats.hd_quantile(fig["lat_limited"], 0.5),
            "latency_p99_ms": p99,
            "max_rate_jps": ladder_rate(rungs, limit_ms),
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["rss_mb"],
        }
        steps = ["%g/s: p99 %.0f ms %s" % (r, t, "pass" if ok else "miss")
                 for r, t, ok in rungs]
        notes = ["reference phase: %d requests at %g/s over %.1f s; p99 "
                 "has %d samples beyond it" % (len(res["requests"]),
                                               REF_RATE, ref_s, beyond),
                 "ladder (limit %g ms, %g s a rung): %s" % (
                     limit_ms, rung_s, "; ".join(steps))]
        return {"metrics": metrics,
                "attempted": fig["counts"]["attempted"] + len(lad_ans),
                "failed": fig["counts"]["failed"] + len(lad_bad),
                "errors": failures(res) + ["ladder: %s %s" % (
                    r.get("code"), r.get("error", "")) for r in lad_bad],
                "spans": [],
                "digest": serve_digest(zip(res["requests"],
                                           res["responses"])),
                "workers": res["workers"], "notes": notes, "tails": []}

    # Traced run: the reference phase untraced and then traced, each on
    # a fresh server, then the layer probes on the phase's requests.
    plain = phase_figures(serve_phase(server_bin, seed, ref_s))
    spans = []
    res = serve_phase(server_bin, seed, ref_s, spans)
    fig = phase_figures(res)
    raw = run_harness(harness, ["serve-layers", "--seed", str(seed),
                              "--seconds", str(0.2 * seconds)],
                     stdin_text="\n".join(r.line() for r in res["requests"]))
    m = setup_parts(raw["setups"])
    m.update(probe_layers(raw["probes"]))
    win = raw["probes"]["sim.sampling_window_ms"]
    jobs, over = [], []
    for j, r in enumerate(res["responses"]):
        if r is None or res["done"][j] is None:
            continue
        # A cache hit reports the cached run's host_ms; nothing ran.
        rt = (res["done"][j] - res["sent"][j]) * 1e3
        ran = r.get("ok") and not r.get("cache_hit")
        host = r.get("host_ms", 0.0) if ran else 0.0
        if ran:
            jobs.append(host)
        over.append(rt - host)
    busy = sum(jobs) / 1e3 / (res["workers"] * fig["span"])
    m.update(service_layers(jobs, over, busy))
    ok = [r for r in res["responses"] if r is not None and r.get("ok")]
    m["service.cache_hit_ratio"] = (sum(1 for r in ok if r.get("cache_hit"))
                                    / len(ok) if ok else 0.0)
    m["service.warm_simulators"] = float(res["warm_simulators"])
    m["server.overhead_ms.p50"] = stats.percentile(over, 50)
    m["server.overhead_ms.tail"] = stats.tail(over)[0]
    c = fig["counts"]
    m["server.refused_ratio"] = c["refused"] / c["attempted"]
    # Held repeats wait for their original on purpose; that is not lag.
    lag = stats.generator_lag(
        [d for d, h in zip(res["due"], res["held"]) if not h],
        [s for s, h in zip(res["sent"], res["held"]) if not h])
    m["loadgen.lag_ms.tail"] = stats.tail(lag)[0]
    m.update(stats.model_counts(stats.merge_stats(
        r["stats"] for r in ok if not r.get("cache_hit"))))
    m["trace_overhead_ratio"] = (stats.percentile(fig["lat"], 50) /
                                 stats.percentile(plain["lat"], 50) - 1.0)
    return {"metrics": m, "attempted": c["attempted"],
            "failed": c["failed"], "errors": failures(res), "spans": spans,
            "digest": serve_digest(zip(res["requests"], res["responses"])),
            "workers": res["workers"],
            "notes": ["traced phase: %d requests at %g/s" %
                      (len(res["requests"]), REF_RATE)],
            "tails": [tail_note("service.job_ms", jobs),
                      tail_note("server.overhead_ms", over),
                      tail_note("loadgen.lag_ms", lag),
                      tail_note("sim.sampling_window_ms", win)]}


def failures(res):
    out = []
    for req, r in zip(res["requests"], res["responses"]):
        if r is None:
            out.append("%s: no response" % req.rid)
        elif not r.get("ok"):
            out.append("%s: %s %s" % (req.rid, r.get("code"),
                                      r.get("error", "")))
    return out[:20]


# --------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=CLOSED + (SERVE,))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out-seed", type=int, default=None,
                    help="recorded in the output; rerun a claim with "
                         "--seed set to it")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--latency-limit-ms", type=float, default=6000.0,
                    help="p99 limit of the max_rate_jps ladder")
    ap.add_argument("--build-dir", type=Path, default=None,
                    help="use this existing build instead of building")
    return ap.parse_args(argv)


def main(argv=None):
    a = parse_args(argv)
    spec = load_spec()
    bdir = a.build_dir or default_build_dir()
    if a.build_dir is None:
        build(bdir)
    harness, server_bin = binaries(bdir)
    if a.workload == SERVE:
        r = run_serve(harness, server_bin, a.seed, a.seconds, a.trace,
                      a.latency_limit_ms)
    else:
        r = run_closed(a.workload, harness, a.seed, a.seconds, a.trace)

    desc = describe(bdir, a.seed, r["workers"])
    desc["held_out_seed"] = a.held_out_seed
    log("workload %s, seed %d, %g s, trace %d" % (a.workload, a.seed,
                                                  a.seconds, a.trace))
    log("build " + json.dumps(desc, sort_keys=True))
    for n in r["notes"] + r["tails"]:
        log(n)
    correct = r["failed"] == 0 and not r["errors"]
    log("check %s: %d attempted, %d failed (failed_ratio %.4f)" % (
        "ok" if correct else "FAILED", r["attempted"], r["failed"],
        r["failed"] / max(1, r["attempted"])))
    for e in r["errors"]:
        log("  " + e)
    log("stats digest %s" % r["digest"])
    if r["spans"]:
        out = bdir / "spans"
        out.mkdir(exist_ok=True)
        path = out / ("%s-seed%d.json" % (a.workload, a.seed))
        path.write_text(json.dumps(r["spans"]))
        log("spans written to %s" % path)
        selft = stats.self_times(r["spans"])
        log("self time per span name, summed over its spans:")
        for name in sorted(selft, key=lambda k: -selft[k]):
            log("  %-28s %10.3f s" % (name, selft[name]))

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = float(r["metrics"][m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("%-34s %16.6g %s" % (m["name"], v, m["unit"]))
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        print("rbbench: %s" % e, file=sys.stderr)
        sys.exit(1)
