#!/usr/bin/env python3
"""Interleaved A/B comparison of two rbsim builds on one workload.

  python3 rbbench/ab.py --a PARENT/.bench_build --b CHANGE/.bench_build \\
      --workload paper-grid --pairs 10

Each build directory is one that `rbbench/run.py` made in its own
checkout (run it once there with --seconds 1). Both sides run with this
checkout's benchmark code and the same settings. Pair k uses seed
--seed + k on both sides and alternates which side runs first.

For every end-to-end metric it reports each side's median [quartiles],
the share of pairs B wins (ties count for neither) and a verdict:
  gain        over at least ten pairs, B wins at least 9 in 10 and the
              medians differ by more than A's quartile distance
  regression  B's median is worse than A's by more than the metric's
              bound in BENCHMARK.json
  unresolved  a side's quartile spread exceeds the bound, unless every
              run of B beats every run of A
  same        none of the above
It also says whether the simulated statistics (the per-run digest) were
identical on both sides.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402


def held_out_seed(spec):
    cmd = spec["command"]
    return int(cmd[cmd.index("--held-out-seed") + 1])


def one_run(bdir, workload, seed, seconds, spec):
    cmd = [sys.executable, str(HERE / "run.py")] + spec["command"][2:] + [
        "--build-dir", str(bdir), "--workload", workload, "--seed",
        str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise RuntimeError("run failed on %s: %s" % (bdir, r.stderr[-2000:]))
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1])
    m = re.search(r"stats digest (\w+)", r.stdout)
    return ({k: v["value"] for k, v in result["metrics"].items()},
            m.group(1) if m else None, result["correct"])


def verdict(a, b, better, bound):
    """Classify one metric from the runs of each side (lists of values,
    paired by index)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    win_frac = wins / len(a)
    ma, qa1, qa3, spread_a = stats.quartile_spread(a)
    mb, qb1, qb3, spread_b = stats.quartile_spread(b)
    worse = sign * (ma - mb) / ma if ma else 0.0
    if len(a) >= 10 and win_frac >= 0.9 and abs(mb - ma) > (qa3 - qa1):
        kind = "gain"
    elif worse > bound:
        kind = "regression"
    elif (max(spread_a, spread_b) > bound and
          not all(sign * (y - x) > 0 for x in a for y in b)):
        kind = "unresolved"
    else:
        kind = "same"
    return {"median_a": ma, "q1_a": qa1, "q3_a": qa3, "spread_a": spread_a,
            "median_b": mb, "q1_b": qb1, "q3_b": qb3, "spread_b": spread_b,
            "win_frac": win_frac, "verdict": kind}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="build dir A")
    ap.add_argument("--b", type=Path, required=True, help="build dir B")
    ap.add_argument("--workload", required=True,
                    choices=run.CLOSED + (run.SERVE,))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true",
                    help="start from BENCHMARK.json's held-out seed")
    ap.add_argument("--seconds", type=float, default=None)
    a = ap.parse_args(argv)
    spec = run.load_spec()
    seconds = a.seconds or spec["run_seconds"]
    seed0 = held_out_seed(spec) if a.held_out else a.seed

    runs = {"A": [], "B": []}
    digests_equal = True
    for k in range(a.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        got = {}
        for side in order:
            bdir = a.a if side == "A" else a.b
            got[side] = one_run(bdir, a.workload, seed0 + k, seconds, spec)
            if not got[side][2]:
                print("ab: side %s failed its correctness check (seed %d)"
                      % (side, seed0 + k))
        digests_equal &= got["A"][1] == got["B"][1]
        for side in ("A", "B"):
            runs[side].append(got[side][0])
        print("ab: pair %d/%d done (seed %d, %s first)" % (
            k + 1, a.pairs, seed0 + k, order[0]), flush=True)

    print("ab: workload %s, %d pairs, %g s runs, seeds %d..%d" % (
        a.workload, a.pairs, seconds, seed0, seed0 + a.pairs - 1))
    print("ab: simulated statistics %s" % (
        "identical" if digests_equal else "DIFFER"))
    report = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        v = verdict([r[name] for r in runs["A"]],
                    [r[name] for r in runs["B"]], m["better"], m["bound"])
        report[name] = v
        print("%-15s A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g]  B/A %.3f  "
              "wins %.0f%%  %s" % (
                  name, v["median_a"], v["q1_a"], v["q3_a"], v["median_b"],
                  v["q1_b"], v["q3_b"], v["median_b"] / v["median_a"],
                  100 * v["win_frac"], v["verdict"]))
    print(json.dumps({"workload": a.workload, "stats_identical":
                      digests_equal, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
