"""Statistics of the rbsim benchmark: percentiles, spreads, span self
times and the statistics digest. Pure functions, so that
test_rbbench.py can check them without building anything."""

import hashlib
import json
import math
import statistics


def percentile(xs, p):
    """Nearest-rank percentile `p` (0-100] of `xs`."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    rank = max(1, -(-len(s) * p // 100))  # ceil(n * p / 100)
    return s[int(min(rank, len(s))) - 1]


def hd_quantile(xs, q):
    """Harrell-Davis estimate of quantile q in (0, 1) of `xs`: a weighted
    mean of all order statistics, the i-th (of n) weighted by the mass
    a Beta((n+1)q, (n+1)(1-q)) distribution puts on [(i-1)/n, i/n]. It
    estimates the same quantile as a percentile but does not hang on
    one sample, so on a few dozen samples it moves much less with one
    job's noise (Harrell and Davis, Biometrika 69(3), 1982). An
    infinite sample with any weight makes it infinite."""
    if not xs:
        raise ValueError("quantile of no samples")
    s = sorted(xs)
    n = len(s)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    lnorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 256   # midpoint rule per order statistic
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        w = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) * h
            w += math.exp(lnorm + (a - 1) * math.log(t) +
                          (b - 1) * math.log1p(-t))
        weights.append(w * h)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, s) if w > 0) / total


def tail(xs):
    """The `.tail` statistic: the highest nearest-rank percentile that
    leaves at least ten samples beyond it, i.e. the eleventh-largest
    sample. Returns (value, percentile, n). With ten samples or fewer
    no percentile qualifies; the maximum is returned with percentile
    100 so the output can say the tail is unsupported."""
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    rank = n - 10
    return s[rank - 1], 100.0 * rank / n, n


def p99(xs):
    """(p99 value, samples beyond it). The p99 is supported when at
    least ten samples lie beyond it, which takes 1000 samples."""
    v = percentile(xs, 99)
    beyond = sum(1 for x in xs if x > v)
    return v, beyond


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median), the quartiles taken with
    statistics.quantiles(values, n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def latencies_from_due(due, done):
    """Latency of each request measured from when it was due to be sent,
    so a stalled generator or server charges its wait to every request
    behind it. `due`/`done` are parallel lists of times in seconds;
    requests with no completion (None) are skipped. Returns ms."""
    return [(d1 - d0) * 1e3 for d0, d1 in zip(due, done) if d1 is not None]


def generator_lag(due, sent):
    """How late the generator sent each request, in ms (never negative:
    sending early is not possible in an open loop)."""
    return [max(0.0, (s - d) * 1e3) for d, s in zip(due, sent)]


def outcome_counts(responses):
    """Count outcomes of served requests. A response is a dict with
    `ok`; errors carry `code`. Refusals (duplicate-in-flight,
    duplicate-id) and aborts count as failures like any error."""
    ok = sum(1 for r in responses if r.get("ok"))
    refused = sum(1 for r in responses if not r.get("ok") and
                  r.get("code") in ("duplicate-in-flight", "duplicate-id"))
    aborted = sum(1 for r in responses if not r.get("ok") and
                  r.get("code") == "sim-aborted")
    return {"attempted": len(responses), "ok": ok,
            "failed": len(responses) - ok, "refused": refused,
            "aborted": aborted}


def self_times(spans):
    """Self time of each span name, in seconds: each span's duration
    minus the part of its interval that its child spans cover (children
    may overlap one another; the union counts once). Spans are dicts
    with name, t0, t1 and parent (index into `spans`, -1 for roots)."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(i, []), key=lambda k: spans[k]["t0"]):
            a = max(spans[c]["t0"], end, s["t0"])
            b = min(spans[c]["t1"], s["t1"])
            if b > a:
                covered += b - a
                end = b
        out[s["name"]] = out.get(s["name"], 0.0) + (s["t1"] - s["t0"] -
                                                    covered)
    return out


def merge_stats(snapshots):
    """Sum StatSnapshot-shaped dicts ({"counters": {..}, "vectors":
    {..}}) element-wise."""
    counters, vectors = {}, {}
    for snap in snapshots:
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, xs in snap.get("vectors", {}).items():
            acc = vectors.setdefault(k, [0] * len(xs))
            if len(acc) < len(xs):
                acc.extend([0] * (len(xs) - len(acc)))
            for j, x in enumerate(xs):
                acc[j] += x
    return {"counters": counters, "vectors": vectors}


def digest(snapshot):
    """Stable digest of a merged StatSnapshot (counters and vectors;
    derived formulas follow from them). Key order does not matter."""
    canon = json.dumps({"counters": snapshot.get("counters", {}),
                        "vectors": snapshot.get("vectors", {})},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def model_counts(snapshot):
    """The exact model counts the benchmark reports from a merged
    StatSnapshot. A change meant only to speed up the simulator must
    leave every one of them identical."""
    c = snapshot.get("counters", {})

    def per(num, den, scale=1.0):
        return scale * c.get(num, 0) / c[den] if c.get(den) else 0.0

    return {
        "core.cycles": float(c.get("core.cycles", 0)),
        "core.retired": float(c.get("core.retired", 0)),
        "core.useful_ratio": per("core.retired", "core.dispatched"),
        "core.hole_wait_per_kcyc": per("core.holeWaitCycles",
                                       "core.cycles", 1e3),
        "lsq.searches_per_kinst": per("lsq.searches", "core.retired", 1e3),
        "dl1.miss_ratio": per("dl1.misses", "dl1.accesses"),
        "l2.misses_per_kinst": per("l2.misses", "core.retired", 1e3),
        "bpred.mispredicts_per_kinst": per("core.condMispredicts",
                                           "core.retired", 1e3),
    }
