"""Open-loop load for rbsim-serve: a seeded request mix, the
single-threaded generator that sends it on time over one stdio
connection, and the server process it talks to.

Every request is due at a Poisson arrival time fixed by the seed; the
generator sends it then, whatever the server is doing, and the latency
of a request is measured from its due time (stats.latencies_from_due).
"""

import json
import os
import random
import re
import select
import subprocess
import time

SPEC95 = ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex"]
# mcf and vortex00 are left out: their data images (1.5 and 0.6 MB) stay
# resident in every warm simulator that draws them, so the server's
# peak RSS would depend on which workers happened to.
SPEC2000 = ["gzip", "vpr", "gcc00", "crafty", "parser", "eon", "perlbmk",
            "gap", "bzip2", "twolf"]
PRESETS = ["chase-l2", "ycsb-a", "zipf-0.99", "branch-0.50",
           "rb-adversarial", "chase-dl1", "ycsb-c"]
MACHINES = ["base", "rblim", "rbfull", "ideal"]

# The figure grids that reach rbsim-serve, each cell a full-length run
# of a registered workload at scale 1, the scale every caller defaults
# to: the Fig. 12 grid (scripts/serve_client.py, which is also the CI
# serve smoke, and bench/fig12_ipc_4wide_spec95 --server), then the
# Figs. 10, 11 and 9 grids (their bench binaries under --server). The
# Fig. 12 grid is split in two so that the reference phase can submit a
# fixed half of it, the Baseline and RB-full columns, at a load low
# enough that its latencies are mostly run time rather than queueing.
REFERENCE = 0
GRIDS = ((SPEC95, 4, ("base", "rbfull")), (SPEC95, 4, ("rblim", "ideal")),
         (SPEC95, 8, MACHINES), (SPEC2000, 4, MACHINES),
         (SPEC2000, 8, MACHINES))

# Shares of the requests (README.md says where each comes from).
REPEAT_SHARE = 0.20   # exact repeats of earlier grid cells: cache hits
BUDGET_SHARE = 0.10   # workloads and presets under a skewed max_insts
SAMPLE_EVERY = 20     # every 20th request carries a "sample" object
BUDGETS = [250, 500, 1000, 2000, 4000]
REPEAT_AGE_S = 3.0    # a repeat is due at least this long after its
                      # original (and is held until that is answered)


class Request:
    __slots__ = ("rid", "body", "key", "due", "rung", "after")

    def __init__(self, rid, body, due, rung=None, after=None):
        self.rid = rid
        self.body = body
        self.key = json.dumps(body, sort_keys=True)
        self.due = due
        self.rung = rung    # ladder rung, None outside a ladder
        self.after = after  # index of the original this repeats, if any

    def line(self):
        return json.dumps(dict(self.body, id=self.rid),
                          separators=(",", ":"))


def _zipf_weights(n, s):
    return [1.0 / (i + 1) ** s for i in range(n)]


def _pick(u, items, weights):
    """The item whose share of the cumulative weights holds u in [0, 1)."""
    acc, total = 0.0, sum(weights)
    for item, w in zip(items, weights):
        acc += w / total
        if u < acc:
            return item
    return items[-1]


# Weyl-sequence steps (pairwise rationally independent): budgeted draw
# k picks its workload, machine and width at frac(offset + k * step), so
# every phase holds each of them close to its share, whatever the seed.
_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


class Mix:
    """The seeded request mix of one server session. Successive phases
    continue it: each grid cell is requested new once per session, and
    a repeat may repeat a cell of this phase or of an earlier one (a
    phase drains before the next starts, so those were answered)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.offsets = [self.rng.random() for _ in _STEPS]
        # Each grid's cells come in one shuffled order, the same for
        # every seed, so that every phase and ladder rung holds the same
        # cells whatever the seed: the seed moves their arrival times.
        order = random.Random(0)
        self.cells = []
        for progs, width, machines in GRIDS:
            cells = [{"workload": p, "machine": m, "width": width}
                     for p in progs for m in machines]
            order.shuffle(cells)
            self.cells.append(cells)
        self.names = SPEC95 + SPEC2000 + PRESETS
        self.k = 0            # requests made so far
        self.draws = 0        # budgeted draws made so far
        self.samples = 0
        self.answered = []    # cell bodies of earlier phases
        self.budget_keys = set()  # each budgeted request is new

    def _u(self, stream, k):
        return (self.offsets[stream] + k * _STEPS[stream]) % 1.0

    def _budgeted(self):
        k = self.draws
        self.draws += 1
        return {"workload": _pick(self._u(0, k), self.names,
                                  _zipf_weights(len(self.names), 1.0)),
                "machine": _pick(self._u(1, k), MACHINES, [1] * 4),
                "width": _pick(self._u(2, k), (4, 8), (3, 1)),
                "max_insts": _pick(self.rng.random(), BUDGETS,
                                   _zipf_weights(len(BUDGETS), 1.5))}

    def _sample(self):
        j = self.samples
        self.samples += 1
        return {"workload": SPEC95[j % len(SPEC95)],
                "machine": ("base", "rbfull")[j // len(SPEC95) % 2],
                "width": 4,
                "sample": {"period_insts": 40000, "warmup_insts": 1000,
                           "measure_insts": 4000, "max_windows": 4}}

    def phase(self, segments, grids):
        """Requests of one phase: for each (rate, seconds) segment in
        turn, rate * seconds Poisson arrivals (a Poisson process over
        the segment, given its count, has its arrivals uniform over it),
        holding each kind of request in its exact share. A request's
        `rung` is its segment's index; due times start at 0. New cells
        come from `grids` (indices into GRIDS), in turn."""
        out = []
        cells = []            # indices of this phase's new cells
        last_due = {}
        start = 0.0
        for rung, (rate, seconds) in enumerate(segments):
            n = round(rate * seconds)
            dues = sorted(start + self.rng.uniform(0, seconds)
                          for _ in range(n))
            start += seconds
            kinds = self._kinds(n)
            for j, t in enumerate(dues):
                body, after = self._draw(kinds, j, t, out, cells, last_due,
                                         grids)
                req = Request("r%d" % self.k, body, t, rung, after)
                self.k += 1
                if kinds[j] == "cell":
                    cells.append(len(out))
                last_due[req.key] = t
                out.append(req)
        self.answered += [out[j].body for j in cells]
        return out

    def _kinds(self, n):
        """The kinds of n requests, each in its exact share, in seeded
        order."""
        samples = n // SAMPLE_EVERY
        budgets = round(n * BUDGET_SHARE)
        repeats = round(n * REPEAT_SHARE)
        kinds = (["sample"] * samples + ["budget"] * budgets +
                 ["repeat"] * repeats)
        kinds += ["cell"] * (n - len(kinds))
        self.rng.shuffle(kinds)
        return kinds

    def _draw(self, kinds, j, t, out, cells, last_due, grids):
        """(body, index in `out` of the original it repeats, or None) of
        request j, due at `t`. A repeat with nothing old enough to
        repeat trades kinds with the next cell, and a cell with none
        left in `grids` with the next repeat."""
        def fresh(body):
            return last_due.get(json.dumps(body, sort_keys=True),
                                -1e9) <= t - REPEAT_AGE_S

        if kinds[j] == "sample":
            return self._sample(), None
        if kinds[j] == "budget":
            # Never an unheld copy of a request that may be in flight:
            # the server would refuse it as duplicate-in-flight.
            while True:
                body = self._budgeted()
                key = json.dumps(body, sort_keys=True)
                if key not in self.budget_keys:
                    self.budget_keys.add(key)
                    return body, None
        old = [(b, None) for b in self.answered if fresh(b)]
        old += [(out[i].body, i) for i in cells
                if out[i].due <= t - REPEAT_AGE_S and fresh(out[i].body)]
        left = next((g for g in grids if self.cells[g]), None)
        want = kinds[j]
        if want == "repeat" and not old or want == "cell" and left is None:
            other = "cell" if want == "repeat" else "repeat"
            k = next((k for k in range(j + 1, len(kinds))
                      if kinds[k] == other), None)
            if k is not None:
                kinds[j], kinds[k] = other, want
        if kinds[j] == "repeat" and old:
            return self.rng.choice(old)
        if left is not None:
            kinds[j] = "cell"
            return self.cells[left].pop(), None
        kinds[j] = "budget"
        return self._draw(kinds, j, t, out, cells, last_due, grids)


def make_requests(seed, rate, duration):
    """The reference phase of a fresh session: rate * duration requests
    due over `duration` seconds, their new cells from the reference half
    of the Fig. 12 grid. The same arguments give the same requests."""
    return Mix(seed).phase([(rate, duration)], (REFERENCE,))


def run_open_loop(transport, requests, clock=time.monotonic,
                  drain_s=30.0, late_s=None, spans=None):
    """Send `requests` at their due times (relative to the start of this
    call) and collect the responses. Single-threaded: between sends it
    waits on the connection until the next request is due.

    A repeat (`after` set) is held until its original has been answered,
    as a client that repeats a grid round does; its latency still runs
    from its due time. With `late_s`, once a sent request has waited
    longer than that since its due time, no request of a later rung is
    sent. With a `spans` list, each answered request appends its spans
    (due -> answer, its round trip, and the job the server reports)
    while the phase runs.

    Returns a dict with per-request lists (parallel to `requests`):
    due/sent/done times in seconds since the start (sent is None for a
    request never sent; done and the decoded response are None when no
    answer came within `drain_s` of the last due time), whether it was
    held, plus the phase start/end."""
    n = len(requests)
    index = {r.rid: i for i, r in enumerate(requests)}
    sent = [None] * n
    done = [None] * n
    resp = [None] * n
    held = [False] * n
    waiting = []          # due repeats whose original is unanswered
    t0 = clock()
    last_due = requests[-1].due if requests else 0.0
    pending = 0
    oldest = 0            # no earlier request is unanswered
    stop_rung = None
    i = 0

    def send(j):
        nonlocal pending
        sent[j] = clock() - t0
        transport.send(requests[j].line())
        pending += 1

    while i < n or pending or waiting:
        now = clock() - t0
        if late_s is not None and stop_rung is None and i:
            while oldest < i and (sent[oldest] is None or
                                  resp[oldest] is not None):
                oldest += 1
            if oldest < i and now - requests[oldest].due > late_s:
                stop_rung = requests[i - 1].rung
        while i < n and requests[i].due <= now:
            if stop_rung is not None and requests[i].rung > stop_rung:
                i = n
                break
            a = requests[i].after
            if a is not None and resp[a] is None:
                held[i] = True
                waiting.append(i)
            else:
                send(i)
            i += 1
            now = clock() - t0
        if i < n:
            wait = requests[i].due - now
        else:
            wait = last_due + drain_s - now
            if wait <= 0:
                break
        for line in transport.poll(max(0.0, wait)):
            at = clock() - t0
            obj = json.loads(line)
            k = index.get(obj.get("id"))
            if k is None or resp[k] is not None:
                continue
            resp[k] = obj
            done[k] = at
            pending -= 1
            if spans is not None:
                _add_spans(spans, k, requests[k].due, sent[k], at, obj)
        for j in [j for j in waiting if resp[requests[j].after] is not None]:
            waiting.remove(j)
            send(j)
    return {"due": [r.due for r in requests], "sent": sent, "done": done,
            "responses": resp, "held": held, "end": clock() - t0}


def _add_spans(spans, job, due, sent, done, resp):
    """The spans of one answered request: it spans due -> answer, its
    round trip spans send -> answer, and the job the server reports ran
    for host_ms just before it answered."""
    spans.append({"name": "loadgen.request", "t0": due, "t1": done,
                  "parent": -1, "job": job, "count": 1})
    spans.append({"name": "server.roundtrip", "t0": sent, "t1": done,
                  "parent": len(spans) - 1, "job": job, "count": 1})
    if resp.get("ok") and not resp.get("cache_hit"):
        host = resp.get("host_ms", 0.0) / 1e3
        spans.append({"name": "service.job", "t0": done - host, "t1": done,
                      "parent": len(spans) - 1, "job": job,
                      "count": resp["stats"]["counters"].get(
                          "core.retired", 0)})


class ServeProcess:
    """An rbsim-serve child on stdio pipes, with the binary's default
    flags. Construction returns once the server says it is reading."""

    def __init__(self, binary, cwd):
        self.proc = subprocess.Popen(
            [binary], cwd=cwd, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        self.out_fd = self.proc.stdout.fileno()
        self.err = b""
        self.buf = b""
        deadline = time.monotonic() + 30
        while b"reading JSON-lines" not in self.err:
            left = deadline - time.monotonic()
            r, _, _ = select.select([self.proc.stderr], [], [],
                                    max(0.0, left))
            chunk = os.read(self.proc.stderr.fileno(), 4096) if r else b""
            if not chunk:
                self.kill()
                raise RuntimeError("rbsim-serve did not start: %r" %
                                   self.err.decode(errors="replace"))
            self.err += chunk
        m = re.search(rb"\((\d+) workers\)", self.err)
        self.workers = int(m.group(1)) if m else 0

    def send(self, line):
        os.write(self.proc.stdin.fileno(), (line + "\n").encode())

    def poll(self, timeout):
        lines = []
        r, _, _ = select.select([self.out_fd], [], [], timeout)
        if r:
            chunk = os.read(self.out_fd, 1 << 16)
            if not chunk:
                raise RuntimeError("rbsim-serve closed its stdout")
            self.buf += chunk
            *full, self.buf = self.buf.split(b"\n")
            lines = [x.decode() for x in full if x.strip()]
        return lines

    def cpu_s(self):
        """User + system CPU seconds of the server so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        """End the connection; returns the warm-simulator count from the
        server's closing summary."""
        _, rest_err = self.proc.communicate(timeout=120)
        self.err += rest_err
        m = re.search(rb"(\d+) warm simulators", self.err)
        return int(m.group(1)) if m else 0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
