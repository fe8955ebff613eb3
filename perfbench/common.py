"""Shared pieces of the workloads: the package import, cache handling,
the op stream, the timed loop and the result record."""

from __future__ import annotations

import functools
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed as S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_OPS = 200  # so that at least 10 latencies lie beyond p95


def import_package(module="permstab"):
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = __import__(module, fromlist=["_"])
    where = Path(mod.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"permstab was imported from {where}, not from {SRC}")
    return mod


def package_caches():
    """Every ``functools.lru_cache`` bound at module level in the package."""
    caches = {}
    for name, mod in list(sys.modules.items()):
        if name == "permstab" or name.startswith("permstab."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, functools._lru_cache_wrapper):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return caches


def clear_caches(keep=()):
    for name, cache in package_caches().items():
        if name not in keep:
            cache.cache_clear()


def filled_caches():
    return {n for n, c in package_caches().items() if c.cache_info().currsize}


def timed_setups(steps, speed):
    """Run the set-up ``steps()`` on empty caches ``SETUP_REPEATS`` times;
    the last result stays warm.  Returns (result, per-run seconds at
    reference speed, per-run wall seconds without the kernel samples)."""
    times, wall, result = [], [], None
    for _ in range(SETUP_REPEATS):
        clear_caches()
        result, scaled, raw = speed.timed(steps())
        times.append(scaled)
        wall.append(raw)
    return result, times, wall


class OpStream:
    """Op ``i`` of a run as ``(kind, instance)``.  Kinds follow a smooth
    weighted round robin, so every window of the stream holds each kind in
    close to its share; the instances of a kind are cycled in order."""

    def __init__(self, weights, sizes):
        self.weights, self.sizes = weights, sizes
        self.credit = {k: 0 for k in weights}
        self.seen = {k: 0 for k in weights}
        self.ops = []

    def __getitem__(self, i):
        while len(self.ops) <= i:
            for k, w in self.weights.items():
                self.credit[k] += w
            kind = max(self.credit, key=self.credit.get)
            self.credit[kind] -= sum(self.weights.values())
            self.ops.append((kind, self.seen[kind] % self.sizes[kind]))
            self.seen[kind] += 1
        return self.ops[i]


def ops_for(seconds, rate):
    """Ops in a run: a fixed count, so the same seed always does the same
    work; ``rate`` is about what one second of --seconds holds at
    reference speed."""
    return max(MIN_OPS, round(rate * seconds))


def run_loop(n, op, check, speed=None):
    """Closed loop of ``n`` ops, one at a time.  ``op(i)`` is timed;
    ``check(i, result, s)`` runs after it, outside the timing, so no
    result is kept.  With ``speed`` and no timer running, kernel samples
    run between ops, about every ``SAMPLE_EVERY_S`` of op time and in a
    burst at either end.  Returns (start, seconds) per op."""
    timings = []
    if speed and not speed.ticking:
        speed.sample(S.BURST)
    for i in range(n):
        t0 = time.perf_counter()
        result = op(i)
        dt = time.perf_counter() - t0
        timings.append((t0, dt))
        check(i, result, dt)
        if speed:
            speed.due(dt)
    if speed and not speed.ticking:
        speed.sample(S.BURST)
    return timings


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Inclusive-method percentile, ``q`` in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def env_stamp():
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


class Outcome:
    """Tally of checked ops: every op the oracle rejected, that exited
    with the wrong code or that raised counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}  # "kind:reason" -> count
        self.wrong = 0

    def record(self, kind, problem, wrong_answer=False):
        self.attempted += 1
        if problem is None:
            return
        key = f"{kind}: {problem.splitlines()[0][:120]}"
        self.failures[key] = self.failures.get(key, 0) + 1
        if wrong_answer:
            self.wrong += 1

    @property
    def failed(self):
        return sum(self.failures.values())


def end_to_end(setup_times, lat, rss_mb):
    """The end-to-end metrics from set-up and op seconds (at reference
    speed, or wall seconds for the traffic record)."""
    lat_ms = [x * 1000.0 for x in lat]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p95_ms": (percentile(lat_ms, 95), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def wall_and_speed(setup_wall, lat_wall, speed):
    """Wall-time figures and kernel statistics for the traffic record."""
    wall = end_to_end(setup_wall, lat_wall, 0.0)
    wall.pop("peak_rss_mb")
    return {
        "wall": {k: round(v, 6) for k, (v, _) in wall.items()},
        "kernel_ms": {"median": round(speed.median_s() * 1000, 4), "samples": len(speed.took),
                      "reference": speed.reference_s * 1000},
    }


def count(items):
    out = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return dict(sorted(out.items(), key=lambda kv: str(kv[0])))


def run_warm(workload, seed, seconds, traced, w, ops_per_s, trace_ops_per_s):
    """One library session: plain inputs from ``w.generate``, timed set-up
    ``w.setup_steps()`` (repeated on empty caches), package inputs from
    ``w.prepare``, then ``ops_for(seconds, ops_per_s)`` ops ``w.op`` in a
    closed loop and ``w.check`` on every result.  A traced run instead runs
    a fixed number of ops untraced and then traced, from the same cache
    state."""
    import tracing

    inputs = w.generate(seed)
    speed = S.Speed()
    outcome, busy, extra = Outcome(), {}, {}

    def check(i, result, seconds_taken):
        kind, problem = w.check(state, ops, i, result)
        outcome.record(kind, problem, wrong_answer=problem is not None)
        busy[kind] = busy.get(kind, 0.0) + seconds_taken

    def op(i):
        return w.op(ops, i)

    if traced:
        clear_caches()
        for step in w.setup_steps():
            state = step()
        setup, ops = [], w.prepare(state, inputs)
        n = max(10, trace_ops_per_s * seconds)
        keep = filled_caches()
        clear_caches(keep)
        lat_u = [dt for _, dt in run_loop(n, op, check)]
        clear_caches(keep)
        tracer = tracing.Tracer()
        tracer.install()

        def traced_op(i):
            tracer.op = i
            return w.op(ops, i)

        try:
            lat_t = [dt for _, dt in run_loop(n, traced_op, check)]
        finally:
            tracer.uninstall()
        data = tracer.export()
        metrics = tracing.layer_metrics(data, sum(lat_t) / sum(lat_u))
        count = n
        tracing.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.json",
                            {"workload": workload, "seed": seed}, data)
        lat = None
    else:
        count = ops_for(seconds, ops_per_s)
        speed.start()
        try:
            state, setup, setup_wall = timed_setups(w.setup_steps, speed)
            ops = w.prepare(state, inputs)
            timings = run_loop(count, op, check, speed)
        finally:
            speed.stop()
        lat, lat_wall = speed.scale(timings)
        metrics = end_to_end(setup, lat, peak_rss_mb())
        extra = wall_and_speed(setup_wall, lat_wall, speed)
    traffic = w.traffic(ops, count)
    traffic["time_share"] = {k: round(v / sum(busy.values()), 3) for k, v in sorted(busy.items())}
    traffic.update(extra)
    return metrics, outcome, traffic, setup, lat
