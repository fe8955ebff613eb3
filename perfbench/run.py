"""permstab benchmark: seeded workloads through the package's public entry
points, every answer checked by an independent oracle.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs a fixed set of ops once untraced and once traced and reports the
per-layer metrics.  Every metric is printed by name with its unit and
sample count; for a single workload the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/NOTES.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

WORKLOADS = ("cli-cold", "census-warm", "stats-warm")


def _module(workload):
    import census_warm
    import cli_cold
    import stats_warm

    return {"cli-cold": cli_cold, "census-warm": census_warm, "stats-warm": stats_warm}[workload]


def run_one(workload, seed, seconds, traced, size):
    metrics, outcome, traffic, setup, lat = _module(workload).run(
        seed, seconds, traced, tiny=size == "tiny")
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(traced)}")
    print("# env " + json.dumps(common.env_stamp()))
    print("# traffic " + json.dumps(traffic))
    for name, (value, unit) in metrics.items():
        note = _samples(name, setup, lat, outcome.attempted // 2)
        print(f"{workload:12s} {name:30s} {value:14.6g} {unit:6s} {note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{workload:12s} {'error_rate':30s} {rate:14.6g} {'ratio':6s} "
          f"({outcome.failed} of {outcome.attempted} ops)")
    for problem, count in sorted(outcome.failures.items()):
        print(f"#   failed x{count}: {problem}")
    return {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _samples(name, setup, lat, traced_ops):
    if name == "setup_s":
        return f"(median of {len(setup)} set-ups)"
    if lat is None:
        return f"(traced pass of {traced_ops} ops)"
    if name == "latency_p95_ms":
        p95 = common.percentile(lat, 95)
        return f"(n={len(lat)}, {sum(1 for x in lat if x > p95)} beyond)"
    if name.startswith("latency") or name == "ops_per_s":
        return f"(n={len(lat)})"
    return ""


def main(argv=None):
    ap = argparse.ArgumentParser(description="permstab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (common.SRC / "permstab" / "__init__.py").is_file():
        print(f"no package sources under {common.SRC}", file=sys.stderr)
        return 2
    # One CPU for the ops, their forked children and the speed kernel
    # (speed.py), so the kernel measures the core the timed work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"# not pinned to one CPU: {exc}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, bool(args.trace), args.size) for w in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
