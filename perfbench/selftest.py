"""Tests of the benchmark itself: tiny smoke runs of every workload, a
corrupted answer counted as failed, the cold ``cli-cold`` parent, and the
refusal to run without the package sources.

Run with ``python3 -m pytest perfbench/selftest.py``.  The file name keeps
these tests out of the package's own suite: every workload here runs in a
child process, and the suite's timed acceptance checks run without them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import census_warm  # noqa: E402
import cli_cold  # noqa: E402
import common  # noqa: E402
import speed  # noqa: E402
import stats_warm  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-cold", "census-warm", "stats-warm"])
def test_tiny_smoke_run(workload, trace):
    res = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        rate = {"cli-cold": cli_cold, "census-warm": census_warm,
                "stats-warm": stats_warm}[workload].OPS_PER_S
        assert result["attempted"] == common.ops_for(1, rate)  # fixed work per run


def test_timings_at_reference_speed():
    s = speed.Speed()
    # kernel samples at 1.0, 1.1, ... 1.9 s, each 2 ms: half reference speed
    s.at = [1.0 + k / 10 for k in range(10)]
    s.took = [2 * speed.REFERENCE_S] * 10
    s.took[4] = s.took[5] = s.took[6] = 4 * speed.REFERENCE_S
    # 0.3 s from 1.38 s holds three 4 ms samples: they come off it and set
    # its speed; a short timing takes the median of its ten nearest samples
    (long, short), wall = s.scale([(1.38, 0.3), (1.02, 0.01)])
    assert wall == [pytest.approx(0.3 - 0.012), 0.01]
    assert long == pytest.approx((0.3 - 0.012) / 4)
    assert short == pytest.approx(0.01 / 2)


def run_python(code):
    res = subprocess.run([sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
                          + code], cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_corrupted_answer_counts_as_failed():
    out = run_python("""
import census_warm, common
ps = common.import_package()
honest = ps.multiplicity_vector

def corrupted(h):
    mv = honest(h)
    counts = list(mv.counts)
    counts[0] += 1
    return ps.MultiplicityVector(mv.group, mv.degree, tuple(counts))

ps.multiplicity_vector = corrupted
_, outcome, _, _, _ = census_warm.run(5, 1, False, tiny=True)
print(outcome.attempted, outcome.failed, outcome.wrong)
""")
    attempted, failed, wrong = map(int, out.split())
    assert attempted >= 1
    assert failed == attempted == wrong


def test_cli_oracle_rejects_a_wrong_report(tmp_path):
    manifest = cli_cold.generate(7, tmp_path, pool=2)
    reqs = manifest["requests"]
    specs = [("trace", 0), ("trace", 0)]
    right = reqs["trace"][0]["expect"]["tr"]
    wrong = str(Fraction(right) + 1)
    payloads = [
        {"code": 0, "report": json.dumps({"outputs": {"tr": tr}})} for tr in (right, wrong)
    ]
    checker = cli_cold.Checker(reqs)
    for spec, payload in zip(specs, payloads):
        checker.check(spec, payload)
    outcome = checker.outcome
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 1, 1)


def test_cli_cold_parent_stays_cold():
    out = run_python("""
import cli_cold, common
cli_cold.run(2, 1, False, tiny=True)
assert not common.filled_caches(), common.filled_caches()
ps = common.import_package()
ps.enumerate_patterns(("x",), 1)
try:
    cli_cold.assert_cold()
except RuntimeError:
    print("refused warm parent")
""")
    assert "refused warm parent" in out


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = run_bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert res.returncode != 0
    last = (res.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")
