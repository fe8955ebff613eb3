"""The ``cli-cold`` workload: one ``perm-stab`` request per forked child.

The parent imports only ``permstab.cli`` and runs no package code, so each
child starts with empty caches, as a new CLI process does.  A request is
``cli.dispatch(argv)`` plus ``json.dumps`` of the report; its latency runs
from just before the fork to the reaped exit.  One child runs at a time.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import common
import plain as P
import speed as S
import tracing

HERE = Path(__file__).resolve().parent
REQUEST_TIMEOUT_S = 60.0
POOL = 16  # instances per request kind, cycled
IMPORT_REPEATS = 9  # an import takes well under 0.1 s, so take a few more
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import permstab.cli; print(time.perf_counter() - t)"
)
# Requests per second of --seconds: about what a second holds at reference
# speed.
OPS_PER_S = 24
# Requests per traced run and second of --seconds; each is run untraced and
# traced, so the count stays the same from commit to commit.
TRACE_OPS_PER_S = 8


def _child(cli, argv, op, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = op
    try:
        code, report = cli.dispatch(argv)
        text = tracer.call("cli.report", json.dumps, report) if tracer else json.dumps(report)
        payload = {"code": code, "report": text}
        if tracer:
            tracer.counts["cli.bytes_out"] += len(text)
    except Exception as exc:  # an uncaught error is a failed request
        payload = {"code": None, "error": f"{type(exc).__name__}: {exc}"}
    if tracer:
        payload["trace"] = tracer.export()
    return json.dumps(payload).encode()


def run_request(cli, argv, op, traced):
    """Fork one child for one request; returns (payload bytes, child peak
    RSS in MB)."""
    r, w = os.pipe()
    deadline = time.perf_counter() + REQUEST_TIMEOUT_S
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(r)
            data = _child(cli, argv, op, traced)
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    chunks = []
    with os.fdopen(r, "rb", buffering=0) as fh:
        while True:
            ready, _, _ = select.select([fh], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                chunks = [json.dumps({"code": None, "error": "timed out"}).encode()]
                break
            chunk = fh.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, _, usage = os.wait4(pid, 0)
    return b"".join(chunks), usage.ru_maxrss / 1024.0


def import_times(n, speed):
    """Seconds to ``import permstab.cli`` in ``n`` fresh interpreters,
    after one untimed import that leaves the bytecode cache warm: at
    reference speed (set by kernel bursts around each interpreter) and in
    wall time."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET.format(src=str(common.SRC))]
    scaled, wall = [], []
    for i in range(n + 1):
        res, factor = speed.around(lambda: subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=60))
        if i:
            t = float(res.stdout.strip().splitlines()[-1])
            scaled.append(t * factor)
            wall.append(t)
    return scaled, wall


def generate(seed, work, pool):
    subprocess.run(
        [sys.executable, str(HERE / "gen_cli.py"), "--seed", str(seed), "--out", str(work),
         "--pool", str(pool)],
        check=True, timeout=120,
    )
    return json.loads((work / "manifest.json").read_text())


def assert_cold():
    filled = common.filled_caches()
    if filled:
        raise RuntimeError(f"cli-cold parent has warm package caches: {sorted(filled)}")


def run(seed, seconds, traced, tiny=False):
    common.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=common.OUT_DIR))
    cwd = os.getcwd()
    try:
        manifest = generate(seed, work, pool=2 if tiny else POOL)
        speed = S.Speed(S.forked_kernel, S.FORKED_REFERENCE_S)
        setup, setup_wall = import_times(IMPORT_REPEATS, speed)
        cli = common.import_package("permstab.cli")
        requests = manifest["requests"]
        stream = common.OpStream(manifest["weights"], {k: len(v) for k, v in requests.items()})
        os.chdir(work)
        rss, traces, busy, checker = [], [], {}, Checker(requests)

        def op(i, traced_pass=False):
            kind, k = stream[i]
            data, child_rss = run_request(cli, requests[kind][k]["argv"], i, traced_pass)
            rss.append(child_rss)
            return data

        def check(i, data, seconds_taken):
            payload = json.loads(data)
            if "trace" in payload:
                traces.append(payload.pop("trace"))
            checker.check(stream[i], payload)
            busy[stream[i][0]] = busy.get(stream[i][0], 0.0) + seconds_taken
            assert_cold()  # before the next fork

        assert_cold()

        if traced:
            n = max(20, TRACE_OPS_PER_S * seconds)
            lat_u = [dt for _, dt in common.run_loop(n, op, check)]
            lat_t = [dt for _, dt in common.run_loop(n, lambda i: op(i, True), check)]
            trace = tracing.merge(traces)
            metrics = tracing.layer_metrics(trace, sum(lat_t) / sum(lat_u))
            tracing.write_spans(common.OUT_DIR / f"spans-cli-cold-seed{seed}.json",
                                {"workload": "cli-cold", "seed": seed}, trace)
            specs, lat, extra = [stream[i] for i in range(n)], None, {}
        else:
            n = common.ops_for(seconds, OPS_PER_S)
            timings = common.run_loop(n, op, check, speed)
            lat, lat_wall = speed.scale(timings)
            specs = [stream[i] for i in range(n)]
            metrics = common.end_to_end(setup, lat, max(rss))
            extra = common.wall_and_speed(setup_wall, lat_wall, speed)
        outcome = checker.outcome
        reqs = [requests[k][i] for k, i in specs]
        degrees = [r["degree"] for r in reqs if "degree" in r]
        traffic = {
            "ops": len(specs),
            "mix": common.count(k for k, _ in specs),
            "group_orders": common.count(r["order"] for r in reqs if "order" in r),
            "degrees": [min(degrees), max(degrees)],
            "dstat_size_bound": 3,
            "time_share": {k: round(v / sum(busy.values()), 3) for k, v in sorted(busy.items())},
        }
        traffic.update(extra)
        return metrics, outcome, traffic, setup, lat
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# oracles: each returns None when the answer is right, else the problem


class Checker:
    """Checks each request's payload as it arrives; ``pairs`` keeps the
    ``dstat`` answers so the reversed request can be compared."""

    def __init__(self, requests):
        self.requests = requests
        self.outcome = common.Outcome()
        self.pairs = {}

    def check(self, spec, payload):
        kind, k = spec
        req = self.requests[kind][k]
        label = kind if kind != "malformed" else f"malformed:{req['expect']['mutation']}"
        if payload.get("code") is None:
            self.outcome.record(label, f"raised {payload.get('error')}")
            return
        if payload["code"] != req["code"]:
            self.outcome.record(label, f"exit {payload['code']}, expected {req['code']}")
            return
        try:
            out = json.loads(payload["report"])["outputs"]
            problem = ORACLES[kind](out, req["expect"], self.pairs)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"unreadable report: {type(exc).__name__}: {exc}"
        self.outcome.record(label, problem, wrong_answer=problem is not None)


def _conjugates(text, h1, h2):
    c = P.parse_cycles(text, len(h1[0]))
    return c if P.conjugates_to(c, [tuple(p) for p in h1], [tuple(p) for p in h2]) else None


def check_trace(out, e, _):
    return None if out["tr"] == e["tr"] else f"tr {out['tr']} != {e['tr']}"


def check_stats(out, e, _):
    return None if out["s"] == e["s"] else f"s {out['s']} != {e['s']}"


def check_mult(out, e, _):
    if out["degree"] != e["degree"]:
        return "wrong degree"
    got = {}
    for row in out["classes"]:
        rep = tuple(row["representative"])
        if row["index"] != e["order"] // len(rep):
            return f"wrong index for class {row['class']}"
        if row["r"] != str(Fraction(row["count"], e["degree"])):
            return f"wrong r for class {row['class']}"
        if row["count"]:
            got[rep] = row["count"]
    want = {tuple(k): v for k, v in e["census"]}
    return None if got == want else "multiplicities differ from the orbit census"


def check_conj(out, e, _):
    if out["conjugate"] != e["conjugate"]:
        return f"conjugate={out['conjugate']}, census says {e['conjugate']}"
    if out["conjugate"] and not _conjugates(out["witness"], e["h1"], e["h2"]):
        return "witness does not conjugate"
    return None


def check_order(out, e, _):
    return None if (out["leq"], out["geq"]) == (e["leq"], e["geq"]) else "wrong order relation"


def check_small_conj(out, e, _):
    c = _conjugates(out["conjugator"], e["h1"], e["h2"])
    if c is None:
        return "conjugator does not conjugate"
    if any(c[i - 1] != i for i in e["agreement"]):
        return "conjugator moves an agreement point"
    dist = Fraction(P.moved(c), len(c))
    if out["distance"] != str(dist) or dist > Fraction(e["bound"]):
        return "distance wrong or above |H| * epsilon"
    if (out["epsilon"], out["bound"], out["agreement_size"]) != (
        e["epsilon"], e["bound"], len(e["agreement"])
    ):
        return "epsilon, bound or agreement size wrong"
    return None


def check_min_conj(out, e, _):
    if out["min_distance"] != e["min_distance"]:
        return f"min distance {out['min_distance']} != brute force {e['min_distance']}"
    c = _conjugates(out["witness"], e["h1"], e["h2"])
    if c is None or Fraction(P.moved(c), len(c)) != Fraction(e["min_distance"]):
        return "witness does not conjugate at the minimum distance"
    return None


def check_extend(out, e, _):
    if not out["found"]:
        return "no extension found, but one exists"
    G = P.Group("G", e["table"])
    ext = [P.parse_cycles(out["extension"][str(g)], e["degree"]) for g in range(G.order)]
    if not P.is_hom(G, ext):
        return "extension is not a homomorphism"
    if any(ext[g] != tuple(p) for g, p in zip(e["members"], e["phi"])):
        return "extension does not restrict to phi"
    return None


def check_complement(out, e, _):
    if out["found"] != e["found"]:
        return f"found={out['found']}, expected {e['found']}"
    if not out["found"]:
        return None
    G, K, H = P.Group("G", e["table"]), set(out["complement"]), set(e["members"])
    ok = (G.is_subgroup(K) and G.is_normal(K) and K & H == {G.identity}
          and len(K) * len(H) == G.order)
    return None if ok else "not a normal complement"


def check_amalgam(out, e, _):
    ok = out["valid"] and out["degree"] == e["degree"] and out.get("relators_ok") == e["relators_ok"]
    return None if ok else "wrong amalgam report"


def check_lift(out, e, _):
    if out["degree"] != e["degree"] or not out["verified"]:
        return "wrong degree or not verified"
    for g, p in enumerate(e["images"]):
        if P.parse_cycles(out["images"][str(g)], e["degree"]) != tuple(p):
            return f"wrong image of element {g}"
    return None


def check_correct(out, e, _):
    a, q = tuple(e["a"]), tuple(e["q"])
    c = P.parse_cycles(out["corrected"], len(a))
    if P.compose(a, c) != P.compose(c, a):
        return "corrected permutation does not commute with the coefficient"
    dist = P.hamming(q, c)
    if out["distance"] != str(dist) or out["input_defect"] != e["input_defect"]:
        return "distance or input defect wrong"
    if "min_distance" in e and dist > Fraction(e["min_distance"]):
        return f"distance {dist} above the brute-force minimum {e['min_distance']}"
    return None


def check_graph(out, e, _):
    ok = (out["vertices"], out["alphabet"], out["edges"]) == (
        e["vertices"], e["alphabet"], e["edges"])
    return None if ok else "graph differs"


def check_dstat(out, e, pairs):
    if e["role"] == "self":
        return None if out["d_stat"] == "0" and not out["per_pattern"] else "nonzero on a self-pair"
    g1 = {k: tuple(v) for k, v in e["g1"].items()}
    g2 = {k: tuple(v) for k, v in e["g2"].items()}
    total = Fraction(0)
    for row in out["per_pattern"]:
        edges = [tuple(x) for x in row["edges"]]
        f1 = P.pattern_frequency(g1, row["vertices"], row["root"], edges)
        f2 = P.pattern_frequency(g2, row["vertices"], row["root"], edges)
        if (str(f1), str(f2)) != (row["f1"], row["f2"]) or f1 == f2:
            return f"pattern {row['index']} frequencies wrong"
        total += Fraction(row["weight"]) * abs(f1 - f2)
    if str(total) != out["d_stat"]:
        return "d_stat is not the weighted sum of its rows"
    mine = (out["d_stat"], sorted((r["index"], r["f1"], r["f2"]) for r in out["per_pattern"]))
    other = pairs.get((e["pair"], "rev" if e["role"] == "fwd" else "fwd"))
    pairs[(e["pair"], e["role"])] = mine
    if other is not None:
        swapped = (other[0], sorted((i, b, a) for i, a, b in other[1]))
        if swapped != mine:
            return "d_stat is not symmetric"
    return None


def check_verify_paper(out, e, _):
    want = e["actual"]
    got = {c["name"]: c for c in out["checks"]}
    if set(got) != set(want):
        return "unexpected set of checks"
    for name, c in got.items():
        if c["actual"] != want[name] or c["pass"] != (c["expected"] == c["actual"]):
            return f"check {name!r} wrong"
    return None if out["all_pass"] == all(c["pass"] for c in got.values()) else "all_pass wrong"


def check_error(out, e, _):
    err = out["error"]
    if err["code"] != e["error"]:
        return f"error {err['code']}, expected {e['error']}"
    if "witness" in e and err.get("witness") != e["witness"]:
        return "wrong witness"
    return None


def check_malformed(out, e, _):
    return None if out["error"]["code"] == "malformed-input" else "not reported as malformed input"


def check_usage(out, e, _):
    return None if out["error"]["code"] == "usage" else "not reported as usage error"


ORACLES = {
    "trace": check_trace,
    "stats": check_stats,
    "mult": check_mult,
    "conj": check_conj,
    "order": check_order,
    "small-conj": check_small_conj,
    "min-conj": check_min_conj,
    "extend": check_extend,
    "complement": check_complement,
    "amalgam": check_amalgam,
    "lift": check_lift,
    "correct": check_correct,
    "graph": check_graph,
    "dstat": check_dstat,
    "verify-paper": check_verify_paper,
    "domain-error": check_error,
    "malformed": check_malformed,
    "usage": check_usage,
}
