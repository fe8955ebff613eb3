"""The ``stats-warm`` workload: one library session over trace statistics
and action-graph pattern frequencies.

Set-up builds the group zoo's tables and enumerates the rooted patterns
of the two-letter alphabet up to four vertices.  The ops are a seeded,
fixed mix of two kinds sized to take about half of the timed work each:
inclusion-exclusion (``s_from_tr`` against ``bs_statistic`` in the
criterion-03 shape and with moved sets of 8-10 elements, plus
``statistic_table``/``tr_from_s`` round trips over universes of 4-6
elements) and ``stat_distance_details`` at bound 4 between random
two-letter action graphs of degree 20-60.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import common
import plain as P
import zoo

SIZE_BOUND = 4
ALPHABET = ("x", "y")
# Ops per cycle of the stream.  One pattern-distance op balances the
# inclusion-exclusion ops in time.  Each kind is one cluster of latencies,
# and the shares put p50 inside the cheapest cluster and p95 near the
# middle of the dearest one, never in a gap between clusters, where a
# small shift in speed would move them far.
WEIGHTS = {"ie-small": 300, "roundtrip": 86, "ie-moved": 43, "dstat": 1}
MOVED_SIZES = (8, 9, 10)  # one ie-moved op asks all three
UNIVERSE_SIZES = (4, 5, 6)  # one round-trip op covers all three
POOLS = {"ie-small": 300, "ie-moved": 120, "roundtrip": 120, "dstat": 12}
TINY = ("Z2", "Z3", "S3", "Z12")
ROWS_CHECKED = 8  # rows and zero rows re-counted per distance op
# Ops per second of --seconds: about what a second holds at reference speed.
OPS_PER_S = 240
# Ops per traced run and second of --seconds (run untraced, then traced).
TRACE_OPS_PER_S = 200


def _count_fixed_moved(h, d, A, B):
    return sum(
        1 for x in range(1, d + 1)
        if all(h[g][x - 1] == x for g in A) and all(h[g][x - 1] != x for g in B)
    )


class Stats:
    def __init__(self, tiny=False):
        self.ps = common.import_package()
        self.tiny = tiny
        self.names = TINY if tiny else tuple(zoo.ZOO)
        self.plain = zoo.plain_zoo(self.names)
        self.bound = 2 if tiny else SIZE_BOUND
        self.pools = {k: 2 for k in POOLS} if tiny else POOLS
        self.stream = common.OpStream({k: 1 for k in WEIGHTS} if tiny else WEIGHTS, self.pools)

    def generate(self, seed):
        """Plain inputs with expected values.  Sizes follow fixed grids and
        each slot's orbit types and query shapes are fixed (``plain.shape``);
        the seed draws the labels and elements."""
        rng = Random(seed)
        names = self.names
        big = [n for n in names if self.plain[n].order >= 12]
        out = {k: [] for k in POOLS}
        for j in range(self.pools["ie-small"]):  # the criterion-03 shape
            name = names[j % len(names)]
            G = self.plain[name]
            d = P.spread(j, 1, 20)
            pick = P.shape("ie-small", j)
            h = P.random_hom(G, d, rng, pick)
            queries = []
            for _ in range(20):
                flags = [(pick.random() < 0.6, pick.random() < 0.6)
                         for _ in range(min(pick.randint(0, 4), G.order))]
                U = rng.sample(range(G.order), len(flags))
                A = [u for u, (fa, _) in zip(U, flags) if fa]
                B = [u for u, (_, fb) in zip(U, flags) if fb]
                queries.append((A, B, Fraction(_count_fixed_moved(h, d, A, B), d)))
            out["ie-small"].append({"group": name, "h": h, "queries": queries})
        for j in range(self.pools["ie-moved"]):
            name = big[j % len(big)]
            G = self.plain[name]
            d = P.spread(j, 20, 60)
            h = P.random_hom(G, d, rng, P.shape("ie-moved", j))
            queries = []
            for size in MOVED_SIZES:
                elts = rng.sample(range(G.order), min(G.order, size + j % 3))
                A, B = elts[size:], elts[:size]
                queries.append((A, B, Fraction(_count_fixed_moved(h, d, A, B), d)))
            out["ie-moved"].append({"group": name, "h": h, "queries": queries})
        for j in range(self.pools["roundtrip"]):
            name = big[j % len(big)] if not self.tiny else names[j % len(names)]
            G = self.plain[name]
            d = P.spread(j, 1, 60)
            h = P.random_hom(G, d, rng, P.shape("roundtrip", j))
            universes = []
            for size in UNIVERSE_SIZES:
                F = sorted(rng.sample(range(G.order), min(G.order, size)))
                subsets = [T for k in range(len(F) + 1) for T in combinations(F, k)]
                table = {T: Fraction(_count_fixed_moved(h, d, T, [x for x in F if x not in T]), d)
                         for T in subsets}
                trace = {T: Fraction(_count_fixed_moved(h, d, T, []), d) for T in subsets}
                universes.append((F, table, trace))
            out["roundtrip"].append({"group": name, "h": h, "universes": universes})
        for j in range(self.pools["dstat"]):
            n = P.spread(j, 20, 60)
            out["dstat"].append({
                "g1": {x: P.random_perm(n, rng) for x in ALPHABET},
                "g2": {x: P.random_perm(n, rng) for x in ALPHABET},
                "sample": rng.random(),
            })
        return out

    def setup_steps(self):
        groups = {}

        def build():
            groups.update(zoo.build(self.ps, self.names))
            return groups

        def patterns():
            self.ps.enumerate_patterns(ALPHABET, self.bound)
            return groups

        return [build, patterns]

    def prepare(self, groups, inputs):
        ps = self.ps
        zoo.check_same(groups, self.plain)
        self.patterns = [
            (pat.n, pat.root, [(u, v, pat.alphabet[lab]) for u, v, lab in pat.edges])
            for pat, _w in ps.enumerate_patterns(ALPHABET, self.bound)
        ]
        free = ps.FpGroup(ALPHABET)

        def hom(name, images):
            return ps.PermHomomorphism(
                groups[name], len(images[0]), tuple(ps.Permutation(p) for p in images))

        def graph(perms):
            n = len(perms["x"])
            return ps.action_graph(ps.PermHomomorphism(
                free, n, tuple(ps.Permutation(perms[x]) for x in ALPHABET)))

        ops = {}
        for kind, pool in inputs.items():
            if kind == "dstat":
                ops[kind] = [(o, graph(o["g1"]), graph(o["g2"])) for o in pool]
            else:
                ops[kind] = [(o, hom(o["group"], o["h"])) for o in pool]
        return ops

    def op(self, ops, i):
        ps = self.ps
        kind, k = self.stream[i]
        entry = ops[kind][k]
        if kind == "dstat":
            _, g1, g2 = entry
            return ps.graphs.stat_distance_details(g1, g2, self.bound)
        o, h = entry
        if kind == "roundtrip":
            out = []
            for F, _, _ in o["universes"]:
                table = ps.trace_stats.statistic_table(h, F)
                out.append((table, ps.tr_from_s(table, F)))
            return out
        tr = ps.trace_stats.get_trace(h)
        return [(ps.s_from_tr(tr, A, B), ps.bs_statistic(h, A, B)) for A, B, _ in o["queries"]]

    def check(self, groups, ops, i, result):
        kind, k = self.stream[i]
        o = ops[kind][k][0]
        if kind in ("ie-small", "ie-moved"):
            for (A, B, want), (s, bs) in zip(o["queries"], result):
                if s != want or bs != want:
                    return kind, f"S(A,B) for A={A} B={B}: {s}, {bs} != {want}"
            return kind, None
        if kind == "roundtrip":
            for (_, want_table, want_trace), (table, back) in zip(o["universes"], result):
                if any(table.get(frozenset(T)) != v for T, v in want_table.items()):
                    return kind, "statistic table differs from the plain count"
                if any(back.get(frozenset(T)) != v for T, v in want_trace.items()):
                    return kind, "tr_from_s differs from the plain trace"
            return kind, None
        return kind, self._check_distance(o, result)

    def _check_distance(self, o, result):
        total, rows = result
        g1 = {x: tuple(p) for x, p in o["g1"].items()}
        g2 = {x: tuple(p) for x, p in o["g2"].items()}
        if sum((Fraction(r["weight"]) * abs(Fraction(r["f1"]) - Fraction(r["f2"])) for r in rows),
               Fraction(0)) != total:
            return "d_stat is not the weighted sum of its rows"
        rng = Random(o["sample"])
        listed = {r["index"] for r in rows}
        for r in rng.sample(rows, min(ROWS_CHECKED, len(rows))):
            n, root, edges = self.patterns[r["index"] - 1]
            f1 = P.pattern_frequency(g1, n, root, edges)
            f2 = P.pattern_frequency(g2, n, root, edges)
            if (str(f1), str(f2)) != (r["f1"], r["f2"]):
                return f"pattern {r['index']}: frequencies differ from the plain count"
        zeros = [j for j in range(1, len(self.patterns) + 1) if j not in listed]
        for j in rng.sample(zeros, min(ROWS_CHECKED, len(zeros))):
            n, root, edges = self.patterns[j - 1]
            if P.pattern_frequency(g1, n, root, edges) != P.pattern_frequency(g2, n, root, edges):
                return f"pattern {j} differs between the graphs but has no row"
        return None

    def traffic(self, ops, count):
        kinds = [self.stream[i][0] for i in range(count)]
        return {
            "ops": count,
            "mix": common.count(kinds),
            "group_orders": common.count(self.plain[o["group"]].order
                                         for k in ("ie-small", "ie-moved", "roundtrip")
                                         for o, _ in ops[k]),
            "moved_set_sizes": common.count(len(q[1]) for o, _ in ops["ie-moved"]
                                            for q in o["queries"]),
            "universe_sizes": common.count(len(F) for o, _ in ops["roundtrip"]
                                           for F, _, _ in o["universes"]),
            "graph_degrees": sorted({len(o["g1"]["x"]) for o, *_ in ops["dstat"]}),
            "pattern_bound": self.bound,
            "patterns": len(self.patterns),
        }


def run(seed, seconds, traced, tiny=False):
    return common.run_warm("stats-warm", seed, seconds, traced, Stats(tiny), OPS_PER_S,
                            TRACE_OPS_PER_S)
