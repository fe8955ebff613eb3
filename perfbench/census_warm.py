"""The ``census-warm`` workload: one long library session over the orbit
census.

Set-up builds the group zoo and every subgroup lattice, so each op runs
warm: ``multiplicity_vector`` of a random homomorphism, ``is_conjugate``
against a conjugated copy and against an independent random
homomorphism of the same degree, and ``small_conjugator`` on a close
pair built by the criterion-07 recipe.
"""

from __future__ import annotations

from random import Random

import common
import plain as P
import zoo

# Distinct ops, cycled.  Each slot's cost is a point of the latency
# distribution, so the pool must be large enough that many slots lie near
# p95.  S5, whose ops cost several times any other's, takes one slot in a
# hundred: few enough that p95 falls among the other groups' ops.
POOL = 400
S5_EVERY = 100
TINY_ZOO = ("Z2", "Z3", "S3", "Z2xZ2")
# Ops per second of --seconds: about what a second holds at reference speed.
OPS_PER_S = 250
# Ops per traced run and second of --seconds (run untraced, then traced).
TRACE_OPS_PER_S = 60


class Census:
    def __init__(self, tiny=False):
        self.ps = common.import_package()
        self.names = TINY_ZOO if tiny else tuple(zoo.ZOO)
        self.pool = 8 if tiny else POOL
        self.plain = zoo.plain_zoo(self.names)

    def generate(self, seed):
        """Plain homomorphisms with their orbit censuses.  Degrees follow a
        fixed grid over 1..60 and each slot's orbit types are fixed
        (``plain.shape``); the seed draws the labels."""
        rng = Random(seed)
        small = [n for n in self.names if 2 <= self.plain[n].order <= 7]
        rest = [n for n in self.names if n != "S5"]
        ops = []
        for j in range(self.pool):
            dear = "S5" in self.names and j % S5_EVERY == S5_EVERY - 1
            name = "S5" if dear else rest[j % len(rest)]
            G = self.plain[name]
            d = P.spread(j, 1, 60)
            h = P.random_hom(G, d, rng, P.shape("h", j))
            hc = P.conjugate_hom(h, P.random_perm(d, rng))
            hi = P.random_hom(G, d, rng, P.shape("hi", j))
            sname = small[j % len(small)]
            Gs = self.plain[sname]
            n = P.spread(j, 8 * Gs.order, min(14 * Gs.order, 60), 0.5)
            support = P.shape("support", j).randint(0, (n - 1) // (4 * Gs.order))
            c1 = P.random_hom(Gs, n, rng, P.shape("c1", j))
            c2 = P.conjugate_hom(c1, P.small_support_perm(n, support, rng))
            ops.append({
                "group": name, "h": h, "hc": hc, "hi": hi,
                "census": P.census(G, h), "census_i": P.census(G, hi),
                "small": sname, "c1": c1, "c2": c2,
            })
        return ops

    def setup_steps(self):
        """The zoo, then each group's subgroup lattice, as one step each."""
        groups = {}

        def build():
            groups.update(zoo.build(self.ps, self.names))
            return groups

        def lattice(name):
            self.ps.subgroup_conjugacy_classes(groups[name])
            return groups

        return [build] + [lambda name=name: lattice(name) for name in self.names]

    def prepare(self, groups, inputs):
        ps = self.ps
        zoo.check_same(groups, self.plain)
        # class id -> class key, read once from the warm lattices
        self.keys = {
            name: [min(tuple(sorted(s)) for s in c) for c in
                   ps.subgroup_conjugacy_classes(G).classes]
            for name, G in groups.items()
        }

        def hom(name, images):
            return ps.PermHomomorphism(
                groups[name], len(images[0]), tuple(ps.Permutation(p) for p in images))

        return [
            (o, hom(o["group"], o["h"]), hom(o["group"], o["hc"]), hom(o["group"], o["hi"]),
             hom(o["small"], o["c1"]), hom(o["small"], o["c2"]))
            for o in inputs
        ]

    def op(self, ops, i):
        ps = self.ps
        _, h, hc, hi, c1, c2 = ops[i % len(ops)]
        return (
            ps.multiplicity_vector(h),
            ps.is_conjugate(h, hc),
            ps.is_conjugate(h, hi),
            ps.small_conjugator(c1, c2),
        )

    def check(self, groups, ops, i, result):
        o = ops[i % len(ops)][0]
        mv, (ok1, w1), (ok2, w2), p = result
        keys = self.keys[o["group"]]
        got = {keys[cid]: c for cid, c in enumerate(mv.counts) if c}
        if mv.degree != len(o["h"][0]) or got != o["census"]:
            return "census", "multiplicity vector differs from the orbit census"
        if not ok1 or not P.conjugates_to(w1.images, o["h"], o["hc"]):
            return "census", "conjugated copy not shown conjugate"
        if ok2 != (o["census"] == o["census_i"]):
            return "census", "conjugacy verdict differs from the censuses"
        if ok2 and not P.conjugates_to(w2.images, o["h"], o["hi"]):
            return "census", "witness does not conjugate"
        c1, c2, q = o["c1"], o["c2"], p.images
        n = len(q)
        agree = [x for x in range(1, n + 1) if all(a[x - 1] == b[x - 1] for a, b in zip(c1, c2))]
        eps = max(P.hamming(a, b) for a, b in zip(c1, c2))
        if not P.conjugates_to(q, c1, c2) or any(q[x - 1] != x for x in agree):
            return "census", "small conjugator does not conjugate or moves an agreement point"
        if P.hamming(q, P.identity(n)) > self.plain[o["small"]].order * eps:
            return "census", "small conjugator above |H| * epsilon"
        return "census", None

    def traffic(self, ops, count):
        degrees = [len(o["h"][0]) for o, *_ in ops]
        return {
            "ops": count,
            "mix": {"multiplicity_vector + 2 is_conjugate + small_conjugator": count},
            "group_orders": common.count(self.plain[o["group"]].order for o, *_ in ops),
            "degrees": [min(degrees), max(degrees)],
            "close_pair_degrees": [min(len(o["c1"][0]) for o, *_ in ops),
                                   max(len(o["c1"][0]) for o, *_ in ops)],
            "pool": len(ops),
        }


def run(seed, seconds, traced, tiny=False):
    return common.run_warm("census-warm", seed, seconds, traced, Census(tiny), OPS_PER_S,
                            TRACE_OPS_PER_S)
