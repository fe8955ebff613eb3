"""Seeded input generation for the ``cli-cold`` workload.

Run as its own process, before the timed parent starts, so the parent
never executes package code: ``python3 perfbench/gen_cli.py --seed N
--out DIR [--pool K]``.  It writes the JSON input files into ``DIR`` and a
``manifest.json`` listing, per request kind, the request instances with
their argv, expected exit code and the expected answer (or the plain
data an oracle needs to verify it).  Nothing here imports ``permstab``.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import plain as P

# Share of each request kind in the stream, per 100 requests.
WEIGHTS = {
    "trace": 8,
    "stats": 8,
    "mult": 8,
    "conj": 6,
    "order": 5,
    "small-conj": 6,
    "min-conj": 5,
    "extend": 4,
    "complement": 4,
    "amalgam": 4,
    "lift": 5,
    "correct": 6,
    "graph": 6,
    "dstat": 6,
    "verify-paper": 2,
    "domain-error": 6,
    "malformed": 7,
    "usage": 4,
}
# Bit-reversal order of 0..15: any run of consecutive slots picks groups
# from the whole list, cheap and dear alike.
SPREAD_ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
MUTATIONS = ("truncated", "missing-key", "non-bijective", "wrong-degree", "float", "bool", "string")


def cli_groups():
    c = P._cycle
    return [
        P.group_from_perms("Z2", [c(2, [1, 2])]),
        P.group_from_perms("Z3", [c(3, [1, 2, 3])]),
        P.group_from_perms("Z4", [c(4, [1, 2, 3, 4])]),
        P.group_from_perms("Z6", [c(6, [1, 2, 3, 4, 5, 6])]),
        P.group_from_perms("Z8", [c(8, list(range(1, 9)))]),
        P.group_from_perms("Z12", [c(12, list(range(1, 13)))]),
        P.symmetric(3),
        P.dihedral(4),
        P.dihedral(5),
        P.dihedral(6),
        P.quaternion(),
        P.alternating4(),
        P.symmetric(4),
        P.group_from_perms("S3xS3", [c(6, [1, 2]), c(6, [1, 2, 3]), c(6, [4, 5]), c(6, [4, 5, 6])]),
        P.group_from_perms("Z2xS4", [c(6, [5, 6]), c(6, [1, 2]), c(6, [1, 2, 3, 4])]),
        P.alternating5(),
    ]


class Writer:
    """Writes input files and builds request instances."""

    def __init__(self, out: Path, rng: Random):
        self.out = out
        self.rng = rng
        self.n = 0
        self.group_files = {}

    def file(self, obj, text=None):
        self.n += 1
        name = f"f{self.n}.json"
        (self.out / name).write_text(text if text is not None else json.dumps(obj))
        return name

    def group_obj(self, G, kind):
        if kind == "table":
            return {"kind": "table", "order": G.order, "table": G.table}
        degree = len(G.natural[0])
        return {
            "kind": "perm-gens",
            "degree": degree,
            "generators": [P.cycle_str(G.natural[g]) for g in G.gens],
            "names": [f"g{i}" for i in range(len(G.gens))],
        }

    def group_ref(self, G, kind):
        """A group file path (shared by the homs of one group) or an
        inline group object, alternating."""
        if self.rng.random() < 0.5:
            return self.group_obj(G, kind)
        key = (G.name, kind)
        if key not in self.group_files:
            self.group_files[key] = self.file(self.group_obj(G, kind))
        return self.group_files[key]

    def hom(self, G, kind, h, form="cycle"):
        """Write a homomorphism file; ``h`` gives the image of every
        element id.  Perm-gens files list generator images only."""
        def fmt(p):
            if form == "object":
                return {"degree": len(p), "images": list(p)}
            if form == "one-line":
                return "[" + ",".join(map(str, p)) + "]"
            return P.cycle_str(p)

        if kind == "table":
            images = {str(g): fmt(h[g]) for g in range(G.order)}
        else:
            images = {f"g{i}": fmt(h[g]) for i, g in enumerate(G.gens)}
        return {"group": self.group_ref(G, kind), "degree": len(h[0]), "images": images}


def _source_kind(j):
    return ("table", "perm-gens")[j % 2]


def _fmt(x):
    return str(Fraction(x))


def _hom_images(h):
    return [list(p) for p in h]


def gen_requests(out: Path, seed: int, pool: int):
    rng = Random(seed)
    W = Writer(out, rng)
    groups = cli_groups()
    small = [G for G in groups if G.order <= 7]
    # Sizes and group choices follow fixed grids and each slot's orbit and
    # cycle types are fixed (plain.shape), so every seed has the same mix
    # of heavy and light requests; the seed draws the contents.
    kinds = _source_kind
    reqs = {k: [] for k in WEIGHTS}

    def hom_file(G, kind, h, form="cycle"):
        return W.file(W.hom(G, kind, h, form))

    def elements(G, k):
        return sorted(rng.sample(range(G.order), min(k, G.order)))

    for j in range(pool):
        G = groups[SPREAD_ORDER[j % 16]]
        kind = kinds(j)
        d = P.spread(j, 1, 60, 0.2)
        h = P.random_hom(G, d, rng, P.shape("h", j))
        f = hom_file(G, kind, h, form=("cycle", "one-line")[j % 2])

        # trace
        S = elements(G, rng.randint(1, 3))
        fixed = sum(1 for x in range(1, d + 1) if all(h[g][x - 1] == x for g in S))
        reqs["trace"].append({
            "argv": ["trace", "--hom", f, "--set", ",".join(map(str, S))],
            "order": G.order, "degree": d, "code": 0, "expect": {"tr": _fmt(Fraction(fixed, d))}})

        # stats
        A = elements(G, rng.randint(0, 2))
        B = elements(G, rng.randint(0, 3))
        count = sum(
            1 for x in range(1, d + 1)
            if all(h[g][x - 1] == x for g in A) and all(h[g][x - 1] != x for g in B)
        )
        reqs["stats"].append({
            "argv": ["stats", "--hom", f, "--fixed", ",".join(map(str, A)),
                     "--moved", ",".join(map(str, B))],
            "order": G.order, "degree": d, "code": 0, "expect": {"s": _fmt(Fraction(count, d))}})

        # mult
        cen = P.census(G, h)
        reqs["mult"].append({
            "argv": ["mult", f], "order": G.order, "degree": d, "code": 0,
            "expect": {"degree": d, "order": G.order,
                       "census": [[list(k), v] for k, v in cen.items()]}})

        # conj and order: against a conjugated copy or an independent hom
        G2 = groups[SPREAD_ORDER[(j + 8) % 16]]
        d2 = P.spread(j, 1, 60, 0.4)
        h1 = P.random_hom(G2, d2, rng, P.shape("h1", j))
        h2 = (P.conjugate_hom(h1, P.random_perm(d2, rng)) if j % 2
              else P.random_hom(G2, d2, rng, P.shape("h2", j)))
        k2 = kinds(j + 1)
        f1, f2 = hom_file(G2, k2, h1), hom_file(G2, k2, h2)
        c1, c2 = P.census(G2, h1), P.census(G2, h2)
        reqs["conj"].append({
            "argv": ["conj", f1, f2], "order": G2.order, "degree": d2, "code": 0,
            "expect": {"conjugate": c1 == c2, "h1": _hom_images(h1), "h2": _hom_images(h2)}})
        keys = set(c1) | set(c2)
        reqs["order"].append({
            "argv": ["order", f1, f2], "order": G2.order, "degree": d2, "code": 0,
            "expect": {"leq": all(c1.get(k, 0) <= c2.get(k, 0) for k in keys),
                       "geq": all(c2.get(k, 0) <= c1.get(k, 0) for k in keys)}})

        # small-conj: the criterion-07 recipe on a small group
        Gs = small[j % len(small)]
        n = P.spread(j, 8 * Gs.order, min(14 * Gs.order, 60), 0.6)
        support = P.shape("support", j).randint(0, (n - 1) // (4 * Gs.order))
        a = P.random_hom(Gs, n, rng, P.shape("sc", j))
        b = P.conjugate_hom(a, P.small_support_perm(n, support, rng))
        ks = kinds(j)
        eps = max(P.hamming(x, y) for x, y in zip(a, b))
        agree = [i for i in range(1, n + 1) if all(x[i - 1] == y[i - 1] for x, y in zip(a, b))]
        reqs["small-conj"].append({
            "argv": ["small-conj", hom_file(Gs, ks, a), hom_file(Gs, ks, b)],
            "order": Gs.order, "degree": n, "code": 0,
            "expect": {"epsilon": _fmt(eps), "bound": _fmt(Gs.order * eps),
                       "agreement": agree, "h1": _hom_images(a), "h2": _hom_images(b)}})

        # min-conj at degree 4..8
        up_to_12 = [G for G in groups if G.order <= 12]
        Gm = up_to_12[P.spread(j, 0, len(up_to_12) - 1, 0.7)]
        n = P.spread(j, 4, 8, 0.8)
        a = P.random_hom(Gm, n, rng, P.shape("mc", j))
        b = P.conjugate_hom(a, P.random_perm(n, rng))
        km = kinds(j + 1)
        reqs["min-conj"].append({
            "argv": ["min-conj", hom_file(Gm, km, a), hom_file(Gm, km, b)],
            "order": Gm.order, "degree": n, "code": 0,
            "expect": {"min_distance": _fmt(Fraction(P.min_conjugator_moved(a, b), n)),
                       "h1": _hom_images(a), "h2": _hom_images(b)}})

        reqs["extend"].append(gen_extend(W, rng, j, groups))
        reqs["amalgam"].append(gen_amalgam(W, rng, j))
        reqs["lift"].append(gen_lift(W, rng, j, groups))
        reqs["correct"].append(gen_correct(rng, j))
        reqs["graph"].append(gen_graph(W, rng, j))

    reqs["complement"] = gen_complements(W, groups)
    reqs["dstat"] = gen_dstat(W, rng, pool)
    reqs["verify-paper"] = [gen_verify_paper()]
    reqs["domain-error"] = gen_domain(W, rng, groups, small)
    reqs["malformed"] = gen_malformed(W, rng, groups)
    reqs["usage"] = gen_usage(W, rng, groups)
    return reqs


def gen_extend(W, rng, j, groups):
    choices = [G for G in groups if G.name in ("S3", "D4", "Q8", "A4", "S4")]
    G = choices[P.spread(j, 0, len(choices) - 1, 0.9)]
    n = P.spread(j, 4, 8, 0.15)
    pick = P.shape("ext", j)
    while True:
        seed = pick.sample(range(G.order), pick.randint(1, 2))
        H = sorted(G.closure(seed))
        if 1 < len(H) < G.order:
            break
    psi = P.random_hom(G, n, rng, pick)
    pos = {g: i for i, g in enumerate(H)}
    Htable = [[pos[G.table[a][b]] for b in H] for a in H]
    phi = {"group": {"kind": "table", "order": len(H), "table": Htable},
           "degree": n, "images": {str(i): P.cycle_str(psi[g]) for i, g in enumerate(H)}}
    kind = _source_kind(j)
    return {
        "argv": ["extend", W.file(W.group_obj(G, kind)), W.file({"members": H}), W.file(phi)],
        "order": G.order, "degree": n, "code": 0,
        "expect": {"degree": n, "table": G.table, "members": H,
                   "phi": [list(psi[g]) for g in H]}}


def gen_complements(W, groups):
    by = {G.name: G for G in groups}

    def fixing(G, pts):
        return [g for g in range(G.order) if all(G.natural[g][p - 1] == p for p in pts)]

    def gen_by(G, *elts):
        return sorted(G.closure([G.natural.index(e) for e in elts]))

    c = P._cycle
    cases = [
        ("S3xS3", fixing(by["S3xS3"], [4, 5, 6]), True),
        ("Z2xS4", fixing(by["Z2xS4"], [5, 6]), True),
        ("S4", fixing(by["S4"], [4]), True),
        ("D4", gen_by(by["D4"], (1, 4, 3, 2)), True),
        ("Q8", [g for g in range(8) if by["Q8"].element_order(g) <= 2], False),
        ("Z8", gen_by(by["Z8"], P.power(c(8, list(range(1, 9))), 4)), False),
        ("S4", gen_by(by["S4"], c(4, [1, 2, 3]), c(4, [1, 2, 4])), False),
        ("A5", fixing(by["A5"], [5]), False),
    ]
    out = []
    for i, (name, H, found) in enumerate(cases):
        G = by[name]
        kind = _source_kind(i)
        out.append({
            "argv": ["complement", W.file(W.group_obj(G, kind)), W.file({"members": H})],
            "order": G.order, "code": 0,
            "expect": {"found": found, "table": G.table, "members": H}})
    return out


def _amalgam_pair(rng, n):
    """Images of s (order dividing 4) and t (order dividing 6) with
    s^2 == t^3, conjugated by a random permutation."""
    pts = list(range(1, n + 1))
    rng.shuffle(pts)
    s = list(range(1, n + 1))
    i = 0
    while i < n:
        ln = rng.choice([1, 2, 4]) if n - i >= 4 else 1
        cyc = pts[i:i + ln]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            s[a - 1] = b
        i += ln
    s = tuple(s)
    s2 = P.compose(s, s)
    free = [x for x in range(1, n + 1) if s2[x - 1] == x]
    rng.shuffle(free)
    t = list(s2)
    for k in range(0, len(free) - 2, 3):
        if rng.random() < 0.6:
            a, b, c = free[k:k + 3]
            t[a - 1], t[b - 1], t[c - 1] = b, c, a
    return s, tuple(t)


def gen_amalgam(W, rng, j):
    n = P.spread(j, 4, 40, 0.25)
    s, t = _amalgam_pair(rng, n)
    z4 = {"kind": "presentation", "generators": ["s"], "relators": ["s^4"]}
    z6 = {"kind": "presentation", "generators": ["t"], "relators": ["t^6"]}
    relators = ["s^4", "t^6", "s^2 t^-3"] + (["s^2"] if j % 3 == 0 else [])
    ok = all(P.eval_word(r, {"s": s, "t": t}) == P.identity(n) for r in relators)
    return {
        "argv": ["amalgam",
                 W.file({"group": z4, "degree": n, "images": {"s": P.cycle_str(s)}}),
                 W.file({"group": z6, "degree": n, "images": {"t": P.cycle_str(t)}}),
                 "--h-map", W.file({"pairs": [["s^2", "t^3"]], "relators": relators})],
        "degree": n, "code": 0, "expect": {"degree": n, "relators_ok": ok}}


def gen_lift(W, rng, j, groups):
    choices = [G for G in groups if G.order <= 12]
    G = choices[P.spread(j, 0, len(choices) - 1, 0.35)]
    kind = _source_kind(j)
    pick = P.shape("lift", j)
    psi = P.random_hom(G, P.spread(j, 2, 8, 0.45), rng, pick)
    eta = P.random_hom(G, pick.randint(1, 10), rng, pick)
    copies = j % 5
    lifted = []
    for g in range(G.order):
        p = ()
        for _ in range(copies):
            p = p + tuple(x + len(p) for x in psi[g])
        lifted.append(p + tuple(x + len(p) for x in eta[g]))
    return {
        "argv": ["lift", W.file(W.hom(G, kind, psi)), W.file(W.hom(G, kind, eta)),
                 "--copies", str(copies)],
        "order": G.order, "degree": len(lifted[0]), "code": 0,
        "expect": {"degree": len(lifted[0]), "images": _hom_images(lifted)}}


def gen_correct(rng, j):
    exact = j % 2 == 0
    n = P.spread(j, 4, 8, 0.55) if exact else P.spread(j, 9, 60, 0.55)
    pick = P.shape("correct", j)
    a = P.conjugate(P.random_perm(n, rng), P.random_perm(n, pick))
    c = P.power(a, pick.randint(0, n))
    q = c
    for _ in range(rng.randint(1, 2)):
        x, y = rng.sample(range(1, n + 1), 2)
        q = P.compose(P._cycle(n, [x, y]), q)
    comm = P.compose(P.compose(a, q), P.compose(P.inverse(a), P.inverse(q)))
    expect = {"a": list(a), "q": list(q), "input_defect": _fmt(P.hamming(comm, P.identity(n)))}
    if exact:
        expect["min_distance"] = _fmt(P.centralizer_min_distance(a, q))
    return {
        "argv": ["correct", "--coef", P.cycle_str(a), "--almost",
                 "[" + ",".join(map(str, q)) + "]", "--degree", str(n),
                 "--mode", "exact" if exact else "heuristic"],
        "degree": n, "code": 0, "expect": expect}


def _free_hom(rng, names, n, form="cycle"):
    perms = {x: P.random_perm(n, rng) for x in names}
    fmt = (lambda p: {"degree": n, "images": list(p)}) if form == "object" else P.cycle_str
    obj = {"group": {"kind": "presentation", "generators": list(names)},
           "degree": n, "images": {x: fmt(p) for x, p in perms.items()}}
    return obj, perms


def gen_graph(W, rng, j):
    names = ("x", "y", "z")[: 1 + j % 3]
    n = P.spread(j, 1, 60, 0.65)
    obj, perms = _free_hom(rng, names, n)
    edges = sorted([v, perms[x][v - 1], x] for x in names for v in range(1, n + 1))
    return {"argv": ["graph", W.file(obj)], "degree": n, "code": 0,
            "expect": {"vertices": n, "alphabet": list(names), "edges": edges}}


def gen_dstat(W, rng, pool):
    """Pairs of two-letter action graphs, each asked in both orders and
    against itself, at ``--size-bound 3``."""
    out = []
    for j in range(max(1, pool // 3)):
        n = P.spread(j, 6, 30, 0.75)
        o1, p1 = _free_hom(rng, ("x", "y"), n)
        o2, p2 = _free_hom(rng, ("x", "y"), n)
        f1, f2 = W.file(o1), W.file(o2)
        g1 = {k: list(v) for k, v in p1.items()}
        g2 = {k: list(v) for k, v in p2.items()}
        for role, a, b, ga, gb in (("fwd", f1, f2, g1, g2), ("self", f1, f1, g1, g1),
                                   ("rev", f2, f1, g2, g1)):
            out.append({"argv": ["dstat", a, b, "--size-bound", "3"], "degree": n, "code": 0,
                        "expect": {"pair": j, "role": role, "g1": ga, "g2": gb}})
    return out


def gen_verify_paper():
    """The report's ``actual`` values, recomputed from the fixtures'
    definitions: the Klein pair, the block cycles and the swapped pair."""
    exp = {}
    t1 = {2: (2, 1, 4, 3, 5, 6), 1: (2, 1, 3, 4, 6, 5), 3: (1, 2, 4, 3, 6, 5)}
    t2 = {2: (2, 1, 4, 3, 5, 6), 1: (3, 4, 1, 2, 5, 6), 3: (4, 3, 2, 1, 5, 6)}

    def tr(h, S):
        return _fmt(Fraction(sum(1 for x in range(1, 7) if all(h[g][x - 1] == x for g in S)), 6))

    for label, h in (("theta1", t1), ("theta2", t2)):
        for g in (2, 1, 3):
            exp[f"trace {label} element {g}"] = tr(h, [g])
        exp[f"trace {label} {{a,b}}"] = tr(h, [2, 1])

    def block_a(k):
        return tuple(b * k + (i % k) + 1 for b in range(k) for i in range(1, k + 1))

    def block_b(k):
        images = list(range(1, k * k + 1))
        for b in range(k):
            pts = list(range(b * k + 1, b * k + k))
            for i, p in enumerate(pts):
                images[p - 1] = pts[(i + 1) % len(pts)]
        last = [b * k for b in range(1, k + 1)]
        for i, p in enumerate(last):
            images[p - 1] = last[(i + 1) % len(last)]
        return tuple(images)

    for k in range(2, 7):
        exp[f"hamming distance k={k}"] = _fmt(P.hamming(block_a(k), block_b(k)))
    a, b = block_a(2), block_b(2)
    x = a + tuple(v + 4 for v in b)
    y = b + tuple(v + 4 for v in a)
    m = P.order(x)
    hx = [P.power(x, g) for g in range(m)]
    hy = [P.power(y, g) for g in range(m)]
    exp["min conjugator distance, swapped pair k=2"] = _fmt(
        Fraction(P.min_conjugator_moved(hx, hy), 8))
    exp["theta1, theta2 conjugate"] = False
    exp["modular amalgam relators"] = True
    exp["mismatched amalgam rejected with witness"] = ["s^2", "t^3"]
    return {"argv": ["verify-paper"], "code": 0, "expect": {"actual": exp}}


def gen_domain(W, rng, groups, small):
    """Requests the package must refuse with exit 2 and a named error."""
    out = []
    G = small[0]
    # a pair with different orbit censuses is not conjugate: any action but
    # the trivial one against the trivial one
    b = [P.identity(8) for _ in range(G.order)]
    for k in range(100):
        a = P.random_hom(G, 8, rng, P.shape("domain", k))
        if a != b:
            break
    out.append({"argv": ["small-conj", W.file(W.hom(G, "table", a)), W.file(W.hom(G, "table", b))],
                "code": 2, "expect": {"error": "NotConjugateError"}})
    h = P.random_hom(G, 10, rng)
    out.append({"argv": ["min-conj", W.file(W.hom(G, "perm-gens", h)),
                         W.file(W.hom(G, "perm-gens", P.conjugate_hom(h, P.random_perm(10, rng))))],
                "code": 2, "expect": {"error": "BoundExceededError"}})
    # s^2 = (1 3)(2 4) but t^3 = (1 2): the common subgroup disagrees
    out.append({"argv": ["amalgam",
                         W.file({"group": {"kind": "presentation", "generators": ["s"]},
                                 "degree": 6, "images": {"s": "(1 2 3 4)"}}),
                         W.file({"group": {"kind": "presentation", "generators": ["t"]},
                                 "degree": 6, "images": {"t": "(1 2)(5 6)"}}),
                         "--h-map", W.file({"pairs": [["s^2", "t^3"]]})],
                "code": 2, "expect": {"error": "AmalgamMismatchError", "witness": ["s^2", "t^3"]}})
    out.append({"argv": ["correct", "--coef", "(1 2 3)", "--almost", "(4 5)", "--degree", "10"],
                "code": 2, "expect": {"error": "BoundExceededError"}})
    G2 = groups[2]
    out.append({"argv": ["conj", W.file(W.hom(G2, "table", P.random_hom(G2, 5, rng))),
                         W.file(W.hom(G2, "table", P.random_hom(G2, 7, rng)))],
                "code": 2, "expect": {"error": "SourceMismatchError"}})
    out.append({"argv": ["lift", W.file(W.hom(G, "table", P.random_hom(G, 3, rng))),
                         W.file(W.hom(G2, "table", P.random_hom(G2, 3, rng))), "--copies", "2"],
                "code": 2, "expect": {"error": "SourceMismatchError"}})
    return out


def _mutate(obj, how, rng):
    """One malformed variant of a homomorphism file whose images are
    permutation objects.  Returns the file text."""
    obj = json.loads(json.dumps(obj))
    name = sorted(obj["images"])[0]
    img = obj["images"][name]["images"]
    if how == "truncated":
        text = json.dumps(obj)
        return text[: len(text) // 2]
    if how == "missing-key":
        del obj["images"]
    elif how == "non-bijective":
        img[0] = img[-1] if len(img) > 1 else 2
    elif how == "wrong-degree":
        obj["images"][name]["degree"] = len(img) + 1
    elif how == "float":
        k = rng.randrange(len(img))
        img[k] = float(img[k])
    elif how == "bool":
        img[img.index(1)] = True
    elif how == "string":
        k = rng.randrange(len(img))
        img[k] = str(img[k])
    return json.dumps(obj)


def gen_malformed(W, rng, groups):
    """Mutations of valid files; each must be refused with exit 65."""
    out = []
    G = groups[6]  # S3
    for r in range(2):
        for i, how in enumerate(MUTATIONS):
            cmd = ("trace", "graph", "mult")[(i + r) % 3]
            if cmd == "graph":
                base, _ = _free_hom(rng, ("x", "y"), rng.randint(3, 12), form="object")
                argv = ["graph"]
            else:
                h = P.random_hom(G, rng.randint(3, 12), rng)
                base = W.hom(G, _source_kind(r), h, form="object")
                argv = ["trace", "--hom"] if cmd == "trace" else ["mult"]
            f = W.file(None, text=_mutate(base, how, rng))
            argv = argv + [f] + (["--set", "1"] if cmd == "trace" else [])
            out.append({"argv": argv, "code": 65, "expect": {"mutation": how}})
    return out


def gen_usage(W, rng, groups):
    G = groups[0]
    f = W.file(W.hom(G, "table", P.random_hom(G, 4, rng)))
    return [
        {"argv": ["frobnicate", f], "code": 64, "expect": {}},
        {"argv": ["trace", "--hom", f], "code": 64, "expect": {}},
        {"argv": ["lift", f, f, "--copies", "two"], "code": 64, "expect": {}},
        {"argv": [], "code": 64, "expect": {}},
        {"argv": ["dstat", f, f, "--size-bound", "three"], "code": 64, "expect": {}},
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pool", type=int, default=16)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reqs = gen_requests(out, args.seed, args.pool)
    (out / "manifest.json").write_text(json.dumps({"weights": WEIGHTS, "requests": reqs}))


if __name__ == "__main__":
    main()
