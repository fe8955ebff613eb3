"""Independent plain-tuple arithmetic for input generation and oracles.

Nothing here imports ``permstab``: generators and oracles must not call
the code they check, and the ``cli-cold`` parent must not warm any of the
package's caches.  Permutations are 1-based one-line tuples and compose
like the package, ``compose(p, q)(i) == p(q(i))``.  Groups are plain
multiplication tables whose element ids follow the package's conventions,
so ids written into input files mean the same thing to both sides.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as iperms
from random import Random

PHI = (5 ** 0.5 - 1) / 2


# ---------------------------------------------------------------------------
# permutations


def compose(p, q):
    return tuple(p[x - 1] for x in q)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p, 1):
        out[x - 1] = i
    return tuple(out)


def identity(n):
    return tuple(range(1, n + 1))


def conjugate(c, p):
    """``c p c^-1``."""
    return compose(compose(c, p), inverse(c))


def moved(p):
    return sum(1 for i, x in enumerate(p, 1) if i != x)


def hamming(p, q):
    if not p:
        return Fraction(0)
    return Fraction(sum(1 for a, b in zip(p, q) if a != b), len(p))


def power(p, k):
    if k < 0:
        p, k = inverse(p), -k
    out = identity(len(p))
    for _ in range(k):
        out = compose(out, p)
    return out


def order(p):
    from math import lcm

    seen, out = set(), 1
    for i in range(1, len(p) + 1):
        if i in seen:
            continue
        k, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j - 1]
            k += 1
        out = lcm(out, k)
    return out


def cycle_str(p):
    """Cycle notation in the package's format: least point first, fixed
    points omitted, ``()`` for the identity."""
    seen, parts = set(), []
    for i in range(1, len(p) + 1):
        if i in seen or p[i - 1] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = p[j - 1]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text, n):
    images = list(range(1, n + 1))
    for body in text.replace(")", "").split("(")[1:]:
        pts = [int(t) for t in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return tuple(images)


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def small_support_perm(n, support, rng):
    pts = rng.sample(range(1, n + 1), min(support, n))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    images = list(range(1, n + 1))
    for src, dst in zip(pts, shuffled):
        images[src - 1] = dst
    return tuple(images)


def spread(i, lo, hi, offset=0.0):
    """The i-th point of a golden-ratio sequence over ``lo..hi``: every
    prefix of the sequence covers the range evenly, so a run that stops
    early still sees the same mix of sizes."""
    u = (offset + i * PHI) % 1.0
    return lo + int(u * (hi - lo + 1))


# ---------------------------------------------------------------------------
# groups as multiplication tables


class Group:
    """A finite group by table, optionally with a faithful permutation
    representation (``natural[g]`` is the permutation of element ``g``)."""

    def __init__(self, name, table, natural=None, gens=()):
        self.name = name
        self.table = table
        self.order = len(table)
        self.natural = natural
        self.gens = tuple(gens)  # element ids of the file's generators
        self.identity = next(
            e for e in range(self.order) if all(table[e][x] == x for x in range(self.order))
        )
        self.inv = [
            next(b for b in range(self.order) if table[a][b] == self.identity)
            for a in range(self.order)
        ]
        self._class_keys = {}

    def closure(self, seed):
        members = {self.identity} | set(seed)
        frontier = list(members)
        while frontier:
            new = []
            for a in frontier:
                for g in seed:
                    for x in (self.table[a][g], self.table[g][a]):
                        if x not in members:
                            members.add(x)
                            new.append(x)
            frontier = new
        return frozenset(members)

    def is_subgroup(self, members):
        s = set(members)
        return self.identity in s and all(
            self.table[a][b] in s for a in s for b in s
        )

    def conj_set(self, g, members):
        t, gi = self.table, self.inv[g]
        return frozenset(t[t[g][x]][gi] for x in members)

    def is_normal(self, members):
        s = frozenset(members)
        return all(self.conj_set(g, s) == s for g in range(self.order))

    def class_key(self, members):
        """Least sorted member tuple over the conjugacy class of a
        subgroup: the package's class representative."""
        s = frozenset(members)
        key = self._class_keys.get(s)
        if key is None:
            key = min(tuple(sorted(self.conj_set(g, s))) for g in range(self.order))
            self._class_keys[s] = key
        return key

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k


def group_from_perms(name, gens):
    """Closure of permutation generators, element ids in lexicographic
    order of one-line images, as the package numbers them."""
    n = len(gens[0])
    elems = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in elems:
                    elems.add(q)
                    new.append(q)
        frontier = new
    ordered = sorted(elems)
    pos = {p: i for i, p in enumerate(ordered)}
    table = [[pos[compose(a, b)] for b in ordered] for a in ordered]
    return Group(name, table, ordered, [pos[g] for g in gens])


def cyclic(n):
    return Group(f"Z{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(name, G, H):
    """Elements packed as ``a * |H| + b``, as the package packs them."""
    m = H.order
    table = [
        [G.table[a1][a2] * m + H.table[b1][b2] for a2 in range(G.order) for b2 in range(m)]
        for a1 in range(G.order)
        for b1 in range(m)
    ]
    return Group(name, table)


def _cycle(n, pts):
    images = list(range(1, n + 1))
    for a, b in zip(pts, pts[1:] + pts[:1]):
        images[a - 1] = b
    return tuple(images)


def symmetric(n):
    return group_from_perms(
        f"S{n}", [_cycle(n, [1, 2]), _cycle(n, list(range(1, n + 1)))]
    )


def dihedral(n):
    rot = tuple(list(range(2, n + 1)) + [1])
    refl = tuple([1] + list(range(n, 1, -1)))
    return group_from_perms(f"D{n}", [rot, refl])


def quaternion():
    return group_from_perms(
        "Q8", [(2, 3, 4, 1, 6, 7, 8, 5), (5, 8, 7, 6, 3, 2, 1, 4)]
    )


def alternating4():
    return group_from_perms("A4", [_cycle(4, [1, 2, 3]), (2, 1, 4, 3)])


def alternating5():
    return group_from_perms("A5", [_cycle(5, [1, 2, 3]), _cycle(5, [3, 4, 5])])


# ---------------------------------------------------------------------------
# homomorphisms as tuples of images, one per element id


def coset_action(G, H):
    """Left action of ``G`` on the cosets of ``H``."""
    coset_of, cosets = {}, []
    for g in range(G.order):
        if g in coset_of:
            continue
        c = frozenset(G.table[g][h] for h in H)
        cosets.append(c)
        for x in c:
            coset_of[x] = len(cosets)
    reps = [min(c) for c in cosets]
    return [tuple(coset_of[G.table[g][r]] for r in reps) for g in range(G.order)]


def block_sum(h1, h2):
    n = len(h1[0])
    return [a + tuple(x + n for x in b) for a, b in zip(h1, h2)]


def conjugate_hom(h, c):
    ci = inverse(c)
    return [compose(compose(c, p), ci) for p in h]


def shape(tag, slot):
    """A generator fixed by the pool slot alone, for the choices that set
    how much work an op does (orbit types, cycle types), so that work is
    the same from seed to seed while the seed still draws the labels."""
    return Random(f"{tag}:{slot}")


def random_hom(G, degree, rng, shape_rng=None):
    """Block sum of coset actions of subgroups generated by one or two
    random elements, conjugated by a random permutation.  ``shape_rng``
    (default ``rng``) picks the blocks, ``rng`` the labels."""
    pick = shape_rng or rng
    blocks, remaining = [], degree
    while remaining > 0:
        H = None
        for _ in range(8):
            seed = pick.sample(range(G.order), min(G.order, 1 if pick.random() < 0.7 else 2))
            cand = G.closure(seed)
            if G.order // len(cand) <= remaining:
                H = cand
                break
        if H is None:
            H = frozenset(range(G.order))
        blocks.append(coset_action(G, H))
        remaining -= G.order // len(H)
    hom = blocks[0]
    for b in blocks[1:]:
        hom = block_sum(hom, b)
    return conjugate_hom(hom, random_perm(degree, rng))


def is_hom(G, images):
    return all(
        images[G.table[a][b]] == compose(images[a], images[b])
        for a in range(G.order)
        for b in range(G.order)
    )


def census(G, h):
    """Multiset of stabilizer class keys, one per orbit."""
    n = len(h[0])
    seen, out = set(), {}
    for base in range(1, n + 1):
        if base in seen:
            continue
        seen.update(p[base - 1] for p in h)
        stab = [g for g in range(G.order) if h[g][base - 1] == base]
        key = G.class_key(stab)
        out[key] = out.get(key, 0) + 1
    return out


def conjugates_to(c, h1, h2):
    ci = inverse(c)
    return all(compose(compose(c, a), ci) == b for a, b in zip(h1, h2))


def min_conjugator_moved(h1, h2):
    """Fewest points moved by any ``c`` with ``c h1(g) c^-1 == h2(g)``
    (``None`` when there is none).  Choosing ``c`` at the base point of
    an ``h1``-orbit fixes it on the whole orbit, so the search runs over
    base-point images, pruned by the best count found so far."""
    n = len(h1[0])
    bases, seen = [], set()
    for b in range(1, n + 1):
        if b not in seen:
            bases.append(b)
            seen.update(p[b - 1] for p in h1)
    best = [None]

    def search(k, used, moved_so_far):
        if best[0] is not None and moved_so_far >= best[0]:
            return
        if k == len(bases):
            best[0] = moved_so_far
            return
        b = bases[k]
        for y in range(1, n + 1):
            if y in used:
                continue
            assign = {}
            for a, c in zip(h1, h2):
                s, d = a[b - 1], c[y - 1]
                if assign.setdefault(s, d) != d:
                    break
            else:
                targets = set(assign.values())
                if len(targets) == len(assign) and not targets & used:
                    extra = sum(1 for s, d in assign.items() if s != d)
                    search(k + 1, used | targets, moved_so_far + extra)

    search(0, frozenset(), 0)
    return best[0]


def centralizer_min_distance(a, q):
    """Least ``d_H(q, c)`` over all ``c`` commuting with ``a``, by brute
    force over the whole symmetric group."""
    n = len(a)
    best = None
    for c in iperms(range(1, n + 1)):
        if compose(a, c) == compose(c, a):
            d = sum(1 for x, y in zip(q, c) if x != y)
            if best is None or d < best:
                best = d
    return Fraction(best, n)


# ---------------------------------------------------------------------------
# words and graph patterns


def eval_word(text, images):
    """Left-to-right product of ``name^exp`` factors; ``images`` maps a
    generator name to its permutation."""
    n = len(next(iter(images.values())))
    out = identity(n)
    for token in text.split():
        name, _, exp = token.partition("^")
        out = compose(out, power(images[name], int(exp) if exp else 1))
    return out


def pattern_frequency(perms, n_vertices, root, edges):
    """Fraction of host vertices where the rooted pattern embeds
    injectively; ``perms`` maps each label to its permutation and edges
    are ``(u, v, label)``."""
    n = len(next(iter(perms.values())))
    if n == 0:
        return Fraction(0)
    invs = {lab: inverse(p) for lab, p in perms.items()}
    hits = 0
    for x in range(1, n + 1):
        f = {root: x}
        ok, grown = True, True
        while ok and grown:
            grown = False
            for u, v, lab in edges:
                fu, fv = f.get(u), f.get(v)
                if fu is not None and fv is None:
                    f[v] = perms[lab][fu - 1]
                    grown = True
                elif fv is not None and fu is None:
                    f[u] = invs[lab][fv - 1]
                    grown = True
                elif fu is not None and perms[lab][fu - 1] != fv:
                    ok = False
                    break
        if ok and len(f) == n_vertices and len(set(f.values())) == n_vertices:
            hits += 1
    return Fraction(hits, n)
