"""Brute-force oracles that the library's fast paths are checked against.

Each is the algorithm the library used before it was replaced: the
centralizer enumeration and the exhaustive centralizer-coset minima
behind ``min_conjugator_distance`` and ``centralizer_correct``, the
subset-pair loops behind ``statistic_table`` and ``tr_from_s``, the
scans over every group element behind ``check_homomorphism``,
``is_conjugate`` and ``agreement_set``, the stabilizer scan per orbit
(``orbit_decomposition``) behind ``multiplicity_vector``, the
stabilizer-class censuses behind ``hom_order_leq``, ``rep_subtract``,
``has_extension`` and ``replication_count``, which count with that
scan, the walk of each class of elements by conjugation that
``has_extension``'s fixed-point check read before the subgroup classes,
the coset sets sorted by least member behind ``coset_action``, the census search without the gcd cut behind ``has_extension``, the class dictionary of ``multiplicity._match``, the partner-keyed classes of ``nearest_conjugator`` that one orbit
classifier replaced and its assignment over the points every generator
fixes that a closed form replaced, the join of every subgroup with
every cyclic subgroup and the conjugation by every element that
``subgroup_conjugacy_classes`` replaced, the scan of every subgroup
behind ``find_normal_complement``, the one-pattern-at-a-time loop behind
``stat_distance_details`` and the batch of statistic-word queries that
counted its embeddings before the generation tree did, the
``repr``-ranked colour refinement, certificate and edge-set generation behind
``enumerate_patterns``, the unpruned ``(mask, sign)`` expansion and the
loop that dropped only empty-mask terms behind ``s_from_tr``, Light's
test with its generating-set picks interleaved behind ``FiniteGroup``,
and the argparse front end behind the CLI's
command-table parser.  ``point_count`` tests one point at a
time what every trace statistic counts with fixed-point masks.

The file opens with test tools that the library once exported:
``all_permutations``, ``normalized_trace``, ``cycle_type`` and
``one_line_str`` (from ``perm``), ``subgroup_closure``,
``trivial_subgroup``, ``full_subgroup``, ``all_subgroups``,
``normalizer`` and ``generator_image`` (from ``groups``),
``retraction_from_complement`` (from ``stability``), the presented
Klein pair (from ``fixtures``), ``nonzero_classes`` (from
``multiplicity``), and ``max_total_degree`` and ``max_degree`` (from
``graphs``).
"""

from __future__ import annotations

import argparse
from collections import Counter, defaultdict, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence

from permstab.errors import (
    BoundExceededError,
    GroupTableError,
    NotComparableError,
    NotConjugateError,
    NotSubgroupError,
    PermStabError,
    SourceMismatchError,
    ZeroMultiplicityError,
)
from permstab.graphs import (
    LabeledDigraph,
    RootedPattern,
    SimpleGraph,
    _statistic_words,
    enumerate_patterns,
    pattern_frequency,
)
from permstab.groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    _closure,
    conjugate_hom,
    evaluate_word,
    generator_images,
    parse_word,
    restrict_hom,
    subgroup_conjugacy_classes,
    trivial_hom,
)
from permstab.multiplicity import (
    MultiplicityVector,
    _orbit_types,
    _orbits,
    _transport,
    is_conjugate,
)
from permstab.stability import _max_weight_assignment, compose_lift
from permstab.trace_stats import DEFAULT_MOVED_SET_BOUND, ActionTrace
from permstab.perm import Permutation, hamming_distance, parse_permutation


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of the symmetric group on ``{1..n}``, lexicographically."""
    for images in permutations(range(1, n + 1)):
        yield Permutation._trusted(images)


def normalized_trace(p: Permutation) -> Fraction:
    """Fraction of fixed points; equals ``1 - hamming_distance(p, id)``.

    The degree-0 permutation has trace 1 by convention (empty action).
    """
    if p.degree == 0:
        return Fraction(1)
    return Fraction(len(p.fixed_points()), p.degree)


def all_cycles(p: Permutation) -> list[tuple[int, ...]]:
    """The cycles of ``p``, each fixed point a cycle of length 1."""
    return p.cycles() + [(i,) for i in p.fixed_points()]


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Multiset of cycle lengths (fixed points included), ascending."""
    return tuple(sorted(map(len, all_cycles(p))))


def one_line_str(p: Permutation) -> str:
    return "[" + ",".join(map(str, p.images)) + "]"


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Subgroup generated by ``seed``, by breadth-first products."""
    gens = tuple(set(seed))
    for g in gens:
        if not 0 <= g < G.order:
            raise NotSubgroupError(f"element id {g} out of range")
    return Subgroup._trusted(G, _closure(G, gens))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._trusted(G, [G.identity])


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._trusted(G, range(G.order))


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, ascending by order, then members: the member sets
    of ``subgroup_conjugacy_classes``, which enumerates them.
    Raises ``BoundExceededError`` above ``DEFAULT_SUBGROUP_ORDER_BOUND``."""
    sets = [S for orbit in subgroup_conjugacy_classes(G).classes for S in orbit]
    sets.sort(key=lambda s: (len(s), sorted(s)))
    return [Subgroup._trusted(G, s) for s in sets]


def normalizer(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """Largest subgroup of ``G`` conjugating ``N`` onto itself."""
    if N.parent != G:
        raise NotSubgroupError("subgroup belongs to a different group")
    mem = N.member_set()
    members = [
        g
        for g in G.elements()
        if all(G.conjugate(g, x) in mem for x in N.members)
    ]
    return Subgroup._trusted(G, members)


def retraction_from_complement(
    G: FiniteGroup, H: Subgroup, K: Subgroup
) -> dict[int, int]:
    """The retraction ``g -> h`` where ``g = k*h`` with ``k in K``."""
    kmem = K.member_set()
    out = {}
    for g in G.elements():
        parts = [h for h in H.members if G.mul(g, G.inv(h)) in kmem]
        if len(parts) != 1:
            raise NotSubgroupError("not a complement: H-part is not unique")
        out[g] = parts[0]
    return out


def klein_presentation() -> FpGroup:
    return FpGroup(("a", "b"), ("a^2", "b^2", "a b a b"))


def klein_pair_presented() -> tuple[PermHomomorphism, PermHomomorphism]:
    """The two actions of ``fixtures.klein_pair`` with a two-generator
    presentation source."""
    P = klein_presentation()
    theta1 = PermHomomorphism(
        P,
        6,
        (parse_permutation("(1 2)(3 4)", 6), parse_permutation("(1 2)(5 6)", 6)),
    )
    theta2 = PermHomomorphism(
        P,
        6,
        (parse_permutation("(1 2)(3 4)", 6), parse_permutation("(1 3)(2 4)", 6)),
    )
    return theta1, theta2


def generator_image(h: PermHomomorphism, name: str) -> Permutation:
    if not isinstance(h.source, FpGroup):
        raise SourceMismatchError("generator images require an FpGroup source")
    return h.images[h.source.generators.index(name)]


def nonzero_classes(mv: MultiplicityVector) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(mv.counts) if c)


def max_total_degree(g: LabeledDigraph) -> int:
    """The largest number of edge ends at one vertex, a loop counting twice."""
    if g.n == 0:
        return 0
    deg = [0] * g.n
    for u, v, _ in g.edges():
        if u == v:
            deg[u - 1] += 2
        else:
            deg[u - 1] += 1
            deg[v - 1] += 1
    return max(deg)


def max_degree(g: SimpleGraph) -> int:
    return max(map(len, g.adjacency().values()), default=0)


def light_test_picks(rows, e: int) -> tuple[int, ...]:
    """Light's associativity test with the generating set picked on the
    way, as ``FiniteGroup`` ran it before the picks were split from the
    test: each element not yet reached from ``e`` is checked, then picked.
    Returns the picks or raises ``GroupTableError`` at the first failure."""
    n = len(rows)
    reached = {e}
    gens: list[int] = []
    for g in range(n):
        if g in reached:
            continue
        g_row = rows[g]
        for x in range(n):
            row = rows[x]
            xg_row = rows[row[g]]
            if xg_row != tuple(map(row.__getitem__, g_row)):
                y = next(y for y in range(n) if xg_row[y] != row[g_row[y]])
                raise GroupTableError(f"associativity fails at ({x},{g},{y})")
        gens.append(g)
        new = {rows[x][g] for x in reached} - reached
        while new:
            reached |= new
            new = {rows[x][h] for x in new for h in gens} - reached
    return tuple(gens)


def check_homomorphism(h: PermHomomorphism) -> tuple[bool, object]:
    """``(ok, first violating (a, b))`` over every pair of a table source."""
    G = h.source
    for a in G.elements():
        for b in G.elements():
            if h.images[G.mul(a, b)] != h.images[a] * h.images[b]:
                return False, (a, b)
    return True, None


def agreement_set(h1: PermHomomorphism, h2: PermHomomorphism) -> tuple[int, ...]:
    """Points where ``h1`` and ``h2`` agree for every element."""
    return tuple(
        i
        for i in range(1, h1.degree + 1)
        if all(a(i) == b(i) for a, b in zip(h1.images, h2.images))
    )


def _orbit_census(h: PermHomomorphism) -> list[tuple[int, tuple, frozenset]]:
    """``(class id, points, stabilizer)`` per orbit, ascending by least
    point, with orbits and stabilizers scanned over every element."""
    G = h.source
    classes = subgroup_conjugacy_classes(G)
    out, seen = [], set()
    for base in range(1, h.degree + 1):
        if base not in seen:
            points = tuple(sorted({h.images[g](base) for g in G.elements()}))
            seen.update(points)
            stab = frozenset(g for g in G.elements() if h.images[g](base) == base)
            out.append((classes.class_id(stab), points, stab))
    return out


def orbit_decomposition(h: PermHomomorphism) -> list[tuple[tuple[int, ...], Subgroup, int]]:
    """``(points, stabilizer, class id)`` per orbit, ascending by least
    point, as ``multiplicity_vector`` took them before it sorted orbits
    into types: the orbits walked on the generator images, and the group
    scanned once per orbit for the stabilizer of its least point."""
    if not isinstance(h.source, FiniteGroup):
        raise SourceMismatchError("orbit decomposition requires a FiniteGroup source")
    G = h.source
    classes = subgroup_conjugacy_classes(G)
    out = []
    for points in _orbits([p.images for p in generator_images(h)], h.degree):
        base = points[0]
        stab = [g for g in G.elements() if h.images[g].images[base - 1] == base]
        out.append((tuple(sorted(points)), Subgroup._trusted(G, stab), classes.class_id(stab)))
    return out


def multiplicity_vector(h: PermHomomorphism) -> MultiplicityVector:
    """The census of ``orbit_decomposition``: one count per orbit."""
    orbits = orbit_decomposition(h)
    counts = [0] * len(subgroup_conjugacy_classes(h.source))
    for _, _, cid in orbits:
        counts[cid] += 1
    return MultiplicityVector(h.source, h.degree, tuple(counts))


def conjugacy_witness(h1: PermHomomorphism, h2: PermHomomorphism):
    """The conjugator ``is_conjugate`` returned before it walked the
    generators, or ``None``: same-class orbits paired in ascending base
    order, each base sent to the least point of its partner with an equal
    stabilizer (found by rescanning the group), and the map spread over
    the orbit along every element."""
    G = h1.source
    c1, c2 = _orbit_census(h1), _orbit_census(h2)
    if sorted(c for c, _, _ in c1) != sorted(c for c, _, _ in c2):
        return None
    mapping = [0] * h1.degree
    for cid in sorted({c for c, _, _ in c1}):
        pairs = zip(
            [(pts, stab) for c, pts, stab in c1 if c == cid],
            [pts for c, pts, _ in c2 if c == cid],
        )
        for (pts1, stab1), pts2 in pairs:
            y2 = next(
                y
                for y in pts2
                if all((h2.images[g](y) == y) == (g in stab1) for g in G.elements())
            )
            for g in G.elements():
                src = h1.images[g](pts1[0])
                if mapping[src - 1] == 0:
                    mapping[src - 1] = h2.images[g](y2)
    return Permutation(mapping)


def hom_order_leq(phi: PermHomomorphism, psi: PermHomomorphism) -> bool:
    """The census order ``hom_order_leq`` decided before it paired orbits:
    every stabilizer-class count of ``phi`` at most that of ``psi``."""
    m1, m2 = multiplicity_vector(phi), multiplicity_vector(psi)
    return all(a <= b for a, b in zip(m1.counts, m2.counts))


def rep_subtract(phi: PermHomomorphism, rho: PermHomomorphism) -> PermHomomorphism:
    """The subtraction ``rep_subtract`` did before it paired orbits: per
    stabilizer class, drop as many of ``phi``'s orbits as ``rho`` has,
    lowest point set first, and rebuild every element's image."""
    if not hom_order_leq(rho, phi):
        raise NotComparableError("orbit census of the subtrahend is not dominated")
    remove_left = list(multiplicity_vector(rho).counts)
    kept: list[int] = []
    for points, _, cid in orbit_decomposition(phi):  # sorted by least point
        if remove_left[cid] > 0:
            remove_left[cid] -= 1
        else:
            kept.extend(points)
    kept.sort()
    index = {x: i + 1 for i, x in enumerate(kept)}
    images = tuple(
        Permutation(index[phi.images[g](x)] for x in kept) for g in phi.source.elements()
    )
    return PermHomomorphism(phi.source, len(kept), images)


def match(h1: PermHomomorphism, h2: PermHomomorphism) -> tuple[dict[int, int], int]:
    """The pairing ``multiplicity._match`` made before one function sorted
    orbits into types: each ``h1``-orbit, least point first, takes the
    lowest-base unused ``h2``-orbit of its class, the classes keyed by
    fixed-point counts and one representative each."""
    gens1 = [p.images for p in generator_images(h1)]
    gens2 = [p.images for p in generator_images(h2)]

    def invariant(gens, orbit) -> tuple:
        return len(orbit), *(sum(g[x - 1] == x for x in orbit) for g in gens)

    def isomorphic(gens, orbit, rep) -> bool:
        return any(_transport(gens, gens2, orbit[0], y) for y in rep)

    unused: dict[tuple, dict[tuple[int, ...], deque]] = {}
    for orbit in _orbits(gens2, h2.degree):
        reps = unused.setdefault(invariant(gens2, orbit), {})
        rep = next((r for r in reps if isomorphic(gens2, orbit, r)), tuple(orbit))
        reps.setdefault(rep, deque()).append(orbit)
    witness: dict[int, int] = {}
    for orbit in _orbits(gens1, h1.degree):
        reps = unused.get(invariant(gens1, orbit), {})
        same = next((u for r, u in reps.items() if u and isomorphic(gens1, orbit, r)), ())
        partner = sorted(same.popleft()) if same else ()
        maps = (_transport(gens1, gens2, orbit[0], y) for y in partner)
        witness.update(next(filter(None, maps), {}))
    return witness, sum(len(u) for reps in unused.values() for u in reps.values())


def nearest_conjugator(
    gens1: Sequence[Permutation], gens2: Sequence[Permutation], target: Permutation
) -> Permutation:
    """``stability.nearest_conjugator`` before it took the orbit types of
    ``_orbit_types``: every pair of orbits is walked, and the classes of
    isomorphic orbits are keyed by their sets of partners."""
    n = target.degree
    perms1, perms2 = [g.images for g in gens1], [g.images for g in gens2]
    unit = (n + 1) ** (n + 1)
    place = [(n + 1) ** (n - x) for x in range(n + 1)]
    orbits1, orbits2 = _orbits(perms1, n), _orbits(perms2, n)
    best: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, o1 in enumerate(orbits1):
        for j, o2 in enumerate(orbits2):
            if len(o2) != len(o1):
                continue
            for p in filter(None, (_transport(perms1, perms2, o1[0], y) for y in o2)):
                weight = sum(
                    unit * (target.images[x - 1] == px) - px * place[x] for x, px in p.items()
                )
                if (i, j) not in best or weight > best[i, j][0]:
                    best[i, j] = (weight, p)
        partners = tuple(j for j in range(len(orbits2)) if (i, j) in best)
        classes.setdefault(partners, []).append(i)
    if len(orbits1) != len(orbits2) or any(len(js) != len(rows) for js, rows in classes.items()):
        raise NotConjugateError("no permutation conjugates the two actions")
    images = [0] * n
    for js, rows in classes.items():
        matched = _max_weight_assignment([[best[i, j][0] for j in js] for i in rows])
        for j, r in zip(js, matched):
            for x, px in best[rows[r - 1], j][1].items():
                images[x - 1] = px
    return Permutation(images)


def nearest_conjugator_hungarian(
    gens1: Sequence[Permutation], gens2: Sequence[Permutation], target: Permutation
) -> Permutation:
    """``stability.nearest_conjugator`` before the points fixed by every
    generator had a closed form: each orbit type, that one too, gets one
    Hungarian assignment over big-integer weights."""
    n = target.degree
    perms1, perms2 = [g.images for g in gens1], [g.images for g in gens2]
    unit = (n + 1) ** (n + 1)
    place = [(n + 1) ** (n - x) for x in range(n + 1)]

    def weight(p: dict[int, int]) -> int:
        return sum(unit * (target.images[x - 1] == px) - px * place[x] for x, px in p.items())

    images = [0] * n
    for rows, cols in _orbit_types((perms1, n), (perms2, n)):
        if len(rows) != len(cols):
            raise NotConjugateError("no permutation conjugates the two actions")
        best = [
            [max(filter(None, (_transport(perms1, perms2, o1[0], y) for y in o2)), key=weight)
             for o2 in cols]
            for o1 in rows
        ]
        matched = _max_weight_assignment([list(map(weight, row)) for row in best])
        for j, r in enumerate(matched):
            for x, px in best[r - 1][j].items():
                images[x - 1] = px
    return Permutation._trusted(tuple(images))


def has_extension(G: FiniteGroup, H: Subgroup, phi: PermHomomorphism):
    """``has_extension`` when it counted orbits per stabilizer class of
    ``H``'s subgroup lattice: the same coset actions of ``G`` and the same
    search, over lattice censuses."""
    classes = subgroup_conjugacy_classes(G)
    actions = [
        coset_action(G, K)
        for K in map(classes.representative, range(len(classes)))
        if K.index <= phi.degree
    ]
    censuses = [multiplicity_vector(restrict_hom(a, H)).counts for a in actions]
    copies = census_combination(censuses, multiplicity_vector(phi).counts)
    if copies is None:
        return None
    psi = trivial_hom(G, 0)
    for action, s in zip(actions, copies):
        psi = compose_lift(action, s, psi)
    _, p = is_conjugate(restrict_hom(psi, H), phi)
    return conjugate_hom(psi, p)


def coset_action(G: FiniteGroup, N: Subgroup) -> PermHomomorphism:
    """``groups.coset_action`` when it built each coset as a set, sorted
    the cosets by least member and took each one's least again."""
    mem = N.members
    coset_of = {}
    cosets = []
    for g in G.elements():
        if g in coset_of:
            continue
        coset = frozenset(G.mul(g, h) for h in mem)
        cosets.append(coset)
        for x in coset:
            coset_of[x] = coset
    cosets.sort(key=min)
    index = {c: i + 1 for i, c in enumerate(cosets)}
    reps = [min(c) for c in cosets]
    images = []
    for g in G.elements():
        images.append(
            Permutation._trusted(tuple([index[coset_of[G.mul(g, r)]] for r in reps]))
        )
    return PermHomomorphism._trusted(G, len(cosets), tuple(images))


def census_combination(censuses, target):
    """``_census_combination`` before the gcd cut: copy counts ``s`` with
    ``sum(s[i] * censuses[i]) == target``, by depth-first search over the
    censuses, most copies first; remainders already shown to fail are not
    searched again."""
    dead = set()

    def search(i, rest):
        if not any(rest):
            return [0] * (len(censuses) - i)
        if i == len(censuses) or (i, rest) in dead:
            return None
        c = censuses[i]
        most = min(r // x for r, x in zip(rest, c) if x)
        for s in range(most, -1, -1):
            tail = search(i + 1, tuple(r - s * x for r, x in zip(rest, c)))
            if tail is not None:
                return [s] + tail
        dead.add((i, rest))
        return None

    return search(0, target)


def fixed_counts_are_class_function(
    G: FiniteGroup, H: Subgroup, phi: PermHomomorphism
) -> bool:
    """Whether ``phi`` fixes equally many points under any two elements of
    ``H`` that are conjugate in ``G``.  Each ``G``-class meeting ``H`` is
    walked once, by conjugation with ``G.generating_set``."""
    _, emb = H.as_group()
    fixed = {g: len(p.fixed_points()) for g, p in zip(emb, phi.images)}
    walked: set[int] = set()
    for x in emb:
        if x in walked:
            continue
        conjugates = [x]
        walked.add(x)
        for y in conjugates:  # grows while iterated
            for g in G.generating_set:
                z = G.conjugate(g, y)
                if z not in walked:
                    walked.add(z)
                    conjugates.append(z)
        if len({fixed[y] for y in conjugates if y in fixed}) > 1:
            return False
    return True


def replication_count(phi: PermHomomorphism, psi: PermHomomorphism) -> int:
    """``replication_count`` when it took its floors per stabilizer class
    of the lattice; raises ``ZeroMultiplicityError`` for an empty ``psi``."""
    m_phi, m_psi = multiplicity_vector(phi), multiplicity_vector(psi)
    floors = [m_phi.counts[cid] // c for cid, c in enumerate(m_psi.counts) if c]
    if not floors:
        raise ZeroMultiplicityError("replicand has no orbits")
    return min(floors)


@lru_cache(maxsize=None)
def subgroup_sets_by_joins(G: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every subgroup's member set, ascending by order, then members, as
    ``all_subgroups`` found them before the classes were enumerated: the
    cyclic subgroups closed under joins with one more cyclic subgroup
    ``<c>``, every subgroup joined, each by the generators it was first
    reached by."""
    gens: dict[frozenset[int], tuple[int, ...]] = {}
    for g in G.elements():
        gens.setdefault(frozenset(subgroup_closure(G, (g,)).members), (g,))
    cyclic = [c for (c,) in gens.values()]
    frontier = list(gens)
    while frontier:
        new = []
        for S in frontier:
            for c in cyclic:
                if c in S:
                    continue
                join_gens = gens[S] + (c,)
                T = frozenset(subgroup_closure(G, join_gens).members)
                if T not in gens:
                    gens[T] = join_gens
                    new.append(T)
        frontier = new
    return tuple(sorted(gens, key=lambda s: (len(s), sorted(s))))


def conjugacy_classes_by_every_element(G: FiniteGroup) -> tuple:
    """The classes of ``subgroup_conjugacy_classes``, each subgroup of the
    join closure conjugated by every element of ``G`` rather than walked
    on the generating set."""
    sets = subgroup_sets_by_joins(G)
    remaining = set(sets)
    classes = []
    for S in sets:
        if S not in remaining:
            continue
        orbit = {frozenset(G.conjugate(g, x) for x in S) for g in G.elements()}
        remaining -= orbit
        classes.append(tuple(sorted(orbit, key=sorted)))
    return tuple(classes)


def normal_complement(G: FiniteGroup, H: Subgroup):
    """``find_normal_complement`` as a scan of every subgroup of the join
    closure: the first of order ``[G:H]`` that meets ``H`` in the identity
    and that the generators conjugate into itself, or ``None``."""
    hmem = H.member_set()
    for K in subgroup_sets_by_joins(G):
        if len(K) * H.order != G.order or len(K & hmem) != 1:
            continue
        if all(G.conjugate(g, k) in K for g in G.generating_set for k in K):
            return Subgroup._trusted(G, K)
    return None


def centralizer_order(p: Permutation) -> int:
    """Order of the centralizer of ``p`` in its symmetric group."""
    out = 1
    for length, count in Counter(map(len, all_cycles(p))).items():
        out *= length**count * factorial(count)
    return out


def centralizer_elements(p: Permutation) -> Iterator[Permutation]:
    """All permutations commuting with ``p``: each permutes the cycles of
    one length among themselves and rotates within them."""
    n = p.degree
    by_len: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for c in all_cycles(p):
        by_len[len(c)].append(c)
    lengths = sorted(by_len)
    choices_per_length = [
        [
            (sigma, offsets)
            for sigma in permutations(range(len(by_len[ell])))
            for offsets in product(range(ell), repeat=len(by_len[ell]))
        ]
        for ell in lengths
    ]
    for combo in product(*choices_per_length):
        images = [0] * n
        for ell, (sigma, offsets) in zip(lengths, combo):
            cycles = by_len[ell]
            for j, cyc in enumerate(cycles):
                target = cycles[sigma[j]]
                for t, point in enumerate(cyc):
                    images[point - 1] = target[(t + offsets[j]) % ell]
        yield Permutation(images)


def common_centralizer(images: Sequence[Permutation], degree: int) -> list[Permutation]:
    """Elements commuting with every permutation in ``images``."""
    nontrivial = [p for p in images if not p.is_identity()]
    if not nontrivial:
        return list(all_permutations(degree))
    seed = min(nontrivial, key=centralizer_order)
    return [
        c for c in centralizer_elements(seed) if all(c * q == q * c for q in nontrivial)
    ]


def min_conjugator_oracle(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[Fraction, Permutation]:
    """Least ``(d_H(p, id), one-line form)`` over the conjugator coset
    ``C(h2) * p0``, by enumerating the centralizer ``C(h2)``."""
    p0 = conjugacy_witness(h1, h2)
    if p0 is None:
        raise NotConjugateError("homomorphisms are not conjugate")
    ident = Permutation.identity(h1.degree)
    coset = [c * p0 for c in common_centralizer(h2.images, h2.degree)]
    return min(
        ((hamming_distance(p, ident), p) for p in coset),
        key=lambda item: (item[0], item[1].images),
    )


def correction_oracle(a: Permutation, q: Permutation) -> tuple[Fraction, Permutation]:
    """Least ``(d_H(q, c), one-line form)`` over the centralizer of ``a``."""
    return min(
        ((hamming_distance(q, c), c) for c in centralizer_elements(a)),
        key=lambda item: (item[0], item[1].images),
    )


def _image(h: PermHomomorphism, e) -> Permutation:
    """The image of an element id, or of a word by ``evaluate_word``."""
    return h.images[e] if isinstance(h.source, FiniteGroup) else evaluate_word(h, e)


def point_count(h: PermHomomorphism, A, B) -> int:
    """Points fixed by every element of ``A`` and moved by every element of
    ``B``, tested one point at a time; words are evaluated by
    ``evaluate_word``."""
    fixed, moved = [_image(h, a) for a in A], [_image(h, b) for b in B]
    return sum(
        all(p(x) == x for p in fixed) and all(p(x) != x for p in moved)
        for x in range(1, h.degree + 1)
    )


def statistic(h: PermHomomorphism, A, B) -> Fraction:
    """``S(A, B)``: ``point_count`` over the degree; with no points, 1 when
    ``B`` is empty and 0 otherwise."""
    A, B = list(A), list(B)
    if h.degree == 0:
        return Fraction(int(not B))
    return Fraction(point_count(h, A, B), h.degree)


def s_from_tr_expansion(h: PermHomomorphism, A, B) -> Fraction:
    """``S(A, B)`` by the whole inclusion-exclusion: one ``(mask, sign)``
    term ``(fixed mask of A u V, (-1)^|V|)`` per subset ``V`` of the
    distinct elements of ``B``, none dropped; words are keyed by their
    parsed tuples."""

    def distinct(elements) -> set:
        if isinstance(h.source, FiniteGroup):
            return set(elements)
        gens = h.source.generators
        return {parse_word(w, gens) if isinstance(w, str) else tuple(w) for w in elements}

    common = (1 << h.degree) - 1
    for a in distinct(A):
        common &= _image(h, a).fixed_mask()
    terms = [(common, 1)]
    B = distinct(B)
    for b in B:
        mb = _image(h, b).fixed_mask()
        terms += [(mask & mb, -sign) for mask, sign in terms]
    if h.degree == 0:
        return Fraction(int(not B))
    return Fraction(sum(sign * mask.bit_count() for mask, sign in terms), h.degree)


def s_from_tr_pruned(trace: ActionTrace, A, B) -> Fraction:
    """``S(A, B)`` by inclusion-exclusion that drops only the terms whose
    mask is empty, with every term of a superset of their ``V``; every
    pair of equal twins is kept.  Refuses a moved set of more than
    ``DEFAULT_MOVED_SET_BOUND`` distinct elements, as ``s_from_tr`` does."""
    fixed = trace.masks(A)
    B = set(trace._canonical(B))
    if len(B) > DEFAULT_MOVED_SET_BOUND:
        raise BoundExceededError(
            f"moved set of size {len(B)} exceeds bound {DEFAULT_MOVED_SET_BOUND}"
        )
    common = trace._full
    for m in fixed:
        common &= m
    # the nonempty masks of A u V for the subsets V of B seen so far,
    # split by the parity of |V|
    even, odd = [common] if common else [], []
    for mb in trace.masks(B):
        flipped = []
        for m in odd:
            if x := m & mb:
                flipped.append(x)
        for m in even:
            if x := m & mb:
                odd.append(x)
        even += flipped
    if not trace.hom.degree:  # no points: S(A, B) = 1 exactly when B is empty
        return Fraction(int(not B))
    return trace._shares[sum(map(int.bit_count, even)) - sum(map(int.bit_count, odd))]


def statistic_table(h: PermHomomorphism, universe) -> dict[frozenset, Fraction]:
    """``{T -> S(T, F minus T)}``, one ``statistic`` per subset; words are
    keyed by their parsed tuples, as the library keys them."""
    items = list(
        dict.fromkeys(
            parse_word(u, h.source.generators) if isinstance(u, str) else u
            for u in universe
        )
    )
    table = {}
    for k in range(len(items) + 1):
        for T in combinations(items, k):
            rest = [x for x in items if x not in T]
            table[frozenset(T)] = statistic(h, T, rest)
    return table


def tr_from_s(
    stats: Mapping[frozenset, Fraction], universe
) -> dict[frozenset, Fraction]:
    """``Tr(A) = sum over T containing A of S(T, F minus T)``, by testing
    every pair of subsets."""
    items = sorted(frozenset(universe), key=repr)
    subsets = []
    for k in range(len(items) + 1):
        for T in combinations(items, k):
            T = frozenset(T)
            if T not in stats:
                raise PermStabError(f"statistic table is incomplete: missing {set(T)}")
            subsets.append(T)
    return {
        A: sum((stats[T] for T in subsets if A <= T), start=Fraction(0))
        for A in subsets
    }


def stat_distance_details(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> tuple[Fraction, list[dict]]:
    """The weighted l1 sum and its nonzero rows, one ``pattern_frequency``
    per pattern and graph, summed in ``Fraction`` arithmetic."""
    total = Fraction(0)
    rows = []
    for j, (pat, weight) in enumerate(enumerate_patterns(g1.alphabet, size_bound), 1):
        f1 = pattern_frequency(g1, pat)
        f2 = pattern_frequency(g2, pat)
        delta = abs(f1 - f2)
        if delta:
            total += weight * delta
            rows.append(
                {
                    "index": j,
                    "vertices": pat.n,
                    "root": pat.root,
                    "edges": sorted(
                        [u, v, pat.alphabet[lab]] for u, v, lab in pat.edges
                    ),
                    "weight": str(weight),
                    "f1": str(f1),
                    "f2": str(f2),
                }
            )
    return total, rows


def query_counts(trace, elements: Sequence, queries) -> list[int]:
    """Per ``(fixed_idx, moved_idx)`` query, the number of points fixed by
    ``elements[i]`` for every ``i`` in ``fixed_idx`` and moved by
    ``elements[j]`` for every ``j`` in ``moved_idx``: each mask read once,
    a count a few ANDs and one bit count."""
    full = trace._full
    fixed = trace.masks(elements)
    moved = [full ^ m for m in fixed]
    counts = []
    for fixed_idx, moved_idx in queries:
        mask = full
        for i in fixed_idx:
            mask &= fixed[i]
        for j in moved_idx:
            mask &= moved[j]
        counts.append(mask.bit_count())
    return counts


@lru_cache(maxsize=None)
def _pattern_queries(alphabet: tuple[str, ...], size_bound: int) -> tuple:
    """The distinct statistic words (``_statistic_words``) of every pattern
    of ``enumerate_patterns``, and per pattern the positions of its ``A_P``
    and ``B_P`` among them."""
    index: dict = {}
    queries = []
    for pat, _ in enumerate_patterns(alphabet, size_bound):
        fixed, moved = _statistic_words(pat)
        queries.append(
            (
                tuple(index.setdefault(w, len(index)) for w in fixed),
                tuple(index.setdefault(w, len(index)) for w in moved),
            )
        )
    return tuple(index), tuple(queries)


def pattern_counts(graph: LabeledDigraph, size_bound: int) -> list[int]:
    """Per pattern of ``enumerate_patterns``, the number of points at which
    it embeds rooted, as one batch of trace queries over the statistic
    words of every pattern (:func:`_pattern_queries`)."""
    words, queries = _pattern_queries(graph.alphabet, size_bound)
    return query_counts(graph.hom.trace, words, queries)


def refine_colors(n: int, root: int, edges, rounds: int = 3) -> dict[int, tuple]:
    """``rounds`` rounds of colour refinement, each ranking the nested
    tuples ``(colour, sorted outs, sorted ins)`` by their ``repr``."""
    colors = {v: ((0,) if v == root else (1,)) for v in range(1, n + 1)}
    for _ in range(rounds):
        new = {}
        for v in range(1, n + 1):
            outs = sorted((lab, colors[w]) for u, w, lab in edges if u == v)
            ins = sorted((lab, colors[u]) for u, w, lab in edges if w == v)
            new[v] = (colors[v], tuple(outs), tuple(ins))
        ranks = {c: i for i, c in enumerate(sorted(set(new.values()), key=repr))}
        colors = {v: (ranks[new[v]],) for v in new}
    return colors


def certificate(n: int, root: int, edges) -> tuple:
    """Least ``(n, root number, sorted edge triples)`` over the
    renumberings that keep the classes of :func:`refine_colors` in
    ``repr`` order."""
    colors = refine_colors(n, root, edges)
    by_color: dict[tuple, list[int]] = {}
    for v in range(1, n + 1):
        by_color.setdefault(colors[v], []).append(v)
    classes = [vs for _, vs in sorted(by_color.items(), key=lambda kv: repr(kv[0]))]
    best = None
    for combo in product(*(permutations(vs) for vs in classes)):
        mapping = {v: t for t, v in enumerate((v for vs in combo for v in vs), 1)}
        triples = sorted((mapping[u], mapping[v], lab) for u, v, lab in edges)
        key = (n, mapping[root], tuple(triples))
        if best is None or key < best:
            best = key
    return best


def _edge_key(n: int, root: int, edges, m: int) -> tuple:
    """The edges renumbered in breadth-first order from the root, labels
    in index order, out-edge before in-edge."""
    step = {}
    for u, v, lab in edges:
        step[u, lab, 1] = v
        step[v, lab, -1] = u
    order, queue = {root: 1}, [root]
    for u in queue:  # grows while iterated
        for lab in range(m):
            for e in (1, -1):
                v = step.get((u, lab, e))
                if v is not None and v not in order:
                    order[v] = len(order) + 1
                    queue.append(v)
    return n, tuple(sorted((order[u], order[v], lab) for u, v, lab in edges))


def _successors(pat: RootedPattern, size_bound: int):
    """``(n, edges)`` of each valid pattern with one more edge."""
    m = len(pat.alphabet)
    out_used = {(u, lab) for u, _, lab in pat.edges}
    in_used = {(v, lab) for _, v, lab in pat.edges}
    for lab in range(m):
        for u in range(1, pat.n + 1):
            if (u, lab) in out_used:
                continue
            for v in range(1, pat.n + 1):
                if (v, lab) not in in_used:
                    yield pat.n, pat.edges | {(u, v, lab)}
        if pat.n < size_bound:
            w = pat.n + 1
            for u in range(1, pat.n + 1):
                if (u, lab) not in out_used:
                    yield w, pat.edges | {(u, w, lab)}
                if (u, lab) not in in_used:
                    yield w, pat.edges | {(w, u, lab)}


def pattern_catalogue(alphabet: tuple[str, ...], size_bound: int) -> list:
    """``enumerate_patterns`` as edge sets: the first pattern found per
    :func:`_edge_key`, breadth-first over added edges, sorted by
    :func:`certificate`; the j-th orbit, keyed by its least
    :func:`_edge_key` over every label permutation, weighs ``2^-j``."""
    m = len(alphabet)
    seed = RootedPattern(1, 1, alphabet, frozenset())
    seen = {_edge_key(1, 1, (), m): seed}
    frontier = [seed]
    while frontier:
        new = []
        for pat in frontier:
            for n, edges in _successors(pat, size_bound):
                key = _edge_key(n, pat.root, edges, m)
                if key not in seen:
                    seen[key] = succ = RootedPattern(n, pat.root, alphabet, edges)
                    new.append(succ)
        frontier = new
    ordered = sorted(seen.values(), key=lambda p: certificate(p.n, p.root, p.edges))
    weight_of: dict[tuple, Fraction] = {}
    out = []
    for pat in ordered:
        key = min(
            _edge_key(pat.n, pat.root, [(u, v, s[lab]) for u, v, lab in pat.edges], m)
            for s in permutations(range(m))
        )
        if key not in weight_of:
            weight_of[key] = Fraction(1, 2 ** (len(weight_of) + 1))
        out.append((pat, weight_of[key]))
    return out


class ArgparseUsageError(Exception):
    pass


class ArgparseHelp(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseUsageError(message)

    def print_help(self, file=None):
        raise ArgparseHelp(self.format_help())


def argparse_cli() -> _Parser:
    """The CLI's parser before the command table, less the no-op
    ``--seed`` option deleted since: one argparse parser per subcommand
    under one top-level parser."""
    p = _Parser(prog="perm-stab", add_help=True)
    sub = p.add_subparsers(dest="cmd")

    sp = sub.add_parser("trace")
    sp.add_argument("--hom", required=True)
    sp.add_argument("--set", dest="elements", required=True)

    sp = sub.add_parser("stats")
    sp.add_argument("--hom", required=True)
    sp.add_argument("--fixed", default="")
    sp.add_argument("--moved", default="")

    sp = sub.add_parser("mult")
    sp.add_argument("hom")

    sp = sub.add_parser("conj")
    sp.add_argument("hom1")
    sp.add_argument("hom2")

    sp = sub.add_parser("order")
    sp.add_argument("hom1")
    sp.add_argument("hom2")

    sp = sub.add_parser("small-conj")
    sp.add_argument("hom1")
    sp.add_argument("hom2")

    sp = sub.add_parser("min-conj")
    sp.add_argument("hom1")
    sp.add_argument("hom2")

    sp = sub.add_parser("extend")
    sp.add_argument("group")
    sp.add_argument("subgroup")
    sp.add_argument("hom")

    sp = sub.add_parser("complement")
    sp.add_argument("group")
    sp.add_argument("subgroup")

    sp = sub.add_parser("amalgam")
    sp.add_argument("hom1")
    sp.add_argument("hom2")
    sp.add_argument("--h-map", dest="hmap", required=True)

    sp = sub.add_parser("lift")
    sp.add_argument("hom")
    sp.add_argument("rest")
    sp.add_argument("--copies", type=int, required=True)

    sp = sub.add_parser("correct")
    sp.add_argument("--coef", required=True)
    sp.add_argument("--almost", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "heuristic"), default="exact")

    sp = sub.add_parser("graph")
    sp.add_argument("hom")

    sp = sub.add_parser("dstat")
    sp.add_argument("hom1")
    sp.add_argument("hom2")
    sp.add_argument("--size-bound", type=int, default=4)

    sub.add_parser("verify-paper")
    return p


def argparse_parse(parser: _Parser, argv: list[str]) -> tuple[str, object]:
    """``("ok", (command, values))``, ``("help", None)`` or ``("usage",
    message)`` for ``argv``, as the argparse front end read it; ``values``
    holds every argument under the command table's names."""
    try:
        values = vars(parser.parse_args(argv))
    except ArgparseHelp:
        return "help", None
    except ArgparseUsageError as exc:
        return "usage", str(exc)
    cmd = values.pop("cmd")
    if cmd is None:
        return "usage", "missing subcommand"
    names = {"elements": "set", "hmap": "h_map"}
    return "ok", (cmd, {names.get(k, k): v for k, v in values.items()})
