"""Orbit-type multiplicity vectors, the conjugacy test and partial order
they induce, and constituent subtraction.

Two orbits are the same type exactly when an equivariant map joins
them, and :func:`_orbit_types` alone decides it: conjugacy, the order
and subtraction pair the orbits of each type (:func:`_match`), the
stability layer counts them (:func:`_census`), and the multiplicity
vector files each type's count under the conjugacy class of subgroups
that holds its point stabilizers; only it needs the subgroup lattice.
Orbits and maps come from one walk over the generator images
(:func:`_transport`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import NotComparableError, SourceMismatchError
from .groups import (
    FiniteGroup,
    PermHomomorphism,
    _restrict_to_points,
    generator_images,
    subgroup_conjugacy_classes,
)
from .perm import Permutation
from .record import Record


def _transport(perms1, perms2, b: int, y: int) -> Optional[dict[int, int]]:
    """The map of the ``perms1``-orbit of ``b`` that sends ``b`` to ``y``
    and each step ``x -> g1(x)`` to ``p(x) -> g2(p(x))``, or ``None`` if
    two steps disagree."""
    p, queue = {b: y}, [b]
    for x in queue:
        for g1, g2 in zip(perms1, perms2):
            x2, y2 = g1[x - 1], g2[p[x] - 1]
            if x2 not in p:
                p[x2] = y2
                queue.append(x2)
            elif p[x2] != y2:
                return None
    return p


def _orbits(perms, n: int) -> list[list[int]]:
    """Orbits of the group generated by one-line forms, least point first."""
    out, seen = [], set()
    for b in range(1, n + 1):
        if b not in seen:
            out.append(list(_transport(perms, perms, b, b)))
            seen.update(out[-1])
    return out


class MultiplicityVector(Record):
    """Orbit counts per stabilizer conjugacy class, plus the degree.

    ``counts[i]`` is the number of orbits whose stabilizer class is ``i``;
    the exact invariant ``sum(counts[i] * index_i) == degree`` holds by
    the orbit-stabilizer theorem.
    """

    group: FiniteGroup
    degree: int
    counts: tuple[int, ...]

    def multiplicity(self, class_id: int) -> int:
        return self.counts[class_id]

    def r(self, class_id: int) -> Fraction:
        """Normalized multiplicity ``m / degree`` of the class."""
        if self.degree == 0:
            return Fraction(0)
        return Fraction(self.counts[class_id], self.degree)


def multiplicity_vector(h: PermHomomorphism) -> MultiplicityVector:
    """Orbit counts per stabilizer class of the source's subgroup lattice.

    Orbits of one type have conjugate stabilizers, so the group is
    scanned once per type, for the stabilizer of the least point of the
    type's first orbit.  The lattice is built first: a source over its
    order bound is refused before any orbit is walked.
    """
    if not isinstance(h.source, FiniteGroup):
        raise SourceMismatchError("orbit decomposition requires a FiniteGroup source")
    G = h.source
    classes = subgroup_conjugacy_classes(G)
    counts = [0] * len(classes)
    for (orbits,) in _orbit_types(([p.images for p in generator_images(h)], h.degree)):
        base = orbits[0][0]
        stab = [g for g in G.elements() if h.images[g].images[base - 1] == base]
        counts[classes.class_id(stab)] += len(orbits)
    return MultiplicityVector(G, h.degree, tuple(counts))


def _require_comparable(h1: PermHomomorphism, h2: PermHomomorphism):
    if not isinstance(h1.source, FiniteGroup) or h1.source != h2.source:
        raise SourceMismatchError("homomorphisms must share a FiniteGroup source")


def _require_conjugacy_pair(h1: PermHomomorphism, h2: PermHomomorphism):
    """:func:`_require_comparable`, and one degree for both."""
    _require_comparable(h1, h2)
    if h1.degree != h2.degree:
        raise SourceMismatchError("homomorphisms must share a degree")


def _orbit_types(*actions) -> list[list[list[list[int]]]]:
    """Orbit types of ``(generator images, degree)`` actions of one
    generating set, in order of first appearance; each type lists, per
    action, its orbits of the type (least point first) by least point.

    An equivariant map between two orbits sends the fixed points of each
    generator onto those of its image, so an orbit is walked only against
    the representatives with its length and the same number of points
    fixed by each generator."""
    types: list[list[list[list[int]]]] = []
    reps: dict[tuple, list[tuple]] = {}  # invariant -> [(gens, orbit, type)]
    for k, (gens, n) in enumerate(actions):
        for orbit in _orbits(gens, n):
            key = len(orbit), *(sum(g[x - 1] == x for x in orbit) for g in gens)
            same = reps.setdefault(key, [])
            for rgens, rep, kind in same:
                if any(_transport(gens, rgens, orbit[0], y) for y in rep):
                    break
            else:
                kind = [[] for _ in actions]
                same.append((gens, orbit, kind))
                types.append(kind)
            kind[k].append(orbit)
    return types


def _census(*homs: PermHomomorphism) -> list[tuple[int, ...]]:
    """Orbit counts per shared orbit type, one tuple per homomorphism."""
    types = _orbit_types(*(([p.images for p in generator_images(h)], h.degree) for h in homs))
    return [tuple(len(t[k]) for t in types) for k in range(len(homs))]


def _match(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[dict[int, int], int]:
    """Pair the ``h1``-orbits of each type with the ``h2``-orbits of that
    type, both in order of least point; each base goes to the least point
    ``y`` of its partner from which the walk succeeds (an equal
    stabilizer).  Returns the map on the paired ``h1``-points and the
    number of ``h2``-orbits left unused."""
    gens1 = [p.images for p in generator_images(h1)]
    gens2 = [p.images for p in generator_images(h2)]
    types = _orbit_types((gens1, h1.degree), (gens2, h2.degree))
    witness: dict[int, int] = {}
    for orbits1, orbits2 in types:
        for o1, o2 in zip(orbits1, orbits2):
            maps = (_transport(gens1, gens2, o1[0], y) for y in sorted(o2))
            witness.update(next(filter(None, maps)))
    return witness, sum(max(len(o2) - len(o1), 0) for o1, o2 in types)


def hom_order_leq(phi: PermHomomorphism, psi: PermHomomorphism) -> bool:
    """Orbit-census order: every orbit of ``phi`` pairs with an isomorphic
    orbit of ``psi``, each used once (absolute counts per orbit type)."""
    _require_comparable(phi, psi)
    return all(a <= b for a, b in zip(*_census(phi, psi)))


def is_conjugate(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[bool, Optional[Permutation]]:
    """Whether the orbits pair up into isomorphic ones, with an explicit
    witness.

    When conjugate, the witness ``p`` satisfies
    ``p * h1(g) * p^-1 == h2(g)`` for every ``g``: it is equivariant on
    the generators by construction, hence on every element.
    """
    _require_conjugacy_pair(h1, h2)
    witness, _ = _match(h1, h2)
    if len(witness) < h1.degree:
        return False, None
    return True, Permutation._trusted(tuple(y for _, y in sorted(witness.items())))


def rep_subtract(
    phi: PermHomomorphism, rho: PermHomomorphism
) -> PermHomomorphism:
    """Remove the orbit constituents of ``rho`` from ``phi`` orbit type by
    orbit type (lowest point set first), leaving the complementary action.

    Requires ``rho`` to be dominated by ``phi`` in the orbit-census order;
    the result satisfies ``is_conjugate(result (+) rho, phi)``.
    """
    _require_comparable(phi, rho)
    paired, left = _match(phi, rho)
    if left:
        raise NotComparableError(
            "orbit census of the subtrahend is not dominated"
        )
    rest = [x for x in range(1, phi.degree + 1) if x not in paired]
    return _restrict_to_points(phi, rest)

