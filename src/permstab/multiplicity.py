"""Orbit decomposition, orbit-type multiplicity vectors, the conjugacy
test and partial order they induce, and constituent subtraction.

The multiplicity vector of a homomorphism counts, per conjugacy class of
subgroups of the source, the orbits whose point stabilizers fall in that
class.  Two homomorphisms of the same finite group into the same
symmetric group are conjugate exactly when their multiplicity vectors
agree, and the witness can be assembled orbit by orbit.  Orbits and
witnesses come from one equivariant-map walk over the generator images
(:func:`_transport`); only the stabilizers scan every group element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotComparableError, SourceMismatchError
from .groups import (
    FiniteGroup,
    PermHomomorphism,
    Subgroup,
    SubgroupClasses,
    direct_sum_hom,
    generator_images,
    subgroup_conjugacy_classes,
)
from .perm import Permutation


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


@dataclass(frozen=True)
class Orbit:
    points: tuple[int, ...]
    base: int
    stabilizer: Subgroup
    class_id: int


@dataclass(frozen=True)
class OrbitDecomposition:
    hom: PermHomomorphism
    classes: SubgroupClasses
    orbits: tuple[Orbit, ...]


def orbit_decomposition(h: PermHomomorphism) -> OrbitDecomposition:
    """Orbits of the source group on ``{1..degree}`` with exact stabilizers.

    Each orbit records its least point as base; stabilizer class ids refer
    to ``subgroup_conjugacy_classes`` of the source.  The orbits are walked
    on the generator images; each stabilizer scans the group.
    """
    if not isinstance(h.source, FiniteGroup):
        raise SourceMismatchError("orbit decomposition requires a FiniteGroup source")
    G = h.source
    classes = subgroup_conjugacy_classes(G)
    orbits = []
    for points in _orbits([p.images for p in generator_images(h)], h.degree):
        base = points[0]
        stab_members = [g for g in G.elements() if h.images[g].images[base - 1] == base]
        orbits.append(
            Orbit(
                points=tuple(sorted(points)),
                base=base,
                stabilizer=Subgroup._trusted(G, stab_members),
                class_id=classes.class_id(stab_members),
            )
        )
    return OrbitDecomposition(h, classes, tuple(orbits))


@dataclass(frozen=True)
class MultiplicityVector:
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

    def nonzero_classes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.counts) if c)


def multiplicity_vector(h: PermHomomorphism) -> MultiplicityVector:
    return _census(orbit_decomposition(h))


def _census(dec: OrbitDecomposition) -> MultiplicityVector:
    counts = [0] * len(dec.classes)
    for orb in dec.orbits:
        counts[orb.class_id] += 1
    return MultiplicityVector(dec.hom.source, dec.hom.degree, tuple(counts))


def _require_comparable(h1: PermHomomorphism, h2: PermHomomorphism):
    if not isinstance(h1.source, FiniteGroup) or h1.source != h2.source:
        raise SourceMismatchError("homomorphisms must share a FiniteGroup source")


def hom_order_leq(phi: PermHomomorphism, psi: PermHomomorphism) -> bool:
    """Orbit-census order: every class count of ``phi`` is dominated by
    the corresponding count of ``psi`` (absolute counts)."""
    _require_comparable(phi, psi)
    m1 = multiplicity_vector(phi)
    m2 = multiplicity_vector(psi)
    return all(a <= b for a, b in zip(m1.counts, m2.counts))


def _pair_witness(d1: OrbitDecomposition, d2: OrbitDecomposition) -> Permutation:
    """Conjugator pairing same-class orbits in ascending base order; each
    base goes to the first partner point ``y`` from which :func:`_transport`
    succeeds, which is exactly when ``Stab(base) <= Stab(y)``: as the two
    have one order, the least point with an equal stabilizer."""
    gens1 = [p.images for p in generator_images(d1.hom)]
    gens2 = [p.images for p in generator_images(d2.hom)]
    partners: dict[int, list[Orbit]] = {}
    for orb in reversed(d2.orbits):  # so pop() yields ascending bases
        partners.setdefault(orb.class_id, []).append(orb)
    images = [0] * d1.hom.degree
    for o1 in d1.orbits:
        o2 = partners[o1.class_id].pop()
        maps = (_transport(gens1, gens2, o1.base, y) for y in o2.points)
        for x, y in next(filter(None, maps)).items():
            images[x - 1] = y
    return Permutation._trusted(tuple(images))


def is_conjugate(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[bool, Optional[Permutation]]:
    """Equality of multiplicity vectors, with an explicit witness.

    When conjugate, the witness ``p`` satisfies
    ``p * h1(g) * p^-1 == h2(g)`` for every ``g``: it is equivariant on
    the generators by construction, hence on every element.
    """
    _require_comparable(h1, h2)
    if h1.degree != h2.degree:
        raise SourceMismatchError("homomorphisms must share a degree")
    d1, d2 = orbit_decomposition(h1), orbit_decomposition(h2)
    if _census(d1) != _census(d2):
        return False, None
    return True, _pair_witness(d1, d2)


def rep_subtract(
    phi: PermHomomorphism, rho: PermHomomorphism
) -> PermHomomorphism:
    """Remove the orbit constituents of ``rho`` from ``phi`` class by
    class (lowest point set first), leaving the complementary action.

    Requires ``rho`` to be dominated by ``phi`` in the orbit-census order;
    the result satisfies ``is_conjugate(result (+) rho, phi)``.
    """
    _require_comparable(phi, rho)
    if not hom_order_leq(rho, phi):
        raise NotComparableError(
            "orbit census of the subtrahend is not dominated"
        )
    m_rho = multiplicity_vector(rho)
    dec = orbit_decomposition(phi)
    remove_left = list(m_rho.counts)
    kept: list[int] = []
    for orb in dec.orbits:  # orbits already sorted by least point
        if remove_left[orb.class_id] > 0:
            remove_left[orb.class_id] -= 1
        else:
            kept.extend(orb.points)
    kept.sort()
    index = {x: i + 1 for i, x in enumerate(kept)}
    images = tuple(
        Permutation(index[phi.images[g](x)] for x in kept)
        for g in phi.source.elements()
    )
    return PermHomomorphism(phi.source, len(kept), images)


__all__ = [
    "Orbit",
    "OrbitDecomposition",
    "MultiplicityVector",
    "orbit_decomposition",
    "multiplicity_vector",
    "hom_order_leq",
    "is_conjugate",
    "rep_subtract",
    "direct_sum_hom",
]
