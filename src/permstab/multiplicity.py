"""Orbit decomposition, orbit-type multiplicity vectors, the conjugacy
test and partial order they induce, and constituent subtraction.

The multiplicity vector of a homomorphism counts, per conjugacy class of
subgroups of the source, the orbits whose point stabilizers fall in that
class.  Two homomorphisms of the same finite group into the same
symmetric group are conjugate exactly when their multiplicity vectors
agree, and the witness can be assembled orbit by orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError, NotComparableError, SourceMismatchError
from .groups import (
    FiniteGroup,
    PermHomomorphism,
    Subgroup,
    SubgroupClasses,
    direct_sum_hom,
    subgroup_conjugacy_classes,
)
from .perm import Permutation


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
    to ``subgroup_conjugacy_classes`` of the source.
    """
    if not isinstance(h.source, FiniteGroup):
        raise SourceMismatchError("orbit decomposition requires a FiniteGroup source")
    G = h.source
    classes = subgroup_conjugacy_classes(G)
    seen = [False] * h.degree
    orbits = []
    for base in range(1, h.degree + 1):
        if seen[base - 1]:
            continue
        points = sorted({h.images[g](base) for g in G.elements()})
        for x in points:
            seen[x - 1] = True
        stab_members = [g for g in G.elements() if h.images[g](base) == base]
        stab = Subgroup._trusted(G, stab_members)
        orbits.append(
            Orbit(
                points=tuple(points),
                base=base,
                stabilizer=stab,
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
    """Conjugator built by pairing same-class orbits in ascending base
    order and transporting base points along the group."""
    h1, h2 = d1.hom, d2.hom
    G = h1.source
    by_class_1: dict[int, list[Orbit]] = {}
    by_class_2: dict[int, list[Orbit]] = {}
    for orb in d1.orbits:
        by_class_1.setdefault(orb.class_id, []).append(orb)
    for orb in d2.orbits:
        by_class_2.setdefault(orb.class_id, []).append(orb)
    mapping = [0] * h1.degree
    for cid, orbs1 in sorted(by_class_1.items()):
        orbs2 = by_class_2[cid]
        for o1, o2 in zip(orbs1, orbs2):
            # least point of o2 whose stabilizer equals o1's exactly
            stab1 = o1.stabilizer.member_set()
            y2 = None
            for y in o2.points:
                if all(
                    (h2.images[g](y) == y) == (g in stab1) for g in G.elements()
                ):
                    y2 = y
                    break
            if y2 is None:  # pragma: no cover - same-class orbits always pair
                raise InternalInvariantError("orbit pairing failed")
            for g in G.elements():
                src = h1.images[g](o1.base)
                if mapping[src - 1] == 0:
                    mapping[src - 1] = h2.images[g](y2)
    return Permutation(mapping)


def is_conjugate(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[bool, Optional[Permutation]]:
    """Equality of multiplicity vectors, with an explicit witness.

    When conjugate, the witness ``p`` satisfies
    ``p * h1(g) * p^-1 == h2(g)`` for every ``g``.
    """
    _require_comparable(h1, h2)
    if h1.degree != h2.degree:
        raise SourceMismatchError("homomorphisms must share a degree")
    d1, d2 = orbit_decomposition(h1), orbit_decomposition(h2)
    if _census(d1) != _census(d2):
        return False, None
    p = _pair_witness(d1, d2)
    pinv = p.inverse()
    for g in h1.source.elements():
        if p * h1.images[g] * pinv != h2.images[g]:  # pragma: no cover
            raise InternalInvariantError("constructed witness fails to conjugate")
    return True, p


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
