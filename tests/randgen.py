"""Seeded random instances for property suites.

Every generator takes an explicit ``random.Random`` so suites are
reproducible; nothing here touches the global RNG state.
"""

from __future__ import annotations

from random import Random

from permstab.groups import (
    FiniteGroup,
    PermHomomorphism,
    coset_action,
    conjugate_hom,
    direct_sum_hom,
    trivial_hom,
)
from permstab.perm import Permutation
from oracles import all_subgroups


def random_permutation(n: int, rng: Random) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_small_support_permutation(n: int, support: int, rng: Random) -> Permutation:
    """A permutation moving at most ``support`` chosen points."""
    pts = rng.sample(range(1, n + 1), min(support, n))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    images = list(range(1, n + 1))
    for src, dst in zip(pts, shuffled):
        images[src - 1] = dst
    return Permutation(images)


def random_hom(G: FiniteGroup, degree: int, rng: Random) -> PermHomomorphism:
    """A uniform-ish random homomorphism of ``G`` of exact ``degree``.

    Built as a block sum of coset actions of random subgroups (any
    homomorphism decomposes this way), then conjugated by a random
    permutation so orbits land anywhere.
    """
    subs = all_subgroups(G)
    remaining = degree
    blocks = []
    while remaining > 0:
        eligible = [H for H in subs if H.index <= remaining]
        H = rng.choice(eligible)
        blocks.append(coset_action(H))
        remaining -= H.index
    hom = blocks[0] if blocks else trivial_hom(G, 0)
    for extra in blocks[1:]:
        hom = direct_sum_hom(hom, extra)
    return conjugate_hom(hom, random_permutation(degree, rng))


def perturbed_conjugate_pair(
    G: FiniteGroup, degree: int, support: int, rng: Random
) -> tuple[PermHomomorphism, PermHomomorphism, Permutation]:
    """A conjugate pair ``(h, q h q^-1)`` with ``q`` of small support.

    The image distance of the pair is at most ``2 * support / degree``.
    """
    h = random_hom(G, degree, rng)
    q = random_small_support_permutation(degree, support, rng)
    return h, conjugate_hom(h, q), q
