"""Shared fixtures: a zoo of small groups and a homomorphism enumerator."""

from __future__ import annotations

from itertools import product

import pytest

from permstab.groups import (
    FiniteGroup,
    PermHomomorphism,
    Subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_permutations,
    hom_from_generator_images,
    klein_four_group,
    quaternion_group,
    symmetric_group,
)
from permstab.errors import SourceMismatchError
from permstab.perm import Permutation, parse_permutation
from oracles import _closure, all_permutations, subgroup_closure


def alternating_group_4() -> FiniteGroup:
    g1 = parse_permutation("(1 2 3)", 4)
    g2 = parse_permutation("(1 2)(3 4)", 4)
    return group_from_permutations([g1, g2])[0]


def small_group_zoo() -> dict[str, FiniteGroup]:
    """All isomorphism types of order at most 8."""
    zoo = {f"Z{n}": cyclic_group(n) for n in range(1, 9)}
    zoo["Z2xZ2"] = klein_four_group()
    zoo["Z2xZ4"] = direct_product(cyclic_group(2), cyclic_group(4))
    zoo["Z2xZ2xZ2"] = direct_product(cyclic_group(2), klein_four_group())
    zoo["S3"] = symmetric_group(3)[0]
    zoo["D4"] = dihedral_group(4)[0]
    zoo["Q8"] = quaternion_group()[0]
    return zoo


def medium_group_zoo() -> dict[str, FiniteGroup]:
    """Selected groups of order at most 24."""
    zoo = small_group_zoo()
    zoo["Z9"] = cyclic_group(9)
    zoo["Z3xZ3"] = direct_product(cyclic_group(3), cyclic_group(3))
    zoo["D5"] = dihedral_group(5)[0]
    zoo["Z12"] = cyclic_group(12)
    zoo["A4"] = alternating_group_4()
    zoo["D6"] = dihedral_group(6)[0]
    zoo["Z2xZ2xZ3"] = direct_product(klein_four_group(), cyclic_group(3))
    zoo["S4"] = symmetric_group(4)[0]
    zoo["Z24"] = cyclic_group(24)
    return zoo


@pytest.fixture(scope="session")
def zoo8() -> dict[str, FiniteGroup]:
    return small_group_zoo()


@pytest.fixture(scope="session")
def zoo24() -> dict[str, FiniteGroup]:
    return medium_group_zoo()


def generating_chain(G: FiniteGroup) -> list[int]:
    chain: list[int] = []
    span = {G.identity}
    while len(span) < G.order:
        g = min(x for x in G.elements() if x not in span)
        chain.append(g)
        span = set(subgroup_closure(G, chain).members)
    return chain


def enumerate_homs(G: FiniteGroup, degree: int) -> list[PermHomomorphism]:
    """Every homomorphism of ``G`` into the symmetric group of ``degree``,
    by brute force over generator images with order-divisibility pruning."""
    chain = generating_chain(G)
    if not chain:
        return [PermHomomorphism(G, degree, (Permutation.identity(degree),))]
    pool = list(all_permutations(degree))
    candidate_lists = []
    for g in chain:
        d = len(_closure(G, (g,)))
        candidate_lists.append([p for p in pool if d % p.order() == 0])
    out = []
    for combo in product(*candidate_lists):
        try:
            out.append(
                hom_from_generator_images(G, dict(zip(chain, combo)), degree)
            )
        except SourceMismatchError:
            continue
    return out


def subgroup_from_cycles(G: FiniteGroup, nat, *cycle_strs: str) -> Subgroup:
    """Subgroup generated by permutations given in cycle notation, for a
    group built by ``group_from_permutations`` (``nat`` its natural hom)."""
    ids = []
    for s in cycle_strs:
        p = parse_permutation(s, nat.degree)
        ids.append(nat.images.index(p))
    return subgroup_closure(G, ids)
