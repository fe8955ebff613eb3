"""Brute-force oracles that the library's fast paths are checked against.

Each is the algorithm the library used before it was replaced: the
centralizer enumeration and the exhaustive centralizer-coset minima
behind ``min_conjugator_distance`` and ``centralizer_correct``, and the
subset-pair loops behind ``statistic_table`` and ``tr_from_s``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterator, Mapping, Sequence

from permstab.errors import NotConjugateError, PermStabError
from permstab.groups import PermHomomorphism
from permstab.multiplicity import is_conjugate
from permstab.perm import Permutation, all_permutations, hamming_distance
from permstab.trace_stats import _canonical_elements, bs_statistic


def centralizer_order(p: Permutation) -> int:
    """Order of the centralizer of ``p`` in its symmetric group."""
    out = 1
    for length, count in Counter(len(c) for c in p.cycles(include_fixed=True)).items():
        out *= length**count * factorial(count)
    return out


def centralizer_elements(p: Permutation) -> Iterator[Permutation]:
    """All permutations commuting with ``p``: each permutes the cycles of
    one length among themselves and rotates within them."""
    n = p.degree
    by_len: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for c in p.cycles(include_fixed=True):
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
    ok, p0 = is_conjugate(h1, h2)
    if not ok:
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


def statistic_table(h: PermHomomorphism, universe) -> dict[frozenset, Fraction]:
    """``{T -> S(T, F minus T)}``, one ``bs_statistic`` per subset."""
    items = _canonical_elements(h, universe)
    table = {}
    for k in range(len(items) + 1):
        for T in combinations(items, k):
            rest = [x for x in items if x not in T]
            table[frozenset(T)] = bs_statistic(h, T, rest)
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
