"""Bundled worked examples: the two trace-equal but non-conjugate
actions of the Klein four-group, the close-but-far conjugate pair built
from block sums of near-identical cycle patterns, and the modular-group
amalgam instance."""

from __future__ import annotations

from .groups import (
    FpGroup,
    PermHomomorphism,
    cyclic_group,
    hom_from_element_map,
    klein_four_group,
)
from .perm import Permutation, direct_sum, parse_permutation
from .stability import AmalgamHom, amalgamated_hom

# Klein four-group element ids in klein_four_group():
# 0 = identity, 1 = b, 2 = a, 3 = ab  (a = (1,0), b = (0,1) in C2 x C2).
KLEIN_A = 2
KLEIN_B = 1
KLEIN_AB = 3


def klein_pair() -> tuple[PermHomomorphism, PermHomomorphism]:
    """Two degree-6 actions of the Klein four-group with every
    non-identity element of trace 1/3; the first has no global fixed
    point, the second has two, so they are not conjugate."""
    G = klein_four_group()
    theta1 = hom_from_element_map(
        G,
        {
            0: Permutation.identity(6),
            KLEIN_A: parse_permutation("(1 2)(3 4)", 6),
            KLEIN_B: parse_permutation("(1 2)(5 6)", 6),
            KLEIN_AB: parse_permutation("(3 4)(5 6)", 6),
        },
    )
    theta2 = hom_from_element_map(
        G,
        {
            0: Permutation.identity(6),
            KLEIN_A: parse_permutation("(1 2)(3 4)", 6),
            KLEIN_B: parse_permutation("(1 3)(2 4)", 6),
            KLEIN_AB: parse_permutation("(1 4)(2 3)", 6),
        },
    )
    return theta1, theta2


def block_cycle_a(k: int) -> Permutation:
    """k cycles of length k: (1..k)(k+1..2k)...; degree k^2."""
    images = []
    for block in range(k):
        base = block * k
        images.extend(base + (i % k) + 1 for i in range(1, k + 1))
    return Permutation(images)


def block_cycle_b(k: int) -> Permutation:
    """k cycles of length k-1 plus the cycle (k, 2k, ..., k^2); degree k^2.

    Differs from :func:`block_cycle_a` exactly on inputs of the form
    mk-1 and mk, so their normalized Hamming distance is 2/k.
    """
    images = list(range(1, k * k + 1))
    for block in range(k):
        base = block * k
        pts = list(range(base + 1, base + k))  # length k-1
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)]
    last = [block * k for block in range(1, k + 1)]
    for i, p in enumerate(last):
        images[p - 1] = last[(i + 1) % len(last)]
    return Permutation(images)


def swapped_block_pair(k: int) -> tuple[Permutation, Permutation]:
    """The degree-2k^2 pair (a (+) b, b (+) a)."""
    a, b = block_cycle_a(k), block_cycle_b(k)
    return direct_sum(a, b), direct_sum(b, a)


def swapped_block_homs(k: int) -> tuple[PermHomomorphism, PermHomomorphism]:
    """The swapped block pair as homomorphisms of the cyclic group
    generated by the common element order."""
    x, y = swapped_block_pair(k)
    order = x.order()
    G = cyclic_group(order)
    imgs_x = {g: x**g for g in range(order)}
    imgs_y = {g: y**g for g in range(order)}
    return (
        hom_from_element_map(G, imgs_x),
        hom_from_element_map(G, imgs_y),
    )


SL2Z_RELATORS = ("s^4", "t^6", "s^2 t^-3")


def modular_amalgam(valid: bool = True) -> AmalgamHom:
    """Degree-4 instance of the order-4 / order-6 amalgam over a common
    order-2 subgroup (the modular group's defining decomposition).

    ``valid=False`` swaps in a second factor whose cube disagrees with
    the first factor's square, which must be rejected with the pair
    ``("s^2", "t^3")`` as witness.
    """
    z4 = FpGroup(("s",), ("s^4",))
    z6 = FpGroup(("t",), ("t^6",))
    psi1 = PermHomomorphism(z4, 4, (parse_permutation("(1 2 3 4)", 4),))
    image_t = "(1 3)(2 4)" if valid else "(1 2)"
    psi2 = PermHomomorphism(z6, 4, (parse_permutation(image_t, 4),))
    return amalgamated_hom(psi1, psi2, [("s^2", "t^3")])
