"""The group zoo of the warm workloads: every group of order at most 8,
selected groups up to order 24, and S5 -- built once with the package's
constructors (timed set-up) and once with plain tables (input
generation), which must agree element id for element id."""

from __future__ import annotations

import plain as P


def _klein(g):
    return g.klein_four_group()


def _plain_klein():
    return P.direct_product("Z2xZ2", P.cyclic(2), P.cyclic(2))


# name -> (package-side constructor(groups module, Permutation class), plain constructor)
ZOO = {f"Z{n}": (lambda g, perm, n=n: g.cyclic_group(n), lambda n=n: P.cyclic(n))
       for n in range(1, 9)}
ZOO.update({
    "Z2xZ2": (lambda g, perm: _klein(g), _plain_klein),
    "Z2xZ4": (lambda g, perm: g.direct_product(g.cyclic_group(2), g.cyclic_group(4)),
              lambda: P.direct_product("Z2xZ4", P.cyclic(2), P.cyclic(4))),
    "Z2xZ2xZ2": (lambda g, perm: g.direct_product(g.cyclic_group(2), _klein(g)),
                 lambda: P.direct_product("Z2xZ2xZ2", P.cyclic(2), _plain_klein())),
    "S3": (lambda g, perm: g.symmetric_group(3)[0], lambda: P.symmetric(3)),
    "D4": (lambda g, perm: g.dihedral_group(4)[0], lambda: P.dihedral(4)),
    "Q8": (lambda g, perm: g.quaternion_group()[0], P.quaternion),
    "Z9": (lambda g, perm: g.cyclic_group(9), lambda: P.cyclic(9)),
    "Z3xZ3": (lambda g, perm: g.direct_product(g.cyclic_group(3), g.cyclic_group(3)),
              lambda: P.direct_product("Z3xZ3", P.cyclic(3), P.cyclic(3))),
    "D5": (lambda g, perm: g.dihedral_group(5)[0], lambda: P.dihedral(5)),
    "Z12": (lambda g, perm: g.cyclic_group(12), lambda: P.cyclic(12)),
    "A4": (lambda g, perm: g.group_from_permutations(
        [perm([2, 3, 1, 4]), perm([2, 1, 4, 3])])[0], P.alternating4),
    "D6": (lambda g, perm: g.dihedral_group(6)[0], lambda: P.dihedral(6)),
    "Z2xZ2xZ3": (lambda g, perm: g.direct_product(_klein(g), g.cyclic_group(3)),
                 lambda: P.direct_product("Z2xZ2xZ3", _plain_klein(), P.cyclic(3))),
    "S4": (lambda g, perm: g.symmetric_group(4)[0], lambda: P.symmetric(4)),
    "Z24": (lambda g, perm: g.cyclic_group(24), lambda: P.cyclic(24)),
    "S5": (lambda g, perm: g.symmetric_group(5)[0], lambda: P.symmetric(5)),
})


def plain_zoo(names=ZOO):
    return {name: ZOO[name][1]() for name in names}


def build(ps, names=ZOO):
    """The package-side groups; ``ps`` is the ``permstab`` package."""
    return {name: ZOO[name][0](ps.groups, ps.Permutation) for name in names}


def check_same(lib, plain):
    """The package's tables must match the plain ones id for id."""
    for name, G in lib.items():
        if [list(r) for r in G.table] != [list(r) for r in plain[name].table]:
            raise RuntimeError(f"zoo group {name}: package and plain tables differ")
