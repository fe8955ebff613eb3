"""Orbit census, multiplicity vectors, conjugacy, order, subtraction."""

from fractions import Fraction
from functools import reduce
from random import Random

import pytest

from permstab import groups, multiplicity
from permstab.errors import (
    BoundExceededError,
    NotComparableError,
    NotSubgroupError,
    SourceMismatchError,
)
from permstab.fixtures import KLEIN_A, KLEIN_AB, KLEIN_B, klein_pair
from permstab.groups import (
    PermHomomorphism,
    all_subgroups,
    conjugate_hom,
    coset_action,
    cyclic_group,
    direct_product,
    direct_sum_hom,
    generator_images,
    group_from_permutations,
    klein_four_group,
    restrict_hom,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_hom,
    trivial_subgroup,
)
from permstab.multiplicity import (
    hom_order_leq,
    is_conjugate,
    multiplicity_vector,
    rep_subtract,
)
from permstab.perm import Permutation, all_permutations, parse_permutation
from permstab.randgen import random_hom, random_permutation
from permstab.stability import has_extension, replication_count

import oracles
from conftest import subgroup_from_cycles


def brute_force_conjugate(h1, h2):
    """Independent oracle: scan every permutation of the target degree."""
    for p in all_permutations(h1.degree):
        pinv = p.inverse()
        if all(
            p * h1.images[g] * pinv == h2.images[g]
            for g in h1.source.elements()
        ):
            return True
    return False


class TestOrbitDecomposition:
    """The census's orbit decomposition, as ``multiplicity_vector`` counts it."""

    def test_klein_theta1(self):
        t1, _ = klein_pair()
        classes = subgroup_conjugacy_classes(t1.source)
        stabs = [{0, KLEIN_AB}, {0, KLEIN_B}, {0, KLEIN_A}]  # of (1 2), (3 4), (5 6)
        counts = [0] * len(classes)
        for stab in stabs:
            counts[classes.class_id(stab)] += 1
        assert multiplicity_vector(t1).counts == tuple(counts)
        assert sorted(counts) == [0, 0, 1, 1, 1]

    def test_klein_theta2(self):
        # two fixed points and one regular orbit of four points
        _, t2 = klein_pair()
        classes = subgroup_conjugacy_classes(t2.source)
        mv = multiplicity_vector(t2)
        assert mv.nonzero_classes() == tuple(
            sorted((classes.class_id(range(4)), classes.class_id([0])))
        )
        assert mv.multiplicity(classes.class_id(range(4))) == 2
        assert mv.multiplicity(classes.class_id([0])) == 1

    def test_trivial_action(self):
        G = klein_four_group()
        classes = subgroup_conjugacy_classes(G)
        mv = multiplicity_vector(trivial_hom(G, 5))
        assert mv.nonzero_classes() == (classes.class_id(range(4)),)
        assert sum(mv.counts) == 5

    def test_orbit_stabilizer_invariant(self, zoo8):
        # the orbits the census counts, least point first, cover the
        # points once, each as long as its stabilizer's index
        rng = Random(31)
        for G in zoo8.values():
            h = random_hom(G, rng.randint(1, 12), rng)
            orbits = multiplicity._orbits([p.images for p in generator_images(h)], h.degree)
            covered = []
            for o in orbits:
                covered.extend(o)
                stab = [g for g in G.elements() if h.images[g](o[0]) == o[0]]
                assert len(o) * len(stab) == G.order
                assert o[0] == min(o)
            assert sorted(covered) == list(range(1, h.degree + 1))
            assert sum(multiplicity_vector(h).counts) == len(orbits)

    def test_rejects_presentation_source(self):
        from permstab.groups import FpGroup

        h = PermHomomorphism(FpGroup(("x",)), 2, (parse_permutation("(1 2)", 2),))
        with pytest.raises(
            SourceMismatchError, match=r"^orbit decomposition requires a FiniteGroup source$"
        ):
            multiplicity_vector(h)

    def test_unchecked_non_homomorphism_rejected(self):
        # stabilizers are not re-checked as subgroups; a map that is not a
        # homomorphism still fails, on the lattice lookup
        swap = parse_permutation("(1 2)", 2)
        h = PermHomomorphism(cyclic_group(2), 2, (swap, swap))
        with pytest.raises(NotSubgroupError):
            multiplicity_vector(h)

    def test_equals_the_scan_per_orbit(self, zoo24):
        # the zoo holds table groups and groups closed from permutations
        S3, S4 = symmetric_group(3)[0], symmetric_group(4)[0]
        a5 = [parse_permutation(c, 5) for c in ("(1 2 3 4 5)", "(1 2 3)")]
        groups_ = dict(zoo24)
        groups_["A5"] = group_from_permutations(a5)[0]
        groups_["S3xS3"] = direct_product(S3, S3)
        groups_["S4xZ2"] = direct_product(S4, cyclic_group(2))
        rng = Random(95)
        for G in groups_.values():
            for degree in (0, rng.randint(1, 20), rng.randint(21, 60)):
                h = random_hom(G, degree, rng)
                assert multiplicity_vector(h) == oracles.multiplicity_vector(h)
            h = trivial_hom(G, 7)
            assert multiplicity_vector(h) == oracles.multiplicity_vector(h)

    def test_one_stabilizer_scan_per_orbit_type(self, monkeypatch):
        # 200 fixed points are one orbit type: one stabilizer is looked up
        # in the lattice, where a scan per orbit looked up 200
        G = symmetric_group(4)[0]
        lookups = []
        real = groups.SubgroupClasses.class_id
        monkeypatch.setattr(
            groups.SubgroupClasses,
            "class_id",
            lambda self, members: lookups.append(1) or real(self, members),
        )
        mv = multiplicity_vector(trivial_hom(G, 200))
        assert lookups == [1]
        assert mv.multiplicity(real(subgroup_conjugacy_classes(G), G.elements())) == 200

    def test_lattice_bound_refuses_before_any_orbit(self, monkeypatch):
        def walked(*actions):
            raise AssertionError("orbits walked")

        monkeypatch.setattr(multiplicity, "_orbit_types", walked)
        with pytest.raises(BoundExceededError):
            multiplicity_vector(trivial_hom(cyclic_group(201), 5))


class TestMultiplicityVector:
    def test_klein_theta1(self):
        t1, _ = klein_pair()
        mv = multiplicity_vector(t1)
        classes = subgroup_conjugacy_classes(t1.source)
        nonzero = {
            frozenset(classes.representative(c).members)
            for c in mv.nonzero_classes()
        }
        assert nonzero == {
            frozenset({0, KLEIN_A}),
            frozenset({0, KLEIN_B}),
            frozenset({0, KLEIN_AB}),
        }
        for c in mv.nonzero_classes():
            assert mv.multiplicity(c) == 1
            assert mv.r(c) == Fraction(1, 6)

    def test_klein_theta2(self):
        _, t2 = klein_pair()
        mv = multiplicity_vector(t2)
        classes = subgroup_conjugacy_classes(t2.source)
        trivial_class = classes.class_id([0])
        full_class = classes.class_id(range(4))
        assert mv.multiplicity(trivial_class) == 1
        assert mv.multiplicity(full_class) == 2
        assert mv.r(trivial_class) == Fraction(1, 6)
        assert mv.r(full_class) == Fraction(1, 3)

    def test_degree_one_trivial(self):
        G = cyclic_group(3)
        mv = multiplicity_vector(trivial_hom(G, 1))
        classes = subgroup_conjugacy_classes(G)
        full = classes.class_id(range(3))
        assert mv.multiplicity(full) == 1
        assert mv.r(full) == 1

    def test_census_sums_to_degree(self, zoo8):
        rng = Random(32)
        for G in zoo8.values():
            classes = subgroup_conjugacy_classes(G)
            for _ in range(5):
                h = random_hom(G, rng.randint(1, 15), rng)
                mv = multiplicity_vector(h)
                total = sum(
                    mv.multiplicity(c) * classes.representative(c).index
                    for c in range(len(classes))
                )
                assert total == h.degree


class TestIsConjugate:
    def test_klein_pair_not_conjugate(self):
        t1, t2 = klein_pair()
        ok, witness = is_conjugate(t1, t2)
        assert not ok and witness is None

    def test_conjugated_pair_with_witness(self):
        rng = Random(33)
        G = symmetric_group(3)[0]
        for _ in range(30):
            h = random_hom(G, rng.randint(1, 10), rng)
            p = random_permutation(h.degree, rng)
            pinv = p.inverse()
            h2 = PermHomomorphism(
                G, h.degree, tuple(p * img * pinv for img in h.images)
            )
            ok, w = is_conjugate(h, h2)
            assert ok
            winv = w.inverse()
            for g in G.elements():
                assert w * h.images[g] * winv == h2.images[g]

    def test_regular_z3_actions(self):
        G = cyclic_group(3)
        h1 = PermHomomorphism(
            G,
            3,
            tuple(parse_permutation("(1 2 3)", 3) ** k for k in range(3)),
        )
        h2 = PermHomomorphism(
            G,
            3,
            tuple(parse_permutation("(1 3 2)", 3) ** k for k in range(3)),
        )
        assert brute_force_conjugate(h1, h2)
        ok, _ = is_conjugate(h1, h2)
        assert ok

    def test_against_bruteforce_oracle(self, zoo8):
        rng = Random(34)
        names = list(zoo8)
        for _ in range(60):
            G = zoo8[rng.choice(names)]
            n = rng.randint(1, 5)
            h1 = random_hom(G, n, rng)
            h2 = random_hom(G, n, rng)
            ok, w = is_conjugate(h1, h2)
            assert ok == brute_force_conjugate(h1, h2)

    def test_degree_mismatch(self):
        G = cyclic_group(2)
        with pytest.raises(SourceMismatchError):
            is_conjugate(trivial_hom(G, 2), trivial_hom(G, 3))

    def test_witness_matches_stabilizer_scan_oracle(self, zoo24):
        rng = Random(92)
        conjugate = 0
        for name in sorted(zoo24):
            G = zoo24[name]
            for i in range(6):
                n = rng.randint(1, 30)
                h1 = random_hom(G, n, rng)
                if i % 2:
                    h2 = random_hom(G, n, rng)
                else:
                    p = random_permutation(n, rng)
                    h2 = PermHomomorphism(
                        G, n, tuple(p * img * p.inverse() for img in h1.images)
                    )
                ok, w = is_conjugate(h1, h2)
                assert w == oracles.conjugacy_witness(h1, h2)
                if ok:
                    conjugate += 1
                    winv = w.inverse()
                    for g in G.elements():
                        assert w * h1.images[g] * winv == h2.images[g]
        assert conjugate > 3 * len(zoo24)

    def test_no_products(self, monkeypatch):
        # orbits and the witness are walked on one-line forms; the witness
        # is not re-checked against every element
        t1, t2 = klein_pair()
        h = random_hom(symmetric_group(4)[0], 20, Random(93))
        products = []
        real = Permutation.__mul__
        monkeypatch.setattr(
            Permutation, "__mul__", lambda p, q: products.append(1) or real(p, q)
        )
        for h1, h2 in ((t1, t1), (t1, t2), (h, h)):
            assert is_conjugate(h1, h2)[0] is (h1 is h2)
        assert products == []

    def test_no_decomposition_or_lattice(self, monkeypatch):
        # conjugacy, the order and subtraction pair orbits by equivariant
        # maps: no stabilizer class is named, so no lattice is built
        # random_hom draws coset actions from the lattice, so before the patch
        h = random_hom(symmetric_group(4)[0], 20, Random(94))
        calls = []
        for module, name in (
            (multiplicity, "subgroup_conjugacy_classes"),
            (groups, "subgroup_conjugacy_classes"),
        ):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        t1, t2 = klein_pair()
        for h1, h2, expected in ((t1, t1, True), (t1, t2, False), (h, h, True)):
            assert is_conjugate(h1, h2)[0] is expected
            assert hom_order_leq(h1, h2) is expected
        assert rep_subtract(h, h).degree == 0
        # extension and replication count orbits by type: H's lattice is
        # not built, and G's only to pick the coset actions
        G, nat = symmetric_group(4)
        A4 = subgroup_from_cycles(G, nat, "(1 2 3)", "(1 2)(3 4)")
        phi = restrict_hom(h, A4)
        assert has_extension(G, A4, phi) is not None
        assert replication_count(h, h, h.degree) == 1
        assert calls == []

    def test_transport_calls_within_orbits_times_classes(self, monkeypatch):
        # Z2xZ2xZ2 has seven order-2 subgroups, whose coset actions are
        # 4-point orbits that are pairwise not isomorphic.  Each orbit is
        # tested against one representative per class, each test trying at
        # most the representative's 4 points; a scan of the unused orbits
        # per orbit, here met in the opposite class order, takes about
        # orbits^2 calls
        G = direct_product(cyclic_group(2), klein_four_group())
        actions = [coset_action(G, H) for H in all_subgroups(G) if H.order == 2]
        blocks = [actions[k * len(actions) // 250] for k in range(250)]
        h1 = reduce(direct_sum_hom, reversed(blocks))
        h2 = reduce(direct_sum_hom, blocks)
        assert h1.degree == 1000
        calls = []
        real = multiplicity._transport
        monkeypatch.setattr(
            multiplicity, "_transport", lambda *a: calls.append(1) or real(*a)
        )
        ok, w = is_conjugate(h1, h2)
        assert ok
        winv = w.inverse()
        for a, b in zip(generator_images(h1), generator_images(h2)):
            assert w * a * winv == b
        orbits = 2 * len(blocks)
        assert len(calls) <= orbits * len(actions) * 4


    def test_transport_only_between_equal_fixed_point_counts(self, monkeypatch):
        # 1,000 random 4-point orbits of Z2xZ2xZ2 and a conjugated copy:
        # an orbit is walked only against orbits of its length on which
        # every generator fixes as many points, and the witness is the one
        # the stabilizer census gave.  Without the counts the matcher made
        # 28,201 calls here; four of the seven orbit types share them
        G = direct_product(cyclic_group(2), klein_four_group())
        actions = [coset_action(G, H) for H in all_subgroups(G) if H.order == 2]
        rng = Random(97)
        h1 = reduce(direct_sum_hom, rng.choices(actions, k=1000))
        h2 = conjugate_hom(h1, random_permutation(h1.degree, rng))

        def fixed_counts(perms, b):
            orbit = multiplicity._transport(perms, perms, b, b)
            return len(orbit), [sum(g[x - 1] == x for x in orbit) for g in perms]

        calls = []
        real = multiplicity._transport
        monkeypatch.setattr(
            multiplicity, "_transport", lambda *a: calls.append(a) or real(*a)
        )
        ok, w = is_conjugate(h1, h2)
        monkeypatch.setattr(multiplicity, "_transport", real)
        assert ok and w == oracles.conjugacy_witness(h1, h2)
        walks = [(p1, p2, b, y) for p1, p2, b, y in calls if p1 is not p2 or b != y]
        for p1, p2, b, y in walks:
            assert fixed_counts(p1, b) == fixed_counts(p2, y)
        assert len(calls) < 28_201 // 2


class TestCensusOracles:
    """The pairing against the class dictionary it replaced, and the
    order, subtraction and conjugacy witness against the stabilizer-class
    censuses they replaced, at mixed degrees."""

    @staticmethod
    def check(phi, psi):
        for a, b in ((phi, psi), (psi, phi)):  # the pairing of the class dictionary
            assert multiplicity._match(a, b) == oracles.match(a, b)
        assert hom_order_leq(phi, psi) == oracles.hom_order_leq(phi, psi)
        assert hom_order_leq(psi, phi) == oracles.hom_order_leq(psi, phi)
        subtracted = 0
        for a, b in ((psi, phi), (phi, psi)):
            try:
                expected = oracles.rep_subtract(a, b)
            except NotComparableError:
                with pytest.raises(NotComparableError):
                    rep_subtract(a, b)
            else:
                assert rep_subtract(a, b) == expected
                subtracted += 1
        if phi.degree == psi.degree:
            assert is_conjugate(phi, psi)[1] == oracles.conjugacy_witness(phi, psi)
        return subtracted

    def test_zoo24(self, zoo24):
        rng = Random(95)
        subtracted = refused = 0
        for name in sorted(zoo24):
            G = zoo24[name]
            for i in range(6):
                # psi: independent, a conjugated copy of phi, or a
                # conjugated copy of phi plus more orbits
                phi = random_hom(G, rng.randint(0, 16), rng)
                if i % 3 == 0:
                    psi = random_hom(G, rng.randint(0, 16), rng)
                else:
                    more = rng.randint(0, 16) if i % 3 == 2 else 0
                    psi = direct_sum_hom(random_hom(G, more, rng), phi)
                    psi = conjugate_hom(psi, random_permutation(psi.degree, rng))
                k = self.check(phi, psi)
                subtracted += k
                refused += 2 - k
        assert subtracted > 3 * len(zoo24) and refused > len(zoo24)

    def test_same_size_orbits_of_z2_cubed(self, zoo24):
        # seven classes of 4-point orbits: the orbit sizes agree, the
        # orbit types do not
        G = zoo24["Z2xZ2xZ2"]
        actions = [coset_action(G, H) for H in all_subgroups(G) if H.order == 2]
        rng = Random(96)

        def block_sum(blocks):
            return reduce(direct_sum_hom, blocks, trivial_hom(G, 0))

        subtracted = 0
        for _ in range(40):
            common = rng.choices(actions, k=rng.randint(0, 5))
            phi = block_sum(common + rng.choices(actions, k=rng.randint(0, 2)))
            psi = block_sum(rng.choices(actions, k=rng.randint(0, 2)) + common)
            phi = conjugate_hom(phi, random_permutation(phi.degree, rng))
            subtracted += self.check(phi, psi)
        assert subtracted > 20


class TestHomOrder:
    def test_reflexive(self):
        t1, _ = klein_pair()
        assert hom_order_leq(t1, t1)

    def test_klein_pair_incomparable(self):
        t1, t2 = klein_pair()
        assert not hom_order_leq(t1, t2)
        assert not hom_order_leq(t2, t1)

    def test_double_dominates(self):
        rng = Random(35)
        G = symmetric_group(3)[0]
        for _ in range(20):
            h = random_hom(G, rng.randint(1, 8), rng)
            assert hom_order_leq(h, direct_sum_hom(h, h))


class TestRepSubtract:
    def test_subtract_self_gives_empty(self):
        t1, _ = klein_pair()
        out = rep_subtract(t1, t1)
        assert out.degree == 0

    def test_theta2_minus_fixed_points(self):
        _, t2 = klein_pair()
        G = t2.source
        out = rep_subtract(t2, trivial_hom(G, 2))
        assert out.degree == 4
        regular = coset_action(G, trivial_subgroup(G))
        ok, _ = is_conjugate(out, regular)
        assert ok

    def test_theta1_minus_one_orbit(self):
        t1, _ = klein_pair()
        G = t1.source
        # one 2-point orbit with stabilizer <a>: the restriction to {5,6}
        rho = PermHomomorphism(
            G,
            2,
            tuple(
                Permutation([t1.images[g](x) - 4 for x in (5, 6)])
                for g in G.elements()
            ),
        )
        out = rep_subtract(t1, rho)
        assert out.degree == 4
        back = direct_sum_hom(out, rho)
        ok, _ = is_conjugate(back, t1)
        assert ok

    def test_roundtrip_random(self, zoo8):
        rng = Random(36)
        names = list(zoo8)
        for _ in range(40):
            G = zoo8[rng.choice(names)]
            rho = random_hom(G, rng.randint(1, 6), rng)
            extra = random_hom(G, rng.randint(1, 6), rng)
            phi = direct_sum_hom(rho, extra)
            out = rep_subtract(phi, rho)
            ok, _ = is_conjugate(direct_sum_hom(out, rho), phi)
            assert ok

    def test_precondition_enforced(self):
        t1, t2 = klein_pair()
        with pytest.raises(NotComparableError):
            rep_subtract(t1, t2)
