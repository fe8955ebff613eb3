"""Small conjugators, minimum conjugator distance, extensions, retracts,
amalgams, lifts, and correction of almost-centralizing permutations."""

import hashlib
import json
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache, reduce
from random import Random

import pytest

from permstab.cli import MAX_EXACT_DEGREE, dispatch
from permstab.errors import (
    AmalgamMismatchError,
    BoundExceededError,
    DegreeMismatchError,
    NotConjugateError,
    SourceMismatchError,
    ZeroMultiplicityError,
)
from permstab.fixtures import (
    SL2Z_RELATORS,
    modular_amalgam,
    swapped_block_homs,
    swapped_block_pair,
)
from permstab.groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    all_subgroups,
    check_homomorphism,
    conjugate_hom,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_sum_hom,
    generator_images,
    group_from_permutations,
    hom_from_element_map,
    klein_four_group,
    quaternion_group,
    restrict_hom,
    subgroup_closure,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_hom,
    trivial_subgroup,
)
from permstab import groups, multiplicity, stability
from permstab.multiplicity import is_conjugate, multiplicity_vector
from permstab.perm import (
    Permutation,
    all_permutations,
    hamming_distance,
    parse_permutation,
)
from permstab.randgen import (
    perturbed_conjugate_pair,
    random_hom,
    random_permutation,
    random_small_support_permutation,
)
from permstab.stability import (
    DEFAULT_LIFT_SIZE_BOUND,
    agreement_set,
    amalgamated_hom,
    centralizer_correct,
    commutator_defect,
    compose_lift,
    find_normal_complement,
    has_extension,
    max_image_distance,
    min_conjugator_distance,
    nearest_conjugator,
    replicate_hom,
    replication_count,
    retraction_from_complement,
    small_conjugator,
)
from permstab.trace_stats import action_trace

from conftest import enumerate_homs, medium_group_zoo, subgroup_from_cycles
import oracles
from oracles import (
    centralizer_elements,
    centralizer_order,
    correction_oracle,
    min_conjugator_oracle,
)


def z2_hom(degree: int, image: Permutation) -> PermHomomorphism:
    return PermHomomorphism(
        cyclic_group(2), degree, (Permutation.identity(degree), image)
    )


class TestSmallConjugator:
    def test_equal_pair_gives_identity(self):
        h = z2_hom(6, parse_permutation("(1 2)(3 4)", 6))
        assert small_conjugator(h, h) == Permutation.identity(6)

    def test_worked_example(self):
        h1 = z2_hom(10, parse_permutation("(1 2)(3 4)", 10))
        h2 = z2_hom(10, parse_permutation("(1 2)(5 6)", 10))
        assert agreement_set(h1, h2) == (1, 2, 7, 8, 9, 10)
        p = small_conjugator(h1, h2)
        assert p == parse_permutation("(3 5)(4 6)", 10)
        d = hamming_distance(p, Permutation.identity(10))
        assert d == Fraction(2, 5)
        assert d <= 2 * max_image_distance(h1, h2)

    def test_swapped_block_pair(self):
        h1, h2 = swapped_block_homs(2)
        eps = max_image_distance(h1, h2)
        assert eps == 1  # the bound |H| * eps is vacuous here
        p = small_conjugator(h1, h2)
        pinv = p.inverse()
        for g in h1.source.elements():
            assert p * h1.images[g] * pinv == h2.images[g]

    def test_not_conjugate_rejected(self):
        h1 = z2_hom(4, parse_permutation("(1 2)", 4))
        h2 = z2_hom(4, parse_permutation("(1 2)(3 4)", 4))
        with pytest.raises(NotConjugateError):
            small_conjugator(h1, h2)

    def test_one_match_on_the_complement(self, monkeypatch):
        # only the restrictions to the points outside the agreement set
        # are matched, once, and no orbit census or lattice is built
        degrees, calls = [], []
        real = multiplicity._match
        monkeypatch.setattr(
            multiplicity,
            "_match",
            lambda h1, h2: degrees.append((h1.degree, h2.degree)) or real(h1, h2),
        )
        for module, name in (
            (multiplicity, "subgroup_conjugacy_classes"),
            (groups, "subgroup_conjugacy_classes"),
        ):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        h1 = z2_hom(8, parse_permutation("(1 2)(3 4)", 8))
        for image, conjugate in (("(1 2)(5 6)", True), ("(1 2)(3 4)(5 6)", False)):
            degrees.clear()
            h2 = z2_hom(8, parse_permutation(image, 8))
            if conjugate:
                p = small_conjugator(h1, h2)
                assert p * h1.images[1] * p.inverse() == h2.images[1]
            else:
                with pytest.raises(NotConjugateError):
                    small_conjugator(h1, h2)
            k = 8 - len(agreement_set(h1, h2))
            assert degrees == [(k, k)]
        assert calls == []

    def test_random_perturbed_suite(self, zoo8):
        rng = Random(41)
        names = [k for k, G in zoo8.items() if G.order <= 8]
        for _ in range(150):
            G = zoo8[rng.choice(names)]
            n = rng.randint(8 * G.order, 12 * G.order)
            support = rng.randint(0, max(1, n // (4 * G.order)))
            h1, h2, _ = perturbed_conjugate_pair(G, n, support, rng)
            eps = max_image_distance(h1, h2)
            assert eps < Fraction(1, 2 * G.order)
            p = small_conjugator(h1, h2)
            ident = Permutation.identity(n)
            assert hamming_distance(p, ident) <= G.order * eps
            A = set(agreement_set(h1, h2))
            assert all(p(i) == i for i in A)
            pinv = p.inverse()
            for g in G.elements():
                assert p * h1.images[g] * pinv == h2.images[g]


    def test_agreement_set_presentation_source(self):
        # x -> (1 2) and x -> (1 2 3) agree at 1 on x, but not on x^2
        P = FpGroup(("x",))
        h1 = PermHomomorphism(P, 3, (parse_permutation("(1 2)", 3),))
        h2 = PermHomomorphism(P, 3, (parse_permutation("(1 2 3)", 3),))
        assert agreement_set(h1, h2) == ()
        h3 = PermHomomorphism(P, 4, (parse_permutation("(1 2)", 4),))
        h4 = PermHomomorphism(P, 4, (parse_permutation("(1 2)(3 4)", 4),))
        assert agreement_set(h3, h4) == (1, 2)

    def test_agreement_set_against_element_scan(self, zoo24):
        rng = Random(94)
        sizes = []
        for name in sorted(zoo24):
            G = zoo24[name]
            for i in range(6):
                n = rng.randint(1, 40)
                h1 = random_hom(G, n, rng)
                if i % 3 == 2:
                    h2 = random_hom(G, n, rng)
                else:
                    h2 = perturbed_conjugate_pair(G, n, 4, rng)[1]
                    h1 = conjugate_hom(h2, random_small_support_permutation(n, 3, rng))
                A = agreement_set(h1, h2)
                assert A == oracles.agreement_set(h1, h2)
                sizes.append(len(A))
        assert 0 < sizes.count(0) < len(sizes) // 2


class TestCentralizer:
    def test_order_formula(self):
        rng = Random(42)
        for _ in range(25):
            p = random_permutation(rng.randint(1, 6), rng)
            elems = list(centralizer_elements(p))
            assert len(elems) == centralizer_order(p)
            assert len(set(elems)) == len(elems)
            assert all(c * p == p * c for c in elems)

    def test_identity_centralizer_is_everything(self):
        p = Permutation.identity(4)
        assert centralizer_order(p) == 24
        assert set(centralizer_elements(p)) == set(all_permutations(4))

    def test_matches_symmetric_group_filter(self):
        rng = Random(43)
        for _ in range(10):
            p = random_permutation(5, rng)
            expected = {q for q in all_permutations(5) if q * p == p * q}
            assert set(centralizer_elements(p)) == expected


class TestMinConjugatorDistance:
    def test_identical_pair(self):
        h = z2_hom(6, parse_permutation("(1 2)(3 4)", 6))
        d, w = min_conjugator_distance(h, h)
        assert d == 0
        assert w == Permutation.identity(6)

    def test_identical_klein_action(self):
        from permstab.fixtures import klein_pair

        t1, _ = klein_pair()
        d, w = min_conjugator_distance(t1, t1)
        assert d == 0
        assert w == Permutation.identity(6)

    def test_single_transposition(self):
        h = z2_hom(3, parse_permutation("(1 2)", 3))
        d, _ = min_conjugator_distance(h, h)
        assert d == 0

    def test_swapped_block_pair_k2(self):
        # Independent oracle: full scan of all 8! candidates.
        x, y = swapped_block_pair(2)
        best = None
        for p in all_permutations(8):
            if p * x == y * p:
                d = hamming_distance(p, Permutation.identity(8))
                best = d if best is None else min(best, d)
        assert best == Fraction(3, 4)
        h1, h2 = swapped_block_homs(2)
        d, w = min_conjugator_distance(h1, h2)
        assert d == best == Fraction(3, 4)
        assert w * x == y * w

    def test_not_conjugate(self):
        h1 = z2_hom(4, parse_permutation("(1 2)", 4))
        h2 = z2_hom(4, parse_permutation("(1 2)(3 4)", 4))
        with pytest.raises(NotConjugateError):
            min_conjugator_distance(h1, h2)

    def test_above_degree_8_matches_oracle(self, zoo8):
        # conjugated pairs whose least-centralized image has a centralizer
        # small enough for the oracle to enumerate
        rng = Random(45)
        names = sorted(zoo8)
        compared = 0
        while compared < 40:
            G = zoo8[rng.choice(names)]
            n = rng.randint(9, 12)
            h1 = random_hom(G, n, rng)
            if min(map(centralizer_order, h1.images)) > 20_000:
                continue
            h2 = conjugate_hom(h1, random_permutation(n, rng))
            assert min_conjugator_distance(h1, h2) == min_conjugator_oracle(h1, h2)
            compared += 1

    def test_small_conjugator_never_beats_minimum(self, zoo8):
        rng = Random(44)
        names = [k for k, G in zoo8.items() if G.order <= 4]
        for _ in range(40):
            G = zoo8[rng.choice(names)]
            n = rng.randint(1, 7)
            h1, h2, _ = perturbed_conjugate_pair(G, n, rng.randint(0, 2), rng)
            dmin, _ = min_conjugator_distance(h1, h2)
            p = small_conjugator(h1, h2)
            assert dmin <= hamming_distance(p, Permutation.identity(n))


class TestNearestConjugator:
    """The one solver behind ``min-conj`` and ``correct`` against the
    exhaustive centralizer-coset minima of ``oracles``."""

    def test_correct_matches_oracle(self):
        rng = Random(52)
        for _ in range(2000):
            n = rng.randint(0, 7)
            a = random_permutation(n, rng)
            q = random_permutation(n, rng)
            rep = centralizer_correct(a, q, mode="exact")
            assert (rep.distance, rep.corrected) == correction_oracle(a, q)

    def test_min_conj_matches_oracle(self, zoo8):
        rng = Random(53)
        names = sorted(zoo8)
        compared = 0
        while compared < 300:
            G = zoo8[rng.choice(names)]
            n = rng.randint(1, 7)
            h1 = random_hom(G, n, rng)
            if rng.random() < 0.8:
                h2 = conjugate_hom(h1, random_permutation(n, rng))
            else:
                h2 = random_hom(G, n, rng)
            if not is_conjugate(h1, h2)[0]:
                with pytest.raises(NotConjugateError):
                    min_conjugator_distance(h1, h2)
                continue
            assert min_conjugator_distance(h1, h2) == min_conjugator_oracle(h1, h2)
            compared += 1

    def test_heuristic_equals_exact_up_to_degree_8(self):
        rng = Random(54)
        for _ in range(300):
            n = rng.randint(0, 8)
            a = random_permutation(n, rng)
            q = random_permutation(n, rng)
            if n > 1 and rng.random() < 0.5:  # a power of a, one swap away
                x, y = rng.sample(range(1, n + 1), 2)
                q = parse_permutation(f"({x} {y})", n) * a ** rng.randint(0, n)
            exact = centralizer_correct(a, q, mode="exact")
            heuristic = centralizer_correct(a, q, mode="heuristic")
            assert (heuristic.corrected, heuristic.distance) == (
                exact.corrected,
                exact.distance,
            )
            assert heuristic.mode == "heuristic"

    def test_heuristic_matches_oracle_degree_9_to_40(self):
        rng = Random(55)
        checked = 0
        while checked < 60:
            n = rng.randint(9, 40)
            a = random_permutation(n, rng)
            if centralizer_order(a) > 20_000:
                continue
            q = random_permutation(n, rng)
            rep = centralizer_correct(a, q, mode="heuristic")
            assert (rep.distance, rep.corrected) == correction_oracle(a, q)
            checked += 1

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_swapped_block_pairs_attain_one_minus_inverse_square(self, k):
        # degrees 18 to 72
        h1, h2 = swapped_block_homs(k)
        d, p = min_conjugator_distance(h1, h2)
        assert d == 1 - Fraction(1, k * k)
        pinv = p.inverse()
        assert all(p * a * pinv == b for a, b in zip(h1.images, h2.images))

    def test_free_actions_of_two_generators(self):
        # generators of no common finite source: a conjugator of the pair
        # of lists, nearest to the target
        rng = Random(56)
        for _ in range(200):
            n = rng.randint(1, 6)
            x, y = random_permutation(n, rng), random_permutation(n, rng)
            c = random_permutation(n, rng)
            cinv = c.inverse()
            target = random_permutation(n, rng)
            p = nearest_conjugator([x, y], [c * x * cinv, c * y * cinv], target)
            best = min(
                (hamming_distance(target, r), r.images)
                for r in all_permutations(n)
                if r * x == c * x * cinv * r and r * y == c * y * cinv * r
            )
            assert (hamming_distance(target, p), p.images) == best

    def test_unmatched_orbit_classes_rejected(self):
        x = parse_permutation("(1 2 3)", 4)
        y = parse_permutation("(1 2)(3 4)", 4)
        with pytest.raises(NotConjugateError):
            nearest_conjugator([x], [y], Permutation.identity(4))

    def test_degree_zero(self):
        empty = Permutation.identity(0)
        assert nearest_conjugator([empty], [empty], empty) == empty

    def test_equals_partner_keyed_oracle(self, zoo24):
        # random conjugate and non-conjugate pairs, and sums of the seven
        # 4-point orbit types of Z2xZ2xZ2 (the coset actions of its
        # order-2 subgroups), whose orbit sizes all agree
        rng = Random(57)
        cases = []
        for name in sorted(zoo24):
            G = zoo24[name]
            for i in range(4):
                n = rng.randint(0, 12)
                h1 = random_hom(G, n, rng)
                h2 = random_hom(G, n, rng) if i % 2 else h1
                cases.append((h1, conjugate_hom(h2, random_permutation(n, rng))))
        G = zoo24["Z2xZ2xZ2"]
        quads = [coset_action(G, H) for H in all_subgroups(G) if H.order == 2]
        for i in range(40):
            k = rng.randint(1, 4)
            h1 = reduce(direct_sum_hom, rng.choices(quads, k=k))
            h2 = reduce(direct_sum_hom, rng.choices(quads, k=k)) if i % 2 else h1
            cases.append((h1, conjugate_hom(h2, random_permutation(4 * k, rng))))
        refused = 0
        for h1, h2 in cases:
            gens1, gens2 = generator_images(h1), generator_images(h2)
            target = random_permutation(h1.degree, rng)
            try:
                expected = oracles.nearest_conjugator(gens1, gens2, target)
            except NotConjugateError:
                refused += 1
                with pytest.raises(NotConjugateError):
                    nearest_conjugator(gens1, gens2, target)
            else:
                assert nearest_conjugator(gens1, gens2, target) == expected
        assert len(cases) // 2 < len(cases) - refused < len(cases) - 20


class TestFixedPointsInClosedForm:
    """``nearest_conjugator`` solves the points fixed by every generator in
    closed form; ``oracles.nearest_conjugator_hungarian`` gives them one
    assignment over big-integer weights, as the solver did before."""

    @staticmethod
    def check(gens1, gens2, target):
        try:
            expected = oracles.nearest_conjugator_hungarian(gens1, gens2, target)
        except NotConjugateError:
            with pytest.raises(NotConjugateError):
                nearest_conjugator(gens1, gens2, target)
            return False
        assert nearest_conjugator(gens1, gens2, target) == expected
        return True

    def test_correct_cases(self):
        rng = Random(52)  # the cases of test_correct_matches_oracle
        for _ in range(2000):
            n = rng.randint(0, 7)
            a = random_permutation(n, rng)
            q = random_permutation(n, rng)
            assert self.check([a], [a], q)

    def test_min_conj_cases(self, zoo8):
        rng = Random(53)  # the cases of test_min_conj_matches_oracle
        names = sorted(zoo8)
        compared = 0
        while compared < 300:
            G = zoo8[rng.choice(names)]
            n = rng.randint(1, 7)
            h1 = random_hom(G, n, rng)
            if rng.random() < 0.8:
                h2 = conjugate_hom(h1, random_permutation(n, rng))
            else:
                h2 = random_hom(G, n, rng)
            gens1, gens2 = generator_images(h1), generator_images(h2)
            compared += self.check(gens1, gens2, Permutation.identity(n))

    def test_random_cases_degree_50_to_300(self):
        # one or two generators moving a few points, so that most points
        # lie in the fixed-point class: the centralizer of the list, or a
        # conjugate list, whose fixed points the conjugator moves; the
        # target is the identity, the conjugator, or random
        rng = Random(58)
        for i in range(16):
            n = rng.randint(50, 300)
            gens1 = [random_small_support_permutation(n, rng.randint(2, 10), rng)
                     for _ in range(1 + i % 2)]
            c = random_permutation(n, rng) if i % 4 > 1 else Permutation.identity(n)
            cinv = c.inverse()
            gens2 = [c * g * cinv for g in gens1]
            target = (Permutation.identity(n), c, random_permutation(n, rng))[i % 3]
            assert self.check(gens1, gens2, target)
            p = nearest_conjugator(gens1, gens2, target)
            pinv = p.inverse()
            assert all(p * g * pinv == g2 for g, g2 in zip(gens1, gens2))

    def test_degree_1200_correct(self):
        # 1,197 points fixed by (1 2 3): the assignment over them held
        # about 1.5 GB; (4 5) commutes with (1 2 3), so it is its own answer
        argv = ["correct", "--coef", "(1 2 3)", "--almost", "(4 5)",
                "--degree", "1200", "--mode", "heuristic"]
        start = time.perf_counter()
        code, report = dispatch(argv)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["outputs"] == {
            "corrected": "(4 5)", "distance": "0", "input_defect": "0", "mode": "heuristic"
        }
        a = parse_permutation("(1 2 3)", 1200)
        q = random_small_support_permutation(1200, 40, Random(59))
        tracemalloc.start()
        try:
            rep = centralizer_correct(a, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000
        assert rep.corrected * a == a * rep.corrected


def disjoint_cycles(n, lengths, rng):
    """A permutation of degree ``n`` with cycles of the given lengths on
    random points, every other point fixed."""
    images = list(range(1, n + 1))
    points = rng.sample(range(1, n + 1), sum(lengths))
    for k in lengths:
        cycle, points = points[:k], points[k:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return Permutation(images)


class TestWeightsPerOrbitType:
    """Each orbit type's assignment weighs only the type's own points, in
    base ``n+1``, so a type of ``k`` points has weights of about
    ``k log n`` bits, not ``n log n``; the answers are the old solver's."""

    def test_random_cases_with_many_orbits_per_type(self):
        # types of up to a dozen transpositions or 3-cycles beside the fixed
        # points, and a second generator that splits some of them; the
        # target is the identity, the conjugator, or random
        rng = Random(81)
        for i in range(12):
            n = rng.randint(50, 300)
            lengths = [2] * rng.randint(1, 12) + [3] * rng.randint(0, 6)
            gens1 = [disjoint_cycles(n, lengths, rng)]
            if i % 2:
                gens1.append(random_small_support_permutation(n, rng.randint(2, 6), rng))
            c = random_permutation(n, rng) if i % 4 > 1 else Permutation.identity(n)
            cinv = c.inverse()
            gens2 = [c * g * cinv for g in gens1]
            target = (Permutation.identity(n), c, random_permutation(n, rng))[i % 3]
            assert TestFixedPointsInClosedForm.check(gens1, gens2, target)

    def test_degree_20000_correct(self):
        # the weights of every point were built before any orbit was read:
        # about 40 s and 393 MB at this degree, where only (1 2 3) needs them
        argv = ["correct", "--coef", "(1 2 3)", "--almost", "(4 5)",
                "--degree", "20000", "--mode", "heuristic"]
        start = time.perf_counter()
        code, report = dispatch(argv)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["outputs"] == {
            "corrected": "(4 5)", "distance": "0", "input_defect": "0", "mode": "heuristic"
        }
        a = parse_permutation("(1 2 3)", 20000)
        q = parse_permutation("(1 2)(4 5)", 20000)
        tracemalloc.start()
        try:
            rep = centralizer_correct(a, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000
        assert rep.corrected == parse_permutation("(4 5)", 20000)


class TestHasExtension:
    def test_subgroup_equals_group(self):
        G = cyclic_group(4)
        H = Subgroup(G, range(4))
        Habs, emb = H.as_group()
        phi = coset_action(Habs, trivial_subgroup(Habs))
        ext = has_extension(G, H, phi)
        assert ext is not None
        for i, g in enumerate(emb):
            assert ext.images[g] == phi.images[i]

    def test_cyclic3_in_sym3_regular(self):
        G, nat = symmetric_group(3)
        A3 = subgroup_from_cycles(G, nat, "(1 2 3)")
        Habs, emb = A3.as_group()
        phi = coset_action(Habs, trivial_subgroup(Habs))
        ext = has_extension(G, A3, phi)
        assert ext is not None
        assert check_homomorphism(ext).ok
        for i, g in enumerate(emb):
            assert ext.images[g] == phi.images[i]

    @pytest.mark.parametrize("orbits", [1, 5])
    def test_no_extension_z2_in_z4(self, orbits):
        # a Z4-set restricts to an even number of regular Z2-orbits
        G = cyclic_group(4)
        H = subgroup_closure(G, [2])
        Habs, _ = H.as_group()
        n = 2 * orbits
        swaps = "".join(f"({2 * i + 1} {2 * i + 2})" for i in range(orbits))
        phi = PermHomomorphism(
            Habs, n, (Permutation.identity(n), parse_permutation(swaps, n))
        )
        assert has_extension(G, H, phi) is None

    @pytest.mark.parametrize("involution", ["(1 2)", "(1 2)(3 4)"])
    def test_sym4_over_alt4_degree_12(self, involution):
        G, nat = symmetric_group(4)
        A4 = subgroup_from_cycles(G, nat, "(1 2 3)", "(1 2)(3 4)")
        K = subgroup_from_cycles(G, nat, involution)
        p = random_permutation(12, Random(47))
        phi = conjugate_hom(restrict_hom(coset_action(G, K), A4), p)
        ext = has_extension(G, A4, phi)
        assert ext is not None
        assert check_homomorphism(ext).ok
        assert restrict_hom(ext, A4) == phi

    def test_completeness_against_enumeration(self, zoo8):
        # independent oracle: enumerate every homomorphism of G and filter
        rng = Random(45)
        cases = []
        for name in ("Z4", "S3", "Z2xZ2", "Z6"):
            G = zoo8[name]
            for H in (
                [s for s in __import__("permstab").all_subgroups(G)][:4]
            ):
                cases.append((G, H))
        for G, H in cases:
            Habs, emb = H.as_group()
            for n in (2, 3, 4):
                all_homs = enumerate_homs(G, n)
                for phi in enumerate_homs(Habs, n):
                    expected = any(
                        all(
                            ext.images[g] == phi.images[i]
                            for i, g in enumerate(emb)
                        )
                        for ext in all_homs
                    )
                    got = has_extension(G, H, phi)
                    assert (got is not None) == expected
                    if got is not None:
                        assert check_homomorphism(got).ok
                        for i, g in enumerate(emb):
                            assert got.images[g] == phi.images[i]


    def test_builds_the_subgroup_table_once(self, monkeypatch):
        G, nat = symmetric_group(4)
        cases = []
        for gens in (("(1 2)",), ("(1 2 3)",), ("(1 2)(3 4)", "(1 3)(2 4)"), ("(1 2 3 4)",)):
            H = subgroup_from_cycles(G, nat, *gens)
            Habs, _ = Subgroup(G, H.members).as_group()  # a separate instance
            for n in (2, 4):
                cases.append((H, random_hom(Habs, n, Random(n))))
        built = []  # tables built, validated or trusted
        real, real_trusted = FiniteGroup.__init__, FiniteGroup._trusted.__func__
        monkeypatch.setattr(
            FiniteGroup, "__init__", lambda self, table: built.append(1) or real(self, table)
        )
        monkeypatch.setattr(
            FiniteGroup,
            "_trusted",
            classmethod(lambda cls, rows, e: built.append(1) or real_trusted(cls, rows, e)),
        )
        for H, phi in cases:
            fresh = Subgroup(G, H.members)
            built.clear()
            has_extension(G, fresh, phi)
            assert built == [1]
            built.clear()
            has_extension(G, fresh, phi)
            assert built == []


    def test_equals_lattice_census_oracle(self, zoo24):
        # random actions of each subgroup-class representative, against
        # the censuses over H's subgroup lattice
        rng = Random(58)
        found = refused = 0
        for name in sorted(zoo24):
            G = zoo24[name]
            classes = subgroup_conjugacy_classes(G)
            for H in map(classes.representative, range(len(classes))):
                for n in (rng.randint(1, 6), rng.randint(4, 12)):
                    phi = random_hom(H.as_group()[0], n, rng)
                    ext = has_extension(G, H, phi)
                    assert ext == oracles.has_extension(G, H, phi)
                    found += ext is not None
                    refused += ext is None
        assert found > 100 and refused > 20

    @staticmethod
    def s5_over_s3_z2():
        G, nat = symmetric_group(5)
        return G, nat, subgroup_from_cycles(G, nat, "(1 2)", "(1 2 3)", "(4 5)")

    def test_fixed_counts_refused_before_the_search(self, monkeypatch, tmp_path):
        # on H/<(1 2)>, (1 2) fixes points and (4 5), its conjugate in S5,
        # fixes none: no S5-set restricts to it, and no census is searched
        def unsearched(censuses, target):
            raise AssertionError("the census search ran")

        monkeypatch.setattr(stability, "_census_combination", unsearched)
        G, nat, H = self.s5_over_s3_z2()
        Habs, emb = H.as_group()
        K = subgroup_closure(Habs, [emb.index(nat.images.index(parse_permutation("(1 2)", 5)))])
        phi = coset_action(Habs, K)
        table = {"kind": "table", "order": Habs.order, "table": [list(r) for r in Habs.table]}
        files = {
            "g": {"kind": "perm-gens", "degree": 5, "generators": ["(1 2)", "(1 2 3 4 5)"]},
            "h": {"members": list(H.members)},
            "phi": {"group": table, "degree": phi.degree,
                    "images": {str(i): p.cycle_str() for i, p in enumerate(phi.images)}},
        }
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        code, report = dispatch(["extend", *(str(tmp_path / name) for name in files)])
        assert code == 0
        assert report["outputs"] == {"found": False, "extension": None}

    def test_restriction_of_an_s5_set_passes_the_fixed_counts(self):
        G, nat, H = self.s5_over_s3_z2()
        phi = restrict_hom(random_hom(G, 40, Random(61)), H)
        assert stability._fixed_counts_are_class_function(G, H, phi)
        ext = has_extension(G, H, phi)
        assert ext is not None and restrict_hom(ext, H) == phi


class TestNormalComplement:
    def test_transposition_in_sym3(self):
        G, nat = symmetric_group(3)
        H = subgroup_from_cycles(G, nat, "(1 2)")
        K = find_normal_complement(G, H)
        assert K is not None
        assert K.order == 3
        retr = retraction_from_complement(G, H, K)
        assert all(retr[h] == h for h in H.members)
        for a in G.elements():
            for b in G.elements():
                assert retr[G.mul(a, b)] == G.mul(retr[a], retr[b])

    def test_cyclic3_in_sym3_has_none(self):
        G, nat = symmetric_group(3)
        A3 = subgroup_from_cycles(G, nat, "(1 2 3)")
        assert find_normal_complement(G, A3) is None

    def test_trivial_subgroup(self):
        G = cyclic_group(6)
        K = find_normal_complement(G, trivial_subgroup(G))
        assert K is not None and K.order == 6

    def test_one_set_classes_match_the_subgroup_scan(self, zoo24):
        a5 = [parse_permutation("(1 2 3)", 5), parse_permutation("(1 2 3 4 5)", 5)]
        cases = list(zoo24.values()) + [
            group_from_permutations(a5)[0],
            symmetric_group(5)[0],
        ]
        found = 0
        for G in cases:
            for H in all_subgroups(G):
                K = find_normal_complement(G, H)
                assert K == oracles.normal_complement(G, H)
                found += K is not None
        assert found > 100


class TestAmalgam:
    def test_trivial_degree_one(self):
        z2a = FpGroup(("u",), ("u^2",))
        z2b = FpGroup(("v",), ("v^2",))
        p1 = trivial_hom(z2a, 1)
        p2 = trivial_hom(z2b, 1)
        am = amalgamated_hom(p1, p2, [("u", "v")])
        assert am.degree == 1

    def test_modular_instance(self):
        am = modular_amalgam()
        for rel in SL2Z_RELATORS:
            assert am.check_relator(rel)
        assert am.evaluate_mixed_word("s^2") == am.evaluate_mixed_word("t^3")
        # alternating word evaluation multiplies images in order
        w = am.evaluate_mixed_word("s t s^-1")
        expected = (
            am.psi1.generator_image("s")
            * am.psi2.generator_image("t")
            * am.psi1.generator_image("s").inverse()
        )
        assert w == expected

    def test_restrictions_preserved(self):
        am = modular_amalgam()
        assert am.evaluate_mixed_word("s") == am.psi1.images[0]
        assert am.evaluate_mixed_word("t") == am.psi2.images[0]

    def test_mismatch_rejected_with_witness(self):
        with pytest.raises(AmalgamMismatchError) as err:
            modular_amalgam(valid=False)
        assert err.value.witness == ("s^2", "t^3")

    def test_degree_mismatch(self):
        z2a = FpGroup(("u",), ("u^2",))
        z2b = FpGroup(("v",), ("v^2",))
        with pytest.raises(DegreeMismatchError):
            amalgamated_hom(trivial_hom(z2a, 1), trivial_hom(z2b, 2), [])

    def test_alternating_product_count(self, monkeypatch):
        # L factors cost L - 1 products; the empty word is the identity
        am = modular_amalgam()
        factors = [(1, "s"), (2, "t"), (1, "s^-1"), (2, "t^-1")]
        real = Permutation.__mul__
        for length in range(1, 5):
            products = []
            monkeypatch.setattr(
                Permutation, "__mul__", lambda p, q: products.append(1) or real(p, q)
            )
            result = am.evaluate_alternating(factors[:length])
            monkeypatch.undo()
            expected = am._side_image(*factors[0])
            for side, token in factors[1:length]:
                expected = expected * am._side_image(side, token)
            assert result == expected
            assert len(products) == length - 1
        assert am.evaluate_alternating([]) == Permutation.identity(am.degree)

    def test_table_sources_with_element_pairs(self):
        G1 = cyclic_group(4)
        G2 = cyclic_group(6)
        h1 = hom_from_element_map(
            G1, 4, {g: parse_permutation("(1 2 3 4)", 4) ** g for g in range(4)}
        )
        h2 = hom_from_element_map(
            G2, 4, {g: parse_permutation("(1 3)(2 4)", 4) ** g for g in range(6)}
        )
        am = amalgamated_hom(h1, h2, [(2, 3)])  # s^2 paired with t^3
        word = am.evaluate_alternating([(1, 1), (2, 1), (1, 2)])
        assert word == h1.images[1] * h2.images[1] * h1.images[2]


class TestReplicationCount:
    def test_equal_homs(self):
        G, nat = symmetric_group(3)
        H = subgroup_from_cycles(G, nat, "(1 2)")
        psi = coset_action(G, H)
        assert replication_count(psi, psi, psi.degree) == 1

    def test_triple_copy(self):
        G = cyclic_group(2)
        psi = coset_action(G, trivial_subgroup(G))
        phi = replicate_hom(psi, 3)
        assert replication_count(phi, psi, psi.degree) == 3

    def test_floor_of_ratios(self):
        G = cyclic_group(2)
        psi = coset_action(G, trivial_subgroup(G))  # one free orbit
        phi = direct_sum_hom(replicate_hom(psi, 2), trivial_hom(G, 1))
        assert replication_count(phi, psi, psi.degree) == 2

    def test_foreign_replicand_class_forces_zero(self):
        G = cyclic_group(2)
        free = coset_action(G, trivial_subgroup(G))
        fixed = trivial_hom(G, 1)
        assert replication_count(free, fixed, 1) == 0

    def test_empty_replicand_rejected(self):
        G = cyclic_group(2)
        free = coset_action(G, trivial_subgroup(G))
        with pytest.raises(ZeroMultiplicityError):
            replication_count(free, trivial_hom(G, 0), 0)

    def test_coset_degree_checked(self):
        G = cyclic_group(2)
        psi = coset_action(G, trivial_subgroup(G))
        with pytest.raises(DegreeMismatchError):
            replication_count(psi, psi, 5)

    def test_maximality(self, zoo8):
        from permstab.multiplicity import hom_order_leq

        rng = Random(46)
        for _ in range(40):
            G = zoo8[rng.choice(list(zoo8))]
            psi = random_hom(G, rng.randint(1, 4), rng)
            phi = direct_sum_hom(
                replicate_hom(psi, rng.randint(1, 3)),
                random_hom(G, rng.randint(1, 5), rng),
            )
            try:
                s = replication_count(phi, psi, psi.degree)
            except ZeroMultiplicityError:
                continue
            assert hom_order_leq(replicate_hom(psi, s), phi)
            assert not hom_order_leq(replicate_hom(psi, s + 1), phi)


    def test_equals_lattice_census_oracle(self, zoo24):
        rng = Random(59)
        counted = 0
        for name in sorted(zoo24):
            G = zoo24[name]
            for i in range(6):
                psi = random_hom(G, rng.randint(0, 6), rng)
                phi = random_hom(G, rng.randint(0, 16), rng)
                if i % 2 and psi.degree:
                    phi = direct_sum_hom(replicate_hom(psi, rng.randint(1, 3)), phi)
                    phi = conjugate_hom(phi, random_permutation(phi.degree, rng))
                try:
                    expected = oracles.replication_count(phi, psi)
                except ZeroMultiplicityError:
                    with pytest.raises(ZeroMultiplicityError):
                        replication_count(phi, psi, psi.degree)
                else:
                    assert replication_count(phi, psi, psi.degree) == expected
                    counted += expected > 0

        assert counted > 2 * len(zoo24)

    def test_presentation_source_rejected(self):
        F = FpGroup(("s",), ())
        h = PermHomomorphism(F, 2, (parse_permutation("(1 2)", 2),))
        with pytest.raises(SourceMismatchError):
            replication_count(h, h, 2)


class TestComposeLift:
    def test_single_copy_with_empty_rest(self):
        G, nat = symmetric_group(3)
        psi = coset_action(G, subgroup_from_cycles(G, nat, "(1 2)"))
        out = compose_lift(psi, 1, trivial_hom(G, 0))
        assert out == psi

    def test_degree_seven_example(self):
        G, nat = symmetric_group(3)
        psi = coset_action(G, subgroup_from_cycles(G, nat, "(1 2)"))
        out = compose_lift(psi, 2, trivial_hom(G, 1))
        assert out.degree == 7
        assert check_homomorphism(out).ok

    def test_zero_copies(self):
        G = cyclic_group(3)
        eta = random_hom(G, 4, Random(47))
        assert compose_lift(trivial_hom(G, 2), 0, eta) == eta

    def test_size_bound(self, monkeypatch):
        # images times degree: two images of degree 13 s + 13 for s copies
        # of a degree-13 hom of Z2 and itself, refused before any copy
        psi = random_hom(cyclic_group(2), 13, Random(49))
        built = []
        replicate = stability.replicate_hom
        monkeypatch.setattr(
            stability, "replicate_hom", lambda h, s: built.append(s) or replicate(h, s)
        )
        with pytest.raises(BoundExceededError, match="2600000026 image entries"):
            compose_lift(psi, 10**8, psi)
        largest = (DEFAULT_LIFT_SIZE_BOUND // 2 - 13) // 13
        with pytest.raises(BoundExceededError):
            compose_lift(psi, largest + 1, psi)
        assert built == []
        monkeypatch.setattr(groups, "DEFAULT_LIFT_SIZE_BOUND", 2 * (3 * 13 + 13))
        assert compose_lift(psi, 3, psi).degree == 52
        # the bound is read where groups binds it: one more copy is refused
        with pytest.raises(BoundExceededError, match=r"^lift images hold 2 x 65 = 130 image"
                           r" entries, bound is 104$"):
            compose_lift(psi, 4, psi)
        assert built == [3]

    def test_trace_mixing(self, zoo8):
        rng = Random(48)
        for _ in range(60):
            G = zoo8[rng.choice(list(zoo8))]
            psi = random_hom(G, rng.randint(1, 6), rng)
            eta = random_hom(G, rng.randint(1, 6), rng)
            s = rng.randint(0, 3)
            out = compose_lift(psi, s, eta)
            assert out.degree == s * psi.degree + eta.degree
            A = rng.sample(range(G.order), rng.randint(0, min(3, G.order)))
            expected = (
                s * psi.degree * action_trace(psi, A)
                + eta.degree * action_trace(eta, A)
            ) / Fraction(out.degree)
            assert action_trace(out, A) == expected


class TestCentralizerCorrect:
    def test_already_centralizing(self):
        a = parse_permutation("(1 2 3)", 5)
        q = parse_permutation("(4 5)", 5)
        rep = centralizer_correct(a, q, mode="exact")
        assert rep.corrected == q
        assert rep.distance == 0
        assert rep.input_defect == 0

    def test_identity_coefficient(self):
        a = Permutation.identity(5)
        q = parse_permutation("(1 5 2)", 5)
        rep = centralizer_correct(a, q, mode="exact")
        assert rep.corrected == q
        assert rep.distance == 0

    def test_worked_tie_break(self):
        a = parse_permutation("(1 2 3)", 3)
        q = parse_permutation("(1 2)", 3)
        rep = centralizer_correct(a, q, mode="exact")
        assert rep.distance == Fraction(2, 3)
        assert rep.corrected == Permutation.identity(3)

    def test_exact_above_degree_8_matches_heuristic_and_oracle(self):
        rng = Random(48)
        checked = 0
        while checked < 30:
            n = rng.randint(9, 40)
            a = random_permutation(n, rng)
            if centralizer_order(a) > 20_000:
                continue
            q = random_permutation(n, rng)
            exact = centralizer_correct(a, q, mode="exact")
            heuristic = centralizer_correct(a, q, mode="heuristic")
            assert (exact.distance, exact.corrected) == correction_oracle(a, q)
            assert (heuristic.distance, heuristic.corrected) == (
                exact.distance,
                exact.corrected,
            )
            checked += 1

    def test_exact_matches_bruteforce(self):
        rng = Random(49)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_permutation(n, rng)
            q = random_permutation(n, rng)
            rep = centralizer_correct(a, q, mode="exact")
            assert rep.corrected * a == a * rep.corrected
            best = min(
                hamming_distance(q, c)
                for c in all_permutations(n)
                if c * a == a * c
            )
            assert rep.distance == best

    def test_heuristic_always_centralizes(self):
        rng = Random(50)
        for _ in range(60):
            n = rng.randint(1, 30)
            a = random_permutation(n, rng)
            q = random_permutation(n, rng)
            rep = centralizer_correct(a, q, mode="heuristic")
            assert rep.corrected * a == a * rep.corrected
            assert rep.input_defect == commutator_defect(a, q)

    def test_heuristic_finds_exact_fix_for_small_defects(self):
        # q = centralizing element composed with a tiny error stays close
        rng = Random(51)
        for _ in range(20):
            n = rng.randint(10, 24)
            a = random_permutation(n, rng)
            good = next(iter(centralizer_elements(a)))
            rep = centralizer_correct(a, good, mode="heuristic")
            assert rep.distance == 0


@lru_cache(maxsize=None)
def pinned_groups():
    a5 = group_from_permutations(
        [parse_permutation("(1 2 3)", 5), parse_permutation("(1 2 3 4 5)", 5)]
    )[0]
    return (
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(6),
        klein_four_group(),
        symmetric_group(3)[0],
        dihedral_group(4)[0],
        quaternion_group()[0],
        symmetric_group(4)[0],
        a5,
    )


@lru_cache(maxsize=None)
def pinned_pairs():
    """Seeded pairs per group: conjugated, nearly equal and independent,
    half of them at degree <= 8 for ``min_conjugator_distance``."""
    rng = Random(9)
    out = []
    for G in pinned_groups():
        for i in range(24):
            n = rng.randint(1, 8) if i % 2 else rng.randint(1, 40)
            h1 = random_hom(G, n, rng)
            if i % 3 == 0:
                h2 = conjugate_hom(h1, random_permutation(n, rng))
            elif i % 3 == 1:
                h2 = conjugate_hom(h1, random_small_support_permutation(n, 3, rng))
            else:
                h2 = random_hom(G, n, rng)
            out.append((h1, h2))
    return tuple(out)


@lru_cache(maxsize=None)
def pinned_extensions():
    """Two seeded actions ``phi`` per subgroup-class representative ``H``
    of the zoo groups up to order 24: a random action of ``H``, which
    often has no extension, and a conjugated restriction of one of ``G``."""
    rng = Random(10)
    zoo = medium_group_zoo()
    out = []
    for name in sorted(zoo):
        G = zoo[name]
        classes = subgroup_conjugacy_classes(G)
        for H in map(classes.representative, range(len(classes))):
            n = rng.randint(1, 8)
            out.append((G, H, random_hom(H.as_group()[0], n, rng)))
            n = rng.randint(1, 8)
            phi = restrict_hom(random_hom(G, n, rng), H)
            out.append((G, H, conjugate_hom(phi, random_permutation(n, rng))))
    return tuple(out)


@lru_cache(maxsize=None)
def pinned_replications():
    """Seeded ``(phi, psi)`` per group: ``phi`` holds 0-3 copies of ``psi``
    plus more orbits, or is independent of it."""
    rng = Random(11)
    out = []
    for G in pinned_groups():
        for i in range(12):
            psi = random_hom(G, rng.randint(0, 6), rng)
            rest = random_hom(G, rng.randint(0, 12), rng)
            s = rng.randint(0, 3)
            if i % 3 and s and psi.degree:
                phi = direct_sum_hom(replicate_hom(psi, s), rest)
                phi = conjugate_hom(phi, random_permutation(phi.degree, rng))
            else:
                phi = rest
            out.append((phi, psi))
    return tuple(out)


def _replication_count_or_none(phi, psi):
    try:
        return replication_count(phi, psi, psi.degree)
    except ZeroMultiplicityError:
        return None


@lru_cache(maxsize=None)
def pinned_corrections():
    """Seeded ``(a, q)`` at degrees 1-60: a random ``a``, one with at most
    three moved points, and ``q`` random or a power of ``a`` one swap away."""
    rng = Random(12)
    out = []
    for n in range(1, 61):
        for a in (
            random_permutation(n, rng),
            random_small_support_permutation(n, 3, rng),
        ):
            out.append((a, random_permutation(n, rng)))
            q = a ** rng.randint(0, n)
            if n > 1:
                x, y = rng.sample(range(1, n + 1), 2)
                q = parse_permutation(f"({x} {y})", n) * q
            out.append((a, q))
    return tuple(out)


def _corrections():
    for a, q in pinned_corrections():
        for mode in ("exact", "heuristic") if a.degree <= MAX_EXACT_DEGREE else ("heuristic",):
            rep = centralizer_correct(a, q, mode)
            yield rep.corrected.images, str(rep.distance), str(rep.input_defect), rep.mode


def _small_conjugator_or_none(h1, h2):
    try:
        return small_conjugator(h1, h2).images
    except NotConjugateError:
        return None


PINNED_OUTPUTS = {
    "is_conjugate": lambda: [
        (ok, w and w.images) for ok, w in (is_conjugate(*hs) for hs in pinned_pairs())
    ],
    "small_conjugator": lambda: [_small_conjugator_or_none(*hs) for hs in pinned_pairs()],
    "min_conjugator_distance": lambda: [
        (str(d), p.images)
        for d, p in (
            min_conjugator_distance(h1, h2)
            for h1, h2 in pinned_pairs()
            if h1.degree <= 8 and is_conjugate(h1, h2)[0]
        )
    ],
    "agreement_set": lambda: [agreement_set(*hs) for hs in pinned_pairs()],
    "multiplicity_vector": lambda: [
        multiplicity_vector(h).counts for hs in pinned_pairs() for h in hs
    ],
    "find_normal_complement": lambda: [
        K and K.members
        for G in pinned_groups()
        for K in (find_normal_complement(G, H) for H in all_subgroups(G))
    ],
    "has_extension": lambda: [
        ext and [p.images for p in ext.images]
        for ext in (has_extension(*case) for case in pinned_extensions())
    ],
    "replication_count": lambda: [
        _replication_count_or_none(*pair) for pair in pinned_replications()
    ],
    "centralizer_correct": lambda: list(_corrections()),
}


@pytest.mark.parametrize(
    "name,digest",
    [
        ("is_conjugate", "08984c0f87af5416e09075ff7cb940a5"
                         "39aa27aa9f395b553877eb1da29313f1"),
        ("small_conjugator", "16eeecbf2d902dc61001f531bac1dc6f"
                             "5ed0b11e64ca4094d39bbce99a7d5775"),
        ("min_conjugator_distance", "6f7d0eb75ca3b5f5c4024d3eb10babb4"
                                    "84a0fa1b5b9832446248ab87ee1328d4"),
        ("agreement_set", "b267c1c9ca0b83e4e49926cfb3826cd3"
                          "0a311281204607127ce581e891e4816c"),
        ("multiplicity_vector", "826795712a982001b0c388e37c55a137"
                                "b64c77a9f5fe3ffc5ac70e4dfe96bb77"),
        ("find_normal_complement", "d10211ea2e749aad8064a20d88400c7c"
                                   "5340b893f47039e87cefe0ec60eaddd5"),
        ("has_extension", "dd4aed3dc7e8fe3006a8908a0ac1802d"
                          "73331b4ebb72d02ef592abd8203e6e85"),
        ("replication_count", "bed78b2c44e461c499526e08a747f5a6"
                              "46cb7e712a6b24d66063ca9a2f3dad43"),
        ("centralizer_correct", "1fb53390e347cabf5154b0cb30795890"
                                "2559c473e6b4d7ff55250082c64e9b60"),
    ],
)
def test_outputs_pinned(name, digest):
    # sha256 of seeded outputs, taken when every one of these functions
    # still scanned every element of the group; the last three when
    # has_extension and replication_count still counted orbits by the
    # subgroup classes of the lattice; multiplicity_vector's when it still
    # scanned the group once per orbit
    out = json.dumps(PINNED_OUTPUTS[name]())
    assert hashlib.sha256(out.encode()).hexdigest() == digest
