"""Permutation arithmetic, parsing, and the exact Hamming metric."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from permstab.errors import DegreeMismatchError, PermutationParseError
from permstab.fixtures import block_cycle_a, block_cycle_b
from permstab.graphs import LabeledDigraph, action_graph
from permstab.groups import (
    FpGroup,
    PermHomomorphism,
    _restrict_to_points,
    all_subgroups,
    conjugate_hom,
    coset_action,
    dihedral_group,
    direct_sum_hom,
    hom_from_generator_images,
    quaternion_group,
    restrict_hom,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from permstab.jsonio import hom_from_json
from permstab.multiplicity import _orbits
from permstab.perm import (
    Permutation,
    all_permutations,
    direct_sum,
    hamming_distance,
    normalized_trace,
    parse_permutation,
    replicate,
    restrict,
)
from permstab.randgen import random_hom, random_permutation, random_small_support_permutation
from permstab.stability import _small_conjugator, compose_lift, replicate_hom


def perms(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(Permutation)


class TestParsing:
    def test_cycle_form(self):
        assert parse_permutation("(1 2)(3 4)", 4).images == (2, 1, 4, 3)

    def test_one_line_identity(self):
        assert parse_permutation("[1,2,3]", 3) == Permutation.identity(3)

    def test_unmentioned_points_fixed(self):
        assert parse_permutation("(2 4)", 4).images == (1, 4, 3, 2)

    def test_duplicate_point_rejected(self):
        with pytest.raises(PermutationParseError):
            parse_permutation("(1 2)(2 3)", 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(PermutationParseError):
            parse_permutation("(1 5)", 4)

    def test_non_bijective_one_line_rejected(self):
        with pytest.raises(PermutationParseError):
            parse_permutation("[1,1,3]", 3)

    @pytest.mark.parametrize("text,degree,message", [
        ("(1_0 2)", 10, "non-integer point in '(1_0 2)'"),
        ("(1 \u0663)", 3, "non-integer point in '(1 \u0663)'"),
        ("[+2, 1]", 2, "non-integer entry in '[+2, 1]'"),
        ("(1 -1)", 3, "point -1 out of range 1..3"),
    ])
    def test_only_ascii_integer_tokens(self, text, degree, message):
        # Python's int() reads 1_0 as 10, an Arabic-Indic three as 3 and
        # +2 as 2; a minus sign stays part of the token
        with pytest.raises(PermutationParseError) as err:
            parse_permutation(text, degree)
        assert str(err.value) == message

    def test_degree_zero(self):
        assert parse_permutation("[]", 0).degree == 0
        assert parse_permutation("()", 0).degree == 0

    @given(perms())
    def test_roundtrip_both_notations(self, p):
        assert parse_permutation(p.one_line_str(), p.degree) == p
        assert parse_permutation(p.cycle_str(), p.degree) == p


class TestArithmetic:
    def test_compose_applies_right_first(self):
        p = parse_permutation("(1 2)", 3)
        q = parse_permutation("(2 3)", 3)
        assert (p * q)(2) == p(q(2)) == p(3) == 3

    @given(perms())
    def test_inverse(self, p):
        assert p * p.inverse() == Permutation.identity(p.degree)

    def test_power(self):
        c = parse_permutation("(1 2 3 4)", 4)
        assert c**4 == Permutation.identity(4)
        assert c**-1 == c.inverse()
        assert c**3 == c.inverse()

    @pytest.mark.parametrize("k", range(-3, 9))
    def test_power_makes_only_needed_products(self, k, monkeypatch):
        # square-and-multiply: one square per bit below the top one, one
        # multiply per further set bit; a negative power inverts once
        calls = {"mul": 0, "inverse": 0}
        mul, inverse = Permutation.__mul__, Permutation.inverse

        def counting(name, f):
            def wrapped(*args):
                calls[name] += 1
                return f(*args)
            return wrapped

        monkeypatch.setattr(Permutation, "__mul__", counting("mul", mul))
        monkeypatch.setattr(Permutation, "inverse", counting("inverse", inverse))
        c = parse_permutation("(1 2 3 4 5)(6 7)", 7)
        result = c**k
        monkeypatch.undo()
        expected = Permutation.identity(7)
        for _ in range(abs(k)):
            expected = expected * (c if k > 0 else c.inverse())
        assert result == expected
        a = abs(k)
        assert calls["mul"] == (a.bit_length() + a.bit_count() - 2 if a else 0)
        assert calls["inverse"] == (k < 0)

    def test_order(self):
        assert parse_permutation("(1 2)(3 4 5)", 5).order() == 6
        assert Permutation.identity(3).order() == 1


def compose_tuples(a, b):
    """Plain one-line composition: apply ``b`` first, then ``a``."""
    return tuple(a[b[i] - 1] for i in range(len(b)))


def validated(p):
    """``p`` rebuilt through the checking constructor, so a result the
    unchecked paths got wrong fails here."""
    return Permutation(p.images)


def validated_hom(h):
    """``h`` rebuilt through the checking constructors, images included."""
    return PermHomomorphism(h.source, h.degree, tuple(map(validated, h.images)))


# cycle-text pieces: points in and out of range, separators, parentheses
# and integer spellings that only Python's int() reads
CYCLE_TOKENS = ["1", "2", "3", "4", "5", "9", "0", "-1", " ", ",", "(", ")",
                "()", "(1 2)", "1_0", "+2", "\u0663", "2.0", "x"]


class TestUncheckedResults:
    """Products, inverses, powers and block constructions skip the
    bijection check; each is compared with plain tuple arithmetic.  So do
    the permutations, homomorphisms and graphs the library assembles from
    values it has checked already; each equals its checked rebuild."""

    @given(st.integers(0, 9).flatmap(
        lambda n: st.tuples(*[st.permutations(list(range(1, n + 1)))] * 2)
    ))
    def test_product(self, pair):
        a, b = pair
        p = Permutation(a) * Permutation(b)
        assert p.images == compose_tuples(tuple(a), tuple(b))
        assert validated(p) == p and hash(p) == hash(validated(p))

    @given(perms(), st.integers(-7, 7))
    def test_inverse_and_power(self, p, k):
        inv = p.inverse()
        assert compose_tuples(p.images, inv.images) == tuple(range(1, p.degree + 1))
        assert validated(inv) == inv
        expected = tuple(range(1, p.degree + 1))
        for _ in range(abs(k)):
            expected = compose_tuples(expected, (p if k > 0 else inv).images)
        assert (p**k).images == expected
        assert validated(p**k) == p**k

    @given(perms(), perms(), st.integers(1, 3))
    def test_blocks(self, p, q, s):
        n = p.degree
        assert direct_sum(p, q).images == p.images + tuple(x + n for x in q.images)
        assert replicate(p, s).images == tuple(
            x + b * n for b in range(s) for x in p.images
        )
        cycle = next(iter(p.cycles(include_fixed=True)))
        for r in (direct_sum(p, q), replicate(p, s), restrict(p, cycle)):
            assert validated(r) == r

    @given(st.lists(st.sampled_from(CYCLE_TOKENS), max_size=12), st.integers(0, 6))
    def test_parsed_cycle_texts(self, tokens, degree):
        text = "".join(tokens)
        try:
            p = parse_permutation(text, degree)
        except PermutationParseError:
            return
        assert p.degree == degree and validated(p) == p

    def test_all_permutations(self):
        for n in range(6):
            ps = list(all_permutations(n))
            assert ps == sorted(map(validated, ps), key=lambda p: p.images)

    def test_tables_from_generators(self):
        for _, nat in (*map(symmetric_group, range(1, 5)), dihedral_group(5), quaternion_group()):
            assert validated_hom(nat) == nat

    def test_coset_actions_and_restrictions(self, zoo8):
        for G in zoo8.values():
            classes = subgroup_conjugacy_classes(G)
            for K in map(classes.representative, range(len(classes))):
                action = coset_action(G, K)
                assert validated_hom(action) == action
                for H in all_subgroups(G):
                    restricted = restrict_hom(action, H)
                    assert validated_hom(restricted) == restricted

    def test_sums_lifts_conjugates(self, zoo8):
        rng = Random(71)
        names = sorted(zoo8)
        for _ in range(60):
            G = zoo8[rng.choice(names)]
            h1 = random_hom(G, rng.randint(1, 7), rng)
            h2 = random_hom(G, rng.randint(0, 5), rng)
            s = rng.randint(1, 3)
            orbit = next(iter(_orbits([p.images for p in h1.images], h1.degree)))
            gens = {g: h1.images[g] for g in G.generating_set}
            built = [
                direct_sum_hom(h1, h2),
                replicate_hom(h1, s),
                compose_lift(h1, s, h2),
                conjugate_hom(h1, random_permutation(h1.degree, rng)),
                _restrict_to_points(h1, orbit),
                hom_from_generator_images(G, gens, h1.degree),
            ]
            assert built[-1] == h1
            for h in built:
                assert validated_hom(h) == h

    def test_small_conjugators(self, zoo8):
        rng = Random(72)
        names = sorted(zoo8)
        for _ in range(60):
            G = zoo8[rng.choice(names)]
            h1 = random_hom(G, rng.randint(1, 9), rng)
            q = random_small_support_permutation(h1.degree, 3, rng)
            h2 = conjugate_hom(h1, q)
            p, _ = _small_conjugator(h1, h2)
            assert validated(p) == p
            assert conjugate_hom(h1, p) == h2

    def test_action_graphs(self):
        rng = Random(73)
        for _ in range(60):
            n = rng.randint(0, 8)
            letters = ("x", "y", "z")[: rng.randint(1, 3)]
            perms = tuple(random_permutation(n, rng) for _ in letters)
            graph = action_graph(PermHomomorphism(FpGroup(letters), n, perms))
            assert LabeledDigraph(graph.n, graph.alphabet, tuple(map(validated, graph.perms))) == graph
            assert validated_hom(graph.hom) == graph.hom
            edges = LabeledDigraph.from_edges(n, letters, graph.edges())
            assert edges == graph and validated_hom(edges.hom) == graph.hom

    def test_hom_files(self, zoo8):
        rng = Random(74)
        names = sorted(zoo8)
        for i in range(60):
            G = zoo8[rng.choice(names)]
            h = random_hom(G, rng.randint(0, 7), rng)
            text = (Permutation.cycle_str, Permutation.one_line_str)[i % 2]
            table = {"kind": "table", "order": G.order, "table": [list(r) for r in G.table]}
            images = {str(g): text(p) for g, p in enumerate(h.images)}
            loaded = hom_from_json({"group": table, "degree": h.degree, "images": images})
            assert loaded.images == h.images and validated_hom(loaded) == loaded
            gens = {f"g{k}": text(h.images[g]) for k, g in enumerate(G.generating_set)}
            presentation = {"kind": "presentation", "generators": sorted(gens)}
            loaded = hom_from_json({"group": presentation, "degree": h.degree, "images": gens})
            assert validated_hom(loaded) == loaded

    @pytest.mark.parametrize(
        "images", [[1, 1, 3], [0, 1], [2, 3], [1, 2, 4], [2], [3, 1, 1]]
    )
    def test_checking_constructor_rejects_non_bijections(self, images):
        with pytest.raises(PermutationParseError):
            Permutation(images)


class TestHamming:
    def test_identity_distance_zero(self):
        i4 = Permutation.identity(4)
        assert hamming_distance(i4, i4) == 0

    def test_block_pair_k2(self):
        assert hamming_distance(block_cycle_a(2), block_cycle_b(2)) == 1

    def test_block_pair_k3(self):
        assert hamming_distance(block_cycle_a(3), block_cycle_b(3)) == Fraction(2, 3)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_block_pair_general(self, k):
        assert hamming_distance(block_cycle_a(k), block_cycle_b(k)) == Fraction(2, k)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            hamming_distance(Permutation.identity(3), Permutation.identity(4))

    def test_metric_axioms_random(self):
        rng = Random(7)
        for _ in range(300):
            n = rng.randint(1, 10)
            p, q, r = (random_permutation(n, rng) for _ in range(3))
            assert hamming_distance(p, q) == hamming_distance(q, p)
            assert (hamming_distance(p, q) == 0) == (p == q)
            assert hamming_distance(p, r) <= hamming_distance(p, q) + hamming_distance(q, r)

    def test_bi_invariance_random(self):
        rng = Random(8)
        for _ in range(200):
            n = rng.randint(1, 10)
            p, q, r = (random_permutation(n, rng) for _ in range(3))
            d = hamming_distance(p, q)
            assert hamming_distance(r * p, r * q) == d
            assert hamming_distance(p * r, q * r) == d


class TestTrace:
    def test_identity(self):
        assert normalized_trace(Permutation.identity(5)) == 1

    def test_spec_value(self):
        assert normalized_trace(parse_permutation("(1 2)(3 4)", 6)) == Fraction(1, 3)

    def test_fixed_point_free_cycle(self):
        assert normalized_trace(parse_permutation("(1 2 3)", 3)) == 0

    def test_degree_zero_convention(self):
        assert normalized_trace(Permutation.identity(0)) == 1

    def test_trace_distance_identity_exhaustive_s4(self):
        i4 = Permutation.identity(4)
        for p in all_permutations(4):
            assert normalized_trace(p) + hamming_distance(p, i4) == 1

    @given(perms(10))
    def test_trace_distance_identity_random(self, p):
        ident = Permutation.identity(p.degree)
        assert normalized_trace(p) + hamming_distance(p, ident) == 1


class TestFixedMask:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 100_000])
    def test_bit_per_fixed_point(self, n):
        rng = Random(n)
        for p in (Permutation.identity(n), random_permutation(n, rng)):
            mask = p.fixed_mask()
            bits = bin(mask)[:1:-1]  # bit 0 first
            assert 0 <= mask < 1 << n
            assert [bits[i - 1 : i] == "1" for i in range(1, n + 1)] == [
                p(i) == i for i in range(1, n + 1)
            ]


class TestSums:
    def test_direct_sum_with_identity(self):
        p = parse_permutation("(1 2)", 2)
        assert direct_sum(p, Permutation.identity(2)) == parse_permutation("(1 2)", 4)

    def test_direct_sum_block_pair(self):
        got = direct_sum(block_cycle_a(2), block_cycle_b(2))
        assert got.images == (2, 1, 4, 3, 5, 8, 7, 6)

    def test_direct_sum_trivial(self):
        one = Permutation.identity(1)
        assert direct_sum(one, one) == Permutation.identity(2)

    def test_trace_mixing(self):
        rng = Random(9)
        for _ in range(100):
            p = random_permutation(rng.randint(1, 8), rng)
            q = random_permutation(rng.randint(1, 8), rng)
            mixed = normalized_trace(direct_sum(p, q))
            expected = (
                p.degree * normalized_trace(p) + q.degree * normalized_trace(q)
            ) / Fraction(p.degree + q.degree)
            assert mixed == expected

    def test_replicate_once(self):
        p = parse_permutation("(1 3)", 3)
        assert replicate(p, 1) == p

    def test_replicate_transposition(self):
        assert replicate(parse_permutation("(1 2)", 2), 2) == parse_permutation(
            "(1 2)(3 4)", 4
        )

    def test_replicate_preserves_trace(self):
        p = parse_permutation("(1 2 3)", 3)
        r = replicate(p, 3)
        assert r.degree == 9
        assert normalized_trace(r) == 0
        rng = Random(10)
        for _ in range(50):
            q = random_permutation(rng.randint(1, 7), rng)
            s = rng.randint(1, 4)
            assert normalized_trace(replicate(q, s)) == normalized_trace(q)

    def test_replicate_zero_rejected(self):
        with pytest.raises(PermutationParseError):
            replicate(Permutation.identity(2), 0)


class TestCycleType:
    def test_identity(self):
        assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)

    def test_block_a3(self):
        assert block_cycle_a(3).cycle_type() == (3, 3, 3)

    def test_block_b3(self):
        assert block_cycle_b(3).cycle_type() == (2, 2, 2, 3)

    def test_conjugacy_iff_cycle_type(self):
        # single permutations are conjugate exactly when cycle types match
        rng = Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = random_permutation(n, rng)
            q = random_permutation(n, rng)
            conjugate = any(
                r * p * r.inverse() == q for r in all_permutations(n)
            )
            assert conjugate == (p.cycle_type() == q.cycle_type())


class TestRestrict:
    def test_invariant_block(self):
        p = parse_permutation("(1 2)(4 5)", 5)
        assert restrict(p, [4, 5]) == parse_permutation("(1 2)", 2)

    def test_non_invariant_rejected(self):
        with pytest.raises(DegreeMismatchError):
            restrict(parse_permutation("(1 2)", 3), [1, 3])

    @pytest.mark.parametrize("points", [[1, 1, 2], [0, 1, 2], [3, 4], [-1, 1, 2, 3]])
    def test_points_outside_the_domain_rejected(self, points):
        # the result is built without the bijection check, so these must
        # be refused before it is
        with pytest.raises(DegreeMismatchError):
            restrict(Permutation.identity(3), points)
