"""Finite groups, subgroup machinery, presentations, and homomorphisms."""

from itertools import combinations
from random import Random

import pytest

from permstab.errors import (
    BoundExceededError,
    GroupTableError,
    NotSubgroupError,
    SourceMismatchError,
    WordError,
)
from permstab import groups
from permstab.fixtures import klein_pair, klein_presentation
from permstab.groups import (
    conjugate_hom,
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    all_subgroups,
    check_homomorphism,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_product,
    direct_sum_hom,
    evaluate_word,
    group_from_permutations,
    hom_from_generator_images,
    klein_four_group,
    normalizer,
    parse_word,
    quaternion_group,
    subgroup_closure,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_hom,
    trivial_subgroup,
    full_subgroup,
)
from permstab.perm import Permutation, all_permutations, parse_permutation
from permstab.randgen import random_hom, random_permutation
from permstab.trace_stats import action_trace

import oracles
from conftest import generating_chain, medium_group_zoo, subgroup_from_cycles


def brute_force_subgroup_sets(G):
    """Independent oracle: scan all subsets containing the identity."""
    found = []
    others = [x for x in G.elements() if x != G.identity]
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            members = {G.identity, *extra}
            closed = all(
                G.mul(a, b) in members for a in members for b in members
            ) and all(G.inv(a) in members for a in members)
            if closed:
                found.append(frozenset(members))
    return set(found)


def triple_loop_associativity_failure(table):
    """Reference check of every triple; the first failing one, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def random_loop_table(n, rng):
    """A random Latin square with identity 0 (a loop), filled cell by cell
    with backtracking.  Loops of order <= 4 are groups; for n >= 5 most
    are not associative."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for x in options:
            table[i][j] = x
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def random_loop_cases():
    """The tables of ``test_light_test_matches_triple_loop_on_random_loops``:
    150 random loops, each also times Z2 (ids ``2*l + a``)."""
    rng = Random(11)
    for _ in range(150):
        loop = random_loop_table(rng.randint(1, 8), rng)
        n = len(loop)
        yield loop
        yield [
            [2 * loop[l1][l2] + (a1 + a2) % 2 for l2 in range(n) for a2 in (0, 1)]
            for l1 in range(n)
            for a1 in (0, 1)
        ]


def member_set_join_lattice(G):
    """The lattice as built before generator joins: the join of S and a
    cyclic C is the closure of the full member set ``S | C``."""

    def closure(seed):
        members = {G.identity, *seed}
        frontier = list(members)
        while frontier:
            new = []
            for a in frontier:
                for b in list(members):
                    for x in (G.mul(a, b), G.mul(b, a)):
                        if x not in members:
                            members.add(x)
                            new.append(x)
            frontier = new
        return frozenset(members)

    cyclic = {closure([g]) for g in G.elements()}
    known = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        new = []
        for S in frontier:
            for C in cyclic:
                if not C <= S and (T := closure(S | C)) not in known:
                    known.add(T)
                    new.append(T)
        frontier = new
    return tuple(sorted(known, key=lambda s: (len(s), sorted(s))))


def alternating_group_5():
    return group_from_permutations(
        [parse_permutation("(1 2 3)", 5), parse_permutation("(1 2 3 4 5)", 5)]
    )[0]


def cli_groups():
    """The groups of ``perfbench/gen_cli.py``, from the same generators,
    so their element ids are the ones its requests carry."""

    def perm_group(degree, *cycles):
        return group_from_permutations([parse_permutation(c, degree) for c in cycles])[0]

    return [
        perm_group(2, "(1 2)"),
        perm_group(3, "(1 2 3)"),
        perm_group(4, "(1 2 3 4)"),
        perm_group(6, "(1 2 3 4 5 6)"),
        perm_group(8, "(1 2 3 4 5 6 7 8)"),
        perm_group(12, "(1 2 3 4 5 6 7 8 9 10 11 12)"),
        symmetric_group(3)[0],
        dihedral_group(4)[0],
        dihedral_group(5)[0],
        dihedral_group(6)[0],
        quaternion_group()[0],
        perm_group(4, "(1 2 3)", "(1 2)(3 4)"),
        symmetric_group(4)[0],
        perm_group(6, "(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"),
        perm_group(6, "(5 6)", "(1 2)", "(1 2 3 4)"),
        perm_group(5, "(1 2 3)", "(3 4 5)"),
    ]


class TestFiniteGroup:
    def test_cyclic_basics(self):
        G = cyclic_group(4)
        assert G.order == 4
        assert G.identity == 0
        assert G.inv(1) == 3
        assert G.element_order(1) == 4

    def test_bad_table_rejected(self):
        with pytest.raises(GroupTableError):
            FiniteGroup([[0, 1], [0, 1]])

    def test_non_associative_rejected(self):
        # commutative quasigroup without associativity
        with pytest.raises(GroupTableError):
            FiniteGroup(
                [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 3, 4, 0, 1],
                    [3, 4, 2, 1, 0],
                    [4, 2, 1, 0, 3],
                ]
            )

    def test_light_test_matches_triple_loop_on_random_loops(self):
        rng = Random(11)
        rejected = 0
        for _ in range(150):
            loop = random_loop_table(rng.randint(1, 8), rng)
            # in the product with Z2 (ids 2*l + a) the first picked
            # generator, (e, 1), always passes: a later one must fail
            n = len(loop)
            with_z2 = [
                [2 * loop[l1][l2] + (a1 + a2) % 2 for l2 in range(n) for a2 in (0, 1)]
                for l1 in range(n)
                for a1 in (0, 1)
            ]
            for table in (loop, with_z2):
                failure = triple_loop_associativity_failure(table)
                if failure is None:
                    G = FiniteGroup(table)
                    assert all(
                        G.mul(a, G.inv(a)) == G.identity == G.mul(G.inv(a), a)
                        for a in G.elements()
                    )
                    continue
                rejected += 1
                with pytest.raises(GroupTableError, match="associativity") as info:
                    FiniteGroup(table)
                x, g, y = map(int, str(info.value).split("(")[1].rstrip(")").split(","))
                assert table[table[x][g]][y] != table[x][table[g][y]]
        assert 100 < rejected < 200  # both paths are exercised

    def test_split_picks_match_the_interleaved_light_test(self):
        # the same picks, or the same first failure, as the test that
        # picked its generators on the way
        rejected = 0
        for table in random_loop_cases():
            try:
                picks = oracles.light_test_picks(tuple(map(tuple, table)), 0)
            except GroupTableError as exc:
                rejected += 1
                with pytest.raises(GroupTableError) as info:
                    FiniteGroup(table)
                assert str(info.value) == str(exc)
            else:
                assert FiniteGroup(table).generating_set == picks
        assert 100 < rejected < 200

    def test_trusted_tables_match_the_validating_constructor(self):
        zoo = medium_group_zoo()
        zoo["A5"] = alternating_group_5()
        S3, Q8, D4 = zoo["S3"], zoo["Q8"], zoo["D4"]
        cases = [
            *zoo.values(),
            *(H.as_group()[0] for G in (zoo["S4"], symmetric_group(5)[0])
              for H in all_subgroups(G)),
            *(cyclic_group(n) for n in range(1, 25)),
            direct_product(S3, cyclic_group(2)),
            direct_product(Q8, cyclic_group(3)),
            direct_product(cyclic_group(1), D4),
            direct_product(zoo["A4"], cyclic_group(1)),
            direct_product(S3, S3),
        ]
        assert len(cases) > 200
        for G in cases:
            picks = oracles.light_test_picks(G.table, G.identity)
            V = FiniteGroup(G.table)
            for T in (G, FiniteGroup._trusted(G.table, G.identity)):
                assert (T.table, T.identity, T.inverses, T.generating_set) == (
                    V.table, V.identity, V.inverses, picks
                )
                assert T == V and hash(T) == hash(V)

    def test_cyclic_group_of_no_elements_is_refused(self):
        for n in (0, -3):
            with pytest.raises(GroupTableError, match="no identity"):
                cyclic_group(n)

    def test_light_test_accepts_every_zoo_table(self):
        zoo = medium_group_zoo()
        zoo["A5"] = alternating_group_5()
        for G in zoo.values():
            assert triple_loop_associativity_failure(G.table) is None
            assert FiniteGroup(G.table) == G

    def test_generating_set_on_the_zoo(self):
        zoo = medium_group_zoo()
        zoo["A5"] = alternating_group_5()
        for G in zoo.values():
            S = G.generating_set
            assert subgroup_closure(G, S).order == G.order
            assert 2 ** len(S) <= G.order
        assert cyclic_group(1).generating_set == ()


class TestGroupFromPermutations:
    def test_s3_closure(self):
        G, nat = group_from_permutations(
            [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)]
        )
        assert G.order == 6
        assert set(nat.images) == set(all_permutations(3))
        assert check_homomorphism(nat).ok

    def test_trivial(self):
        G, _ = group_from_permutations([Permutation.identity(4)])
        assert G.order == 1

    def test_cyclic4(self):
        G, nat = group_from_permutations([parse_permutation("(1 2 3 4)", 4)])
        assert G.order == 4
        # brute-force closure oracle
        gen = parse_permutation("(1 2 3 4)", 4)
        expected = {gen**k for k in range(4)}
        assert set(nat.images) == expected

    def test_table_matches_permutation_products(self):
        a4_gens = [parse_permutation("(1 2 3)", 4), parse_permutation("(1 2)(3 4)", 4)]
        a5_gens = [parse_permutation("(1 2 3)", 5), parse_permutation("(1 2 3 4 5)", 5)]
        cases = [
            *(symmetric_group(n) for n in (1, 2, 3, 4, 5)),
            *(dihedral_group(n) for n in (3, 4, 5, 6)),
            quaternion_group(),
            group_from_permutations(a4_gens),
            group_from_permutations(a5_gens),
            group_from_permutations([parse_permutation("(1 2 3)(4 5)", 5)]),
        ]
        for G, nat in cases:
            ordered = nat.images
            assert list(ordered) == sorted(set(ordered), key=lambda p: p.images)
            pos = {p: i for i, p in enumerate(ordered)}
            assert G.table == tuple(tuple(pos[a * b] for b in ordered) for a in ordered)
        assert set(cases[4][1].images) == set(all_permutations(5))
        assert [G.order for G, _ in cases[-3:]] == [12, 60, 6]

    def test_order_bound(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_BOUND", 100)
        with pytest.raises(BoundExceededError):
            group_from_permutations(
                [
                    parse_permutation("(1 2)", 6),
                    parse_permutation("(1 2 3 4 5 6)", 6),
                ]
            )

    def test_order_bound_admits_its_own_order(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_BOUND", 24)
        assert symmetric_group(4)[0].order == 24
        with pytest.raises(BoundExceededError, match="exceeds bound 24"):
            symmetric_group(5)

    def test_identity_gets_id_zero(self):
        G, nat = symmetric_group(3)
        assert nat.images[0] == Permutation.identity(3)


class TestAllSubgroups:
    def test_s3(self):
        G, _ = symmetric_group(3)
        assert len(all_subgroups(G)) == 6

    def test_z4(self):
        assert len(all_subgroups(cyclic_group(4))) == 3

    def test_trivial_group(self):
        assert len(all_subgroups(cyclic_group(1))) == 1

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: cyclic_group(6),
            lambda: klein_four_group(),
            lambda: symmetric_group(3)[0],
            lambda: dihedral_group(4)[0],
            lambda: quaternion_group()[0],
            lambda: direct_product(cyclic_group(2), cyclic_group(4)),
            lambda: cyclic_group(12),
            lambda: dihedral_group(6)[0],
        ],
    )
    def test_matches_subset_bruteforce(self, maker):
        G = maker()
        got = {s.member_set() for s in all_subgroups(G)}
        assert got == brute_force_subgroup_sets(G)

    def test_s4_known_count(self):
        # order 24 is out of subset-scan reach; 30 is the classical count
        G, _ = symmetric_group(4)
        subs = all_subgroups(G)
        assert len(subs) == 30
        assert len({s.member_set() for s in subs}) == 30

    def test_every_entry_is_validated(self, zoo8):
        for G in zoo8.values():
            for s in all_subgroups(G):
                Subgroup(G, s.members)  # re-runs closure/identity checks

    def test_generator_joins_match_member_set_joins(self, zoo24):
        groups = dict(zoo24)
        groups["Z2xS4"] = direct_product(cyclic_group(2), symmetric_group(4)[0])
        groups["A5"] = alternating_group_5()
        for G in groups.values():
            expected = member_set_join_lattice(G)
            assert oracles.subgroup_sets_by_joins(G) == expected
            assert tuple(H.member_set() for H in all_subgroups(G)) == expected

    def test_closure_counts(self, monkeypatch):
        # one join per class representative and cyclic subgroup; the
        # join of every subgroup took 1,701 closures for A5, 9,681 for S5
        calls = []
        real = groups._closure
        monkeypatch.setattr(
            groups, "_closure", lambda G, gens: calls.append(gens) or real(G, gens)
        )
        for G, budget in ((alternating_group_5(), 340), (symmetric_group(5)[0], 1936)):
            subgroup_conjugacy_classes.cache_clear()
            calls.clear()
            subgroup_conjugacy_classes(G)
            assert 0 < len(calls) <= budget
            calls.clear()
            all_subgroups(G)  # read from the one cached enumeration
            assert calls == []

    @pytest.mark.parametrize(
        "maker, subgroups, classes",
        [
            (lambda: symmetric_group(4)[0], 30, 11),
            (alternating_group_5, 59, 9),
            (lambda: symmetric_group(5)[0], 156, 19),
        ],
    )
    def test_known_lattice_sizes(self, maker, subgroups, classes):
        G = maker()
        assert len(all_subgroups(G)) == subgroups
        assert len(subgroup_conjugacy_classes(G)) == classes

    def test_constructed_subgroups_pass_the_public_check(self, zoo24):
        rng = Random(5)
        for G in zoo24.values():
            built = []
            for _ in range(5):
                seed = rng.sample(range(G.order), rng.randint(0, min(3, G.order)))
                built.append(subgroup_closure(G, seed))
            classes = subgroup_conjugacy_classes(G)
            reps = [classes.representative(c) for c in range(len(classes))]
            built += reps + [normalizer(G, H) for H in reps]
            built += all_subgroups(G) + [trivial_subgroup(G), full_subgroup(G)]
            for H in reps:
                built += [stab for _, stab, _ in oracles.orbit_decomposition(coset_action(G, H))]
            for H in built:
                assert Subgroup(G, H.members) == H

    def test_out_of_range_member_is_refused_before_any_product(self):
        for G, members, bad in (
            (cyclic_group(2), [0, 99], 99),
            (cyclic_group(4), [0, 1, 2, 3, 4], 4),
            (cyclic_group(4), [-1, 0, 2], -1),
        ):
            with pytest.raises(NotSubgroupError, match=f"element id {bad} out of range"):
                Subgroup(G, members)

    def test_closure_rejects_out_of_range_seed(self):
        G = cyclic_group(4)
        for bad in (-1, 4):
            with pytest.raises(NotSubgroupError):
                subgroup_closure(G, [1, bad])

    def test_bound(self):
        G = cyclic_group(201)
        with pytest.raises(BoundExceededError):
            all_subgroups(G)
        with pytest.raises(BoundExceededError):
            subgroup_conjugacy_classes(G)


class TestConjugacyClasses:
    def test_s3_classes(self):
        G, _ = symmetric_group(3)
        classes = subgroup_conjugacy_classes(G)
        assert sorted(len(c) for c in classes.classes) == [1, 1, 1, 3]

    def test_abelian_all_singletons(self):
        for G in (cyclic_group(8), klein_four_group()):
            classes = subgroup_conjugacy_classes(G)
            assert all(len(c) == 1 for c in classes.classes)

    def test_trivial_group(self):
        assert len(subgroup_conjugacy_classes(cyclic_group(1))) == 1

    def test_class_size_equals_normalizer_index(self, zoo8):
        for G in zoo8.values():
            classes = subgroup_conjugacy_classes(G)
            for cid, orbit in enumerate(classes.classes):
                rep = classes.representative(cid)
                M = normalizer(G, rep)
                assert len(orbit) == G.order // M.order

    def test_generator_walk_matches_every_element_oracle(self, zoo24):
        # classes joined from one member each and walked on generating_set:
        # the same classes, in the same order, as conjugating every
        # subgroup of the join closure by every element
        cases = list(zoo24.values()) + cli_groups() + [
            symmetric_group(5)[0],
            direct_product(cyclic_group(2), symmetric_group(4)[0]),
            direct_product(symmetric_group(3)[0], symmetric_group(3)[0]),
        ]
        for G in cases:
            expected = oracles.conjugacy_classes_by_every_element(G)
            assert subgroup_conjugacy_classes(G).classes == expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_subgroup_of_sn_as_a_group_matches_the_oracle(self, n):
        G = symmetric_group(n)[0]
        for H in all_subgroups(G):
            Habs, _ = H.as_group()
            expected = oracles.conjugacy_classes_by_every_element(Habs)
            assert subgroup_conjugacy_classes(Habs).classes == expected


class TestNormalizer:
    def test_self_normalizing_transposition(self):
        G, nat = symmetric_group(3)
        H = subgroup_from_cycles(G, nat, "(1 2)")
        assert normalizer(G, H).members == H.members

    def test_normal_subgroup(self):
        G, nat = symmetric_group(3)
        A3 = subgroup_from_cycles(G, nat, "(1 2 3)")
        assert normalizer(G, A3).order == 6

    def test_whole_group(self):
        G = cyclic_group(6)
        assert normalizer(G, full_subgroup(G)).order == 6


class TestCosetAction:
    def test_index_three(self):
        G, nat = symmetric_group(3)
        H = subgroup_from_cycles(G, nat, "(1 2)")
        act = coset_action(G, H)
        assert act.degree == 3
        # transitive
        orbit = {1}
        for g in G.elements():
            orbit |= {act.images[g](x) for x in list(orbit)}
        assert orbit == {1, 2, 3}

    def test_whole_group_degree_one(self):
        G = cyclic_group(5)
        act = coset_action(G, full_subgroup(G))
        assert act.degree == 1

    def test_regular_action_traces(self):
        G = cyclic_group(4)
        act = coset_action(G, trivial_subgroup(G))
        assert act.degree == 4
        for g in range(1, 4):
            assert action_trace(act, [g]) == 0

    def test_stabilizer_is_the_subgroup(self, zoo8):
        for G in zoo8.values():
            for H in all_subgroups(G):
                act = coset_action(G, H)
                # the point carrying the coset of the identity
                base = next(
                    x
                    for x in range(1, act.degree + 1)
                    if {g for g in G.elements() if act.images[g](x) == x}
                    == set(H.members)
                )
                assert base is not None

    def test_orbit_stabilizer_identity(self, zoo8):
        for G in zoo8.values():
            for H in all_subgroups(G):
                act = coset_action(G, H)
                assert act.degree * H.order == G.order

    def test_all_coset_actions_verify(self, zoo8):
        for G in zoo8.values():
            for H in all_subgroups(G):
                assert check_homomorphism(coset_action(G, H)).ok


class TestWords:
    def test_parse_word_syntax(self):
        P = FpGroup(("s", "t"))
        assert parse_word("s^2 t^-3", P.generators) == ((0, 2), (1, -3))
        assert parse_word("s t s", P.generators) == ((0, 1), (1, 1), (0, 1))
        # exponents are ASCII -?[0-9]+: int() reads the Arabic-Indic and
        # fullwidth 3 as 3
        for token in ("s^\u0663", "s^\uff13", "s^-\u0663", "s^1_0", "s^+2"):
            with pytest.raises(WordError, match="invalid word token"):
                parse_word(token, P.generators)

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            parse_word("u^2", ("s", "t"))

    def test_empty_word_evaluates_to_identity(self):
        P = FpGroup(("x",))
        h = PermHomomorphism(P, 3, (parse_permutation("(1 2 3)", 3),))
        assert evaluate_word(h, "") == Permutation.identity(3)

    def test_product_count_starts_from_first_factor(self, monkeypatch):
        # a word of L factors with exponents +-1 costs L - 1 products
        P = FpGroup(("x", "y"))
        x, y = parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2 3)", 4)
        h = PermHomomorphism(P, 4, (x, y))
        factors = [("x", x), ("y^-1", y.inverse()), ("x", x), ("y", y)]
        real = Permutation.__mul__
        for length in range(1, 5):
            expected = factors[0][1]
            for _, image in factors[1:length]:
                expected = expected * image
            products = []
            monkeypatch.setattr(
                Permutation, "__mul__", lambda p, q: products.append(1) or real(p, q)
            )
            result = evaluate_word(h, " ".join(t for t, _ in factors[:length]))
            monkeypatch.undo()
            assert result == expected
            assert len(products) == length - 1

    def test_cancellation(self):
        P = FpGroup(("x",))
        h = PermHomomorphism(P, 4, (parse_permutation("(1 2 3 4)", 4),))
        assert evaluate_word(h, "x x^-1") == Permutation.identity(4)

    def test_baumslag_solitar_relator(self):
        # t^-1 x t = x^2 holds for x -> (1 2 3), t -> (2 3)
        P = FpGroup(("x", "t"), ("t^-1 x t x^-2",))
        good = PermHomomorphism(
            P, 3, (parse_permutation("(1 2 3)", 3), parse_permutation("(2 3)", 3))
        )
        assert check_homomorphism(good).ok
        bad = PermHomomorphism(
            P, 3, (parse_permutation("(1 2 3)", 3), Permutation.identity(3))
        )
        chk = check_homomorphism(bad)
        assert not chk.ok
        assert chk.witness == parse_word("t^-1 x t x^-2", P.generators)


class TestCheckHomomorphism:
    def test_klein_pair_valid(self):
        t1, t2 = klein_pair()
        assert check_homomorphism(t1).ok
        assert check_homomorphism(t2).ok

    def test_order_violation_detected(self):
        G = klein_four_group()
        c = parse_permutation("(1 2 3)", 3)
        bad = PermHomomorphism(
            G, 3, (Permutation.identity(3), c, c, c * c)
        )
        chk = check_homomorphism(bad)
        assert not chk.ok
        assert chk.witness is not None

    def test_free_group_unconstrained(self):
        P = FpGroup(("x", "y"))
        h = PermHomomorphism(
            P, 4, (parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 3)", 4))
        )
        assert check_homomorphism(h).ok

    def test_trivial_group_identity_image(self):
        # the generating set of the trivial group is empty
        bad = PermHomomorphism(cyclic_group(1), 2, (parse_permutation("(1 2)", 2),))
        chk = check_homomorphism(bad)
        assert not chk.ok and chk.witness == (0, 0)
        assert check_homomorphism(trivial_hom(cyclic_group(1), 2)).ok

    def test_against_all_pairs_oracle(self):
        rng = Random(91)
        zoo = medium_group_zoo()
        zoo["Z1"] = cyclic_group(1)
        verdicts = []
        for name in sorted(zoo):
            G = zoo[name]
            for _ in range(6):
                n = rng.randint(1, 7)
                images = list(random_hom(G, n, rng).images)
                kind = rng.randrange(4)
                a, b = rng.randrange(G.order), rng.randrange(G.order)
                if kind == 1:
                    images[a], images[b] = images[b], images[a]
                elif kind == 2:
                    images[a] = random_permutation(n, rng)
                elif kind == 3:
                    images[a] = images[a] * random_permutation(n, rng)
                h = PermHomomorphism(G, n, tuple(images))
                chk = check_homomorphism(h)
                ok, _ = oracles.check_homomorphism(h)
                assert chk.ok == ok
                if not ok:
                    x, y = chk.witness
                    assert h.images[G.mul(x, y)] != h.images[x] * h.images[y]
                verdicts.append(ok)
        assert 40 < verdicts.count(False) < 120  # both outcomes are exercised

    def test_products_per_generator(self, monkeypatch):
        products = []
        real = Permutation.__mul__
        monkeypatch.setattr(
            Permutation, "__mul__", lambda p, q: products.append(1) or real(p, q)
        )
        for G in medium_group_zoo().values():
            products.clear()
            assert check_homomorphism(coset_action(G, trivial_subgroup(G))).ok
            assert len(products) <= G.order * len(G.generating_set)

    def test_presented_klein_valid(self):
        P = klein_presentation()
        h = PermHomomorphism(
            P, 6, (parse_permutation("(1 2)(3 4)", 6), parse_permutation("(1 2)(5 6)", 6))
        )
        assert check_homomorphism(h).ok


class TestHomBuilders:
    def test_from_generator_images(self):
        G, nat = symmetric_group(3)
        # send (1 2) -> (1 2), (1 2 3) -> (1 2 3): the natural action
        gens = {2: parse_permutation("(1 2)", 3), 3: parse_permutation("(1 2 3)", 3)}
        h = hom_from_generator_images(G, gens, 3)
        assert h == nat

    def test_generator_images_against_product_closure(self):
        # oracle: the pairs (g, image of g) generate a subgroup of G x S_d,
        # which is the graph of a homomorphism iff it has one element over
        # each element of G
        def closure_is_graph(G, images, degree):
            seen = {(G.identity, tuple(range(1, degree + 1)))}
            frontier = list(seen)
            while frontier:
                new = []
                for a, p in frontier:
                    for g, q in images.items():
                        x = (G.mul(a, g), tuple(p[j - 1] for j in q.images))
                        if x not in seen:
                            seen.add(x)
                            new.append(x)
                frontier = new
            return len(seen) == len({a for a, _ in seen}) == G.order

        def random_hom(G, degree, rng):
            subgroups = all_subgroups(G)
            h = trivial_hom(G, 0)
            while h.degree < degree:
                K = rng.choice([K for K in subgroups if K.index <= degree - h.degree])
                h = direct_sum_hom(h, coset_action(G, K))
            return conjugate_hom(h, random_permutation(degree, rng))

        rng = Random(41)
        accepted = rejected = 0
        for G in medium_group_zoo().values():
            chain = generating_chain(G)
            for trial in range(16):
                degree = rng.randint(1, 6)
                real = random_hom(G, degree, rng)
                images = {g: real.images[g] for g in chain}
                if trial % 2 and chain:
                    images[rng.choice(chain)] = random_permutation(degree, rng)
                expected = closure_is_graph(G, images, degree)
                try:
                    h = hom_from_generator_images(G, images, degree)
                except SourceMismatchError:
                    assert not expected
                    rejected += 1
                    continue
                assert expected and check_homomorphism(h).ok
                assert all(h.images[g] == p for g, p in images.items())
                if trial % 2 == 0:
                    assert h == real
                accepted += 1
        assert accepted > 150 and rejected > 60

    def test_random_hom_any_degree(self, zoo8):
        rng = Random(44)
        for G in zoo8.values():
            for degree in (0, 1, 7):
                h = random_hom(G, degree, rng)
                assert h.degree == degree and check_homomorphism(h).ok

    def test_negative_degree_rejected(self):
        # the result is built unchecked, so the degree a caller passes is
        # checked here, also when no generator image carries one
        with pytest.raises(SourceMismatchError, match="image degree 0 differs from -1"):
            hom_from_generator_images(cyclic_group(1), {}, -1)
        with pytest.raises(SourceMismatchError, match="generator image degree mismatch"):
            hom_from_generator_images(cyclic_group(2), {1: Permutation.identity(0)}, -1)

    def test_inconsistent_images_rejected(self):
        G = cyclic_group(4)
        with pytest.raises(SourceMismatchError):
            hom_from_generator_images(G, {1: parse_permutation("(1 2 3)", 3)}, 3)

    def test_direct_sum_hom(self):
        G = cyclic_group(2)
        h = PermHomomorphism(
            G, 2, (Permutation.identity(2), parse_permutation("(1 2)", 2))
        )
        s = direct_sum_hom(h, trivial_hom(G, 1))
        assert s.degree == 3
        assert s.images[1] == parse_permutation("(1 2)", 3)

    def test_subgroup_as_group_roundtrip(self):
        G, nat = symmetric_group(3)
        A3 = subgroup_closure(G, [nat.images.index(parse_permutation("(1 2 3)", 3))])
        Habs, emb = A3.as_group()
        assert Habs.order == 3
        for i, g in enumerate(emb):
            for j, h in enumerate(emb):
                assert emb[Habs.mul(i, j)] == G.mul(g, h)

    def test_subgroup_invariants_rejected(self):
        G = cyclic_group(4)
        with pytest.raises(NotSubgroupError):
            Subgroup(G, [0, 1])  # not closed
