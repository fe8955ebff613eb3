"""Action traces, local statistics, and inclusion-exclusion conversions."""

import copy
import pickle
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from permstab import trace_stats
from permstab.errors import BoundExceededError, PermStabError, WordError
from permstab.fixtures import KLEIN_A, KLEIN_AB, KLEIN_B, klein_pair
from permstab.groups import (
    FpGroup,
    PermHomomorphism,
    cyclic_group,
    direct_sum_hom,
    evaluate_word,
    hom_from_generator_images,
    klein_four_group,
    parse_word,
    symmetric_group,
    trivial_hom,
)
from permstab.perm import Permutation, parse_permutation
from permstab.stability import replicate_hom
from permstab.trace_stats import (
    DEFAULT_UNIVERSE_BOUND,
    ActionTrace,
    StatisticTable,
    action_trace,
    bs_statistic,
    get_trace,
    s_from_tr,
    statistic_table,
    tr_from_s,
)

from conftest import enumerate_homs
import oracles
from oracles import klein_pair_presented
from randgen import random_hom, random_permutation


def subset_order(items):
    """The subsets of ``items`` in the order the library lists them:
    subset ``s`` holds ``items[i]`` iff bit ``i`` of ``s`` is set."""
    return [
        frozenset(x for i, x in enumerate(items) if s >> i & 1)
        for s in range(1 << len(items))
    ]


class TestActionTrace:
    def test_klein_values(self):
        t1, t2 = klein_pair()
        assert action_trace(t1, [KLEIN_A, KLEIN_B]) == 0
        assert action_trace(t2, [KLEIN_A, KLEIN_B]) == Fraction(1, 3)
        for g in (KLEIN_A, KLEIN_B, KLEIN_AB):
            assert action_trace(t1, [g]) == Fraction(1, 3)
            assert action_trace(t2, [g]) == Fraction(1, 3)

    def test_empty_set(self):
        t1, _ = klein_pair()
        assert action_trace(t1, []) == 1

    def test_identity_element(self):
        t1, _ = klein_pair()
        assert action_trace(t1, [0]) == 1

    def test_word_sets_on_presented_source(self):
        t1, t2 = klein_pair_presented()
        assert action_trace(t1, ["a", "b"]) == 0
        assert action_trace(t2, ["a", "b"]) == Fraction(1, 3)
        assert action_trace(t2, ["a b"]) == Fraction(1, 3)

    def test_element_outside_group(self):
        # an id is a key of the trace's mask store: -1 and |G| are not
        t1, _ = klein_pair()
        for h in (t1, trivial_hom(t1.source, 0)):
            for bad in (17, -1, h.source.order):
                for call in (
                    lambda: action_trace(h, [bad]),
                    lambda: bs_statistic(h, [bad], [KLEIN_A]),
                    lambda: bs_statistic(h, [KLEIN_A], [bad]),
                    lambda: s_from_tr(h.trace, [bad], []),
                    lambda: s_from_tr(h.trace, [KLEIN_A], [bad]),
                    lambda: statistic_table(h, [KLEIN_A, bad]),
                ):
                    with pytest.raises(PermStabError, match=str(bad)):
                        call()

    def test_ids_are_read_as_store_keys(self):
        # a value equal to an id reads as that id; text is not an id
        t1, _ = klein_pair()
        assert action_trace(t1, [1.0]) is action_trace(t1, [True]) is action_trace(t1, [1])
        with pytest.raises(PermStabError, match="'1'"):
            action_trace(t1, ["1"])

    def test_monotone_under_inclusion(self):
        rng = Random(21)
        G = symmetric_group(3)[0]
        for _ in range(50):
            h = random_hom(G, rng.randint(1, 12), rng)
            A = set(rng.sample(range(G.order), rng.randint(0, 3)))
            B = A | set(rng.sample(range(G.order), rng.randint(0, 3)))
            assert action_trace(h, A) >= action_trace(h, B)
            assert action_trace(h, A | {G.identity}) == action_trace(h, A)

    def test_each_share_made_once_by_the_memo(self, monkeypatch):
        # every statistic reads its value from the trace's share memo,
        # which makes the Fraction of a point count on its first read only
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(trace_stats, "Fraction", counting)
        h = random_hom(symmetric_group(3)[0], 7, Random(22))
        for _ in range(2):
            bs_statistic(h, [1], [2])
            action_trace(h, [3, 4])
            s_from_tr(h.trace, [1], [2, 3])
            tr_from_s(statistic_table(h, [1, 2, 3]), [1, 2, 3])
        assert len(made) > 2 and sorted(made) == sorted((c, 7) for c in h.trace._shares)

    def test_trace_kept_with_its_homomorphism(self):
        # the masks stay with the homomorphism however many others are traced
        t1, _ = klein_pair()
        trace = get_trace(t1)
        G = cyclic_group(2)
        for degree in range(1, 301):
            assert action_trace(trivial_hom(G, degree), [1]) == 1
        assert get_trace(t1) is trace is t1.trace


class TestBSStatistic:
    def test_empty_moved_set_is_trace(self):
        rng = Random(22)
        G = cyclic_group(6)
        for _ in range(30):
            h = random_hom(G, rng.randint(1, 10), rng)
            A = set(rng.sample(range(6), rng.randint(0, 3)))
            assert bs_statistic(h, A, []) == action_trace(h, A)

    def test_klein_example(self):
        t1, _ = klein_pair()
        assert bs_statistic(t1, [KLEIN_A], [KLEIN_B]) == Fraction(1, 3)

    def test_contradictory_sets(self):
        t1, _ = klein_pair()
        assert bs_statistic(t1, [KLEIN_A], [KLEIN_A]) == 0


class TestInclusionExclusion:
    def test_empty_moved_set(self):
        t1, _ = klein_pair()
        tr = ActionTrace(t1)
        assert s_from_tr(tr, [KLEIN_A], []) == action_trace(t1, [KLEIN_A])

    def test_klein_two_term(self):
        t1, _ = klein_pair()
        tr = ActionTrace(t1)
        assert s_from_tr(tr, [KLEIN_A], [KLEIN_B]) == Fraction(1, 3)

    def test_eight_term_sum(self):
        # |B| = 3 exercises the full alternating sum
        rng = Random(23)
        G = symmetric_group(3)[0]
        for _ in range(40):
            h = random_hom(G, rng.randint(2, 10), rng)
            tr = ActionTrace(h)
            g = rng.randrange(G.order)
            B = rng.sample(range(G.order), 3)
            assert s_from_tr(tr, [g], B) == bs_statistic(h, [g], B)

    def test_moved_bound(self):
        trace = ActionTrace(trivial_hom(cyclic_group(21), 2))
        with pytest.raises(BoundExceededError):
            s_from_tr(trace, [], range(21))

    def test_exhaustive_small(self):
        G = cyclic_group(4)
        for h in enumerate_homs(G, 3):
            tr = ActionTrace(h)
            elements = list(range(G.order))
            for asize in range(3):
                for A in combinations(elements, asize):
                    for bsize in range(3):
                        for B in combinations(elements, bsize):
                            assert s_from_tr(tr, A, B) == bs_statistic(h, A, B)


class TestPrunedInclusionExclusion:
    """``s_from_tr`` drops every term whose mask is empty and every pair of
    equal twins, and each exact share is one ``Fraction`` per count."""

    @staticmethod
    def check(h, A, B):
        value = oracles.statistic(h, A, B)
        assert s_from_tr(h.trace, A, B) == value, (A, B)
        assert oracles.s_from_tr_pruned(h.trace, A, B) == value, (A, B)
        assert oracles.s_from_tr_expansion(h, A, B) == value, (A, B)

    def test_against_the_whole_expansion(self, zoo24):
        # degrees 0-60, |B| up to 12, ids drawn with repetition
        rng = Random(33)
        groups = [G for G in zoo24.values() if G.order >= 12]
        for j in range(120):
            G = groups[j % len(groups)]
            h = random_hom(G, rng.randint(0, 60), rng)
            A = rng.choices(range(G.order), k=rng.randint(0, 3))
            B = rng.choices(range(G.order), k=rng.randint(0, 12))
            self.check(h, A, B)

    def test_equal_twins_cancel(self, zoo24):
        # few points and many fixed ones: some element of B fixes every
        # point of some kept mask in most queries, so twins cancel often
        rng = Random(34)
        groups = [G for G in zoo24.values() if G.order >= 12]
        cancelling = 0
        for j in range(200):
            G = groups[j % len(groups)]
            h = random_hom(G, rng.randint(1, 8), rng)
            A = rng.sample(range(G.order), rng.randint(0, 2))
            B = rng.sample(range(G.order), rng.randint(1, min(16, G.order)))
            common = h.trace._full
            for m in h.trace.masks(A):
                common &= m
            # A's own term cancels with its twin at such an element's step;
            # when A fixes no point there is no term to cancel
            cancelling += common != 0 and any(
                common & mb == common for mb in h.trace.masks(B)
            )
            self.check(h, A, B)
        assert cancelling >= 100

    def test_twins_cancel_below_the_top(self):
        # a fixes 1-6 and b fixes 1-6 too, so S(a, B) = 0 whenever b is in
        # B; c fixes 1-3 and d fixes 1-3, 7, 8, so the term of {c} cancels
        # with its twin {c, d}, but A's term does not
        fixes = {"a": {1, 2, 3, 4, 5, 6}, "b": {1, 2, 3, 4, 5, 6},
                 "c": {1, 2, 3}, "d": {1, 2, 3, 7, 8}, "e": {4, 5, 7, 8}}
        images = []
        for w in "abcde":
            moved = [x for x in range(1, 9) if x not in fixes[w]]
            cycle = dict(zip(moved, moved[1:] + moved[:1]))
            images.append(Permutation([cycle.get(x, x) for x in range(1, 9)]))
        h = PermHomomorphism(FpGroup(tuple("abcde")), 8, tuple(images))
        assert s_from_tr(h.trace, ["a"], ["c", "d", "e"]) == Fraction(1, 8)  # point 6
        for k in range(1, 5):
            for B in combinations("bcde", k):
                self.check(h, ["a"], list(B))
                self.check(h, [], list(B))

    def test_empty_term_drops_its_supersets(self):
        # A fixes no point: a result of 0 without the 2^20 terms of B
        rotation = Permutation(list(range(2, 22)) + [1])
        h = hom_from_generator_images(cyclic_group(21), {1: rotation}, 21)
        A, B = [1], [0, *range(2, 21)]
        trace = h.trace
        tracemalloc.start()
        try:
            assert s_from_tr(trace, A, B) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_equal_twins_drop_their_subtrees(self):
        # every element fixes both points, so A's term lies inside the
        # first element's mask and cancels with its twin: a result of 0
        # without the 2^20 terms of B
        trace = trivial_hom(cyclic_group(21), 2).trace
        tracemalloc.start()
        try:
            assert s_from_tr(trace, [], range(20)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_one_fraction_per_count(self):
        t1, _ = klein_pair()
        share = bs_statistic(t1, [KLEIN_A], [KLEIN_B])
        assert share == Fraction(1, 3)  # 2 of 6 points
        assert bs_statistic(t1, [KLEIN_B], [KLEIN_A]) is share
        assert s_from_tr(t1.trace, [KLEIN_A], [KLEIN_B]) is share
        assert action_trace(t1, [KLEIN_AB]) is share
        assert statistic_table(t1, [KLEIN_A])[frozenset({KLEIN_A})] is share


def random_word(rng, m):
    """Up to 8 letters with exponents in +-1..3, repeated letters and
    cancelling pairs ``x^e x^-e``; possibly empty."""
    word = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if word and r < 0.2:
            idx, exp = word[-1]
            word.append((idx, -exp))
        elif word and r < 0.35:
            word.append(word[-1])
        else:
            word.append((rng.randrange(m), rng.choice((1, -1, 2, -2, 3, -3))))
    return tuple(word)


class TestBatchWordEvaluation:
    """``ActionTrace.masks`` evaluates each word once."""

    def test_against_evaluate_word_and_point_count(self):
        rng = Random(30)
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(0, 12)
            h = PermHomomorphism(
                FpGroup(tuple("xyz"[:m])),
                n,
                tuple(random_permutation(n, rng) for _ in range(m)),
            )
            words = [random_word(rng, m) for _ in range(20)]
            words += [(), ((0, 1), (0, -1))]
            words += [w[k:] for w in words[:4] for k in range(len(w))]  # suffixes
            trace = ActionTrace(h)
            queries = [
                (
                    rng.sample(range(len(words)), rng.randint(0, 3)),
                    rng.sample(range(len(words)), rng.randint(0, 3)),
                )
                for _ in range(25)
            ]
            counts = oracles.query_counts(trace, words, queries)
            # only the masks of the asked words are kept
            assert set(trace._mask_memo) == set(words)
            for w in words:
                assert trace._mask_memo[w] == evaluate_word(h, w).fixed_mask(), w
            assert counts == [
                oracles.point_count(h, [words[i] for i in A], [words[j] for j in B])
                for A, B in queries
            ]

    def test_each_word_evaluated_once(self, monkeypatch):
        import permstab.trace_stats as trace_stats

        h = PermHomomorphism(
            FpGroup(("x", "y")),
            5,
            (Permutation([2, 3, 1, 4, 5]), Permutation([1, 2, 3, 5, 4])),
        )
        evaluated, products = [], []
        evaluate, mul = trace_stats.evaluate_word, Permutation.__mul__

        def counted_evaluate(hom, w):
            evaluated.append(w)
            return evaluate(hom, w)

        def counted_mul(p, q):
            products.append(1)
            return mul(p, q)

        monkeypatch.setattr(trace_stats, "evaluate_word", counted_evaluate)
        monkeypatch.setattr(Permutation, "__mul__", counted_mul)
        x, y, y_inv = (0, 1), (1, 1), (1, -1)
        words = [(y,), (x, y), (x, x, y), (y_inv, x, y), (x, y), "x y", ()]
        trace = ActionTrace(h)
        masks = trace.masks(words)
        # "x y" parses to the tuple (x, y): seven words, five distinct
        assert sorted(evaluated) == sorted({(y,), (x, y), (x, x, y), (y_inv, x, y), ()})
        assert masks == [evaluate(h, w).fixed_mask() for w in words]
        evaluated.clear()
        products.clear()
        assert trace.masks(words) == masks
        assert trace.masks(list(reversed(words))) == masks[::-1]
        assert evaluated == [] and products == []

    def test_unknown_generator_rejected(self):
        h = PermHomomorphism(FpGroup(("x",)), 2, (Permutation([2, 1]),))
        with pytest.raises(WordError):
            ActionTrace(h).masks([((0, 1), (1, 1))])


class TestPointCountOracle:
    """``action_trace``, ``bs_statistic``, ``s_from_tr``, ``statistic_table``
    and ``oracles.query_counts`` against ``oracles.point_count``."""

    @staticmethod
    def check_universe(h, U, canonical=None):
        """Every ``(A, B)`` with ``A`` union ``B`` equal to ``U``, whose
        elements have distinct canonical forms (``canonical[u]``, if given:
        what ``oracles.query_counts`` and the table keys take)."""
        elements = list(U) if canonical is None else [canonical[u] for u in U]
        queries, want, table = [], [], {}
        for roles in product(range(3), repeat=len(U)):  # A only, B only, both
            fixed = [i for i, r in enumerate(roles) if r != 1]
            moved = [i for i, r in enumerate(roles) if r != 0]
            A, B = [U[i] for i in fixed], [U[i] for i in moved]
            value = oracles.statistic(h, A, B)
            assert bs_statistic(h, A, B) == value, (A, B)
            assert s_from_tr(h.trace, A, B) == value, (A, B)
            assert oracles.s_from_tr_expansion(h, A, B) == value, (A, B)
            if not B:
                assert action_trace(h, A) == value, A
            if 2 not in roles:
                table[frozenset(elements[i] for i in fixed)] = value
            queries.append((fixed, moved))
            want.append(oracles.point_count(h, A, B))
        assert oracles.query_counts(ActionTrace(h), elements, queries) == want, U
        assert statistic_table(h, U) == table, U

    def test_exhaustive_small_groups(self):
        # every hom of S3, Z4 and V4 into degree <= 4, every |A u B| <= 4
        for G in (symmetric_group(3)[0], cyclic_group(4), klein_four_group()):
            elements = list(G.elements())
            for degree in range(5):
                for h in enumerate_homs(G, degree):
                    for k in range(5):
                        for U in combinations(elements, k):
                            self.check_universe(h, U)

    def test_random_word_sets(self):
        rng = Random(31)
        for _ in range(150):
            m, n = rng.randint(1, 3), rng.randint(0, 7)
            h = PermHomomorphism(
                FpGroup(tuple("xyz"[:m])),
                n,
                tuple(random_permutation(n, rng) for _ in range(m)),
            )
            canonical = {}  # each word as its text or its tuple, at random
            for w in {random_word(rng, m) for _ in range(rng.randint(0, 3))}:
                text = " ".join(f"{'xyz'[i]}^{e}" for i, e in w)
                canonical[text if rng.random() < 0.5 else w] = w
            self.check_universe(h, list(canonical), canonical)

    def test_generator_arguments(self):
        # a generator expression passed as A, B or F gives the list's value
        def gen(xs):
            return (x for x in xs)

        G = symmetric_group(3)[0]
        rng = Random(32)
        cases = [(random_hom(G, d, rng), list(range(6))) for d in (1, 3, 6)]
        cases += [(trivial_hom(G, 0), list(range(6)))]
        cases += [(PermHomomorphism(FpGroup(("x",)), 0, (Permutation([]),)), ["x", "x^2"])]
        cases += [(t, ["a", "b", "a b"]) for t in klein_pair_presented()]
        for h, pool in cases:
            for _ in range(15):
                A, B = rng.sample(pool, rng.randint(0, 2)), rng.sample(pool, rng.randint(0, 2))
                value = oracles.statistic(h, A, B)
                assert action_trace(h, gen(A)) == oracles.statistic(h, A, [])
                assert bs_statistic(h, gen(A), gen(B)) == value
                assert bs_statistic(h, gen(A), B) == value
                assert bs_statistic(h, A, gen(B)) == value
                assert s_from_tr(h.trace, gen(A), gen(B)) == value
                assert oracles.s_from_tr_pruned(h.trace, gen(A), gen(B)) == value
                assert oracles.s_from_tr_expansion(h, gen(A), gen(B)) == value
                assert statistic_table(h, gen(A + B)) == oracles.statistic_table(h, A + B)


class TestTrFromS:
    def test_single_element(self):
        stats = {frozenset(): Fraction(0), frozenset({5}): Fraction(1)}
        out = tr_from_s(stats, [5])
        assert out[frozenset({5})] == 1
        assert out[frozenset()] == 1

    def test_klein_roundtrip(self):
        _, t2 = klein_pair()
        F = [KLEIN_A, KLEIN_B]
        table = statistic_table(t2, F)
        recovered = tr_from_s(table, F)
        assert recovered[frozenset(F)] == Fraction(1, 3)
        for A in (frozenset(), frozenset({KLEIN_A}), frozenset(F)):
            assert recovered[A] == action_trace(t2, A)

    def test_random_roundtrip_three_elements(self):
        rng = Random(24)
        G = symmetric_group(3)[0]
        for _ in range(25):
            h = random_hom(G, rng.randint(1, 9), rng)
            F = rng.sample(range(G.order), 3)
            table = statistic_table(h, F)
            recovered = tr_from_s(table, F)
            for size in range(4):
                for A in combinations(F, size):
                    assert recovered[frozenset(A)] == action_trace(h, A)

    def test_incomplete_table_rejected(self):
        # the first missing subset in the library's order is named; keys
        # that are not frozensets (here tuples) are never entries
        for stats, universe, missing in (
            ({frozenset(): Fraction(1)}, [1, 2], "{1}"),
            ({frozenset(): Fraction(1), frozenset({1}): Fraction(0)}, [2, 1], "{2}"),
            ({(): Fraction(1), (1,): Fraction(0)}, [1], "set()"),
            ({frozenset(): Fraction(1), (1,): Fraction(0)}, [1], "{1}"),
        ):
            with pytest.raises(PermStabError) as info:
                tr_from_s(stats, universe)
            assert str(info.value) == (
                f"statistic table is incomplete: missing entry for {missing}"
            )

    def test_empty_universe(self):
        assert tr_from_s({frozenset(): Fraction(2, 7)}, []) == {frozenset(): Fraction(2, 7)}
        for h in (klein_pair()[0], trivial_hom(cyclic_group(3), 0)):
            assert tr_from_s(statistic_table(h, []), []) == {frozenset(): 1}

    def test_keys_outside_the_universe_ignored(self):
        _, t2 = klein_pair()
        F = [KLEIN_A, KLEIN_B]
        table = statistic_table(t2, F)
        want = tr_from_s(table, F)
        extra = {
            frozenset({KLEIN_AB}): Fraction(5),
            frozenset({KLEIN_A, KLEIN_AB}): Fraction(-1, 7),
            (KLEIN_A,): Fraction(9),
            "ab": Fraction(3),
        }
        for mixed in ({**extra, **table}, {**table, **extra}):
            recovered = tr_from_s(mixed, F)
            assert recovered == want
            assert list(recovered) == list(want)
        # a table over a larger universe, read on a smaller one
        wide = statistic_table(t2, F + [KLEIN_AB])
        assert tr_from_s(wide, F) == oracles.tr_from_s(wide, F)

    def test_values_read_as_rationals(self):
        stats = {frozenset(): 1, frozenset({5}): Fraction(1, 3)}
        want = {frozenset(): Fraction(4, 3), frozenset({5}): Fraction(1, 3)}
        assert tr_from_s(stats, [5]) == want
        with pytest.raises(AttributeError):
            tr_from_s({frozenset(): 0.5}, [])

    def test_universe_bound(self):
        # 16 distinct elements of S5 are admitted, a repeat counting once;
        # 17 are refused before a table of 2^17 entries is built
        h = symmetric_group(5)[1]
        F = list(range(DEFAULT_UNIVERSE_BOUND))
        table = statistic_table(h, F + F[:3])
        assert len(table) == 1 << DEFAULT_UNIVERSE_BOUND == 1 << 16
        assert tr_from_s(table, F)[frozenset()] == 1
        wide = F + [DEFAULT_UNIVERSE_BOUND]
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="universe of 17 elements"):
            statistic_table(h, wide)
        with pytest.raises(BoundExceededError, match="universe of 17 elements"):
            tr_from_s(table, wide)
        assert time.perf_counter() - start < 1

    def test_roundtrip_exhaustive_small_groups(self, zoo8):
        # every hom into the degree-4 symmetric group, every universe F
        # with |F| <= 4: recovering traces from the statistic table is
        # the exact inverse on the whole subset lattice
        for G in zoo8.values():
            elements = list(G.elements())
            for h in enumerate_homs(G, 4):
                for fsize in range(min(4, G.order) + 1):
                    for F in combinations(elements, fsize):
                        recovered = tr_from_s(statistic_table(h, F), F)
                        for A, value in recovered.items():
                            assert value == action_trace(h, A)


class TestTablesAgainstOracles:
    """One-pass ``statistic_table`` and superset-sum ``tr_from_s`` against
    the subset-pair loops of ``oracles``."""

    def test_random_universes(self, zoo8, zoo24):
        # Z24 and S4 have ids from 10 on, and the word tuple ((0, 9),) of
        # a^9 sorts before ((0, 10),): orders that differ from repr order
        rng = Random(28)
        groups = {**zoo8, "Z24": zoo24["Z24"], "S4": zoo24["S4"]}
        names = sorted(groups)
        cases = []
        for _ in range(150):
            G = groups[rng.choice(names)]
            h = random_hom(G, rng.randint(1, 12), rng)
            F = rng.sample(range(G.order), rng.randint(0, min(6, G.order)))
            cases.append((h, F, F))
        words = PermHomomorphism(
            FpGroup(("a", "b")),
            9,
            (parse_permutation("(1 2 3 4 5)(6 7)", 9), parse_permutation("(1 6)(8 9)", 9)),
        )
        F = ["a^9", "a^10", "b", "a b", "a^10"]
        cases.append((words, F, [parse_word(w, ("a", "b")) for w in F]))
        permuted = 0
        for h, F, elements in cases:
            table = statistic_table(h, F)
            assert table == oracles.statistic_table(h, F)
            assert list(table) == subset_order(sorted(set(elements), key=repr))
            recovered = tr_from_s(table, elements)
            assert recovered == oracles.tr_from_s(table, elements)
            # the table's own key objects, in the table's order
            assert list(recovered) == list(table)
            assert all(a is b for a, b in zip(recovered, table))
            permuted += sorted(set(elements)) != sorted(set(elements), key=repr)
        assert permuted >= 10

    def test_arbitrary_rationals(self):
        # tr_from_s is linear in the table, whatever its denominators;
        # from 8 on, the repr order of the ids is not their numeric order
        rng = Random(29)
        for size in range(5):
            F = list(range(8, 8 + size))
            table = {
                frozenset(T): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for k in range(size + 1)
                for T in combinations(F, k)
            }
            recovered = tr_from_s(table, F)
            assert recovered == oracles.tr_from_s(table, F)
            assert list(recovered) == subset_order(sorted(F, key=repr))

    def test_word_universe(self):
        _, t2 = klein_pair_presented()
        F = ["a", "b", "a b"]
        table = statistic_table(t2, F)
        assert table == oracles.statistic_table(t2, F)
        assert sum(table.values()) == 1
        # the table is keyed by parsed word tuples, not by the words typed
        with pytest.raises(PermStabError) as info:
            tr_from_s(table, F)
        message = str(info.value)
        assert message.startswith("statistic table is incomplete: missing entry for {'a b'}; ")
        assert "not the table's element forms" in message
        assert "max(table, key=len)" in message
        words = max(table, key=len)
        recovered = tr_from_s(table, words)
        assert recovered == oracles.tr_from_s(table, words)
        for A, value in recovered.items():
            assert value == action_trace(t2, A)

    def test_large_degrees(self, zoo8):
        # the split of the points at degrees 200-1000, universes of 8
        rng = Random(35)
        for G, degree in ((symmetric_group(4)[0], 200), (zoo8["Z2xZ2xZ2"], 517),
                          (zoo8["Z8"], 1000)):
            h = random_hom(G, degree, rng)
            F = rng.sample(range(G.order), 8)
            assert statistic_table(h, F) == oracles.statistic_table(h, F)

    def test_degree_zero_convention(self):
        h = trivial_hom(cyclic_group(3), 0)
        for F in ([], [1], [0, 2]):
            assert statistic_table(h, F) == oracles.statistic_table(h, F)

    def test_element_id_checked(self):
        t1, _ = klein_pair()
        for bad in (17, -1, t1.source.order):
            with pytest.raises(PermStabError):
                statistic_table(t1, [KLEIN_A, bad])


class TestStatisticTableCounts:
    """``tr_from_s`` on a :class:`StatisticTable` and its own universe
    sums the kept point counts; every other input takes the general path,
    which this class treats as the reference."""

    @staticmethod
    def check(h, F, universe=None):
        """The round trip of ``h`` over ``F``, read back on ``universe``
        (default ``F``), against the general path and the oracle: equal
        values, the table's own key objects, the same order, and each
        share the trace's memoized ``Fraction``."""
        universe = F if universe is None else universe
        table = statistic_table(h, F)
        assert isinstance(table, StatisticTable) and isinstance(table, dict)
        out = tr_from_s(table, universe)
        reference = tr_from_s(dict(table), universe)
        assert out == reference == oracles.tr_from_s(table, universe)
        assert list(out) == list(reference)
        own = {T: T for T in table}
        assert all(own[T] is T for T in out)
        if h.degree:
            memo = h.trace._shares
            assert all(memo[v * h.degree] is v for v in out.values())
        return out

    def test_random_universes_against_the_general_path(self, zoo24):
        # ids from 10 on sort differently by repr than by value, so most
        # universes of the order-12 and order-24 groups list their
        # subsets in an order that is not the numeric one
        rng = Random(2901)
        names = sorted(zoo24)
        permuted = 0
        for _ in range(300):
            G = zoo24[rng.choice(names)]
            h = random_hom(G, rng.randint(1, 40), rng)
            F = rng.sample(range(G.order), rng.randint(0, min(7, G.order)))
            if F and rng.random() < 0.3:  # repeated elements count once
                F += rng.choices(F, k=rng.randint(1, 3))
            self.check(h, F)
            items = sorted(set(F))
            permuted += items != sorted(items, key=repr)
        assert permuted >= 30  # 35 today

    def test_word_tables(self):
        rng = Random(2902)
        cases = [(t, ["a", "b", "a b"]) for t in klein_pair_presented()]
        cases += [(klein_pair_presented()[1], ["a", "a", "b^-1", "a b a"])]
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 9)
            h = PermHomomorphism(
                FpGroup(tuple("xyz"[:m])),
                n,
                tuple(random_permutation(n, rng) for _ in range(m)),
            )
            cases.append((h, [random_word(rng, m) for _ in range(rng.randint(0, 4))]))
        for h, F in cases:
            table = statistic_table(h, F)
            self.check(h, F, max(table, key=len))
            if not any(isinstance(w, str) for w in F):
                self.check(h, F)
                continue
            # the words as typed are not the table's elements: the
            # general path's error, unchanged
            with pytest.raises(PermStabError) as fast:
                tr_from_s(table, F)
            with pytest.raises(PermStabError) as general:
                tr_from_s(dict(table), F)
            assert str(fast.value) == str(general.value)

    def test_sixteen_elements(self):
        # the table of test_universe_bound, ids 10-15 out of numeric order
        h = symmetric_group(5)[1]
        F = list(range(DEFAULT_UNIVERSE_BOUND))
        table = statistic_table(h, F + F[:3])
        out = tr_from_s(table, F)
        reference = tr_from_s(dict(table), F)
        assert out == reference
        assert list(out) == list(reference)
        assert all(a is b for a, b in zip(out, reference))
        for A in (frozenset(), frozenset({2, 11}), frozenset(F)):
            assert out[A] == action_trace(h, A)

    def test_library_round_trip_takes_the_counts(self, monkeypatch):
        klein = klein_pair_presented()[1]
        s5 = symmetric_group(5)[1]
        rng = Random(2903)
        G = cyclic_group(24)
        cases = [(random_hom(G, 30, rng), [3, 12, 0, 21, 9]), (klein, ["a", "b", "a b"]),
                 (s5, list(range(DEFAULT_UNIVERSE_BOUND)) + [4])]
        tables = [statistic_table(h, F) for h, F in cases]
        universes = [max(table, key=len) for table in tables]
        want = [tr_from_s(dict(t), U) for t, U in zip(tables, universes)]

        def general_path(stats, items):
            raise AssertionError("the round trip fell back to the general path")

        monkeypatch.setattr(trace_stats, "_tr_from_values", general_path)
        for table, universe, expected in zip(tables, universes, want):
            assert tr_from_s(table, universe) == expected
        # every other input takes the general path: a plain mapping, a
        # smaller universe, the words as typed, a degree-0 table, and the
        # table's own elements in other forms that sort otherwise by repr
        zero = trivial_hom(cyclic_group(3), 0)
        readable = [(tables[0], [3, 12, False, 21, 9])]
        readable += [(statistic_table(zero, F), F) for F in ([], [1], [1, 2], [0, 1, 2])]
        general = [(dict(tables[0]), universes[0]), (tables[0], [3, 12]),
                   (tables[1], ["a", "b", "a b"]), *readable]
        for stats, universe in general:
            with pytest.raises(AssertionError, match="general path"):
                tr_from_s(stats, universe)
        monkeypatch.undo()
        for stats, universe in readable:
            assert tr_from_s(stats, universe) == tr_from_s(dict(stats), universe)

    @pytest.mark.parametrize("elements", range(DEFAULT_UNIVERSE_BOUND + 1))
    def test_packed_sums_at_every_field_width(self, elements):
        # point counts that sum to the total, in fields of the fewest of
        # 1, 2, 4 or 8 bytes that hold it; the sum over the supersets of
        # the empty set is the total itself, the top of its field
        rng = Random(4700 + elements)
        widths = {0: 1, 1: 1, 255: 1, 256: 2, 65535: 2, 65536: 4,
                  2**32 - 1: 4, 2**32: 8, 2**64 - 1: 8}
        for total, size in widths.items():
            cuts = sorted(rng.randint(0, total) for _ in range((1 << elements) - 1))
            counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            packed = trace_stats._packed_superset_sums(counts, elements, total)
            assert packed.itemsize == size
            assert list(packed) == trace_stats._superset_sums(counts, elements)

    def test_round_trip_at_field_boundaries(self, zoo24):
        # degrees 255 and 256 take fields of one and two bytes, 65536 of four
        rng = Random(4703)
        G = zoo24["S3"]
        homs = [random_hom(G, 255, rng), random_hom(G, 256, rng),
                direct_sum_hom(replicate_hom(random_hom(G, 256, rng), 255),
                               random_hom(G, 256, rng))]
        for h in homs:
            F = rng.sample(range(G.order), 4)
            table = statistic_table(h, F)
            if h.degree < 1000:  # the oracle tests one point at a time
                assert table == oracles.statistic_table(h, F)
            recovered = tr_from_s(table, F)
            assert recovered == oracles.tr_from_s(table, F) == tr_from_s(dict(table), F)
            assert recovered[frozenset()] == 1
            for A, value in recovered.items():
                assert value == action_trace(h, A)
        assert [h.degree for h in homs] == [255, 256, 65536]

    def test_degree_zero_table(self):
        h = trivial_hom(cyclic_group(3), 0)
        for F in ([], [1], [0, 2]):
            table = statistic_table(h, F)
            assert isinstance(table, StatisticTable)
            assert tr_from_s(table, F) == tr_from_s(dict(table), F)

    def test_read_only(self):
        _, t2 = klein_pair()
        table = statistic_table(t2, [KLEIN_A, KLEIN_B])
        before = dict(table)
        key = frozenset({KLEIN_A})
        mutators = [
            lambda: table.__setitem__(key, Fraction(1)),
            lambda: table.__delitem__(key),
            table.clear,
            lambda: table.pop(key),
            table.popitem,
            lambda: table.setdefault(frozenset({KLEIN_AB}), Fraction(0)),
            lambda: table.update({key: Fraction(1)}),
        ]
        for mutate in mutators:
            with pytest.raises(TypeError, match=r"read-only; dict\(table\) is a mutable copy"):
                mutate()
        with pytest.raises(TypeError, match="read-only"):
            table |= {key: Fraction(1)}
        assert table == before and list(table) == list(before)
        copied = dict(table)
        copied[key] = Fraction(1)
        assert copied[key] == 1 and table[key] == before[key]

    def test_copies_are_plain_dicts(self):
        _, t2 = klein_pair()
        table = statistic_table(t2, [KLEIN_A, KLEIN_B, KLEIN_AB])
        for twin in (copy.copy(table), copy.deepcopy(table),
                     pickle.loads(pickle.dumps(table))):
            assert type(twin) is dict
            assert twin == table and list(twin) == list(table)
            twin.clear()  # mutable


class TestGlobalInvariants:
    def test_partition_of_unity(self, zoo8):
        rng = Random(25)
        for G in list(zoo8.values())[:6]:
            for _ in range(10):
                h = random_hom(G, rng.randint(1, 10), rng)
                F = rng.sample(range(G.order), min(3, G.order))
                assert sum(statistic_table(h, F).values()) == 1

    def test_replication_preserves_traces(self):
        rng = Random(26)
        G = cyclic_group(6)
        for _ in range(25):
            h = random_hom(G, rng.randint(1, 8), rng)
            s = rng.randint(1, 4)
            r = replicate_hom(h, s)
            A = rng.sample(range(6), rng.randint(0, 3))
            assert action_trace(r, A) == action_trace(h, A)

    def test_direct_sum_mixing(self):
        rng = Random(27)
        G = symmetric_group(3)[0]
        for _ in range(25):
            h1 = random_hom(G, rng.randint(1, 8), rng)
            h2 = random_hom(G, rng.randint(1, 8), rng)
            s = direct_sum_hom(h1, h2)
            A = rng.sample(range(G.order), rng.randint(0, 3))
            expected = (
                h1.degree * action_trace(h1, A) + h2.degree * action_trace(h2, A)
            ) / Fraction(s.degree)
            assert action_trace(s, A) == expected

    def test_degree_zero_hom(self):
        G = cyclic_group(3)
        h = trivial_hom(G, 0)
        assert action_trace(h, [1]) == 1
        assert bs_statistic(h, [], [1]) == 0
