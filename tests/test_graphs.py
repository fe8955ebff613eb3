"""Action graphs, pattern frequencies, statistical distance, encoding."""

import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction
from functools import _lru_cache_wrapper, lru_cache
from itertools import combinations, permutations as iperms, product
from random import Random

import networkx as nx
import pytest

from permstab import graphs
from permstab.errors import (
    AlphabetMismatchError,
    BoundExceededError,
    MalformedInputError,
)
from permstab.graphs import (
    LabeledDigraph,
    RootedPattern,
    SimpleGraph,
    action_graph,
    decode_simple,
    encode_to_simple,
    enumerate_patterns,
    pattern_frequency,
    stat_distance_details,
    stat_distance_truncated,
    _slot_rows,
    _statistic_words,
    _traversal_key,
)
from permstab.groups import FpGroup, PermHomomorphism
from permstab.perm import Permutation, parse_permutation
from permstab.randgen import random_permutation
from permstab.trace_stats import action_trace, bs_statistic, get_trace, s_from_tr

import oracles


def free_hom(degree, *cycle_strs):
    names = tuple("xyzw"[: len(cycle_strs)])
    return PermHomomorphism(
        FpGroup(names),
        degree,
        tuple(parse_permutation(s, degree) for s in cycle_strs),
    )


def random_graph(alphabet, n, rng) -> LabeledDigraph:
    return LabeledDigraph(
        n, alphabet, tuple(random_permutation(n, rng) for _ in alphabet)
    )


def to_networkx(g: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(1, g.n + 1))
    out.add_edges_from(tuple(e) for e in g.edges)
    return out


def labeled_digraphs_isomorphic(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    if g1.n != g2.n or g1.alphabet != g2.alphabet:
        return False
    e2 = set(g2.edges())
    for images in iperms(range(1, g1.n + 1)):
        f = dict(zip(range(1, g1.n + 1), images))
        if all((f[u], f[v], lab) in e2 for u, v, lab in g1.edges()):
            return True
    return False


class TestActionGraph:
    def test_three_cycle(self):
        g = action_graph(free_hom(3, "(1 2 3)"))
        assert sorted(g.edges()) == [(1, 2, "x"), (2, 3, "x"), (3, 1, "x")]

    def test_identity_loops(self):
        g = action_graph(free_hom(2, "()"))
        assert sorted(g.edges()) == [(1, 1, "x"), (2, 2, "x")]

    def test_two_letters(self):
        g = action_graph(free_hom(2, "(1 2)", "()"))
        assert sorted(g.edges()) == [
            (1, 1, "y"),
            (1, 2, "x"),
            (2, 1, "x"),
            (2, 2, "y"),
        ]

    def test_relators_allowed(self):
        # the Schreier graph of <x | x^2> acting by (1 2)(3 4) on 5 points
        P = FpGroup(("x",), ("x^2",))
        h = PermHomomorphism(P, 5, (parse_permutation("(1 2)(3 4)", 5),))
        g = action_graph(h)
        assert sorted(g.edges()) == [
            (1, 2, "x"), (2, 1, "x"), (3, 4, "x"), (4, 3, "x"), (5, 5, "x")
        ]
        assert g == action_graph(free_hom(5, "(1 2)(3 4)"))

    def test_edge_count(self):
        rng = Random(61)
        for _ in range(20):
            n, m = rng.randint(1, 12), rng.randint(1, 3)
            h = PermHomomorphism(
                FpGroup(tuple("xyz"[:m])),
                n,
                tuple(random_permutation(n, rng) for _ in range(m)),
            )
            assert len(action_graph(h).edges()) == m * n


def embedding_frequency(graph: LabeledDigraph, pattern: RootedPattern) -> Fraction:
    """Oracle: place the root at each vertex, force the image of every
    other pattern vertex along the edges, and count the injective fits."""
    if graph.n == 0:
        return Fraction(0)
    perms = graph.perms
    inv = [p.inverse() for p in perms]
    edges = tuple(pattern.edges)
    count = 0
    for x in range(1, graph.n + 1):
        f = {pattern.root: x}
        pending = list(edges)
        ok = True
        while pending and ok:
            rest = []
            progressed = False
            for u, v, lab in pending:
                fu, fv = f.get(u), f.get(v)
                if fu is None and fv is None:
                    rest.append((u, v, lab))
                    continue
                progressed = True
                if fu is not None and fv is None:
                    f[v] = perms[lab](fu)
                elif fv is not None and fu is None:
                    f[u] = inv[lab](fv)
                elif perms[lab](fu) != fv:
                    ok = False
                    break
            pending = rest
            if not progressed and pending:
                ok = False
        if ok and len(set(f.values())) == pattern.n:
            count += 1
    return Fraction(count, graph.n)


@lru_cache(maxsize=None)
def all_rooted_patterns(alphabet, bound):
    """One pattern per rooted isomorphism class with at most ``bound``
    vertices, without ``enumerate_patterns``' canonical forms: every way
    to make each label a partial injection of ``1..k``, rooted at 1, kept
    when no renumbering of the other vertices was seen before."""
    out = []
    for k in range(1, bound + 1):
        points = range(1, k + 1)
        injections = [
            tuple(zip(dom, img))
            for r in range(k + 1)
            for dom in combinations(points, r)
            for img in iperms(points, r)
        ]
        renumberings = [(0, 1) + rest for rest in iperms(range(2, k + 1))]
        seen = set()
        for per_label in product(injections, repeat=len(alphabet)):
            edges = frozenset(
                (u, v, lab) for lab, inj in enumerate(per_label) for u, v in inj
            )
            key = min(
                tuple(sorted((s[u], s[v], lab) for u, v, lab in edges))
                for s in renumberings
            )
            if key in seen:
                continue
            seen.add(key)
            try:
                out.append(RootedPattern(k, 1, alphabet, edges))
            except MalformedInputError:  # disconnected
                continue
    return out


class TestFrequencyOracle:
    @pytest.mark.parametrize("alphabet", [("x",), ("x", "y")])
    def test_generator_lists_each_class_once(self, alphabet):
        patterns = all_rooted_patterns(alphabet, 3)
        listed = enumerate_patterns(alphabet, 3)
        assert len(patterns) == len(listed)
        assert {p.certificate() for p in patterns} == {
            p.certificate() for p, _ in listed
        }

    @pytest.mark.parametrize(
        "alphabet,bound", [(("x", "y"), 4), (("x",), 3), (("x", "y", "z"), 3)]
    )
    def test_matches_embedding_count(self, alphabet, bound):
        rng = Random(72 + 10 * len(alphabet) + bound)
        homs = [
            PermHomomorphism(
                FpGroup(alphabet), n, tuple(random_permutation(n, rng) for _ in alphabet)
            )
            for n in (0, 1, 2, 6)
        ]
        graphs = [action_graph(h) for h in homs]
        for pat in all_rooted_patterns(alphabet, bound):
            fixed, moved = _statistic_words(pat)
            for h, g in zip(homs, graphs):
                f = pattern_frequency(g, pat)
                assert f == embedding_frequency(g, pat), (g.n, pat)
                if bound <= 3 and g.n:
                    assert f == s_from_tr(get_trace(h), fixed, moved), (g.n, pat)


class TestPatternFrequency:
    def test_single_vertex_pattern(self):
        g = action_graph(free_hom(5, "(1 2 3 4 5)"))
        k = RootedPattern(1, 1, ("x",), frozenset())
        assert pattern_frequency(g, k) == 1

    def test_loop_pattern(self):
        g = action_graph(free_hom(3, "(1 2)"))
        k = RootedPattern(1, 1, ("x",), frozenset({(1, 1, 0)}))
        assert pattern_frequency(g, k) == Fraction(1, 3)

    def test_edge_pattern(self):
        g = action_graph(free_hom(3, "(1 2)"))
        k = RootedPattern(2, 1, ("x",), frozenset({(1, 2, 0)}))
        assert pattern_frequency(g, k) == Fraction(2, 3)

    def test_alphabet_mismatch(self):
        g = action_graph(free_hom(3, "(1 2)"))
        k = RootedPattern(1, 1, ("y",), frozenset())
        with pytest.raises(AlphabetMismatchError):
            pattern_frequency(g, k)

    def test_loop_equals_trace_random(self):
        rng = Random(62)
        for _ in range(60):
            n = rng.randint(1, 30)
            h = PermHomomorphism(
                FpGroup(("x",)), n, (random_permutation(n, rng),)
            )
            g = action_graph(h)
            loop = RootedPattern(1, 1, ("x",), frozenset({(1, 1, 0)}))
            assert pattern_frequency(g, loop) == action_trace(h, ["x"])

    def test_radius_one_statistics_correspondence(self):
        rng = Random(63)
        for _ in range(40):
            n = rng.randint(1, 20)
            h = PermHomomorphism(
                FpGroup(("x", "y")),
                n,
                (random_permutation(n, rng), random_permutation(n, rng)),
            )
            g = action_graph(h)
            fixed_loop = RootedPattern(1, 1, ("x", "y"), frozenset({(1, 1, 0)}))
            assert pattern_frequency(g, fixed_loop) == bs_statistic(h, ["x"], [])
            moved_edge = RootedPattern(2, 1, ("x", "y"), frozenset({(1, 2, 0)}))
            assert pattern_frequency(g, moved_edge) == bs_statistic(h, [], ["x"])
            mixed = RootedPattern(
                2, 1, ("x", "y"), frozenset({(1, 1, 0), (1, 2, 1)})
            )
            assert pattern_frequency(g, mixed) == bs_statistic(h, ["x"], ["y"])

    def test_two_moved_letters_partition_identity(self):
        # S({}, {x,y}) splits over whether the two images coincide
        rng = Random(64)
        alphabet = ("x", "y")
        separate = RootedPattern(
            3, 1, alphabet, frozenset({(1, 2, 0), (1, 3, 1)})
        )
        shared = RootedPattern(
            2, 1, alphabet, frozenset({(1, 2, 0), (1, 2, 1)})
        )
        for _ in range(40):
            n = rng.randint(1, 15)
            h = PermHomomorphism(
                FpGroup(alphabet),
                n,
                (random_permutation(n, rng), random_permutation(n, rng)),
            )
            g = action_graph(h)
            assert bs_statistic(h, [], ["x", "y"]) == pattern_frequency(
                g, separate
            ) + pattern_frequency(g, shared)


class TestPatternBasics:
    def test_connectivity_required(self):
        with pytest.raises(MalformedInputError):
            RootedPattern(2, 1, ("x",), frozenset())

    def test_degree_constraint(self):
        with pytest.raises(MalformedInputError):
            RootedPattern(
                3, 1, ("x",), frozenset({(1, 2, 0), (1, 3, 0)})
            )

    def test_vertex_bound(self):
        with pytest.raises(BoundExceededError):
            RootedPattern(
                7,
                1,
                ("x",),
                frozenset((i, i + 1, 0) for i in range(1, 7)),
            )

    def test_certificate_invariance(self):
        # same pattern under a non-root relabeling
        p1 = RootedPattern(3, 1, ("x",), frozenset({(1, 2, 0), (2, 3, 0)}))
        p2 = RootedPattern(3, 1, ("x",), frozenset({(1, 3, 0), (3, 2, 0)}))
        assert p1.certificate() == p2.certificate()
        p3 = RootedPattern(3, 1, ("x",), frozenset({(2, 1, 0), (3, 2, 0)}))
        assert p1.certificate() != p3.certificate()


class TestEnumeration:
    def test_single_letter_bound_two(self):
        pats = enumerate_patterns(("x",), 2)
        shapes = [(p.n, tuple(sorted(p.edges))) for p, _ in pats]
        assert shapes == [
            (1, ()),
            (1, ((1, 1, 0),)),
            (2, ((1, 2, 0),)),
            (2, ((1, 2, 0), (2, 1, 0))),
            (2, ((2, 1, 0),)),
        ]
        weights = [w for _, w in pats]
        assert weights == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
            Fraction(1, 32),
        ]

    def test_orbit_weights_shared_across_relabelings(self):
        pats = dict()
        for p, w in enumerate_patterns(("x", "y"), 2):
            pats[p.certificate()] = (p, w)
        x_loop = RootedPattern(1, 1, ("x", "y"), frozenset({(1, 1, 0)}))
        y_loop = RootedPattern(1, 1, ("x", "y"), frozenset({(1, 1, 1)}))
        assert pats[x_loop.certificate()][1] == pats[y_loop.certificate()][1]

    def test_catalogue_retains_little_memory(self):
        # flat arrays: about 0.2 MB; a pattern and a weight object per
        # class held 3.7 MB (4.4 MB before the collection)
        gc.collect()
        tracemalloc.start()
        try:
            listed = enumerate_patterns.__wrapped__(("x", "y"), 4)
            gc.collect()  # the freed successors' tuples kept on free lists
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(listed) == 4694
        assert retained < 1_500_000

    @pytest.mark.parametrize("alphabet,bound", [(("x", "y"), 4), (("x", "y", "z"), 2)])
    def test_patterns_of_one_orbit_share_a_weight(self, alphabet, bound):
        m = len(alphabet)
        weight_of = {}
        for p, w in enumerate_patterns(alphabet, bound):
            weight_of[_traversal_key(_slot_rows(p.n, p.edges, m), p.root)] = (p, w)
        orbits = set()
        for p, w in weight_of.values():
            orbit = set()
            for perm in iperms(range(m)):
                rows = _slot_rows(p.n, [(u, v, perm[lab]) for u, v, lab in p.edges], m)
                orbit.add(key := _traversal_key(rows, p.root))
                assert weight_of[key][1] == w
            orbits.add(frozenset(orbit))
        assert len({w for _, w in weight_of.values()}) == len(orbits) < len(weight_of)

    @pytest.mark.parametrize("alphabet,bound", [(("x",), 4), (("x", "y"), 3), (("y", "x"), 2)])
    def test_catalogue_is_a_sequence_of_pairs(self, alphabet, bound):
        listed = enumerate_patterns(alphabet, bound)
        pairs = tuple(map(tuple, oracles.pattern_catalogue(alphabet, bound)))
        assert len(listed) == len(pairs)
        assert listed[-1] == pairs[-1] and listed[-len(pairs)] == pairs[0]
        assert listed[::25] == pairs[::25] and listed[3:-2:4] == pairs[3:-2:4]
        assert list(listed) == list(pairs) and list(reversed(listed)) == list(reversed(pairs))
        assert listed == pairs and pairs == listed and listed != pairs[:-1]
        assert listed == enumerate_patterns.__wrapped__(alphabet, bound) != ()
        for j in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                listed[j]

    def test_sizes_monotone(self):
        pats = enumerate_patterns(("x",), 3)
        sizes = [p.n for p, _ in pats]
        assert sizes == sorted(sizes)

    def test_counts_are_stable(self):
        assert len(enumerate_patterns(("x",), 3)) == 9
        assert len(enumerate_patterns(("x", "y"), 2)) == 37

    @pytest.mark.parametrize(
        "alphabet,bound,digest",
        [
            (("x",), 4, "675d76bcde21d5acb3f19f27852c97a3"
                        "94d0973e3576df55e85ff87aa8e8369b"),
            (("x", "y"), 4, "c6a234f179ec368d668589e0cda13a05"
                            "2452035d3a60095e42cf8e2c900a7a70"),
            (("x", "y", "z"), 3, "7fc6695396a3066b507c7a4562d3339c"
                                 "703f4faa2d25d1f239f5877075f9e869"),
        ],
        ids=["x-4", "xy-4", "xyz-3"],
    )
    def test_order_and_weights_pinned(self, alphabet, bound, digest):
        # digests of the order, the kept patterns and the weights listed
        # when every successor was identified by its certificate
        listed = [
            [p.n, p.root, sorted(p.edges), str(w)]
            for p, w in enumerate_patterns(alphabet, bound)
        ]
        assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() == digest

    @pytest.mark.parametrize("alphabet,bound", [(("x", "y"), 4), (("x", "y", "z"), 3)])
    def test_traversal_key_is_a_complete_invariant(self, alphabet, bound):
        rng = Random(73 + bound)
        m = len(alphabet)
        keys = set()
        for pat in all_rooted_patterns(alphabet, bound):
            key = _traversal_key(_slot_rows(pat.n, pat.edges, m), pat.root)
            for _ in range(3):
                images = list(range(1, pat.n + 1))
                rng.shuffle(images)
                s = dict(zip(range(1, pat.n + 1), images))
                edges = [(s[u], s[v], lab) for u, v, lab in pat.edges]
                rows = _slot_rows(pat.n, edges, m)
                assert _traversal_key(rows, s[pat.root]) == key
            keys.add(key)
        assert len(keys) == len(all_rooted_patterns(alphabet, bound))

    def test_permuted_slots_key_the_relabeling(self):
        for pat, _ in enumerate_patterns(("x", "y", "z"), 2):
            rows = _slot_rows(pat.n, pat.edges, 3)
            for perm in iperms(range(3)):
                order = [k for lab in perm for k in (2 * lab, 2 * lab + 1)]
                new_label = {old: new for new, old in enumerate(perm)}
                relabeled = [(u, v, new_label[lab]) for u, v, lab in pat.edges]
                assert _traversal_key([[row[k] for k in order] for row in rows], 1) == (
                    _traversal_key(_slot_rows(pat.n, relabeled, 3), 1)
                )

    @pytest.mark.parametrize(
        "alphabet,bound", [(("x", "y"), 3), (("x", "y", "z"), 2), (("x", "y"), 4)]
    )
    def test_one_trusted_build_and_refinement_per_class(
        self, alphabet, bound, monkeypatch
    ):
        # while enumerating, round one numbers every class it separates, and
        # only a class whose round one leaves a tie by the oracle's ranks
        # (none in the two smaller catalogues, 48 of xy at bound 4) takes
        # _certificate and one refinement; no pattern is built.  Each access
        # of a class builds its pattern once, unchecked
        calls = {"certificate": 0, "refine": 0, "init": 0, "trusted": 0}
        certificate, refine = graphs._certificate, graphs._refine_ranks
        init, trusted = RootedPattern.__init__, RootedPattern._trusted.__func__

        def count_certificate(*args):
            calls["certificate"] += 1
            return certificate(*args)

        def count_refine(*args):
            calls["refine"] += 1
            return refine(*args)

        def count_init(self, *args):
            calls["init"] += 1
            init(self, *args)

        def count_trusted(cls, *args):
            calls["trusted"] += 1
            return trusted(cls, *args)

        expected = oracles.pattern_catalogue(alphabet, bound)
        ties = sum(
            len(set(oracles.refine_colors(p.n, p.root, p.edges, rounds=1).values())) < p.n
            for p, _ in expected
        )
        assert ties == (48 if bound == 4 else 0)
        monkeypatch.setattr(graphs, "_certificate", count_certificate)
        monkeypatch.setattr(graphs, "_refine_ranks", count_refine)
        monkeypatch.setattr(RootedPattern, "__init__", count_init)
        monkeypatch.setattr(RootedPattern, "_trusted", classmethod(count_trusted))
        listed = enumerate_patterns.__wrapped__(alphabet, bound)
        n = len(listed)
        assert n == len(expected)
        assert calls == {"certificate": ties, "refine": ties, "init": 0, "trusted": 0}
        for j in (0, n - 1, -1, 5):
            listed[j]
        assert calls == {"certificate": ties, "refine": ties, "init": 0, "trusted": 4}
        assert sum(1 for _ in listed) == n and calls["trusted"] == n + 4

    @pytest.mark.parametrize(
        "alphabet,bound,keys", [(("x",), 4, 23), (("x", "y"), 3, 1439), (("x", "y", "z"), 2, 1265)]
    )
    def test_key_budget_counts_candidates_and_relabelings(
        self, monkeypatch, alphabet, bound, keys
    ):
        # a budget of exactly the traversal keys an enumeration computes
        # admits it unchanged; one key less refuses it
        listed = enumerate_patterns(alphabet, bound)
        monkeypatch.setattr(graphs, "DEFAULT_PATTERN_KEY_BUDGET", keys)
        again = enumerate_patterns.__wrapped__(alphabet, bound)
        assert again == listed
        monkeypatch.setattr(graphs, "DEFAULT_PATTERN_KEY_BUDGET", keys - 1)
        with pytest.raises(BoundExceededError):
            enumerate_patterns.__wrapped__(alphabet, bound)

    @pytest.mark.parametrize("letters,bound", [(10, 1), (8, 1), (2, 5)])
    def test_oversized_catalogue_refused(self, monkeypatch, letters, bound):
        # refused before the budget is passed: an orbit's relabelings are
        # counted before they are keyed, so ten letters key only the seed
        keys = []

        def count_key(rows, root):
            keys.append(root)
            return _traversal_key(rows, root)

        monkeypatch.setattr(graphs, "_traversal_key", count_key)
        with pytest.raises(BoundExceededError, match="traversal keys"):
            enumerate_patterns.__wrapped__(tuple(f"a{i}" for i in range(letters)), bound)
        assert len(keys) <= graphs.DEFAULT_PATTERN_KEY_BUDGET
        assert letters != 10 or len(keys) == 1

    def test_largest_admitted_catalogue_key_count(self, monkeypatch):
        # xyz at bound 3, the largest catalogue the budget admits, counts
        # 100,025 traversal keys, the margin the budget's comment names, and
        # computes 36,476 of them: a candidate its class's last edge proves
        # a duplicate is counted but not keyed
        keys = []

        def count_key(rows, root):
            keys.append(root)
            return _traversal_key(rows, root)

        monkeypatch.setattr(graphs, "_traversal_key", count_key)
        listed = enumerate_patterns.__wrapped__(("x", "y", "z"), 3)
        assert len(keys) == 36_476
        monkeypatch.setattr(graphs, "_traversal_key", _traversal_key)
        monkeypatch.setattr(graphs, "DEFAULT_PATTERN_KEY_BUDGET", 100_025)
        assert enumerate_patterns.__wrapped__(("x", "y", "z"), 3) == listed
        monkeypatch.setattr(graphs, "DEFAULT_PATTERN_KEY_BUDGET", 100_024)
        with pytest.raises(BoundExceededError, match="traversal keys"):
            enumerate_patterns.__wrapped__(("x", "y", "z"), 3)

    @pytest.mark.parametrize("letters,bound", [(8, 1), (10, 1), (2, 5)])
    def test_refusal_messages(self, letters, bound):
        with pytest.raises(BoundExceededError) as refused:
            enumerate_patterns.__wrapped__(tuple(f"a{i}" for i in range(letters)), bound)
        assert str(refused.value) == (
            f"patterns of {letters} letters at size bound {bound} need more"
            " than 120000 traversal keys to enumerate"
        )

    @pytest.mark.parametrize("alphabet,bound", [(("x",), 5), (("x", "y"), 4)])
    def test_catalogue_patterns_pass_the_public_checks(self, alphabet, bound):
        for p, _ in enumerate_patterns(alphabet, bound):
            assert RootedPattern(p.n, p.root, p.alphabet, p.edges) == p

    @pytest.mark.parametrize(
        "alphabet,bound",
        [
            (("x",), 5), (("x", "y"), 3), (("x", "y", "z"), 2), (("x",), 6), (("x", "y"), 4),
            (("w", "x", "y", "z"), 2), *[(tuple("abcdefg"[:k]), 1) for k in (5, 6, 7)],
        ],
    )
    def test_catalogue_matches_edge_set_oracle(self, alphabet, bound):
        listed = enumerate_patterns(alphabet, bound)
        expected = oracles.pattern_catalogue(alphabet, bound)
        assert [(p.n, p.root, p.edges, w) for p, w in listed] == [
            (p.n, p.root, p.edges, w) for p, w in expected
        ]
        # the generation tree in the edge bytes: every class but the first
        # has exactly one class whose bytes are its own but the last triple,
        # its parent's edges plus one edge, in the parent's vertex numbering
        edges, offsets = listed.edges, listed.offsets
        spans = [edges[offsets[j] : offsets[j + 1]] for j in range(len(listed))]
        index_of = {span: j for j, span in enumerate(spans)}
        assert spans[0] == b"" and len(index_of) == len(spans)
        for index in range(1, len(listed)):
            parent = index_of[spans[index][:-3]]
            u, v, lab = spans[index][-3:]
            pat, base = expected[index][0], expected[parent][0]
            assert (u, v, lab) not in base.edges
            assert pat.edges == base.edges | {(u, v, lab)}
            assert pat.n == max(base.n, u, v) <= base.n + 1

    @pytest.mark.parametrize("alphabet,bound", [(("x", "y"), 4), (("x", "y", "z"), 3)])
    def test_certificates_are_triples_in_catalogue_order(self, alphabet, bound):
        # the packed edge codes are the enumerator's sort key only: a
        # pattern's certificate is (n, 1, sorted edge triples), and the
        # catalogue lists its classes in the order of those certificates
        listed = [p for p, _ in enumerate_patterns(alphabet, bound)]
        certificates = [p.certificate() for p in listed]
        for p, (n, root, triples) in zip(listed, certificates):
            assert (n, root, len(triples)) == (p.n, 1, len(p.edges))
            assert type(triples) is tuple and list(triples) == sorted(triples)
            assert all(type(t) is tuple and len(t) == 3 for t in triples)
        assert certificates == sorted(certificates)

    @pytest.mark.parametrize("alphabet,bound", [(("x", "y"), 4), (("x", "y", "z"), 3)])
    def test_ranks_match_repr_refinement(self, alphabet, bound):
        m = len(alphabet)
        for pat, _ in enumerate_patterns(alphabet, bound):
            ranks = graphs._refine_ranks(_slot_rows(pat.n, pat.edges, m), pat.root, m)
            legacy = oracles.refine_colors(pat.n, pat.root, pat.edges)
            assert ranks[1:] == [legacy[v][0] for v in range(1, pat.n + 1)]


class TestRefinementRanks:
    """Hand-made patterns for each rule of the ``repr`` order that the
    ranks follow; three of them rank differently by value."""

    @staticmethod
    def ranks(pattern):
        m = len(pattern.alphabet)
        rows = _slot_rows(pattern.n, pattern.edges, m)
        return graphs._refine_ranks(rows, pattern.root, m)[1:]

    @staticmethod
    def legacy(pattern):
        colors = oracles.refine_colors(pattern.n, pattern.root, pattern.edges)
        return [colors[v][0] for v in range(1, pattern.n + 1)]

    def test_one_element_list_after_its_extensions(self):
        # in round one vertex 2 has outs ((0, (1,)),) and vertex 3 has
        # ((0, (1,)), (1, (1,))): by value 2 ranks first, by repr 3 does
        p = RootedPattern(
            3, 1, ("x", "y"), frozenset({(2, 3, 0), (3, 2, 0), (3, 2, 1), (1, 3, 1)})
        )
        assert self.ranks(p) == self.legacy(p) == [0, 2, 1]

    def test_empty_list_after_every_list(self):
        # vertex 3 has no out-edge, so its signature sorts after vertex 2's
        p = RootedPattern(3, 1, ("x",), frozenset({(1, 2, 0), (2, 3, 0)}))
        assert self.ranks(p) == self.legacy(p) == [0, 1, 2]

    def test_longer_list_after_its_prefix(self):
        # outs of two pairs at vertex 2 sort before their three-pair
        # extension at vertex 3, as by value
        p = RootedPattern(
            3, 1, ("x", "y", "z"),
            frozenset({(1, 1, 0), (1, 1, 1), (1, 2, 2), (2, 2, 0), (2, 2, 1),
                       (3, 1, 2), (3, 3, 0), (3, 3, 1)}),
        )
        assert self.ranks(p) == self.legacy(p) == [0, 1, 2]

    def test_labels_compare_as_strings(self):
        # with eleven letters, label 10 sorts before label 2
        alphabet = tuple(f"a{i}" for i in range(11))
        p = RootedPattern(3, 1, alphabet, frozenset({(1, 2, 2), (1, 3, 10)}))
        assert self.ranks(p) == self.legacy(p) == [0, 2, 1]


    def test_random_patterns_match_repr_refinement(self):
        # any root, disconnected patterns, ranks that stay shared, and
        # alphabets past ten letters
        rng = Random(29)
        for _ in range(3000):
            m, n = rng.choice([1, 2, 3, 4, 11]), rng.randint(1, 6)
            edges = set()
            for lab in range(m):
                heads = list(range(1, n + 1))
                rng.shuffle(heads)
                tails = [u for u in range(1, n + 1) if rng.random() < 0.5]
                edges.update((u, v, lab) for u, v in zip(tails, heads))
            root = rng.randint(1, n)
            ranks = graphs._refine_ranks(_slot_rows(n, edges, m), root, m)
            legacy = oracles.refine_colors(n, root, edges)
            assert ranks[1:] == [legacy[v][0] for v in range(1, n + 1)]

    def test_round_two_after_a_shared_first_signature(self):
        # an x-edge from the root into a y-triangle: round one reads the
        # rows of vertices 3 and 4 as equal, and round two splits them
        p = RootedPattern(
            4, 1, ("x", "y"), frozenset({(1, 2, 0), (2, 3, 1), (3, 4, 1), (4, 2, 1)})
        )
        rows = _slot_rows(p.n, p.edges, 2)
        first = [graphs._first_signature(2, p.n, p.root, tuple(rows[v])) for v in (2, 3, 4)]
        assert first[0] != first[1] == first[2]
        assert self.ranks(p) == self.legacy(p) == [0, 1, 3, 2]

    def test_first_signature_is_the_general_round_one(self):
        # on random rows, any root: the cached value is the signature of
        # the codes with the root at rank 0 and every other vertex at 1
        rng = Random(31)
        for _ in range(3000):
            m, n = rng.choice([1, 2, 3, 4, 11]), rng.randint(3, 6)
            root = rng.randint(1, n)
            row = tuple(rng.choice([0, 0, *range(1, n + 1)]) for _ in range(2 * m))
            fixed, weights, own = graphs._signature_code(m, n, tuple(map(bool, row)))
            rank = [0] + [int(v != root) for v in range(1, n + 1)]
            expected = fixed + own + sum(w * rank[v] for w, v in zip(weights, row))
            assert graphs._first_signature(m, n, root, row) == expected
            assert graphs._first_signature.__wrapped__(m, n, root, row) == expected

    def test_round_one_memo_is_a_bounded_cache(self):
        # the memo is a bounded lru_cache at module level, which the
        # benchmark empties before each set-up and finds before each fork;
        # it holds the 1,427 distinct rows of xyz at bound 3, the largest
        # catalogue, and no other module-level container grows
        memo = graphs._first_signature
        assert isinstance(memo, _lru_cache_wrapper)
        maxsize = memo.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize >= 1427
        containers = {
            name: len(value)
            for name, value in vars(graphs).items()
            if isinstance(value, (dict, list, set, bytearray))
        }
        memo.cache_clear()
        enumerate_patterns.__wrapped__(("x", "y"), 4)
        assert memo.cache_info().currsize == 512
        memo.cache_clear()
        enumerate_patterns.__wrapped__(("x", "y", "z"), 3)
        assert memo.cache_info().currsize == 1427
        assert containers == {
            name: len(value)
            for name, value in vars(graphs).items()
            if isinstance(value, (dict, list, set, bytearray))
        }


class TestCertificate:
    """``RootedPattern.certificate`` against the refinement and the search
    over numberings it replaced (``oracles.certificate``)."""

    @staticmethod
    def renumbered(pattern, images):
        s = dict(zip(range(1, pattern.n + 1), images))
        edges = frozenset((s[u], s[v], lab) for u, v, lab in pattern.edges)
        return RootedPattern(pattern.n, s[pattern.root], pattern.alphabet, edges)

    def test_renumbered_classes_match_oracle(self):
        # every class, three times with its root moved off vertex 1
        rng = Random(97)
        for pat in all_rooted_patterns(("x", "y"), 4):
            for _ in range(3):
                images = list(range(1, pat.n + 1))
                while pat.n > 1 and images[pat.root - 1] == 1:
                    rng.shuffle(images)
                p = self.renumbered(pat, images)
                assert p.certificate() == oracles.certificate(p.n, p.root, p.edges)

    @pytest.mark.parametrize("alphabet,bound", [(("x",), 6), (("x", "y"), 4)])
    def test_catalogue_matches_oracle(self, alphabet, bound):
        for p, _ in enumerate_patterns(alphabet, bound):
            assert p.certificate() == oracles.certificate(p.n, p.root, p.edges)

    def test_shared_rank_takes_the_least_numbering(self, monkeypatch):
        # with the root alone in rank 0 and every other vertex in rank 1,
        # the numberings are searched: the least edge list over all that
        # number the root 1
        rng = Random(41)

        def coarse(rows, root, m):
            return [0] + [int(v != root) for v in range(1, len(rows))]

        monkeypatch.setattr(graphs, "_refine_ranks", coarse)
        for pat, _ in enumerate_patterns(("x", "y"), 4)[::25]:
            images = list(range(1, pat.n + 1))
            rng.shuffle(images)
            p = self.renumbered(pat, images)
            others = [v for v in range(1, p.n + 1) if v != p.root]
            least = min(
                tuple(sorted((s[u], s[v], lab) for u, v, lab in p.edges))
                for rest in iperms(range(2, p.n + 1))
                for s in [dict(zip([p.root, *others], [1, *rest]))]
            )
            m = len(p.alphabet)
            rows = _slot_rows(p.n, p.edges, m)
            assert graphs._certificate(rows, p.root, m, p.edges) == list(least)
            assert p.certificate() == (p.n, 1, least)


class TestStatDistance:
    def test_self_distance_zero(self):
        g = action_graph(free_hom(4, "(1 2 3 4)"))
        assert stat_distance_truncated(g, g, 3) == 0

    def test_frozen_value(self):
        # hand-derived: patterns of bound 2 over one letter weigh
        # 1/2, 1/4, 1/8, 1/16, 1/32 and the frequency deltas between the
        # 3-cycle graph and the identity graph are 0, 1, 1, 0, 1
        g1 = action_graph(free_hom(3, "(1 2 3)"))
        g2 = action_graph(free_hom(3, "()"))
        d = stat_distance_truncated(g1, g2, 2)
        assert d == Fraction(13, 32)
        assert d > 0

    def test_symmetry_random(self):
        rng = Random(65)
        for _ in range(20):
            n = rng.randint(1, 12)
            g1 = action_graph(
                PermHomomorphism(FpGroup(("x",)), n, (random_permutation(n, rng),))
            )
            g2 = action_graph(
                PermHomomorphism(FpGroup(("x",)), n, (random_permutation(n, rng),))
            )
            assert stat_distance_truncated(g1, g2, 3) == stat_distance_truncated(
                g2, g1, 3
            )

    def test_pseudometric_axioms(self):
        rng = Random(66)
        for _ in range(30):
            n = rng.randint(1, 10)
            gs = [
                action_graph(
                    PermHomomorphism(
                        FpGroup(("x", "y")),
                        n,
                        (random_permutation(n, rng), random_permutation(n, rng)),
                    )
                )
                for _ in range(3)
            ]
            d01 = stat_distance_truncated(gs[0], gs[1], 2)
            d12 = stat_distance_truncated(gs[1], gs[2], 2)
            d02 = stat_distance_truncated(gs[0], gs[2], 2)
            assert d01 >= 0
            assert d02 <= d01 + d12

    def test_monotone_in_bound(self):
        rng = Random(67)
        for _ in range(10):
            n = rng.randint(2, 8)
            g1 = action_graph(
                PermHomomorphism(FpGroup(("x",)), n, (random_permutation(n, rng),))
            )
            g2 = action_graph(
                PermHomomorphism(FpGroup(("x",)), n, (random_permutation(n, rng),))
            )
            d2 = stat_distance_truncated(g1, g2, 2)
            d3 = stat_distance_truncated(g1, g2, 3)
            d4 = stat_distance_truncated(g1, g2, 4)
            assert d2 <= d3 <= d4

    def test_label_permutation_equivariance(self):
        rng = Random(68)
        for _ in range(12):
            n = rng.randint(1, 10)
            p1, q1 = random_permutation(n, rng), random_permutation(n, rng)
            p2, q2 = random_permutation(n, rng), random_permutation(n, rng)
            g1 = LabeledDigraph(n, ("x", "y"), (p1, q1))
            g2 = LabeledDigraph(n, ("x", "y"), (p2, q2))
            swapped1 = LabeledDigraph(n, ("x", "y"), (q1, p1))
            swapped2 = LabeledDigraph(n, ("x", "y"), (q2, p2))
            assert stat_distance_truncated(g1, g2, 3) == stat_distance_truncated(
                swapped1, swapped2, 3
            )

    def test_alphabet_mismatch(self):
        g1 = action_graph(free_hom(2, "(1 2)"))
        g2 = LabeledDigraph(2, ("y",), (parse_permutation("(1 2)", 2),))
        with pytest.raises(AlphabetMismatchError):
            stat_distance_truncated(g1, g2, 2)

    # unequal degrees, empty graphs on one or both sides, degrees 1, 2 and up to 60
    DEGREE_PAIRS = ((0, 0), (0, 3), (1, 1), (1, 2), (2, 2), (2, 60), (17, 9), (60, 41))

    @pytest.mark.parametrize(
        "alphabet,bound,digest",
        [
            (("x",), 1, "13b6c038fb185d7bedbd6fe6de70fc2d8607b6b43f5ebdfa3baee4e96d6d2a39"),
            (("x",), 2, "2954b2df8815507aed629c7f331faaefd7bca00ae4f002dad6a35c62a8dac8d8"),
            (("x",), 3, "bbd5dc68f4a787992cc75a8ce8e2ac181c58f913fe02b150b306054ae8bb0d49"),
            (("x",), 4, "e2a84a1f7492253f54434c8376ddf875380703819b2d86b19728786fb7bb6a91"),
            (("x", "y"), 1, "92af13af43ed90b360bfef11e15d866f3383d5297d302e2427f64240def41d92"),
            (("x", "y"), 2, "07275c2cfaeb2e960326a211932b025a61011fe3bc68794a487d1d4b9df8d601"),
            (("x", "y"), 3, "677be3eace98e16b6bc2a62f476e9bd73f7d02da658af41eb194c1d2201c98e7"),
            (("x", "y"), 4, "93fea7e65bcfb17b16e6a00b26e17da26848f9c6191cd1f5472a4b070f61cc0b"),
            (("x", "y", "z"), 1, "509891dfb7fac8078d32040f9625a33aa59ce0af8e0e25b3d1b91458e0167388"),
            (("x", "y", "z"), 2, "5c2ab37494ac6d92821ec87ceebc173efe00fed184c1c70b32f25831f39f44ca"),
            (("x", "y", "z"), 3, "d1d2f52030947e65ba695903b5f71b8bc8fd8f9df103b98875e9b6e171c549f3"),
        ],
        ids=["x-1", "x-2", "x-3", "x-4", "xy-1", "xy-2", "xy-3", "xy-4",
             "xyz-1", "xyz-2", "xyz-3"],
    )
    def test_details_pinned(self, alphabet, bound, digest):
        # digests of the total and the rows as the one-pattern-at-a-time
        # loop (oracles.stat_distance_details) computed them
        rng = Random(1000 * len(alphabet) + bound)
        out = []
        for n1, n2 in self.DEGREE_PAIRS:
            g1 = random_graph(alphabet, n1, rng)
            g2 = random_graph(alphabet, n2, rng)
            total, rows = stat_distance_details(g1, g2, bound)
            out.append([str(total), rows])
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "alphabet,bound", [(("x",), 4), (("x", "y"), 3), (("x", "y", "z"), 2)]
    )
    def test_matches_per_pattern_loop(self, alphabet, bound):
        rng = Random(74 + 10 * len(alphabet) + bound)
        for n1, n2 in ((0, 0), (0, 5), (7, 0), (1, 2), (6, 6), (13, 30), (25, 8)):
            g1 = random_graph(alphabet, n1, rng)
            g2 = random_graph(alphabet, n2, rng)
            assert stat_distance_details(g1, g2, bound) == (
                oracles.stat_distance_details(g1, g2, bound)
            ), (n1, n2)

    @staticmethod
    def oracle_graphs(alphabet, rng, wide):
        """Every graph of degree 0, 1 and 2; identity graphs; graphs whose
        labels move at most 3 points; random graphs up to degree 60 and of
        the degrees ``wide``."""
        m = len(alphabet)
        for n in (0, 1, 2):
            for perms in product(list(map(Permutation, iperms(range(1, n + 1)))), repeat=m):
                yield LabeledDigraph(n, alphabet, perms)
        for n in (3, 7, 60):
            yield LabeledDigraph(n, alphabet, (Permutation.identity(n),) * m)
        for n in (3, 4, 9, 60):
            for _ in range(3):
                perms = []
                for _ in alphabet:
                    images = list(range(1, n + 1))
                    moved = rng.sample(range(n), rng.randint(0, 3))
                    for i, j in zip(moved, moved[1:] + moved[:1]):
                        images[i] = j + 1
                    perms.append(Permutation(images))
                yield LabeledDigraph(n, alphabet, tuple(perms))
        for n in (5, 12, 31, 60, *wide):
            yield random_graph(alphabet, n, rng)

    # on each side of the degrees where the plan widens its field per
    # point (128 and 32,768), the second one letter only, for time
    @pytest.mark.parametrize(
        "alphabet,bound,wide",
        [
            (("x",), 5, (128, 129, 200, 32768, 40000)),
            (("x", "y"), 4, (128, 129, 200)),
            (("x", "y", "z"), 3, (128, 129, 200)),
        ],
        ids=["x-5", "xy-4", "xyz-3"],
    )
    def test_counts_match_statistic_word_oracle(self, alphabet, bound, wide):
        plan = enumerate_patterns(alphabet, bound).plan
        for g in self.oracle_graphs(alphabet, Random(75 + bound), wide):
            assert plan.counts(g) == oracles.pattern_counts(g, bound), g

    def test_warm_distance_builds_the_plan_once(self, monkeypatch):
        calls = {"plan": 0, "words": 0}
        build, words = graphs._EmbeddingPlan, graphs._statistic_words

        def count_build(catalogue):
            calls["plan"] += 1
            return build(catalogue)

        def count_words(*args):
            calls["words"] += 1
            return words(*args)

        monkeypatch.setattr(graphs, "_EmbeddingPlan", count_build)
        monkeypatch.setattr(graphs, "_statistic_words", count_words)
        enumerate_patterns.cache_clear()
        rng = Random(76)
        for _ in range(3):
            for alphabet, bound in ((("x",), 4), (("x", "y"), 3), (("x", "y"), 2)):
                g1, g2 = (random_graph(alphabet, rng.randint(0, 20), rng) for _ in "12")
                stat_distance_details(g1, g2, bound)
        assert calls == {"plan": 3, "words": 0}

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_lists_no_pattern(self, bound):
        rng = Random(77)
        for n1, n2 in ((0, 0), (0, 5), (3, 7)):
            g1, g2 = random_graph(("x", "y"), n1, rng), random_graph(("x", "y"), n2, rng)
            assert stat_distance_details(g1, g2, bound) == (0, [])
            assert enumerate_patterns(("x", "y"), bound).plan.counts(g1) == []


class TestWordStatistics:
    def test_fixed_word(self):
        h = free_hom(3, "(1 2)")
        assert bs_statistic(h, ["x"], []) == Fraction(1, 3)

    def test_moved_word(self):
        h = free_hom(3, "(1 2)")
        assert bs_statistic(h, [], ["x"]) == Fraction(2, 3)

    def test_squared_word(self):
        h = free_hom(3, "(1 2)")
        assert bs_statistic(h, ["x"], ["x^2"]) == 0


class TestEncoding:
    def test_empty_graph(self):
        g = LabeledDigraph(3, (), ())
        enc = encode_to_simple(g)
        assert enc.n == 3 and not enc.edges

    def test_single_edge_gadget(self):
        g = LabeledDigraph.from_edges(2, ("x",), [(1, 2, "x"), (2, 1, "x")])
        enc = encode_to_simple(g)
        # per edge with label index 1: 2 subdivisions + 2 + 3 pendant = 7
        assert enc.n == 2 + 2 * 7
        assert len(enc.edges) == 2 * 8

    def test_count_closed_form(self):
        rng = Random(69)
        for _ in range(20):
            n, m = rng.randint(1, 8), rng.randint(1, 3)
            perms = tuple(random_permutation(n, rng) for _ in range(m))
            g = LabeledDigraph(n, tuple("xyz"[:m]), perms)
            enc = encode_to_simple(g)
            vertices = n + sum(6 + (lab + 1) for lab in range(m)) * n
            edges = sum(7 + (lab + 1) for lab in range(m)) * n
            assert enc.n == vertices
            assert len(enc.edges) == edges

    def test_max_degree_bound(self):
        rng = Random(70)
        for _ in range(20):
            n, m = rng.randint(1, 8), rng.randint(1, 3)
            perms = tuple(random_permutation(n, rng) for _ in range(m))
            g = LabeledDigraph(n, tuple("xyz"[:m]), perms)
            enc = encode_to_simple(g)
            assert enc.max_degree() <= g.max_total_degree() + 2

    def test_decode_roundtrip_random(self):
        rng = Random(71)
        for _ in range(25):
            n, m = rng.randint(1, 8), rng.randint(1, 3)
            alphabet = tuple("xyz"[:m])
            perms = tuple(random_permutation(n, rng) for _ in range(m))
            g = LabeledDigraph(n, alphabet, perms)
            assert decode_simple(encode_to_simple(g), alphabet) == g

    def test_nonisomorphic_pair_stays_nonisomorphic(self):
        g1 = LabeledDigraph(
            3,
            ("x", "y"),
            (parse_permutation("(1 2 3)", 3), Permutation.identity(3)),
        )
        g2 = LabeledDigraph(
            3,
            ("x", "y"),
            (Permutation.identity(3), parse_permutation("(1 2 3)", 3)),
        )
        assert not labeled_digraphs_isomorphic(g1, g2)
        assert not nx.is_isomorphic(
            to_networkx(encode_to_simple(g1)), to_networkx(encode_to_simple(g2))
        )

    def test_isomorphic_pair_stays_isomorphic(self):
        g1 = LabeledDigraph(3, ("x",), (parse_permutation("(1 2 3)", 3),))
        g2 = LabeledDigraph(3, ("x",), (parse_permutation("(1 3 2)", 3),))
        assert labeled_digraphs_isomorphic(g1, g2)
        assert nx.is_isomorphic(
            to_networkx(encode_to_simple(g1)), to_networkx(encode_to_simple(g2))
        )

    def test_alphabet_bound(self):
        alphabet = tuple(f"x{i}" for i in range(9))
        perms = tuple(Permutation.identity(1) for _ in alphabet)
        g = LabeledDigraph(1, alphabet, perms)
        with pytest.raises(BoundExceededError):
            encode_to_simple(g)
