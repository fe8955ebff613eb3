"""Acceptance criteria, one test per criterion, at their stated
tolerances (exact arithmetic throughout) and runtime budgets.

Every test prints one ``ACCEPTANCE`` line; run with ``pytest -v -s`` to
see them as they complete.  Criterion 2 is split: the Hamming-distance
clause passes, while the minimum-conjugator-distance clause asserts the
stated value 1 and fails honestly, because exhaustive search over all
degree-8 conjugators certifies the true minimum 3/4 (see
``min conjugator distance`` in the verify-paper report).
"""

import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

import networkx as nx
import pytest

from permstab.fixtures import (
    KLEIN_A,
    KLEIN_AB,
    KLEIN_B,
    SL2Z_RELATORS,
    block_cycle_a,
    block_cycle_b,
    klein_pair,
    modular_amalgam,
    swapped_block_homs,
)
from permstab.errors import AmalgamMismatchError
from permstab.graphs import (
    LabeledDigraph,
    RootedPattern,
    action_graph,
    decode_simple,
    encode_to_simple,
    pattern_frequency,
    stat_distance_truncated,
)
from permstab.groups import (
    FpGroup,
    PermHomomorphism,
    check_homomorphism,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from permstab.multiplicity import (
    hom_order_leq,
    is_conjugate,
    multiplicity_vector,
)
from permstab.perm import (
    Permutation,
    hamming_distance,
    parse_permutation,
)
from permstab.stability import (
    agreement_set,
    centralizer_correct,
    compose_lift,
    find_normal_complement,
    has_extension,
    max_image_distance,
    min_conjugator_distance,
    replicate_hom,
    replication_count,
    small_conjugator,
)
from permstab.trace_stats import action_trace, bs_statistic, get_trace, s_from_tr

from conftest import enumerate_homs, subgroup_from_cycles
from oracles import all_permutations, normalizer, subgroup_closure
from randgen import (
    perturbed_conjugate_pair,
    random_hom,
    random_permutation,
)


def report(number: int, name: str, started: float, limit_s: float | None):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number:02d} ({name}): PASS in {elapsed:.2f}s")
    if limit_s is not None:
        assert elapsed < limit_s, f"runtime budget {limit_s}s exceeded"


def test_criterion_01_worked_example_reproduction():
    t0 = time.monotonic()
    theta1, theta2 = klein_pair()
    for hom in (theta1, theta2):
        for g in (KLEIN_A, KLEIN_B, KLEIN_AB):
            assert action_trace(hom, [g]) == Fraction(1, 3)
    assert action_trace(theta1, [KLEIN_A, KLEIN_B]) == 0
    assert action_trace(theta2, [KLEIN_A, KLEIN_B]) == Fraction(1, 3)
    ok, _ = is_conjugate(theta1, theta2)
    assert ok is False
    report(1, "trace table and non-conjugacy of the worked pair", t0, 1.0)


def test_criterion_02_block_pair_hamming():
    t0 = time.monotonic()
    for k in range(2, 7):
        a, b = block_cycle_a(k), block_cycle_b(k)
        assert a.degree == b.degree == k * k
        assert hamming_distance(a, b) == Fraction(2, k)
    report(2, "block-pair Hamming distances 2/k, k=2..6", t0, 300.0)


def test_criterion_02_min_conjugator_distance_k2():
    """Stated value: exactly 1.  The exhaustive degree-8 certificate
    (independent full scan plus the nearest-conjugator solver) finds 3/4, so
    this criterion fails as specified; see the decisions ledger."""
    t0 = time.monotonic()
    h1, h2 = swapped_block_homs(2)
    dist, witness = min_conjugator_distance(h1, h2)
    # independent certificate over all 8! candidates
    x, y = h1.images[1], h2.images[1]
    ident = Permutation.identity(8)
    brute = min(
        hamming_distance(p, ident)
        for p in all_permutations(8)
        if p * x == y * p
    )
    assert dist == brute
    assert witness * x == y * witness
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 02 (min conjugator distance on the k=2 pair): "
        f"asserting stated value 1; exhaustive certificate gives {dist} "
        f"in {elapsed:.2f}s"
    )
    assert dist == 1, (
        f"stated acceptance value 1 is unattainable: the exhaustive "
        f"degree-8 certificate proves the minimum is {dist}"
    )


def test_criterion_03_inclusion_exclusion(zoo8, zoo24):
    t0 = time.monotonic()
    # exhaustive: every homomorphism of every group of order <= 8 into
    # the degree-4 symmetric group, every (A, B) with |A u B| <= 4
    checked = 0
    for G in zoo8.values():
        elements = list(G.elements())
        for h in enumerate_homs(G, 4):
            tr = get_trace(h)
            for usize in range(min(4, G.order) + 1):
                for U in combinations(elements, usize):
                    for flags in product((0, 1, 2), repeat=usize):
                        A = [u for u, f in zip(U, flags) if f != 1]
                        B = [u for u, f in zip(U, flags) if f != 0]
                        assert s_from_tr(tr, A, B) == bs_statistic(h, A, B)
                        checked += 1
    assert checked > 3_000_000
    # 10 000 random larger instances
    rng = Random(20240301)
    names = list(zoo24)
    instances = 0
    while instances < 10_000:
        G = zoo24[rng.choice(names)]
        h = random_hom(G, rng.randint(1, 20), rng)
        tr = get_trace(h)
        for _ in range(20):
            size = rng.randint(0, 4)
            U = rng.sample(range(G.order), min(size, G.order))
            A = [u for u in U if rng.random() < 0.6]
            B = [u for u in U if rng.random() < 0.6]
            assert s_from_tr(tr, A, B) == bs_statistic(h, A, B)
            instances += 1
    report(3, f"inclusion-exclusion on {checked} exhaustive + 10000 random", t0, 120.0)


@pytest.fixture(scope="module")
def census_suite(zoo24):
    """10 000 random homomorphisms with both census identities checked."""
    started = time.monotonic()
    rng = Random(20240415)
    names = list(zoo24)
    meta = {}
    for name, G in zoo24.items():
        classes = subgroup_conjugacy_classes(G)
        rows = []
        for cid in range(len(classes)):
            for members in classes.classes[cid]:
                sub = subgroup_closure(G, members)
                nz_index = normalizer(G, sub).order // sub.order
                rows.append((cid, tuple(sorted(members)), sub.index, nz_index))
        meta[name] = (classes, rows)
    bad_identity = []
    bad_statistic = []
    total = 0
    while total < 10_000:
        name = rng.choice(names)
        G = zoo24[name]
        classes, rows = meta[name]
        h = random_hom(G, rng.randint(1, 50), rng)
        mv = multiplicity_vector(h)
        lhs = sum(
            mv.r(cid) * classes.representative(cid).index
            for cid in range(len(classes))
        )
        if lhs != 1:
            bad_identity.append((name, h.degree))
        for cid, members, index, nz_index in rows:
            complement = [g for g in G.elements() if g not in members]
            got = bs_statistic(h, members, complement)
            if got != mv.r(cid) * nz_index:
                bad_statistic.append((name, h.degree, members))
        total += 1
    return {
        "total": total,
        "bad_i": bad_identity,
        "bad_ii": bad_statistic,
        "elapsed": time.monotonic() - started,
    }


def test_criterion_04_multiplicity_identity(census_suite):
    assert census_suite["total"] >= 10_000
    assert census_suite["bad_i"] == []
    assert census_suite["elapsed"] < 120.0
    print(
        f"\nACCEPTANCE 04 (class-representative census identity on "
        f"{census_suite['total']} instances): PASS in "
        f"{census_suite['elapsed']:.2f}s (shared suite)"
    )


def test_criterion_05_exact_stabilizer_statistic(census_suite):
    assert census_suite["bad_ii"] == []
    assert census_suite["elapsed"] < 120.0
    print(
        "\nACCEPTANCE 05 (stabilizer statistic = r * normalizer index, "
        f"same suite): PASS in {census_suite['elapsed']:.2f}s (shared suite)"
    )


def _conjugation_orbit_key(h):
    """Independent oracle: canonical form under every target conjugation."""
    best = None
    for p in all_permutations(h.degree):
        pinv = p.inverse()
        key = tuple((p * img * pinv).images for img in h.images)
        if best is None or key < best:
            best = key
    return best


def test_criterion_06_conjugacy_oracle(zoo8):
    t0 = time.monotonic()
    rng = Random(20240528)
    # exhaustive for degrees <= 4: the decision agrees with brute-force
    # S_n-orbit equality on every pair of homomorphisms
    spot_checks = 0
    for G in zoo8.values():
        for n in range(1, 5):
            homs = enumerate_homs(G, n)
            censuses = [multiplicity_vector(h).counts for h in homs]
            keys = [_conjugation_orbit_key(h) for h in homs]
            by_census = {}
            by_key = {}
            for idx, (c, k) in enumerate(zip(censuses, keys)):
                by_census.setdefault(c, set()).add(k)
                by_key.setdefault(k, set()).add(c)
            assert all(len(v) == 1 for v in by_census.values())
            assert all(len(v) == 1 for v in by_key.values())
            # bind the public function on sampled pairs of this cell
            for _ in range(min(30, len(homs))):
                i = rng.randrange(len(homs))
                j = rng.randrange(len(homs))
                ok, w = is_conjugate(homs[i], homs[j])
                assert ok == (keys[i] == keys[j])
                if ok:
                    winv = w.inverse()
                    assert all(
                        w * homs[i].images[g] * winv == homs[j].images[g]
                        for g in G.elements()
                    )
                spot_checks += 1
    assert spot_checks >= 300
    # sampled pairs at degrees 5..7 against a direct conjugator scan
    names = list(zoo8)
    sampled = 0
    while sampled < 1000:
        G = zoo8[rng.choice(names)]
        n = rng.randint(5, 7)
        h1 = random_hom(G, n, rng)
        if sampled % 2 == 0:
            p = random_permutation(n, rng)
            pinv = p.inverse()
            h2 = PermHomomorphism(
                G, n, tuple(p * img * pinv for img in h1.images)
            )
        else:
            h2 = random_hom(G, n, rng)
        ok, w = is_conjugate(h1, h2)
        brute = any(
            all(
                (q * h1.images[g]).images == (h2.images[g] * q).images
                for g in G.elements()
            )
            for q in all_permutations(n)
        )
        assert ok == brute
        if ok:
            winv = w.inverse()
            assert all(
                w * h1.images[g] * winv == h2.images[g] for g in G.elements()
            )
        sampled += 1
    report(6, "conjugacy decision vs brute-force search", t0, 600.0)


def test_criterion_07_small_conjugator(zoo8):
    t0 = time.monotonic()
    rng = Random(20240610)
    names = list(zoo8)
    done = 0
    while done < 1000:
        G = zoo8[rng.choice(names)]
        order = G.order
        n = rng.randint(8 * order, 14 * order)
        max_support = (n - 1) // (4 * order)
        h1, h2, _ = perturbed_conjugate_pair(
            G, n, rng.randint(0, max_support), rng
        )
        eps = max_image_distance(h1, h2)
        assert eps < Fraction(1, 2 * order)
        p = small_conjugator(h1, h2)
        pinv = p.inverse()
        for g in G.elements():
            assert p * h1.images[g] * pinv == h2.images[g]
        agreement = agreement_set(h1, h2)
        assert all(p(i) == i for i in agreement)
        assert hamming_distance(p, Permutation.identity(n)) <= order * eps
        done += 1
    report(7, "small conjugators on 1000 perturbed pairs", t0, 120.0)


def test_criterion_08_extension_instances():
    t0 = time.monotonic()
    S3, nat = symmetric_group(3)
    A3 = subgroup_from_cycles(S3, nat, "(1 2 3)")
    Habs, emb = A3.as_group()
    found = 0
    for n in range(1, 7):
        for phi in enumerate_homs(Habs, n):
            ext = has_extension(A3, phi)
            assert ext is not None
            assert check_homomorphism(ext).ok
            for i, g in enumerate(emb):
                assert ext.images[g] == phi.images[i]
            found += 1
    assert found > 100
    assert find_normal_complement(A3) is None
    T = subgroup_from_cycles(S3, nat, "(1 2)")
    K = find_normal_complement(T)
    assert K is not None
    assert set(K.members) == {
        nat.images.index(parse_permutation("()", 3)),
        nat.images.index(parse_permutation("(1 2 3)", 3)),
        nat.images.index(parse_permutation("(1 3 2)", 3)),
    }
    report(8, f"extension property instances ({found} extensions)", t0, 60.0)


def test_criterion_09_amalgam_assembly():
    t0 = time.monotonic()
    am = modular_amalgam()
    assert am.degree == 4
    for rel in SL2Z_RELATORS:
        assert am.check_relator(rel)
    with pytest.raises(AmalgamMismatchError) as err:
        modular_amalgam(valid=False)
    assert err.value.witness == ("s^2", "t^3")
    report(9, "amalgam assembly and rejection witness", t0, 1.0)


def test_criterion_10_lift_composition(zoo8):
    t0 = time.monotonic()
    rng = Random(20240718)
    names = list(zoo8)
    # replication counts on constructed instances
    for _ in range(300):
        G = zoo8[rng.choice(names)]
        psi = random_hom(G, rng.randint(1, 5), rng)
        s_true = rng.randint(1, 4)
        phi = replicate_hom(psi, s_true)
        m_psi = multiplicity_vector(psi)
        m_phi = multiplicity_vector(phi)
        expected = min(
            m_phi.counts[cid] // c
            for cid, c in enumerate(m_psi.counts)
            if c
        )
        got = replication_count(phi, psi)
        assert got == expected == s_true
        assert hom_order_leq(replicate_hom(psi, got), phi)
    # trace mixing on 1000 random instances
    for _ in range(1000):
        G = zoo8[rng.choice(names)]
        psi = random_hom(G, rng.randint(1, 6), rng)
        eta = random_hom(G, rng.randint(1, 6), rng)
        s = rng.randint(0, 3)
        out = compose_lift(psi, s, eta)
        A = rng.sample(range(G.order), rng.randint(0, min(3, G.order)))
        expected = (
            s * psi.degree * action_trace(psi, A)
            + eta.degree * action_trace(eta, A)
        ) / Fraction(out.degree)
        assert action_trace(out, A) == expected
    report(10, "replication counts and lift trace mixing", t0, 120.0)


def test_criterion_11_graph_layer():
    t0 = time.monotonic()
    rng = Random(20240820)
    # loop-pattern frequency equals the trace, 1000 instances
    for _ in range(1000):
        n = rng.randint(1, 30)
        m = rng.randint(1, 2)
        alphabet = tuple("xy"[:m])
        h = PermHomomorphism(
            FpGroup(alphabet),
            n,
            tuple(random_permutation(n, rng) for _ in range(m)),
        )
        g = action_graph(h)
        lab = rng.randrange(m)
        loop = RootedPattern(1, 1, alphabet, frozenset({(1, 1, lab)}))
        assert pattern_frequency(g, loop) == action_trace(h, [alphabet[lab]])
    # pseudometric axioms on 1000 random triples (size bound 2)
    for _ in range(1000):
        n = rng.randint(1, 12)
        graphs = [
            LabeledDigraph(
                n,
                ("x", "y"),
                (random_permutation(n, rng), random_permutation(n, rng)),
            )
            for _ in range(3)
        ]
        d01 = stat_distance_truncated(graphs[0], graphs[1], 2)
        d12 = stat_distance_truncated(graphs[1], graphs[2], 2)
        d02 = stat_distance_truncated(graphs[0], graphs[2], 2)
        assert d01 >= 0 and d12 >= 0 and d02 >= 0
        assert d01 == stat_distance_truncated(graphs[1], graphs[0], 2)
        assert d02 <= d01 + d12
    # encoding injectivity, exhaustive over 2-letter digraphs with <= 3
    # vertices: non-isomorphic inputs yield non-isomorphic encodings
    digraphs = []
    for n in range(1, 4):
        perms = list(all_permutations(n))
        for p in perms:
            for q in perms:
                digraphs.append(LabeledDigraph(n, ("x", "y"), (p, q)))
    assert len(digraphs) == 1 + 4 + 36

    def iso_labeled(g1, g2):
        if g1.n != g2.n:
            return False
        e2 = set(g2.edges())
        return any(
            all((f[u], f[v], lab) in e2 for u, v, lab in g1.edges())
            for f in (
                dict(zip(range(1, g1.n + 1), images))
                for images in __import__("itertools").permutations(
                    range(1, g1.n + 1)
                )
            )
        )

    def to_nx(s):
        out = nx.Graph()
        out.add_nodes_from(range(1, s.n + 1))
        out.add_edges_from(tuple(e) for e in s.edges)
        return out

    reps = []
    for g in digraphs:
        if not any(iso_labeled(g, r) for r in reps):
            reps.append(g)
    encoded = [to_nx(encode_to_simple(g)) for g in reps]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not nx.is_isomorphic(encoded[i], encoded[j])
    for g in reps:
        assert decode_simple(encode_to_simple(g), g.alphabet) == g
    report(
        11,
        f"graph layer (trace link, pseudometric, {len(reps)} encodings)",
        t0,
        300.0,
    )


def test_criterion_12_centralizer_correction():
    t0 = time.monotonic()
    rng = Random(20240901)
    for _ in range(500):
        n = rng.randint(1, 7)
        a = random_permutation(n, rng)
        q = random_permutation(n, rng)
        rep = centralizer_correct(a, q)
        assert rep.corrected * a == a * rep.corrected
        brute = min(
            hamming_distance(q, c)
            for c in all_permutations(n)
            if c * a == a * c
        )
        assert rep.distance == brute
    for _ in range(200):
        n = rng.randint(1, 40)
        a = random_permutation(n, rng)
        q = random_permutation(n, rng)
        rep = centralizer_correct(a, q)
        assert rep.corrected * a == a * rep.corrected
    report(12, "centralizer correction exact vs brute force", t0, 300.0)
