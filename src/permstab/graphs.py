"""Action graphs, rooted-pattern frequencies, truncated statistical
distance, and the encoding of labeled digraphs into simple graphs.

An action graph of a homomorphism of a free group has one labeled edge
``v -> image(x)(v)`` per generator ``x`` and vertex ``v``, so each label
is the graph of a permutation.  The frequency of a rooted pattern is the
fraction of vertices admitting an injective, label- and orientation-
preserving embedding of the pattern that sends the root there
(non-induced).  The truncated statistical distance is a weighted l1
distance between the frequency vectors over a canonical enumeration of
small connected rooted patterns.

Every embedding is forced once the root is placed, so one root-first
traversal of a pattern's slot rows (per vertex and label, its out- and
in-neighbour) serves three ends: connectivity, the spanning-tree words
whose sets ``A_P``, ``B_P`` give the frequency ``S(A_P, B_P)`` on the
graph's free-group action (counted by ``trace_stats`` from fixed-point
masks), and a complete invariant, the out-neighbours renumbered in
discovery order, which deduplicates the enumeration and keys the orbits.

Distances are one batch of trace queries per graph.  The statistic words
of every enumerated pattern are indexed once per (alphabet, bound): one
tuple of the distinct words and, per pattern, the indices of its ``A_P``
and ``B_P`` in it.  Each distinct word is evaluated once per graph, by
one composition from its suffix, and a frequency is then the AND of the
masks at its indices and one bit count.

Pattern family.  Only patterns whose vertices have at most one outgoing
and one incoming edge per label are enumerated: any other pattern embeds
in no per-label-permutation graph (two same-label out-edges would force
two equal images), so it would contribute 0 to every distance.

Weights.  Patterns are ordered by their certificate: the vertex count,
then the edges renumbered by colour-refinement rank (not the least edge
list over all root-preserving renumberings); it only orders them.
Patterns equivalent under a relabeling of the alphabet form an orbit;
the j-th orbit in this order carries weight 2^-j and every pattern of
the orbit inherits it.  Sharing the weight across an orbit is what makes
the distance invariant under a consistent relabeling of both graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations as iperms, product
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    AlphabetMismatchError,
    BoundExceededError,
    MalformedInputError,
    RelatorsPresentError,
)
from .groups import FpGroup, PermHomomorphism, Word
from .perm import Permutation

DEFAULT_PATTERN_VERTEX_BOUND = 6
DEFAULT_ALPHABET_BOUND = 8


@dataclass(frozen=True)
class LabeledDigraph:
    """Oriented labeled graph where each label is a permutation graph."""

    n: int
    alphabet: tuple[str, ...]
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.alphabet) != len(self.perms):
            raise MalformedInputError("one permutation per label required")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise MalformedInputError("duplicate labels")
        for p in self.perms:
            if p.degree != self.n:
                raise MalformedInputError("label permutation degree mismatch")

    @classmethod
    def from_edges(
        cls,
        n: int,
        alphabet: Sequence[str],
        edges: Iterable[tuple[int, int, str]],
    ) -> "LabeledDigraph":
        by_label: dict[str, dict[int, int]] = {a: {} for a in alphabet}
        for u, v, lab in edges:
            if lab not in by_label:
                raise MalformedInputError(f"unknown label {lab!r}")
            if u in by_label[lab]:
                raise MalformedInputError(
                    f"two {lab!r}-edges leave vertex {u}"
                )
            by_label[lab][u] = v
        perms = []
        for a in alphabet:
            mapping = by_label[a]
            if sorted(mapping) != list(range(1, n + 1)):
                raise MalformedInputError(
                    f"label {a!r} is not the graph of a permutation"
                )
            perms.append(Permutation(mapping[i] for i in range(1, n + 1)))
        return cls(n, tuple(alphabet), tuple(perms))

    @cached_property
    def hom(self) -> PermHomomorphism:
        """The free-group homomorphism whose action graph this is."""
        return PermHomomorphism(FpGroup(self.alphabet), self.n, self.perms)

    def edges(self) -> list[tuple[int, int, str]]:
        out = []
        for lab, p in zip(self.alphabet, self.perms):
            out.extend((v, p(v), lab) for v in range(1, self.n + 1))
        return out

    def max_total_degree(self) -> int:
        if self.n == 0:
            return 0
        deg = [0] * self.n
        for u, v, _ in self.edges():
            if u == v:
                deg[u - 1] += 2
            else:
                deg[u - 1] += 1
                deg[v - 1] += 1
        return max(deg)


def action_graph(psi: PermHomomorphism) -> LabeledDigraph:
    """The labeled digraph of a homomorphism of a free group."""
    if not isinstance(psi.source, FpGroup):
        raise RelatorsPresentError("action graphs require an FpGroup source")
    if not psi.source.is_free:
        raise RelatorsPresentError(
            "action graphs are defined for free presentations only"
        )
    return LabeledDigraph(psi.degree, psi.source.generators, psi.images)


# ---------------------------------------------------------------------------
# rooted patterns


@dataclass(frozen=True)
class RootedPattern:
    """A small connected rooted labeled digraph (pattern to count).

    Vertices are ``1..n`` with root ``root``; edges are
    ``(u, v, label_index)`` triples with at most one outgoing and one
    incoming edge per label at each vertex.
    """

    n: int
    root: int
    alphabet: tuple[str, ...]
    edges: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if not 1 <= self.root <= self.n:
            raise MalformedInputError("root outside vertex range")
        if self.n > DEFAULT_PATTERN_VERTEX_BOUND:
            raise BoundExceededError(
                f"pattern has {self.n} vertices, "
                f"bound is {DEFAULT_PATTERN_VERTEX_BOUND}"
            )
        out_seen = set()
        in_seen = set()
        for u, v, lab in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise MalformedInputError("edge endpoint outside vertex range")
            if not 0 <= lab < len(self.alphabet):
                raise MalformedInputError("edge label index out of range")
            if (u, lab) in out_seen or (v, lab) in in_seen:
                raise MalformedInputError(
                    "more than one edge per label and direction at a vertex"
                )
            out_seen.add((u, lab))
            in_seen.add((v, lab))
        words, _ = _spanning_words(self.n, self.root, self.edges, len(self.alphabet))
        if len(words) != self.n:
            raise MalformedInputError("pattern must be connected")

    def certificate(self) -> tuple:
        """The enumeration's sort key (:func:`_certificate`)."""
        m = len(self.alphabet)
        return _certificate(_slot_rows(self.n, self.edges, m), self.root, m)


def _slot_rows(n: int, edges: Iterable[tuple[int, int, int]], m: int) -> list:
    """Row ``v`` (``1..n``; row 0 unused) holds ``2m`` slots, label-major,
    out before in: ``v``'s out- and in-neighbour per label, 0 for none."""
    rows = [[0] * (2 * m) for _ in range(n + 1)]
    for u, v, lab in edges:
        rows[u][2 * lab] = v
        rows[v][2 * lab + 1] = u
    return rows


def _spanning_words(
    n: int, root: int, edges: Iterable[tuple[int, int, int]], m: int
) -> tuple[dict[int, Word], list[tuple[int, int, int]]]:
    """``(words, tree)`` of a breadth-first search from the root that
    scans the slot rows in order (labels in index order, out-edge before
    in-edge).  An embedding rooted at ``x`` sends each reached ``v`` to
    ``w_v(x)``; ``words`` is in discovery order, which vertex ids cannot
    change, since a vertex has at most one edge per label and direction."""
    rows = _slot_rows(n, edges, m)
    words: dict[int, Word] = {root: ()}
    tree = []
    queue = [root]
    for u in queue:  # grows in breadth-first order while iterated
        for k, v in enumerate(rows[u]):
            if v and v not in words:
                lab, back = divmod(k, 2)
                words[v] = ((lab, -1 if back else 1),) + words[u]
                tree.append((v, u, lab) if back else (u, v, lab))
                queue.append(v)
    return words, tree


def _traversal_key(rows: list[list[int]], root: int) -> tuple:
    """Complete invariant of a connected pattern under root-preserving
    isomorphism: every out slot, vertices in the order a breadth-first
    search from the root scanning the slots reaches them, each neighbour
    renumbered in that order (0 for none).  On rows whose slots a label
    permutation reorders, it keys the relabeled pattern."""
    pos = [0] * len(rows)
    pos[0] = pos[root] = count = 1  # slot value 0 (no edge) counts as reached
    queue = [root]
    for u in queue:
        for w in rows[u]:
            if not pos[w]:
                count += 1
                pos[w] = count
                queue.append(w)
    pos[0] = 0
    return tuple([pos[w] for u in queue for w in rows[u][::2]])


def _refine_ranks(rows: list[list[int]], root: int, m: int) -> list[int]:
    """Rank of each vertex ``v`` at entry ``v`` (entry 0 is 0) by colour
    refinement: from root against the rest, each round ranks the vertices
    by rank, out-list and in-list of (label, neighbour rank) pairs, for
    three rounds or until a round (or every class) can split no further.

    The ranks are those of sorting the nested tuples ``((rank,), outs,
    ins)`` by ``repr``, which fixed the published order, computed on flat
    int tuples: a pair is coded by its label's rank as a string (``"10"``
    before ``"2"``) and the neighbour rank (one digit, as a pattern has at
    most 6 vertices), and a list ends in
    a terminator after every pair if it has at most one (``"(p,)" > "(p,
    q)"``), else before every pair (``"(p, q)" < "(p, q, r)"``)."""
    n = len(rows) - 1
    base = [0] * m
    for i, lab in enumerate(sorted(range(m), key=str)):
        base[lab] = 1 + i * n
    items = []  # per vertex, (code base, vertex whose rank is added) pairs
    for v in range(1, n + 1):
        outs = [(base[lab], w) for lab, w in enumerate(rows[v][::2]) if w]
        ins = [(base[lab], u) for lab, u in enumerate(rows[v][1::2]) if u]
        outs.append((m * n + 1 if len(outs) < 2 else 0, 0))
        ins.append((m * n + 1 if len(ins) < 2 else 0, 0))
        items.append([(0, v), *outs, *ins])
    ranks = [0] + [int(v != root) for v in range(1, n + 1)]
    classes = min(n, 2)
    for _ in range(3):
        if classes == n:
            break
        sigs = [tuple([b + ranks[w] for b, w in it]) for it in items]
        order = sorted(set(sigs))
        if len(order) == classes:
            break
        classes = len(order)
        rank_of = {s: i for i, s in enumerate(order)}
        ranks[1:] = [rank_of[s] for s in sigs]
    return ranks


def _certificate(rows: list[list[int]], root: int, m: int) -> tuple:
    """The enumeration's sort key, once per class: ``(n, root number,
    sorted edge triples)`` with the vertices numbered by refinement rank
    (:func:`_refine_ranks`), least over the numberings within a rank when
    a rank holds several vertices (at no bound tested).  It is not the
    least edge list over all root-preserving numberings."""
    ranks = _refine_ranks(rows, root, m)
    n = len(rows) - 1
    edges = [
        (u, w, lab) for u in range(1, n + 1) for lab, w in enumerate(rows[u][::2]) if w
    ]
    classes: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for v in range(1, n + 1):
        classes[ranks[v]].append(v)

    def numbered(combo) -> tuple:
        number = [0] * (n + 1)
        for i, v in enumerate(chain.from_iterable(combo), 1):
            number[v] = i
        triples = sorted((number[u], number[w], lab) for u, w, lab in edges)
        return n, number[root], tuple(triples)

    return min(map(numbered, product(*map(iperms, classes))))


def _statistic_words(pattern: RootedPattern) -> tuple[frozenset, frozenset]:
    """``(A_P, B_P)`` from the words ``w_v`` of :func:`_spanning_words`.
    An embedding rooted at ``x`` exists iff ``x`` is fixed by
    ``w_v^-1 s w_u`` for each non-tree edge ``(u, v, s)`` and moved by
    ``w_v^-1 w_u`` for each pair of distinct vertices."""
    words, tree = _spanning_words(
        pattern.n, pattern.root, pattern.edges, len(pattern.alphabet)
    )
    inv = {v: tuple((lab, -e) for lab, e in reversed(w)) for v, w in words.items()}
    fixed = frozenset(
        inv[v] + ((lab, 1),) + words[u]
        for u, v, lab in pattern.edges
        if (u, v, lab) not in tree
    )
    pairs = combinations(range(1, pattern.n + 1), 2)
    return fixed, frozenset(inv[v] + words[u] for u, v in pairs)


def pattern_frequency(graph: LabeledDigraph, pattern: RootedPattern) -> Fraction:
    """Fraction of vertices at which the pattern embeds rooted: injective,
    label- and orientation-preserving, not induced.  Each label of the
    graph is a permutation, so an embedding is forced once the root is
    placed, and the frequency is ``S(A_P, B_P)`` of :func:`_statistic_words`
    on the graph's free-group action."""
    if pattern.alphabet != graph.alphabet:
        raise AlphabetMismatchError(
            f"pattern alphabet {pattern.alphabet} differs from "
            f"graph alphabet {graph.alphabet}"
        )
    if graph.n == 0:
        return Fraction(0)
    fixed, moved = _statistic_words(pattern)
    return Fraction(graph.hom.trace.statistic_count(fixed, moved), graph.n)


# ---------------------------------------------------------------------------
# canonical pattern enumeration and the statistical distance


@lru_cache(maxsize=32)
def enumerate_patterns(
    alphabet: tuple[str, ...], size_bound: int
) -> tuple[tuple[RootedPattern, Fraction], ...]:
    """All connected rooted patterns with at most ``size_bound`` vertices,
    in canonical order, each paired with its weight.

    Generation adds one edge per layer and keeps the first pattern found
    per :func:`_traversal_key`.  Order: :func:`_certificate`, vertex
    count first.  The j-th
    label-relabeling orbit (1-based, ordered by first appearance) has
    weight ``2^-j``; an orbit keeps its edge count, so the first class of
    an orbit found in a layer keys its relabelings there.
    """
    if size_bound < 1:
        return ()
    if size_bound > DEFAULT_PATTERN_VERTEX_BOUND:
        raise BoundExceededError(
            f"size bound {size_bound} exceeds {DEFAULT_PATTERN_VERTEX_BOUND}"
        )
    m = len(alphabet)
    relabelings = [  # slot orders of the non-identity label permutations
        [k for lab in perm for k in (2 * lab, 2 * lab + 1)]
        for perm in iperms(range(m))
    ][1:]
    seed = _slot_rows(1, (), m)
    layer = [(RootedPattern(1, 1, alphabet, frozenset()), seed, _traversal_key(seed, 1))]
    classes = []  # (certificate, pattern, orbit id) per class
    while layer:
        orbit_of: dict[tuple, int] = {}  # keys of this layer
        seen: set[tuple] = set()  # keys of the next layer
        new = []
        for pat, rows, key in layer:
            if key not in orbit_of:
                orbit_of[key] = orbit = len(classes)  # the orbit's first class
                for order in relabelings:
                    relabeled = [[row[k] for k in order] for row in rows]
                    orbit_of.setdefault(_traversal_key(relabeled, 1), orbit)
            classes.append((_certificate(rows, 1, m), pat, orbit_of[key]))
            # successors: an edge on free slots of each label between two
            # vertices, then, below the bound, to and from a new vertex,
            # set in place in the parent's rows
            n = pat.n
            rows = [*rows, [0] * (2 * m)]
            ends = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
            if n < size_bound:
                ends += [e for u in range(1, n + 1) for e in ((u, n + 1), (n + 1, u))]
            for lab in range(m):
                o, i = 2 * lab, 2 * lab + 1
                for u, v in ends:
                    if rows[u][o] or rows[v][i]:
                        continue
                    rows[u][o], rows[v][i] = v, u
                    succ_key = _traversal_key(rows, 1)
                    if succ_key not in seen:
                        seen.add(succ_key)
                        k = max(n, u, v)
                        succ = RootedPattern(k, 1, alphabet, pat.edges | {(u, v, lab)})
                        new.append((succ, [row[:] for row in rows[: k + 1]], succ_key))
                    rows[u][o] = rows[v][i] = 0
        layer = new
    classes.sort(key=itemgetter(0))
    weight_of: dict[int, Fraction] = {}  # one shared weight per orbit
    for _, _, orbit in classes:
        if orbit not in weight_of:
            weight_of[orbit] = Fraction(1, 2 ** (len(weight_of) + 1))
    return tuple((pat, weight_of[orbit]) for _, pat, orbit in classes)


def stat_distance_truncated(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> Fraction:
    """Weighted l1 distance between pattern frequency vectors, truncated
    to patterns with at most ``size_bound`` vertices.  A pseudometric for
    any fixed bound."""
    total, _ = stat_distance_details(g1, g2, size_bound)
    return total


@lru_cache(maxsize=32)
def _pattern_queries(
    alphabet: tuple[str, ...], size_bound: int
) -> tuple[tuple[Word, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The distinct statistic words of every pattern of
    :func:`enumerate_patterns`, and per pattern the indices of its
    ``A_P`` and ``B_P`` (:func:`_statistic_words`) among them."""
    index: dict[Word, int] = {}
    queries = []
    for pat, _ in enumerate_patterns(alphabet, size_bound):
        fixed, moved = _statistic_words(pat)
        queries.append(
            (
                tuple(index.setdefault(w, len(index)) for w in fixed),
                tuple(index.setdefault(w, len(index)) for w in moved),
            )
        )
    return tuple(index), tuple(queries)


def stat_distance_details(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> tuple[Fraction, list[dict]]:
    """Distance plus one row per pattern with a nonzero contribution.

    Each graph answers every pattern's query in one batch; the frequency
    ``c / n`` of a pattern with ``c`` rooted embeddings is 0 on the empty
    graph, whose counts are all 0 (denominator 1 below).
    """
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {g1.alphabet} vs {g2.alphabet}"
        )
    patterns = enumerate_patterns(g1.alphabet, size_bound)
    words, queries = _pattern_queries(g1.alphabet, size_bound)
    c1 = g1.hom.trace.query_counts(words, queries)
    c2 = g2.hom.trace.query_counts(words, queries)
    d1, d2 = g1.n or 1, g2.n or 1
    terms = []  # (k of the weight 2^-k, |f1 - f2| * d1 * d2) per row
    rows = []
    for j, ((pat, weight), a, b) in enumerate(zip(patterns, c1, c2), 1):
        delta = abs(a * d2 - b * d1)
        if delta:
            terms.append((weight.denominator.bit_length() - 1, delta))
            rows.append(
                {
                    "index": j,
                    "vertices": pat.n,
                    "root": pat.root,
                    "edges": sorted(
                        [u, v, pat.alphabet[lab]] for u, v, lab in pat.edges
                    ),
                    "weight": str(weight),
                    "f1": str(Fraction(a, d1)),
                    "f2": str(Fraction(b, d2)),
                }
            )
    K = max((k for k, _ in terms), default=0)  # one sum over 2^K, by shifts
    num = sum(delta << (K - k) for k, delta in terms)
    return Fraction(num, (d1 * d2) << K), rows


# ---------------------------------------------------------------------------
# encoding labeled digraphs into simple graphs


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices ``1..n``."""

    n: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise MalformedInputError("edges must join two distinct vertices")
            if not all(1 <= v <= self.n for v in e):
                raise MalformedInputError("edge endpoint outside vertex range")

    def degree_map(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.n + 1)}
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degree_map().values(), default=0)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj


# Gadget layout, per labeled edge (u, v, label index i with i >= 1):
#
#   u -- a -- b -- v        two subdivision vertices
#        |    |
#        o1   t1
#        |    |
#        o2   ...            pendant paths: length 2 at a (marks the
#             t_{2+i}        source side), length 2+i at b (the label)
#
# Pendant lengths 2 and >= 3 never collide with original vertices, whose
# own pendant-free neighborhoods consist of subdivision vertices only, so
# the construction is decodable and injective up to isomorphism.
# Per edge: 2 + 2 + (2+i) new vertices and 7 + i new edges.


def encode_to_simple(graph: LabeledDigraph) -> SimpleGraph:
    """Encode orientation and labels into pendant-path gadgets.

    Output max degree is ``max(input total degree, 3)``, i.e. at most the
    input maximum degree plus 2.
    """
    if len(graph.alphabet) > DEFAULT_ALPHABET_BOUND:
        raise BoundExceededError(
            f"alphabet size {len(graph.alphabet)} exceeds {DEFAULT_ALPHABET_BOUND}"
        )
    next_vertex = graph.n + 1
    edges: set[frozenset[int]] = set()

    def fresh() -> int:
        nonlocal next_vertex
        v = next_vertex
        next_vertex += 1
        return v

    def path(start: int, length: int):
        cur = start
        for _ in range(length):
            nxt = fresh()
            edges.add(frozenset((cur, nxt)))
            cur = nxt

    for u, v, lab in sorted(
        (u, v, graph.alphabet.index(lab)) for u, v, lab in graph.edges()
    ):
        a = fresh()
        b = fresh()
        edges.add(frozenset((u, a)))
        edges.add(frozenset((a, b)))
        edges.add(frozenset((b, v)))
        path(a, 2)
        path(b, 2 + (lab + 1))
    return SimpleGraph(next_vertex - 1, frozenset(edges))


def decode_simple(encoded: SimpleGraph, alphabet: Sequence[str]) -> LabeledDigraph:
    """Invert :func:`encode_to_simple` (raises on non-encodings)."""
    adj = encoded.adjacency()
    deg = encoded.degree_map()
    pendant_at: dict[int, list[tuple[int, int]]] = {}
    kind: dict[int, str] = {}
    on_pendant: set[int] = set()
    for tip in range(1, encoded.n + 1):
        if deg[tip] != 1:
            continue
        prev, cur, length = None, tip, 0
        chain = []
        while deg[cur] in (1, 2) and not (deg[cur] == 1 and length > 0):
            chain.append(cur)
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                raise MalformedInputError("dangling path is not a gadget pendant")
            prev, cur = cur, nxts[0]
            length += 1
        if length == 1:
            kind[tip] = "original"
            continue
        on_pendant.update(chain)
        pendant_at.setdefault(cur, []).append((length, tip))
    label_of_b: dict[int, int] = {}
    for v in range(1, encoded.n + 1):
        if v in kind or v in on_pendant:
            continue
        pend = pendant_at.get(v, [])
        if not pend:
            kind[v] = "original"
        elif len(pend) == 1 and pend[0][0] == 2:
            kind[v] = "a"
        elif len(pend) == 1 and pend[0][0] >= 3:
            kind[v] = "b"
            label_of_b[v] = pend[0][0] - 3  # 0-based label index
        else:
            raise MalformedInputError(f"vertex {v} has an unexpected pendant profile")
    originals = sorted(v for v, k in kind.items() if k == "original")
    renum = {v: i + 1 for i, v in enumerate(originals)}
    out_edges = []
    for a, k in kind.items():
        if k != "a":
            continue
        bs = [w for w in adj[a] if kind.get(w) == "b"]
        us = [w for w in adj[a] if kind.get(w) == "original"]
        if len(bs) != 1 or len(us) != 1:
            raise MalformedInputError(f"subdivision vertex {a} is malformed")
        b = bs[0]
        vs = [w for w in adj[b] if kind.get(w) == "original"]
        if len(vs) != 1:
            raise MalformedInputError(f"subdivision vertex {b} is malformed")
        lab = label_of_b[b]
        if lab >= len(alphabet):
            raise MalformedInputError(f"label index {lab} outside alphabet")
        out_edges.append((renum[us[0]], renum[vs[0]], alphabet[lab]))
    return LabeledDigraph.from_edges(len(originals), tuple(alphabet), out_edges)
