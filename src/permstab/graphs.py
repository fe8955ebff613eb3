"""Action graphs, rooted-pattern frequencies, truncated statistical
distance, and the encoding of labeled digraphs into simple graphs.

The action graph (Schreier graph) of a homomorphism of a finitely
presented group has one labeled edge ``v -> image(x)(v)`` per generator
``x`` and vertex ``v``, so each label is the graph of a permutation.  It
does not see the relators: a graph and its statistics are those of the
free group on the same generators acting through the same images.  The
frequency of a rooted pattern is the fraction of vertices admitting an
injective, label- and orientation-preserving embedding of the pattern
that sends the root there (non-induced).  The truncated statistical
distance is a weighted l1 distance between the frequency vectors over a
canonical enumeration of small connected rooted patterns.

Every embedding is forced once the root is placed, so one root-first
traversal of a pattern's slot rows (per vertex and label, its out- and
in-neighbour) gives its connectivity and the spanning-tree words whose
sets ``A_P``, ``B_P`` give the frequency ``S(A_P, B_P)`` on the graph's
free-group action (counted by ``trace_stats`` from fixed-point masks).

The catalogue of a letter count and size bound depends on nothing else,
so it is not enumerated here: the package's ``catalogues.bin`` holds
every catalogue the work budget admits, written by the enumerator in
``tests/enumerator.py``, and :func:`enumerate_patterns` reads one the
first time it is asked for.  The enumerator keys each class by its
out-neighbours renumbered in root-first discovery order, a complete
invariant, and builds every class as the class it was found from plus
one edge, in that parent's vertex numbering, so a class's edge triples
are its parent's followed by the added edge.

Distances count embeddings along that generation tree
(:meth:`Catalogue.counts`): a class's rooted embeddings are its parent's
that meet one more condition on the words of their images.  The
enumerator derives these conditions once and writes them into the
catalogue file, which ``Catalogue._tables`` decompresses.  Per
graph, each vertex word is one composition from its suffix, each
condition a few equality masks, and each class one AND with its parent's
mask, skipped below a parent whose mask is empty.
:func:`_statistic_words` stays the per-pattern definition that
:func:`pattern_frequency` counts.

Pattern family.  Only patterns whose vertices have at most one outgoing
and one incoming edge per label are enumerated: any other pattern embeds
in no per-label-permutation graph (two same-label out-edges would force
two equal images), so it would contribute 0 to every distance.

Weights.  Patterns are ordered by their certificate: the vertex count,
then the edges renumbered by colour-refinement rank, each round sorting
the ``repr`` of the vertices' nested rank tuples (not the least edge list
over all root-preserving renumberings); it only orders them.
Patterns equivalent under a relabeling of the alphabet form an orbit;
the j-th orbit in this order carries weight 2^-j and every pattern of
the orbit inherits it.  Sharing the weight across an orbit is what makes
the distance invariant under a consistent relabeling of both graphs.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress, count, islice, pairwise
from operator import sub
from os import path
from struct import iter_unpack, unpack, unpack_from
from sys import byteorder
from zlib import decompress

from .errors import (
    AlphabetMismatchError,
    BoundExceededError,
    MalformedInputError,
    SourceMismatchError,
    all_ints,
    echo,
)
from .groups import FpGroup, PermHomomorphism, Word
from .perm import Permutation
from .record import Record
from .trace_stats import bs_statistic

DEFAULT_PATTERN_VERTEX_BOUND = 6
# traversal keys one enumeration may count, its successor candidates (keyed
# or not) and its orbits' relabelings: xyz at bound 3 counts 100,025.  It
# chose the catalogues in _CATALOGUES, and every other pair's refusal names it
DEFAULT_PATTERN_KEY_BUDGET = 120_000
DEFAULT_ALPHABET_BOUND = 8
_CATALOGUES = path.join(path.dirname(__file__), "catalogues.bin")


class LabeledDigraph(Record):
    """Oriented labeled graph where each label is a permutation graph."""

    n: int
    alphabet: tuple[str, ...]
    perms: tuple[Permutation, ...]

    def __init__(self, n: int, alphabet: tuple[str, ...], perms: tuple[Permutation, ...]):
        if len(alphabet) != len(perms):
            raise MalformedInputError("one permutation per label required")
        if len(set(alphabet)) != len(alphabet):
            raise MalformedInputError("duplicate labels")
        for p in perms:
            if p.degree != n:
                raise MalformedInputError("label permutation degree mismatch")
        super().__init__(n, alphabet, perms)

    @classmethod
    def from_edges(
        cls,
        n: int,
        alphabet: Sequence[str],
        edges: Iterable[tuple[int, int, str]],
    ) -> "LabeledDigraph":
        if not all_ints((n,)):
            raise MalformedInputError(f"vertex count {echo(n)} is not an int")
        by_label: dict[str, dict[int, int]] = {a: {} for a in alphabet}
        entered: set[tuple[str, int]] = set()
        for u, v, lab in edges:
            if lab not in by_label:
                raise MalformedInputError(f"unknown label {echo(lab)}")
            if not all_ints((u, v)):
                raise MalformedInputError(f"{lab!r}-edge ({echo(u)}, {echo(v)}) has a non-int end")
            if not (1 <= u <= n and 1 <= v <= n):
                raise MalformedInputError(f"{lab!r}-edge ({u}, {v}) has an end outside 1..{n}")
            if u in by_label[lab]:
                raise MalformedInputError(f"two {lab!r}-edges leave vertex {u}")
            if (lab, v) in entered:
                raise MalformedInputError(f"two {lab!r}-edges enter vertex {v}")
            by_label[lab][u] = v
            entered.add((lab, v))
        perms = []  # ends in 1..n, no two sharing a tail or a head: n edges are a bijection
        for a in alphabet:
            if len(by_label[a]) != n:
                raise MalformedInputError(f"label {a!r} is not the graph of a permutation")
            perms.append(Permutation._trusted(tuple(map(by_label[a].get, range(1, n + 1)))))
        return cls(n, tuple(alphabet), tuple(perms))

    @cached_property
    def hom(self) -> PermHomomorphism:
        """The free-group homomorphism whose action graph this is."""
        return PermHomomorphism._trusted(FpGroup(self.alphabet), self.n, self.perms)

    def edges(self) -> list[tuple[int, int, str]]:
        out = []
        for lab, p in zip(self.alphabet, self.perms):
            out.extend((v, p(v), lab) for v in range(1, self.n + 1))
        return out


def action_graph(psi: PermHomomorphism) -> LabeledDigraph:
    """The labeled digraph of a homomorphism of a presentation, with
    relators or without, labelled by its generators."""
    if not isinstance(psi.source, FpGroup):
        raise SourceMismatchError("action graphs require an FpGroup source")
    return LabeledDigraph._trusted(psi.degree, psi.source.generators, psi.images)


# ---------------------------------------------------------------------------
# rooted patterns


class RootedPattern(Record):
    """A small connected rooted labeled digraph (pattern to count).

    Vertices are ``1..n`` with root ``root``; edges are
    ``(u, v, label_index)`` triples with at most one outgoing and one
    incoming edge per label at each vertex.
    """

    n: int
    root: int
    alphabet: tuple[str, ...]
    edges: frozenset[tuple[int, int, int]]

    def __init__(
        self, n: int, root: int, alphabet: tuple[str, ...], edges: frozenset[tuple[int, int, int]]
    ):
        if not all_ints((n, root)):
            raise MalformedInputError(f"vertex count {echo(n)} and root {echo(root)} must be ints")
        if not 1 <= root <= n:
            raise MalformedInputError("root outside vertex range")
        if n > DEFAULT_PATTERN_VERTEX_BOUND:
            raise BoundExceededError(
                f"pattern has {n} vertices, "
                f"bound is {DEFAULT_PATTERN_VERTEX_BOUND}"
            )
        out_seen = set()
        in_seen = set()
        for u, v, lab in edges:
            if not all_ints((u, v, lab)):
                raise MalformedInputError(f"edge {echo((u, v, lab))} holds a non-int value")
            if not (1 <= u <= n and 1 <= v <= n):
                raise MalformedInputError("edge endpoint outside vertex range")
            if not 0 <= lab < len(alphabet):
                raise MalformedInputError("edge label index out of range")
            if (u, lab) in out_seen or (v, lab) in in_seen:
                raise MalformedInputError(
                    "more than one edge per label and direction at a vertex"
                )
            out_seen.add((u, lab))
            in_seen.add((v, lab))
        words, _ = _spanning_words(n, root, edges, len(alphabet))
        if len(words) != n:
            raise MalformedInputError("pattern must be connected")
        super().__init__(n, root, alphabet, edges)


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
    on the graph's free-group action, read by ``trace_stats.bs_statistic``."""
    if pattern.alphabet != graph.alphabet:
        raise AlphabetMismatchError(
            f"pattern alphabet {pattern.alphabet} differs from "
            f"graph alphabet {graph.alphabet}"
        )
    if graph.n == 0:
        return Fraction(0)
    return bs_statistic(graph.hom, *_statistic_words(pattern))


# ---------------------------------------------------------------------------
# canonical pattern enumeration and the statistical distance


class Catalogue(Sequence):
    """The ``(pattern, weight)`` pairs of :func:`enumerate_patterns`, as a
    read-only sequence over flat arrays.

    Class ``j`` (0-based) has ``sizes[j]`` vertices and root 1; its edges
    are the ``(u, v, label index)`` triples of ``edges[offsets[j] :
    offsets[j + 1]]``, one byte each; its weight is ``2^-orbits[j]``.
    ``catalogue[j]`` builds the pair ``(RootedPattern, Fraction)`` afresh
    on each access and keeps neither; a slice is a tuple of pairs, and a
    catalogue equals another, or a tuple, holding the same pairs.  Entry 0
    is the one-vertex pattern, with no edge.  Every other class was
    generated from the class whose bytes are its own but the last triple,
    by adding that triple's edge in the parent's vertex numbering.
    :meth:`counts` counts every class's rooted embeddings along that
    generation tree, from the zlib stream ``tables`` of the catalogue file,
    and :meth:`row` gives a class as a distance lists it."""

    def __init__(
        self,
        alphabet: tuple[str, ...],
        sizes: bytes = b"",
        edges: bytes = b"",
        offsets: Sequence[int] = (0,),
        orbits: Sequence[int] = (),
        tables: bytes = b"",
    ):
        self.alphabet = alphabet
        self.sizes = sizes
        self.edges = edges
        self.offsets = offsets
        self.orbits = orbits
        self.tables = tables
        self._rows: dict[int, tuple] = {}  # row parts of the patterns listed so far
        self._weights: dict[int, str] = {}  # weight text per orbit number listed so far

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(map(self.__getitem__, range(len(self))[j]))
        j = range(len(self))[j]
        pattern = RootedPattern._trusted(self.sizes[j], 1, self.alphabet, frozenset(self._triples(j)))
        return pattern, Fraction(1, 1 << self.orbits[j])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (Catalogue, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def _triples(self, j: int) -> Iterable[tuple[int, int, int]]:
        """The ``(u, v, label index)`` edge triples of class ``j``."""
        it = iter(self.edges[self.offsets[j] : self.offsets[j + 1]])
        return zip(it, it, it)

    @cached_property
    def _tables(self) -> tuple:
        """``(letters, suffixes, pairs, starts, signed, first, children)``:
        every class's rooted embeddings as conditions along the generation
        tree, in flat int arrays (``counting_tables`` of
        ``tests/enumerator.py`` says what each holds), decompressed from
        ``tables`` the first time a distance counts."""
        data = decompress(self.tables)
        flat = array("i", data[28:])
        if byteorder == "big":
            flat.byteswap()
        bounds = accumulate(unpack_from("<7I", data), initial=0)
        return tuple(flat[a:b] for a, b in pairwise(bounds))

    def counts(self, graph: LabeledDigraph) -> list[int]:
        """Per class, the number of points at which it embeds rooted.

        Each word's image of the points is an array of ``w``-bit fields,
        one per point, read as one int, holding the image point below bit
        ``w - 1``, so an equality mask is a few int operations on two
        images: bit ``w - 1`` of a field is set where the fields agree.
        Masks then keep the top byte of each field only.  The tree is
        walked depth first, visiting only the children of classes with a
        nonzero mask."""
        if not self:  # a size bound below 1: no pattern
            return []
        letters, suffixes, pairs, starts, signed, first, children = self._tables
        n = graph.n
        kind = next(k for k in "BHIQ" if n <= 1 << 8 * array(k).itemsize - 1)
        step = array(kind).itemsize  # bytes per point
        moves = []  # per letter code, the image of each point, 0-based
        for p in graph.perms:
            images = [j - 1 for j in p.images]
            inverse = [0] * n
            for i, j in enumerate(images):
                inverse[j] = i
            moves += (images, inverse)
        images = [array(kind, range(n))]  # per word id
        for letter, suffix in zip(letters, suffixes):
            images.append(array(kind, map(moves[letter].__getitem__, images[suffix])))
        packed = [int.from_bytes(im, byteorder) for im in images]
        ones = int.from_bytes(array(kind, [1] * n), byteorder)
        top = ones << 8 * step - 1  # the top bit of every field
        low = top - ones  # every field but its top bit
        equal = [
            top & ~((packed[pairs[i]] ^ packed[pairs[i + 1]]) + low)
            for i in range(0, len(pairs), 2)
        ]
        if step > 1:  # the byte holding each top bit, one byte per point
            at = step - 1 if byteorder == "little" else 0
            top, *equal = (
                int.from_bytes(mask.to_bytes(n * step, byteorder)[at::step], byteorder)
                for mask in (top, *equal)
            )
        met = []  # per condition, the points that meet it
        for a, b in pairwise(starts):
            mask = top
            for i in signed[a:b]:
                mask &= equal[i] if i >= 0 else top ^ equal[~i]
            met.append(mask)
        counts = [0] * len(self)
        counts[0] = n
        stack = [(0, top)]
        while stack:
            parent, mask = stack.pop()
            for t in range(first[parent], first[parent + 1], 2):
                if sub_mask := mask & met[children[t + 1]]:
                    index = children[t]
                    counts[index] = sub_mask.bit_count()
                    stack.append((index, sub_mask))
        return counts

    def row(self, j: int) -> tuple:
        """``(vertices, root, sorted edges, weight text, k)`` of pattern
        ``j`` (0-based, weight ``2^-k``), read from the catalogue's arrays
        the first time it is asked for; the weight text is made once per
        orbit."""
        parts = self._rows.get(j)
        if parts is None:
            k = self.orbits[j]
            weight = self._weights.get(k)
            if weight is None:
                weight = self._weights[k] = "1/" + str(1 << k)
            names = self.alphabet
            edges = tuple(sorted([(u, v, names[lab]) for u, v, lab in self._triples(j)]))
            parts = self._rows[j] = (self.sizes[j], 1, edges, weight, k)
        return parts


@lru_cache(maxsize=32)
def enumerate_patterns(alphabet: tuple[str, ...], size_bound: int) -> Catalogue:
    """All connected rooted patterns with at most ``size_bound`` vertices,
    in canonical order, each paired with its weight.

    The arrays of ``len(alphabet)`` letters at ``size_bound`` are read
    from ``catalogues.bin`` on the first call for that pair, in one
    ``open``.  The file holds each pair whose enumeration fits
    ``DEFAULT_PATTERN_KEY_BUDGET`` traversal keys; any other pair is
    refused from its index with the ``BoundExceededError`` the enumerator
    raises.  Layout: ``<H`` index entries of ``<BBIIIII`` (letter count,
    size bound, class count, then the offset and length of each of the
    pair's two zlib streams).  The first stream holds ``sizes``,
    ``offsets``, ``orbits`` (four bytes an entry, little endian) and the
    edge bytes, and is decompressed here; the second holds the counting
    tables, kept compressed until :meth:`Catalogue.counts` first needs them.
    """
    if size_bound < 1:
        return Catalogue(alphabet)
    if size_bound > DEFAULT_PATTERN_VERTEX_BOUND:
        raise BoundExceededError(
            f"size bound {size_bound} exceeds {DEFAULT_PATTERN_VERTEX_BOUND}"
        )
    with open(_CATALOGUES, "rb") as file:
        (entries,) = unpack("<H", file.read(2))
        for m, bound, n, at, size, _, more in iter_unpack("<BBIIIII", file.read(22 * entries)):
            if (m, bound) == (len(alphabet), size_bound):
                file.seek(at)
                data = decompress(file.read(size))
                tables = file.read(more)  # the second stream follows the first
                break
        else:
            raise _over_budget(alphabet, size_bound)
    offsets, orbits = array("I", data[n : 5 * n + 4]), array("I", data[5 * n + 4 : 9 * n + 4])
    if byteorder == "big":
        offsets.byteswap()
        orbits.byteswap()
    return Catalogue(alphabet, data[:n], data[9 * n + 4 :], offsets, orbits, tables)


def _over_budget(alphabet: tuple[str, ...], size_bound: int) -> BoundExceededError:
    return BoundExceededError(
        f"patterns of {len(alphabet)} letters at size bound {size_bound} need more"
        f" than {DEFAULT_PATTERN_KEY_BUDGET} traversal keys to enumerate"
    )


def stat_distance_truncated(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> Fraction:
    """Weighted l1 distance between pattern frequency vectors, truncated
    to patterns with at most ``size_bound`` vertices.  A pseudometric for
    any fixed bound."""
    total, _ = stat_distance_details(g1, g2, size_bound)
    return total


def stat_distance_details(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> tuple[Fraction, list[dict]]:
    """Distance plus one row per pattern with a nonzero contribution.

    Each graph counts every pattern's rooted embeddings along the
    generation tree (:meth:`Catalogue.counts`); the frequency ``c / n`` of a
    pattern with ``c`` rooted embeddings is 0 on the empty graph, whose
    counts are all 0 (denominator 1 below).
    """
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {g1.alphabet} vs {g2.alphabet}"
        )
    catalogue = enumerate_patterns(g1.alphabet, size_bound)
    d1, d2 = g1.n or 1, g2.n or 1
    c1, c2 = catalogue.counts(g1), catalogue.counts(g2)
    deltas = list(map(sub, map(d2.__mul__, c1), map(d1.__mul__, c2)))
    texts1: dict[int, str] = {}  # one str(Fraction) per distinct count
    texts2: dict[int, str] = {}
    terms = []  # (k of the weight 2^-k, |f1 - f2| * d1 * d2) per row
    rows = []
    for j in compress(range(len(deltas)), deltas):
        n, root, edges, weight, k = catalogue.row(j)
        a, b = c1[j], c2[j]
        f1 = texts1.get(a) or texts1.setdefault(a, str(Fraction(a, d1)))
        f2 = texts2.get(b) or texts2.setdefault(b, str(Fraction(b, d2)))
        terms.append((k, abs(deltas[j])))
        rows.append(
            {
                "index": j + 1,
                "vertices": n,
                "root": root,
                "edges": list(map(list, edges)),
                "weight": weight,
                "f1": f1,
                "f2": f2,
            }
        )
    K = max((k for k, _ in terms), default=0)  # one sum over 2^K, by shifts
    num = sum(delta << (K - k) for k, delta in terms)
    return Fraction(num, (d1 * d2) << K), rows


# ---------------------------------------------------------------------------
# encoding labeled digraphs into simple graphs


class SimpleGraph(Record):
    """Undirected simple graph on vertices ``1..n``."""

    n: int
    edges: frozenset[frozenset[int]]

    def __init__(self, n: int, edges: frozenset[frozenset[int]]):
        for e in edges:
            if len(e) != 2:
                raise MalformedInputError("edges must join two distinct vertices")
            if not all(1 <= v <= n for v in e):
                raise MalformedInputError("edge endpoint outside vertex range")
        super().__init__(n, edges)

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
    vertices = count(graph.n + 1)  # the gadget vertices, numbered as they are made
    edges: set[frozenset[int]] = set()
    for u, v, lab in sorted(
        (u, v, graph.alphabet.index(lab)) for u, v, lab in graph.edges()
    ):
        a, b = islice(vertices, 2)
        for walk in ((u, a, b, v), (a, *islice(vertices, 2)), (b, *islice(vertices, 3 + lab))):
            edges.update(map(frozenset, pairwise(walk)))
    return SimpleGraph(next(vertices) - 1, frozenset(edges))


def decode_simple(encoded: SimpleGraph, alphabet: Sequence[str]) -> LabeledDigraph:
    """Invert :func:`encode_to_simple`: the labeled digraph whose encoding
    is ``encoded`` up to a renumbering of its vertices.

    Each leaf's pendant path runs through vertices of degree 2 to its
    root.  A root of one path of 2 vertices is a subdivision vertex
    ``a``; a root of one path of ``3 + i`` vertices, for a label index
    ``i``, is a ``b`` of that label; a vertex that is neither and lies on
    no path is an original vertex.  These roles give a digraph and a
    correspondence from ``encoded``'s vertices to those of its encoding;
    unless that is an isomorphism, ``MalformedInputError`` is raised.
    """
    adj = encoded.adjacency()
    paths: dict[int, list[list[int]]] = {}  # root -> its pendant paths, root side first
    for tip in adj:
        if len(adj[tip]) == 1:
            path, (cur,) = [tip], adj[tip]
            while len(adj[cur]) == 2:
                (nxt,) = adj[cur] - {path[-1]}
                path.append(cur)
                cur = nxt
            paths.setdefault(cur, []).append(path[::-1])
    label = {  # a root's label index, -1 for an ``a``
        root: len(ps[0]) - 3
        for root, ps in paths.items()
        if len(ps) == 1 and (len(ps[0]) == 2 or 3 <= len(ps[0]) < 3 + len(alphabet))
    }
    on_path = {v for ps in paths.values() for p in ps for v in p}
    renum = {v: i for i, v in enumerate(sorted(adj.keys() - on_path - label.keys()), 1)}
    refusal = MalformedInputError("graph is not the encoding of a labeled digraph")
    gadgets = []  # ((u, v, label index), the gadget's vertices in the encoder's order)
    try:
        for a in [root for root, i in label.items() if i < 0]:
            (b,) = [w for w in adj[a] if label.get(w, -1) >= 0]
            (u,), (v,) = adj[a] & renum.keys(), adj[b] & renum.keys()
            gadgets.append(((renum[u], renum[v], label[b]), [a, b, *paths[a][0], *paths[b][0]]))
    except ValueError:  # a subdivision vertex without its two neighbours
        raise refusal from None
    gadgets.sort()
    edges = [(u, v, alphabet[i]) for (u, v, i), _ in gadgets]
    result = LabeledDigraph.from_edges(len(renum), tuple(alphabet), edges)
    order = [*renum, *(x for _, vs in gadgets for x in vs)]  # encoding vertex k at k - 1
    number = {x: k for k, x in enumerate(order, 1)}
    if len(number) != len(order) or len(order) != encoded.n:
        raise refusal
    if encode_to_simple(result).edges != {frozenset(map(number.get, e)) for e in encoded.edges}:
        raise refusal
    return result
