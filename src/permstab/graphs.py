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

Distances count embeddings along the enumeration tree.  The enumerator
builds every class as the class it was found from plus one edge, in that
parent's vertex numbering, and records the pair.  A vertex gets its word
when it is added: the root the empty word, a vertex added by an edge
labelled ``s`` from or to ``u`` the word ``s w_u`` or ``s^-1 w_u``.  So
a class's rooted embeddings are its parent's that meet one more
condition: an added inner edge ``(u, v, s)`` needs ``s w_u(x) =
w_v(x)``, and an added vertex needs its word's image to differ from
every existing vertex's.  The plan of these conditions is built once per
catalogue; per graph, each vertex word is one composition from its
suffix, each condition a few equality masks, and each class one AND with
its parent's mask, skipped below a parent whose mask is empty.
:func:`_statistic_words` stays the per-pattern definition that
:func:`pattern_frequency` counts.

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

from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import (
    accumulate, chain, combinations, compress, islice, permutations as iperms, product
)
from math import factorial
from operator import itemgetter, mul, sub, truth
from sys import byteorder

from .errors import (
    AlphabetMismatchError,
    BoundExceededError,
    MalformedInputError,
    RelatorsPresentError,
)
from .groups import FpGroup, PermHomomorphism, Word
from .perm import Permutation
from .record import Record

DEFAULT_PATTERN_VERTEX_BOUND = 6
# traversal keys one enumeration may compute, its successor candidates
# and its orbits' relabelings together: xyz at bound 3 computes 100,025
DEFAULT_PATTERN_KEY_BUDGET = 120_000
DEFAULT_ALPHABET_BOUND = 8


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

    def certificate(self) -> tuple:
        """The enumeration's sort key (:func:`_certificate`)."""
        m = len(self.alphabet)
        return _certificate(_slot_rows(self.n, self.edges, m), self.root, m, self.edges)


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
    last = len(rows) - 1
    queue = [root]
    for u in queue:
        if count == last:  # every vertex reached
            break
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
    The root keeps rank 0.  On the catalogues checked (see
    :func:`_certificate`) every rank ends up holding one vertex, so the
    ranks number the vertices.

    The ranks are those of sorting the nested tuples ``((rank,), outs,
    ins)`` by ``repr``, which fixed the published order, computed on one
    int per vertex (:func:`_signature_code`): its own rank, then per
    label slot a value that sorts as the ``repr`` does.  Each vertex's
    code is looked up once; a round adds its slots' neighbour ranks."""
    n = len(rows) - 1
    ranks = [1] * (n + 1)
    ranks[0] = ranks[root] = 0
    if n <= 2:  # the root and at most one other vertex
        return ranks
    # the root's signature sorts first in every round: rank only the rest
    others = [*range(1, root), *range(root + 1, n + 1)]
    codes = [_signature_code(m, n, tuple(map(truth, rows[v]))) for v in others]
    rank = ranks.__getitem__  # ranks is updated in place; rank(0) is 0
    classes = 2
    for _ in range(3):
        sigs = [
            fixed + own * rank(v) + sum(map(mul, map(rank, rows[v]), weights))
            for v, (fixed, weights, own) in zip(others, codes)
        ]
        order = sorted(set(sigs))
        if len(order) + 1 == classes:
            break
        classes = len(order) + 1
        for v, sig in zip(others, sigs):
            ranks[v] = order.index(sig) + 1
        if classes == n:
            break
    return ranks


@lru_cache(maxsize=1024)
def _signature_code(m: int, n: int, present: tuple[bool, ...]) -> tuple[int, tuple, int]:
    """``(fixed, weights, own)`` of a vertex of an ``n``-vertex pattern
    whose ``2m`` slots are filled as ``present`` says: its refinement
    signature is ``fixed + own * rank + sum(weight * neighbour rank)``.

    The signature has one digit in base ``mn + 2`` for the vertex's rank,
    then one per out-slot and one per in-slot, labels in index order.  A
    filled slot holds its label's code, the label's rank among the labels
    as strings times ``n`` plus 1 (``"10"`` before ``"2"``), plus the
    neighbour's rank (below ``n``).  An empty slot repeats the next filled slot of its list, or,
    past the last, holds the list's terminator: ``mn + 1`` if the list
    has at most one pair (``"(p,)" > "(p, q)"``), else 0 (``"(p, q)" <
    "(p, q, r)"``).  Two vertices that agree up to a slot then compare
    there as their ``repr`` lists compare at their next pair or end."""
    base = [0] * m
    for i, lab in enumerate(sorted(range(m), key=str)):
        base[lab] = 1 + i * n
    digit = m * n + 2
    fixed = 0
    weights = [0] * (2 * m)
    for d in (0, 1):  # out-slots, then in-slots
        end = digit - 1 if sum(present[d::2]) < 2 else 0
        nxt = None  # the next filled slot's label
        for lab in reversed(range(m)):
            place = digit ** ((1 - d) * m + m - 1 - lab)
            if present[2 * lab + d]:
                nxt = lab
            if nxt is None:
                fixed += end * place
            else:
                fixed += base[nxt] * place
                weights[2 * nxt + d] += place
    return fixed, tuple(weights), digit ** (2 * m)


def _certificate(
    rows: list[list[int]], root: int, m: int, edges: Iterable[tuple[int, int, int]]
) -> tuple:
    """The enumeration's sort key, once per class: ``(n, root number,
    sorted edge triples)`` with the vertices numbered by refinement rank
    (:func:`_refine_ranks`), vertex ``v`` number ``rank + 1`` when every
    rank holds one vertex, else least over the numberings within a rank.
    Every rank held one vertex on every class of every catalogue the key
    budget admits (``x`` up to bound 6, ``xy`` up to 4, ``xyz`` up to 3,
    four letters up to 2, five to seven letters at 1), so the search over
    numberings serves only patterns built by callers.  It is not the
    least edge list over all root-preserving numberings.  ``edges`` is
    read once."""
    ranks = _refine_ranks(rows, root, m)
    n = len(rows) - 1
    if max(ranks) == n - 1:  # ranks 0..n-1, one vertex each
        number = [r + 1 for r in ranks]
        return n, number[root], tuple(sorted([(number[u], number[w], lab) for u, w, lab in edges]))
    edges = list(edges)
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


class Catalogue(Sequence):
    """The ``(pattern, weight)`` pairs of :func:`enumerate_patterns`, as a
    read-only sequence over flat arrays, with the tree that generated them.

    Class ``j`` (0-based) has ``sizes[j]`` vertices and root 1; its edges
    are the ``(u, v, label index)`` triples of ``edges[offsets[j] :
    offsets[j + 1]]``, one byte each; its weight is ``2^-orbits[j]``.
    ``catalogue[j]`` builds the pair ``(RootedPattern, Fraction)`` afresh
    on each access and keeps neither; a slice is a tuple of pairs, and a
    catalogue equals another, or a tuple, holding the same pairs.
    ``tree`` holds five ints per class but the first, in the order
    generation found them, ``(index, parent, u, v, label)``, the catalogue
    indices of the class and of the class it was generated from, and the
    edge ``(u, v, label)`` added to the parent in the parent's vertex
    numbering, which the class keeps.  Entry 0 is the one-vertex pattern,
    the root of the tree."""

    def __init__(
        self,
        alphabet: tuple[str, ...],
        sizes: bytes = b"",
        edges: bytes = b"",
        offsets: Sequence[int] = (0,),
        orbits: Sequence[int] = (),
        tree: Sequence[int] = (),
    ):
        self.alphabet = alphabet
        self.sizes = sizes
        self.edges = edges
        self.offsets = offsets
        self.orbits = orbits
        self.tree = tree

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(map(self.__getitem__, range(len(self))[j]))
        j = range(len(self))[j]
        it = iter(self.edges[self.offsets[j] : self.offsets[j + 1]])
        pattern = RootedPattern._trusted(self.sizes[j], 1, self.alphabet, frozenset(zip(it, it, it)))
        return pattern, Fraction(1, 1 << self.orbits[j])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (Catalogue, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    @cached_property
    def plan(self) -> _EmbeddingPlan:
        """The :class:`_EmbeddingPlan` of this catalogue, built the first
        time a distance asks for it."""
        return _EmbeddingPlan(self)


@lru_cache(maxsize=32)
def enumerate_patterns(alphabet: tuple[str, ...], size_bound: int) -> Catalogue:
    """All connected rooted patterns with at most ``size_bound`` vertices,
    in canonical order, each paired with its weight.

    Generation adds one edge per layer and keeps the first pattern found
    per :func:`_traversal_key`; ``tree`` of the result records which
    class and edge each class was found from.  Order: :func:`_certificate`,
    vertex count first.  The j-th
    label-relabeling orbit (1-based, ordered by first appearance) has
    weight ``2^-j``; an orbit keeps its edge count, so the first class of
    an orbit found in a layer keys its relabelings there.  No pattern or
    weight is built: each class keeps its edge triples as bytes, its
    parent's plus the added edge, its vertex count and its orbit number,
    from which the :class:`Catalogue` builds a pair on access.

    The work is bounded: an enumeration that would compute more than
    ``DEFAULT_PATTERN_KEY_BUDGET`` traversal keys, one per successor
    candidate and one per relabeling of each orbit, counted before they
    are computed, raises ``BoundExceededError``.  The relabelings are
    listed only once the first orbit's keys fit the budget, so an
    alphabet too wide for it is refused before any is built.
    """
    if size_bound < 1:
        return Catalogue(alphabet)
    if size_bound > DEFAULT_PATTERN_VERTEX_BOUND:
        raise BoundExceededError(
            f"size bound {size_bound} exceeds {DEFAULT_PATTERN_VERTEX_BOUND}"
        )
    m = len(alphabet)
    relabelings = factorial(m) - 1  # keys per orbit, one per relabeling
    orders: list[itemgetter] = []  # their slot orders, listed for the first orbit
    spent = 1  # traversal keys computed, the seed's first
    seed = _slot_rows(1, (), m)
    layer = [(1, b"", seed, _traversal_key(seed, 1))]  # (n, edge bytes, rows, key) per class
    classes = []  # (certificate bytes, n, edge bytes, orbit id, generation index) per class
    found = array("i")  # (parent, u, v, label) per class after the first
    while layer:
        orbit_of: dict[tuple, int] = {}  # keys of this layer
        seen: set[tuple] = set()  # keys of the next layer
        new = []
        layer.reverse()  # popped in order, so each class's rows go when done
        while layer:
            n, edges, rows, key = layer.pop()
            parent = len(classes)  # this class, the parent of its successors
            if key not in orbit_of:
                orbit_of[key] = orbit = parent  # the orbit's first class
                spent += relabelings
                if spent > DEFAULT_PATTERN_KEY_BUDGET:
                    raise _over_budget(alphabet, size_bound)
                if len(orders) < relabelings:  # within the budget: list them once
                    orders = [
                        itemgetter(*[k for lab in perm for k in (2 * lab, 2 * lab + 1)])
                        for perm in islice(iperms(range(m)), 1, None)  # not the identity
                    ]
                for order in orders:
                    orbit_of.setdefault(_traversal_key(list(map(order, rows)), 1), orbit)
            # sorted by certificate, held as one byte per int (vertex numbers
            # and label indices are below 256): bytes compare faster than
            # nested tuples and give the garbage collector nothing to track
            it = iter(edges)
            size, root_number, triples = _certificate(rows, 1, m, zip(it, it, it))
            cert = bytes((size, root_number, *chain.from_iterable(triples)))
            classes.append((cert, n, edges, orbit_of[key], parent))
            # successors: an edge of each label from a vertex with a free
            # out-slot to one with a free in-slot, then, below the bound,
            # to and from a new vertex, set in place in the parent's rows
            if n < size_bound:
                rows.append([0] * (2 * m))
            vertices = range(1, n + 1)
            for lab in range(m):
                o, i = 2 * lab, 2 * lab + 1
                ends = [
                    (u, v) for u in vertices if not rows[u][o] for v in vertices if not rows[v][i]
                ]
                if n < size_bound:
                    for u in vertices:
                        if not rows[u][o]:
                            ends.append((u, n + 1))
                        if not rows[u][i]:
                            ends.append((n + 1, u))
                spent += len(ends)
                if spent > DEFAULT_PATTERN_KEY_BUDGET:
                    raise _over_budget(alphabet, size_bound)
                for u, v in ends:
                    rows[u][o], rows[v][i] = v, u
                    succ_key = _traversal_key(rows, 1)
                    if succ_key not in seen:
                        seen.add(succ_key)
                        k = max(n, u, v)
                        new.append(
                            (k, edges + bytes((u, v, lab)), [row[:] for row in rows[: k + 1]], succ_key)
                        )
                        found.extend((parent, u, v, lab))
                    rows[u][o] = rows[v][i] = 0
        layer = new
    classes.sort(key=itemgetter(0))
    index = array("i", [0]) * len(classes)  # catalogue index per class
    number: dict[int, int] = {}  # orbit id -> its number j, weight 2^-j
    for i, (_, _, _, orbit, generated) in enumerate(classes):
        index[generated] = i
        number.setdefault(orbit, len(number) + 1)
    parents = map(index.__getitem__, found[::4])
    return Catalogue(
        alphabet,
        bytes(map(itemgetter(1), classes)),
        b"".join(map(itemgetter(2), classes)),
        array("I", accumulate((len(entry[2]) for entry in classes), initial=0)),
        array("I", [number[entry[3]] for entry in classes]),
        array("i", chain.from_iterable(zip(index[1:], parents, found[1::4], found[2::4], found[3::4]))),
    )


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


class _EmbeddingPlan:
    """The rooted embeddings of every pattern of :func:`enumerate_patterns`,
    counted along its generation tree from flat int sequences.

    Each pattern vertex has a word: the root the empty word, and a vertex
    added by an edge ``(u, new, s)`` or ``(new, u, s)`` the word ``s w_u``
    or ``s^-1 w_u``.  Word ids 1, 2, ... are listed by ``letters`` and
    ``suffixes``: a word is one letter, coded ``2 s`` or ``2 s + 1`` for
    ``s^-1``, before a word of a smaller id (0 is the empty word).  The
    points at which a class embeds rooted are those of its parent that meet
    one condition, an AND of the equality masks of word pairs (``pairs``):
    for an added inner edge ``(u, v, s)``, ``s w_u`` and ``w_v`` agree; for
    an added vertex, its word differs from every existing vertex's.  A
    condition lists its pair ids, ``~id`` for differs.  ``children``
    holds ``(class, condition)`` per class but the first, grouped by
    parent: those of class ``c`` at ``first[c]`` up to ``first[c + 1]``.
    """

    def __init__(self, catalogue: Catalogue):
        words = {}  # (letter, suffix word id) -> word id
        pairs = {}  # (word id, word id) -> pair id
        conditions = {}  # signed pair ids -> condition id
        vertex_words = [(0,)] * len(catalogue)  # per class, per vertex
        children = [[] for _ in range(len(catalogue))]  # per class, (class, condition) pairs

        def word(letter, suffix):
            return words.setdefault((letter, suffix), len(words) + 1)

        def pair(a, b):
            return pairs.setdefault((a, b) if a < b else (b, a), len(pairs))

        tree = catalogue.tree
        for t in range(0, len(tree), 5):
            index, parent, u, v, lab = tree[t : t + 5]
            ws = vertex_words[parent]
            n = len(ws)
            if u <= n and v <= n:  # an inner edge: s w_u agrees with w_v
                signed = (pair(word(2 * lab, ws[u - 1]), ws[v - 1]),)
            else:  # a new head s w_u or tail s^-1 w_v, unlike every vertex
                new = word(2 * lab, ws[u - 1]) if v > n else word(2 * lab + 1, ws[v - 1])
                signed = tuple(~pair(new, w) for w in ws)
                ws += (new,)
            vertex_words[index] = ws
            children[parent] += (index, conditions.setdefault(signed, len(conditions)))
        self.letters = array("i", [letter for letter, _ in words])
        self.suffixes = array("i", [suffix for _, suffix in words])
        self.pairs = array("i", chain.from_iterable(pairs))
        self.conditions = tuple(conditions)
        self.first = array("i", accumulate(map(len, children), initial=0))
        self.children = array("i", chain.from_iterable(children))
        self._catalogue = catalogue
        self._rows: dict[int, tuple] = {}  # row parts of the patterns listed so far
        self._weights: dict[int, str] = {}  # weight text per orbit number listed so far

    def counts(self, graph: LabeledDigraph) -> list[int]:
        """Per class, the number of points at which it embeds rooted.

        Each word's image of the points is an array of ``w``-bit fields,
        one per point, read as one int, holding the image point below bit
        ``w - 1``, so an equality mask is a few int operations on two
        images: bit ``w - 1`` of a field is set where the fields agree.
        Masks then keep the top byte of each field only.  The tree is
        walked depth first, visiting only the children of classes with a
        nonzero mask."""
        if not self._catalogue:  # a size bound below 1: no pattern
            return []
        n = graph.n
        kind = next(k for k in "BHIQ" if n <= 1 << 8 * array(k).itemsize - 1)
        step = array(kind).itemsize  # bytes per point
        letters = []  # per letter code, the image of each point, 0-based
        for p in graph.perms:
            images = [j - 1 for j in p.images]
            inverse = [0] * n
            for i, j in enumerate(images):
                inverse[j] = i
            letters += (images, inverse)
        images = [array(kind, range(n))]  # per word id
        for letter, suffix in zip(self.letters, self.suffixes):
            images.append(array(kind, map(letters[letter].__getitem__, images[suffix])))
        packed = [int.from_bytes(im, byteorder) for im in images]
        ones = int.from_bytes(array(kind, [1] * n), byteorder)
        top = ones << 8 * step - 1  # the top bit of every field
        low = top - ones  # every field but its top bit
        pairs = self.pairs
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
        conditions = []
        for signed in self.conditions:
            mask = top
            for i in signed:
                mask &= equal[i] if i >= 0 else top ^ equal[~i]
            conditions.append(mask)
        counts = [0] * len(self._catalogue)
        counts[0] = n
        first, children = self.first, self.children
        stack = [(0, top)]
        while stack:
            parent, mask = stack.pop()
            for t in range(first[parent], first[parent + 1], 2):
                if sub_mask := mask & conditions[children[t + 1]]:
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
            catalogue = self._catalogue
            k = catalogue.orbits[j]
            weight = self._weights.get(k)
            if weight is None:
                weight = self._weights[k] = "1/" + str(1 << k)
            names = catalogue.alphabet
            it = iter(catalogue.edges[catalogue.offsets[j] : catalogue.offsets[j + 1]])
            edges = tuple(sorted([(u, v, names[lab]) for u, v, lab in zip(it, it, it)]))
            parts = self._rows[j] = (catalogue.sizes[j], 1, edges, weight, k)
        return parts


def stat_distance_details(
    g1: LabeledDigraph, g2: LabeledDigraph, size_bound: int
) -> tuple[Fraction, list[dict]]:
    """Distance plus one row per pattern with a nonzero contribution.

    Each graph counts every pattern's rooted embeddings along the
    generation tree (:class:`_EmbeddingPlan`); the frequency ``c / n`` of a
    pattern with ``c`` rooted embeddings is 0 on the empty graph, whose
    counts are all 0 (denominator 1 below).
    """
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {g1.alphabet} vs {g2.alphabet}"
        )
    plan = enumerate_patterns(g1.alphabet, size_bound).plan
    d1, d2 = g1.n or 1, g2.n or 1
    c1, c2 = plan.counts(g1), plan.counts(g2)
    deltas = list(map(sub, map(d2.__mul__, c1), map(d1.__mul__, c2)))
    texts1: dict[int, str] = {}  # one str(Fraction) per distinct count
    texts2: dict[int, str] = {}
    terms = []  # (k of the weight 2^-k, |f1 - f2| * d1 * d2) per row
    rows = []
    for j in compress(range(len(deltas)), deltas):
        n, root, edges, weight, k = plan.row(j)
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
