"""The canonical pattern enumerator, and the writer of the package's
catalogue file ``src/permstab/catalogues.bin``.

``permstab.graphs.enumerate_patterns`` reads each admitted catalogue from
that file.  This module is the generator it was read from, and stays the
reference the file is checked against (``test_graphs.py``).  To write the
file again, from the repository root::

    PYTHONPATH=src python tests/enumerator.py

The file holds one catalogue per ``(letter count, size bound)`` pair
whose enumeration fits ``graphs.DEFAULT_PATTERN_KEY_BUDGET`` traversal
keys, in the layout ``graphs.enumerate_patterns`` reads: per pair, one
zlib stream of the catalogue's arrays and one of the counting tables
that ``Catalogue.counts`` walks (:func:`counting_tables`), derived here
so that no process that counts has to build them.  The budget is read
from ``graphs`` at each call, so a test that patches it there patches
it here.
"""

from __future__ import annotations

import itertools
import sys
import zlib
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, chain, islice, permutations as iperms, product, takewhile
from math import factorial
from operator import itemgetter
from pathlib import Path
from struct import pack

from permstab import graphs
from permstab.errors import BoundExceededError
from permstab.graphs import (
    DEFAULT_PATTERN_VERTEX_BOUND,
    Catalogue,
    RootedPattern,
    _over_budget,
    _slot_rows,
)

CATALOGUES = Path(graphs._CATALOGUES)


def certificate(pattern: RootedPattern) -> tuple:
    """The enumeration's sort key, ``(n, 1, sorted edge triples)``
    (:func:`_certificate`)."""
    rows = _slot_rows(pattern.n, pattern.edges, len(pattern.alphabet))
    return pattern.n, 1, tuple(_certificate(rows, pattern.root, pattern.edges))


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


def _refine_ranks(rows: list[list[int]], root: int) -> list[int]:
    """Rank of each vertex ``v`` at entry ``v`` (entry 0 is 0) by colour
    refinement: from root against the rest, each round ranks the vertices
    by :func:`_signature`, for three rounds or until a round (or every
    class) can split no further.  The root keeps rank 0.  On the catalogues
    checked (see :func:`_certificate`) every rank ends up holding one
    vertex, so the ranks number the vertices.  Round one
    (:func:`_first_signature`) separates the vertices of all but 48 of the
    4,657 classes of ``xy`` at bound 4 with three or more vertices, which
    the enumerator numbers itself; only the rest come here."""
    n = len(rows) - 1
    ranks = [1] * (n + 1)
    ranks[0] = ranks[root] = 0
    if n <= 2:  # the root and at most one other vertex
        return ranks
    # the root's signature sorts first in every round: rank only the rest
    others = [*range(1, root), *range(root + 1, n + 1)]
    sigs = [_first_signature(root, tuple(rows[v])) for v in others]
    rank = ranks.__getitem__  # ranks is updated in place
    classes = 2
    for step in range(3):
        if step:  # rounds two and three
            sigs = [_signature(rank(v), rows[v], rank) for v in others]
        order = sorted(set(sigs))
        if len(order) + 1 == classes:
            break
        classes = len(order) + 1
        for v, sig in zip(others, sigs):
            ranks[v] = order.index(sig) + 1
        if classes == n:
            break
    return ranks


def _signature(rank: int, row: Sequence[int], rank_of: Callable[[int], int]) -> str:
    """Refinement signature of a vertex of rank ``rank`` with slot row
    ``row``: the ``repr`` of ``((rank,), outs, ins)``, ``outs`` and ``ins``
    holding ``(label, (neighbour rank,))`` per filled slot in label order.
    Vertices rank as that text sorts, which fixed the published order."""
    outs = tuple([(lab, (rank_of(w),)) for lab, w in enumerate(row[::2]) if w])
    ins = tuple([(lab, (rank_of(w),)) for lab, w in enumerate(row[1::2]) if w])
    return repr(((rank,), outs, ins))


@lru_cache(maxsize=2048)
def _first_signature(root: int, row: tuple[int, ...]) -> str:
    """Round-one signature (:func:`_signature`) of a vertex other than
    ``root`` with slot row ``row``: every vertex but the root has rank 1.
    The rows of a catalogue repeat: ``xy`` at bound 4 reads 13,767 rows,
    392 of them distinct, and ``xyz`` at bound 3, the largest catalogue
    the key budget admits, 1,427 distinct ones, within the cache."""
    return _signature(1, row, lambda w: 0 if w == root else 1)


def _certificate(
    rows: list[list[int]], root: int, edges: Iterable[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """The sorted edge triples of a pattern's sort key, which the
    enumerator takes for a class that round one leaves tied: the vertices
    numbered by refinement rank (:func:`_refine_ranks`), vertex ``v``
    number ``rank + 1`` when every rank holds one vertex, else least over
    the numberings within a rank; the root, alone in rank 0, is numbered 1
    either way.  The key is ``(n, 1, triples)``, which the enumeration
    packs into bytes.  Every rank held one vertex on every class of every
    catalogue the key budget admits (``x`` up to bound 6, ``xy`` up to 4,
    ``xyz`` up to 3, four letters up to 2, five to seven letters at 1), so
    the search over numberings serves only patterns built by callers, and
    is not the least over all root-preserving ones.  ``edges`` is read once."""
    ranks = _refine_ranks(rows, root)
    n = len(rows) - 1
    if max(ranks) == n - 1:  # ranks 0..n-1, one vertex each
        number = [r + 1 for r in ranks]
        return sorted([(number[u], number[w], lab) for u, w, lab in edges])
    edges = list(edges)
    classes: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for v in range(1, n + 1):
        classes[ranks[v]].append(v)

    def numbered(combo) -> list:
        number = [0] * (n + 1)
        for i, v in enumerate(chain.from_iterable(combo), 1):
            number[v] = i
        return sorted([(number[u], number[w], lab) for u, w, lab in edges])

    return min(map(numbered, product(*map(iperms, classes))))


@lru_cache(maxsize=32)
def enumerate_patterns(alphabet: tuple[str, ...], size_bound: int) -> Catalogue:
    """All connected rooted patterns with at most ``size_bound`` vertices,
    in canonical order, each paired with its weight.

    Generation adds one edge per layer and keeps the first pattern found
    per :func:`_traversal_key`.  A class ``P``, its parent ``P'`` plus
    ``e'``, keys no candidate that avoids the vertex ``e'`` added and that
    ``P'`` offered before ``e'`` (:func:`_offer_place`): ``P'`` plus that
    candidate entered the layer before ``P`` and offers ``e'``, so the
    child is found first there.  Order: :func:`_certificate`, vertex count
    first.  The j-th label-relabeling orbit (1-based, ordered by first
    appearance) has weight ``2^-j``; an orbit keeps its edge count, so the
    first class of an orbit found in a layer keys its relabelings there.
    No pattern or weight is built: each class keeps its edge triples as
    bytes, its parent's plus the added edge, its vertex count and its orbit
    number, from which the :class:`Catalogue` builds a pair on access.

    The work is bounded: an enumeration that would compute more than
    ``graphs.DEFAULT_PATTERN_KEY_BUDGET`` traversal keys, one per successor
    candidate, keyed or not, and one per relabeling of each orbit, counted
    before they are computed, raises ``BoundExceededError``.  The
    relabelings are listed only once the first orbit's keys fit the
    budget, so an alphabet too wide for it is refused before any is built.
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
    spent = 1  # traversal keys counted, the seed's first
    seed = _slot_rows(1, (), m)
    # (n, edge bytes, rows, key, the vertex the last edge added or 0) per class
    layer = [(1, b"", seed, _traversal_key(seed, 1), 0)]
    classes = []  # (certificate bytes, n, edge bytes, orbit id) per class
    while layer:
        orbit_of: dict[tuple, int] = {}  # keys of this layer
        seen: set[tuple] = set()  # keys of the next layer
        new = []
        layer.reverse()  # popped in order, so each class's rows go when done
        while layer:
            n, edges, rows, key, added = layer.pop()
            if key not in orbit_of:
                orbit_of[key] = orbit = len(classes)  # the orbit's first class
                spent += relabelings
                if spent > graphs.DEFAULT_PATTERN_KEY_BUDGET:
                    raise _over_budget(alphabet, size_bound)
                if len(orders) < relabelings:  # within the budget: list them once
                    orders = [
                        itemgetter(*[k for lab in perm for k in (2 * lab, 2 * lab + 1)])
                        for perm in islice(iperms(range(m)), 1, None)  # not the identity
                    ]
                for order in orders:
                    orbit_of.setdefault(_traversal_key(list(map(order, rows)), 1), orbit)
            # sorted by certificate: each edge as u << 16 | w << 8 | lab in
            # big-endian bytes, which compare as the triples do and give the
            # garbage collector nothing to track.  Round one numbers the
            # vertices when it separates them, as _refine_ranks would; taking
            # _certificate for every class made cold enumeration 1.11-1.17x slower
            it = iter(edges)
            sigs = range(n - 1)  # the root and at most one other vertex: no row read
            if n > 2:
                sigs = [_first_signature(1, tuple(row)) for row in rows[2:]]
            if len(set(sigs)) == n - 1:
                ranked = sorted(sigs)
                at = [0, 1, *[ranked.index(sig) + 2 for sig in sigs]]
                codes = [at[u] << 16 | at[w] << 8 | lab for u, w, lab in zip(it, it, it)]
            else:
                tie = _certificate(rows, 1, zip(it, it, it))
                codes = [u << 16 | w << 8 | lab for u, w, lab in tie]
            cert = pack(f">BB{len(codes)}I", n, 1, *sorted(codes))
            classes.append((cert, n, edges, orbit_of[key]))
            # successors: an edge of each label from a vertex with a free
            # out-slot to one with a free in-slot, then, below the bound,
            # to and from a new vertex, set in place in the parent's rows.
            # This class is its parent plus (a, b, last); a candidate that
            # avoids the vertex that edge added and that the parent offered
            # before it is not keyed: the parent's child by the candidate
            # entered this layer earlier and offers (a, b, last) in turn
            a, b, last = edges[-3:] or (0, 0, -1)
            before = _offer_place(a, b, n - (added > 0))
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
                if spent > graphs.DEFAULT_PATTERN_KEY_BUDGET:
                    raise _over_budget(alphabet, size_bound)
                if lab <= last:
                    ends = [e for e in ends
                            if added in e or lab == last and _offer_place(*e, n) > before]
                for u, v in ends:
                    rows[u][o], rows[v][i] = v, u
                    succ_key = _traversal_key(rows, 1)
                    if succ_key not in seen:
                        seen.add(succ_key)
                        k = max(n, u, v)
                        new.append((
                            k, edges + bytes((u, v, lab)), [row[:] for row in rows[: k + 1]],
                            succ_key, k if k > n else 0,
                        ))
                    rows[u][o] = rows[v][i] = 0
        layer = new
    classes.sort(key=itemgetter(0))
    number: dict[int, int] = {}  # orbit id -> its number j, weight 2^-j
    for _, _, _, orbit in classes:
        number.setdefault(orbit, len(number) + 1)
    return Catalogue(
        alphabet,
        bytes(map(itemgetter(1), classes)),
        b"".join(map(itemgetter(2), classes)),
        array("I", accumulate((len(entry[2]) for entry in classes), initial=0)),
        array("I", [number[entry[3]] for entry in classes]),
    )


def _offer_place(u: int, v: int, n: int) -> tuple[int, int, int]:
    """Where an ``n``-vertex class offers the edge ``(u, v)`` among its
    label's successor candidates: inner pairs by ``(u, v)``, then the edges
    joining an old vertex to the new vertex ``n + 1``, by old vertex, the
    edge leaving it first."""
    return (0, u, v) if max(u, v) <= n else (1, u, 0) if v > n else (1, v, 1)


# ---------------------------------------------------------------------------
# the catalogue file


def letters(m: int) -> tuple[str, ...]:
    """An alphabet of ``m`` letters; a catalogue's arrays do not depend on
    the names."""
    return tuple(f"a{i}" for i in range(m))


def admitted(m: int, bound: int) -> bool:
    """Whether the key budget admits ``m`` letters at ``bound``."""
    try:
        enumerate_patterns(letters(m), bound)
    except BoundExceededError:
        return False
    return True


def admitted_pairs() -> list[tuple[int, int]]:
    """Every ``(letter count, size bound)`` the key budget admits, bounds
    from 1: per letter count, the bounds below the first refused one, and
    letter counts up to the first refused at bound 1.  A catalogue's work
    grows with its bound and with its letters."""
    pairs = []
    for m in itertools.count():
        bounds = range(1, DEFAULT_PATTERN_VERTEX_BOUND + 1)
        admits = list(takewhile(lambda bound: admitted(m, bound), bounds))
        if not admits:
            return pairs
        pairs += [(m, bound) for bound in admits]


def counting_tables(catalogue: Catalogue) -> tuple[array, ...]:
    """``(letters, suffixes, pairs, starts, signed, first, children)``: the
    rooted embeddings of every class, as conditions along the generation
    tree in flat int arrays, which ``Catalogue.counts`` reads.  A class's
    parent and added edge are read from its edge bytes, classes taken by
    edge count so that each parent comes first.

    Each pattern vertex has a word: the root the empty word, and a vertex
    added by an edge ``(u, new, s)`` or ``(new, u, s)`` the word ``s w_u``
    or ``s^-1 w_u``.  Word ids 1, 2, ... are listed by ``letters`` and
    ``suffixes``: a word is one letter, coded ``2 s`` or ``2 s + 1`` for
    ``s^-1``, before a word of a smaller id (0 is the empty word).  The
    points at which a class embeds rooted are those of its parent that meet
    one condition, an AND of the equality masks of word pairs (``pairs``,
    two word ids each): for an added inner edge ``(u, v, s)``, ``s w_u``
    and ``w_v`` agree; for an added vertex, its word differs from every
    existing vertex's.  Condition ``k`` lists its pair ids, ``~id`` for
    differs, at ``signed[starts[k] : starts[k + 1]]``.  ``children`` holds
    ``(class, condition)`` per class but the first, grouped by parent:
    those of class ``c`` at ``first[c]`` up to ``first[c + 1]``.
    """
    words = {}  # (letter, suffix word id) -> word id
    pairs = {}  # (word id, word id) -> pair id
    conditions = {}  # signed pair ids -> condition id
    vertex_words = [(0,)] * len(catalogue)  # per class, per vertex
    children = [[] for _ in range(len(catalogue))]  # per class, (class, condition) pairs

    def word(letter, suffix):
        return words.setdefault((letter, suffix), len(words) + 1)

    def pair(a, b):
        return pairs.setdefault((a, b) if a < b else (b, a), len(pairs))

    edges, offsets = catalogue.edges, catalogue.offsets
    spans = [edges[a:b] for a, b in zip(offsets, offsets[1:])]  # edge bytes per class
    index_of = dict(zip(spans, itertools.count()))
    for span in sorted(spans, key=len)[1:]:  # parents first; class 0 has none
        index, parent = index_of[span], index_of[span[:-3]]
        u, v, lab = span[-3:]
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
    return (
        array("i", [letter for letter, _ in words]),
        array("i", [suffix for _, suffix in words]),
        array("i", chain.from_iterable(pairs)),
        array("i", accumulate(map(len, conditions), initial=0)),
        array("i", chain.from_iterable(conditions)),
        array("i", accumulate(map(len, children), initial=0)),
        array("i", chain.from_iterable(children)),
    )


def _little_endian(*arrays: array) -> bytes:
    """The arrays' entries, four bytes each, little endian, one after another."""
    out = array("i", chain.from_iterable(arrays))
    if sys.byteorder == "big":
        out.byteswap()
    return out.tobytes()


def stream(catalogue: Catalogue) -> bytes:
    """The uncompressed first stream of one catalogue: its arrays."""
    return (
        catalogue.sizes
        + _little_endian(array("i", catalogue.offsets), array("i", catalogue.orbits))
        + catalogue.edges
    )


def tables_stream(catalogue: Catalogue) -> bytes:
    """The uncompressed second stream of one catalogue: the entry count of
    each of its :func:`counting_tables`, then their entries."""
    tables = counting_tables(catalogue)
    return pack(f"<{len(tables)}I", *map(len, tables)) + _little_endian(*tables)


def catalogue_file(pairs: Sequence[tuple[int, int]]) -> bytes:
    """The file's bytes: the index, then two zlib streams per pair."""
    entries, streams = [], []
    at = 2 + len(pairs) * 22
    for m, bound in pairs:
        catalogue = enumerate_patterns(letters(m), bound)
        data = zlib.compress(stream(catalogue), 9)
        tables = zlib.compress(tables_stream(catalogue), 9)
        entries.append(pack("<BBIIIII", m, bound, len(catalogue), at, len(data),
                            at + len(data), len(tables)))
        streams += (data, tables)
        at += len(data) + len(tables)
    return pack("<H", len(pairs)) + b"".join(entries) + b"".join(streams)


if __name__ == "__main__":
    CATALOGUES.write_bytes(catalogue_file(admitted_pairs()))
    print(f"{CATALOGUES}: {CATALOGUES.stat().st_size} bytes")
