"""Fixed-point statistics of finite permutation actions.

For a homomorphism ``h`` and finite element sets ``A``, ``B``:

* the action trace ``Tr(A)`` is the fraction of points fixed by every
  image of ``A``;
* the local statistic ``S(A, B)`` (Benjamini-Schramm statistic) is the
  fraction of points fixed by all of ``A`` and moved by all of ``B``.

Both are one count, ``Tr(A) = S(A, {})``, and they determine each other
by inclusion-exclusion:
``S(A,B) = sum over V subset of B of (-1)^|V| * Tr(A union V)``.
With no points (degree 0), ``S(A, B) = 1`` exactly when ``B`` is empty.
Over all subsets of a finite universe ``F``, :func:`statistic_table`
gives ``S`` as a read-only :class:`StatisticTable` that keeps each
subset's point count, and :func:`tr_from_s` gives ``Tr`` back by
superset sums: on those integer counts when it gets such a table with
its own universe, and on the rational values of any other mapping.

Elements are ids for ``FiniteGroup`` sources and words (strings or parsed
tuples) for ``FpGroup`` sources.  An id is checked by looking it up in
the trace's mask store, whose keys are ``0 .. |G| - 1``: a value equal
to a key (``1.0`` or ``True`` for 1) reads as that id, and anything else
raises ``PermStabError``.  Words are compared syntactically; the
underlying group equality is never decided, which leaves every value
well-defined because only the evaluated permutations enter the counts.
A count (:func:`bs_statistic`, which :func:`action_trace` and
``graphs.pattern_frequency`` read, or :func:`s_from_tr`) parses its words
once, adding each new word's mask to the store, and then ANDs the store's
masks into one int in a single loop, which also checks the ids.  At a
positive degree every value is read from the trace's share memo, which
makes the ``Fraction`` of the degree of each point count once.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import BoundExceededError, PermStabError, echo
from .groups import FiniteGroup, PermHomomorphism, evaluate_word, parse_word

DEFAULT_MOVED_SET_BOUND = 20
# distinct elements of the universe F of a statistic table, which has
# 2^|F| entries: on S5, the table of |F| = 16 and its round trip take
# about 0.1 s and a peak RSS of 62 MB, 45 MB above the interpreter's;
# |F| = 20 took 4.7 s and 793 MB
DEFAULT_UNIVERSE_BOUND = 16

ElementSet = Iterable  # ids (int) or words (str | Word)


class ActionTrace:
    """The fixed-point masks and share memo of one homomorphism, which the
    statistics of this module read.

    The masks are one store, ``_mask_memo``: for a table source, a dict
    from element id to mask, built with the trace, whose lookup is the id
    check; for a presentation source, a dict keyed by word tuple, to which
    each word's mask is added the first time it is asked for
    (``_canonical``, which parses a query's words once).  ``_shares`` is
    the share memo, a :class:`_Shares`: reading a point count gives its
    exact share of the degree, one ``Fraction`` per count, made on first
    read.  With no points (degree 0) a read raises ``ZeroDivisionError``,
    and the statistics give ``S(A, B) = 1`` exactly when ``B`` is empty
    instead.  The table store never changes after it is built; the word
    and share memos are insert-only and each entry is the same whoever
    adds it, so a trace may be shared across threads.
    """

    def __init__(self, h: PermHomomorphism):
        self.hom = h
        self._full = (1 << h.degree) - 1
        self._shares = _Shares(h.degree)
        if isinstance(h.source, FiniteGroup):
            self._gens = None
            self._mask_memo = {e: p.fixed_mask() for e, p in enumerate(h.images)}
        else:
            self._gens = h.source.generators
            self._mask_memo = {}

    def _canonical(self, elements: ElementSet) -> Iterable:
        """Ids as given; words as parsed tuples, each word's mask added to
        the store the first time it is seen."""
        gens = self._gens
        if gens is None:
            return elements
        words = [parse_word(w, gens) if isinstance(w, str) else tuple(w) for w in elements]
        store = self._mask_memo
        for w in words:
            if w not in store:
                store[w] = evaluate_word(self.hom, w).fixed_mask()
        return words

    def masks(self, elements: ElementSet) -> list[int]:
        """The fixed-point mask of each element, in order."""
        store = self._mask_memo
        elements = self._canonical(elements)
        out = []  # a loop: a comprehension is one more call on Python 3.11
        try:
            for e in elements:
                out.append(store[e])
        except KeyError as exc:
            raise _outside_group(exc) from None
        return out


class _Shares(dict):
    """The share memo: ``memo[count]`` is ``Fraction(count, degree)``,
    made when the count is first read."""

    def __init__(self, degree: int):
        super().__init__()
        self.degree = degree

    def __missing__(self, count: int) -> Fraction:
        share = self[count] = Fraction(count, self.degree)
        return share


def _outside_group(exc: KeyError) -> PermStabError:
    """The error for an element that is not a key of the mask store."""
    return PermStabError(f"element id {echo(exc.args[0])} outside the source group")


def get_trace(h: PermHomomorphism) -> ActionTrace:
    """``h.trace``, for callers that look the trace up by function name."""
    return h.trace


def action_trace(h: PermHomomorphism, A: ElementSet) -> Fraction:
    """Fraction of points fixed by every image of ``A``: ``S(A, {})``."""
    return bs_statistic(h, A, ())


# bs_statistic and s_from_tr fold their masks in their own bodies: on
# Python 3.11 each call of a helper costs about as much as the fold itself.
def bs_statistic(h: PermHomomorphism, A: ElementSet, B: ElementSet) -> Fraction:
    """Fraction of points fixed by all of ``A`` and moved by all of ``B``.

    Overlapping ``A`` and ``B`` force the value 0.
    """
    trace = h.trace
    store = trace._mask_memo
    if trace._gens is not None:
        A, B = trace._canonical(A), trace._canonical(B)
    mask = trace._full
    b = None  # stays None exactly when B is empty
    try:
        for a in A:
            mask &= store[a]
        for b in B:
            mask &= ~store[b]
    except KeyError as exc:
        raise _outside_group(exc) from None
    try:
        return trace._shares[mask.bit_count()]
    except ZeroDivisionError:  # no points: S(A, B) = 1 exactly when B is empty
        return Fraction(int(b is None))


def s_from_tr(trace: ActionTrace, A: ElementSet, B: ElementSet) -> Fraction:
    """``S(A, B)`` from trace values alone, by inclusion-exclusion.

    A term ``Tr(A union V)`` is the bit count of the mask of points fixed
    by ``A`` and ``V``; a term whose mask is empty is dropped, and with it
    every term of a superset of ``V``, since ``Tr`` is monotone.  Each
    element ``b`` of ``B`` splits the term of ``V`` into itself and the
    term of ``V union {b}``, of opposite sign, whose mask is the AND with
    ``b``'s mask.  When the term's mask lies inside ``b``'s mask, the two
    twins are equal, and so are all the terms that later elements split
    from them: the twins and their whole subtrees cancel, and neither is
    kept.  So ``S(A, B) = 0`` without any expansion when one element of
    ``B`` fixes every point that ``A`` fixes.
    """
    store = trace._mask_memo
    words = trace._gens is not None
    if words:
        A = trace._canonical(A)
    common = trace._full
    try:
        for a in A:
            common &= store[a]
    except KeyError as exc:
        raise _outside_group(exc) from None
    B = set(trace._canonical(B) if words else B)
    if len(B) > DEFAULT_MOVED_SET_BOUND:
        raise BoundExceededError(
            f"moved set of size {len(B)} exceeds bound {DEFAULT_MOVED_SET_BOUND}"
        )
    # the kept masks of A u V for the subsets V of B seen so far, split by
    # the parity of |V|
    even, odd = [common] if common else [], []
    try:
        for b in B:  # loops: on Python 3.11 a comprehension is a call
            mb = store[b]
            kept_even, kept_odd = [], []
            for m in even:
                if (x := m & mb) != m:
                    kept_even.append(m)
                    if x:
                        kept_odd.append(x)
            for m in odd:
                if (x := m & mb) != m:
                    kept_odd.append(m)
                    if x:
                        kept_even.append(x)
            even, odd = kept_even, kept_odd
    except KeyError as exc:
        raise _outside_group(exc) from None
    count = 0
    for m in even:
        count += m.bit_count()
    for m in odd:
        count -= m.bit_count()
    try:
        return trace._shares[count]
    except ZeroDivisionError:  # no points: S(A, B) = 1 exactly when B is empty
        return Fraction(int(not B))


class StatisticTable(dict):
    """The table of :func:`statistic_table`: a read-only ``dict`` that
    also keeps the integer point count of each subset, in table order,
    the universe sorted by ``repr``, and the trace's share memo.

    :func:`tr_from_s` sums those counts when it is given the table and
    the table's own universe, which it sorts the same way.  So that the
    counts never disagree with the values, every mutator raises
    ``TypeError``; ``dict(table)`` is a mutable copy, and ``copy``,
    ``deepcopy`` and ``pickle`` give one.
    """

    __slots__ = ("_counts", "_items", "_shares")

    def __init__(self, pairs, counts, items, shares):
        super().__init__(pairs)
        self._counts = counts  # None for degree 0, where no count is kept
        self._items = items
        self._shares = shares

    def _read_only(self, *args, **kwargs):
        raise TypeError("a statistic table is read-only; dict(table) is a mutable copy")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = _read_only
    __ior__ = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


def tr_from_s(
    stats: Mapping[frozenset, Fraction], universe: ElementSet
) -> dict[frozenset, Fraction]:
    """Recover ``Tr`` on all subsets of a finite set ``F`` from the full
    statistic table ``{T -> S(T, F minus T)}``.

    ``stats`` must hold an entry for every subset of ``universe``, keyed
    by the ``frozenset`` of its elements in the form the universe gives
    them; other keys are ignored.  A table of :func:`statistic_table` on
    a presentation source is keyed by parsed word tuples, so its own
    universe is ``max(table, key=len)``, not the words as typed.  Then
    ``Tr(A) = sum over T containing A of S(T, F minus T)``: one
    superset-sum pass per element.  A :class:`StatisticTable` of a
    positive degree, read on exactly its own elements, already lists its
    subsets in that order: its kept point counts are summed packed in one
    int (:func:`_packed_superset_sums`) and each share is taken from the
    trace's memo.  Any other mapping is read key by key and summed on
    integers over a common denominator.  The result is keyed by the
    table's own keys, in the order of the universe's elements sorted by
    ``repr``.  A universe of more than ``DEFAULT_UNIVERSE_BOUND`` distinct
    elements raises ``BoundExceededError`` before anything is allocated.
    """
    items = sorted(_bounded_universe(frozenset(universe)), key=repr)
    counted = isinstance(stats, StatisticTable) and stats._counts is not None
    if counted and stats._items == items:
        shares = stats._shares
        sums = _packed_superset_sums(stats._counts, len(items), shares.degree)
        return dict(zip(stats, map(shares.__getitem__, sums)))
    return _tr_from_values(stats, items)


def _tr_from_values(stats: Mapping[frozenset, Fraction], items: list) -> dict:
    """:func:`tr_from_s` on any mapping: each ``frozenset`` key is placed
    by its elements' bits in ``items`` and its value read as a rational."""
    size = 1 << len(items)
    bits = {x: 1 << i for i, x in enumerate(items)}
    keys = [None] * size  # the caller's key of subset s, at s
    values = [None] * size
    for T, v in stats.items():
        if isinstance(T, frozenset):
            try:
                s = sum(map(bits.__getitem__, T))
            except KeyError:  # an element outside the universe
                continue
            keys[s] = T
            values[s] = v
    if None in keys:
        missing = set(_subsets(items)[keys.index(None)])
        hint = ""
        if any(isinstance(T, frozenset) and not T.issubset(bits) for T in stats):
            hint = (
                "; the table's keys hold elements outside the universe, so the"
                " universe's elements are not the table's element forms (a word"
                " table is keyed by parsed word tuples): pass the table's own"
                " elements as the universe, for example max(table, key=len)"
            )
        raise PermStabError(
            f"statistic table is incomplete: missing entry for {missing}{hint}"
        )
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    sums = [v.numerator * (den // d) for v, d in zip(values, dens)]
    sums = _superset_sums(sums, len(items))
    shares = {x: Fraction(x, den) for x in set(sums)}
    return dict(zip(keys, map(shares.__getitem__, sums)))


def _superset_sums(sums: list, elements: int) -> list:
    """Entry ``s`` of ``sums`` replaced by the sum over the supersets of
    subset ``s``, by Yates's method: a pass adds each odd entry (subsets
    with the lowest bit) to the even one before it and lists the evens
    first, which rotates the bits, so the next pass sums over the next
    element and one pass per element restores the order.  This list form
    takes any ints, negative or unbounded, as the rational numerators of
    :func:`_tr_from_values` are; point counts take
    :func:`_packed_superset_sums`."""
    for _ in range(elements):
        odd = sums[1::2]
        sums = [*map(add, sums[::2], odd), *odd]
    return sums


_BIG_ENDIAN = sys.byteorder == "big"


def _packed_superset_sums(counts: list, elements: int, total: int) -> array:
    """:func:`_superset_sums` of non-negative ``counts`` that sum to
    ``total`` (less than ``2^64``), on one packed int.

    Count ``s`` is field ``s`` of the int, in fields of the fewest of 1,
    2, 4 or 8 bytes that hold ``total``.  Every partial sum is a sum of
    distinct counts, so no more than ``total``, and a field never carries
    into the next: the pass of element ``i`` is one shift, which brings
    the field of ``s`` with bit ``i`` down onto ``s``, and one add of the
    fields of the subsets without bit ``i`` (:func:`_field_masks`)."""
    # type codes by the bytes that total needs: B, H, I, Q hold 1, 2, 4, 8
    fields = array("BBHIIQQQQ"[(total.bit_length() + 7) >> 3], counts)
    size = fields.itemsize
    if _BIG_ENDIAN:  # field s must be bytes s*size .. of a little-endian int
        fields.byteswap()
    packed = int.from_bytes(fields, "little")
    for i, mask in enumerate(_field_masks(elements, size)):
        packed += packed >> (8 * size << i) & mask
    fields = array(fields.typecode, packed.to_bytes(len(fields) * size, "little"))
    if _BIG_ENDIAN:
        fields.byteswap()
    return fields


@lru_cache(maxsize=8)
def _field_masks(elements: int, size: int) -> tuple[int, ...]:
    """Per element ``i``, the packed int whose ``size``-byte fields are all
    ones at the subsets without bit ``i`` and zero at the others.  At most
    ``2^DEFAULT_UNIVERSE_BOUND`` fields of 8 bytes: 8 MB for the 16 masks
    of the largest admitted universe."""
    out = []
    for i in range(elements):
        block = b"\xff" * (size << i) + bytes(size << i)  # 2^i fields without i, 2^i with
        out.append(int.from_bytes(block * (1 << elements - 1 - i), "little"))
    return tuple(out)


def statistic_table(h: PermHomomorphism, universe: ElementSet) -> StatisticTable:
    """The full table ``{T -> S(T, F minus T)}`` over subsets of ``F``, as
    a read-only :class:`StatisticTable`.

    The elements of ``F`` are sorted by ``repr``, the order in which
    :func:`tr_from_s` reads a universe, and subset ``s`` of the table
    holds element ``i`` iff bit ``i`` of ``s`` is set.  The points are
    split once per element: the mask of subset ``T`` holds the points
    fixed by exactly the elements of ``T``.  Each share is the trace's
    memoized ``Fraction`` of its count, and the table keeps the counts
    for :func:`tr_from_s`.  Word elements key the table as parsed tuples.
    A universe of more than ``DEFAULT_UNIVERSE_BOUND`` distinct elements
    raises ``BoundExceededError`` before the points are split.
    """
    trace = h.trace
    items = sorted(_bounded_universe(set(trace._canonical(universe))), key=repr)
    parts = [trace._full]  # parts[s]: the points fixed by exactly subset s
    for m in trace.masks(items):
        moved = ~m
        parts = [p & moved for p in parts] + [p & m for p in parts]
    memo = trace._shares
    if trace._full:
        counts = list(map(int.bit_count, parts))
        shares = map(memo.__getitem__, counts)
    else:  # no points: S(T, F minus T) = 1 exactly for T = F
        counts = None
        shares = [Fraction(0)] * (len(parts) - 1) + [Fraction(1)]
    return StatisticTable(zip(_subsets(items), shares), counts, items, memo)


def _bounded_universe(items: set) -> set:
    """``items``, refused if a table over their subsets would have more
    than ``2^DEFAULT_UNIVERSE_BOUND`` entries."""
    if len(items) > DEFAULT_UNIVERSE_BOUND:
        raise BoundExceededError(
            f"universe of {len(items)} elements exceeds bound {DEFAULT_UNIVERSE_BOUND}"
        )
    return items


def _subsets(items: Sequence) -> list[frozenset]:
    """All subsets of ``items``; subset ``s`` holds ``items[i]`` iff bit
    ``i`` of ``s`` is set."""
    out = [frozenset()]
    for x in items:
        x = {x}
        out += [T | x for T in out]
    return out
