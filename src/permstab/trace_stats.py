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
A query parses its words once, adding each new word's mask to the store,
and then ANDs the store's masks into one int in a single loop, which also
checks the ids.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BoundExceededError, PermStabError
from .groups import FiniteGroup, PermHomomorphism, evaluate_word, parse_word

DEFAULT_MOVED_SET_BOUND = 20
# distinct elements of the universe F of a statistic table, which has
# 2^|F| entries: on S5, the table of |F| = 16 and its round trip take
# about 0.25 s and 62 MB; |F| = 20 took 4.7 s and 793 MB
DEFAULT_UNIVERSE_BOUND = 16

ElementSet = Iterable  # ids (int) or words (str | Word)


class ActionTrace:
    """Counts of points fixed by one element set and moved by another, for
    one homomorphism.

    Every count reads one store of fixed-point masks, ``_mask_memo``: for
    a table source, a dict from element id to mask, built with the trace,
    whose lookup is the id check; for a presentation source, a dict keyed
    by word tuple, to which each word's mask is added the first time it is
    asked for.  A query parses its words once (``_canonical``, which also
    fills the store) and ANDs the store's masks into one int in a loop of
    its own, so a count is a few ANDs and one ``bit_count``, with no mask
    list.  Its exact share of the degree is one ``Fraction`` per count,
    kept in ``_shares``.  The table store never changes after it is
    built; the word and share memos are insert-only and each entry is the
    same whoever adds it, so a trace may be shared across threads.
    """

    def __init__(self, h: PermHomomorphism):
        self.hom = h
        self._full = (1 << h.degree) - 1
        self._shares: dict[int, Fraction] = {}
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
        if self._gens is not None:
            elements = self._canonical(elements)
        out = []  # a loop: a comprehension is one more call on Python 3.11
        try:
            for e in elements:
                out.append(store[e])
        except KeyError as exc:
            raise _outside_group(exc) from None
        return out

    def _share(self, count: int, moved) -> Fraction:
        """``count`` points of the degree, one ``Fraction`` per count; with
        no points, ``S(A, B) = 1`` exactly when ``moved`` (``B``, or
        anything with its truth value) is empty."""
        share = self._shares.get(count)
        if share is None:
            degree = self.hom.degree
            if not degree:
                return Fraction(int(not moved))
            share = self._shares[count] = Fraction(count, degree)
        return share

    # The queries below fold their masks in their own bodies: on Python
    # 3.11 each call of a helper costs about as much as the fold itself.
    def statistic_count(self, A: ElementSet, B: ElementSet) -> int:
        """Number of points fixed by all of ``A`` and moved by all of ``B``."""
        store = self._mask_memo
        if self._gens is not None:
            A, B = self._canonical(A), self._canonical(B)
        mask = self._full
        try:
            for a in A:
                mask &= store[a]
            for b in B:
                mask &= ~store[b]
        except KeyError as exc:
            raise _outside_group(exc) from None
        return mask.bit_count()

    def value(self, A: ElementSet) -> Fraction:
        """``Tr(A)``."""
        store = self._mask_memo
        if self._gens is not None:
            A = self._canonical(A)
        mask = self._full
        try:
            for a in A:
                mask &= store[a]
        except KeyError as exc:
            raise _outside_group(exc) from None
        count = mask.bit_count()
        try:
            return self._shares[count]
        except KeyError:
            return self._share(count, False)


def _outside_group(exc: KeyError) -> PermStabError:
    """The error for an element that is not a key of the mask store."""
    return PermStabError(f"element id {exc.args[0]!r} outside the source group")


def get_trace(h: PermHomomorphism) -> ActionTrace:
    """``h.trace``, for callers that look the trace up by function name."""
    return h.trace


def action_trace(h: PermHomomorphism, A: ElementSet) -> Fraction:
    """Fraction of points fixed simultaneously by every image of ``A``."""
    return h.trace.value(A)


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
    count = mask.bit_count()
    try:
        return trace._shares[count]
    except KeyError:
        return trace._share(count, b is not None)


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
    count = sum(map(int.bit_count, even)) - sum(map(int.bit_count, odd))
    try:
        return trace._shares[count]
    except KeyError:
        return trace._share(count, B)


class StatisticTable(dict):
    """The table of :func:`statistic_table`: a read-only ``dict`` that
    also keeps the integer point count of each subset, in table order,
    the sorted universe, and the trace's share memo.

    :func:`tr_from_s` sums those counts when it is given the table and
    the table's own universe.  So that the counts never disagree with the
    values, every mutator raises ``TypeError``; ``dict(table)`` is a
    mutable copy, and ``copy``, ``deepcopy`` and ``pickle`` give one.
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
    positive degree, read on exactly its own elements, sums its kept
    point counts and takes each share from the trace's memo; any other
    mapping is read key by key and summed on integers over a common
    denominator.  The result is keyed by the table's own keys, in the
    order of the universe's elements sorted by ``repr``.  A universe of
    more than ``DEFAULT_UNIVERSE_BOUND`` distinct elements raises
    ``BoundExceededError`` before anything is allocated.
    """
    items = sorted(_bounded_universe(frozenset(universe)), key=repr)
    if isinstance(stats, StatisticTable) and stats._counts is not None:
        out = _tr_from_counts(stats, items)
        if out is not None:
            return out
    return _tr_from_values(stats, items)


def _tr_from_counts(table: StatisticTable, items: list) -> Optional[dict]:
    """:func:`tr_from_s` on the table's point counts, or ``None`` when
    ``items`` are not the table's elements."""
    own = table._items
    if len(items) != len(own):
        return None
    try:  # table bit of each element, in repr order
        bits = [1 << own.index(x) for x in items]
    except ValueError:
        return None
    sums, keys = table._counts, list(table)
    if bits != sorted(bits):  # the repr order is not the table order
        order = [0]  # order[t]: the table index of repr-order subset t
        for b in bits:
            order += [s | b for s in order]
        sums = list(map(sums.__getitem__, order))
        keys = list(map(keys.__getitem__, order))
    sums = _superset_sums(sums, len(items))
    memo = table._shares
    degree = sums[0]  # Tr of the empty set counts every point
    for c in set(sums).difference(memo):
        memo[c] = Fraction(c, degree)
    return dict(zip(keys, map(memo.__getitem__, sums)))


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
    element and one pass per element restores the order."""
    for _ in range(elements):
        odd = sums[1::2]
        sums = [*map(add, sums[::2], odd), *odd]
    return sums


def statistic_table(h: PermHomomorphism, universe: ElementSet) -> StatisticTable:
    """The full table ``{T -> S(T, F minus T)}`` over subsets of ``F``, as
    a read-only :class:`StatisticTable`.

    The points are split once per element of ``F``: the mask of subset
    ``T`` holds the points fixed by exactly the elements of ``T``.  Each
    share is the trace's memoized ``Fraction`` of its count, and the
    table keeps the counts for :func:`tr_from_s`.  Word elements key the
    table as parsed tuples.  A universe of more than
    ``DEFAULT_UNIVERSE_BOUND`` distinct elements raises
    ``BoundExceededError`` before the points are split.
    """
    trace = h.trace
    items = _bounded_universe(set(trace._canonical(universe)))
    fixed = dict(zip(items, trace.masks(items)))  # ids checked before the sort
    items = sorted(fixed)
    parts = [trace._full]  # parts[s]: the points fixed by exactly subset s
    for x in items:
        m = fixed[x]
        moved = ~m
        parts = [p & moved for p in parts] + [p & m for p in parts]
    degree = trace.hom.degree
    memo = trace._shares
    if degree:
        counts = list(map(int.bit_count, parts))
        for c in set(counts).difference(memo):
            memo[c] = Fraction(c, degree)
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
