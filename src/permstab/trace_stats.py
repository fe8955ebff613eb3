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

Elements are ids for ``FiniteGroup`` sources and words (strings or parsed
tuples) for ``FpGroup`` sources.  An id is checked by looking it up in
the trace's mask store, whose keys are ``0 .. |G| - 1``: a value equal
to a key (``1.0`` or ``True`` for 1) reads as that id, and anything else
raises ``PermStabError``.  Words are compared syntactically; the
underlying group equality is never decided, which leaves every value
well-defined because only the evaluated permutations enter the counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

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
    asked for.  A count is then a few ANDs and one ``bit_count``, and its
    exact share of the degree is one ``Fraction`` per count, kept in
    ``_shares``.  The table store never changes after it is built; the
    word and share memos are insert-only and each entry is the same
    whoever adds it, so a trace may be shared across threads.
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
        """Ids as given; words as parsed tuples."""
        gens = self._gens
        if gens is None:
            return elements
        return [parse_word(w, gens) if isinstance(w, str) else tuple(w) for w in elements]

    def masks(self, elements: ElementSet) -> list[int]:
        """The fixed-point mask of each element, in order."""
        store = self._mask_memo
        if self._gens is not None:
            elements = self._canonical(elements)
            for w in elements:
                if w not in store:
                    store[w] = evaluate_word(self.hom, w).fixed_mask()
        out = []  # a loop: a comprehension is one more call on Python 3.11
        try:
            for e in elements:
                out.append(store[e])
        except KeyError:
            raise PermStabError(f"element id {e!r} outside the source group") from None
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

    def _count(self, fixed: Iterable[int], moved: Iterable[int]) -> int:
        """Points in every mask of ``fixed`` and in no mask of ``moved``."""
        mask = self._full
        for m in fixed:
            mask &= m
        for m in moved:
            mask &= ~m
        return mask.bit_count()

    def statistic_count(self, A: ElementSet, B: ElementSet) -> int:
        """Number of points fixed by all of ``A`` and moved by all of ``B``."""
        return self._count(self.masks(A), self.masks(B))

    def value(self, A: ElementSet) -> Fraction:
        """``Tr(A)``."""
        return self._share(self._count(self.masks(A), ()), False)


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
    fixed = trace.masks(A)
    moved = trace.masks(B)
    return trace._share(trace._count(fixed, moved), moved)


def s_from_tr(trace: ActionTrace, A: ElementSet, B: ElementSet) -> Fraction:
    """``S(A, B)`` from trace values alone, by inclusion-exclusion.

    A term ``Tr(A union V)`` is the bit count of the mask of points fixed
    by ``A`` and ``V``; a term whose mask is empty is dropped, and with it
    every term of a superset of ``V``, since ``Tr`` is monotone.
    """
    fixed = trace.masks(A)
    B = set(trace._canonical(B))
    if len(B) > DEFAULT_MOVED_SET_BOUND:
        raise BoundExceededError(
            f"moved set of size {len(B)} exceeds bound {DEFAULT_MOVED_SET_BOUND}"
        )
    common = trace._full
    for m in fixed:
        common &= m
    # the nonempty masks of A u V for the subsets V of B seen so far,
    # split by the parity of |V|
    even, odd = [common] if common else [], []
    for mb in trace.masks(B):  # loops: on Python 3.11 a comprehension is a call
        flipped = []
        for m in odd:
            if x := m & mb:
                flipped.append(x)
        for m in even:
            if x := m & mb:
                odd.append(x)
        even += flipped
    count = sum(map(int.bit_count, even)) - sum(map(int.bit_count, odd))
    return trace._share(count, B)


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
    superset-sum pass per element, on integers over a common denominator.
    The result is keyed by the table's own keys, in the order of the
    universe's elements sorted by ``repr``.  A universe of more than
    ``DEFAULT_UNIVERSE_BOUND`` distinct elements raises
    ``BoundExceededError`` before anything is allocated.
    """
    items = sorted(_bounded_universe(frozenset(universe)), key=repr)
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
    # Yates's method: a pass adds each odd entry (subsets with the lowest
    # bit) to the even one before it and lists the evens first, which
    # rotates the bits, so the next pass sums over the next element and
    # one pass per element restores the order
    for _ in items:
        odd = sums[1::2]
        sums = [*map(add, sums[::2], odd), *odd]
    shares = {x: Fraction(x, den) for x in set(sums)}
    return dict(zip(keys, map(shares.__getitem__, sums)))


def statistic_table(
    h: PermHomomorphism, universe: ElementSet
) -> dict[frozenset, Fraction]:
    """The full table ``{T -> S(T, F minus T)}`` over subsets of ``F``.

    The points are split once per element of ``F``: the mask of subset
    ``T`` holds the points fixed by exactly the elements of ``T``.  Each
    share is the trace's memoized ``Fraction`` of its count.  Word
    elements key the table as parsed tuples.  A universe of more than
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
        parts = [p & ~m for p in parts] + [p & m for p in parts]
    degree = trace.hom.degree
    if degree:
        counts = list(map(int.bit_count, parts))
        memo = trace._shares
        for c in set(counts).difference(memo):
            memo[c] = Fraction(c, degree)
        shares = map(memo.__getitem__, counts)
    else:  # no points: S(T, F minus T) = 1 exactly for T = F
        shares = [Fraction(0)] * (len(parts) - 1) + [Fraction(1)]
    return dict(zip(_subsets(items), shares))


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
        out += [T | {x} for T in out]
    return out
