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
tuples) for ``FpGroup`` sources.  Words are compared syntactically; the
underlying group equality is never decided, which leaves every value
well-defined because only the evaluated permutations enter the counts.
Each public function canonicalizes its element sets once, on entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import BoundExceededError, PermStabError
from .groups import FiniteGroup, PermHomomorphism, evaluate_word, parse_word

DEFAULT_MOVED_SET_BOUND = 20

ElementSet = Iterable  # ids (int) or words (str | Word)


def _canonical_elements(h: PermHomomorphism, A: ElementSet) -> set:
    """An element set as a set of ids in the source group, or of word tuples."""
    if isinstance(h.source, FiniteGroup):
        ids = set(A)
        if ids and not 0 <= min(ids) <= max(ids) < h.source.order:
            bad = min(ids) if min(ids) < 0 else max(ids)
            raise PermStabError(f"element id {bad} outside the source group")
        return ids
    gens = h.source.generators
    return {parse_word(w, gens) if isinstance(w, str) else tuple(w) for w in A}


def _share(h: PermHomomorphism, count: int, moved) -> Fraction:
    """``count`` points of ``h.degree``; with no points, ``S(A, B) = 1``
    exactly when ``B`` (``moved``, or its size) is empty."""
    if h.degree == 0:
        return Fraction(int(not moved))
    return Fraction(count, h.degree)


class ActionTrace:
    """Counts of points fixed by one element set and moved by another, for
    one homomorphism.

    Every count reads one store of fixed-point masks, ``_mask_memo``: for
    a table source, a list indexed by element id, built with the trace;
    for a presentation source, a dict keyed by word tuple, to which each
    word's mask is added the first time it is asked for.  A count is then
    a few ANDs and one ``bit_count``; :meth:`query_counts` answers a
    whole batch of queries over one element list.
    """

    def __init__(self, h: PermHomomorphism):
        self.hom = h
        self._full = (1 << h.degree) - 1
        if isinstance(h.source, FiniteGroup):
            self._mask_memo: list | dict = [p.fixed_mask() for p in h.images]
        else:
            self._mask_memo = {}

    def masks(self, elements: Iterable) -> list[int]:
        """The fixed-point mask of each canonical element, in order."""
        store = self._mask_memo
        if isinstance(store, dict):
            self._evaluate_words(elements)
        out = []  # a loop: a comprehension is one more call on Python 3.11
        for e in elements:
            out.append(store[e])
        return out

    def _evaluate_words(self, words: Iterable) -> None:
        """Memoize the fixed-point mask of each word tuple.

        A word is one composition from its longest suffix already
        evaluated, ``P(w) = P(w[:1]) * P(w[1:])`` (``evaluate_word``'s
        convention), so words that share suffixes share the products.  The
        suffix images live only for this call; only the masks are kept.
        """
        memo = self._mask_memo
        perms: dict = {}  # image of each suffix and one-letter word seen
        for w in words:
            if w in memo:
                continue
            k = 0
            while k < len(w) and w[k:] not in perms:
                k += 1
            p = perms.get(w[k:])  # None: no suffix of ``w`` evaluated yet
            for j in range(k - 1, -1, -1):
                letter = w[j : j + 1]
                f = perms.get(letter)
                if f is None:
                    f = perms[letter] = evaluate_word(self.hom, letter)
                p = perms[w[j:]] = f if p is None else f * p
            memo[w] = self._full if p is None else p.fixed_mask()

    def query_counts(
        self, elements: Sequence, queries: Iterable[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        """Per ``(fixed_idx, moved_idx)`` query, the number of points fixed
        by ``elements[i]`` for every ``i`` in ``fixed_idx`` and moved by
        ``elements[j]`` for every ``j`` in ``moved_idx``.

        ``elements`` are canonical (ids, or word tuples); each mask is read
        once, so a count is a few ANDs and one ``bit_count``.
        """
        full = self._full
        fixed = self.masks(elements)
        moved = [full ^ m for m in fixed]
        counts = []
        for fixed_idx, moved_idx in queries:
            mask = full
            for i in fixed_idx:
                mask &= fixed[i]
            for j in moved_idx:
                mask &= moved[j]
            counts.append(mask.bit_count())
        return counts

    def _count(self, A: Iterable, B: Iterable) -> int:
        """:meth:`statistic_count` of canonical sets."""
        mask = self._full
        for m in self.masks(A):
            mask &= m
        for m in self.masks(B):
            mask &= ~m
        return mask.bit_count()

    def statistic_count(self, A: ElementSet, B: ElementSet) -> int:
        """Number of points fixed by all of ``A`` and moved by all of ``B``."""
        h = self.hom
        return self._count(_canonical_elements(h, A), _canonical_elements(h, B))

    def value(self, A: ElementSet) -> Fraction:
        """``Tr(A)``."""
        return _share(self.hom, self._count(_canonical_elements(self.hom, A), ()), ())


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
    A, B = _canonical_elements(h, A), _canonical_elements(h, B)
    return _share(h, h.trace._count(A, B), B)


def s_from_tr(trace: ActionTrace, A: ElementSet, B: ElementSet) -> Fraction:
    """``S(A, B)`` from trace values alone, by inclusion-exclusion."""
    h = trace.hom
    A, B = _canonical_elements(h, A), _canonical_elements(h, B)
    if len(B) > DEFAULT_MOVED_SET_BOUND:
        raise BoundExceededError(
            f"moved set of size {len(B)} exceeds bound {DEFAULT_MOVED_SET_BOUND}"
        )
    common = trace._full
    for m in trace.masks(A):
        common &= m
    # one (fixed mask of A u V, (-1)^|V|) pair per subset V of B
    terms = [(common, 1)]
    for mb in trace.masks(B):
        terms += [(mask & mb, -sign) for mask, sign in terms]
    return _share(h, sum(sign * mask.bit_count() for mask, sign in terms), B)


def tr_from_s(
    stats: Mapping[frozenset, Fraction], universe: ElementSet
) -> dict[frozenset, Fraction]:
    """Recover ``Tr`` on all subsets of a finite set ``F`` from the full
    statistic table ``{T -> S(T, F minus T)}``.

    ``stats`` must contain an entry for every subset of ``universe``;
    then ``Tr(A) = sum over T containing A of S(T, F minus T)``: one
    superset-sum pass per element, on integers over a common denominator.
    """
    items = sorted(frozenset(universe), key=repr)
    subsets = _subsets(items)
    missing = [T for T in subsets if T not in stats]
    if missing:
        raise PermStabError(
            f"statistic table is incomplete: missing entry for {set(missing[0])}"
        )
    den = lcm(*(stats[T].denominator for T in subsets))
    sums = [stats[T].numerator * (den // stats[T].denominator) for T in subsets]
    for i in range(len(items)):
        for s in range(len(sums)):
            if not s >> i & 1:
                sums[s] += sums[s | 1 << i]
    return {T: Fraction(x, den) for T, x in zip(subsets, sums)}


def statistic_table(
    h: PermHomomorphism, universe: ElementSet
) -> dict[frozenset, Fraction]:
    """The full table ``{T -> S(T, F minus T)}`` over subsets of ``F``.

    One pass over the points: each point counts towards the subset of
    elements of ``F`` that fix it.
    """
    items = sorted(_canonical_elements(h, universe))
    subsets = _subsets(items)
    masks = h.trace.masks(items)
    counts = [0] * len(subsets)
    for x in range(h.degree):
        counts[sum(1 << i for i, m in enumerate(masks) if m >> x & 1)] += 1
    return {T: _share(h, c, len(items) - len(T)) for T, c in zip(subsets, counts)}


def _subsets(items: Sequence) -> list[frozenset]:
    """All subsets of ``items``; subset ``s`` holds ``items[i]`` iff bit
    ``i`` of ``s`` is set."""
    out = [frozenset()]
    for x in items:
        out += [T | {x} for T in out]
    return out
