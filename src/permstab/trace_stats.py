"""Fixed-point statistics of finite permutation actions.

For a homomorphism ``h`` and finite element sets ``A``, ``B``:

* the action trace ``Tr(A)`` is the fraction of points fixed by every
  image of ``A``;
* the local statistic ``S(A, B)`` (Benjamini-Schramm statistic) is the
  fraction of points fixed by all of ``A`` and moved by all of ``B``.

Both determine each other by inclusion-exclusion:
``S(A,B) = sum over V subset of B of (-1)^|V| * Tr(A union V)`` and
``Tr(A) = S(A, {})``.

Elements are ids for ``FiniteGroup`` sources and words (strings or parsed
tuples) for ``FpGroup`` sources.  Words are compared syntactically; the
underlying group equality is never decided, which leaves every value
well-defined because only the evaluated permutations enter the counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import BoundExceededError, PermStabError
from .groups import FiniteGroup, PermHomomorphism, evaluate_word, parse_word

DEFAULT_MOVED_SET_BOUND = 20

ElementSet = Iterable  # ids (int) or words (str | Word)


def _canonical_elements(h: PermHomomorphism, A: ElementSet) -> tuple:
    """Normalize an element set to a sorted, hashable tuple."""
    if isinstance(h.source, FiniteGroup):
        out = set()
        for a in A:
            a = int(a)
            if not 0 <= a < h.source.order:
                raise PermStabError(f"element id {a} outside the source group")
            out.add(a)
        return tuple(sorted(out))
    words = set()
    for w in A:
        if isinstance(w, str):
            w = parse_word(w, h.source.generators)
        else:
            w = tuple(w)
        words.add(w)
    return tuple(sorted(words))


class ActionTrace:
    """Evaluator of ``Tr`` for one homomorphism.

    Values are exact rationals with denominator dividing the degree.  The
    fixed-point mask of each element is memoized, so a trace is one AND
    per element of the set; :meth:`query_counts` answers a whole batch of
    statistic queries over one element list.
    """

    def __init__(self, h: PermHomomorphism):
        self.hom = h
        self._full = (1 << h.degree) - 1
        self._mask_memo: dict = {}

    def _mask_of(self, element) -> int:
        m = self._mask_memo.get(element)
        if m is None:
            if isinstance(self.hom.source, FiniteGroup):
                m = self._mask_memo[element] = self.hom.images[element].fixed_mask()
            else:
                self._evaluate_words((element,))
                m = self._mask_memo[element]
        return m

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

        ``elements`` are canonical (ids, or word tuples); each is evaluated
        once, so a count is a few ANDs and one ``bit_count``.
        """
        if not isinstance(self.hom.source, FiniteGroup):
            self._evaluate_words(elements)
        full = self._full
        fixed = [self._mask_of(el) for el in elements]
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

    def _common_mask(self, elements: tuple) -> int:
        """Points fixed by every element of a canonical element tuple."""
        mask = self._full
        for el in elements:
            mask &= self._mask_of(el)
        return mask

    def fixed_count(self, A: ElementSet) -> int:
        """Number of points fixed by every image of ``A``."""
        return self._common_mask(_canonical_elements(self.hom, A)).bit_count()

    def value(self, A: ElementSet) -> Fraction:
        if self.hom.degree == 0:
            return Fraction(1)
        return Fraction(self.fixed_count(A), self.hom.degree)

    def statistic_count(self, A: ElementSet, B: ElementSet) -> int:
        """Number of points fixed by all of ``A`` and moved by all of ``B``."""
        mask = self._common_mask(_canonical_elements(self.hom, A))
        for el in _canonical_elements(self.hom, B):
            mask &= self._full & ~self._mask_of(el)
        return mask.bit_count()


def get_trace(h: PermHomomorphism) -> ActionTrace:
    return h.trace


def action_trace(h: PermHomomorphism, A: ElementSet) -> Fraction:
    """Fraction of points fixed simultaneously by every image of ``A``."""
    return get_trace(h).value(A)


def bs_statistic(h: PermHomomorphism, A: ElementSet, B: ElementSet) -> Fraction:
    """Fraction of points fixed by all of ``A`` and moved by all of ``B``.

    Overlapping ``A`` and ``B`` force the value 0.
    """
    if h.degree == 0:
        return Fraction(1) if not tuple(B) else Fraction(0)
    return Fraction(get_trace(h).statistic_count(A, B), h.degree)


def s_from_tr(trace: ActionTrace, A: ElementSet, B: ElementSet) -> Fraction:
    """``S(A, B)`` from trace values alone, by inclusion-exclusion."""
    h = trace.hom
    A = _canonical_elements(h, A)
    B = _canonical_elements(h, B)
    if len(B) > DEFAULT_MOVED_SET_BOUND:
        raise BoundExceededError(
            f"moved set of size {len(B)} exceeds bound {DEFAULT_MOVED_SET_BOUND}"
        )
    if h.degree == 0:
        return Fraction(1) if not B else Fraction(0)
    # one (fixed mask of A u V, (-1)^|V|) pair per subset V of B
    terms = [(trace._common_mask(A), 1)]
    for b in B:
        mb = trace._mask_of(b)
        terms += [(mask & mb, -sign) for mask, sign in terms]
    total = sum(sign * mask.bit_count() for mask, sign in terms)
    return Fraction(total, h.degree)


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
    items = _canonical_elements(h, universe)
    subsets = _subsets(items)
    if h.degree == 0:  # bs_statistic's convention: S(F, {}) = 1, else 0
        return {T: Fraction(int(T == subsets[-1])) for T in subsets}
    trace = get_trace(h)
    masks = [trace._mask_of(el) for el in items]
    counts = [0] * len(subsets)
    for x in range(h.degree):
        counts[sum(1 << i for i, m in enumerate(masks) if m >> x & 1)] += 1
    return {T: Fraction(c, h.degree) for T, c in zip(subsets, counts)}


def _subsets(items: Sequence) -> list[frozenset]:
    """All subsets of ``items``; subset ``s`` holds ``items[i]`` iff bit
    ``i`` of ``s`` is set."""
    out = [frozenset()]
    for x in items:
        out += [T | {x} for T in out]
    return out
