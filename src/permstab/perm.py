"""Exact permutation arithmetic on ``{1..n}``.

Permutations are immutable, 1-indexed, and compose as functions acting on
the left: ``(p * q)(i) = p(q(i))``.  All metric quantities are exact
``fractions.Fraction`` values; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Iterator

from .errors import DegreeMismatchError, PermutationParseError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[,\s]+")
_INT_RE = re.compile(r"-?[0-9]+")
_new = object.__new__
_set = object.__setattr__
_ZEROS = bytearray(b"0")  # copied, never changed


class Permutation:
    """A bijection of ``{1..n}`` stored in one-line form.

    ``images[i-1]`` is the image of point ``i``.  Degree 0 (the empty
    bijection) is permitted.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise PermutationParseError(
                f"images {images!r} are not a bijection of {{1..{n}}}"
            )
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap ``images`` without the bijection check.

        Only for tuples that are bijections by construction, such as the
        composition of two permutations.
        """
        p = _new(cls)
        _set(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-action composition: apply ``other`` first, then ``self``."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DegreeMismatchError(
                f"cannot compose degrees {len(a)} and {len(b)}"
            )
        return Permutation._trusted(tuple([a[j - 1] for j in b]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, 1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k == 0:
            return Permutation.identity(self.degree)
        base = self.inverse() if k < 0 else self
        k = abs(k)
        result = None
        while True:  # square-and-multiply without identity or spare squares
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.images, 1) if i == j)

    def fixed_mask(self) -> int:
        """Bitmask with bit ``i-1`` set iff point ``i`` is fixed, read from its
        binary digits in time linear in the degree (``|=`` per point is not)."""
        m = len(self.images) + 1
        digits = _ZEROS * m  # a leading "0", then bit n-1 down to bit 0
        for i, j in enumerate(self.images, 1):
            if i == j:
                digits[m - i] = 49  # ord("1")
        return int(digits, 2)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.images, 1) if i != j)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted by it."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                seen[j - 1] = True
                cyc.append(j)
                j = self(j)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths (fixed points included), ascending."""
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def one_line_str(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"

    def cycle_str(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def _int_tokens(tokens: list[str]) -> list[int]:
    """The integers that ``tokens`` write in ASCII as ``-?[0-9]+``, or
    ``ValueError``: Python's ``int`` also reads ``1_0``, ``+2`` and
    non-ASCII digits such as ``"٣"``."""
    if not all(map(_INT_RE.fullmatch, tokens)):
        raise ValueError(f"non-integer token in {tokens!r}")
    return list(map(int, tokens))


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse one-line ``[2,1,3]`` or cycle ``(1 2)(3 4)`` notation.

    The degree is explicit; points mentioned must lie in ``{1..degree}``
    and points absent from cycle notation are fixed.
    """
    if degree < 0:
        raise PermutationParseError("degree must be nonnegative")
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise PermutationParseError(f"unterminated one-line form: {text!r}")
        body = text[1:-1].strip()
        entries = [t for t in _SEP_RE.split(body) if t] if body else []
        try:
            images = _int_tokens(entries)
        except ValueError:
            raise PermutationParseError(f"non-integer entry in {text!r}") from None
        if len(images) != degree:
            raise PermutationParseError(
                f"one-line form lists {len(images)} images, degree is {degree}"
            )
        return Permutation(images)
    if text == "" or text == "()":
        return Permutation.identity(degree)
    consumed = _CYCLE_RE.sub("", text).strip()
    if consumed:
        raise PermutationParseError(f"unparsable permutation text: {text!r}")
    images = list(range(1, degree + 1))
    touched: set[int] = set()
    for match in _CYCLE_RE.finditer(text):
        body = match.group(1).strip()
        if not body:
            continue
        try:
            pts = _int_tokens(_SEP_RE.split(body))
        except ValueError:
            raise PermutationParseError(f"non-integer point in {text!r}") from None
        for p in pts:
            if not 1 <= p <= degree:
                raise PermutationParseError(f"point {p} out of range 1..{degree}")
            if p in touched:
                raise PermutationParseError(f"point {p} appears in two cycles")
            touched.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Permutation._trusted(tuple(images))


def hamming_distance(p: Permutation, q: Permutation) -> Fraction:
    """Fraction of points where ``p`` and ``q`` disagree (bi-invariant)."""
    if p.degree != q.degree:
        raise DegreeMismatchError(
            f"degrees differ: {p.degree} vs {q.degree}"
        )
    if p.degree == 0:
        return Fraction(0)
    diff = sum(1 for a, b in zip(p.images, q.images) if a != b)
    return Fraction(diff, p.degree)


def normalized_trace(p: Permutation) -> Fraction:
    """Fraction of fixed points; equals ``1 - hamming_distance(p, id)``.

    The degree-0 permutation has trace 1 by convention (empty action).
    """
    if p.degree == 0:
        return Fraction(1)
    return Fraction(len(p.fixed_points()), p.degree)


def direct_sum(p: Permutation, q: Permutation) -> Permutation:
    """Act as ``p`` on the first block and as ``q`` shifted on the second."""
    n = p.degree
    return Permutation._trusted(p.images + tuple([x + n for x in q.images]))


def replicate(p: Permutation, s: int) -> Permutation:
    """``s``-fold direct sum of ``p`` with itself; trace is preserved."""
    if s < 1:
        raise PermutationParseError(f"replication count must be >= 1, got {s}")
    n = p.degree
    images = []
    for block in range(s):
        shift = block * n
        images.extend(x + shift for x in p.images)
    return Permutation._trusted(tuple(images))


def restrict(p: Permutation, points: Iterable[int]) -> Permutation:
    """Restriction of ``p`` to an invariant point set, renumbered 1..k.

    ``points`` must be distinct points of ``{1..degree}``, invariant under
    ``p``; order is the ascending order of the original labels.
    """
    pts = sorted(points)
    index = {x: i + 1 for i, x in enumerate(pts)}
    if len(index) != len(pts) or (pts and not 1 <= pts[0] <= pts[-1] <= p.degree):
        raise DegreeMismatchError(
            f"points {pts} are not distinct points of 1..{p.degree}"
        )
    try:
        return Permutation._trusted(tuple([index[p(x)] for x in pts]))
    except KeyError as exc:
        raise DegreeMismatchError(
            f"point set {pts} is not invariant under {p!r}"
        ) from exc


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of the symmetric group on ``{1..n}``, lexicographically."""
    for images in permutations(range(1, n + 1)):
        yield Permutation._trusted(images)
