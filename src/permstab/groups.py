"""Finite groups by multiplication table, finitely presented groups by
word evaluation, and verified homomorphisms into symmetric groups.

Finite groups store their full multiplication table with elements named
``0..order-1`` and a greedy generating set (at most ``log2 |G|`` ids);
homomorphism checks, orbits, conjugators and normality tests run on its
images (:func:`generator_images`).  ``FiniteGroup(table)`` checks the
axioms; tables built here are groups by construction and skip them.
Finitely presented groups support only word evaluation and relator
checking (no word problem, no coset enumeration).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import groupby
from math import isqrt
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    BoundExceededError,
    GroupTableError,
    NotSubgroupError,
    SourceMismatchError,
    WordError,
    all_ints,
    cut,
    echo,
)
from .perm import Permutation, direct_sum, restrict
from .record import Record

DEFAULT_CLOSURE_BOUND = 5_040  # |S7|, whose table builds in about 2 s and 215 MB
DEFAULT_SUBGROUP_ORDER_BOUND = 200
# image entries (images times degree) one value built from input may hold:
# a lift, a homomorphism file, the elements of a perm-gens closure, the
# two permutations of a correction.  The largest lifts of a degree-13
# homomorphism admitted (two images of degree 499,993, or one of degree
# 999,999) take about 1 s and 100 MB as a `perm-stab lift` request
DEFAULT_LIFT_SIZE_BOUND = 1_000_000


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[a][b]`` is the product ``a * b``.  The identity and inverse
    table are derived, the element ids of a ``generating_set`` are picked,
    and the public constructor verifies the group axioms.
    """

    __slots__ = ("order", "table", "identity", "inverses", "generating_set", "_hash")

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in rows):
            raise GroupTableError("multiplication table must be square")
        elems = set(range(n))
        for row in rows:
            if not all_ints(row):  # 1.0 and True pass the bijection test
                raise GroupTableError(f"table row {echo(row)} holds a non-int value")
            if set(row) != elems:
                raise GroupTableError("each table row must be a bijection")
        cols = tuple(zip(*rows))
        for col in cols:
            if set(col) != elems:
                raise GroupTableError("each table column must be a bijection")
        ident = tuple(range(n))
        identity = next((e for e in range(n) if rows[e] == cols[e] == ident), None)
        if identity is None:
            raise GroupTableError("table has no identity element")
        self._fill(rows, identity)
        _check_associative(rows, self.generating_set)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], identity: int) -> "FiniteGroup":
        """Wrap ``rows``, a tuple of tuples that is a group by construction."""
        G = object.__new__(cls)
        G._fill(rows, identity)
        return G

    def _fill(self, rows, identity) -> None:
        # an associative Latin square with an identity is a group, so the
        # right inverse in each row is two-sided
        inverses = tuple(row.index(identity) for row in rows)
        object.__setattr__(self, "order", len(rows))
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "generating_set", _generating_set(rows, identity))
        object.__setattr__(self, "_hash", hash(rows))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conjugate(self, g: int, x: int) -> int:
        """``g * x * g^-1``."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _generating_set(rows: tuple[tuple[int, ...], ...], e: int) -> tuple[int, ...]:
    """Greedy picks: each element not yet reached from ``e`` by right products
    with the earlier picks; in a group at most ``log2 n``, which generate it."""
    reached = {e}
    gens: list[int] = []
    for g in range(len(rows)):
        if g in reached:
            continue
        gens.append(g)
        new = {rows[x][g] for x in reached} - reached
        while new:
            reached |= new
            new = {rows[x][h] for x in new for h in gens} - reached
    return tuple(gens)


def _check_associative(rows: tuple[tuple[int, ...], ...], gens: tuple[int, ...]) -> None:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.4).

    The elements ``g`` with ``(x g) y == x (g y)`` for all ``x, y`` are
    closed under the product, so the table is associative once that holds
    for a set whose products reach every element, such as the picks of
    :func:`_generating_set`.  Each pick is checked in O(n^2), so this
    costs O(n^2 log n) where a check of every triple costs O(n^3).
    """
    n = len(rows)
    for g in gens:
        g_row = rows[g]
        for x in range(n):
            row = rows[x]
            xg_row = rows[row[g]]
            if xg_row != tuple(map(row.__getitem__, g_row)):
                y = next(y for y in range(n) if xg_row[y] != row[g_row[y]])
                raise GroupTableError(f"associativity fails at ({x},{g},{y})")


class Subgroup(Record):
    """A subgroup of ``parent`` as a sorted tuple of element ids."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        mems = tuple(members)
        for a in mems:  # every id an int before the ids are sorted
            if type(a) is not int:
                raise NotSubgroupError(f"element id {echo(a)} out of range")
        mset = set(mems)
        mems = tuple(sorted(mset))
        if parent.identity not in mset:
            raise NotSubgroupError("member set lacks the identity")
        for a in mems:  # every id in range before any product
            if not 0 <= a < parent.order:
                raise NotSubgroupError(f"element id {a} out of range")
        for a in mems:
            if parent.inv(a) not in mset:
                raise NotSubgroupError(f"member set not closed under inverse ({a})")
            for b in mems:
                if parent.mul(a, b) not in mset:
                    raise NotSubgroupError(
                        f"member set not closed under product ({a},{b})"
                    )
        super().__init__(parent, mems)

    @classmethod
    def _trusted(cls, parent: FiniteGroup, members: Iterable[int]) -> "Subgroup":
        """Wrap distinct ``members`` without the subgroup check.

        Only for member sets that are subgroups by construction, such as a
        closure or a point stabilizer.
        """
        return super()._trusted(parent, tuple(sorted(members)))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The abstract group of this subgroup plus the embedding.

        Returns ``(H, emb)`` where ``emb[i]`` is the parent id of the
        i-th member (members in ascending order).  Built once per instance.
        """
        return self._abstract

    @cached_property
    def _abstract(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        emb = self.members
        pos = {g: i for i, g in enumerate(emb)}
        table = self.parent.table
        rows = tuple(tuple([pos[table[a][b]] for b in emb]) for a in emb)
        return FiniteGroup._trusted(rows, pos[self.parent.identity]), emb


def _cyclic(G: FiniteGroup, g: int) -> frozenset[int]:
    """``<g>``, the powers of ``g`` up to ``G.identity``."""
    powers = [g]
    while powers[-1] != G.identity:
        powers.append(G.table[powers[-1]][g])
    return frozenset(powers)


# ---------------------------------------------------------------------------
# constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupTableError("table has no identity element")
    return FiniteGroup._trusted(tuple(tuple(range(i, n)) + tuple(range(i)) for i in range(n)), 0)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Elements packed as ``a * |H| + b``."""
    m = H.order
    rows = tuple(tuple([a * m + b for a in g_row for b in h_row])
                 for g_row in G.table for h_row in H.table)
    return FiniteGroup._trusted(rows, G.identity * m + H.identity)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def _check_size(what: str, count: int, degree: int) -> None:
    """Refuse ``count`` permutations of ``degree`` points, before any is
    built, if they hold more than ``DEFAULT_LIFT_SIZE_BOUND`` image entries."""
    if count * degree > DEFAULT_LIFT_SIZE_BOUND:
        raise BoundExceededError(
            f"{what} hold {count} x {degree} = {count * degree} image entries,"
            f" bound is {DEFAULT_LIFT_SIZE_BOUND}"
        )


def group_from_permutations(
    gens: Sequence[Permutation],
) -> tuple[FiniteGroup, "PermHomomorphism"]:
    """Close ``gens`` under composition and return the abstract table
    together with the defining (faithful) permutation homomorphism.

    Element ids follow the lexicographic order of one-line images, which
    places the identity at id 0.  Rows fill from the identity by generator
    columns ``col_s[p] = id(s*p)``, as ``row(s*a) = col_s[row(a)]``."""
    if not gens:
        raise GroupTableError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise GroupTableError("generators must share a degree")
    # elements are one-line image tuples: (p*q)(i) = p(q(i)) is p[q[i-1] - 1]
    ident = tuple(range(1, degree + 1))
    gen_images = [g.images for g in gens]
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gen_images:
                q = tuple([g[j - 1] for j in p])
                if q not in elems:
                    if len(elems) >= DEFAULT_CLOSURE_BOUND:
                        raise BoundExceededError(
                            f"group order exceeds bound {DEFAULT_CLOSURE_BOUND}"
                        )
                    _check_size("closure elements", len(elems) + 1, degree)
                    elems.add(q)
                    new.append(q)
        frontier = new
    ordered = sorted(elems)
    pos = {p: i for i, p in enumerate(ordered)}
    cols = [[pos[tuple([g[j - 1] for j in p])] for p in ordered] for g in gen_images]
    rows: list = [tuple(range(len(ordered)))] + [None] * (len(ordered) - 1)
    queue = [0]
    for a in queue:  # grows in breadth-first order while iterated
        for col in cols:
            if rows[c := col[a]] is None:
                rows[c] = tuple(map(col.__getitem__, rows[a]))
                queue.append(c)
    G = FiniteGroup._trusted(tuple(rows), 0)
    return G, PermHomomorphism._trusted(G, degree, tuple(map(Permutation._trusted, ordered)))


def symmetric_group(n: int) -> tuple[FiniteGroup, "PermHomomorphism"]:
    if n <= 1:
        return group_from_permutations([Permutation.identity(max(n, 1))])
    gens = [
        Permutation([2, 1] + list(range(3, n + 1))),
        Permutation(list(range(2, n + 1)) + [1]),
    ]
    return group_from_permutations(gens)


def dihedral_group(n: int) -> tuple[FiniteGroup, "PermHomomorphism"]:
    """Symmetries of the regular n-gon, acting on its vertices."""
    rot = Permutation(list(range(2, n + 1)) + [1])
    refl = Permutation([1] + list(range(n, 1, -1)))
    return group_from_permutations([rot, refl])


def quaternion_group() -> tuple[FiniteGroup, "PermHomomorphism"]:
    """Order-8 quaternion group in its regular representation."""
    a = Permutation([2, 3, 4, 1, 6, 7, 8, 5])  # (1 2 3 4)(5 6 7 8)
    b = Permutation([5, 8, 7, 6, 3, 2, 1, 4])  # (1 5 3 7)(2 8 4 6)
    return group_from_permutations([a, b])


# ---------------------------------------------------------------------------
# subgroup machinery


class SubgroupClasses(Record):
    """Conjugacy classes of subgroups of a finite group.

    ``classes[i]`` is the sorted tuple of member-sets in class ``i``, led by
    its canonical representative; classes ascend by representative.
    """

    group: FiniteGroup
    classes: tuple[tuple[frozenset[int], ...], ...]

    @cached_property
    def class_of(self) -> dict[frozenset[int], int]:
        """The class of each member-set."""
        return {S: i for i, orbit in enumerate(self.classes) for S in orbit}

    def representative(self, class_id: int) -> Subgroup:
        return Subgroup._trusted(self.group, self.classes[class_id][0])

    def class_id(self, members: Iterable[int]) -> int:
        try:
            return self.class_of[frozenset(members)]
        except KeyError:
            raise NotSubgroupError("member set is not a subgroup") from None

    def __len__(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=32)
def subgroup_conjugacy_classes(G: FiniteGroup) -> SubgroupClasses:
    """The subgroups of ``G`` in classes under conjugation by ``G``.

    Every subgroup is cyclic or the join of a smaller subgroup with a
    cyclic one ``<c>``, the powers of ``c`` (:func:`_cyclic`), and
    ``<S^g, c> = <S, c^(g^-1)>^g``.  So joining one member of each class
    with every cyclic subgroup reaches every class: the cyclic extension
    method (Neubüser, *Numer. Math.* 2, 1960).  Each class is walked
    breadth-first, when its first member is found, by conjugation with
    ``generating_set``; that member keeps the generators it was reached
    by, and its join ``T = <S, c>`` is closed as a union of right cosets
    of ``S`` (:func:`_join`; Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005).  ``T`` is also the join of ``S``
    with each generator of ``<x>`` for ``x`` in ``S c S``, and, at a prime
    index over ``S``, with each ``x`` in ``T`` outside ``S``: those joins
    are skipped, which finds the same classes in the same order.

    Raises ``BoundExceededError`` above ``DEFAULT_SUBGROUP_ORDER_BOUND``.
    """
    if G.order > DEFAULT_SUBGROUP_ORDER_BOUND:
        raise BoundExceededError(
            f"group order {G.order} exceeds subgroup-enumeration bound "
            f"{DEFAULT_SUBGROUP_ORDER_BOUND}"
        )
    cyclic: dict[frozenset[int], int] = {}  # one generator per distinct <g>
    listed = [cyclic.setdefault(_cyclic(G, g), g) for g in G.elements()]
    found: set[frozenset[int]] = set()
    orbits: list[list[frozenset[int]]] = []
    firsts: list[tuple[frozenset[int], tuple[int, ...]]] = []
    conjugations = [[G.conjugate(g, x) for x in G.elements()] for g in G.generating_set]
    columns = tuple(zip(*G.table))  # columns[x][s] is s x

    def record(S: frozenset[int], gens: tuple[int, ...]) -> None:
        found.add(S)
        orbit = [S]
        for T in orbit:
            for conjugation in conjugations:
                U = frozenset(map(conjugation.__getitem__, T))
                if U not in found:
                    found.add(U)
                    orbit.append(U)
        orbits.append(orbit)
        firsts.append((S, gens))

    for S, c in cyclic.items():
        if S not in found:
            record(S, (c,))
    for S, gens in firsts:  # grows while iterated
        if len(S) == 1:  # the trivial subgroup joins c to <c>, recorded
            continue
        coset = itemgetter(*S)  # S x is coset(columns[x])
        covered = set(S)  # the elements whose join with S is known
        for c in cyclic.values():
            if c not in covered:
                T = _join(G, S, gens + (c,), coset, columns)
                index = len(T) // len(S)  # at least 2: c is not in S
                if all(index % d for d in range(2, isqrt(index) + 1)):  # prime
                    covered |= T
                else:
                    double = set()  # S c S, a union of left cosets y S for y in S c
                    for y in coset(columns[c]):
                        if y not in double:
                            double.update(coset(G.table[y]))
                    covered.update(map(listed.__getitem__, double))
                if T not in found:
                    record(T, gens + (c,))
    classes = sorted(
        (tuple(sorted(orbit, key=sorted)) for orbit in orbits),
        key=lambda orbit: (len(orbit[0]), sorted(orbit[0])),
    )
    return SubgroupClasses(G, tuple(classes))


def _join(G: FiniteGroup, S: frozenset[int], gens: tuple, coset, columns) -> frozenset[int]:
    """The subgroup that ``gens`` generate, generators of ``S`` and more,
    as right cosets ``S y = coset(columns[y])`` (Dimino's method): one
    membership test per representative ``y`` and generator ``g`` of ``y g``."""
    members = set(S)
    reps = [G.identity]
    products = itemgetter(*gens)  # y g for each generator g, from y's row
    for y in reps:
        for x in products(G.table[y]):
            if x not in members:
                members.update(coset(columns[x]))
                if 2 * len(members) > G.order:  # a subgroup that large is G
                    return frozenset(G.elements())
                reps.append(x)
    return frozenset(members)


def coset_action(N: Subgroup) -> "PermHomomorphism":
    """Action of ``N.parent`` on the left cosets of ``N``, as a degree-[G:N]
    homomorphism.  Cosets are numbered by ascending least member, and the
    stabilizer of the point carrying the coset ``N`` is exactly ``N``."""
    G = N.parent
    point = {}  # element -> the number of its coset
    reps = []  # per coset, its least member
    for g in G.elements():  # ascending, so the first of a coset met is its least
        if g not in point:
            reps.append(g)
            for h in N.members:
                point[G.mul(g, h)] = len(reps)
    images = [Permutation._trusted(tuple([point[G.mul(g, r)] for r in reps])) for g in G.elements()]
    return PermHomomorphism._trusted(G, len(reps), tuple(images))


# ---------------------------------------------------------------------------
# presentations and words


Word = tuple[tuple[int, int], ...]  # (generator index, exponent != 0)

_LETTER_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?[0-9]+))?$")


class FpGroup(Record):
    """A finitely presented group: generator names plus relator words,
    given as :func:`parse_word` strings and kept parsed.

    Only word evaluation and relator checking are supported.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __init__(self, generators: Sequence[str], relators: Iterable[str] = ()):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise WordError("duplicate generator names")
        super().__init__(gens, tuple(parse_word(r, gens) for r in relators))


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse space-separated ``name^exp`` syntax (bare name means exp 1)."""
    pos = {name: i for i, name in enumerate(generators)}
    out = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise WordError(f"invalid word token {echo(token)}")
        name, exp = m.group(1), m.group(2)
        if name not in pos:
            raise WordError(f"unknown generator {echo(name)}")
        try:
            e = int(exp) if exp is not None else 1
        except ValueError:  # more digits than the interpreter reads as an int
            raise WordError(f"exponent of word token {echo(token)} has too many digits") from None
        if e != 0:
            out.append((pos[name], e))
    return tuple(out)


def format_word(word: Word, generators: Sequence[str]) -> str:
    parts = []
    for idx, exp in word:
        parts.append(generators[idx] if exp == 1 else f"{generators[idx]}^{exp}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# homomorphisms


class PermHomomorphism(Record):
    """A homomorphism into the symmetric group of a fixed degree.

    For a ``FiniteGroup`` source, ``images`` maps every element id to a
    permutation; for an ``FpGroup`` source, it maps each generator (by
    position).  Construction checks shapes only; use
    :func:`check_homomorphism` for the algebraic verification.
    """

    source: Union[FiniteGroup, FpGroup]
    degree: int
    images: tuple[Permutation, ...]

    def __init__(
        self,
        source: Union[FiniteGroup, FpGroup],
        degree: int,
        images: tuple[Permutation, ...],
    ):
        if isinstance(source, FiniteGroup):
            expected = source.order
        else:
            expected = len(source.generators)
        if len(images) != expected:
            raise SourceMismatchError(
                f"expected {expected} images, got {len(images)}"
            )
        for p in images:
            if p.degree != degree:
                raise SourceMismatchError(
                    f"image degree {p.degree} differs from {degree}"
                )
        super().__init__(source, degree, images)

    @cached_property
    def trace(self):
        """The :class:`~permstab.trace_stats.ActionTrace` of this homomorphism,
        built on first use; its fixed-point masks live as long as ``self``."""
        from .trace_stats import ActionTrace

        return ActionTrace(self)


def evaluate_word(h: PermHomomorphism, word: Union[str, Word]) -> Permutation:
    """Product of generator images per the word's signed exponents, one
    power per run of one generator (its exponents summed; none for 0)."""
    if isinstance(word, str):
        if not isinstance(h.source, FpGroup):
            raise WordError("string words require an FpGroup source")
        word = parse_word(word, h.source.generators)
    result = None  # start from the first factor: L - 1 products for L factors
    for idx, syllable in groupby(word, itemgetter(0)):
        if not 0 <= idx < len(h.images):
            raise WordError(f"word references unknown generator index {idx}")
        exp = sum(map(itemgetter(1), syllable))
        if exp:
            factor = h.images[idx] ** exp
            result = factor if result is None else result * factor
    return Permutation.identity(h.degree) if result is None else result


class HomCheck(Record):
    witness: object = None  # violating (a, b) pair or relator word; None when ok
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.witness is None


def generator_images(h: PermHomomorphism) -> tuple[Permutation, ...]:
    """The images of ``generating_set`` for a ``FiniteGroup`` source, or of
    the generators of an ``FpGroup`` source (``h.images``)."""
    if isinstance(h.source, FiniteGroup):
        return tuple(h.images[g] for g in h.source.generating_set)
    return h.images


def check_homomorphism(h: PermHomomorphism) -> HomCheck:
    """Verify the homomorphism property.

    FiniteGroup source: ``image(a*s) == image(a) * image(s)`` for every
    ``a`` and every ``s`` of ``generating_set`` (|G|*|S| products), which
    gives every pair by induction on word length once the identity maps to
    the identity; a violating pair is the witness.  FpGroup source: every
    relator evaluates to the identity.
    """
    if isinstance(h.source, FiniteGroup):
        G = h.source
        images = [p.images for p in h.images]  # one-line tuples, composed directly
        pairs = ((a, s) for a in G.elements() for s in G.generating_set)
        if not h.images[G.identity].is_identity():  # then (e, e) violates
            pairs = [(G.identity, G.identity)]
        for a, b in pairs:
            x = images[a]
            if images[G.mul(a, b)] != tuple([x[j - 1] for j in images[b]]):
                message = f"image({a}*{b}) != image({a})*image({b})"
                return HomCheck((a, b), message)
        return HomCheck()
    for rel in h.source.relators:
        if not evaluate_word(h, rel).is_identity():
            return HomCheck(
                rel,
                f"relator {cut(format_word(rel, h.source.generators))} "
                "does not evaluate to the identity",
            )
    return HomCheck()


def hom_from_element_map(G: FiniteGroup, images: Mapping[int, Permutation]) -> PermHomomorphism:
    """The homomorphism with the given image per element id, of the degree
    of the identity's image; shapes are checked, not the algebra."""
    if set(images) != set(G.elements()):
        raise SourceMismatchError("element map must cover every element id")
    return PermHomomorphism(G, images[G.identity].degree, tuple(images[g] for g in G.elements()))


def hom_from_generator_images(
    G: FiniteGroup,
    hom_gens: Mapping[int, Permutation],
    degree: int,
) -> PermHomomorphism:
    """Extend images of a generating set of ``G`` to all elements.

    Raises ``SourceMismatchError`` if the assignment is inconsistent or the
    given elements do not generate ``G``.
    """
    known: dict[int, Permutation] = {G.identity: Permutation.identity(degree)}
    for g, p in hom_gens.items():
        if p.degree != degree:
            raise SourceMismatchError("generator image degree mismatch")
        if g in known and known[g] != p:
            raise SourceMismatchError(f"conflicting images for element {g}")
        known[g] = p
    frontier = list(known)
    while frontier:
        new = []
        for a in frontier:
            for g, p in list(hom_gens.items()):
                x = G.mul(a, g)
                q = known[a] * p
                if x not in known:
                    known[x] = q
                    new.append(x)
                elif known[x] != q:
                    raise SourceMismatchError(
                        f"generator images are inconsistent at element {x}"
                    )
        frontier = new
    if len(known) != G.order:
        raise SourceMismatchError("given elements do not generate the group")
    if degree < 0:  # no generator image carries the degree
        raise SourceMismatchError(f"image degree 0 differs from {degree}")
    # every element a was expanded, so image(a*g) == image(a)*image(g)
    # holds for all a and every given generator g; as those generate G,
    # induction on word length gives the full homomorphism property
    return PermHomomorphism._trusted(G, degree, tuple(known[g] for g in G.elements()))


def restrict_hom(h: PermHomomorphism, H: Subgroup) -> PermHomomorphism:
    """Restriction of ``h`` to a subgroup, as a homomorphism of the
    subgroup's abstract group (members in ascending order)."""
    if not isinstance(h.source, FiniteGroup):
        raise SourceMismatchError("restriction requires a FiniteGroup source")
    if H.parent != h.source:
        raise NotSubgroupError("subgroup belongs to a different group")
    Habs, emb = H.as_group()
    return PermHomomorphism._trusted(Habs, h.degree, tuple(h.images[g] for g in emb))


def direct_sum_hom(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> PermHomomorphism:
    """Pointwise block sum of two homomorphisms of the same source."""
    if h1.source != h2.source:
        raise SourceMismatchError("direct sum requires a common source")
    images = tuple(direct_sum(a, b) for a, b in zip(h1.images, h2.images))
    return PermHomomorphism._trusted(h1.source, h1.degree + h2.degree, images)


def _restrict_to_points(
    h: PermHomomorphism, points: Sequence[int]
) -> PermHomomorphism:
    """``h`` on a point set invariant under it, renumbered
    ``1..len(points)`` in ascending order of the original labels."""
    images = tuple(restrict(p, points) for p in h.images)
    return PermHomomorphism._trusted(h.source, len(points), images)


def trivial_hom(G: Union[FiniteGroup, FpGroup], degree: int) -> PermHomomorphism:
    """Every element acts as the identity on ``degree`` points."""
    ident = Permutation.identity(degree)
    count = G.order if isinstance(G, FiniteGroup) else len(G.generators)
    return PermHomomorphism(G, degree, tuple(ident for _ in range(count)))


def conjugate_hom(h: PermHomomorphism, p: Permutation) -> PermHomomorphism:
    """The homomorphism ``g -> p * h(g) * p^-1``."""
    pinv = p.inverse()
    return PermHomomorphism._trusted(
        h.source, h.degree, tuple(p * img * pinv for img in h.images)
    )
