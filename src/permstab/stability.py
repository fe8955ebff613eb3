"""Constructive stability procedures for permutation actions.

This module houses the finite, executable side of stability theory:

* small conjugators built on the agreement set of two close conjugate
  homomorphisms (the orbits where the generator images agree), with the
  distance bound ``|H| * epsilon``;
* one nearest-conjugator solver: the conjugator between two generator
  lists that agrees with a target permutation on the most points, from
  equivariant maps between orbits, a closed form for the points every
  generator fixes and one Hungarian assignment per other orbit type,
  with no search over ``S_n`` or a centralizer;
  it gives the certified minimum conjugator distance (target the
  identity) and the correction below (target the almost-centralizing
  permutation);
* exact extension-property decisions from orbit-type censuses (a
  ``G``-set is a sum of coset actions) at any degree, and retracts via
  normal complements, tested for normality on the generators;
* assembly of a homomorphism on an amalgamated product from compatible
  halves, with witness reporting on failure;
* the replication count and block-sum lift used to rebuild an action
  from coset actions;
* the nearest exact correction of a permutation that almost commutes
  with a fixed coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence, Union

from .errors import (
    AmalgamMismatchError,
    DegreeMismatchError,
    NotConjugateError,
    NotSubgroupError,
    SourceMismatchError,
    ZeroMultiplicityError,
)
from .groups import (
    DEFAULT_LIFT_SIZE_BOUND,  # re-exported: the bound compose_lift applies
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    _check_size,
    _restrict_to_points,
    conjugate_hom,
    coset_action,
    direct_sum_hom,
    evaluate_word,
    generator_images,
    parse_word,
    restrict_hom,
    subgroup_conjugacy_classes,
    trivial_hom,
)
from .multiplicity import _census, _orbit_types, _orbits, _transport, is_conjugate
from .perm import (
    Permutation,
    _int_tokens,
    hamming_distance,
    replicate,
)
from .record import Record

# ---------------------------------------------------------------------------
# small conjugators


def agreement_set(h1: PermHomomorphism, h2: PermHomomorphism) -> tuple[int, ...]:
    """Points where the two homomorphisms agree for every source element.

    The set (and its complement) is invariant under both homomorphisms, so
    it is the union of the ``h1``-orbits on which every generator agrees.
    """
    if h1.source != h2.source:
        raise SourceMismatchError("homomorphisms must share a source")
    if h1.degree != h2.degree:
        raise DegreeMismatchError("homomorphisms must share a degree")
    gens1 = [p.images for p in generator_images(h1)]
    gens2 = [p.images for p in generator_images(h2)]
    pts = []
    for orbit in _orbits(gens1, h1.degree):
        if all(a[x - 1] == b[x - 1] for a, b in zip(gens1, gens2) for x in orbit):
            pts.extend(orbit)
    return tuple(sorted(pts))


def max_image_distance(h1: PermHomomorphism, h2: PermHomomorphism) -> Fraction:
    """``max over g of d_H(h1(g), h2(g))`` (the epsilon of a close pair)."""
    return max(
        (hamming_distance(a, b) for a, b in zip(h1.images, h2.images)),
        default=Fraction(0),
    )


def small_conjugator(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> Permutation:
    """A conjugator that is the identity on the agreement set.

    Requires conjugate homomorphisms of the same finite group and degree.
    The result ``p`` satisfies ``p*h1(g)*p^-1 == h2(g)`` and moves only
    points outside the agreement set, hence
    ``d_H(p, id) <= |H| * max_image_distance(h1, h2)``.
    """
    return _small_conjugator(h1, h2)[0]


def _small_conjugator(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[Permutation, tuple[int, ...]]:
    """:func:`small_conjugator` and the :func:`agreement_set` it fixes."""
    if not isinstance(h1.source, FiniteGroup):
        raise SourceMismatchError("small conjugators require a finite source")
    A = agreement_set(h1, h2)
    inside = set(A)
    outside = [i for i in range(1, h1.degree + 1) if i not in inside]
    if not outside:
        return Permutation.identity(h1.degree), A
    # both actions agree on A, and finite G-sets cancel, so the pair is
    # conjugate exactly when the restrictions to the complement are
    ok, w = is_conjugate(
        _restrict_to_points(h1, outside), _restrict_to_points(h2, outside)
    )
    if not ok:
        raise NotConjugateError("homomorphisms are not conjugate")
    images = list(range(1, h1.degree + 1))
    for local, orig in enumerate(outside, 1):
        images[orig - 1] = outside[w(local) - 1]
    return Permutation._trusted(tuple(images)), A


# ---------------------------------------------------------------------------
# nearest conjugators and the certified minimum conjugator distance


def nearest_conjugator(
    gens1: Sequence[Permutation],
    gens2: Sequence[Permutation],
    target: Permutation,
) -> Permutation:
    """The conjugator ``p`` (``p * gens1[i] * p^-1 == gens2[i]`` for all
    ``i``) that agrees with ``target`` on the most points, ties broken to
    the lexicographically least one-line form.

    A conjugator maps each ``gens1``-orbit equivariantly onto a
    ``gens2``-orbit of its type, and there it is fixed by the image of
    the orbit's least point.  The points fixed by every generator form
    one type of one-point orbits, solved in closed form: each point fixed
    by ``gens1`` whose target image is fixed by ``gens2`` keeps that
    image, which makes the most agreements, and the others, in ascending
    order, take the unused points fixed by ``gens2`` in ascending order,
    which gives the least one-line form among those.  In every other
    type, each pair of orbits keeps its best map and the type gets
    one maximum-weight assignment; the weight puts agreement first and
    the one-line form on the type's own points, read in base ``n+1``,
    second.  Types are independent, so the least one-line form in each
    gives the least overall.  Raises
    :class:`NotConjugateError` if no conjugator exists.
    """
    n = target.degree
    perms1, perms2 = [g.images for g in gens1], [g.images for g in gens2]
    images = [0] * n
    for rows, cols in _orbit_types((perms1, n), (perms2, n)):
        if len(rows) != len(cols):
            raise NotConjugateError("no permutation conjugates the two actions")
        if len(rows[0]) == 1:  # the points fixed by every generator
            ends = {y for (y,) in cols}
            keep = {x: y for (x,) in rows if (y := target.images[x - 1]) in ends}
            unused = iter(sorted(ends.difference(keep.values())))
            for (x,) in rows:  # in ascending order
                images[x - 1] = keep[x] if x in keep else next(unused)
            continue
        points = sorted(x for o1 in rows for x in o1)  # the least is most significant
        place = {x: (n + 1) ** i for i, x in enumerate(reversed(points))}
        unit = (n + 1) ** len(points)

        def weighed(p: dict[int, int]) -> tuple[int, dict[int, int]]:
            agree = sum(target.images[x - 1] == px for x, px in p.items())
            return unit * agree - sum(px * place[x] for x, px in p.items()), p

        best = [
            [max(map(weighed, filter(None, (_transport(perms1, perms2, o1[0], y) for y in o2))),
                 key=itemgetter(0))
             for o2 in cols]
            for o1 in rows
        ]
        matched = _max_weight_assignment([[w for w, _ in row] for row in best])
        for j, r in enumerate(matched):
            for x, px in best[r - 1][j][1].items():
                images[x - 1] = px
    return Permutation._trusted(tuple(images))


def _max_weight_assignment(w: Sequence[Sequence[int]]) -> list[int]:
    """Row (counted from 1) matched to each column in a maximum-weight
    perfect matching of the square matrix ``w``: Kuhn's Hungarian method
    with potentials, O(m^3) and exact on integers."""
    m = len(w)
    u, v, row_of = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)  # 0: the root
    for i in range(1, m + 1):
        row_of[0], j0 = i, 0
        slack, way, used = [None] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while row_of[j0]:  # grow shortest paths until a free column is reached
            used[j0] = True
            i0, delta, j1 = row_of[j0], None, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = -w[i0 - 1][j - 1] - u[i0] - v[j]
                    if slack[j] is None or cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if delta is None or slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return row_of[1:]


def min_conjugator_distance(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[Fraction, Permutation]:
    """Exact minimum of ``d_H(p, id)`` over all conjugators ``p``.

    The conjugator of :func:`nearest_conjugator` nearest to the identity;
    ties break to the lexicographically least one-line form.  Requires a
    shared finite source and a conjugate pair; exact at any degree.
    """
    if not isinstance(h1.source, FiniteGroup) or h1.source != h2.source:
        raise SourceMismatchError("homomorphisms must share a FiniteGroup source")
    if h1.degree != h2.degree:
        raise SourceMismatchError("homomorphisms must share a degree")
    ident = Permutation.identity(h1.degree)
    p = nearest_conjugator(generator_images(h1), generator_images(h2), ident)
    return hamming_distance(p, ident), p


# ---------------------------------------------------------------------------
# extension property and retracts


def has_extension(
    G: FiniteGroup, H: Subgroup, phi: PermHomomorphism
) -> Optional[PermHomomorphism]:
    """A homomorphism of ``G`` restricting exactly to ``phi`` on ``H``.

    ``phi`` must be a homomorphism of ``H.as_group()``.  Every ``G``-set
    is a disjoint union of coset actions ``G/K``, so ``phi`` extends
    exactly when its orbit-type census is a non-negative integer
    combination of the restricted censuses of ``G/K``, one ``K`` per
    conjugacy class of subgroups of ``G``.  The block sum of the chosen
    coset actions is then conjugated onto ``phi``.  ``None`` means no
    combination exists.  It is returned before any coset action is built
    when two elements of ``H`` that are conjugate in ``G`` fix different
    numbers of ``phi``'s points: every ``G``-set fixes as many points
    under ``g`` as under each conjugate of ``g``.
    """
    if H.parent != G:
        raise NotSubgroupError("subgroup belongs to a different group")
    if phi.source != H.as_group()[0]:
        raise SourceMismatchError(
            "homomorphism source must be the subgroup's abstract group"
        )
    classes = subgroup_conjugacy_classes(G)
    if not _fixed_counts_are_class_function(G, H, phi):
        return None
    actions = [
        coset_action(G, K)
        for K in map(classes.representative, range(len(classes)))
        if K.index <= phi.degree
    ]
    *censuses, target = _census(*(restrict_hom(a, H) for a in actions), phi)
    copies = _census_combination(censuses, target)
    if copies is None:
        return None
    psi = trivial_hom(G, 0)
    for action, s in zip(actions, copies):
        psi = compose_lift(action, s, psi)
    _, p = is_conjugate(restrict_hom(psi, H), phi)
    return conjugate_hom(psi, p)


def _fixed_counts_are_class_function(
    G: FiniteGroup, H: Subgroup, phi: PermHomomorphism
) -> bool:
    """Whether ``phi`` fixes equally many points under any two elements of
    ``H`` that are conjugate in ``G``.  Each ``G``-class meeting ``H`` is
    walked once, by conjugation with ``G.generating_set``."""
    _, emb = H.as_group()
    fixed = {g: len(p.fixed_points()) for g, p in zip(emb, phi.images)}
    walked: set[int] = set()
    for x in emb:
        if x in walked:
            continue
        conjugates = [x]
        walked.add(x)
        for y in conjugates:  # grows while iterated
            for g in G.generating_set:
                z = G.conjugate(g, y)
                if z not in walked:
                    walked.add(z)
                    conjugates.append(z)
        if len({fixed[y] for y in conjugates if y in fixed}) > 1:
            return False
    return True


def _census_combination(
    censuses: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> Optional[list[int]]:
    """Copy counts ``s`` with ``sum(s[i] * censuses[i]) == target``, by
    depth-first search over the censuses, most copies first; remainders
    already shown to fail are not searched again."""
    dead: set[tuple[int, tuple[int, ...]]] = set()

    def search(i: int, rest: tuple[int, ...]) -> Optional[list[int]]:
        if not any(rest):
            return [0] * (len(censuses) - i)
        if i == len(censuses) or (i, rest) in dead:
            return None
        c = censuses[i]
        most = min(r // x for r, x in zip(rest, c) if x)
        for s in range(most, -1, -1):
            tail = search(i + 1, tuple(r - s * x for r, x in zip(rest, c)))
            if tail is not None:
                return [s] + tail
        dead.add((i, rest))
        return None

    return search(0, target)


def find_normal_complement(G: FiniteGroup, H: Subgroup) -> Optional[Subgroup]:
    """A normal subgroup ``K`` with ``K intersect H = 1`` and ``KH = G``.

    When one exists, ``H`` is a retract of ``G``: mapping each ``g`` to
    its unique ``H``-part along ``K`` is a homomorphism fixing ``H``.
    Returns ``None`` when no complement exists (a valid answer).
    """
    if H.parent != G:
        raise NotSubgroupError("subgroup belongs to a different group")
    hmem = H.member_set()
    # a normal subgroup is a class of one member set; the candidates share
    # one order, so the first in class order is the least by members
    for orbit in subgroup_conjugacy_classes(G).classes:
        K = orbit[0]
        if len(orbit) == 1 and len(K) * H.order == G.order and len(K & hmem) == 1:
            return Subgroup._trusted(G, K)
    return None


def retraction_from_complement(
    G: FiniteGroup, H: Subgroup, K: Subgroup
) -> dict[int, int]:
    """The retraction ``g -> h`` where ``g = k*h`` with ``k in K``."""
    kmem = K.member_set()
    out = {}
    for g in G.elements():
        parts = [h for h in H.members if G.mul(g, G.inv(h)) in kmem]
        if len(parts) != 1:
            raise NotSubgroupError("not a complement: H-part is not unique")
        out[g] = parts[0]
    return out


# ---------------------------------------------------------------------------
# amalgamated homomorphisms


HToken = Union[str, int]


class AmalgamHom(Record):
    """Two homomorphisms of equal degree glued over a common subgroup.

    ``h_pairs`` lists corresponding elements of the two factors (words
    for presentation sources, element ids for table sources); both sides
    of every pair map to the same permutation, which is what makes the
    evaluation of alternating words well-defined.
    """

    psi1: PermHomomorphism
    psi2: PermHomomorphism
    h_pairs: tuple[tuple[HToken, HToken], ...]

    @property
    def degree(self) -> int:
        return self.psi1.degree

    def _side_image(self, side: int, token: HToken) -> Permutation:
        h = self.psi1 if side == 1 else self.psi2
        if isinstance(h.source, FpGroup):
            if isinstance(token, int):
                raise AmalgamMismatchError(
                    f"side {side} takes words, not element id {token!r}"
                )
            return evaluate_word(h, token)
        try:
            g = _int_tokens([token])[0] if isinstance(token, str) else int(token)
        except ValueError:
            g = -1
        if not 0 <= g < len(h.images):
            raise AmalgamMismatchError(
                f"element id {token!r} outside the side-{side} group"
            )
        return h.images[g]

    def evaluate_alternating(
        self, items: Sequence[tuple[int, HToken]]
    ) -> Permutation:
        """Image of a word ``g1 h1 g2 ...`` given as ``(side, token)``
        factors, multiplied left to right."""
        result = None  # start from the first factor, as evaluate_word does
        for side, token in items:
            if side not in (1, 2):
                raise AmalgamMismatchError(f"side must be 1 or 2, got {side}")
            factor = self._side_image(side, token)
            result = factor if result is None else result * factor
        return Permutation.identity(self.degree) if result is None else result

    def evaluate_mixed_word(self, text: str) -> Permutation:
        """Image of a word over the disjoint union of the two generator
        alphabets (presentation sources only)."""
        s1, s2 = self.psi1.source, self.psi2.source
        if not isinstance(s1, FpGroup) or not isinstance(s2, FpGroup):
            raise AmalgamMismatchError(
                "mixed words require presentation sources on both sides"
            )
        items = []
        for token in text.split():
            name = token.split("^")[0]
            if name in s1.generators:
                items.append((1, parse_word(token, s1.generators)))
            elif name in s2.generators:
                items.append((2, parse_word(token, s2.generators)))
            else:
                raise AmalgamMismatchError(f"unknown generator {name!r}")
        return self.evaluate_alternating(items)

    def check_relator(self, text: str) -> bool:
        return self.evaluate_mixed_word(text).is_identity()


def amalgamated_hom(
    psi1: PermHomomorphism,
    psi2: PermHomomorphism,
    h_pairs: Sequence[tuple[HToken, HToken]],
) -> AmalgamHom:
    """Glue two homomorphisms along a common subgroup.

    Checks the degrees and that each pair of corresponding elements has
    equal images; on mismatch the offending pair is reported as the
    witness.
    """
    if psi1.degree != psi2.degree:
        raise DegreeMismatchError(
            f"degrees differ: {psi1.degree} vs {psi2.degree}"
        )
    if isinstance(psi1.source, FpGroup) and isinstance(psi2.source, FpGroup):
        shared = set(psi1.source.generators) & set(psi2.source.generators)
        if shared:
            raise AmalgamMismatchError(
                f"generator alphabets must be disjoint, both use {sorted(shared)}"
            )
    out = AmalgamHom(psi1, psi2, tuple((a, b) for a, b in h_pairs))
    for a, b in out.h_pairs:
        if out._side_image(1, a) != out._side_image(2, b):
            raise AmalgamMismatchError(
                f"common-subgroup images disagree at pair ({a!r}, {b!r})",
                witness=(a, b),
            )
    return out


# ---------------------------------------------------------------------------
# replication counts and lifts


def replication_count(
    phi: PermHomomorphism,
    psi_restricted: PermHomomorphism,
    coset_degree: int,
) -> int:
    """Largest ``s`` with ``s`` copies of ``psi_restricted`` dominated by
    ``phi`` in the orbit-census order, via the per-type floor minimum
    ``min over orbit types T of floor(m_T(phi) / m_T(psi))``.

    The minimum ranges over the types the replicand actually contains,
    so types occurring only in ``phi`` (asymptotically negligible
    remainders) are ignored, and types occurring only in the replicand
    force ``s = 0``.  ``coset_degree`` is the degree of the coset action
    being replicated and must equal the degree of ``psi_restricted``.
    """
    if phi.source != psi_restricted.source:
        raise SourceMismatchError("homomorphisms must share a source")
    if psi_restricted.degree != coset_degree:
        raise DegreeMismatchError(
            f"restricted action has degree {psi_restricted.degree}, "
            f"stated coset degree is {coset_degree}"
        )
    if not isinstance(phi.source, FiniteGroup):
        raise SourceMismatchError("replication counts require a FiniteGroup source")
    c_phi, c_psi = _census(phi, psi_restricted)
    floors = [a // c for a, c in zip(c_phi, c_psi) if c]
    if not floors:
        raise ZeroMultiplicityError(
            "replicand has no orbits, every replication count would do"
        )
    return min(floors)


def replicate_hom(h: PermHomomorphism, s: int) -> PermHomomorphism:
    images = tuple(replicate(p, s) for p in h.images)
    return PermHomomorphism._trusted(h.source, s * h.degree, images)


def compose_lift(
    psi: PermHomomorphism, s: int, eta: PermHomomorphism
) -> PermHomomorphism:
    """Block sum of ``s`` copies of ``psi`` with ``eta`` (``s = 0`` gives
    ``eta`` alone).  Traces mix convexly by block size.  A lift of more
    than ``DEFAULT_LIFT_SIZE_BOUND`` image entries (images times degree)
    is refused before any copy is built."""
    _check_lift(psi.source, len(psi.images), psi.degree, s, eta.source, eta.degree)
    if s == 0:
        return eta
    return direct_sum_hom(replicate_hom(psi, s), eta)


def _check_lift(source, count: int, degree: int, s: int, rest_source, rest_degree: int) -> None:
    """The refusals of :func:`compose_lift`, in its order, read from the
    sources, ``psi``'s image count and the degrees alone."""
    if source != rest_source:
        raise SourceMismatchError("homomorphisms must share a source")
    if s < 0:
        raise DegreeMismatchError(f"copy count must be >= 0, got {s}")
    if s:
        _check_size("lift images", count, s * degree + rest_degree)


# ---------------------------------------------------------------------------
# correction of almost-centralizing permutations


class CorrectionReport(Record):
    corrected: Permutation
    distance: Fraction  # d_H(q, corrected)
    input_defect: Fraction  # d_H(a q a^-1 q^-1, id)
    mode: str


def commutator_defect(a: Permutation, q: Permutation) -> Fraction:
    return hamming_distance(a * q * a.inverse() * q.inverse(),
                            Permutation.identity(a.degree))


def centralizer_correct(
    a: Permutation, q: Permutation, mode: str = "exact"
) -> CorrectionReport:
    """Replace ``q`` by a permutation that commutes with ``a`` exactly.

    The result is the centralizing element nearest to ``q`` (a
    :func:`nearest_conjugator` from ``a`` to itself), ties broken to the
    lexicographically least one-line form, at any degree.  ``mode``,
    ``exact`` or ``heuristic``, is only the label the report carries.
    """
    if a.degree != q.degree:
        raise DegreeMismatchError(f"degrees differ: {a.degree} vs {q.degree}")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    corrected = nearest_conjugator([a], [a], q)
    return CorrectionReport(
        corrected, hamming_distance(q, corrected), commutator_defect(a, q), mode
    )
