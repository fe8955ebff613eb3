"""Constructive stability procedures for permutation actions.

This module houses the finite, executable side of stability theory:

* small conjugators built on the agreement set of two close conjugate
  homomorphisms, with the distance bound ``|H| * epsilon``;
* a certified minimum over all conjugators (centralizer-coset search);
* exact extension-property decisions from orbit censuses (a ``G``-set
  is a sum of coset actions), at any degree, and retract certificates
  via normal complements;
* assembly of a homomorphism on an amalgamated product from compatible
  halves, with witness reporting on failure;
* the replication count and block-sum lift used to rebuild an action
  from coset actions;
* exact and heuristic correction of a permutation that almost commutes
  with a fixed coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    AmalgamMismatchError,
    BoundExceededError,
    DegreeMismatchError,
    InternalInvariantError,
    NotConjugateError,
    NotSubgroupError,
    SourceMismatchError,
    ZeroMultiplicityError,
)
from .groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    all_subgroups,
    conjugate_hom,
    coset_action,
    direct_sum_hom,
    evaluate_word,
    parse_word,
    restrict_hom,
    subgroup_conjugacy_classes,
    trivial_hom,
)
from .multiplicity import is_conjugate, multiplicity_vector
from .perm import (
    Permutation,
    all_permutations,
    hamming_distance,
    replicate,
    restrict,
)

MAX_EXACT_DEGREE = 8


# ---------------------------------------------------------------------------
# small conjugators


def agreement_set(h1: PermHomomorphism, h2: PermHomomorphism) -> tuple[int, ...]:
    """Points where the two homomorphisms agree for every source element.

    The set (and its complement) is invariant under both homomorphisms.
    """
    if h1.source != h2.source:
        raise SourceMismatchError("homomorphisms must share a source")
    if h1.degree != h2.degree:
        raise DegreeMismatchError("homomorphisms must share a degree")
    pts = []
    for i in range(1, h1.degree + 1):
        if all(a(i) == b(i) for a, b in zip(h1.images, h2.images)):
            pts.append(i)
    return tuple(pts)


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
    if not isinstance(h1.source, FiniteGroup):
        raise SourceMismatchError("small conjugators require a finite source")
    A = agreement_set(h1, h2)
    inside = set(A)
    outside = [i for i in range(1, h1.degree + 1) if i not in inside]
    if not outside:
        return Permutation.identity(h1.degree)
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
    return Permutation(images)


def _restrict_to_points(
    h: PermHomomorphism, points: Sequence[int]
) -> PermHomomorphism:
    images = tuple(restrict(p, points) for p in h.images)
    return PermHomomorphism(h.source, len(points), images)


# ---------------------------------------------------------------------------
# centralizers and the certified minimum conjugator distance


def centralizer_order(p: Permutation) -> int:
    """Order of the centralizer of ``p`` in its symmetric group."""
    from collections import Counter
    from math import factorial

    out = 1
    for length, count in Counter(len(c) for c in p.cycles(include_fixed=True)).items():
        out *= length**count * factorial(count)
    return out


def centralizer_elements(p: Permutation) -> Iterator[Permutation]:
    """All permutations commuting with ``p``, from its cycle structure.

    A centralizing element permutes the cycles of each length among
    themselves and rotates within cycles; enumeration runs over all
    (cycle bijection, rotation offsets) choices per length class.
    """
    from collections import defaultdict
    from itertools import permutations as iperms

    n = p.degree
    by_len: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for c in p.cycles(include_fixed=True):
        by_len[len(c)].append(c)
    lengths = sorted(by_len)
    choices_per_length = []
    for ell in lengths:
        cycles = by_len[ell]
        m = len(cycles)
        opts = []
        for sigma in iperms(range(m)):
            for offsets in iproduct(range(ell), repeat=m):
                opts.append((sigma, offsets))
        choices_per_length.append(opts)
    for combo in iproduct(*choices_per_length):
        images = [0] * n
        for ell, (sigma, offsets) in zip(lengths, combo):
            cycles = by_len[ell]
            for j, cyc in enumerate(cycles):
                target = cycles[sigma[j]]
                r = offsets[j]
                for t, point in enumerate(cyc):
                    images[point - 1] = target[(t + r) % ell]
        yield Permutation(images)


def _common_centralizer(images: Sequence[Permutation], degree: int) -> list[Permutation]:
    """Elements commuting with every permutation in ``images``."""
    nontrivial = [p for p in images if not p.is_identity()]
    if not nontrivial:
        return list(all_permutations(degree))
    seedp = min(nontrivial, key=centralizer_order)
    out = []
    for c in centralizer_elements(seedp):
        if all(c * q == q * c for q in nontrivial):
            out.append(c)
    return out


def min_conjugator_distance(
    h1: PermHomomorphism, h2: PermHomomorphism
) -> tuple[Fraction, Permutation]:
    """Exact minimum of ``d_H(p, id)`` over all conjugators ``p``.

    The conjugator set is a coset of the centralizer of the image of
    ``h2``, so the search enumerates that centralizer rather than the
    whole symmetric group.  Requires degree <= 8 and a conjugate pair;
    ties break to the lexicographically least one-line form.
    """
    if h1.degree > MAX_EXACT_DEGREE:
        raise BoundExceededError(
            f"degree {h1.degree} exceeds exact-search bound {MAX_EXACT_DEGREE}"
        )
    conj, p0 = is_conjugate(h1, h2)
    if not conj:
        raise NotConjugateError("homomorphisms are not conjugate")
    best: Optional[tuple[Fraction, tuple[int, ...], Permutation]] = None
    ident = Permutation.identity(h1.degree)
    for c in _common_centralizer(h2.images, h2.degree):
        cand = c * p0
        key = (hamming_distance(cand, ident), cand.images)
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], cand)
    assert best is not None
    return best[0], best[2]


# ---------------------------------------------------------------------------
# extension property and retracts


def has_extension(
    G: FiniteGroup, H: Subgroup, phi: PermHomomorphism
) -> Optional[PermHomomorphism]:
    """A homomorphism of ``G`` restricting exactly to ``phi`` on ``H``.

    ``phi`` must be a homomorphism of ``H.as_group()``.  Every ``G``-set
    is a disjoint union of coset actions ``G/K``, so ``phi`` extends
    exactly when its orbit census is a non-negative integer combination
    of the restricted censuses of ``G/K``, one ``K`` per conjugacy class
    of subgroups.  The block sum of the chosen coset actions is then
    conjugated onto ``phi``.  ``None`` means no combination exists.
    """
    if H.parent != G:
        raise NotSubgroupError("subgroup belongs to a different group")
    if phi.source != H.as_group()[0]:
        raise SourceMismatchError(
            "homomorphism source must be the subgroup's abstract group"
        )
    classes = subgroup_conjugacy_classes(G)
    actions = [
        coset_action(G, K)
        for K in map(classes.representative, range(len(classes)))
        if K.index <= phi.degree
    ]
    censuses = [multiplicity_vector(restrict_hom(a, H)).counts for a in actions]
    copies = _census_combination(censuses, multiplicity_vector(phi).counts)
    if copies is None:
        return None
    psi = trivial_hom(G, 0)
    for action, s in zip(actions, copies):
        psi = compose_lift(action, s, psi)
    _, p = is_conjugate(restrict_hom(psi, H), phi)
    return conjugate_hom(psi, p)


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
    target = G.order // H.order
    if G.order % H.order:
        return None
    for K in all_subgroups(G):
        if K.order != target:
            continue
        kmem = K.member_set()
        if len(kmem & hmem) != 1:
            continue
        if all(G.conjugate(g, k) in kmem for g in G.elements() for k in K.members):
            return K
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


@dataclass(frozen=True)
class AmalgamHom:
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
            g = int(token)
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
        result = Permutation.identity(self.degree)
        for side, token in items:
            if side not in (1, 2):
                raise AmalgamMismatchError(f"side must be 1 or 2, got {side}")
            result = result * self._side_image(side, token)
        return result

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
    ``phi`` in the orbit-census order, via the per-class floor minimum
    ``min over classes T of floor(m_T(phi) / m_T(psi))``.

    The minimum ranges over the classes the replicand actually contains,
    so classes occurring only in ``phi`` (asymptotically negligible
    remainders) are ignored, and classes occurring only in the replicand
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
    m_phi = multiplicity_vector(phi)
    m_psi = multiplicity_vector(psi_restricted)
    floors = [
        m_phi.counts[cid] // c for cid, c in enumerate(m_psi.counts) if c
    ]
    if not floors:
        raise ZeroMultiplicityError(
            "replicand has no orbits, every replication count would do"
        )
    return min(floors)


def replicate_hom(h: PermHomomorphism, s: int) -> PermHomomorphism:
    images = tuple(replicate(p, s) for p in h.images)
    return PermHomomorphism(h.source, s * h.degree, images)


def compose_lift(
    psi: PermHomomorphism, s: int, eta: PermHomomorphism
) -> PermHomomorphism:
    """Block sum of ``s`` copies of ``psi`` with ``eta`` (``s = 0`` gives
    ``eta`` alone).  Traces mix convexly by block size."""
    if psi.source != eta.source:
        raise SourceMismatchError("homomorphisms must share a source")
    if s < 0:
        raise DegreeMismatchError(f"copy count must be >= 0, got {s}")
    if s == 0:
        return eta
    return direct_sum_hom(replicate_hom(psi, s), eta)


# ---------------------------------------------------------------------------
# correction of almost-centralizing permutations


@dataclass(frozen=True)
class CorrectionReport:
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

    ``exact`` mode (degree <= 8) minimizes ``d_H(q, q')`` over the full
    centralizer of ``a``, breaking ties by lexicographically least
    one-line form.  ``heuristic`` mode repairs ``q`` cycle by cycle:
    each cycle of ``a`` votes for the target cycle and rotation that
    ``q`` most nearly maps it to, and a greedy matching realizes the
    votes, so the output always centralizes ``a`` exactly.
    """
    if a.degree != q.degree:
        raise DegreeMismatchError(
            f"degrees differ: {a.degree} vs {q.degree}"
        )
    defect = commutator_defect(a, q)
    if mode == "exact":
        if a.degree > MAX_EXACT_DEGREE:
            raise BoundExceededError(
                f"exact mode requires degree <= {MAX_EXACT_DEGREE}"
            )
        best: Optional[tuple[Fraction, tuple[int, ...]]] = None
        for c in centralizer_elements(a):
            key = (hamming_distance(q, c), c.images)
            if best is None or key < best:
                best = key
        assert best is not None
        corrected = Permutation(best[1])
        return CorrectionReport(corrected, best[0], defect, "exact")
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    corrected = _greedy_cycle_repair(a, q)
    if a * corrected != corrected * a:  # pragma: no cover
        raise InternalInvariantError("repair failed to centralize")
    return CorrectionReport(
        corrected, hamming_distance(q, corrected), defect, "heuristic"
    )


def _greedy_cycle_repair(a: Permutation, q: Permutation) -> Permutation:
    """Greedy cycle matching: move each cycle of ``a`` rigidly to the
    same-length cycle that ``q`` already sends most of its points to."""
    from collections import defaultdict

    cycles = a.cycles(include_fixed=True)
    cycle_of: dict[int, tuple[int, int]] = {}  # point -> (cycle idx, position)
    for ci, cyc in enumerate(cycles):
        for t, point in enumerate(cyc):
            cycle_of[point] = (ci, t)
    by_len: dict[int, list[int]] = defaultdict(list)
    for ci, cyc in enumerate(cycles):
        by_len[len(cyc)].append(ci)

    votes: dict[tuple[int, int, int], int] = defaultdict(int)
    for ci, cyc in enumerate(cycles):
        ell = len(cyc)
        for t, point in enumerate(cyc):
            dj, u = cycle_of[q(point)]
            if len(cycles[dj]) == ell:
                votes[(ci, dj, (u - t) % ell)] += 1

    assignment: dict[int, tuple[int, int]] = {}
    for ell, members in by_len.items():
        free_src = set(members)
        free_dst = set(members)
        ranked = sorted(
            ((cnt, ci, dj, r) for (ci, dj, r), cnt in votes.items()
             if ci in free_src and dj in free_dst),
            key=lambda item: (-item[0], item[1], item[2], item[3]),
        )
        for cnt, ci, dj, r in ranked:
            if ci in free_src and dj in free_dst:
                assignment[ci] = (dj, r)
                free_src.discard(ci)
                free_dst.discard(dj)
        for ci, dj in zip(sorted(free_src), sorted(free_dst)):
            best_r = max(
                range(ell), key=lambda r: (votes.get((ci, dj, r), 0), -r)
            )
            assignment[ci] = (dj, best_r)

    images = [0] * a.degree
    for ci, (dj, r) in assignment.items():
        src, dst = cycles[ci], cycles[dj]
        ell = len(src)
        for t, point in enumerate(src):
            images[point - 1] = dst[(t + r) % ell]
    return Permutation(images)
