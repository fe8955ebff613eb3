"""JSON file formats for groups, homomorphisms, and related inputs.

Group files::

    {"kind": "table", "order": n, "table": [[...], ...]}
    {"kind": "perm-gens", "degree": n, "generators": ["(1 2)", ...],
     "names": ["x", "y"]}                      # names optional (g0, g1, ...)
    {"kind": "presentation", "generators": ["s", "t"],
     "relators": ["s^4", "t^6", "s^2 t^-3"]}

Homomorphism files::

    {"group": <group object>, "degree": n, "images": {...}}

with images keyed by generator name (presentation / perm-gens sources)
or by element id string (table sources, every element required).
Permutations are written in cycle or one-line notation; rationals
serialize as strings like ``"1/3"`` in lowest terms.

The readers take parsed JSON values and open no file.  The CLI reads
every input file, so that its run report lists each one; it also reads
the group file that a homomorphism file names by a path string.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Union

from .errors import BoundExceededError, MalformedInputError, PermStabError, SourceMismatchError
from .errors import all_ints, echo
from .groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    _check_size,
    check_homomorphism,
    group_from_permutations,
    hom_from_generator_images,
)
from .perm import Permutation, _int_tokens, parse_permutation
from .record import Record

GroupLike = Union[FiniteGroup, FpGroup]


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def permutation_from_json(obj, degree: int) -> Permutation:
    """A permutation of ``degree`` points, as text or ``{"degree", "images"}``."""
    if isinstance(obj, str):
        return parse_permutation(obj, degree)
    if isinstance(obj, dict):
        try:
            images = obj["images"]
            deg = obj["degree"]
        except KeyError as exc:
            raise MalformedInputError(f"permutation object missing {exc}") from exc
        if type(deg) is not int or not _is_int_list(images):
            raise MalformedInputError(
                "permutation degree and images must be JSON integers"
            )
        if deg != degree:
            raise MalformedInputError(
                f"permutation degree {deg} does not match expected {degree}"
            )
        if deg != len(images):
            raise MalformedInputError(
                f"permutation degree {deg} does not match its {len(images)} images"
            )
        return Permutation(images)
    raise MalformedInputError(f"cannot read a permutation from {echo(obj)}")


def _read_bytes(path: Union[str, Path]) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: Union[str, Path], data: bytes) -> object:
    """The JSON value of ``data``, the bytes read from file ``path``.
    The file is UTF-8 whatever the locale; CR LF and a lone CR read as
    LF, as in a text-mode read."""
    try:
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # an over-long integer, or too deep
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


class LoadedGroup(Record):
    """A group parsed from JSON, with the keys its homomorphisms' images
    are listed under.  A table or presentation is ``built``; a perm-gens
    group keeps its generators and is closed the first time ``group`` or
    ``gen_elements`` is read, once per loaded group."""

    keys: tuple[str, ...]  # image_keys of the group; a perm-gens group's generator names
    built: GroupLike | None = None  # the group of a table or presentation
    gens: tuple[Permutation, ...] = ()  # the generators of a perm-gens group

    @property
    def group(self) -> GroupLike:
        return self._closure[0] if self.built is None else self.built

    @property
    def gen_elements(self) -> tuple[int, ...]:
        """Element ids of the perm-gens generators."""
        return self._closure[1]

    @cached_property
    def _closure(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        G, hom = group_from_permutations(self.gens)
        return G, tuple(map(hom.images.index, self.gens))


def image_keys(source: GroupLike) -> tuple[str, ...]:
    """The keys of a homomorphism file's images, in the order of a
    homomorphism's ``images``: element id strings for a finite group,
    generator names for a presentation."""
    if isinstance(source, FpGroup):
        return source.generators
    return tuple(map(str, source.elements()))


def images_to_json(h: PermHomomorphism) -> dict[str, str]:
    """The images of ``h`` in cycle notation, under :func:`image_keys`."""
    return {key: p.cycle_str() for key, p in zip(image_keys(h.source), h.images)}


def group_from_json(obj) -> LoadedGroup:
    """Read a group object.  Its fields are checked here and its group is memoized
    on the checked fields, so two files of one group share one table."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInputError("group object must carry a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "table":
            table = obj["table"]
            if not isinstance(table, list) or not all(map(_is_int_list, table)):
                raise MalformedInputError("table rows must be lists of JSON integers")
            if type(obj.get("order")) is not int or obj["order"] != len(table):
                raise MalformedInputError("stated order differs from table size")
            return _loaded_group(kind, tuple(map(tuple, table)))
        if kind == "perm-gens":
            degree = obj["degree"]
            if type(degree) is not int:
                raise MalformedInputError("perm-gens degree must be a JSON integer")
            if not isinstance(obj["generators"], list):
                raise MalformedInputError("perm-gens generators must be a JSON list")
            _check_size("perm-gens generators", len(obj["generators"]), degree)
            gens = tuple(permutation_from_json(g, degree) for g in obj["generators"])
            names = obj.get("names", [f"g{i}" for i in range(len(gens))])
            if not (_is_str_list(names) and len(set(names)) == len(names) == len(gens)):
                raise MalformedInputError("one distinct name string per generator required")
            if not gens:
                raise MalformedInputError("need at least one generator")
            return _loaded_group(kind, tuple(names), gens)
        if kind == "presentation":
            if not (_is_str_list(obj["generators"]) and _is_str_list(obj.get("relators", []))):
                raise MalformedInputError("generators and relators must be lists of strings")
            return _loaded_group(kind, tuple(obj["generators"]), tuple(obj.get("relators", ())))
    except (MalformedInputError, BoundExceededError):
        raise
    except PermStabError as exc:
        raise MalformedInputError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad group object: {exc}") from exc
    raise MalformedInputError(f"unknown group kind {echo(kind)}")


@lru_cache(maxsize=32)
def _loaded_group(kind: str, *fields: tuple) -> LoadedGroup:
    """The group of a checked group object, memoized on its fields as tuples."""
    if kind == "perm-gens":
        return LoadedGroup(fields[0], gens=fields[1])
    G = FiniteGroup(*fields) if kind == "table" else FpGroup(*fields)
    return LoadedGroup(image_keys(G), G)


def _hom_shape(obj) -> tuple[LoadedGroup, int, dict]:
    """``(group, degree, images)`` of a homomorphism object after the
    checks of :func:`hom_from_json` that parse no image: its keys, its
    degree, its group and its size."""
    if not isinstance(obj, dict):
        raise MalformedInputError("homomorphism object must be a JSON object")
    try:
        group, degree, images = obj["group"], obj["degree"], obj["images"]
    except KeyError as exc:
        raise MalformedInputError(f"bad homomorphism object: {exc}") from exc
    # the cheap shape checks first; a perm-gens group is closed after its images parse
    if type(degree) is not int or degree < 0:
        raise MalformedInputError("homomorphism degree must be a non-negative JSON integer")
    if not isinstance(images, dict):
        raise MalformedInputError("homomorphism images must be a JSON object")
    loaded = group_from_json(group)
    if not isinstance(loaded.built, FiniteGroup) and not set(images) <= set(loaded.keys):
        raise MalformedInputError("images keyed by a name that is no generator")
    # a hom of no generators still acts by the identity, one image
    _check_size("homomorphism images", max(len(loaded.keys), 1), degree)
    return loaded, degree, images


def hom_from_json(obj) -> PermHomomorphism:
    loaded, degree, images = _hom_shape(obj)
    if isinstance(loaded.built, FiniteGroup) and set(images) != set(loaded.keys):
        raise MalformedInputError("table-group images must cover every element id")
    try:
        imgs = tuple(permutation_from_json(images[key], degree) for key in loaded.keys)
        if loaded.gens:  # perm-gens: the images are parsed before the group is closed
            _check_size("homomorphism images", loaded.group.order, degree)
            gen_map: dict[int, Permutation] = {}
            for name, elt, p in zip(loaded.keys, loaded.gen_elements, imgs):
                if gen_map.setdefault(elt, p) != p:
                    raise MalformedInputError(
                        f"generator {name} names the element of an earlier"
                        " generator, with a different image"
                    )
            # hom_from_generator_images checks the images
            return hom_from_generator_images(loaded.group, gen_map, degree)
        hom = PermHomomorphism._trusted(loaded.group, degree, imgs)
    except (MalformedInputError, BoundExceededError):
        raise
    except KeyError as exc:
        raise MalformedInputError(f"missing image for generator {exc}") from exc
    except PermStabError as exc:
        raise MalformedInputError(str(exc)) from exc
    chk = check_homomorphism(hom)
    if not chk.ok:
        raise MalformedInputError(f"images are not a homomorphism: {chk.message}")
    return hom


def subgroup_from_json(obj, G: FiniteGroup) -> Subgroup:
    if not isinstance(obj, dict) or not _is_int_list(obj.get("members")):
        raise MalformedInputError("subgroup 'members' must list JSON integers")
    if not isinstance(G, FiniteGroup):
        raise SourceMismatchError("subgroups require a finite group, not a presentation")
    try:
        return Subgroup(G, obj["members"])
    except PermStabError as exc:
        raise MalformedInputError(str(exc)) from exc


def _is_int_list(obj) -> bool:
    """A JSON list of JSON integers (``true`` and ``1.0`` are not)."""
    return isinstance(obj, list) and all_ints(obj)


def _is_str_list(obj) -> bool:
    return isinstance(obj, list) and all(type(x) is str for x in obj)


def element_set_from_text(hom: PermHomomorphism, text: str) -> list:
    """Parse a comma-separated element set: words for presentation
    sources, integer ids for table sources."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if isinstance(hom.source, FpGroup):
        return items
    try:
        return _int_tokens(items)
    except ValueError as exc:
        message = f"table-group element sets must be integer ids: {echo(text)}"
        raise MalformedInputError(message) from exc
