"""JSON file formats for groups, homomorphisms, and related inputs.

Group files::

    {"kind": "table", "order": n, "table": [[...], ...]}
    {"kind": "perm-gens", "degree": n, "generators": ["(1 2)", ...],
     "names": ["x", "y"]}                      # names optional (g0, g1, ...)
    {"kind": "presentation", "generators": ["s", "t"],
     "relators": ["s^4", "t^6", "s^2 t^-3"]}

Homomorphism files::

    {"group": <inline group or path string>, "degree": n, "images": {...}}

with images keyed by generator name (presentation / perm-gens sources)
or by element id string (table sources, every element required).
Permutations are written in cycle or one-line notation; rationals
serialize as strings like ``"1/3"`` in lowest terms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Union

from .errors import BoundExceededError, MalformedInputError, PermStabError
from .groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    check_homomorphism,
    group_from_permutations,
    hom_from_generator_images,
)
from .perm import Permutation, parse_permutation
from .record import Record

GroupLike = Union[FiniteGroup, FpGroup]


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"invalid rational {text!r}") from exc


def permutation_to_json(p: Permutation) -> dict:
    return {"degree": p.degree, "images": list(p.images)}


def permutation_from_json(obj, degree: int | None = None) -> Permutation:
    if isinstance(obj, str):
        if degree is None:
            raise MalformedInputError(
                "permutation strings need an explicit degree"
            )
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
        if degree is not None and deg != degree:
            raise MalformedInputError(
                f"permutation degree {deg} does not match expected {degree}"
            )
        if deg != len(images):
            raise MalformedInputError(
                f"permutation degree {deg} does not match its {len(images)} images"
            )
        return Permutation(images)
    raise MalformedInputError(f"cannot read a permutation from {obj!r}")


def _read_bytes(path: Union[str, Path]) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: Union[str, Path], data: bytes | None = None) -> object:
    """The JSON value in file ``path``, whose bytes are ``data`` if the
    caller has read them already.  The file is UTF-8 whatever the locale;
    CR LF and a lone CR read as LF, as in a text-mode read."""
    if data is None:
        data = _read_bytes(path)
    try:
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


class LoadedGroup(Record):
    """A group parsed from JSON, remembering how its images are keyed."""

    group: GroupLike
    kind: str
    gen_names: tuple[str, ...] = ()  # the image keys; () for a table
    gen_elements: tuple[int, ...] = ()  # element ids of perm-gens generators


def group_from_json(obj) -> LoadedGroup:
    """Read a group object (or the path of a file holding one).  Each
    distinct group is built once per process: the object is read back
    from its canonical JSON text, on which the result is memoized, so
    two files of one group share one table."""
    if isinstance(obj, str):
        obj = _load_json(obj)
    try:
        text = json.dumps(obj, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad group object: {exc}") from exc
    return _group_from_text(text)


@lru_cache(maxsize=32)
def _group_from_text(text: str) -> LoadedGroup:
    obj = json.loads(text)
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
            return LoadedGroup(FiniteGroup(table), "table")
        if kind == "perm-gens":
            degree = obj["degree"]
            if type(degree) is not int:
                raise MalformedInputError("perm-gens degree must be a JSON integer")
            if not isinstance(obj["generators"], list):
                raise MalformedInputError("perm-gens generators must be a JSON list")
            gens = [permutation_from_json(g, degree) for g in obj["generators"]]
            names = obj.get("names", [f"g{i}" for i in range(len(gens))])
            if not (_is_str_list(names) and len(set(names)) == len(names) == len(gens)):
                raise MalformedInputError("one distinct name string per generator required")
            G, hom = group_from_permutations(gens)
            ids = tuple(hom.images.index(g) for g in gens)
            return LoadedGroup(G, "perm-gens", tuple(names), ids)
        if kind == "presentation":
            if not (_is_str_list(obj["generators"]) and _is_str_list(obj.get("relators", []))):
                raise MalformedInputError("generators and relators must be lists of strings")
            G = FpGroup(obj["generators"], obj.get("relators", ()))
            return LoadedGroup(G, "presentation", G.generators)
    except (MalformedInputError, BoundExceededError):
        raise
    except PermStabError as exc:
        raise MalformedInputError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad group object: {exc}") from exc
    raise MalformedInputError(f"unknown group kind {kind!r}")


def hom_from_json(obj) -> PermHomomorphism:
    if isinstance(obj, str):
        obj = _load_json(obj)
    if not isinstance(obj, dict):
        raise MalformedInputError("homomorphism object must be a JSON object")
    try:
        loaded = group_from_json(obj["group"])
        degree = obj["degree"]
        images = obj["images"]
    except (MalformedInputError, BoundExceededError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad homomorphism object: {exc}") from exc
    if type(degree) is not int:
        raise MalformedInputError("homomorphism degree must be a JSON integer")
    if not isinstance(images, dict):
        raise MalformedInputError("homomorphism images must be a JSON object")
    if loaded.kind != "table" and not set(images) <= set(loaded.gen_names):
        raise MalformedInputError("images keyed by a name that is no generator")
    try:
        if loaded.kind == "presentation":
            src = loaded.group
            imgs = tuple(
                permutation_from_json(images[name], degree)
                for name in src.generators
            )
            hom = PermHomomorphism(src, degree, imgs)
        elif loaded.kind == "table":
            G = loaded.group
            if set(images) != {str(g) for g in G.elements()}:
                raise MalformedInputError(
                    "table-group images must cover every element id"
                )
            imgs = tuple(
                permutation_from_json(images[str(g)], degree)
                for g in G.elements()
            )
            hom = PermHomomorphism(G, degree, imgs)
        else:  # perm-gens: hom_from_generator_images checks the images
            gen_map: dict[int, Permutation] = {}
            for name, elt in zip(loaded.gen_names, loaded.gen_elements):
                p = permutation_from_json(images[name], degree)
                if gen_map.setdefault(elt, p) != p:
                    raise MalformedInputError(
                        f"generator {name} names the element of an earlier"
                        " generator, with a different image"
                    )
            return hom_from_generator_images(loaded.group, gen_map, degree)
    except MalformedInputError:
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
    if isinstance(obj, str):
        obj = _load_json(obj)
    if not isinstance(obj, dict) or not _is_int_list(obj.get("members")):
        raise MalformedInputError("subgroup 'members' must list JSON integers")
    try:
        return Subgroup(G, obj["members"])
    except PermStabError as exc:
        raise MalformedInputError(str(exc)) from exc


def _is_int_list(obj) -> bool:
    """A JSON list of JSON integers (``true`` and ``1.0`` are not)."""
    return isinstance(obj, list) and all(type(x) is int for x in obj)


def _is_str_list(obj) -> bool:
    return isinstance(obj, list) and all(type(x) is str for x in obj)


def element_set_from_text(hom: PermHomomorphism, text: str) -> list:
    """Parse a comma-separated element set: words for presentation
    sources, integer ids for table sources."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if isinstance(hom.source, FpGroup):
        return items
    try:
        return [int(t) for t in items]
    except ValueError as exc:
        raise MalformedInputError(
            f"table-group element sets must be integer ids: {text!r}"
        ) from exc
