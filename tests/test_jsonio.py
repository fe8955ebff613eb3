"""JSON formats: roundtrips and the malformed-input corpus."""

import functools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

import permstab.groups
import permstab.jsonio
import permstab.trace_stats
from permstab.cli import dispatch
from permstab.errors import MalformedInputError
from permstab.groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    _cyclic,
    check_homomorphism,
    cyclic_group,
)
from permstab.jsonio import (
    _load_json,
    _read_bytes,
    element_set_from_text,
    format_rational,
    group_from_json,
    hom_from_json,
    image_keys,
    images_to_json,
    permutation_from_json,
    subgroup_from_json,
)
from permstab.perm import parse_permutation
from randgen import random_hom


class TestRationals:
    def test_lowest_terms(self):
        assert format_rational(Fraction(2, 6)) == "1/3"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(4, 2)) == "2"


class TestPermutationJson:
    def test_roundtrip_object(self):
        p = parse_permutation("(1 3)(2 4)", 5)
        assert permutation_from_json({"degree": 5, "images": [3, 4, 1, 2, 5]}, 5) == p

    def test_string_forms(self):
        assert permutation_from_json("(1 2)", 3) == parse_permutation("(1 2)", 3)
        assert permutation_from_json("[2,1,3]", 3) == parse_permutation("(1 2)", 3)

    def test_degree_conflict(self):
        with pytest.raises(MalformedInputError):
            permutation_from_json({"degree": 3, "images": [1, 2, 3]}, 4)
        with pytest.raises(MalformedInputError):  # two images for degree 3
            permutation_from_json({"degree": 3, "images": [2, 1]}, 3)


class TestGroupJson:
    def test_table_group(self, tmp_path):
        G = cyclic_group(3)
        obj = {"kind": "table", "order": 3, "table": [list(r) for r in G.table]}
        loaded = group_from_json(obj)
        assert loaded.group == G
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        assert group_from_json(_load_json(path, _read_bytes(path))).group == G
        # a path string is no group object: the reader opens no file
        with pytest.raises(MalformedInputError, match="'kind'"):
            group_from_json(str(path))

    def test_perm_gens_group(self):
        obj = {
            "kind": "perm-gens",
            "degree": 3,
            "generators": ["(1 2)", "(1 2 3)"],
            "names": ["a", "b"],
        }
        loaded = group_from_json(obj)
        assert loaded.group.order == 6
        assert loaded.keys == ("a", "b")

    def test_presentation_group(self):
        obj = {
            "kind": "presentation",
            "generators": ["s", "t"],
            "relators": ["s^4", "t^6", "s^2 t^-3"],
        }
        loaded = group_from_json(obj)
        assert isinstance(loaded.group, FpGroup)
        assert len(loaded.group.relators) == 3

    @pytest.mark.parametrize(
        "obj",
        [
            {"order": 2},
            {"kind": "nope"},
            {"kind": "table", "order": 3, "table": [[0, 1], [1, 0]]},
            {"kind": "table", "order": 2, "table": [[0, 0], [1, 1]]},
            {"kind": "perm-gens", "degree": 2, "generators": ["(1 3)"]},
            {"kind": "presentation", "generators": ["s"], "relators": ["u^2"]},
            {"kind": "table", "order": 2, "table": [[0, 1.0], [1, 0]]},
            {"kind": "table", "order": 2, "table": [[False, True], [True, False]]},
            {"kind": "table", "order": 2.0, "table": [[0, 1], [1, 0]]},
            {"kind": "table", "order": 2, "table": "01"},
        ],
    )
    def test_malformed_groups(self, obj):
        with pytest.raises(MalformedInputError):
            group_from_json(obj)

    @pytest.mark.parametrize("degree", [True, 2.0, "2", None])
    def test_perm_gens_degree_must_be_an_integer(self, degree):
        # true is not degree 1, and 2.0 and "2" get this message, not Python's
        obj = {"kind": "perm-gens", "degree": degree, "generators": ["()"]}
        with pytest.raises(MalformedInputError, match="^perm-gens degree must be a JSON integer$"):
            group_from_json(obj)


    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "presentation", "generators": "xy"},
            {"kind": "presentation", "generators": ["x"], "relators": "x"},
            {"kind": "presentation", "generators": ["x"], "relators": [[[0.0, 2]]]},
            {"kind": "presentation", "generators": ["x"], "relators": [[[0, 2.5]]]},
            {"kind": "perm-gens", "degree": 2, "generators": {"(1 2)": 0}},
            {"kind": "perm-gens", "degree": 3, "generators": ["(1 2)", "(2 3)"], "names": "ab"},
            {"kind": "perm-gens", "degree": 3, "generators": ["(1 2)", "(2 3)"], "names": ["a", "a"]},
            {"kind": "perm-gens", "degree": 3, "generators": ["(1 2)", "(2 3)"], "names": ["a", 1]},
        ],
    )
    def test_lists_of_distinct_names_required(self, obj):
        with pytest.raises(MalformedInputError):
            group_from_json(obj)

    def test_loaded_group_is_immutable(self):
        loaded = group_from_json({"kind": "presentation", "generators": ["x"]})
        with pytest.raises(AttributeError):
            loaded.group = FpGroup(("y",))
        assert loaded.group == FpGroup(("x",))
        assert group_from_json({"kind": "presentation", "generators": ["x"]}) is loaded

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
            {"kind": "perm-gens", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]},
            {"kind": "presentation", "generators": ["s", "t"], "relators": ["s^2", "t^3"]},
        ],
    )
    def test_one_group_per_checked_fields(self, obj):
        # the memo is keyed on the fields read, not on the object's text
        loaded = group_from_json(obj)
        assert group_from_json(dict(reversed(obj.items()))) is loaded
        assert group_from_json({**obj, "pad": [{"note": "ignored"}]}) is loaded
        assert group_from_json({**obj, "pad": {1, 2}}) is loaded  # no JSON value, not read

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"kind": "table", "order": 2, "table": ([0, 1], [1, 0])},
                "table rows must be lists of JSON integers",
            ),
            (
                {"kind": "table", "order": 2, "table": [(0, 1), (1, 0)]},
                "table rows must be lists of JSON integers",
            ),
            (
                {"kind": "perm-gens", "degree": 2, "generators": ("(1 2)",)},
                "perm-gens generators must be a JSON list",
            ),
            (
                {"kind": "perm-gens", "degree": 2, "generators": ["(1 2)"], "names": ("a",)},
                "one distinct name string per generator required",
            ),
            (
                {"kind": "presentation", "generators": ("s",)},
                "generators and relators must be lists of strings",
            ),
            (
                {"kind": "presentation", "generators": ["s"], "relators": ("s^2",)},
                "generators and relators must be lists of strings",
            ),
        ],
    )
    def test_tuples_are_not_json_lists(self, obj, message):
        # json.dumps once wrote each tuple as a list, so these were read
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
            group_from_json(obj)

    def test_memo_cleared_with_the_package_caches(self):
        # perfbench clears every module-level lru_cache of the package
        # between cold requests and set-ups; a memo it cannot see would
        # keep the groups of earlier requests
        obj = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
        loaded = group_from_json(obj)
        # the field masks of a statistic table's superset sums, likewise
        masks = permstab.trace_stats._field_masks(3, 1)
        for name, module in list(sys.modules.items()):
            if name == "permstab" or name.startswith("permstab."):
                for value in vars(module).values():
                    if isinstance(value, functools._lru_cache_wrapper):
                        value.cache_clear()
        assert permstab.trace_stats._field_masks.cache_info().currsize == 0
        again = group_from_json(obj)
        assert again is not loaded and again == loaded
        assert permstab.trace_stats._field_masks(3, 1) is not masks


# images keyed by a name that is no generator: refused with exit 65
EXTRA_IMAGE_KEYS = [
    {
        "group": {"kind": "perm-gens", "degree": 2, "generators": ["(1 2)"]},
        "degree": 2,
        "images": {"g0": "(1 2)", "g7": "nonsense"},
    },
    {
        "group": {"kind": "presentation", "generators": ["x", "y"]},
        "degree": 2,
        "images": {"x": "(1 2)", "y": "()", "z": "(1 2)"},
    },
]


class TestHomJson:
    @pytest.mark.parametrize("obj", EXTRA_IMAGE_KEYS)
    def test_images_of_unknown_generators_refused(self, obj, tmp_path):
        with pytest.raises(MalformedInputError, match="no generator"):
            hom_from_json(obj)
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(obj))
        word = "x" if obj["group"]["kind"] == "presentation" else "0"
        code, report = dispatch(["trace", "--hom", str(path), "--set", word])
        assert code == 65 and report["outputs"]["error"]["code"] == "malformed-input"
        obj["images"].pop("g7" if "g7" in obj["images"] else "z")
        assert hom_from_json(obj).degree == 2

    def test_presentation_hom(self):
        obj = {
            "group": {
                "kind": "presentation",
                "generators": ["a", "b"],
                "relators": ["a^2", "b^2", "a b a b"],
            },
            "degree": 6,
            "images": {"a": "(1 2)(3 4)", "b": "(1 2)(5 6)"},
        }
        h = hom_from_json(obj)
        assert h.degree == 6
        assert check_homomorphism(h).ok

    def test_table_hom(self):
        G = cyclic_group(2)
        obj = {
            "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
            "degree": 2,
            "images": {"0": "()", "1": "(1 2)"},
        }
        h = hom_from_json(obj)
        assert h.source == G
        assert h.images[1] == parse_permutation("(1 2)", 2)

    def test_perm_gens_hom(self):
        obj = {
            "group": {
                "kind": "perm-gens",
                "degree": 3,
                "generators": ["(1 2)", "(1 2 3)"],
                "names": ["a", "b"],
            },
            "degree": 3,
            "images": {"a": "(1 2)", "b": "(1 2 3)"},
        }
        h = hom_from_json(obj)
        assert isinstance(h.source, FiniteGroup)
        assert h.source.order == 6
        assert check_homomorphism(h).ok

    def test_images_round_trip(self, zoo8):
        # images_to_json writes a hom's images under the keys hom_from_json
        # reads, for each zoo group as a table and as a presentation whose
        # relators are its generators' orders
        rng = Random(40)
        for G in zoo8.values():
            table = {"kind": "table", "order": G.order, "table": [list(r) for r in G.table]}
            names = [f"g{k}" for k in range(len(G.generating_set))]
            relators = [f"{x}^{len(_cyclic(G, g))}" for x, g in zip(names, G.generating_set)]
            presentation = {"kind": "presentation", "generators": names, "relators": relators}
            P = FpGroup(names, relators)
            for degree in (0, 1, 4, 7):
                h = random_hom(G, degree, rng)
                presented = PermHomomorphism(P, degree, tuple(h.images[g] for g in G.generating_set))
                for group, hom in ((table, h), (presentation, presented)):
                    assert group_from_json(group).keys == image_keys(hom.source)
                    obj = {"group": group, "degree": degree, "images": images_to_json(hom)}
                    assert hom_from_json(obj) == hom

    def test_file_reference(self, tmp_path):
        # the CLI reads a group file named by path; the reader takes values only
        gpath = tmp_path / "group.json"
        gpath.write_text(
            json.dumps({"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]})
        )
        obj = {
            "group": str(gpath),
            "degree": 2,
            "images": {"0": "()", "1": "(1 2)"},
        }
        with pytest.raises(MalformedInputError, match="'kind'"):
            hom_from_json(obj)
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(obj))
        code, report = dispatch(["trace", "--hom", str(path), "--set", "1"])
        assert code == 0 and report["outputs"] == {"tr": "0"}
        assert list(report["inputs"]) == [str(path), str(gpath)]
        with pytest.raises(MalformedInputError):
            hom_from_json(str(path))

    def test_negative_degree_refused(self):
        # no image is parsed, so only the degree check can refuse it
        obj = {"group": {"kind": "presentation", "generators": []}, "degree": -1, "images": {}}
        with pytest.raises(MalformedInputError, match="non-negative"):
            hom_from_json(obj)
        obj["degree"] = 0
        assert hom_from_json(obj).degree == 0

    @pytest.mark.parametrize(
        "obj",
        [
            {"degree": 2},
            {
                "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
                "degree": 2,
                "images": {"0": "()"},
            },
            {
                # not a homomorphism: the involution maps to a 3-cycle
                "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
                "degree": 3,
                "images": {"0": "()", "1": "(1 2 3)"},
            },
            {
                # relator violated
                "group": {
                    "kind": "presentation",
                    "generators": ["a"],
                    "relators": ["a^2"],
                },
                "degree": 3,
                "images": {"a": "(1 2 3)"},
            },
            {
                # non-bijective image
                "group": {
                    "kind": "presentation",
                    "generators": ["a"],
                    "relators": [],
                },
                "degree": 3,
                "images": {"a": "[1,1,2]"},
            },
            *(
                {
                    # image entries must be JSON integers
                    "group": {"kind": "presentation", "generators": ["a"]},
                    "degree": 2,
                    "images": {"a": {"degree": 2, "images": images}},
                }
                for images in ([2.0, 1], [True, 2], ["2", 1])
            ),
            {
                # the homomorphism degree must be a JSON integer too
                "group": {"kind": "presentation", "generators": ["a"]},
                "degree": 2.0,
                "images": {"a": "(1 2)"},
            },
            *(
                {
                    # images must be an object keyed by element id
                    "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
                    "degree": 2,
                    "images": images,
                }
                for images in ("(1 2)", ["()", "(1 2)"])
            ),
        ],
    )
    def test_malformed_homs(self, obj):
        with pytest.raises(MalformedInputError):
            hom_from_json(obj)

    def test_shape_checked_before_the_group_is_built(self, monkeypatch, tmp_path):
        # building an S7 perm-gens group closes it to 5,040 elements; a bad
        # degree or images value is refused with its own message first
        def unbuilt(gens):
            raise AssertionError("the group was built")

        monkeypatch.setattr(permstab.jsonio, "group_from_permutations", unbuilt)
        permstab.jsonio._loaded_group.cache_clear()
        for n in (7, 8):
            cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
            group = {"kind": "perm-gens", "degree": n, "generators": ["(1 2)", cycle]}
            named = {"g0": "(1 2)", "g1": cycle}
            for degree, images, message in (
                (n, ["(1 2)", cycle], "homomorphism images must be a JSON object"),
                (n, "(1 2)", "homomorphism images must be a JSON object"),
                (-1, named, "homomorphism degree must be a non-negative JSON integer"),
                (n + 0.0, named, "homomorphism degree must be a non-negative JSON integer"),
            ):
                obj = {"group": group, "degree": degree, "images": images}
                with pytest.raises(MalformedInputError, match=f"^{message}$"):
                    hom_from_json(obj)
        # an S8 group with list images was refused by the closure bound
        # (exit 2); it is now a malformed file
        path = tmp_path / "s8.json"
        path.write_text(json.dumps({"group": group, "degree": 8, "images": ["(1 2)", cycle]}))
        code, report = dispatch(["conj", str(path), str(path)])
        assert (code, report["outputs"]["error"]["code"]) == (65, "malformed-input")
        monkeypatch.undo()
        path.write_text(json.dumps({"group": group, "degree": 8, "images": named}))
        code, report = dispatch(["conj", str(path), str(path)])
        assert (code, report["outputs"]["error"]["code"]) == (2, "BoundExceededError")

    def test_images_parsed_before_the_group_is_closed(self, monkeypatch, tmp_path):
        # an S7 hom holding an unparsable image was refused only after the
        # closure, 1.2 s and 211 MB; a bad image now also outranks the S8
        # closure bound and the size bound on |G| x degree (exit 2 before)
        def unbuilt(gens):
            raise AssertionError("the group was built")

        monkeypatch.setattr(permstab.jsonio, "group_from_permutations", unbuilt)
        permstab.jsonio._loaded_group.cache_clear()
        for n, degree in ((7, 7), (8, 8), (7, 200)):  # 5,040 x 200 is over the bound
            cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
            group = {"kind": "perm-gens", "degree": n, "generators": ["(1 2)", cycle]}
            obj = {"group": group, "degree": degree, "images": {"g0": "(1 2", "g1": "()"}}
            with pytest.raises(MalformedInputError, match=re.escape("text: '(1 2'")):
                hom_from_json(obj)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(obj))
            code, report = dispatch(["conj", str(path), str(path)])
            assert (code, report["outputs"]["error"]["code"]) == (65, "malformed-input")

    def test_perm_gens_checked_once(self, monkeypatch):
        calls = []
        real = permstab.groups.check_homomorphism

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(permstab.groups, "check_homomorphism", counting)
        monkeypatch.setattr(permstab.jsonio, "check_homomorphism", counting)
        obj = {
            "group": {
                "kind": "perm-gens",
                "degree": 3,
                "generators": ["(1 2)", "(1 2 3)"],
                "names": ["a", "b"],
            },
            "degree": 3,
            "images": {"a": "(1 2)", "b": "(1 2 3)"},
        }
        hom_from_json(obj)
        assert len(calls) == 0

    def test_one_group_build_for_two_files(self, tmp_path, monkeypatch):
        # two homomorphism files of one perm-gens S4 build its table once
        calls = []
        real = permstab.jsonio.group_from_permutations

        def counting(gens):
            calls.append(len(gens))
            return real(gens)

        monkeypatch.setattr(permstab.jsonio, "group_from_permutations", counting)
        permstab.jsonio._loaded_group.cache_clear()
        group = {
            "kind": "perm-gens",
            "degree": 4,
            "generators": ["(1 2)", "(1 2 3 4)"],
            "names": ["s", "t"],
        }
        paths = []
        for name, images in (
            ("h1.json", {"s": "(1 2)", "t": "(1 2 3 4)"}),
            ("h2.json", {"s": "(2 3)", "t": "(1 4 3 2)"}),  # conjugated by (1 3)
        ):
            path = tmp_path / name
            path.write_text(json.dumps({"group": group, "degree": 4, "images": images}))
            paths.append(str(path))
        code, report = dispatch(["conj", *paths])
        assert code == 0 and report["outputs"]["conjugate"] is True
        assert calls == [2]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(MalformedInputError, match="^cannot read /nonexistent/path.json: "):
            _read_bytes("/nonexistent/path.json")
        with pytest.raises(MalformedInputError, match="cannot read"):
            _read_bytes(tmp_path)  # a directory

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        message = f"^{re.escape(str(path))} is not valid JSON: "
        with pytest.raises(MalformedInputError, match=message):
            _load_json(str(path), _read_bytes(path))

    def test_files_read_as_utf8(self, tmp_path):
        path = tmp_path / "names.json"
        path.write_bytes('{"name": "\u00e9", "n": [1,\r\n 2]}'.encode())
        assert _load_json(str(path), _read_bytes(path)) == {"name": "\u00e9", "n": [1, 2]}
        for bad in (b"\xff", "\u00e9".encode("latin-1"), b'"\xed\xa0\x80"'):
            with pytest.raises(MalformedInputError, match="utf-8"):
                _load_json("bad.json", bad)

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode decodes text files as ASCII
        path = tmp_path / "names.json"
        path.write_bytes('"\u00e9"'.encode())
        code = (
            "from permstab.jsonio import _load_json, _read_bytes; "
            f"print(ascii(_load_json({str(path)!r}, _read_bytes({str(path)!r}))))"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(permstab.jsonio.__file__)),
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
        }
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout.strip() == "'\\xe9'", done.stderr

    def test_newlines_translated_before_parsing(self):
        # an error's line and column are those of the file with each
        # "\r\n" or "\r" read as "\n"
        for sep in ("\n", "\r\n", "\r"):
            with pytest.raises(MalformedInputError) as caught:
                _load_json("bad.json", sep.join(["{", '"a": 1,', "}"]).encode())
            assert str(caught.value).endswith("line 3 column 1 (char 10)")

    def test_too_deep_or_too_long_is_malformed(self):
        # RecursionError and the int-conversion limit's ValueError used to
        # escape as internal errors
        with pytest.raises(MalformedInputError, match="^deep.json is not valid JSON: "):
            _load_json("deep.json", b"[" * 100_000)
        with pytest.raises(MalformedInputError, match="^long.json is not valid JSON: "):
            _load_json("long.json", b'{"degree": ' + b"9" * 5_000 + b"}")

    def test_nested_values_refused_where_read(self):
        # a value nested deeper than any file can hold: each field that is
        # read refuses it with its own message, and an ignored key is not read
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        table = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
        perm_gens = {"kind": "perm-gens", "degree": 2, "generators": ["(1 2)"]}
        presentation = {"kind": "presentation", "generators": ["x"]}
        for obj, message in (
            ({**table, "table": [[0, 1], deep]}, "table rows must be lists of JSON integers"),
            ({**perm_gens, "generators": [deep]}, "cannot read a permutation from a list nested"),
            ({**perm_gens, "names": [deep]}, "one distinct name string per generator required"),
            ({**presentation, "relators": [deep]}, "generators and relators must be lists of strings"),
        ):
            with pytest.raises(MalformedInputError, match=f"^{message}"):
                group_from_json(obj)
        for group in (table, perm_gens, presentation):
            assert group_from_json({**group, "pad": deep}) is group_from_json(group)
        # a hom image so deep used to escape as a RecursionError
        with pytest.raises(MalformedInputError, match="^cannot read a permutation from a list"):
            hom_from_json({"group": presentation, "degree": 2, "images": {"x": deep}})


class TestSubgroupJson:
    def test_members(self):
        G = cyclic_group(4)
        H = subgroup_from_json({"members": [0, 2]}, G)
        assert H.members == (0, 2)

    def test_not_closed(self):
        G = cyclic_group(4)
        with pytest.raises(MalformedInputError):
            subgroup_from_json({"members": [0, 1]}, G)

    @pytest.mark.parametrize("members", [[0, 1.9], "01", [True, False], [0, "1"]])
    def test_members_must_be_integers(self, tmp_path, members):
        # each of these once read as {0, 1}, a subgroup of Z2
        group = tmp_path / "z2.json"
        group.write_text(json.dumps({"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}))
        sub = tmp_path / "members.json"
        sub.write_text(json.dumps({"members": members}))
        code, report = dispatch(["complement", str(group), str(sub)])
        assert code == 65
        assert report["outputs"]["error"]["code"] == "malformed-input"

    @pytest.mark.parametrize(
        "table", [[[0, 1.0], [1, 0]], [[False, True], [True, False]]]
    )
    def test_table_entries_must_be_integers(self, tmp_path, table):
        group = tmp_path / "z2.json"
        group.write_text(json.dumps({"kind": "table", "order": 2, "table": table}))
        sub = tmp_path / "members.json"
        sub.write_text(json.dumps({"members": [0]}))
        code, _ = dispatch(["complement", str(group), str(sub)])
        assert code == 65


class TestElementSets:
    def test_words_for_presentation(self):
        obj = {
            "group": {"kind": "presentation", "generators": ["a"], "relators": []},
            "degree": 2,
            "images": {"a": "(1 2)"},
        }
        h = hom_from_json(obj)
        assert element_set_from_text(h, "a, a^2") == ["a", "a^2"]

    def test_ids_for_table(self):
        obj = {
            "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
            "degree": 2,
            "images": {"0": "()", "1": "(1 2)"},
        }
        h = hom_from_json(obj)
        assert element_set_from_text(h, "0, 1") == [0, 1]
        with pytest.raises(MalformedInputError):
            element_set_from_text(h, "a,b")
