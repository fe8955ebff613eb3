"""Command dispatch, exit codes, determinism, and error objects."""

import ast
import builtins
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
import permstab
from permstab import cli
from permstab.cli import (
    EXIT_BADFILE,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_IOERR,
    EXIT_OK,
    EXIT_USAGE,
    REQUIRED,
    dispatch,
)
from permstab.perm import parse_permutation
from permstab.trace_stats import DEFAULT_MOVED_SET_BOUND


FREE_X = {"kind": "presentation", "generators": ["x"], "relators": []}


def write_corpus(directory):
    """A small corpus of input files used across CLI tests."""

    def write(name, obj):
        path = directory / name
        path.write_text(json.dumps(obj))
        return str(path)

    klein = {
        "kind": "presentation",
        "generators": ["a", "b"],
        "relators": ["a^2", "b^2", "a b a b"],
    }
    klein_table = {
        "kind": "table",
        "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }
    z2 = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
    paths = {
        "theta1": write(
            "theta1.json",
            {
                "group": klein_table,
                "degree": 6,
                "images": {
                    "0": "()",
                    "1": "(1 2)(5 6)",
                    "2": "(1 2)(3 4)",
                    "3": "(3 4)(5 6)",
                },
            },
        ),
        "theta2": write(
            "theta2.json",
            {
                "group": klein_table,
                "degree": 6,
                "images": {
                    "0": "()",
                    "1": "(1 3)(2 4)",
                    "2": "(1 2)(3 4)",
                    "3": "(1 4)(2 3)",
                },
            },
        ),
        "theta2_words": write(
            "theta2w.json",
            {
                "group": klein,
                "degree": 6,
                "images": {"a": "(1 2)(3 4)", "b": "(1 3)(2 4)"},
            },
        ),
        "phi1": write(
            "phi1.json",
            {
                "group": z2,
                "degree": 10,
                "images": {"0": "()", "1": "(1 2)(3 4)"},
            },
        ),
        "phi2": write(
            "phi2.json",
            {
                "group": z2,
                "degree": 10,
                "images": {"0": "()", "1": "(1 2)(5 6)"},
            },
        ),
        "phi1_s8": write(
            "phi1_s8.json",
            {
                "group": z2,
                "degree": 8,
                "images": {"0": "()", "1": "(1 2)(3 4)"},
            },
        ),
        "phi2_s8": write(
            "phi2_s8.json",
            {
                "group": z2,
                "degree": 8,
                "images": {"0": "()", "1": "(1 2)(5 6)"},
            },
        ),
        "s3": write(
            "s3.json",
            {
                "kind": "perm-gens",
                "degree": 3,
                "generators": ["(1 2)", "(1 2 3)"],
                "names": ["u", "v"],
            },
        ),
        "z4": write(
            "z4.json",
            {
                "kind": "table",
                "order": 4,
                "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
            },
        ),
        "z4_half": write("z4half.json", {"members": [0, 2]}),
        "z2_swap": write(
            "z2swap.json",
            {"group": z2, "degree": 2, "images": {"0": "()", "1": "(1 2)"}},
        ),
        "a3_members": write("a3.json", {"members": [0, 3, 4]}),
        "t12_members": write("t12.json", {"members": [0, 2]}),
        "z3_regular_deg9": write(
            "z3reg9.json",
            {
                "group": {
                    "kind": "table",
                    "order": 3,
                    "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                },
                "degree": 9,
                "images": {
                    "0": "()",
                    "1": "(1 2 3)(4 5 6)(7 8 9)",
                    "2": "(1 3 2)(4 6 5)(7 9 8)",
                },
            },
        ),
        "z3_regular": write(
            "z3reg.json",
            {
                "group": {
                    "kind": "table",
                    "order": 3,
                    "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                },
                "degree": 3,
                "images": {"0": "()", "1": "(1 2 3)", "2": "(1 3 2)"},
            },
        ),
        "psi_s": write(
            "psi_s.json",
            {
                "group": {"kind": "presentation", "generators": ["s"], "relators": ["s^4"]},
                "degree": 4,
                "images": {"s": "(1 2 3 4)"},
            },
        ),
        "psi_s_swap": write(
            "psi_s_swap.json",
            {
                "group": {"kind": "presentation", "generators": ["s"], "relators": ["s^4"]},
                "degree": 2,
                "images": {"s": "(1 2)"},
            },
        ),
        "psi_t": write(
            "psi_t.json",
            {
                "group": {"kind": "presentation", "generators": ["t"], "relators": ["t^6"]},
                "degree": 4,
                "images": {"t": "(1 3)(2 4)"},
            },
        ),
        "psi_t_bad": write(
            "psi_t_bad.json",
            {
                "group": {"kind": "presentation", "generators": ["t"], "relators": ["t^6"]},
                "degree": 4,
                "images": {"t": "(1 2)"},
            },
        ),
        "hmap": write(
            "hmap.json",
            {"pairs": [["s^2", "t^3"]], "relators": ["s^4", "t^6", "s^2 t^-3"]},
        ),
        "graph_hom": write(
            "graph.json",
            {
                "group": {"kind": "presentation", "generators": ["x"], "relators": []},
                "degree": 3,
                "images": {"x": "(1 2 3)"},
            },
        ),
        "graph_id": write(
            "graph_id.json",
            {
                "group": {"kind": "presentation", "generators": ["x"], "relators": []},
                "degree": 3,
                "images": {"x": "()"},
            },
        ),
        "bad_json": str((directory / "bad.json")),
    }
    (directory / "bad.json").write_text("{oops")
    return paths


@pytest.fixture()
def files(tmp_path):
    return write_corpus(tmp_path)


def sl2z_images(rng, pairs, fixed):
    """Cycle texts of ``s`` and ``t`` in a random action of SL2(Z) on
    ``4 * pairs + fixed`` points.  The central involution ``z = s^2 = t^3``
    swaps ``2 * pairs`` pairs of points: ``s`` joins two swapped pairs
    (a b), (c d) into the 4-cycle (a c b d), and ``t`` keeps a swapped
    pair as a 2-cycle or joins three into the 6-cycle (a c e b d f).  On
    the points ``z`` fixes, ``s`` is an involution and ``t^3`` is 1."""
    points = list(range(1, 4 * pairs + fixed + 1))
    rng.shuffle(points)
    swapped = [points[i:i + 2] for i in range(0, 4 * pairs, 2)]
    rest = points[4 * pairs:]
    s = [(a, c, b, d) for (a, b), (c, d) in zip(swapped[::2], swapped[1::2])]
    s += [rest[i:i + 2] for i in range(0, 2 * rng.randint(0, fixed // 2), 2)]
    rng.shuffle(swapped)
    t = []
    while swapped:
        if len(swapped) >= 3 and rng.random() < 0.5:
            (a, b), (c, d), (e, f) = swapped[:3]
            t.append((a, c, e, b, d, f))
            del swapped[:3]
        else:
            t.append(swapped.pop())
    rng.shuffle(rest)
    t += [rest[i:i + 3] for i in range(0, 3 * rng.randint(0, fixed // 3), 3)]
    return tuple(
        "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()" for cycles in (s, t)
    )


class TestBasicCommands:
    def test_trace(self, files):
        code, report = dispatch(["trace", "--hom", files["theta2_words"], "--set", "a,b"])
        assert code == EXIT_OK
        assert report["outputs"] == {"tr": "1/3"}

    def test_trace_table_ids(self, files):
        code, report = dispatch(["trace", "--hom", files["theta1"], "--set", "1,2"])
        assert code == EXIT_OK
        assert report["outputs"] == {"tr": "0"}

    def test_stats(self, files):
        code, report = dispatch(
            ["stats", "--hom", files["theta2_words"], "--fixed", "a", "--moved", "b"]
        )
        assert code == EXIT_OK
        assert report["outputs"] == {"s": "0"}

    def test_mult(self, files):
        code, report = dispatch(["mult", files["theta2"]])
        assert code == EXIT_OK
        rows = report["outputs"]["classes"]
        assert report["outputs"]["degree"] == 6
        assert {r["r"] for r in rows} == {"1/6", "0", "1/3"}

    def test_conj_not_conjugate(self, files):
        code, report = dispatch(["conj", files["theta1"], files["theta2"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"conjugate": False, "witness": None}

    def test_conj_identity_witness(self, files):
        code, report = dispatch(["conj", files["theta1"], files["theta1"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"conjugate": True, "witness": "()"}

    def test_order(self, files):
        code, report = dispatch(["order", files["theta1"], files["theta2"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"leq": False, "geq": False}

    def test_order_walks_the_orbits_once(self, files, monkeypatch):
        # one census of both actions answers leq and geq
        walks = []
        real = permstab.multiplicity._orbit_types
        monkeypatch.setattr(
            permstab.multiplicity, "_orbit_types", lambda *a: walks.append(1) or real(*a)
        )
        code, report = dispatch(["order", files["theta1"], files["theta1"]])
        assert (code, report["outputs"], walks) == (EXIT_OK, {"leq": True, "geq": True}, [1])
        code, report = dispatch(["order", files["theta1"], files["z3_regular"]])
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["code"] == "SourceMismatchError"

    def test_small_conj(self, files):
        code, report = dispatch(["small-conj", files["phi1"], files["phi2"]])
        assert code == EXIT_OK
        out = report["outputs"]
        assert out["conjugator"] == "(3 5)(4 6)"
        assert out["distance"] == "2/5"
        assert out["agreement_size"] == 6

    def test_small_conj_one_agreement_set_per_request(self, files, monkeypatch):
        from permstab import stability

        calls = []
        real = stability.agreement_set

        def counted(h1, h2):
            calls.append(1)
            return real(h1, h2)

        monkeypatch.setattr(stability, "agreement_set", counted)
        code, report = dispatch(["small-conj", files["phi1"], files["phi2"]])
        assert code == EXIT_OK and report["outputs"]["agreement_size"] == 6
        assert len(calls) == 1

    def test_min_conj(self, files):
        # frozen from an exhaustive scan of all degree-8 conjugators
        code, report = dispatch(["min-conj", files["phi1_s8"], files["phi2_s8"]])
        assert code == EXIT_OK
        assert report["outputs"]["min_distance"] == "1/2"

    def test_min_conj_degree_bound_is_domain_error(self, files):
        code, report = dispatch(["min-conj", files["phi1"], files["phi2"]])
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"] == {
            "code": "BoundExceededError",
            "message": "degree 10 exceeds exact-search bound 8",
        }

    def test_extend(self, files):
        code, report = dispatch(
            ["extend", files["s3"], files["a3_members"], files["z3_regular"]]
        )
        assert code == EXIT_OK
        assert report["outputs"]["found"] is True

    def test_extend_above_degree_8(self, files):
        code, report = dispatch(
            ["extend", files["s3"], files["a3_members"], files["z3_regular_deg9"]]
        )
        assert code == EXIT_OK
        out = report["outputs"]
        assert out["found"] is True
        # the A3 members 0, 3, 4 keep the images of phi
        assert [out["extension"][g] for g in ("0", "3", "4")] == [
            "()",
            "(1 2 3)(4 5 6)(7 8 9)",
            "(1 3 2)(4 6 5)(7 9 8)",
        ]

    def test_extend_not_found(self, files):
        # every Z4-set restricts to an even number of swaps on its order-2
        # subgroup, so one swap has no extension
        code, report = dispatch(["extend", files["z4"], files["z4_half"], files["z2_swap"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"found": False, "extension": None}

    def test_complement(self, files):
        code, report = dispatch(["complement", files["s3"], files["t12_members"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"found": True, "complement": [0, 3, 4]}

    def test_complement_not_found(self, files):
        # Z4 is not Z2 x Z2
        code, report = dispatch(["complement", files["z4"], files["z4_half"]])
        assert code == EXIT_OK
        assert report["outputs"] == {"found": False, "complement": None}

    def test_amalgam_valid(self, files):
        code, report = dispatch(
            ["amalgam", files["psi_s"], files["psi_t"], "--h-map", files["hmap"]]
        )
        assert code == EXIT_OK
        assert report["outputs"] == {"valid": True, "degree": 4, "relators_ok": True}

    def test_amalgam_mismatch(self, files):
        code, report = dispatch(
            ["amalgam", files["psi_s"], files["psi_t_bad"], "--h-map", files["hmap"]]
        )
        assert code == EXIT_DOMAIN
        err = report["outputs"]["error"]
        assert err["witness"] == ["s^2", "t^3"]

    def test_lift(self, files):
        code, report = dispatch(
            ["lift", files["z3_regular"], files["z3_regular"], "--copies", "2"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["degree"] == 9
        assert report["outputs"]["verified"] is True

    def test_lift_presentation_images_by_generator_name(self, files):
        code, report = dispatch(
            ["lift", files["psi_s"], files["psi_s_swap"], "--copies", "2"]
        )
        assert code == EXIT_OK
        assert report["outputs"] == {
            "degree": 10,
            "verified": True,
            "images": {"s": "(1 2 3 4)(5 6 7 8)(9 10)"},
        }

    def test_oversized_lift_is_domain_error(self, files):
        start = time.perf_counter()
        code, report = dispatch(
            ["lift", files["z3_regular"], files["z3_regular"], "--copies", "100000000"]
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["code"] == "BoundExceededError"

    def test_oversized_lift_refused_before_any_image_is_parsed(self, tmp_path):
        # a Z2 table hom of degree 499,999 (249,999 transpositions, 3.6 MB)
        # lifted once onto itself holds 2 x 999,998 image entries: refused
        # from the files' groups and degrees, where parsing both homs first
        # took 2.3-3.3 s and 131 MB in a fresh process
        group = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
        swaps = "".join(f"({2 * i + 1} {2 * i + 2})" for i in range(249_999))
        big, bad = tmp_path / "z2.json", tmp_path / "z2_bad.json"
        big.write_text(json.dumps(
            {"group": group, "degree": 499_999, "images": {"0": "()", "1": swaps}}
        ))
        bad.write_text(json.dumps(
            {"group": group, "degree": 499_999, "images": {"0": "()", "1": "(1 2"}}
        ))
        error = {
            "code": "BoundExceededError",
            "message": "lift images hold 2 x 999998 = 1999996 image entries, bound is 1000000",
        }
        argv = ["lift", str(big), str(big), "--copies", "1"]
        script = f"from permstab.cli import main; raise SystemExit(main({argv!r}))"
        start = time.perf_counter()
        done = fresh_python(script, capture_output=True, text=True)
        assert time.perf_counter() - start < 0.5
        assert done.returncode == EXIT_DOMAIN
        assert json.loads(done.stdout)["outputs"] == {"error": error}
        # the one change of precedence: malformed image text in an oversized
        # lift is not read, so the lift exits 2 rather than 65
        code, report = dispatch(["lift", str(big), str(bad), "--copies", "1"])
        assert code == EXIT_DOMAIN and report["outputs"] == {"error": error}
        code, report = dispatch(["lift", str(bad), str(bad), "--copies", "0"])
        assert code == EXIT_BADFILE

    def test_lift_checks_only_its_inputs(self, files, monkeypatch):
        # each table-source input is checked once on loading; the block
        # sum is a homomorphism by construction and is not checked again
        # (one check fewer than when the output was re-checked)
        import permstab.groups
        import permstab.jsonio

        calls = []
        real = permstab.groups.check_homomorphism

        def counting(h):
            calls.append(h.degree)
            return real(h)

        for module in (permstab.groups, permstab.jsonio, cli):
            monkeypatch.setattr(module, "check_homomorphism", counting, raising=False)
        code, report = dispatch(
            ["lift", files["z3_regular"], files["z3_regular"], "--copies", "2"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["verified"] is True
        assert calls == [3, 3]

    def test_correct(self, files):
        code, report = dispatch(
            [
                "correct",
                "--coef",
                "(1 2 3)",
                "--almost",
                "(1 2)",
                "--degree",
                "3",
                "--mode",
                "exact",
            ]
        )
        assert code == EXIT_OK
        out = report["outputs"]
        assert out["corrected"] == "()"
        assert out["distance"] == "2/3"
        assert out["input_defect"] == "1"

    def test_graph(self, files):
        code, report = dispatch(["graph", files["graph_hom"]])
        assert code == EXIT_OK
        assert report["outputs"]["edges"] == [[1, 2, "x"], [2, 3, "x"], [3, 1, "x"]]

    def test_dstat(self, files):
        code, report = dispatch(
            ["dstat", files["graph_hom"], files["graph_id"], "--size-bound", "2"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["d_stat"] == "13/32"
        assert len(report["outputs"]["per_pattern"]) == 3

    def test_graph_and_dstat_do_not_see_relators(self, tmp_path):
        # the reports on actions of SL2(Z) are those of the same images
        # under the free group on s and t
        rng = Random(9)
        free = {"kind": "presentation", "generators": ["s", "t"]}
        sl2z = {**free, "relators": ["s^4", "t^6", "s^2 t^-3"]}
        paths = []
        for j, (pairs, fixed) in enumerate([(1, 0), (1, 5), (2, 6), (3, 4), (5, 3)]):
            images = dict(zip("st", sl2z_images(rng, pairs, fixed)))
            pair = []
            for name, group in (("sl2z", sl2z), ("free", free)):
                path = tmp_path / f"{name}{j}.json"
                path.write_text(json.dumps(
                    {"group": group, "degree": 4 * pairs + fixed, "images": images}
                ))
                pair.append(str(path))
            paths.append(pair)
        listed = 0
        for pair in paths:
            reports = [dispatch(["graph", path]) for path in pair]
            assert [code for code, _ in reports] == [EXIT_OK, EXIT_OK]
            assert json.dumps(reports[0][1]["outputs"]) == json.dumps(reports[1][1]["outputs"])
        for (a, a_free), (b, b_free) in combinations(paths, 2):
            code, report = dispatch(["dstat", a, b, "--size-bound", "3"])
            _, free_report = dispatch(["dstat", a_free, b_free, "--size-bound", "3"])
            assert code == EXIT_OK
            assert json.dumps(report["outputs"]) == json.dumps(free_report["outputs"])
            listed += len(report["outputs"]["per_pattern"])
        assert listed > 0

    def test_graph_of_a_table_source_is_domain_error(self, files):
        code, report = dispatch(["graph", files["theta1"]])
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["code"] == "SourceMismatchError"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_dstat_bound_below_one(self, files, bound):
        code, report = dispatch(
            ["dstat", files["graph_hom"], files["graph_id"], "--size-bound", bound]
        )
        assert code == EXIT_OK
        assert report["outputs"]["d_stat"] == "0"
        assert report["outputs"]["per_pattern"] == []

    def test_verify_paper(self, files):
        code, report = dispatch(["verify-paper"])
        assert code == EXIT_OK
        checks = report["outputs"]["checks"]
        by_name = {c["name"]: c for c in checks}
        assert by_name["trace theta1 {a,b}"]["pass"]
        assert by_name["theta1, theta2 conjugate"]["pass"]
        assert by_name["hamming distance k=4"]["pass"]
        # the bundled minimum-distance claim is reported honestly as failing
        assert not by_name["min conjugator distance, swapped pair k=2"]["pass"]
        assert by_name["min conjugator distance, swapped pair k=2"]["actual"] == "3/4"
        assert report["outputs"]["all_pass"] is False


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, report = dispatch(["frobnicate"])
        assert code == EXIT_USAGE
        assert report["outputs"]["error"]["code"] == "usage"

    def test_missing_subcommand(self):
        code, _ = dispatch([])
        assert code == EXIT_USAGE

    def test_malformed_file(self, files):
        code, report = dispatch(["mult", files["bad_json"]])
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"]["code"] == "malformed-input"

    def test_missing_file(self):
        code, _ = dispatch(["mult", "/does/not/exist.json"])
        assert code == EXIT_BADFILE

    def test_non_utf8_file_is_malformed(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "table", \xff}')
        code, report = dispatch(["trace", "--hom", str(path), "--set", "1"])
        assert code == EXIT_BADFILE
        error = report["outputs"]["error"]
        assert error["code"] == "malformed-input" and "utf-8" in error["message"]

    def test_float_image_is_malformed(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(
            json.dumps(
                {
                    "group": {"kind": "presentation", "generators": ["x"]},
                    "degree": 3,
                    "images": {"x": {"degree": 3, "images": [2.0, 3, 1]}},
                }
            )
        )
        code, report = dispatch(["graph", str(path)])
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"]["code"] == "malformed-input"

    @pytest.mark.parametrize(
        "argv",
        [["graph"], ["lift", "--copies", "2"], ["trace", "--set", "", "--hom"], ["stats", "--hom"]],
    )
    def test_negative_degree_is_malformed(self, tmp_path, argv):
        # no generators, so no image parse saw the degree: graph and lift
        # exited 0 with a negative degree, trace and stats exited 70
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(
            {"group": {"kind": "presentation", "generators": []}, "degree": -3, "images": {}}
        ))
        argv = argv + [str(path)] * (2 if argv[0] == "lift" else 1)
        code, report = dispatch(argv)
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"] == {
            "code": "malformed-input",
            "message": "homomorphism degree must be a non-negative JSON integer",
        }

    def test_file_holding_a_path_string_is_malformed(self, tmp_path, monkeypatch):
        # a file whose JSON value is a string is not followed: it used to be
        # read as the path of a file that the report's inputs did not list
        real = tmp_path / "real.json"
        real.write_text(json.dumps(
            {"group": {"kind": "presentation", "generators": ["x"]}, "degree": 3,
             "images": {"x": "(1 2 3)"}}
        ))
        alias = tmp_path / "alias.json"
        alias.write_text(json.dumps(str(real)))
        group = tmp_path / "g.json"
        group.write_text(json.dumps({"kind": "presentation", "generators": ["x"]}))
        galias = tmp_path / "galias.json"
        galias.write_text(json.dumps(str(group)))
        hom = tmp_path / "hom.json"
        hom.write_text(json.dumps({"group": str(galias), "degree": 3, "images": {"x": "(1 2 3)"}}))
        opened = []
        real_open = builtins.open

        def recording(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording)
        for path, message, files_read in (
            (alias, "homomorphism object must be a JSON object", [alias]),
            (hom, "group object must carry a 'kind' field", [hom, galias]),
        ):
            opened.clear()
            code, report = dispatch(["graph", str(path)])
            assert code == EXIT_BADFILE
            assert report["outputs"]["error"] == {"code": "malformed-input", "message": message}
            assert opened == list(report["inputs"]) == [str(f) for f in files_read]

    @pytest.mark.parametrize("g1,code", [("()", EXIT_BADFILE), ("(1 2)", EXIT_OK)])
    def test_generators_of_one_element_need_one_image(self, tmp_path, g1, code):
        # g0 and g1 are both (1 2): the second image used to replace the first
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "group": {"kind": "perm-gens", "degree": 2, "generators": ["(1 2)", "(1 2)"]},
            "degree": 2,
            "images": {"g0": "(1 2)", "g1": g1},
        }))
        got, report = dispatch(["trace", "--hom", str(path), "--set", "1"])
        assert got == code
        if code == EXIT_OK:
            assert report["outputs"] == {"tr": "0"}
        else:
            assert report["outputs"]["error"]["code"] == "malformed-input"

    def test_lattice_bound_is_domain_error(self, tmp_path):
        # S6 has order 720, above the subgroup-lattice bound of 200: the
        # census must refuse it at once rather than enumerate its lattice
        path = tmp_path / "s6.json"
        path.write_text(
            json.dumps(
                {
                    "group": {
                        "kind": "perm-gens",
                        "degree": 6,
                        "generators": ["(1 2)", "(1 2 3 4 5 6)"],
                    },
                    "degree": 6,
                    "images": {"g0": "(1 2)", "g1": "(1 2 3 4 5 6)"},
                }
            )
        )
        code, report = dispatch(["mult", str(path)])
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["code"] == "BoundExceededError"

    def test_closure_bound_is_domain_error(self, tmp_path):
        # S8 (order 40,320) passes the closure bound of |S7| = 5,040: the
        # closure stops there at once instead of building a 1.6e9-entry table
        group = {"kind": "perm-gens", "degree": 8, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]}
        path = tmp_path / "s8.json"
        path.write_text(
            json.dumps({"group": group, "degree": 8,
                        "images": {"g0": "(1 2)", "g1": "(1 2 3 4 5 6 7 8)"}})
        )
        started = time.monotonic()
        code, report = dispatch(["conj", str(path), str(path)])
        assert time.monotonic() - started < 1.0
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"] == {
            "code": "BoundExceededError",
            "message": "group order exceeds bound 5040",
        }

    def test_moved_set_of_any_size(self, tmp_path):
        # the moved-set bound binds s_from_tr only: stats counts with
        # bs_statistic, one AND per element, so the 23 ids other than the
        # identity of the regular action of Z24 move every point
        cycle = "(" + " ".join(map(str, range(1, 25))) + ")"
        path = tmp_path / "z24.json"
        path.write_text(json.dumps({
            "group": {"kind": "perm-gens", "degree": 24, "generators": [cycle]},
            "degree": 24,
            "images": {"g0": cycle},
        }))
        moved = range(1, 24)
        assert len(moved) > DEFAULT_MOVED_SET_BOUND
        code, report = dispatch(
            ["stats", "--hom", str(path), "--moved", ",".join(map(str, moved))]
        )
        assert code == EXIT_OK
        assert report["outputs"] == {"s": "1"}

    @pytest.mark.parametrize("letters,bound", [(3, None), (10, "1")])
    def test_pattern_key_budget_is_domain_error(self, tmp_path, letters, bound):
        # three letters at the default bound 4 ran for minutes; ten letters
        # at bound 1 would list 10! slot orders first
        generators = [f"g{i}" for i in range(letters)]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({
            "group": {"kind": "presentation", "generators": generators, "relators": []},
            "degree": 3,
            "images": {g: "(1 2 3)" for g in generators},
        }))
        argv = ["dstat", str(path), str(path)] + ["--size-bound", bound] * (bound is not None)
        code, report = dispatch(argv)
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"] == {
            "code": "BoundExceededError",
            "message": f"patterns of {letters} letters at size bound {bound or 4} need more"
                       " than 120000 traversal keys to enumerate",
        }

    @pytest.mark.parametrize("coef", ["(1 2 3)", "(1 2 3"])
    def test_exact_correct_refused_before_parsing(self, coef):
        # an exact-mode degree over the bound is refused before the two
        # degree-4,000,000 permutations are built (1.4 s and 540 MB), and
        # before an unparsable one is read
        argv = ["correct", "--coef", coef, "--almost", "(4 5)", "--degree", "4000000"]
        started = time.monotonic()
        code, report = dispatch(argv)
        assert time.monotonic() - started < 0.1
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"] == {
            "code": "BoundExceededError",
            "message": "exact mode requires degree <= 8",
        }

    @pytest.mark.parametrize("name,hom,argv", [
        # a one-generator presentation hom of about 100 bytes: exit 70 with
        # a MemoryError (degree 2e8) or an OverflowError (degree 1e21)
        ("deg2e8", {"group": FREE_X, "degree": 2 * 10**8, "images": {"x": "(1 2)"}},
         ["trace", "--hom", "{}", "--set", "x"]),
        ("deg1e21", {"group": FREE_X, "degree": 10**21, "images": {"x": "(1 2)"}},
         ["trace", "--hom", "{}", "--set", "x"]),
        # no generators: the identity is still one image of that degree
        ("nogens", {"group": {"kind": "presentation", "generators": []}, "degree": 10**21,
                    "images": {}}, ["graph", "{}"]),
        # S7 at degree 20,000 answered after 20-45 s and 1-1.8 GB
        ("s7", {"group": {"kind": "perm-gens", "degree": 20000,
                          "generators": ["(1 2)", "(1 2 3 4 5 6 7)"]},
                "degree": 20000, "images": {"g0": "(1 2)", "g1": "(1 2 3 4 5 6 7)"}},
         ["conj", "{}", "{}"]),
        ("correct", None, ["correct", "--coef", "(1 2 3)", "--almost", "(4 5)",
                           "--degree", "4000000", "--mode", "heuristic"]),
    ])
    def test_oversized_inputs_are_domain_errors(self, tmp_path, name, hom, argv):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(hom))
        started = time.monotonic()
        code, report = dispatch([a.replace("{}", str(path)) for a in argv])
        assert time.monotonic() - started < 1.0
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["code"] == "BoundExceededError"
        assert report["outputs"]["error"]["message"].endswith(", bound is 1000000")

    def test_size_bound_admits_its_own_size(self, tmp_path, monkeypatch):
        # images times degree up to the bound are admitted, one more refused:
        # a hom file's images, a perm-gens file's generators before they are
        # parsed and its elements while they are closed, and the two
        # permutations of correct
        import permstab.groups
        import permstab.jsonio

        def perm_gens(degree, generators):
            return {"kind": "perm-gens", "degree": degree, "generators": generators}

        z3 = {"kind": "table", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        homs = {
            "z3": {"group": z3, "degree": 3, "images": {"0": "()", "1": "(1 2 3)", "2": "(1 3 2)"}},
            "x": {"group": FREE_X, "degree": 9, "images": {"x": "(1 2)"}},
            "z2": {"group": perm_gens(2, ["(1 2)"] * 3), "degree": 1,
                   "images": {"g0": "()", "g1": "()", "g2": "()"}},
            "s3": {"group": perm_gens(3, ["(1 2)", "(1 2 3)"]), "degree": 1,
                   "images": {"g0": "()", "g1": "()"}},
        }
        for name, hom in homs.items():
            (tmp_path / name).write_text(json.dumps(hom))
        correct = ["correct", "--coef", "(1 2 3)", "--almost", "(4 5)", "--mode", "heuristic"]
        for argv, size, message in (
            (["mult", "z3"], 9, "homomorphism images hold 3 x 3 = 9"),
            (["graph", "x"], 9, "homomorphism images hold 1 x 9 = 9"),
            (["mult", "z2"], 6, "perm-gens generators hold 3 x 2 = 6"),
            (["mult", "s3"], 18, "closure elements hold 6 x 3 = 18"),
            (correct + ["--degree", "11"], 22, "--coef and --almost hold 2 x 11 = 22"),
        ):
            for bound, code in ((size, EXIT_OK), (size - 1, EXIT_DOMAIN)):
                monkeypatch.setattr(permstab.groups, "DEFAULT_LIFT_SIZE_BOUND", bound)
                permstab.jsonio._group_from_text.cache_clear()  # each group is built once
                got, report = dispatch([str(tmp_path / a) if a in homs else a for a in argv])
                assert got == code, (message, bound)
            assert report["outputs"]["error"]["message"] == (
                f"{message} image entries, bound is {size - 1}"
            )

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+1"])
    def test_integer_ids_are_ascii(self, files, tmp_path, token):
        # int() reads each of these as an id: --set 1_0 answered for id 10
        code, report = dispatch(["trace", "--hom", files["z3_regular"], "--set", token])
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"]["message"] == (
            f"table-group element sets must be integer ids: {token!r}"
        )
        hmap = tmp_path / "ids.json"
        hmap.write_text(json.dumps({"pairs": [[token, "1"]]}))
        argv = ["amalgam", files["z3_regular"], files["z3_regular"], "--h-map", str(hmap)]
        code, report = dispatch(argv)
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"]["message"] == (
            f"element id {token!r} outside the side-1 group"
        )

    def test_word_exponents_are_ascii(self, files, tmp_path):
        # int() reads the Arabic-Indic digits 2 and 4 as 2 and 4: s^4 held
        # as a relator and --set s^2 answered for s^2
        code, report = dispatch(["trace", "--hom", files["psi_s"], "--set", "s^\u0662"])
        assert code == EXIT_DOMAIN
        assert report["outputs"]["error"] == {
            "code": "WordError", "message": "invalid word token 's^\u0662'"
        }
        hom = json.loads(Path(files["psi_s"]).read_text())
        hom["group"]["relators"] = ["s^\u0664"]
        (tmp_path / "relator.json").write_text(json.dumps(hom))
        code, report = dispatch(["trace", "--hom", str(tmp_path / "relator.json"), "--set", "s"])
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"] == {
            "code": "malformed-input", "message": "invalid word token 's^\u0664'"
        }

    @pytest.mark.parametrize("command", ["complement", "extend"])
    def test_out_of_range_subgroup_id_is_malformed(self, tmp_path, command):
        z2 = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]}
        paths = {}
        for name, obj in (
            ("g", z2),
            ("h", {"members": [0, 99]}),
            ("phi", {"group": z2, "degree": 2, "images": {"0": "()", "1": "(1 2)"}}),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        argv = [command, str(paths["g"]), str(paths["h"])]
        code, report = dispatch(argv + [str(paths["phi"])] * (command == "extend"))
        assert code == EXIT_BADFILE
        assert report["outputs"]["error"] == {
            "code": "malformed-input",
            "message": "element id 99 out of range",
        }

    def test_orbit_matching_above_the_lattice_bound(self, tmp_path):
        # conj, order and small-conj pair orbits by equivariant maps and
        # build no lattice, so they answer for Z210, of order 210 > 200
        c = "(1 2)(3 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)"
        c2 = "(1 3)(2 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)"  # c conjugated by (2 3)
        group = {"kind": "perm-gens", "degree": 17, "generators": [c]}
        paths = []
        for name, image in (("h1.json", c), ("h2.json", c2)):
            paths.append(tmp_path / name)
            paths[-1].write_text(
                json.dumps({"group": group, "degree": 17, "images": {"g0": image}})
            )
        h1, h2 = map(str, paths)

        def conjugates(p):
            p = parse_permutation(p, 17)
            return p * parse_permutation(c, 17) * p.inverse() == parse_permutation(c2, 17)

        code, report = dispatch(["conj", h1, h2])
        assert code == EXIT_OK and report["outputs"]["conjugate"] is True
        assert conjugates(report["outputs"]["witness"])
        code, report = dispatch(["order", h1, h2])
        assert code == EXIT_OK
        assert report["outputs"] == {"leq": True, "geq": True}
        code, report = dispatch(["small-conj", h1, h2])
        assert code == EXIT_OK
        assert conjugates(report["outputs"]["conjugator"])
        assert report["outputs"]["agreement_size"] == 12

    def test_unexpected_exception_is_internal_error(self, files, monkeypatch, capsys):
        def broken(args, record):
            raise RuntimeError("broken handler")

        monkeypatch.setitem(cli.COMMANDS, "mult", (broken, *cli.COMMANDS["mult"][1:]))
        assert EXIT_INTERNAL == 70
        assert cli.main(["mult", files["theta2"]]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        error = json.loads(out)["outputs"]["error"]
        assert error["code"] == "internal-error"
        assert error["message"] == "RuntimeError: broken handler"
        assert error["where"].startswith("test_cli.py:")
        assert error["where"].endswith(" in broken")
        assert "Traceback" not in out + err

    def test_trace_ids_of_an_order_two_group(self, files):
        # an id outside the group is a domain error; a token that is not
        # an integer is refused with the file, before any lookup
        for text, exit_code, error in (
            ("5", EXIT_DOMAIN, "PermStabError"),
            ("1.0", EXIT_BADFILE, "malformed-input"),
        ):
            code, report = dispatch(["trace", "--hom", files["phi1"], "--set", text])
            assert code == exit_code, text
            assert report["outputs"]["error"]["code"] == error

    def test_amalgam_token_outside_group(self, files, tmp_path):
        # table-group tokens are element ids (-1 used to index from the
        # end); presentation tokens are words, not ids
        for homs, pair in (
            (("phi1", "phi1"), [7, 1]),
            (("phi1", "phi1"), [-1, 1]),
            (("phi1", "phi1"), ["a", 1]),
            (("psi_s", "psi_t"), [1, 2]),
            (("psi_s", "psi_t"), ["s^2", 3]),
        ):
            hmap = tmp_path / "ids.json"
            hmap.write_text(json.dumps({"pairs": [pair]}))
            argv = ["amalgam", files[homs[0]], files[homs[1]], "--h-map", str(hmap)]
            code, report = dispatch(argv)
            assert code == EXIT_DOMAIN, pair
            assert report["outputs"]["error"]["code"] == "AmalgamMismatchError"

    def test_malformed_h_map(self, files, tmp_path):
        for spec in (
            {"pairs": [1]},
            {"pairs": [["s^2", None]]},
            {"pairs": [["s^2", "t^3", "s"]]},
            {"pairs": [], "relators": [{"s": 1}]},
            {"pairs": [], "relators": "s^4"},
            {"relators": ["s^4"]},
        ):
            hmap = tmp_path / "hmap.json"
            hmap.write_text(json.dumps(spec))
            code, report = dispatch(["amalgam", files["psi_s"], files["psi_t"], "--h-map", str(hmap)])
            assert code == EXIT_BADFILE, spec
            assert report["outputs"]["error"]["code"] == "malformed-input"

    def test_help_is_the_report(self, capsys):
        for argv in (["--help"], *([cmd, "-h"] for cmd in cli.COMMANDS)):
            assert cli.main(argv) == EXIT_OK
            out, err = capsys.readouterr()
            usage = " ".join(["usage: perm-stab", *argv[:-1]]) + " "
            assert json.loads(out)["outputs"]["help"].startswith(usage)
            assert err == ""

    def test_domain_error(self, files):
        # different degrees: a domain precondition, not a file problem
        code, report = dispatch(["conj", files["phi1"], files["theta1"]])
        assert code == EXIT_DOMAIN
        assert "error" in report["outputs"]

    def test_every_error_is_structured(self, files):
        bad_invocations = [
            ["conj", files["phi1"], files["theta1"]],
            ["mult", files["bad_json"]],
            ["trace", "--hom", files["theta1"], "--set", "a,b"],
            ["correct", "--coef", "(1 9)", "--almost", "()", "--degree", "3"],
        ]
        for argv in bad_invocations:
            code, report = dispatch(argv)
            assert code in (EXIT_DOMAIN, EXIT_BADFILE)
            err = report["outputs"]["error"]
            assert set(err) >= {"code", "message"}


class TestDeterminism:
    def test_outputs_byte_identical(self, files):
        _, rep1 = dispatch(["mult", files["theta2"]])
        _, rep2 = dispatch(["mult", files["theta2"]])
        assert json.dumps(rep1["outputs"]) == json.dumps(rep2["outputs"])

    def test_seed_is_a_usage_error(self, files):
        # no command reads a seed, so the report carries none and --seed is unknown
        code, report = dispatch(["--seed", "7", "conj", files["theta1"], files["theta1"]])
        assert code == EXIT_USAGE
        assert report["outputs"]["error"]["code"] == "usage"
        assert "seed" not in report

    def test_inputs_digested(self, files):
        _, report = dispatch(["mult", files["theta2"]])
        digest = report["inputs"][files["theta2"]]
        assert digest.startswith("sha256:")

    def test_inputs_list_a_group_file_named_by_a_hom(self, files, tmp_path):
        images = {"u": "(1 2)", "v": "(1 2 3)"}
        named = tmp_path / "named.json"
        named.write_text(json.dumps({"group": files["s3"], "degree": 3, "images": images}))
        inline = tmp_path / "inline.json"
        group = json.loads(Path(files["s3"]).read_text())
        inline.write_text(json.dumps({"group": group, "degree": 3, "images": images}))
        code, report = dispatch(["mult", str(named)])
        assert code == EXIT_OK
        assert report["inputs"] == {
            str(named): "sha256:" + hashlib.sha256(named.read_bytes()).hexdigest(),
            files["s3"]: "sha256:" + hashlib.sha256(Path(files["s3"]).read_bytes()).hexdigest(),
        }
        _, inline_report = dispatch(["mult", str(inline)])
        assert list(inline_report["inputs"]) == [str(inline)]
        assert json.dumps(report["outputs"]) == json.dumps(inline_report["outputs"])


def valid_invocations(f):
    """One working argument list per subcommand, over ``write_corpus``."""
    return [
        ["trace", "--hom", f["theta2_words"], "--set", "a,b"],
        ["stats", "--hom", f["theta2_words"], "--fixed", "a", "--moved", "b"],
        ["mult", f["theta2"]],
        ["conj", f["theta1"], f["theta2"]],
        ["order", f["theta1"], f["theta2"]],
        ["small-conj", f["phi1"], f["phi2"]],
        ["min-conj", f["phi1_s8"], f["phi2_s8"]],
        ["extend", f["s3"], f["a3_members"], f["z3_regular"]],
        ["complement", f["s3"], f["t12_members"]],
        ["amalgam", f["psi_s"], f["psi_t"], "--h-map", f["hmap"]],
        ["lift", f["z3_regular"], f["z3_regular"], "--copies", "2"],
        ["correct", "--coef", "(1 2 3)", "--almost", "(1 2)", "--degree", "3"],
        ["graph", f["graph_hom"]],
        ["dstat", f["graph_hom"], f["graph_id"], "--size-bound", "2"],
        ["verify-paper"],
    ]


# small values only: a mutated degree or bound must not ask for hours
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(["", "a", "x^2", "(1 2)", "()", "table", "perm-gens"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "x", "0", "1", "degree"]), inner, max_size=3),
    max_leaves=6,
)
TOKENS = [
    "", "0", "1", "-1", "7", "x", "a,b", "()", "(1 2)", "[2,1]", "--seed",
    "--size-bound", "--mode", "heuristic", "--help", "-h", "mult", "frobnicate",
]


def mutate_json(data, obj):
    """Replace, drop or add one node somewhere in a JSON document."""
    if isinstance(obj, (dict, list)) and obj and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
        out = dict(obj) if isinstance(obj, dict) else list(obj)
        out[key] = mutate_json(data, obj[key])
        return out
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "drop" and isinstance(obj, dict) and obj:
        key = data.draw(st.sampled_from(sorted(obj)))
        return {k: v for k, v in obj.items() if k != key}
    if action == "drop" and isinstance(obj, list) and obj:
        return obj[: data.draw(st.integers(0, len(obj) - 1))]
    if action == "add" and isinstance(obj, dict):
        return {**obj, data.draw(st.sampled_from(["kind", "order", "extra"])): data.draw(JSON_VALUES)}
    if action == "add" and isinstance(obj, list):
        return obj + [data.draw(JSON_VALUES)]
    return data.draw(JSON_VALUES)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("fuzz"))


class TestContractFuzz:
    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_one_report_for_any_input(self, corpus, data):
        argv = list(data.draw(st.sampled_from(valid_invocations(corpus))))
        files = [i for i, a in enumerate(argv) if a.endswith(".json")]
        if files and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(files))
            text = json.dumps(mutate_json(data, json.loads(Path(argv[i]).read_text())))
            if data.draw(st.booleans()):
                text = text[: data.draw(st.integers(0, len(text)))]
            path = Path(corpus["bad_json"]).with_name("mutant.json")
            path.write_text(text)
            argv[i] = str(path)
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(argv)))
            if data.draw(st.booleans()) and at < len(argv):
                argv[at] = data.draw(st.sampled_from(TOKENS))
            else:
                argv.insert(at, data.draw(st.sampled_from(TOKENS)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE, EXIT_BADFILE, EXIT_INTERNAL)
        report = json.loads(out.getvalue())  # exactly one JSON document
        assert set(report) == {"command", "inputs", "outputs", "timing_ms"}
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert err.getvalue() == ""


def fresh_python(code, **popen):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60, **popen)


def table_parse(argv):
    """``cli._parse`` in the shape of ``oracles.argparse_parse``."""
    try:
        cmd, args = cli._parse(argv)
    except cli._UsageError as exc:
        return "usage", str(exc)
    return ("help", None) if args is None else ("ok", (cmd, vars(args)))


def edits(argv):
    """Every deletion of one token of ``argv`` and every insertion or
    replacement of one fuzz token."""
    for i in range(len(argv) + 1):
        for token in TOKENS:
            yield argv[:i] + [token] + argv[i:]
            if i < len(argv):
                yield argv[:i] + [token] + argv[i + 1 :]
        if i < len(argv):
            yield argv[:i] + argv[i + 1 :]


class TestCommandTable:
    def test_every_command_has_an_invocation(self, corpus):
        assert [argv[0] for argv in valid_invocations(corpus)] == list(cli.COMMANDS)

    def test_same_reading_as_argparse(self, corpus):
        # accept or reject alike, with the same values; usage messages are
        # not compared
        parser = oracles.argparse_cli()
        f = "f.json"  # the usage requests of the cli-cold benchmark
        usage_requests = [
            ["frobnicate", f],
            ["trace", "--hom", f],
            ["lift", f, f, "--copies", "two"],
            [],
            ["dstat", f, f, "--size-bound", "three"],
        ]
        # help after an error that argparse reported only at the end
        late_help = [["mult", f, "--x", "-h"], ["conj", f, "--help"], ["--x", "-h"]]
        cases = usage_requests + late_help
        for argv in valid_invocations(corpus):
            cases += [argv, *edits(argv)]
        for argv in cases:
            want, got = oracles.argparse_parse(parser, argv), table_parse(argv)
            if want[0] == "usage":
                assert got[0] == "usage", (argv, got)
            else:
                assert got == want, argv
        assert len(cases) > 2000

    def test_differences_from_argparse(self, corpus):
        # no prefix abbreviations, and "--" is not an end-of-options marker
        for argv in (
            ["dstat", corpus["graph_hom"], corpus["graph_id"], "--size", "2"],
            ["correct", "--co", "(1 2)", "--almost", "()", "--degree", "2"],
            ["--h"],
            ["mult", "--", corpus["theta2"]],
        ):
            code, report = dispatch(argv)
            assert code == EXIT_USAGE, argv
            assert report["outputs"]["error"]["code"] == "usage"

    def test_usage_errors(self, corpus):
        bad = []
        for argv in valid_invocations(corpus):
            cmd, rest = argv[0], argv[1:]
            _, positionals, options = cli.COMMANDS[cmd]
            for name, (_, default) in options.items():
                if default is REQUIRED:
                    i = argv.index(name)
                    bad.append(argv[:i] + argv[i + 2 :])
                if name in ("--copies", "--degree", "--size-bound"):
                    i = argv.index(name)
                    bad += [argv[: i + 1] + [v] + argv[i + 2 :] for v in ("two", "2.0", "")]
            values = [a for i, a in enumerate(argv) if i and not a.startswith("--")
                      and not argv[i - 1].startswith("--")]
            assert len(values) == len(positionals), argv
            for value in values:
                i = argv.index(value)
                bad.append(argv[:i] + argv[i + 1 :])
            bad += [argv + ["--frobnicate", "1"], [cmd, "--seed", "7", *rest]]
        for argv in bad:
            code, report = dispatch(argv)
            assert code == EXIT_USAGE, argv
            assert report["outputs"]["error"]["code"] == "usage"
            assert set(report) == {"command", "inputs", "outputs", "timing_ms"}

    def test_option_value_after_equals(self, files):
        code, report = dispatch(
            ["dstat", files["graph_hom"], files["graph_id"], "--size-bound=2"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["d_stat"] == "13/32"

    def test_import_leaves_argparse_out(self):
        code = "import sys, permstab.cli; print('argparse' in sys.modules)"
        done = fresh_python(code, capture_output=True, text=True)
        assert done.stdout.strip() == "False", done.stderr

    def test_import_leaves_dataclasses_and_inspect_out(self):
        code = (
            "import sys; lean = {'dataclasses', 'inspect'}; before = lean & set(sys.modules); "
            "import permstab.cli; print(sorted(lean & set(sys.modules) - before))"
        )
        done = fresh_python(code, capture_output=True, text=True)
        assert done.stdout.strip() == "[]", done.stderr

    def test_package_imports_only_the_standard_library(self):
        code = (
            "import importlib, pkgutil, sys; before = set(sys.modules); import permstab; "
            "names = [m.name for m in pkgutil.iter_modules(permstab.__path__, 'permstab.')]; "
            "[importlib.import_module(name) for name in names]; "
            "top = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(len(names), sorted(top - set(sys.stdlib_module_names) - {'permstab'}))"
        )
        done = fresh_python(code, capture_output=True, text=True)
        count, outside = done.stdout.split(" ", 1)
        assert int(count) >= 13 and outside.strip() == "[]", done.stderr


def test_readme_names_every_input_bound():
    # every module-level DEFAULT_* or MAX_* int of the package is a bound
    # on some input, and the README says what each one refuses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bounds = {
        name
        for info in pkgutil.iter_modules(permstab.__path__, "permstab.")
        for name, value in vars(importlib.import_module(info.name)).items()
        if re.match(r"(DEFAULT|MAX)_", name) and type(value) is int
    }
    assert len(bounds) >= 7
    assert sorted(name for name in bounds if f"`{name}`" not in readme) == []


def test_only_the_cli_reads_input_files():
    # the builtin open appears only in jsonio._read_bytes, and the file
    # readers are used only by the load closure of cli.dispatch, which
    # lists every file it reads in the report's inputs
    uses = set()

    def walk(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "open":
                uses.add((module, where, "open"))
            name = getattr(child, "id", getattr(child, "attr", None))
            if name in ("_read_bytes", "_load_json", "read_bytes", "read_text"):
                uses.add((module, where, name))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(module, child, (*where, child.name))
            else:
                walk(module, child, where)

    for path in Path(permstab.__file__).parent.glob("*.py"):
        walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), ())
    assert uses == {
        ("jsonio", ("_read_bytes",), "open"),
        ("cli", ("dispatch", "load"), "_read_bytes"),
        ("cli", ("dispatch", "load"), "_load_json"),
    }


def test_checked_constructions_only_at_the_boundary(files, tmp_path, monkeypatch):
    # values are checked once, where they come in: every fixture command
    # runs with the checking constructors of Permutation, PermHomomorphism
    # and LabeledDigraph counted by calling function, and only the readers
    # of outside data and the public constructors that callers feed call
    # them; values built from checked values are built trusted
    from permstab.graphs import LabeledDigraph
    from permstab.groups import PermHomomorphism
    from permstab.perm import Permutation

    callers = Counter()
    for cls in (Permutation, PermHomomorphism, LabeledDigraph):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            code = sys._getframe(1).f_code
            callers[_name, Path(code.co_filename).stem, code.co_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    # a perm-gens hom, images in all three notations
    path = tmp_path / "s3hom.json"
    path.write_text(json.dumps({"group": files["s3"], "degree": 4, "images": {
        "u": "[2,1,3,4]", "v": {"degree": 4, "images": [2, 3, 1, 4]}}}))
    for argv in valid_invocations(files) + [["mult", str(path)]]:
        code, report = dispatch(argv)
        assert code == EXIT_OK, (argv, report["outputs"])
    boundary = {
        ("Permutation", "perm", "parse_permutation"),  # the one-line form
        ("Permutation", "jsonio", "permutation_from_json"),  # {"degree", "images"}
        ("PermHomomorphism", "groups", "trivial_hom"),  # a caller's degree
        ("PermHomomorphism", "groups", "hom_from_element_map"),  # a caller's map
    }
    # the paper's bundled examples are a caller's own data
    seen = {site for site in callers if site[1] != "fixtures"}
    assert seen == boundary


def test_unwritable_stdout_is_io_error():
    # a pipe whose read end is closed before the child starts (EPIPE), a
    # full device (ENOSPC), and fd 1 closed before the child starts
    # (sys.stdout is None): no traceback, exit 74
    read_end, write_end = os.pipe()
    os.close(read_end)
    targets = [write_end]
    if os.path.exists("/dev/full"):
        targets.append(os.open("/dev/full", os.O_WRONLY))
    code = "from permstab.cli import main; raise SystemExit(main(['verify-paper']))"
    try:
        for fd in targets:
            done = fresh_python(code, stdout=fd, stderr=subprocess.PIPE)
            assert done.stderr == b""
            assert done.returncode == EXIT_IOERR == 74
    finally:
        for fd in targets:
            os.close(fd)
    code = "import sys; assert sys.stdout is None; " + code
    done = fresh_python(code, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert done.stderr == b""
    assert done.returncode == EXIT_IOERR
