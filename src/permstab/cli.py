"""Command-line front end.

Every invocation prints a single JSON run report::

    {"command": [...], "inputs": {path: "sha256:..."}, "outputs": {...},
     "timing_ms": ...}

The ``outputs`` object is deterministic: re-running the same command on
the same inputs reproduces it byte for byte; only ``timing_ms`` varies.

Exit codes: 0 success (a ``--help`` report too); 2 domain error, with a
machine-readable error object; 64 usage (unknown subcommand, unknown or
missing argument, value of the wrong type); 65 malformed input file; 70
internal error (``EX_SOFTWARE``: an unexpected exception, reported as an
``internal-error`` object instead of a traceback); 74 the report could not
be written to stdout, a closed pipe, a full device or a stdout closed
before the process started (``EX_IOERR``).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from fractions import Fraction
from operator import ge, le
from pathlib import Path
from types import SimpleNamespace

try:  # the builtin module: hashlib would load OpenSSL in every process
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import fixtures
from .errors import BoundExceededError, MalformedInputError, PermStabError, echo
from .graphs import action_graph, stat_distance_details
from .groups import PermHomomorphism, _check_size, subgroup_conjugacy_classes
from .jsonio import (
    element_set_from_text,
    format_rational,
    group_from_json,
    hom_from_json,
    image_keys,
    images_to_json,
    subgroup_from_json,
    _hom_shape,
    _load_json,
    _read_bytes,
)
from .multiplicity import _census, _require_comparable, is_conjugate, multiplicity_vector
from .perm import hamming_distance, parse_permutation, Permutation
from .stability import (
    _check_lift,
    _small_conjugator,
    amalgamated_hom,
    centralizer_correct,
    compose_lift,
    find_normal_complement,
    has_extension,
    max_image_distance,
    min_conjugator_distance,
)
from .trace_stats import action_trace, bs_statistic

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_BADFILE = 65
EXIT_INTERNAL = 70  # EX_SOFTWARE
EXIT_IOERR = 74  # EX_IOERR

# the largest degree min-conj and correct --mode exact accept; the library
# needs no bound, but perfbench/gen_cli.py's domain-error requests expect a
# refusal at degree 10
MAX_EXACT_DEGREE = 8


def _hom(load, path: str) -> PermHomomorphism:
    """The homomorphism in file ``path``."""
    return hom_from_json(_hom_object(load, path))


def _hom_object(load, path: str) -> object:
    """The JSON value of homomorphism file ``path``.  A group file that it
    names is read with ``load`` too, so that ``inputs`` lists it."""
    obj = load(path)
    if isinstance(obj, dict) and isinstance(obj.get("group"), str):
        obj["group"] = load(obj["group"])
    return obj


def _cmd_trace(args, load) -> dict:
    hom = _hom(load, args.hom)
    elements = element_set_from_text(hom, args.set)
    return {"tr": format_rational(action_trace(hom, elements))}


def _cmd_stats(args, load) -> dict:
    hom = _hom(load, args.hom)
    A = element_set_from_text(hom, args.fixed)
    B = element_set_from_text(hom, args.moved)
    return {"s": format_rational(bs_statistic(hom, A, B))}


def _cmd_mult(args, load) -> dict:
    hom = _hom(load, args.hom)
    mv = multiplicity_vector(hom)
    classes = subgroup_conjugacy_classes(hom.source)
    rows = []
    for cid in range(len(classes)):
        rep = classes.representative(cid)
        rows.append(
            {
                "class": cid,
                "representative": list(rep.members),
                "index": rep.index,
                "count": mv.multiplicity(cid),
                "r": format_rational(mv.r(cid)),
            }
        )
    return {"degree": mv.degree, "classes": rows}


def _cmd_conj(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    ok, witness = is_conjugate(h1, h2)
    return {
        "conjugate": ok,
        "witness": witness.cycle_str() if ok else None,
    }


def _cmd_order(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    _require_comparable(h1, h2)
    c1, c2 = _census(h1, h2)  # one walk of both actions' orbits serves both directions
    return {"leq": all(map(le, c1, c2)), "geq": all(map(ge, c1, c2))}


def _cmd_small_conj(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    p, agreed = _small_conjugator(h1, h2)
    eps = max_image_distance(h1, h2)
    order = h1.source.order
    return {
        "conjugator": p.cycle_str(),
        "distance": format_rational(
            hamming_distance(p, Permutation.identity(p.degree))
        ),
        "epsilon": format_rational(eps),
        "bound": format_rational(order * eps),
        "agreement_size": len(agreed),
    }


def _cmd_min_conj(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    if h1.degree > MAX_EXACT_DEGREE:
        raise BoundExceededError(
            f"degree {h1.degree} exceeds exact-search bound {MAX_EXACT_DEGREE}"
        )
    dist, witness = min_conjugator_distance(h1, h2)
    return {"min_distance": format_rational(dist), "witness": witness.cycle_str()}


def _cmd_extend(args, load) -> dict:
    G = group_from_json(load(args.group)).group
    H = subgroup_from_json(load(args.subgroup), G)
    hom = _hom(load, args.hom)
    ext = has_extension(H, hom)
    if ext is None:
        return {"found": False, "extension": None}
    return {"found": True, "extension": images_to_json(ext)}


def _cmd_complement(args, load) -> dict:
    G = group_from_json(load(args.group)).group
    H = subgroup_from_json(load(args.subgroup), G)
    K = find_normal_complement(H)
    if K is None:
        return {"found": False, "complement": None}
    return {"found": True, "complement": list(K.members)}


def _cmd_amalgam(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    obj = load(args.h_map)
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise MalformedInputError("h-map file must carry 'pairs'")
    pairs, relators = obj["pairs"], obj.get("relators")

    def token(t):
        return isinstance(t, str) or type(t) is int

    if not (
        isinstance(pairs, list)
        and all(isinstance(p, list) and len(p) == 2 and all(map(token, p)) for p in pairs)
        and isinstance(relators, (list, type(None)))
        and all(isinstance(r, str) for r in relators or ())
    ):
        raise MalformedInputError(
            "h-map 'pairs' must be [token, token] lists of words or element "
            "ids, and 'relators' a list of words"
        )
    am = amalgamated_hom(h1, h2, [tuple(pair) for pair in pairs])
    out = {"valid": True, "degree": am.degree}
    if relators:
        out["relators_ok"] = all(am.check_relator(r) for r in relators)
    return out


def _cmd_lift(args, load) -> dict:
    objs = [_hom_object(load, args.hom), _hom_object(load, args.rest)]
    # compose_lift's refusals from the groups and degrees, before any image
    # is parsed; a perm-gens group is closed here to count its images
    try:
        (g1, d1, _), (g2, d2, _) = map(_hom_shape, objs)
    except (MalformedInputError, BoundExceededError):
        pass  # hom_from_json reports it below, in file order
    else:
        _check_lift(g1.group, len(image_keys(g1.group)), d1, args.copies, g2.group, d2)
    psi, eta = map(hom_from_json, objs)
    # hom_from_json has checked both inputs, and a block sum of
    # homomorphisms of one source is one, so "verified" holds by construction
    out = compose_lift(psi, args.copies, eta)
    return {"degree": out.degree, "verified": True, "images": images_to_json(out)}


def _cmd_correct(args, load) -> dict:
    if args.mode == "exact" and args.degree > MAX_EXACT_DEGREE:  # refuse before parsing
        raise BoundExceededError(f"exact mode requires degree <= {MAX_EXACT_DEGREE}")
    _check_size("--coef and --almost", 2, args.degree)
    a = parse_permutation(args.coef, args.degree)
    q = parse_permutation(args.almost, args.degree)
    rep = centralizer_correct(a, q)
    return {
        "corrected": rep.corrected.cycle_str(),
        "distance": format_rational(rep.distance),
        "input_defect": format_rational(rep.input_defect),
        "mode": args.mode,
    }


def _cmd_graph(args, load) -> dict:
    hom = _hom(load, args.hom)
    g = action_graph(hom)
    return {
        "vertices": g.n,
        "alphabet": list(g.alphabet),
        "edges": sorted([u, v, lab] for u, v, lab in g.edges()),
    }


def _cmd_dstat(args, load) -> dict:
    h1 = _hom(load, args.hom1)
    h2 = _hom(load, args.hom2)
    d, rows = stat_distance_details(
        action_graph(h1), action_graph(h2), args.size_bound
    )
    return {"d_stat": format_rational(d), "per_pattern": rows}


def _cmd_verify_paper(args, load) -> dict:
    checks = []

    def check(name, expected, actual, note=None):
        entry = {
            "name": name,
            "expected": expected,
            "actual": actual,
            "pass": expected == actual,
        }
        if note:
            entry["note"] = note
        checks.append(entry)

    theta1, theta2 = fixtures.klein_pair()
    for label, hom in (("theta1", theta1), ("theta2", theta2)):
        for g in (fixtures.KLEIN_A, fixtures.KLEIN_B, fixtures.KLEIN_AB):
            check(
                f"trace {label} element {g}",
                "1/3",
                format_rational(action_trace(hom, [g])),
            )
    check(
        "trace theta1 {a,b}",
        "0",
        format_rational(action_trace(theta1, [fixtures.KLEIN_A, fixtures.KLEIN_B])),
    )
    check(
        "trace theta2 {a,b}",
        "1/3",
        format_rational(action_trace(theta2, [fixtures.KLEIN_A, fixtures.KLEIN_B])),
    )
    check("theta1, theta2 conjugate", False, is_conjugate(theta1, theta2)[0])

    for k in range(2, 7):
        a, b = fixtures.block_cycle_a(k), fixtures.block_cycle_b(k)
        check(
            f"hamming distance k={k}",
            format_rational(Fraction(2, k)),
            format_rational(hamming_distance(a, b)),
        )

    h1, h2 = fixtures.swapped_block_homs(2)
    dist, _ = min_conjugator_distance(h1, h2)
    check(
        "min conjugator distance, swapped pair k=2",
        "1",
        format_rational(dist),
        note=(
            "bundled claim says every conjugator moves every point; the "
            "nearest-conjugator solver (equivariant maps between orbits, one "
            "assignment per orbit class) finds the true minimum 1 - 1/k^2"
        ),
    )

    am = fixtures.modular_amalgam()
    check(
        "modular amalgam relators",
        True,
        all(am.check_relator(r) for r in fixtures.SL2Z_RELATORS),
    )
    try:
        fixtures.modular_amalgam(valid=False)
        mismatch_witness = None
    except PermStabError as exc:
        mismatch_witness = list(getattr(exc, "witness", ()) or ())
    check(
        "mismatched amalgam rejected with witness",
        ["s^2", "t^3"],
        mismatch_witness,
    )

    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


REQUIRED = object()  # the default of an option a command cannot run without

# command -> (handler, positional names, {option: (type or choices, default)});
# a handler reads ``args.<name>``, an option's name with dashes as underscores
COMMANDS = {
    "trace": (_cmd_trace, (), {"--hom": (str, REQUIRED), "--set": (str, REQUIRED)}),
    "stats": (
        _cmd_stats, (), {"--hom": (str, REQUIRED), "--fixed": (str, ""), "--moved": (str, "")}
    ),
    "mult": (_cmd_mult, ("hom",), {}),
    "conj": (_cmd_conj, ("hom1", "hom2"), {}),
    "order": (_cmd_order, ("hom1", "hom2"), {}),
    "small-conj": (_cmd_small_conj, ("hom1", "hom2"), {}),
    "min-conj": (_cmd_min_conj, ("hom1", "hom2"), {}),
    "extend": (_cmd_extend, ("group", "subgroup", "hom"), {}),
    "complement": (_cmd_complement, ("group", "subgroup"), {}),
    "amalgam": (_cmd_amalgam, ("hom1", "hom2"), {"--h-map": (str, REQUIRED)}),
    "lift": (_cmd_lift, ("hom", "rest"), {"--copies": (int, REQUIRED)}),
    "correct": (_cmd_correct, (), {
        "--coef": (str, REQUIRED),
        "--almost": (str, REQUIRED),
        "--degree": (int, REQUIRED),
        "--mode": (("exact", "heuristic"), "exact"),
    }),
    "graph": (_cmd_graph, ("hom",), {}),
    "dstat": (_cmd_dstat, ("hom1", "hom2"), {"--size-bound": (int, 4)}),
    "verify-paper": (_cmd_verify_paper, (), {}),
}
_HELP = ("-h", "--help")
_NOT_OPTION_RE = re.compile(r"-$|-\d+$|-\d*\.\d+$")  # "-", a negative number


class _UsageError(Exception):
    """A command line that does not fit ``COMMANDS``."""


def _is_option(token: str, options: dict) -> bool:
    """argparse's rule: ``token`` names an option (before any ``=``), or it
    starts with ``-`` and is not ``-``, a negative number or text with a space."""
    if token.partition("=")[0] in (*options, *_HELP):
        return True
    return token[:1] == "-" and " " not in token and not _NOT_OPTION_RE.match(token)


def _convert(name: str, kind, value: str):
    """``value`` as the type ``kind``, or checked against the choices ``kind``."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        choices = ", ".join(map(repr, kind))
        raise _UsageError(f"argument {name}: invalid choice: {echo(value)} (choose from {choices})")
    try:
        return kind(value)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid {kind.__name__} value: {echo(value)}") from None


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """Read ``COMMAND ...`` against ``COMMANDS`` into ``(command, args)``;
    ``args`` is None when ``-h`` or ``--help`` asks for help.

    Tokens are read in order, as argparse read them: an unknown command, an
    option without its value or a value of the wrong type fails at once;
    unknown options, surplus values and missing arguments fail at the end,
    so a later ``--help`` still gives help.
    """
    cmd, positionals, extras = None, [], []
    options, values = {}, {}
    tokens = argv[::-1]
    while tokens:
        token = tokens.pop()
        if token in _HELP:
            return cmd, None
        if _is_option(token, options):
            name, eq, value = token.partition("=")
            if name not in options:
                extras.append(token)
                continue
            if not eq:
                if not tokens or _is_option(tokens[-1], options):
                    raise _UsageError(f"argument {name}: expected one argument")
                value = tokens.pop()
            values[name] = _convert(name, options[name][0], value)
        elif cmd is None:
            cmd = _convert("cmd", tuple(COMMANDS), token)
            positionals, options = list(COMMANDS[cmd][1]), COMMANDS[cmd][2]
            values.update((o, default) for o, (_, default) in options.items())
        elif positionals:
            values[positionals.pop(0)] = token
        else:
            extras.append(token)
    missing = positionals + [o for o in options if values[o] is REQUIRED]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    if cmd is None:
        raise _UsageError("missing subcommand")
    return cmd, SimpleNamespace(**{k.lstrip("-").replace("-", "_"): v for k, v in values.items()})


def _help(cmd: str | None) -> str:
    """The usage line of ``cmd``, or of every command, from ``COMMANDS``."""
    lines = []
    for name in COMMANDS if cmd is None else (cmd,):
        _, positionals, options = COMMANDS[name]
        words = ["perm-stab", name, "[-h]", *positionals]
        for option, (kind, default) in options.items():
            meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else option[2:].upper()
            words.append(f"{option} {meta}" if default is REQUIRED else f"[{option} {meta}]")
        lines.append(" ".join(words))
    if cmd is not None:
        return f"usage: {lines[0]}\n"
    head = "usage: perm-stab [-h] COMMAND ...\n"
    return head + "".join(f"  {line}\n" for line in lines)


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Run one command; returns (exit code, run report)."""
    started = time.monotonic()
    inputs: dict[str, str] = {}

    def load(path: str) -> object:
        """The JSON value in file ``path``, read once; its digest goes to
        ``inputs``.  No other code reads an input file."""
        data = _read_bytes(path)
        inputs[path] = "sha256:" + sha256(data).hexdigest()
        return _load_json(path, data)

    report = {
        "command": list(argv),
        "inputs": inputs,
        "outputs": {},
        "timing_ms": 0.0,
    }

    def finish(code: int, error: dict | None = None) -> tuple[int, dict]:
        if error is not None:
            report["outputs"] = {"error": error}
        report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
        return code, report

    try:
        cmd, args = _parse(argv)
        if args is None:  # the help text is the report's output
            report["outputs"] = {"help": _help(cmd)}
            return finish(EXIT_OK)
        report["outputs"] = COMMANDS[cmd][0](args, load)
    except _UsageError as exc:
        return finish(EXIT_USAGE, {"code": "usage", "message": str(exc)})
    except MalformedInputError as exc:
        return finish(EXIT_BADFILE, {"code": "malformed-input", "message": str(exc)})
    except PermStabError as exc:
        err = {"code": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            err["witness"] = list(witness)
        return finish(EXIT_DOMAIN, err)
    except Exception as exc:  # the report contract holds for any input
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        return finish(EXIT_INTERNAL, {
            "code": "internal-error",
            "message": f"{type(exc).__name__}: {exc}",
            "where": f"{Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name}",
        })
    return finish(EXIT_OK)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # stdout was closed before the process started
        return EXIT_IOERR
    code, report = dispatch(sys.argv[1:] if argv is None else argv)
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError:  # a closed pipe (BrokenPipeError) or a full device
        # point stdout at devnull so that the interpreter's flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
