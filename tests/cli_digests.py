"""Exit codes and output digests of the ``cli-cold`` requests.

    python tests/cli_digests.py DIR [--seeds 1 2 3 7] [--pool 16]

For each seed ``S`` this writes the requests of ``perfbench/gen_cli.py
--seed S --pool K`` into ``DIR/sS``, unless that directory already holds
a ``manifest.json``, so one ``DIR`` keeps the requests of one pool size.
It then runs every request through ``permstab.cli.dispatch`` of this
checkout's ``src``, from inside ``DIR/sS`` (the argv paths are relative
to it) and with every package ``lru_cache`` cleared first, and prints
one line per request::

    seed kind index exit sha256-of-outputs

A request whose exit code is not the one the generator expects ends its
line with ``UNEXPECTED (want N)`` and makes the script exit 1.  Two
checkouts answer alike when the script, copied into each and run over
the same ``DIR``, prints the same lines.  pytest does not collect this
file; ``test_cli.py`` runs it on one small seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from permstab.cli import dispatch  # noqa: E402


def clear_caches() -> None:
    """Clear every module-level ``lru_cache`` of the package, as perfbench's
    ``common.clear_caches`` does; perfbench runs here only as a subprocess,
    so that importing this file puts no perfbench module on the path."""
    for name, mod in list(sys.modules.items()):
        if name == "permstab" or name.startswith("permstab."):
            for obj in vars(mod).values():
                if isinstance(obj, functools._lru_cache_wrapper):
                    obj.cache_clear()


def requests(work: Path, seed: int, pool: int) -> dict:
    """The manifest's requests by kind, generated into ``work`` if missing."""
    if not (work / "manifest.json").exists():
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "gen_cli.py"), "--seed", str(seed),
             "--out", str(work), "--pool", str(pool)],
            check=True, timeout=300,
        )
    return json.loads((work / "manifest.json").read_text())["requests"]


def digests(work: Path, seed: int, pool: int) -> list[tuple[str, bool]]:
    """One ``(line, expected)`` pair per request of ``seed``."""
    reqs = requests(work, seed, pool)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        lines = []
        for kind, instances in reqs.items():
            for i, req in enumerate(instances):
                clear_caches()
                code, report = dispatch(req["argv"])
                digest = sha256(json.dumps(report["outputs"]).encode()).hexdigest()
                line = f"{seed} {kind} {i} {code} {digest}"
                if code != req["code"]:
                    line += f" UNEXPECTED (want {req['code']})"
                lines.append((line, code == req["code"]))
        return lines
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", help="directory of the generated requests, one subdirectory per seed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 7])
    ap.add_argument("--pool", type=int, default=16, help="gen_cli's --pool")
    args = ap.parse_args(argv)
    ok = True
    for seed in args.seeds:
        for line, expected in digests(Path(args.dir).resolve() / f"s{seed}", seed, args.pool):
            print(line)
            ok &= expected
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
