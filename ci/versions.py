"""Run the CLI's goldens under each interpreter given, and print a version x check table.

Seeded output rests on ``random``'s streams and on JSON rendering, which
are per-interpreter facts, so each golden of ``tests/goldens.py`` runs
under every interpreter named on the command line:

    python ci/versions.py /path/to/python3.10 /path/to/python3.13 ...

Each interpreter runs this file with ``--child`` and ``src`` and ``tests``
on its path.  The child writes each ``simulate`` golden's database into a
temporary directory in the ``pir-db v1`` format (``goldens.db_text``, not
``wire.write_db``), calls ``pirsi.cli.main`` on each golden's argument
list, with ``--db`` where it reads a database, stdout captured, and
prints one JSON object: its version, and per check the SHA-256 of
stdout, or the exit code or exception when the call fails (the
traceback goes to stderr, which the parent passes on).  The parent
prints one row per check and one column per interpreter, ``ok`` where
the digest is the golden and ``DIFF`` elsewhere, and exits 1 on any
difference.  Standard library only, so it runs where pytest is not
installed; it searches no directory, and runs only the interpreters it
is given.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests")]
CHILD_TIMEOUT_S = 600


def run_goldens() -> dict[str, str]:
    """Each golden's name -> the SHA-256 of its stdout, or what went wrong, in this interpreter."""
    from goldens import GOLDEN_DBS, GOLDENS, db_text
    from pirsi.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in GOLDENS.items():
            argv = list(argv)
            if name in GOLDEN_DBS:
                path = os.path.join(tmp, f"{len(results)}.db")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(db_text(*GOLDEN_DBS[name]))
                argv += ["--db", path]
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a DIFF under this interpreter; the other goldens still run
                traceback.print_exc()
                results[name] = type(exc).__name__
                continue
            results[name] = hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"
    return results


def child() -> int:
    sys.path[:0] = PATHS
    print(json.dumps({"version": platform.python_version(), "results": run_goldens()}))
    return 0


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python ci/versions.py PYTHON...", file=sys.stderr)
        return 2
    sys.path[:0] = PATHS
    from goldens import GOLDENS

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS), PYTHONDONTWRITEBYTECODE="1")
    columns = []
    for python in pythons:
        try:
            done = subprocess.run([python, __file__, "--child"], env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S, check=False)
            sys.stderr.write(done.stderr)
            report = json.loads(done.stdout)  # ValueError if the child died before printing it
            columns.append((report["version"], report["results"]))
        except (OSError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"{python}: the child run failed: {err!r}", file=sys.stderr)
            columns.append((python, {}))  # every check a DIFF
    width = max(map(len, GOLDENS))
    print(f"{'check':<{width}}", *(f"{version:>9}" for version, _ in columns))
    differences = 0
    for name, (_, digest) in GOLDENS.items():
        cells = ["ok" if results.get(name) == digest else "DIFF" for _, results in columns]
        differences += cells.count("DIFF")
        print(f"{name:<{width}}", *(f"{cell:>9}" for cell in cells))
    print(f"{len(GOLDENS)} checks under {len(columns)} interpreters, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        sys.exit(child())
    sys.exit(main(sys.argv[1:]))
