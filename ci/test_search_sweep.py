"""The one-pass rate search against the memoised search, and ``pirsi oracle`` at its cap.

``oracle.search_sweep`` must equal the memoised search it replaced
(``memo_search_sweep`` in ``tests/oracles.py``) on every (k, n) with
k <= 80; Tier-1 runs the same comparison up to k = 40.  ``pirsi oracle
--k-max 300``, run in-process, must then find the closed form's cost and
a feasible plan on all 4,545,100 instances, and write a table of pinned
length and SHA-256.  This file sits outside the
``testpaths`` in ``pyproject.toml``, so a plain ``pytest`` does not collect
it.  CI runs it as a step of its own, 40–50 s on a 2-vCPU host with
Python 3.11.7 (21–30 s of it the memoised search, 18 s the oracle):

    python -m pytest -q ci/test_search_sweep.py
"""

import hashlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import memo_search_sweep  # noqa: E402
from pirsi import search_sweep  # noqa: E402
from pirsi.cli import main  # noqa: E402

ORACLE_K300_BYTES = 103_555_199
ORACLE_K300_SHA256 = "affe89e9427bb1bb4ecfaf314ef88bfa24ac97e3bc2b9b1a2010a9367bca670c"


def test_search_sweep_matches_memoised_search_k80():
    pairs = 0
    for k in range(1, 81):
        for n in range(1, k + 1):
            assert search_sweep(k, n) == memo_search_sweep(k, n), (k, n)
            pairs += 1
    assert pairs == 3_240


def test_oracle_finds_no_mismatch_k300(tmp_path):
    # The table is about 104 MB, so it goes to a file, not to memory.
    table = tmp_path / "oracle.txt"
    err = StringIO()
    with open(table, "w", encoding="ascii") as out, redirect_stdout(out), redirect_stderr(err):
        code = main(["oracle", "--k-max", "300"])
    assert (code, err.getvalue()) == (0, "checked 4545100 instances, 0 mismatches\n")
    with open(table, encoding="ascii") as rows:
        assert next(rows) == "k m n oracle formula match\n"
        assert sum(row.endswith(" true\n") for row in rows) == 4_545_100
    # Its bytes, pinned: the table is written one (k, n) row at a time.
    digest = hashlib.sha256()
    with open(table, "rb") as data:
        while chunk := data.read(1 << 20):
            digest.update(chunk)
    assert (table.stat().st_size, digest.hexdigest()) == (ORACLE_K300_BYTES, ORACLE_K300_SHA256)
