"""The database reader at the k cap, and against its reference on every short body at every k.

``wire.read_db`` of a 10^6-value file at p = 2^31 - 1 must allocate at
most 160 MB at its peak, as ``tracemalloc`` counts it; the database it
returns holds about 36 MB.  The line-by-line reader it replaced peaked at
281 MB: one ``str`` per line, plus the backtracking state of a regex over
the whole body.  Here it peaked at 70 MB.  The same file with p on its
last line must be refused, in the field's words, within 110 MB: the
values ``split_decimals`` read are checked as they are, so the refusal
peaks where the read does, at 70 MB here, where a second, per-line read
of the body peaked at 155 MB.  Wall times are printed, not gated on:
1.7 s each under ``tracemalloc``; without it, 0.3 s to read and 0.5 s to
refuse (0.9 s with the per-line read).  The last test runs
``tests/test_wire.py``'s comparison with ``tests/oracles.py``'s
reference on every body of up to 5 characters at every k in 1..4;
Tier-1 runs the 5-character bodies at their own line count only.  This
file sits outside the ``testpaths`` in ``pyproject.toml``, so a plain
``pytest`` does not collect it.  CI runs it as a step of its own, about
18 s on a 2-vCPU host with Python 3.11.7:

    python -m pytest -q -s ci/test_read_db_k1e6.py
"""

import random
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pirsi.wire import read_db  # noqa: E402
from test_wire import read_db_mismatches  # noqa: E402

K = 10**6
P = 2**31 - 1
PEAK_CAP_MB = 160
REFUSED_PEAK_CAP_MB = 110


def write_values(path, values):
    path.write_text(f"pir-db v1 p={P} k={K}\n" + "".join(f"{v}\n" for v in values), encoding="ascii")


def traced_read(path):
    """``read_db(path)``'s outcome, its wall time under ``tracemalloc`` and its peak in MB."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with open(path, encoding="ascii", newline="") as fh:
            try:
                outcome = read_db(fh)
            except ValueError as err:
                outcome = err
        elapsed = time.perf_counter() - started
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return outcome, elapsed, peak_mb


def test_read_db_peak_at_a_million_values(tmp_path):
    rng = random.Random(6)
    values = [rng.randrange(P) for _ in range(K)]
    path = tmp_path / "k1e6.db"
    write_values(path, values)
    db, elapsed, peak_mb = traced_read(path)
    print(f"read_db of {K} values: {elapsed:.2f} s under tracemalloc, peak {peak_mb:.1f} MB")
    assert db.values == tuple(values)
    assert peak_mb <= PEAK_CAP_MB


def test_read_db_refuses_p_on_the_last_of_a_million_lines(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "k1e6-refused.db"
    write_values(path, [rng.randrange(P) for _ in range(K - 1)] + [P])
    err, elapsed, peak_mb = traced_read(path)
    print(f"read_db refusing line {K}: {elapsed:.2f} s under tracemalloc, peak {peak_mb:.1f} MB")
    assert str(err) == f"field value {P} is not an int in [0, {P})"
    assert peak_mb <= REFUSED_PEAK_CAP_MB


def test_read_db_matches_the_reference_on_every_short_body_at_every_k():
    mismatches, tried = read_db_mismatches(5, every_k_to=5)
    assert mismatches == [] and tried == 271_453 * 4
