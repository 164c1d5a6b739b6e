"""The database reader at the k cap, and against its reference on every short body at every k.

``wire.read_db`` of a 10^6-value file at p = 2^31 - 1 must allocate at
most 160 MB at its peak, as ``tracemalloc`` counts it; the database it
returns holds about 36 MB.  The line-by-line reader it replaced peaked at
281 MB: one ``str`` per line, plus the backtracking state of a regex over
the whole body.  Here it peaked at 70 MB.  The same file with p on its
last line must be refused, in the field's words, within 110 MB: the
values ``split_decimals`` read are checked as they are, so the refusal
peaks where the read does, at 70 MB here, where a second, per-line read
of the body peaked at 155 MB.  The same file with 641 digits on its last
line must be refused by ``split_decimals`` alone, as ``database value
1000000 is not a canonical decimal``, under the default digit limit,
where json reads the line and the values' max is what refuses it; it
too must stay within 110 MB.  It peaked at 88 MB here: the values are
freed before the body is split to name the line, where with both alive
it peaked at 127 MB.  Wall times are printed, not gated on: 1.3 s to
read or refuse p and 6.5 s to refuse 641 digits under ``tracemalloc``;
without it, 0.3 s to read, 0.5 s to refuse p and 0.6 s to refuse 641
digits (0.9 s with the per-line read).  The last test runs
``tests/test_wire.py``'s comparison with ``tests/oracles.py``'s
reference on every body of up to 5 characters at every k in 1..4;
Tier-1 runs the 5-character bodies at their own line count only.  This
file sits outside the ``testpaths`` in ``pyproject.toml``, so a plain
``pytest`` does not collect it.  CI runs it as a step of its own, about
25 s on a 2-vCPU host with Python 3.11.7:

    python -m pytest -q -s ci/test_read_db_k1e6.py
"""

import random
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pirsi.field import PrimeField  # noqa: E402
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


def test_read_db_refuses_641_digits_on_the_last_of_a_million_lines(tmp_path, monkeypatch):
    # Under the default digit limit json reads the line; split_decimals'
    # own bound refuses it, so the value check is never reached.
    rng = random.Random(8)
    path = tmp_path / "k1e6-641.db"
    write_values(path, [rng.randrange(P) for _ in range(K - 1)] + ["9" * 641])
    monkeypatch.setattr(PrimeField, "check", None)  # a call would raise TypeError, not ValueError
    err, elapsed, peak_mb = traced_read(path)
    print(f"read_db refusing 641 digits on line {K}: {elapsed:.2f} s under tracemalloc, peak {peak_mb:.1f} MB")
    assert str(err) == f"database value {K} is not a canonical decimal: '{'9' * 64}'…"
    assert peak_mb <= REFUSED_PEAK_CAP_MB


def test_read_db_matches_the_reference_on_every_short_body_at_every_k():
    mismatches, tried = read_db_mismatches(5, every_k_to=5)
    assert mismatches == [] and tried == 271_453 * 4
