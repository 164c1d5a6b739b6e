"""The packed Vandermonde code against the per-row oracle on every small shape.

Every shape 1 <= r <= n <= 110 (6,105 shapes) at the largest prime the
program accepts, with every message and every known value p - 1: the
largest slot sum each shape can form.  ``mds.encode`` must equal the
per-row product sums of ``tests/oracles.py``, and the known-column
subtraction in ``mds.solve_vandermonde`` must cancel them.  Tier-1 runs
the same check on random shapes at three primes.  Here p - 1 is about
2**81.46, so the slot width keeps about half a bit spare; the Tier-1 run
at p = 2**31 - 1 is the one that fails if the width narrows by one bit.
This file sits outside the ``testpaths`` in ``pyproject.toml``, so a
plain ``pytest`` does not collect it.  CI runs it as a step of its own,
36–50 s in two runs on a 2-vCPU host with Python 3.11.7:

    python -m pytest -q ci/test_packed_shapes.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pirsi import PrimeField  # noqa: E402
from test_mds import LARGEST_PRIME, packed_mismatches  # noqa: E402

N = 110


def test_packed_code_matches_per_row_oracle_on_every_shape():
    shapes = [(r, n) for n in range(1, N + 1) for r in range(1, n + 1)]
    assert packed_mismatches(shapes, PrimeField(LARGEST_PRIME)) == []
