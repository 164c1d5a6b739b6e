"""The Vandermonde decoder against Gauss-Jordan on every small shape, on both routes.

Every shape 1 <= r <= n <= 40 (820 shapes, 1,153 cases per prime), at
p = 2**31 - 1 and at the least prime above n, the smallest field n nodes
fit in.  Each shape is solved with the most unknowns each
master-polynomial route takes within r rows: multiplying in the unknown
points wherever the shape allows it, and dividing the known points out of
the product over all n points wherever r is past the route cut,
u**2 > (n - u) * n.  The known columns are drawn at random.
``mds.solve_vandermonde`` must return what ``tests/oracles.decode`` does
for every unknown column, read the node weights on the division route
only, and refuse a codeword with a spare row moved.  Tier-1 runs random
shapes and the edges of the known set.
This file sits outside the ``testpaths`` in ``pyproject.toml``, so a
plain ``pytest`` does not collect it.  CI runs it as a step of its own,
4.1–4.4 s in two runs on a 2-vCPU host with Python 3.11.7:

    python -m pytest -q ci/test_decoder_shapes.py
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import pytest  # noqa: E402

from pirsi import PrimeField  # noqa: E402
from test_mds import decode_mismatches, least_prime_above, route  # noqa: E402

N = 40


def most_unknowns(r, n):
    """For each route, the most unknowns u <= r that take it."""
    return {route(n, n - u): u for u in range(r + 1)}


@pytest.mark.parametrize("prime", ["2**31 - 1", "least above n"])
def test_decoder_matches_gauss_jordan_on_every_shape(prime):
    rng = random.Random(prime)
    taken = {"multiply-in": 0, "division": 0}
    for n in range(1, N + 1):
        field = PrimeField(2**31 - 1 if prime == "2**31 - 1" else least_prime_above(n))
        cases = []
        for r in range(1, n + 1):
            for way, u in most_unknowns(r, n).items():
                cases.append((r, n, rng.sample(range(n), n - u)))
                taken[way] += 1
        assert decode_mismatches(cases, field, rng) == [], n
    assert taken == {"multiply-in": 820, "division": 333}
