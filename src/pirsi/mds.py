"""Vandermonde MDS codes over a prime field.

A code matrix is an r x n matrix in which every r x r submatrix is
invertible.  Encoding n message symbols into r coded symbols with such a
matrix lets a receiver who already knows any n - r of the message symbols
recover all the rest; knowing fewer leaves every missing symbol completely
undetermined.  The Vandermonde construction over distinct nonzero
evaluation points 1..n, with entry (i, j) = (j + 1)**i, realises this for
any 1 <= r <= n <= p - 1.

The code is never held as rows.  Column j of the r x n matrix is one
packed int, ``_packed_columns``, with row i's entry in the w-bit slot at
bit i * w.  A product sum of n such columns, each times a value below p,
leaves every slot below n * p**2 < 2**w, so no carry crosses a slot.  Both
sides of a round use it.  ``encode`` is the server's matrix-vector
product: one ``sum(map(mul, columns, messages))`` for the block, then r
slot reads.  ``solve_vandermonde`` is the client's: it subtracts the
known columns from the codeword with one product sum over the held values
and r slot reads.  It then recovers just the wanted coordinates through
the master polynomial of the u unknown points (Bjorck & Pereyra,
"Solution of Vandermonde systems of equations", Math. Comp. 24, 1970),
without inverting the matrix.  It gets that polynomial by the cheaper of
two routes: multiplying in the unknown points, O(u^2), or dividing the
known points out of the product over all n points, O(|known| * n), which
is cached per (n, p) and built once in O(n^2).

The independent checks live in the tests (``tests/oracles.py``), since the
program never runs them: the matrix as rows and a per-row product sum,
generic Gauss-Jordan elimination over any code matrix, O(u^3), and an
exhaustive MDS test.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from functools import lru_cache

from .field import PrimeField


@lru_cache(maxsize=16)
def _packed_columns(r: int, n: int, field: PrimeField) -> tuple[int, tuple[int, ...]]:
    """The slot width w and the r x n Vandermonde matrix as n packed columns.

    Column j is sum_i ((j + 1)**i mod p) << (i * w), with
    w = 2 * bitlen(p) + bitlen(n).  An entry and a value are each below
    2**bitlen(p) and there are at most n < 2**bitlen(n) terms, so a slot of
    a product sum over n columns stays below 2**w.  The matrix depends only
    on the shape and the field, and a round uses only a few shapes, so
    recent shapes are cached.  The rows of powers take one multiply per
    entry.  Adjacent rows are then joined pairwise, then adjacent pairs, and
    so on: ceil(log2(r)) passes, each over n columns.

    Requires 1 <= r <= n <= p - 1, so that the n points are distinct and
    nonzero; it is not re-checked here.  A block's shape comes from
    ``scheme.make_query``, which refuses a field too small for the widest
    block and sets r = size - quota within the cap ``build_layout``
    admitted, or from ``wire.parse_query_doc``, which refuses any other
    shape.

    >>> _packed_columns(2, 3, PrimeField(7))  # rows (1, 1, 1) and (1, 2, 3)
    (8, (257, 513, 769))
    """
    p = field.p
    width = 2 * p.bit_length() + n.bit_length()
    row = [1] * n
    level = [row]
    for _ in range(r - 1):
        row = [entry * x % p for entry, x in zip(row, range(1, n + 1))]
        level.append(row)
    shift = width
    while len(level) > 1:
        pairs = zip(level[0::2], level[1::2])
        joined = [[lo | hi << shift for lo, hi in zip(a, b)] for a, b in pairs]
        if len(level) % 2:
            joined.append(level[-1])
        level, shift = joined, 2 * shift
    return width, tuple(level[0])


def _slots(total: int, r: int, width: int, p: int) -> list[int]:
    """The first r ``width``-bit slots of ``total``, lowest first, each mod p."""
    mask = (1 << width) - 1
    return [(total >> shift & mask) % p for shift in range(0, r * width, width)]


def encode(r: int, messages: Sequence[int], field: PrimeField) -> list[int]:
    """The first r Vandermonde rows times ``messages``, mod p: one coded symbol per row.

    One product sum over the packed columns, then r slot reads.  Requires
    every message to be an int in [0, p), as ``Database`` holds them, and
    the shape ``_packed_columns`` requires with n = len(messages);
    ``scheme.server_answer`` passes the values at a block's support.
    """
    width, columns = _packed_columns(r, len(messages), field)
    return _slots(sum(map(operator.mul, columns, messages)), r, width, field.p)


def _from_roots(points: Sequence[int], p: int) -> list[int]:
    """The coefficients of prod_x (t - x) over ``points`` mod p, lowest degree first."""
    poly = [1]
    for x in points:
        poly = [(a - x * b) % p for a, b in zip([0] + poly, poly + [0])]
    return poly


@lru_cache(maxsize=16)
def _all_points(n: int, p: int) -> tuple[int, ...]:
    """The coefficients of prod_{x=1..n} (t - x) mod p, highest degree first.

    Built once per (n, p) in O(n^2); ``solve_vandermonde`` divides the known
    points out of it.  It vanishes on 1..n and is (-1)**n * n! at 0:

    >>> from math import factorial
    >>> def at(coeffs, x, p):
    ...     value = 0
    ...     for coeff in coeffs:
    ...         value = (value * x + coeff) % p
    ...     return value
    >>> all(at(_all_points(n, 13), x, 13) == 0 for n in range(1, 13) for x in range(1, n + 1))
    True
    >>> all(at(_all_points(n, 13), 0, 13) == (-1) ** n * factorial(n) % 13 for n in range(1, 13))
    True
    >>> _all_points(3, 13)  # t^3 - 6t^2 + 11t - 6
    (1, 7, 11, 7)
    >>> _all_points.cache_info().maxsize
    16
    """
    return tuple(reversed(_from_roots(range(1, n + 1), p)))


def solve_vandermonde(
    codeword: Sequence[int],
    n: int,
    known: Mapping[int, int],
    wanted: Sequence[int],
    field: PrimeField,
) -> list[int]:
    """The message coordinates at positions ``wanted`` behind a Vandermonde codeword.

    ``codeword`` holds the r coded symbols of ``encode(r, messages, field)``
    with r = len(codeword) and n = len(messages); ``known`` maps column
    positions (0-based) to their message values.  With x_l = l + 1 for the
    u unknown columns, the coded symbols minus the known columns'
    contributions give b_i = sum_l x_l**i * z_l.  The master polynomial
    P(t) = prod_l (t - x_l) solves this: for an unknown column l,
    q = P / (t - x_l) vanishes on every other unknown point, so
    z_l = <q, b> / q(x_l).  P also checks rows beyond the u-th:
    sum_k P_k * b[i + k] = 0 for i = 0..r-u-1, which holds exactly when the
    codeword is consistent with the known symbols.

    The known columns' contributions are one product sum over the packed
    columns ``encode`` uses, then r slot reads.  P is built by multiplying
    in (t - x_l) for each unknown point, O(u^2), when u**2 <= len(known) * n,
    and otherwise by dividing (t - x_j) for each known point exactly out of
    prod_{x=1..n} (t - x), O(len(known) * n).  That product is cached per
    (n, p); its first build costs O(n^2).  Both routes give the same P, so
    the result does not depend on the route.

    Requires 1 <= r <= n <= p - 1, the shape ``_packed_columns`` requires,
    every key of ``known`` in 0..n-1, ``wanted`` a subset of the unknown
    positions, and every known value an int in [0, p); none is re-checked
    here.  ``scheme.client_decode`` checks that r is the block's row count
    and that the held values are field elements, and enumerates the
    positions from the block's own support: the wanted ones are its
    demands, which are never side positions.

    Raises ValueError if fewer than n - r symbols are known or if the inputs
    are inconsistent with any codeword.
    """
    r, p = len(codeword), field.p
    unknown = [j for j in range(n) if j not in known]
    if len(unknown) > r:
        raise ValueError(
            f"insufficient side information: {len(unknown)} unknowns but only {r} equations"
        )

    # b_i: subtract the known columns' terms v_j * x_j**i, read off the same
    # packed columns the server encodes with, one mod per row.
    width, columns = _packed_columns(r, n, field)
    held = sum(map(operator.mul, map(columns.__getitem__, known), known.values()))
    rhs = [(coded - term) % p for coded, term in zip(codeword, _slots(held, r, width, p))]

    # P's coefficients, lowest degree first.  Either multiply in (t - x) per
    # unknown point, O(u^2), or divide (t - x) per known point exactly out of
    # the product over all n points, O(|known| * n): whichever is less work.
    u = len(unknown)
    if u * u <= len(known) * n:
        poly = _from_roots([j + 1 for j in unknown], p)
    else:
        high = _all_points(n, p)
        for j in known:
            # Synthetic division, highest degree first; x is a root, so the
            # remainder high[-1] + x * acc is zero and is dropped.
            x = j + 1
            acc, quotient = 0, []
            for coeff in high[:-1]:
                acc = (acc * x + coeff) % p
                quotient.append(acc)
            high = quotient
        poly = high[::-1]
    if any(sum(map(operator.mul, poly, rhs[i:i + u + 1])) % p for i in range(r - u)):
        raise ValueError("inconsistent codeword for the given known symbols")

    values = []
    for j in wanted:
        # Synthetic division: q_{u-1} = 1, q_{i-1} = P_i + x * q_i.
        x = j + 1
        q = [1] * u
        for i in range(u - 1, 0, -1):
            q[i - 1] = (poly[i] + x * q[i]) % p
        at_x = 0
        for coeff in reversed(q):
            at_x = (at_x * x + coeff) % p
        values.append(sum(map(operator.mul, q, rhs)) * pow(at_x, -1, p) % p)
    return values
