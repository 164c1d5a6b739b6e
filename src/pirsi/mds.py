"""Vandermonde MDS codes over a prime field.

A code matrix is an r x n matrix in which every r x r submatrix is
invertible.  Encoding n message symbols into r coded symbols with such a
matrix lets a receiver who already knows any n - r of the message symbols
recover all the rest; knowing fewer leaves every missing symbol completely
undetermined.  The Vandermonde construction over distinct nonzero
evaluation points 1..n realises this for any 1 <= r <= n <= p - 1.

The client decodes with ``solve_vandermonde``.  It knows the code is
Vandermonde on the points 1..n, so it recovers just the wanted
coordinates through the master polynomial of the u unknown points
(Bjorck & Pereyra, "Solution of Vandermonde systems of equations", Math.
Comp. 24, 1970), without inverting the matrix.  It gets that polynomial by
the cheaper of two routes: multiplying in the unknown points, O(u^2), or
dividing the known points out of the product over all n points,
O(|known| * n), which is cached per (n, p) and built once in O(n^2).
Before that it subtracts the known columns from the codeword, one product
sum per row over the rows of ``vandermonde``: those are cached per shape,
and the server builds the same shape for the block it answers.
The independent check on it is generic Gauss-Jordan elimination over any
code matrix, O(u^3), with an exhaustive MDS test; both live in the tests
(``tests/oracles.py``), since the program never runs them.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Mapping, Sequence

from .field import PrimeField


@lru_cache(maxsize=16)
def vandermonde(r: int, n: int, field: PrimeField) -> tuple[tuple[int, ...], ...]:
    """The rows of the r x n Vandermonde matrix with entry (i, j) = (j + 1)**i.

    Evaluation points are the first n nonzero residues, so the matrix is
    deterministic for a given shape and field, and every entry is already
    reduced mod p.  Raises if the field is too small to supply n distinct
    nonzero points.  A round uses only a few block shapes and the rows are
    immutable, so recent shapes are cached and shared.
    """
    if n > field.p - 1:
        raise ValueError(
            f"not enough distinct evaluation points: n={n} needs p > {n}, got p={field.p}"
        )
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    p = field.p
    return tuple(tuple(pow(j + 1, i, p) for j in range(n)) for i in range(r))


def encode(rows: Sequence[Sequence[int]], messages: Sequence[int], p: int) -> list[int]:
    """Matrix-vector product mod p: n message symbols -> one coded symbol per row."""
    if len(messages) != len(rows[0]):
        raise ValueError(f"expected {len(rows[0])} message symbols, got {len(messages)}")
    return [sum(map(operator.mul, row, messages)) % p for row in rows]


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

    ``codeword`` holds the r coded symbols of ``vandermonde(r, n, field)``
    with r = len(codeword); ``known`` maps column positions (0-based) to
    their message values.  With x_l = l + 1 for the u unknown columns, the
    coded symbols minus the known columns' contributions give
    b_i = sum_l x_l**i * z_l.  The master polynomial P(t) = prod_l (t - x_l)
    solves this: for an unknown column l, q = P / (t - x_l) vanishes on
    every other unknown point, so z_l = <q, b> / q(x_l).  P also checks rows
    beyond the u-th: sum_k P_k * b[i + k] = 0 for i = 0..r-u-1, which holds
    exactly when the codeword is consistent with the known symbols.

    The known columns' contributions are read off the rows of
    ``vandermonde(r, n, field)``, which are cached per shape, in
    O(r * len(known)).  P is built by multiplying in (t - x_l) for each
    unknown point, O(u^2), when u**2 <= len(known) * n, and otherwise by
    dividing (t - x_j) for each known point exactly out of
    prod_{x=1..n} (t - x), O(len(known) * n).  That product is cached per
    (n, p); its first build costs O(n^2).  Both routes give the same P, so
    the result does not depend on the route.

    Raises ValueError if fewer than n - r symbols are known or if the inputs
    are inconsistent with any codeword.
    """
    r, p = len(codeword), field.p
    if not 1 <= r <= n <= p - 1:
        raise ValueError(f"need 1 <= r <= n <= p - 1, got r={r}, n={n}, p={p}")
    columns = [*known, *wanted]
    if columns and not (min(columns) >= 0 and max(columns) < n):
        bad = next(j for j in columns if not 0 <= j < n)
        raise ValueError(f"column {bad} out of range")
    unknown = [j for j in range(n) if j not in known]
    if len(unknown) > r:
        raise ValueError(
            f"insufficient side information: {len(unknown)} unknowns but only {r} equations"
        )

    # b_i: subtract the known columns' terms v_j * x_j**i, read off the cached
    # Vandermonde rows (the server builds the same shape), one mod per row.
    # itemgetter of a single key returns the entry itself, not a 1-tuple.
    held = tuple(known.values())
    pick = operator.itemgetter(*known) if len(held) > 1 else (lambda row: [row[j] for j in known])
    rows = vandermonde(r, n, field)
    rhs = [
        (coded - sum(map(operator.mul, pick(row), held))) % p
        for coded, row in zip(codeword, rows)
    ]

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
        if j in known:
            values.append(known[j])
            continue
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
