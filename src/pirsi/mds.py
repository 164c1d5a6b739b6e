"""Vandermonde MDS codes over a prime field.

A code matrix is an r x n matrix in which every r x r submatrix is
invertible.  Encoding n message symbols into r coded symbols with such a
matrix lets a receiver who already knows any n - r of the message symbols
recover all the rest; knowing fewer leaves every missing symbol completely
undetermined.  The Vandermonde construction over distinct nonzero
evaluation points 1..n realises this for any 1 <= r <= n <= p - 1.

There are two decoders.  ``solve_vandermonde`` is the one the client uses:
it knows the code is Vandermonde on the points 1..n, so it recovers just the
wanted coordinates through the master polynomial of the unknown points
(Bjorck & Pereyra, "Solution of Vandermonde systems of equations", Math.
Comp. 24, 1970), in O(u^2) for u unknowns, without building the matrix.
``decode`` is generic Gauss-Jordan elimination over any code matrix, O(u^3);
it is kept as the independent oracle the tests check the fast path against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .field import PrimeField


@dataclass(frozen=True)
class CodeMatrix:
    """An r x n coding matrix over a prime field."""

    rows: tuple[tuple[int, ...], ...]
    field: PrimeField

    def __post_init__(self):
        rows = tuple(self.field.check(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        r = len(rows)
        if r == 0:
            raise ValueError("matrix needs at least one row")
        n = len(rows[0])
        if not 1 <= r <= n <= self.field.p - 1:
            raise ValueError(f"need 1 <= r <= n <= p - 1, got r={r}, n={n}, p={self.field.p}")
        if any(len(row) != n for row in rows):
            raise ValueError("ragged matrix")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


@lru_cache(maxsize=16)
def vandermonde(r: int, n: int, field: PrimeField) -> CodeMatrix:
    """Build the r x n Vandermonde matrix with entry (i, j) = (j + 1)**i.

    Evaluation points are the first n nonzero residues, so the matrix is
    deterministic for a given shape and field.  Raises if the field is too
    small to supply n distinct nonzero points.  A round uses only a few
    block shapes and ``CodeMatrix`` is immutable, so recent shapes are
    cached and shared.
    """
    if n > field.p - 1:
        raise ValueError(
            f"not enough distinct evaluation points: n={n} needs p > {n}, got p={field.p}"
        )
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    p = field.p
    rows = tuple(tuple(pow(j + 1, i, p) for j in range(n)) for i in range(r))
    return CodeMatrix(rows, field)


def encode(matrix: CodeMatrix, messages: Sequence[int]) -> list[int]:
    """Matrix-vector product: n message symbols -> r coded symbols."""
    if len(messages) != matrix.n:
        raise ValueError(f"expected {matrix.n} message symbols, got {len(messages)}")
    p = matrix.field.p
    return [sum(map(operator.mul, row, messages)) % p for row in matrix.rows]


def decode(
    matrix: CodeMatrix,
    codeword: Sequence[int],
    known: Mapping[int, int],
) -> list[int]:
    """Recover the full message vector from r coded symbols plus known symbols.

    ``known`` maps column positions (0-based) to their message values.  The
    contributions of known columns are subtracted from the codeword and the
    remaining u = n - len(known) <= r unknowns are solved by Gaussian
    elimination over the field.

    Raises ValueError if fewer than n - r symbols are known (the system is
    underdetermined) or if the inputs are inconsistent with any codeword.
    """
    r, n, p = matrix.r, matrix.n, matrix.field.p
    if len(codeword) != r:
        raise ValueError(f"expected {r} coded symbols, got {len(codeword)}")
    for j in known:
        if not 0 <= j < n:
            raise ValueError(f"known column {j} out of range")
    unknown = [j for j in range(n) if j not in known]
    if len(unknown) > r:
        raise ValueError(
            f"insufficient side information: {len(unknown)} unknowns but only {r} equations"
        )
    if not unknown:
        return [known[j] for j in range(n)]

    # Augmented system restricted to unknown columns; the right-hand side is
    # the codeword minus the known columns' contributions.
    aug = []
    for row, coded in zip(matrix.rows, codeword):
        rhs = (coded - sum(row[j] * val for j, val in known.items())) % p
        aug.append([row[j] for j in unknown] + [rhs])
    u = len(unknown)

    pivot_row = 0
    for col in range(u):
        sel = next((i for i in range(pivot_row, r) if aug[i][col]), None)
        if sel is None:
            raise ValueError("singular system: coding matrix columns are dependent")
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        inv = pow(aug[pivot_row][col], -1, p)
        pivot = aug[pivot_row] = [entry * inv % p for entry in aug[pivot_row]]
        for i in range(r):
            factor = aug[i][col]
            if i != pivot_row and factor:
                aug[i] = [(a - factor * b) % p for a, b in zip(aug[i], pivot)]
        pivot_row += 1

    # Any leftover equations must have reduced to 0 = 0.
    if any(aug[i][u] for i in range(u, r)):
        raise ValueError("inconsistent codeword for the given known symbols")

    solution = dict(known)
    for row_idx, col in enumerate(unknown):
        solution[col] = aug[row_idx][u]
    return [solution[j] for j in range(n)]


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

    Raises ValueError if fewer than n - r symbols are known or if the inputs
    are inconsistent with any codeword.
    """
    r, p = len(codeword), field.p
    if not 1 <= r <= n <= p - 1:
        raise ValueError(f"need 1 <= r <= n <= p - 1, got r={r}, n={n}, p={p}")
    for j in list(known) + list(wanted):
        if not 0 <= j < n:
            raise ValueError(f"column {j} out of range")
    unknown = [j for j in range(n) if j not in known]
    if len(unknown) > r:
        raise ValueError(
            f"insufficient side information: {len(unknown)} unknowns but only {r} equations"
        )

    # b_i: subtract the known columns' terms v_j * x_j**i, kept as running products.
    points = [j + 1 for j in known]
    terms = list(known.values())
    rhs = []
    for coded in codeword:
        rhs.append((coded - sum(terms)) % p)
        terms = [t * x % p for t, x in zip(terms, points)]

    # P's coefficients, lowest degree first: multiply by (t - x) per point.
    poly = [1]
    for j in unknown:
        x = j + 1
        poly = [(a - x * b) % p for a, b in zip([0] + poly, poly + [0])]
    u = len(unknown)
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


def _determinant(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination (destructive)."""
    size = len(rows)
    det = 1
    for col in range(size):
        sel = next((i for i in range(col, size) if rows[i][col]), None)
        if sel is None:
            return 0
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, size):
            if rows[i][col]:
                factor = rows[i][col] * inv % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[col])]
    return det % p


def check_mds(matrix: CodeMatrix) -> bool:
    """Exhaustively test that every r x r submatrix is invertible.

    Cost grows as C(n, r), so this is meant for small shapes (n up to
    around 16).
    """
    r, n = matrix.r, matrix.n
    for cols in combinations(range(n), r):
        square = [[matrix.rows[i][j] for j in cols] for i in range(r)]
        if _determinant(square, matrix.field.p) == 0:
            return False
    return True
