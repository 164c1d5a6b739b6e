"""Reference implementations the tests check the program against.

The program never runs any of this.  Each function is a second, slower
route to a claim the program makes, so it lives beside the tests that
compare the two:

* MDS: generic Gauss-Jordan elimination over any code matrix (``decode``)
  and an exhaustive minor test (``check_mds``), against which
  ``mds.solve_vandermonde`` and ``mds.vandermonde`` are checked.
* Rate: the per-subspace cost (``subspace_cost``), the paper's
  closed-form minimum download (``closed_form_r_star``), against which the
  plan's profile cost is checked, and the paper's headline condition for
  the single-subspace plan (``is_trivial_optimal``).
* Privacy: the layout law as an exact product (``layout_probability``),
  and the law of the shipped sampler, found by running
  ``scheme.draw_layout`` on every sequence of draws
  (``enumerate_randomness``); ``iter_layouts`` lists every layout a plan
  allows.
* The converse: whether a subspace of GF(q)^k is the row space of a
  W-private linear query (``hides_every_demand_set``), over every subspace
  of a given dimension (``subspaces``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, perm, prod
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from pirsi import mds
from pirsi.field import PrimeField
from pirsi.rate import ProblemParams, RatePlan, compute_plan, quota_cap, require_admissible
from pirsi.scheme import DemandSpec, Layout, Query, draw_layout

BRANCH_CAP = 1_000_000


# ---------------------------------------------------------------------------
# MDS codes


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


def vandermonde(r: int, n: int, field: PrimeField) -> CodeMatrix:
    """The program's rows, ``mds.vandermonde(r, n, field)``, as a ``CodeMatrix``."""
    return CodeMatrix(mds.vandermonde(r, n, field), field)


def encode(matrix: CodeMatrix, messages: Sequence[int]) -> list[int]:
    """The program's ``mds.encode`` with a ``CodeMatrix``'s rows and modulus."""
    return mds.encode(matrix.rows, messages, matrix.field.p)


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

    # Augmented system restricted to unknown columns; the right-hand side is
    # the codeword minus the known columns' contributions.  With no unknowns
    # every row is left over and checked below.
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


# ---------------------------------------------------------------------------
# Rate


def subspace_cost(size: int, quota: int, n_demands: int) -> int:
    """Downloaded symbols for one subspace of the given size and quota.

    A subspace no larger than the demand count must be fetched whole;
    otherwise the quota's worth of symbols can be saved.
    """
    if size < 1:
        raise ValueError(f"subspace size must be positive, got {size}")
    cap = quota_cap(size, n_demands)
    if not 0 <= quota <= cap:
        raise ValueError(f"quota {quota} outside [0, {cap}] for size {size}")
    if size <= n_demands:
        return size
    return size - quota


def closed_form_r_star(params: ProblemParams) -> int:
    """The paper's minimum download as one integer-product expression.

    ``compute_plan``'s subspace count ceil((k - t) / (m_bar + n)); at most
    n subspaces means the single subspace and k - m.  Otherwise the final
    term is the clipped size excess of the remainder subspace.

    >>> closed_form_r_star(ProblemParams(13, 5, 2))
    6
    """
    k, m, n = params.k, params.m, params.n
    m_bar = m // n
    t = m - n * m_bar
    l_formula = -(-(k - t) // (m_bar + n))
    if l_formula <= n:
        return k - m
    return (
        k
        - m
        - max(l_formula - 1 - n, 0) * m_bar
        - max(k - (l_formula - 1) * (m_bar + n) - t - n, 0)
    )


def is_trivial_optimal(params: ProblemParams) -> bool:
    """True when the single-subspace plan is already optimal.

    That happens exactly when the user demands more than it holds
    (n > m) or when the database is small relative to the demand count
    (n**2 + n >= k - m).
    """
    k, m, n = params.k, params.m, params.n
    return n > m or n * n + n >= k - m


# ---------------------------------------------------------------------------
# The layout law


class _Branch(Exception):
    """``randrange(n)`` was called past the scripted prefix; ``args[0]`` is n."""


class _Script:
    """A generator with only ``draw_layout``'s two draws, replaying a fixed prefix.

    ``randrange(n)`` returns the prefix's next value and records ``n`` in
    ``bounds``, or raises ``_Branch(n)`` once the prefix is used up;
    ``shuffle`` is Fisher-Yates over it, as in ``random.Random``.  Any other
    kind of draw has no method here, so it fails instead of going unwalked.
    """

    def __init__(self, prefix: tuple[int, ...]):
        self.prefix = prefix
        self.bounds: list[int] = []

    def randrange(self, n: int) -> int:
        if len(self.bounds) == len(self.prefix):
            raise _Branch(n)
        self.bounds.append(n)
        return self.prefix[len(self.bounds) - 1]

    def shuffle(self, x: list) -> None:
        for i in reversed(range(1, len(x))):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def layout_probability(
    layout: Layout,
    demands: Iterable[int],
    side: Iterable[int],
    params: ProblemParams,
) -> Fraction:
    """Exact probability that the construction outputs ``layout`` for these demands and side.

    It is 0 when some demand-bearing block holds fewer side indices than its
    quota.  At (5,1,1), U = 2! 2! 1! / 5! = 1/30 and the correction is
    perm(4,1) / perm(1,1):

    >>> params = ProblemParams(k=5, m=1, n=1)
    >>> layout = Layout(((1, 2), (3, 4), (5,)), compute_plan(params))
    >>> layout_probability(layout, demands=(1,), side=(2,), params=params)
    Fraction(2, 15)
    """
    spec = DemandSpec(tuple(demands), frozenset(side))
    spec.validate_against(params)
    plan = compute_plan(params)
    if layout.plan != plan:
        raise ValueError("layout was built for a different plan")
    return _probability(layout, plan, spec.demands, spec.side, params)


def _probability(
    layout: Layout,
    plan: RatePlan,
    demands: Sequence[int],
    side: Collection[int],
    params: ProblemParams,
) -> Fraction:
    """``layout_probability`` for valid inputs on ``plan``: the ``privacy`` docstring's product."""
    wanted = set(demands)
    numer, denom, quotas = 1, 1, 0
    for block, size, quota in zip(layout.subspaces, plan.size_profile, plan.side_profile):
        held_demands = sum(idx in wanted for idx in block)
        if held_demands == 0:
            continue
        held = sum(idx in side for idx in block)
        if held < quota:
            return Fraction(0)
        numer *= perm(held, quota)
        denom *= perm(size - held_demands, quota)
        quotas += quota
    k, m, n = params.k, params.m, params.n
    uniform = Fraction(prod(map(factorial, plan.size_profile)), factorial(k))
    return uniform * Fraction(numer * perm(k - n, quotas), denom * perm(m, quotas))


def enumerate_randomness(
    params: ProblemParams,
    demands: Iterable[int],
    side: Iterable[int],
) -> dict[Layout, Fraction]:
    """Exact layout distribution of ``draw_layout``, by running it on every draw sequence.

    The spec is validated, and the plan computed and checked, once, as
    ``build_layout`` does.  Each run replays a prefix of draws through a
    scripted generator; a draw past the prefix forks the walk into one
    prefix per possible value.  A completed run has probability 1 /
    (product of its draws' ranges), summed per resulting layout.  Raises if
    the completed runs exceed ``BRANCH_CAP`` (meant for k <= 7).
    """
    spec = DemandSpec(tuple(demands), frozenset(side))
    spec.validate_against(params)
    plan = compute_plan(params)
    require_admissible(params, plan)
    dist: dict[Layout, Fraction] = {}
    runs = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        script = _Script(prefix)
        try:
            layout = draw_layout(plan, spec.demands, spec.side, script)
        except _Branch as branch:
            stack.extend(prefix + (value,) for value in range(branch.args[0]))
            continue
        runs += 1
        if runs > BRANCH_CAP:
            raise ValueError(f"branch cap {BRANCH_CAP} exceeded; instance too large")
        dist[layout] = dist.get(layout, Fraction(0)) + Fraction(1, prod(script.bounds))
    return dist


def iter_layouts(params: ProblemParams) -> Iterator[Layout]:
    """Every ordered partition of 1..k matching the plan's size profile."""
    plan = compute_plan(params)
    indices = tuple(range(1, params.k + 1))

    def split(prefix, available, sizes):
        if not sizes:
            yield Layout(tuple(prefix), plan)
            return
        for block in combinations(available, sizes[0]):
            rest = tuple(x for x in available if x not in set(block))
            yield from split(prefix + [block], rest, sizes[1:])

    yield from split([], indices, plan.size_profile)


# ---------------------------------------------------------------------------
# The converse over all linear schemes
#
# A linear query is a matrix over GF(q) with k columns; the server learns
# its row space V and returns one symbol per row.  If the query is private,
# no demand set W' can be ruled out, so some side set S' of size m, disjoint
# from W', must let a client holding S' recover every message in W':
# e_w in V + span(e_s : s in S') for all w in W'.  A V meeting this for every
# n-set W' is "good", so the least dimension of a good V bounds every linear
# scheme's download from below.  Goodness is monotone (a superspace of a
# good V is good), so to show that bound is at least d it is enough that no
# subspace of dimension d - 1 is good.


def subspaces(k: int, dim: int, q: int) -> Iterator[list[list[int]]]:
    """Every ``dim``-dimensional subspace of GF(q)^k, once, as its reduced row-echelon basis.

    Row i is 1 at its pivot and 0 at every other pivot and before its own;
    each of its entries after the pivot that is not a pivot column is free.

    >>> sum(1 for _ in subspaces(4, 2, 2))  # the Gaussian binomial [4, 2]_2
    35
    """
    for pivots in combinations(range(k), dim):
        free = [(i, j) for i, pivot in enumerate(pivots) for j in range(pivot + 1, k) if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * k for _ in pivots]
            for i, pivot in enumerate(pivots):
                rows[i][pivot] = 1
            for (i, j), value in zip(free, values):
                rows[i][j] = value
            yield rows


def row_reduce(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """The reduced row-echelon form of ``rows`` over GF(q), zero rows dropped."""
    pending = [list(row) for row in rows]
    done: list[list[int]] = []
    for col in range(len(pending[0]) if pending else 0):
        pivot = next((row for row in pending if row[col]), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        inv = pow(pivot[col], -1, q)
        pivot = [x * inv % q for x in pivot]

        def clear(row):
            return [(a - row[col] * b) % q for a, b in zip(row, pivot)] if row[col] else row

        pending = [clear(row) for row in pending]
        done = [clear(row) for row in done] + [pivot]
    return done


def query_rows(query: Query) -> list[list[int]]:
    """The query as a matrix with k columns: block rows placed at their support's indices."""
    k = sum(len(block.support) for block in query.blocks)
    out = []
    for block in query.blocks:
        for coefficients in mds.vandermonde(block.r, len(block.support), query.field):
            row = [0] * k
            for idx, c in zip(block.support, coefficients):
                row[idx - 1] = c
            out.append(row)
    return out


def hides_every_demand_set(basis: Sequence[Sequence[int]], k: int, m: int, n: int, q: int) -> bool:
    """True when the row space V of ``basis`` in GF(q)^k is good for (m, n).

    Zeroing the coordinates of S' projects V onto the others, and
    e_w in V + span(e_S') exactly when e_w lies in that projection; in
    reduced row-echelon form that means some row is e_w itself.  Each
    m-set S' so recovers a set of coordinates, computed once and only when
    some demand set first needs it; V is good when every n-set lies inside
    the set of one S' disjoint from it.
    """
    recovered: dict[tuple[int, ...], set[int]] = {}

    def recovers(side: tuple[int, ...]) -> set[int]:
        if side not in recovered:
            rows = [[0 if j in side else x for j, x in enumerate(row)] for row in basis]
            recovered[side] = {
                row.index(1) for row in row_reduce(rows, q) if sum(map(bool, row)) == 1
            }
        return recovered[side]

    return all(
        any(
            recovers(side).issuperset(demands)
            for side in combinations([j for j in range(k) if j not in demands], m)
        )
        for demands in combinations(range(k), n)
    )
