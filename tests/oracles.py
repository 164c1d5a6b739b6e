"""Reference implementations the tests check the program against.

The program never runs any of this.  Each function is a second, slower
route to a claim the program makes, so it lives beside the tests that
compare the two:

* MDS: the Vandermonde code as rows (``vandermonde``) and a product sum
  per row (``encode``), against which the packed columns of ``mds.encode``
  and ``mds.solve_vandermonde`` are checked; generic Gauss-Jordan
  elimination over any code matrix (``decode``), against which
  ``mds.solve_vandermonde`` is checked; and an exhaustive minor test
  (``check_mds``).
* Rate: the per-subspace cost (``subspace_cost``), the paper's
  closed-form minimum download (``closed_form_r_star``), against which the
  plan's profile cost is checked, the paper's headline condition for
  the single-subspace plan (``is_trivial_optimal``), and a memoised
  search over every quota vector the first lemma of ``pirsi.oracle``
  allows (``memo_search_sweep``), against which ``oracle.search_sweep``'s
  one pass is checked; and the admit rule by its definition, every demand
  profile in turn (``least_budget``), against which
  ``rate.admits_every_demand_set`` is checked.
* Privacy: the sampler as a per-index walk (``reference_draw_layout``),
  against which ``scheme.draw_layout``'s draws and layouts are checked;
  the layout law as an exact product (``layout_probability``), and the
  law of the shipped sampler, found by running ``scheme.draw_layout`` on
  every sequence of draws (``enumerate_randomness``); ``iter_layouts``
  lists every layout a plan allows.
* Wire: the version-3 query's labels, one index at a time, with the label
  width found by counting bytes (``reference_query_bytes`` and
  ``reference_query_supports``), against which ``wire.query_doc`` and
  ``wire.parse_query_bytes`` are checked; the database file and the
  CLI's index lists read one line or field at a time with a regex
  (``reference_read_db`` and ``reference_parse_indices``), against which
  ``wire.read_db`` and ``cli._parse_indices`` are checked; and the
  ``privacy-exact`` document rendered one demand set at a time
  (``reference_posterior_doc``), against which ``wire.posterior_doc``'s
  table, built in C-level passes, is checked.
* The converse: whether a subspace of GF(q)^k is the row space of a
  W-private linear query (``hides_every_demand_set``), over every subspace
  of a given dimension (``subspaces``).
"""

from __future__ import annotations

import argparse
import base64
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, perm, prod
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from pirsi.field import PrimeField
from pirsi.rate import ProblemParams, RatePlan, compute_plan, quota_cap, require_admissible
from pirsi.scheme import Database, DemandSpec, Layout, Query, draw_layout

BRANCH_CAP = 1_000_000


# ---------------------------------------------------------------------------
# The version-3 query


def reference_label_width(blocks: int) -> int:
    """The fewest bytes, at least one, whose big-endian values reach every label 0..blocks - 1."""
    width = 1
    while 256**width < blocks:
        width += 1
    return width


def reference_query_bytes(supports: Sequence[Sequence[int]], rows: Sequence[int], p: int) -> bytes:
    """The canonical query bytes for supports that partition 1..k, built one index at a time."""
    width = reference_label_width(len(supports))
    label_of = {}
    for label, support in enumerate(supports):
        for index in support:
            label_of[index] = label
    raw = b"".join(label_of[index].to_bytes(width, "big") for index in range(1, len(label_of) + 1))
    labels = base64.b64encode(raw).decode("ascii")
    return f'{{"labels":"{labels}","p":{p},"rows":[{",".join(map(str, rows))}],"version":3}}'.encode()


def reference_query_supports(labels: str, blocks: int) -> list[list[int]]:
    """Each block's indices, read off base64 labels one index at a time; labels must name blocks."""
    raw = base64.b64decode(labels, validate=True)
    width = reference_label_width(blocks)
    assert len(raw) % width == 0
    supports: list[list[int]] = [[] for _ in range(blocks)]
    for position in range(len(raw) // width):
        label = int.from_bytes(raw[position * width:(position + 1) * width], "big")
        supports[label].append(position + 1)
    return supports


# ---------------------------------------------------------------------------
# The database file and the CLI's index lists

_DECIMAL = "0|[1-9][0-9]{0,639}"  # at most 640 digits, as every reader holds a number
_DB_HEADER = re.compile(rf"pir-db v1 p=({_DECIMAL}) k=({_DECIMAL})")
_DB_VALUE = re.compile(_DECIMAL)
_DB_VALUES = re.compile(rf"(?:(?:{_DECIMAL})\n)+")
_INDICES = re.compile(rf"(?:{_DECIMAL})(?:,(?:{_DECIMAL}))*")


def reference_read_db(stream) -> Database:
    """A database file read line by line: one ``str`` and one ``int`` a line, then ``Database``'s own check.

    The same refusals, in the same words, as ``wire.read_db``, except that
    a line that is not a canonical decimal is quoted whole here.
    """
    try:
        text = stream.read()
    except UnicodeDecodeError as err:
        raise ValueError(
            f"database file is not ASCII: byte 0x{err.object[err.start]:02x} at offset {err.start}"
        ) from None
    header, _, body = text.partition("\n")
    match = _DB_HEADER.fullmatch(header)
    if match is None:
        cut = "…" if len(header) > 64 else ""
        raise ValueError(f"malformed database header: {header[:64]!r}{cut}")
    field = PrimeField(int(match[1]))
    k = int(match[2])
    if k < 1:
        raise ValueError("database needs k >= 1 values")
    lines = body.split("\n")
    if lines.pop() != "":
        raise ValueError("database's last line does not end with a newline")
    if len(lines) < k:
        raise ValueError(f"database ends after {len(lines)} of {k} values")
    if len(lines) > k:
        raise ValueError(f"database has data after its {k} values")
    if _DB_VALUES.fullmatch(body) is None:
        bad = next(i for i, line in enumerate(lines) if _DB_VALUE.fullmatch(line) is None)
        raise ValueError(f"database value {bad + 1} is not a canonical decimal: {lines[bad]!r}")
    return Database(tuple(map(int, lines)), field)


def reference_parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated canonical decimals, matched by one regex and split, as ``cli._parse_indices`` reads them."""
    if not _INDICES.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return tuple(map(int, text.split(",")))


# ---------------------------------------------------------------------------
# The privacy-exact document


def reference_posterior_doc(report, layout: Layout) -> dict:
    """``wire.posterior_doc`` entry by entry: each key joined from its set, each value the prior's fraction."""
    k, n, prior = report.params.k, report.params.n, report.prior
    return {
        "layout": {"subspaces": [list(block) for block in layout.subspaces]},
        "prior": f"{prior.numerator}/{prior.denominator}",
        "posteriors": {
            ",".join(str(i) for i in w): f"{prior.numerator}/{prior.denominator}"
            for w in combinations(range(1, k + 1), n)
        },
        "max_deviation": "0/1",
        "uniform": report.uniform,
    }


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
    """The code ``mds`` packs, as rows: entry (i, j) = (j + 1)**i mod p."""
    p = field.p
    return CodeMatrix(tuple(tuple(pow(j + 1, i, p) for j in range(n)) for i in range(r)), field)


def encode(matrix: CodeMatrix, messages: Sequence[int]) -> list[int]:
    """Matrix-vector product mod p, one product sum per row."""
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


def memo_search_sweep(k: int, n: int) -> list[int]:
    """The minimum download of every budget m = 0..k-n, by a memoised search.

    The search walks every non-increasing positive quota vector whose parts
    are ``q + n`` long (the first lemma of ``pirsi.oracle``), with no
    balanced window and no greedy tail; polynomial in k, about k^5.5.

    >>> memo_search_sweep(13, 2)[5]
    6
    """
    ProblemParams(k, 0, n)  # validates k and n

    @lru_cache(maxsize=None)
    def best(size: int, slots: int, budget: int, cap: int) -> int:
        """Largest quota total of parts fitting in ``size``, each quota at most
        ``cap``, the next ``slots`` quotas summing to at most ``budget``."""
        top = 0
        for q in range(min(cap, size - n, budget), 0, -1):
            left = size - q - n
            # Past the window the budget no longer binds; inside it, neither
            # does any excess over what the remaining slots can take.
            after = min(budget - q, (slots - 1) * q, left) if slots > 1 else left
            top = max(top, q + best(left, max(slots - 1, 0), after, q))
        return top

    try:
        return [k - best(k, n, m, k) for m in range(k - n + 1)]
    finally:
        # The closure and its cache form a reference cycle; clearing the
        # cache frees the memo now instead of at the next collection.
        best.cache_clear()


@lru_cache(maxsize=None)
def _demand_profiles(sizes: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Every way to put n demands in blocks of these sizes, as per-block counts."""
    return [d for d in product(*(range(min(size, n) + 1) for size in sizes)) if sum(d) == n]


def least_budget(sizes: tuple[int, ...], quotas: Sequence[int], n: int) -> int | None:
    """The least m at which blocks of these sizes and quotas serve every demand set, by definition.

    A demand profile puts d_u of the n demands in block u, d_u <= size_u;
    every demand set has one.  It is served when each block holding demands
    keeps size_u - d_u >= q_u slots for side messages and the budget pays
    those blocks' quotas.  Returns the largest such quota total over every
    profile, or None when some profile cannot be served at any budget.
    Quotas count side messages: each is 0 or more.  Exponential in the
    block count: small k only.

    >>> least_budget((5, 4, 4), (3, 2, 2), 2)
    5
    """
    need = 0
    for demands in _demand_profiles(sizes, n):
        held = [u for u, d in enumerate(demands) if d]
        if any(sizes[u] - demands[u] < quotas[u] for u in held):
            return None
        need = max(need, sum(quotas[u] for u in held))
    return need


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


def reference_draw_layout(
    plan: RatePlan, demands: Sequence[int], side: Iterable[int], rng: random.Random
) -> Layout:
    """``scheme.draw_layout`` as a per-index walk: the same draws, in the same order.

    Stage 2 re-reads every block's free capacity on each demand, stage 4
    collects the placed indices in a set and tests every index of 1..k
    against it.  The shipped sampler keeps running capacities and a mask
    instead; the tests hold it to this one's layouts, ``randrange`` calls
    and generator state.
    """
    k = sum(plan.size_profile)
    if plan.l_star == 1:
        return Layout((tuple(range(1, k + 1)),), plan)

    count = plan.l_star
    members: list[list[int]] = [[] for _ in range(count)]
    demand_count = [0] * count

    # Stage 2: place demands by remaining capacity.  Before the j-th
    # placement the free capacities sum to k - j + 1, so a single uniform
    # draw over that range, walked through the cumulative capacities,
    # selects subspace u with probability (size_u - placed_u) / (k - j + 1).
    for j, idx in enumerate(demands, start=1):
        draw = rng.randrange(k - j + 1)
        acc = 0
        chosen = -1
        for u in range(count):
            acc += plan.size_profile[u] - demand_count[u]
            if draw < acc:
                chosen = u
                break
        members[chosen].append(idx)
        demand_count[chosen] += 1

    # Stage 3: commit side information where demands landed.
    pool = sorted(side)
    for i in range(count):
        if demand_count[i] == 0:
            continue
        for _ in range(plan.side_profile[i]):
            members[i].append(pool.pop(rng.randrange(len(pool))))

    # Stage 4: uniform fill of everything else.
    placed = {idx for block in members for idx in block}
    remaining = [idx for idx in range(1, k + 1) if idx not in placed]
    rng.shuffle(remaining)
    cursor = 0
    for i in range(count):
        need = plan.size_profile[i] - len(members[i])
        members[i].extend(remaining[cursor:cursor + need])
        cursor += need

    return Layout(tuple(tuple(sorted(block)) for block in members), plan)


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
    k = sum(len(support) for support, _ in query.blocks)
    out = []
    for support, r in query.blocks:
        for coefficients in vandermonde(r, len(support), query.field).rows:
            row = [0] * k
            for idx, c in zip(support, coefficients):
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
