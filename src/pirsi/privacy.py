"""Exact privacy verification for the randomized partition scheme.

The server observes the query, which is determined by the ordered layout
(subspace blocks in transmitted order; coefficients are a deterministic
function of block shape).  Privacy therefore means: the posterior over
demand sets given the layout equals the uniform prior 1 / C(k, n),
exactly.  Everything here is computed in rational arithmetic so equality
can be asserted with zero tolerance.

The layout law.  ``build_layout`` places the demands w by capacity, draws
side quotas from s into the blocks holding demands, and shuffles the rest
in.  With d_u = |w ∩ block u|, D the blocks with d_u > 0, c_u = size_u -
d_u, h_u = |s ∩ block u|, q_u block u's side quota and Q = sum_{u in D}
q_u, the three stages multiply to

    P(layout | w, s) = U * perm(k - n, Q) / perm(m, Q)
                         * prod_{u in D} perm(h_u, q_u) / perm(c_u, q_u)

with U = prod_u size_u! / k!, or 0 if some block in D has h_u < q_u; else
h_u <= c_u and sum h_u <= m keep every denominator positive.

Averaging over s.  For fixed w and uniform s, prod_{u in D} perm(h_u, q_u)
counts the ordered choices of q_u side indices among each block's c_u
non-demand slots; each of the prod_{u in D} perm(c_u, q_u) such choices
lies in s with probability perm(m, Q) / perm(k - n, Q).  So the correction
averages to 1: P(layout | w) = U for every *feasible* w (each block in D
keeps c_u >= q_u, and Q <= m) and 0 for the rest, and the posterior is
uniform over the feasible sets.  Feasibility depends only on the profile
(d_u), and every profile with d_u <= size_u and sum d_u = n occurs in every
layout of the plan.  So the posterior is uniform for one layout iff for all
of them, iff every profile is feasible, iff the plan passes the cap and
window of ``rate.admits_every_demand_set``.  The paper's plan does: whatever
is demanded, the layout is uniform over the k! / prod_u size_u! ordered
partitions with the plan's sizes, which is the scheme's privacy.
``monte_carlo_tvd`` tests samples against two marginals of this law:
block u is a uniform size_u-subset of 1..k, so a fixed index lies in it
with probability size_u / k, and two fixed indices share a block with probability sum_u size_u (size_u - 1) / (k (k - 1)).

The independent cross-check runs the shipped sampler: ``enumerate_randomness``
drives ``scheme.build_layout`` with a scripted generator, once per sequence
of draws, so its law is that of the code that builds real queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, factorial, inf, perm, prod, sqrt
from statistics import NormalDist
from typing import Collection, Iterable, Iterator, Sequence

from .rate import ProblemParams, RatePlan, admits_every_demand_set, compute_plan
from .scheme import DemandSpec, Layout, build_layout

BRANCH_CAP = 1_000_000
ALPHA = 1e-6  # monte_carlo_tvd's chance of refusing an honest sampler
MIN_EXPECTED = 5  # expected hits, and misses, that each varying cell needs


class _Branch(Exception):
    """``randrange(n)`` was called past the scripted prefix; ``args[0]`` is n."""


class _Script:
    """A generator with only ``build_layout``'s two draws, replaying a fixed prefix.

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


def _check_layout(layout: Layout, params: ProblemParams):
    plan = compute_plan(params)
    if layout.plan != plan:
        raise ValueError("layout was built for a different plan")
    return plan


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
    return _probability(layout, _check_layout(layout, params), spec.demands, spec.side, params)


def _probability(
    layout: Layout,
    plan: RatePlan,
    demands: Sequence[int],
    side: Collection[int],
    params: ProblemParams,
) -> Fraction:
    """``layout_probability`` for valid inputs on ``plan``: the module docstring's product."""
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
    """Exact layout distribution of ``build_layout``, by running it on every draw sequence.

    Each run replays a prefix of draws through a scripted generator; a draw
    past the prefix forks the walk into one prefix per possible value.  A
    completed run has probability 1 / (product of its draws' ranges), summed
    per resulting layout.  ``build_layout`` validates the spec.  Raises if
    the completed runs exceed ``BRANCH_CAP`` (meant for k <= 7).
    """
    spec = DemandSpec(tuple(demands), frozenset(side))
    dist: dict[Layout, Fraction] = {}
    runs = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        script = _Script(prefix)
        try:
            layout = build_layout(params, spec, script)
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


@dataclass(frozen=True)
class PosteriorReport:
    """Exact posterior over demand sets for one observed layout."""

    probabilities: dict[tuple[int, ...], Fraction]
    prior: Fraction
    max_deviation: Fraction
    uniform: bool


def posterior(layout: Layout, params: ProblemParams) -> PosteriorReport:
    """Posterior over every demand set given the observed layout.

    Demands and side information are taken uniform a priori, so a demand
    set's posterior is its layout probability summed over all side sets,
    normalised.  By the module docstring that sum is the same for every
    demand set exactly when the plan admits every demand set, which is
    decided once for the plan in O(l log l); the table of priors then costs
    O(C(k, n)).  Raises ValueError if the layout was built for another
    plan, or if the plan cannot hide every demand set.
    """
    plan = _check_layout(layout, params)
    if not admits_every_demand_set(params, plan.size_profile, plan.side_profile):
        raise ValueError(
            f"plan with sizes {plan.size_profile} and quotas {plan.side_profile} cannot "
            f"hide every demand set at m={params.m}, n={params.n}"
        )
    prior = Fraction(1, comb(params.k, params.n))
    return PosteriorReport(
        probabilities=dict.fromkeys(combinations(range(1, params.k + 1), params.n), prior),
        prior=prior,
        max_deviation=Fraction(0),
        uniform=True,
    )


@dataclass(frozen=True)
class TvdReport:
    """``monte_carlo_tvd``'s verdict: the worst |z| over ``cells`` against ``threshold``.

    ``distinct_queries`` counts layout hashes: short only on a 64-bit collision.
    """

    trials: int
    distinct_queries: int
    cells: int
    max_z: float
    threshold: float
    consistent: bool


def _sample_counts(params, demands, trials, rng, layouts: set) -> list[int]:
    """Hits per block, then pair hits, over ``trials`` layouts drawn for ``demands``.

    Each sample draws a uniform side set from the other indices and runs
    ``build_layout``; its layout's hash joins ``layouts``.
    """
    demands = tuple(sorted(demands))
    wanted, pair = frozenset(demands), demands[:2]
    complement = [i for i in range(1, params.k + 1) if i not in wanted]
    counts = [0] * (compute_plan(params).l_star + 1)
    for _ in range(trials):
        spec = DemandSpec(demands, frozenset(rng.sample(complement, params.m)))
        # A query is its ordered supports; the block shapes fix the rest.
        subspaces = build_layout(params, spec, rng).subspaces
        layouts.add(hash(subspaces))
        for u, block in enumerate(subspaces):
            hits = wanted.intersection(block)
            counts[u] += len(hits)
            counts[-1] += hits.issuperset(pair)
    return counts


def monte_carlo_tvd(
    params: ProblemParams,
    demands_a: Sequence[int],
    demands_b: Sequence[int],
    trials: int,
    rng: random.Random,
) -> TvdReport:
    """Sample ``trials`` layouts per demand set and test them against the uniform law.

    Each set has a cell per block, counting its indices there over all its
    samples, and for n >= 2 one counting the samples that put its two
    smallest indices in one block; the module docstring gives their laws.
    The result is consistent iff every cell's |z| is at most the two-sided
    normal quantile at ``ALPHA`` split evenly over the cells; a cell with
    no variance (a single-block plan) must equal its mean.  Raises
    ValueError for an invalid demand set, or for fewer trials than give
    every varying cell ``MIN_EXPECTED`` expected hits and misses.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    for demands in (demands_a, demands_b):
        # The demands alone must fit; the side sets drawn for them always do.
        DemandSpec(tuple(demands), frozenset()).validate_against(replace(params, m=0))
    k, n = params.k, params.n
    sizes = compute_plan(params).size_profile
    # Per cell and trial: outcomes, hit probability, variance factor (the
    # hypergeometric one for blocks; at k = 1 the block has no variance).
    factor = Fraction(k - n, k - 1) if k > 1 else Fraction(0)
    laws = [(n, Fraction(size, k), factor) for size in sizes]
    if n >= 2:
        laws.append((1, Fraction(sum(s * (s - 1) for s in sizes), k * (k - 1)), Fraction(1)))
    rarest = [draws * min(p, 1 - p) for draws, p, _ in laws if 0 < p < 1]
    needed = max((ceil(MIN_EXPECTED / rate) for rate in rarest), default=1)
    if trials < needed:
        raise ValueError(
            f"{trials} trials leave a cell expecting fewer than {MIN_EXPECTED} "
            f"hits or misses; use at least {needed}"
        )
    layouts: set = set()
    max_z = 0.0
    for demands in (demands_a, demands_b):
        counts = _sample_counts(params, demands, trials, rng, layouts)
        # zip drops the pair count when n = 1, which has no pair cell.
        for count, (draws, p, scale) in zip(counts, laws):
            mean = trials * draws * p
            variance = mean * (1 - p) * scale
            if variance:
                max_z = max(max_z, float(abs(count - mean)) / sqrt(variance))
            elif count != mean:
                max_z = inf
    cells = 2 * len(laws)
    threshold = NormalDist().inv_cdf(1 - ALPHA / (2 * cells))
    return TvdReport(trials, len(layouts), cells, max_z, threshold, max_z <= threshold)
