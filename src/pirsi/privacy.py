"""Exact privacy verification for the randomized partition scheme.

The server observes the query, which is determined by the ordered layout
(subspace blocks in transmitted order; coefficients are a deterministic
function of block shape).  Privacy therefore means: the posterior over
demand sets given the layout equals the uniform prior 1 / C(k, n),
exactly.  Everything here is computed in rational arithmetic so equality
can be asserted with zero tolerance.

The probability that the construction emits a fixed layout, given demands
``w`` and side information ``s``, factors into three pieces mirroring the
drawing stages.  Write d_u = |w ∩ block u|, D for the blocks with d_u > 0,
and q_u for block u's side quota:

* demand placement: walking w in ascending order, the j-th index lands in
  its block with probability (block size - demands already there) /
  (k - j + 1), giving prod_u falling(size_u, d_u) / falling(k, n);
* side-information draws: a demand-bearing block with quota q must have
  drawn q of the h = |s ∩ block| side indices it ends up containing, out of
  the ``undrawn`` side indices still left (m, less the quotas of earlier
  blocks in D), giving C(h, q) / C(undrawn, q) (zero if h < q);
* fill: the leftover indices are shuffled uniformly into the remaining
  slots, so a given arrangement has probability (prod of e_u!) / E!, where
  e_u = size_u - d_u - q_u [u in D] counts block u's slots left open after
  the first two stages and E = sum e_u = k - n - Q, Q = sum_{u in D} q_u.

Posterior in closed form.  Demands and side sets are uniform a priori, so
the posterior weight W of a demand set is the sum of that probability over
its C(k - n, m) side sets.  Only the side term depends on s, through h_u on
the blocks in D; with c_u = size_u - d_u, the identity
sum_h C(c, h) C(h, q) x^h = C(c, q) x^q (1 + x)^(c - q) collapses the sum to

    W = prod_u falling(size_u, d_u) / falling(k, n)
        * prod_{u in D} C(c_u, q_u) / C(undrawn_u, q_u)
        * prod_u e_u! / E!  *  C(E, m - Q).

Per block, falling(size_u, d_u) C(c_u, q_u) e_u! = size_u! / q_u!, and
q_u! C(undrawn_u, q_u) telescopes over D to m! / (m - Q)!, so

    W = prod_u size_u! / (falling(k, n) * m! * (k - n - m)!)

for every *feasible* demand set (each block in D keeps c_u >= q_u, and
Q <= m), and W = 0 otherwise.  The weight does not depend on which
feasible set it is, so the posterior is uniform over the feasible sets:
``posterior`` decides feasibility once per demand profile and never sums
over side sets.  Under the paper's plan every demand set is feasible, which
is the scheme's privacy.

Divided by the C(k - n, m) side sets, W is the layout's probability given
the demands alone, with the side set uniform:

    P(layout | w) = prod_u size_u! / k!,

the same for every w.  So the layout is uniform over the k! / prod_u size_u!
ordered partitions with the plan's sizes, whatever is demanded.
``monte_carlo_tvd`` tests sampled layouts against two marginals of this law:
block u is a uniform size_u-subset of 1..k, so a fixed index lies in it with
probability size_u / k, and two fixed indices share a block with probability
sum_u size_u (size_u - 1) / (k (k - 1)).

The independent cross-checks run the shipped sampler itself.
``enumerate_randomness`` drives ``scheme.build_layout`` with a scripted
generator, once per sequence of draws, so the law it returns is the law of
the code that builds real queries, not of a copy of it; and the tests sum
``_probability`` over every (w, s) pair.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, factorial, inf, prod, sqrt
from statistics import NormalDist
from typing import Collection, Iterable, Iterator, Sequence

from .rate import ProblemParams, RatePlan, compute_plan
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
    """Exact probability that the construction outputs ``layout``.

    Conditioned on the given demand and side-information sets.  Returns 0
    for layouts the drawing procedure cannot produce for them (some
    demand-bearing block contains fewer side indices than its quota).
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
    """``layout_probability`` for valid inputs: ``demands`` ascending, layout on ``plan``."""
    block_of = {idx: i for i, block in enumerate(layout.subspaces) for idx in block}
    k = params.k
    prob = Fraction(1)

    # Demand placement factor.
    placed = [0] * plan.l_star
    for j, idx in enumerate(demands, start=1):
        u = block_of[idx]
        prob *= Fraction(plan.size_profile[u] - placed[u], k - j + 1)
        placed[u] += 1

    # Side-information draw factor.
    undrawn = params.m
    for i, block in enumerate(layout.subspaces):
        if placed[i] == 0:
            continue
        quota = plan.side_profile[i]
        held = sum(1 for idx in block if idx in side)
        if held < quota:
            return Fraction(0)
        prob *= Fraction(comb(held, quota), comb(undrawn, quota))
        undrawn -= quota

    # Fill factor.
    open_slots = [
        plan.size_profile[i] - placed[i] - (plan.side_profile[i] if placed[i] else 0)
        for i in range(plan.l_star)
    ]
    numer = 1
    for e in open_slots:
        numer *= factorial(e)
    prob *= Fraction(numer, factorial(sum(open_slots)))
    return prob


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
    normalised.  By the closed form in the module docstring that sum is one
    constant for every feasible demand set and 0 for the rest, so each set
    gets 1 / (number of feasible sets) or 0.  Feasibility depends only on
    the blocks the set's members fall in, and is decided once per such
    profile.  Raises if the layout is unreachable (no feasible demand set).
    """
    _check_layout(layout, params)
    return _posterior(layout, params)


def _posterior(layout: Layout, params: ProblemParams) -> PosteriorReport:
    """``posterior`` on ``layout.plan``, which need not be the instance's own plan."""
    k, m, n = params.k, params.m, params.n
    plan = layout.plan
    block_of = [0] * (k + 1)
    for u, block in enumerate(layout.subspaces):
        for idx in block:
            block_of[idx] = u
    feasible_profile: dict[tuple[int, ...], bool] = {}
    feasible: dict[tuple[int, ...], bool] = {}
    for w in combinations(range(1, k + 1), n):
        profile = tuple(sorted(block_of[idx] for idx in w))
        ok = feasible_profile.get(profile)
        if ok is None:
            ok = feasible_profile[profile] = _feasible(plan, m, profile)
        feasible[w] = ok
    count = sum(feasible.values())
    if count == 0:
        raise ValueError("layout unreachable: zero probability under every demand set")
    share, zero = Fraction(1, count), Fraction(0)
    prior = Fraction(1, comb(k, n))
    max_dev = max(abs(share - prior), prior if count < len(feasible) else zero)
    return PosteriorReport(
        probabilities={w: share if ok else zero for w, ok in feasible.items()},
        prior=prior,
        max_deviation=max_dev,
        uniform=(max_dev == 0),
    )


def _feasible(plan: RatePlan, m: int, profile: Sequence[int]) -> bool:
    """Whether demands in the blocks ``profile`` (one entry per demand) can yield a layout.

    Every demand-bearing block must keep room for its side quota, and the
    quotas of those blocks must fit in the m side indices.
    """
    drawn = 0
    for u, demands in Counter(profile).items():
        quota = plan.side_profile[u]
        if plan.size_profile[u] - demands < quota:
            return False
        drawn += quota
    return drawn <= m


@dataclass(frozen=True)
class TvdReport:
    """``monte_carlo_tvd``'s verdict: the worst |z| over ``cells`` against ``threshold``."""

    trials: int
    distinct_queries: int
    cells: int
    max_z: float
    threshold: float
    consistent: bool


def _sample_counts(params, demands, trials, rng, layouts: set) -> list[int]:
    """Hits per block, then pair hits, over ``trials`` layouts drawn for ``demands``.

    Each sample draws a uniform side set from the other indices and runs
    ``build_layout``; its layout joins ``layouts``.
    """
    demands = tuple(sorted(demands))
    wanted, pair = frozenset(demands), demands[:2]
    complement = [i for i in range(1, params.k + 1) if i not in wanted]
    counts = [0] * (compute_plan(params).l_star + 1)
    for _ in range(trials):
        spec = DemandSpec(demands, frozenset(rng.sample(complement, params.m)))
        # A query is its ordered supports; the block shapes fix the rest.
        subspaces = build_layout(params, spec, rng).subspaces
        layouts.add(subspaces)
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
