"""Exact privacy verification for the randomized partition scheme.

The server observes the query, which is determined by the ordered layout
(subspace blocks in transmitted order; coefficients are a deterministic
function of block shape).  Privacy therefore means: the posterior over
demand sets given the layout equals the uniform prior 1 / C(k, n),
exactly.  Everything here is computed in rational arithmetic so equality
can be asserted with zero tolerance.

The probability that the construction emits a fixed layout, given demands
``w`` and side information ``s``, factors into three pieces mirroring the
drawing stages:

* demand placement: walking w in ascending order, the j-th index lands in
  its block with probability (block size - demands already there) /
  (k - j + 1);
* side-information draws: a demand-bearing block with quota q must have
  drawn q of the |s ∩ block| side indices it ends up containing, out of
  the side indices still undrawn, giving C(|s ∩ block|, q) / C(remaining, q)
  (zero if the block holds fewer than q side indices);
* fill: the leftover indices are shuffled uniformly into the remaining
  slots, so a given arrangement has probability (prod of e_i!) / E!, where
  e_i counts block i's slots left open after the first two stages and
  E = sum e_i.

``enumerate_randomness`` recomputes the same distribution by walking every
branch of the drawing procedure, which is the independent cross-check used
by the tests.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from statistics import fmean, pstdev
from typing import Collection, Iterable, Iterator, Sequence

from .rate import ProblemParams, RatePlan, compute_plan
from .scheme import DemandSpec, Layout, build_layout

DEFAULT_BRANCH_CAP = 1_000_000


def _valid_spec(params: ProblemParams, demands: Iterable[int], side: Iterable[int]) -> DemandSpec:
    spec = DemandSpec(tuple(demands), frozenset(side))
    spec.validate_against(params)
    return spec


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
    spec = _valid_spec(params, demands, side)
    return _probability(layout, _check_layout(layout, params), spec.demands, spec.side, params)


def _probability(
    layout: Layout,
    plan: RatePlan,
    demands: Sequence[int],
    side: Collection[int],
    params: ProblemParams,
) -> Fraction:
    """``layout_probability`` for valid inputs: ``demands`` ascending, layout on ``plan``."""
    if plan.l_star == 1:
        return Fraction(1)

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
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> dict[Layout, Fraction]:
    """Walk every branch of the drawing procedure; exact layout distribution.

    Expands demand placements, side-information draws, and fills one branch
    at a time with their exact probabilities, summing per resulting layout.
    Raises if the branch count exceeds ``branch_cap`` (meant for k <= 7).
    """
    spec = _valid_spec(params, demands, side)
    plan = compute_plan(params)
    k = params.k
    if plan.l_star == 1:
        only = Layout((tuple(range(1, k + 1)),), plan)
        return {only: Fraction(1)}

    count = plan.l_star
    dist: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    leaves = 0
    ordered_demands = spec.demands

    def place_demands(j: int, blocks, demand_count, prob: Fraction):
        if j == len(ordered_demands):
            draw_side(0, blocks, demand_count, sorted(spec.side), prob)
            return
        idx = ordered_demands[j]
        denom = k - j  # k - (j + 1) + 1 placements remain possible
        for u in range(count):
            cap = plan.size_profile[u] - demand_count[u]
            if cap <= 0:
                continue
            new_blocks = list(blocks)
            new_blocks[u] = blocks[u] + (idx,)
            new_counts = list(demand_count)
            new_counts[u] += 1
            place_demands(j + 1, new_blocks, new_counts, prob * Fraction(cap, denom))

    def draw_side(i: int, blocks, demand_count, pool, prob: Fraction):
        if i == count:
            fill(0, blocks, demand_count, None, prob)
            return
        if demand_count[i] == 0:
            draw_side(i + 1, blocks, demand_count, pool, prob)
            return
        quota = plan.side_profile[i]
        total = comb(len(pool), quota)
        for chosen in combinations(pool, quota):
            rest = [x for x in pool if x not in set(chosen)]
            new_blocks = list(blocks)
            new_blocks[i] = blocks[i] + chosen
            draw_side(i + 1, new_blocks, demand_count, rest, prob * Fraction(1, total))

    def fill(i: int, blocks, demand_count, remaining, prob: Fraction):
        nonlocal leaves
        if remaining is None:
            placed = {idx for block in blocks for idx in block}
            remaining = tuple(idx for idx in range(1, k + 1) if idx not in placed)
        if i == count:
            leaves += 1
            if leaves > branch_cap:
                raise ValueError(f"branch cap {branch_cap} exceeded; instance too large")
            key = tuple(tuple(sorted(block)) for block in blocks)
            dist[key] = dist.get(key, Fraction(0)) + prob
            return
        need = plan.size_profile[i] - len(blocks[i])
        total = comb(len(remaining), need)
        for chosen in combinations(remaining, need):
            rest = tuple(x for x in remaining if x not in set(chosen))
            new_blocks = list(blocks)
            new_blocks[i] = blocks[i] + chosen
            fill(i + 1, new_blocks, demand_count, rest, prob * Fraction(1, total))

    place_demands(0, [()] * count, [0] * count, Fraction(1))
    return {Layout(key, plan): p for key, p in dist.items()}


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

    Demands and side information are taken uniform a priori; both priors
    are constant, so the posterior is the per-demand-set sum of layout
    probabilities over all compatible side sets, normalised.  Raises if the
    layout is unreachable (zero total probability).
    """
    k, m, n = params.k, params.m, params.n
    plan = _check_layout(layout, params)
    weights: dict[tuple[int, ...], Fraction] = {}
    # Every (w, s) pair below is valid by construction, so the layout is
    # the only input checked.
    for w in combinations(range(1, k + 1), n):
        rest = [i for i in range(1, k + 1) if i not in set(w)]
        total = Fraction(0)
        for s in combinations(rest, m):
            total += _probability(layout, plan, w, s, params)
        weights[w] = total
    norm = sum(weights.values())
    if norm == 0:
        raise ValueError("layout unreachable: zero probability under every demand set")
    probabilities = {w: v / norm for w, v in weights.items()}
    prior = Fraction(1, comb(k, n))
    max_dev = max(abs(p - prior) for p in probabilities.values())
    return PosteriorReport(
        probabilities=probabilities,
        prior=prior,
        max_deviation=max_dev,
        uniform=(max_dev == 0),
    )


@dataclass(frozen=True)
class TvdReport:
    """Empirical distance between the query distributions of two demand sets.

    ``tvd`` is the exact total-variation distance between the two empirical
    layout distributions.  Because two finite samples from the *same* law
    rarely coincide, the observed value is compared against a permutation
    null band: ``null_mean`` and ``null_std`` describe the TVD obtained by
    re-splitting the pooled samples at random, and ``consistent`` reports
    whether the observation sits within three standard deviations of that
    band, i.e. is statistically indistinguishable from perfect privacy.
    """

    tvd: Fraction
    trials: int
    distinct_queries: int
    null_mean: float
    null_std: float
    consistent: bool


def _sample_query_key(params: ProblemParams, demands: Sequence[int], rng: random.Random):
    complement = [i for i in range(1, params.k + 1) if i not in set(demands)]
    # Only too many demands leave fewer than m candidates; build_layout then
    # rejects the spec by its demand count.
    side = rng.sample(complement, min(params.m, len(complement)))
    spec = DemandSpec(tuple(demands), frozenset(side))
    # The query's observable content is exactly the ordered supports; the
    # coefficient matrices are determined by the block shapes.
    return build_layout(params, spec, rng).subspaces


def _empirical_tvd(counts_a: Counter, counts_b: Counter, trials: int) -> Fraction:
    keys = set(counts_a) | set(counts_b)
    diff = sum(abs(counts_a.get(q, 0) - counts_b.get(q, 0)) for q in keys)
    return Fraction(diff, 2 * trials)


def monte_carlo_tvd(
    params: ProblemParams,
    demands_a: Sequence[int],
    demands_b: Sequence[int],
    trials: int,
    rng: random.Random,
    null_rounds: int = 20,
) -> TvdReport:
    """Sample queries for two demand sets and compare their distributions.

    Side information is drawn uniformly per trial.  Every sample goes
    through ``build_layout``, which validates its demand and side sets.
    Meant for instances too large for exact enumeration; see
    :class:`TvdReport` for how to read the result.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    keys_a = [_sample_query_key(params, demands_a, rng) for _ in range(trials)]
    keys_b = [_sample_query_key(params, demands_b, rng) for _ in range(trials)]
    observed = _empirical_tvd(Counter(keys_a), Counter(keys_b), trials)

    pooled = keys_a + keys_b
    null_values = []
    for _ in range(null_rounds):
        rng.shuffle(pooled)
        null_values.append(
            float(_empirical_tvd(Counter(pooled[:trials]), Counter(pooled[trials:]), trials))
        )
    null_mean = fmean(null_values) if null_values else 0.0
    null_std = pstdev(null_values) if len(null_values) > 1 else 0.0
    consistent = float(observed) <= null_mean + 3.0 * null_std + 1e-12
    return TvdReport(
        tvd=observed,
        trials=trials,
        distinct_queries=len(set(pooled)),
        null_mean=null_mean,
        null_std=null_std,
        consistent=consistent,
    )
