"""Exact privacy verification for the randomized partition scheme.

The server observes the query, which is determined by the ordered layout
(subspace blocks in transmitted order; coefficients are a deterministic
function of block shape).  Privacy therefore means: the posterior over
demand sets given the layout equals the uniform prior 1 / C(k, n),
exactly.  Everything here is computed in rational arithmetic so equality
can be asserted with zero tolerance.

The layout law.  ``scheme.draw_layout`` places the demands w by capacity,
draws side quotas from s into the blocks holding demands, and shuffles the
rest in.  With d_u = |w ∩ block u|, D the blocks with d_u > 0, c_u = size_u -
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
``monte_carlo_tvd`` draws from ``scheme.draw_layout`` against one plan
and tests the samples against two marginals of this law:
block u is a uniform size_u-subset of 1..k, so a fixed index lies in it
with probability size_u / k, and two fixed indices share a block with probability sum_u size_u (size_u - 1) / (k (k - 1)).

The independent checks live in the tests (``tests/oracles.py``): the
product itself as an exact ``layout_probability``, and the law of the
shipped sampler, found by driving ``scheme.draw_layout`` with a scripted
generator once per sequence of draws.  The tests hold the two equal, and
sum the product over every (demand set, side set) pair to check
``posterior``'s table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, inf, sqrt
from statistics import NormalDist
from typing import Sequence

from .rate import ProblemParams, RatePlan, UsageError, compute_plan, require_admissible
from .scheme import DemandSpec, Layout, draw_layout

ALPHA = 1e-6  # monte_carlo_tvd's chance of refusing an honest sampler
MIN_EXPECTED = 5  # expected hits, and misses, that each varying cell needs


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
    plan = compute_plan(params)
    if layout.plan != plan:
        raise ValueError("layout was built for a different plan")
    require_admissible(params, plan)
    prior = Fraction(1, comb(params.k, params.n))
    return PosteriorReport(
        probabilities=dict.fromkeys(combinations(range(1, params.k + 1), params.n), prior),
        prior=prior,
        max_deviation=Fraction(0),
        uniform=True,
    )


# No longer a total-variation distance.  perfbench never names this class; its
# privacy-mc replay reads monte_carlo_tvd's ``trials`` and ``distinct_queries``.
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


def _sample_counts(params, plan: RatePlan, demands, trials, rng, layouts: set) -> list[int]:
    """Hits per block, then pair hits, over ``trials`` layouts drawn for ``demands``.

    ``demands`` are valid and ascending.  Each sample draws a uniform side
    set from the other indices and runs ``draw_layout``; its layout's hash
    joins ``layouts``.
    """
    wanted, pair = frozenset(demands), demands[:2]
    complement = [i for i in range(1, params.k + 1) if i not in wanted]
    counts = [0] * (plan.l_star + 1)
    for _ in range(trials):
        # A query is its ordered supports; the block shapes fix the rest.
        subspaces = draw_layout(plan, demands, rng.sample(complement, params.m), rng).subspaces
        layouts.add(hash(subspaces))
        for u, block in enumerate(subspaces):
            hits = wanted.intersection(block)
            counts[u] += len(hits)
            counts[-1] += hits.issuperset(pair)
    return counts


# No longer a total-variation distance; perfbench's traced privacy-mc replay needs this name.
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
    no variance (a single-block plan) must equal its mean.  The plan is
    computed, and both demand sets validated, once; every trial then calls
    ``scheme.draw_layout`` directly.  Raises ``rate.UsageError`` for an
    invalid demand set, or for fewer trials than give every varying cell
    ``MIN_EXPECTED`` expected hits and misses (decided from the distinct
    block sizes before any sampling), and a plain ValueError for a plan
    that cannot serve every demand set.
    """
    if trials < 1:
        raise UsageError("trials must be positive")
    demand_sets = []
    for demands in (demands_a, demands_b):
        # The demands alone must fit; the side sets drawn for them always do.
        spec = DemandSpec(tuple(demands), frozenset())
        spec.validate_against(replace(params, m=0))
        demand_sets.append(spec.demands)
    k, n = params.k, params.n
    plan = compute_plan(params)
    sizes = plan.size_profile
    # Per cell and trial: outcomes, hit probability, variance factor (the
    # hypergeometric one for blocks; at k = 1 the block has no variance).
    # Blocks of one size share a law, and a plan has at most three sizes.
    factor = Fraction(k - n, k - 1) if k > 1 else Fraction(0)
    by_size = {size: (n, Fraction(size, k), factor) for size in set(sizes)}
    pair = []
    if n >= 2:
        pair.append((1, Fraction(sum(s * (s - 1) for s in sizes), k * (k - 1)), Fraction(1)))
    rarest = [draws * min(p, 1 - p) for draws, p, _ in [*by_size.values(), *pair] if 0 < p < 1]
    needed = max((ceil(MIN_EXPECTED / rate) for rate in rarest), default=1)
    if trials < needed:
        raise UsageError(
            f"{trials} trials leave a cell expecting fewer than {MIN_EXPECTED} "
            f"hits or misses; use at least {needed}"
        )
    require_admissible(params, plan)
    laws = [by_size[size] for size in sizes] + pair
    layouts: set = set()
    max_z = 0.0
    for demands in demand_sets:
        counts = _sample_counts(params, plan, demands, trials, rng, layouts)
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
