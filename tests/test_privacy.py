"""Exact privacy law: closed form vs enumeration, posteriors, sampling check."""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, factorial, perm, prod, sqrt
from statistics import NormalDist

import pytest

from pirsi import (
    DemandSpec,
    Layout,
    ProblemParams,
    build_layout,
    compute_plan,
    monte_carlo_tvd,
    posterior,
)
import oracles
from conftest import demand_one_dropping_draw_layout, leaky_draw_layout
from oracles import _probability, enumerate_randomness, iter_layouts, layout_probability
from pirsi.oracle import is_feasible_plan
from pirsi.rate import RatePlan, UsageError, admits_every_demand_set
from pirsi.scheme import draw_layout


def demand_set_weights(layout, params):
    """Each demand set's layout probability summed over every side set.

    The module docstring's derivation says every weight is either 0 or
    prod(size_u!) / (falling(k, n) m! (k - n - m)!); this checks that too.
    ``layout.plan`` may be any plan.
    """
    k, m, n = params.k, params.m, params.n
    weights = {}
    for w in combinations(range(1, k + 1), n):
        rest = [i for i in range(1, k + 1) if i not in w]
        weights[w] = sum(
            (_probability(layout, layout.plan, w, s, params) for s in combinations(rest, m)),
            Fraction(0),
        )
    common = Fraction(
        prod(factorial(size) for size in layout.plan.size_profile),
        perm(k, n) * factorial(m) * factorial(k - n - m),
    )
    assert set(weights.values()) <= {Fraction(0), common}
    return weights


def posterior_by_enumeration(layout, params):
    """The posterior the slow way: every (demand set, side set) pair's layout probability."""
    weights = demand_set_weights(layout, params)
    norm = sum(weights.values())
    return {w: v / norm for w, v in weights.items()}


def assert_posterior_matches_enumeration(layout, params):
    """``posterior`` == enumeration per demand set, for a plan that hides every set.

    ``posterior`` reads the plan from ``pirsi.privacy.compute_plan``, so a
    hand-made ``layout.plan`` needs that patched to return it.
    """
    report = posterior(layout, params)
    enumerated = posterior_by_enumeration(layout, params)
    assert len(enumerated) == comb(params.k, params.n)
    assert all(p == report.prior for p in enumerated.values())
    assert report.params == params
    assert report.uniform
    return report


def random_layout(plan, rng):
    """A uniformly drawn ordered partition of 1..k with the plan's block sizes."""
    indices = list(range(1, sum(plan.size_profile) + 1))
    rng.shuffle(indices)
    blocks, start = [], 0
    for size in plan.size_profile:
        blocks.append(tuple(sorted(indices[start:start + size])))
        start += size
    return Layout(tuple(blocks), plan)


def skewed_plan(sizes, side):
    """A plan with hand-picked profiles, not the closed-form optimum."""
    return RatePlan(m_bar=0, t=0, size_profile=sizes, side_profile=side, trivial=False)


def test_pinned_layout_probability():
    params = ProblemParams(k=5, m=1, n=1)
    layout = Layout(((1, 2), (3, 4), (5,)), compute_plan(params))
    assert layout_probability(layout, (1,), (2,), params) == Fraction(2, 15)


def test_probability_zero_when_quota_unmet():
    params = ProblemParams(k=5, m=1, n=1)
    layout = Layout(((1, 2), (3, 4), (5,)), compute_plan(params))
    # Demand 1 sits in a block with quota 1 but the side index is elsewhere.
    assert layout_probability(layout, (1,), (3,), params) == 0


def test_trivial_plan_has_one_certain_layout():
    params = ProblemParams(k=5, m=3, n=2)
    layout = Layout(((1, 2, 3, 4, 5),), compute_plan(params))
    assert layout_probability(layout, (1, 4), (2, 3, 5), params) == 1
    dist = enumerate_randomness(params, (1, 4), (2, 3, 5))
    assert dist == {layout: Fraction(1)}


def test_layout_probability_validates_inputs():
    params = ProblemParams(k=5, m=1, n=1)
    layout = Layout(((1, 2), (3, 4), (5,)), compute_plan(params))
    with pytest.raises(UsageError, match="expected 1 demands"):
        layout_probability(layout, (1, 2), (3,), params)
    with pytest.raises(UsageError, match="overlap"):
        layout_probability(layout, (1,), (1,), params)
    other = ProblemParams(k=5, m=2, n=1)
    wrong_plan_layout = Layout(((1, 2, 3), (4, 5)), compute_plan(other))
    with pytest.raises(ValueError, match="different plan"):
        layout_probability(wrong_plan_layout, (1,), (2,), params)


def test_enumeration_matches_closed_form_small_instances():
    rng = random.Random(8)
    for k in range(1, 6):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
                rest = [i for i in range(1, k + 1) if i not in demands]
                side = tuple(sorted(rng.sample(rest, m)))
                dist = enumerate_randomness(params, demands, side)
                assert sum(dist.values()) == 1
                for layout, prob in dist.items():
                    assert layout_probability(layout, demands, side, params) == prob


def test_enumeration_matches_closed_form_medium_instance():
    params = ProblemParams(k=6, m=2, n=2)
    demands, side = (2, 6), (1, 4)
    dist = enumerate_randomness(params, demands, side)
    assert sum(dist.values()) == 1
    for layout, prob in dist.items():
        assert layout_probability(layout, demands, side, params) == prob
    # Unreachable layouts really are assigned zero by the closed form.
    for layout in iter_layouts(params):
        if layout not in dist:
            assert layout_probability(layout, demands, side, params) == 0


def test_branch_cap_guards_enumeration(monkeypatch):
    # (6, 0, 1) expands to 720 leaves, far beyond a cap of 10.
    monkeypatch.setattr(oracles, "BRANCH_CAP", 10)
    with pytest.raises(ValueError, match="branch cap 10 exceeded"):
        enumerate_randomness(ProblemParams(k=6, m=0, n=1), (1,), ())


def test_enumeration_rejects_leaky_sampler(monkeypatch):
    # Criterion 7's instances: the law walked over a sampler that leaks the
    # demands must differ from the closed form wherever the plan partitions.
    monkeypatch.setattr(oracles, "draw_layout", leaky_draw_layout)
    rng = random.Random(5)
    instances = [
        ProblemParams(k=k, m=m, n=n)
        for k in range(1, 7) for n in range(1, k + 1) for m in range(0, k - n + 1)
    ] + [ProblemParams(k=7, m=3, n=1)]
    partitioned = 0
    for params in instances:
        if compute_plan(params).l_star == 1:
            continue
        k, m, n = params.k, params.m, params.n
        demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
        side = tuple(rng.sample([i for i in range(1, k + 1) if i not in demands], m))
        dist = enumerate_randomness(params, demands, side)
        assert sum(dist.values()) == 1
        assert any(
            layout_probability(layout, demands, side, params) != prob
            for layout, prob in dist.items()
        ), (k, m, n, demands, side)
        partitioned += 1
    assert partitioned == 19


def test_enumeration_refuses_unscripted_draws(monkeypatch):
    # A draw the walker does not script has no method on its generator, so
    # the enumeration fails instead of returning a law that ignores it.
    def sampler(plan, demands, side, rng):
        rng.random()
        return draw_layout(plan, demands, side, rng)

    monkeypatch.setattr(oracles, "draw_layout", sampler)
    with pytest.raises(AttributeError, match="random"):
        enumerate_randomness(ProblemParams(k=5, m=1, n=1), (1,), (2,))


@pytest.mark.parametrize("kmn, sizes, side", [
    ((7, 2, 1), (3, 2, 2), (1, 1, 1)),
    ((8, 3, 2), (5, 3), (3, 0)),
    ((8, 4, 2), (4, 4), (2, 2)),
    ((9, 3, 1), (5, 4), (3, 3)),
])
def test_enumeration_matches_product_on_hand_made_plans(monkeypatch, kmn, sizes, side):
    # Criterion 7 sees only closed-form plans.  These pass the oracle's plan
    # check but are not the closed form's, so the sampler runs on other
    # profiles and the product must still be its law.
    params = ProblemParams(*kmn)
    plan = skewed_plan(sizes, side)
    assert is_feasible_plan(params, sizes, side) and plan != compute_plan(params)
    monkeypatch.setattr(oracles, "compute_plan", lambda _: plan)
    rng = random.Random(f"hand-made {kmn} {sizes} {side}")
    demands = tuple(sorted(rng.sample(range(1, params.k + 1), params.n)))
    rest = [i for i in range(1, params.k + 1) if i not in demands]
    spec_side = frozenset(rng.sample(rest, params.m))
    dist = enumerate_randomness(params, demands, spec_side)
    assert sum(dist.values()) == 1
    for layout, prob in dist.items():
        assert layout.plan == plan
        assert _probability(layout, plan, demands, spec_side, params) == prob
    assert len(set(dist.values())) > 1  # the per-block correction is not always 1


def test_probabilities_cover_every_layout_exactly_once():
    # Summing the closed form over all shape-compatible layouts gives 1.
    params = ProblemParams(k=6, m=1, n=2)
    demands, side = (3, 5), (2,)
    total = sum(
        layout_probability(layout, demands, side, params)
        for layout in iter_layouts(params)
    )
    assert total == 1


def test_demand_placement_order_invariance():
    # The shipped sampler places demands in ascending order; the closed-form
    # law is an order-free product.  Enumerating every draw of the sampler
    # must give that law on every layout the sampler reaches.
    params = ProblemParams(k=7, m=1, n=2)
    checked = 0
    for demands in [(1, 2), (2, 6), (6, 7), (1, 7), (3, 5)]:
        side = (min(set(range(1, 8)) - set(demands)),)
        dist = enumerate_randomness(params, demands, side)
        assert sum(dist.values()) == 1
        for layout, prob in dist.items():
            assert prob == layout_probability(layout, demands, side, params), (
                demands, layout.subspaces,
            )
        checked += len(dist)
    assert checked == 570


def test_posterior_uniform_on_pinned_instances():
    for (k, m, n) in [(5, 1, 1), (6, 2, 1)]:
        params = ProblemParams(k=k, m=m, n=n)
        for layout in iter_layouts(params):
            report = assert_posterior_matches_enumeration(layout, params)
            assert report.prior == Fraction(1, comb(k, n)), (k, m, n, layout.subspaces)


@pytest.mark.parametrize(
    "kmn, layouts",
    [((5, 1, 1), 30), ((6, 2, 1), 20), ((7, 3, 1), 35), ((7, 2, 2), 140),
     ((8, 3, 2), 280), ((6, 0, 1), 720), ((5, 0, 2), 30)],
)
def test_posterior_matches_enumeration_on_every_small_layout(kmn, layouts):
    params = ProblemParams(*kmn)
    seen = 0
    for layout in iter_layouts(params):
        assert_posterior_matches_enumeration(layout, params)
        seen += 1
    assert seen == layouts


def test_posterior_matches_enumeration_on_seeded_worked_layouts(worked_params):
    for seed in (1, 2):
        rng = random.Random(seed)
        demands = tuple(sorted(rng.sample(range(1, 14), 2)))
        side = frozenset(rng.sample([i for i in range(1, 14) if i not in demands], 5))
        layout = build_layout(worked_params, DemandSpec(demands, side), rng)
        assert_posterior_matches_enumeration(layout, worked_params)


@pytest.mark.parametrize(
    "kmn, sizes, side, layouts, uniform",
    [
        # A demand pair in the middle block leaves 2 slots for a quota of 3.
        ((13, 5, 2), (5, 4, 4), (2, 3, 2), 1, False),
        # A demand in the last block leaves 1 slot for a quota of 2.
        ((9, 3, 1), (4, 3, 2), (2, 1, 2), 40, False),
        # Demands in both blocks need 2 + 2 side indices, but m = 3.
        ((8, 3, 2), (4, 4), (2, 2), 20, False),
        # Skewed, yet every block keeps room for its quota: still uniform.
        ((9, 3, 1), (4, 3, 2), (2, 1, 0), 20, True),
    ],
)
def test_posterior_matches_enumeration_on_skewed_plans(
    monkeypatch, kmn, sizes, side, layouts, uniform
):
    # Hand-made plans let some demand sets fail to produce the layout.  Then
    # the enumerated posterior is not uniform and ``posterior`` must refuse
    # the plan; otherwise its table must equal the enumeration.
    params = ProblemParams(*kmn)
    plan = skewed_plan(sizes, side)
    monkeypatch.setattr("pirsi.privacy.compute_plan", lambda _: plan)
    assert admits_every_demand_set(params, sizes, side) is uniform
    rng = random.Random(f"skewed {kmn} {sizes} {side}")
    for _ in range(layouts):
        layout = random_layout(plan, rng)
        if uniform:
            assert_posterior_matches_enumeration(layout, params)
            continue
        with pytest.raises(ValueError, match="cannot hide every demand set"):
            posterior(layout, params)
        weights = demand_set_weights(layout, params)
        assert Fraction(0) in weights.values() and len(set(weights.values())) == 2


def test_posterior_unreachable_layout_raises(monkeypatch):
    # Every demand set needs 2 side indices in its block, but m = 1.
    params = ProblemParams(k=4, m=1, n=1)
    plan = skewed_plan((3, 1), (2, 2))
    layout = Layout(((1, 2, 3), (4,)), plan)
    monkeypatch.setattr("pirsi.privacy.compute_plan", lambda _: plan)
    assert set(demand_set_weights(layout, params).values()) == {0}
    refusal = r"sizes \(3, 1\) and quotas \(2, 2\) cannot hide every demand set at m=1, n=1"
    with pytest.raises(ValueError, match=refusal):
        posterior(layout, params)


def compositions(total):
    """Every ordered tuple of positive parts summing to ``total``."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_plan_predicate_matches_enumeration_exhaustively():
    # Every composition of k <= 5 into block sizes, every quota vector with
    # quotas in 0..size (unsorted and over the cap included) and every
    # (m, n): the predicate holds iff the enumerated weights of one layout
    # are equal and nonzero.  5,187 cases, about 1 s.
    cases, disagreements = 0, []
    for k in range(1, 6):
        for sizes in compositions(k):
            blocks, start = [], 1
            for size in sizes:
                blocks.append(tuple(range(start, start + size)))
                start += size
            for quotas in product(*(range(size + 1) for size in sizes)):
                layout = Layout(tuple(blocks), skewed_plan(sizes, quotas))
                for n in range(1, k + 1):
                    for m in range(0, k - n + 1):
                        params = ProblemParams(k=k, m=m, n=n)
                        weights = set(demand_set_weights(layout, params).values())
                        hides = len(weights) == 1 and 0 not in weights
                        if admits_every_demand_set(params, sizes, quotas) != hides:
                            disagreements.append((k, m, n, sizes, quotas))
                        cases += 1
    assert cases == 5187
    assert not disagreements, (len(disagreements), disagreements[:5])


def test_every_closed_form_plan_hides_every_demand_set():
    # All 88,560 instances with k <= 80, about 1 s.
    instances = 0
    for k in range(1, 81):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                profiles = plan.size_profile, plan.side_profile
                assert admits_every_demand_set(params, *profiles), (k, m, n)
                instances += 1
    assert instances == 88560


def test_posterior_uniform_sweep():
    # One seeded layout of every (k, m, n) with k <= 40 and C(k, n) <= 2000:
    # 2,304 instances and 761,494 demand sets, about 0.4 s; budget 20 s.
    started = time.perf_counter()
    instances = 0
    for k in range(1, 41):
        for n in range(1, k + 1):
            if comb(k, n) > 2000:
                continue
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                rng = random.Random(f"sweep {k} {m} {n}")
                demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
                side = frozenset(rng.sample([i for i in range(1, k + 1) if i not in demands], m))
                layout = build_layout(params, DemandSpec(demands, side), rng)
                report = posterior(layout, params)
                assert report.uniform, (k, m, n, layout.subspaces)
                assert report.prior == Fraction(1, comb(k, n))
                instances += 1
    assert instances == 2304
    assert time.perf_counter() - started < 20.0


def test_posterior_on_worked_layout(worked_layout, worked_params):
    report = assert_posterior_matches_enumeration(worked_layout, worked_params)
    assert report.prior == Fraction(1, 78)


def test_posterior_rejects_foreign_layout(worked_params):
    # A layout valid for (13, 3, 2) whose plan differs from (13, 5, 2).
    other = compute_plan(ProblemParams(k=13, m=3, n=2))
    assert other.size_profile == (4, 3, 3, 3)
    foreign = Layout(
        ((1, 2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13)), other
    )
    with pytest.raises(ValueError, match="different plan"):
        posterior(foreign, worked_params)


def test_posterior_certifies_past_the_printed_tables_caps():
    # The caps bound the table privacy-exact prints, not the certificate:
    # C(20, 10) = 184,756 demand sets, and C(10^5, 10), about 2.75 * 10^43,
    # each get the exact prior, with no table built.
    for (k, m, n), prior in (
        ((20, 0, 10), Fraction(1, 184_756)),
        ((100_000, 20_000, 10), Fraction(1, 27_544_920_827_561_470_257_469_913_571_105_409_574_990_000)),
    ):
        params = ProblemParams(k, m, n)
        spec = DemandSpec(tuple(range(1, n + 1)), frozenset(range(n + 1, n + m + 1)))
        layout = build_layout(params, spec, random.Random(0))
        assert posterior(layout, params) == (params, prior, True), (k, m, n)


def placing_sampler(place):
    """A sampler that puts each demand, in ascending order, in the block ``place`` picks.

    ``place(plan, members, rng)`` sees the blocks filled so far and returns
    one with room.  The other indices then fill the free slots in ascending
    order.  The Monte-Carlo cells read only the blocks the demands land in,
    so this fixed fill leaves their law unchanged and keeps large k cheap.
    """

    def sampler(plan, demands, side, rng):
        members = [[] for _ in plan.size_profile]
        for idx in demands:
            members[place(plan, members, rng)].append(idx)
        wanted = set(demands)
        rest = (i for i in range(1, sum(plan.size_profile) + 1) if i not in wanted)
        for block, size in zip(members, plan.size_profile):
            block.extend(islice(rest, size - len(block)))
        return Layout(tuple(tuple(sorted(block)) for block in members), plan)

    return sampler


def by_capacity(plan, members, rng):
    """The shipped rule: block u with probability proportional to its free room."""
    free = [size - len(block) for size, block in zip(plan.size_profile, members)]
    return rng.choices(range(len(free)), weights=free)[0]


def uniform_over_blocks(plan, members, rng):
    """Leaky: every block with room is equally likely, whatever its size."""
    return rng.choice([u for u, size in enumerate(plan.size_profile) if len(members[u]) < size])


def block_zero(plan, members, rng):
    """Leaky: every demand in the first block."""
    return 0


def all_together(plan, members, rng):
    """Leaky in co-location only: the first demand by capacity, the rest beside it.

    Each demand alone still lands in block u with probability size_u / k.
    """
    filled = [u for u, block in enumerate(members) if block]
    return filled[0] if filled else by_capacity(plan, members, rng)


def apart(plan, members, rng):
    """Leaky by a deficit only: by capacity, redrawn while the second demand would join the first.

    The two smallest demands never share a block, so the pair cell falls
    short of its mean; no cell runs over it.
    """
    while True:
        u = by_capacity(plan, members, rng)
        if sum(map(len, members)) != 1 or not members[u]:
            return u


def far_demand_sets(params):
    n = params.n
    return tuple(range(1, n + 1)), tuple(range(params.k - n + 1, params.k + 1))


@pytest.mark.parametrize("kmn, trials, seeds", [
    ((13, 5, 2), 200, 20),
    ((7, 3, 1), 200, 10),
    ((30, 10, 2), 200, 5),
    ((20, 6, 3), 200, 5),
    ((1000, 300, 5), 80, 1),
])
def test_monte_carlo_passes_honest_sampler(kmn, trials, seeds):
    params = ProblemParams(*kmn)
    cells = 2 * (compute_plan(params).l_star + (params.n >= 2))
    for seed in range(seeds):
        report = monte_carlo_tvd(params, *far_demand_sets(params), trials, random.Random(seed))
        assert report.consistent, (seed, report)
        assert report.cells == cells and report.trials == trials
        assert 0 < report.max_z <= report.threshold


def test_monte_carlo_passes_capacity_placement_with_fixed_fill(monkeypatch):
    # The test samplers' fixed fill is invisible to the cells: with the
    # shipped placement rule it passes, so refusals below are the leaks'.
    monkeypatch.setattr("pirsi.scheme.draw_layout", placing_sampler(by_capacity))
    for kmn, trials in (((13, 5, 2), 2000), ((30, 10, 2), 200), ((1000, 300, 5), 300)):
        params = ProblemParams(*kmn)
        report = monte_carlo_tvd(params, *far_demand_sets(params), trials, random.Random(0))
        assert report.consistent, (kmn, report)


@pytest.mark.parametrize("place, kmn, trials", [
    (block_zero, (13, 5, 2), 200),
    (block_zero, (30, 10, 2), 200),
    (block_zero, (1000, 300, 5), 80),
    (block_zero, (5000, 1000, 10), 231),
    # Block sizes differ at each of these, so uniform over blocks is a leak.
    (uniform_over_blocks, (13, 5, 2), 4000),
    (uniform_over_blocks, (30, 10, 2), 200),
    (uniform_over_blocks, (1000, 300, 5), 300),
    (uniform_over_blocks, (5000, 1000, 10), 400),
    (all_together, (13, 5, 2), 200),
    (all_together, (1000, 300, 5), 80),
    # max |z| 39.6, all of it below a mean: refused only through |z|.
    (apart, (13, 5, 2), 4000),
])
def test_monte_carlo_refuses_leaky_samplers(monkeypatch, place, kmn, trials):
    monkeypatch.setattr("pirsi.scheme.draw_layout", placing_sampler(place))
    params = ProblemParams(*kmn)
    report = monte_carlo_tvd(params, *far_demand_sets(params), trials, random.Random(0))
    assert not report.consistent
    assert report.max_z > report.threshold


@pytest.mark.parametrize("kmn", [(13, 5, 2), (30, 10, 2)])
def test_monte_carlo_refuses_block_zero_wrapper(monkeypatch, kmn):
    # The leaky wrapper over the real sampler that the exact enumeration
    # refuses.  A comparison of whole layouts calls it consistent at
    # (30,10,2), where 2,000 samples per set never repeat a layout.
    monkeypatch.setattr("pirsi.scheme.draw_layout", leaky_draw_layout)
    params = ProblemParams(*kmn)
    report = monte_carlo_tvd(params, *far_demand_sets(params), 2000, random.Random(0))
    assert not report.consistent


def test_monte_carlo_statistics_are_pinned(monkeypatch):
    # Counts at chosen offsets from their means stand in for the samples.
    # The threshold and each cell's z are then fixed numbers, recomputed
    # here from alpha and from the exact laws: the hypergeometric count of
    # the n demands in a block of s, and the chance that the two smallest
    # share a block, each summed over math.comb terms.
    params = ProblemParams(13, 5, 2)
    plan = compute_plan(params)
    k, n = params.k, params.n
    trials = 10 * k * (k - 1)  # every mean below is then an integer

    def block_law(s):
        chance = {x: Fraction(comb(s, x) * comb(k - s, n - x), comb(k, n)) for x in range(n + 1)}
        mean = sum(x * q for x, q in chance.items())
        return mean, sum((x - mean) ** 2 * q for x, q in chance.items())

    together = Fraction(sum(comb(s, 2) for s in plan.size_profile), comb(k, 2))
    laws = [block_law(s) for s in plan.size_profile] + [(together, together * (1 - together))]
    means = [trials * mean for mean, _ in laws]
    assert all(mean.denominator == 1 for mean in means)
    cells = 2 * (plan.l_star + 1)
    threshold = NormalDist().inv_cdf(1 - 1e-6 / (2 * cells))
    verdicts = set()
    for cell, (_, variance) in enumerate(laws):
        for offset in (-160, 30):
            counts = [int(mean) for mean in means]
            counts[cell] += offset
            monkeypatch.setattr("pirsi.privacy._sample_counts", lambda *_: counts)
            report = monte_carlo_tvd(params, (1, 2), (12, 13), trials, random.Random(0))
            assert report.cells == cells
            assert report.threshold == threshold
            assert report.max_z == pytest.approx(abs(offset) / sqrt(trials * variance), rel=1e-12)
            assert report.consistent is (report.max_z <= threshold)
            verdicts.add(report.consistent)
    assert verdicts == {True, False}


def test_monte_carlo_samples_through_draw_layout(monkeypatch):
    # The seam the leaky samplers above are patched at is the one that
    # runs: a sampler that raises there makes the whole check raise.
    def broken(plan, demands, side, rng):
        raise RuntimeError("sampler reached")

    monkeypatch.setattr("pirsi.scheme.draw_layout", broken)
    with pytest.raises(RuntimeError, match="sampler reached"):
        monte_carlo_tvd(ProblemParams(13, 5, 2), (1, 2), (12, 13), 200, random.Random(0))
    # Neither the validating entry point nor a binding of the sampler is a
    # name privacy reads, so a patch aimed at one fails instead of leaving
    # the honest sampler in place.
    for name in ("build_layout", "draw_layout"):
        with pytest.raises(AttributeError):
            monkeypatch.setattr(f"pirsi.privacy.{name}", broken)


def test_monte_carlo_draws_against_one_plan(monkeypatch):
    # The plan is computed, and the two demand sets validated, once per
    # call, not once per trial.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in ("pirsi.privacy", "pirsi.scheme"):
        monkeypatch.setattr(f"{module}.compute_plan", counted("plan", compute_plan))
    validate = counted("validate", DemandSpec.validate_against)
    monkeypatch.setattr(DemandSpec, "validate_against", validate)
    report = monte_carlo_tvd(ProblemParams(13, 5, 2), (1, 2), (12, 13), 200, random.Random(0))
    assert report.trials == 200
    assert calls == {"plan": 1, "validate": 2}


def test_monte_carlo_refuses_a_plan_that_cannot_hide_the_demands(monkeypatch):
    # (8, 3, 2) on sizes (4, 4) and quotas (2, 2): demands in both blocks
    # need 4 side indices, so the sampler would die inside ``random``.  The
    # plan is refused once, before any draw.
    plan = skewed_plan((4, 4), (2, 2))
    monkeypatch.setattr("pirsi.privacy.compute_plan", lambda _: plan)

    def sampler(plan, demands, side, rng):
        raise AssertionError("sampled an inadmissible plan")

    monkeypatch.setattr("pirsi.scheme.draw_layout", sampler)
    refusal = r"sizes \(4, 4\) and quotas \(2, 2\) cannot hide every demand set at m=3, n=2"
    # A violated invariant, not the caller's fault: a plain ValueError.
    with pytest.raises(ValueError, match=refusal) as raised:
        monte_carlo_tvd(ProblemParams(8, 3, 2), (1, 2), (7, 8), 100, random.Random(0))
    assert not isinstance(raised.value, UsageError)


def test_monte_carlo_refuses_a_zero_variance_cell_off_its_mean(monkeypatch):
    # (10, 2, 3) is one block: each cell must equal its mean exactly.
    monkeypatch.setattr("pirsi.scheme.draw_layout", demand_one_dropping_draw_layout)
    report = monte_carlo_tvd(ProblemParams(10, 2, 3), (1, 2, 3), (4, 5, 6), 50, random.Random(1))
    assert report.consistent is False and report.max_z == float("inf")


def test_monte_carlo_identical_demands_consistent():
    params = ProblemParams(k=7, m=3, n=1)
    report = monte_carlo_tvd(params, (2,), (2,), trials=1500, rng=random.Random(1))
    assert report.consistent
    assert report.trials == 1500
    assert report.cells == 4  # two blocks per demand set, no pair cell at n = 1


def test_monte_carlo_different_demands_consistent():
    # (7,3,1) splits into blocks of 4 and 3: C(7, 4) = 35 layouts, and
    # 6,000 samples see every one.
    params = ProblemParams(k=7, m=3, n=1)
    report = monte_carlo_tvd(params, (2,), (5,), trials=3000, rng=random.Random(2))
    assert report.consistent
    assert report.distinct_queries == 35


def test_monte_carlo_memory_does_not_grow_with_layouts():
    # No layout repeats at (1000,300,5), so keeping whole layouts to count
    # the distinct ones held 160 of 1,000 indices each (a 4.2 MB peak).
    params = ProblemParams(k=1000, m=300, n=5)
    tracemalloc.start()
    try:
        report = monte_carlo_tvd(params, *far_demand_sets(params), 80, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.distinct_queries == 160
    assert peak < 1_000_000, peak


def test_monte_carlo_trivial_instance_is_exact_zero():
    # One block: every layout is 1..k, so every cell has zero variance and
    # must equal its mean exactly; any trial count is enough.
    for kmn in ((5, 3, 2), (400, 40, 20)):
        params = ProblemParams(*kmn)
        assert compute_plan(params).l_star == 1
        report = monte_carlo_tvd(params, *far_demand_sets(params), 3, random.Random(3))
        assert report.max_z == 0.0
        assert report.consistent
        assert report.distinct_queries == 1
        assert report.cells == 4


def test_monte_carlo_rejects_bad_trials():
    params = ProblemParams(k=13, m=5, n=2)
    with pytest.raises(UsageError, match="positive"):
        monte_carlo_tvd(params, (1, 2), (3, 4), trials=0, rng=random.Random(0))
    for trials in (2000.0, "2000", True):
        with pytest.raises(UsageError, match="^trials must be an int, got "):
            monte_carlo_tvd(params, (1, 2), (3, 4), trials=trials, rng=random.Random(0))
    with pytest.raises(UsageError, match="use at least 18$"):
        monte_carlo_tvd(params, (1, 2), (3, 4), trials=17, rng=random.Random(0))
    assert monte_carlo_tvd(params, (1, 2), (3, 4), trials=18, rng=random.Random(0)).trials == 18


def test_monte_carlo_refuses_a_demand_that_is_not_an_int():
    # True == 1, so a lenient check would sample demand set (1, 2).
    with pytest.raises(UsageError, match="index True is not an int"):
        monte_carlo_tvd(ProblemParams(13, 5, 2), (True, 2), (12, 13), 200, random.Random(0))
