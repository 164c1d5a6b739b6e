"""Closed-form plan: pinned instances, invariants, and specializations."""

import re

import pytest

from pirsi import ProblemParams, UsageError, compute_plan
from pirsi.rate import CODE_ENTRIES_CAP, admits_every_demand_set, quota_cap, require_code_fits
from oracles import closed_form_r_star, is_trivial_optimal


def plan_of(k, m, n):
    return compute_plan(ProblemParams(k=k, m=m, n=n))


def test_worked_example_plan():
    plan = plan_of(13, 5, 2)
    assert plan.m_bar == 2
    assert plan.t == 1
    assert plan.l_star == 3
    assert plan.size_profile == (5, 4, 4)
    assert plan.side_profile == (3, 2, 2)
    assert plan.r_star == 6
    assert plan.rows == (2, 2, 2)  # each block's r = size - quota, summing to r_star
    assert not plan.trivial


def test_pinned_plans():
    plan = plan_of(7, 3, 1)
    assert (plan.size_profile, plan.side_profile, plan.r_star) == ((4, 3), (3, 2), 2)

    plan = plan_of(20, 4, 2)
    assert plan.size_profile == (4, 4, 4, 4, 4)
    assert plan.side_profile == (2, 2, 2, 2, 2)
    assert plan.r_star == 10

    plan = plan_of(5, 1, 1)
    assert (plan.size_profile, plan.side_profile, plan.r_star) == ((2, 2, 1), (1, 1, 0), 3)


def test_multi_subspace_plan_can_still_cost_k_minus_m():
    # Here the partitioned plan exists but saves nothing over downloading
    # k - m symbols, so the trivial flag is set despite l_star > 1.
    plan = plan_of(7, 1, 2)
    assert plan.l_star == 3
    assert plan.size_profile == (3, 2, 2)
    assert plan.side_profile == (1, 0, 0)
    assert plan.r_star == 6
    assert plan.trivial


def test_single_subspace_short_circuit():
    # When the subspace-count formula stays at or below n, the plan is one
    # full-size subspace absorbing all side information.
    plan = plan_of(5, 3, 2)
    assert plan.l_star == 1
    assert plan.size_profile == (5,)
    assert plan.side_profile == (3,)
    assert plan.r_star == 2
    assert plan.trivial

    plan = plan_of(4, 0, 4)
    assert (plan.size_profile, plan.side_profile, plan.r_star) == ((4,), (0,), 4)


def test_no_side_information_downloads_everything():
    for k, n in [(13, 2), (7, 1), (9, 3), (6, 5)]:
        plan = plan_of(k, 0, n)
        assert plan.r_star == k
        assert all(q == 0 for q in plan.side_profile)
        formula_count = -(-k // n)
        if formula_count > n:
            assert plan.l_star == formula_count
        else:
            assert plan.l_star == 1


def test_single_demand_closed_form():
    # With one demand the minimum download is ceil(k / (m + 1)).
    for k in range(1, 31):
        for m in range(0, k):
            assert plan_of(k, m, 1).r_star == -(-k // (m + 1)), (k, m)


def test_params_validation():
    with pytest.raises(UsageError, match="k must be positive"):
        ProblemParams(k=0, m=0, n=1)
    with pytest.raises(UsageError, match="n must be positive"):
        ProblemParams(k=3, m=1, n=0)
    with pytest.raises(UsageError, match="m must be nonnegative"):
        ProblemParams(k=3, m=-1, n=1)
    with pytest.raises(UsageError, match="exceed"):
        ProblemParams(k=3, m=2, n=2)
    # k is capped with the other counts, and its cap is named before n.
    assert ProblemParams(1_000_000, 0, 1_000_000).k == 1_000_000
    for args in ((1_000_001, 0, 1), (1_000_001, 0, 0)):
        with pytest.raises(UsageError, match="^k must be at most 1000000, got 1000001$"):
            ProblemParams(*args)
    # A number past QUOTE_CAP digits is echoed by its first 64 digits, at
    # 640 digits (the most a CLI flag admits) and past int's digit limit.
    cut = "9" * 64 + "…"
    for big in (10**640 - 1, 10**5000 - 1):
        for args, message in (
            ((big, 0, 1), f"k must be at most 1000000, got {cut}"),
            ((-big, 0, 1), f"k must be positive, got -{cut}"),
            ((13, 0, -big), f"n must be positive, got -{cut}"),
            ((13, -big, 1), f"m must be nonnegative, got -{cut}"),
            ((13, big, big), f"demands plus side information exceed database: n={cut}, m={cut}, k=13"),
        ):
            with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
                ProblemParams(*args)
    # Exactly int: a float, a bool or a string never reaches compute_plan.
    for args, message in (
        ((13.0, 5, 2), "k must be an int, got 13.0"),
        ((True, 0, True), "k must be an int, got True"),
        ((13, 5, "2"), "n must be an int, got '2'"),
        ((13, False, 2), "m must be an int, got False"),
    ):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            ProblemParams(*args)


def test_code_cap_is_inclusive():
    # (2048, 0, 46) is one block coded with 2048 rows, r * s = 2^22: the cap
    # itself, which fits; (2049, 0, 46) is one entry-row over it.
    assert CODE_ENTRIES_CAP == 2048 * 2048
    at_cap, over = plan_of(2048, 0, 46), plan_of(2049, 0, 46)
    require_code_fits(at_cap.rows, at_cap.size_profile)
    message = f"the widest block's code has r * s = 4198401 entries, over the cap of {CODE_ENTRIES_CAP} one round may build"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        require_code_fits(over.rows, over.size_profile)
    # The rule is over block shapes, the widest of them, whoever names them.
    require_code_fits((2048, 1, 3), (2048, 2, 3))
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        require_code_fits((1, 2049, 3), (2, 2049, 3))


def test_admit_rule_keeps_n_slots_of_each_block_for_demands():
    # A block can hold n demands, so its quota cap is its size less n, and
    # 0 for a block no larger than n.
    assert [quota_cap(size, 2) for size in range(6)] == [0, 0, 0, 1, 2, 3]
    params = ProblemParams(13, 5, 2)
    assert admits_every_demand_set(params, (5, 4, 4), (3, 2, 2))
    assert admits_every_demand_set(params, (5, 4, 2, 2), (3, 2, 0, 0))
    assert not admits_every_demand_set(params, (6, 4, 3), (3, 2, 2))  # 2 > cap 3 - 2
    assert not admits_every_demand_set(params, (11, 1, 1), (4, 0, 1))  # 1 > cap 0


def test_plan_invariants_sweep():
    for k in range(1, 15):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                sizes, quotas = plan.size_profile, plan.side_profile
                assert len(sizes) == len(quotas)
                assert sum(sizes) == k
                assert list(sizes) == sorted(sizes, reverse=True)
                assert all(0 <= q <= max(s - n, 0) for s, q in zip(sizes, quotas))
                window = min(plan.l_star, n)
                assert sum(sorted(quotas, reverse=True)[:window]) <= m
                assert closed_form_r_star(params) == plan.r_star
                assert plan.r_star >= n
                assert plan.trivial == (plan.r_star == k - m)


def test_more_side_information_never_hurts():
    for k in range(1, 15):
        for n in range(1, k + 1):
            previous = None
            for m in range(0, k - n + 1):
                r = plan_of(k, m, n).r_star
                if previous is not None:
                    assert r <= previous, (k, m, n)
                previous = r


def test_is_trivial_optimal_examples():
    assert is_trivial_optimal(ProblemParams(k=10, m=3, n=4))  # demands exceed holdings
    assert not is_trivial_optimal(ProblemParams(k=13, m=5, n=2))
    # Boundary of the small-database condition: k = n*n + n + m.
    assert is_trivial_optimal(ProblemParams(k=9, m=3, n=2))
    assert not is_trivial_optimal(ProblemParams(k=10, m=3, n=2))


def closed_form_mismatches(k_max):
    """Every (k, m, n) with k <= k_max where the paper's formulas and the plan differ.

    The paper's trivial-optimality condition must equal the plan's flag, and
    its closed-form cost the plan's profile cost.  Returns the mismatches
    and the number of instances checked.
    """
    mismatches, instances = [], 0
    for k in range(1, k_max + 1):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                if (
                    is_trivial_optimal(params) != plan.trivial
                    or closed_form_r_star(params) != plan.r_star
                ):
                    mismatches.append((k, m, n))
                instances += 1
    return mismatches, instances


def test_is_trivial_optimal_matches_plan_cost():
    # k <= 14 here; ci/test_rate_k300.py runs the same loop up to k = 300.
    assert closed_form_mismatches(14) == ([], 560)
