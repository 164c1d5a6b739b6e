"""Brute-force search: pinned minima, the sweep, and the plan check."""

from itertools import product

import pytest

from pirsi import (
    ProblemParams,
    brute_force_rate,
    brute_force_sweep,
    compute_plan,
    is_feasible_plan,
    subspace_cost,
)


def _partitions(total, largest):
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def naive_feasible(parts, quotas, m, n):
    """naive_minimum's rule for one quota assignment, in any order.

    Each part p takes a quota in 0..max(p - n, 0); the budget m applies to
    the largest min(len(parts), n) quotas.  ``m=None`` drops the budget.
    """
    if any(not 0 <= q <= max(p - n, 0) for p, q in zip(parts, quotas)):
        return False
    return m is None or sum(sorted(quotas, reverse=True)[:n]) <= m


def naive_minimum(k, m, n):
    """The minimum and its winners over every quota assignment, unsorted and unpruned.

    Winners are reported with their quotas re-sorted non-increasing.
    """
    best, winners = None, set()
    for parts in _partitions(k, k):
        for quotas in product(*(range(max(p - n, 0) + 1) for p in parts)):
            if not naive_feasible(parts, quotas, m, n):
                continue
            cost = k - sum(quotas)
            if best is None or cost < best:
                best, winners = cost, set()
            if cost == best:
                winners.add((parts, tuple(sorted(quotas, reverse=True))))
    return best, winners


def test_subspace_cost_examples():
    assert subspace_cost(4, 2, 2) == 2
    assert subspace_cost(2, 0, 2) == 2  # at most the demand count: fetch whole
    assert subspace_cost(5, 3, 2) == 2
    assert subspace_cost(5, 0, 1) == 5
    assert subspace_cost(1, 0, 3) == 1


def test_subspace_cost_quota_bounds():
    with pytest.raises(ValueError, match="quota"):
        subspace_cost(4, 3, 2)  # cap is 4 - 2 = 2
    with pytest.raises(ValueError, match="quota"):
        subspace_cost(2, 1, 2)  # cap is 0
    with pytest.raises(ValueError, match="quota"):
        subspace_cost(4, -1, 2)
    with pytest.raises(ValueError, match="size"):
        subspace_cost(0, 0, 1)


def test_pinned_minima():
    assert brute_force_rate(ProblemParams(k=5, m=1, n=2)) == 4
    assert brute_force_rate(ProblemParams(k=13, m=5, n=2)) == 6
    assert brute_force_rate(ProblemParams(k=7, m=3, n=1)) == 2
    assert brute_force_rate(ProblemParams(k=4, m=0, n=4)) == 4


def test_cap_guards_runtime():
    with pytest.raises(ValueError, match="closed form"):
        brute_force_rate(ProblemParams(k=15, m=1, n=1))
    with pytest.raises(ValueError, match="closed form"):
        brute_force_sweep(20, 2)


def _is_argmin(params, sizes, quotas):
    return is_feasible_plan(params, sizes, quotas) and sum(
        subspace_cost(size, quota, params.n) for size, quota in zip(sizes, quotas)
    ) == brute_force_rate(params)


def test_argmin_contains_planned_profile():
    assert _is_argmin(ProblemParams(k=13, m=5, n=2), (5, 4, 4), (3, 2, 2))
    assert _is_argmin(ProblemParams(k=7, m=3, n=1), (4, 3), (3, 2))
    assert _is_argmin(ProblemParams(k=5, m=1, n=2), (5,), (1,))


def test_argmin_no_side_information_has_singletons():
    assert _is_argmin(ProblemParams(k=6, m=0, n=2), (1,) * 6, (0,) * 6)


def test_argmin_solutions_are_canonical_and_costed():
    # Every naive winner, sorted, passes the plan check and costs the
    # brute-force minimum.
    for params in [
        ProblemParams(k=9, m=2, n=2),
        ProblemParams(k=10, m=4, n=1),
        ProblemParams(k=8, m=3, n=3),
    ]:
        best, winners = naive_minimum(params.k, params.m, params.n)
        assert winners
        assert best == brute_force_rate(params)
        for sizes, quotas in winners:
            assert _is_argmin(params, sizes, quotas), (params, sizes, quotas)


def test_plan_check_rejects_each_broken_condition():
    params = ProblemParams(k=13, m=5, n=2)
    assert is_feasible_plan(params, (5, 4, 4), (3, 2, 2))
    assert not is_feasible_plan(params, (4, 5, 4), (2, 2, 2))  # sizes out of order
    assert not is_feasible_plan(params, (5, 4, 4), (2, 3, 2))  # quotas out of order
    assert not is_feasible_plan(params, (6, 5, 2), (4, 3, 0))  # window 7 > m
    assert not is_feasible_plan(params, (6, 4, 3), (3, 2, 2))  # 2 > cap 3 - 2
    assert not is_feasible_plan(params, (5, 4, 4), (3, 2, -1))  # negative quota
    assert not is_feasible_plan(params, (5, 4, 3), (3, 2, 1))  # sizes sum to 12
    assert not is_feasible_plan(params, (9, 4, 0), (3, 2, 0))  # empty subspace
    assert not is_feasible_plan(params, (5, 4, 4), (3, 2))  # lengths differ


def test_sweep_matches_naive_assignments():
    # The walk visits only non-increasing quota vectors; the naive search
    # tries every assignment, so equal minima confirm that sorting the quotas
    # loses nothing.  The plan check must agree with the naive rule on every
    # assignment, quotas beyond the cap included, and pick out exactly the
    # naive winners at the minimum.
    for k in range(1, 9):
        for n in range(1, k + 1):
            for m, found in enumerate(brute_force_sweep(k, n)):
                params = ProblemParams(k=k, m=m, n=n)
                best, winners = naive_minimum(k, m, n)
                assert found == best, (k, m, n)
                passing = set()
                for parts in _partitions(k, k):
                    for quotas in product(*(range(p + 1) for p in parts)):
                        ok = is_feasible_plan(params, parts, quotas)
                        ordered = list(quotas) == sorted(quotas, reverse=True)
                        assert ok == (ordered and naive_feasible(parts, quotas, m, n)), (
                            k, m, n, parts, quotas,
                        )
                        if ok and k - sum(quotas) == best:
                            passing.add((parts, quotas))
                assert passing == winners, (k, m, n)


def test_sweep_has_one_entry_per_budget():
    for k in range(1, 13):
        for n in range(1, k + 1):
            assert len(brute_force_sweep(k, n)) == k - n + 1


def test_sweep_guards_inputs():
    with pytest.raises(ValueError, match="closed form"):
        brute_force_sweep(15, 1)
    with pytest.raises(ValueError, match="n must be positive"):
        brute_force_sweep(5, 0)


def test_budget_relaxation_only_helps():
    for k in range(1, 9):
        for n in range(1, k + 1):
            minima = brute_force_sweep(k, n)
            assert minima == sorted(minima, reverse=True), (k, n)
            assert minima[-1] == naive_minimum(k, None, n)[0], (k, n)


def test_matches_closed_form_small_sweep():
    for k in range(1, 11):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                assert brute_force_rate(params) == compute_plan(params).r_star, (k, m, n)


def test_planned_profile_passes_plan_check_to_k60():
    instances = 0
    for k in range(1, 61):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                assert is_feasible_plan(params, plan.size_profile, plan.side_profile), (
                    k, m, n, plan,
                )
                instances += 1
    assert instances == 37_820
