"""Brute-force search: pinned values, canonical argmins, and the sweep."""

from itertools import product

import pytest

from pirsi import (
    CandidateSolution,
    ProblemParams,
    argmin_solutions,
    brute_force_rate,
    brute_force_sweep,
    compute_plan,
    subspace_cost,
)


def _partitions(total, largest):
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def naive_minimum(k, m, n):
    """The minimum and its winners over every quota assignment, unsorted and unpruned.

    Each part p takes any quota in 0..max(p - n, 0); the budget m applies to
    the largest min(len(parts), n) quotas.  ``m=None`` drops the budget.
    Winners are reported with their quotas re-sorted non-increasing.
    """
    best, winners = None, set()
    for parts in _partitions(k, k):
        window = min(len(parts), n)
        for quotas in product(*(range(max(p - n, 0) + 1) for p in parts)):
            ordered = tuple(sorted(quotas, reverse=True))
            if m is not None and sum(ordered[:window]) > m:
                continue
            cost = k - sum(quotas)
            if best is None or cost < best:
                best, winners = cost, set()
            if cost == best:
                winners.add((parts, ordered))
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
        argmin_solutions(ProblemParams(k=20, m=4, n=2))


def test_argmin_contains_planned_profile():
    sols = argmin_solutions(ProblemParams(k=13, m=5, n=2))
    assert CandidateSolution((5, 4, 4), (3, 2, 2), 6) in sols

    sols = argmin_solutions(ProblemParams(k=7, m=3, n=1))
    assert CandidateSolution((4, 3), (3, 2), 2) in sols

    sols = argmin_solutions(ProblemParams(k=5, m=1, n=2))
    assert CandidateSolution((5,), (1,), 4) in sols


def test_argmin_no_side_information_has_singletons():
    sols = argmin_solutions(ProblemParams(k=6, m=0, n=2))
    assert CandidateSolution((1,) * 6, (0,) * 6, 6) in sols


def test_argmin_solutions_are_canonical_and_costed():
    for params in [
        ProblemParams(k=9, m=2, n=2),
        ProblemParams(k=10, m=4, n=1),
        ProblemParams(k=8, m=3, n=3),
    ]:
        sols = argmin_solutions(params)
        assert sols
        keys = {(s.parts, s.m_vector) for s in sols}
        assert len(keys) == len(sols)  # deduplicated
        for sol in sols:
            assert list(sol.parts) == sorted(sol.parts, reverse=True)
            assert list(sol.m_vector) == sorted(sol.m_vector, reverse=True)
            assert sum(sol.parts) == params.k
            recomputed = sum(
                subspace_cost(size, quota, params.n)
                for size, quota in zip(sol.parts, sol.m_vector)
            )
            assert recomputed == sol.cost == brute_force_rate(params)


def test_sweep_matches_naive_assignments():
    # The walk visits only non-increasing quota vectors; the naive search
    # tries every assignment, so equal argmin sets confirm that sorting the
    # quotas loses nothing.
    for k in range(1, 9):
        for n in range(1, k + 1):
            for m, sols in enumerate(brute_force_sweep(k, n)):
                best, winners = naive_minimum(k, m, n)
                assert {s.cost for s in sols} == {best}, (k, m, n)
                assert {(s.parts, s.m_vector) for s in sols} == winners, (k, m, n)
                assert len(sols) == len(winners), (k, m, n)


def test_sweep_matches_per_budget_search():
    for k in range(1, 13):
        for n in range(1, k + 1):
            sweep = brute_force_sweep(k, n)
            assert len(sweep) == k - n + 1
            for m, sols in enumerate(sweep):
                params = ProblemParams(k=k, m=m, n=n)
                assert sols[0].cost == brute_force_rate(params), (k, m, n)
                if k <= 9:
                    assert sols == argmin_solutions(params), (k, m, n)


def test_sweep_guards_inputs():
    with pytest.raises(ValueError, match="closed form"):
        brute_force_sweep(15, 1)
    with pytest.raises(ValueError, match="n must be positive"):
        brute_force_sweep(5, 0)


def test_budget_relaxation_only_helps():
    for k in range(1, 9):
        for n in range(1, k + 1):
            minima = [sols[0].cost for sols in brute_force_sweep(k, n)]
            assert minima == sorted(minima, reverse=True), (k, n)
            assert minima[-1] == naive_minimum(k, None, n)[0], (k, n)


def test_matches_closed_form_small_sweep():
    for k in range(1, 11):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                assert brute_force_rate(params) == compute_plan(params).r_star, (k, m, n)


def test_planned_profile_always_among_argmins():
    for k in range(1, 10):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                sols = argmin_solutions(params)
                assert any(
                    s.parts == plan.size_profile and s.m_vector == plan.side_profile
                    for s in sols
                ), (k, m, n, plan, sols[:4])
