"""Rate searches: the exact search against brute force, pinned minima, the plan
check, and the paper's converse over all linear schemes on small instances."""

import gc
import random
import tracemalloc
from itertools import product

import pytest

from pirsi import (
    DemandSpec,
    PrimeField,
    ProblemParams,
    build_layout,
    compute_plan,
    is_feasible_plan,
    make_query,
    search_sweep,
)
from pirsi.oracle import brute_force_rate, brute_force_sweep
from oracles import (
    closed_form_r_star,
    hides_every_demand_set,
    is_trivial_optimal,
    query_rows,
    row_reduce,
    subspace_cost,
    subspaces,
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


def test_search_matches_brute_force():
    # The lemma: parts of size q + n for the positive quotas lose nothing,
    # so the search finds the exhaustive walk's minimum at every budget.
    instances = 0
    for k in range(1, 15):
        for n in range(1, k + 1):
            found = search_sweep(k, n)
            assert found == brute_force_sweep(k, n), (k, n)
            instances += len(found)
    assert instances == 560


def test_search_guards_inputs():
    with pytest.raises(ValueError, match="n must be positive"):
        search_sweep(5, 0)
    with pytest.raises(ValueError, match="k must be positive"):
        search_sweep(0, 1)
    with pytest.raises(ValueError, match="exceed database"):
        search_sweep(3, 4)


def test_search_frees_its_memo():
    # The memo lives on a closure that refers to itself, a reference cycle
    # only a collection would free; the sweep clears the memo before it
    # returns.  The first call warms the interpreter's own buffers.
    search_sweep(40, 4)
    gc.disable()
    tracemalloc.start()
    try:
        search_sweep(40, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 20_000  # over 200 kB when the memo is kept


def test_trivial_optimality_iff_against_search_to_k40():
    # The paper's headline: the single MDS block is optimal iff n > m or
    # n^2 + n >= k - m, checked here against the exact search, not the
    # closed form, on all 11,480 instances with k <= 40.
    instances = 0
    for k in range(1, 41):
        for n in range(1, k + 1):
            for m, found in enumerate(search_sweep(k, n)):
                params = ProblemParams(k, m, n)
                assert is_trivial_optimal(params) == (found == k - m), (k, m, n)
                instances += 1
    assert instances == 11_480


def test_closed_form_matches_plan_cost_to_k40():
    # The paper's closed-form expression against the plan's profile cost,
    # on the same 11,480 instances.
    instances = 0
    for params in _instances(40):
        assert closed_form_r_star(params) == compute_plan(params).r_star, params
        instances += 1
    assert instances == 11_480


def _instances(k_max):
    for k in range(1, k_max + 1):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                yield ProblemParams(k, m, n)


def test_converse_lower_bound_over_gf2_to_k6():
    # No subspace of GF(2)^k of dimension r_star - 1 is the row space of a
    # query that hides every demand set, so no linear scheme over GF(2)
    # downloads fewer than r_star.  A superspace of a good subspace is
    # good, so refuting one dimension refutes all lower ones.
    instances = 0
    for params in _instances(6):
        k, m, n = params.k, params.m, params.n
        r_star = compute_plan(params).r_star
        assert not any(
            hides_every_demand_set(basis, k, m, n, 2) for basis in subspaces(k, r_star - 1, 2)
        ), (k, m, n)
        instances += 1
    assert instances == 56


def test_converse_is_tight_over_gf5_to_k4():
    # Over GF(5), q > k, so the scheme's own query meets the condition: the
    # bound is r_star exactly.  No subspace of dimension r_star - 1 is good,
    # and a seeded query's row space has dimension r_star and is good.
    field = PrimeField(5)
    instances = 0
    for params in _instances(4):
        k, m, n = params.k, params.m, params.n
        r_star = compute_plan(params).r_star
        assert not any(
            hides_every_demand_set(basis, k, m, n, 5) for basis in subspaces(k, r_star - 1, 5)
        ), (k, m, n)
        rng = random.Random(f"converse {k} {m} {n}")
        demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
        side = frozenset(rng.sample([i for i in range(1, k + 1) if i not in demands], m))
        query = make_query(build_layout(params, DemandSpec(demands, side), rng), field)
        basis = row_reduce(query_rows(query), 5)
        assert len(basis) == r_star, (k, m, n)
        assert hides_every_demand_set(basis, k, m, n, 5), (k, m, n)
        instances += 1
    assert instances == 20
