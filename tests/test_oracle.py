"""Rate searches: the one-pass search against the memoised search and brute
force, pinned minima, the plan check, and the paper's converse over all linear
schemes on small instances."""

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
    search_sweep,
)
from pirsi.oracle import brute_force_rate, brute_force_sweep, is_feasible_plan
from pirsi.rate import admits_every_demand_set
from pirsi.scheme import make_query
from oracles import (
    closed_form_r_star,
    hides_every_demand_set,
    is_trivial_optimal,
    least_budget,
    memo_search_sweep,
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


def test_admit_rule_and_plan_check_match_the_definition():
    # Every partition of k <= 8 into block sizes, every quota vector with
    # quotas in 0..size (unsorted and over the cap included) and every
    # (m, n): the admit rule holds iff every demand profile is served
    # (least_budget), and the plan check, which reads the cap and the window
    # on its own, is the order checks and the admit rule.  About 0.4 s.
    cases = 0
    for k in range(1, 9):
        for sizes in _partitions(k, k):
            for quotas in product(*(range(size + 1) for size in sizes)):
                ordered = list(quotas) == sorted(quotas, reverse=True)
                for n in range(1, k + 1):
                    need = least_budget(sizes, quotas, n)
                    for m in range(k - n + 1):
                        params = ProblemParams(k, m, n)
                        admits = admits_every_demand_set(params, sizes, quotas)
                        case = (k, m, n, sizes, quotas)
                        assert admits == (need is not None and need <= m), case
                        assert is_feasible_plan(params, sizes, quotas) == (ordered and admits), case
                        cases += 1
    assert cases == 86_230


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
    # What `pirsi oracle --k-max 60` checks: the plan passes the plan check
    # and costs the search's minimum.
    instances = 0
    for k in range(1, 61):
        for n in range(1, k + 1):
            for m, found in enumerate(search_sweep(k, n)):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                assert is_feasible_plan(params, plan.size_profile, plan.side_profile), (
                    k, m, n, plan,
                )
                assert plan.r_star == found, (k, m, n, plan)
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


def test_sweep_is_a_new_list_over_a_cached_walk():
    # The walk is cached per (k, n), so a caller that edits the list it got
    # must not change what the next caller reads.
    first = brute_force_sweep(13, 2)
    first[:] = [0] * len(first)
    first.append(-1)
    again = brute_force_sweep(13, 2)
    assert again is not first
    assert again == search_sweep(13, 2)
    assert brute_force_rate(ProblemParams(13, 5, 2)) == 6


def test_search_guards_inputs():
    with pytest.raises(ValueError, match="n must be positive"):
        search_sweep(5, 0)
    with pytest.raises(ValueError, match="k must be positive"):
        search_sweep(0, 1)
    with pytest.raises(ValueError, match="exceed database"):
        search_sweep(3, 4)


def test_search_pinned_at_the_lemmas_edges():
    # n = 1: the window is one part, and the minimum is the paper's
    # single-demand ceil(k / (m + 1)).
    for k in range(1, 61):
        assert search_sweep(k, 1) == [-(-k // (m + 1)) for m in range(k)], k
    # k <= n^2 + n: a window of n parts leaves no room for a tail part,
    # so one block of k - m is optimal at every budget.
    for n in range(1, 9):
        for k in range(n, n * n + n + 1):
            assert search_sweep(k, n) == [k - m for m in range(k - n + 1)], (k, n)
    # (20, 3), m = 7: the window 3 + 2 + 2 takes 16 slots, and the 4 left
    # hold one tail part of quota 4 - 3 = 1, a remainder part (rem = 4 > n).
    assert search_sweep(20, 3)[7] == 12
    # (20, 3), m = 4: W mod n = 1, the window 2 + 1 + 1 caps the tail at
    # quota 1, not 2, and its 7 slots hold one part of quota 1.
    assert search_sweep(20, 3)[4] == 15
    # (30, 4), m = 5: W mod n = 1 again; the window 2 + 1 + 1 + 1 leaves
    # 9 slots, one tail part of quota 1 and 4 slots too few for another.
    assert search_sweep(30, 4)[5] == 24


def test_search_holds_linear_memory():
    # The pass keeps one entry per budget, so a sweep at (40, 4) peaks
    # far under 20 kB; a memoised search peaks over 200 kB there.  The
    # first call warms the interpreter's own buffers.
    search_sweep(40, 4)
    gc.disable()
    tracemalloc.start()
    try:
        search_sweep(40, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 20_000


def test_trivial_optimality_iff_against_search_to_k40():
    # The paper's headline: the single MDS block is optimal iff n > m or
    # n^2 + n >= k - m, checked here against the memoised search, not the
    # closed form, on all 11,480 instances with k <= 40.  The one-pass
    # sweep must equal that search on every (k, n).
    instances = 0
    for k in range(1, 41):
        for n in range(1, k + 1):
            minima = memo_search_sweep(k, n)
            assert search_sweep(k, n) == minima, (k, n)
            for m, found in enumerate(minima):
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
