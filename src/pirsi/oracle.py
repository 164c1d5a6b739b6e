"""Brute-force search over every partition plan, as an independent check.

The closed form in :mod:`pirsi.rate` makes two claims: the minimum download
``r_star``, and that its plan is a valid partition-and-MDS assignment.
This module checks the first by exhaustive enumeration on small instances
(:func:`brute_force_rate`, :func:`brute_force_sweep`) and the second by
testing the plan's profile directly (:func:`is_feasible_plan`).

Feasibility of a quota vector: each quota is at most the subspace's size
excess over the demand count (:func:`quota_cap`), and since at most ``n``
subspaces ever serve demands, only the largest ``min(len(parts), n)``
quotas draw on the user's side information, so their sum (the vector's
window sum) must not exceed ``m``.

The budget ``m`` only decides which vectors count, so one exhaustive walk
per ``(k, n)`` answers every ``m`` (:func:`brute_force_sweep`): it records
the best quota total for each window sum.  No window sum exceeds ``k - n``,
since each window quota is at most its part's size minus ``n`` and the
parts sum to ``k``; so the walk needs no budget of its own, and
:func:`brute_force_rate` reads one ``m``'s entry from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .rate import ProblemParams

K_CAP = 14


def quota_cap(size: int, n_demands: int) -> int:
    """Most side-information messages a subspace of the given size can absorb."""
    return max(size - n_demands, 0)


def subspace_cost(size: int, quota: int, n_demands: int) -> int:
    """Downloaded symbols for one subspace of the given size and quota.

    A subspace no larger than the demand count must be fetched whole;
    otherwise the quota's worth of symbols can be saved.
    """
    if size < 1:
        raise ValueError(f"subspace size must be positive, got {size}")
    cap = quota_cap(size, n_demands)
    if not 0 <= quota <= cap:
        raise ValueError(f"quota {quota} outside [0, {cap}] for size {size}")
    if size <= n_demands:
        return size
    return size - quota


def is_feasible_plan(params: ProblemParams, sizes: Sequence[int], quotas: Sequence[int]) -> bool:
    """True when the walk visits this (sizes, quotas) pair and budget ``params.m`` admits it.

    That is: positive, non-increasing sizes summing to k; non-increasing
    quotas, each within its subspace's cap; and the first min(len, n)
    quotas summing to at most m.  A plan passing this whose cost is the
    brute-force minimum is one of the minimum's canonical achievers.
    """
    if len(sizes) != len(quotas) or sum(sizes) != params.k or min(sizes) < 1:
        return False
    return (
        list(sizes) == sorted(sizes, reverse=True)
        and list(quotas) == sorted(quotas, reverse=True)
        and all(0 <= q <= quota_cap(s, params.n) for s, q in zip(sizes, quotas))
        and sum(quotas[: params.n]) <= params.m
    )


@lru_cache(maxsize=None)
def _partitions(total: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``total`` as non-increasing tuples with parts <= max_part."""
    if total == 0:
        return ((),)
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _walk(k: int, n: int) -> list[int]:
    """Exhaustive walk over every (partition, quota vector) pair of a (k, n).

    Quota vectors are non-increasing, which loses no solutions: caps are
    monotone in part size, so any feasible assignment of a quota multiset
    can be re-paired in sorted order, and both the cost and the budget
    depend only on the multiset.  The budget window is the first
    min(len(parts), n) positions; its sum, the window sum, is at most k - n
    (module docstring).

    Returns ``best``: ``best[ws]`` is the largest quota total of any vector
    whose window sum is ``ws`` (-1 if none), for ws = 0..k-n.  Per-subspace
    costs telescope, since quotas never exceed the size excess, so a
    solution costs k minus its quota total (matching subspace_cost).
    """
    best = [-1] * (k - n + 1)
    for parts in _partitions(k, k):
        caps = [quota_cap(p, n) for p in parts]
        window = min(len(parts), n)
        last = len(parts) - 1

        def extend(idx: int, prev: int, ws: int, total: int) -> None:
            hi = min(caps[idx], prev)
            if hi == 0:
                # Quotas never rise, so every later one is 0 too: the one
                # completion is all zeros.
                best[ws] = max(best[ws], total)
                return
            inside = idx < window
            for q in range(hi, -1, -1):
                at = ws + q if inside else ws
                if idx < last:
                    extend(idx + 1, q, at, total + q)
                elif total + q > best[at]:
                    best[at] = total + q

        extend(0, parts[0], 0, 0)
    return best


def brute_force_rate(params: ProblemParams) -> int:
    """Minimum download found by exhaustive search (small k only): the sweep's entry m."""
    return brute_force_sweep(params.k, params.n)[params.m]


def brute_force_sweep(k: int, n: int) -> list[int]:
    """The minimum download of every budget m = 0..k-n from one exhaustive walk.

    The walk visits every vector, and budget m keeps those with window sum
    at most m.  Raises ValueError for an invalid (k, n) or k above ``K_CAP``.
    """
    ProblemParams(k, 0, n)  # validates k and n
    if k > K_CAP:
        raise ValueError(
            f"k={k} exceeds the brute-force cap {K_CAP}; "
            "use the closed form for larger instances"
        )
    return [k - top for top in accumulate(_walk(k, n), max)]
