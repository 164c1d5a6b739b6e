"""Brute-force search over every partition plan, as an independent check.

The closed form in :mod:`pirsi.rate` claims a minimum over all ways of
splitting the database into coding subspaces and assigning per-subspace
side-information quotas.  This module actually performs that minimisation
by exhaustive enumeration, so the two can be compared on small instances.

Feasibility of a quota vector: each quota is at most the subspace's size
excess over the demand count, and since at most ``n`` subspaces ever serve
demands, only the largest ``min(len(parts), n)`` quotas draw on the user's
side information, so their sum (the vector's window sum) must not exceed
``m``.

The budget ``m`` only decides which vectors count, so one exhaustive walk
per ``(k, n)`` answers every ``m`` (:func:`brute_force_sweep`): it records,
for each window sum, the best quota total and the vectors that reach it.
No window sum exceeds ``k - n``, since each window quota is at most its
part's size minus ``n`` and the parts sum to ``k``; so the walk with
budget ``k - n`` visits every vector any ``m`` can use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rate import ProblemParams

DEFAULT_K_CAP = 14


@dataclass(frozen=True)
class CandidateSolution:
    """A partition with quotas, in canonical (non-increasing) order."""

    parts: tuple[int, ...]
    m_vector: tuple[int, ...]
    cost: int


def subspace_cost(size: int, quota: int, n_demands: int) -> int:
    """Downloaded symbols for one subspace of the given size and quota.

    A subspace no larger than the demand count must be fetched whole;
    otherwise the quota's worth of symbols can be saved.
    """
    if size < 1:
        raise ValueError(f"subspace size must be positive, got {size}")
    cap = max(size - n_demands, 0)
    if not 0 <= quota <= cap:
        raise ValueError(f"quota {quota} outside [0, {cap}] for size {size}")
    if size <= n_demands:
        return size
    return size - quota


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


def _walk(k: int, n: int, budget: int) -> tuple[list[int], list[list[CandidateSolution]]]:
    """Exhaustive walk over every (partition, quota vector) pair within a budget.

    Quota vectors are non-increasing, which loses no solutions: caps are
    monotone in part size, so any feasible assignment of a quota multiset
    can be re-paired in sorted order, and both the cost and the budget
    depend only on the multiset.  The budget window is the first
    min(len(parts), n) positions; branches exceeding it are pruned as soon
    as they commit.

    Returns ``(best, winners)``: ``best[ws]`` is the largest quota total of
    any vector whose window sum is ``ws`` (-1 if none), and ``winners[ws]``
    lists the solutions reaching it, in visiting order.  Per-subspace costs
    telescope, since quotas never exceed the size excess, so a solution
    costs k minus its quota total (matching subspace_cost).
    """
    best = [-1] * (budget + 1)
    winners: list[list[CandidateSolution]] = [[] for _ in best]
    for parts in _partitions(k, k):
        caps = [p - n if p > n else 0 for p in parts]
        window = min(len(parts), n)
        last = len(parts) - 1
        quotas = [0] * len(parts)

        def extend(idx: int, prev: int, ws: int, total: int) -> None:
            hi = min(caps[idx], prev)
            inside = idx < window
            if inside:
                hi = min(hi, budget - ws)
            if hi == 0 and idx < last:
                # Quotas never rise, so every later one is 0 too: the one
                # completion is all zeros.
                quotas[idx:] = [0] * (last + 1 - idx)
                idx = last
            for q in range(hi, -1, -1):
                quotas[idx] = q
                at = ws + q if inside else ws
                if idx < last:
                    extend(idx + 1, q, at, total + q)
                elif total + q >= best[at]:
                    if total + q > best[at]:
                        best[at] = total + q
                        winners[at] = []
                    winners[at].append(CandidateSolution(parts, tuple(quotas), k - total - q))

        extend(0, parts[0], 0, 0)
    return best, winners


def _check_cap(params: ProblemParams) -> None:
    if params.k > DEFAULT_K_CAP:
        raise ValueError(
            f"k={params.k} exceeds the brute-force cap {DEFAULT_K_CAP}; "
            "use the closed form for larger instances"
        )


def _argmins_by_budget(
    best: list[int], winners: list[list[CandidateSolution]]
) -> list[list[CandidateSolution]]:
    """Entry m: the argmins at budget m, from a walk's ``(best, winners)``.

    They achieve the largest quota total over window sums 0..m, and are
    listed in the walk's visiting order, which is descending (parts, quotas)
    order: partitions come in descending order and, within one, so do
    quota vectors.
    """
    out = []
    top = -1
    current: list[CandidateSolution] = []
    for ws, total in enumerate(best):
        if total > top:
            top, current = total, winners[ws]
        elif total == top:
            current = sorted(current + winners[ws], key=lambda s: (s.parts, s.m_vector), reverse=True)
        out.append(list(current))
    return out


def brute_force_rate(params: ProblemParams) -> int:
    """Minimum download found by exhaustive search (small k only)."""
    _check_cap(params)
    best, _ = _walk(params.k, params.n, params.m)
    return params.k - max(best)


def argmin_solutions(params: ProblemParams) -> list[CandidateSolution]:
    """Every canonical (partition, quotas) pair achieving the minimum.

    Distinct pairings that coincide after sorting are reported once, since
    cost and feasibility depend only on the sorted form.
    """
    _check_cap(params)
    best, winners = _walk(params.k, params.n, params.m)
    return _argmins_by_budget(best, winners)[-1]


def brute_force_sweep(k: int, n: int) -> list[list[CandidateSolution]]:
    """The argmins of every budget m = 0..k-n from one exhaustive walk.

    A vector's window sum never exceeds k - n, so the walk at budget k - n
    visits every vector any m can use, and budget m keeps those with window
    sum at most m.  Entry m equals ``argmin_solutions(ProblemParams(k, m, n))``;
    every argmin costs the minimum, so entry m's first cost is
    ``brute_force_rate(ProblemParams(k, m, n))``.
    """
    _check_cap(ProblemParams(k, 0, n))
    best, winners = _walk(k, n, k - n)
    return _argmins_by_budget(best, winners)
