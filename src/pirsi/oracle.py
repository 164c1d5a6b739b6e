"""The minimum download over partition plans, found two ways, and the plan check.

The closed form in :mod:`pirsi.rate` makes two claims: the minimum download
``r_star``, and that its plan is a valid partition-and-MDS assignment.
``pirsi oracle`` checks the first with an exact memoised search that reaches
large k (:func:`search_sweep`) and the second by testing the plan's profile
directly (:func:`is_feasible_plan`).  Both searches here are minima over
partition-and-MDS plans only; the paper's converse over all linear schemes
is checked in the tests (``tests/oracles.py``) for small k.

The exhaustive walk that checks the search on small instances
(:func:`brute_force_rate`, :func:`brute_force_sweep`) is a test oracle
too.  It stays in the package only because the benchmark's traced
``oracle`` replay calls ``brute_force_rate``; once that replay calls
:func:`search_sweep`, the walk can join the other oracles in the tests.

Feasibility of a quota vector is :func:`pirsi.rate.admits_every_demand_set`:
each quota is at most the subspace's size excess over the demand count
(:func:`pirsi.rate.quota_cap`), and since at most ``n`` subspaces ever
serve demands, only the largest ``min(len(parts), n)`` quotas draw on the
user's side information, so their sum (the vector's window sum) must not
exceed ``m``.

The search rests on one lemma: some optimal plan gives each positive quota
``q`` a part of size exactly ``q + n``.  Leftover size can join any part,
since that only raises the part's cap, and parts with quota 0 merge into
another part without changing the window.  So the minimum is k minus the
largest quota total over non-increasing positive quota vectors with
``sum(q + n) <= k`` whose first n quotas sum to at most m.

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

from .rate import ProblemParams, admits_every_demand_set, quota_cap

K_CAP = 14  # kept for brute_force_rate, which perfbench's traced oracle replay calls


def is_feasible_plan(params: ProblemParams, sizes: Sequence[int], quotas: Sequence[int]) -> bool:
    """True when ``(sizes, quotas)`` is a canonical plan that budget ``params.m`` admits.

    That is: positive, non-increasing sizes summing to k; non-increasing
    quotas; and the cap and window of
    :func:`pirsi.rate.admits_every_demand_set`.  A plan passing this whose
    cost is the minimum is one of the minimum's canonical achievers.
    """
    if len(sizes) != len(quotas) or sum(sizes) != params.k or min(sizes) < 1:
        return False
    return (
        list(sizes) == sorted(sizes, reverse=True)
        and list(quotas) == sorted(quotas, reverse=True)
        and admits_every_demand_set(params, sizes, quotas)
    )


# Kept for brute_force_rate, which perfbench's traced oracle replay calls.
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


# Kept for brute_force_rate, which perfbench's traced oracle replay calls.
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
    solution costs k minus its quota total.
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


# Perfbench's traced oracle replay calls this; the program does not.
def brute_force_rate(params: ProblemParams) -> int:
    """Minimum download found by exhaustive search (small k only): the sweep's entry m."""
    return brute_force_sweep(params.k, params.n)[params.m]


# Kept for brute_force_rate, which perfbench's traced oracle replay calls.
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


def search_sweep(k: int, n: int) -> list[int]:
    """The minimum download of every budget m = 0..k-n, by the lemma's search.

    Same result as :func:`brute_force_sweep`, with no cap on k: the search
    is polynomial in k.  Raises ValueError for an invalid (k, n).
    """
    ProblemParams(k, 0, n)  # validates k and n

    @lru_cache(maxsize=None)
    def best(size: int, slots: int, budget: int, cap: int) -> int:
        """Largest quota total of parts fitting in ``size``, each quota at most
        ``cap``, the next ``slots`` quotas summing to at most ``budget``."""
        top = 0
        for q in range(min(cap, size - n, budget), 0, -1):
            left = size - q - n
            # Past the window the budget no longer binds; inside it, neither
            # does any excess over what the remaining slots can take.
            after = min(budget - q, (slots - 1) * q, left) if slots > 1 else left
            top = max(top, q + best(left, max(slots - 1, 0), after, q))
        return top

    try:
        return [k - best(k, n, m, k) for m in range(k - n + 1)]
    finally:
        # The closure and its cache form a reference cycle; clearing the
        # cache frees the memo now instead of at the next collection.
        best.cache_clear()
