"""The minimum download over partition plans, found two ways, and the plan check.

The closed form in :mod:`pirsi.rate` makes two claims: the minimum download
``r_star``, and that its plan is a valid partition-and-MDS assignment.
``pirsi oracle`` checks the first with an exact search that reaches large k
(:func:`search_sweep`) and the second by testing the plan's profile
directly (:func:`is_feasible_plan`).  Both searches here are minima over
partition-and-MDS plans only; the paper's converse over all linear schemes
is checked in the tests (``tests/oracles.py``) for small k.

The exhaustive walk that checks the search on small instances
(:func:`brute_force_rate`, :func:`brute_force_sweep`) is a test oracle
too.  The program never calls it.  It stays in the package because two
callers import it from here: acceptance criterion 2
(``tests/test_acceptance.py``, kept fixed) and the benchmark's traced
``oracle`` replay.  Moving it to the tests means editing both.

Feasibility of a quota vector is :func:`pirsi.rate.admits_every_demand_set`:
each quota is at most the subspace's size excess over the demand count
(:func:`pirsi.rate.quota_cap`), and since at most ``n`` subspaces ever
serve demands, only the largest ``min(len(parts), n)`` quotas draw on the
user's side information, so their sum (the vector's window sum) must not
exceed ``m``.  :func:`is_feasible_plan` reads the cap and the window
itself, and calls nothing in :mod:`pirsi.rate`, so the sweep's check
shares no code with the rule the program uses: it reads each quota ``q``
of a block of size ``s`` as ``q <= s - n or q == 0``.  That is exactly
``q <= quota_cap(s, n) = max(s - n, 0)`` for the quotas it reaches, which
its order checks and ``quotas[-1] >= 0`` have shown to be at least 0:
where ``s >= n`` the two read the same, and where ``s < n`` the cap is 0,
which a quota of at least 0 meets iff it is 0.  ``quota_cap`` serves only
the admit rule and the exhaustive walk.

The search rests on three lemmas.  First, some optimal plan gives each
positive quota ``q`` a part of size exactly ``q + n``.  Leftover size can
join any part, since that only raises the part's cap, and parts with
quota 0 merge into another part without changing the window.  So the
minimum is k minus the largest quota total over non-increasing positive
quota vectors with ``sum(q + n) <= k`` whose first n quotas sum to at
most m.

Second, the balanced window.  With more than n parts, the n window quotas
sum to the window sum W and take ``W + n * n`` slots however W is split.
Their smallest is at most ``c = W // n``, and it caps every later (tail)
quota; the best tail only grows with its cap.  So the window of
``W % n`` quotas ``c + 1`` and the rest ``c`` is optimal for its W.

Third, the greedy tail.  P tail parts, each quota at most c and each part
``q + n`` long, in the ``S = k - W - n * n`` slots the window leaves,
total at most ``min(P * c, S - P * n)``.  That is largest at
``P = S // (c + n)`` or one more, so with ``f, rem = divmod(S, c + n)``
the best tail is ``f * c + max(0, rem - n)``: f parts of quota c, and
one of quota ``rem - n`` (less than c) when ``rem > n``.  With at most n
parts the total is W itself, which one part of size ``W + n`` reaches.
The tail term is never negative, and it is 0 where no tail fits
(``S <= 0``, or ``c = 0``), so W plus the tail term is the best total.

So each window sum W has its best total in O(1), and one pass over
``W = 0..k-n`` answers every budget.  Budget m admits every W up to m, but
the best total never falls as W grows: one more unit in the window costs
the tail at most one slot, so at most one unit, and c never falls.  So
budget m's minimum is k minus the best total at W = m.

The budget ``m`` only decides which vectors count, so one exhaustive walk
per ``(k, n)`` answers every ``m`` (:func:`brute_force_sweep`): it records
the best quota total for each window sum.  No window sum exceeds ``k - n``,
since each window quota is at most its part's size minus ``n`` and the
parts sum to ``k``; so the walk needs no budget of its own, and
:func:`brute_force_rate` reads one ``m``'s entry from it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate, combinations_with_replacement

from .rate import ProblemParams, quota_cap

K_CAP = 14


def is_feasible_plan(params: ProblemParams, sizes: Sequence[int], quotas: Sequence[int]) -> bool:
    """True when ``(sizes, quotas)`` is a canonical plan that budget ``params.m`` admits.

    That is: positive, non-increasing sizes summing to k; non-increasing
    quotas; and the cap and window of
    :func:`pirsi.rate.admits_every_demand_set`, read here on their own, with
    no call into :mod:`pirsi.rate`: once the quotas are found in order,
    their last is the smallest and their first n are the window.  The cap
    is read as ``q <= s - n or q == 0``, exact once ``quotas[-1] >= 0`` has
    shown every quota to be at least 0: a block no larger than n has cap 0
    (module docstring).  A plan passing this whose cost is the minimum is
    one of the minimum's canonical achievers.
    """
    k, m, n = params
    if len(sizes) != len(quotas) or sum(sizes) != k or min(sizes) < 1:
        return False
    return (
        list(sizes) == sorted(sizes, reverse=True)
        and list(quotas) == sorted(quotas, reverse=True)
        and quotas[-1] >= 0
        and all([q <= s - n or q == 0 for q, s in zip(quotas, sizes)])
        and sum(quotas[:n]) <= m
    )


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` as non-increasing tuples with parts <= max_part."""
    if total == 0:
        yield ()
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@cache  # brute_force_sweep calls it only with k <= K_CAP: at most 105 keys
def _walk(k: int, n: int) -> tuple[int, ...]:
    """Exhaustive walk over every (partition, quota vector) pair of a (k, n).

    For each partition of k it enumerates every non-increasing vector of
    quotas 0..caps[0], one per part, and keeps those with each quota within
    its part's cap.  Non-increasing vectors lose no solutions: caps are
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
        for quotas in combinations_with_replacement(range(caps[0], -1, -1), len(parts)):
            if all(map(operator.le, quotas, caps)):
                ws = sum(quotas[:n])
                best[ws] = max(best[ws], sum(quotas))
    return tuple(best)


def brute_force_rate(params: ProblemParams) -> int:
    """Minimum download found by exhaustive search (small k only): the sweep's entry m."""
    return brute_force_sweep(params.k, params.n)[params.m]


def brute_force_sweep(k: int, n: int) -> list[int]:
    """The minimum download of every budget m = 0..k-n from one exhaustive walk.

    The walk visits every vector, and budget m keeps those with window sum
    at most m.  It runs once per (k, n); each call returns a new list.
    Raises ValueError for an invalid (k, n) or k above ``K_CAP``.
    """
    ProblemParams(k, 0, n)  # validates k and n
    if k > K_CAP:
        raise ValueError(
            f"k={k} exceeds the brute-force cap {K_CAP}; "
            "use the closed form for larger instances"
        )
    return [k - top for top in accumulate(_walk(k, n), max)]


def search_sweep(k: int, n: int) -> list[int]:
    """The minimum download of every budget m = 0..k-n, in one pass over the window sum.

    Same result as :func:`brute_force_sweep`, with no cap on k: each entry
    costs O(1) by the balanced-window and greedy-tail lemmas (module
    docstring).  Raises ValueError for an invalid (k, n).
    """
    ProblemParams(k, 0, n)  # validates k and n
    minima = []
    for w in range(k - n + 1):
        c = w // n  # the balanced window's smallest quota caps the tail
        top = w
        tail_slots = k - w - n * n
        if tail_slots > 0:
            f, rem = divmod(tail_slots, c + n)
            top += f * c + max(0, rem - n)
        minima.append(k - top)
    return minima
