"""Closed-form minimum download for multi-message retrieval with side information.

Setting: a database of ``k`` equal-length messages sits on one server.  The
user already holds ``m`` of them (side information) and wants ``n`` more,
without revealing which ``n``.  The server's answer is a sequence of coded
symbols; the figure of merit is how many symbols must be downloaded.

The optimum is achieved by partitioning the message indices into disjoint
coding subspaces and MDS-coding each one.  A subspace of size ``size`` in
which the user can commit ``quota`` side-information messages costs
``size - quota`` downloaded symbols (or ``size`` when the subspace is no
larger than the demand count, in which case everything must be fetched).
The best plan uses ``l_star`` subspaces whose sizes and side-information
quotas follow a near-uniform profile computed here in closed form.

``compute_plan`` returns that profile and flags the plans where no
partitioning beats the single-subspace plan that just downloads ``k - m``
coded symbols.  The minimum download ``r_star`` is read off the profile
(total size less total quota), so a plan's cost has one source; the
paper's closed-form expression for it is checked against the profile in
the tests.  ``admits_every_demand_set`` decides whether a profile can
serve, and so hide, every demand set; ``require_admissible`` refuses a
plan that cannot.  ``ProblemParams`` refuses k above ``INSTANCE_K_CAP``.
``require_code_fits`` refuses block shapes whose widest r x s code is
over ``CODE_ENTRIES_CAP``: a query's, in ``wire.parse_query_bytes``, and
a plan's (r read off ``RatePlan.rows``, the one place r = size - quota is
taken), in ``pirsi simulate`` before it opens a database.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .field import quote, record

INSTANCE_K_CAP = 1_000_000  # the plan alone holds a profile about k / (m_bar + n) long
# The widest block's r x s code a round may build (``require_code_fits``).  Both
# sides cache the code per shape, so a one-block round's memory grows with
# r * s: at p = 2**31 - 1 one `pirsi simulate` peaked at 79 MB with
# r * s = 968,000, 144 MB with 1,945,664 and 270 MB with 3,910,000 (3.0 s).
# Partitioned plans stay below 2 * k; one-block plans reach k**2.
CODE_ENTRIES_CAP = 1 << 22


class UsageError(ValueError):
    """The caller's arguments do not describe a valid request.

    Raised where such a refusal is detected (parameters, demand and side
    indices, counts); ``cli.main`` exits 2 on it and 1 on any other ValueError.
    """


class ProblemParams(record("ProblemParams", "k m n")):
    """Instance parameters: k messages total, m held, n demanded; k <= ``INSTANCE_K_CAP``."""

    __slots__ = ()

    def __new__(cls, k: int, m: int, n: int):
        # Exactly int, as DemandSpec asks of indices: True and 13.0 are refused.
        if not type(k) is type(m) is type(n) is int:
            name, value = next(p for p in zip(cls._fields, (k, m, n)) if type(p[1]) is not int)
            raise UsageError(f"{name} must be an int, got {quote(value)}")
        if k > INSTANCE_K_CAP:
            raise UsageError(f"k must be at most {INSTANCE_K_CAP}, got {quote(k)}")
        if k < 1:
            raise UsageError(f"k must be positive, got {quote(k)}")
        if n < 1:
            raise UsageError(f"n must be positive, got {quote(n)}")
        if m < 0:
            raise UsageError(f"m must be nonnegative, got {quote(m)}")
        if n + m > k:
            raise UsageError(
                "demands plus side information exceed database: "
                f"n={quote(n)}, m={quote(m)}, k={k}"
            )
        return tuple.__new__(cls, (k, m, n))


class RatePlan(namedtuple("RatePlan", "m_bar t size_profile side_profile trivial")):
    """An optimal partition profile; its subspace count and cost are read off it.

    m_bar is the per-demand side-information quota floor(m / n) and t the
    leftover m - n * m_bar.  size_profile lists the subspace sizes in the
    order they are transmitted; side_profile lists how many side-information
    messages each subspace absorbs when it serves a demand.  trivial flags
    plans whose cost equals the download-everything-unknown bound k - m.
    """

    __slots__ = ()

    @property
    def l_star(self) -> int:
        """The number of subspaces."""
        return len(self.size_profile)

    @property
    def rows(self) -> tuple[int, ...]:
        """Each subspace's coded row count r = size - quota, in transmission order."""
        return tuple(map(operator.sub, self.size_profile, self.side_profile))

    @property
    def r_star(self) -> int:
        """The total number of downloaded coded symbols."""
        return sum(self.size_profile) - sum(self.side_profile)


def quota_cap(size: int, n_demands: int) -> int:
    """Most side-information messages a subspace of the given size can absorb.

    The admit rule and the exhaustive walk in :mod:`pirsi.oracle` read it;
    the oracle's plan check reads the cap on its own.
    """
    return max(size - n_demands, 0)


def admits_every_demand_set(
    params: ProblemParams, sizes: Sequence[int], quotas: Sequence[int]
) -> bool:
    """True when blocks of these sizes and side quotas can serve every demand set.

    A demand set is served when each block holding d of its demands keeps
    size - d >= quota free slots, and the quotas of the blocks holding
    demands sum to at most m.  A block can hold min(size, n) demands, and
    any min(n, len) blocks can hold one each, so every set is served iff
    each quota is in 0..quota_cap(size, n) (the cap) and the min(n, len)
    largest quotas sum to at most m (the window).  O(len log len) to decide.

    >>> admits_every_demand_set(ProblemParams(13, 5, 2), (5, 4, 4), (3, 2, 2))
    True
    >>> admits_every_demand_set(ProblemParams(8, 3, 2), (4, 4), (2, 2))  # window 4 > 3
    False
    """
    n = params.n
    return (
        all(0 <= q <= quota_cap(s, n) for s, q in zip(sizes, quotas))
        and sum(sorted(quotas, reverse=True)[:n]) <= params.m
    )


def require_admissible(params: ProblemParams, plan: RatePlan) -> None:
    """Raise ValueError, naming the plan, unless it admits every demand set."""
    if not admits_every_demand_set(params, plan.size_profile, plan.side_profile):
        raise ValueError(
            f"plan with sizes {plan.size_profile} and quotas {plan.side_profile} cannot "
            f"hide every demand set at m={params.m}, n={params.n}"
        )


def require_code_fits(rows: Iterable[int], sizes: Iterable[int]) -> None:
    """Raise UsageError unless the widest block's code, r * s entries, is within ``CODE_ENTRIES_CAP``.

    ``rows`` and ``sizes`` give each block's r and s.  ``wire.parse_query_bytes``
    asks it of the shapes a query document names, before any code is built;
    ``pirsi simulate`` of a plan's ``rows`` and ``size_profile``, before it
    reads a database.
    """
    widest = max(map(operator.mul, rows, sizes))
    if widest > CODE_ENTRIES_CAP:
        raise UsageError(
            f"the widest block's code has r * s = {widest} entries, "
            f"over the cap of {CODE_ENTRIES_CAP} one round may build"
        )


def compute_plan(params: ProblemParams) -> RatePlan:
    """Closed-form optimal plan for the given instance.

    When the subspace-count formula gives at most n subspaces, no partition
    beats the single full-size subspace, so that plan is returned directly.
    Otherwise the profile packs t subspaces of size m_bar + n + 1 (each
    absorbing m_bar + 1 side messages), then mid-size subspaces of
    m_bar + n (absorbing m_bar), and a final remainder subspace.
    """
    k, m, n = params.k, params.m, params.n
    m_bar = m // n
    t = m - n * m_bar
    # Subspace count: ceil((k - t) / (m_bar + n)).
    l_formula = -(-(k - t) // (m_bar + n))

    # tuple.__new__, as the validated records build theirs: RatePlan's
    # generated __new__ is one more frame for each of the oracle sweep's
    # millions of plans, and the fields here are right by construction.
    if l_formula <= n:
        return tuple.__new__(RatePlan, (m_bar, t, (k,), (m,), True))

    last_size = k - (l_formula - 1) * (m_bar + n) - t
    sizes = (
        (m_bar + n + 1,) * t
        + (m_bar + n,) * (l_formula - 1 - t)
        + (last_size,)
    )
    side = (
        (m_bar + 1,) * t
        + (m_bar,) * (l_formula - 1 - t)
        + (max(last_size - n, 0),)
    )
    # The sizes sum to k, so the cost equals k - m exactly when the quotas sum to m.
    return tuple.__new__(RatePlan, (m_bar, t, sizes, side, sum(side) == m))
