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
plan that cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class UsageError(ValueError):
    """The caller's arguments do not describe a valid request.

    Raised where such a refusal is detected (parameters, demand and side
    indices, counts); ``cli.main`` exits 2 on it and 1 on any other ValueError.
    """


@dataclass(frozen=True)
class ProblemParams:
    """Instance parameters: k messages total, m held, n demanded."""

    k: int
    m: int
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise UsageError(f"k must be positive, got {self.k}")
        if self.n < 1:
            raise UsageError(f"n must be positive, got {self.n}")
        if self.m < 0:
            raise UsageError(f"m must be nonnegative, got {self.m}")
        if self.n + self.m > self.k:
            raise UsageError(
                f"demands plus side information exceed database: n={self.n}, m={self.m}, k={self.k}"
            )


@dataclass(frozen=True)
class RatePlan:
    """An optimal partition profile; its subspace count and cost are read off it.

    m_bar is the per-demand side-information quota floor(m / n) and t the
    leftover m - n * m_bar.  size_profile lists the subspace sizes in the
    order they are transmitted; side_profile lists how many side-information
    messages each subspace absorbs when it serves a demand.  trivial flags
    plans whose cost equals the download-everything-unknown bound k - m.
    """

    m_bar: int
    t: int
    size_profile: tuple[int, ...]
    side_profile: tuple[int, ...]
    trivial: bool

    @property
    def l_star(self) -> int:
        """The number of subspaces."""
        return len(self.size_profile)

    @property
    def r_star(self) -> int:
        """The total number of downloaded coded symbols."""
        return sum(self.size_profile) - sum(self.side_profile)


def quota_cap(size: int, n_demands: int) -> int:
    """Most side-information messages a subspace of the given size can absorb."""
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

    if l_formula <= n:
        return RatePlan(m_bar=m_bar, t=t, size_profile=(k,), side_profile=(m,), trivial=True)

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
    return RatePlan(m_bar=m_bar, t=t, size_profile=sizes, side_profile=side, trivial=sum(side) == m)
