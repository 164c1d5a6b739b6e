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

``compute_plan`` returns that profile together with the minimum download
``r_star``; ``is_trivial_optimal`` decides when no partitioning can beat the
single-subspace plan that just downloads ``k - m`` coded symbols.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProblemParams:
    """Instance parameters: k messages total, m held, n demanded."""

    k: int
    m: int
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.n + self.m > self.k:
            raise ValueError(
                f"demands plus side information exceed database: n={self.n}, m={self.m}, k={self.k}"
            )


@dataclass(frozen=True)
class RatePlan:
    """An optimal partition profile and its download cost.

    m_bar is the per-demand side-information quota floor(m / n) and t the
    leftover m - n * m_bar.  size_profile lists the l_star subspace sizes in
    the order they are transmitted; side_profile lists how many
    side-information messages each subspace absorbs when it serves a demand.
    r_star is the total number of downloaded coded symbols; trivial flags
    plans whose cost equals the download-everything-unknown bound k - m.
    """

    m_bar: int
    t: int
    l_star: int
    size_profile: tuple[int, ...]
    side_profile: tuple[int, ...]
    r_star: int
    trivial: bool

    def __post_init__(self):
        if len(self.size_profile) != self.l_star or len(self.side_profile) != self.l_star:
            raise ValueError("profile lengths must equal l_star")
        if self.r_star != sum(self.size_profile) - sum(self.side_profile):
            raise ValueError("r_star inconsistent with profiles")


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
        return RatePlan(
            m_bar=m_bar,
            t=t,
            l_star=1,
            size_profile=(k,),
            side_profile=(m,),
            r_star=k - m,
            trivial=True,
        )

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
    # Integer-product form of the closed-form cost; the final term is the
    # clipped size excess of the remainder subspace.
    r_star = (
        k
        - m
        - max(l_formula - 1 - n, 0) * m_bar
        - max(k - (l_formula - 1) * (m_bar + n) - t - n, 0)
    )
    return RatePlan(
        m_bar=m_bar,
        t=t,
        l_star=l_formula,
        size_profile=sizes,
        side_profile=side,
        r_star=r_star,
        trivial=(r_star == k - m),
    )


def is_trivial_optimal(params: ProblemParams) -> bool:
    """True when the single-subspace plan is already optimal.

    That happens exactly when the user demands more than it holds
    (n > m) or when the database is small relative to the demand count
    (n**2 + n >= k - m).
    """
    k, m, n = params.k, params.m, params.n
    return n > m or n * n + n >= k - m
