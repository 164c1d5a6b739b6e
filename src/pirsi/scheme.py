"""Randomized partition-and-MDS retrieval scheme.

One round works as follows.  The client partitions the message indices
1..k into the subspaces prescribed by the closed-form plan, using private
randomness so that the partition's distribution is identical for every
possible demand set (that is what hides the demands).  It then asks the
server for MDS-coded combinations of each subspace: a subspace of size
``size`` with side-information quota ``quota`` is queried with the first
``size - quota`` rows of a deterministic Vandermonde matrix.  The server
evaluates those combinations over the database and returns them.  Every
demanded message lands in some subspace together with at least ``quota``
messages the client already holds, so the missing coordinates can be
solved exactly.

The partition is drawn in four stages:

1. create empty subspaces with the plan's sizes;
2. walk the demanded indices in ascending order, dropping each into a
   subspace with probability proportional to its remaining free capacity;
3. for each subspace that received a demand (in subspace order), draw its
   quota of side-information indices uniformly without replacement from
   the side-information indices not yet placed;
4. shuffle all remaining indices uniformly and fill the remaining slots in
   subspace order.

Stage 2's capacity weighting is what makes the final partition's law
independent of which indices were demanded; stages 3 and 4 guarantee
decodability without skewing that law.

``draw_layout`` is the sampler: stages 2-4 on a plan and inputs its caller
has validated.  ``build_layout`` is the validating entry point a round
uses; it checks the client's spec and the plan once, then draws.  The
exact enumeration in the tests walks ``draw_layout`` over every sequence
of draws, and ``privacy.monte_carlo_tvd`` samples it directly against one
plan.

Each condition is checked once, where it enters.  A ``Layout`` does not
re-check the partition ``draw_layout`` drew, and ``mds`` does not re-check
the block shapes and column positions this module hands it: ``make_query``
refuses a field too small for the widest block and sets r = size - quota,
``client_decode`` passes positions it enumerated from the block's own
support, and a query that arrives as bytes is held to the same shapes by
``wire.parse_query_doc``.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping, Sequence

from . import mds
from .field import PrimeField
from .rate import ProblemParams, RatePlan, UsageError, compute_plan, require_admissible


@dataclass(frozen=True)
class DemandSpec:
    """What the client wants and what it already holds.

    ``demands`` are the n message indices to retrieve, ``side`` the m
    indices whose values the client knows, ``side_values`` those values
    (only needed for decoding, not for building queries).
    """

    demands: tuple[int, ...]
    side: frozenset[int]
    side_values: Mapping[int, int] = dc_field(default_factory=dict)

    def __post_init__(self):
        demands, side = tuple(self.demands), frozenset(self.side)
        # Exactly int, as PrimeField.check asks of values: True and 5.0 are refused.
        if {*map(type, demands), *map(type, side)} - {int}:
            bad = next(idx for idx in (*demands, *side) if type(idx) is not int)
            raise UsageError(f"index {bad!r} is not an int")
        object.__setattr__(self, "demands", tuple(sorted(demands)))
        object.__setattr__(self, "side", side)
        if len(set(self.demands)) != len(self.demands):
            raise UsageError("duplicate demand indices")
        if set(self.demands) & self.side:
            raise UsageError("demand and side-information indices overlap")

    def validate_against(self, params: ProblemParams) -> None:
        """Raise UsageError unless this spec fits the instance: counts and range."""
        if len(self.demands) != params.n:
            raise UsageError(f"expected {params.n} demands, got {len(self.demands)}")
        if len(self.side) != params.m:
            raise UsageError(f"expected {params.m} side indices, got {len(self.side)}")
        for idx in list(self.demands) + sorted(self.side):
            if not 1 <= idx <= params.k:
                raise UsageError(f"index {idx} outside 1..{params.k}")


@dataclass(frozen=True)
class Layout:
    """An ordered partition of 1..k into the plan's subspaces.

    Block i holds ``plan.size_profile[i]`` indices in ascending order, and
    the blocks together hold each of 1..k once.  Nothing here checks that:
    the program builds a ``Layout`` only in ``draw_layout``, whose stages
    guarantee it, and the server's query parse refuses supports that are
    unsorted or overlap.
    """

    subspaces: tuple[tuple[int, ...], ...]
    plan: RatePlan


@dataclass(frozen=True)
class QueryBlock:
    """One subspace's request: its indices and how many coded rows of them.

    The coefficients are, by definition, ``mds.vandermonde(r, len(support),
    field)``: they depend only on the block's shape, so they are never stored
    or sent.
    """

    support: tuple[int, ...]
    r: int


@dataclass(frozen=True)
class Query:
    blocks: tuple[QueryBlock, ...]
    field: PrimeField

    @property
    def total_rows(self) -> int:
        return sum(b.r for b in self.blocks)


@dataclass(frozen=True)
class Answer:
    """The server's coded symbols, one vector per query block."""

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Database:
    """k message values over a common prime field, indexed from 1."""

    values: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(self, "values", self.field.check(self.values))

    @property
    def k(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int:
        if not 1 <= index <= len(self.values):
            raise UsageError(f"index {index} outside 1..{len(self.values)}")
        return self.values[index - 1]


def build_layout(params: ProblemParams, spec: DemandSpec, rng: random.Random) -> Layout:
    """Draw a demand-hiding partition of 1..k for this client's spec.

    The validating entry point: checks the spec against the instance,
    computes the plan and refuses one that cannot serve every demand set
    (``rate.require_admissible``), then hands the draw to ``draw_layout``.
    """
    spec.validate_against(params)
    plan = compute_plan(params)
    require_admissible(params, plan)
    return draw_layout(plan, spec.demands, spec.side, rng)


def draw_layout(
    plan: RatePlan, demands: Sequence[int], side: Iterable[int], rng: random.Random
) -> Layout:
    """The sampler: stages 2-4 for inputs the caller has already validated.

    ``demands`` are n distinct indices in ascending order and ``side`` m
    further indices, all in 1..k, on a plan that admits every demand set.
    Consumes randomness in a fixed order (demand placements, then
    side-information draws, then the fill shuffle) so a seeded generator
    reproduces the layout exactly.  Single-subspace plans consume no
    randomness at all: the only layout is all of 1..k.  The returned
    ``Layout`` is not re-checked: stage 2 places each demand in a block
    with room, stage 3 pops each side index from the pool once, stage 4
    fills the free slots with disjoint slices of the rest, and every block
    is sorted on the way out.
    """
    k = sum(plan.size_profile)
    if plan.l_star == 1:
        return Layout((tuple(range(1, k + 1)),), plan)

    count = plan.l_star
    members: list[list[int]] = [[] for _ in range(count)]
    demand_count = [0] * count

    # Stage 2: place demands by remaining capacity.  Before the j-th
    # placement the free capacities sum to k - j + 1, so a single uniform
    # draw over that range, walked through the cumulative capacities,
    # selects subspace u with probability (size_u - placed_u) / (k - j + 1).
    for j, idx in enumerate(demands, start=1):
        draw = rng.randrange(k - j + 1)
        acc = 0
        chosen = -1
        for u in range(count):
            acc += plan.size_profile[u] - demand_count[u]
            if draw < acc:
                chosen = u
                break
        members[chosen].append(idx)
        demand_count[chosen] += 1

    # Stage 3: commit side information where demands landed.
    pool = sorted(side)
    for i in range(count):
        if demand_count[i] == 0:
            continue
        for _ in range(plan.side_profile[i]):
            members[i].append(pool.pop(rng.randrange(len(pool))))

    # Stage 4: uniform fill of everything else.
    placed = {idx for block in members for idx in block}
    remaining = [idx for idx in range(1, k + 1) if idx not in placed]
    rng.shuffle(remaining)
    cursor = 0
    for i in range(count):
        need = plan.size_profile[i] - len(members[i])
        members[i].extend(remaining[cursor:cursor + need])
        cursor += need

    return Layout(tuple(tuple(sorted(block)) for block in members), plan)


def make_query(layout: Layout, field: PrimeField) -> Query:
    """Vandermonde query blocks for every subspace, demand-free by design.

    Block i requests the first size_i - quota_i Vandermonde rows over its
    subspace.  The coefficients depend only on the block shape and the
    field, never on the demands, so the query reveals nothing beyond the
    layout itself.
    """
    plan = layout.plan
    biggest = max(plan.size_profile)
    if field.p <= biggest:
        raise ValueError(
            f"field too small: subspace of size {biggest} needs p > {biggest}, got {field.p}"
        )
    blocks = tuple(
        QueryBlock(block, size - quota)
        for block, size, quota in zip(layout.subspaces, plan.size_profile, plan.side_profile)
    )
    return Query(blocks, field)


def server_answer(query: Query, db: Database) -> Answer:
    """Evaluate each block's coded combinations over the database.

    This function sees only the query and the database; it has no access to
    demand or side-information structure, mirroring the server's view.
    Raises ValueError if the query's modulus is not the database's or if a
    block names an index outside 1..k.
    """
    if query.field.p != db.field.p:
        raise ValueError(f"incompatible moduli: {query.field.p} vs {db.field.p}")
    k = db.k
    padded = (0,) + db.values  # index i at position i; 0 and below are refused first
    out = []
    for block in query.blocks:
        support = block.support
        if support and not (min(support) >= 1 and max(support) <= k):
            bad = next(idx for idx in support if not 1 <= idx <= k)
            raise ValueError(f"index {bad} outside 1..{k}")
        if len(support) > 1:
            values = operator.itemgetter(*support)(padded)
        else:  # itemgetter of a single key returns the entry itself, not a 1-tuple
            values = [padded[i] for i in support]
        rows = mds.vandermonde(block.r, len(support), query.field)
        out.append(tuple(mds.encode(rows, values, query.field.p)))
    return Answer(tuple(out))


def client_decode(query: Query, answer: Answer, spec: DemandSpec) -> dict[int, int]:
    """Solve every demand-bearing block using held side information.

    Returns a map from demanded index to its recovered value.  Raises if an
    answer block's length is not its r, if a block serving a demand holds
    too few known side values for its r symbols (``mds.solve_vandermonde``'s
    insufficient side information: the retrieval condition), or if its
    coded symbols are inconsistent with the held side information.
    """
    if len(answer.blocks) != len(query.blocks):
        raise ValueError("answer block count differs from query")
    wanted = set(spec.demands)
    recovered: dict[int, int] = {}
    for block, coded in zip(query.blocks, answer.blocks):
        if len(coded) != block.r:
            raise ValueError(f"expected {block.r} coded symbols, got {len(coded)}")
        support = block.support
        if wanted.isdisjoint(support):
            continue
        demand_positions = [p for p, idx in enumerate(support) if idx in wanted]
        known: dict[int, int] = {}
        for p, idx in enumerate(support):
            if idx in spec.side:
                try:
                    known[p] = spec.side_values[idx]
                except KeyError:
                    raise ValueError(f"missing side-information value for index {idx}") from None
        values = mds.solve_vandermonde(coded, len(support), known, demand_positions, query.field)
        for p, value in zip(demand_positions, values):
            recovered[support[p]] = value
    missing = wanted - recovered.keys()
    if missing:
        raise ValueError(f"demands {sorted(missing)} absent from every query block")
    return recovered


@dataclass(frozen=True)
class RoundResult:
    """Everything produced by one full query/answer/decode round."""

    layout: Layout
    query: Query
    answer: Answer
    decoded: dict[int, int]
