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
   subspace with probability proportional to its remaining free capacity
   (one draw, walked down the blocks' free capacities);
3. for each subspace that received a demand (in subspace order), draw its
   quota of side-information indices uniformly without replacement from
   the side-information indices not yet placed;
4. shuffle all remaining indices (read in ascending order off a mask of
   the indices not yet placed) uniformly and fill the remaining slots in
   subspace order, sorting each subspace in place.

Stage 2's capacity weighting is what makes the final partition's law
independent of which indices were demanded; stages 3 and 4 guarantee
decodability without skewing that law.  The draws and their order are
fixed: ``tests/oracles.reference_draw_layout`` keeps a per-index route to
the same stages, and the tests hold the two to the same layouts and the
same generator state.

``draw_layout`` is the sampler: stages 2-4 on a plan and inputs its caller
has validated.  ``build_layout`` is the validating entry point a round
uses; it checks the client's spec and the plan once, then draws.  The
exact enumeration in the tests walks ``draw_layout`` over every sequence
of draws, and ``privacy.monte_carlo_tvd`` samples it directly against one
plan.

Each condition is checked once, where it enters.  A ``Layout`` does not
re-check the partition ``draw_layout`` drew, and ``mds`` does not re-check
the block shapes and column positions this module hands it: ``make_query``
reads r off ``RatePlan.rows`` and refuses a code over the cap
(``rate.require_code_fits``) or a field too small for the widest block,
``client_decode`` passes positions it enumerated from the block's own
support, and a query that arrives as bytes is held to the same shapes and
the same cap by ``wire.parse_query_bytes``.  An index outside 1..k is
refused by ``require_indices`` alone, wherever it arrives: a client's
spec (``DemandSpec.validate_against``), a database lookup, or a query
block the server reads through ``Database.gather``.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress

from . import mds
from .field import PrimeField, quote, record
from .rate import (
    ProblemParams,
    RatePlan,
    UsageError,
    compute_plan,
    require_admissible,
    require_code_fits,
)


class DemandSpec(record("DemandSpec", "demands side side_values")):
    """What the client wants and what it already holds.

    ``demands`` are the n message indices to retrieve, held sorted as a
    tuple, ``side`` the m indices whose values the client knows, held as a
    frozenset, and ``side_values`` those values (only needed for decoding,
    not for building queries; a fresh empty dict when omitted).  Both index
    collections may be any iterable; each is refused if it repeats an index.
    """

    __slots__ = ()

    def __new__(
        cls, demands: Iterable[int], side: Iterable[int], side_values: Mapping | None = None
    ):
        demands, side = tuple(demands), tuple(side)
        # Exactly int, as PrimeField.check asks of values: True and 5.0 are refused.
        if {*map(type, demands), *map(type, side)} - {int}:
            bad = next(idx for idx in (*demands, *side) if type(idx) is not int)
            raise UsageError(f"index {quote(bad)} is not an int")
        wanted, held = frozenset(demands), frozenset(side)
        if len(wanted) != len(demands):
            raise UsageError("duplicate demand indices")
        if len(held) != len(side):
            raise UsageError("duplicate side-information indices")
        if wanted & held:
            raise UsageError("demand and side-information indices overlap")
        side_values = {} if side_values is None else side_values
        return tuple.__new__(cls, (tuple(sorted(demands)), held, side_values))

    def validate_against(self, params: ProblemParams) -> None:
        """Raise UsageError unless this spec fits the instance: counts and range."""
        if len(self.demands) != params.n:
            raise UsageError(f"expected {params.n} demands, got {len(self.demands)}")
        if len(self.side) != params.m:
            raise UsageError(f"expected {params.m} side indices, got {len(self.side)}")
        k = params.k
        for group in (self.demands, self.side):
            if group and not (min(group) >= 1 and max(group) <= k):
                # Sorted only to name the first bad index, demands first.
                require_indices((*self.demands, *sorted(self.side)), k)


class Layout(namedtuple("Layout", "subspaces plan")):
    """An ordered partition of 1..k into the plan's subspaces.

    Block i holds ``plan.size_profile[i]`` indices in ascending order, and
    the blocks together hold each of 1..k once.  Nothing here checks that:
    the program builds a ``Layout`` only in ``draw_layout``, whose stages
    guarantee it, and a query read from bytes has such supports by
    construction, since it names one block per index
    (``wire.parse_query_bytes``).
    """

    __slots__ = ()


class Query(namedtuple("Query", "blocks field")):
    """Each subspace's request as a ``(support, r)`` pair: its indices and how many coded rows.

    The coefficients are, by definition, the first r rows of the Vandermonde
    matrix with entry (i, j) = (j + 1)**i over the ``len(support)`` members:
    they depend only on the block's shape, so they are never stored or sent.
    Both sides read them from ``mds``'s packed columns, cached per shape.
    On the wire (``wire.query_doc``) the supports travel as one block label
    per index and the r as one list, so a query read from bytes has
    supports that partition 1..k.
    """

    __slots__ = ()

    @property
    def total_rows(self) -> int:
        return sum(r for _, r in self.blocks)


def require_indices(indices: Sequence[int], k: int) -> None:
    """Raise UsageError naming the first index outside 1..k, in the order given."""
    if indices and not (min(indices) >= 1 and max(indices) <= k):
        bad = next(idx for idx in indices if not 1 <= idx <= k)
        raise UsageError(f"index {quote(bad)} outside 1..{k}")


class Database(record("Database", "values field")):
    """k message values over a common prime field; ``db[i]`` is message i, from 1."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int], field: PrimeField):
        return tuple.__new__(cls, (field.check(values), field))

    @property
    def k(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int:
        require_indices((index,), self.k)
        return self.values[index - 1]

    def gather(self, indices: Sequence[int]) -> tuple[int, ...]:
        """The values at ``indices``, in order: one ``min`` pass, then one C-level lookup.

        Refuses as ``__getitem__`` does, naming the first index outside 1..k
        in the order given: an index below 1 fails the ``min``, one above k
        the lookup, and either sends the indices to ``require_indices``.
        Each call pads the values once, O(k), so a reader of many indices
        gathers them in one call.
        """
        if indices and min(indices) >= 1:
            padded = (0,) + self.values  # index i at position i
            try:
                if len(indices) > 1:
                    return operator.itemgetter(*indices)(padded)
                # itemgetter of a single key returns the entry itself, not a 1-tuple
                return tuple(padded[i] for i in indices)
            except IndexError:
                pass
        require_indices(indices, self.k)
        return ()  # reached with no indices only: require_indices raised otherwise


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
    randomness at all: the only layout is all of 1..k.

    The bookkeeping costs one step per block, not per index: stage 2 keeps
    each block's free capacity in ``free`` and walks the draw down it,
    stage 3 visits only the blocks whose ``free`` has dropped below their
    size, and a ``bytearray`` mask over 0..k marks every index placed so
    far, so stage 4 reads the rest off the mask in ascending order and
    fills and sorts each block in place.  The draws, their arguments and
    their order are those of the per-index sampler the tests keep as
    ``tests/oracles.reference_draw_layout``, which pins them.

    The returned ``Layout`` is not re-checked: stage 2 places each demand
    in a block with room, stage 3 pops each side index from the pool once,
    stage 4 fills the free slots with disjoint slices of the rest, and
    every block is sorted on the way out.
    """
    sizes = plan.size_profile
    k = sum(sizes)
    if len(sizes) == 1:
        return Layout((tuple(range(1, k + 1)),), plan)

    draw = rng.randrange
    members: list[list[int]] = [[] for _ in sizes]
    free = list(sizes)
    mask = bytearray([1]) * (k + 1)  # 1 at every index not yet placed
    mask[0] = 0  # no message has index 0

    # Stage 2: place demands by remaining capacity.  Before the j-th
    # placement (from 0) the free capacities sum to k - j, so one uniform
    # draw over that range, less each block's free capacity in turn until
    # it goes negative, selects block u with probability free_u / (k - j).
    for j, idx in enumerate(demands):
        left = draw(k - j)
        u = -1
        while left >= 0:
            u += 1
            left -= free[u]
        free[u] -= 1
        members[u].append(idx)
        mask[idx] = 0

    # Stage 3: commit side information where demands landed.
    pool = sorted(side)
    for block, size, spare, quota in zip(members, sizes, free, plan.side_profile):
        if spare == size:
            continue
        for _ in range(quota):
            pick = pool.pop(draw(len(pool)))
            mask[pick] = 0
            block.append(pick)

    # Stage 4: uniform fill of everything else, in ascending order before the shuffle.
    rest = list(compress(range(k + 1), mask))
    rng.shuffle(rest)
    cursor = 0
    for block, size in zip(members, sizes):
        need = size - len(block)
        block += rest[cursor:cursor + need]
        block.sort()
        cursor += need

    return Layout(tuple(map(tuple, members)), plan)


def make_query(layout: Layout, field: PrimeField) -> Query:
    """Vandermonde query blocks for every subspace, demand-free by design.

    Block i requests the first r_i = size_i - quota_i Vandermonde rows over
    its subspace, r_i read off ``RatePlan.rows``.  The coefficients depend
    only on the block shape and the field, never on the demands, so the
    query reveals nothing beyond the layout itself.  Refuses, as UsageError, a plan whose widest code is over
    ``rate.CODE_ENTRIES_CAP``, and, as ValueError, a field too small for
    the widest block.
    """
    plan = layout.plan
    rows = plan.rows
    require_code_fits(rows, plan.size_profile)
    biggest = max(plan.size_profile)
    if field.p <= biggest:
        raise ValueError(
            f"field too small: subspace of size {biggest} needs p > {biggest}, got {field.p}"
        )
    return Query(tuple(zip(layout.subspaces, rows)), field)


def server_answer(query: Query, db: Database) -> tuple[tuple[int, ...], ...]:
    """Evaluate each block's coded combinations over the database, one tuple per block.

    This function sees only the query and the database; it has no access to
    demand or side-information structure, mirroring the server's view.
    Raises ValueError if the query's modulus is not the database's,
    UsageError (a ValueError) if a block names an index outside 1..k, as
    ``Database.gather`` refuses it, and ValueError if the query's supports
    do not hold k indices in all: a parsed query's labels number db.k.
    """
    if query.field.p != db.field.p:
        raise ValueError(f"incompatible moduli: {query.field.p} vs {db.field.p}")
    # One gather for the whole query, split back into blocks, pads the database once.
    values = db.gather(tuple(chain.from_iterable(support for support, _ in query.blocks)))
    if len(values) != db.k:
        raise ValueError(f"query covers {len(values)} indices, the database holds {db.k}")
    answer, start = [], 0
    for support, r in query.blocks:
        answer.append(tuple(mds.encode(r, values[start:start + len(support)], query.field)))
        start += len(support)
    return tuple(answer)


def client_decode(
    query: Query, answer: tuple[tuple[int, ...], ...], spec: DemandSpec
) -> dict[int, int]:
    """Solve every demand-bearing block using held side information.

    ``answer`` holds each query block's coded symbols, in block order.
    Returns a map from demanded index to its recovered value.  Raises if an
    answer block's length is not its r, if a block serving a demand holds
    too few known side values for its r symbols (``mds.solve_vandermonde``'s
    insufficient side information: the retrieval condition), if a held
    value it needs is not an int in [0, p), or if its coded symbols are
    inconsistent with the held side information.
    """
    if len(answer) != len(query.blocks):
        raise ValueError("answer block count differs from query")
    wanted = set(spec.demands)
    side, side_values = spec.side, spec.side_values
    recovered: dict[int, int] = {}
    for (support, r), coded in zip(query.blocks, answer):
        if len(coded) != r:
            raise ValueError(f"expected {r} coded symbols, got {len(coded)}")
        if wanted.isdisjoint(support):
            continue
        demand_positions = [p for p, idx in enumerate(support) if idx in wanted]
        try:
            known = {p: side_values[idx] for p, idx in enumerate(support) if idx in side}
        except KeyError:
            bad = next(idx for idx in support if idx in side and idx not in side_values)
            raise ValueError(f"missing side-information value for index {bad}") from None
        query.field.check(known.values())  # the packed subtraction needs field elements
        values = mds.solve_vandermonde(coded, len(support), known, demand_positions, query.field)
        for p, value in zip(demand_positions, values):
            recovered[support[p]] = value
    missing = wanted - recovered.keys()
    if missing:
        raise ValueError(f"demands {sorted(missing)} absent from every query block")
    return recovered


class RoundResult(
    namedtuple(
        "RoundResult",
        "layout query answer decoded query_bytes answer_bytes",
        defaults=(None, None),
    )
):
    """Everything produced by one full query/answer/decode round.

    ``answer`` holds the coded symbols, one tuple per query block, and
    ``decoded`` maps each demanded index to its value.  A round run over
    bytes (``wire.simulate_round``) also records the canonical query bytes
    it sent and the answer bytes it received; a round assembled from its
    parts leaves them ``None``.
    """

    __slots__ = ()
