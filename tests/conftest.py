"""Shared fixtures: one fully worked (13, 5, 2) retrieval round.

The client demands messages 2 and 5 while holding 1, 4, 6, 7 and 9, the
partition puts {1,2,4,6,8} / {3,10,11,13} / {5,7,9,12} into the three
planned subspaces, and arithmetic is over GF(13).  Several tests pin their
expectations to this instance, so it lives in one place.
"""

import pytest

from pirsi import Database, DemandSpec, Layout, PrimeField, ProblemParams, compute_plan, draw_layout

WORKED_K = 13
WORKED_DEMANDS = (2, 5)
WORKED_SIDE = (1, 4, 6, 7, 9)
WORKED_BLOCKS = ((1, 2, 4, 6, 8), (3, 10, 11, 13), (5, 7, 9, 12))
# Message values; 1, 2, 4, 6, 8 are the ones the narrative fixes.
WORKED_VALUES = {1: 3, 2: 7, 3: 1, 4: 2, 5: 9, 6: 5, 7: 4, 8: 11, 9: 6, 10: 0, 11: 8, 12: 12, 13: 10}


@pytest.fixture
def gf13():
    return PrimeField(13)


@pytest.fixture
def worked_params():
    return ProblemParams(k=13, m=5, n=2)


@pytest.fixture
def worked_layout(worked_params):
    return Layout(WORKED_BLOCKS, compute_plan(worked_params))


@pytest.fixture
def worked_db(gf13):
    values = tuple(gf13.element(WORKED_VALUES[i]) for i in range(1, WORKED_K + 1))
    return Database(values, gf13)


@pytest.fixture
def worked_spec(worked_db):
    return DemandSpec(
        demands=WORKED_DEMANDS,
        side=frozenset(WORKED_SIDE),
        side_values={i: worked_db[i] for i in WORKED_SIDE},
    )


def leaky_draw_layout(plan, demands, side, rng):
    """The real sampler, then every demand it can is swapped into the earliest block.

    Each demand outside block 0 trades places with a non-demand of block 0
    while block 0 has one, so the layout's law depends on the demands.  It
    has ``draw_layout``'s signature, so the exact enumeration, ``privacy-mc``
    and the CLI all take it at the same seam.
    """
    layout = draw_layout(plan, demands, side, rng)
    first, *rest = [list(block) for block in layout.subspaces]
    for block in rest:
        for pos, idx in enumerate(block):
            trade = next((i for i in first if i not in demands), None)
            if idx in demands and trade is not None:
                first[first.index(trade)], block[pos] = idx, trade
    return Layout(tuple(tuple(sorted(block)) for block in [first, *rest]), layout.plan)
