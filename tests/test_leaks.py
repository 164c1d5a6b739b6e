"""The privacy verifiers' known blind spots: three leaky samplers that both pass today.

Each leak wraps ``scheme.draw_layout``, so no sampler code is copied, and is
patched in at ``pirsi.scheme.draw_layout``, the seam through which
``privacy-mc``, ``privacy-exact`` and ``simulate`` all draw:

* **glue**: the honest draw, then w1 + 1 swapped into the block of w1, the
  smallest demand, in exchange for a member that is neither a demand nor a
  side index;
* **no-shuffle**: a generator whose ``shuffle`` does nothing, so stage 4
  fills the blocks in ascending order;
* **first-side**: a generator that passes the first n ``randrange`` calls
  through (stage 2's demand placements) and returns 0 after them, so stage 3
  takes the smallest side index left.

``test_each_leak_moves_a_pair_with_the_demands`` shows that each is a leak:
how often some pair of indices shares a block differs between two demand
sets, far past the honest sampler's spread.  ``privacy-mc`` counts only
where the demands land, and ``privacy-exact`` reads only the plan, so
``test_the_verifiers_pass_every_leak_today`` pins their verdicts as they
are.  Each verdict names the ROADMAP item that must flip it: item 2 (pair
co-location cells) for ``privacy-mc``, item 3 (a sampler verdict) for
``privacy-exact``.  The change that lands the item makes that verdict a
refusal here.
"""

import json
import random
from itertools import combinations

import pytest

from pirsi import Layout, ProblemParams, compute_plan
from pirsi.cli import main
from pirsi.scheme import draw_layout


def glue(plan, demands, side, rng):
    layout = draw_layout(plan, demands, side, rng)
    blocks = [list(block) for block in layout.subspaces]
    mate = demands[0] + 1
    home = next(block for block in blocks if demands[0] in block)
    held = {*demands, *side}
    out = next((i for i in home if i not in held), None)
    if mate in home or mate > sum(plan.size_profile) or out is None:
        return layout
    away = next(block for block in blocks if mate in block)
    home[home.index(out)], away[away.index(mate)] = mate, out
    return Layout(tuple(tuple(sorted(block)) for block in blocks), layout.plan)


class _NoShuffle:
    def __init__(self, rng):
        self.randrange = rng.randrange

    def shuffle(self, items):
        pass


def no_shuffle(plan, demands, side, rng):
    return draw_layout(plan, demands, side, _NoShuffle(rng))


class _FirstSide:
    def __init__(self, rng, passed):
        self.rng, self.passed = rng, passed
        self.shuffle = rng.shuffle

    def randrange(self, stop):
        if not self.passed:
            return 0
        self.passed -= 1
        return self.rng.randrange(stop)


def first_side(plan, demands, side, rng):
    return draw_layout(plan, demands, side, _FirstSide(rng, len(demands)))


# (13, 5, 2) with the demand sets (1, 4) and (7, 10), as ROADMAP items 2 and 13 measure them.
PARAMS = ProblemParams(13, 5, 2)
DEMAND_SETS = ((1, 4), (7, 10))
SAMPLERS = {"honest": draw_layout, "glue": glue, "no-shuffle": no_shuffle, "first-side": first_side}


def colocation_gap(sampler, draws=2000, seed=2):
    """The largest difference, over every pair of indices, between how often the two demand sets put it in one block."""
    plan = compute_plan(PARAMS)
    rates = []
    for demands in DEMAND_SETS:
        rng = random.Random(seed)
        rest = [i for i in range(1, PARAMS.k + 1) if i not in demands]
        together = dict.fromkeys(combinations(range(1, PARAMS.k + 1), 2), 0)
        for _ in range(draws):
            for block in sampler(plan, demands, rng.sample(rest, PARAMS.m), rng).subspaces:
                for pair in combinations(block, 2):
                    together[pair] += 1
        rates.append({pair: count / draws for pair, count in together.items()})
    return max(abs(rates[0][pair] - rates[1][pair]) for pair in rates[0])


def test_each_leak_moves_a_pair_with_the_demands():
    gaps = {name: round(colocation_gap(sampler), 3) for name, sampler in SAMPLERS.items()}
    assert gaps["honest"] < 0.06, gaps
    assert all(gap > 0.1 for name, gap in gaps.items() if name != "honest"), gaps


# privacy-mc's worst |z| at 4,000 trials and seed 1, against its threshold of 5.29.
# Glue moves no demand, so it reads what the honest sampler reads.
PRIVACY_MC_MAX_Z = {"honest": 1.89, "glue": 1.89, "no-shuffle": 1.84, "first-side": 2.28}


@pytest.mark.parametrize("name", SAMPLERS)
def test_the_verifiers_pass_every_leak_today(capsys, monkeypatch, name):
    monkeypatch.setattr("pirsi.scheme.draw_layout", SAMPLERS[name])
    instance = ["--k", "13", "--m", "5", "--n", "2"]
    # privacy-mc: undetected until item 2.
    code = main(["privacy-mc", *instance, "--wa", "1,4", "--wb", "7,10", "--trials", "4000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["consistent"], round(report["threshold"], 2)) == (0, True, 5.29)
    assert round(report["max_z"], 2) == PRIVACY_MC_MAX_Z[name]
    # privacy-exact: undetected until item 3.
    code = main(["privacy-exact", *instance, "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["uniform"]) == (0, True)
