"""The randomized construction: layout validity, queries, and full rounds."""

import random
from fractions import Fraction

import pytest

from pirsi import (
    Answer,
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    Query,
    QueryBlock,
    UsageError,
    build_layout,
    client_decode,
    compute_plan,
    draw_layout,
    make_query,
    server_answer,
    simulate_round,
)
from conftest import WORKED_SIDE, WORKED_VALUES
from oracles import enumerate_randomness


def random_db(params, field, rng):
    return Database(tuple(field.element(rng.randrange(field.p)) for _ in range(params.k)), field)


def random_spec(params, db, rng):
    demands = tuple(sorted(rng.sample(range(1, params.k + 1), params.n)))
    rest = [i for i in range(1, params.k + 1) if i not in demands]
    side = frozenset(rng.sample(rest, params.m))
    return DemandSpec(demands, side, {i: db[i] for i in side})


def test_demand_spec_validation():
    with pytest.raises(UsageError, match="overlap"):
        DemandSpec((1, 2), frozenset({2, 3}))
    with pytest.raises(UsageError, match="duplicate"):
        DemandSpec((1, 1), frozenset())
    spec = DemandSpec((3, 1), frozenset({2}))
    assert spec.demands == (1, 3)  # stored ascending
    params = ProblemParams(k=4, m=1, n=2)
    spec.validate_against(params)
    with pytest.raises(UsageError, match="expected 2 demands"):
        DemandSpec((1,), frozenset({2})).validate_against(params)
    with pytest.raises(UsageError, match="outside"):
        DemandSpec((1, 9), frozenset({2})).validate_against(params)


def test_demand_spec_refuses_indices_that_are_not_ints():
    # Exactly int: True would be read as index 1, and 5.0 would pass every
    # range check and reach the server's parse.
    for demands, side, bad in (
        ((True, 5), {3, 4, 6, 7, 9}, "True"),
        ((2, 5.0), set(), "5.0"),
        ((2, 5), {1, 3.0, 4}, "3.0"),
    ):
        with pytest.raises(UsageError, match=f"^index {bad} is not an int$"):
            DemandSpec(demands, frozenset(side))


def test_build_layout_is_seed_deterministic():
    params = ProblemParams(k=13, m=5, n=2)
    spec = DemandSpec((2, 5), frozenset(WORKED_SIDE))
    first = build_layout(params, spec, random.Random(42))
    second = build_layout(params, spec, random.Random(42))
    assert first == second
    layouts = {build_layout(params, spec, random.Random(s)).subspaces for s in range(30)}
    assert len(layouts) > 1  # the construction genuinely randomizes


def test_build_layout_draws_what_draw_layout_draws():
    # The validating entry point adds checks, never draws: on one seed both
    # give the same layout and leave the generator in the same state.
    params = ProblemParams(k=30, m=10, n=3)
    plan = compute_plan(params)
    spec = DemandSpec((30, 4, 17), frozenset({1, 2, 3, 5, 8, 13, 21, 22, 25, 29}))
    for seed in range(10):
        built, drawn = random.Random(seed), random.Random(seed)
        layout = build_layout(params, spec, built)
        assert layout == draw_layout(plan, spec.demands, sorted(spec.side), drawn)
        assert built.getstate() == drawn.getstate()


def test_build_layout_respects_plan_and_quotas():
    # A Layout does not check itself, so this is where its shape is held:
    # sorted blocks of the plan's sizes that partition 1..k.
    rng = random.Random(7)
    for k in range(1, 9):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                field = PrimeField(23)
                db = random_db(params, field, rng)
                for _ in range(5):
                    spec = random_spec(params, db, rng)
                    layout = build_layout(params, spec, rng)
                    assert layout.plan == plan
                    assert tuple(map(len, layout.subspaces)) == plan.size_profile
                    assert all(list(block) == sorted(block) for block in layout.subspaces)
                    covered = [idx for block in layout.subspaces for idx in block]
                    assert sorted(covered) == list(range(1, k + 1))
                    for block, quota in zip(layout.subspaces, plan.side_profile):
                        if any(idx in spec.demands for idx in block):
                            held = sum(1 for idx in block if idx in spec.side)
                            assert held >= quota


def test_trivial_plan_consumes_no_randomness():
    params = ProblemParams(k=5, m=3, n=2)
    rng = random.Random(99)
    before = rng.getstate()
    layout = build_layout(params, DemandSpec((1, 4), frozenset({2, 3, 5})), rng)
    assert layout.subspaces == ((1, 2, 3, 4, 5),)
    assert rng.getstate() == before


def test_make_query_worked_example(worked_layout, gf13):
    query = make_query(worked_layout, gf13)
    assert query.total_rows == 6
    assert query.blocks == (
        QueryBlock((1, 2, 4, 6, 8), 2),
        QueryBlock((3, 10, 11, 13), 2),
        QueryBlock((5, 7, 9, 12), 2),
    )


def test_make_query_needs_large_enough_field(worked_layout):
    # A database over too small a field is a runtime refusal, not a usage error.
    with pytest.raises(ValueError, match="field too small") as refusal:
        make_query(worked_layout, PrimeField(5))
    assert not isinstance(refusal.value, UsageError)
    assert make_query(worked_layout, PrimeField(7)).total_rows == 6


def test_server_answer_worked_example(worked_layout, worked_db, gf13):
    answer = server_answer(make_query(worked_layout, gf13), worked_db)
    assert answer.blocks[0] == (2, 7)
    # Independent recomputation of every block as plain integer sums.
    for block, coded in zip(worked_layout.subspaces, answer.blocks):
        for row_idx, symbol in enumerate(coded):
            expected = sum(
                pow(j + 1, row_idx, 13) * WORKED_VALUES[idx]
                for j, idx in enumerate(block)
            ) % 13
            assert symbol == expected


def test_server_answer_zero_database(worked_layout, gf13):
    db = Database((0,) * 13, gf13)
    answer = server_answer(make_query(worked_layout, gf13), db)
    assert all(e == 0 for block in answer.blocks for e in block)


def test_server_answer_refuses_indices_outside_database(worked_db, gf13):
    # The server gathers values by position, so 0 and negative indices must be
    # refused rather than wrap around to the end of the database.
    for bad, support in ((0, (0, 1, 2)), (-1, (-1, 1, 2)), (14, (1, 2, 14)), (0, (0,)), (14, (14,))):
        query = Query((QueryBlock((3, 4), 1), QueryBlock(support, 1)), gf13)
        with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.13$"):
            server_answer(query, worked_db)


def test_server_answer_refuses_other_modulus(worked_layout, gf13):
    # Without the check a GF(13) query over a GF(17) database is answered.
    db = Database(tuple(range(13)), PrimeField(17))
    with pytest.raises(ValueError, match="incompatible moduli: 13 vs 17"):
        server_answer(make_query(worked_layout, gf13), db)


def test_server_answer_single_index_block(worked_db, gf13):
    answer = server_answer(Query((QueryBlock((5,), 1), QueryBlock((1, 13), 2)), gf13), worked_db)
    assert answer.blocks == ((WORKED_VALUES[5],), (
        (WORKED_VALUES[1] + WORKED_VALUES[13]) % 13,
        (WORKED_VALUES[1] + 2 * WORKED_VALUES[13]) % 13,
    ))


def test_client_decode_worked_example(worked_layout, worked_db, worked_spec, gf13):
    query = make_query(worked_layout, gf13)
    answer = server_answer(query, worked_db)
    decoded = client_decode(query, answer, worked_spec)
    assert decoded == {2: 7, 5: 9}


def test_client_decode_missing_side_value(worked_layout, worked_db, gf13):
    query = make_query(worked_layout, gf13)
    answer = server_answer(query, worked_db)
    starved = DemandSpec((2, 5), frozenset(WORKED_SIDE), {1: worked_db[1]})
    with pytest.raises(ValueError, match="missing side-information value"):
        client_decode(query, answer, starved)


def test_client_decode_checks_length_of_demand_free_blocks(worked_layout, worked_db, worked_spec, gf13):
    # Block 1 ({3,10,11,13}) holds no demand, so its symbols are never
    # solved; a padded or truncated block must still be refused.
    query = make_query(worked_layout, gf13)
    blocks = server_answer(query, worked_db).blocks
    assert not set(worked_layout.subspaces[1]) & set(worked_spec.demands)
    padded = blocks[:1] + (blocks[1] + (0, 0, 0),) + blocks[2:]
    with pytest.raises(ValueError, match="expected 2 coded symbols, got 5"):
        client_decode(query, Answer(padded), worked_spec)
    truncated = blocks[:1] + (blocks[1][:1],) + blocks[2:]
    with pytest.raises(ValueError, match="expected 2 coded symbols, got 1"):
        client_decode(query, Answer(truncated), worked_spec)


def test_client_decode_retrieval_condition():
    # A block with one coded symbol for three messages needs two known
    # values; give it one and decoding must refuse.
    gf = PrimeField(7)
    query = Query((QueryBlock((1, 2, 3), 1),), gf)
    answer_vec = (6,)
    spec = DemandSpec((1,), frozenset({2}), {2: 2})
    refusal = "insufficient side information: 2 unknowns but only 1 equations"
    with pytest.raises(ValueError, match=refusal):
        client_decode(query, Answer((answer_vec,)), spec)


def test_client_decode_demand_absent():
    gf = PrimeField(7)
    query = Query((QueryBlock((1, 2), 2),), gf)
    answer = Answer(((1, 2),))
    spec = DemandSpec((3,), frozenset())
    with pytest.raises(ValueError, match="absent from every query block"):
        client_decode(query, answer, spec)


def test_client_decode_rejects_tampered_answer():
    # One block of 8 messages, 6 coded rows, 4 demands and 4 known: two
    # spare rows, so changing any single coded symbol must be caught.
    gf = PrimeField(65537)
    rng = random.Random(8)
    params = ProblemParams(k=8, m=4, n=4)
    db = random_db(params, gf, rng)
    spec = DemandSpec((1, 3, 5, 7), frozenset({2, 4, 6, 8}), {i: db[i] for i in (2, 4, 6, 8)})
    query = Query((QueryBlock(tuple(range(1, 9)), 6),), gf)
    coded = server_answer(query, db).blocks[0]
    assert client_decode(query, Answer((coded,)), spec) == {i: db[i] for i in spec.demands}
    for row in range(6):
        tampered = list(coded)
        tampered[row] = (tampered[row] + rng.randrange(1, gf.p)) % gf.p
        with pytest.raises(ValueError, match="inconsistent"):
            client_decode(query, Answer((tuple(tampered),)), spec)
    with pytest.raises(ValueError, match="expected 6 coded symbols"):
        client_decode(query, Answer((coded[:5],)), spec)


def test_single_subspace_round_400_40_20_decodes_exactly():
    # One block of 400 with 360 unknowns and 40 known: cubic elimination
    # took seconds here; the structured solve divides the 40 known points
    # out of the cached product over all 400, O(|known| * n).
    params = ProblemParams(k=400, m=40, n=20)
    assert compute_plan(params).l_star == 1
    field = PrimeField(2**31 - 1)
    rng = random.Random(400)
    db = random_db(params, field, rng)
    spec = random_spec(params, db, rng)
    result = simulate_round(params, spec, db, rng)
    assert result.query.total_rows == 360
    assert result.decoded == {i: db[i] for i in spec.demands}


def test_simulate_round_worked_instance(worked_db, worked_spec):
    params = ProblemParams(k=13, m=5, n=2)
    for seed in range(200):
        result = simulate_round(params, worked_spec, worked_db, random.Random(seed))
        assert result.decoded[2] == worked_db[2]
        assert result.decoded[5] == worked_db[5]
        assert result.query.total_rows == 6


def test_simulate_round_trivial_instance():
    gf = PrimeField(11)
    params = ProblemParams(k=4, m=0, n=4)
    rng = random.Random(3)
    db = random_db(params, gf, rng)
    spec = DemandSpec((1, 2, 3, 4), frozenset())
    result = simulate_round(params, spec, db, rng)
    assert result.query.total_rows == 4
    assert result.decoded == {i: db[i] for i in range(1, 5)}


def test_simulate_round_db_size_mismatch(worked_spec, gf13):
    params = ProblemParams(k=13, m=5, n=2)
    small = Database((0,) * 5, gf13)
    with pytest.raises(UsageError, match="^database holds 5 messages, expected 13$"):
        simulate_round(params, worked_spec, small, random.Random(0))


def test_round_downloads_exactly_r_star_everywhere():
    rng = random.Random(2024)
    field = PrimeField(23)
    for k in range(1, 10):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                db = random_db(params, field, rng)
                for _ in range(3):
                    spec = random_spec(params, db, rng)
                    result = simulate_round(params, spec, db, rng)
                    assert result.query.total_rows == plan.r_star
                    assert sum(len(b) for b in result.answer.blocks) == plan.r_star
                    for idx in spec.demands:
                        assert result.decoded[idx] == db[idx]


def test_layout_frequencies_match_exact_law():
    # Empirical distribution of layouts vs the exact enumeration, within a
    # 4-sigma binomial envelope per layout.  The enumeration runs
    # build_layout on a scripted generator; this is the check that a real
    # random.Random draws what that script assumes.
    params = ProblemParams(k=4, m=1, n=1)
    demands, side = (2,), (4,)
    exact = enumerate_randomness(params, demands, side)
    rounds = 20000
    rng = random.Random(123)
    spec = DemandSpec(demands, frozenset(side))
    counts = {}
    for _ in range(rounds):
        layout = build_layout(params, spec, rng)
        counts[layout] = counts.get(layout, 0) + 1
    assert set(counts) <= set(exact)
    for layout, prob in exact.items():
        p = float(prob)
        sigma = (p * (1 - p) / rounds) ** 0.5
        assert abs(counts.get(layout, 0) / rounds - p) <= 4 * sigma + 1e-9, layout.subspaces
