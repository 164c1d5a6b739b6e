"""The randomized construction: layout validity, queries, and full rounds."""

import operator
import random
from fractions import Fraction

import pytest

from pirsi import (
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    Query,
    UsageError,
    build_layout,
    compute_plan,
    simulate_round,
)
from pirsi import mds
from pirsi.scheme import client_decode, draw_layout, make_query, server_answer
from conftest import WORKED_SIDE, WORKED_VALUES
from oracles import enumerate_randomness, query_rows, reference_draw_layout


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
    with pytest.raises(UsageError, match="duplicate demand indices"):
        DemandSpec((1, 1), frozenset())
    with pytest.raises(UsageError, match="duplicate side-information indices"):
        DemandSpec((2, 5), [1, 1, 4, 6, 7])  # not read as the four side indices {1, 4, 6, 7}
    spec = DemandSpec((3, 1), frozenset({2}))
    assert spec.demands == (1, 3)  # stored ascending
    params = ProblemParams(k=4, m=1, n=2)
    spec.validate_against(params)
    with pytest.raises(UsageError, match="expected 2 demands"):
        DemandSpec((1,), frozenset({2})).validate_against(params)
    with pytest.raises(UsageError, match="outside"):
        DemandSpec((1, 9), frozenset({2})).validate_against(params)


def test_validate_against_names_the_first_bad_index_demands_first():
    params = ProblemParams(k=13, m=5, n=2)
    DemandSpec((1, 13), frozenset({2, 4, 6, 7, 12})).validate_against(params)
    for demands, side, bad in (
        ((2, 15), {0, 4, 6, 7, 9}, 15),  # a bad demand before a smaller bad side index
        ((0, 5), {1, 4, 6, 7, 14}, 0),
        ((2, 5), {1, 4, 6, 20, 14}, 14),  # side indices in ascending order
        ((2, 5), {0, 4, 6, 7, 9}, 0),
        ((2, 5), {1, 4, 6, 7, 14}, 14),
    ):
        with pytest.raises(UsageError, match=f"^index {bad} outside 1..13$"):
            DemandSpec(demands, frozenset(side)).validate_against(params)


def test_database_gather_reads_and_refuses_as_lookups_do(worked_db, gf13):
    order = (13, 1, 7, 2, 12)
    assert worked_db.gather(order) == tuple(worked_db[i] for i in order)
    assert worked_db.gather((7,)) == (worked_db[7],)
    assert worked_db.gather(()) == ()
    # The first bad index in the order given; index 0 must not read the padding.
    for indices, bad in (((0,), 0), ((1, 14, 6, 0), 14), ((3, -1, 14), -1), ((13, 20, 14), 20)):
        for lookup in (
            worked_db.gather,
            lambda seq: [worked_db[i] for i in seq],
            lambda seq: server_answer(Query(((seq, 1),), gf13), worked_db),
        ):
            with pytest.raises(UsageError, match=f"^index {bad} outside 1..13$"):
                lookup(indices)


def validate_side(db, bad):
    DemandSpec((2, 5), frozenset({1, 4, 6, 7, bad})).validate_against(ProblemParams(db.k, 5, 2))


# Every route by which an index meets the database's range, each given index ``bad``.
INDEX_LOOKUPS = {
    "validate_against": validate_side,
    "getitem": lambda db, bad: db[bad],
    "gather": lambda db, bad: db.gather((1, bad)),
    "server_answer": lambda db, bad: server_answer(Query((((3, 4), 1), ((1, bad), 1)), db.field), db),
}


@pytest.mark.parametrize("bad", [0, -1, 14])
@pytest.mark.parametrize("lookup", INDEX_LOOKUPS.values(), ids=INDEX_LOOKUPS.keys())
def test_every_lookup_refuses_an_index_outside_1_to_k_alike(worked_db, lookup, bad):
    # One refusal, worded once: the server's is a UsageError like the client's.
    with pytest.raises(UsageError, match=rf"^index {bad} outside 1\.\.13$"):
        lookup(worked_db, bad)


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


class RecordingRandom(random.Random):
    """``random.Random`` that records the arguments of every ``randrange`` call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def randrange(self, *args):
        self.calls.append(args)
        return super().randrange(*args)


def test_draw_layout_makes_the_reference_draws():
    # The sampler keeps running capacities and a mask; the per-index oracle
    # re-reads every block on each demand and every index at the fill.  On
    # one seed both must make the same randrange calls, build the same
    # layout and leave the generator in the same state (the fill shuffle's
    # draws show only there).
    cases = [
        (ProblemParams(k=k, m=m, n=n), range(4))
        for k in range(1, 9)
        for n in range(1, k + 1)
        for m in range(k - n + 1)
    ]
    cases += [
        (ProblemParams(k=10, m=0, n=2), range(40)),  # both demands can fill a size-2 block
        (ProblemParams(k=12, m=1, n=3), range(20)),  # profile (4, 3, 3, 2)
        (ProblemParams(k=13, m=5, n=2), range(40)),  # stage 3 can draw the pool empty
        (ProblemParams(k=5000, m=1000, n=10), range(3)),
    ]
    filled_block = emptied_pool = False
    for params, seeds in cases:
        plan = compute_plan(params)
        for seed in seeds:
            spec_rng = random.Random(seed)
            demands = sorted(spec_rng.sample(range(1, params.k + 1), params.n))
            side = spec_rng.sample(sorted(set(range(1, params.k + 1)) - set(demands)), params.m)
            shipped, reference = RecordingRandom(seed), RecordingRandom(seed)
            layout = draw_layout(plan, demands, side, shipped)
            assert layout == reference_draw_layout(plan, demands, side, reference), (params, seed)
            assert shipped.calls == reference.calls, (params, seed)
            assert shipped.getstate() == reference.getstate(), (params, seed)
            filled_block |= params.k == 10 and tuple(demands) in layout.subspaces
            emptied_pool |= params.k == 13 and (1,) in shipped.calls
    assert filled_block and emptied_pool  # the seeds reach both edge cases


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
        ((1, 2, 4, 6, 8), 2),
        ((3, 10, 11, 13), 2),
        ((5, 7, 9, 12), 2),
    )


def test_simulate_round_needs_a_field_wider_than_every_block(worked_params):
    # The widest (13,5,2) block has 5 members and GF(5) only 4 nonzero
    # evaluation points.  The server's parser refuses the query before any
    # code is built, as a runtime refusal, not a usage error.
    def round_over(field):
        db = Database((WORKED_VALUES[i] % field.p for i in range(1, 14)), field)
        spec = DemandSpec((2, 5), WORKED_SIDE, {i: db[i] for i in WORKED_SIDE})
        return db, simulate_round(worked_params, spec, db, random.Random(11))

    misses = mds._packed_columns.cache_info().misses
    with pytest.raises(ValueError, match="^field too small: subspace of size 5 needs p > 5, got 5$") as refusal:
        round_over(PrimeField(5))
    assert not isinstance(refusal.value, UsageError)
    assert mds._packed_columns.cache_info().misses == misses
    db, result = round_over(PrimeField(7))
    assert result.decoded == {2: db[2], 5: db[5]}


def test_server_answer_worked_example(worked_layout, worked_db, gf13):
    answer = server_answer(make_query(worked_layout, gf13), worked_db)
    assert answer[0] == (2, 7)
    # Independent recomputation of every block as plain integer sums.
    for block, coded in zip(worked_layout.subspaces, answer):
        for row_idx, symbol in enumerate(coded):
            expected = sum(
                pow(j + 1, row_idx, 13) * WORKED_VALUES[idx]
                for j, idx in enumerate(block)
            ) % 13
            assert symbol == expected


def test_server_answer_zero_database(worked_layout, gf13):
    db = Database((0,) * 13, gf13)
    answer = server_answer(make_query(worked_layout, gf13), db)
    assert all(e == 0 for block in answer for e in block)


def test_server_answer_refuses_indices_outside_database(worked_db, gf13):
    # The server gathers values by position, so 0 and negative indices must be
    # refused rather than wrap around to the end of the database.
    for bad, support in ((0, (0, 1, 2)), (-1, (-1, 1, 2)), (14, (1, 2, 14)), (0, (0,)), (14, (14,))):
        query = Query((((3, 4), 1), (support, 1)), gf13)
        with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.13$"):
            server_answer(query, worked_db)


def test_server_answer_refuses_other_modulus(worked_layout, gf13):
    # Without the check a GF(13) query over a GF(17) database is answered.
    db = Database(tuple(range(13)), PrimeField(17))
    with pytest.raises(ValueError, match="incompatible moduli: 13 vs 17"):
        server_answer(make_query(worked_layout, gf13), db)


def test_server_answer_single_index_block(worked_db, gf13):
    # The rest of 1..13 rides in a third block: the server answers only a
    # query that covers its whole database.
    rest = (2, 3, 4, 6, 7, 8, 9, 10, 11, 12)
    answer = server_answer(Query((((5,), 1), ((1, 13), 2), (rest, 1)), gf13), worked_db)
    assert answer == ((WORKED_VALUES[5],), (
        (WORKED_VALUES[1] + WORKED_VALUES[13]) % 13,
        (WORKED_VALUES[1] + 2 * WORKED_VALUES[13]) % 13,
    ), (sum(WORKED_VALUES[i] for i in rest) % 13,))


def test_server_answer_refuses_a_query_that_does_not_cover_the_database(worked_db, gf13):
    # Sorted, disjoint and in range, but 12 of the 13 indices: a parsed
    # version-3 query names one index per label, so this is a label count
    # other than k.
    blocks = ((1, 2, 4, 6, 8), (3, 10, 11, 13), (5, 7, 9))
    with pytest.raises(ValueError, match="^query covers 12 indices, the database holds 13$"):
        server_answer(Query(tuple((block, 2) for block in blocks), gf13), worked_db)


def test_client_decode_worked_example(worked_layout, worked_db, worked_spec, gf13):
    query = make_query(worked_layout, gf13)
    answer = server_answer(query, worked_db)
    decoded = client_decode(query, answer, worked_spec)
    assert decoded == {2: 7, 5: 9}


def test_client_decode_missing_side_value(worked_layout, worked_db, gf13):
    query = make_query(worked_layout, gf13)
    answer = server_answer(query, worked_db)
    # The first held index without a value, in support order: block (1, 2, 4, 6, 8).
    for held, missing in (((1,), 4), ((1, 4), 6), ((4, 6, 7, 9), 1)):
        starved = DemandSpec((2, 5), frozenset(WORKED_SIDE), {i: worked_db[i] for i in held})
        with pytest.raises(ValueError, match=f"^missing side-information value for index {missing}$"):
            client_decode(query, answer, starved)


def test_client_decode_refuses_side_values_outside_the_field(worked_layout, worked_db, gf13):
    # The known columns are subtracted in packed slots, which hold only
    # products of field elements: 1 + 13 or -12 would read as another value.
    query = make_query(worked_layout, gf13)
    answer = server_answer(query, worked_db)
    for bad in (worked_db[1] + 13, worked_db[1] - 13, float(worked_db[1])):
        values = {i: worked_db[i] for i in WORKED_SIDE} | {1: bad}
        spec = DemandSpec((2, 5), frozenset(WORKED_SIDE), values)
        with pytest.raises(ValueError, match=r"field value .* is not an int in \[0, 13\)"):
            client_decode(query, answer, spec)


def test_client_decode_checks_length_of_demand_free_blocks(worked_layout, worked_db, worked_spec, gf13):
    # Block 1 ({3,10,11,13}) holds no demand, so its symbols are never
    # solved; a padded or truncated block must still be refused.
    query = make_query(worked_layout, gf13)
    blocks = server_answer(query, worked_db)
    assert not set(worked_layout.subspaces[1]) & set(worked_spec.demands)
    padded = blocks[:1] + (blocks[1] + (0, 0, 0),) + blocks[2:]
    with pytest.raises(ValueError, match="expected 2 coded symbols, got 5"):
        client_decode(query, padded, worked_spec)
    truncated = blocks[:1] + (blocks[1][:1],) + blocks[2:]
    with pytest.raises(ValueError, match="expected 2 coded symbols, got 1"):
        client_decode(query, truncated, worked_spec)


def test_client_decode_checks_block_count(worked_layout, worked_db, worked_spec, gf13):
    # The demands sit in blocks 0 and 2, so without the count check an extra
    # trailing block would be ignored and a missing one would be refused
    # only for the demand it held.
    query = make_query(worked_layout, gf13)
    blocks = server_answer(query, worked_db)
    for wrong in (blocks + ((0,),), blocks[:2], ()):
        with pytest.raises(ValueError, match="^answer block count differs from query$"):
            client_decode(query, wrong, worked_spec)


def test_client_decode_retrieval_condition():
    # A block with one coded symbol for three messages needs two known
    # values; give it one and decoding must refuse.
    gf = PrimeField(7)
    query = Query((((1, 2, 3), 1),), gf)
    answer_vec = (6,)
    spec = DemandSpec((1,), frozenset({2}), {2: 2})
    refusal = "insufficient side information: 2 unknowns but only 1 equations"
    with pytest.raises(ValueError, match=refusal):
        client_decode(query, (answer_vec,), spec)


def test_client_decode_demand_absent():
    gf = PrimeField(7)
    query = Query((((1, 2), 2),), gf)
    answer = ((1, 2),)
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
    query = Query(((tuple(range(1, 9)), 6),), gf)
    coded = server_answer(query, db)[0]
    assert client_decode(query, (coded,), spec) == {i: db[i] for i in spec.demands}
    for row in range(6):
        tampered = list(coded)
        tampered[row] = (tampered[row] + rng.randrange(1, gf.p)) % gf.p
        with pytest.raises(ValueError, match="inconsistent"):
            client_decode(query, (tuple(tampered),), spec)
    with pytest.raises(ValueError, match="expected 6 coded symbols"):
        client_decode(query, (coded[:5],), spec)


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
    # Every answer is also the query's rows, built one by one in the
    # oracle, times the database: the packed code on every plan shape here.
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
                    assert sum(len(b) for b in result.answer) == plan.r_star
                    assert [c for block in result.answer for c in block] == [
                        sum(map(operator.mul, row, db.values)) % field.p
                        for row in query_rows(result.query)
                    ]
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
