"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the [PASS]/[FAIL]
line per criterion.  All equality checks on probabilities are exact
rational comparisons; the only tolerances here are wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

from pirsi import (
    Database,
    DemandSpec,
    Layout,
    PrimeField,
    ProblemParams,
    compute_plan,
    posterior,
    simulate_round,
)
from pirsi.oracle import brute_force_rate
from oracles import (
    check_mds,
    decode,
    encode,
    enumerate_randomness,
    is_trivial_optimal,
    iter_layouts,
    layout_probability,
    vandermonde,
)
from conftest import WORKED_BLOCKS


def check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def all_instances(k_max):
    for k in range(1, k_max + 1):
        for n in range(1, k + 1):
            for m in range(0, k - n + 1):
                yield ProblemParams(k=k, m=m, n=n)


def test_criterion_1_worked_plan_closed_form():
    params = ProblemParams(k=13, m=5, n=2)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        plan = compute_plan(params)
        best = min(best, time.perf_counter() - t0)
    ok = (
        plan.r_star == 6
        and plan.size_profile == (5, 4, 4)
        and plan.side_profile == (3, 2, 2)
        and best < 1e-3
    )
    check("criterion 1: (13,5,2) plan r*=6 sizes (5,4,4) side (3,2,2) in <1ms",
          ok, f"r*={plan.r_star}, best timing {best * 1e6:.0f}us")


def test_criterion_2_oracle_equivalence_k14():
    started = time.perf_counter()
    mismatches = [
        (p.k, p.m, p.n)
        for p in all_instances(14)
        if brute_force_rate(p) != compute_plan(p).r_star
    ]
    elapsed = time.perf_counter() - started
    check("criterion 2: brute force == closed form for all n+m<=k<=14 in <5min",
          not mismatches and elapsed < 300,
          f"{sum(1 for _ in all_instances(14))} instances, {elapsed:.1f}s, mismatches={mismatches}")


def test_criterion_3_trivial_boundary_agreement():
    disagreements = [
        (p.k, p.m, p.n)
        for p in all_instances(14)
        if is_trivial_optimal(p) != (compute_plan(p).r_star == p.k - p.m)
    ]
    check("criterion 3: single-subspace optimality test matches plan cost, k<=14",
          not disagreements, f"disagreements={disagreements}")


def test_criterion_4_single_demand_specialization():
    bad = [
        (k, m)
        for k in range(1, 31)
        for m in range(0, k)
        if compute_plan(ProblemParams(k=k, m=m, n=1)).r_star != -(-k // (m + 1))
    ]
    check("criterion 4: n=1 gives r*=ceil(k/(m+1)) for k<=30", not bad, f"bad={bad}")


def test_criterion_5_simulation_rounds():
    field = PrimeField(65537)
    started = time.perf_counter()
    failures = []
    for k, m, n in [(13, 5, 2), (7, 3, 1), (20, 4, 2)]:
        params = ProblemParams(k=k, m=m, n=n)
        r_star = compute_plan(params).r_star
        rng = random.Random(k * 1000 + m * 10 + n)
        for round_idx in range(1000):
            db = Database(
                tuple(field.element(rng.randrange(field.p)) for _ in range(k)), field
            )
            demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
            rest = [i for i in range(1, k + 1) if i not in demands]
            side = frozenset(rng.sample(rest, m))
            spec = DemandSpec(demands, side, {i: db[i] for i in side})
            result = simulate_round(params, spec, db, rng)
            if result.query.total_rows != r_star:
                failures.append((k, m, n, round_idx, "transmissions"))
                break
            if any(result.decoded[i] != db[i] for i in demands):
                failures.append((k, m, n, round_idx, "decode"))
                break
    elapsed = time.perf_counter() - started
    check("criterion 5: 1000 rounds each at (13,5,2),(7,3,1),(20,4,2), exact decode, r* symbols, <10s",
          not failures and elapsed < 10, f"{elapsed:.1f}s, failures={failures}")


def test_criterion_6_exact_posterior_uniformity():
    started = time.perf_counter()
    bad = []
    for k, m, n in [(5, 1, 1), (7, 3, 1), (6, 2, 1)]:
        params = ProblemParams(k=k, m=m, n=n)
        prior = Fraction(1, comb(k, n))
        for layout in iter_layouts(params):
            report = posterior(layout, params)
            if not report.uniform or report.prior != prior:
                bad.append((k, m, n, layout.subspaces))
    worked = ProblemParams(k=13, m=5, n=2)
    report = posterior(Layout(WORKED_BLOCKS, compute_plan(worked)), worked)
    if not report.uniform or report.prior != Fraction(1, 78):
        bad.append((13, 5, 2, "worked layout"))
    elapsed = time.perf_counter() - started
    check("criterion 6: posterior == 1/C(k,n) exactly on all layouts of (5,1,1),(7,3,1),(6,2,1) and worked (13,5,2), <60s",
          not bad and elapsed < 60, f"{elapsed:.1f}s, bad={bad}")


def test_criterion_7_probability_law_equivalence():
    rng = random.Random(20240818)
    instances = [p for p in all_instances(6)] + [ProblemParams(k=7, m=3, n=1)]
    bad = []
    for params in instances:
        k, m, n = params.k, params.m, params.n
        pairs = [(tuple(range(1, n + 1)), tuple(range(n + 1, n + m + 1)))]
        demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
        rest = [i for i in range(1, k + 1) if i not in demands]
        pairs.append((demands, tuple(sorted(rng.sample(rest, m)))))
        for demands, side in pairs:
            dist = enumerate_randomness(params, demands, side)
            if sum(dist.values()) != 1:
                bad.append((k, m, n, "sum", demands, side))
                continue
            for layout, prob in dist.items():
                if layout_probability(layout, demands, side, params) != prob:
                    bad.append((k, m, n, layout.subspaces, demands, side))
                    break
    check("criterion 7: closed-form law == branch enumeration, sums to 1, all k<=6 plus (7,3,1)",
          not bad, f"{len(instances)} instances, bad={bad[:3]}")


def test_criterion_8_mds_substrate():
    field = PrimeField(65537)
    not_mds = [
        (r, n)
        for n in range(1, 13)
        for r in range(1, n + 1)
        if not check_mds(vandermonde(r, n, field))
    ]

    rng = random.Random(65537)
    trip_failures = 0
    for _ in range(1000):
        n = rng.randrange(1, 11)
        r = rng.randrange(1, n + 1)
        matrix = vandermonde(r, n, field)
        msgs = [field.element(rng.randrange(field.p)) for _ in range(n)]
        known_cols = rng.sample(range(n), rng.randrange(n - r, n + 1))
        got = decode(matrix, encode(matrix, msgs), {j: msgs[j] for j in known_cols})
        if got != msgs:
            trip_failures += 1

    # Sharpness: one fewer known symbol leaves every unknown coordinate
    # uniform over the field (all values consistent), exhaustively checked
    # over small fields (widths capped at p - 1 evaluation points).
    sharp_failures = []
    for p, n_max in [(5, 4), (7, 6)]:
        gf = PrimeField(p)
        for n in range(2, n_max + 1):
            for r in range(1, n):
                matrix = vandermonde(r, n, gf)
                msgs = [gf.element((2 * i + 1) % p) for i in range(n)]
                codeword = encode(matrix, msgs)
                unknown_cols = list(range(n - r - 1, n))
                consistent = []
                for attempt in product(range(p), repeat=len(unknown_cols)):
                    candidate = list(msgs)
                    for col, val in zip(unknown_cols, attempt):
                        candidate[col] = gf.element(val)
                    if encode(matrix, candidate) == codeword:
                        consistent.append(attempt)
                per_coord = all(
                    {sol[i] for sol in consistent} == set(range(p))
                    for i in range(len(unknown_cols))
                )
                if len(consistent) != p or not per_coord:
                    sharp_failures.append((p, r, n))

    ok = not not_mds and trip_failures == 0 and not sharp_failures
    check("criterion 8: every minor invertible r<=n<=12 at p=65537, 1000 decode round trips, sharp threshold",
          ok, f"not_mds={not_mds}, trips_failed={trip_failures}, sharp={sharp_failures}")
