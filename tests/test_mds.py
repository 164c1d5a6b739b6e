"""MDS construction, coding round trips, and the decodability threshold.

The expected values here are recomputed by independent means inside the
tests: plain-integer dot products for encodings, cofactor-expansion
determinants for the MDS property, exhaustive solution enumeration for
the threshold sharpness check, and generic elimination (``decode``) for the
structured Vandermonde solve.  The program holds the code only as packed
columns (``mds._packed_columns``); ``mds.encode`` and the known-column
subtraction in ``mds.solve_vandermonde`` read it.  The code as rows
(``vandermonde``), the per-row ``encode``, ``CodeMatrix``, ``decode`` and
``check_mds`` are the test oracles in ``tests/oracles.py``.
"""

import random
from itertools import combinations, count, product
from math import prod

import pytest

from pirsi import PrimeField, is_prime, mds
from pirsi.field import MR_BOUND
from pirsi.mds import _all_points, _packed_columns, _weights, solve_vandermonde
from oracles import CodeMatrix, check_mds, decode, encode, vandermonde

# The largest modulus the program accepts: slots of about 165 bits.
LARGEST_PRIME = next(q for q in count(MR_BOUND - 1, -1) if is_prime(q))


def least_prime_above(n):
    """The smallest field with n distinct nonzero points."""
    return next(q for q in count(n + 1) if is_prime(q))


def unpacked_rows(r, n, field):
    """The rows ``mds._packed_columns`` holds, read back slot by slot."""
    width, columns = _packed_columns(r, n, field)
    mask = (1 << width) - 1
    return tuple(tuple(column >> (i * width) & mask for column in columns) for i in range(r))


def test_vandermonde_worked_example_rows(gf13):
    assert vandermonde(2, 5, gf13).rows == ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5))
    assert unpacked_rows(2, 5, gf13) == ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5))


def test_vandermonde_powers():
    assert vandermonde(3, 3, PrimeField(7)).rows == ((1, 1, 1), (1, 2, 3), (1, 4, 2))
    assert unpacked_rows(3, 3, PrimeField(7)) == ((1, 1, 1), (1, 2, 3), (1, 4, 2))


def test_vandermonde_one_by_one():
    assert vandermonde(1, 1, PrimeField(2)).rows == ((1,),)
    assert _packed_columns(1, 1, PrimeField(2)) == (5, (1,))


def test_vandermonde_needs_enough_points():
    # n = p - 1 is the largest legal width; callers hold the shape to it
    assert len(vandermonde(2, 6, PrimeField(7)).rows[0]) == 6
    assert unpacked_rows(2, 6, PrimeField(7)) == vandermonde(2, 6, PrimeField(7)).rows


def test_packed_columns_hold_the_rows_at_every_row_count():
    # The rows are joined pairwise, so odd counts leave a row over at some
    # level; each count up to 40 must still put row i in slot i.
    field = PrimeField(2**31 - 1)
    for r in range(1, 41):
        assert unpacked_rows(r, 40, field) == vandermonde(r, 40, field).rows, r
    assert _packed_columns.cache_info().maxsize == 16


def packed_mismatches(shapes, field, rng=None):
    """The shapes (r, n) at which the packed code disagrees with the per-row oracle.

    Each shape is checked on all-(p - 1) messages, the largest slot sum the
    program can form, and with ``rng`` also on random ones.  ``mds.encode``
    must equal the oracle's ``encode``.  ``solve_vandermonde`` must accept
    the oracle's codeword knowing every column, where each row only checks
    that the packed subtraction cancels the oracle's row sum mod p, and
    must recover the first r columns from the other n - r.
    """
    p = field.p
    bad = []
    for r, n in shapes:
        matrix = vandermonde(r, n, field)
        trials = [[p - 1] * n]
        if rng is not None:
            trials.append([rng.randrange(p) for _ in range(n)])
        for msgs in trials:
            codeword = encode(matrix, msgs)
            try:
                ok = (
                    mds.encode(r, msgs, field) == codeword
                    and solve_vandermonde(codeword, n, dict(enumerate(msgs)), [], field) == []
                    and solve_vandermonde(
                        codeword, n, {j: msgs[j] for j in range(r, n)}, range(r), field
                    ) == msgs[:r]
                )
            except ValueError:
                ok = False
            if not ok:
                bad.append((r, n))
                break
    return bad


@pytest.mark.parametrize("p, n_max", [(2**31 - 1, 40), (13, 12), (LARGEST_PRIME, 40)])
def test_packed_code_matches_per_row_oracle(p, n_max):
    # Random shapes, then every width with r = n, then n = 1.  At
    # p = 2**31 - 1 the all-(p - 1) slot sum n * (p - 1)**2 needs every bit
    # of w = 2 * bitlen(p) + bitlen(n) whenever n is not a power of two.
    field = PrimeField(p)
    rng = random.Random(p)
    shapes = []
    for _ in range(150):
        n = rng.randrange(1, n_max + 1)
        shapes.append((rng.randrange(1, n + 1), n))
    shapes += [(n, n) for n in range(1, n_max + 1)] + [(1, 1)]
    assert packed_mismatches(shapes, field, rng) == []


def test_code_matrix_validation():
    gf = PrimeField(7)
    with pytest.raises(ValueError, match="r <= n"):
        CodeMatrix(((1,), (1,)), gf)  # 2 x 1
    with pytest.raises(ValueError, match="ragged"):
        CodeMatrix(((1, 1), (1,)), gf)
    with pytest.raises(ValueError, match=r"not an int in \[0, 7\)"):
        CodeMatrix(((1, 7),), gf)
    with pytest.raises(ValueError, match=r"not an int in \[0, 7\)"):
        CodeMatrix(((1, 1.0),), gf)


def test_encode_small_example():
    codeword = mds.encode(2, [1, 2, 3], PrimeField(7))
    assert codeword == [6, 0]


def test_encode_matches_integer_dot_product(gf13):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 11)
        r = rng.randrange(1, n + 1)
        msgs = [rng.randrange(65537) for _ in range(n)]
        got = mds.encode(r, msgs, PrimeField(65537))
        expected = [
            sum(pow(j + 1, i, 65537) * msgs[j] for j in range(n)) % 65537
            for i in range(r)
        ]
        assert got == expected


def test_encode_zero_vector_is_zero(gf13):
    assert mds.encode(3, [0] * 5, gf13) == [0, 0, 0]


def test_encode_worked_example_block(gf13):
    # Subspace {1,2,4,6,8} with values 3,7,2,5,11 yields coded symbols 2 and 7.
    codeword = mds.encode(2, [3, 7, 2, 5, 11], gf13)
    assert codeword == [2, 7]


def test_decode_worked_example_block(gf13):
    # Knowing positions 0, 2, 3 (values 3, 2, 5) and both coded symbols
    # recovers position 1 = 7 and position 4 = 11.
    matrix = vandermonde(2, 5, gf13)
    full = decode(matrix, [2, 7], {0: 3, 2: 2, 3: 5})
    assert full == [3, 7, 2, 5, 11]


def test_decode_all_known_passthrough(gf13):
    matrix = vandermonde(2, 3, gf13)
    known = dict(enumerate((4, 5, 6)))
    codeword = encode(matrix, [known[j] for j in range(3)])
    assert decode(matrix, codeword, known) == [4, 5, 6]


def test_decode_all_known_checks_every_row(gf13):
    # With no unknowns every row is a leftover equation, so a codeword that
    # disagrees with the known values in any row is refused.
    matrix = vandermonde(2, 3, gf13)
    codeword = encode(matrix, [4, 5, 6])
    for row in range(2):
        tampered = list(codeword)
        tampered[row] = (tampered[row] + 1) % 13
        with pytest.raises(ValueError, match="inconsistent"):
            decode(matrix, tampered, {0: 4, 1: 5, 2: 6})


def test_decode_square_full_inversion():
    gf = PrimeField(65537)
    rng = random.Random(5)
    for n in range(1, 9):
        matrix = vandermonde(n, n, gf)
        msgs = [rng.randrange(gf.p) for _ in range(n)]
        assert decode(matrix, encode(matrix, msgs), {}) == msgs


def test_decode_requires_enough_known(gf13):
    matrix = vandermonde(2, 5, gf13)
    with pytest.raises(ValueError, match="insufficient side information"):
        decode(matrix, [2, 7], {0: 3, 2: 2})


def test_decode_rejects_inconsistent_inputs(gf13):
    matrix = vandermonde(2, 3, gf13)
    codeword = encode(matrix, [1, 2, 3])
    # Lie about two known positions so no completion can exist.
    bad_known = {0: 9, 1: 9}
    with pytest.raises(ValueError, match="inconsistent"):
        decode(matrix, codeword, bad_known)


def test_decode_round_trip_randomized():
    # 1000 trials across random shapes: encode, forget all but a random
    # subset of at least n - r positions, decode, compare.
    gf = PrimeField(65537)
    rng = random.Random(987)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        r = rng.randrange(1, n + 1)
        matrix = vandermonde(r, n, gf)
        msgs = [rng.randrange(gf.p) for _ in range(n)]
        codeword = encode(matrix, msgs)
        known_count = rng.randrange(n - r, n + 1)
        known_cols = rng.sample(range(n), known_count)
        known = {j: msgs[j] for j in known_cols}
        assert decode(matrix, codeword, known) == msgs


def _calls(cached):
    info = cached.cache_info()
    return info.hits + info.misses


def route(n, known_count):
    """The master-polynomial route ``solve_vandermonde`` takes, by its size rule."""
    u = n - known_count
    return "division" if u * u > known_count * n else "multiply-in"


def decode_mismatches(cases, field, rng):
    """The cases (r, n, known columns) at which ``solve_vandermonde`` disagrees with ``decode``.

    Each case encodes random messages and asks for every unknown column;
    the answer must be Gauss-Jordan's, and only the division route may read
    the cached product over all n points and the node weights.  With a
    spare row, the codeword with its last symbol moved must be refused: the
    unit vector e_{r-1} is outside the span of u < r Vandermonde columns,
    whose top u rows are invertible.
    """
    p = field.p
    bad = []
    for r, n, known_cols in cases:
        matrix = vandermonde(r, n, field)
        msgs = [rng.randrange(p) for _ in range(n)]
        codeword = encode(matrix, msgs)
        known = {j: msgs[j] for j in known_cols}
        wanted = [j for j in range(n) if j not in known]
        division = route(n, len(known)) == "division"
        reads = _calls(_all_points), _calls(_weights)
        full = decode(matrix, codeword, known)
        try:
            ok = solve_vandermonde(codeword, n, known, wanted, field) == [full[j] for j in wanted]
        except ValueError:
            ok = False
        ok = ok and (_calls(_all_points) > reads[0], _calls(_weights) > reads[1]) == (division,) * 2
        if ok and len(wanted) < r:
            moved = codeword[:-1] + [(codeword[-1] + 1) % p]
            try:
                solve_vandermonde(moved, n, known, wanted, field)
            except ValueError as err:
                ok = "inconsistent" in str(err)
            else:
                ok = False
        if not ok:
            bad.append((r, n, tuple(sorted(known_cols))))
    return bad


@pytest.mark.parametrize("p, n_max", [(13, 12), (2**31 - 1, 30)])
def test_solve_vandermonde_agrees_with_decode(p, n_max):
    # Random shapes, known sets and wanted positions; half the codewords are
    # random, so most of those with spare rows are inconsistent and both
    # decoders must refuse them.  The last 100 cases use every row and know
    # at most a quarter of the columns, often none: the division route, with
    # spare rows whenever some column is known.
    # Each master-polynomial route is tallied by whether it read the cached
    # product over all n points and the node weights, and must be the one
    # the size rule picks: the weights serve the division route alone.
    # "one known column" covers a subtraction over a single packed column.
    gf = PrimeField(p)
    rng = random.Random(p)
    shapes = dict.fromkeys(
        ["spare rows", "square", "one wanted", "refused", "no known columns", "one known column",
         "multiply-in", "division", "refused, multiply-in", "refused, division"],
        0,
    )
    for trial in range(700):
        n = rng.randrange(1, n_max + 1)
        r = n if trial >= 600 else rng.randrange(1, n + 1)
        matrix = vandermonde(r, n, gf)
        msgs = [rng.randrange(p) for _ in range(n)]
        if trial >= 600:
            known_count = rng.randrange(0, n // 4 + 1)
        else:
            known_count = rng.randrange(n - r, n)
        known_cols = rng.sample(range(n), known_count)
        known = {j: msgs[j] for j in known_cols}
        unknown = [j for j in range(n) if j not in known]
        wanted = sorted(rng.sample(unknown, rng.randrange(1, len(unknown) + 1)))
        if rng.random() < 0.5:
            codeword = encode(matrix, msgs)
        else:
            codeword = [rng.randrange(p) for _ in range(r)]
        taken = route(n, len(known))
        calls, weight_calls = _calls(_all_points), _calls(_weights)
        try:
            full = decode(matrix, codeword, known)
        except ValueError:
            with pytest.raises(ValueError, match="inconsistent"):
                solve_vandermonde(codeword, n, known, wanted, gf)
            shapes["refused"] += 1
            shapes["refused, " + taken] += 1
        else:
            assert solve_vandermonde(codeword, n, known, wanted, gf) == [full[j] for j in wanted]
            shapes["spare rows" if len(unknown) < r else "square"] += 1
            shapes["one wanted"] += len(wanted) == 1
            shapes["no known columns"] += not known
        assert (_calls(_all_points) > calls) == (taken == "division")
        assert (_calls(_weights) > weight_calls) == (taken == "division")
        shapes[taken] += 1
        shapes["one known column"] += len(known) == 1
    assert min(shapes.values()) >= 30, shapes


def test_solve_vandermonde_at_the_edges_on_both_routes():
    # Every row count at each edge of the known set: no known column (u = n,
    # so always the division route), exactly one unknown, that is all but one
    # known (multiplying in from n = 2, dividing at n = 1), and exactly one
    # known (multiplying in at n <= 2, dividing from n = 3).
    for p, n_max in ((13, 12), (2**31 - 1, 40)):
        rng = random.Random(p)
        cases = {}
        for n in range(1, n_max + 1):
            for edge, known_count in (("no known", 0), ("one unknown", n - 1), ("one known", 1)):
                known_cols = rng.sample(range(n), known_count)
                for r in range(max(n - len(known_cols), 1), n + 1):
                    cases.setdefault((edge, route(n, len(known_cols))), []).append((r, n, known_cols))
        assert sorted(cases) == [
            ("no known", "division"), ("one known", "division"), ("one known", "multiply-in"),
            ("one unknown", "division"), ("one unknown", "multiply-in"),
        ]
        for shapes in cases.values():
            assert decode_mismatches(shapes, PrimeField(p), rng) == []


def _node_weights(n, p):
    """1 / prod_{y != x} (x - y) for each node x = 1..n, mod p, one product at a time."""
    return tuple(pow(prod(x - y for y in range(1, n + 1) if y != x), -1, p) for x in range(1, n + 1))


def test_weights_are_the_inverse_node_products():
    # Every n at p = 13 and p = 2**31 - 1, and at the least prime above n,
    # the smallest field n nodes fit in, where n = p - 1 takes the factorials
    # up to (p - 2)!.
    cases = [(n, 13) for n in range(1, 13)] + [(n, 2**31 - 1) for n in range(1, 61)]
    cases += [(n, least_prime_above(n)) for n in range(1, 61)]
    for n, p in cases:
        assert _weights(n, p) == _node_weights(n, p), (n, p)
    assert _weights.cache_info().maxsize == 16


def test_solve_vandermonde_worked_block(gf13):
    # The worked block again: unknown columns 1 and 4, no spare rows.
    assert solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 3: 5}, [1, 4], gf13) == [7, 11]
    assert solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 3: 5}, [4], gf13) == [11]


def test_solve_vandermonde_all_known_checks_every_row(gf13):
    matrix = vandermonde(2, 3, gf13)
    known = {0: 4, 1: 5, 2: 6}
    codeword = encode(matrix, [4, 5, 6])
    assert solve_vandermonde(codeword, 3, known, [], gf13) == []
    with pytest.raises(ValueError, match="inconsistent"):
        solve_vandermonde([codeword[0], (codeword[1] + 1) % 13], 3, known, [], gf13)


def test_solve_vandermonde_validation(gf13):
    with pytest.raises(ValueError, match="insufficient side information"):
        solve_vandermonde([2, 7], 5, {0: 3, 2: 2}, [1], gf13)


def _cofactor_det(rows, p):
    if len(rows) == 1:
        return rows[0][0] % p
    total = 0
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * _cofactor_det(minor, p)
        total = (total - term if j % 2 else total + term) % p
    return total


@pytest.mark.parametrize("r,n,p", [(2, 5, 13), (3, 6, 7), (4, 4, 13), (1, 4, 5)])
def test_check_mds_against_cofactor_expansion(r, n, p):
    matrix = vandermonde(r, n, PrimeField(p))
    every_minor_invertible = all(
        _cofactor_det([[matrix.rows[i][j] for j in cols] for i in range(r)], p) != 0
        for cols in combinations(range(n), r)
    )
    assert every_minor_invertible
    assert check_mds(matrix) is every_minor_invertible


def test_check_mds_rejects_degenerate():
    gf = PrimeField(7)
    ones = CodeMatrix(((1, 1), (1, 1)), gf)
    assert not check_mds(ones)
    with_zero = CodeMatrix(((1, 0),), gf)
    assert not check_mds(with_zero)  # the zero column kills a 1x1 minor
    identity = CodeMatrix(((1, 0), (0, 1)), gf)
    assert check_mds(identity)  # square: only the full determinant matters


@pytest.mark.parametrize("p,n_max", [(5, 4), (7, 6)])
def test_threshold_sharpness_brute_force(p, n_max):
    # With only n - r - 1 known positions, every unknown coordinate of the
    # message vector remains completely undetermined: across all consistent
    # completions it takes every value of the field, and exactly p
    # completions exist (the solution set is a line).  Widths are capped at
    # p - 1 distinct evaluation points, hence the two fields.
    gf = PrimeField(p)
    for n in range(2, n_max + 1):
        for r in range(1, n):
            matrix = vandermonde(r, n, gf)
            msgs = [(3 * i + 1) % p for i in range(n)]
            codeword = encode(matrix, msgs)
            known_cols = list(range(n - r - 1))
            unknown_cols = list(range(n - r - 1, n))
            consistent = []
            for attempt in product(range(p), repeat=len(unknown_cols)):
                candidate = list(msgs)
                for col, val in zip(unknown_cols, attempt):
                    candidate[col] = val
                if encode(matrix, candidate) == codeword:
                    consistent.append(attempt)
            assert len(consistent) == p, (r, n)
            for pos in range(len(unknown_cols)):
                assert {sol[pos] for sol in consistent} == set(range(p)), (r, n, pos)
