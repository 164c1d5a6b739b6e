"""MDS construction, coding round trips, and the decodability threshold.

The expected values here are recomputed by independent means inside the
tests: plain-integer dot products for encodings, cofactor-expansion
determinants for the MDS property, exhaustive solution enumeration for
the threshold sharpness check, and generic elimination (``decode``) for the
structured Vandermonde solve.  The program's own ``mds.vandermonde`` and
``mds.encode`` work on plain rows; ``CodeMatrix``, ``decode`` and
``check_mds`` are the test oracles in ``tests/oracles.py``.
"""

import random
from itertools import combinations, product

import pytest

from pirsi import PrimeField, mds, solve_vandermonde
from pirsi.mds import _all_points
from oracles import CodeMatrix, check_mds, decode, encode, vandermonde


def test_vandermonde_worked_example_rows(gf13):
    assert mds.vandermonde(2, 5, gf13) == ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5))


def test_vandermonde_powers():
    assert mds.vandermonde(3, 3, PrimeField(7)) == ((1, 1, 1), (1, 2, 3), (1, 4, 2))


def test_vandermonde_one_by_one():
    assert mds.vandermonde(1, 1, PrimeField(2)) == ((1,),)


def test_vandermonde_needs_enough_points():
    with pytest.raises(ValueError, match="evaluation points"):
        mds.vandermonde(2, 7, PrimeField(7))
    with pytest.raises(ValueError, match="r <= n"):
        mds.vandermonde(3, 2, PrimeField(7))
    # n = p - 1 is the largest legal width
    assert len(mds.vandermonde(2, 6, PrimeField(7))[0]) == 6


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
    codeword = mds.encode(mds.vandermonde(2, 3, PrimeField(7)), [1, 2, 3], 7)
    assert codeword == [6, 0]
    with pytest.raises(ValueError, match="expected 3 message symbols"):
        mds.encode(mds.vandermonde(2, 3, PrimeField(7)), [1, 2], 7)


def test_encode_matches_integer_dot_product(gf13):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 11)
        r = rng.randrange(1, n + 1)
        rows = mds.vandermonde(r, n, PrimeField(65537))
        msgs = [rng.randrange(65537) for _ in range(n)]
        got = mds.encode(rows, msgs, 65537)
        expected = [
            sum(pow(j + 1, i, 65537) * msgs[j] for j in range(n)) % 65537
            for i in range(r)
        ]
        assert got == expected


def test_encode_zero_vector_is_zero(gf13):
    assert mds.encode(mds.vandermonde(3, 5, gf13), [0] * 5, 13) == [0, 0, 0]


def test_encode_worked_example_block(gf13):
    # Subspace {1,2,4,6,8} with values 3,7,2,5,11 yields coded symbols 2 and 7.
    codeword = mds.encode(mds.vandermonde(2, 5, gf13), [3, 7, 2, 5, 11], 13)
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


def _all_points_calls():
    info = _all_points.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("p, n_max", [(13, 12), (2**31 - 1, 30)])
def test_solve_vandermonde_agrees_with_decode(p, n_max):
    # Random shapes, known sets and wanted positions; half the codewords are
    # random, so most of those with spare rows are inconsistent and both
    # decoders must refuse them.  The last 100 cases use every row and know
    # at most a quarter of the columns, often none: the division route, with
    # spare rows whenever some column is known.
    # Each master-polynomial route is tallied by whether it read the cached
    # product over all n points, and must be the one the size rule picks.
    # "one known column" covers the subtraction's single-key path, where
    # itemgetter returns an entry rather than a tuple.
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
        route = "division" if len(unknown) ** 2 > len(known) * n else "multiply-in"
        calls = _all_points_calls()
        try:
            full = decode(matrix, codeword, known)
        except ValueError:
            with pytest.raises(ValueError, match="inconsistent"):
                solve_vandermonde(codeword, n, known, wanted, gf)
            shapes["refused"] += 1
            shapes["refused, " + route] += 1
        else:
            assert solve_vandermonde(codeword, n, known, wanted, gf) == [full[j] for j in wanted]
            shapes["spare rows" if len(unknown) < r else "square"] += 1
            shapes["one wanted"] += len(wanted) == 1
            shapes["no known columns"] += not known
        assert (_all_points_calls() > calls) == (route == "division")
        shapes[route] += 1
        shapes["one known column"] += len(known) == 1
    assert min(shapes.values()) >= 30, shapes


def test_solve_vandermonde_worked_block(gf13):
    # The worked block again: unknown columns 1 and 4, no spare rows.
    assert solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 3: 5}, [1, 4], gf13) == [7, 11]
    assert solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 3: 5}, [4], gf13) == [11]


def test_solve_vandermonde_all_known_checks_every_row(gf13):
    matrix = vandermonde(2, 3, gf13)
    known = {0: 4, 1: 5, 2: 6}
    codeword = encode(matrix, [4, 5, 6])
    assert solve_vandermonde(codeword, 3, known, [0, 2], gf13) == [4, 6]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_vandermonde([codeword[0], (codeword[1] + 1) % 13], 3, known, [0], gf13)


def test_solve_vandermonde_validation(gf13):
    with pytest.raises(ValueError, match="insufficient side information"):
        solve_vandermonde([2, 7], 5, {0: 3, 2: 2}, [1], gf13)
    with pytest.raises(ValueError, match="out of range"):
        solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 3: 5}, [5], gf13)
    with pytest.raises(ValueError, match="out of range"):
        solve_vandermonde([2, 7], 5, {0: 3, 2: 2, 7: 5}, [1], gf13)
    with pytest.raises(ValueError, match="r <= n"):
        solve_vandermonde([1, 2, 3], 2, {}, [0], gf13)
    with pytest.raises(ValueError, match="p - 1"):
        solve_vandermonde([1], 13, {j: 0 for j in range(1, 13)}, [0], gf13)


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
