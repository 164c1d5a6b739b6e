"""Prime fields: the primality proof, canonical values, and the boundary check."""

import pytest

from pirsi import Database, PrimeField, is_prime
from pirsi.field import MR_BOUND, _miller_rabin


def test_canonical_representatives():
    gf13 = PrimeField(13)
    assert gf13.element(-1) == 12
    assert gf13.element(13) == 0
    assert gf13.element(27) == 1
    assert type(gf13.element(27)) is int


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 65536, 100])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError, match="prime"):
        PrimeField(bad)


@pytest.mark.parametrize("bad", [13.0, 7.0, 2.0, True, "13", [7]])
def test_non_int_modulus_rejected(bad):
    with pytest.raises(ValueError, match="must be an int"):
        is_prime(bad)
    with pytest.raises(ValueError, match="must be an int"):
        PrimeField(bad)


@pytest.mark.parametrize("good", [2, 3, 13, 65537, 2**61 - 1])
def test_prime_moduli_accepted(good):
    assert PrimeField(good).p == good


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(0, 2000):
        assert is_prime(n) == slow(n), n


def test_strong_pseudoprime_to_first_twelve_primes_rejected():
    # 399165290221 * 798330580441 passes Miller-Rabin for every base up to
    # 37; base 41 exposes it.
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    with pytest.raises(ValueError, match="prime"):
        PrimeField(n)


def test_primality_proof_bound():
    assert MR_BOUND == 3317044064679887385961981
    assert is_prime(2**61 - 1)
    assert not is_prime(MR_BOUND - 1)
    for n in (MR_BOUND, MR_BOUND + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="proven below"):
            is_prime(n)
        with pytest.raises(ValueError, match="proven below"):
            PrimeField(n)


def test_check_accepts_exactly_canonical_ints():
    gf7 = PrimeField(7)
    assert gf7.check([0, 3, 6]) == (0, 3, 6)
    assert gf7.check(()) == ()
    for bad in (7, -1, 2.0, True, False, "3", None):
        with pytest.raises(ValueError, match=r"not an int in \[0, 7\)"):
            gf7.check([1, bad, 2])


def test_mismatched_moduli_raise():
    # Values are plain ints, so a residue of GF(13) is refused by GF(7)'s
    # boundary check rather than mixed in silently.
    with pytest.raises(ValueError, match=r"12 is not an int in \[0, 7\)"):
        PrimeField(7).check([12])
    with pytest.raises(ValueError, match=r"\[0, 7\)"):
        Database(tuple(PrimeField(13).element(v) for v in (3, 12)), PrimeField(7))


def test_equality_and_hashing():
    gf = PrimeField(13)
    assert gf == PrimeField(13)
    assert gf != PrimeField(7)
    assert hash(gf) == hash(PrimeField(13))
    assert gf.element(5) == gf.element(18)
    assert Database((5, 0), gf) == Database([5, 0], PrimeField(13))


def test_memoised_verdicts_cannot_be_fooled():
    # A proven 7 or 65537 must not vouch for 7.0, True or a value out of
    # range: the type and bound checks run on every call.
    PrimeField(7)
    PrimeField(65537)
    assert is_prime(7) and not is_prime(1)
    for bad in (7.0, True, 65537.0):
        with pytest.raises(ValueError, match="must be an int"):
            PrimeField(bad)
        with pytest.raises(ValueError, match="must be an int"):
            is_prime(bad)
    with pytest.raises(ValueError, match="proven below"):
        is_prime(MR_BOUND)
    # A memoised prime verdict does not leak onto the pseudoprime.
    assert is_prime(2**61 - 1)
    assert not is_prime(318665857834031151167461)


def test_primality_memo_is_bounded():
    bound = _miller_rabin.cache_info().maxsize
    assert bound == 64
    primes = [n for n in range(10_007, 20_000, 2) if is_prime(n)][:200]
    assert len(primes) == 200
    assert _miller_rabin.cache_info().currsize <= bound
    # Evicted verdicts are proven again, with the same answer.
    assert all(is_prime(n) for n in primes)
    assert not is_prime(10_007 * 10_009)
