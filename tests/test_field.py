"""Prime fields: the primality proof, canonical values, and the boundary check."""


import random

import pytest

from pirsi import Database, PrimeField, is_prime
from pirsi.field import MR_BOUND, QUOTE_CAP, _miller_rabin, quote


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


def test_refusals_echo_at_most_64_digits_of_a_number():
    # A number of up to QUOTE_CAP digits prints whole; a longer one is cut
    # after its first QUOTE_CAP digits and marked, on both sides of every
    # power of ten up to 640 digits, where str() is the reference under any
    # int digit limit.  Past that only the leading digits are converted.
    assert QUOTE_CAP == 64
    rng = random.Random(64)
    for digits in range(1, 641):
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)):
            text = str(n)
            want = text if digits <= 64 else f"{text[:64]}…"
            assert (quote(n), quote(-n)) == (want, f"-{want}"), n
    for n, want in ((10**5000 - 1, "9" * 64), (7 * 10**5000, "7" + "0" * 63), (2**20000 + 1, "39802768")):
        assert quote(n).startswith(want) and len(quote(n)) == 65
    assert [quote(v) for v in (2.0, True, "3", None)] == ["2.0", "True", "'3'", "None"]


def test_refusals_echo_at_most_64_characters_of_any_other_value():
    # A str is cut before its repr, so its quotes stay; any other value's
    # repr is cut after QUOTE_CAP characters.  Each is marked where cut.
    # A repr that int's digit limit refuses, [10**5000]'s, is echoed as the
    # type name, so the refusal raised is the caller's, not int's.
    assert quote("9" * 64) == repr("9" * 64)
    assert quote("9" * 100_000) == repr("9" * 64) + "…"
    assert quote("\n" * 65) == repr("\n" * 64) + "…"
    text = repr([0] * 50_000)
    assert quote([0] * 50_000) == text[:64] + "…"
    assert quote(b"a" * 61) == repr(b"a" * 61) and len(repr(b"a" * 61)) == 64
    assert quote(b"a" * 62) == repr(b"a" * 62)[:64] + "…"
    huge = 10**5000
    assert (quote([huge]), quote((1, huge)), quote({huge})) == ("<list>", "<tuple>", "<set>")
    for refuse, message in (
        (lambda: is_prime([huge]), "modulus must be an int, got <list>"),
        (lambda: PrimeField(7).check([1, (huge,)]), "field value <tuple> is not an int in [0, 7)"),
        (lambda: is_prime(huge), f"primality is only proven below {MR_BOUND}, got 1{'0' * 63}…"),
        (lambda: PrimeField(7).check([1, huge]), f"field value 1{'0' * 63}… is not an int in [0, 7)"),
        (lambda: PrimeField(7).check([-huge]), f"field value -1{'0' * 63}… is not an int in [0, 7)"),
    ):
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == message


def test_quote_converts_at_most_65_elements_of_a_list_or_tuple():
    # The echo of a list or tuple is the repr of its first QUOTE_CAP + 1
    # elements, cut, so its cost does not grow with the value: counted in
    # element reprs, not timed.  A subclass, such as a record, and a set are
    # converted whole.
    calls = []

    class Counted:
        def __repr__(self):
            calls.append(1)
            return "c"

    items = [Counted()] * 10_000
    for value, reprs in ((items, 65), (tuple(items), 65), (items[:64], 64), (set(items), 1)):
        calls.clear()
        text = quote(value)
        assert len(calls) == reprs, type(value)
        assert text == repr(value)[:64] + "…" * (len(repr(value)) > 64)
    # The cut keeps every echo's first 64 characters.  An int past the digit
    # limit within the first 65 elements still falls back to the type name;
    # past them it is not converted, so the echo is the elements before it.
    assert quote([0] * 50_000) == repr([0] * 65)[:64] + "…"
    assert quote([0] * 64 + [10**5000]) == "<list>"
    assert quote([0] * 100 + [10**5000]) == repr([0] * 65)[:64] + "…"


def test_copies_of_a_field_are_checked_as_it_is():
    # _replace and _make call the constructor, so no copy holds a composite.
    gf = PrimeField(13)
    assert gf._replace(p=7) == PrimeField(7)
    for copy in (lambda: gf._replace(p=12), lambda: PrimeField._make([12])):
        with pytest.raises(ValueError, match="^modulus must be prime, got 12$"):
            copy()


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
    # A field is an lru_cache key in mds, so its modulus cannot be rebound.
    with pytest.raises(AttributeError):
        PrimeField(13).p = 7
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
