"""Prime-field arithmetic.

Elements of GF(p) are plain ``int``s in [0, p).  ``PrimeField`` carries the
modulus and checks values where they enter the program (databases and
wire documents); arithmetic inside the program is ordinary integer
arithmetic reduced mod p.  Each modulus is proven prime once per process:
``is_prime`` memoises its verdict, so the database reader and the query
parser of one round, and every later round, share one proof.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson & Webster, 2015); with the first 12 it is not, since
# 318665857834031151167461 is a strong pseudoprime to all of them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, proven for n < 3317044064679887385961981.

    Raises ValueError for larger n, where these witnesses prove nothing, and
    for any n whose type is not exactly ``int`` (``bool``, ``7.0`` and
    unhashable values included): a modulus is accepted exactly or not at
    all.  Both checks run on every call, before the memoised test is asked.
    """
    if type(n) is not int:
        raise ValueError(f"modulus must be an int, got {n!r}")
    if n >= MR_BOUND:
        raise ValueError(f"primality is only proven below {MR_BOUND}, got {n}")
    return _miller_rabin(n)


@lru_cache(maxsize=64)
def _miller_rabin(n: int) -> bool:
    """``is_prime``'s verdict for an ``int`` below ``MR_BOUND``, memoised per modulus."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The modulus of GF(p), validated once, and the check for its values."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    # The program never calls this; perfbench's untraced Rounds.prepare does.
    def element(self, value: int) -> int:
        """The canonical representative of ``value`` mod p."""
        return value % self.p

    def check(self, values: Iterable[int]) -> tuple[int, ...]:
        """``values`` as a tuple, if every one is an ``int`` in [0, p).

        Anything else, a ``bool`` or a ``float`` included, raises ValueError:
        values crossing into the program are accepted exactly or not at all.
        """
        values = tuple(values)
        if values and (
            set(map(type, values)) != {int} or min(values) < 0 or max(values) >= self.p
        ):
            bad = next(v for v in values if type(v) is not int or not 0 <= v < self.p)
            raise ValueError(f"field value {bad!r} is not an int in [0, {self.p})")
        return values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeField):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
