"""The prime field GF(q) for plain int symbols.

Retrieval schemes only ever add and subtract stored symbols.  Symbols
travel through the package as plain ints reduced mod q; `check_modulus`
refuses a q that does not give a field.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CompositeModulus, ModulusTooLarge

# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over `PRIME_BASES`, in polylog time.

    Exact for every n below `PRIMALITY_BOUND`; a larger n is refused.
    """
    if n >= PRIMALITY_BOUND:
        raise ModulusTooLarge(
            f"modulus {n} is too large: primality is decided exactly only "
            f"below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(q: int) -> None:
    """Refuse a modulus q that is not a prime `_is_prime` can decide."""
    if not _is_prime(q):
        raise CompositeModulus(f"modulus {q} is not prime")
