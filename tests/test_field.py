"""Prime-field arithmetic."""

import pytest

from localpir.errors import CompositeModulus, ModulusTooLarge
from localpir.field import PRIMALITY_BOUND, _is_prime, check_modulus


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for p in range(2, limit):
        if flags[p]:
            for m in range(p * p, limit, p):
                flags[m] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    for n in range(2000):
        assert _is_prime(n) == flags[n], n


def test_is_prime_decides_large_moduli():
    assert _is_prime(2**61 - 1)
    assert _is_prime(PRIMALITY_BOUND - 168)     # the largest prime below it
    # strong pseudoprimes to the prime bases 2..7, 2..23 and 2..37
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert not _is_prime(PRIMALITY_BOUND - 2)


@pytest.mark.parametrize("q", [PRIMALITY_BOUND, 10**30])
def test_modulus_at_or_above_the_primality_bound_is_refused(q):
    with pytest.raises(ModulusTooLarge, match=str(PRIMALITY_BOUND)):
        check_modulus(q)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 10, 15, 100, 2047])
def test_composite_modulus_rejected(q):
    with pytest.raises(CompositeModulus):
        check_modulus(q)
