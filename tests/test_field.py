"""Prime-field arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from localpir.errors import CompositeModulus, ModulusTooLarge
from localpir.field import PRIMALITY_BOUND, Field, is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


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
        assert is_prime(n) == flags[n], n


def test_is_prime_decides_large_moduli():
    assert is_prime(2**61 - 1)
    assert is_prime(PRIMALITY_BOUND - 168)     # the largest prime below it
    # strong pseudoprimes to the prime bases 2..7, 2..23 and 2..37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(PRIMALITY_BOUND - 2)


@pytest.mark.parametrize("q", [PRIMALITY_BOUND, 10**30])
def test_modulus_at_or_above_the_primality_bound_is_refused(q):
    with pytest.raises(ModulusTooLarge, match=str(PRIMALITY_BOUND)):
        Field(q)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 10, 15, 100, 2047])
def test_composite_modulus_rejected(q):
    with pytest.raises(CompositeModulus):
        Field(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_basic_ops(q):
    fld = Field(q)
    assert fld.q == q
    assert fld.sub(0, 1) == q - 1
    assert fld.sub(q - 1, q - 1) == 0
    assert fld.sub(1, q + 1) == 0


@given(st.sampled_from(SMALL_PRIMES), st.integers(-500, 500),
       st.integers(-500, 500))
def test_add_sub_roundtrip(q, a, b):
    fld = Field(q)
    assert fld.sub(a + b, b) == a % q
    assert (fld.sub(a, b) + b) % q == a % q


@given(st.sampled_from(SMALL_PRIMES), st.integers(-500, 500))
def test_neg_is_additive_inverse(q, a):
    fld = Field(q)
    assert (a + fld.sub(0, a)) % q == 0


def test_field_equality_and_hash():
    assert Field(7) == Field(7)
    assert Field(7) != Field(5)
    assert len({Field(7), Field(7), Field(5)}) == 2
