"""The prime field GF(q) as a context for plain int symbols.

Retrieval schemes only ever add and subtract stored symbols.  Symbols
travel through the package as plain ints reduced mod q; `Field` validates
the modulus and carries it, and decoding subtracts through it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CompositeModulus


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial division; ample for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class Field:
    """The prime field GF(q), acting on ints in [0, q)."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise CompositeModulus(f"modulus {q} is not prime")
        self.q = q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))

    def __repr__(self):
        return f"Field(q={self.q})"

