"""Exact working fields: the rationals and prime fields.

Structural computations run over the rationals; flag counting runs over
prime fields.  Elements are plain Python objects (Fraction, int mod p) so
matrices are just tuples of tuples.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Field of exact rationals; elements are fractions.Fraction."""

    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def coerce(self, x):
        return Fraction(x)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p); elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def coerce(self, x):
        """Map an int or Fraction into GF(p); the denominator must be a unit."""
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, self.p - 2, self.p)) % self.p
        return int(x) % self.p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()
