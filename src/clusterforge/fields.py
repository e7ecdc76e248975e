"""Exact working fields: the rationals and prime fields.

Structural computations run over the rationals; flag counting runs over
prime fields.  Elements are plain numbers written with Python operators,
each in one canonical form: a QQ element is an int when it is integral and
a Fraction otherwise, a GF(p) element an int in [0, p).  A field holds only
what the operators cannot do: `coerce` a value into its canonical form,
`inv` exactly, and `reduce` a computed row to canonical elements, which
over GF(p) takes every entry mod p and over QQ turns every integral
Fraction into its numerator.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Field of exact rationals; an element is an int when it is integral
    and a Fraction otherwise."""

    name = "QQ"

    def coerce(self, x):
        """An int, Fraction or rational string as a canonical element."""
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        return 1 / Fraction(a)

    def reduce(self, row):
        return [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in row]

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p); elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, x):
        """Map an int or Fraction into GF(p); the denominator must be a unit."""
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, self.p - 2, self.p)) % self.p
        return int(x) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.p - 2, self.p)

    def reduce(self, row):
        p = self.p
        return [x % p for x in row]

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()
