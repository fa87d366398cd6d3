"""Exact scalar arithmetic, parameterized by characteristic.

Characteristic zero works with Python ints and ``fractions.Fraction`` (kept
as plain ints whenever the denominator is one); characteristic p keeps
canonical residues in ``range(p)``.  That format is decided here and
nowhere else.  :meth:`Field.canon` is the canonicaliser for whole sums: it
turns a dict of raw int/Fraction values (sums and products of elements,
computed with plain ``+`` and ``*``) into canonical elements and drops the
zeros, so :mod:`macdual.poly` sums raw and canonicalises once per result.
The per-element methods (``add``, ``mul``, ...) keep each result canonical
for the element-by-element arithmetic of :mod:`macdual.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson and Webster, Math. Comp. 2017); below it is_prime is exact
_EXACT_BELOW = 3317044064679887385961981


@lru_cache(maxsize=64, typed=True)  # asked on every Field(p)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41: exact for all
    n < _EXACT_BELOW (about 3.3e24), unproven above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def _canon0(a):
    # collapse Fraction with unit denominator back to int
    if isinstance(a, Fraction) and a.denominator == 1:
        return a.numerator
    return a


class Field:
    """The rationals (char 0) or the prime field F_p (char p)."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        if char != 0 and not is_prime(char):
            raise DomainError("characteristic must be 0 or prime, got %r" % (char,))
        if char >= _EXACT_BELOW:
            raise DomainError("characteristic %d is too large: primality is "
                              "certified only below %d"
                              % (char, _EXACT_BELOW))
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Field(%d)" % self.char

    # -- element constructors ------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.char if self.char else n

    def fraction(self, num: int, den: int):
        if self.char:
            if den % self.char == 0:
                raise ZeroDivisionError("division by zero in F_%d" % self.char)
            return num * pow(den, -1, self.char) % self.char
        if den == 0:
            raise ZeroDivisionError("division by zero")
        return _canon0(Fraction(num, den))

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.char if self.char else _canon0(a + b)

    def sub(self, a, b):
        return (a - b) % self.char if self.char else _canon0(a - b)

    def mul(self, a, b):
        return a * b % self.char if self.char else _canon0(a * b)

    def neg(self, a):
        return -a % self.char if self.char else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self.char:
            return pow(a, -1, self.char)
        return _canon0(Fraction(1, 1) / a)

    def power(self, a, k: int):
        if self.char:
            return pow(a, k, self.char)
        return _canon0(a ** k)

    def is_zero(self, a) -> bool:
        return a == 0

    def canon(self, raw: dict) -> dict:
        """raw with its values (ints, Fractions, or sums and products of
        field elements) made canonical, zeros dropped: residues in range(p)
        in characteristic p; over Q, ints whenever the denominator is one."""
        p = self.char
        if p:
            return {k: r for k, v in raw.items() if (r := v % p)}
        return {k: v.numerator if v.denominator == 1 else v
                for k, v in raw.items() if v}

    # -- derived constants -------------------------------------------------------

    def binomial(self, n: int, k: int):
        """Image of C(n, k): computed over the integers first, then reduced."""
        if k < 0 or k > n:
            raise DomainError("binomial requires 0 <= k <= n")
        return self.from_int(comb(n, k))


QQ = Field(0)
