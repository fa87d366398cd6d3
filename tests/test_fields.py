import random
from fractions import Fraction
from math import factorial

import pytest

from macdual.errors import DomainError
from macdual.fields import Field, is_prime


def test_rational_examples():
    F = Field(0)
    assert F.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert F.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert F.from_int(6) == 6
    assert F.fraction(4, 2) == 2  # canonical: unit denominators collapse


def test_prime_field_examples():
    F3 = Field(3)
    assert F3.mul(2, 2) == 1
    assert F3.from_int(3) == 0
    assert Field(5).from_int(-7) == 3


def test_characteristic_validation():
    Field(0)
    Field(2)
    Field(101)
    for bad in (1, 4, 6, 9, 15, -3):
        with pytest.raises(DomainError):
            Field(bad)


def test_is_prime_larger():
    assert is_prime(65521)
    assert not is_prime(65520)
    assert is_prime(2 ** 61 - 1)


PSI_12 = 318665857834031151167461      # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981     # strong pseudoprime to bases 2..41


def test_is_prime_rejects_strong_pseudoprimes():
    # psi_12 fools every base up to 37; base 41 exposes it
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(DomainError):
        Field(PSI_12)
    # psi_13 fools every base up to 41, so the field refuses it outright
    with pytest.raises(DomainError):
        Field(PSI_13)
    assert Field(2 ** 61 - 1).char == 2 ** 61 - 1


def test_division_by_zero():
    for F in (Field(0), Field(7)):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)
        with pytest.raises(ZeroDivisionError):
            F.fraction(1, 0)


@pytest.mark.parametrize("char", [0, 101])
def test_field_axioms_random(char):
    F = Field(char)
    rng = random.Random(12345 + char)

    def rand():
        if char:
            return rng.randrange(char)
        return F.fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


def test_binomial_examples():
    assert Field(0).binomial(4, 2) == 6
    assert Field(3).binomial(4, 2) == 0
    for n in range(8):
        assert Field(7).binomial(n, 0) == 1


def test_binomial_factorial_identity_char0():
    F = Field(0)
    for n in range(10):
        for k in range(n + 1):
            lhs = F.mul(F.mul(F.binomial(n, k),
                              F.from_int(factorial(k))),
                        F.from_int(factorial(n - k)))
            assert lhs == F.from_int(factorial(n))
