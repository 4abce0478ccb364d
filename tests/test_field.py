import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsdec import Field
from rsdec.field import binom_mod

PRIMES = [2, 3, 5, 7, 17, 31, 257, 65521]


def test_field_rejects_non_prime():
    for q in [0, 1, 4, 9, 15, 65536]:
        with pytest.raises(ValueError):
            Field(q)


def test_field_rejects_oversized_prime():
    # 65537 is prime but one past the 16-bit cap
    with pytest.raises(ValueError):
        Field(65537)


def test_field_rejects_bool():
    with pytest.raises(ValueError):
        Field(True)


def test_primitive_element_search():
    assert Field(2).primitive_element == 1
    assert Field(7).primitive_element == 3
    assert Field(17).primitive_element == 3


def test_primitive_element_has_full_order():
    for q in PRIMES:
        a = Field(q).primitive_element
        assert len({pow(a, i, q) for i in range(q - 1)}) == q - 1


def test_explicit_alpha_validated():
    assert Field(17, 5).primitive_element == 5
    with pytest.raises(ValueError):
        Field(17, 2)  # order 8
    with pytest.raises(ValueError):
        Field(17, 16)  # order 2
    with pytest.raises(ValueError):
        Field(17, 0)


def test_inverse_and_division():
    F = Field(31)
    for a in range(1, 31):
        assert a * F.inv(a) % 31 == 1
        assert 0 < F.inv(a) < 31
    assert 6 * F.inv(3) % 31 == 2
    assert F.inv(2) == 16
    assert F.inv(-1) == 30
    assert F.inv(33) == 16  # residues are reduced first
    for zero in (0, 31, -62):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


def lucas(n, k, q):
    """C(n, k) mod q by Lucas's theorem: the product of C(n_i, k_i) over
    the base-q digits, each digit's binomial by Pascal's recurrence."""
    out = 1
    while n or k:
        (n, ni), (k, ki) = divmod(n, q), divmod(k, q)
        row = [1]
        for _ in range(ni):
            row = [1] + [u + v for u, v in zip(row, row[1:])] + [1]
        out = out * (row[ki] if ki <= ni else 0) % q
    return out


@given(st.integers(0, 40), st.integers(-3, 45), st.sampled_from(PRIMES))
def test_binom_matches_math_comb(n, k, q):
    expect = lucas(n, k, q) if 0 <= k <= n else 0
    assert binom_mod(n, k, q) == expect


def test_binom_characteristic_wraps():
    assert binom_mod(2, 1, 2) == 0
    assert binom_mod(4, 2, 3) == 0  # C(4,2) = 6
    assert binom_mod(2, 1, 17) == 2


def test_repr_and_hash():
    F = Field(17)
    assert repr(F) == "GF(17)"
    assert len({F, Field(17), Field(17, 5)}) == 2
    assert Field(17) == Field(17)
    assert Field(17) != Field(13)
