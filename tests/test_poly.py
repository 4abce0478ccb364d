import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsdec import Field, UniPoly
from rsdec.poly import Interpolator, locator_poly, NEG_INF, poly_divrem

F17 = Field(17)
F7 = Field(7)


def mkpoly(field, ints):
    return UniPoly.from_ints(field, ints)


def interpolate(field, points):
    """The polynomial of degree < len(points) through the points, by `Interpolator`."""
    xs = [x for x, _ in points]
    return mkpoly(field, Interpolator(locator_poly(field, xs), xs)([[y for _, y in points]])[0])


coeff_lists = st.lists(st.integers(0, 16), max_size=8)


def test_normalization_drops_trailing_zeros():
    p = mkpoly(F17, [1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (1, 2)
    # ints are reduced mod q before the trailing zeros go
    assert UniPoly(F7, [10, -1]).coeffs == (3, 6)
    assert UniPoly(F7, [3, 7, -14]).coeffs == (3,)


def test_zero_polynomial_degree_sentinel():
    z = UniPoly.zero(F17)
    assert z.is_zero()
    assert z.degree == NEG_INF
    assert NEG_INF < 0
    assert NEG_INF < -(10**9)


def test_constructors():
    assert UniPoly.one(F17).coeffs == (1,)
    assert UniPoly(F17, (5,)).degree == 0
    assert mkpoly(F17, [0, 0]).is_zero()


def test_leading_and_monic():
    p = mkpoly(F17, [1, 0, 3])
    assert p.leading == 3
    assert p.monic().leading == 1
    assert p.monic() * 3 == p
    with pytest.raises(ValueError):
        UniPoly.zero(F17).monic()
    with pytest.raises(ValueError):
        UniPoly.zero(F17).leading


@given(coeff_lists, coeff_lists, st.integers(0, 16))
def test_add_mul_agree_with_pointwise_evaluation(a, b, x):
    pa, pb = mkpoly(F17, a), mkpoly(F17, b)
    assert (pa + pb).evaluate(x) == (pa.evaluate(x) + pb.evaluate(x)) % 17
    assert (pa - pb).evaluate(x) == (pa.evaluate(x) - pb.evaluate(x)) % 17
    assert (pa * pb).evaluate(x) == (pa.evaluate(x) * pb.evaluate(x)) % 17


@given(coeff_lists, coeff_lists)
def test_mul_degree_adds(a, b):
    pa, pb = mkpoly(F17, a), mkpoly(F17, b)
    prod = pa * pb
    if pa.is_zero() or pb.is_zero():
        assert prod.is_zero()
    else:
        assert prod.degree == pa.degree + pb.degree


def test_evaluate_matches_naive_sum():
    p = mkpoly(F17, [3, 0, 5, 1])
    for x in range(17):
        expect = sum(c * x**i for i, c in enumerate([3, 0, 5, 1])) % 17
        assert p.evaluate(x) == expect


def test_scalar_and_int_multiplication():
    p = mkpoly(F17, [1, 2])
    assert p * 3 == mkpoly(F17, [3, 6])
    assert p * 20 == mkpoly(F17, [3, 6])
    assert 3 * p == mkpoly(F17, [3, 6])
    assert p * 0 == UniPoly.zero(F17)


def test_pow():
    x = mkpoly(F17, [0, 1])
    assert (x + UniPoly.one(F17)) ** 2 == mkpoly(F17, [1, 2, 1])
    assert x**0 == UniPoly.one(F17)


@given(coeff_lists, st.lists(st.integers(0, 16), min_size=1, max_size=5))
def test_divrem_reconstructs(a, b):
    pa, pb = mkpoly(F17, a), mkpoly(F17, b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divrem(pa, pb)
        return
    quot, rem = poly_divrem(pa, pb)
    assert quot * pb + rem == pa
    assert rem.degree < pb.degree


def test_divrem_exact_case():
    num = mkpoly(F17, [16, 0, 1])  # x^2 - 1
    den = mkpoly(F17, [1, 1])
    quot, rem = poly_divrem(num, den)
    assert rem.is_zero()
    assert quot == mkpoly(F17, [16, 1])


def test_lagrange_interpolation_hits_points():
    pts = [(1, 3), (2, 0), (4, 5)]
    p = interpolate(F7, pts)
    assert p.degree < 3
    for x, y in pts:
        assert p.evaluate(x) == y


@given(st.lists(st.integers(0, 16), min_size=1, max_size=6, unique=True), st.data())
def test_lagrange_recovers_low_degree_poly(xs, data):
    coeffs = data.draw(st.lists(st.integers(0, 16), min_size=len(xs), max_size=len(xs)))
    p = mkpoly(F17, coeffs)
    pts = [(x, p.evaluate(x)) for x in xs]
    assert interpolate(F17, pts) == p


def test_lagrange_recovers_a_poly_through_rs128_locators():
    # RS(128,8)/GF(257) size: virs interpolates on these locators
    F = Field(257)
    p = mkpoly(F, [(7 * i + 3) % 257 for i in range(101)])
    pts = [(pow(3, i, 257), p.evaluate(pow(3, i, 257))) for i in range(128)]
    assert interpolate(F, pts) == p
    # y is reduced mod q
    shifted = [(x, y + 257 * (x % 5 - 2)) for x, y in pts]
    assert interpolate(F, shifted) == p


def test_locator_poly_roots():
    roots = [3, 5, 9]
    p = locator_poly(F17, roots)
    assert p.degree == 3
    assert p.leading == 1
    for r in roots:
        assert p.evaluate(r) == 0
    assert locator_poly(F17, []) == UniPoly.one(F17)


def test_hasse_derivative_shifts_coefficients():
    # p = 1 + x + x^2 + x^3: first Hasse derivative is the formal one
    p = mkpoly(F17, [1, 1, 1, 1])
    assert p.hasse(1) == mkpoly(F17, [1, 2, 3])
    assert p.hasse(0) == p
    assert p.hasse(4).is_zero()
    with pytest.raises(ValueError):
        p.hasse(-1)


def test_hasse_in_characteristic_two():
    F2 = Field(2)
    # d/dx of x^2 vanishes mod 2 but the second Hasse derivative is 1
    p = UniPoly.from_ints(F2, [0, 0, 1])
    assert p.hasse(1).is_zero()
    assert p.hasse(2) == UniPoly.one(F2)


@given(coeff_lists, st.integers(0, 3), st.integers(0, 3))
def test_hasse_composition(a, i, j):
    from rsdec.field import binom_mod

    p = mkpoly(F17, a)
    lhs = p.hasse(i).hasse(j)
    rhs = p.hasse(i + j) * binom_mod(i + j, i, 17)
    assert lhs == rhs


def test_mixed_field_operations_rejected():
    with pytest.raises(ValueError):
        mkpoly(F17, [1]) + mkpoly(F7, [1])
    with pytest.raises(ValueError):
        mkpoly(F17, [1]) * mkpoly(F7, [1])
    with pytest.raises(ValueError):
        poly_divrem(mkpoly(F17, [1]), mkpoly(F7, [1]))
