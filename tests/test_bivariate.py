import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsdec import Field, UniPoly
from rsdec.bivariate import (
    BiPoly,
    FactorError,
    extract_power_factor,
    hasse_mixed,
    hasse_y,
    scaling_map,
    shift,
    substitute_y,
)
from rsdec.field import binom_mod

F17 = Field(17)


def power_factor_poly(W, f, s):
    """W(x) * (y - f(x))^s by BiPoly arithmetic, the expansion that
    `extract_power_factor` avoids."""
    return BiPoly.from_uni(W) * BiPoly(W.field, (-f, UniPoly.one(W.field))) ** s


def split(Q, s, k):
    """`extract_power_factor` on the components of Q under D(s)."""
    return extract_power_factor(Q.components, scaling_map(s, Q.field), k)


def bipoly(field, rows):
    return BiPoly(field, [UniPoly.from_ints(field, row) for row in rows])


small_bipoly = st.lists(
    st.lists(st.integers(0, 16), max_size=4), min_size=1, max_size=4
).map(lambda rows: bipoly(F17, rows))


class GridPoly:
    """Independent dict-of-monomials model used as the test oracle."""

    def __init__(self, terms=None):
        self.terms = {m: c % 17 for m, c in (terms or {}).items() if c % 17}

    @classmethod
    def from_bipoly(cls, Q):
        terms = {}
        for t, comp in enumerate(Q.components):
            for i, c in enumerate(comp.coeffs):
                terms[(i, t)] = c
        return cls(terms)

    def shifted(self, x0, y0):
        # expand Q(x + x0, y + y0) monomial by monomial
        from math import comb

        out = {}
        for (i, t), c in self.terms.items():
            for a in range(i + 1):
                for b in range(t + 1):
                    coeff = c * comb(i, a) * pow(x0, i - a, 17) * comb(t, b) * pow(y0, t - b, 17)
                    out[(a, b)] = (out.get((a, b), 0) + coeff) % 17
        return GridPoly(out)

    def coefficient(self, a, b):
        return self.terms.get((a, b), 0)


def test_hasse_y_single_power():
    y2 = bipoly(F17, [[], [], [1]])
    assert hasse_y(y2, 1) == bipoly(F17, [[], [2]])
    assert hasse_y(y2, 2) == bipoly(F17, [[1]])


def test_hasse_y_order_zero_is_identity():
    Q = bipoly(F17, [[1, 2], [3], [0, 4]])
    assert hasse_y(Q, 0) == Q


def test_hasse_y_characteristic_two():
    F2 = Field(2)
    y2 = BiPoly(F2, [UniPoly.zero(F2), UniPoly.zero(F2), UniPoly.one(F2)])
    assert hasse_y(y2, 1).is_zero()


@given(small_bipoly, st.integers(0, 3), st.integers(0, 3))
def test_hasse_y_composition(Q, a, b):
    lhs = hasse_y(hasse_y(Q, a), b)
    rhs = hasse_y(Q, a + b) * binom_mod(a + b, a, 17)
    assert lhs == rhs


@given(st.lists(st.integers(0, 16), max_size=3), st.integers(1, 5), st.data())
def test_hasse_y_of_power_factor(f_coeffs, s, data):
    f = UniPoly.from_ints(F17, f_coeffs)
    b = data.draw(st.integers(0, s))
    y_minus_f = BiPoly(F17, [-f, UniPoly.one(F17)])
    lhs = hasse_y(y_minus_f**s, b)
    rhs = y_minus_f ** (s - b) * binom_mod(s, b, 17)
    assert lhs == rhs


@given(small_bipoly, st.integers(0, 3), st.integers(0, 3), st.integers(0, 16), st.integers(0, 16))
def test_hasse_mixed_matches_shift_oracle(Q, a, b, x0, y0):
    got = hasse_mixed(Q, a, b, x0, y0)
    want = GridPoly.from_bipoly(Q).shifted(x0, y0).coefficient(a, b)
    assert got == want


@given(small_bipoly, st.integers(0, 16), st.integers(0, 16))
def test_shift_matches_oracle_grid(Q, x0, y0):
    got = GridPoly.from_bipoly(shift(Q, x0, y0))
    want = GridPoly.from_bipoly(Q).shifted(x0, y0)
    assert got.terms == want.terms


def test_hasse_mixed_order_zero_is_evaluation():
    Q = bipoly(F17, [[1, 2, 3], [4, 5], [6]])
    for x0 in [0, 1, 5]:
        for y0 in [0, 2, 16]:
            assert hasse_mixed(Q, 0, 0, x0, y0) == Q.evaluate(x0, y0)


def test_hasse_mixed_double_root():
    c = 6
    Q = BiPoly(F17, [UniPoly(F17, (c * c,)), UniPoly(F17, (-2 * c,)), UniPoly.one(F17)])
    x0 = 3
    assert hasse_mixed(Q, 0, 0, x0, c) == 0
    assert hasse_mixed(Q, 0, 1, x0, c) == 0
    assert hasse_mixed(Q, 0, 2, x0, c) == 1


def test_substitute_y_root_curve():
    g = UniPoly.from_ints(F17, [2, 5, 1])
    Q = BiPoly(F17, [-g, UniPoly.one(F17)])  # y - g
    assert substitute_y(Q, g).is_zero()


def test_substitute_y_no_y_dependence():
    q0 = UniPoly.from_ints(F17, [1, 2, 3])
    Q = BiPoly.from_uni(q0)
    assert substitute_y(Q, UniPoly.from_ints(F17, [9, 9])) == q0


@given(small_bipoly, st.lists(st.integers(0, 16), max_size=3), st.integers(0, 16))
def test_substitute_y_agrees_pointwise(Q, g_coeffs, x):
    g = UniPoly.from_ints(F17, g_coeffs)
    assert substitute_y(Q, g).evaluate(x) == Q.evaluate(x, g.evaluate(x))


@given(
    st.lists(st.integers(0, 16), min_size=1, max_size=3),
    st.lists(st.integers(0, 16), max_size=3),
    st.integers(1, 4),
)
def test_extract_power_factor_round_trip(W_coeffs, f_coeffs, s):
    W = UniPoly.from_ints(F17, W_coeffs)
    f = UniPoly.from_ints(F17, f_coeffs)
    if W.is_zero():
        W = UniPoly.one(F17)
    k = max(len(f_coeffs), 1)
    Q = power_factor_poly(W, f, s)
    got_W, got_f = split(Q, s, k)
    assert got_W == W
    assert got_f == f


def test_extract_power_factor_simple():
    x = UniPoly.from_ints(F17, [0, 1])
    Q = power_factor_poly(UniPoly.one(F17), x, 2)  # (y - x)^2
    W, f = split(Q, 2, 2)
    assert W == UniPoly.one(F17)
    assert f == x


def test_extract_power_factor_inexact_division():
    # top components x and 1: candidate f = -1/(2x) is not a polynomial
    Q = bipoly(F17, [[5], [1], [0, 1]])
    with pytest.raises(FactorError) as err:
        split(Q, 2, 4)
    assert err.value.reason == "division"


def test_extract_power_factor_degree_violation():
    Q = power_factor_poly(UniPoly.one(F17), UniPoly.from_ints(F17, [0, 1]), 2)
    with pytest.raises(FactorError) as err:
        split(Q, 2, 1)  # deg f = 1 but k = 1
    assert err.value.reason == "degree"


def test_bipoly_normalization_and_accessors():
    Q = bipoly(F17, [[1], []])
    assert Q.ydeg == 0
    assert BiPoly.zero(F17).is_zero()
    assert Q.component(5).is_zero()
    y = bipoly(F17, [[], [1]])
    assert y.ydeg == 1
    assert (y * y).component(2) == UniPoly.one(F17)


def test_bipoly_arithmetic_consistency():
    A = bipoly(F17, [[1, 2], [3]])
    B = bipoly(F17, [[5], [0, 1], [2]])
    x0, y0 = 4, 11
    a, b = A.evaluate(x0, y0), B.evaluate(x0, y0)
    assert (A + B).evaluate(x0, y0) == (a + b) % 17
    assert (A - B).evaluate(x0, y0) == (a - b) % 17
    assert (A * B).evaluate(x0, y0) == (a * b) % 17
    assert (-A).evaluate(x0, y0) == -a % 17
    assert (A * 3).evaluate(x0, y0) == a * 3 % 17
