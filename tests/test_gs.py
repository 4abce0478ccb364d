import random

import pytest

import gf17_example as ex
from rsdec import CodeSpec, Field, UniPoly, Word, corrupt, encode, wb_radius
from rsdec.bivariate import BiPoly, hasse_mixed, substitute_y
from rsdec.code import random_error
from rsdec.gs import (
    GsParams,
    _constraint_matrix,
    gs_interpolate,
    gs_params_valid,
    hasse_rows,
    key_equation_check,
    multiplicity_at,
)
from rsdec.poly import locator_poly, split_blocks
from rsdec.wb import wb_build

F17 = Field(17)


def half_distance_params(n, k):
    tau = wb_radius(n, k)
    return GsParams(n, k, ell=1, s=1, tau=tau)


def test_params_valid_at_half_distance():
    for n, k in [(16, 4), (6, 2), (10, 3), (15, 7)]:
        valid, unknowns, constraints = gs_params_valid(half_distance_params(n, k))
        assert valid
        tau = wb_radius(n, k)
        assert unknowns == 2 * (n - tau) - k + 1
        assert constraints == n


def test_params_invalid_past_half_distance_even_gap():
    # one past half distance with n - k even leaves no slack
    p = GsParams(16, 4, ell=1, s=1, tau=7)
    valid, unknowns, constraints = gs_params_valid(p)
    assert not valid
    assert unknowns == 15
    assert constraints == 16


def test_params_counting_list_two():
    valid, unknowns, constraints = gs_params_valid(GsParams(16, 4, ell=2, s=1, tau=7))
    assert (valid, unknowns, constraints) == (True, 18, 16)
    # raising tau by one starves the monomial supply
    valid, unknowns, constraints = gs_params_valid(GsParams(16, 4, ell=2, s=1, tau=8))
    assert (valid, unknowns, constraints) == (False, 15, 16)


def test_params_counting_drops_empty_blocks():
    p = GsParams(8, 5, ell=3, s=1, tau=2)
    widths = p.column_widths()
    assert widths == (6, 2, 0, 0)
    _, unknowns, _ = gs_params_valid(p)
    assert unknowns == 8


def test_params_validation():
    with pytest.raises(ValueError):
        GsParams(4, 5, 1, 1, 0)
    with pytest.raises(ValueError):
        GsParams(8, 2, 0, 1, 0)
    with pytest.raises(ValueError):
        GsParams(8, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        GsParams(8, 2, 1, 1, -1)


def test_interpolation_factors_within_half_distance():
    spec, f, c, _ = ex.instance()
    p = half_distance_params(16, 4)
    for seed in range(5):
        e = random_error(spec, 6, seed)
        r = corrupt(c, e)
        Q = gs_interpolate(spec, r, p)
        lam = locator_poly(
            spec.field, [a for a, v in zip(spec.locators, e.symbols) if v != 0]
        )
        # Q = Q1 (y - f) with Q1 a scalar multiple of the locator
        q1 = Q.component(1)
        assert q1.monic() == lam
        assert Q.component(0) == -(q1 * f)


def test_interpolation_vanishes_on_codeword_curve():
    spec, f, c, _ = ex.instance()
    for params in [half_distance_params(16, 4), GsParams(16, 4, ell=2, s=2, tau=6)]:
        Q = gs_interpolate(spec, c, params)
        assert substitute_y(Q, f).is_zero()


def test_interpolation_multiplicity_met():
    spec, _, c, _ = ex.instance()
    r = corrupt(c, random_error(spec, 4, 7))
    p = GsParams(16, 4, ell=2, s=2, tau=6)
    Q = gs_interpolate(spec, r, p)
    for x0, y0 in zip(spec.locators, r.symbols):
        assert multiplicity_at(Q, x0, y0) >= 2
        # independent check through the mixed-derivative formula
        for a in range(2):
            for b in range(2 - a):
                assert hasse_mixed(Q, a, b, x0, y0) == 0


def test_interpolate_rejects_bad_params():
    spec, _, _, r = ex.instance()
    with pytest.raises(ValueError):
        gs_interpolate(spec, r, GsParams(16, 4, ell=1, s=1, tau=7))
    with pytest.raises(ValueError):
        gs_interpolate(spec, r, GsParams(8, 4, ell=1, s=1, tau=1))


def test_multiplicity_at_examples():
    x0, y0 = 4, 9
    y_minus = BiPoly(F17, [UniPoly(F17, (-y0,)), UniPoly.one(F17)])
    x_minus = BiPoly.from_uni(UniPoly(F17, (-x0, 1)))
    assert multiplicity_at(y_minus * y_minus, x0, y0) == 2
    assert multiplicity_at(x_minus * y_minus, x0, y0) == 2
    assert multiplicity_at(y_minus * y_minus, x0, 1) == 0
    with pytest.raises(ValueError):
        multiplicity_at(BiPoly.zero(F17), x0, y0)


def test_key_equation_accepts_interpolation_output():
    spec, _, c, _ = ex.instance()
    p = half_distance_params(16, 4)
    for seed in range(3):
        r = corrupt(c, random_error(spec, 6, seed))
        assert key_equation_check(gs_interpolate(spec, r, p), spec, r, p)


def test_key_equation_rejects_constant():
    spec, _, _, r = ex.instance()
    p = half_distance_params(16, 4)
    Q = BiPoly.from_uni(UniPoly.one(spec.field))
    assert not key_equation_check(Q, spec, r, p)


def test_key_equation_rejects_perturbations():
    spec, _, c, _ = ex.instance()
    p = half_distance_params(16, 4)
    for seed in range(10):
        r = corrupt(c, random_error(spec, 5, seed))
        Q = gs_interpolate(spec, r, p)
        comps = list(Q.components)
        bumped = list(comps[0].coeffs) + [0] * (10 - len(comps[0].coeffs))
        bumped[seed % 10] = bumped[seed % 10] + 1
        mutated = BiPoly(spec.field, [UniPoly(spec.field, bumped)] + comps[1:])
        assert not key_equation_check(mutated, spec, r, p)


def test_key_equation_two_directions_small_instance():
    F = Field(13)
    spec = CodeSpec(F, 6, 2)
    f = UniPoly.from_ints(F, [3, 1])
    c = encode(spec, f)
    e = Word.from_ints(F, [0, 5, 0, 0, 2, 0])
    r = corrupt(c, e)
    p = GsParams(6, 2, ell=2, s=2, tau=2)
    assert gs_params_valid(p)[0]
    Q = gs_interpolate(spec, r, p)
    assert key_equation_check(Q, spec, r, p)
    # a polynomial obeying the degree bounds but not the interpolation
    # conditions must flunk the divisibility form as well
    bad = BiPoly(F, [UniPoly.one(F)] + [UniPoly.zero(F)] * 1 + [UniPoly.one(F)])
    assert any(hasse_mixed(bad, a, b, spec.locators[0], r.symbols[0]) != 0
               for a in range(2) for b in range(2 - a))
    assert not key_equation_check(bad, spec, r, p)


def test_constraint_matrix_coincides_with_wb():
    spec, _, c, _ = ex.instance()
    for seed in range(5):
        r = corrupt(c, random_error(spec, seed, seed))
        gs_mat = _constraint_matrix(spec, r, half_distance_params(16, 4))
        wb_mat = wb_build(spec, r)
        assert gs_mat == wb_mat


@pytest.mark.parametrize("q, n, k, s", [(17, 16, 4, 3), (11, 7, 2, 3), (5, 4, 1, 6), (3, 2, 1, 4)])
def test_hasse_rows_match_shift_oracle(q, n, k, s):
    # each row against the coefficient read off Q(x + alpha_j, y + r_j),
    # on random widths (zero-width blocks included) and random Q
    F = Field(q)
    spec = CodeSpec(F, n, k)
    rng = random.Random(q * 1000 + s)
    orders = [(a, b) for a in range(s) for b in range(s - a)]
    for _ in range(3):
        r = Word.from_ints(F, [rng.randrange(q) for _ in range(n)])
        widths = [rng.randrange(9) for _ in range(rng.randint(1, s + 2))] + [0, rng.randrange(1, 9)]
        vec = [rng.randrange(q) for _ in range(sum(widths))]
        Q = BiPoly(F, split_blocks(F, vec, widths))
        got = iter(hasse_rows(spec, r, widths, orders).mulvec(vec))
        for a, b in orders:
            for x0, y0 in zip(spec.locators, r.symbols):
                assert next(got) == hasse_mixed(Q, a, b, x0, y0)
        assert next(got, None) is None
