import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from rsdec import (
    CodeSpec,
    Field,
    Mat,
    ScalingMap,
    StackedSolution,
    UniPoly,
    build_A,
    build_B,
    build_Bbar,
    corrupt,
    encode,
    locator_poly,
    nullspace,
    nullspace_equivalence,
    power_factor_poly,
    random_error,
    rank,
    scaling_map,
    wb_build,
    wb_radius,
)

F17 = Field(17)


def test_scaling_map_order_two():
    D = scaling_map(2, F17)
    assert D.scalars == (1, 15, 1)
    assert D.invertible


def test_scaling_map_order_one():
    D = scaling_map(1, F17)
    assert D.scalars == (16, 1)
    assert D.invertible


def test_scaling_map_binomial_killed_by_characteristic():
    D = scaling_map(2, Field(2))
    # the middle binomial C(2,1) = 2 vanishes mod 2
    assert D.scalars == (1, 0, 1)
    assert not D.invertible


def test_apply_round_trip():
    D = scaling_map(2, F17)
    widths = ex.WIDTHS
    vec = [i % 17 for i in range(33)]
    assert D.apply_inverse(D.apply(vec, widths), widths) == vec
    with pytest.raises(ValueError):
        D.apply(vec[:-1], widths)


def test_order_one_reduces_to_classical_decoder():
    # at s=1 and the half-distance radius the derivative system IS the
    # classical rational-interpolation system, and scaling by D = (-1, 1)
    # only negates the first block
    spec, _, _, r = ex.instance()
    tau0 = wb_radius(spec.n, spec.k)
    wb = wb_build(spec, r)
    bbar = build_Bbar(spec, r, 1, tau0)
    assert bbar.matrix.rows == wb.matrix.rows
    D = scaling_map(1, F17)
    B = build_B(spec, r, 1, tau0)
    A = build_A(spec, r, 1, tau0)
    assert B.rows == A.rows


def test_scaled_matrix_identity():
    # B = Bbar * D as a column scaling, so Bbar @ (D v) == B @ v
    spec, _, _, r = ex.instance()
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    B = build_B(spec, r, 2, 7)
    D = scaling_map(2, F17)
    vec = [pow(3, i, 17) for i in range(33)]
    assert Bbar.mulvec(D.apply(vec, ex.WIDTHS)) == B.mulvec(vec)


def test_nullspace_equivalence_worked_example():
    spec, _, _, r = ex.instance()
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    D = scaling_map(2, F17)
    assert nullspace_equivalence(A, Bbar, D, ex.WIDTHS)
    assert rank(A) == rank(Bbar)
    assert len(nullspace(A)) == 1


def test_nullspace_equivalence_detects_corruption():
    spec, _, _, r = ex.instance()
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    D = scaling_map(2, F17)
    bad = [list(row) for row in A.rows]
    bad[3][5] = (bad[3][5] + 1) % 17
    A_bad = Mat(F17, tuple(tuple(row) for row in bad))
    assert not nullspace_equivalence(A_bad, Bbar, D, ex.WIDTHS)


def test_nullspace_equivalence_no_errors_higher_dimension():
    spec, _, c, _ = ex.instance()
    A = build_A(spec, c, 2, 7)
    Bbar = build_Bbar(spec, c, 2, 7).matrix
    D = scaling_map(2, F17)
    assert nullspace_equivalence(A, Bbar, D, ex.WIDTHS)
    assert len(nullspace(A)) > 1


def test_stack_maps_to_power_factor_coefficients():
    # D sends the stacked solution (Lam f^2, Lam f, Lam) to the coefficient
    # blocks of Lam (y - f)^2 listed by ascending y-degree
    lam = locator_poly(F17, [3, 9, 4])
    f = UniPoly.from_ints(F17, [2, 0, 5, 1])
    stack = StackedSolution.from_pair(lam, f, 2)
    widths = ex.WIDTHS
    D = scaling_map(2, F17)
    image = D.apply(stack.to_vector(widths), widths)
    W = power_factor_poly(lam, f, 2)
    offset = 0
    for t, w in enumerate(widths):
        got = image[offset : offset + w]
        comp = W.component(t)
        want = [comp.coeff(i) for i in range(w)]
        assert got == want
        offset += w


def test_shape_and_singularity_errors():
    spec, _, _, r = ex.instance()
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    with pytest.raises(ValueError):
        nullspace_equivalence(A, Bbar, scaling_map(2, F17), (14, 11, 7))
    F2 = Field(2)
    with pytest.raises(ValueError):
        ScalingMap(2, F2, (1, 0, 1)).apply_inverse([0] * 3, (1, 1, 1))


def test_singular_scaling_rejected_by_build():
    F2 = Field(2)
    spec = CodeSpec(F2, 1, 1, locators=(1,))
    r = corrupt(encode(spec, UniPoly.one(F2)), random_error(spec, 0, 0))
    with pytest.raises(ValueError):
        build_B(spec, r, 2, 0)


@given(st.integers(0, 8), st.integers(0, 2**32))
def test_equivalence_across_weights(wt, seed):
    spec, _, c, _ = ex.instance()
    r = corrupt(c, random_error(spec, wt, seed))
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    D = scaling_map(2, F17)
    assert nullspace_equivalence(A, Bbar, D, ex.WIDTHS)
    assert rank(A) == rank(Bbar)


@given(st.integers(0, 2**32))
def test_equivalence_order_three(seed):
    F = Field(11)
    spec = CodeSpec(F, 7, 2)
    f = UniPoly.from_ints(F, [seed % 11, (seed // 11) % 11])
    r = corrupt(encode(spec, f), random_error(spec, 2, seed))
    A = build_A(spec, r, 3, 3)
    sysb = build_Bbar(spec, r, 3, 3)
    D = scaling_map(3, F)
    assert D.scalars == (10, 3, 8, 1)
    assert nullspace_equivalence(A, sysb.matrix, D, sysb.widths)
