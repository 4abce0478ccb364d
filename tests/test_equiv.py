import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from matvec import mulvec
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    build_A,
    build_Bbar,
    corrupt,
    encode,
    nullspace,
    nullspace_equivalence,
    scaling_map,
    wb_radius,
)
from rsdec.bivariate import BiPoly
from rsdec.code import random_error
from rsdec.equiv import _scale, build_B, kernels_equivalent
from rsdec.linalg import Mat
from rsdec.mgs import virs_radius
from rsdec.poly import locator_poly
from rsdec.wb import wb_build
from test_linalg import rank

F17 = Field(17)


def test_scaling_map_order_two():
    assert scaling_map(2, F17) == (1, 15, 1)


def test_scaling_map_order_one():
    assert scaling_map(1, F17) == (16, 1)


def test_scaling_map_binomial_killed_by_characteristic():
    # the middle binomial C(2,1) = 2 vanishes mod 2
    assert scaling_map(2, Field(2)) == (1, 0, 1)


def test_apply_round_trip():
    D = scaling_map(2, F17)
    widths = ex.WIDTHS
    vec = [i % 17 for i in range(33)]
    scaled = _scale(17, vec, D, widths)
    assert scaled[:14] == vec[:14] and scaled[14:25] == [15 * v % 17 for v in vec[14:25]]
    assert _scale(17, scaled, tuple(F17.inv(c) for c in D), widths) == vec
    with pytest.raises(ValueError):
        _scale(17, vec[:-1], D, widths)
    with pytest.raises(ValueError):
        _scale(17, vec, D, widths[:-1])


def test_order_one_reduces_to_classical_decoder():
    # at s=1 and the half-distance radius the derivative system IS the
    # classical rational-interpolation system, and scaling by D = (-1, 1)
    # only negates the first block
    spec, _, _, r = ex.instance()
    tau0 = wb_radius(spec.n, spec.k)
    wb = wb_build(spec, r)
    bbar = build_Bbar(spec, r, 1, tau0)
    assert bbar.matrix.rows == wb.rows
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
    assert mulvec(Bbar, _scale(17, vec, D, ex.WIDTHS)) == mulvec(B, vec)


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
    widths = ex.WIDTHS
    vec = [(lam * f ** (2 - t)).coeff(i) for t, w in enumerate(widths) for i in range(w)]
    D = scaling_map(2, F17)
    image = _scale(17, vec, D, widths)
    W = BiPoly.from_uni(lam) * BiPoly(F17, (-f, UniPoly.one(F17))) ** 2
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
    zero = Mat(F2, [[0, 0, 0]])
    with pytest.raises(ValueError, match="singular"):
        kernels_equivalent(zero, zero, scaling_map(2, F2), (1, 1, 1), [], [])


def test_singular_scaling_rejected_by_build():
    F2 = Field(2)
    spec = CodeSpec(F2, 1, 1, locators=(1,))
    r = corrupt(encode(spec, UniPoly.one(F2)), random_error(spec, 0, 0))
    with pytest.raises(ValueError, match="singular"):
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
    assert D == (10, 3, 8, 1)
    assert nullspace_equivalence(A, sysb.matrix, D, sysb.widths)


def membership_equivalent(A, Bbar, D, widths, basis_a, basis_b):
    """The mat-vec check `kernels_equivalent` replaced, kept as its oracle:
    equal dimensions, D v in ker(Bbar) for each v in basis_a, and
    D^(-1) w in ker(A) for each w in basis_b."""
    q = A.field.q
    if len(basis_a) != len(basis_b):
        return False
    if any(any(mulvec(Bbar, _scale(q, v, D, widths))) for v in basis_a):
        return False
    inverse = tuple(A.field.inv(c) for c in D)
    return not any(any(mulvec(A, _scale(q, w, inverse, widths))) for w in basis_b)


@pytest.mark.parametrize("q,n,k,s,weights", [
    (17, 16, 4, 2, (0, 3, 5, 6, 7)),
    (11, 7, 2, 3, (0, 1, 2, 3)),
    (257, 64, 8, 2, (0, 20, 35)),  # kernel dimensions 36, 16 and 1
])
def test_canonical_bases_agree_with_the_membership_check(q, n, k, s, weights):
    F = Field(q)
    spec = CodeSpec(F, n, k)
    tau = virs_radius(n, k, s)
    D = scaling_map(s, F)
    doubled = (D[0], 2 * D[1] % q) + D[2:]
    for seed, w in enumerate(weights):
        f = UniPoly.from_ints(F, [(seed * 7 + i) % q for i in range(k)])
        r = corrupt(encode(spec, f), random_error(spec, w, seed))
        A = build_A(spec, r, s, tau)
        system = build_Bbar(spec, r, s, tau)
        basis_b = nullspace(system.matrix)
        # as in the corruption test, one entry of row 3 moves by 1; here in
        # the free column of a kernel vector, so that it leaves ker(A)
        bad = [list(row) for row in A.rows]
        free = max(j for j, x in enumerate(nullspace(A)[0]) if x)
        bad[3][free] = (bad[3][free] + 1) % q
        A_bad = Mat(F, bad)
        for A_case, D_case, want in ((A, D, True), (A, doubled, False), (A_bad, D, False)):
            basis_a = nullspace(A_case)
            got = kernels_equivalent(A_case, system.matrix, D_case, system.widths, basis_a, basis_b)
            assert got == membership_equivalent(A_case, system.matrix, D_case, system.widths, basis_a, basis_b)
            assert got is want
