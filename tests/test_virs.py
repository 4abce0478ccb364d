import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    Word,
    build_A,
    corrupt,
    encode,
    feasible,
    mgs_decode,
    virs_decode,
    virs_radius,
    wb_decode,
    wb_radius,
)
from rsdec.code import random_error
from rsdec.poly import locator_poly, split_blocks
from rsdec.virs import block_widths

F17 = Field(17)


def test_radius_worked_example():
    assert virs_radius(16, 4, 2) == 7


def test_radius_triple_interleaving():
    assert virs_radius(31, 4, 3) == 18


@given(st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_radius_order_one_is_half_distance(nk):
    n, k = nk
    assert virs_radius(n, k, 1) == wb_radius(n, k)


def test_radius_feasibility():
    assert feasible(16, 4, 5)
    assert not feasible(16, 4, 6)  # 6*3 + 1 = 19 > 16
    with pytest.raises(ValueError):
        virs_radius(16, 4, 6)
    with pytest.raises(ValueError):
        virs_radius(4, 3, 2)
    with pytest.raises(ValueError):
        virs_radius(16, 4, 0)


def test_radius_never_below_half_distance():
    for s in range(1, 6):
        assert virs_radius(31, 4, s) >= wb_radius(31, 4)


def test_params_block_counts():
    spec = ex.code()
    assert virs_radius(spec.n, spec.k, 2) == 7
    assert block_widths(4, 2, 7) == (14, 11, 8)
    assert sum(block_widths(4, 2, 7)) == 33


def test_params_total_identity():
    for n, k, s in [(16, 4, 2), (31, 4, 3), (20, 5, 2), (25, 3, 4)]:
        tau = virs_radius(n, k, s)
        rho = (s * n - (s * (s + 1) // 2) * (k - 1) - s) % (s + 1)
        assert sum(block_widths(k, s, tau)) == s * n + 1 - rho


def test_build_Mi_shapes_and_entries():
    # band i of A holds -M_i (n x (tau + i(k-1) + 1) Vandermonde) in the
    # block of Q^(s-i), and diag(r)^i M_0 in the block of Q^(s)
    spec, _, _, r = ex.instance()
    A = build_A(spec, r, 2, 7)
    for j, (a, rj) in enumerate(zip(spec.locators, r.symbols)):
        band1, band2 = A.rows[j], A.rows[16 + j]
        assert band2[:14] == tuple(-pow(a, m, 17) % 17 for m in range(14))
        assert band1[14:25] == tuple(-pow(a, m, 17) % 17 for m in range(11))
        for i, row in ((1, band1), (2, band2)):
            assert row[25:] == tuple(pow(rj, i, 17) * pow(a, m, 17) % 17 for m in range(8))
        assert not any(band1[:14]) and not any(band2[14:25])


def test_build_Mi_all_ones_for_unit_locator():
    F = Field(5)
    spec = CodeSpec(F, 1, 1, locators=(1,))
    # k = 1: every M_i is a row of tau + 1 ones
    A = build_A(spec, Word.from_ints(F, [2]), 2, 2)
    assert A.rows == ((0, 0, 0, 4, 4, 4, 2, 2, 2), (4, 4, 4, 0, 0, 0, 4, 4, 4))


def test_build_A_shape():
    spec, _, _, r = ex.instance()
    A = build_A(spec, r, 2, 7)
    assert (A.nrows, A.ncols) == (32, 33)


def test_build_A_zero_word_bands():
    spec = ex.code()
    zero = Word.from_ints(spec.field, [0] * 16)
    A = build_A(spec, zero, 2, 7)
    # with r = 0 the top-block columns vanish and each band keeps -M_i
    for row in A.rows:
        assert all(v == 0 for v in row[25:])
    for j, a in enumerate(spec.locators):
        assert A.rows[j][14:25] == tuple(-pow(a, m, 17) % 17 for m in range(11))


def test_build_A_infeasible_raises():
    spec = CodeSpec(Field(17), 4, 3)
    with pytest.raises(ValueError):
        build_A(spec, Word.from_ints(spec.field, [0] * 4), 2, 1)


@given(st.integers(0, 7), st.lists(st.integers(0, 16), min_size=4, max_size=4), st.integers(0, 2**32))
def test_synthetic_stack_solves_system(wt, f_coeffs, seed):
    spec = ex.code()
    f = UniPoly.from_ints(F17, f_coeffs)
    e = random_error(spec, wt, seed)
    r = corrupt(encode(spec, f), e)
    lam = locator_poly(spec.field, [a for a, v in zip(spec.locators, e.symbols) if v != 0])
    vec = [(lam * f ** (2 - t)).coeff(i) for t, w in enumerate(block_widths(4, 2, 7)) for i in range(w)]
    A = build_A(spec, r, 2, 7)
    assert all(x == 0 for x in A.mulvec(vec))


def test_decode_worked_example():
    spec, f, _, r = ex.instance()
    out = virs_decode(spec, r, 2)
    assert out.success
    assert out.f == f
    assert out.locator == ex.locator()
    assert out.error_positions == ex.ERROR_POSITIONS


def test_decode_band_residuals_vanish():
    spec, f, _, r = ex.instance()
    out = virs_decode(spec, r, 2)
    lam = out.locator
    for i in (1, 2):
        comp = lam * out.f**i
        for a, ri in zip(spec.locators, r.symbols):
            assert comp.evaluate(a) == ri**i * lam.evaluate(a) % 17


def test_decode_no_errors():
    spec, f, c, _ = ex.instance()
    out = virs_decode(spec, c, 2)
    assert out.success
    assert out.f == f
    assert out.locator == UniPoly.one(spec.field)
    assert out.error_positions == ()


@given(st.integers(0, 6), st.integers(0, 2**32))
def test_agrees_with_wb_within_half_distance(wt, seed):
    spec, f, c, _ = ex.instance()
    r = corrupt(c, random_error(spec, wt, seed))
    a = wb_decode(spec, r)
    b = virs_decode(spec, r, 2)
    assert a.success and b.success
    assert a.f == b.f


@given(st.integers(0, 2**32), st.integers(0, 4))
def test_matches_interpolation_decoder_per_trial(seed, wt):
    # virs_radius(7, 2, 3) == 3, so wt=4 exercises the agree-on-failure side
    F = Field(11)
    spec = CodeSpec(F, 7, 2)
    f = UniPoly.from_ints(F, [seed % 11, (seed // 11) % 11])
    r = corrupt(encode(spec, f), random_error(spec, wt, seed))
    a = virs_decode(spec, r, 3)
    b = mgs_decode(spec, r, 3)
    assert a.success == b.success
    if a.success:
        assert (a.f, a.locator) == (b.f, b.locator)
    # a word with two codewords within tau = 3 has no unique decoding
    if wt <= 3 and len(_codewords_within(spec, r, 3)) == 1:
        assert a.success and a.f == f


def _rs7_weight3_word(seed):
    """The weight-3 word that test_matches_interpolation_decoder_per_trial
    draws for `seed`, with its sent message; virs_radius(7, 2, 3) == 3."""
    F = Field(11)
    spec = CodeSpec(F, 7, 2)
    f = UniPoly.from_ints(F, [seed % 11, (seed // 11) % 11])
    return spec, f, corrupt(encode(spec, f), random_error(spec, 3, seed))


def _codewords_within(spec, r, radius):
    q = spec.field.q
    words = (encode(spec, UniPoly(spec.field, (a, b))) for a in range(q) for b in range(q))
    return [c for c in words if sum(x != y for x, y in zip(c, r)) <= radius]


def test_ambiguous_weight3_words_fail_alike():
    # of the weight-3 words for seeds 0..2999, 271 fail: 113 have two
    # codewords within the radius, so no unique decoder can succeed
    # (seeds 54 and 64 here), and 158 have one and kernel dimension 2
    # (seeds 20, 25 and 7010, which the next test expects to decode)
    for seed in (20, 25, 7010):
        spec, f, r = _rs7_weight3_word(seed)
        assert _codewords_within(spec, r, 3) == [encode(spec, f)]
        assert virs_decode(spec, r, 3).kernel_dim == mgs_decode(spec, r, 3).kernel_dim == 2
    for seed in (54, 64):
        spec, f, r = _rs7_weight3_word(seed)
        assert len(_codewords_within(spec, r, 3)) == 2
        a = virs_decode(spec, r, 3)
        b = mgs_decode(spec, r, 3)
        assert not a.success and not b.success
        assert a.reason == b.reason


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: with kernel dimension 2 the minimal-degree locator is spurious",
)
@pytest.mark.parametrize("seed", [20, 25, 7010])
def test_unique_codeword_within_radius_decodes(seed):
    spec, f, r = _rs7_weight3_word(seed)
    a = virs_decode(spec, r, 3)
    b = mgs_decode(spec, r, 3)
    assert a.success and a.f == f
    assert b.success and b.f == f


def test_degenerate_widths_keep_decoders_in_agreement():
    # When tau + s*(k-1) >= n the first block is wide enough to hold a
    # multiple of prod(x - a_j), which solves the system for every received
    # word.  The canonical nullspace basis then mixes that junk vector into
    # the candidate stack, both decoders reject the extraction, and they
    # must reject identically.
    F = Field(11)
    spec = CodeSpec(F, 7, 3)
    assert virs_radius(7, 3, 3) == 1
    G = locator_poly(F, list(spec.locators))
    junk = list(G.coeffs) + [0] * (6 + 4 + 2)
    for seed in range(4):
        e = random_error(spec, 1, seed)
        r = corrupt(encode(spec, UniPoly.from_ints(F, [0, 0, 1])), e)
        A = build_A(spec, r, 3, 1)
        assert all(x == 0 for x in A.mulvec(junk))
        a = virs_decode(spec, r, 3)
        b = mgs_decode(spec, r, 3)
        assert a.success == b.success
        # one extraction serves both, so they fail for the same reason
        assert a.reason == b.reason


def test_wide_block_words_decode():
    # RS(16,4), s=5 (tau = 5): blocks 0 and 1 are wider than n and hold
    # Lambda f^5 and Lambda f^4 only mod G, but the split reads blocks 4
    # and 5, at most n wide
    F = Field(17)
    spec = CodeSpec(F, 16, 4)
    f = UniPoly.from_ints(F, [1, 2, 3, 4])
    assert block_widths(4, 5, virs_radius(16, 4, 5))[:2] == (21, 18)
    for wt in range(1, 6):
        for seed in range(1, 40):
            r = corrupt(encode(spec, f), random_error(spec, wt, seed))
            a = virs_decode(spec, r, 5)
            assert a == mgs_decode(spec, r, 5)
            assert a.success and a.f == f


def test_stack_vector_round_trip():
    widths = block_widths(4, 2, 7)
    lam = locator_poly(F17, [3, 9])
    f = UniPoly.from_ints(F17, [1, 2, 3])
    stack = tuple(lam * f ** (2 - t) for t in range(3))
    vec = [p.coeff(i) for p, w in zip(stack, widths) for i in range(w)]
    assert len(vec) == 33
    assert split_blocks(F17, vec, widths) == stack
    with pytest.raises(ValueError):
        split_blocks(F17, vec[:-1], widths)
