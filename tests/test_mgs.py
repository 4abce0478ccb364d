import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from matvec import mulvec
import rsdec.linalg
import rsdec.mgs
from rsdec import (
    CodeSpec,
    DecodeOutcome,
    Field,
    UniPoly,
    Word,
    build_Bbar,
    corrupt,
    encode,
    feasible,
    mgs_decode,
    nullspace,
    scaling_map,
    virs_decode,
    virs_radius,
    wb_decode,
    wb_radius,
)
from rsdec.bivariate import BiPoly, FactorError, extract_power_factor, hasse_mixed, hasse_y, substitute_y
from rsdec.code import interpolate_word, random_error
from rsdec.gs import multiplicity_at
from rsdec.mgs import block_widths, reduced_module
from rsdec.outcome import capped_span, conclude, lowest_locator, select_stack
from rsdec.poly import locator_poly, pack, poly_divrem, slot_reduction
from rsdec.wb import wb_build
from test_code import horner_roots
from test_keyeq import dense_virs, dense_wb, full_rows
from test_virs import _codewords_within

F17 = Field(17)


def power_factor_poly(W, f, s):
    """W(x) * (y - f(x))^s by BiPoly arithmetic."""
    return BiPoly.from_uni(W) * BiPoly(W.field, (-f, UniPoly.one(W.field))) ** s


def full_span(spec, r, scalars, widths):
    """The module's elements within `widths` with every block laid out: the
    view of the dense kernels, where the decode lays out the top two."""
    module = reduced_module(spec, r, scalars)
    return capped_span(full_rows(module), module.degrees, widths[0], widths)


def canonical_stack(spec, kernel, widths):
    """`lowest_locator`'s vector with every block reduced mod G = prod (x -
    alpha_j): kernel vectors with a zero locator are G-multiples block by
    block, so this is the one vector of its class."""
    return tuple(poly_divrem(p, spec.vanishing)[1] for p in lowest_locator(spec.field, kernel, widths))


def mgs_interpolate(spec, r, s):
    """The Q whose top two blocks mgs splits: the canonical vector of
    B-bar's span at order s and radius `virs_radius`, read off the module
    under D(s)."""
    widths = block_widths(spec.k, s, virs_radius(spec.n, spec.k, s))
    return BiPoly(spec.field, canonical_stack(spec, full_span(spec, r, scaling_map(s, spec.field), widths), widths))


def errorfree_divisibility_check(Qbar, spec, r, error_positions, s):
    """True iff for each b < s the product of (x - locator_i) over the
    error-free positions i, raised to the (s-b)-th power, divides
    Q^[b](x, R(x)) exactly; R interpolates the received word."""
    bad = set(error_positions)
    clean = [a for i, a in enumerate(spec.locators) if i not in bad]
    Gbar = locator_poly(spec.field, clean)
    R = interpolate_word(spec, r)
    for b in range(s):
        composed = substitute_y(hasse_y(Qbar, b), R)
        _, rem = poly_divrem(composed, Gbar ** (s - b))
        if not rem.is_zero():
            return False
    return True


def test_build_shape_and_band_layout():
    spec, _, _, r = ex.instance()
    sys = build_Bbar(spec, r, 2, 7)
    B = sys.matrix
    assert (B.nrows, B.ncols) == (32, 33)
    assert sys.widths == ex.WIDTHS  # (14, 11, 8) for blocks y^0, y^1, y^2
    # first band is the order-1 derivative condition: blocks y^1 and y^2
    # carry coefficients 1 and 2*r_j, block y^0 is absent
    for j, (a, rj) in enumerate(zip(spec.locators, r.symbols)):
        row = B.rows[j]
        assert all(v == 0 for v in row[:14])
        assert row[14] == 1
        assert row[14 + 3] == pow(a, 3, 17)
        assert row[25] == (2 * rj) % 17
        assert row[25 + 5] == (2 * rj * pow(a, 5, 17)) % 17
    # second band is plain evaluation at (a_j, r_j): coefficient on block t
    # is r_j^t
    for j, (a, rj) in enumerate(zip(spec.locators, r.symbols)):
        row = B.rows[16 + j]
        assert row[0] == 1
        assert row[14] == rj
        assert row[25] == pow(rj, 2, 17)


def test_build_zero_received_word():
    spec = ex.code()
    zero = Word.from_ints(spec.field, [0] * 16)
    B = build_Bbar(spec, zero, 2, 7).matrix
    # with r=0 only the t=b block survives in each band
    for j in range(16):
        assert all(v == 0 for v in B.rows[j][:14]) and all(v == 0 for v in B.rows[j][25:])
        assert all(v == 0 for v in B.rows[16 + j][14:])


def test_interpolate_worked_example():
    spec, f, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    lam = ex.locator()
    assert Q.component(2).monic() == lam
    scale = Q.component(2).leading * F17.inv(lam.leading)
    assert Q == power_factor_poly(lam, f, 2) * scale


def test_interpolation_conditions_via_derivatives():
    # order-b Hasse y-derivatives vanish at every (a_j, r_j) for b < s
    spec, _, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    for a, rj in zip(spec.locators, r.symbols):
        for b in range(2):
            assert hasse_y(Q, b).evaluate(a, rj) == 0


def test_interpolate_no_errors_gives_pure_power():
    spec, f, c, _ = ex.instance()
    Q = mgs_interpolate(spec, c, 2)
    lam, g = extract_power_factor(Q.components, scaling_map(2, F17), spec.k)
    assert g == f
    assert lam == UniPoly.one(spec.field)


@given(st.lists(st.integers(0, 16), min_size=4, max_size=4), st.integers(5, 8), st.integers(0, 2**32))
def test_decode_matches_reference_extraction(f_coeffs, wt, seed):
    # the decoder against the textbook path: f = -Q_1 / (2 Q_2), then the
    # expansion Q_2 (y - f)^2 must give back Q, then conclude
    spec = ex.code()
    r = corrupt(encode(spec, UniPoly.from_ints(F17, f_coeffs)), random_error(spec, wt, seed))
    tau = virs_radius(spec.n, spec.k, 2)
    out = mgs_decode(spec, r, 2)
    try:
        Q = mgs_interpolate(spec, r, 2)
    except FactorError:
        Q = BiPoly.zero(F17)
    lam = Q.component(2)
    ref = DecodeOutcome.failure("no factorization")
    if Q.ydeg == 2:
        f, rem = poly_divrem(-Q.component(1), lam * 2)
        if rem.is_zero() and f.degree < spec.k and power_factor_poly(lam, f, 2) == Q:
            ref = conclude(spec, r, tau, lam, f)
    assert out.success == ref.success
    if out.success:
        assert (out.locator, out.f) == (ref.locator, ref.f)
    assert out.kernel_dim == len(nullspace(build_Bbar(spec, r, 2, tau).matrix))


def test_conclude_accepts_up_to_the_radius_and_no_further():
    # the acceptance gate alone, on the worked example's message: its
    # codeword at distance tau from r is accepted with the locator's roots
    # as the error positions, and at distance tau + 1 refused
    spec, f, c, _ = ex.instance()
    for wt in (ex.TAU, ex.TAU + 1):
        e = random_error(spec, wt, wt)
        support = tuple(i for i, v in enumerate(e) if v)
        locator = locator_poly(F17, [spec.locators[i] for i in support])
        out = conclude(spec, corrupt(c, e), ex.TAU, locator * 3, f, 1)
        if wt == ex.TAU:
            assert (out.success, out.corrected, out.locator, out.error_positions) == (True, c, locator, support)
        else:
            assert (out.success, out.reason) == (False, f"corrected word at distance {wt} > radius {ex.TAU}")


def test_decode_worked_example():
    spec, f, _, r = ex.instance()
    out = mgs_decode(spec, r, 2)
    assert out.success
    assert out.f == f
    assert out.locator == ex.locator()
    assert out.error_positions == ex.ERROR_POSITIONS
    assert out.corrected.to_ints() == ex.CODEWORD


@given(st.integers(0, 6), st.integers(0, 2**32))
def test_agrees_with_wb_within_half_distance(wt, seed):
    spec, f, c, _ = ex.instance()
    r = corrupt(c, random_error(spec, wt, seed))
    a = wb_decode(spec, r)
    b = mgs_decode(spec, r, 2)
    assert a.success and b.success
    assert a.f == b.f and a.locator == b.locator


@given(st.integers(0, 2**32))
def test_weight_seven_locator_roots(seed):
    spec, f, c, _ = ex.instance()
    e = random_error(spec, 7, seed)
    r = corrupt(c, e)
    out = mgs_decode(spec, r, 2)
    if out.success:
        roots = {spec.locators[i] for i in out.error_positions}
        assert all(out.locator.evaluate(a) == 0 for a in roots)
        assert out.locator.degree == len(out.error_positions)


def test_order_divides_characteristic_rejected():
    F3 = Field(3)
    spec = CodeSpec(F3, 2, 1)
    r = Word.from_ints(F3, [1, 2])
    with pytest.raises(ValueError):
        mgs_decode(spec, r, 3)


def test_infeasible_order_is_named_before_the_characteristic():
    # s = 0 is divisible by every characteristic, but the order itself is
    # what is wrong, and virs says so in the same words
    spec, _, _, r = ex.instance()
    with pytest.raises(ValueError, match=r"order 0 infeasible for \(n, k\) = \(16, 4\)"):
        mgs_decode(spec, r, 0)


EDGE = (mgs_decode, virs_decode, lambda spec, r, s: wb_decode(spec, r))


@pytest.mark.parametrize("length", [15, 17])
def test_word_length_must_equal_n(length):
    spec = ex.code()
    r = Word.from_ints(F17, [1] * length)
    for decode in EDGE:
        with pytest.raises(ValueError, match="word length must equal n"):
            decode(spec, r, 2)


def test_word_over_another_field_is_rejected():
    # a GF(257) word would otherwise be reduced mod 17 without notice
    spec = ex.code()
    r = Word.from_ints(Field(257), range(100, 116))
    for decode in EDGE:
        with pytest.raises(ValueError, match=r"word over GF\(257\), code over GF\(17\)"):
            decode(spec, r, 2)


def test_derivative_cascade():
    # peeling one y-derivative off Lam*(y-f)^s leaves s*Lam*(y-f)^(s-1)
    spec, f, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    lam = Q.component(2)
    expect = BiPoly(F17, (-f, UniPoly.one(F17))) * lam * 2
    assert hasse_y(Q, 1) == expect
    # and substituting y = f annihilates every derivative order below s
    for b in range(2):
        assert substitute_y(hasse_y(Q, b), f) == UniPoly.zero(F17)


def test_multiplicity_on_clean_and_errored_points():
    # the system only forces the pure y-derivatives to vanish, so full
    # multiplicity s appears at clean received points (locator nonzero,
    # squared factor does the work) while an errored received point is a
    # simple zero coming from the locator alone; the untouched curve point
    # above an errored position collects both factors
    spec, _, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    c = Word.from_ints(F17, ex.CODEWORD)
    for j, a in enumerate(spec.locators):
        if j in ex.ERROR_POSITIONS:
            assert multiplicity_at(Q, a, r[j]) == 1
            assert multiplicity_at(Q, a, c[j]) == 3
        else:
            assert multiplicity_at(Q, a, r[j]) == 2


def test_only_y_derivative_conditions_are_imposed():
    # classical multiplicity-2 interpolation would force the (1, 0) mixed
    # derivative to vanish as well; the modified system drops it, and at an
    # errored point it really is nonzero
    spec, _, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    errored = ex.ERROR_POSITIONS[0]
    clean = 7
    for j in (errored, clean):
        a, rj = spec.locators[j], r.symbols[j]
        assert hasse_mixed(Q, 0, 0, a, rj) == 0
        assert hasse_mixed(Q, 0, 1, a, rj) == 0
    assert hasse_mixed(Q, 1, 0, spec.locators[errored], r.symbols[errored]) != 0
    # at a clean point the factorized shape supplies the x-condition anyway
    assert hasse_mixed(Q, 1, 0, spec.locators[clean], r.symbols[clean]) == 0


def test_errorfree_divisibility_worked_example():
    spec, _, _, r = ex.instance()
    Q = mgs_interpolate(spec, r, 2)
    assert errorfree_divisibility_check(Q, spec, r, ex.ERROR_POSITIONS, 2)
    # pretending a clean position is errored shrinks the clean set, which
    # keeps divisibility; pretending an errored position is clean breaks it
    assert errorfree_divisibility_check(Q, spec, r, ex.ERROR_POSITIONS + (7,), 2)
    assert not errorfree_divisibility_check(Q, spec, r, ex.ERROR_POSITIONS[1:], 2)


def test_errorfree_divisibility_no_errors():
    spec, _, c, _ = ex.instance()
    Q = mgs_interpolate(spec, c, 2)
    assert errorfree_divisibility_check(Q, spec, c, (), 2)


def test_interpolation_word_relation():
    # R interpolates the received word, so y = R(x) passes through every
    # interpolation point; divisibility by the clean-position locator power
    # is exactly the error-free part of the key equation
    spec, _, _, r = ex.instance()
    R = interpolate_word(spec, r)
    assert all(R.evaluate(a) == rj for a, rj in zip(spec.locators, r.symbols))


@given(st.integers(0, 2**32), st.integers(0, 3))
def test_triple_order_decode(seed, wt):
    F = Field(11)
    spec = CodeSpec(F, 7, 2)
    f = UniPoly.from_ints(F, [seed % 11, (seed // 11) % 11])
    r = corrupt(encode(spec, f), random_error(spec, wt, seed))
    out = mgs_decode(spec, r, 3)
    # tau = 3: a word with two codewords within it has no unique decoding
    if len(_codewords_within(spec, r, 3)) == 1:
        assert out.success and out.f == f
        Q = mgs_interpolate(spec, r, 3)
        assert Q == power_factor_poly(Q.component(3), f, 3)


# (q, n, k, s): n - k odd and even, block 0 wider than n (RS(15,4) s=3,
# RS(16,4) s=5), k = n, and s >= q over GF(3) and GF(5), where some
# C(t, b) vanish mod q
CODES = [
    (11, 7, 2, 3),
    (17, 16, 4, 2),
    (17, 15, 4, 3),
    (17, 16, 4, 5),
    (13, 6, 6, 1),
    (3, 2, 1, 4),
    (5, 4, 1, 6),
]


@st.composite
def received_words(draw):
    q, n, k, s = draw(st.sampled_from(CODES))
    F = Field(q)
    spec = CodeSpec(F, n, k)
    f = UniPoly.from_ints(F, draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)))
    e = random_error(spec, draw(st.integers(0, n)), draw(st.integers(0, 2**32)))
    return spec, corrupt(encode(spec, f), e), s


def dense_mgs(spec, r, s):
    """The pipeline on B-bar itself: build, eliminate, select, extract, conclude."""
    tau = virs_radius(spec.n, spec.k, s)
    kernel = nullspace(build_Bbar(spec, r, s, tau).matrix)
    try:
        Q = BiPoly(spec.field, lowest_locator(spec.field, kernel, block_widths(spec.k, s, tau)))
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel)), None
    try:
        locator, f = extract_power_factor(Q.components, scaling_map(s, spec.field), spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel)), Q
    return conclude(spec, r, tau, locator, f, len(kernel)), Q


def summary(out):
    return (out.success, out.f, out.locator, out.reason, out.kernel_dim, out.error_positions)


@given(received_words())
def test_interpolation_kernel_spans_the_dense_kernel(case):
    # on B-bar's caps, and on wb's: the wb system is B-bar at s = 1 with
    # blocks n - tau0 and n - tau0 - k + 1 wide
    spec, r, s = case
    tau = virs_radius(spec.n, spec.k, s)
    tau0 = wb_radius(spec.n, spec.k)
    for system, widths in (
        (build_Bbar(spec, r, s, tau).matrix, block_widths(spec.k, s, tau)),
        (wb_build(spec, r), (spec.n - tau0, spec.n - tau0 - spec.k + 1)),
    ):
        kernel = full_span(spec, r, scaling_map(len(widths) - 1, spec.field), widths)
        assert len(kernel) == len(nullspace(system))
        assert all(not any(mulvec(system, v)) for v in kernel)
        # linearly independent, so the span is all of the dense kernel
        assert not kernel or len(nullspace(rsdec.linalg.Mat(spec.field, kernel))) == system.ncols - len(kernel)


@given(received_words())
def test_decode_matches_the_dense_pipeline(case):
    spec, r, s = case
    out = mgs_decode(spec, r, s)
    ref, Q = dense_mgs(spec, r, s)
    assert summary(out) == summary(ref)
    if Q is not None:
        assert mgs_interpolate(spec, r, s) == Q


@given(received_words(), st.integers(0, 2**32))
def test_select_stack_does_not_depend_on_the_basis(case, seed):
    # recombine the canonical basis by a random invertible L U; the locator
    # must come out the same, and the lower blocks the same modulo
    # G = prod (x - alpha_j), the only freedom a zero locator leaves
    spec, r, s = case
    q = spec.field.q
    tau = virs_radius(spec.n, spec.k, s)
    widths = block_widths(spec.k, s, tau)
    basis = nullspace(build_Bbar(spec, r, s, tau).matrix)
    rng = random.Random(seed)
    d = len(basis)
    lower = [[rng.randrange(q) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[rng.randrange(1, q) if j == i else rng.randrange(q) * (j > i) for j in range(d)] for i in range(d)]
    mix = [[sum(lower[i][m] * upper[m][j] for m in range(d)) % q for j in range(d)] for i in range(d)]
    mixed = [[sum(c * v[col] for c, v in zip(row, basis)) % q for col in range(len(basis[0]))] for row in mix]
    try:
        expect = lowest_locator(spec.field, basis, widths)
    except FactorError as err:
        with pytest.raises(FactorError, match=re.escape(str(err))):
            lowest_locator(spec.field, mixed, widths)
        return
    got = lowest_locator(spec.field, mixed, widths)
    G = locator_poly(spec.field, spec.locators)
    assert got[-1] == expect[-1] and got[-1].leading == 1
    assert [poly_divrem(p, G)[1] for p in got] == list(expect)


def test_wide_block_is_reduced_to_the_canonical_vector():
    # RS(15,4), s=3: block 0 has 16 columns, one more than n, so G e_0 is a
    # kernel vector with a zero locator. Added to the canonical vector it
    # gives one with the same locator and degree n in block 0; modulo G it
    # is the canonical vector again, and its top two blocks, all the
    # decode reads, are the canonical vector's
    F = Field(17)
    spec = CodeSpec(F, 15, 4)
    f = UniPoly.from_ints(F, [1, 2, 3, 4])
    r = corrupt(encode(spec, f), random_error(spec, 3, 5))
    tau = virs_radius(15, 4, 3)
    widths = block_widths(4, 3, tau)
    assert widths[0] == 16
    canonical = canonical_stack(spec, full_span(spec, r, scaling_map(3, F), widths), widths)
    detour = [p.coeffs + (0,) * (width - len(p.coeffs)) for p, width in zip(canonical, widths)]
    detour[0] = [(a + g) % 17 for a, g in zip(detour[0], spec.vanishing.coeffs)]
    detour = [c for block in detour for c in block]
    assert not any(mulvec(build_Bbar(spec, r, 3, tau).matrix, detour))
    assert lowest_locator(F, [detour], widths)[0].degree == 15
    assert lowest_locator(F, [detour], widths)[-2:] == canonical[-2:]
    assert canonical_stack(spec, [detour], widths) == canonical
    _, Q = dense_mgs(spec, r, 3)
    assert mgs_interpolate(spec, r, 3) == Q
    assert mgs_decode(spec, r, 3).f == f


def decoder_systems(spec, s):
    """(radius, caps, block scalars) of virs and mgs at order s, and of wb."""
    tau, tau0 = virs_radius(spec.n, spec.k, s), wb_radius(spec.n, spec.k)
    widths = block_widths(spec.k, s, tau)
    return (
        (tau, widths, (1,) * (s + 1)),
        (tau, widths, scaling_map(s, spec.field)),
        (tau0, block_widths(spec.k, 1, spec.n - spec.k - tau0), scaling_map(1, spec.field)),
    )


@pytest.mark.parametrize("q,n,k,s", CODES)
def test_split_module_element_is_a_power_progression_mod_G(q, n, k, s):
    # what lets the decode read the top two blocks alone: whenever they
    # split, the full-width vector is c_t Lambda f^(s-t) mod G in every
    # block, and the decode splits that vector's top two blocks
    F = Field(q)
    spec = CodeSpec(F, n, k)
    G = spec.vanishing
    rng = random.Random(q * n + s)
    splits = [0, 0, 0]
    for w in range(n + 1):
        for _ in range(3):
            f = UniPoly.from_ints(F, [rng.randrange(q) for _ in range(k)])
            r = corrupt(encode(spec, f), random_error(spec, w, rng.randrange(2**32)))
            for i, (tau, widths, scalars) in enumerate(decoder_systems(spec, s)):
                with mock.patch.object(rsdec.mgs, "extract_power_factor", wraps=extract_power_factor) as read:
                    rsdec.mgs.interpolation_decode(spec, r, tau, widths, scalars)
                try:
                    stack = lowest_locator(F, full_span(spec, r, scalars, widths), widths)
                except FactorError:
                    assert not read.called
                    continue
                assert read.call_args.args[0] == stack[-2:]
                try:
                    locator, g = extract_power_factor(stack, scalars, k)
                except FactorError:
                    continue
                expect = [locator * g ** (len(widths) - 1 - t) * c for t, c in enumerate(scalars)]
                assert [poly_divrem(p, G)[1] for p in stack] == [poly_divrem(p, G)[1] for p in expect]
                splits[i] += 1
    assert all(splits)


def test_short_rows_select_what_the_full_span_selects(monkeypatch):
    # the decode reads only the top two columns of the short rows (shifted
    # degree below w_0) and takes the one short row with a nonzero locator
    # as it is; the oracle lays every x^i b of every row out in full
    # (`capped_span`) and reduces it (`lowest_locator`). Stack, failure
    # reason and kernel_dim must agree on words with no short row, with
    # short rows whose locators are all zero, with one nonzero locator and
    # with several (the item-4 words among them), wide blocks included
    picked = []

    def recording(*args):
        try:
            picked.append(select_stack(*args))
        except FactorError as err:
            picked.append(str(err))
            raise
        return picked[-1]

    monkeypatch.setattr(rsdec.mgs, "select_stack", recording)
    seen = set()
    for q, n, k, s in CODES:
        F = Field(q)
        spec = CodeSpec(F, n, k)
        rng = random.Random(q * n + s)
        for w in range(n + 1):
            for _ in range(2):
                f = UniPoly.from_ints(F, [rng.randrange(q) for _ in range(k)])
                r = corrupt(encode(spec, f), random_error(spec, w, rng.randrange(2**32)))
                for tau, widths, scalars in decoder_systems(spec, s):
                    module = reduced_module(spec, r, scalars)
                    rows, bound = full_rows(module), widths[0]
                    kernel = capped_span(rows, module.degrees, bound, widths)
                    try:
                        expect = lowest_locator(F, kernel, widths)
                    except FactorError as err:
                        expect = str(err)
                    picked.clear()
                    out = rsdec.mgs.interpolation_decode(spec, r, tau, widths, scalars)
                    assert out.kernel_dim == len(kernel)
                    # the positions where the corrected word differs from r
                    # are the locator's roots, as many as its degree
                    if out.success:
                        assert out.error_positions == horner_roots(spec, out.locator)
                        assert len(out.error_positions) == out.locator.degree
                    assert picked == [expect if isinstance(expect, str) else expect[-2:]]
                    short = [(b, d) for b, d in zip(rows, module.degrees) if d < bound]
                    if short and not isinstance(expect, str):
                        # and on every block, where the decode reads two
                        got = select_stack(F, [b for b, _ in short], [d for _, d in short], bound, widths)
                        assert got == expect
                    locators = sum(bool(b[-1]) for b, _ in short)
                    seen.add(("no locator", "one locator", "several")[min(2, locators)] if short else "no short row")
                    if n == 16 and s == 5 and len(short) > locators:
                        seen.add(f"wide block, {min(2, locators)} locators")
    assert seen == {
        "no short row", "no locator", "one locator", "several",
        "wide block, 0 locators", "wide block, 1 locators", "wide block, 2 locators",
    }


@pytest.mark.parametrize("q,n,k", [(257, 128, 8), (65521, 40, 4)])
def test_conclude_reencodes_through_the_evaluation_table(q, n, k):
    # conclude re-encodes through the code's `Evaluator` and builds it on a
    # fresh code, whether or not it accepts; the corrected word must be f
    # at every locator by Horner, for the zero message, a full-degree one
    # and random ones
    F = Field(q)
    spec = CodeSpec(F, n, k)
    rng = random.Random(q + n)
    tau = wb_radius(n, k)
    out = conclude(spec, Word.from_ints(F, [1] * n), 0, UniPoly.one(F), UniPoly.zero(F))
    assert not out.success and "evaluator" in vars(spec)
    messages = [UniPoly.zero(F), UniPoly.from_ints(F, [q - 1] * k)]
    messages += [UniPoly.from_ints(F, [rng.randrange(q) for _ in range(degree + 1)]) for degree in range(k)]
    for f in messages:
        e = random_error(spec, rng.randrange(tau + 1), rng.randrange(2**32))
        support = tuple(i for i, v in enumerate(e) if v)
        out = conclude(spec, corrupt(encode(spec, f), e), tau, locator_poly(F, [spec.locators[i] for i in support]), f)
        assert out.success and out.error_positions == support
        assert out.corrected.to_ints() == [f.evaluate(a) for a in spec.locators]


def test_split_blocks_are_never_wider_than_n():
    # the two blocks the decode reads have degree < n, so neither ever
    # needs reducing mod G: blocks s-1 and s at the virs radius, and wb's
    # block 0, the wider of its two
    for n in range(1, 200):
        for k in range(1, n + 1):
            assert block_widths(k, 1, n - k - wb_radius(n, k))[0] <= n
            for s in range(1, 40):
                if not feasible(n, k, s):
                    break
                assert block_widths(k, s, virs_radius(n, k, s))[s - 1] <= n


def test_decode_eliminates_nothing(monkeypatch):
    # RS(64,8), s=2: B-bar and A would be 128 x 129 eliminations, and wb's
    # system, B-bar at s = 1, a 64 x 65 one
    calls = []
    original = rsdec.linalg._eliminate

    def recording(rows, q):
        calls.append((len(rows), len(rows[0])))
        return original(rows, q)

    monkeypatch.setattr(rsdec.linalg, "_eliminate", recording)
    F = Field(257)
    spec = CodeSpec(F, 64, 8)
    f = UniPoly.from_ints(F, range(1, 9))
    r = corrupt(encode(spec, f), random_error(spec, 20, 3))
    assert mgs_decode(spec, r, 2).f == f
    assert extract_power_factor(mgs_interpolate(spec, r, 2).components, scaling_map(2, F), 8)[1] == f
    assert wb_decode(spec, r).f == f
    assert virs_decode(spec, r, 2).f == f
    assert calls == []


def test_every_decoder_is_the_one_interpolation_decode(monkeypatch):
    # wb, virs and mgs differ only in their scalars and caps: each splits
    # its word once through extract_power_factor and accepts it once
    # through conclude, both as bound in rsdec.mgs
    counts = {}
    for name in ("extract_power_factor", "conclude"):
        original = getattr(rsdec.mgs, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(rsdec.mgs, name, counting)
    spec = ex.code()
    f = UniPoly.from_ints(F17, [1, 2, 3, 4])
    r = corrupt(encode(spec, f), random_error(spec, 5, 1))
    for decode, order in ((wb_decode, ()), (virs_decode, (2,)), (mgs_decode, (2,))):
        counts.update(extract_power_factor=0, conclude=0)
        assert decode(spec, r, *order).f == f
        assert counts == {"extract_power_factor": 1, "conclude": 1}


def test_codes_on_other_locators_keep_their_own_tables():
    # two codes with the same field and n but different locators, decoded
    # alternately: a table shared by (q, n) would interpolate on the wrong
    # points for one of them
    F = Field(17)
    specs = (CodeSpec(F, 8, 2), CodeSpec(F, 8, 2, locators=(1, 2, 4, 8, 16, 15, 13, 9)))
    assert specs[0].locators != specs[1].locators
    rng = random.Random(8)
    for i in range(12):
        spec = specs[i % 2]
        f = UniPoly.from_ints(F, [rng.randrange(17) for _ in range(2)])
        r = corrupt(encode(spec, f), random_error(spec, i % 5, rng.randrange(2**32)))
        assert summary(wb_decode(spec, r)) == summary(dense_wb(spec, r))
        assert summary(virs_decode(spec, r, 3)) == summary(dense_virs(spec, r, 3))
        assert summary(mgs_decode(spec, r, 3)) == summary(dense_mgs(spec, r, 3)[0])


def test_singular_scaling_map_parts_virs_from_mgs():
    # RS(4,1)/GF(5), s=6: C(6, t) = 0 mod 5 for t = 2, 3, 4, so D(6) is
    # singular and B-bar's solutions are not A's scaled by it. On every
    # word virs keeps to the dense A and mgs to the dense B-bar, and on
    # some words the two then fail for different reasons
    F = Field(5)
    spec = CodeSpec(F, 4, 1)
    assert scaling_map(6, F) == (1, 4, 0, 0, 0, 4, 1)
    parted = 0
    for symbols in itertools.product(range(5), repeat=4):
        r = Word.from_ints(F, symbols)
        v, m = virs_decode(spec, r, 6), mgs_decode(spec, r, 6)
        assert summary(v) == summary(dense_virs(spec, r, 6))
        assert summary(m) == summary(dense_mgs(spec, r, 6)[0])
        parted += summary(v) != summary(m)
    assert parted > 0
    r = Word.from_ints(F, [2, 4, 0, 3])
    v, m = virs_decode(spec, r, 6), mgs_decode(spec, r, 6)
    assert (v.success, v.reason, v.kernel_dim) == (False, "interpolation system has no nonzero solution", 0)
    assert (m.success, m.reason, m.kernel_dim) == (False, "locator does not divide the message component", 1)


def reference_weak_popov(rows, shifts, field):
    """The list-based Mulders-Storjohann reduction that `weak_popov`
    replaced, kept as its oracle: the same steps on coefficient lists."""
    q = field.q

    def lead(row):
        return max((len(p) - 1 + sh, t) for t, (p, sh) in enumerate(zip(row, shifts)) if p)

    leads = [lead(row) for row in rows]
    owner = {}
    todo = list(range(len(rows)))
    while todo:
        i = todo.pop()
        pos = leads[i][1]
        j = owner.setdefault(pos, i)
        if j == i:
            continue
        if leads[j][0] > leads[i][0]:
            owner[pos] = i
            i, j = j, i
        d = leads[i][0] - leads[j][0]
        c = rows[i][pos][-1] * field.inv(rows[j][pos][-1]) % q
        for a, b in zip(rows[i], rows[j]):
            a.extend([0] * (d + len(b) - len(a)))
            a[d : d + len(b)] = [(x - c * y) % q for x, y in zip(a[d:], b)]
            while a and not a[-1]:
                a.pop()
        leads[i] = lead(rows[i])
        todo.append(i)
    return [deg for deg, _ in leads]


@pytest.mark.parametrize("q,n,k,s,weights", [
    (17, 16, 4, 2, (0, 3, 6, 7, 9)),
    (5, 4, 1, 6, (0, 1, 2, 3)),  # s >= q: D(6) is singular mod 5
    (17, 16, 4, 5, (0, 4, 8)),  # wide blocks: s(k-1) + 1 = n
    (13, 6, 6, 1, (0, 1, 2)),  # k = n
    (257, 64, 8, 2, (20, 28)),
    (65521, 40, 4, 2, (0, 18, 23)),  # the top of Field's range: the widest slots
    (257, 128, 8, 3, (60, 84)),  # decode-rs128's code: tau_0 and tau
])
def test_packed_weak_popov_matches_the_list_reduction(q, n, k, s, weights):
    F = Field(q)
    spec = CodeSpec(F, n, k)
    shifts = [t * (k - 1) for t in range(s + 1)]
    rng = random.Random(q * n + s)
    for w in weights:
        for _ in range(3):
            f = UniPoly.from_ints(F, [rng.randrange(q) for _ in range(k)])
            r = corrupt(encode(spec, f), random_error(spec, w, rng.randrange(2**32)))
            for scalars in ((1,) * (s + 1), scaling_map(s, F)):
                rows = rsdec.mgs.solution_module(spec, r, scalars)
                expect = [[list(p) for p in row] for row in rows]
                module = rsdec.mgs.weak_popov(rows, shifts, F)
                assert module.degrees == reference_weak_popov(expect, shifts, F)
                assert full_rows(module) == expect


def reduced_in_every_slot(q, values):
    """True iff `slot_reduction` takes the int packing `values`, with the
    last one in the top slot, to the int packing each value mod q."""
    width, kappa, reduce = slot_reduction(q, (q - 1) ** 2 + q)
    assert values[-1] and pack(values, width).bit_length() > (len(values) - 1) * width
    high = pack([(1 << width) - (1 << kappa)] * len(values), width)
    return reduce(pack(values, width), high) == pack([v % q for v in values], width)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 17, 23, 257])
def test_slot_reduction_is_exact_on_every_slot_value(q):
    # a reduction step leaves each slot in [0, (q-1)^2 + q); every such
    # value, in ints of at most 4096 slots, each chunk's last in its top slot
    top = (q - 1) ** 2 + q
    for start in range(0, top, 4096):
        assert reduced_in_every_slot(q, list(range(start, min(start + 4096, top))))


def test_slot_reduction_is_exact_at_the_largest_field():
    q = 65521
    top = (q - 1) ** 2 + q
    edges = [v for a in range(0, top, q) for v in (a, a + 1, a + q - 1) if 0 < v < top]
    rng = random.Random(65521)
    sample = [rng.randrange(1, top) for _ in range(20000)]
    for values in (edges, sample, [q - 1] * 5 + [top - 1]):
        assert reduced_in_every_slot(q, values)
