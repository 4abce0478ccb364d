"""virs row-reduces its solution module, and wb interpolates; the dense
systems A and wb_build are the oracle they are held to here."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsdec.linalg
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    build_A,
    corrupt,
    encode,
    nullspace,
    scaling_map,
    virs_decode,
    virs_radius,
    wb_decode,
    wb_radius,
)
from rsdec.bivariate import FactorError, extract_power_factor
from rsdec.code import random_error
from rsdec.linalg import Mat
from rsdec.mgs import block_widths, reduced_module, solution_module, weak_popov
from rsdec.outcome import DecodeOutcome, capped_span, conclude, select_stack
from rsdec.wb import wb_build
from test_linalg import rank

# (q, n, k, s): n - k odd and even, a block 0 wider than n (RS(15,4) s=3,
# RS(16,4) s=5), degenerate widths (RS(7,3) s=3) and k = n
CODES = [
    (11, 7, 2, 3),
    (17, 16, 4, 2),
    (17, 15, 4, 3),
    (17, 16, 4, 5),
    (11, 7, 3, 3),
    (13, 6, 6, 1),
]


@st.composite
def received_words(draw):
    q, n, k, s = draw(st.sampled_from(CODES))
    F = Field(q)
    spec = CodeSpec(F, n, k)
    f = UniPoly.from_ints(F, draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)))
    e = random_error(spec, draw(st.integers(0, n)), draw(st.integers(0, 2**32)))
    return spec, corrupt(encode(spec, f), e), s


def dense_virs(spec, r, s):
    tau = virs_radius(spec.n, spec.k, s)
    kernel = nullspace(build_A(spec, r, s, tau))
    try:
        stack = select_stack(spec.field, kernel, block_widths(spec.k, s, tau))
        locator, f = extract_power_factor(stack, (1,) * (s + 1), spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))


def dense_wb(spec, r):
    tau0 = wb_radius(spec.n, spec.k)
    kernel = nullspace(wb_build(spec, r))
    try:
        stack = select_stack(spec.field, kernel, (spec.n - tau0, spec.n - tau0 - spec.k + 1))
        locator, f = extract_power_factor(stack, scaling_map(1, spec.field), spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau0, locator, f, len(kernel))


def summary(out):
    return (out.success, out.f, out.locator, out.reason, out.kernel_dim, out.error_positions)


def module_span(spec, r, s):
    """The F-basis of A's kernel whose top two blocks virs_decode reads off
    the reduced module, with every block laid out."""
    widths = block_widths(spec.k, s, virs_radius(spec.n, spec.k, s))
    rows, degrees = reduced_module(spec, r, (1,) * (s + 1))
    return capped_span(rows, degrees, widths[0], widths)


@given(received_words())
def test_module_span_is_the_dense_kernel(case):
    spec, r, s = case
    A = build_A(spec, r, s, virs_radius(spec.n, spec.k, s))
    span = module_span(spec, r, s)
    assert len(span) == len(nullspace(A))
    assert all(not any(A.mulvec(v)) for v in span)
    # linearly independent, so the span is all of the dense kernel
    assert not span or len(nullspace(Mat(spec.field, span))) == A.ncols - len(span)


@given(received_words())
def test_decoders_match_the_dense_pipeline(case):
    spec, r, s = case
    assert summary(virs_decode(spec, r, s)) == summary(dense_virs(spec, r, s))
    assert summary(wb_decode(spec, r)) == summary(dense_wb(spec, r))


def test_wide_block_keeps_the_dense_dimension():
    # RS(16,4), s=5: blocks 0 and 1 are 21 and 18 wide, 5 and 2 columns
    # more than n, so the kernel holds seven x^i G e_t, zero in the locator
    F = Field(17)
    spec = CodeSpec(F, 16, 4)
    r = corrupt(encode(spec, UniPoly.from_ints(F, [1, 2, 3])), random_error(spec, 3, 1))
    tau = virs_radius(16, 4, 5)
    widths = block_widths(4, 5, tau)
    assert widths[:2] == (21, 18)
    span = module_span(spec, r, 5)
    assert len(span) == len(nullspace(build_A(spec, r, 5, tau))) == virs_decode(spec, r, 5).kernel_dim
    assert rank(Mat(F, [v[-widths[-1]:] for v in span])) == len(span) - 7


def test_rate_one_code_has_no_parity_checks():
    # every word is a codeword: R_0 = r interpolated has degree < n = k,
    # so the row (R_0, 1) is already reduced and alone within the caps
    F = Field(13)
    spec = CodeSpec(F, 6, 6)
    r = encode(spec, UniPoly.from_ints(F, [1, 2, 3, 4, 5, 6]))
    rows = solution_module(spec, r, (1, 1))
    assert rows[-1] == [[1, 2, 3, 4, 5, 6], [1]]
    assert weak_popov(rows, [0, 5], F) == [6, 5]
    out = virs_decode(spec, r, 1)
    assert out.success and out.kernel_dim == 1


@pytest.mark.parametrize("method,shape", [("virs", (128, 129)), ("wb", (64, 65))])
def test_decode_eliminates_one_key_equation(monkeypatch, method, shape):
    # RS(64,8), s=2: shape is the dense system each decoder stands in for
    # (A for virs, wb_build for wb). virs once eliminated its 35 x 36 key
    # equation; it now row-reduces the solution module, and wb interpolates,
    # so neither eliminates any matrix
    F = Field(257)
    spec = CodeSpec(F, 64, 8)
    f = UniPoly.from_ints(F, range(1, 9))
    r = corrupt(encode(spec, f), random_error(spec, 20, 3))
    dense = build_A(spec, r, 2, virs_radius(64, 8, 2)) if method == "virs" else wb_build(spec, r)
    assert (dense.nrows, dense.ncols) == shape
    shapes = []
    original = rsdec.linalg._rref_ints

    def recording(rows, q):
        shapes.append((len(rows), len(rows[0])))
        return original(rows, q)

    monkeypatch.setattr(rsdec.linalg, "_rref_ints", recording)
    out = virs_decode(spec, r, 2) if method == "virs" else wb_decode(spec, r)
    assert out.success and out.f == f
    assert shapes == []
