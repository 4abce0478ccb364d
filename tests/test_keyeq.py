"""The decoders solve the key equation over Lambda alone; the dense
systems A and wb_build are the oracle they are held to here."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsdec.linalg
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    block_widths,
    build_A,
    corrupt,
    encode,
    nullspace,
    random_error,
    virs_decode,
    virs_radius,
    wb_build,
    wb_decode,
)
from rsdec.bivariate import BiPoly, FactorError, extract_power_factor, split_progression
from rsdec.outcome import DecodeOutcome, conclude, select_stack
from rsdec.virs import build_key_equation

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
        locator, f = split_progression(stack, (1,) * (s + 1), spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))


def dense_wb(spec, r):
    system = wb_build(spec, r)
    kernel = nullspace(system.matrix)
    try:
        stack = select_stack(spec.field, kernel, (system.width0, system.width1))
        locator, f = extract_power_factor(BiPoly(spec.field, stack), 1, spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, system.tau0, locator, f, len(kernel))


def summary(out):
    return (out.success, out.f, out.locator, out.reason, out.kernel_dim, out.error_positions)


@given(received_words())
def test_kernel_is_the_locator_part_of_the_dense_kernel(case):
    spec, r, s = case
    tau = virs_radius(spec.n, spec.k, s)
    widths = block_widths(spec.k, s, tau)
    top = widths[-1]
    dense = nullspace(build_A(spec, r, s, tau))
    assert [v[-top:] for v in nullspace(build_key_equation(spec, r, widths))] == [v[-top:] for v in dense]
    system = wb_build(spec, r)
    top = system.width1
    dense = nullspace(system.matrix)
    reduced = nullspace(build_key_equation(spec, r, (system.width0, system.width1)))
    assert [v[-top:] for v in reduced] == [v[-top:] for v in dense]


@given(received_words())
def test_decoders_match_the_dense_pipeline(case):
    spec, r, s = case
    assert summary(virs_decode(spec, r, s)) == summary(dense_virs(spec, r, s))
    assert summary(wb_decode(spec, r)) == summary(dense_wb(spec, r))


def test_wide_block_columns_come_first_and_keep_the_dense_dimension():
    # RS(16,4), s=5: block 0 has width 21, five columns more than n
    F = Field(17)
    spec = CodeSpec(F, 16, 4)
    r = corrupt(encode(spec, UniPoly.from_ints(F, [1, 2, 3])), random_error(spec, 3, 1))
    tau = virs_radius(16, 4, 5)
    widths = block_widths(4, 5, tau)
    assert widths[0] == 21
    kernel = nullspace(build_key_equation(spec, r, widths))
    assert len(kernel) == len(nullspace(build_A(spec, r, 5, tau)))
    assert [v[-widths[-1]:] for v in kernel[:5]] == [[0] * widths[-1]] * 5


def test_rate_one_code_has_no_parity_checks():
    F = Field(13)
    spec = CodeSpec(F, 6, 6)
    r = encode(spec, UniPoly.from_ints(F, [1, 2, 3, 4, 5, 6]))
    assert build_key_equation(spec, r, (6, 1)).rows == ((0,),)
    out = virs_decode(spec, r, 1)
    assert out.success and out.kernel_dim == 1


@pytest.mark.parametrize("method,shape", [("virs", (35, 36)), ("wb", (28, 29))])
def test_decode_eliminates_one_key_equation(monkeypatch, method, shape):
    # RS(64,8), s=2: A would be 128 x 129 and the wb system 64 x 65
    shapes = []
    original = rsdec.linalg._rref_ints

    def recording(rows, q):
        shapes.append((len(rows), len(rows[0])))
        return original(rows, q)

    monkeypatch.setattr(rsdec.linalg, "_rref_ints", recording)
    F = Field(257)
    spec = CodeSpec(F, 64, 8)
    f = UniPoly.from_ints(F, range(1, 9))
    r = corrupt(encode(spec, f), random_error(spec, 20, 3))
    out = virs_decode(spec, r, 2) if method == "virs" else wb_decode(spec, r)
    assert out.success and out.f == f
    assert shapes == [shape]
