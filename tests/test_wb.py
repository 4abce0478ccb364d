from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from rsdec import CodeSpec, Field, UniPoly, Word, corrupt, encode, wb_decode, wb_radius
from rsdec.code import random_error
from rsdec.linalg import nullspace
from rsdec.poly import split_blocks
from rsdec.wb import wb_build

F7 = Field(7)


def test_wb_radius():
    assert wb_radius(16, 4) == 6
    assert wb_radius(6, 2) == 2
    assert wb_radius(5, 5) == 0
    assert wb_radius(7, 2) == 2
    with pytest.raises(ValueError):
        wb_radius(3, 4)


def test_wb_build_shape():
    spec, _, _, r = ex.instance()
    system = wb_build(spec, r)
    # blocks of n - tau0 = 10 and n - tau0 - k + 1 = 7 columns
    assert (system.nrows, system.ncols) == (16, 17)


def test_wb_build_zero_word_kills_locator_block():
    spec = ex.code()
    system = wb_build(spec, Word.from_ints(spec.field, [0] * 16))
    for row in system.rows:
        assert all(v == 0 for v in row[10:])


def test_wb_build_all_ones_row():
    F = Field(5)
    spec = CodeSpec(F, 1, 1, locators=(1,))
    system = wb_build(spec, Word.from_ints(F, [1]))
    assert system.rows == ((1, 1),)


def test_wb_build_rows_encode_evaluation():
    spec, _, _, r = ex.instance()
    system = wb_build(spec, r)
    for i, (a, ri) in enumerate(zip(spec.locators, r.symbols)):
        row = system.rows[i]
        assert row[:10] == tuple(pow(a, j, 17) for j in range(10))
        assert row[10:] == tuple(
            ri * pow(a, j, 17) % 17 for j in range(7)
        )


def test_decode_at_full_radius():
    spec, f, c, _ = ex.instance()
    e = Word.from_ints(spec.field, [1, 2, 3, 4, 5, 6] + [0] * 10, )
    out = wb_decode(spec, corrupt(c, e))
    assert out.success
    assert out.f == f
    assert out.corrected == c
    assert out.error_positions == (0, 1, 2, 3, 4, 5)
    assert out.locator.leading == 1


def test_decode_error_free_word():
    spec, f, c, _ = ex.instance()
    out = wb_decode(spec, c)
    assert out.success
    assert out.f == f
    assert out.error_positions == ()
    assert out.locator == UniPoly.one(spec.field)


@given(st.integers(0, 6), st.integers(0, 2**32))
def test_decode_random_patterns_within_radius(wt, seed):
    spec, f, c, _ = ex.instance()
    e = random_error(spec, wt, seed)
    out = wb_decode(spec, corrupt(c, e))
    assert out.success
    assert out.f == f
    assert set(out.error_positions) == {i for i, v in enumerate(e.symbols) if v != 0}


@given(st.integers(0, 2**32))
def test_message_component_matches_locator_times_f(seed):
    spec, f, c, _ = ex.instance()
    r = corrupt(c, random_error(spec, 5, seed))
    system = wb_build(spec, r)
    out = wb_decode(spec, r)
    assert out.success
    # any solution splits as (q0, q1) with q0 = -f q1; check on the outcome
    tau0 = wb_radius(spec.n, spec.k)
    widths = (spec.n - tau0, spec.n - tau0 - spec.k + 1)
    for vec in nullspace(system):
        q0, q1 = split_blocks(spec.field, vec, widths)
        assert q0 == -(out.f * q1)


def all_words_within(spec, c, radius):
    """Every word at distance <= radius from c (tiny codes only)."""
    yield c, 0
    n, q = spec.n, spec.field.q
    for wt in range(1, radius + 1):
        for positions in combinations(range(n), wt):
            for values in _value_tuples(q, wt):
                symbols = list(c.to_ints())
                for pos, val in zip(positions, values):
                    symbols[pos] = (symbols[pos] + val) % q
                yield Word.from_ints(spec.field, symbols), wt


def _value_tuples(q, wt):
    if wt == 0:
        yield ()
        return
    for v in range(1, q):
        for rest in _value_tuples(q, wt - 1):
            yield (v,) + rest


def test_beyond_radius_never_returns_far_codeword():
    spec, f, c, _ = ex.instance()
    for seed in range(20):
        e = random_error(spec, 8, seed)
        out = wb_decode(spec, corrupt(c, e))
        if out.success:
            dist = sum(
                1 for a, b in zip(out.corrected.symbols, corrupt(c, e).symbols) if a != b
            )
            assert dist <= 6


def test_exhaustive_against_nearest_codeword_sample():
    """Spot version of the exhaustive oracle run by the acceptance suite."""
    spec = CodeSpec(F7, 6, 2)
    codewords = [
        encode(spec, UniPoly.from_ints(F7, [a, b])) for a in range(7) for b in range(7)
    ]
    as_ints = [tuple(c.to_ints()) for c in codewords]
    c = codewords[23]
    for r, wt in all_words_within(spec, c, 2):
        out = wb_decode(spec, r)
        rt = tuple(r.to_ints())
        best = min(as_ints, key=lambda cw: sum(1 for x, y in zip(cw, rt) if x != y))
        assert out.success
        assert tuple(out.corrected.to_ints()) == best == tuple(c.to_ints())
