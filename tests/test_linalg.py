from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsdec.linalg
from rsdec import Field, nullspace
from rsdec.linalg import Mat, _rref_ints
from rsdec.poly import slot_reduction, unpack
from matvec import mulvec

F5 = Field(5)
F3 = Field(3)


def rank(mat):
    """The pivot count of the reduced row echelon form."""
    return len(_rref_ints(mat.rows, mat.field.q)[1])


def brute_force_kernel(rows, ncols, q):
    """Every kernel vector by exhaustive enumeration; tiny inputs only."""
    out = []
    for vec in product(range(q), repeat=ncols):
        if all(sum(a * v for a, v in zip(row, vec)) % q == 0 for row in rows):
            out.append(vec)
    return set(out)


def spanned(basis, q, ncols):
    """All linear combinations of the basis vectors."""
    out = set()
    for coeffs in product(range(q), repeat=len(basis)):
        vec = [0] * ncols
        for c, b in zip(coeffs, basis):
            for j in range(ncols):
                vec[j] = (vec[j] + c * b[j]) % q
        out.add(tuple(vec))
    return out


small_matrix = st.integers(2, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
)


@given(small_matrix)
def test_nullspace_spans_exactly_the_kernel(rows):
    ncols = len(rows[0])
    mat = Mat(F3, rows)
    basis = nullspace(mat)
    assert all(type(x) is int and 0 <= x < 3 for vec in basis for x in vec)
    enumerated = brute_force_kernel(rows, ncols, 3)
    assert spanned(basis, 3, ncols) == enumerated


@given(small_matrix)
def test_rank_plus_nullity(rows):
    ncols = len(rows[0])
    mat = Mat(F3, rows)
    assert rank(mat) + len(nullspace(mat)) == ncols


def test_rref_golden():
    mat = Mat(F5, [[2, 1, 0], [0, 1, 1], [1, 0, 1]])  # det = 3, invertible
    reduced, pivots = _rref_ints(mat.rows, 5)
    assert pivots == [0, 1, 2]
    assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_with_free_column():
    # second column is twice the first, so it stays free
    mat = Mat(F5, [[1, 2, 0], [2, 4, 1]])
    reduced, pivots = _rref_ints(mat.rows, 5)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_rref_is_idempotent():
    mat = Mat(F5, [[3, 1, 4], [1, 0, 2]])
    once, piv1 = _rref_ints(mat.rows, 5)
    twice, piv2 = _rref_ints(once, 5)
    assert once == twice
    assert piv1 == piv2


def test_nullspace_vectors_annihilate():
    mat = Mat(F5, [[1, 2, 3, 4], [0, 1, 1, 0]])
    for vec in nullspace(mat):
        assert all(x == 0 for x in mulvec(mat, vec))


def test_nullspace_canonical_free_variable_pattern():
    mat = Mat(F5, [[1, 2, 0, 4], [0, 0, 1, 1]])
    basis = nullspace(mat)
    _, pivots = _rref_ints(mat.rows, 5)
    free = [j for j in range(mat.ncols) if j not in pivots]
    assert len(basis) == len(free)
    for i, vec in enumerate(basis):
        for j, col in enumerate(free):
            assert vec[col] == (1 if i == j else 0)


def test_nullspace_of_zero_rows_is_identity():
    mat = Mat(F5, [[0, 0, 0]])
    basis = nullspace(mat)
    assert len(basis) == 3
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_full_rank_has_trivial_nullspace():
    mat = Mat(F5, [[1, 0], [0, 1], [1, 1]])
    assert nullspace(mat) == []
    assert rank(mat) == 2


def test_mat_validation_and_accessors():
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2], [3]])
    mat = Mat(F5, [[7, -1]])
    assert mat.rows == ((2, 4),)
    with pytest.raises(ValueError):
        mulvec(mat, [1])


def test_mulvec():
    mat = Mat(F5, [[1, 2], [3, 4]])
    assert mulvec(mat, [1, 1]) == [3, 2]


def reference_rref(rows, q):
    """The list-based elimination that the packed `_rref_ints` replaced,
    kept as its oracle: the same pivots, each row update reduced mod q."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if work[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = pow(work[r][col], q - 2, q)
        if inv != 1:
            work[r] = [(v * inv) % q for v in work[r]]
        prow = work[r]
        for i in range(nrows):
            if i == r:
                continue
            fac = work[i][col]
            if fac:
                work[i] = [(a - fac * b) % q for a, b in zip(work[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


def watch_slots(monkeypatch):
    """Record every slot the elimination hands to its reduction, and every
    slot of the rows it returns unreduced: between them each slot's
    largest value, as slots only grow between reductions."""
    seen = []

    def watched(q, largest):
        width, kappa, reduce = slot_reduction(q, largest)

        def recording(v, high):
            seen.extend(unpack(v, width))
            return reduce(v, high)

        return width, kappa, recording

    def eliminate(rows, q):
        work, pivots, width = original(rows, q)
        for row in work:
            seen.extend(unpack(row, width))
        return work, pivots, width

    original = rsdec.linalg._eliminate
    monkeypatch.setattr(rsdec.linalg, "slot_reduction", watched)
    monkeypatch.setattr(rsdec.linalg, "_eliminate", eliminate)
    return seen


@st.composite
def shaped_rows(draw, q):
    """A matrix L R over GF(q), in one of four shapes: no columns, wide,
    tall, or square-ish of rank below min(nrows, ncols)."""
    shape = draw(st.sampled_from(("zero-column", "wide", "tall", "rank-deficient")))
    if shape == "zero-column":
        nrows, ncols = draw(st.integers(0, 4)), 0
    elif shape == "wide":
        nrows = draw(st.integers(1, 5))
        ncols = draw(st.integers(nrows + 1, 12))
    elif shape == "tall":
        ncols = draw(st.integers(1, 5))
        nrows = draw(st.integers(ncols + 1, 12))
    else:
        nrows, ncols = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    full = min(nrows, ncols)
    rank = draw(st.integers(0, full - 1)) if shape == "rank-deficient" else full
    entry = st.integers(0, q - 1)
    left = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*right)] if right else [0] * ncols
            for row in left]


@pytest.mark.parametrize("q", [2, 3, 5, 17, 257, 65521])
@given(data=st.data())
def test_packed_rref_matches_the_list_reduction(q, data):
    rows = data.draw(shaped_rows(q))
    expect = reference_rref(rows, q)
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = watch_slots(monkeypatch)
        assert _rref_ints(rows, q) == expect
    steps = min(len(rows), len(rows[0]) if rows else 0)
    assert max(seen, default=0) <= q - 1 + steps * (q - 1) ** 2
    if rows:
        # nullspace reads the unreduced slots itself: the canonical basis
        # of the reference RREF
        reduced, pivots = expect
        free = [j for j in range(len(rows[0])) if j not in pivots]
        basis = [[int(i == j) for i in range(len(rows[0]))] for j in free]
        for v, j in zip(basis, free):
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r][j] % q
        assert nullspace(Mat(Field(q), rows)) == basis


@pytest.mark.parametrize("q,m", [(2, 6), (5, 7), (65521, 2)])
def test_a_slot_reaches_the_update_bound(monkeypatch, q, m):
    # rows e_j + (q-1) e_m for j < m, then e_m, then (1, ..., 1, q-1): the
    # last row takes every update, m of them adding (q-1)^2 to its slot m
    # and, as m = 2 mod q leaves that slot at 1 mod q, a last one adding
    # q-1; at q = 2 that is (q-1) + min(nrows, ncols) (q-1)^2 exactly
    rows = [[int(i == j) for i in range(m)] + [q - 1] for j in range(m)]
    rows += [[0] * m + [1], [1] * m + [q - 1]]
    seen = watch_slots(monkeypatch)
    assert _rref_ints(rows, q) == reference_rref(rows, q)
    bound = q - 1 + min(len(rows), m + 1) * (q - 1) ** 2
    assert max(seen) == q - 1 + m * (q - 1) ** 2 + q - 1 <= bound
    assert (max(seen) == bound) == (q == 2)
