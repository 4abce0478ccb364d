import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
import rsdec.poly
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    Word,
    corrupt,
    encode,
    mgs_decode,
    power_word,
    virs_decode,
    wb_decode,
)
from rsdec.code import default_locators, interpolate_word, random_error
from rsdec.poly import locator_poly

F7 = Field(7)


def support(w):
    """Positions of the nonzero symbols of w."""
    return tuple(i for i, v in enumerate(w) if v)


def test_default_locators_are_primitive_powers():
    spec = ex.code()
    assert list(spec.locators) == ex.LOCATORS


def test_encode_worked_example():
    spec, f, c, _ = ex.instance()
    assert c.to_ints() == ex.CODEWORD


def test_corrupt_worked_example():
    _, _, _, r = ex.instance()
    assert r.to_ints() == ex.RECEIVED


def test_power_word_worked_example():
    _, _, _, r = ex.instance()
    assert power_word(r, 2).to_ints() == ex.RECEIVED_SQ
    assert power_word(r, 1) == r


def test_power_word_edge_cases():
    zero = Word.from_ints(F7, [0, 0, 0])
    assert power_word(zero, 3) == zero
    with pytest.raises(ValueError):
        power_word(zero, 0)


def test_encode_trivial_messages():
    spec = CodeSpec(F7, 6, 2)
    assert encode(spec, UniPoly.zero(F7)).to_ints() == [0] * 6
    const = encode(spec, UniPoly.from_ints(F7, [5]))
    assert const.to_ints() == [5] * 6


def test_encode_rejects_large_degree():
    spec = CodeSpec(F7, 6, 2)
    with pytest.raises(ValueError):
        encode(spec, UniPoly.from_ints(F7, [1, 1, 1]))


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec(F7, 7, 2)  # n must stay below q
    with pytest.raises(ValueError):
        CodeSpec(F7, 3, 4)  # k above n
    with pytest.raises(ValueError):
        CodeSpec(F7, 2, 1, locators=(0, 1))
    with pytest.raises(ValueError):
        CodeSpec(F7, 2, 1, locators=(3, 3))
    with pytest.raises(ValueError):
        CodeSpec(F7, 2, 1, locators=(3,))
    # locators are residues in (0, q), never reduced: 8 would alias 1
    for bad in [(1, 7), (1, 8), (-1, 1), (1.0, 2)]:
        with pytest.raises(ValueError):
            CodeSpec(F7, 2, 1, locators=bad)
    assert CodeSpec(F7, 2, 1, locators=(6, 1)).locators == (6, 1)


def test_minimum_distance_attribute():
    assert CodeSpec(F7, 6, 2).d == 5
    assert ex.code().d == 13


def test_minimum_distance_exhaustive_small_code():
    spec = CodeSpec(F7, 6, 2)
    codewords = []
    for a in range(7):
        for b in range(7):
            codewords.append(tuple(encode(spec, UniPoly.from_ints(F7, [a, b])).to_ints()))
    for u, v in combinations(codewords, 2):
        dist = sum(1 for x, y in zip(u, v) if x != y)
        assert dist >= spec.d


@given(st.lists(st.integers(0, 16), min_size=4, max_size=4), st.integers(1, 3))
def test_power_word_lands_in_larger_code(f_coeffs, i):
    spec, _, _, _ = ex.instance()
    f = UniPoly.from_ints(spec.field, f_coeffs)
    c = encode(spec, f)
    powered = power_word(c, i)
    # re-interpolation certifies membership in the dimension i(k-1)+1 code
    assert interpolate_word(spec, powered).degree <= i * (spec.k - 1)


def test_corrupt_is_componentwise_sum():
    c = Word.from_ints(F7, [1, 2, 3])
    e = Word.from_ints(F7, [6, 0, 5])
    r = corrupt(c, e)
    assert r.to_ints() == [0, 2, 1]
    neg = Word.from_ints(F7, [1, 0, 2])
    assert corrupt(r, neg) == c
    with pytest.raises(ValueError):
        corrupt(c, Word.from_ints(F7, [1]))


def test_word_equality_and_hash():
    a = Word.from_ints(F7, [1, 2])
    b = Word(F7, [1, 2])
    assert a == b
    assert hash(a) == hash(b)
    # symbols are reduced mod q on construction
    assert Word(F7, [7, -1]).symbols == (0, 6)
    assert Word(F7, [8, 9]) == a
    assert a != Word(Field(11), [1, 2])
    assert repr(a) == "Word([1, 2])"


def test_random_error_weight_and_determinism():
    spec = ex.code()
    for wt in [0, 1, 7, 16]:
        e = random_error(spec, wt, 99)
        assert len(support(e)) == wt
        assert e == random_error(spec, wt, 99)
    assert random_error(spec, 5, 1) != random_error(spec, 5, 2)
    assert support(random_error(spec, 0, 3)) == ()
    with pytest.raises(ValueError):
        random_error(spec, 17, 0)
    with pytest.raises(ValueError):
        random_error(spec, -1, 0)


def test_random_error_spreads_positions():
    spec = ex.code()
    seen = set()
    for seed in range(40):
        seen.update(support(random_error(spec, 4, seed)))
    assert seen == set(range(16))


def test_interpolate_word_recovers_message():
    spec, f, c, _ = ex.instance()
    assert interpolate_word(spec, c) == f


def test_default_locators_need_enough_points():
    with pytest.raises(ValueError):
        CodeSpec(F7, 6, 2, locators=default_locators(F7, 5))


def test_interpolation_table_is_built_on_first_decode_once(monkeypatch):
    # the benchmark's set-up (CodeSpec, encode, random_error, corrupt)
    # stays cold; the first decode builds the code's tables, interpolation
    # and evaluation, and every later decode, by any decoder, reuses them
    built = []
    for table in (rsdec.poly.Interpolator, rsdec.poly.Evaluator):

        def recording(self, points, xs, table=table, original=table.__init__):
            built.append((table.__name__, tuple(xs)))
            original(self, points, xs)

        monkeypatch.setattr(table, "__init__", recording)
    spec = CodeSpec(Field(17), 16, 4)
    words = [
        corrupt(encode(spec, UniPoly.from_ints(spec.field, [seed, 1, 2, 3])), random_error(spec, 6, seed))
        for seed in range(3)
    ]
    assert built == [] and "interpolator" not in vars(spec) and "evaluator" not in vars(spec)
    for r in words:
        for out in (wb_decode(spec, r), virs_decode(spec, r, 2), mgs_decode(spec, r, 2)):
            assert out.success
    assert sorted(built) == [("Evaluator", spec.locators), ("Interpolator", spec.locators)]


def horner_roots(spec, p):
    """Indices i with p(locators[i]) = 0, one Horner evaluation each."""
    return tuple(i for i, a in enumerate(spec.locators) if p.evaluate(a) == 0)


@pytest.mark.parametrize("q,n,locators", [
    (2, 1, ()),
    (17, 16, ()),
    (17, 8, (1, 2, 4, 8, 16, 15, 13, 9)),
    (257, 128, ()),
    (257, 20, tuple(range(237, 257))),
    (65521, 40, ()),
    (65521, 6, (65520, 1, 2, 65519, 3, 32768)),
])
def test_positions_of_roots_matches_horner(q, n, locators):
    # the zero polynomial, every degree below n, degrees n and above (reduced
    # mod G first), and products of locators, which have roots to find
    F = Field(q)
    spec = CodeSpec(F, n, 1, locators)
    rng = random.Random(q * n)
    polys = [UniPoly.zero(F)]
    for degree in [*range(n), n, n + 1, 2 * n + 3]:
        polys.append(UniPoly.from_ints(F, [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]))
    for size in {1, n // 2, n}:
        roots = locator_poly(F, rng.sample(spec.locators, size))
        polys += [roots, roots * UniPoly.from_ints(F, [rng.randrange(q) for _ in range(n)] + [1])]
    for p in polys:
        assert spec.positions_of_roots(p) == horner_roots(spec, p)
    assert spec.positions_of_roots(UniPoly.zero(F)) == tuple(range(n))
    assert spec.positions_of_roots(spec.vanishing) == tuple(range(n))


def test_an_evaluation_slot_reaches_its_bound():
    # the table's slots hold sum_e p_e x^e below n (q-1)^2 + 1; over GF(2)
    # with n = 1, p = 1 reaches n (q-1)^2 = 1, and its one locator is no root
    F = Field(2)
    spec = CodeSpec(F, 1, 1)
    p = UniPoly.one(F)
    assert sum(c * spec.locators[0] ** e for e, c in enumerate(p.coeffs)) == spec.n * (F.q - 1) ** 2
    assert spec.positions_of_roots(p) == horner_roots(spec, p) == ()
    assert spec.positions_of_roots(UniPoly.from_ints(F, [1, 1])) == (0,)
