from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gf17_example as ex
from rsdec import CodeSpec, Field, UniPoly, Word, corrupt, encode, power_word
from rsdec.code import default_locators, interpolate_word, random_error, support, weight

F7 = Field(7)


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
        assert weight(e) == wt
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
