"""End-to-end acceptance checks, one numbered test per guarantee.

Each test prints a single pass line so the suite doubles as a checklist:
run ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools

import gf17_example as ex
from matvec import mulvec
from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    Word,
    build_A,
    build_Bbar,
    corrupt,
    encode,
    mgs_decode,
    nullspace,
    nullspace_equivalence,
    power_word,
    scaling_map,
    virs_decode,
    virs_radius,
    wb_decode,
    wb_radius,
)
from rsdec.bivariate import BiPoly, extract_power_factor
from rsdec.code import random_error
from rsdec.equiv import _scale
from rsdec.gs import (
    GsParams,
    _constraint_matrix,
    gs_interpolate,
    gs_params_valid,
    key_equation_check,
    multiplicity_at,
)
from rsdec.linalg import Mat
from rsdec.wb import wb_build
from rsdec.montecarlo import ExperimentConfig, run_montecarlo
from rsdec.rng import Stream, derive_seed
from test_mgs import errorfree_divisibility_check, mgs_interpolate

F17 = Field(17)


def test_criterion_1_worked_example_reproduction():
    spec, f, c, r = ex.instance()
    assert encode(spec, f).to_ints() == ex.CODEWORD
    assert r.to_ints() == ex.RECEIVED
    assert power_word(r, 2).to_ints() == ex.RECEIVED_SQ

    printed = list(ex.SOLUTION_STACK)
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    assert all(x == 0 for x in mulvec(A, printed))
    # the printed blocks are the raw stack (Lam f^2, Lam f, Lam); the
    # derivative system is solved by its diagonal image, not by the raw
    # vector itself
    assert any(x != 0 for x in mulvec(Bbar, printed))
    D = scaling_map(2, F17)
    image = _scale(17, printed, D, ex.WIDTHS)
    assert all(x == 0 for x in mulvec(Bbar, image))

    Q = mgs_interpolate(spec, r, 2)
    flat = []
    for t, w in enumerate(ex.WIDTHS):
        comp = Q.component(t)
        flat.extend(comp.coeff(i) for i in range(w))
    ratios = {a * pow(b, -1, 17) % 17 for a, b in zip(flat, image) if b != 0}
    assert len(ratios) == 1
    assert all(a == 0 for a, b in zip(flat, image) if b == 0)

    lam, g = extract_power_factor(Q.components, D, spec.k)
    assert g == f
    assert {a for a in spec.locators if lam.evaluate(a) == 0} == {
        spec.locators[i] for i in range(7)
    }
    assert lam.degree == 7
    print("criterion 1: PASS (worked example reproduced exactly)")


def test_criterion_2_radius_formula():
    assert virs_radius(16, 4, 2) == 7
    assert virs_radius(31, 4, 3) == 18
    stream = Stream(derive_seed(2024, 2))
    checked = 0
    while checked < 100:
        n = 2 + stream.below(200)
        k = 1 + stream.below(n)
        assert virs_radius(n, k, 1) == (n - k) // 2
        checked += 1
    print("criterion 2: PASS (radius formula exact, order one collapses to half distance)")


def test_criterion_3_beyond_half_distance():
    spec, f, c, _ = ex.instance()
    successes = 0
    for trial in range(200):
        e = random_error(spec, 7, derive_seed(777, trial))
        r = corrupt(c, e)
        a = virs_decode(spec, r, 2)
        b = mgs_decode(spec, r, 2)
        assert a.success == b.success
        if a.success:
            assert a.f == b.f
            assert a.locator == b.locator
            assert a.locator.monic() == a.locator
            dist = sum(1 for x, y in zip(r.symbols, a.corrected.symbols) if x != y)
            assert dist <= 7
            successes += 1
    # the worked-example error pattern itself must decode
    worked = virs_decode(spec, Word.from_ints(F17, ex.RECEIVED), 2)
    assert worked.success and worked.f == f
    assert successes > 0
    print(f"criterion 3: PASS (200 weight-7 trials, {successes} successes, decoders agree per trial)")


def test_criterion_4_exhaustive_unique_decoding():
    F7 = Field(7)
    spec = CodeSpec(F7, 6, 2)
    words = []
    for coeffs in itertools.product(range(7), repeat=2):
        words.append(encode(spec, UniPoly.from_ints(F7, coeffs)))
    patterns = [[0] * 6]
    for i in range(6):
        for v in range(1, 7):
            e = [0] * 6
            e[i] = v
            patterns.append(list(e))
            for j in range(i + 1, 6):
                for w in range(1, 7):
                    e2 = list(e)
                    e2[j] = w
                    patterns.append(e2)
    assert len(patterns) == 1 + 36 + 15 * 36

    def nearest(r):
        best, best_dist, ties = None, 7, 0
        for cand in words:
            dist = sum(1 for a, b in zip(cand.symbols, r.symbols) if a != b)
            if dist < best_dist:
                best, best_dist, ties = cand, dist, 1
            elif dist == best_dist:
                ties += 1
        return best, best_dist, ties

    for cw in words:
        for pat in patterns:
            r = corrupt(cw, Word.from_ints(F7, pat))
            out = wb_decode(spec, r)
            best, best_dist, ties = nearest(r)
            assert out.success
            assert ties == 1 and best_dist <= 2
            assert out.corrected == best
    print("criterion 4: PASS (RS(6,2)/GF(7) exhaustive weight<=2 equals nearest-codeword search)")


def _random_instance(stream, ell, s):
    # draw small parameter sets until the unknown count beats the constraint
    # count, so interpolation is guaranteed a nonzero solution
    while True:
        q = (11, 13, 17, 19, 23)[stream.below(5)]
        n = 6 + stream.below(q - 1 - 6 + 1)
        k = 2 + stream.below(min(n - 2, 5))
        tau_cap = (n - k) // 2 if s == 1 else None
        tau = stream.below(tau_cap + 1) if s == 1 else None
        if s > 1:
            # search the largest workable radius for this (ell, s)
            for t in range((n - k) // 2 + 3, -1, -1):
                if gs_params_valid(GsParams(n, k, ell, s, t))[0]:
                    tau = t
                    break
            else:
                continue
        p = GsParams(n, k, ell, s, tau)
        valid, _, _ = gs_params_valid(p)
        if not valid:
            continue
        F = Field(q)
        spec = CodeSpec(F, n, k)
        f = UniPoly.from_ints(F, [stream.below(q) for _ in range(k)])
        r = corrupt(encode(spec, f), random_error(spec, min(p.tau, 2), stream.next64()))
        return spec, r, p


def test_criterion_5_key_equations():
    stream = Stream(derive_seed(555, 1))
    for _ in range(20):
        spec, r, p = _random_instance(stream, 1, 1)
        Q = gs_interpolate(spec, r, p)
        assert key_equation_check(Q, spec, r, p)
    for _ in range(10):
        spec, r, p = _random_instance(stream, 2, 2)
        Q = gs_interpolate(spec, r, p)
        assert key_equation_check(Q, spec, r, p)
    # perturbations: flipping any single stored coefficient must break the
    # divisibility or the degree bound
    pert_stream = Stream(derive_seed(555, 2))
    for _ in range(10):
        spec, r, p = _random_instance(pert_stream, 1, 1)
        Q = gs_interpolate(spec, r, p)
        t = pert_stream.below(Q.ydeg + 1)
        comp = Q.component(t)
        width = max(comp.degree if comp.degree >= 0 else 0, 1)
        i = pert_stream.below(width + 1)
        bump = 1 + pert_stream.below(spec.field.q - 1)
        delta = UniPoly.from_ints(spec.field, [0] * i + [1]) * bump
        new_comps = list(Q.components)
        while len(new_comps) <= t:
            new_comps.append(UniPoly.zero(spec.field))
        new_comps[t] = new_comps[t] + delta
        Q_bad = BiPoly(spec.field, new_comps)
        assert not key_equation_check(Q_bad, spec, r, p)
    print("criterion 5: PASS (key equations hold for 30 instances, fail under perturbation)")


def test_criterion_6_power_factor_structure():
    collected = 0
    configs = [
        (CodeSpec(F17, 16, 4), 2, 7, ex.instance()[1]),
        (CodeSpec(Field(11), 7, 2), 3, 3, UniPoly.from_ints(Field(11), [4, 9])),
    ]
    stream = Stream(derive_seed(666, 0))
    while collected < 50:
        spec, s, tau, f = configs[collected % 2]
        wt = stream.below(tau + 1)
        r = corrupt(encode(spec, f), random_error(spec, wt, stream.next64()))
        out = mgs_decode(spec, r, s)
        if not out.success:
            continue
        Q = mgs_interpolate(spec, r, s)
        lam, g = extract_power_factor(Q.components, scaling_map(s, spec.field), spec.k)
        F = spec.field
        assert Q == BiPoly.from_uni(Q.component(s)) * BiPoly(F, (-g, UniPoly.one(F))) ** s
        errset = set(out.error_positions)
        for j, a in enumerate(spec.locators):
            m = multiplicity_at(Q, a, r[j])
            if j in errset:
                assert m >= 1
            else:
                assert m >= s
        assert errorfree_divisibility_check(Q, spec, r, out.error_positions, s)
        collected += 1
    print("criterion 6: PASS (50 successful decodes expand, vanish, and divide as required)")


def test_criterion_7_nullspace_equivalence():
    spec, _, c, r = ex.instance()
    D = scaling_map(2, F17)
    A = build_A(spec, r, 2, 7)
    Bbar = build_Bbar(spec, r, 2, 7).matrix
    assert nullspace_equivalence(A, Bbar, D, ex.WIDTHS)
    assert len(nullspace(A)) == len(nullspace(Bbar))

    stream = Stream(derive_seed(7007, 0))
    for _ in range(50):
        wt = stream.below(9)
        rr = corrupt(c, random_error(spec, wt, stream.next64()))
        A = build_A(spec, rr, 2, 7)
        Bbar = build_Bbar(spec, rr, 2, 7).matrix
        assert nullspace_equivalence(A, Bbar, D, ex.WIDTHS)
        assert len(nullspace(A)) == len(nullspace(Bbar))

    bad = [list(row) for row in A.rows]
    bad[0][0] = (bad[0][0] + 1) % 17
    assert not nullspace_equivalence(Mat(F17, tuple(tuple(x) for x in bad)), Bbar, D, ex.WIDTHS)
    print("criterion 7: PASS (solution spaces match on 51 instances, negative control fails)")


def test_criterion_8_interpolation_collapses_to_classical():
    stream = Stream(derive_seed(888, 0))
    for _ in range(20):
        q = (11, 13, 17, 19)[stream.below(4)]
        F = Field(q)
        n = 6 + stream.below(q - 6)
        k = 2 + stream.below(min(n - 2, 4))
        spec = CodeSpec(F, n, k)
        tau0 = wb_radius(n, k)
        f = UniPoly.from_ints(F, [stream.below(q) for _ in range(k)])
        r = corrupt(encode(spec, f), random_error(spec, stream.below(tau0 + 1), stream.next64()))
        p = GsParams(n, k, 1, 1, tau0)
        gs_mat = _constraint_matrix(spec, r, p)
        wb_mat = wb_build(spec, r)
        assert gs_mat.rows == wb_mat.rows
        assert nullspace(gs_mat) == nullspace(wb_mat)
    print("criterion 8: PASS (list-1 interpolation matrix identical to classical system, 20 instances)")


def test_criterion_9_montecarlo_determinism():
    cfg = ExperimentConfig(q=17, n=16, k=4, s=2, weights=(4, 7), trials=4, seed=31337)
    first = run_montecarlo(cfg, threads=1)
    second = run_montecarlo(cfg, threads=1)
    eight = run_montecarlo(cfg, threads=8)
    assert first.encode() == second.encode() == eight.encode()
    print("criterion 9: PASS (CSV byte-identical across runs and thread counts 1/8)")
