import json

import pytest

from rsdec import UniPoly, corrupt, encode, mgs_decode, virs_decode, wb_decode, wb_radius
from rsdec.code import random_error
from rsdec.montecarlo import ExperimentConfig, run_montecarlo, run_trials
from rsdec.rng import Stream, derive_seed


def small_config(**overrides):
    base = dict(q=17, n=16, k=4, s=2, weights=(0, 7), trials=3, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_from_json_round_trip():
    blob = json.dumps(
        {
            "q": 17,
            "n": 16,
            "k": 4,
            "s": 2,
            "weights": [0, 7],
            "trials": 3,
            "seed": 99,
            "methods": ["wb", "virs", "mgs"],
        }
    )
    cfg = ExperimentConfig.from_json(blob)
    assert cfg == small_config()


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps({"q": 17, "n": 16, "k": 4, "s": 2, "weights": [0], "trials": 1, "seed": 0, "bogus": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps({"q": 17, "n": 16}))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(weights=(17,))  # weight exceeds length
    with pytest.raises(ValueError):
        small_config(s=6)  # infeasible interleaving order
    with pytest.raises(ValueError):
        small_config(methods=("wb", "magic"))
    with pytest.raises(ValueError):
        small_config(trials=0)
    for overrides, message in (
        ({"weights": (5, 5)}, "duplicate weights"),
        ({"methods": ("virs", "virs")}, "duplicate methods"),
        ({"methods": "wb"}, "methods must be a list"),
        ({"weights": 5}, "weights must be a list"),
        ({"q": 17.0}, "q must be an integer"),
        ({"n": 1.5}, "n must be an integer"),
        ({"s": "2"}, "s must be an integer"),
        ({"trials": True}, "trials must be an integer"),
        ({"seed": None}, "seed must be an integer"),
        ({"alpha": 3.0}, "alpha must be an integer"),
        ({"weights": (0, "7")}, "weights must be integers"),
    ):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


def test_trials_deterministic():
    cfg = small_config()
    a = run_trials(cfg)
    b = run_trials(cfg)
    assert a == b


def test_trials_thread_invariant():
    cfg = small_config(trials=4)
    assert run_trials(cfg, threads=1) == run_trials(cfg, threads=4)


def test_low_weight_always_succeeds():
    tau0 = wb_radius(16, 4)
    cfg = small_config(weights=(0, tau0), trials=4)
    for rec in run_trials(cfg):
        for method in cfg.methods:
            assert rec.outcome(method) == "success"
        assert rec.agreement


def test_records_ordered_by_weight_then_trial():
    cfg = small_config(weights=(7, 0), trials=2)
    recs = run_trials(cfg)
    assert [(r.weight, r.trial) for r in recs] == [(7, 0), (7, 1), (0, 0), (0, 1)]


def test_csv_shape_and_determinism():
    cfg = small_config()
    out1 = run_montecarlo(cfg)
    out2 = run_montecarlo(cfg, threads=8)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "weight,method,trials,successes,failures,miscorrections,agreement_rate"
    assert len(lines) == 1 + len(cfg.weights) * len(cfg.methods)
    for line in lines[1:]:
        weight, method, trials, succ, fail, mis, rate = line.split(",")
        assert int(trials) == cfg.trials
        assert int(succ) + int(fail) + int(mis) == cfg.trials


def test_half_distance_weight_separates_decoders():
    # weight beyond half distance: the classical decoder must fail while the
    # interleaved pair should succeed on most draws
    cfg = small_config(weights=(7,), trials=6)
    recs = run_trials(cfg)
    wb_successes = sum(1 for r in recs if r.outcome("wb") == "success")
    virs_successes = sum(1 for r in recs if r.outcome("virs") == "success")
    assert wb_successes == 0
    assert virs_successes >= 4
    for r in recs:
        assert r.outcome("virs") == r.outcome("mgs")
        assert r.agreement


@pytest.mark.parametrize("methods", [("wb",), ("virs",), ("mgs",), ("wb", "virs", "mgs")])
def test_nullspace_dim_matches_decoder_kernel_dim(methods):
    # run_trial recomputes the dimension; every decoder reports its own
    # kernel's, and A = Bbar D makes the virs kernel as large as the mgs one
    cfg = small_config(weights=(0, 5, 8), trials=2, methods=methods)
    spec = cfg.code_spec()
    for rec in run_trials(cfg):
        stream = Stream(derive_seed(cfg.seed, rec.weight, rec.trial))
        f = UniPoly.from_ints(spec.field, [stream.below(cfg.q) for _ in range(cfg.k)])
        r = corrupt(encode(spec, f), random_error(spec, rec.weight, stream.next64()))
        if methods == ("wb",):
            dims = {wb_decode(spec, r).kernel_dim}
        else:
            dims = {virs_decode(spec, r, cfg.s).kernel_dim, mgs_decode(spec, r, cfg.s).kernel_dim}
        assert dims == {rec.nullspace_dim}
