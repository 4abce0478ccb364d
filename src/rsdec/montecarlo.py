"""Seeded Monte-Carlo decoding experiments with CSV output.

Every trial is a pure function of (seed, weight, trial index), so runs
are reproducible byte for byte no matter how many worker threads
execute them or in which order they finish.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from .code import CodeSpec, Word, corrupt, encode, random_error
from .field import Field
from .linalg import nullspace
from .mgs import build_Bbar, mgs_decode
from .outcome import DecodeOutcome
from .poly import UniPoly
from .rng import Stream, derive_seed
from .virs import feasible, virs_decode, virs_radius
from .wb import wb_build, wb_decode

METHODS = ("wb", "virs", "mgs")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    n: int
    k: int
    s: int
    weights: tuple[int, ...]
    trials: int
    seed: int
    methods: tuple[str, ...] = METHODS
    alpha: int | None = None

    def __post_init__(self):
        for key in ("q", "n", "k", "s", "trials", "seed", "alpha"):
            value = getattr(self, key)
            if not _is_int(value) and not (key == "alpha" and value is None):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("weights", "methods"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods in {list(self.methods)}")
        spec = self.code_spec()
        for w in self.weights:
            if not _is_int(w):
                raise ValueError(f"weights must be integers, got {w!r}")
            if not (0 <= w <= self.n):
                raise ValueError(f"weight {w} out of range [0, {self.n}]")
        if len(set(self.weights)) != len(self.weights):
            raise ValueError(f"duplicate weights in {list(self.weights)}")
        if ("virs" in self.methods or "mgs" in self.methods) and not feasible(
            self.n, self.k, self.s
        ):
            raise ValueError(f"order {self.s} infeasible for (n, k) = ({self.n}, {self.k})")
        if "mgs" in self.methods and self.s % spec.field.q == 0:
            raise ValueError("field characteristic divides the interpolation order")

    def code_spec(self) -> CodeSpec:
        return CodeSpec(Field(self.q, self.alpha), self.n, self.k)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {"q", "n", "k", "s", "weights", "trials", "seed", "methods", "alpha"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("q", "n", "k", "s", "weights", "trials", "seed"):
            if key not in raw:
                raise ValueError(f"config missing key {key!r}")
        return cls(
            q=raw["q"],
            n=raw["n"],
            k=raw["k"],
            s=raw["s"],
            weights=raw["weights"],
            trials=raw["trials"],
            seed=raw["seed"],
            methods=raw.get("methods", METHODS),
            alpha=raw.get("alpha"),
        )


@dataclass(frozen=True)
class TrialRecord:
    weight: int
    trial: int
    outcomes: tuple[tuple[str, str], ...]
    agreement: bool | None
    nullspace_dim: int

    def outcome(self, method: str) -> str:
        for m, o in self.outcomes:
            if m == method:
                return o
        raise KeyError(method)


def _classify(outcome: DecodeOutcome, sent: Word) -> str:
    if not outcome.success:
        return "failure"
    return "success" if outcome.corrected == sent else "miscorrection"


def _same_answer(a: DecodeOutcome, b: DecodeOutcome) -> bool:
    if a.success != b.success:
        return False
    if not a.success:
        return True
    return a.f == b.f and a.locator == b.locator


def run_trial(cfg: ExperimentConfig, spec: CodeSpec, weight: int, trial: int) -> TrialRecord:
    stream = Stream(derive_seed(cfg.seed, weight, trial))
    f = UniPoly.from_ints(spec.field, [stream.below(cfg.q) for _ in range(cfg.k)])
    e = random_error(spec, weight, stream.next64())
    sent = encode(spec, f)
    r = corrupt(sent, e)
    decoded: dict[str, DecodeOutcome] = {}
    for method in cfg.methods:
        if method == "wb":
            decoded[method] = wb_decode(spec, r)
        elif method == "virs":
            decoded[method] = virs_decode(spec, r, cfg.s)
        else:
            decoded[method] = mgs_decode(spec, r, cfg.s)
    agreement = None
    if "virs" in decoded and "mgs" in decoded:
        agreement = _same_answer(decoded["virs"], decoded["mgs"])
    if "virs" in cfg.methods or "mgs" in cfg.methods:
        tau = virs_radius(cfg.n, cfg.k, cfg.s)
        dim = len(nullspace(build_Bbar(spec, r, cfg.s, tau).matrix))
    else:
        dim = len(nullspace(wb_build(spec, r)))
    return TrialRecord(
        weight=weight,
        trial=trial,
        outcomes=tuple((m, _classify(decoded[m], sent)) for m in cfg.methods),
        agreement=agreement,
        nullspace_dim=dim,
    )


def run_trials(cfg: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """All trial records, ordered by (weight, trial) regardless of scheduling."""
    spec = cfg.code_spec()
    jobs = [(w, t) for w in cfg.weights for t in range(cfg.trials)]
    if threads <= 1:
        records = [run_trial(cfg, spec, w, t) for w, t in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda job: run_trial(cfg, spec, *job), jobs))
    return sorted(records, key=lambda rec: (cfg.weights.index(rec.weight), rec.trial))


def run_montecarlo(cfg: ExperimentConfig, threads: int = 1) -> str:
    """CSV with one row per (weight, method), fully determined by the seed."""
    records = run_trials(cfg, threads)
    lines = ["weight,method,trials,successes,failures,miscorrections,agreement_rate"]
    for w in cfg.weights:
        batch = [rec for rec in records if rec.weight == w]
        flags = [rec.agreement for rec in batch if rec.agreement is not None]
        rate = f"{sum(flags) / len(flags):.4f}" if flags else ""
        for method in cfg.methods:
            outcomes = [rec.outcome(method) for rec in batch]
            lines.append(
                f"{w},{method},{len(batch)},{outcomes.count('success')},"
                f"{outcomes.count('failure')},{outcomes.count('miscorrection')},{rate}"
            )
    return "\n".join(lines) + "\n"
