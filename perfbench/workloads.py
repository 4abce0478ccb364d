"""The benchmark workloads: inputs, the measured loop and the correctness gate.

Every call into rsdec goes through a module attribute (`wb.wb_decode`,
not a name imported here), so the traced run sees it once spans.Tracer
has replaced that attribute.

Each workload has a real scale, which the benchmark runs, and a tiny
scale with the same code paths, which the smoke test runs.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import rsdec.code as code
import rsdec.equiv as equiv
import rsdec.mgs as mgs
import rsdec.montecarlo as montecarlo
import rsdec.virs as virs
import rsdec.wb as wb
from rsdec.field import Field
from rsdec.poly import UniPoly
from rsdec.rng import Stream, derive_seed

METHODS = ("wb", "virs", "mgs")


def worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Tally:
    """Operations attempted, and those that raised or broke an invariant."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, label: str, *broken) -> None:
        """Count one operation; `broken` holds a message per broken invariant."""
        self.attempted += 1
        broken = [b for b in broken if b]
        if broken:
            self.problems.append(f"{label}: {'; '.join(broken)}")


@dataclass(frozen=True)
class Case:
    weight: int
    sent: code.Word
    received: code.Word


def make_case(spec, k: int, weight: int, stream: Stream) -> Case:
    """A seeded message and error, drawn the way montecarlo.run_trial draws them."""
    f = UniPoly.from_ints(spec.field, [stream.below(spec.field.q) for _ in range(k)])
    e = code.random_error(spec, weight, stream.next64())
    sent = code.encode(spec, f)
    return Case(weight, sent, code.corrupt(sent, e))


def _distance(a: code.Word, b: code.Word) -> int:
    return sum(x != y for x, y in zip(a.to_ints(), b.to_ints()))


def _same_answer(a, b) -> bool:
    if a.success != b.success:
        return False
    return not a.success or (a.f == b.f and a.locator == b.locator)


def class_median(values: list[float], classes: list[int]) -> float:
    """The median within each class, averaged over the classes.

    Every workload decodes words of two or four error weights in equal
    numbers, and a decode's time depends on the weight. A plain median of
    such a mixture falls in the gap between the classes and jumps with the
    last few samples; this does not.
    """
    by_class: dict[int, list[float]] = {}
    for value, c in zip(values, classes):
        by_class.setdefault(c, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_class.values())


@dataclass
class Samples:
    """What one measured phase produced. Times are in seconds.

    `weights` holds the error weight of each decoded word, in the order
    of every `latency` list and of `op_times`.
    """

    throughput: float = 0.0
    throughput_1w: float = 0.0
    throughput_n: int = 0
    op_times: list[float] = field(default_factory=list)
    latency: dict[str, list[float]] = field(default_factory=lambda: {m: [] for m in METHODS})
    weights: list[int] = field(default_factory=list)
    decoded: dict[str, int] = field(default_factory=lambda: {m: 0 for m in METHODS})
    words: int = 0


def decode_case(case: Case, spec, s: int, samples: Samples, tally: Tally) -> dict[str, bool]:
    """Decode one word with every method, timing each call and gating its
    outcome; returns whether each method gave back the sent codeword."""
    tau0 = wb.wb_radius(spec.n, spec.k)
    tau = virs.virs_radius(spec.n, spec.k, s)
    outs = {}
    for method in METHODS:
        start = time.perf_counter()
        try:
            if method == "wb":
                out = wb.wb_decode(spec, case.received)
            elif method == "virs":
                out = virs.virs_decode(spec, case.received, s)
            else:
                out = mgs.mgs_decode(spec, case.received, s)
        except Exception as exc:  # a raise is a failed operation, not a crash
            out = exc
        samples.latency[method].append(time.perf_counter() - start)
        outs[method] = out
    samples.words += 1
    samples.weights.append(case.weight)
    result = {m: False for m in METHODS}
    for method, out in outs.items():
        label = f"{method} decode (w={case.weight})"
        if isinstance(out, Exception):
            tally.record(label, f"raised {out!r}")
            continue
        radius = tau0 if method == "wb" else tau
        decoded = result[method] = out.success and out.corrected == case.sent
        samples.decoded[method] += decoded
        other = outs["virs"] if method == "mgs" else None
        tally.record(
            label,
            out.success and _distance(out.corrected, case.received) > radius
            and "returned a codeword beyond the radius",
            method == "wb" and case.weight <= tau0 and not decoded
            and "wb failed or miscorrected within tau0",
            other is not None and not isinstance(other, Exception)
            and not _same_answer(other, out) and "virs and mgs disagree",
        )
    return result


# ---------------------------------------------------------------------------
# mc-rs16


@dataclass(frozen=True)
class McInputs:
    cfg: montecarlo.ExperimentConfig
    spec: code.CodeSpec
    cases: tuple[Case, ...]


class McRs16:
    """The ROADMAP reference sweep through run_montecarlo, as a closed batch."""

    name = "mc-rs16"

    def __init__(self, tiny: bool = False):
        self.trials = 2 if tiny else 100
        self.first_csv: str | None = None

    def setup(self, seed: int) -> McInputs:
        cfg = montecarlo.ExperimentConfig(
            q=17, n=16, k=4, s=2, weights=(5, 6, 7, 8), trials=self.trials, seed=seed
        )
        spec = cfg.code_spec()
        # the sweep's own words, decoded one call at a time for latency
        cases = tuple(
            make_case(spec, cfg.k, w, Stream(derive_seed(seed, w, t)))
            for w in cfg.weights
            for t in range(cfg.trials)
        )
        return McInputs(cfg, spec, cases)

    def batch(self, inp: McInputs, workers: int, tally: Tally) -> str | None:
        label = f"mc batch ({workers} workers)"
        try:
            csv = montecarlo.run_montecarlo(inp.cfg, workers)
        except Exception as exc:
            tally.record(label, f"raised {exc!r}")
            return None
        if self.first_csv is None:
            self.first_csv = csv
        tally.record(label, csv != self.first_csv
                     and "CSV differs from the first batch (1 vs nproc workers or run to run)")
        return csv

    def round(self, inp: McInputs, index: int, tally: Tally) -> None:
        self.batch(inp, 1, tally)

    def measure(self, inp: McInputs, seconds: float, tally: Tally, tick) -> Samples:
        samples = Samples()
        cfg = inp.cfg
        trials = len(cfg.weights) * cfg.trials
        nproc = worker_count()
        # the per-call latency pass is spread over the run in chunks, so
        # that one slow moment of the machine does not set the latencies
        chunk = -(-len(inp.cases) // 5)
        decoded = {}
        rates, rates_1w = [], []
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            for workers, batch_rates in ((nproc, rates), (1, rates_1w)):
                start = time.perf_counter()
                if self.batch(inp, workers, tally) is not None:
                    batch_rates.append(trials / (time.perf_counter() - start))
                tick()
            self._decode_chunk(inp, index, chunk, samples, decoded, tally)
            index += 1
            if time.perf_counter() >= deadline:
                break
        while len(decoded) < len(inp.cases):
            self._decode_chunk(inp, index, chunk, samples, decoded, tally)
            index += 1
        self._check_records(inp, decoded, tally)
        samples.throughput = statistics.median(rates) if rates else 0.0
        samples.throughput_1w = statistics.median(rates_1w) if rates_1w else 0.0
        samples.throughput_n = min(len(rates), len(rates_1w))
        samples.words = len(inp.cases)
        # decoded_frac is the CSV's own count, which the per-call decodes must match
        if self.first_csv is not None:
            samples.decoded = self._csv_successes(self.first_csv)
        return samples

    @staticmethod
    def _decode_chunk(inp: McInputs, index: int, chunk: int, samples: Samples, decoded: dict, tally: Tally) -> None:
        n = len(inp.cases)
        for j in range(index * chunk, (index + 1) * chunk):
            decoded[j % n] = decode_case(inp.cases[j % n], inp.spec, inp.cfg.s, samples, tally)

    @staticmethod
    def _csv_successes(csv: str) -> dict[str, int]:
        out = {m: 0 for m in METHODS}
        for line in csv.splitlines()[1:]:
            _, method, _, successes, *_ = line.split(",")
            out[method] += int(successes)
        return out

    def _check_records(self, inp: McInputs, decoded: dict, tally: Tally) -> None:
        cfg = inp.cfg
        tau0 = wb.wb_radius(cfg.n, cfg.k)
        try:
            records = montecarlo.run_trials(cfg, 1)
        except Exception as exc:
            tally.record("run_trials", f"raised {exc!r}")
            return
        for rec in records:
            tally.record(
                f"trial w={rec.weight} t={rec.trial}",
                rec.agreement is False and "virs and mgs disagree",
                rec.weight <= tau0 and rec.outcome("wb") != "success"
                and "wb failed or miscorrected within tau0",
            )
        if self.first_csv is not None:
            counted = self._csv_successes(self.first_csv)
            per_call = {m: sum(d[m] for d in decoded.values()) for m in METHODS}
            tally.record(
                "mc CSV against per-call decodes",
                counted != per_call
                and f"CSV successes {counted} != per-call decodes {per_call}",
            )


# ---------------------------------------------------------------------------
# decode-rs128 and equiv-rs64


@dataclass(frozen=True)
class WordInputs:
    spec: code.CodeSpec
    s: int
    tau: int
    cases: tuple[Case, ...]


class _WordLoop:
    """One caller in a closed loop over a seeded pool of words.

    The pool alternates two weights and is consumed in pairs, so every
    run sees both weights equally often. `step` handles one word and
    appends the time of its counted operation to `op_times`.
    """

    q: int
    n: int
    k: int
    s: int
    weights: tuple[int, int]
    pool = 64

    def setup(self, seed: int) -> WordInputs:
        spec = code.CodeSpec(Field(self.q), self.n, self.k)
        cases = tuple(
            make_case(spec, self.k, self.weights[i % 2], Stream(derive_seed(seed, i)))
            for i in range(self.pool)
        )
        return WordInputs(spec, self.s, virs.virs_radius(self.n, self.k, self.s), cases)

    def round(self, inp: WordInputs, index: int, tally: Tally,
              samples: Samples | None = None, tick=lambda: None) -> None:
        samples = samples if samples is not None else Samples()
        for j in (2 * index, 2 * index + 1):
            self.step(inp, inp.cases[j % len(inp.cases)], samples, tally)
            tick()

    def measure(self, inp: WordInputs, seconds: float, tally: Tally, tick) -> Samples:
        samples = Samples()
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            self.round(inp, index, tally, samples, tick)
            index += 1
            if time.perf_counter() >= deadline:
                break
        # a single caller: its rate per operation, and the one-worker
        # figure is the same measurement
        samples.throughput = samples.throughput_1w = 1 / class_median(samples.op_times, samples.weights)
        samples.throughput_n = len(samples.op_times)
        return samples


class DecodeRs128(_WordLoop):
    """RS(128,8)/GF(257), s=3: wb, virs and mgs on every word; elimination-bound."""

    name = "decode-rs128"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.q, self.n, self.k, self.s, self.weights, self.pool = 17, 16, 4, 2, (7, 6), 4
        else:
            # w = tau = 84 is beyond tau0; every other word sits at tau0 = 60,
            # where wb must decode
            self.q, self.n, self.k, self.s, self.weights = 257, 128, 8, 3, (84, 60)

    def step(self, inp: WordInputs, case: Case, samples: Samples, tally: Tally) -> None:
        decode_case(case, inp.spec, inp.s, samples, tally)
        samples.op_times.append(sum(samples.latency[m][-1] for m in METHODS))


class EquivRs64(_WordLoop):
    """RS(64,8)/GF(257), s=2: build A and Bbar and check A = Bbar D on every word.

    Every word is decoded too, after its check and timed apart from it,
    so the decode latencies are reported here as well.
    """

    name = "equiv-rs64"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.q, self.n, self.k, self.s, self.weights, self.pool = 17, 16, 4, 2, (3, 7), 4
        else:
            # kernel dimension 16 at w = 20, 1 at w = tau = 35
            self.q, self.n, self.k, self.s, self.weights = 257, 64, 8, 2, (20, 35)

    def step(self, inp: WordInputs, case: Case, samples: Samples, tally: Tally) -> None:
        start = time.perf_counter()
        try:
            A = virs.build_A(inp.spec, case.received, inp.s, inp.tau)
            system = mgs.build_Bbar(inp.spec, case.received, inp.s, inp.tau)
            D = equiv.scaling_map(inp.s, inp.spec.field)
            same = equiv.nullspace_equivalence(A, system.matrix, D, system.widths)
        except Exception as exc:
            same = exc
        samples.op_times.append(time.perf_counter() - start)
        label = f"equivalence check (w={case.weight})"
        if isinstance(same, Exception):
            tally.record(label, f"raised {same!r}")
        else:
            tally.record(label, same is not True and "equivalence check returned false")
        decode_case(case, inp.spec, inp.s, samples, tally)


WORKLOADS = {w.name: w for w in (McRs16, DecodeRs128, EquivRs64)}

