"""Benchmark of the rsdec decoders; see README.md beside this file.

    python3 perfbench/run.py --workload mc-rs16 --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it records the run environment and the sample count behind each
timing. Run it from the root of a source checkout: rsdec is imported
from `src/` there.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 5

# ROADMAP Baseline rows: (metric stem, q, n, k, s, weight, repetitions)
BASELINE_CASES = (
    ("baseline.rs16", 17, 16, 4, 2, 7, 21),
    ("baseline.rs64", 257, 64, 8, 2, 25, 5),
    ("baseline.rs128", 257, 128, 8, 3, 60, 1),
)
TINY_BASELINE_CASES = tuple((stem, 17, 16, 4, 2, 7, 1) for stem, *_ in BASELINE_CASES)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def percentiles_ms(values: list[float]) -> dict:
    """p50 with its sample count, plus each higher percentile that has at
    least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values) * 1e3}
    ordered = sorted(values)
    for p in (90, 99):
        beyond = len(values) * (100 - p) // 100
        if beyond >= 10:
            out[f"p{p}"] = ordered[len(values) - beyond - 1] * 1e3
    return out


class SetupTimer:
    """Times set-ups spread over the run, one before it and one after each
    operation or batch, so that a slow moment of the machine does not
    decide setup_s."""

    def __init__(self, workload, seed: int, tally):
        self.workload, self.seed, self.tally = workload, seed, tally
        self.times: list[float] = []
        self.inputs = self.tick()

    def tick(self):
        start = time.perf_counter()
        made = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - start)
        if self.times[1:]:
            self.tally.record("setup", made != self.inputs and "setup is not deterministic for a seed")
        return made


def end_to_end(workload, seed: int, seconds: float, tally, env: dict) -> dict:
    from workloads import class_median

    setup = SetupTimer(workload, seed, tally)
    samples = workload.measure(setup.inputs, seconds, tally, setup.tick)
    while len(setup.times) < MIN_SETUPS:
        setup.tick()
    words = samples.words
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "throughput_per_s": (samples.throughput, "1/s"),
        "throughput_per_s.1w": (samples.throughput_1w, "1/s"),
    }
    for method, values in samples.latency.items():
        metrics[f"latency_ms.p50.{method}"] = (class_median(values, samples.weights) * 1e3, "ms")
    for method, n in samples.decoded.items():
        metrics[f"decoded_frac.{method}"] = (n / words, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    env["samples"] = {
        "setup_s": len(setup.times),
        "throughput_per_s": samples.throughput_n,
        "throughput_per_s.1w": samples.throughput_n,
        "decoded_frac": words,
    }
    # the plain percentiles of the whole mixture, beside the metric above
    env["latency_ms"] = {m: percentiles_ms(v) for m, v in samples.latency.items()}
    return metrics


def baseline_rows(seed: int, tiny: bool, tally) -> dict:
    """The ROADMAP Baseline table, measured: median ms per decode."""
    from rsdec.code import CodeSpec
    from rsdec.field import Field
    from rsdec.rng import Stream, derive_seed
    from workloads import Samples, decode_case, make_case

    metrics = {}
    for stem, q, n, k, s, w, reps in TINY_BASELINE_CASES if tiny else BASELINE_CASES:
        spec = CodeSpec(Field(q), n, k)
        case = make_case(spec, k, w, Stream(derive_seed(seed, n, w)))
        samples = Samples()
        for _ in range(reps):
            decode_case(case, spec, s, samples, tally)
        for method, values in samples.latency.items():
            metrics[f"{stem}.{method}_ms"] = (statistics.median(values) * 1e3, "ms")
    return metrics


def traced(workload, seed: int, seconds: float, tiny: bool, tally, env: dict) -> dict:
    """Alternate untraced and traced rounds of the same work for `seconds`."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_s = time.perf_counter() - start
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        start = time.perf_counter()
        workload.round(inputs, index, tally)
        untraced_s += time.perf_counter() - start
        with tracer:
            start = time.perf_counter()
            workload.round(inputs, index, tally)
            traced_s += time.perf_counter() - start
        index += 1
        if time.perf_counter() >= deadline:
            break
    # spans cover the traced set-up and the traced rounds
    wall_s = setup_s + traced_s
    metrics = layer_metrics(tracer, wall_s)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.coverage_frac"] = (tracer.root_ns / 1e9 / wall_s, "ratio")
    metrics["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    metrics.update(baseline_rows(seed, tiny, tally))
    env["samples"] = {
        "traced_rounds": index,
        "untraced_rounds": index,
        "baseline": {stem: reps for stem, *_, reps in (TINY_BASELINE_CASES if tiny else BASELINE_CASES)},
    }
    env["traced_s"] = {"setup": setup_s, "rounds": traced_s, "untraced_rounds": untraced_s}
    env["absent_spans"] = sorted(tracer.absent)
    env["factor_errors"] = tracer.stats["bivariate.extract_power_factor"].errors
    dims = Counter(tracer.stats["linalg.nullspace"].kernel_dims)
    dims.update(tracer.stats["montecarlo.dimcheck.nullspace"].kernel_dims)
    env["kernel_dims"] = {str(d): dims[d] for d in sorted(dims)}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rsdec" / "__init__.py").is_file():
        print(f"error: no rsdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Tally, worker_count

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    tally = Tally()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": worker_count(),
        "commit": git_commit(),
    }
    if args.trace:
        metrics = traced(workload, args.seed, args.seconds, args.tiny, tally, env)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally, env)

    failed_frac = tally.failed / max(tally.attempted, 1)
    env["failed_frac"] = failed_frac
    if tally.failed:
        print(f"FAILED: {tally.failed} of {tally.attempted} operations raised or broke an "
              f"invariant (failed_frac {failed_frac:.6f})", file=sys.stderr)
        for problem in tally.problems[:50]:
            print(f"FAILED:   {problem}", file=sys.stderr)
        env["problems"] = tally.problems[:50]
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} if value is not None
            else {"value": None, "unit": unit, "absent": True}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
