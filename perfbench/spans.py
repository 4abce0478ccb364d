"""Layer spans for the traced benchmark run, recorded from outside rsdec.

Every module of rsdec binds the functions it calls at import time
(`from .linalg import nullspace`), so a layer is traced by replacing
each such binding with a wrapper, one binding at a time, and putting
the original back afterwards. Nothing inside `src/` is changed.

A span's self time is its duration minus the durations of the spans
opened inside it. Summed over all spans, self time therefore equals the
time under the outermost spans, counted once, however deeply a layer
re-enters itself (`build_Mi` inside `build_A`) or another layer
(`nullspace` inside `nullspace_equivalence`).
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field


def _observe_nullspace(stats: "LayerStats", args, result) -> None:
    mat = args[0] if args else None
    if not hasattr(mat, "ncols") or not hasattr(result, "__len__"):
        return
    dim = len(result)
    # computed, not counted: the dense elimination touches every entry
    # once per pivot, and the rank is read off the returned basis
    stats.elim_ops += mat.nrows * mat.ncols * (mat.ncols - dim)
    stats.kernel_dims[dim] = stats.kernel_dims.get(dim, 0) + 1


def _observe_accept(stats: "LayerStats", args, result) -> None:
    stats.accepted += bool(result)


# (module, bound name, span name, observer). A span name may appear for
# several bindings; the dimcheck spans are the build and nullspace that
# montecarlo.run_trial calls itself to fill `nullspace_dim`.
BINDINGS = (
    ("rsdec.montecarlo", "run_montecarlo", "montecarlo.run_montecarlo", None),
    ("rsdec.montecarlo", "run_trial", "montecarlo.run_trial", None),
    ("rsdec.montecarlo", "nullspace", "montecarlo.dimcheck.nullspace", _observe_nullspace),
    ("rsdec.montecarlo", "build_Bbar", "montecarlo.dimcheck.build", None),
    ("rsdec.montecarlo", "wb_build", "montecarlo.dimcheck.build", None),
    ("rsdec.montecarlo", "encode", "code.encode", None),
    ("rsdec.montecarlo", "random_error", "code.random_error", None),
    ("rsdec.montecarlo", "wb_decode", "wb.decode", None),
    ("rsdec.montecarlo", "virs_decode", "virs.decode", None),
    ("rsdec.montecarlo", "mgs_decode", "mgs.decode", None),
    ("rsdec.wb", "wb_decode", "wb.decode", None),
    ("rsdec.wb", "wb_build", "wb.build", None),
    ("rsdec.wb", "nullspace", "linalg.nullspace", _observe_nullspace),
    ("rsdec.wb", "poly_divrem", "poly.divrem", None),
    ("rsdec.wb", "conclude", "outcome.conclude", _observe_accept),
    ("rsdec.virs", "virs_decode", "virs.decode", None),
    ("rsdec.virs", "build_A", "virs.build", None),
    ("rsdec.virs", "build_Mi", "virs.build", None),
    ("rsdec.virs", "nullspace", "linalg.nullspace", _observe_nullspace),
    ("rsdec.virs", "poly_divrem", "poly.divrem", None),
    ("rsdec.virs", "conclude", "outcome.conclude", _observe_accept),
    ("rsdec.mgs", "mgs_decode", "mgs.decode", None),
    ("rsdec.mgs", "build_Bbar", "mgs.build", None),
    ("rsdec.mgs", "nullspace", "linalg.nullspace", _observe_nullspace),
    ("rsdec.mgs", "extract_power_factor", "bivariate.extract_power_factor", None),
    ("rsdec.mgs", "conclude", "outcome.conclude", _observe_accept),
    ("rsdec.bivariate", "poly_divrem", "poly.divrem", None),
    ("rsdec.outcome", "encode", "code.encode", None),
    ("rsdec.code", "encode", "code.encode", None),
    ("rsdec.code", "random_error", "code.random_error", None),
    ("rsdec.equiv", "nullspace_equivalence", "equiv.nullspace_equivalence", None),
    ("rsdec.equiv", "nullspace", "linalg.nullspace", _observe_nullspace),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    accepted: int = 0
    elim_ops: int = 0
    errors: dict = field(default_factory=dict)
    kernel_dims: dict = field(default_factory=dict)


class Tracer:
    """Wraps the bindings while installed; statistics persist across installs.

    Spans of the same span name are merged into one LayerStats. A span
    name none of whose bindings exists any more is listed in `absent`.
    """

    def __init__(self, bindings=BINDINGS):
        self.stats: dict[str, LayerStats] = {}
        self.root_ns = 0
        self._local = threading.local()
        self._targets = []
        found = set()
        names = set()
        for module_name, attr, span, observe in bindings:
            names.add(span)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            found.add(span)
            stats = self.stats.setdefault(span, LayerStats())
            wrapper = self._wrap(original, stats, observe)
            self._targets.append((module, attr, original, wrapper))
        self.absent = names - found
        for span in self.absent:
            self.stats[span] = LayerStats()

    def _wrap(self, fn, stats: LayerStats, observe):
        local = self._local
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            child = [0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                reason = getattr(exc, "reason", type(exc).__name__)
                stats.errors[reason] = stats.errors.get(reason, 0) + 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_ns += duration - child[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_ns += duration
            if observe is not None:
                observe(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def self_s(self, *spans: str) -> float:
        return sum(self.stats[s].self_ns for s in spans) / 1e9

    def calls(self, *spans: str) -> int:
        return sum(self.stats[s].calls for s in spans)


KERNEL_DIM_BUCKETS = (("0", 0, 0), ("1", 1, 1), ("2", 2, 2), ("3", 3, 3), ("4-15", 4, 15), ("16-up", 16, None))
FACTOR_ERROR_REASONS = ("shape", "division", "degree", "expansion")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[object, str]]:
    """Per-layer metrics as name -> (value, unit); value is None when absent.

    `wall_s` is the traced wall time the spans were recorded in; shares
    are taken of it. A ratio whose base is 0 reads 0.
    """
    st = tracer.stats
    nullspaces = ("linalg.nullspace", "montecarlo.dimcheck.nullspace")
    dimcheck = ("montecarlo.dimcheck.nullspace", "montecarlo.dimcheck.build")
    out: dict[str, tuple[object, str]] = {}

    def put(name, spans, value, unit):
        present = any(s not in tracer.absent for s in spans)
        out[name] = (value() if present else None, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def elim_ops():
        return sum(st[s].elim_ops for s in nullspaces)

    def kernel_dims(lo, hi):
        return sum(n for s in nullspaces for d, n in st[s].kernel_dims.items()
                   if lo <= d and (hi is None or d <= hi))

    put("linalg.nullspace.calls", nullspaces, lambda: tracer.calls(*nullspaces), "count")
    put("linalg.nullspace.self_s", nullspaces, lambda: tracer.self_s(*nullspaces), "s")
    put("linalg.nullspace.share", nullspaces, lambda: ratio(tracer.self_s(*nullspaces), wall_s), "ratio")
    put("linalg.nullspace.useful_frac", nullspaces,
        lambda: ratio(tracer.calls("linalg.nullspace"), tracer.calls(*nullspaces)), "ratio")
    put("linalg.elim_ops", nullspaces, elim_ops, "count")
    put("linalg.elim_ops_per_s", nullspaces, lambda: ratio(elim_ops(), tracer.self_s(*nullspaces)), "1/s")
    for label, lo, hi in KERNEL_DIM_BUCKETS:
        put(f"linalg.kernel_dim.{label}", nullspaces, lambda lo=lo, hi=hi: kernel_dims(lo, hi), "count")
    put("montecarlo.dimcheck.calls", dimcheck[:1], lambda: tracer.calls(dimcheck[0]), "count")
    put("montecarlo.dimcheck.self_s", dimcheck, lambda: tracer.self_s(*dimcheck), "s")
    for span in ("montecarlo.run_montecarlo", "montecarlo.run_trial",
                 "wb.build", "virs.build", "mgs.build", "wb.decode", "virs.decode", "mgs.decode",
                 "poly.divrem", "bivariate.extract_power_factor", "outcome.conclude",
                 "code.encode", "code.random_error", "equiv.nullspace_equivalence"):
        put(f"{span}.self_s", (span,), lambda span=span: tracer.self_s(span), "s")
    epf = "bivariate.extract_power_factor"
    put(f"{epf}.calls", (epf,), lambda: tracer.calls(epf), "count")
    for reason in FACTOR_ERROR_REASONS:
        put(f"bivariate.factor_error.{reason}", (epf,), lambda r=reason: st[epf].errors.get(r, 0), "count")
    con = "outcome.conclude"
    put(f"{con}.calls", (con,), lambda: tracer.calls(con), "count")
    put(f"{con}.accept_frac", (con,), lambda: ratio(st[con].accepted, st[con].calls), "ratio")
    return out
