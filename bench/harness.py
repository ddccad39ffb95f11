"""Shared machinery of the benchmark: layer access, tracing, the request
loop and the statistics it reports.

The benchmark reaches revival_lab only through a ``Layers`` object. Untraced,
its attributes are the package's own functions, so a timed request pays
nothing for the indirection. Traced, each attribute is wrapped so that the
call records a span (name, start, end, parent request) and the counts kept
at the same boundary. Nothing inside the package is instrumented.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

# Package module -> the public functions the benchmark calls in it.
PUBLIC = {
    "graphs": ("Graph.from_edges", "graph_from_json", "build_stellar"),
    "spectral": ("decompose", "stellar_decompose"),
    "revival": ("certify_fr", "verify_fr_at"),
    "states": ("subset_state", "support_graph"),
    "transfer": ("detect_subset_transfer", "polygamy_witness"),
    "stellar": ("analyze", "FamilyRecipe.from_parameters", "generate_family",
                "generate_polygamy_triple"),
    "exact": ("charpoly_int",),
    "cli": ("main",),
}
LAYERS = tuple(PUBLIC)
# Functions whose calls and busy time are per-layer metrics.
MEASURED = ("revival.certify_fr", "revival.verify_fr_at", "spectral.decompose",
            "spectral.stellar_decompose", "states.support_graph",
            "transfer.detect_subset_transfer", "transfer.polygamy_witness",
            "stellar.analyze", "exact.charpoly_int", "cli.main")
GENERATORS = ("stellar.FamilyRecipe.from_parameters", "stellar.generate_family",
              "stellar.generate_polygamy_triple")

# The oracle confirms a proper verdict when U(tau_min) leaks less than
# ORACLE_OFF_TOL off the {a, b} block and keeps more than ORACLE_CROSS_TOL
# on the cross entry.
ORACLE_OFF_TOL = 1e-7
ORACLE_CROSS_TOL = 1e-7

# A percentile is reported only where at least this many samples lie beyond.
# The ladder stops at p99: atlas-sweep's p99.9 (0.1 ms requests) measured
# the machine's interruptions, up to 2.3 ms in single runs, not the program.
TAIL_SAMPLES = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0)


def _resolve(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Layers:
    """The package's public functions, by short name (``L.certify_fr``)."""

    def __init__(self, package, tracer: "Tracer | None" = None):
        self.tracer = tracer
        for layer, names in PUBLIC.items():
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for dotted in names:
                fn = _resolve(module, dotted)
                short = dotted.rsplit(".", 1)[-1]
                if tracer is not None:
                    fn = tracer.wrap(f"{layer}.{dotted}", fn)
                setattr(self, short, fn)

    def count(self, name: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.counts[name] += n


def _on_certify(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["revival.certified"] += 1
    tr.counts["revival.proper"] += result.is_proper


def _on_decompose(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["spectral.decompositions"] += 1
    tr.counts["spectral.m_sum"] += result.m


def _on_analyze(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["stellar.proper"] += result.verdict == "proper-FR"


def _on_cli(tr: "Tracer", result, args, kwargs) -> None:
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    if out is not None:
        tr.counts["cli.bytes_out"] += len(out.getvalue().encode())


HOOKS = {
    "revival.certify_fr": _on_certify,
    "spectral.decompose": _on_decompose,
    "spectral.stellar_decompose": _on_decompose,
    "stellar.analyze": _on_analyze,
    "cli.main": _on_cli,
}


class Tracer:
    """Spans and counts recorded at the benchmark's layer call sites.

    Spans are kept in memory as (name, start, end, parent) and written out
    once, by ``dump``, when the run ends. ``parent`` is the id of the request
    the call served, "setup", or "build.<pass>" for inputs built later.

    With ``measure_alloc``, tracemalloc runs around each spectral call and
    ``alloc_peak`` keeps the largest peak. That slows those calls, so such a
    tracer serves a pass of its own.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[tuple[str, float, float, str]] = []
        self.requests: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.alloc_peak = 0
        self.parent = "setup"

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        spectral = self.measure_alloc and layer == "spectral"
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if spectral:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                if spectral:
                    self.alloc_peak = max(self.alloc_peak,
                                          tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                spans.append((name, start, end, self.parent))
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def oracle(L: Layers, D, a: int, b: int, t: float):
    """``verify_fr_at`` at a certified ``tau_min``, and whether it confirms
    proper revival there."""
    obs = L.verify_fr_at(D, a, b, t)
    confirmed = (obs.off_block_norm < ORACLE_OFF_TOL
                 and obs.cross_amplitude > ORACLE_CROSS_TOL)
    L.count("revival.oracle_checked")
    L.count("revival.oracle_confirmed", confirmed)
    return obs, confirmed


@dataclass
class Request:
    """One user question: ``run`` is timed, ``check`` is the referee.

    ``check`` receives the answer and returns a list of problems; an empty
    list means the answer was confirmed.
    """

    run: Callable[[Layers], object]
    check: Callable[[object], list[str]]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timed_s: float = 0.0
    passes: int = 0  # whole passes served

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def serve(requests: list[Request], L: Layers, tally: Tally,
          tag: str) -> None:
    """Run requests one after another (closed loop, one client).

    A request fails on an exception or on any problem its referee reports;
    a failure is counted and the loop goes on.
    """
    tracer, clock = L.tracer, time.perf_counter
    for i, req in enumerate(requests):
        rid = f"{tag}.{i}"
        if tracer is not None:
            tracer.parent = rid
        error = None
        start = clock()
        try:
            answer = req.run(L)
        except Exception as exc:  # a failing request is counted, not raised
            error = exc
        end = clock()
        if tracer is not None:
            tracer.requests.append((rid, start, end))
        tally.latencies.append(end - start)
        tally.timed_s += end - start
        tally.attempted += 1
        if error is not None:
            tally.fail(f"{rid}: {type(error).__name__}: {error}")
            continue
        try:
            problems = req.check(answer)
        except Exception as exc:
            problems = [f"referee raised {type(exc).__name__}: {exc}"]
        if problems:
            tally.fail(f"{rid}: {'; '.join(problems)}")


def _rank(n: int, p: float) -> int:
    """Index of the p-th percentile among n sorted samples."""
    return max(0, min(n - 1, math.ceil(p / 100 * n) - 1))


def tail_level(n: int) -> tuple[float, int]:
    """(percentile, samples beyond) for the highest ladder percentile that
    leaves at least TAIL_SAMPLES of n samples beyond it (p50 if none does)."""
    best = 50.0
    for p in PERCENTILE_LADDER:
        if n - _rank(n, p) - 1 >= TAIL_SAMPLES:
            best = p
    return best, n - _rank(n, best) - 1


def percentile(samples: list[float], p: float) -> float:
    xs = sorted(samples)
    return xs[_rank(len(xs), p)]


def tail(samples: list[float]) -> float:
    return percentile(samples, tail_level(len(samples))[0])


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, dict]:
    """Per-layer metrics of a traced run, as {name: {"value", "unit"}}.

    Layer figures come from the spans inside timed requests; the graphs
    layer also counts input building. ``overhead_frac`` is the traced
    request time per pass over the untraced one, minus 1.
    """
    in_requests = [s for s in tracer.spans if s[3].startswith("pass")]
    by_name: dict[str, list[float]] = {}
    for name, start, end, _ in in_requests:
        by_name.setdefault(name, []).append(end - start)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def busy_ms(name: str) -> float:
        return 1e3 * sum(by_name.get(name, ()))

    def p50(name: str) -> float:
        xs = by_name.get(name)
        return median(xs) if xs else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    c = tracer.counts
    for name in MEASURED:
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.busy_ms", busy_ms(name), "ms")
    put("revival.certify_fr.p50_us", 1e6 * p50("revival.certify_fr"), "us")
    put("revival.proper_ratio",
        ratio(c["revival.proper"], c["revival.certified"]), "ratio")
    put("revival.oracle_agree_ratio",
        ratio(c["revival.oracle_confirmed"], c["revival.oracle_checked"]), "ratio")
    put("spectral.decompose.p50_ms", 1e3 * p50("spectral.decompose"), "ms")
    put("spectral.m_mean",
        ratio(c["spectral.m_sum"], c["spectral.decompositions"]), "count")
    put("spectral.alloc_peak_mb", tracer.alloc_peak / 2**20, "MB")
    analyze = by_name.get("stellar.analyze", [])
    put("stellar.analyze.tail_ms", 1e3 * tail(analyze) if analyze else 0.0, "ms")
    put("stellar.generate.calls", sum(calls(g) for g in GENERATORS), "count")
    put("stellar.generate.busy_ms", sum(busy_ms(g) for g in GENERATORS), "ms")
    put("stellar.proper_ratio",
        ratio(c["stellar.proper"], calls("stellar.analyze")), "ratio")
    put("cli.bytes_out", c["cli.bytes_out"], "bytes")
    graph_spans = [s for s in tracer.spans if s[0].startswith("graphs.")]
    put("graphs.calls", len(graph_spans), "count")
    put("graphs.busy_ms", 1e3 * sum(e - s for _, s, e, _ in graph_spans), "ms")
    for layer in LAYERS:
        put(f"{layer}.errors", tracer.errors[layer], "count")
        put(f"{layer}.self_ms", 1e3 * sum(
            e - s for name, s, e, _ in in_requests
            if name.split(".", 1)[0] == layer), "ms")
    covered = sum(e - s for _, s, e, _ in in_requests)
    wall = sum(e - s for _, s, e in tracer.requests)
    put("unattributed_ms", 1e3 * (wall - covered), "ms")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return m


# Name -> unit of every per-layer metric, in the order they are reported.
PER_LAYER = {k: v["unit"] for k, v in layer_metrics(Tracer(), 0.0).items()}
