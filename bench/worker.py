"""One workload run in one fresh process: set up, warm up, measure, check.

Started by run.py with the BLAS/OpenMP pool pinned to one thread and
BENCH_SPAWN_T set to the wall-clock time just before the process was
spawned, so that ``setup_s`` covers interpreter start-up and the import of
the package and its CLI module. Prints one JSON object on its last line.
"""

import time

_T_ENTRY = time.time()
import revival_lab.cli  # noqa: E402  (first import: its cost belongs to setup_s)

_T_IMPORTED = time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import atlas_sweep  # noqa: E402
import dense_generic  # noqa: E402
import stellar_family  # noqa: E402
from harness import Layers, Tally, Tracer, layer_metrics, serve  # noqa: E402

WORKLOADS = {"atlas-sweep": atlas_sweep, "dense-generic": dense_generic,
             "stellar-family": stellar_family}
TRACE_DIR = Path(__file__).resolve().parent.parent / ".bench_trace"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "caches": caches}


def pass_count(wl, seconds: float) -> int:
    """Whole passes that take about ``seconds`` of request time on the
    reference machine. The count, not a clock, ends a run, so every commit
    serves the same inputs."""
    return max(1, round(seconds / wl.PASS_SECONDS))


def _passes(wl, seed: int, smoke: bool, L: Layers, tally: Tally,
            verdicts: Counter, first_inputs, passes: range) -> None:
    for p in passes:
        if p == 0:
            inputs = first_inputs
        else:
            if L.tracer is not None:
                L.tracer.parent = f"build.pass{p}"
            inputs = wl.build(L, wl.generate(seed, p, smoke))
        requests = wl.requests(inputs, verdicts)
        # Collect the last pass's garbage here, not inside a timed request,
        # and keep this pass's request objects out of the collector's scans.
        gc.collect()
        gc.freeze()
        try:
            serve(requests, L, tally, f"pass{p}")
        finally:
            gc.unfreeze()
        del requests, inputs
        tally.passes += 1


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        spawn_t: float | None = None, setup_only: bool = False,
        layers: Layers | None = None) -> dict:
    """Run one workload and return its measurements.

    ``layers`` lets a test substitute fake package functions.
    """
    wl = WORKLOADS[name]
    tracer = Tracer() if trace and layers is None else None
    L = layers or Layers(revival_lab, tracer)
    plain = layers or Layers(revival_lab)

    raw = wl.generate(seed, 0, smoke)
    start = time.perf_counter()
    inputs = wl.build(L, raw)
    build_s = time.perf_counter() - start
    setup_s = (_T_IMPORTED - (spawn_t or _T_ENTRY)) + build_s
    if setup_only:
        return {"setup_s": setup_s}

    # Untimed warm-up: one pass of other inputs (pass -1, shorter than a
    # timed one), so that lazy set-up and the allocator's handling of large
    # arrays settle before timing.
    warm = Tally()
    serve(wl.requests(wl.build(plain, wl.generate(seed, -1, smoke)), Counter()),
          plain, warm, "warmup")

    tally, verdicts = Tally(), Counter()
    result = {"workload": name, "seed": seed, "smoke": smoke, "setup_s": setup_s}
    passes = pass_count(wl, seconds)
    if tracer is None:
        _passes(wl, seed, smoke, L, tally, verdicts, inputs, range(passes))
    else:
        # Untraced passes, the base of trace.overhead_frac, alternate with
        # traced ones of the same shape, so that the machine's drift during
        # the run falls on both alike.
        base, end = Tally(), max(2, passes)
        for p in range(end):
            traced = p % 2 == 1
            _passes(wl, seed, smoke, L if traced else plain,
                    tally if traced else base, verdicts if traced else Counter(),
                    inputs, range(p, p + 1))
        # One more pass with tracemalloc around the spectral calls, apart
        # from the timed spans that it would slow down.
        memory, memory_tally = Tracer(measure_alloc=True), Tally()
        _passes(wl, seed, smoke, Layers(revival_lab, memory), memory_tally,
                Counter(), None, range(end, end + 1))
        tracer.alloc_peak = memory.alloc_peak
        result["per_layer"] = layer_metrics(
            tracer, (tally.timed_s / tally.passes) / (base.timed_s / base.passes) - 1)
        trace_file = TRACE_DIR / f"{name}-seed{seed}.jsonl.gz"
        tracer.dump(trace_file)
        result["trace_file"] = str(trace_file.relative_to(TRACE_DIR.parent))
        result["spans"] = len(tracer.spans)
        for other in (base, memory_tally):
            tally.failed += other.failed
            tally.attempted += other.attempted
            tally.problems += other.problems

    # The latencies go back in request order; run.py pairs each request with
    # its repeats in the run's other processes.
    result.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "warmup_failed": warm.failed, "problems": warm.problems + tally.problems,
        "passes": tally.passes, "timed_s": tally.timed_s,
        "latencies": tally.latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts_per_pass": {v: n / tally.passes
                              for v, n in sorted(verdicts.items())},
        "machine": machine(),
    })
    if name == "atlas-sweep" and not smoke:
        result["expected_verdicts_per_pass"] = atlas_sweep.expected_histogram()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spawn_t = float(os.environ["BENCH_SPAWN_T"]) if "BENCH_SPAWN_T" in os.environ else None
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke, spawn_t, args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
