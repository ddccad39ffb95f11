"""Benchmark of revival_lab: three seeded, closed-loop, single-client
workloads, timed end to end and, in a separate traced run, per layer.

    python3 bench/run.py --workload atlas-sweep --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1

Every process has the BLAS/OpenMP pool pinned to one thread. An untraced
run starts REPEATS fresh processes one after another that each set up, warm
up with one untimed pass and then serve the same whole passes of requests,
round(SECONDS / REPEATS / PASS_SECONDS) of them, PASS_SECONDS being a
workload's request time per pass on the reference machine. A request's
latency is the median of its REPEATS timings, taken seconds apart, so that
a slowdown of the shared machine that hits one of them does not count.
SETUP_PROBES more processes only set up. A traced run is one process. The
last line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1). See
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from harness import percentile, tail_level

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("atlas-sweep", "dense-generic", "stellar-family")
# Processes that serve the same requests in an untraced run.
REPEATS = 3
# Processes that only set up, half of them before the measuring ones and
# half after them, so that the median of all set-ups spans the run.
SETUP_PROBES = 6
# A run is stopped after RUN_MARGIN_S + RUN_PER_SECOND * --seconds: the
# margin covers the set-up probes, the warm-up passes and the referee.
RUN_MARGIN_S = 60.0
RUN_PER_SECOND = 4.0

END_TO_END = {"setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# Printed with the others but not a BENCHMARK.json metric: it is 0 whenever
# the program is right; the JSON line carries failures as "failed".
FAILED_FRAC = ("failed_frac", "fraction")


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["BENCH_SPAWN_T"] = repr(time.time())
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    deadline = time.time() + RUN_MARGIN_S + RUN_PER_SECOND * seconds
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    if trace:
        result = _worker(common + ["--seconds", str(seconds), "--trace", "1"],
                         deadline)
        result["correct"] = result["failed"] == 0 and result["warmup_failed"] == 0
        return result

    def probes(count: int) -> list[float]:
        return [_worker(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    before = probes(SETUP_PROBES // 2)
    share = ["--seconds", str(seconds / REPEATS), "--trace", "0"]
    runs = [_worker(common + share, deadline) for _ in range(REPEATS)]
    after = probes(SETUP_PROBES - SETUP_PROBES // 2)
    return combine(runs, before + [r["setup_s"] for r in runs] + after)


def combine(runs: list[dict], setup_samples: list[float]) -> dict:
    """One result from the processes that served the same requests."""
    first = runs[0]
    if any(len(r["latencies"]) != len(first["latencies"]) for r in runs):
        raise WorkerFailed("the repeats served different numbers of requests")
    # Each request's median timing, so that one repeat slowed by the machine
    # does not set it.
    latencies = [median(ts) for ts in zip(*(r["latencies"] for r in runs))]
    tail_pct, beyond = tail_level(len(latencies))
    return {
        "workload": first["workload"], "seed": first["seed"],
        "smoke": first["smoke"], "machine": first["machine"],
        "verdicts_per_pass": first["verdicts_per_pass"],
        **({"expected_verdicts_per_pass": first["expected_verdicts_per_pass"]}
           if "expected_verdicts_per_pass" in first else {}),
        "repeats": len(runs), "passes": first["passes"],
        "samples": len(latencies), "timed_s": sum(r["timed_s"] for r in runs),
        "setup_samples": setup_samples, "setup_s": median(setup_samples),
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_tail_ms": 1e3 * percentile(latencies, tail_pct),
        "tail_percentile": tail_pct, "tail_beyond": beyond,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failed_frac": (sum(r["failed"] for r in runs)
                        / sum(r["attempted"] for r in runs)),
        "problems": [p for r in runs for p in r["problems"]],
        "correct": all(r["failed"] == 0 and r["warmup_failed"] == 0 for r in runs),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(r: dict, trace: bool) -> dict[str, dict]:
    """Print one workload's result; return its metrics for the JSON line."""
    print(f"workload {r['workload']}  seed {r['seed']}  passes {r['passes']}  "
          + (f"requests {r['samples']}, each served {r['repeats']} times  "
             if not trace else "")
          + f"timed {r['timed_s']:.2f} s"
          + ("  (smoke sizes)" if r["smoke"] else ""))
    if trace:
        metrics = r["per_layer"]
        for k, m in metrics.items():
            print(f"  {k:<40} {_fmt(m['value'])} {m['unit']}")
        print(f"  spans written to {r['trace_file']} ({r['spans']} spans)")
    else:
        metrics = {k: {"value": r[k], "unit": u} for k, u in END_TO_END.items()}
        samples = r["setup_samples"]
        notes = {"setup_s": f"median of {len(samples)} processes, "
                            f"{min(samples):.3f} to {max(samples):.3f} s",
                 "latency_tail_ms": f"p{r['tail_percentile']:g}; "
                                    f"{r['tail_beyond']} of {r['samples']} "
                                    f"requests beyond it"}
        for k, m in metrics.items():
            note = f"  ({notes[k]})" if k in notes else ""
            print(f"  {k:<16} {_fmt(m['value'])} {m['unit']}{note}")
    print(f"  {FAILED_FRAC[0]:<16} {_fmt(r['failed_frac'])} {FAILED_FRAC[1]}"
          f"  ({r['failed']} of {r['attempted']} failed)")
    print(f"  verdicts per pass: {json.dumps(r['verdicts_per_pass'])}")
    if "expected_verdicts_per_pass" in r:
        print(f"  expected per pass: {json.dumps(r['expected_verdicts_per_pass'])}")
    for problem in r["problems"][:10]:
        print(f"  FAILED {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="request time to measure on the reference "
                             "machine; sets the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "revival_lab" / "__init__.py").is_file():
        print(f"error: no revival_lab package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), args.smoke))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics: dict[str, dict] = {}
    for r in results:
        m = report(r, bool(args.trace))
        metrics.update(m if len(results) == 1
                       else {f"{r['workload']}.{k}": v for k, v in m.items()})
    print(f"machine: {json.dumps(results[0]['machine'])}")
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
