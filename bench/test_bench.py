"""The benchmark's own tests: smoke-sized runs of every workload, the fault
path of the referee, and the agreement of BENCHMARK.json with the runner.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from harness import LAYERS, PER_LAYER  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(workload: str, trace: int) -> tuple[str, dict]:
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    out, doc = _smoke(workload, 0)
    for name, unit in [*run.END_TO_END.items(), run.FAILED_FRAC]:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         out, re.M), f"{name} [{unit}] not printed"
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in doc["metrics"].values())


USED = {"atlas-sweep": ("spectral.decompose", "revival.certify_fr",
                        "revival.verify_fr_at"),
        "dense-generic": ("spectral.decompose", "revival.certify_fr",
                          "revival.verify_fr_at", "states.support_graph",
                          "transfer.detect_subset_transfer"),
        "stellar-family": ("stellar.analyze", "spectral.stellar_decompose",
                           "revival.certify_fr", "transfer.polygamy_witness",
                           "exact.charpoly_int", "cli.main")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_the_layers_it_calls(workload):
    out, doc = _smoke(workload, 1)
    metrics = doc["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == PER_LAYER
    for fn in USED[workload]:
        assert metrics[f"{fn}.calls"]["value"] > 0, fn
        assert metrics[f"{fn}.busy_ms"]["value"] > 0, fn
    assert metrics["graphs.calls"]["value"] > 0
    assert metrics["unattributed_ms"]["value"] >= 0
    assert all(metrics[f"{layer}.errors"]["value"] == 0 for layer in LAYERS)


def _flipping(certify_fr, every: int):
    """certify_fr whose every ``every``-th verdict is wrong."""
    calls = {"n": 0}

    def fake(D, a, b):
        cert = certify_fr(D, a, b)
        calls["n"] += 1
        if calls["n"] % every:
            return cert
        wrong = "none" if cert.verdict != "none" else "improper-only"
        return dataclasses.replace(cert, verdict=wrong)
    return fake


def test_wrong_verdict_is_counted_and_the_run_goes_on():
    import revival_lab
    import worker
    from harness import Layers

    L = Layers(revival_lab)
    L.certify_fr = _flipping(L.certify_fr, every=5)
    result = worker.run("atlas-sweep", seed=1, seconds=0, trace=False,
                        smoke=True, layers=L)
    pairs = sum(n * (n - 1) // 2 for _, n, _ in
                worker.atlas_sweep._atlas(worker.atlas_sweep.SMOKE_MAX_N))
    assert result["attempted"] == pairs
    assert 0 < result["failed"] < result["attempted"]
    assert result["failed_frac"] == result["failed"] / result["attempted"]
    assert any("expected" in p for p in result["problems"])


def test_exception_in_a_request_is_counted():
    import revival_lab
    import worker
    from harness import Layers

    L = Layers(revival_lab)

    def broken(*args, **kwargs):
        raise ArithmeticError("injected")
    L.support_graph = broken
    result = worker.run("dense-generic", seed=1, seconds=0, trace=False,
                        smoke=True, layers=L)
    support = len(worker.dense_generic.SMOKE["support"])
    assert result["failed"] == support
    assert result["attempted"] > support


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "atlas-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_repeats_combine_per_request_with_a_pooled_tail():
    fast = [0.001] * 120
    slow = [0.001] * 60 + [0.005] * 60
    runs = [{"workload": "w", "seed": 1, "smoke": False, "machine": {},
             "verdicts_per_pass": {}, "passes": 1, "timed_s": sum(lat),
             "latencies": lat, "setup_s": 0.2, "peak_rss_mb": 50.0,
             "attempted": 120, "failed": 0, "warmup_failed": 0, "problems": []}
            for lat in (fast, slow, fast)]
    r = run.combine(runs, [0.2] * 3)
    # The one slow repeat of each request is outvoted by the other two.
    assert r["latency_p50_ms"] == r["latency_tail_ms"] == pytest.approx(1.0)
    assert r["requests_per_s"] == pytest.approx(1000.0)
    assert (r["tail_percentile"], r["tail_beyond"]) == (90.0, 12)
    assert r["attempted"] == 360 and r["correct"] is True
