"""Self-tests of the benchmark: contract, determinism across thread counts,
and the traced run's accounting.

Run from the root of the checkout:  python3 -m pytest -q perfbench/tests
They start real CLI processes (a few seconds each, about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = run.workload_names()
SEED = 11


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_json_matches_the_workloads_and_the_tracer():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for name in WORKLOADS:
        w = run.load_workload(name)
        assert w["why"] and w["nominal_path_steps"] > 0 and w["config"]["command"] in run.CHECKS
    layer_map = json.load(open(os.path.join(BENCH, "layers.json")))
    assert set(layer_map["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_map["bypass"]) <= set(WORKLOADS)
    reported = set(tracer.Tracer().report()) | {"trace_overhead"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


def test_time_metrics_are_scaled_to_the_reference_host_speed():
    # Measured on a host running at half the reference speed.
    sample = {"run_s": 4.0, "cpu_s": 3.0, "setup_s": 1.0, "path_steps_per_s": 100.0,
              "peak_rss_mb": 50.0, "host_factor": 2.0}
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(hostspeed.POWER) == set(names) - {"peak_rss_mb"}
    assert {k: hostspeed.scaled(sample, k) for k in names} == {
        "run_s": 2.0, "cpu_s": 1.5, "setup_s": 0.5, "path_steps_per_s": 200.0, "peak_rss_mb": 50.0,
    }
    assert 0.0 < hostspeed.kernel_s() < 30 * hostspeed.REFERENCE_S


def test_disagreeing_artifacts_count_as_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))

    def sample(digest):
        return {"hashes": {"results.json": digest}, "checks": {"exit_code_0": True}}

    first = [sample("a"), sample("a")]
    assert run.check_hashes(first, ["code", "w", "1"]) == {"results.json": "a"}
    assert all(s["checks"]["artifacts_repeat"] for s in first)
    later = [sample("a"), sample("b")]
    run.check_hashes(later, ["code", "w", "1"])
    assert [s["checks"]["artifacts_repeat"] for s in later] == [True, False]
    other_seed = [sample("b")]
    run.check_hashes(other_seed, ["code", "w", "2"])
    assert other_seed[0]["checks"]["artifacts_repeat"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: untraced at 1 and 2 threads, and two traced runs."""
    os.chdir(ROOT)
    out = {}
    for name in WORKLOADS:
        work = str(tmp_path_factory.mktemp(name))
        w = run.load_workload(name)
        out[name] = {
            "one": run.run_child(work, w, SEED),
            "two": run.run_child(work, w, SEED, threads=2),
            "traced": [run.run_child(work, w, SEED, trace=True) for _ in range(2)],
        }
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_results_identical_across_thread_counts_and_tracing(runs, name):
    r = runs[name]
    for s in [r["one"], r["two"]] + r["traced"]:
        assert all(s["checks"].values()), s["checks"]
    assert r["one"]["hashes"] == r["two"]["hashes"]
    for s in r["traced"]:
        assert s["hashes"] == r["one"]["hashes"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(runs, name):
    r = runs[name]
    a, b = (s["layers"] for s in r["traced"])
    assert {k: v for k, v in a.items() if not k.endswith("_s")} == {
        k: v for k, v in b.items() if not k.endswith("_s")
    }
    untraced_s = r["one"]["run_s"]
    for s in r["traced"]:
        self_sum = sum(s["layer_self_s"].values())
        main_s = s["main_exit_s"] - s["main_entry_s"]
        assert self_sum == pytest.approx(main_s, rel=1e-3, abs=1e-3)
        # After main starts, no layer covers only the stamp write and the exit.
        unattributed = s["run_s"] - s["main_entry_s"] - self_sum
        allowance = max(s["run_s"] - untraced_s, 0.05 * s["run_s"])
        assert 0.0 <= unattributed <= allowance


def test_traced_counts_describe_each_workload(runs):
    layers = {name: runs[name]["traced"][0]["layers"] for name in WORKLOADS}
    h = layers["harnack-scan"]
    assert h["harnack.cache_hit_ratio"] == 0.0
    assert h["simulate.simulate_bundle.calls"] == 90 == h["harnack.estimator_calls"]
    assert h["feynman_kac.estimate.calls"] == 90
    assert 0.0 < h["geometry.exit_fraction"] < 1.0
    assert h["operators.lattice_eval.calls"] == 0 == h["sde.theta_batch.calls"]

    g = layers["girsanov-1d"]
    assert g["sde.theta_batch.calls"] > 0 and g["operators.lattice_eval.calls"] > 0
    assert g["geometry.exit_fraction"] == 0.0
    assert 0.0 < g["operators.lattice_outside_ratio"] < 1.0

    o = layers["oracle-exact"]
    assert o["operators.drift_identity.calls"] == 0 == o["sde.theta_batch.calls"]
    assert o["oracle.besq_transition_mass.self_s"] > 0.0

    # Nominal path-steps were fixed from these counts; a later change may only
    # do fewer steps for the same answer.
    for name in WORKLOADS:
        nominal = run.load_workload(name)["nominal_path_steps"]
        assert 0 < layers[name]["simulate.path_steps"] <= nominal
