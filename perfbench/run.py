"""kimura-lab benchmark: CLI workloads timed end to end, and a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each sample is a fresh
``kimura_lab.cli.main`` process (``perfbench/child.py``) at ``--threads 1``
with BLAS/OpenMP pinned to one thread, run one after another, so the load
never uses more than one core.  Samples repeat until ``--seconds`` is used
up (at least ``MIN_SAMPLES``); every metric is the median over the samples.
Time metrics are scaled to the reference host speed, measured by the fixed
kernel of ``hostspeed.py`` before the first sample and after each one.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics,
including ``trace_overhead`` (traced over untraced ``run_s``).

Every sample's outputs are checked: the exit code, the workload's own
checks, and the sha256 of every file the CLI wrote (``results.json``, and
``harnack.csv`` on harnack-scan) against the first run of the same code,
workload and seed (kept in ``results/hashes.json``).
A sample with any failed check counts in ``failed``.  Each run writes its
samples, metrics and the machine description to ``perfbench/results/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = os.path.join(BENCH, "workloads")
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
# No sample starts after this many seconds, so a run ends well within 180 s.
LAST_START_S = 100.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no workload, ...)."""


# ---------------------------------------------------------------------------
# Workloads and their correctness checks
# ---------------------------------------------------------------------------


def check_girsanov(result, config):
    return {"within_3_stderr": result.get("within_3_stderr") is True}


def check_harnack(result, config):
    flags = [r.get("flag") for r in result.get("reports", [])]
    return {
        "three_reports": len(flags) == len(config["rho_fractions"]),
        "no_unbounded_report": "unbounded-at-this-resolution" not in flags,
    }


def check_oracle(result, config):
    return {
        "l1_pass": result.get("l1_pass") is True,
        "mean_within_3_stderr": result.get("mean_within_3_stderr") is True,
    }


CHECKS = {
    "girsanov": check_girsanov,
    "harnack": check_harnack,
    "oracle-compare": check_oracle,
}


def workload_names() -> list[str]:
    return sorted(f[:-5] for f in os.listdir(WORKLOADS) if f.endswith(".json"))


def load_workload(name: str) -> dict:
    path = os.path.join(WORKLOADS, f"{name}.json")
    if not os.path.isfile(path):
        raise SetupError(f"unknown workload {name!r}; known: {', '.join(workload_names())}")
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Running one sample
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KIMURA_LAB_THREADS"}
    env.update(PINNED_ENV, PYTHONPATH=os.path.abspath("src"))
    return env


def sha256_file(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_child(work: str, workload: dict, seed: int, threads: int = 1,
              trace: bool = False) -> dict:
    """Run the CLI once in a fresh process; return its timings and checks."""
    out_dir = os.path.join(work, "out")
    stamp_path = os.path.join(work, "stamp.json")
    config_path = os.path.join(work, "config.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(stamp_path):
        os.remove(stamp_path)
    with open(config_path, "w") as fh:
        json.dump(workload["config"], fh, sort_keys=True, indent=1)
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "--stamp", stamp_path]
    if trace:
        argv.append("--trace")
    argv += ["--", "--config", config_path, "--seed", str(seed),
             "--threads", str(threads), "--out", out_dir]
    env = child_env()
    with open(os.path.join(work, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    sample = {
        "trace": trace,
        "threads": threads,
        "exit_code": proc.returncode,
        "run_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "hashes": {
            name: sha256_file(os.path.join(out_dir, name))
            for name in (sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else [])
        },
    }
    checks = {"exit_code_0": proc.returncode == 0}
    stamps = {}
    try:
        with open(stamp_path) as fh:
            stamps = json.load(fh)
        with open(os.path.join(out_dir, "results.json")) as fh:
            result = json.load(fh)
        checks.update(CHECKS[workload["config"]["command"]](result, workload["config"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks["outputs_readable"] = False
        with open(os.path.join(work, "child.log"), "a") as log:
            log.write(f"bench: {type(exc).__name__}: {exc}\n")
    if stamps.get("first_simulate") is not None:
        sample["setup_s"] = stamps["first_simulate"] - t0
        sample["main_entry_s"] = stamps["main_entry"] - t0
        sample["main_exit_s"] = stamps["main_exit"] - t0
        sample["path_steps_per_s"] = workload["nominal_path_steps"] / (
            sample["run_s"] - sample["setup_s"]
        )
    else:
        checks["reached_simulate"] = False
    if trace:
        sample["layers"] = stamps.get("layers")
        sample["layer_self_s"] = stamps.get("layer_self_s")
    sample["checks"] = checks
    return sample


# ---------------------------------------------------------------------------
# Reproducibility registry and machine description
# ---------------------------------------------------------------------------


def code_sha(workload: dict) -> str:
    """Identity of the code under test: the package sources and the workload."""
    h = hashlib.sha256(json.dumps(workload, sort_keys=True).encode())
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_hashes(samples: list[dict], key: list[str]) -> dict:
    """Compare every sample's artifacts with the first run of the same key.

    Returns the reference hashes; marks each disagreeing sample as failed.
    """
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "hashes.json")
    registry = {}
    if os.path.exists(path):
        with open(path) as fh:
            registry = json.load(fh)
    node = registry
    for part in key[:-1]:
        node = node.setdefault(part, {})
    ok = [s for s in samples if s["checks"]["exit_code_0"]]
    if key[-1] not in node and ok:
        node[key[-1]] = ok[0]["hashes"]
    reference = node.get(key[-1])
    for s in samples:
        s["checks"]["artifacts_repeat"] = s["hashes"] == reference
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(registry, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return reference


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "pinned_env": PINNED_ENV,
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = load_workload(name)
    work = os.path.join(RESULTS, "work", name)
    os.makedirs(work, exist_ok=True)
    load_before = os.getloadavg()
    # The samples (children inherit the affinity) and the host-speed kernel
    # share one CPU: on a shared host the CPUs run at different speeds at the
    # same time, so a factor measured on one would not describe another.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    try:
        blocks = [hostspeed.block(1.0)]
        samples: list[dict] = []
        kinds = [False, True] if trace else [False]
        while True:
            kind = kinds[len(samples) % len(kinds)]
            done = [s for s in samples if s["trace"] == kind]
            elapsed = time.monotonic() - start
            if len(done) >= MIN_SAMPLES - (1 if trace else 0):
                expected = statistics.median(s["run_s"] + sum(s["kernel_s"]) for s in done)
                if elapsed + expected > seconds or elapsed > LAST_START_S:
                    break
            sample = run_child(work, workload, seed, trace=kind)
            blocks.append(hostspeed.block(sample["run_s"]))
            sample["kernel_s"] = blocks[-1]
            sample["host_factor"] = (
                statistics.mean(blocks[-2] + blocks[-1]) / hostspeed.REFERENCE_S
            )
            samples.append(sample)
    finally:
        os.sched_setaffinity(0, allowed)
    elapsed = time.monotonic() - start

    csha = code_sha(workload)
    reference = check_hashes(samples, [csha, name, str(seed)])
    untraced = [s for s in samples if not s["trace"]]
    traced = [s for s in samples if s["trace"]]
    good = [s for s in untraced if all(s["checks"].values())]
    if not good:
        raise SetupError(f"{name}: no untraced sample succeeded; see {work}/child.log")

    metrics, spread, unscaled, used = {}, {}, {}, good
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([hostspeed.scaled(s, m["name"]) for s in good])
            metrics[m["name"]] = med
            spread[m["name"]] = [q1, q3]
            unscaled[m["name"]] = statistics.median(s[m["name"]] for s in good)
    else:
        used = ok_traced = [s for s in traced if all(s["checks"].values()) and s["layers"]]
        if not ok_traced:
            raise SetupError(f"{name}: no traced sample succeeded; see {work}/child.log")
        for s in ok_traced:
            s["checks"]["counts_repeat"] = all(
                s["layers"][k] == ok_traced[0]["layers"][k]
                for k in s["layers"] if not k.endswith("_s")
            )
        for m in spec["per_layer"]:
            key = m["name"]
            if key == "trace_overhead":
                metrics[key] = (
                    statistics.median(hostspeed.scaled(s, "run_s") for s in ok_traced)
                    / statistics.median(hostspeed.scaled(s, "run_s") for s in good)
                )
            else:
                q1, med, q3 = quartiles([
                    s["layers"][key] / (s["host_factor"] if key.endswith("_s") else 1.0)
                    for s in ok_traced
                ])
                metrics[key] = med
                spread[key] = [q1, q3]

    failed = sum(1 for s in samples if not all(s["checks"].values()))
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": elapsed,
        "why": workload["why"],
        "nominal_path_steps": workload["nominal_path_steps"],
        "machine": machine(),
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "code_sha256": csha,
        "reference_hashes": reference,
        "attempted": len(samples),
        "samples_used": len(used),
        "failed": failed,
        "error_rate": failed / len(samples),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "quartiles": spread,
        "unscaled_medians": unscaled,
        "host_factor": statistics.median(s["host_factor"] for s in used),
        "first_kernel_s": blocks[0],
        "cpu": cpu,
        "samples": samples,
    }
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    report["path"] = path
    return report


def print_report(report: dict) -> None:
    name, n = report["workload"], report["samples_used"]
    for key, m in report["metrics"].items():
        q = report["quartiles"].get(key)
        extra = f"  (median of {n} samples; q1 {q[0]:.6g}, q3 {q[1]:.6g})" if q else ""
        if key in hostspeed.POWER and key in report["unscaled_medians"]:
            extra += f"  unscaled {report['unscaled_medians'][key]:.6g}"
        print(f"{name:14s} {key:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{name:14s} {'host_factor':40s} {report['host_factor']:.6g}"
          f"  (kernel time over {hostspeed.REFERENCE_S} s; time metrics are divided by it)")
    print(f"{name:14s} {'error_rate':40s} {report['error_rate']:.6g} ratio"
          f"  ({report['failed']} failed of {report['attempted']} attempted)")
    print(f"{name:14s} results: {os.path.relpath(report['path'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)

    try:
        if not os.path.isfile(os.path.join("src", "kimura_lab", "cli.py")):
            raise SetupError("run from the root of a kimura-lab checkout (no src/kimura_lab)")
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        names = workload_names() if args.workload == "all" else [args.workload]
        for name in names:
            load_workload(name)
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       env=child_env(), stdout=subprocess.DEVNULL, check=False)
        # Warm-up: one untimed import, so the first sample does not read the
        # interpreter, NumPy, SciPy and the package from disk.
        subprocess.run([sys.executable, "-c", "import kimura_lab.cli"],
                       env=child_env(), stdout=subprocess.DEVNULL, check=False)
        reports = [measure(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except (SetupError, OSError) as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 2

    for report in reports:
        print_report(report)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
