"""Time one scheme step per model class: the per-step table of ROADMAP.md.

Each row of the first table is one step of a bundle's stepping loop over
the workspace of a 4096-path block with ``dt = 1e-3``: its calls bound once
(``simulate._Lanes.bind_step``) and replayed, untested, as a group steps
before it tests its last states.  Each is timed as the best of 5 repeats of
200 calls and printed in milliseconds per call.  Each table is timed
round-robin: every repeat runs each of its rows once, in turn, so a burst
of host noise costs one repeat of several rows rather than every repeat of
one row.  The states are ``1 + 0.5 U(0, 1)`` on the degenerate axis and
standard normal on the free one; the normals are drawn once.  The models
are those of the committed configs (girsanov, harnack, validate) plus the validate model with ``a^ = 0.2`` and ``c^ = 0.3``, each
derived model with and without its drift-change field ``theta``.  Beside
the girsanov rows stand one block's normal draw, one step of the
``girsanov`` command's pair (a one-step draw, then both equations as two
lanes on it, as ``simulate_bundle`` steps them), the pair's step as a
bundle runs it, its calls bound once and replayed, at 8 and at 4096 paths
(a fixed cost per step against the array work), and the same pair per step
of a whole bundle through ``simulate.simulate_bundle`` (4096 paths, 1000
steps, the command's eleven record times; best of 5 bundles).  After the harnack
row stand two whole steps of a harnack group at the size of the
harnack-scan benchmark workload, 15 starts of 512 paths on the ``[0, 4]``
box of ``configs/harnack_scan.json``, with 30 % of its paths (drawn at
random) dead: the block's draw, the bound step and its settle (the freeze,
the weight update, the exit test and the marks of the exits), as
``simulate_bundle`` replays them on a step with no record or observer (a
group tests its states for finiteness once, after its last step).  The first is the config's
``n=1, m=0`` group; the second adds a free coordinate of unit ``d`` on
``[-2, 2]``, so its freeze moves rows of two coordinates.  The last row
times the exact scheme's draw.

Rows of their own time the node reads of the ``configs/harnack_scan.json``
scan at 512, 2,000 and 10,000 paths a start, without its bundle: one
``feynman_kac.estimate_dirichlet_nodes`` call on every node of the scan,
with the bundle simulated once beforehand and handed back (best of 5 x 20).

A second table times a harnack-model scan through ``simulate_bundle`` in
nanoseconds per path-step: 15 starts on the ``[0, 4]`` box of
``configs/harnack_scan.json``, 100 steps of ``dt = 2e-3`` with exits, as one
packed bundle and as 15 one-start bundles, at 512 and 4096 paths a start
(best of 5 repeats of 3 scans).

A last line runs ``configs/harnack_scan.json`` through ``cli.main`` at
``--threads 1`` in 5 fresh processes, after one untimed one, and prints the
median and quartiles of the wall seconds of that call, imports excluded,
and the median of its minor page faults (``resource.getrusage``): the
first large packed groups of a process are where page faults show.  A
second line gives the package's start-up cost: the median over 5 fresh
processes of ``import kimura_lab.cli`` after a bare ``import numpy``, with
the median of that ``import numpy`` beside it, after one untimed process
that caches the bytecode.  A last line gives the interpreter's exit after
``cli.main`` on ``configs/oracle_compare.json``: the median over 5 fresh
processes of the time from the child's last line, which prints
``time.monotonic()`` after ``main`` returns, until the parent has reaped
it, with the number of collections (``gc.callbacks``) during
``import kimura_lab.cli`` beside it.  Takes no options; it all takes about a
minute on a 2-core machine.

    python3 scripts/step_rates.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kimura_lab import feynman_kac, simulate  # noqa: E402
from kimura_lab.calls import Calls  # noqa: E402
from kimura_lab.fields import field_from_json  # noqa: E402
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims  # noqa: E402
from kimura_lab.harnack import LatticeSpec, scale_invariant_scan  # noqa: E402
from kimura_lab.operators import derive_singular_from_standard, operator_from_json  # noqa: E402
from kimura_lab.sde import (  # noqa: E402
    build_sde_coefficients,
    make_girsanov_field,
)
from kimura_lab.simulate import RNG_BLOCK, PathConfig, _Lanes, _Workspace  # noqa: E402

REPEATS, CALLS, SCAN_CALLS, STARTS = 5, 200, 3, 5
CONFIG = PathConfig(dt=1e-3, seed=0, n_paths=RNG_BLOCK, horizon=1.0)
SCAN_STARTS = 15
# paths a start of the harnack-scan benchmark workload, and of the read rows
SCAN_PATHS = 512
READ_PATHS = (512, 2_000, 10_000)


def _config(name: str) -> dict:
    with open(os.path.join(ROOT, "configs", name)) as fh:
        return json.load(fh)


def _model(name: str) -> dict:
    return _config(name)["model"]


def _best_s(rows) -> list[float]:
    """Best seconds per call of each ``(fn, calls)`` row over ``REPEATS``
    repeats, each of which times every row once, in turn."""
    best = [float("inf")] * len(rows)
    for _ in range(REPEATS):
        for i, (fn, calls) in enumerate(rows):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / calls)
    return best


def _states_and_normals(dims) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=1))
    states = np.empty((RNG_BLOCK, dims.total))
    states[:, : dims.n] = 1.0 + 0.5 * rng.random((RNG_BLOCK, dims.n))
    states[:, dims.n :] = rng.standard_normal((RNG_BLOCK, dims.m))
    return states, rng.standard_normal((RNG_BLOCK, dims.total))


def _workspace(eqs, thetas, config):
    """The workspace of ``eqs`` on one block of fixed states and normals."""
    states, xi = _states_and_normals(eqs[0].dims)
    lanes = _Lanes(eqs, thetas, config)
    ws = _Workspace(lanes, states, RNG_BLOCK)
    ws.xi[...] = xi
    return lanes, ws


def _step(coeffs, theta=None):
    """One lane's step, its calls bound once and replayed."""
    lanes, ws = _workspace([coeffs], [theta], CONFIG)
    return lanes.bind_step(ws).run


def _pair_step(pair):
    """A one-step draw, then the standard and the weighted lane on it, their
    calls bound once and replayed, the draw among them as a group binds it."""
    lanes, ws = _workspace([pair.std, pair.sing], [None, pair], CONFIG)
    calls = Calls()
    calls.add(simulate._block_rng(0, 0).standard_normal, out=ws.xi)
    calls += lanes.bind_step(ws)
    return calls.run


def _bound_pair_step(pair, n_paths: int):
    """The pair's step on one draw as a bundle runs it: its calls bound
    once, then replayed."""
    states, xi = _states_and_normals(pair.dims)
    config = replace(CONFIG, n_paths=n_paths)
    lanes = _Lanes([pair.std, pair.sing], [None, pair], config)
    # on full space, so a step writes its states in place
    ws = _Workspace(lanes, states[:n_paths], n_paths, in_place=True)
    ws.xi[...] = xi[:n_paths]
    return lanes.bind_step(ws).run


def _harnack_group(m: int) -> tuple:
    """The model and box of ``configs/harnack_scan.json`` with ``m`` free
    coordinates: for ``m = 1``, one of unit ``d`` on ``[-2, 2]``."""
    doc = _config("harnack_scan.json")
    model, domain = doc["model"], DomainSpec.from_json(doc["domain"])
    if m:
        model = dict(model, dims={"n": 1, "m": 1}, d=[[1.0]])
        domain = DomainSpec.box(StateSpaceDims(1, 1), [(0.0, 4.0), (-2.0, 2.0)])
    return build_sde_coefficients(operator_from_json(model)), domain


def _group_step(coeffs, domain):
    """One whole step of a harnack group of ``SCAN_STARTS`` starts of
    ``SCAN_PATHS`` paths on ``domain``, 30 % of them dead, as a bundle
    replays it on a step with no record or observer.  The starts lie on
    the degenerate axis, with the free coordinates at 0."""
    config = PathConfig(dt=2e-3, seed=0, n_paths=SCAN_PATHS, horizon=1.0)
    lanes = _Lanes([coeffs], [None], config)
    starts = np.zeros((SCAN_STARTS, coeffs.dims.total))
    starts[:, 0] = np.linspace(0.2, 3.8, SCAN_STARTS)
    ws = _Workspace(lanes, np.repeat(starts, SCAN_PATHS, axis=0), SCAN_PATHS)
    np.greater_equal(np.random.Generator(np.random.Philox(key=3)).random(ws.alive.shape), 0.3,
                     out=ws.alive)
    ws.step[()] = 1
    calls = Calls()
    calls.add(simulate._block_rng(0, 0).standard_normal, out=ws.xi)
    calls += lanes.bind_step(ws) + lanes.bind_settle(ws, domain.exit_test)

    def step():
        for call in calls:
            call()

    return step


def _node_reads(n_paths: int):
    """The reads of the harnack scan's nodes at ``n_paths`` paths a start,
    without the bundle, and the number of nodes."""
    doc = _config("harnack_scan.json")
    coeffs = build_sde_coefficients(operator_from_json(doc["model"]))
    domain = DomainSpec.from_json(doc["domain"])
    sim = doc["sim"]
    config = PathConfig(dt=sim["dt"], seed=doc["seed"], n_paths=n_paths,
                        horizon=sim["horizon"])
    g = field_from_json(doc["g"], 1)
    gdata = feynman_kac.BoundaryData(lambda times, states: g.evaluate_batch(states))
    nodes = []

    def capture(scan_nodes):
        nodes.extend(scan_nodes)
        return [feynman_kac.Estimate(1.0, 0.0, 1, 1.0, "")] * len(scan_nodes)

    c, R = doc["c"], doc["R"]
    scale_invariant_scan(capture, doc["s"], Point(tuple(doc["z"]), ()), R, c, doc["d"],
                         [f * c * R for f in doc["rho_fractions"]],
                         LatticeSpec(**doc["lattice"]))
    bundles = []

    def once(*args, **kwargs):
        if not bundles:
            bundles.append(simulate.simulate_bundle(*args, **kwargs))
        return bundles[0]

    def reads():
        # the bundle of the first call handed back, only while reading
        with mock.patch.object(feynman_kac, "simulate_bundle", once):
            feynman_kac.estimate_dirichlet_nodes(coeffs, gdata, nodes, 0.0, domain, config)

    reads()
    return reads, len(nodes)


def _pair_bundle(pair):
    """The ``girsanov`` command's bundle, timed per step."""
    config = replace(CONFIG, record=tuple(0.1 * i for i in range(11)))
    start, domain = Point((1.0,), ()), DomainSpec.full_space(pair.dims)

    def run():
        simulate.simulate_bundle((pair.std, pair.sing), start, domain, config, theta=pair)

    return run, config.n_steps


def _fresh_scan() -> str:
    """Median and quartiles of the wall seconds, and the median of the minor
    page faults, of ``cli.main`` on ``configs/harnack_scan.json`` at one
    thread, over ``STARTS`` fresh processes after one untimed one."""
    code = """
import contextlib, io, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from kimura_lab.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    main(["--config", sys.argv[2], "--out", out, "--threads", "1"])
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(f"{wall:.3f} {faults}")
"""
    config = os.path.join(ROOT, "configs", "harnack_scan.json")
    runs = [
        subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), config],
            check=True, capture_output=True, text=True,
        ).stdout.split()
        for _ in range(STARTS + 1)
    ][1:]
    wall, faults = np.array(runs, dtype=float).T
    q1, median, q3 = np.percentile(wall, [25, 50, 75])
    return (f"median {median:.3f} s (quartiles {q1:.3f}-{q3:.3f} s), "
            f"{int(np.median(faults)):,} minor page faults")


def _fresh_import() -> str:
    """Median milliseconds of ``import kimura_lab.cli`` after a bare
    ``import numpy``, and of that ``import numpy``, over ``STARTS`` fresh
    processes."""
    code = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import numpy
mid = time.perf_counter()
import kimura_lab.cli
print(mid - start, time.perf_counter() - mid)
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    runs = [
        subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src")],
            check=True, capture_output=True, text=True, env=env,
        ).stdout.split()
        for _ in range(STARTS + 1)
    ][1:]
    numpy_ms, package_ms = 1e3 * np.median(np.array(runs, dtype=float), axis=0)
    return f"{package_ms:.1f} ms (a bare import numpy: {numpy_ms:.1f} ms)"


def _fresh_exit() -> str:
    """Median milliseconds from the end of ``cli.main`` on
    ``configs/oracle_compare.json`` until the parent has reaped the process,
    over ``STARTS`` fresh processes, and the collections during
    ``import kimura_lab.cli``."""
    code = """
import contextlib, gc, io, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
begun = []
tally = lambda phase, info: begun.append(phase == "start")
gc.callbacks.append(tally)
import kimura_lab.cli
gc.callbacks.remove(tally)
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    kimura_lab.cli.main(["--config", sys.argv[2], "--out", out, "--threads", "1"])
print(sum(begun), time.monotonic(), flush=True)
"""
    config = os.path.join(ROOT, "configs", "oracle_compare.json")
    exits, counts = [], []
    for _ in range(STARTS):
        child = subprocess.Popen(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), config],
            stdout=subprocess.PIPE, text=True,
        )
        out = child.communicate()[0].split()
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        exits.append(time.monotonic() - float(out[1]))
        counts.append(int(out[0]))
    return (f"{1e3 * np.median(exits):.1f} ms "
            f"({int(np.median(counts))} collections during import kimura_lab.cli)")


def _derived_rows(label: str, std_op) -> list:
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    return [
        (f"derived {label}", _step(pair.sing)),
        (f"derived {label} with theta", _step(pair.sing, pair)),
    ]


def _scan_rows(coeffs) -> list:
    domain = DomainSpec.from_json(_config("harnack_scan.json")["domain"])
    starts = [Point((x,), ()) for x in np.linspace(0.2, 3.8, SCAN_STARTS)]
    rows = []
    for n_paths in (SCAN_PATHS, RNG_BLOCK):
        config = PathConfig(dt=2e-3, seed=0, n_paths=n_paths, horizon=0.2, record="ends")
        path_steps = SCAN_STARTS * n_paths * config.n_steps

        def packed(config=config):
            simulate.simulate_bundle(coeffs, starts, domain, config)

        def alone(config=config):
            for z in starts:
                simulate.simulate_bundle(coeffs, z, domain, config)

        label = f"{SCAN_STARTS} starts x {n_paths} paths"
        rows += [(f"{label}, one packed bundle", packed, path_steps),
                 (f"{label}, one bundle a start", alone, path_steps)]
    return rows


def main() -> None:
    girsanov = operator_from_json(_model("girsanov_consistency.json"))
    harnack = build_sde_coefficients(operator_from_json(_model("harnack_scan.json")))
    validate = _model("validate_model.json")
    coupled = dict(validate, a_hat=[[0.2]], c_hat=[[0.3]])
    exact = simulate._ExactGammaParams(harnack)
    x = np.full(RNG_BLOCK, 1.0)
    pair = make_girsanov_field(girsanov, derive_singular_from_standard(girsanov))
    bundle, bundle_steps = _pair_bundle(pair)
    steps = [
        ("standard 1D (girsanov config)", _step(pair.std)),
        *_derived_rows("1D (girsanov config)", girsanov),
        (
            f"one standard_normal(({RNG_BLOCK}, 1)) draw from a block's Philox",
            lambda rng=simulate._block_rng(0, 0): rng.standard_normal((RNG_BLOCK, 1)),
        ),
        ("girsanov pair: a one-step draw, both lanes stepped on it", _pair_step(pair)),
        *[(f"girsanov pair: the bound step's calls replayed, {n} paths",
           _bound_pair_step(pair, n)) for n in (8, RNG_BLOCK)],
        ("singular 1D, constant b (harnack config)", _step(harnack)),
        *[(f"harnack group step, n=1, m={m}, {SCAN_STARTS} starts x {SCAN_PATHS} paths, "
           "30 % dead: draw, bound step, freeze, exit test", _group_step(*_harnack_group(m)))
          for m in (0, 1)],
        *_derived_rows("n=1, m=1 (validate config)", operator_from_json(validate)),
        *_derived_rows("n=1, m=1 with a^ = 0.2, c^ = 0.3", operator_from_json(coupled)),
        (
            f"exact scheme: noncentral_chisquare, {RNG_BLOCK} draws",
            lambda rng=simulate._block_rng(0, 0): exact.sample(rng, x, CONFIG.dt),
        ),
    ]
    # (label, fn, calls, steps per call)
    rows = [(label, fn, CALLS, 1) for label, fn in steps] + [
        (f"girsanov pair per step of a {bundle_steps}-step bundle (simulate_bundle)",
         bundle, 1, bundle_steps),
    ]
    print(f"ms per call at {RNG_BLOCK} paths, dt = {CONFIG.dt}, best of {REPEATS} x {CALLS}")
    print("| model | ms/step |\n|---|---|")
    best = _best_s([(fn, calls) for _, fn, calls, _ in rows])
    for (label, _, _, per), s in zip(rows, best):
        print(f"| {label} | {1e3 * s / per:.3f} |", flush=True)
    print("\nnode reads of the configs/harnack_scan.json scan, without its bundle")
    print("| paths a start | ms |\n|---|---|")
    for n_paths in READ_PATHS:
        reads, n_nodes = _node_reads(n_paths)
        print(f"| {n_paths:,} ({n_nodes} nodes) | {1e3 * _best_s([(reads, 20)])[0]:.2f} |",
              flush=True)
    print(f"\nharnack-model scan through simulate_bundle, best of {REPEATS} x {SCAN_CALLS}")
    print("| scan | ns/path-step |\n|---|---|")
    scan = _scan_rows(harnack)
    best = _best_s([(fn, SCAN_CALLS) for _, fn, _ in scan])
    for (label, _, path_steps), s in zip(scan, best):
        print(f"| {label} | {1e9 * s / path_steps:.2f} |", flush=True)
    print(f"\nconfigs/harnack_scan.json, cli.main at one thread, {STARTS} fresh processes: "
          f"{_fresh_scan()}")
    print(f"import kimura_lab.cli after numpy, median of {STARTS} fresh processes: "
          f"{_fresh_import()}")
    print(f"interpreter exit after cli.main on configs/oracle_compare.json, median of "
          f"{STARTS} fresh processes: {_fresh_exit()}")


if __name__ == "__main__":
    main()
