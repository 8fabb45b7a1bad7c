import atexit
import gc
import json
import math
import os
import subprocess
import sys

import pytest

from kimura_lab import cli, simulate
from kimura_lab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODEL_HALF = {
    "kind": "standard",
    "dims": {"n": 1, "m": 0},
    "b_hat": [{"family": "constant", "value": 0.5}],
}
FK_DOC = {
    "command": "fk",
    "seed": 7,
    "model": MODEL_HALF,
    "z0": [0.0],
    "t": 0.2,
    "f": "one",
    "sim": {"dt": 0.002, "n_paths": 3000, "horizon": 0.2},
}
DENSITY_DOC = {
    "command": "density",
    "seed": 21,
    "model": MODEL_HALF,
    "z0": [0.0],
    "t": 0.5,
    "grid": {"box": [[0.0, 6.0]], "cells": 16},
    "measure": "operator",
    "sim": {"dt": 0.005, "n_paths": 4000, "horizon": 0.5},
}
SIMULATE_DOC = {
    "command": "simulate",
    "seed": 3,
    "model": MODEL_HALF,
    "z0": [0.0],
    "sim": {"dt": 0.01, "n_paths": 200, "horizon": 1.0},
}
# a ball of the intrinsic metric about SIMULATE_DOC's start
BALL_DOMAIN = {"dims": {"n": 1, "m": 0}, "box": [[0.0, 4.0]], "shape": "ball",
               "center": [0.0], "radius": 0.5}
MISSING = object()  # a parameter value that deletes the key instead


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, *extra):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    return main(["--config", cfg, "--out", str(out), *extra]), out


def test_validate_reports_unit_ellipticity(tmp_path, capsys):
    doc = {"command": "validate", "seed": 1, "model": MODEL_HALF}
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["passed"] is True
    assert results["delta"] == pytest.approx(1.0)
    assert "config=" in capsys.readouterr().out


def test_fk_unit_payoff_full_space(tmp_path):
    code, out = run(tmp_path, FK_DOC)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["estimate"]["value"] == 1.0
    assert results["estimate"]["seed"] == 7


def test_missing_seed_is_config_error(tmp_path, capsys):
    doc = {"command": "validate", "model": MODEL_HALF}
    code, _ = run(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err


def test_unknown_command_rejected(tmp_path):
    doc = {"command": "frobnicate", "seed": 1, "model": MODEL_HALF}
    code, _ = run(tmp_path, doc)
    assert code == 2


def test_command_mismatch_rejected(tmp_path):
    doc = {"command": "validate", "seed": 1, "model": MODEL_HALF}
    cfg = write_config(tmp_path, doc)
    code = main(["fk", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


def test_seed_override_changes_hash(tmp_path):
    doc = {
        "command": "fk",
        "seed": 7,
        "model": MODEL_HALF,
        "z0": [0.0],
        "t": 0.1,
        "sim": {"dt": 0.002, "n_paths": 500, "horizon": 0.1},
    }
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "8"]) == 0
    r1 = json.loads((out1 / "results.json").read_text())
    r2 = json.loads((out2 / "results.json").read_text())
    assert r1["config_hash"] != r2["config_hash"]
    assert r2["seed"] == 8


def test_simulate_writes_bundle(tmp_path):
    doc = {
        "command": "simulate",
        "seed": 3,
        "model": MODEL_HALF,
        "z0": [0.0],
        "sim": {"dt": 0.01, "n_paths": 200, "horizon": 0.1},
        "output": {"bundle": "paths.kimb", "csv": "paths.csv"},
    }
    code, out = run(tmp_path, doc)
    assert code == 0
    assert (out / "paths.kimb").exists()
    assert (out / "paths.csv").exists()
    from kimura_lab.simulate import read_kimb

    back = read_kimb(str(out / "paths.kimb"))
    assert back["states"].shape[0] == 200


@pytest.mark.parametrize("record, n_rec", [("ends", 2), ("all", 11)])
def test_simulate_record_mode_from_config(tmp_path, record, n_rec):
    # a record mode is a string, not a sequence of times
    doc = dict(SIMULATE_DOC, sim={"dt": 0.01, "n_paths": 20, "horizon": 0.1, "record": record})
    code, out = run(tmp_path, doc)
    assert code == 0
    from kimura_lab.simulate import read_kimb

    back = read_kimb(str(out / "bundle.kimb"))
    assert len(back["times"]) == n_rec  # n_steps + 1 for "all"
    assert back["states"].shape[1] == n_rec


def test_simulate_records_times_on_one_grid_step_once(tmp_path):
    # 0.1 and 0.1 + 1e-13 are both step 10 at dt = 0.01: one column, written
    sim = {"dt": 0.01, "n_paths": 20, "horizon": 0.2, "record": [0.1, 0.1000000000001, 0.2]}
    doc = dict(SIMULATE_DOC, sim=sim)
    files = []
    for name in ("a", "b"):
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main(["--config", cfg, "--out", str(tmp_path / name)]) == 0
        files.append(str(tmp_path / name / "bundle.kimb"))
    from kimura_lab.simulate import read_kimb

    with open(files[0], "rb") as a, open(files[1], "rb") as b:
        assert a.read() == b.read()
    back = read_kimb(files[0])
    assert back["times"].tolist() == [0.1, 0.2]
    assert back["states"].shape[1] == 2 and all(map(math.isfinite, back["states"].ravel()))


def test_simulate_record_without_the_horizon_is_refused_before_any_step(
    tmp_path, capsys, monkeypatch
):
    # the command reports the states at the horizon, so it must be recorded
    doc = dict(SIMULATE_DOC, sim={**SIMULATE_DOC["sim"], "record": [0.0, 0.1]})

    def no_step(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(simulate._Lanes, "__init__", no_step)
    assert "sim.record" in assert_config_error(tmp_path, capsys, doc)
    assert not (tmp_path / "out" / "bundle.kimb").exists()
    monkeypatch.undo()
    doc["sim"]["record"] = [0.0, 0.1, 1.0]
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results["mean_final_state"]) == 1


def test_thread_count_does_not_change_artifacts(tmp_path):
    doc = {
        "command": "fk",
        "seed": 11,
        "model": MODEL_HALF,
        "z0": [0.0],
        "t": 0.2,
        "f": {"exp-neg": 0},
        "sim": {"dt": 0.002, "n_paths": 9000, "horizon": 0.2},
    }
    cfg = write_config(tmp_path, doc)
    outs = []
    for threads, sub in ((1, "t1"), (3, "t3")):
        out = tmp_path / sub
        assert main(["--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


def test_env_var_thread_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("KIMURA_LAB_THREADS", "2")
    doc = {
        "command": "fk",
        "seed": 5,
        "model": MODEL_HALF,
        "z0": [0.0],
        "t": 0.1,
        "sim": {"dt": 0.002, "n_paths": 500, "horizon": 0.1},
    }
    code, out = run(tmp_path, doc)
    assert code == 0


def test_oracle_compare_small_run(tmp_path):
    doc = {
        "command": "oracle-compare",
        "seed": 9,
        "b0": 0.5,
        "t": 1.0,
        "bins": 32,
        "sim": {"n_paths": 40000, "dt": 0.01, "scheme": "exact-1d-gamma"},
    }
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["l1_pass"] is True
    assert results["mean_within_3_stderr"] is True


def test_ball_domain_runs_with_or_without_its_metric_key(tmp_path):
    outputs = []
    for i, domain in enumerate([BALL_DOMAIN, {**BALL_DOMAIN, "metric": "intrinsic"}]):
        (tmp_path / str(i)).mkdir()
        code, out = run(tmp_path / str(i), {**SIMULATE_DOC, "domain": domain})
        assert code == 0
        outputs.append((out / "bundle.kimb").read_bytes())
    assert outputs[0] == outputs[1]


def test_numeric_failure_exit_code(tmp_path, capsys):
    doc = {
        "command": "simulate",
        "seed": 2,
        "model": {
            "kind": "standard",
            "dims": {"n": 1, "m": 0},
            "b_hat": [{"family": "constant", "value": float("nan")}],
        },
        "z0": [0.0],
        "sim": {"dt": 0.01, "n_paths": 16, "horizon": 0.05},
    }
    code, _ = run(tmp_path, doc)
    assert code == 3
    assert "numeric" in capsys.readouterr().err


def load_config(name):
    with open(os.path.join(ROOT, "configs", name)) as fh:
        return json.load(fh)


def assert_config_error(tmp_path, capsys, doc):
    """Assert the run exits 2 with a config diagnostic; returns its message."""
    code, _ = run(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    diag = json.loads(err[-1])
    assert diag["kind"] == "config"
    return diag["message"]


@pytest.mark.parametrize("name", ["harnack_scan.json", "oracle_compare.json"])
def test_unknown_scheme_is_config_error(tmp_path, capsys, name):
    doc = load_config(name)
    # a deleted scheme is refused, not run as another
    for scheme in ("bogus", "euler-implicit-sqrt"):
        doc["sim"]["scheme"] = scheme
        assert "scheme must be one of" in assert_config_error(tmp_path, capsys, doc)


# whole-number values given as a fraction, a bool or an infinity, which int()
# would truncate, read as 1 or fail on with an OverflowError
WHOLE_NUMBER_CASES = [
    ("fk", ("seed",), 7.5),
    ("fk", ("seed",), True),
    ("fk", ("sim", "n_paths"), 2000.9),
    ("oracle_compare.json", ("bins",), 8.7),
    ("oracle_compare.json", ("bins",), math.inf),
    ("oracle_compare.json", ("sim", "n_paths"), True),
    ("density", ("grid", "cells"), 16.5),
    ("validate_model.json", ("grid", "points_per_axis"), 7.5),
    ("harnack_scan.json", ("lattice", "n_time"), 3.5),
    ("harnack_scan.json", ("lattice", "n_space"), True),
]


@pytest.mark.parametrize("name, path, value", [
    ("harnack_scan.json", ("sim", "dt"), "abc"),
    ("harnack_scan.json", ("R",), "quarter"),
    ("harnack_scan.json", ("lattice", "n_time"), "x"),
    ("harnack_scan.json", ("lattice", "n_time"), 1),
    ("harnack_scan.json", ("rho_fractions",), [1.5]),
    ("oracle_compare.json", ("sim", "n_paths"), "many"),
    ("density", ("grid", "cells"), "x"),
    ("density", ("grid", "box"), [["a", 6.0]]),
    ("fk", ("t_cut",), "x"),
    ("harnack_scan.json", ("g",), {"family": "bogus"}),
    ("harnack_scan.json", ("domain", "box"), [["a", 4.0]]),
    # a payoff index outside the state
    ("harnack_scan.json", ("g",), {"coordinate": 5}),
    ("fk", ("f",), {"exp-neg": 3}),
    # a section of the wrong JSON type
    ("harnack_scan.json", ("lattice",), [3, 5]),
    ("harnack_scan.json", ("sim",), [1, 2]),
    # a missing nested key
    ("harnack_scan.json", ("model", "dims"), MISSING),
    ("harnack_scan.json", ("g",), {"family": "trig", "axis": 0, "frequency": 1.0}),
    ("harnack_scan.json", ("domain", "shape"), "ball"),
    # field JSON that does not fit the state
    ("harnack_scan.json", ("g",), {"family": "affine", "coeffs": [0.25, 1.0]}),
    ("harnack_scan.json", ("g",),
     {"family": "trig", "amplitude": 0.1, "axis": 3, "frequency": 1.0}),
    # times off the sim.dt grid
    ("simulate", ("sim", "dt"), 0.003),
    ("density", ("t",), 0.2525),
    # a start outside the state, a payoff of no known form, an unknown variant
    ("fk", ("z0",), [-1.0]),
    ("fk", ("f",), [1, 2]),
    ("fk", ("variant",), "bogus"),
    # seeds outside U64
    ("fk", ("seed",), -1),
    ("fk", ("seed",), 2**64 + 5),
    # record times past the horizon or off the sim.dt grid
    ("simulate", ("sim", "record"), [0.0, 1.5]),
    ("simulate", ("sim", "record"), [0.0, 0.015]),
    # a density measure of no known kind
    ("density", ("measure",), "operatr"),
    # a t1 after the scan's earliest lattice time (about 0.4733)
    ("harnack_scan.json", ("t1",), 0.48),
    # times and steps that are not finite
    ("simulate", ("sim", "horizon"), math.inf),
    ("simulate", ("sim", "dt"), math.inf),
    ("girsanov", ("t",), math.inf),
    ("density", ("t",), math.inf),
    ("fk", ("t",), math.nan),
    ("harnack_scan.json", ("s",), math.nan),
    ("harnack_scan.json", ("t1",), math.nan),
    # a cylinder factor c that gives no probe radius
    ("harnack_scan.json", ("c",), math.nan),
    ("harnack_scan.json", ("c",), -0.5),
    # a payoff index that is not a whole number
    ("fk", ("f",), {"coordinate": 0.5}),
    ("fk", ("f",), {"exp-neg": False}),
    # a whole index past any float
    ("fk", ("f",), {"coordinate": 10**400}),
    # validation grid bounds that are not finite
    ("validate_model.json", ("grid", "x_hi"), math.nan),
    ("validate_model.json", ("grid", "x_hi"), math.inf),
] + WHOLE_NUMBER_CASES + [
    # a ball of a metric other than the intrinsic one, which must not run
    # as the intrinsic ball (the same domain without "metric" runs)
    ("simulate", ("domain",), {**BALL_DOMAIN, "metric": "euclidean"}),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, name, path, value):
    docs = {"density": DENSITY_DOC, "fk": FK_DOC, "simulate": SIMULATE_DOC,
            "girsanov": {**GIRSANOV_DOC, "seed": 5}}
    doc = json.loads(json.dumps(docs[name] if name in docs else load_config(name)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    message = assert_config_error(tmp_path, capsys, doc)
    if (name, path, value) in WHOLE_NUMBER_CASES:
        assert f"{path[-1]} must be a whole number" in message
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("name, edits", [
    # a horizon t - t1 the estimators refuse
    ("fk", {"t": 0.0}),
    ("fk", {"mode": "dirichlet", "t1": 0.3}),
    # a cut at or before t1, which truncates every payoff
    ("fk", {"mode": "dirichlet", "t1": 0.0, "t_cut": -1.0}),
    ("fk", {"mode": "dirichlet", "t1": 0.1, "t_cut": 0.1}),
    # grids with no cell, no point or a reversed box
    ("validate_model.json", {"grid.points_per_axis": 0}),
    ("density", {"grid.cells": 0}),
    ("density", {"grid.box": [[4.0, 0.0]]}),
    ("harnack_scan.json", {"rho_fractions": []}),
    # output names that are not file names
    ("fk", {"output.results": 5}),
    ("density", {"output.csv": ["a"]}),
    ("simulate", {"output.bundle": 5}),
    # a standard error needs two paths
    ("fk", {"sim.n_paths": 1}),
    ("harnack_scan.json", {"sim.n_paths": 1}),
], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={v[k]}" for k in v))
def test_value_the_library_would_reject_is_refused_before_any_step(
    tmp_path, capsys, monkeypatch, name, edits
):
    docs = {"density": DENSITY_DOC, "fk": FK_DOC, "simulate": SIMULATE_DOC}
    doc = json.loads(json.dumps(docs[name] if name in docs else load_config(name)))
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value

    def no_step(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(simulate._Lanes, "__init__", no_step)
    assert_config_error(tmp_path, capsys, doc)
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("x0", [math.inf, math.nan])
def test_a_start_that_is_not_finite_exits_2_before_any_step(tmp_path, capsys, monkeypatch, x0):
    # the start check keeps the infinite bounds that a domain's exit test drops
    def no_step(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(simulate._Lanes, "__init__", no_step)
    code, _ = run(tmp_path, {**FK_DOC, "z0": [x0]})
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["kind"] == "InvalidStartError"
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64 + 5)])
def test_seed_flag_outside_u64_is_config_error(tmp_path, capsys, seed):
    code, _ = run(tmp_path, FK_DOC, "--seed", seed)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["kind"] == "config"


ORACLE_DOC = {
    "command": "oracle-compare",
    "seed": 9,
    "sim": {"n_paths": 64, "dt": 0.01, "scheme": "exact-1d-gamma"},
}
GIRSANOV_DOC = {
    "command": "girsanov",
    "model": MODEL_HALF,
    "z0": [1.0],
    "t": 0.1,
    "sim": {"dt": 0.01, "n_paths": 2000, "horizon": 0.1},
}


@pytest.mark.parametrize("key, value", [
    ("b0", -0.5),
    ("x0", -1.0),
    ("bins", -3),
    ("bins", 0),  # no bin at all, once reported as an L1 error of 1.0
    ("box_hi", -1.0),
])
def test_bad_oracle_compare_value_is_config_error_naming_its_key(
    tmp_path, capsys, key, value
):
    message = assert_config_error(tmp_path, capsys, {**ORACLE_DOC, key: value})
    assert key in message


@pytest.mark.parametrize("doc", [ORACLE_DOC, {**GIRSANOV_DOC, "seed": 5}],
                         ids=["oracle-compare", "girsanov"])
def test_one_path_run_is_config_error(tmp_path, capsys, doc):
    # a standard error over one path is NaN, which is not JSON
    doc = json.loads(json.dumps(doc))
    doc["sim"]["n_paths"] = 1
    assert "n_paths" in assert_config_error(tmp_path, capsys, doc)
    assert not (tmp_path / "out" / "results.json").exists()


def spy_girsanov_bundles(monkeypatch):
    """The per-equation bundles of every ``simulate_bundle`` call the
    command line makes."""
    seen, inner = [], cli.simulate_bundle

    def spy(*args, **kwargs):
        bundle = inner(*args, **kwargs)
        seen.append(bundle.per_equation())
        return bundle

    monkeypatch.setattr(cli, "simulate_bundle", spy)
    return seen


def test_girsanov_at_the_largest_seed(tmp_path, monkeypatch):
    # both equations step in one pass on the draws of the seed itself
    seen = spy_girsanov_bundles(monkeypatch)
    code, out = run(tmp_path, GIRSANOV_DOC, "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads((out / "results.json").read_text())["seed"] == 2**64 - 1
    [lanes] = seen
    assert [lane.rng_stream_id(0)[0] for lane in lanes] == [2**64 - 1] * 2


def test_girsanov_with_no_drift_change_has_a_paired_stderr_of_zero(tmp_path, monkeypatch):
    # a constant b^ gives theta = 0: the two equations take the same steps,
    # every weight is 1 and the per-path difference is 0
    seen = spy_girsanov_bundles(monkeypatch)
    code, out = run(tmp_path, {**GIRSANOV_DOC, "seed": 5})
    assert code == 0
    [(std, sing)] = seen
    assert std.states.tobytes() == sing.states.tobytes()
    assert not sing.log_weights.any()
    results = json.loads((out / "results.json").read_text())
    assert results["paired_stderr"] == 0.0 and results["difference"] == 0.0
    assert results["within_3_stderr"] is True


def test_bad_thread_variable_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KIMURA_LAB_THREADS", "abc")
    assert_config_error(tmp_path, capsys, FK_DOC)


@pytest.mark.parametrize("flag, env", [
    ("0", None),
    ("-3", None),
    (None, "0"),
    (None, "-3"),
    ("0", "2"),
])
def test_thread_cap_below_one_is_config_error(tmp_path, capsys, monkeypatch, flag, env):
    # a cap below 1 would otherwise step serially without a word
    if env is not None:
        monkeypatch.setenv("KIMURA_LAB_THREADS", env)

    def no_step(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(simulate._Lanes, "__init__", no_step)
    extra = () if flag is None else ("--threads", flag)
    code, out = run(tmp_path, FK_DOC, *extra)
    assert code == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["kind"] == "config"
    assert ("--threads" if flag is not None else "KIMURA_LAB_THREADS") in diag["message"]
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("case", [
    "model-missing", "model-not-json", "domain-missing", "out-is-a-file",
    "results-in-no-directory",
])
def test_unusable_file_is_config_error_before_any_step(tmp_path, capsys, monkeypatch, case):
    # a file the config names, or the output location, that cannot be read or
    # written; the results name is checked before the run, not after it
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not JSON")
    key, edits, out = {
        "model-missing": ("model", {"model": str(tmp_path / "absent.json")}, "out"),
        "model-not-json": ("model", {"model": str(garbage)}, "out"),
        "domain-missing": ("domain", {"domain": str(tmp_path / "absent.json")}, "out"),
        "out-is-a-file": ("--out", {}, garbage.name),
        "results-in-no-directory": (
            "output.results", {"output": {"results": "nodir/r.json"}}, "out"),
    }[case]

    def no_step(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(simulate._Lanes, "__init__", no_step)
    cfg = write_config(tmp_path, {**FK_DOC, **edits})
    assert main(["--config", cfg, "--out", str(tmp_path / out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    diag = json.loads(line)
    assert diag["kind"] == "config"
    assert diag["message"].startswith(f"{key}: ")
    assert not list(tmp_path.rglob("results.json")) and not list(tmp_path.rglob("r.json"))


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    assert_config_error(tmp_path, capsys, [FK_DOC])


def test_girsanov_time_off_the_grid_is_config_error(tmp_path, capsys):
    doc = load_config("girsanov_consistency.json")
    doc["t"] = 0.0005  # sim.dt is 1e-3
    assert_config_error(tmp_path, capsys, doc)


def test_density_command_writes_csv(tmp_path):
    code, out = run(tmp_path, DENSITY_DOC)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["survival_mass"] == 1.0
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "c0,cell_mu,density"
    assert len(lines) == 17


def test_density_command_stops_at_t(tmp_path, monkeypatch):
    import kimura_lab.cli as cli

    horizons = []
    simulate = cli.simulate_bundle

    def recording(coeffs, z0, domain, config, **kwargs):
        horizons.append(config.horizon)
        return simulate(coeffs, z0, domain, config, **kwargs)

    monkeypatch.setattr(cli, "simulate_bundle", recording)
    doc = dict(DENSITY_DOC, t=0.2)  # sim.horizon is 0.5
    ref = dict(doc, sim=dict(DENSITY_DOC["sim"], horizon=0.2))
    (tmp_path / "long").mkdir()
    (tmp_path / "short").mkdir()
    assert run(tmp_path / "long", doc)[0] == 0
    assert run(tmp_path / "short", ref)[0] == 0
    assert horizons == [0.2, 0.2]
    csv_long = (tmp_path / "long" / "out" / "density.csv").read_bytes()
    assert csv_long == (tmp_path / "short" / "out" / "density.csv").read_bytes()


def test_harnack_command_writes_ratio_csv(tmp_path):
    doc = {
        "command": "harnack",
        "seed": 23,
        "model": {
            "kind": "singular",
            "dims": {"n": 1, "m": 0},
            "b": [{"family": "constant", "value": 0.5}],
        },
        "domain": {
            "dims": {"n": 1, "m": 0},
            "box": [[0.0, 4.0]],
            "shape": "box",
        },
        "z0": [2.0],
        "s": 0.5,
        "z": [2.0],
        "R": 0.25,
        "rho_fractions": [0.2, 0.4],
        "lattice": {"n_time": 2, "n_space": 3},
        "sim": {"dt": 0.004, "n_paths": 1500, "horizon": 1.0},
    }
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results["reports"]) == 2
    lines = (out / "harnack.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,ratio"
    assert len(lines) == 3


def test_harnack_command_matches_the_per_node_scan(tmp_path):
    # the committed scan at 64 paths, against one estimate_dirichlet per node
    from kimura_lab.feynman_kac import BoundaryData, estimate_dirichlet
    from kimura_lab.fields import field_from_json
    from kimura_lab.geometry import DomainSpec, Point
    from kimura_lab.harnack import LatticeSpec, scale_invariant_scan
    from kimura_lab.operators import operator_from_json
    from kimura_lab.sde import build_sde_coefficients
    from kimura_lab.simulate import PathConfig

    doc = load_config("harnack_scan.json")
    doc["sim"]["n_paths"] = 64
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())

    coeffs = build_sde_coefficients(operator_from_json(doc["model"]))
    domain = DomainSpec.from_json(doc["domain"])
    config = PathConfig(seed=doc["seed"], **doc["sim"])
    g = field_from_json(doc["g"], 1)
    gdata = BoundaryData(lambda times, states: g.evaluate_batch(states))
    z = Point.from_vector(domain.dims, doc["z"])
    c, R = doc["c"], doc["R"]

    def u(t, zz):
        return estimate_dirichlet(coeffs, gdata, t, zz, 0.0, domain, config)

    reports = scale_invariant_scan(
        lambda nodes: [u(t, zz) for t, zz in nodes], doc["s"], z, R, c, doc["d"],
        [f * c * R for f in doc["rho_fractions"]], LatticeSpec(**doc["lattice"]),
    )
    assert results["reports"] == json.loads(json.dumps([r.to_json() for r in reports]))


def test_harnack_command_runs_one_bundle(tmp_path, monkeypatch):
    # pins: the committed scan's 90 nodes (16 times, 15 points) share one
    # bundle on sim.dt
    import kimura_lab.feynman_kac as fk

    runs = []
    simulate = fk.simulate_bundle

    def recording(coeffs, z0, domain, config, **kwargs):
        runs.append((len(z0), config.dt))
        return simulate(coeffs, z0, domain, config, **kwargs)

    monkeypatch.setattr(fk, "simulate_bundle", recording)
    doc = load_config("harnack_scan.json")
    doc["sim"]["n_paths"] = 64
    assert run(tmp_path, doc)[0] == 0
    assert runs == [(15, doc["sim"]["dt"])]


@pytest.mark.parametrize("mode", ["semigroup", "dirichlet"])
def test_fk_time_off_the_grid_runs(tmp_path, mode):
    # pins: fk reads a t off the sim.dt grid by blending the bracketing steps
    doc = dict(FK_DOC, t=0.2033, mode=mode, g="one")
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["estimate"]["value"] == 1.0


def test_girsanov_command_consistency(tmp_path):
    doc = {
        "command": "girsanov",
        "seed": 29,
        "model": {
            "kind": "standard",
            "dims": {"n": 1, "m": 0},
            "b_hat": [{"family": "affine", "c0": 1.0, "coeffs": [0.2]}],
        },
        "z0": [1.0],
        "t": 0.5,
        "sim": {"dt": 0.002, "n_paths": 30000, "horizon": 0.5},
    }
    assert_girsanov_consistent(tmp_path, doc)


def assert_girsanov_consistent(tmp_path, doc):
    code, out = run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["within_3_stderr"] is True
    assert all(
        abs(v - 1.0) < 0.05 for v in results["mean_weight_by_time"].values()
    )


# theta's free rows carry e + f_y ln x - e^; the opposite sign gives a
# weighted mean of -0.68 against +0.70 (n1m1) and a gap of 0.50 against an
# independent-draw stderr of 0.017 (coupled, where the free row also has a
# log drift)
FREE_AXIS_GIRSANOV = {
    "n1m1": {
        "seed": 11,
        "model": {"kind": "standard", "dims": {"n": 1, "m": 1},
                  "b_hat": [0.5], "d_hat": [[1.0]], "e_hat": [0.7]},
        "z0": [1.0, 0.0], "t": 1.0,
        "sim": {"dt": 0.01, "n_paths": 4096, "horizon": 1.0},
    },
    "coupled": {
        "seed": 12,
        "model": {
            "kind": "standard", "dims": {"n": 1, "m": 1},
            "a_hat": [[0.2]],
            "b_hat": [{"family": "affine", "c0": 0.9, "coeffs": [0.4, -0.05]}],
            "c_hat": [[0.3]],
            "d_hat": [[1.2]],
            "e_hat": [{"family": "trig", "c0": 0.6, "amplitude": 0.3, "axis": 1,
                       "frequency": 1.5}],
        },
        "z0": [0.5, 0.0], "t": 0.5,
        "sim": {"dt": 0.005, "n_paths": 8192, "horizon": 0.5},
    },
}


@pytest.mark.parametrize("case", sorted(FREE_AXIS_GIRSANOV))
def test_girsanov_command_consistency_with_free_axis(tmp_path, case):
    doc = {"command": "girsanov", "f": {"coordinate": 1}, **FREE_AXIS_GIRSANOV[case]}
    assert_girsanov_consistent(tmp_path, doc)


def test_main_leaves_the_collector_as_it_was(tmp_path):
    # main registers gc.freeze to run at interpreter exit and runs nothing
    # during the call
    cfg = write_config(tmp_path, FK_DOC)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    for out in ("a", "b"):
        assert main(["--config", cfg, "--out", str(tmp_path / out)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_exit_hook_freezes_once_after_main_in_a_fresh_process(tmp_path):
    # exit handlers run last in, first out: one registered before main runs
    # after main's hook and sees the frozen objects.  Two calls leave one
    # hook (gc.freeze is counted through a wrapper that main looks up), main
    # itself froze nothing, and its results are those of an in-process run.
    cfg = write_config(tmp_path, FK_DOC)
    code = (
        "import atexit, gc, sys\n"
        "from kimura_lab.cli import main\n"
        "calls, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: calls.append(freeze())\n"
        "atexit.register(lambda: print('at exit', len(calls), gc.get_freeze_count() > 0))\n"
        "codes = [main(['--config', sys.argv[1], '--out', out]) for out in sys.argv[2:]]\n"
        "print('after main', codes, gc.get_freeze_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "child"), str(tmp_path / "again")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["after main [0, 0] 0", "at exit 1 True"]
    assert main(["--config", cfg, "--out", str(tmp_path / "here")]) == 0
    child = (tmp_path / "child" / "results.json").read_bytes()
    assert json.loads(child)["estimate"]["value"] == 1.0
    assert child == (tmp_path / "here" / "results.json").read_bytes()


def test_library_use_leaves_the_collector_alone():
    # the exit hook belongs to the command line: importing the package and
    # simulating a bundle leave the collector as it was, after the call and
    # at interpreter exit, where a handler registered first runs last
    code = (
        "import atexit, gc, json, sys\n"
        "before = gc.isenabled(), gc.get_freeze_count()\n"
        "atexit.register(lambda: print(before == (gc.isenabled(), gc.get_freeze_count())))\n"
        "import kimura_lab\n"
        "from kimura_lab.operators import operator_from_json\n"
        "coeffs = kimura_lab.build_standard_sde_coefficients("
        "operator_from_json(json.loads(sys.argv[1])))\n"
        "config = kimura_lab.PathConfig(dt=0.01, seed=1, n_paths=100, horizon=0.1)\n"
        "kimura_lab.simulate_bundle(coeffs, kimura_lab.Point((0.5,), ()),\n"
        "    kimura_lab.DomainSpec.full_space(coeffs.dims), config)\n"
        "print(before == (gc.isenabled(), gc.get_freeze_count()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(MODEL_HALF)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
