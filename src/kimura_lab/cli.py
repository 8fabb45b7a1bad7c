"""Batch front end: run configured experiments and emit JSON/CSV artifacts.

All numerics live in the library; this module only parses configurations,
dispatches, and serializes results.  Artifacts are deterministic functions of
(config, seed): no timestamps or thread counts are recorded, so reruns with a
different ``--threads`` produce byte-identical files.

Exit codes: 0 success, 2 configuration/validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .density import GridSpec, check_mass, estimate_density
from .errors import ConfigError, KimuraLabError, NumericFailureError
from .feynman_kac import (
    BoundaryData,
    estimate_dirichlet,
    estimate_dirichlet_nodes,
    estimate_semigroup,
    weights_from_log,
)
from .fields import field_from_json
from .geometry import DomainSpec, Point, StateSpaceDims
from .harnack import LatticeSpec, scale_invariant_scan
from .operators import (
    SingularOperatorSpec,
    StandardOperatorSpec,
    derive_singular_from_standard,
    make_validation_grid,
    operator_from_json,
    validate_assumptions,
)
from .oracle import Besq1dModel, besq_mean, besq_transition_mass
from .sde import (
    build_sde_coefficients,
    build_standard_sde_coefficients,
    make_girsanov_field,
)
from .simulate import (
    PathConfig,
    bundle_to_csv,
    bundle_to_kimb,
    grid_steps,
    simulate_bundle,
)

COMMANDS = (
    "validate",
    "simulate",
    "fk",
    "density",
    "harnack",
    "girsanov",
    "oracle-compare",
)


def _diag(**kw) -> None:
    sys.stderr.write(json.dumps(kw, sort_keys=True, default=str) + "\n")


def _config_hash(doc: dict) -> str:
    trimmed = {k: v for k, v in doc.items() if k != "output"}
    return hashlib.sha256(
        json.dumps(trimmed, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _require(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r} in {ctx}")
    return doc[key]


def _section(doc: dict, key: str) -> dict:
    """The config's ``key`` object, empty when absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {json.dumps(value)}")
    return value


_OUTPUT_NAMES = ("results", "csv", "bundle")


def _output(doc: dict) -> dict:
    """The config's ``output`` object, whose file names are non-empty strings."""
    out = _section(doc, "output")
    for key in _OUTPUT_NAMES:
        if key in out and not (isinstance(out[key], str) and out[key]):
            raise ConfigError(f"output.{key} must be a file name, got {json.dumps(out[key])}")
    return out


@contextmanager
def _checked(ctx: str):
    """Raise a value that a conversion (``float``, ``int``) or a validating
    constructor (``PathConfig``, ``LatticeSpec``, ...) rejects in this block,
    a key that a JSON reader misses, or a file that cannot be opened, read or
    made, as a config error about ``ctx``."""
    try:
        yield
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{ctx}: missing key {exc}") from exc


def _whole(key: str, value) -> int:
    """``value`` as an int; ValueError naming ``key`` for a bool or a
    fraction, which ``int`` would take as 1 or truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _path_config(doc: dict, seed: int) -> PathConfig:
    sim = _section(doc, "sim")
    for key in ("dt", "n_paths", "horizon"):
        _require(sim, key, "sim")
    record = sim.get("record", "auto")
    with _checked("sim"):
        return PathConfig(
            dt=float(sim["dt"]),
            seed=seed,
            n_paths=_whole("sim.n_paths", sim["n_paths"]),
            horizon=float(sim["horizon"]),
            scheme=sim.get("scheme", "euler-projected"),
            log_clamp_eps=float(sim.get("log_clamp_eps", 1e-12)),
            record=record if isinstance(record, str) else tuple(record),
        )


def _finite(**values) -> None:
    """ValueError for a given value (a time, a radius) that is not finite."""
    for key, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{key} must be finite, got {v}")


def _check_stderr_paths(ctx: str, config: PathConfig) -> None:
    if config.n_paths < 2:
        raise ConfigError(
            f"{ctx}: a standard error needs sim.n_paths >= 2, got {config.n_paths}"
        )


def _load_model(doc: dict):
    model = _require(doc, "model", "config")
    with _checked("model"):
        if isinstance(model, str):
            with open(model) as fh:
                model = json.load(fh)
        return operator_from_json(model)


def _load_domain(doc: dict, dims: StateSpaceDims) -> DomainSpec:
    if "domain" not in doc:
        return DomainSpec.full_space(dims)
    dom = doc["domain"]
    with _checked("domain"):
        if isinstance(dom, str):
            with open(dom) as fh:
                dom = json.load(fh)
        return DomainSpec.from_json(dom)


def _coeffs_for(model, variant: str):
    if isinstance(model, StandardOperatorSpec):
        if variant == "standard":
            return build_standard_sde_coefficients(model)
        sing = derive_singular_from_standard(model)
        return build_sde_coefficients(sing)
    if variant == "standard":
        raise ConfigError("standard variant requested for a divergence-form model")
    return build_sde_coefficients(model)


def _load_run(doc: dict, seed: int):
    """``(model, variant, coeffs, domain, config)`` of a simulating command."""
    model = _load_model(doc)
    default = "singular" if isinstance(model, SingularOperatorSpec) else "standard"
    variant = doc.get("variant", default)
    if variant not in ("standard", "singular"):
        raise ConfigError(f"variant must be 'standard' or 'singular', got {variant!r}")
    coeffs = _coeffs_for(model, variant)
    domain = _load_domain(doc, model.dims)
    return model, variant, coeffs, domain, _path_config(doc, seed)


def _payoff(doc, dims: StateSpaceDims):
    """Built-in payoffs: 'one', {'coordinate': i}, {'exp-neg': i}, or a field."""
    if doc in (None, "one", 1):
        return lambda states: np.ones(np.asarray(states).shape[0])

    def index(key) -> int:
        i = _whole(f"{key} index", doc[key])
        if not 0 <= i < dims.total:
            raise ValueError(f"{key} index {i} outside 0..{dims.total - 1}")
        return i

    with _checked("payoff"):
        if isinstance(doc, dict) and "coordinate" in doc:
            i = index("coordinate")
            return lambda states: np.asarray(states)[:, i]
        if isinstance(doc, dict) and "exp-neg" in doc:
            i = index("exp-neg")
            return lambda states: np.exp(-np.asarray(states)[:, i])
        return field_from_json(doc, dims.total).evaluate_batch


def _point(doc: dict, key: str, dims: StateSpaceDims) -> Point:
    with _checked(key):
        values = np.asarray(_require(doc, key, "config"), dtype=float)
        return Point.from_vector(dims, values)


def _write_results(out_dir: str, doc: dict, name: str = "results.json") -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_csv(out_dir: str, doc: dict, default: str, header, rows) -> str:
    """Write ``rows`` under the config's ``output.csv`` name; returns the name."""
    name = _output(doc).get("csv", default)
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return os.path.basename(name)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_validate(doc, seed, out_dir, threads) -> tuple[int, dict]:
    op = _load_model(doc)
    grid_cfg = _section(doc, "grid")
    with _checked("grid"):
        x_hi = float(grid_cfg.get("x_hi", 1.0))
        y_lo, y_hi = (float(v) for v in grid_cfg.get("y_box", (-1.0, 1.0)))
        _finite(x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)
        grid = make_validation_grid(
            op.dims,
            x_hi=x_hi,
            y_box=(y_lo, y_hi),
            points_per_axis=_whole("grid.points_per_axis", grid_cfg.get("points_per_axis", 9)),
        )
    report = validate_assumptions(op, grid)
    result = {
        "passed": report.passed,
        "delta": report.form_min,
        "K": report.form_max,
        "b_bar": report.inferred.b_bar if report.inferred else None,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return (0 if report.passed else 2), result


def _cmd_simulate(doc, seed, out_dir, threads) -> tuple[int, dict]:
    model, variant, coeffs, domain, config = _load_run(doc, seed)
    z0 = _point(doc, "z0", model.dims)
    if not isinstance(config.record, str) and all(
        grid_steps(t, config.dt) != config.n_steps for t in config.record
    ):
        raise ConfigError(
            f"sim.record must hold the horizon {config.horizon}, whose states "
            "the simulate command reports"
        )
    bundle = simulate_bundle(coeffs, z0, domain, config, n_threads=threads)
    out = _output(doc)
    bundle_path = os.path.join(out_dir, out.get("bundle", "bundle.kimb"))
    bundle_to_kimb(bundle, bundle_path, model.dims)
    if "csv" in out:
        bundle_to_csv(bundle, os.path.join(out_dir, out["csv"]), dims=model.dims)
    final = bundle.states[:, -1]
    result = {
        "variant": variant,
        "n_paths": bundle.n_paths,
        "exit_fraction": float(bundle.exited.mean()),
        "mean_tau": float(bundle.tau.mean()),
        "mean_final_state": [float(v) for v in final.mean(axis=0)],
        "bundle": os.path.basename(bundle_path),
    }
    return 0, result


def _cmd_fk(doc, seed, out_dir, threads) -> tuple[int, dict]:
    model, _, coeffs, domain, config = _load_run(doc, seed)
    z0 = _point(doc, "z0", model.dims)
    _check_stderr_paths("fk", config)
    mode = doc.get("mode", "semigroup")
    with _checked("fk"):
        t = float(_require(doc, "t", "config"))
        t1 = float(doc.get("t1", 0.0))
        t_cut = doc.get("t_cut")
        t_cut = None if t_cut is None else float(t_cut)
        _finite(t=t, t1=t1, t_cut=t_cut)
        if mode == "semigroup" and not t > 0.0:
            raise ValueError(f"a semigroup needs t > 0, got t = {t}")
        if mode == "dirichlet" and not t >= t1:
            raise ValueError(f"a Dirichlet run needs t >= t1, got t = {t}, t1 = {t1}")
        if mode == "dirichlet" and t_cut is not None and not t_cut > t1:
            raise ValueError(f"a Dirichlet run needs t_cut > t1, got t_cut = {t_cut}, t1 = {t1}")
    if mode == "semigroup":
        f = _payoff(doc.get("f"), model.dims)
        est = estimate_semigroup(coeffs, f, t, z0, domain, config, n_threads=threads)
    elif mode == "dirichlet":
        g_state = _payoff(doc.get("g"), model.dims)
        gdata = BoundaryData(lambda times, states: g_state(states))
        est = estimate_dirichlet(
            coeffs, gdata, t, z0, t1, domain, config,
            t_cut=t_cut, n_threads=threads,
        )
    else:
        raise ConfigError(f"unknown fk mode {mode!r}")
    return 0, {"mode": mode, "estimate": est.to_json(seed=seed)}


def _cmd_density(doc, seed, out_dir, threads) -> tuple[int, dict]:
    model, _, coeffs, domain, config = _load_run(doc, seed)
    z0 = _point(doc, "z0", model.dims)
    grid_doc = _section(doc, "grid")
    with _checked("density"):
        t = float(doc.get("t", config.horizon))
        grid = GridSpec(
            box=tuple(tuple(float(v) for v in b) for b in _require(grid_doc, "box", "grid")),
            cells_per_axis=_whole("grid.cells", grid_doc.get("cells", 64)),
        )
        # steps after t change no state nor stop time at t
        cfg = replace(config, record=(0.0, t), horizon=max(t, config.dt))
    kind = doc.get("measure", "lebesgue")
    if kind not in ("lebesgue", "operator"):
        raise ConfigError(f"measure must be 'lebesgue' or 'operator', got {kind!r}")
    measure = None
    if kind == "operator":
        sing = coeffs.source
        if not isinstance(sing, SingularOperatorSpec):
            sing = derive_singular_from_standard(model)
        measure = sing.measure()
    bundle = simulate_bundle(coeffs, z0, domain, cfg, n_threads=threads)
    est = estimate_density(bundle, t, grid, measure=measure)
    mesh = np.meshgrid(*est.cell_centers(), indexing="ij")
    rows = (
        [f"{g[idx]:.12g}" for g in mesh]
        + [f"{est.cell_mu[idx]:.12g}", f"{est.values[idx]:.12g}"]
        for idx in np.ndindex(*est.values.shape)
    )
    header = [f"c{j}" for j in range(len(mesh))] + ["cell_mu", "density"]
    result = {
        "t": t,
        "survival_mass": est.survival_mass,
        "in_box_mass": est.in_box_mass,
        "weighted_mass": check_mass(est),
        "csv": _write_csv(out_dir, doc, "density.csv", header, rows),
    }
    return 0, result


def _cmd_harnack(doc, seed, out_dir, threads) -> tuple[int, dict]:
    model, _, coeffs, domain, config = _load_run(doc, seed)
    dims = model.dims
    z = _point(doc, "z", dims)
    _check_stderr_paths("harnack", config)
    with _checked("harnack"):
        s = float(_require(doc, "s", "config"))
        R = float(_require(doc, "R", "config"))
        c = float(doc.get("c", 0.9))
        d = float(doc.get("d", math.sqrt(0.8)))
        fractions = [float(f) for f in doc.get("rho_fractions", (0.1, 0.2, 0.4))]
        lat = _section(doc, "lattice")
        lattice = LatticeSpec(
            _whole("lattice.n_time", lat.get("n_time", 3)),
            _whole("lattice.n_space", lat.get("n_space", 5)),
        )
        t1 = float(doc.get("t1", 0.0))
        _finite(s=s, R=R, c=c, t1=t1)
    if not (R > 0.0 and c > 0.0 and fractions and all(0.0 < f < 1.0 for f in fractions)):
        raise ConfigError(
            f"need R > 0, c > 0 and a non-empty rho_fractions in (0, 1), "
            f"got R={R}, c={c}, {fractions}"
        )
    g_state = _payoff(doc.get("g"), dims)
    gdata = BoundaryData(lambda times, states: g_state(states))

    def u_nodes(nodes):
        earliest = min(t for t, _ in nodes)
        if earliest < t1:
            raise ConfigError(
                f"t1 = {t1} is later than the scan's earliest lattice time {earliest:.6g}"
            )
        return estimate_dirichlet_nodes(
            coeffs, gdata, nodes, t1, domain, config, n_threads=threads
        )

    reports = scale_invariant_scan(
        u_nodes, s, z, R, c, d, [f * c * R for f in fractions], lattice
    )
    rows = [[f"{rep.radius:.12g}", f"{rep.ratio:.12g}"] for rep in reports]
    finite = [r.ratio for r in reports if math.isfinite(r.ratio)]
    result = {
        "reports": [r.to_json() for r in reports],
        "max_ratio": max(finite) if finite else None,
        "csv": _write_csv(out_dir, doc, "harnack.csv", ["rho", "ratio"], rows),
    }
    return 0, result


def _cmd_girsanov(doc, seed, out_dir, threads) -> tuple[int, dict]:
    model = _load_model(doc)
    if not isinstance(model, StandardOperatorSpec):
        raise ConfigError("girsanov runs need a standard-form model")
    config = _path_config(doc, seed)
    _check_stderr_paths("girsanov", config)
    with _checked("girsanov"):
        t = float(doc.get("t", config.horizon))
        n_steps = grid_steps(t, config.dt)
    if n_steps < 1:
        raise ConfigError(f"girsanov: t = {t} must be at least sim.dt = {config.dt}")
    std = build_standard_sde_coefficients(model)
    sing_spec = derive_singular_from_standard(model)
    sing = build_sde_coefficients(sing_spec)
    theta = make_girsanov_field(std, sing)
    domain = _load_domain(doc, model.dims)
    z0 = _point(doc, "z0", model.dims)
    payoff = _payoff(doc.get("f", {"exp-neg": 0}), model.dims)
    # a handful of weight marks keeps memory flat for large bundles
    mark_steps = sorted({round(n_steps * i / 10) for i in range(11)} - {0})
    marks = tuple(k * config.dt for k in mark_steps)
    cfg = replace(config, horizon=t, record=(0.0,) + marks)
    # both equations step on one draw: common random numbers, so the
    # difference is measured path by path
    b_std, b_sing = simulate_bundle(
        (std, sing), z0, domain, cfg, theta=theta, n_threads=threads
    ).per_equation()
    f_std = payoff(b_std.states_at(t))
    w = weights_from_log(b_sing.log_weights[:, -1])
    f_sing = w * payoff(b_sing.states_at(t))
    se = float((f_std - f_sing).std(ddof=1)) / math.sqrt(len(f_std))
    mean_weights = {
        f"{tt:.6g}": float(np.exp(b_sing.log_weights[:, r]).mean())
        for r, tt in enumerate(b_sing.record_times)
    }
    result = {
        "standard_mean": float(f_std.mean()),
        "weighted_mean": float(f_sing.mean()),
        "difference": float(f_std.mean() - f_sing.mean()),
        "paired_stderr": se,
        "within_3_stderr": bool(abs(f_std.mean() - f_sing.mean()) <= 3.0 * se),
        "mean_weight_by_time": mean_weights,
    }
    return (0 if result["within_3_stderr"] else 2), result


def _cmd_oracle_compare(doc, seed, out_dir, threads) -> tuple[int, dict]:
    sim = _section(doc, "sim")
    scheme = sim.get("scheme", "exact-1d-gamma")
    with _checked("oracle-compare"):
        b0 = float(doc.get("b0", 0.5))
        x0 = float(doc.get("x0", 0.0))
        t = float(doc.get("t", 1.0))
        n_paths = _whole("sim.n_paths", sim.get("n_paths", 100_000))
        dt = float(sim.get("dt", 1e-3))
        bins = _whole("bins", doc.get("bins", 64))
        box_hi = float(doc.get("box_hi", max(6.0 * max(b0 * t, 1e-3), x0 + 6.0)))
        for key, value in (("b0", b0), ("box_hi", box_hi)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value}")
        if not 0.0 <= x0 < math.inf:
            raise ValueError(f"x0 must be nonnegative and finite, got {x0}")
        if bins < 1:
            raise ValueError(f"bins must be at least 1, got {bins}")
        config = PathConfig(
            dt=dt, seed=seed, n_paths=n_paths, horizon=t, scheme=scheme,
            record=(0.0, t),
        )
    _check_stderr_paths("oracle-compare", config)

    std = operator_from_json(
        {"kind": "standard", "dims": {"n": 1, "m": 0}, "b_hat": [b0]}
    )
    coeffs = build_standard_sde_coefficients(std)
    domain = DomainSpec.full_space(std.dims)
    bundle = simulate_bundle(coeffs, Point((x0,), ()), domain, config,
                             n_threads=threads)
    x = bundle.states_at(t)[:, 0]
    edges = np.linspace(0.0, box_hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    emp_mass = counts / n_paths
    model = Besq1dModel(b0=b0, x0=x0)
    true_mass = besq_transition_mass(model, t, edges)
    tail_true = 1.0 - float(true_mass.sum())
    tail_emp = float((x >= box_hi).mean())
    l1 = float(np.abs(emp_mass - true_mass).sum() + abs(tail_emp - tail_true))
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(n_paths))
    target = besq_mean(model, t)
    result = {
        "b0": b0,
        "x0": x0,
        "t": t,
        "scheme": scheme,
        "l1_error": l1,
        "l1_pass": bool(l1 <= 0.05),
        "mean": mean,
        "mean_target": target,
        "mean_stderr": se,
        "mean_within_3_stderr": bool(abs(mean - target) <= 3.0 * se),
    }
    ok = result["l1_pass"] and result["mean_within_3_stderr"]
    return (0 if ok else 2), result


_HANDLERS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "fk": _cmd_fk,
    "density": _cmd_density,
    "harnack": _cmd_harnack,
    "girsanov": _cmd_girsanov,
    "oracle-compare": _cmd_oracle_compare,
}


def main(argv=None) -> int:
    # Shutdown collects everything NumPy and the package leave tracked (tens
    # of ms); frozen objects are skipped.  Freezing only at exit leaves a
    # caller's collector as it was, and unregistering first keeps one hook.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(
        prog="kimura-lab",
        description="Run configured degenerate-diffusion experiments.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="optional; must match the config's command")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap (KIMURA_LAB_THREADS as fallback)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _diag(level="error", kind="config", message=str(exc))
        return 2

    try:
        threads, source = args.threads, "--threads"
        if threads is None:
            source = "KIMURA_LAB_THREADS"
            with _checked(source):
                threads = int(os.environ.get(source, "1"))
        if threads < 1:
            raise ConfigError(f"{source} is a worker cap of at least 1, got {threads}")
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        command = doc.get("command")
        if command not in COMMANDS:
            raise ConfigError(f"config command must be one of {COMMANDS}, got {command!r}")
        if args.command is not None and args.command != command:
            raise ConfigError(
                f"command line says {args.command!r}, config says {command!r}"
            )
        seed = args.seed if args.seed is not None else doc.get("seed")
        if seed is None:
            raise ConfigError("a seed is mandatory (config 'seed' or --seed)")
        with _checked("seed"):
            seed = _whole("seed", seed)
            if not 0 <= seed < 2**64:
                raise ValueError(f"a seed is a U64, got {seed}")
        resolved = dict(doc)
        resolved["seed"] = seed
        chash = _config_hash(resolved)
        output = _output(doc)
        out_name = output.get("results", "results.json")
        with _checked("--out"):
            os.makedirs(args.out, exist_ok=True)
        for key in _OUTPUT_NAMES:
            folder = os.path.dirname(os.path.join(args.out, output.get(key, "")))
            if not os.path.isdir(folder):
                raise ConfigError(f"output.{key}: {folder!r} is not a directory")
        code, result = _HANDLERS[command](resolved, seed, args.out, threads)
        payload = {"command": command, "config_hash": chash, "seed": seed}
        payload.update(result)
        path = _write_results(args.out, payload, out_name)
        print(f"{command} {'ok' if code == 0 else 'FAIL'} config={chash} -> {path}")
        return code
    except ConfigError as exc:
        _diag(level="error", kind="config", message=str(exc))
        return 2
    except NumericFailureError as exc:
        _diag(level="error", kind="numeric", message=str(exc))
        return 3
    except KimuraLabError as exc:
        _diag(level="error", kind=type(exc).__name__, message=str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
