"""Monte Carlo evaluation of the stochastic representations.

Every estimator here runs stopped paths and reduces per-path payoffs into an
:class:`Estimate` carrying value, standard error, and the effective sample
size under weights.  Cross-checks pin common random numbers through the
configuration seed, so monotonicity-style properties hold pathwise rather
than merely statistically.

The Dirichlet nodes of one call share one bundle and are read once per
distinct node time and run of consecutive starts with a node at that time:
one stop-state read and one boundary-data call over the paths of the run,
and the estimates of its starts as row-wise reductions of a
(starts, paths) array, which give the bits of each start's paths reduced
alone.
"""

from __future__ import annotations

import math
from dataclasses import field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryDataGapError,
    InvalidTestFunctionError,
    WeightBlowupError,
)
from .fields import TestFunction
from .geometry import DomainSpec, Point, StateSpaceDims
from .operators import SingularOperatorSpec, apply_generator_batch
from .records import record
from .sde import GirsanovField, SdeCoefficients, StandardSdeCoefficients
from .simulate import (
    PathBundle,
    PathConfig,
    config_fingerprint,
    grid_bracket,
    grid_steps,
    simulate_bundle,
)

__all__ = [
    "Estimate",
    "BoundaryData",
    "estimate_semigroup",
    "estimate_dirichlet",
    "estimate_dirichlet_nodes",
    "estimate_inhomogeneous",
    "estimate_probabilistic_solution",
    "exp_moment_diagnostic",
    "martingale_residual",
    "RunningIntegralObserver",
    "weights_from_log",
]

UNTRUSTED_ESS = 100.0
LOG_WEIGHT_CAP = 700.0
# paths of one read of the Dirichlet nodes: its arrays stay in cache
READ_PATHS = 16_384


@record
class Estimate:
    """Monte Carlo estimate with error bar and weighting diagnostics."""

    value: float
    stderr: float
    n_paths: int
    n_effective: float
    fingerprint: str
    trusted: bool = True
    flag: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    def to_json(self, seed: int | None = None) -> dict:
        doc = {
            "value": self.value,
            "stderr": self.stderr,
            "n_paths": self.n_paths,
            "n_effective": self.n_effective,
            "config_hash": self.fingerprint,
        }
        if seed is not None:
            doc["seed"] = seed
        if self.flag:
            doc["flag"] = self.flag
        return doc


def _reduce(samples: np.ndarray, weights: np.ndarray | None, fingerprint: str,
            flag: str = "", extra: dict | None = None) -> Estimate:
    """One estimate from the per-path ``samples`` (and ``weights``)."""
    w = None if weights is None else np.asarray(weights, dtype=float)[None]
    return _reduce_rows(np.asarray(samples, dtype=float)[None], w, [fingerprint],
                        flag, extra)[0]


def _reduce_rows(samples: np.ndarray, weights: np.ndarray | None, fingerprints: Sequence[str],
                 flag: str = "", extra: dict | None = None) -> list[Estimate]:
    """One estimate per row of ``samples``, shape (rows, paths), with the
    weights of the same shape; each reduction runs along a row, which gives
    the bits of the row reduced alone."""
    rows, n = samples.shape
    # the ufuncs of ``samples.mean(axis=1)`` and ``samples.std(ddof=1,
    # axis=1)`` without their Python layers, the row sums taken once
    values = np.add.reduce(samples, axis=1) / n
    if n > 1:
        dev = samples - values[:, None]
        np.square(dev, out=dev)
        stderrs = np.sqrt(np.add.reduce(dev, axis=1) / (n - 1)) / math.sqrt(n)
    else:
        stderrs = np.zeros(rows)
    if weights is None:
        ess = [float(n)] * rows
    else:
        denoms = np.sum(weights * weights, axis=1)
        sums = np.sum(weights, axis=1)
        ess = [float(s) ** 2 / float(d) if d > 0.0 else 0.0 for s, d in zip(sums, denoms)]
    return [
        Estimate(
            value=float(value),
            stderr=float(stderr),
            n_paths=n,
            n_effective=e,
            fingerprint=fp,
            trusted=e >= UNTRUSTED_ESS,
            flag=flag,
            extra=dict(extra or {}),
        )
        for value, stderr, e, fp in zip(values, stderrs, ess, fingerprints)
    ]


class BoundaryData:
    """Data on the parabolic boundary (initial slice plus lateral boundary).

    ``fn(times, states)`` must accept arrays (N,), (N, d) and return (N,).
    Non-finite values raise :class:`BoundaryDataGapError` with the offending
    point.
    """

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        vals = np.asarray(self.fn(times, states), dtype=float)
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise BoundaryDataGapError(
                f"boundary data undefined at t={times[i]}, z={states[i]}"
            )
        return vals


class RunningIntegralObserver:
    """Trapezoid accumulation of ``integrand(path_time, state)`` while alive.

    The node at the exit step is included (half weight), matching the stopped
    time integral on the grid.  The integrand is evaluated once per grid node:
    a step's start node is the previous step's end node, whose value each
    path slot keeps.  Snapshots are taken at the requested grid times; blocks
    write disjoint slices so concurrent execution is safe.
    """

    def __init__(self, integrand: Callable, snapshot_times: Sequence[float]):
        self.integrand = integrand
        self.snapshot_times = [float(t) for t in snapshot_times]
        self.totals: np.ndarray | None = None
        self.snapshots: dict[float, np.ndarray] = {}
        self._dt = None

    def prepare(self, n_paths: int, dims: StateSpaceDims, config: PathConfig) -> None:
        self.totals = np.zeros(n_paths)
        self._last = np.zeros(n_paths)
        self.snapshots = {
            t: np.zeros(n_paths) for t in self.snapshot_times
        }
        self._dt = config.dt
        self._snap_steps = {grid_steps(t, config.dt): t for t in self.snapshot_times}

    def observe(self, sl, k, t, prev, new, alive, logw=None) -> None:
        if k == 1:
            self._last[sl] = self.integrand(0.0, prev)
        g_new = np.asarray(self.integrand(t, new), dtype=float)
        # the sum reads the start values before the slots take the end values
        add = 0.5 * self._dt * (self._last[sl] + g_new)
        self._last[sl] = g_new
        self.totals[sl] += np.where(alive, add, 0.0)
        if k in self._snap_steps:
            self.snapshots[self._snap_steps[k]][sl] = self.totals[sl]


def weights_from_log(logw: np.ndarray) -> np.ndarray:
    """Drift-change weights ``exp(logw)`` from final log weights.

    Raises :class:`WeightBlowupError` when a log weight is not finite or
    exceeds ``LOG_WEIGHT_CAP`` in size, where ``exp`` overflows float64.
    """
    logw = np.asarray(logw, dtype=float)
    if not np.isfinite(logw).all():
        raise WeightBlowupError("a drift-change log weight is not finite")
    peak = float(np.abs(logw).max(initial=0.0))
    if peak > LOG_WEIGHT_CAP:
        raise WeightBlowupError(
            f"|log weight| reached {peak:.1f}; the drift-change exponent "
            "overflows float64 at this horizon"
        )
    return np.exp(logw)


def _as_state_fn(f) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(f, TestFunction):
        return f.value
    return f


def _read_at(t: float, dt: float, read: Callable[[int], np.ndarray]) -> np.ndarray:
    """Per-path values at time ``t`` from ``read(k)``, the values at grid
    step ``k``: step ``k`` itself on the grid, else ``p + lam (q - p)`` from
    the bracketing steps of :func:`simulate.grid_bracket`."""
    k, lam = grid_bracket(t, dt)
    p = read(k)
    if not lam:
        return p
    return p + lam * (read(k + 1) - p)


def _grid_run(config: PathConfig, times: Sequence[float]) -> PathConfig:
    """``config`` on its own ``dt``, run to the last grid step that
    :func:`_read_at` needs for ``times`` and recording only the steps it reads."""
    steps = set()
    for t in times:
        k, lam = grid_bracket(t, config.dt)
        steps.update((k, k + 1) if lam else (k,))
    return replace(config, horizon=max(max(steps), 1) * config.dt,
                   record=tuple(j * config.dt for j in sorted(steps)))


def estimate_semigroup(
    coeffs: SdeCoefficients | StandardSdeCoefficients,
    f,
    t: float,
    z0: Point,
    domain: DomainSpec,
    config: PathConfig,
    n_threads: int = 1,
) -> Estimate:
    """Killed-semigroup action ``E[ f(Z(t)) 1_{t < tau} ]`` at ``z0``:
    :func:`estimate_inhomogeneous` without a source.

    Exited paths contribute 0, so with ``f == 1`` this is the survival
    probability (identically 1 on the full space).
    """
    return estimate_inhomogeneous(coeffs, f, None, t, z0, domain, config, n_threads=n_threads)


def estimate_dirichlet(
    coeffs,
    gdata: BoundaryData,
    t: float,
    z0: Point,
    t1: float,
    domain: DomainSpec,
    config: PathConfig,
    t_cut: float | None = None,
    n_threads: int = 1,
) -> Estimate:
    """Stopped-boundary representation ``E[g(t - stop, Z(stop))]`` with
    ``stop = (t - t1) ^ tau``; with ``t_cut`` (later than ``t1``) the payoff is
    truncated by the indicator ``stop < t_cut - t1``.
    """
    return estimate_dirichlet_nodes(
        coeffs, gdata, [(t, z0)], t1, domain, config, t_cut=t_cut, n_threads=n_threads
    )[0]


def estimate_dirichlet_nodes(
    coeffs,
    gdata: BoundaryData,
    nodes: Sequence[tuple[float, Point]],
    t1: float,
    domain: DomainSpec,
    config: PathConfig,
    t_cut: float | None = None,
    n_threads: int = 1,
    theta: GirsanovField | None = None,
) -> list[Estimate]:
    """:func:`estimate_dirichlet` at every ``(t, z0)`` node, in node order.

    One bundle on ``config.dt`` serves every node: each distinct start point
    is one of its start points, and each node reads its horizon ``t - t1``
    from its own start's paths, blending the bracketing grid steps when the
    horizon is off the grid (:func:`simulate.grid_bracket`).  The reads run
    once per distinct node time and run of consecutive starts with a node at
    that time (of at most ``READ_PATHS`` paths): the stopped states and
    ``gdata`` over the run's paths, and each start's mean and standard error
    along its row.  Every estimate, fingerprint included, is bit-equal to a call with that
    node alone.  With ``theta`` the payoff carries the drift-change weight
    ``M(stop)``: the estimate is ``E[M(stop) g(t - stop, Z(stop))]``, with
    ``M`` from :func:`weights_from_log`, and the weights blend like the
    payoffs.
    """
    if t_cut is not None and not t_cut > t1:
        raise ValueError("t_cut must be > t1")
    dom = domain.to_json()
    fingerprints: dict[str, str] = {}

    def fingerprint(t: float) -> str:
        # one dump and hash per distinct t, keyed by repr: 0.0 == -0.0, yet
        # the two dump differently
        key = repr(t)
        if key not in fingerprints:
            fingerprints[key] = config_fingerprint(
                config, op="dirichlet", t=t, t1=t1, domain=dom, theta=theta is not None
            )
        return fingerprints[key]

    out: list[Estimate | None] = [None] * len(nodes)
    # each distinct start point, by its index in the bundle, and each
    # node's start
    starts: dict[tuple[float, ...], int] = {}
    points: list[Point] = []
    start_of: dict[int, int] = {}
    # the nodes at each distinct time, keyed as the fingerprints are
    at_time: dict[str, tuple[float, list[int]]] = {}
    for i, (t, z0) in enumerate(nodes):
        horizon = t - t1
        if horizon < 0.0:
            raise ValueError("t must be >= t1")
        if horizon == 0.0:
            v = float(gdata(np.array([t1]), z0.vector[None, :])[0])
            out[i] = Estimate(v, 0.0, config.n_paths, float(config.n_paths), fingerprint(t))
        else:
            start_of[i] = starts.setdefault(tuple(z0.vector), len(points))
            if start_of[i] == len(points):
                points.append(z0)
            at_time.setdefault(repr(t), (t, []))[1].append(i)
    if not starts:
        return out
    cfg = _grid_run(config, [t - t1 for t, _ in at_time.values()])
    bundle = simulate_bundle(
        coeffs, points, domain, cfg, theta=theta, n_threads=n_threads,
    )
    n = cfg.n_paths
    views: dict[tuple[int, int], PathBundle] = {}

    def read_starts(t: float, lo: int, hi: int, members: list[int]) -> None:
        """The estimates of the nodes at ``t`` of the starts ``lo .. hi - 1``."""
        if (lo, hi) not in views:
            views[lo, hi] = bundle.starts(lo, hi)
        part = views[lo, hi]

        def read(k: int) -> np.ndarray:
            """The payoffs of grid step ``k``, a row per start, stacked over
            their weights with ``theta``."""
            stop_state, stop_time = part.stop_states(k * cfg.dt)
            payoff = gdata(t - stop_time, stop_state)
            if t_cut is not None:
                payoff = payoff * (stop_time < t_cut - t1)
            if theta is None:
                return payoff.reshape(hi - lo, n)
            # the log weight freezes at exit, so at step k it is log M(k dt ^ tau)
            w = weights_from_log(part.log_weights[:, part.record_index(k * cfg.dt)])
            return np.stack((w * payoff, w)).reshape(2, hi - lo, n)

        vals = _read_at(t - t1, cfg.dt, read)
        fps = [fingerprint(t)] * (hi - lo)
        if theta is None:
            ests = _reduce_rows(vals, None, fps)
        else:
            ests = _reduce_rows(vals[0], vals[1], fps)
        for i in members:
            if lo <= start_of[i] < hi:
                out[i] = ests[start_of[i] - lo]

    # one read per run of consecutive starts with a node at a time, of at
    # most READ_PATHS paths, so that its arrays stay in cache; the reads of
    # one run follow each other
    per_read = max(READ_PATHS // n, 1)
    reads = []
    for t, members in at_time.values():
        runs: list[list[int]] = []
        for s in sorted({start_of[i] for i in members}):
            if runs and runs[-1][1] == s and s - runs[-1][0] < per_read:
                runs[-1][1] += 1
            else:
                runs.append([s, s + 1])
        reads += [(lo, hi, t, members) for lo, hi in runs]
    for lo, hi, t, members in sorted(reads, key=lambda read: read[:2]):
        read_starts(t, lo, hi, members)
    return out


def estimate_inhomogeneous(
    coeffs,
    f,
    gsrc,
    t: float,
    z0: Point,
    domain: DomainSpec,
    config: PathConfig,
    t1: float = 0.0,
    n_threads: int = 1,
) -> Estimate:
    """Killed semigroup plus source contribution along alive path prefixes.

    ``E[f(Z(h)) 1_{h < tau}] + E[int_0^{h ^ tau} gsrc(t - r, Z(r)) dr]`` with
    ``h = t - t1``; the source is integrated by the trapezoid rule on the
    simulation grid.  An ``h`` off the grid blends the per-path values of
    the bracketing grid steps (:func:`simulate.grid_bracket`).
    """
    horizon = t - t1
    if horizon <= 0.0:
        raise ValueError("t must exceed t1")
    cfg = _grid_run(config, [horizon])
    obs = None
    observers = ()
    if gsrc is not None:
        obs = RunningIntegralObserver(
            lambda r, states: gsrc(t - r, states), snapshot_times=cfg.record
        )
        observers = (obs,)
    bundle = simulate_bundle(
        coeffs, z0, domain, cfg, n_threads=n_threads, observers=observers
    )

    def read(k: int) -> np.ndarray:
        s = k * cfg.dt
        alive = bundle.alive_at(s)
        vals = np.zeros(bundle.n_paths)
        if f is not None and alive.any():
            vals[alive] = _as_state_fn(f)(bundle.states_at(s)[alive])
        return vals if obs is None else vals + obs.snapshots[s]

    fp = config_fingerprint(config, op="inhomogeneous", t=t, t1=t1, domain=domain.to_json())
    return _reduce(_read_at(horizon, cfg.dt, read), None, fp)


def estimate_probabilistic_solution(
    coeffs: SdeCoefficients,
    u_boundary: BoundaryData,
    t: float,
    z0: Point,
    subcylinder: tuple[float, float, DomainSpec],
    theta: GirsanovField,
    config: PathConfig,
    n_threads: int = 1,
) -> Estimate:
    """Weighted stopped representation ``E[M(stop) u(t - stop, Z(stop))]``.

    ``subcylinder`` is ``(t1', t2', domain')``; paths run under the
    divergence-form dynamics while the weight ``M`` carries the drift change
    back to the standard model (see :func:`estimate_dirichlet_nodes`).
    """
    t1p, t2p, domain_p = subcylinder
    if not (t1p <= t <= t2p):
        raise ValueError("t must lie inside the subcylinder time interval")
    return estimate_dirichlet_nodes(
        coeffs, u_boundary, [(t, z0)], t1p, domain_p, config, n_threads=n_threads,
        theta=theta,
    )[0]


def exp_moment_diagnostic(
    std_coeffs: StandardSdeCoefficients,
    theta: GirsanovField,
    z0: Point,
    T: float,
    config: PathConfig,
    n_threads: int = 1,
) -> Estimate:
    """Exponential moment ``E[exp(9 int_0^T |theta(Z^(t))|^2 dt)]``.

    Runs the standard-side dynamics on the full space.  Overflow is reported
    as an infinite value with an "overflow" flag instead of an exception; the
    extra payload carries a heavy-tail indicator (max/mean of the samples).
    A ``T`` off the grid blends the accumulated integral of the bracketing
    grid steps before ``exp``.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    domain = DomainSpec.full_space(std_coeffs.dims)

    def integrand(r, states):
        th = theta.theta_batch(states, config.log_clamp_eps)
        return 9.0 * np.einsum("pi,pi->p", th, th)

    cfg = _grid_run(config, [T])
    obs = RunningIntegralObserver(integrand, snapshot_times=cfg.record)
    bundle = simulate_bundle(
        std_coeffs, z0, domain, cfg, n_threads=n_threads, observers=(obs,)
    )
    acc = _read_at(T, cfg.dt, lambda k: obs.snapshots[k * cfg.dt])
    fp = config_fingerprint(config, op="exp_moment", t=T)
    if np.any(acc > LOG_WEIGHT_CAP):
        return Estimate(
            value=math.inf,
            stderr=math.inf,
            n_paths=bundle.n_paths,
            n_effective=float(bundle.n_paths),
            fingerprint=fp,
            trusted=False,
            flag="overflow",
            extra={"overflow_fraction": float(np.mean(acc > LOG_WEIGHT_CAP))},
        )
    samples = np.exp(acc)
    mean = float(samples.mean())
    heavy = float(samples.max() / mean) if mean > 0.0 else math.inf
    return _reduce(samples, None, fp, extra={"max_over_mean": heavy})


def martingale_residual(
    op: SingularOperatorSpec,
    coeffs: SdeCoefficients,
    phi: TestFunction,
    z0: Point,
    domain: DomainSpec,
    time_grid: Sequence[float],
    config: PathConfig,
    n_threads: int = 1,
) -> list[Estimate]:
    """Residuals ``E[phi(Z(t ^ tau)) - phi(z0) - int_0^{t ^ tau} L phi]``.

    A weak solution of the stopped dynamics makes every residual vanish; the
    discrete scheme leaves an O(dt) offset.  ``phi`` must declare a compact
    support contained in the domain (plus its degenerate faces).
    """
    if phi.support_box is None:
        raise InvalidTestFunctionError("test function must declare a compact support")
    for axis, (lo, hi) in enumerate(phi.support_box):
        dlo, dhi = domain.bounding_box[axis]
        lo_ok = lo >= dlo - 1e-12 if (axis < domain.dims.n and dlo == 0.0) else lo > dlo
        if not (lo_ok and hi < dhi):
            raise InvalidTestFunctionError(
                f"support axis {axis} = [{lo}, {hi}] not inside domain "
                f"({dlo}, {dhi})"
            )
    times = sorted(float(t) for t in time_grid)
    if not times or times[0] < 0.0:
        raise ValueError("time grid must be nonnegative")
    horizon = times[-1]

    def integrand(r, states):
        return apply_generator_batch(op, phi, states, config.log_clamp_eps)

    obs = RunningIntegralObserver(integrand, snapshot_times=times)
    record = tuple(t for t in times if t > 0.0)
    cfg = replace(config, horizon=horizon, record=(0.0,) + record)
    bundle = simulate_bundle(
        coeffs, z0, domain, cfg, n_threads=n_threads, observers=(obs,)
    )
    phi0 = float(phi.value(z0.vector[None, :])[0])
    out = []
    for t in times:
        if t == 0.0:
            out.append(
                Estimate(0.0, 0.0, bundle.n_paths, float(bundle.n_paths),
                         bundle.fingerprint, extra={"t": 0.0})
            )
            continue
        states = bundle.states_at(t)  # frozen at exit, i.e. Z(t ^ tau)
        vals = phi.value(states) - phi0 - obs.snapshots[t]
        est = _reduce(vals, None, bundle.fingerprint, extra={"t": t})
        out.append(est)
    return out
