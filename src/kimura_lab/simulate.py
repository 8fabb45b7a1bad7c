"""Time-discrete simulation of the degenerate SDEs with boundary-aware schemes.

Paths are advanced on a fixed grid with one of two schemes: projected Euler
(default; the degenerate coordinates are clipped at 0 after each step) and
exact transition sampling for the separable constant-coefficient
one-dimensional model.  Exit from a domain is detected on the grid (first
grid point outside the domain together with its degenerate faces), after
which the path freezes; no bridge correction is applied, so the exit time
carries an O(sqrt(dt)) bias that is measured rather than corrected.

Randomness is counter-based: normals come from independent Philox streams
keyed by ``(seed, block_index)`` over fixed-size path blocks, so results are
byte-identical for a given configuration no matter how many worker threads
run the blocks.

The streams do not depend on the start point, so one bundle may hold several
start points under one configuration; start ``s`` owns paths
``s * n_paths .. (s + 1) * n_paths - 1`` and draws exactly the normals its own
bundle would.  Starts are packed: the copies of a block from as many starts
as fit in ``PACK_ROWS`` rows form one group, stepped as one array on the
block's normals, which a step broadcasts over the starts; full
``RNG_BLOCK``-path blocks pack too.  Each start's paths are therefore
bit-equal to a bundle of that start alone, while a scan of many starts takes
a few large steps instead of many small ones.  A group draws its block's
normals one step at a time, inside its bound step (below).  The exact
scheme draws from the state, so its starts are never packed; on a domain no
path can leave it steps from one record time to the next in one draw.

Several equations of one dimension share a block's normals as starts do: a
bundle of the standard equation and its weighted divergence-form twin steps
both on each draw, so the drift-change check compares them under common
random numbers for the cost of one draw.  Rows are ordered by equation, then
start, then path; ``PathBundle.per_equation`` splits them into one bundle per
equation, each bit-equal to a run of that equation alone.

Each equation is a lane of every group, and each group steps in one
workspace, made when the group starts: one state array of every lane, the
draw, its noise and the arrays the kernels need on the way.  The equations'
kernels (``drift_batch``, ``noise_batch`` and ``theta_batch`` of
:mod:`kimura_lab.sde`) write into it through ``out``, a weighted lane's
drift and theta reading one log drift; the scheme update, the freeze, the
exit test, the log weights and the record write each run once a step over
every lane.  A step thus allocates nothing the size of
its group, so a large group pays no page faults step after step.  The
ufuncs are those of the unfolded assembly in the same order, so every
output is byte-identical to it.

Every state a step starts from is projected (or a start point): with
``x >= 0``, and finite unless its group is to raise (below).  So the root
is ``sqrt(x)`` with no projection of its own,
and the exit test is the domain's ``exit_test``: of its NumPy comparisons,
only those such a state can fail, not its closed faces ``x_i = 0`` or its
infinite bounds.

A group binds its step once (:mod:`kimura_lab.calls`), before its first
step, as one list of NumPy calls that every step replays.  The list holds
the block's draw of the step's normals, what they give the lanes (the
noise of each lane of state-free root, and ``sqrt(dt)`` times the normals
for the weights), each lane's kernels, the scheme update and the settle.
On a domain no path can leave, the update writes the state array in place and the
settle is the weight update alone.  Else the update writes a second array,
and the settle is the freeze (one ``putmask`` of the live paths' whole
rows into the state array), the weight update of the live paths, the exit
test of the state array (the domain's comparisons bound as ufuncs) and the
marks of the exits it finds, their step and their death.  An exit thus
adds no list and runs no Python.  Constants are bound as floats and ufuncs
take their ``out`` positionally.  Only a step with an observer or a record
write runs more of its own: it calls the observers and writes the
records.

A state that is not finite stays so: NaN and +inf survive the update, the
projection onto ``x >= 0`` and the freeze.  So every group, whatever its
lists hold and whether or not it has observers, steps untested and tests its
states once, after its last step.  Only when that test fails, or a step
raises (an eager entry, ``calls.assign``, that refuses a state that is not
finite), does it step again from its starts, testing each step's states
after the freeze: that raises NumericFailureError at the first step that
left a state not finite, and else the entry raises its own error again.  A
dead path's discarded step is never tested: the freeze leaves it in the
second array.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStartError,
    NumericFailureError,
)
from .calls import NOW, Calls, assign
from .geometry import DomainSpec, Point, StateSpaceDims
from .records import record
from .sde import GirsanovField, SdeCoefficients, StandardSdeCoefficients

__all__ = [
    "PathConfig",
    "PathBundle",
    "grid_bracket",
    "grid_steps",
    "simulate_bundle",
    "config_fingerprint",
    "bundle_to_csv",
    "bundle_to_kimb",
    "read_kimb",
]

RNG_BLOCK = 4096
# rows of one packed step array: from 16 blocks up a scan steps no faster,
# while the group's workspace grows with the budget
PACK_ROWS = 16 * RNG_BLOCK
SCHEMES = ("euler-projected", "exact-1d-gamma")
RECORD_MODES = ("auto", "all", "ends")
_AUTO_RECORD_BUDGET = 64_000_000  # floats


@record
class PathConfig:
    """Simulation grid, scheme, and reproducibility knobs.

    ``record`` selects which grid times are stored in the bundle: "all",
    "ends" (initial and final), an explicit tuple of grid times, or "auto"
    (all when the bundle stays small, ends otherwise).  Explicit times that
    fall on one grid step are recorded once, at the first of them.

    A config is checked once, when it is built: the seed is a U64, the
    horizon lies on the ``dt`` grid, and every explicit record time lies on
    the grid within ``[0, horizon]``.
    """

    dt: float
    seed: int
    n_paths: int
    horizon: float
    scheme: str = "euler-projected"
    log_clamp_eps: float = 1e-12
    record: str | tuple[float, ...] = "auto"

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise ValueError("dt and horizon must be positive and finite")
        if not (0.0 < self.log_clamp_eps < 1.0):
            raise ValueError("log_clamp_eps must lie in (0, 1)")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"a seed is a U64, got {self.seed}")
        grid_steps(self.horizon, self.dt)
        if isinstance(self.record, str):
            if self.record not in RECORD_MODES:
                raise ValueError(f"record must be one of {RECORD_MODES} or a tuple of times")
        else:
            for t in self.record:
                if not 0 <= grid_steps(float(t), self.dt) <= self.n_steps:
                    raise ValueError(f"record time {t} lies outside [0, {self.horizon}]")

    @property
    def n_steps(self) -> int:
        return max(grid_steps(self.horizon, self.dt), 1)

    def grid(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def grid_bracket(t: float, dt: float) -> tuple[int, float]:
    """``(k, lam)`` with ``t = (k + lam) dt``, ``k`` whole and ``0 <= lam < 1``;
    ``lam`` is 0 when ``t`` is within ``1e-9 * max(1, |t|)`` of the grid.

    The one rule for times off the ``dt`` grid: an estimator reads a time
    with ``lam > 0`` by blending each path's values ``p`` at step ``k`` and
    ``q`` at step ``k + 1`` as ``p + lam (q - p)``, so equal values stay exact.
    A time or step that is not finite raises ValueError.
    """
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ValueError(f"time {t} and step {dt} must be finite")
    k = int(round(t / dt))
    if abs(k * dt - t) <= 1e-9 * max(1.0, abs(t)):
        return k, 0.0
    k = math.floor(t / dt)
    return k, t / dt - k


def grid_steps(t: float, dt: float) -> int:
    """``t / dt`` as a whole number of steps: :func:`grid_bracket` with
    ``lam = 0``, else ValueError.

    Horizons, record times, observer snapshots and the command line's times
    all pass this one test.
    """
    k, lam = grid_bracket(t, dt)
    if lam:
        raise ValueError(f"time {t} is not a multiple of dt = {dt}")
    return k


def config_fingerprint(config: PathConfig, **extra) -> str:
    doc = {
        "dt": config.dt,
        "seed": config.seed,
        "n_paths": config.n_paths,
        "horizon": config.horizon,
        "scheme": config.scheme,
        "log_clamp_eps": config.log_clamp_eps,
    }
    doc.update(extra)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


@record
class PathBundle:
    """Immutable result of one simulation run.

    ``states`` holds the recorded snapshots, shape (n_paths, n_recorded, d);
    ``tau`` is the grid exit time (= horizon when the path never left),
    ``exit_state`` the first recorded point outside the domain (the frozen
    state), and ``log_weights`` the running log of the change-of-measure
    weight (None when no drift-change field was attached, zeros on the rows
    of an equation it does not weight).  ``weighted`` holds one flag per
    equation: whether the drift-change field weights its rows.
    """

    config: PathConfig
    domain: DomainSpec
    record_times: np.ndarray
    states: np.ndarray
    tau: np.ndarray
    exited: np.ndarray
    exit_state: np.ndarray
    log_weights: np.ndarray | None
    fingerprint: str
    weighted: tuple[bool, ...]

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_equations(self) -> int:
        return len(self.weighted)

    @property
    def n_starts(self) -> int:
        return self.n_paths // (self.n_equations * self.config.n_paths)

    @property
    def dims_total(self) -> int:
        return self.states.shape[2]

    def _rows(self, lo: int, hi: int) -> "PathBundle":
        """Paths ``lo .. hi - 1`` as a bundle, a view of this bundle's paths."""
        per_path = ("states", "tau", "exited", "exit_state", "log_weights")
        return replace(self, **{
            f: None if getattr(self, f) is None else getattr(self, f)[lo:hi]
            for f in per_path
        })

    def per_equation(self) -> list["PathBundle"]:
        """One bundle per equation, each a view of this bundle's paths and
        bit-equal to simulating that equation alone; an equation the
        drift-change field does not weight gets ``log_weights`` None."""
        n = self.n_paths // self.n_equations
        parts = []
        for e, w in enumerate(self.weighted):
            part = self._rows(e * n, (e + 1) * n)
            parts.append(replace(
                part,
                weighted=(w,),
                fingerprint=_bundle_fingerprint(self.config, self.domain, (w,)),
                log_weights=part.log_weights if w else None,
            ))
        return parts

    def per_start(self) -> list["PathBundle"]:
        """One bundle per start point, each a view of this bundle's paths."""
        return [self.starts(s, s + 1) for s in range(self.n_starts)]

    def starts(self, lo: int, hi: int) -> "PathBundle":
        """The paths of start points ``lo .. hi - 1`` as a bundle, a view of
        this bundle's paths."""
        if self.n_equations > 1:
            raise ValueError("split a bundle of several equations with per_equation first")
        n = self.config.n_paths
        return self._rows(lo * n, hi * n)

    def rng_stream_id(self, i: int) -> tuple[int, int, int]:
        """Counter-based stream of path ``i``: (seed, block key, column).

        The noise of a path is a pure function of this triple, independent of
        the worker-thread count and of the start point.
        """
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path index {i} out of range")
        p = i % self.config.n_paths
        return (self.config.seed, p // RNG_BLOCK, p % RNG_BLOCK)

    def record_index(self, t: float) -> int:
        idx = np.argmin(np.abs(self.record_times - t))
        if abs(self.record_times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the recorded grid")
        return int(idx)

    def states_at(self, t: float) -> np.ndarray:
        return self.states[:, self.record_index(t), :]

    def stopped_by(self, t: float) -> np.ndarray:
        """Paths that exited at a grid time ``<= t``; the one stop test.

        ``tau`` equals the horizon by convention on never-exited paths, so
        ``exited`` is part of the test.
        """
        return self.exited & (self.tau <= t + 1e-12)

    def alive_at(self, t: float) -> np.ndarray:
        return ~self.stopped_by(t)

    def stop_states(self, t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """State and time at ``min(t, tau)`` per path (t defaults to horizon)."""
        horizon = self.config.dt * self.config.n_steps
        if t is None:
            t = horizon
        stop_time = np.minimum(self.tau, t)
        out = np.where(self.stopped_by(t)[:, None], self.exit_state, self.states_at(t))
        return out, stop_time


def _bundle_fingerprint(
    config: PathConfig, domain: DomainSpec, weighted: tuple[bool, ...]
) -> str:
    theta = weighted[0] if len(weighted) == 1 else list(weighted)
    return config_fingerprint(config, domain=domain.to_json(), theta=theta)


def _resolve_record(config: PathConfig, dims_total: int, n_lanes: int) -> np.ndarray:
    grid = config.grid()
    record = config.record
    if record == "auto":
        # the bundle records the paths of every equation and start
        budget = n_lanes * config.n_paths * (config.n_steps + 1) * dims_total
        record = "all" if budget <= _AUTO_RECORD_BUDGET else "ends"
    if record == "all":
        return grid
    if record == "ends":
        return np.array([grid[0], grid[-1]])
    # one column per grid step, at the first time that falls on it
    by_step: dict[int, float] = {}
    for t in sorted(set(float(t) for t in record)):
        by_step.setdefault(grid_steps(t, config.dt), t)
    return np.asarray(list(by_step.values()), dtype=float)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(block)])
    return np.random.Generator(np.random.Philox(key=key))


class _ExactGammaParams:
    """Transition parameters of the separable 1D constant-coefficient model,
    read from the step plan: its folded drift over the speed ``D / 2``."""

    def __init__(self, coeffs):
        dims = coeffs.dims
        if dims.n != 1 or dims.m != 0:
            raise ValueError("exact-1d-gamma needs n=1, m=0")
        plan = coeffs.plan
        if plan.drift is None or plan.sigma is None:
            raise ValueError(
                "exact-1d-gamma needs constant coefficients with no log drift"
            )
        # a constant D: any state gives the row
        self.speed = float(coeffs.source.diffusion_matrix(np.ones((1, 1)))[0, 0, 0]) / 2.0
        if self.speed <= 0.0:
            raise ValueError("degenerate diffusion coefficient must be positive")
        self.b0 = float(plan.drift[0]) / self.speed
        if self.b0 <= 0.0:
            raise ValueError("exact-1d-gamma needs positive boundary drift")

    def sample(self, rng: np.random.Generator, x: np.ndarray, dt: float) -> np.ndarray:
        s = self.speed * dt / 2.0
        return s * rng.noncentral_chisquare(2.0 * self.b0, x / s)


def _log_weight_drop(th, sxi, dt: float, out: np.ndarray, q: np.ndarray, *,
                     calls=NOW) -> np.ndarray:
    """``theta . xi sqrt(dt) + |theta|^2 dt / 2`` per path, the amount by
    which a step lowers the log weight, written into ``out`` from
    ``sxi = sqrt(dt) xi``, with ``q`` for ``|theta|^2 dt / 2``.

    Each dot product is summed from +0 as ``einsum`` sums it, so the
    weight's increment ``-theta . xi sqrt(dt) - |theta|^2 dt / 2`` has the
    bits of the negated drop, and ``logw - drop`` those of ``logw +
    increment``.  With one noise column ``sxi`` may hold one block's rows,
    repeated for every start of ``th``, and the drop is ``(0 + p) + q`` for
    ``p = theta sxi``: as ``q`` is never -0, the bits of ``p + q``."""
    if th.shape[1] != 1:
        calls.add(np.einsum, "pi,pi->p", th, sxi, out=out)
        calls.add(np.einsum, "pi,pi->p", th, th, out=q)
    else:
        th = th[:, 0]
        nb = sxi.shape[0]
        calls.add(np.multiply, th.reshape(-1, nb), sxi[:, 0], out.reshape(-1, nb))
        calls.add(np.multiply, th, th, q)
    calls.add(np.multiply, q, 0.5 * dt, q)
    calls.add(np.add, out, q, out)
    return out


class _Lanes:
    """The equations of one bundle, compiled once for stepping, and the
    binder of their step (:meth:`bind_step`).

    A lane is one equation over the rows of a group: the copies of one
    block for each start the group packs.  What each step plan folds
    decides here, once, what a step does per lane: a folded drift is never
    evaluated (with every lane folded the update adds ``drift * dt``, made
    here), a state-free root makes the noise a function of the normals
    alone, made once for all lanes when their roots are equal, and only a
    weighted lane runs theta.  The scheme update runs once for every lane.
    """

    def __init__(self, eqs: list, thetas: list, config: PathConfig):
        self.eqs, self.thetas = eqs, thetas
        self.dims = eqs[0].dims
        self.dt, self.eps = config.dt, config.log_clamp_eps
        self.sqdt = float(np.sqrt(config.dt))
        self.folded = [eq.plan.drift is not None for eq in eqs]
        self.drift_dt = None
        if all(self.folded):
            self.drift_dt = np.stack([eq.plan.drift * config.dt for eq in eqs])[:, None, :]
            if self.drift_dt.size == 1:
                # one lane of one coordinate adds its float
                self.drift_dt = float(self.drift_dt[0, 0, 0])
        # the lanes whose noise the normals alone give; the others take the
        # root of their state
        self.free_noise = [e for e, eq in enumerate(eqs) if eq.plan.sigma is not None]
        self.shared_noise = len(self.free_noise) == len(eqs) and all(
            np.array_equal(eq.plan.sigma, eqs[0].plan.sigma) for eq in eqs
        )
        if self.shared_noise:
            self.free_noise = [0]
        weighted = [e for e, th in enumerate(thetas) if th is not None]
        self.weighted = slice(weighted[0], weighted[-1] + 1) if weighted else None
        # the lanes a step visits one by one: (lane, equation, theta, folded)
        self.visited = [
            (e, eq, theta, folded)
            for e, (eq, theta, folded) in enumerate(zip(eqs, thetas, self.folded))
            if not folded or eq.plan.sigma is None or theta is not None
        ]

    def bind_step(self, ws: "_Workspace") -> Calls:
        """The calls of a step of every lane of ``ws`` from ``ws.cur`` into
        ``ws.out`` on the block's normals in ``ws.xi``, with the weighted
        lanes' log-weight drops in ``ws.drop``.  They test no state: a group
        tests its states alike whether a kernel binds NumPy calls alone or
        an eager entry (``calls.assign``) or a solve (see
        :meth:`check_finite`).

        The first calls read the normals: the noise of each lane whose
        root is state-free and, for the weights, ``sqrt(dt)`` times the
        normals.  A lane's noise is bound after its theta, which does not
        read it; every kernel is bound before the update, which may write
        ``cur``."""
        n, m, d = self.dims.n, self.dims.m, self.dims.total
        cur, new, noise = ws.cur, ws.out, ws.noise
        xi, rx, calls = ws.xi, ws.rx, Calls()
        for e in self.free_noise:
            self.eqs[e].noise_batch(xi, xi, out=noise[e, 0], calls=calls)
            if noise.shape[1] > 1:
                # the block's noise for every start's rows
                calls.add(np.copyto, noise[e, 1:], noise[e, 0])
        if ws.sxi is not None:
            calls.add(np.multiply, xi, self.sqdt, ws.sxi)
        if n:
            # a step starts from a projected state or a start: x >= 0 or
            # x = -0.0 (or NaN or +inf, which the group reports), whose root
            # -0.0 reaches only sums that add +0, so the root needs no
            # projection of its own
            calls.add(np.sqrt, cur[..., :n] if m else cur, rx)
        if ws.xi_rows is not None:
            # the block's normals once for every start's rows
            calls.add(np.copyto, ws.xi_rows.reshape(ws.starts, ws.nb, d), xi)
            xi = ws.xi_rows
        for e, eq, theta, folded in self.visited:
            lane, sigma, th = self._bind_lane(ws, e, eq, theta, folded)
            calls += lane
            if eq.plan.sigma is None:
                eq.noise_batch(cur[e], xi, sigma, out=noise[e].reshape(cur[e].shape), calls=calls)
            if theta is not None:
                sxi = ws.sxi
                if d != 1 and ws.sxi_rows is not None:
                    # the dot products of several columns run over the rows
                    calls.add(np.copyto, ws.sxi_rows.reshape(ws.starts, ws.nb, d), sxi)
                    sxi = ws.sxi_rows
                _log_weight_drop(th, sxi, self.dt, ws.drop[e - self.weighted.start],
                                 ws.theta_sq, calls=calls)
        # the scheme update, once for every lane
        if self.drift_dt is not None:
            calls.add(np.add, cur, self.drift_dt, new)
        else:
            calls.add(np.multiply, ws.drift, self.dt, ws.new)
            calls.add(np.add, cur, ws.new, new)
        if n:
            # x += sqrt(x) noise_x sqrt(dt), then the projection onto x >= 0
            term = ws.rx_by_start
            calls.add(np.multiply, term, noise[..., :n] if m else noise, term)
            calls.add(np.multiply, term, self.sqdt, term)
            x_new = new[..., :n] if m else new
            calls.add(np.add, x_new, rx, x_new)
            calls.add(np.maximum, x_new, 0.0, out=x_new)
        if m:
            y_new = new.reshape(ws.by_start + (d,))[..., n:]
            calls.add(np.multiply, noise[..., n:], self.sqdt, ws.y_term)
            calls.add(np.add, y_new, ws.y_term, y_new)
        return calls

    def bind_settle(self, ws: "_Workspace", exit_test) -> Calls:
        """The calls that settle a step of ``ws``.  With ``exit_test``, a
        domain's ``exit_test``: the freeze, which copies the live paths'
        rows of ``new`` into ``cur`` and so keeps the dead ones where they
        left, the weight update of the live paths, the exit test of
        ``cur``, and the exits it finds: their step into ``exit_step`` and
        their mark in ``leaving`` and ``alive``.  With ``exit_test`` None,
        when no path can leave the domain and the step wrote ``cur`` in
        place, the weight update alone."""
        calls, w = Calls(), self.weighted
        if exit_test is None:
            if w is not None:
                calls.add(np.subtract, ws.logw, ws.drop, ws.logw)
            return calls
        alive = ws.alive.reshape(-1)
        calls.add(np.putmask, ws.cur_rows, ws.alive, ws.new_rows)
        if w is not None:
            calls.add(np.subtract, ws.logw, ws.drop, ws.logw, where=ws.alive[w])
        # a path leaves when it is alive and its new state is outside
        exit_test.bind(ws.cur.reshape(-1, self.dims.total), ws.inside, calls)
        calls.add(np.greater, alive, ws.inside, ws.leaving)
        calls.add(np.copyto, ws.exit_step, ws.step, where=ws.leaving)
        calls.add(np.bitwise_xor, alive, ws.leaving, alive)
        return calls

    def _bind_lane(self, ws: "_Workspace", e: int, eq, theta, folded: bool) -> tuple:
        """Lane ``e``'s kernels on its states in ``ws.cur``: ``(calls, root,
        theta)``, the calls of its log drift, drift, root and theta, the
        array of its root (None when state-free) and that of its theta
        (None unweighted)."""
        states, calls = ws.cur[e], Calls()
        log_sum = sigma = th = None
        if theta is not None:
            # one log drift for the drift and theta
            log_sum = eq.source.log_drift(states, self.eps, calls=calls)
        if not folded:
            eq.drift_batch(states, self.eps, log_sum, out=ws.drift[e], calls=calls)
        if eq.plan.sigma is None:
            sigma = eq.bound_sigma(states, calls)
        if theta is not None:
            th = theta.theta_batch(states, self.eps, log_sum, sigma, ws.drift[e], ws.rx[e],
                                   out=ws.theta, calls=calls)
        return calls, sigma, th

    @staticmethod
    def finite(states: np.ndarray) -> bool:
        """Whether every state of ``states`` is finite."""
        # a finite sum has no infinite or NaN term; a sum that overflows on
        # finite states only sends the test on to the exact one
        return math.isfinite(np.add.reduce(states, axis=None)) or bool(np.isfinite(states).all())

    @staticmethod
    def check_finite(new: np.ndarray, ws: "_Workspace") -> None:
        """NumericFailureError at step ``ws.step`` when a state of ``new`` is
        not finite, naming the first such path of the block.

        A group tests its last states once (:meth:`finite`); only when that
        test fails, or a step raises, does it step again from its starts
        and test each step's states after the freeze with this (see
        :func:`simulate_bundle`)."""
        if not _Lanes.finite(new):
            finite = np.isfinite(new).all(axis=-1).ravel()
            bad = int(np.flatnonzero(~finite)[0])
            raise NumericFailureError(
                f"non-finite state at step {int(ws.step)} (block path {bad % ws.nb})")


class _Workspace:
    """One group's arrays, made once and written in place by every step.

    ``cur`` holds the states of every lane, shape (lanes, rows, d) with rows
    by start and then block path.  A step reads it and writes ``out``:
    ``cur`` itself when no path can leave the domain (``in_place``), else
    ``new``, whose live paths the settle copies into ``cur``.
    ``cur_rows`` and ``new_rows`` view each state as one row of ``8 d``
    bytes, so that copy moves whole rows.  ``new`` also holds the drift
    term of an update in place.  ``xi`` holds the block's normals of a
    step, shape (nb, d), and ``noise`` the noise of every lane, shape
    (lanes, starts, nb, d); when every root is state-free it holds one
    block's rows, (lanes, 1, nb, d), which the update broadcasts over the
    starts, and one lane of them when the lanes share their root.
    ``alive`` marks the live paths of every lane, ``leaving`` the paths
    that the last step took out of the domain, and ``exit_step`` holds the
    step at which each dead path left.  ``logw`` holds the log weights of
    the weighted lanes and ``drop`` what the last step takes off them.  ``step``, a 0-d int64 that the stepping loop
    sets, is the step being taken.
    """

    def __init__(self, lanes: _Lanes, start: np.ndarray, nb: int, in_place: bool = False):
        n_lanes, (rows, d), n = len(lanes.eqs), start.shape, lanes.dims.n
        self.nb, self.rows, self.starts = nb, rows, rows // nb
        # (lane, start, block path): the shape that repeats a block's noise
        self.by_start = (n_lanes, self.starts, nb)
        self.cur = np.empty((n_lanes, rows, d))
        self.cur[...] = start
        self.new = np.empty_like(self.cur)
        self.out = self.cur if in_place else self.new
        row = np.dtype((np.void, 8 * d))
        self.cur_rows, self.new_rows = (a.view(row)[..., 0] for a in (self.cur, self.new))
        self.rx = np.empty((n_lanes, rows, n))
        self.rx_by_start = self.rx.reshape(self.by_start + (n,))
        self.drift = None
        if lanes.drift_dt is None or lanes.weighted is not None:
            self.drift = np.empty((n_lanes, rows, d))
            for e, eq in enumerate(lanes.eqs):
                if lanes.folded[e]:
                    self.drift[e] = eq.plan.drift
        self.xi = np.empty((nb, d))
        noise_lanes = 1 if lanes.shared_noise else n_lanes
        state_noise = len(lanes.free_noise) < noise_lanes
        noise_rows = self.by_start if state_noise else (noise_lanes, 1, nb)
        self.noise = np.empty(noise_rows + (d,))
        self.y_term = np.empty(noise_rows + (lanes.dims.m,)) if lanes.dims.m else None
        # the block's normals repeated for every start, where a kernel reads
        # them row by row: the noise of a state-dependent root, and theta's
        # dot products of several columns
        self.xi_rows = self.sxi_rows = None
        if state_noise and self.starts > 1:
            self.xi_rows = np.empty((rows, d))
        self.sxi = self.logw = self.drop = self.theta = self.theta_sq = None
        if lanes.weighted is not None:
            self.sxi = np.empty((nb, d))
            if d != 1 and self.starts > 1:
                self.sxi_rows = np.empty((rows, d))
            n_weighted = lanes.weighted.stop - lanes.weighted.start
            self.logw = np.zeros((n_weighted, rows))
            self.drop = np.zeros((n_weighted, rows))
            self.theta = np.empty((rows, d))
            self.theta_sq = np.empty(rows)
        self.alive = np.ones((n_lanes, rows), dtype=bool)
        self.step = np.zeros((), dtype=np.int64)
        self.inside = np.empty(n_lanes * rows, dtype=bool)
        self.leaving = np.zeros(n_lanes * rows, dtype=bool)
        self.exit_step = np.zeros(n_lanes * rows, dtype=np.int64)


def simulate_bundle(
    coeffs: SdeCoefficients | StandardSdeCoefficients | Sequence,
    z0: Point | Sequence[Point],
    domain: DomainSpec,
    config: PathConfig,
    theta: GirsanovField | None = None,
    n_threads: int = 1,
    observers: Sequence = (),
) -> PathBundle:
    """Simulate a reproducible bundle of paths stopped at the domain exit.

    The exit time is the first grid time whose state leaves the domain (plus
    its degenerate faces); the path freezes at that state.  When ``theta`` is
    given, each path of its own divergence side (the equation that is
    ``theta.sing``) accumulates ``-theta . dW - |theta|^2 dt / 2`` while
    alive, the running log of the drift-change martingale weight.

    ``z0`` may be a sequence of start points: the bundle then holds
    ``config.n_paths`` paths per start, start by start, and
    :meth:`PathBundle.per_start` splits it into bundles that are bit-equal
    to simulating each start alone.  A block of up to ``PACK_ROWS // nb``
    starts (``nb`` the block's paths) is a group that steps as one array in
    one workspace and draws its normals a step at a time; the groups, not
    the blocks, are what threads run.

    ``coeffs`` may likewise be a sequence of equations of one dimension.
    They share each block's normals as starts do: every step of a group is
    one draw, on which each equation advances its own states, exit test and
    weight.  Rows are ordered by equation, then start, then path, and
    :meth:`PathBundle.per_equation` splits the bundle into one bundle per
    equation, each bit-equal to simulating that equation alone.  One
    equation is the one-lane case of the same loop.

    ``observers`` (one equation and one start point only) receive per-step
    callbacks ``observe(block_slice, k, t, prev, new, alive, logw=None)``:
    ``alive`` marks the paths alive before step ``k``, and ``logw`` is the
    running per-path log weight (None without a drift-change field).  The
    arrays are views of the group's workspace, which the next step
    overwrites, so an observer copies what it keeps.  They must write only
    into per-path or per-block slots (blocks may run concurrently).  Before
    a run raises NumericFailureError they may see states that are not
    finite, and the steps of the failing group twice.

    On a domain without an exit boundary (``domain.exit_test`` is None)
    no path can leave, so the exit test is skipped.  There, and with
    no observers, the exact scheme jumps: it draws each record interval in
    one exact transition, from the previous record time's states, and draws
    nothing after the last record time.  Same law, fewer draws; with
    ``record="all"`` the draws are those of the per-step loop.  The exact
    scheme draws from the state, so it steps one equation only.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    eqs = list(coeffs) if isinstance(coeffs, (list, tuple)) else [coeffs]
    n_eqs = len(eqs)
    if not eqs:
        raise ValueError("need at least one equation")
    dims = eqs[0].dims
    if any(eq.dims != dims for eq in eqs):
        raise DimensionMismatchError("equations sharing a draw need one dimension")
    starts = [z0] if isinstance(z0, Point) else list(z0)
    if not starts:
        raise ValueError("need at least one start point")
    for z in starts:
        if z.dims != dims:
            raise DimensionMismatchError("start point dims do not match coefficients")
    if domain.dims != dims:
        raise DimensionMismatchError("domain dims do not match coefficients")
    for z in starts:
        if not domain.contains_point_underline(z):
            raise InvalidStartError(f"start point {z} is outside the domain")
    if observers and (len(starts) > 1 or n_eqs > 1):
        raise ValueError("observers watch a bundle with one equation and one start point")
    # theta weights the one equation it belongs to
    thetas = [theta if theta is not None and eq is theta.sing else None for eq in eqs]
    weighted = tuple(th is not None for th in thetas)
    if theta is not None and not any(weighted):
        raise ValueError("a drift-change field weights the paths of its own theta.sing")
    if config.scheme == "exact-1d-gamma":
        if theta is not None:
            raise ValueError("drift-change weights are not defined for exact sampling")
        if n_eqs > 1:
            raise ValueError("exact sampling draws from the state: one equation only")

    params_exact = (
        _ExactGammaParams(eqs[0]) if config.scheme == "exact-1d-gamma" else None
    )
    n_steps = config.n_steps
    total = dims.total
    n_starts = len(starts)
    record_times = _resolve_record(config, total, n_eqs * n_starts)
    record_idx = {grid_steps(t, config.dt): r for r, t in enumerate(record_times)}
    n_rec = len(record_times)
    n_paths = config.n_paths
    origins = np.stack([z.vector for z in starts])

    # leading axes (equation, start, path); flattened in that order for the bundle
    lead = (n_eqs, n_starts, n_paths)
    states_rec = np.empty(lead + (n_rec, total))
    tau = np.full(lead, config.dt * n_steps)
    exited = np.zeros(lead, dtype=bool)
    exit_state = np.broadcast_to(origins[None, :, None, :], lead + (total,)).copy()
    log_weights = np.zeros(lead + (n_rec,)) if theta is not None else None

    for obs in observers:
        obs.prepare(n_paths, dims, config)

    exit_test = domain.exit_test
    jump = params_exact is not None and exit_test is None and not observers

    lanes = _Lanes(eqs, thetas, config)
    dt = config.dt

    def run_group(block: int, group: slice) -> None:
        """Step block ``block`` of the starts in ``group`` in one workspace,
        every equation a lane on the same draw."""
        lo = block * RNG_BLOCK
        hi = min(lo + RNG_BLOCK, n_paths)
        nb = hi - lo
        sl = slice(lo, hi)
        n_st = group.stop - group.start
        start_states = np.repeat(origins[group], nb, axis=0)

        if 0 in record_idx:
            states_rec[:, group, sl, record_idx[0]] = start_states.reshape(n_st, nb, total)
        if jump:
            rng = _block_rng(config.seed, block)
            k_prev = 0
            x = start_states
            for k in sorted(record_idx.keys() - {0}):
                x = params_exact.sample(rng, x[:, 0], (k - k_prev) * dt)[:, None]
                states_rec[0, group, sl, record_idx[k]] = x.reshape(n_st, nb, total)
                k_prev = k
            return
        w = lanes.weighted

        def walk(each: bool) -> _Workspace:
            """Step the group from its starts in a new workspace and return
            it; with ``each``, test each step's states after its freeze."""
            rng = _block_rng(config.seed, block)
            ws = _Workspace(lanes, start_states, nb, in_place=exit_test is None)
            # the states before the step, for the observers
            prev = np.empty_like(ws.cur) if observers else None

            def settle(k: int) -> None:
                """Observe step ``k`` and record it, after its bound settle."""
                for obs in observers:
                    # alive: the paths alive before the step
                    obs.observe(sl, k, k * dt, prev[0], ws.cur[0], ws.alive[0] | ws.leaving,
                                logw=ws.logw[0] if w is not None else None)
                if k in record_idx:
                    r = record_idx[k]
                    states_rec[:, group, sl, r] = ws.cur.reshape(n_eqs, n_st, nb, total)
                    if w is not None:
                        log_weights[w, group, sl, r] = ws.logw.reshape(-1, n_st, nb)

            # the group's one step list: the observers' copy of the states,
            # the scheme's step, :meth:`_Lanes.bind_settle` and, with
            # ``each``, the finiteness test
            calls = Calls()
            if observers:
                calls.add(np.copyto, prev, ws.cur)
            if params_exact is None:
                # the block's normals of the step, then the step on them
                calls.add(rng.standard_normal, out=ws.xi)
                calls += lanes.bind_step(ws)
            else:
                # one draw a step, from the state
                calls.add(assign, ws.out[0, :, 0], params_exact.sample, rng,
                          ws.cur[0, :, 0], dt)
            calls += lanes.bind_settle(ws, exit_test)
            if each:
                calls.add(lanes.check_finite, ws.cur, ws)
            # the steps settled in Python
            watched = range(1, n_steps + 1) if observers else record_idx
            for k in range(1, n_steps + 1):
                ws.step[()] = k
                for call in calls:
                    call()
                if k in watched:
                    settle(k)
            return ws

        # NaN and +inf survive the update, the projection onto x >= 0 and
        # the freeze, so a state that was not finite after some step's
        # freeze is not finite at the end, nor when a later step reads it:
        # the walk that tests each step raises at the first such step
        try:
            ws = walk(False)
        except Exception:
            # a step raised, say an eager entry that refuses a state that is
            # not finite; if no state was, the entry raises its error again
            walk(True)
            raise
        if not lanes.finite(ws.cur):
            ws = walk(True)
        # the exits, from the dead paths, whose states froze there
        dead = ~ws.alive.reshape(n_eqs, n_st, nb)
        exited[:, group, sl] = dead
        np.copyto(tau[:, group, sl], ws.exit_step.reshape(n_eqs, n_st, nb) * dt, where=dead)
        np.copyto(exit_state[:, group, sl], ws.cur.reshape(n_eqs, n_st, nb, total),
                  where=dead[..., None])

    groups = []
    for block in range((n_paths + RNG_BLOCK - 1) // RNG_BLOCK):
        nb = min(RNG_BLOCK, n_paths - block * RNG_BLOCK)
        size = 1 if params_exact is not None else PACK_ROWS // nb
        groups += [(block, slice(s, min(s + size, n_starts))) for s in range(0, n_starts, size)]
    if n_threads == 1 or len(groups) == 1:
        for group in groups:
            run_group(*group)
    else:
        # imported here: a run that starts no pool skips its import cost
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(lambda group: run_group(*group), groups))

    def flat(a: np.ndarray | None) -> np.ndarray | None:
        return None if a is None else a.reshape((n_eqs * n_starts * n_paths,) + a.shape[3:])

    return PathBundle(
        config=config,
        domain=domain,
        record_times=record_times,
        states=flat(states_rec),
        tau=flat(tau),
        exited=flat(exited),
        exit_state=flat(exit_state),
        log_weights=flat(log_weights),
        fingerprint=_bundle_fingerprint(config, domain, weighted),
        weighted=weighted,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def bundle_to_csv(bundle: PathBundle, path: str, dims: StateSpaceDims | None = None) -> None:
    """Columnar dump: path, step, t, x..., y..., exited, log_weight."""
    d = bundle.dims_total
    if dims is not None and dims.total == d:
        labels = [f"x{j}" for j in range(dims.n)] + [f"y{j}" for j in range(dims.m)]
    else:
        labels = [f"z{j}" for j in range(d)]
    stopped = np.stack([bundle.stopped_by(t) for t in bundle.record_times], axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "step", "t"] + labels + ["exited", "log_weight"])
        for i in range(bundle.n_paths):
            for r, t in enumerate(bundle.record_times):
                row = [i, r, f"{t:.12g}"]
                row += [f"{v:.17g}" for v in bundle.states[i, r]]
                row.append(int(stopped[i, r]))
                lw = 0.0 if bundle.log_weights is None else bundle.log_weights[i, r]
                row.append(f"{lw:.17g}")
                writer.writerow(row)


_KIMB_MAGIC = b"KIMB"
_KIMB_VERSION = 1


def bundle_to_kimb(bundle: PathBundle, path: str, dims: StateSpaceDims) -> None:
    """Compact binary dump.

    Layout (little-endian): magic "KIMB", version u32, n u32, m u32,
    n_paths u64, n_recorded u64, flags u32 (bit 0: log weights present), then
    f64 record times, f64 states (path-major C order), f64 tau, u8 exited
    flags, f64 exit states, and optionally f64 log weights.
    """
    flags = 1 if bundle.log_weights is not None else 0
    with open(path, "wb") as fh:
        fh.write(_KIMB_MAGIC)
        fh.write(
            struct.pack(
                "<IIIQQI",
                _KIMB_VERSION,
                dims.n,
                dims.m,
                bundle.n_paths,
                len(bundle.record_times),
                flags,
            )
        )
        fh.write(np.ascontiguousarray(bundle.record_times, "<f8").tobytes())
        fh.write(np.ascontiguousarray(bundle.states, "<f8").tobytes())
        fh.write(np.ascontiguousarray(bundle.tau, "<f8").tobytes())
        fh.write(np.ascontiguousarray(bundle.exited, "u1").tobytes())
        fh.write(np.ascontiguousarray(bundle.exit_state, "<f8").tobytes())
        if bundle.log_weights is not None:
            fh.write(np.ascontiguousarray(bundle.log_weights, "<f8").tobytes())


def read_kimb(path: str) -> dict:
    """Read a binary bundle dump into plain arrays."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _KIMB_MAGIC:
            raise ValueError(f"not a bundle file (magic {magic!r})")
        version, n, m, n_paths, n_rec, flags = struct.unpack("<IIIQQI", fh.read(32))
        if version != _KIMB_VERSION:
            raise ValueError(f"unsupported bundle version {version}")
        total = n + m
        times = np.frombuffer(fh.read(8 * n_rec), "<f8")
        states = np.frombuffer(fh.read(8 * n_paths * n_rec * total), "<f8").reshape(
            n_paths, n_rec, total
        )
        tau = np.frombuffer(fh.read(8 * n_paths), "<f8")
        exited = np.frombuffer(fh.read(n_paths), "u1").astype(bool)
        exit_state = np.frombuffer(fh.read(8 * n_paths * total), "<f8").reshape(
            n_paths, total
        )
        log_weights = None
        if flags & 1:
            log_weights = np.frombuffer(fh.read(8 * n_paths * n_rec), "<f8").reshape(
                n_paths, n_rec
            )
    return {
        "dims": StateSpaceDims(n, m),
        "times": times,
        "states": states,
        "tau": tau,
        "exited": exited,
        "exit_state": exit_state,
        "log_weights": log_weights,
    }
