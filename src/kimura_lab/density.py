"""Transition-density estimation against the weighted measure.

Histogram densities divide cell counts by the weighted cell measure (computed
with the same quadrature as the ball measures), which makes the two-sided
symmetry of the kernel directly testable.  Point evaluations use a product
Epanechnikov kernel in the ``(sqrt(x), y)`` chart, where the kernel regularity
matches the intrinsic metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .geometry import (
    DomainSpec,
    MetricBall,
    Point,
    QuadratureConfig,
    StateSpaceDims,
    WeightedMeasure,
    mu_ball,
    rho_batch,
    sqrt_chart_quadrature,
)
from .simulate import PathBundle, PathConfig, simulate_bundle

__all__ = [
    "GridSpec",
    "DensityEstimate",
    "ScalingReport",
    "estimate_density",
    "check_mass",
    "check_symmetry",
    "kde_density_at",
    "lq_statistic",
    "holder_moment",
    "fit_scaling",
    "upper_bound_check",
    "subdomain_alive_at",
]

CELL_QUADRATURE_POINTS = 8  # midpoint nodes per axis in each histogram cell
ENVELOPE_QUADRATURE = QuadratureConfig(128)  # ball measures of the upper envelope
ENVELOPE_MIN_COUNT = 5  # sparser cells are noise and skipped by the envelope check


@dataclass(frozen=True)
class GridSpec:
    """Tensor lattice over a box with a fixed cell count per axis."""

    box: tuple[tuple[float, float], ...]
    cells_per_axis: int = 64

    def __post_init__(self) -> None:
        if self.cells_per_axis < 1:
            raise ValueError(f"a grid needs at least one cell per axis, got {self.cells_per_axis}")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"a grid box axis needs finite lo < hi, got [{lo}, {hi}]")

    def edges(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, self.cells_per_axis + 1) for lo, hi in self.box
        ]


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram density against the weighted measure at one time slice.

    ``values`` are counts / (n_paths * mu(cell)); summing ``values * cell_mu``
    reproduces the alive-and-in-box fraction exactly.
    """

    t: float
    z0: np.ndarray
    edges: tuple[np.ndarray, ...]
    values: np.ndarray
    counts: np.ndarray
    cell_mu: np.ndarray
    survival_mass: float
    in_box_mass: float
    n_paths: int
    degenerate: bool = False

    def cell_centers(self) -> list[np.ndarray]:
        return [0.5 * (e[:-1] + e[1:]) for e in self.edges]


def _cell_measures(
    measure: WeightedMeasure | None, edges: Sequence[np.ndarray]
) -> np.ndarray:
    """Weighted measure of every grid cell by per-cell midpoint quadrature.

    Degenerate axes integrate in the sqrt chart (cells with an endpoint at 0
    stay exact for integrable weights).  ``measure=None`` means Lebesgue.
    """
    n_cells = [len(e) - 1 for e in edges]
    if measure is None:
        vols = np.ones(n_cells)
        for axis, e in enumerate(edges):
            widths = np.diff(e)
            shape = [1] * len(edges)
            shape[axis] = n_cells[axis]
            vols = vols * widths.reshape(shape)
        return vols
    chart = [
        np.sqrt(np.maximum(e, 0.0)) if axis < measure.dims.n else e
        for axis, e in enumerate(edges)
    ]
    _, weights = sqrt_chart_quadrature(measure, chart, CELL_QUADRATURE_POINTS)
    # fold the per-cell sub-nodes back onto the cell lattice
    shape = []
    for k in n_cells:
        shape.extend([k, CELL_QUADRATURE_POINTS])
    return weights.reshape(shape).sum(axis=tuple(range(1, 2 * len(n_cells), 2)))


def estimate_density(
    bundle: PathBundle,
    t: float,
    grid: GridSpec,
    measure: WeightedMeasure | None = None,
) -> DensityEstimate:
    """Histogram density of the alive states at a recorded time.

    The density is taken against the weighted measure when ``measure`` is
    given (counts / (n_paths * mu(cell))), otherwise against Lebesgue.
    """
    states = bundle.states_at(t)
    alive = bundle.alive_at(t)
    edges = grid.edges()
    if len(edges) != bundle.dims_total:
        raise DimensionMismatchError("grid box does not match state dimension")
    pts = states[alive]
    counts, _ = np.histogramdd(pts, bins=edges)
    cell_mu = _cell_measures(measure, edges)
    survival = float(alive.mean())
    in_box = float(counts.sum() / bundle.n_paths)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(cell_mu > 0.0, counts / (bundle.n_paths * cell_mu), 0.0)
    start = (
        bundle.states[0, 0].copy()
        if bundle.record_times[0] == 0.0
        else np.full(bundle.dims_total, np.nan)
    )
    return DensityEstimate(
        t=t,
        z0=start,
        edges=tuple(edges),
        values=values,
        counts=counts,
        cell_mu=cell_mu,
        survival_mass=survival,
        in_box_mass=in_box,
        n_paths=bundle.n_paths,
        degenerate=not alive.any(),
    )


def check_mass(est: DensityEstimate) -> float:
    """Total weighted mass of the histogram (equals the in-box alive fraction)."""
    return float(np.sum(est.values * est.cell_mu))


def lq_statistic(est: DensityEstimate, q: float) -> float:
    """``L^q`` norm of the histogram density against the weighted measure."""
    if not 1.0 <= q:
        raise ValueError("q must be >= 1")
    return float(np.sum(np.abs(est.values) ** q * est.cell_mu) ** (1.0 / q))


def holder_moment(
    bundle: PathBundle, z0: Point, alpha: float, t: float
) -> float:
    """Direct path average ``E[rho^alpha(z0, Z(t)) 1_alive]`` (no binning bias)."""
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    states = bundle.states_at(t)
    alive = bundle.alive_at(t)
    if alpha == 0.0:
        return float(alive.mean())
    d = rho_batch(z0, states)
    return float(np.where(alive, d**alpha, 0.0).mean())


@dataclass(frozen=True)
class ScalingReport:
    """Log-log fit of a statistic against time."""

    exponent: float
    intercept: float
    r2: float
    times: tuple[float, ...]
    statistics: tuple[float, ...]


def fit_scaling(times: Sequence[float], stats: Sequence[float]) -> ScalingReport:
    times = np.asarray(times, dtype=float)
    stats = np.asarray(stats, dtype=float)
    if times.shape != stats.shape or times.size < 2:
        raise ValueError("need matching times/statistics with at least 2 points")
    if np.any(times <= 0.0) or np.any(stats <= 0.0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(times), np.log(stats)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingReport(
        exponent=float(slope),
        intercept=float(intercept),
        r2=float(r2),
        times=tuple(times.tolist()),
        statistics=tuple(stats.tolist()),
    )


# ---------------------------------------------------------------------------
# Kernel point estimates and symmetry
# ---------------------------------------------------------------------------


def _chart(states: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(states, dtype=float).copy()
    if n:
        out[..., :n] = np.sqrt(np.maximum(out[..., :n], 0.0))
    return out


def _silverman(samples: np.ndarray) -> np.ndarray:
    n, d = samples.shape
    sd = samples.std(axis=0, ddof=1)
    iqr = np.subtract(*np.percentile(samples, [75, 25], axis=0)) / 1.349
    scale = np.where(iqr > 0.0, np.minimum(sd, iqr), sd)
    scale = np.where(scale > 0.0, scale, 1e-3)
    return 0.9 * scale * n ** (-1.0 / (d + 4))


def kde_density_at(
    bundle: PathBundle,
    t: float,
    target: Point,
    measure: WeightedMeasure | None,
    dims: StateSpaceDims,
    bandwidth: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Kernel estimate of the weighted-measure density at one point.

    Product Epanechnikov kernel in the ``(sqrt(x), y)`` chart; returns
    (value, stderr, kernel support count).  Contributions are normalized by
    the full path count, so the estimate integrates to the survival mass.
    """
    n = dims.n
    states = bundle.states_at(t)
    alive = bundle.alive_at(t)
    chart_samples = _chart(states[alive], n)
    v0 = _chart(target.vector[None, :], n)[0]
    if bandwidth is None:
        bandwidth = _silverman(chart_samples)
    h = np.asarray(bandwidth, dtype=float)
    u = (chart_samples - v0) / h
    kern = np.prod(np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0), axis=1)
    kern = kern / np.prod(h)
    support_count = float(np.count_nonzero(kern))
    contrib = np.zeros(bundle.n_paths)
    contrib[alive] = kern
    # chart jacobian and measure weight at the target
    factor = 1.0
    for i in range(n):
        xi = target.vector[i]
        if xi <= 0.0:
            raise ValueError("kernel point estimates need interior targets")
        factor /= 2.0 * math.sqrt(xi)
    if measure is not None:
        b = measure.weights_at(target.vector[None, :])[0]
        for i in range(n):
            factor /= target.vector[i] ** (b[i] - 1.0)
    vals = contrib * factor
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(bundle.n_paths))
    return value, stderr, support_count


def check_symmetry(
    coeffs,
    measure: WeightedMeasure,
    z0: Point,
    z1: Point,
    t: float,
    config: PathConfig,
    bandwidth: np.ndarray | None = None,
    n_threads: int = 1,
):
    """Kernel-smoothed density from ``z0`` at ``z1`` and vice versa.

    The two directions are the two starts of one bundle at ``config.seed``,
    so they step on common random numbers and each step draws once; at
    ``z0 = z1`` the two estimates are equal.  Both directions reuse the same
    bandwidth; an untrusted flag is raised when fewer than 100 samples land
    in the kernel support.  Returns two
    :class:`~kimura_lab.feynman_kac.Estimate` objects.
    """
    from .feynman_kac import Estimate

    dims = measure.dims
    domain = DomainSpec.full_space(dims)
    cfg = replace(config, horizon=t, record=(0.0, t))
    both = simulate_bundle(coeffs, [z0, z1], domain, cfg, n_threads=n_threads)
    out = []
    shared_h = bandwidth
    for bundle, target in zip(both.per_start(), (z1, z0)):
        if shared_h is None:
            shared_h = _silverman(_chart(bundle.states_at(t), dims.n))
        value, stderr, count = kde_density_at(
            bundle, t, target, measure, dims, bandwidth=shared_h
        )
        out.append(
            Estimate(
                value=value,
                stderr=stderr,
                n_paths=bundle.n_paths,
                n_effective=count,
                fingerprint=bundle.fingerprint,
                trusted=count >= 100,
                flag="" if count >= 100 else "bandwidth-too-small",
                extra={"bandwidth": np.asarray(shared_h).tolist()},
            )
        )
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Upper-envelope check and domain comparisons
# ---------------------------------------------------------------------------


def upper_bound_check(est: DensityEstimate, measure: WeightedMeasure, z0: Point) -> dict:
    """Ratio of the histogram density to the Gaussian-type envelope
    ``exp(-rho^2/(8t)) / sqrt(mu(B_sqrt(t)(z0)) mu(B_sqrt(t)(z)))`` per cell.

    Cells with fewer than ``ENVELOPE_MIN_COUNT`` samples are skipped (noise),
    as are cells whose ball measure underflows.  Returns the maximum ratio (an
    empirical envelope constant) and the per-cell ratio array.
    """
    t = est.t
    r = math.sqrt(t)
    dims = measure.dims
    mu_z0 = mu_ball(measure, MetricBall(z0, r), ENVELOPE_QUADRATURE)
    centers = est.cell_centers()
    mesh = np.meshgrid(*centers, indexing="ij")
    ratios = np.full(est.values.shape, np.nan)
    it = np.ndindex(*est.values.shape)
    for idx in it:
        if est.counts[idx] < ENVELOPE_MIN_COUNT:
            continue
        center_vec = np.array([mesh[a][idx] for a in range(len(centers))])
        z = Point.from_vector(dims, np.maximum(center_vec, 0.0))
        mu_z = mu_ball(measure, MetricBall(z, r), ENVELOPE_QUADRATURE)
        if mu_z <= 0.0 or mu_z0 <= 0.0:
            continue
        dist = rho_batch(z0, center_vec[None, :])[0]
        envelope = math.exp(-dist * dist / (8.0 * t)) / math.sqrt(mu_z0 * mu_z)
        if envelope <= 0.0:
            continue
        ratios[idx] = est.values[idx] / envelope
    used = np.isfinite(ratios)
    max_ratio = float(np.nanmax(ratios)) if used.any() else math.nan
    return {
        "t": t,
        "max_ratio": max_ratio,
        "cells_used": int(used.sum()),
        "ratios": ratios,
    }


def subdomain_alive_at(
    bundle: PathBundle, subdomain: DomainSpec, t: float
) -> np.ndarray:
    """Alive mask for a smaller domain derived from a fully recorded bundle.

    Requires every grid step recorded; a path is alive at ``t`` for the
    subdomain when all its recorded states up to ``t`` stay inside the
    subdomain (plus degenerate faces).
    """
    n_rec = bundle.states.shape[1]
    if n_rec != bundle.config.n_steps + 1:
        raise ValueError("subdomain masks need a bundle with record='all'")
    r_t = bundle.record_index(t)
    alive = np.ones(bundle.n_paths, dtype=bool)
    for r in range(r_t + 1):
        alive &= subdomain.contains_underline(bundle.states[:, r, :])
    return alive
