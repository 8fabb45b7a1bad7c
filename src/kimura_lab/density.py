"""Transition-density estimation against the weighted measure.

Histogram densities divide cell counts by the weighted cell measure (computed
with the same quadrature as the ball measures), which makes the two-sided
symmetry of the kernel directly testable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .geometry import DomainSpec, WeightedMeasure, sqrt_chart_quadrature
from .records import record
from .simulate import PathBundle

__all__ = [
    "GridSpec",
    "DensityEstimate",
    "estimate_density",
    "check_mass",
    "subdomain_alive_at",
]

CELL_QUADRATURE_POINTS = 8  # midpoint nodes per axis in each histogram cell


@record
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


@record
class DensityEstimate:
    """Histogram density against the weighted measure at one time slice.

    ``values`` are counts / (n_paths * mu(cell)); summing ``values * cell_mu``
    reproduces the alive-and-in-box fraction exactly.
    """

    t: float
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
    return DensityEstimate(
        t=t,
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
