"""Empirical two-cylinder ratio probes and the iteration-chain geometry.

Nonnegative stopped-boundary solutions are probed with sup/inf ratios over
offset space-time cylinders; lattices live in the ``(sqrt(x), y)`` chart so
that metric balls are well covered near the degenerate boundary.  No
theoretical constants are claimed: the reports carry empirical ratios and
their stability across scales and lattice refinements.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import (
    MetricBall,
    Point,
    SpaceTimeCylinder,
    ball_box,
    cylinder_sets,
)
from .records import record

__all__ = [
    "LatticeSpec",
    "HarnackReport",
    "ChainGeometry",
    "harnack_ratio",
    "scale_invariant_scan",
    "node_key",
    "chain_geometry",
    "chain_count",
    "chain_count_bound",
    "memoize_estimator",
]


@record
class LatticeSpec:
    """Sample lattice resolution for one cylinder (times x per-axis nodes)."""

    n_time: int = 3
    n_space: int = 5

    def __post_init__(self) -> None:
        if self.n_time < 2 or self.n_space < 2:
            raise ValueError("lattice needs at least 2 nodes per direction")

    def refine(self) -> "LatticeSpec":
        """Nested refinement: every current node stays a node."""
        return LatticeSpec(2 * self.n_time - 1, 2 * self.n_space - 1)


@record
class HarnackReport:
    """Sup/inf of a candidate solution over an (earlier, later) cylinder pair."""

    sup_value: float
    sup_stderr: float
    inf_value: float
    inf_stderr: float
    ratio: float
    radius: float
    sup_cylinder: tuple[float, float]
    inf_cylinder: tuple[float, float]
    lattice: LatticeSpec
    flag: str = ""

    def to_json(self) -> dict:
        return {
            "sup": self.sup_value,
            "sup_stderr": self.sup_stderr,
            "inf": self.inf_value,
            "inf_stderr": self.inf_stderr,
            "ratio": self.ratio,
            "radius": self.radius,
            "sup_time_window": list(self.sup_cylinder),
            "inf_time_window": list(self.inf_cylinder),
            "lattice": [self.lattice.n_time, self.lattice.n_space],
            "flag": self.flag,
        }


def _ball_lattice(ball: MetricBall, n_space: int) -> list[Point]:
    """Tensor lattice covering a metric ball, sqrt-spaced on degenerate axes."""
    box = ball_box(ball)
    dims = ball.center.dims
    axes = []
    for axis, (lo, hi) in enumerate(box):
        if axis < dims.n:
            u = np.linspace(math.sqrt(max(lo, 0.0)), math.sqrt(hi), n_space)
            axes.append(u**2)
        else:
            axes.append(np.linspace(lo, hi, n_space))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack(mesh, axis=-1).reshape(-1, dims.total)
    return [Point.from_vector(dims, row) for row in flat]


def _cylinder_nodes(
    cyl: SpaceTimeCylinder, lattice: LatticeSpec
) -> Iterator[tuple[float, Point]]:
    """The ``(t, z)`` lattice nodes of one cylinder, time by time."""
    points = _ball_lattice(cyl.ball, lattice.n_space)
    for t in np.linspace(cyl.t_lo, cyl.t_hi, lattice.n_time):
        for p in points:
            yield float(t), p


def node_key(t: float, z: Point) -> tuple:
    """Lattice nodes equal under this key are one node of a scan."""
    return (round(float(t), 12), tuple(round(v, 12) for v in z.vector))


NodeEstimator = Callable[[list[tuple[float, Point]]], Sequence["object"]]


def _extremes(estimates: Sequence) -> tuple[float, float, float, float]:
    """(max, stderr at max, min, stderr at min) over one cylinder's estimates,
    in lattice order; the first of equal values wins."""
    best_max = -math.inf
    best_min = math.inf
    se_max = se_min = 0.0
    for est in estimates:
        v = est.value
        if v > best_max:
            best_max, se_max = v, est.stderr
        if v < best_min:
            best_min, se_min = v, est.stderr
    return best_max, se_max, best_min, se_min


def _reports(
    u_nodes: NodeEstimator,
    pairs: Sequence[tuple[float, SpaceTimeCylinder, SpaceTimeCylinder]],
    lattice: LatticeSpec,
) -> list[HarnackReport]:
    """One report per ``(radius, earlier cylinder, later cylinder)``.

    The cylinders are walked once: their distinct nodes (one per
    :func:`node_key`, in first-ask order) go to ``u_nodes`` in a single call.
    Each report is the lattice sup over the earlier cylinder against the
    lattice inf over the later one.  When the inf does not clear the noise
    floor, three standard errors of the inf, the ratio is infinite and
    flagged.
    """
    nodes: dict = {}

    def walk(cyl: SpaceTimeCylinder) -> list[tuple]:
        keys = []
        for t, p in _cylinder_nodes(cyl, lattice):
            key = node_key(t, p)
            nodes.setdefault(key, (t, p))
            keys.append(key)
        return keys

    walks = [(walk(sup_cyl), walk(inf_cyl)) for _, sup_cyl, inf_cyl in pairs]
    table = dict(zip(nodes, u_nodes(list(nodes.values())), strict=True))
    out = []
    for (radius, sup_cyl, inf_cyl), (sup_keys, inf_keys) in zip(pairs, walks):
        sup_v, sup_se, _, _ = _extremes([table[k] for k in sup_keys])
        _, _, inf_v, inf_se = _extremes([table[k] for k in inf_keys])
        unbounded = inf_v <= 3.0 * inf_se
        out.append(HarnackReport(
            sup_v, sup_se, inf_v, inf_se, math.inf if unbounded else sup_v / inf_v,
            radius, (sup_cyl.t_lo, sup_cyl.t_hi), (inf_cyl.t_lo, inf_cyl.t_hi), lattice,
            flag="unbounded-at-this-resolution" if unbounded else "",
        ))
    return out


def harnack_ratio(
    u_nodes: NodeEstimator,
    t0: float,
    z0: Point,
    r: float,
    lattice: LatticeSpec = LatticeSpec(),
) -> HarnackReport:
    """Lattice sup over the earlier cylinder ending at ``t0 - 2 r^2`` against
    the lattice inf over the cylinder ending at ``t0`` (same ball radius).

    ``u_nodes`` maps a list of ``(t, z)`` nodes to one estimate per node, each
    with ``value`` and ``stderr``.  When the inf does not clear the Monte
    Carlo noise floor the ratio is reported as infinite with an explanatory
    flag.
    """
    ball = MetricBall(z0, r)
    t_end = t0 - 2.0 * r * r
    sup_cyl = SpaceTimeCylinder(t_end - r**2, t_end, ball)
    inf_cyl = SpaceTimeCylinder(t0 - r**2, t0, ball)
    return _reports(u_nodes, [(r, sup_cyl, inf_cyl)], lattice)[0]


def scale_invariant_scan(
    u_nodes: NodeEstimator,
    s: float,
    z: Point,
    R: float,
    c: float,
    d: float,
    rho_list: Sequence[float],
    lattice: LatticeSpec = LatticeSpec(),
) -> list[HarnackReport]:
    """Sup/inf ratios over the offset cylinder pairs for each probe radius.

    Probe radii must satisfy ``0 < rho < c R``; the estimator's solution must
    cover ``(s - 4 R^2, s + R^2) x B_{4R}(z)``.  ``u_nodes`` is called once,
    with every distinct lattice node of the scan (see :func:`harnack_ratio`).
    """
    pairs = []
    for rho in rho_list:
        if not (0.0 < rho < c * R):
            raise ValueError(f"probe radius {rho} outside (0, cR) = (0, {c * R})")
        pairs.append((rho, *cylinder_sets(s, z, rho, c, d)))
    return _reports(u_nodes, pairs, lattice)


# ---------------------------------------------------------------------------
# Iteration-chain geometry
# ---------------------------------------------------------------------------


@record
class ChainGeometry:
    """Closed-form window after ``k`` chained cylinder steps of base radius r:
    time offsets ``alpha_k = (1 - 4^-k) r^2`` and ``beta_k = (2/3) alpha_k``,
    spatial reach ``gamma_k = (1 - 2^-k) r``.
    """

    k: int
    alpha_k: float
    beta_k: float
    gamma_k: float
    r: float


def chain_geometry(r: float, k: int) -> ChainGeometry:
    if r <= 0.0 or k < 1:
        raise ValueError("need r > 0 and k >= 1")
    shrink2 = 0.5**k
    shrink4 = 0.25**k
    alpha = (1.0 - shrink4) * r * r
    return ChainGeometry(
        k=k,
        alpha_k=alpha,
        beta_k=(2.0 / 3.0) * alpha,
        gamma_k=(1.0 - shrink2) * r,
        r=r,
    )


def chain_count(rho: float, r: float) -> int:
    """Smallest ``k`` whose chained window covers reach ``rho``:
    ``(1 - 2^-k) r >= rho`` and ``(1 - 4^-k) r^2 >= rho^2``.
    """
    if not 0.0 < rho < r:
        raise ValueError("need 0 < rho < r")
    k = 1
    while not (
        (1.0 - 0.5**k) * r >= rho and (1.0 - 0.25**k) * r * r >= rho * rho
    ):
        k += 1
        if k > 4096:
            raise RuntimeError("chain count did not converge")
    return k


def chain_count_bound(rho: float, r: float) -> float:
    """Logarithmic upper bound ``ln(r / (r - rho)) / ln 2 + 1``.

    The first chain condition alone forces ``k >= log2(r / (r - rho))``, and
    one extra halving step always covers the second.
    """
    return math.log(r / (r - rho)) / math.log(2.0) + 1.0


def memoize_estimator(fn: Callable[[float, Point], "object"]):
    """Cache a per-node estimator ``(t, z) -> estimate`` on lattice nodes, so
    scans that share nodes reuse bundles; a scan takes it as
    ``lambda nodes: [memo(t, z) for t, z in nodes]``."""
    cache: dict = {}

    def wrapped(t: float, z: Point):
        key = node_key(t, z)
        if key not in cache:
            cache[key] = fn(t, z)
        return cache[key]

    wrapped.cache = cache
    return wrapped
