"""State space, boundary-adapted metric, weighted measure, and cylinder geometry.

The state space is ``S = R_+^n x R^m`` with coordinates ``z = (x, y)``; the
first ``n`` coordinates are degenerate (the diffusion coefficient vanishes
linearly at ``x_i = 0``) and the last ``m`` are free.  Distances are measured
with a boundary-adapted metric that behaves like ``|sqrt(a) - sqrt(b)|`` close
to a degenerate face and like the Euclidean distance away from it.  The
natural symmetrizing measure carries the weight ``prod_i x_i^(b_i(z) - 1)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidHarnackParametersError,
    InvalidWeightError,
)
from .calls import NOW
from .records import record

__all__ = [
    "StateSpaceDims",
    "Point",
    "MetricBall",
    "SpaceTimeCylinder",
    "WeightedMeasure",
    "QuadratureConfig",
    "DomainSpec",
    "coordinate_distance",
    "coordinate_interval",
    "rho",
    "rho_batch",
    "ball_box",
    "sqrt_chart_quadrature",
    "mu_box",
    "mu_ball",
    "mu_ball_comparator",
    "cylinder_sets",
]

_TWO_THIRDS_SQRT = math.sqrt(2.0 / 3.0)


@record
class StateSpaceDims:
    """Number of degenerate (n) and free (m) coordinates, n + m >= 1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise DimensionMismatchError(
                f"need n >= 0, m >= 0, n + m >= 1, got n={self.n}, m={self.m}"
            )

    @property
    def total(self) -> int:
        return self.n + self.m


@record
class Point:
    """A state ``z = (x, y)`` with nonnegative degenerate coordinates x."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if any(v < 0.0 for v in self.x):
            raise ValueError(f"degenerate coordinates must be >= 0, got x={self.x}")

    @property
    def dims(self) -> StateSpaceDims:
        return StateSpaceDims(len(self.x), len(self.y))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.x + self.y, dtype=float)

    @staticmethod
    def from_vector(dims: StateSpaceDims, vec: Sequence[float]) -> "Point":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dims.total,):
            raise DimensionMismatchError(
                f"vector of length {vec.shape} does not match dims {dims}"
            )
        return Point(tuple(vec[: dims.n]), tuple(vec[dims.n :]))


def _check_same_dims(z0: Point, z: Point) -> None:
    if len(z0.x) != len(z.x) or len(z0.y) != len(z.y):
        raise DimensionMismatchError(
            f"points have dims ({len(z0.x)},{len(z0.y)}) and ({len(z.x)},{len(z.y)})"
        )


def coordinate_distance(a, b):
    """Boundary-adapted distance between two values of one degenerate axis.

    ``|sqrt(a) - sqrt(b)|`` when both values are <= 1, ``|a - b|`` when both
    are >= 1, and the additive path through 1 (``|sqrt(min) - 1| + |max - 1|``)
    otherwise.  Vectorized over numpy arrays.  This is the canonical comparator
    fixed by the package: it is symmetric, vanishes exactly on the diagonal,
    and satisfies the triangle inequality up to a factor <= 2 (the mixed
    branch concatenates the two pure branches through the crossover at 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    sqrt_branch = np.abs(np.sqrt(np.maximum(a, 0.0)) - np.sqrt(np.maximum(b, 0.0)))
    mixed = (1.0 - np.sqrt(np.maximum(lo, 0.0))) + (hi - 1.0)
    out = np.where(hi <= 1.0, sqrt_branch, np.where(lo >= 1.0, hi - lo, mixed))
    if out.ndim == 0:
        return float(out)
    return out


def coordinate_interval(a: float, r: float) -> tuple[float, float]:
    """Closed interval ``{b >= 0 : d(a, b) <= r}`` for one degenerate axis.

    The boundary-adapted distance is monotone on either side of ``a``, so the
    sublevel set is an interval; its endpoints are the piecewise inverses of
    :func:`coordinate_distance`.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    sa = math.sqrt(a)
    # upper endpoint
    if a <= 1.0 and sa + r <= 1.0:
        hi = (sa + r) ** 2
    elif a <= 1.0:
        hi = 1.0 + (r - (1.0 - sa))
    else:
        hi = a + r
    # lower endpoint
    if a >= 1.0:
        if a - r >= 1.0:
            lo = a - r
        else:
            rem = r - (a - 1.0)
            lo = (1.0 - rem) ** 2 if rem <= 1.0 else 0.0
    else:
        lo = (sa - r) ** 2 if sa >= r else 0.0
    return lo, hi


def rho(z0: Point, z: Point) -> float:
    """Intrinsic distance: max of per-axis distances (boundary-adapted on x).

    Symmetric, zero exactly on the diagonal.  Because it is a max over
    per-axis terms, its metric balls are boxes in the original coordinates.
    """
    _check_same_dims(z0, z)
    d = 0.0
    for a, b in zip(z0.x, z.x):
        d = max(d, float(coordinate_distance(a, b)))
    for a, b in zip(z0.y, z.y):
        d = max(d, abs(a - b))
    return d


def rho_batch(z0: Point, states: np.ndarray) -> np.ndarray:
    """Distances from ``z0`` to each row of ``states`` (shape (..., n+m))."""
    states = np.asarray(states, dtype=float)
    n = len(z0.x)
    total = n + len(z0.y)
    if states.shape[-1] != total:
        raise DimensionMismatchError(
            f"states last axis {states.shape[-1]} != n+m = {total}"
        )
    d = np.zeros(states.shape[:-1], dtype=float)
    for i, a in enumerate(z0.x):
        d = np.maximum(d, coordinate_distance(a, states[..., i]))
    for l, a in enumerate(z0.y):
        d = np.maximum(d, np.abs(states[..., n + l] - a))
    return d


@record
class MetricBall:
    """Open ball ``rho(center, z) < radius`` of the intrinsic metric."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    def contains_batch(self, states: np.ndarray) -> np.ndarray:
        return rho_batch(self.center, states) < self.radius


def ball_box(ball: MetricBall) -> list[tuple[float, float]]:
    """Per-axis intervals of a ball, clipped to the state space.

    The metric is a max over per-axis terms, so the box IS the ball.
    """
    c, r = ball.center, ball.radius
    return [coordinate_interval(a, r) for a in c.x] + [(a - r, a + r) for a in c.y]


@record
class SpaceTimeCylinder:
    """Time slab ``(t_lo, t_hi)`` times a metric ball: the cylinders of the
    two-cylinder ratio probes."""

    t_lo: float
    t_hi: float
    ball: MetricBall

    def __post_init__(self) -> None:
        if not self.t_lo < self.t_hi:
            raise ValueError(f"empty time slab ({self.t_lo}, {self.t_hi})")


@record
class WeightedMeasure:
    """Measure with density ``prod_i x_i^(b_i(z) - 1)`` against Lebesgue.

    ``b_field`` maps a batch of states of shape (..., n+m) to weights of shape
    (..., n); it must be finite on compact sets.
    """

    b_field: Callable[[np.ndarray], np.ndarray]
    dims: StateSpaceDims

    @staticmethod
    def constant(dims: StateSpaceDims, values: Sequence[float]) -> "WeightedMeasure":
        vals = np.asarray(values, dtype=float)
        if vals.shape != (dims.n,):
            raise DimensionMismatchError(
                f"need {dims.n} weights, got shape {vals.shape}"
            )

        def b_field(states: np.ndarray) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            return np.broadcast_to(vals, states.shape[:-1] + (dims.n,)).copy()

        return WeightedMeasure(b_field, dims)

    def weights_at(self, states: np.ndarray) -> np.ndarray:
        w = np.asarray(self.b_field(np.asarray(states, dtype=float)), dtype=float)
        if w.shape[-1] != self.dims.n:
            raise DimensionMismatchError(
                f"b_field returned last axis {w.shape[-1]}, expected {self.dims.n}"
            )
        return w


@record
class QuadratureConfig:
    """Tensor-product midpoint rule resolution (points per axis)."""

    points_per_axis: int = 256

    def __post_init__(self) -> None:
        if self.points_per_axis < 1:
            raise ValueError("quadrature resolution must be positive")


def sqrt_chart_quadrature(
    measure: WeightedMeasure,
    chart_edges: Sequence[np.ndarray],
    points_per_cell: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights of ``mu`` on a tensor lattice of chart cells.

    ``chart_edges`` holds the cell edges of each axis in the chart: ``u = sqrt(x)``
    on degenerate axes, ``y`` on free axes.  Every cell gets ``points_per_cell``
    midpoint nodes per axis, so node axis ``i`` has ``len(chart_edges[i]) - 1``
    runs of ``points_per_cell`` nodes, cell by cell.  The chart removes the
    ``x^(b-1)`` endpoint singularity for ``b`` in (0, 1):
    ``x^(b-1) dx = 2 u^(2b-1) du``, with ``0^0 = 1``.  Returns the node states,
    shape (..., n+m), and the node weights (chart widths times
    ``prod_i 2 u_i^(2 b_i - 1)``), so that ``sum(weights * f(states))``
    approximates ``int f dmu``.

    Raises :class:`InvalidWeightError` when a weight is not finite, or when
    ``b_i <= 0`` on a cell whose lower edge lies on the face ``x_i = 0``.
    """
    dims = measure.dims
    if len(chart_edges) != dims.total:
        raise DimensionMismatchError(
            f"{len(chart_edges)} edge arrays, dims need {dims.total}"
        )
    chart_edges = [np.asarray(e, dtype=float) for e in chart_edges]
    offsets = np.arange(points_per_cell) + 0.5
    nodes = []
    weights = np.ones(())
    for e in chart_edges:
        h = np.diff(e) / points_per_cell
        nodes.append((e[:-1, None] + h[:, None] * offsets).reshape(-1))
        weights = np.multiply.outer(weights, np.repeat(h, points_per_cell))
    grids = np.meshgrid(*nodes, indexing="ij")
    states = np.stack(
        [g**2 if axis < dims.n else g for axis, g in enumerate(grids)], axis=-1
    )
    b = measure.weights_at(states)
    for i in range(dims.n):
        at_face = np.repeat(chart_edges[i][:-1] <= 0.0, points_per_cell)
        at_face = at_face.reshape((-1,) + (1,) * (dims.total - 1 - i))
        if np.any(at_face & (b[..., i] <= 0.0)):
            raise InvalidWeightError(
                "non-integrable weight (b <= 0 at the degenerate boundary)"
            )
        u = grids[i]
        expo = 2.0 * b[..., i] - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            jacobian = np.where((u == 0.0) & (expo == 0.0), 1.0, u**expo)
        weights = weights * 2.0 * jacobian
    if not np.all(np.isfinite(weights)):
        raise InvalidWeightError("non-finite measure weight")
    return states, weights


def mu_box(
    measure: WeightedMeasure,
    box: Sequence[tuple[float, float]],
    quadrature: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Weighted measure of an axis-aligned box by tensor midpoint quadrature.

    One :func:`sqrt_chart_quadrature` cell per axis.
    """
    dims = measure.dims
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != dims.total:
        raise DimensionMismatchError(f"box has {len(box)} axes, dims need {dims.total}")
    edges = []
    for i, (lo, hi) in enumerate(box):
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise ValueError("mu_box needs a finite box")
        if hi <= lo:
            return 0.0
        edges.append(np.sqrt([max(lo, 0.0), hi]) if i < dims.n else np.array([lo, hi]))
    _, weights = sqrt_chart_quadrature(measure, edges, quadrature.points_per_axis)
    return float(weights.sum())


def mu_ball(
    measure: WeightedMeasure,
    ball: MetricBall,
    quadrature: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Weighted measure of a metric ball intersected with the state space.

    The ball is the box :func:`ball_box`, so the midpoint rule of
    :func:`mu_box` keeps second order.
    """
    if ball.center.dims != measure.dims:
        raise DimensionMismatchError("ball center does not match measure dims")
    return mu_box(measure, ball_box(ball), quadrature)


def mu_ball_comparator(
    measure: WeightedMeasure, ball: MetricBall, r0: float = 0.25
) -> float:
    """Closed-form two-sided comparator for the measure of an intrinsic ball.

    ``r^(m+n) * prod_{i in I} (sqrt(x0_i) max r)^(2 b_i(z0) - 1)`` with
    ``I = {i : x0_i <= r0}``.  The crossover radius ``r0`` is a configuration
    knob (only the existence of a small enough value is guaranteed).
    """
    z0 = ball.center
    r = ball.radius
    b = measure.weights_at(z0.vector[None, :])[0]
    out = r ** measure.dims.total
    for xi, bi in zip(z0.x, b):
        if xi <= r0:
            out *= max(math.sqrt(xi), r) ** (2.0 * bi - 1.0)
    return float(out)


def cylinder_sets(
    s: float, z: Point, radius: float, c: float, d: float
) -> tuple[SpaceTimeCylinder, SpaceTimeCylinder]:
    """Earlier/later cylinder pair of the scale-invariant ratio probe.

    With ``alpha = 8/(3 c^2)``, ``beta = 4 - d^2`` and ``gamma = d^2`` the pair
    is ``(s - alpha*rho^2, s - beta*rho^2) x B_rho(z)`` and
    ``(s, s + gamma*rho^2) x B_rho(z)``.  Requires ``c in (sqrt(2/3), 1)``,
    ``d^2 < max(1, 4 - 8/(3 c^2))`` and the resulting ``alpha > beta``;
    anything else raises :class:`InvalidHarnackParametersError`.
    """
    if radius <= 0.0:
        raise ValueError("cylinder radius must be positive")
    if not (_TWO_THIRDS_SQRT < c < 1.0):
        raise InvalidHarnackParametersError(
            f"c={c} outside (sqrt(2/3), 1) = ({_TWO_THIRDS_SQRT:.6f}, 1)"
        )
    alpha = 8.0 / (3.0 * c * c)
    d2 = d * d
    if not d2 < max(1.0, 4.0 - alpha):
        raise InvalidHarnackParametersError(
            f"d^2={d2:.6g} not below max(1, 4 - 8/(3c^2))={max(1.0, 4.0 - alpha):.6g}"
        )
    beta = 4.0 - d2
    gamma = d2
    if not alpha > beta:
        raise InvalidHarnackParametersError(
            f"alpha={alpha:.6g} <= beta={beta:.6g}; increase d^2 above {4.0 - alpha:.6g}"
        )
    r2 = radius**2
    ball = MetricBall(z, radius)
    q_minus = SpaceTimeCylinder(s - alpha * r2, s - beta * r2, ball)
    q_plus = SpaceTimeCylinder(s, s + gamma * r2, ball)
    return q_minus, q_plus


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


def _encode_bound(v: float):
    return None if not np.isfinite(v) else v


def _decode_bound(v, default: float) -> float:
    return default if v is None else float(v)


class _Bounds:
    """A box's test of the states a projected step gives: each ``(ufunc,
    axis, bound)`` compares one coordinate with one bound it can cross, and
    a state is inside when every comparison holds."""

    def __init__(self, bounds: list):
        self.bounds = bounds

    def __call__(self, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(states.shape[:-1], dtype=bool)
        self.bind(states, out, NOW)
        return out

    def bind(self, states: np.ndarray, out: np.ndarray, calls) -> None:
        """The comparisons of ``states`` into ``out``, each further one
        through a mask of its own."""
        (op, i, bound), *rest = self.bounds
        calls.add(op, states[..., i], bound, out)
        if rest:
            mask = np.empty(out.shape, dtype=bool)
            for op, i, bound in rest:
                calls.add(op, states[..., i], bound, mask)
                calls.add(np.logical_and, out, mask, out)


@record
class DomainSpec:
    """Open subdomain of the state space with its boundary split.

    ``contains_underline`` tests the open set together with the degenerate
    boundary portion (the part of the topological boundary lying inside
    ``{x_i = 0}`` faces), which is where simulated paths are allowed to live;
    called as ``contains_underline(states, out=mask)`` it writes its answer
    into a boolean ``mask`` of shape ``states.shape[:-1]``;
    :meth:`membership` tests the open set alone.  ``interior_boundary_distance``
    is a signed distance to the non-degenerate boundary only (positive inside,
    negative outside, +inf when there is none).  ``has_exit_boundary`` is
    False when there is none, so that a path can never leave: a box whose
    bounds are all infinite but for the closed faces ``x_i = 0``.
    ``projected`` pairs the ``contains_underline`` a constructor built with
    its narrowing to projected states (:meth:`projected_underline`).
    """

    dims: StateSpaceDims
    bounding_box: tuple[tuple[float, float], ...]
    shape: str
    params: dict = field(default_factory=dict, compare=False)
    contains_underline: Callable[[np.ndarray], np.ndarray] = field(
        compare=False, default=None
    )
    interior_boundary_distance: Callable[[np.ndarray], np.ndarray] = field(
        compare=False, default=None
    )
    has_exit_boundary: bool = field(compare=False, default=True)
    projected: tuple | None = field(compare=False, default=None, repr=False)

    def projected_underline(self) -> Callable:
        """``contains_underline`` for the states a projected step gives:
        finite, with degenerate coordinates ``>= 0`` (a start may hold
        ``-0.0``).  A box tests only the bounds such a state can cross, which
        leaves out its closed faces ``x_i = 0`` and its infinite bounds; any
        other spec, or one whose ``contains_underline`` was replaced, gets
        that function."""
        if self.projected is not None and self.projected[0] is self.contains_underline:
            return self.projected[1]
        return self.contains_underline

    def bind_projected_underline(self, states: np.ndarray, out: np.ndarray, calls) -> None:
        """The calls of :meth:`projected_underline` on ``states`` into
        ``out``: a box's NumPy comparisons, else one call of that function."""
        test = self.projected_underline()
        if isinstance(test, _Bounds):
            test.bind(states, out, calls)
        else:
            calls.add(test, states, out=out)

    def membership(self, states: np.ndarray) -> np.ndarray:
        """The open set: the underline set without the degenerate faces."""
        states = np.asarray(states, dtype=float)
        return self.contains_underline(states) & np.all(
            states[..., : self.dims.n] > 0.0, axis=-1
        )

    def contains(self, z: Point) -> bool:
        return bool(self.membership(z.vector[None, :])[0])

    def contains_point_underline(self, z: Point) -> bool:
        return bool(self.contains_underline(z.vector[None, :])[0])

    # -- constructors -------------------------------------------------------

    @staticmethod
    def box(
        dims: StateSpaceDims, bounds: Sequence[tuple[float, float]]
    ) -> "DomainSpec":
        bounds = tuple(
            (
                _decode_bound(lo, 0.0 if i < dims.n else -np.inf),
                _decode_bound(hi, np.inf),
            )
            for i, (lo, hi) in enumerate(bounds)
        )
        if len(bounds) != dims.total:
            raise DimensionMismatchError("bounding box does not match dims")
        for i in range(dims.n):
            if bounds[i][0] < 0.0:
                raise ValueError("degenerate-axis lower bounds must be >= 0")
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        deg_lo_open = np.array(
            [i < dims.n and bounds[i][0] == 0.0 for i in range(dims.total)]
        )
        # a face x_i = 0 is closed: s > nextafter(0, -inf) is s >= 0
        above = np.where(deg_lo_open, np.nextafter(0.0, -np.inf), lo)

        def underline(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            if states.shape[-1] != 1:
                return np.all((states > above) & (states < hi), axis=-1, out=out)
            # one coordinate: the two bounds' test is the answer
            col = states[..., 0]
            out = np.greater(col, above[0], out=out)
            out &= col < hi[0]
            return out

        # the bounds a projected state can cross: every finite one but a
        # closed face
        crossable = [(np.greater, i, float(lo[i])) for i in range(dims.total)
                     if np.isfinite(lo[i]) and not deg_lo_open[i]]
        crossable += [(np.less, i, float(hi[i])) for i in range(dims.total)
                      if np.isfinite(hi[i])]

        def distance(states: np.ndarray) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            d = np.full(states.shape[:-1], np.inf)
            for i in range(dims.total):
                if np.isfinite(hi[i]):
                    d = np.minimum(d, hi[i] - states[..., i])
                if np.isfinite(lo[i]) and not deg_lo_open[i]:
                    d = np.minimum(d, states[..., i] - lo[i])
            return d

        return DomainSpec(
            dims=dims,
            bounding_box=bounds,
            shape="box",
            params={},
            contains_underline=underline,
            interior_boundary_distance=distance,
            has_exit_boundary=bool(crossable),
            projected=(underline, _Bounds(crossable)) if crossable else None,
        )

    @staticmethod
    def full_space(dims: StateSpaceDims) -> "DomainSpec":
        """The whole state space; paths never exit (no non-degenerate boundary)."""
        return DomainSpec.box(dims, [(None, None)] * dims.total)

    @staticmethod
    def ball(
        dims: StateSpaceDims,
        center: Point,
        radius: float,
        bounding_box: Sequence[tuple[float, float]] | None = None,
    ) -> "DomainSpec":
        b = MetricBall(center, radius)
        box = tuple(ball_box(b))
        if bounding_box is not None:
            box = tuple(
                (max(lo, _decode_bound(clo, -np.inf)), min(hi, _decode_bound(chi, np.inf)))
                for (lo, hi), (clo, chi) in zip(box, bounding_box)
            )

        def underline(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            faces = np.all(states[..., : dims.n] >= 0.0, axis=-1)
            return np.logical_and(b.contains_batch(states), faces, out=out)

        def distance(states: np.ndarray) -> np.ndarray:
            return radius - rho_batch(center, states)

        return DomainSpec(
            dims=dims,
            bounding_box=box,
            shape="ball",
            params={"center": list(center.vector), "radius": radius},
            contains_underline=underline,
            interior_boundary_distance=distance,
        )

    @staticmethod
    def halfspace_intersection(
        dims: StateSpaceDims,
        normals: Sequence[Sequence[float]],
        offsets: Sequence[float],
        bounding_box: Sequence[tuple[float, float]],
    ) -> "DomainSpec":
        """Intersection of half-spaces ``a . z < c`` with a box and the state space."""
        A = np.asarray(normals, dtype=float)
        cvec = np.asarray(offsets, dtype=float)
        if A.ndim != 2 or A.shape[1] != dims.total or A.shape[0] != cvec.shape[0]:
            raise DimensionMismatchError("normals/offsets shapes are inconsistent")
        base = DomainSpec.box(dims, bounding_box)
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero normal vector")

        def underline(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            ok = base.contains_underline(states)
            slack = cvec - states @ A.T
            return np.logical_and(ok, np.all(slack > 0.0, axis=-1), out=out)

        def distance(states: np.ndarray) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            d = base.interior_boundary_distance(states)
            slack = (cvec - states @ A.T) / norms
            return np.minimum(d, slack.min(axis=-1))

        return DomainSpec(
            dims=dims,
            bounding_box=base.bounding_box,
            shape="halfspace-intersection",
            params={"normals": A.tolist(), "offsets": cvec.tolist()},
            contains_underline=underline,
            interior_boundary_distance=distance,
        )

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "dims": {"n": self.dims.n, "m": self.dims.m},
            "box": [[_encode_bound(lo), _encode_bound(hi)] for lo, hi in self.bounding_box],
            "shape": self.shape,
        }
        doc.update(self.params)
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str | dict) -> "DomainSpec":
        doc = json.loads(text) if isinstance(text, str) else text
        dims = StateSpaceDims(int(doc["dims"]["n"]), int(doc["dims"]["m"]))
        box = [tuple(pair) for pair in doc["box"]]
        shape = doc.get("shape", "box")
        if shape == "box":
            return DomainSpec.box(dims, box)
        if shape == "ball":
            if doc.get("metric", "intrinsic") != "intrinsic":
                raise ValueError(f"unknown ball metric {doc['metric']!r}")
            center = Point.from_vector(dims, doc["center"])
            return DomainSpec.ball(dims, center, float(doc["radius"]), bounding_box=box)
        if shape == "halfspace-intersection":
            return DomainSpec.halfspace_intersection(
                dims, doc["normals"], doc["offsets"], box
            )
        raise ValueError(f"unknown domain shape {shape!r}")
