"""Degenerate diffusion generators: coefficient specs, generator application,
assumption validation, the energy form, and the standard -> divergence-form
translation.

Two operator families act on the state space.  The *standard* form has bounded
drift weights on the degenerate axes; the *divergence-compatible* form carries
additional drift terms with ``ln x_j`` factors that make it symmetric against
the weighted measure of :mod:`kimura_lab.geometry`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidWeightError,
    NonDerivableError,
)
from .fields import (
    ConstantField,
    FieldMatrix,
    FieldVector,
    ScalarField,
    TestFunction,
    field_from_json,
)
from .geometry import (
    DomainSpec,
    QuadratureConfig,
    StateSpaceDims,
    WeightedMeasure,
    sqrt_chart_quadrature,
)

__all__ = [
    "AssumptionConstants",
    "StandardOperatorSpec",
    "SingularOperatorSpec",
    "apply_generator_batch",
    "drift_identity_g",
    "drift_identity_e",
    "drift_identity_f",
    "bilinear_form",
    "validate_assumptions",
    "make_validation_grid",
    "ValidationReport",
    "CheckResult",
    "derive_singular_from_standard",
    "LatticeField",
    "operator_from_json",
]


# assumption checks: comparison tolerance, and the random unit directions
# sampled against the form's exact eigenvalue range
VALIDATION_TOL = 1e-8
VALIDATION_DIRECTIONS = 128
VALIDATION_SEED = 0
# a lattice node with x_i at most this far from 0 lies on the face x_i = 0
FACE_TOL = 1e-10
# the most nodes a derived drift weight's solve lattice may have
MAX_LATTICE_NODES = 2**20


@dataclass(frozen=True)
class AssumptionConstants:
    """Ellipticity floor ``delta``, uniform bound ``K``, boundary-weight floor."""

    delta: float
    K: float
    b_bar: float

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= self.K):
            raise ValueError(f"need 0 < delta <= K, got delta={self.delta}, K={self.K}")
        if self.b_bar <= 0.0:
            raise ValueError("b_bar must be positive")


class _OperatorBase:
    dims: StateSpaceDims

    def increment_covariance(self, states: np.ndarray) -> np.ndarray:
        """``alpha = S D S`` with ``S = diag(sqrt(x), 1)`` and ``D`` this
        operator's ``diffusion_matrix``: the covariance rate of the SDE
        increments and the second-order coefficient matrix of the generator."""
        states = np.asarray(states, dtype=float)
        s = np.ones(states.shape)
        s[..., : self.dims.n] = np.sqrt(np.maximum(states[..., : self.dims.n], 0.0))
        return self.diffusion_matrix(states) * s[..., :, None] * s[..., None, :]


@dataclass(frozen=True)
class StandardOperatorSpec(_OperatorBase):
    """Coefficients of the standard (non-divergence) generator.

    Second order: ``x_i u_xixi + x_i x_j a_hat_ij u_xixj + x_i c_hat_il u_xiyl
    + d_hat_kl u_ykyl``; first order: ``b_hat_i u_xi + e_hat_l u_yl``.
    """

    dims: StateSpaceDims
    a_hat: FieldMatrix
    b_hat: FieldVector
    c_hat: FieldMatrix
    d_hat: FieldMatrix
    e_hat: FieldVector
    constants: AssumptionConstants | None = None

    def __post_init__(self) -> None:
        n, m = self.dims.n, self.dims.m
        if self.a_hat.shape != (n, n) or len(self.b_hat) != n:
            raise DimensionMismatchError("a_hat/b_hat shapes do not match dims")
        if self.c_hat.shape != (n, m) or self.d_hat.shape != (m, m):
            raise DimensionMismatchError("c_hat/d_hat shapes do not match dims")
        if len(self.e_hat) != m:
            raise DimensionMismatchError("e_hat length does not match dims")

    def diffusion_matrix(self, states: np.ndarray) -> np.ndarray:
        """``D^`` of :func:`_diffusion_matrix` with ``a = 1``, ``a~ = a^``,
        cross coefficient ``c^`` and free block ``d^``."""
        states = np.asarray(states, dtype=float)
        return _diffusion_matrix(
            states, np.ones(states.shape[:-1] + (self.dims.n,)),
            self.a_hat.evaluate_batch(states), self.c_hat.evaluate_batch(states),
            self.d_hat.evaluate_batch(states),
        )

    def drift(self, states, log_clamp_eps=0.0, log_sum=None) -> np.ndarray:
        """``(b^, e^)``, shape (..., n+m).  The standard form has no log drift;
        the other arguments are those of the divergence side and unused."""
        states = np.asarray(states, dtype=float)
        b = self.b_hat.evaluate_batch(states)
        return np.concatenate([b, self.free_drift(states)], -1) if self.dims.m else b

    def free_drift(self, states: np.ndarray) -> np.ndarray:
        """Free rows of :meth:`drift`, ``e^``, shape (..., m)."""
        return self.e_hat.evaluate_batch(np.asarray(states, dtype=float))

    @property
    def drift_is_constant(self) -> bool:
        """:meth:`drift` has no state dependence: ``b^`` and ``e^`` are constant."""
        return self.b_hat.is_constant and self.e_hat.is_constant

    @property
    def diffusion_is_constant(self) -> bool:
        """:meth:`diffusion_matrix` has no state dependence: its ``sqrt(x)``
        blocks ``a^`` and ``c^`` vanish and ``d^`` is constant."""
        return self.a_hat.is_zero and self.c_hat.is_zero and self.d_hat.is_constant

    # the standard form has no log drift, so no log couplings to vary
    log_coupling_is_constant = True

    def log_coupling(self, states: np.ndarray) -> None:
        return None


@dataclass(frozen=True)
class SingularOperatorSpec(_OperatorBase):
    """Coefficients of the divergence-compatible generator with log drift.

    ``a_diag`` are the ``x_i u_xixi`` factors, ``a_tilde`` the symmetric
    second-order couplings, ``b`` the measure weights (with derivative access),
    ``c`` the degenerate/free couplings and ``d`` the free-block matrix.
    """

    dims: StateSpaceDims
    a_diag: FieldVector
    a_tilde: FieldMatrix
    b: FieldVector
    c: FieldMatrix
    d: FieldMatrix
    constants: AssumptionConstants | None = None
    derived_from: StandardOperatorSpec | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n, m = self.dims.n, self.dims.m
        if len(self.a_diag) != n or self.a_tilde.shape != (n, n) or len(self.b) != n:
            raise DimensionMismatchError("a/b shapes do not match dims")
        if self.c.shape != (n, m) or self.d.shape != (m, m):
            raise DimensionMismatchError("c/d shapes do not match dims")
        # With a~ = 0 and every partial of a_ii and c_il zero, b_i a_ii is the
        # only term of drift_identity_g left; ``_speed`` keeps the floats a_ii
        # (None when some other term may not vanish, or a factor is zero).
        speed = None
        if (
            self.a_tilde.is_zero and self.a_diag.is_constant and self.c.is_constant
            and not any(e.is_zero for e in self.a_diag.entries + self.b.entries)
            and all(self.a_diag[i].partial(i).is_zero for i in range(n))
            and all(self.c[i, l].partial(n + l).is_zero for i in range(n) for l in range(m))
        ):
            speed = self.a_diag.evaluate_batch(np.ones((1, self.dims.total)))[0]
        object.__setattr__(self, "_speed", speed)
        # With every c_il and every d_yk d_lk a zero field, each term of
        # drift_identity_e vanishes and ``e`` is its +0.0 block.
        object.__setattr__(self, "_e_is_zero", self.c.is_zero and all(
            self.d[l, k].partial(n + k).is_zero for l in range(m) for k in range(m)
        ))

    def diffusion_matrix(self, states: np.ndarray) -> np.ndarray:
        """``D`` of :func:`_diffusion_matrix` with cross coefficient ``2 c``."""
        states = np.asarray(states, dtype=float)
        return _diffusion_matrix(
            states, self.a_diag.evaluate_batch(states), self.a_tilde.evaluate_batch(states),
            2.0 * self.c.evaluate_batch(states), self.d.evaluate_batch(states),
        )

    def log_coupling(self, states: np.ndarray) -> np.ndarray | None:
        """:func:`drift_identity_f` at ``states``; None when ``b`` is
        constant, as ``f`` then vanishes."""
        return None if self.b.is_constant else drift_identity_f(self, states)

    def log_drift(self, states, log_clamp_eps=0.0, coupling=None) -> np.ndarray | None:
        """``sum_j f_rj ln max(x_j, eps)`` for every row ``r``, shape (..., n+m);
        None when ``b`` is constant, as ``f`` then vanishes.  ``coupling``
        passes in a state-free ``f`` of shape (n+m, n) when the caller holds
        one.  With ``eps = 0`` a state on a face ``x_j = 0`` gives an
        infinite log."""
        if coupling is None:
            coupling = self.log_coupling(states)
            if coupling is None:
                return None
        states = np.asarray(states, dtype=float)
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(states[..., : self.dims.n], log_clamp_eps))
        # one contraction for a per-state and a state-free f: the same sums
        return np.einsum("...rj,...j->...r", coupling, logs)

    def drift(self, states, log_clamp_eps=0.0, log_sum=None) -> np.ndarray:
        """``(g + x * (f . ln x), e + f . ln x)``, shape (..., n+m), with the
        :meth:`log_drift` ``f . ln x``; ``log_sum`` passes in that result when
        the caller already has it for these states."""
        n = self.dims.n
        states = np.asarray(states, dtype=float)
        if log_sum is None:
            log_sum = self.log_drift(states, log_clamp_eps)
        if self._speed is None:
            g = drift_identity_g(self, states)
        else:
            g = self.b.evaluate_batch(states) * self._speed
        if log_sum is not None:
            g = g + states[..., :n] * log_sum[..., :n]
        if not self.dims.m:
            return g
        return np.concatenate([g, self.free_drift(states, log_clamp_eps, log_sum)], -1)

    def free_drift(self, states, log_clamp_eps=0.0, log_sum=None) -> np.ndarray:
        """Free rows of :meth:`drift`, ``e + f_y . ln x``, shape (..., m)."""
        states = np.asarray(states, dtype=float)
        if not self.dims.m:
            return np.zeros(states.shape[:-1] + (0,))
        if log_sum is None:
            log_sum = self.log_drift(states, log_clamp_eps)
        if self._e_is_zero:
            e = np.zeros(states.shape[:-1] + (self.dims.m,))
        else:
            e = drift_identity_e(self, states)
        return e if log_sum is None else e + log_sum[..., self.dims.n :]

    @property
    def drift_is_constant(self) -> bool:
        """:meth:`drift` has no state dependence: every field is constant and
        ``a~ = 0``, so ``g = b a``, ``e`` is constant and ``f`` vanishes."""
        fields = (self.a_diag, self.b, self.c, self.d)
        return self.a_tilde.is_zero and all(f.is_constant for f in fields)

    @property
    def diffusion_is_constant(self) -> bool:
        """:meth:`diffusion_matrix` has no state dependence: its ``sqrt(x)``
        blocks ``a~`` and ``c`` vanish and ``a`` and ``d`` are constant."""
        return (
            self.a_tilde.is_zero and self.c.is_zero
            and self.a_diag.is_constant and self.d.is_constant
        )

    @property
    def log_coupling_is_constant(self) -> bool:
        """:meth:`log_coupling` has no state dependence: ``a~`` and ``c``
        vanish, ``a`` and ``d`` are constant and so is every partial of
        ``b``, leaving ``f_ij = a_ii d_xi b_j`` and
        ``f_(n+l)j = sum_k d_lk d_yk b_j``."""
        return (
            self.a_tilde.is_zero and self.c.is_zero
            and self.a_diag.is_constant and self.d.is_constant
            and all(
                b.partial(axis).is_constant
                for b in self.b.entries for axis in range(self.dims.total)
            )
        )

    def measure(self) -> WeightedMeasure:
        """Weighted measure carrying this operator's ``b`` as exponents."""
        return WeightedMeasure(self.b.evaluate_batch, self.dims)


# ---------------------------------------------------------------------------
# Second-order coefficients
# ---------------------------------------------------------------------------


def _diffusion_matrix(states, a, at, cross, d) -> np.ndarray:
    """``D_ij = 2 a_i delta_ij + 2 sqrt(x_i x_j) at_ij`` on the degenerate
    block, ``D_i,n+l = sqrt(x_i) cross_il`` and ``D_n+l,n+k = 2 d_lk``, with
    ``sqrt(x)`` read as ``sqrt(max(x, 0))``.

    Every second-order quantity derives from this matrix: ``sigma sigma* = D``,
    the increment covariance ``alpha = S D S`` with ``S = diag(sqrt(x), 1)``,
    the generators' ``1/2 tr(alpha H)``, the energy integrand
    ``1/2 grad u . alpha grad v`` and the validation form ``1/2 P D P`` with
    ``P = diag(1_n, 2_m)``.  ``cross`` is the operator's own ``x_i u_xiyl``
    coefficient."""
    n, m = cross.shape[-2], d.shape[-1]
    sx = np.sqrt(np.maximum(states[..., :n], 0.0))
    D = np.empty(states.shape[:-1] + (n + m, n + m))
    D[..., :n, :n] = 2.0 * (sx[..., :, None] * sx[..., None, :] * at)
    diag = np.arange(n)
    D[..., diag, diag] += 2.0 * a
    D[..., :n, n:] = sx[..., :, None] * cross
    D[..., n:, :n] = np.swapaxes(D[..., :n, n:], -1, -2)
    D[..., n:, n:] = 2.0 * d
    return D


# ---------------------------------------------------------------------------
# Drift identities behind the divergence-side drift
# ---------------------------------------------------------------------------


def _reader(states: np.ndarray):
    """``read(field)`` at ``states``: None for a zero field, the float of one
    with a ``value``, else its batch of values; each field is evaluated once."""
    memo: dict[ScalarField, object] = {}  # fields hash by identity

    def read(entry: ScalarField):
        if entry not in memo:
            if entry.is_zero:
                memo[entry] = None
            elif entry.value is not None:
                memo[entry] = entry.value
            else:
                memo[entry] = entry.evaluate_batch(states)
        return memo[entry]

    return read


def _prod(read, *factors):
    """Left-to-right product of fields (read by ``read``) and arrays; None, with
    nothing evaluated, when a factor is None or a zero field."""
    if any(f is None or (isinstance(f, ScalarField) and f.is_zero) for f in factors):
        return None
    out = None
    for f in factors:
        val = read(f) if isinstance(f, ScalarField) else f
        out = val if out is None else out * val
    return out


def _sum(terms):
    """Left-to-right sum of the terms that are not None; None when none is."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


# Each identity adds its terms in the order its formula writes them and
# leaves out a term with a zero factor, reading a constant field as its
# float: skipping an exact zero leaves the sum's bits as they were.


def drift_identity_g(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Bounded part of the degenerate-axis drift, shape (..., n).

    ``g_i = b_i a_ii + x_i (d_xi a_ii + sum_j (a~_ij + delta_ij a~_ii
    + x_j d_xj a~_ij + a~_ij (b_j - 1)) + sum_l d_yl c_il)``, affine in ``b``:
    ``g(b) = g(0) + (diag(a) + diag(x) a~) b``.
    """
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    g = np.zeros(states.shape[:-1] + (n,))
    for i in range(n):
        terms = [read(op.a_diag[i].partial(i))]
        for j in range(n):
            at = op.a_tilde[i, j]
            terms.append(read(at))
            terms.append(_prod(read, states[..., j], at.partial(j)))
            if not at.is_zero:
                b_j = read(op.b[j])
                terms.append(read(at) * ((0.0 if b_j is None else b_j) - 1.0))
            if i == j:
                terms.append(read(at))
        terms += [read(op.c[i, l].partial(n + l)) for l in range(m)]
        g_i = _sum([_prod(read, op.b[i], op.a_diag[i]), _prod(read, states[..., i], _sum(terms))])
        if g_i is not None:
            g[..., i] = g_i
    return g


def drift_identity_e(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Bounded part of the free-axis drift, shape (..., m).

    ``e_l = sum_i (x_i d_xi c_il + b_i c_il) + sum_k d_yk d_lk``.
    """
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    e = np.zeros(states.shape[:-1] + (m,))
    for l in range(m):
        terms = []
        for i in range(n):
            terms.append(_prod(read, states[..., i], op.c[i, l].partial(i)))
            terms.append(_prod(read, op.b[i], op.c[i, l]))
        terms += [read(op.d[l, k].partial(n + k)) for k in range(m)]
        e_l = _sum(terms)
        if e_l is not None:
            e[..., l] = e_l
    return e


def drift_identity_f(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Log-drift couplings, shape (..., n+m, n).

    The drift ``(1/w) div(w A)`` of the weight ``w = prod_j x_j^(b_j - 1)``
    differentiates ``ln w`` along each row of ``A``, whose degenerate
    diagonal is ``x_i a_ii + x_i^2 a~_ii``.  Degenerate rows:
    ``f_ij = a_ii d_xi b_j + sum_k x_k a~_ik d_xk b_j + sum_l c_il d_yl b_j``.
    Free rows: ``f_(n+l)j = sum_i x_i c_il d_xi b_j + sum_k d_lk d_yk b_j``.
    All rows vanish identically when ``b`` is constant.
    """
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    f = np.zeros(states.shape[:-1] + (n + m, n))
    for j in range(n):
        db = [read(op.b[j].partial(axis)) for axis in range(n + m)]
        rows = []
        for i in range(n):
            rows.append(
                [_prod(read, op.a_diag[i], db[i])]
                + [_prod(read, states[..., k], op.a_tilde[i, k], db[k]) for k in range(n)]
                + [_prod(read, op.c[i, l], db[n + l]) for l in range(m)]
            )
        for l in range(m):
            rows.append(
                [_prod(read, states[..., i], op.c[i, l], db[i]) for i in range(n)]
                + [_prod(read, op.d[l, k], db[n + k]) for k in range(m)]
            )
        for r, terms in enumerate(rows):
            f_rj = _sum(terms)
            if f_rj is not None:
                f[..., r, j] = f_rj
    return f


# ---------------------------------------------------------------------------
# Generator application
# ---------------------------------------------------------------------------


def apply_generator_batch(
    op, u: TestFunction, states: np.ndarray, log_clamp_eps: float = 0.0
) -> np.ndarray:
    """Generator ``1/2 tr(alpha H) + drift . grad u`` of ``op`` applied to
    ``u`` on a batch of states, with ``alpha`` the increment covariance and
    ``drift`` the spec's :meth:`drift`; one function for both forms.

    On the divergence side ``log_clamp_eps > 0`` reads the log drift as
    ``ln max(x_j, eps)``, which keeps it finite on the degenerate boundary;
    with the default 0, boundary states give infinite logs when ``b`` is not
    constant.  A constant ``b`` has ``f = 0`` and no log term.
    """
    states = np.asarray(states, dtype=float)
    alpha = op.increment_covariance(states)
    return 0.5 * np.einsum("...ij,...ij->...", alpha, u.hessian(states)) + np.einsum(
        "...i,...i->...", op.drift(states, log_clamp_eps), u.gradient(states)
    )


# ---------------------------------------------------------------------------
# Energy form
# ---------------------------------------------------------------------------


def bilinear_form(
    op: SingularOperatorSpec,
    u: TestFunction,
    v: TestFunction,
    domain: DomainSpec,
    quadrature: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Symmetric energy form of ``op`` against its weighted measure.

    ``Q(u, v) = int 1/2 grad u . alpha grad v dmu`` with ``alpha`` the
    increment covariance, that is ``int [ sum_i x_i a_ii du_i dv_i
    + sum_ij x_i x_j a~_ij du_i dv_j + sum_il x_i c_il (du_i dv_yl + du_yl dv_i)
    + sum_lk d_lk du_yl dv_yk ] dmu``, computed by :func:`~kimura_lab.geometry.sqrt_chart_quadrature` over the
    intersection of the test-function supports with the domain box.
    """
    dims = op.dims
    n, m = dims.n, dims.m
    box = [list(pair) for pair in domain.bounding_box]
    for support in (u.support_box, v.support_box):
        if support is not None:
            for axis, (lo, hi) in enumerate(support):
                box[axis][0] = max(box[axis][0], lo)
                box[axis][1] = min(box[axis][1], hi)
    for axis in range(n):
        box[axis][0] = max(box[axis][0], 0.0)
    if any(not np.isfinite(lo) or not np.isfinite(hi) for lo, hi in box):
        raise ValueError(
            "energy-form quadrature needs a finite box; give the test functions "
            "compact supports or the domain a finite bounding box"
        )
    if any(hi <= lo for lo, hi in box):
        return 0.0
    edges = [np.sqrt(pair) if i < n else np.asarray(pair) for i, pair in enumerate(box)]
    states, weights = sqrt_chart_quadrature(
        op.measure(), edges, quadrature.points_per_axis
    )
    integrand = 0.5 * np.einsum(
        "...i,...ij,...j->...",
        u.gradient(states), op.increment_covariance(states), v.gradient(states),
    )
    return float(np.sum(integrand * weights * domain.contains_underline(states)))


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple[CheckResult, ...]
    inferred: AssumptionConstants | None
    form_min: float
    form_max: float


def make_validation_grid(
    dims: StateSpaceDims,
    x_hi: float = 1.0,
    y_box: tuple[float, float] = (-1.0, 1.0),
    points_per_axis: int = 9,
) -> np.ndarray:
    """Tensor sample grid over ``[0, x_hi]^n x y_box^m``, boundary included."""
    axes = []
    for _ in range(dims.n):
        axes.append(np.linspace(0.0, x_hi, points_per_axis))
    for _ in range(dims.m):
        axes.append(np.linspace(y_box[0], y_box[1], points_per_axis))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dims.total)


def _form_matrix(op, states: np.ndarray) -> np.ndarray:
    """Ellipticity form ``1/2 P D P`` with ``P = diag(1_n, 2_m)`` at each state,
    symmetrized: ``eigvalsh`` reads one triangle, and a non-symmetric ``a~``
    fails its own symmetry check."""
    p = np.ones(op.dims.total)
    p[op.dims.n :] = 2.0
    G = 0.5 * op.diffusion_matrix(states) * p[:, None] * p[None, :]
    return 0.5 * (G + np.swapaxes(G, 1, 2))


def validate_assumptions(
    op,
    grid: np.ndarray,
    constants: AssumptionConstants | None = None,
) -> ValidationReport:
    """Empirical check of the coefficient assumptions on a sample grid.

    Reports the extremes of the ellipticity quadratic form (exact smallest /
    largest eigenvalue of the assembled form matrix plus random unit
    directions), the flat-region requirements away from the unit cell, the
    drift-weight bounds, and symmetry of the second-order blocks.  Shrinking
    the grid can only relax the empirical extremes, never turn a pass into a
    fail.
    """
    states = np.asarray(grid, dtype=float)
    if states.ndim != 2 or states.shape[1] != op.dims.total:
        raise DimensionMismatchError("grid must have shape (N, n+m)")
    n, m = op.dims.n, op.dims.m
    constants = constants or getattr(op, "constants", None)
    checks: list[CheckResult] = []

    if isinstance(op, StandardOperatorSpec):
        sym_blocks = [("a_hat", op.a_hat), ("d_hat", op.d_hat)]
        b_vec, c_mat, d_mat = op.b_hat, op.c_hat, op.d_hat
    else:
        sym_blocks = [("a_tilde", op.a_tilde), ("d", op.d)]
        b_vec, c_mat, d_mat = op.b, op.c, op.d

    for name, block in sym_blocks:
        vals = block.evaluate_batch(states)
        asym = float(np.abs(vals - np.swapaxes(vals, -1, -2)).max(initial=0.0))
        checks.append(CheckResult(
            f"symmetry:{name}", asym <= VALIDATION_TOL, f"max asymmetry {asym:.3g}"
        ))

    G = _form_matrix(op, states)
    eigs = np.linalg.eigvalsh(G)
    form_min = float(eigs[:, 0].min())
    form_max = float(eigs[:, -1].max())
    rng = np.random.Generator(np.random.Philox(key=VALIDATION_SEED))
    dirs = rng.standard_normal((VALIDATION_DIRECTIONS, op.dims.total))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = np.einsum("kd,nde,ke->nk", dirs, G, dirs)
    dir_min, dir_max = float(vals.min()), float(vals.max())
    checks.append(
        CheckResult(
            "ellipticity:eigen-vs-directions",
            dir_min >= form_min - VALIDATION_TOL and dir_max <= form_max + VALIDATION_TOL,
            f"eig range [{form_min:.4g}, {form_max:.4g}], "
            f"sampled [{dir_min:.4g}, {dir_max:.4g}]",
        )
    )
    checks.append(
        CheckResult(
            "ellipticity:positive",
            form_min > 0.0,
            f"min quadratic-form eigenvalue {form_min:.4g}",
        )
    )

    # flat requirements strictly beyond the unit cell; the shared face x_j = 1
    # is attributed to the unit-cell region (on the face itself the two
    # regional requirement sets are contradictory for non-unit weights)
    away = np.zeros(states.shape[0], dtype=bool)
    if n:
        away = np.any(states[:, :n] > 1.0 + 1e-12, axis=1)
    if away.any():
        s_away = states[away]
        worst = 0.0
        if isinstance(op, StandardOperatorSpec):
            a_vals = op.a_hat.evaluate_batch(s_away)
        else:
            a_vals = op.a_tilde.evaluate_batch(s_away)
        worst = max(worst, float(np.abs(a_vals).max(initial=0.0)))
        c_vals = c_mat.evaluate_batch(s_away)
        worst = max(worst, float(np.abs(c_vals).max(initial=0.0)))
        d_vals = d_mat.evaluate_batch(s_away)
        eye = np.eye(m)
        if m:
            worst = max(worst, float(np.abs(d_vals - eye).max(initial=0.0)))
        if not isinstance(op, StandardOperatorSpec):
            # away from the corner the diagonal factors must flatten the
            # second-order term to a plain Laplacian: x_j a_jj = 1 (the
            # standard form has no consistent analogue of this clause)
            for j in range(n):
                mask = s_away[:, j] > 1.0 + 1e-12
                if mask.any():
                    aj = op.a_diag[j].evaluate_batch(s_away[mask])
                    worst = max(
                        worst,
                        float(np.abs(s_away[mask, j] * aj - 1.0).max(initial=0.0)),
                    )
        b_away = b_vec.evaluate_batch(s_away)
        if n:
            worst_b = float(np.abs(b_away - 1.0).max(initial=0.0))
        else:
            worst_b = 0.0
        checks.append(
            CheckResult(
                "flat-away-from-unit-cell",
                worst <= VALIDATION_TOL and worst_b <= VALIDATION_TOL,
                f"max coefficient deviation {worst:.3g}, drift-weight deviation "
                f"{worst_b:.3g} on {int(away.sum())} grid points",
            )
        )
    else:
        checks.append(
            CheckResult(
                "flat-away-from-unit-cell", True, "no grid points outside unit cell"
            )
        )

    b_all = b_vec.evaluate_batch(states)
    K_b = float(np.abs(b_all).max(initial=0.0)) if n else 0.0
    b_floor = math.inf
    for i in range(n):
        slice_states = states.copy()
        slice_states[:, i] = 0.0
        bi = b_vec.evaluate_batch(slice_states)[:, i]
        b_floor = min(b_floor, float(bi.min()))
    if n == 0:
        b_floor = math.inf

    inferred = None
    if form_min > 0.0 and (n == 0 or b_floor > 0.0):
        inferred = AssumptionConstants(
            delta=form_min,
            K=max(form_max, K_b, form_min),
            b_bar=b_floor if n else 1.0,
        )
    if n:
        checks.append(
            CheckResult(
                "boundary-weight-floor",
                b_floor > 0.0,
                f"min weight on degenerate faces {b_floor:.4g}",
            )
        )

    if constants is not None:
        checks.append(
            CheckResult(
                "declared-constants",
                form_min >= constants.delta - VALIDATION_TOL
                and form_max <= constants.K + VALIDATION_TOL
                and K_b <= constants.K + VALIDATION_TOL
                and (n == 0 or b_floor >= constants.b_bar - VALIDATION_TOL),
                f"delta_hat={form_min:.4g} vs delta={constants.delta}, "
                f"K_hat={max(form_max, K_b):.4g} vs K={constants.K}, "
                f"b_floor={b_floor if n else float('inf'):.4g} vs b_bar={constants.b_bar}",
            )
        )

    passed = all(c.passed for c in checks)
    return ValidationReport(
        passed=passed,
        checks=tuple(checks),
        inferred=inferred,
        form_min=form_min,
        form_max=form_max,
    )


# ---------------------------------------------------------------------------
# Standard -> divergence-form translation
# ---------------------------------------------------------------------------


class LatticeField(ScalarField):
    """Multilinear interpolation of node values on a uniform tensor lattice.

    Evaluation outside the lattice extrapolates linearly (exact for affine
    data), so solved drift weights stay usable on rare path excursions past
    the solve box.  Each axis's partial is differentiated once and kept, so
    a stepping loop that asks for it on every step reuses it.
    """

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise DimensionMismatchError("lattice values do not match axes")
        self.los = np.array([a[0] for a in self.axes])
        self.steps = np.array(
            [a[1] - a[0] if len(a) > 1 else 1.0 for a in self.axes]
        )
        self.sizes = np.array([len(a) for a in self.axes])
        self._partials: dict[int, LatticeField] = {}

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        flat = states.reshape(-1, states.shape[-1])
        t = (flat - self.los) / self.steps
        idx = np.clip(np.floor(t).astype(int), 0, self.sizes - 2)
        frac = t - idx
        out = np.zeros(flat.shape[0])
        dims = len(self.axes)
        for corner in itertools.product((0, 1), repeat=dims):
            weight = np.ones(flat.shape[0])
            pick = []
            for axis, bit in enumerate(corner):
                weight = weight * (frac[:, axis] if bit else 1.0 - frac[:, axis])
                pick.append(idx[:, axis] + bit)
            out += weight * self.values[tuple(pick)]
        return out.reshape(states.shape[:-1])

    def partial(self, axis: int) -> "LatticeField":
        if axis not in self._partials:
            # threads stepping blocks at once may both differentiate on the
            # first step; setdefault keeps one of the equal results
            grad = np.gradient(self.values, self.axes[axis], axis=axis)
            self._partials.setdefault(axis, LatticeField(self.axes, grad))
        return self._partials[axis]


def _lattice_axes(
    box: Sequence[tuple[float, float]], spacing: float, what: str, face: int | None = None
) -> list[np.ndarray]:
    """Uniform axes over ``box`` at about ``spacing``, with at least two nodes
    on each axis, or only the node 0 on axis ``face``; more than
    ``MAX_LATTICE_NODES`` nodes in all raises :class:`NonDerivableError`
    before any is built."""
    counts = [max(int(round((hi - lo) / spacing)) + 1, 2) for lo, hi in box]
    if face is not None:
        counts[face] = 1
    n_nodes = math.prod(counts)
    if n_nodes > MAX_LATTICE_NODES:
        raise NonDerivableError(
            f"the {what} would have {n_nodes} nodes, more than "
            f"{MAX_LATTICE_NODES}; pass a smaller lattice_box or a coarser lattice_spacing"
        )
    return [
        np.zeros(1) if axis == face else np.linspace(lo, hi, count)
        for axis, ((lo, hi), count) in enumerate(zip(box, counts))
    ]


def _nodes(axes: Sequence[np.ndarray]) -> np.ndarray:
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _exact_weight(std: StandardOperatorSpec, i: int) -> ScalarField:
    """``b_i = b^_i - x_i/2 sum_l d_yl c^_il``, the drift weight when ``a^ = 0``:
    ``b^_i`` itself when every ``d_yl c^_il`` vanishes."""
    n = std.dims.n
    slopes = [std.c_hat[i, l].partial(n + l) for l in range(std.dims.m)]
    slopes = [s for s in slopes if not s.is_zero]
    if not slopes:
        return std.b_hat[i]
    return _ScaledField([(1.0, None, std.b_hat[i])] + [(-0.5, i, s) for s in slopes])


def derive_singular_from_standard(
    std: StandardOperatorSpec,
    lattice_box: Sequence[tuple[float, float]] | None = None,
    lattice_spacing: float = 1.0 / 64.0,
) -> SingularOperatorSpec:
    """Translate a standard spec into the divergence-compatible form.

    Sets ``a_ii = 1``, ``a~ = a_hat``, ``c = c_hat / 2``, ``d = d_hat`` and
    solves pointwise for the drift weights ``b`` from the requirement that the
    bounded drift part :func:`drift_identity_g` reproduce ``b_hat``.  With
    ``a = 1`` that identity is affine in ``b``, so ``b`` solves

        ``(I + diag(x) a_hat) b = b_hat - g(0)``

    with ``g(0)`` the identity at zero weights.

    When ``a_hat`` is zero the system is the identity and ``b`` is exact:
    ``b_i = b_hat_i - x_i/2 sum_l d_yl c_hat_il``, which is ``b_hat`` itself
    when every ``d_yl c_hat_il`` vanishes.  Its values and partials are
    analytic everywhere, inside the lattice box or not.

    Otherwise the solve runs on a uniform lattice (default box ``[0, 4]`` per
    degenerate axis and ``[-4, 4]`` per free axis, spacing 1/64) and ``b`` is
    the multilinear interpolant, extrapolated linearly outside the box; its
    derivatives come from central differences of the solved node values.

    With declared constants, each ``b_i`` must reach the floor ``b_bar`` (up
    to 1e-9) at the lattice nodes on its face ``x_i = 0``, else
    :class:`InvalidWeightError`; for an exact weight only those face nodes
    are built.  A lattice, or a face of one, of more than
    ``MAX_LATTICE_NODES`` nodes raises :class:`NonDerivableError` before any
    node is built.  The result records ``std`` as ``derived_from``.
    """
    dims = std.dims
    n = dims.n
    base = SingularOperatorSpec(
        dims=dims,
        a_diag=FieldVector([ConstantField(1.0)] * n),
        a_tilde=std.a_hat,
        b=FieldVector.zeros(n),
        c=_half_matrix(std.c_hat),
        d=std.d_hat,
        constants=std.constants,
        derived_from=std,
    )
    if n == 0:
        return base  # no weights to solve for
    if lattice_box is None:
        lattice_box = [(0.0, 4.0)] * n + [(-4.0, 4.0)] * dims.m

    if std.a_hat.is_zero:
        b = FieldVector([_exact_weight(std, i) for i in range(n)])
        face_values = []
        if std.constants is not None:
            for i in range(n):
                face = _lattice_axes(lattice_box, lattice_spacing, "drift-weight face", face=i)
                face_values.append(b[i].evaluate_batch(_nodes(face)))
    else:
        axes = _lattice_axes(lattice_box, lattice_spacing, "drift-weight lattice")
        states = _nodes(axes)
        M = np.eye(n) + states[:, :n, None] * std.a_hat.evaluate_batch(states)
        rhs = std.b_hat.evaluate_batch(states) - drift_identity_g(base, states)
        try:
            b_nodes = np.linalg.solve(M, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NonDerivableError(f"pointwise drift-weight system is singular: {exc}")
        conds = np.abs(np.linalg.det(M))
        if float(conds.min()) < 1e-14:
            raise NonDerivableError("pointwise drift-weight system is numerically singular")
        shape = tuple(len(a) for a in axes)
        b = FieldVector([LatticeField(axes, b_nodes[:, i].reshape(shape)) for i in range(n)])
        face_values = [b_nodes[states[:, i] <= FACE_TOL, i] for i in range(n)]

    if std.constants is not None:
        for i, values in enumerate(face_values):
            if values.size:
                floor = float(values.min())
                if floor < std.constants.b_bar - 1e-9:
                    raise InvalidWeightError(
                        f"solved drift weight b_{i} reaches {floor:.6g} on the "
                        f"degenerate face, below the declared floor "
                        f"{std.constants.b_bar}"
                    )
    return replace(base, b=b)


class _ScaledField(ScalarField):
    """``sum_t factor_t * base_t(z) * z[axis_t]`` over terms ``(factor, axis,
    base)``, a term whose ``axis`` is None having no coordinate factor: the
    combinations a derivation builds from a standard spec's fields, with
    analytic partials by the product rule."""

    def __init__(self, terms: Sequence[tuple[float, int | None, ScalarField]]):
        self.terms = [(float(f), axis, base) for f, axis, base in terms]
        live = [t for t in self.terms if t[0] != 0.0 and not t[2].is_zero]
        self.is_zero = not live
        self.is_constant = all(axis is None and base.is_constant for _, axis, base in live)
        if self.is_constant and live and all(base.value is not None for _, _, base in live):
            self.value = _sum([f * base.value for f, _, base in live])

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        out = None
        for factor, axis, base in self.terms:
            term = factor * base.evaluate_batch(states)
            if axis is not None:
                term = term * states[..., axis]
            out = term if out is None else out + term
        return out

    def partial(self, axis: int) -> ScalarField:
        terms = [(f, k, base.partial(axis)) for f, k, base in self.terms]
        terms += [(f, None, base) for f, k, base in self.terms if k == axis]
        return _ScaledField(terms)


def _half_matrix(mat: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(
        [[_ScaledField([(0.5, None, e)]) for e in row] for row in mat.entries],
        shape=mat.shape,
    )


# ---------------------------------------------------------------------------
# JSON loading of built-in coefficient families
# ---------------------------------------------------------------------------


def operator_from_json(doc) -> StandardOperatorSpec | SingularOperatorSpec:
    """Build an operator spec from the JSON coefficient-family description."""
    import json as _json

    if isinstance(doc, str):
        doc = _json.loads(doc)
    dims = StateSpaceDims(int(doc["dims"]["n"]), int(doc["dims"]["m"]))
    total = dims.total
    n, m = dims.n, dims.m

    def vec(key, length):
        entries = doc.get(key)
        if entries is None:
            return FieldVector.zeros(length)
        return FieldVector([field_from_json(e, total) for e in entries])

    def mat(key, p, q, default="zeros"):
        entries = doc.get(key)
        if entries is None:
            if default == "identity":
                return FieldMatrix.identity(p)
            return FieldMatrix.zeros(p, q)
        return FieldMatrix([[field_from_json(e, total) for e in row] for row in entries])

    constants = None
    if "constants" in doc:
        c = doc["constants"]
        constants = AssumptionConstants(float(c["delta"]), float(c["K"]), float(c["b_bar"]))

    kind = doc.get("kind", "standard")
    if kind == "standard":
        return StandardOperatorSpec(
            dims=dims,
            a_hat=mat("a_hat", n, n),
            b_hat=vec("b_hat", n),
            c_hat=mat("c_hat", n, m),
            d_hat=mat("d_hat", m, m, default="identity"),
            e_hat=vec("e_hat", m),
            constants=constants,
        )
    if kind == "singular":
        a_diag = doc.get("a_diag")
        if a_diag is None:
            a_vec = FieldVector([ConstantField(1.0)] * n)
        else:
            a_vec = FieldVector([field_from_json(e, total) for e in a_diag])
        return SingularOperatorSpec(
            dims=dims,
            a_diag=a_vec,
            a_tilde=mat("a_tilde", n, n),
            b=vec("b", n),
            c=mat("c", n, m),
            d=mat("d", m, m, default="identity"),
            constants=constants,
        )
    raise ValueError(f"unknown operator kind {kind!r}")
