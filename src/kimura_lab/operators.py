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
import operator
from dataclasses import field, replace
from typing import Sequence

import numpy as np

from .calls import NOW
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
from .records import record

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
    "Scratch",
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
# a nonzero ln x of a double is at least 2^-54 in size, so its product with
# a factor of at least this size is never rounded to zero
F_NO_UNDERFLOW = 2.0**-1000


def _log_of_faces(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ln x`` with no warning for the ``-inf`` of a face ``x = 0``."""
    with np.errstate(divide="ignore"):
        return np.log(x, out=out)


class Scratch(dict):
    """Arrays a step lends to its kernels by name, kept from one step to the
    next so that a stepping loop allocates each once.  A kernel called on its
    own gets a fresh, empty one.  Not shared between threads."""

    def take(self, name: str, shape: tuple) -> np.ndarray:
        """The array kept under ``name``, made anew when it has another shape."""
        a = self.get(name)
        if a is None or a.shape != shape:
            a = self[name] = np.empty(shape)
        return a


@record
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


@record
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

    def drift(self, states, log_clamp_eps=0.0, log_sum=None, out=None, scratch=None, *, calls=NOW):
        """``(b^, e^)``, shape (..., n+m), each entry written into its column
        of ``out`` (fresh when omitted).  The other arguments are those of
        the divergence side, unused: the standard form has no log drift."""
        states = np.asarray(states, dtype=float)
        if out is None:
            out = np.empty(states.shape[:-1] + (self.dims.total,))
        for i, entry in enumerate(self.b_hat.entries + self.e_hat.entries):
            entry.evaluate_into(states, out[..., i], calls=calls)
        return out

    @property
    def drift_is_constant(self) -> bool:
        """:meth:`drift` has no state dependence: ``b^`` and ``e^`` are constant."""
        return self.b_hat.is_constant and self.e_hat.is_constant

    @property
    def diffusion_is_constant(self) -> bool:
        """:meth:`diffusion_matrix` has no state dependence: its ``sqrt(x)``
        blocks ``a^`` and ``c^`` vanish and ``d^`` is constant."""
        return self.a_hat.is_zero and self.c_hat.is_zero and self.d_hat.is_constant


@record
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
        # g, e and f, built once from this spec's fields as ``(index, term)``
        # pairs of their live terms; ``_f_matrix`` is f when it has live
        # terms and all are floats, with +0.0 where a term is left out
        g, e, f = _identity_terms(self)
        f_matrix = None
        if f and all(isinstance(term, float) for _, term in f):
            f_matrix = _evaluate(f, np.zeros(n + m), (n + m, n), {})
        for name, value in (("_g", g), ("_e", e), ("_f", f), ("_f_matrix", f_matrix)):
            object.__setattr__(self, name, value)

    def diffusion_matrix(self, states: np.ndarray) -> np.ndarray:
        """``D`` of :func:`_diffusion_matrix` with cross coefficient ``2 c``."""
        states = np.asarray(states, dtype=float)
        return _diffusion_matrix(
            states, self.a_diag.evaluate_batch(states), self.a_tilde.evaluate_batch(states),
            2.0 * self.c.evaluate_batch(states), self.d.evaluate_batch(states),
        )

    def log_drift(self, states, log_clamp_eps=0.0, scratch=None, *,
                  calls=NOW) -> np.ndarray | None:
        """``sum_j f_rj ln max(x_j, eps)`` for every row ``r``, shape (..., n+m),
        in the array ``log_sum`` of ``scratch`` (a fresh one when omitted);
        None when no term of :func:`drift_identity_f` is live, as when ``b``
        is constant.  A state-free ``f`` is contracted as the one matrix
        built with the spec.  With ``eps = 0`` a state on a face ``x_j = 0``
        gives an infinite log."""
        scratch = Scratch() if scratch is None else scratch
        return self._log_drift(np.asarray(states, dtype=float), log_clamp_eps, {}, scratch, calls)

    def _log_drift(self, states, log_clamp_eps, memo, scratch, calls) -> np.ndarray | None:
        """:meth:`log_drift` bound into the scratch array ``log_sum``."""
        if not self._f:
            return None
        n, lead = self.dims.n, states.shape[:-1]
        f = self._f_matrix
        if f is None:
            f = _evaluate(self._f, states, (self.dims.total, n), memo,
                          scratch.take("f", lead + (self.dims.total, n)), calls=calls)
        logs = scratch.take("logs", lead + (n,))
        calls.add(np.maximum, states[..., :n], log_clamp_eps, out=logs)
        calls.add(np.log if log_clamp_eps > 0.0 else _log_of_faces, logs, logs)
        out = scratch.take("log_sum", states.shape)
        if f.shape[-2:] == (1, 1):
            # einsum's one-term sum: +0.0 plus the product, which turns a
            # product of -0.0 into +0.0.  A state-free f is bound as its
            # float; no log is -0.0, so with f >= F_NO_UNDERFLOW, whose
            # product with a nonzero log cannot round to zero, no product is
            # -0.0 and the sum is the product
            if f.ndim == 2:
                f = float(f[0, 0])
                calls.add(np.multiply, logs, f, out)
                if f < F_NO_UNDERFLOW:
                    calls.add(np.add, out, 0.0, out)
                return out
            calls.add(np.multiply, logs, f[..., 0], out)
            calls.add(np.add, out, 0.0, out)
            return out
        # one contraction for a per-state and a state-free f: the same sums
        calls.add(np.einsum, "...rj,...j->...r", f, logs, out=out)
        return out

    def drift(self, states, log_clamp_eps=0.0, log_sum=None, out=None, scratch=None, *, calls=NOW):
        """``(g + x * (f . ln x), e + f . ln x)``, shape (..., n+m), with the
        :meth:`log_drift` ``f . ln x``, written into ``out`` (fresh when
        omitted) with the arrays it needs on the way from ``scratch``.
        ``log_sum`` passes in that log drift when the caller has it for
        these states; otherwise each field is read once for it and ``g``.

        Every live term of ``g`` and ``e`` is written into its slot of
        ``out`` before the log drift is added to the rows."""
        states = np.asarray(states, dtype=float)
        n, m = self.dims.n, self.dims.m
        if out is None:
            out = np.empty(states.shape[:-1] + (self.dims.total,))
        scratch = Scratch() if scratch is None else scratch
        memo = {}
        if log_sum is None:
            log_sum = self._log_drift(states, log_clamp_eps, memo, scratch, calls)
        g = _evaluate(self._g, states, (n,), memo, out[..., :n], calls=calls)
        if m:
            _evaluate(self._e, states, (m,), memo, out[..., n:], calls=calls)
        if log_sum is not None:
            x_log = scratch.take("x_log", states.shape[:-1] + (n,))
            calls.add(np.multiply, states[..., :n], log_sum[..., :n], x_log)
            calls.add(np.add, g, x_log, g)
            if m:
                calls.add(np.add, out[..., n:], log_sum[..., n:], out[..., n:])
        return out

    @property
    def drift_is_constant(self) -> bool:
        """:meth:`drift` has no state dependence: every term of ``g`` and
        ``e`` is a float and ``f`` has no live term."""
        return not self._f and all(isinstance(t, float) for _, t in self._g + self._e)

    @property
    def diffusion_is_constant(self) -> bool:
        """:meth:`diffusion_matrix` has no state dependence: its ``sqrt(x)``
        blocks ``a~`` and ``c`` vanish and ``a`` and ``d`` are constant."""
        return (
            self.a_tilde.is_zero and self.c.is_zero
            and self.a_diag.is_constant and self.d.is_constant
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


class _Coordinate(ScalarField):
    """``z[axis]``."""

    def __init__(self, axis: int):
        self.axis = axis

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        return np.array(np.asarray(states, dtype=float)[..., self.axis])

    def partial(self, axis: int) -> ScalarField:
        return ConstantField(1.0 if axis == self.axis else 0.0)


class _Combination(ScalarField):
    """Left-to-right sum or product of ``parts``, floats and fields of which
    at least one is a field; built by :func:`_sum` and :func:`_prod`."""

    def __init__(self, parts: list):
        self.parts = parts

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        return self.evaluate_into(states, np.empty(states.shape[:-1]))

    def evaluate_into(self, states: np.ndarray, out: np.ndarray, *, calls=NOW) -> np.ndarray:
        return _value(self, states, {}, calls, out)

    @classmethod
    def _build(cls, parts: list):
        """``parts`` with a leading run of floats combined now, in the order
        a call would combine them; a lone part as itself."""
        while len(parts) > 1 and isinstance(parts[0], float) and isinstance(parts[1], float):
            parts[:2] = [cls._combine(parts[0], parts[1])]
        return parts[0] if len(parts) == 1 else cls(parts)


class _Sum(_Combination):
    _combine, _ufunc = staticmethod(operator.add), np.add

    def partial(self, axis: int) -> ScalarField:
        return _as_field(_sum([p.partial(axis) for p in self.parts if not isinstance(p, float)]))


class _Prod(_Combination):
    _combine, _ufunc = staticmethod(operator.mul), np.multiply

    def partial(self, axis: int) -> ScalarField:
        # the product rule, one term per field factor
        parts = self.parts
        return _as_field(_sum([
            _prod(*parts[:k], p.partial(axis), *parts[k + 1 :])
            for k, p in enumerate(parts) if not isinstance(p, float)
        ]))


def _live(term):
    """None for a zero field, the float of a constant field with a
    ``value``; any other term (None, a float, a field) as it is."""
    if isinstance(term, ScalarField):
        return None if term.is_zero else term if term.value is None else float(term.value)
    return term


def _sum(terms):
    """Sum of the live ``terms``: None when none is, a float when all are
    floats.  Leaving out an exact zero leaves the sum's bits as they were."""
    parts = [t for t in map(_live, terms) if t is not None]
    return _Sum._build(parts) if parts else None


def _prod(*factors):
    """Product of ``factors``: None when one is not live, a float when all
    are floats.  A factor 1.0 is left out, which changes no bit."""
    parts = [_live(f) for f in factors]
    if any(f is None for f in parts):
        return None
    return _Prod._build([f for f in parts if not (isinstance(f, float) and f == 1.0)] or [1.0])


def _as_field(term) -> ScalarField:
    """A built term as a field: a zero field for None, a constant for a float."""
    if term is None or isinstance(term, float):
        return ConstantField(0.0 if term is None else term)
    return term


def _value(term, states: np.ndarray, memo: dict, calls, out=None):
    """``term`` at ``states``: a float as it is, a coordinate as a view of
    ``states`` and any other field bound once per ``memo`` (fields hash by
    identity), so a field shared by several terms is read once a call.  A
    field not yet in ``memo`` is bound into ``out`` (an array of its own
    when omitted), which then stands for it in ``memo``; a sum or product
    folds its parts left to right, as they are written."""
    if isinstance(term, float):
        return term
    if isinstance(term, _Coordinate):
        return states[..., term.axis]
    if term not in memo:
        out = np.empty(states.shape[:-1]) if out is None else out
        if isinstance(term, _Combination):
            acc = None
            for part in term.parts:
                value = _value(part, states, memo, calls)
                if acc is not None:
                    calls.add(term._ufunc, acc, value, out)
                    value = out
                acc = value
        else:
            term.evaluate_into(states, out, calls=calls)
        memo[term] = out
    return memo[term]


def _evaluate(terms, states: np.ndarray, shape: tuple, memo: dict, out=None, *,
              calls=NOW) -> np.ndarray:
    """The ``(index, term)`` pairs of an identity at ``states``, shape
    (...,) + ``shape``, with +0.0 where no term is live; written into
    ``out`` when given.

    A field not yet in ``memo`` is evaluated straight into its slot, which
    then stands for it in ``memo``: the caller changes no slot while it
    still reads ``memo``."""
    if out is None:
        out = np.empty(states.shape[:-1] + shape)
    if len(terms) < math.prod(shape):
        calls.add(np.copyto, out, 0.0)
    for index, term in terms:
        slot = out[(Ellipsis,) + index]
        value = _value(term, states, memo, calls, slot)
        if value is not slot:
            calls.add(np.copyto, slot, value)
    return out


def _identity_terms(op: SingularOperatorSpec) -> tuple[list, list, list]:
    """The live terms of ``g``, ``e`` and ``f`` as ``(index, term)`` pairs.

    Each row is built once from the formula of :func:`drift_identity_g`,
    ``_e`` or ``_f``, adding in the order the formula writes: a term with a
    zero factor is left out and a constant field is read as its float."""
    n, m = op.dims.n, op.dims.m
    a, at, b, c, d = op.a_diag, op.a_tilde, op.b, op.c, op.d
    x = [_Coordinate(i) for i in range(n)]
    g, e, f = [], [], []
    for i in range(n):
        terms = [a[i].partial(i)]
        for j in range(n):
            a_ij = at[i, j]
            terms += [a_ij, _prod(x[j], a_ij.partial(j)), _prod(a_ij, _sum([b[j], -1.0]))]
            terms += [a_ij] if i == j else []
        terms += [c[i, l].partial(n + l) for l in range(m)]
        g.append(((i,), _sum([_prod(b[i], a[i]), _prod(x[i], _sum(terms))])))
    for l in range(m):
        terms = []
        for i in range(n):
            terms += [_prod(x[i], c[i, l].partial(i)), _prod(b[i], c[i, l])]
        e.append(((l,), _sum(terms + [d[l, k].partial(n + k) for k in range(m)])))
    for j in range(n):
        db = [b[j].partial(axis) for axis in range(n + m)]
        for i in range(n):
            f.append(((i, j), _sum(
                [_prod(a[i], db[i])] + [_prod(x[k], at[i, k], db[k]) for k in range(n)]
                + [_prod(c[i, l], db[n + l]) for l in range(m)]
            )))
        for l in range(m):
            f.append(((n + l, j), _sum(
                [_prod(x[i], c[i, l], db[i]) for i in range(n)]
                + [_prod(d[l, k], db[n + k]) for k in range(m)]
            )))
    return tuple([(index, t) for index, t in rows if t is not None] for rows in (g, e, f))


def drift_identity_g(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Bounded part of the degenerate-axis drift, shape (..., n).

    ``g_i = b_i a_ii + x_i (d_xi a_ii + sum_j (a~_ij + delta_ij a~_ii
    + x_j d_xj a~_ij + a~_ij (b_j - 1)) + sum_l d_yl c_il)``, affine in ``b``:
    ``g(b) = g(0) + (diag(a) + diag(x) a~) b``.
    """
    return _evaluate(op._g, np.asarray(states, dtype=float), (op.dims.n,), {})


def drift_identity_e(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Bounded part of the free-axis drift, shape (..., m).

    ``e_l = sum_i (x_i d_xi c_il + b_i c_il) + sum_k d_yk d_lk``.
    """
    return _evaluate(op._e, np.asarray(states, dtype=float), (op.dims.m,), {})


def drift_identity_f(op: SingularOperatorSpec, states: np.ndarray) -> np.ndarray:
    """Log-drift couplings, shape (..., n+m, n).

    The drift ``(1/w) div(w A)`` of the weight ``w = prod_j x_j^(b_j - 1)``
    differentiates ``ln w`` along each row of ``A``, whose degenerate
    diagonal is ``x_i a_ii + x_i^2 a~_ii``.  Degenerate rows:
    ``f_ij = a_ii d_xi b_j + sum_k x_k a~_ik d_xk b_j + sum_l c_il d_yl b_j``.
    Free rows: ``f_(n+l)j = sum_i x_i c_il d_xi b_j + sum_k d_lk d_yk b_j``.
    All rows vanish identically when ``b`` is constant.
    """
    dims = op.dims
    return _evaluate(op._f, np.asarray(states, dtype=float), (dims.total, dims.n), {})


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


@record
class CheckResult:
    """One named assumption check of :func:`validate_assumptions`."""

    name: str
    passed: bool
    detail: str


@record
class ValidationReport:
    """The checks of :func:`validate_assumptions`, the extremes of the
    ellipticity form and the assumption constants inferred from the grid
    (None unless the form and the boundary weight are positive)."""

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
    if points_per_axis < 1:
        raise ValueError(f"a grid needs at least one point per axis, got {points_per_axis}")
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
    n, x_i = std.dims.n, _Coordinate(i)
    slopes = [_prod(-0.5, std.c_hat[i, l].partial(n + l), x_i) for l in range(std.dims.m)]
    slopes = [s for s in slopes if s is not None]
    return _as_field(_sum([std.b_hat[i]] + slopes)) if slopes else std.b_hat[i]


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


def _half_matrix(mat: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(
        [[_as_field(_prod(0.5, e)) for e in row] for row in mat.entries], shape=mat.shape
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
