"""SDE-level fields derived from an operator pair.

The divergence-compatible operator induces a stochastic equation whose
degenerate rows read ``dX_i = (g_i + X_i sum_j f_ij ln X_j) dt
+ sqrt(X_i) sum_j sigma_ij dW_j`` and whose free rows read
``dY_l = (e_l + sum_j f_(n+l)j ln X_j) dt + sum_j sigma_(n+l)j dW_j``.
Each operator spec assembles its own drift (``drift``) and diffusion matrix
``D`` (``diffusion_matrix``).  This module compiles a spec into a step plan,
takes the dispersion root ``sigma`` of ``D``, and builds the drift-change
field ``theta`` tying the two equations together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    EllipticityViolationError,
    InvalidMatrixError,
)
from .geometry import StateSpaceDims
from .operators import (
    SingularOperatorSpec,
    StandardOperatorSpec,
    drift_g_parts,
    drift_identity_e,
)

__all__ = [
    "SdeCoefficients",
    "StandardSdeCoefficients",
    "GirsanovField",
    "StepPlan",
    "build_sde_coefficients",
    "build_standard_sde_coefficients",
    "dispersion_sqrt_batch",
    "make_girsanov_field",
]

EIGENVALUE_CLIP = 1e-12


def dispersion_sqrt_batch(D: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of one symmetric matrix or a batch of them.

    Eigenvalues in ``[-EIGENVALUE_CLIP, 0)`` (relative to the largest entry)
    are treated as roundoff and clipped to 0; anything more negative raises
    :class:`EllipticityViolationError`.
    Flipping an eigenvector's sign negates both factors of each of its terms
    in ``(V sqrt(w)) V*``, which leaves the root unchanged bit for bit, so
    identical input bytes give identical output bytes.
    """
    D = np.asarray(D, dtype=float)
    single = D.ndim == 2
    if single:
        D = D[None, :, :]
    if D.shape[-1] != D.shape[-2]:
        raise InvalidMatrixError(f"matrix batch has shape {D.shape}")
    asym = np.abs(D - np.swapaxes(D, -1, -2)).max(initial=0.0)
    scale = np.abs(D).max(initial=1.0)
    if asym > 1e-10 * max(scale, 1.0):
        raise InvalidMatrixError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    w, V = np.linalg.eigh(0.5 * (D + np.swapaxes(D, -1, -2)))
    if float(w.min(initial=0.0)) < -EIGENVALUE_CLIP * max(scale, 1.0):
        bad = float(w.min())
        raise EllipticityViolationError(
            f"matrix has negative eigenvalue {bad:.6g} beyond the roundoff clip"
        )
    w = np.maximum(w, 0.0)
    root = (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    root = 0.5 * (root + np.swapaxes(root, -1, -2))
    return root[0] if single else root


@dataclass(frozen=True)
class StepPlan:
    """What a scheme step needs from one model, resolved once at build time.

    ``sigma`` is the dispersion root when ``D`` has no state dependence, and
    ``sigma_diag`` its diagonal when that root is diagonal.  A model whose
    drift fields are all constant has the drift ``drift + x * drift_slope``
    (the slope on the degenerate rows, None when zero; always None on the
    standard side).
    """

    sigma: np.ndarray | None = None
    sigma_diag: np.ndarray | None = None
    drift: np.ndarray | None = None
    drift_slope: np.ndarray | None = None


@dataclass(frozen=True)
class _Coefficients:
    """Fields shared by both equations, read from the source operator's
    ``drift`` and ``diffusion_matrix``."""

    dims: StateSpaceDims
    source: object
    plan: StepPlan

    def drift_batch(
        self, states: np.ndarray, log_clamp_eps: float = 1e-12, log_sum: np.ndarray | None = None
    ) -> np.ndarray:
        """Full drift vector: the step plan's fold when the model has one,
        otherwise the source operator's ``drift`` with ``ln max(x, eps)``.

        ``log_sum`` passes in the source's ``log_drift`` for these states
        when the caller already has it.  A folded model has constant fields,
        so no log drift.
        """
        states = np.asarray(states, dtype=float)
        plan = self.plan
        if plan.drift is None:
            return self.source.drift(states, log_clamp_eps, log_sum)
        n = self.dims.n
        out = np.empty(states.shape)
        out[...] = plan.drift
        if plan.drift_slope is not None:
            out[..., :n] += states[..., :n] * plan.drift_slope
        return out

    def sigma_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if self.plan.sigma is not None:
            return np.broadcast_to(self.plan.sigma, states.shape[:-1] + self.plan.sigma.shape)
        return dispersion_sqrt_batch(self.source.diffusion_matrix(states))

    def noise_batch(self, states: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """``sigma(z) xi`` per state for a block of standard normals ``xi``."""
        plan = self.plan
        if plan.sigma_diag is not None:
            return xi * plan.sigma_diag
        if plan.sigma is not None:
            return xi @ plan.sigma.T
        return np.einsum("pij,pj->pi", self.sigma_batch(states), xi)


@dataclass(frozen=True)
class SdeCoefficients(_Coefficients):
    """All simulation-level fields of the divergence-compatible equation."""

    source: SingularOperatorSpec

    # defined on each class, as perfbench/tracer.py times methods per class
    drift_batch = _Coefficients.drift_batch
    sigma_batch = _Coefficients.sigma_batch


@dataclass(frozen=True)
class StandardSdeCoefficients(_Coefficients):
    """Simulation-level fields of the standard (bounded-drift) equation."""

    source: StandardOperatorSpec

    drift_batch = _Coefficients.drift_batch
    sigma_batch = _Coefficients.sigma_batch


def _with_dispersion(coeffs: _Coefficients, constant_D: bool) -> _Coefficients:
    """Attach sigma, computed once, when ``D`` has no state dependence."""
    if not constant_D:
        return coeffs
    probe = np.ones((1, coeffs.dims.total))
    sigma = dispersion_sqrt_batch(coeffs.source.diffusion_matrix(probe)[0])
    diag = np.diag(sigma).copy()
    diag = diag if np.array_equal(sigma, np.diag(diag)) else None
    return replace(coeffs, plan=replace(coeffs.plan, sigma=sigma, sigma_diag=diag))


def build_sde_coefficients(op: SingularOperatorSpec) -> SdeCoefficients:
    """Assemble all simulation fields from a divergence-compatible spec.

    When every coefficient field is constant, one evaluation of the drift
    identities at a probe state gives the folded drift.
    """
    plan = StepPlan()
    if all(f.is_constant for f in (op.a_diag, op.a_tilde, op.b, op.c, op.d)):
        probe = np.ones((1, op.dims.total))
        ba, slope = drift_g_parts(op, probe)
        drift = np.concatenate([ba, drift_identity_e(op, probe)], axis=-1)[0]
        plan = StepPlan(drift=drift, drift_slope=slope[0] if slope.any() else None)
    constant_D = (
        op.a_tilde.is_zero and op.c.is_zero and op.a_diag.is_constant and op.d.is_constant
    )
    return _with_dispersion(SdeCoefficients(op.dims, op, plan), constant_D)


def build_standard_sde_coefficients(std: StandardOperatorSpec) -> StandardSdeCoefficients:
    """Assemble the simulation fields of a standard spec; its drift
    ``(b^, e^)`` folds when both are constant."""
    plan = StepPlan()
    if std.b_hat.is_constant and std.e_hat.is_constant:
        plan = StepPlan(drift=std.drift(np.ones((1, std.dims.total)))[0])
    constant_D = std.a_hat.is_zero and std.c_hat.is_zero and std.d_hat.is_constant
    return _with_dispersion(StandardSdeCoefficients(std.dims, std, plan), constant_D)


# ---------------------------------------------------------------------------
# Drift-change field
# ---------------------------------------------------------------------------


def _theta_rhs(
    std: StandardSdeCoefficients,
    sing: SdeCoefficients,
    states: np.ndarray,
    log_clamp_eps: float,
    log_sum: np.ndarray | None = None,
) -> np.ndarray:
    n, m = sing.dims.n, sing.dims.m
    states = np.asarray(states, dtype=float)
    if log_sum is None:
        log_sum = sing.source.log_drift(states, log_clamp_eps)
    rhs = np.zeros(states.shape[:-1] + (n + m,))
    if log_sum is not None:
        # Degenerate rows: g = b^ by derivation, so the drift gap is
        # x_i (f . ln x)_i.  Its quotient by sqrt(x_i) is written as
        # sqrt(x_i) (f . ln x)_i, which stays finite on the face x_i = 0.
        rhs[..., :n] = np.sqrt(np.maximum(states[..., :n], 0.0)) * log_sum[..., :n]
    if m:
        # Free rows: the divergence-side minus the standard-side free drift.
        sing_free = sing.source.free_drift(states, log_clamp_eps, log_sum)
        rhs[..., n:] = sing_free - std.source.free_drift(states)
    return rhs


@dataclass(frozen=True)
class GirsanovField:
    """Batched drift-change field for path weighting.

    ``theta`` solves ``sigma^(z) theta = rhs(z)``, the divergence-side minus
    the standard-side drift in the noise coordinates: the degenerate rows of
    ``rhs`` are ``sqrt(x_i) sum_j f_ij ln x_j`` and the free rows are
    ``e_l + sum_j f_(n+l)j ln x_j - e^_l``.  ``theta_batch`` uses clamped
    logarithms so it extends continuously by 0 onto each degenerate face (the
    degenerate rows carry a ``sqrt(x_i)`` factor).  ``divisor`` is the
    diagonal of a constant, diagonal and nonsingular standard-side
    dispersion, for which the solve is a division.
    """

    std: StandardSdeCoefficients
    sing: SdeCoefficients
    divisor: np.ndarray | None = None

    @property
    def dims(self) -> StateSpaceDims:
        return self.sing.dims

    def theta_batch(
        self,
        states: np.ndarray,
        log_clamp_eps: float = 1e-12,
        log_sum: np.ndarray | None = None,
    ) -> np.ndarray:
        """Drift change per state; ``log_sum`` passes in the divergence side's
        ``log_drift`` for these states when the caller already has it."""
        states = np.asarray(states, dtype=float)
        rhs = _theta_rhs(self.std, self.sing, states, log_clamp_eps, log_sum)
        if self.divisor is not None:
            return rhs / self.divisor
        sig = self.std.sigma_batch(states)
        try:
            return np.linalg.solve(sig, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise EllipticityViolationError(f"standard dispersion is singular: {exc}")


def make_girsanov_field(
    std: StandardSdeCoefficients | StandardOperatorSpec,
    sing: SdeCoefficients | SingularOperatorSpec,
) -> GirsanovField:
    """Pair a standard-side and a divergence-side model into a theta field.

    The pairing is mandatory: the free rows of the linear system need the
    standard-side drift ``e^``, so a divergence-form model alone cannot
    produce a theta field.
    """
    if isinstance(std, StandardOperatorSpec):
        std = build_standard_sde_coefficients(std)
    if isinstance(sing, SingularOperatorSpec):
        sing = build_sde_coefficients(sing)
    if std.dims != sing.dims:
        raise DimensionMismatchError("model pair dims mismatch")
    diag = std.plan.sigma_diag
    divisor = diag if diag is not None and diag.all() else None
    return GirsanovField(std=std, sing=sing, divisor=divisor)
