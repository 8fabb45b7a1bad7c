"""SDE-level fields derived from an operator pair.

The divergence-compatible operator induces a stochastic equation whose
degenerate rows read ``dX_i = (g_i + X_i sum_j f_ij ln X_j) dt
+ sqrt(X_i) sum_j sigma_ij dW_j`` and whose free rows read
``dY_l = (e_l + sum_j f_(n+l)j ln X_j) dt + sum_j sigma_(n+l)j dW_j``.
Each operator spec assembles its own drift (``drift``, with the log drift
``log_drift``) and diffusion matrix ``D`` (``diffusion_matrix``); the
divergence side builds the live terms of its drift identities once, so a
state-free term, or a state-free ``f``, is already a float there.  This
module compiles a spec into a step plan, takes the dispersion root ``sigma``
of ``D``, and builds the drift-change field ``theta`` tying the two equations
together.  The plan keeps what the spec calls state-free, evaluated once: the
drift and the root of ``D`` (or its diagonal).

Each equation's drift and noise, and the field's ``theta``, have one entry
each (``drift_batch``, ``noise_batch``, ``theta_batch``).  Each writes into
an ``out`` the caller lends, the drift and theta with a
:class:`~kimura_lab.operators.Scratch` for what they need on the way, and
makes fresh ones when given none.  Each entry is a binder
(:mod:`kimura_lab.calls`): given ``calls=``, it appends its NumPy calls
instead of running them, so a stepping loop binds it to its workspace once
and replays it every step, while a library caller runs it once on one
block of states.  A state-dependent root stays an eager call
(:meth:`_Coefficients.bound_sigma`).
"""

from __future__ import annotations

import numpy as np

from .calls import NOW, assign
from .errors import (
    DimensionMismatchError,
    EllipticityViolationError,
    InvalidMatrixError,
)
from .geometry import StateSpaceDims
from .operators import (
    Scratch,
    SingularOperatorSpec,
    StandardOperatorSpec,
)
from .records import record

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


@record
class StepPlan:
    """What a scheme step needs from one model, resolved once at build time.

    ``sigma`` is the dispersion root when the spec's ``D`` is state-free, and
    ``sigma_diag`` its diagonal when that root is diagonal.  ``drift`` is the
    spec's drift when it is state-free.  A state-free log coupling ``f`` is
    the divergence-side spec's own, built with it (see its ``log_drift``).
    """

    sigma: np.ndarray | None = None
    sigma_diag: np.ndarray | None = None
    drift: np.ndarray | None = None


@record
class _Coefficients:
    """Fields shared by both equations, read from the source operator's
    ``drift`` and ``diffusion_matrix``."""

    dims: StateSpaceDims
    source: object
    plan: StepPlan

    def drift_batch(
        self, states: np.ndarray, log_clamp_eps: float = 1e-12, log_sum: np.ndarray | None = None,
        out: np.ndarray | None = None, scratch: Scratch | None = None, *, calls=NOW,
    ) -> np.ndarray:
        """Full drift vector: the step plan's fold when the model has one,
        otherwise the source operator's ``drift`` with ``ln max(x, eps)``,
        in ``out`` (fresh when omitted), with arrays lent by ``scratch``.

        ``log_sum`` passes in the source's ``log_drift`` for these states
        when the caller already has it.  A folded drift has no log drift.
        """
        states = np.asarray(states, dtype=float)
        if self.plan.drift is None:
            return self.source.drift(states, log_clamp_eps, log_sum, out, scratch, calls=calls)
        if out is None:
            out = np.empty(states.shape)
        calls.add(np.copyto, out, self.plan.drift)
        return out

    def sigma_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if self.plan.sigma is not None:
            return np.broadcast_to(self.plan.sigma, states.shape[:-1] + self.plan.sigma.shape)
        return dispersion_sqrt_batch(self.source.diffusion_matrix(states))

    def bound_sigma(self, states: np.ndarray, calls) -> np.ndarray:
        """The root at ``states`` as the calls see it: a state-free root as
        it is, else an array that a bound call of :meth:`sigma_batch`
        refreshes."""
        if self.plan.sigma is not None:
            return self.sigma_batch(states)
        sigma = np.empty(states.shape + (states.shape[-1],))
        calls.add(assign, sigma, self.sigma_batch, states)
        return sigma

    def noise_batch(
        self, states: np.ndarray, xi: np.ndarray, sigma: np.ndarray | None = None,
        out: np.ndarray | None = None, *, calls=NOW,
    ) -> np.ndarray:
        """``sigma(z) xi`` per state for a block of standard normals ``xi``,
        in ``out`` (fresh when omitted); ``sigma`` passes in :meth:`sigma_batch`
        for these states when the caller has it.  A state-free root
        (``plan.sigma``) reads ``states`` for its shape only."""
        if out is None:
            out = np.empty(np.shape(xi))
        if self.plan.sigma_diag is not None:
            calls.add(np.multiply, xi, self.plan.sigma_diag, out)
            return out
        if sigma is None:
            sigma = self.bound_sigma(np.asarray(states, dtype=float), calls)
        calls.add(np.einsum, "pij,pj->pi", sigma, xi, out=out)
        return out


@record
class SdeCoefficients(_Coefficients):
    """All simulation-level fields of the divergence-compatible equation."""

    source: SingularOperatorSpec

    # defined on each class, as perfbench/tracer.py times methods per class
    drift_batch = _Coefficients.drift_batch
    sigma_batch = _Coefficients.sigma_batch


@record
class StandardSdeCoefficients(_Coefficients):
    """Simulation-level fields of the standard (bounded-drift) equation."""

    source: StandardOperatorSpec

    drift_batch = _Coefficients.drift_batch
    sigma_batch = _Coefficients.sigma_batch


def _compile(cls, spec):
    """Coefficients of class ``cls`` for ``spec``, with the step plan folding
    the spec's drift and dispersion root, each evaluated once at a probe
    state, when the spec says it is state-free."""
    probe = np.ones((1, spec.dims.total))
    drift = spec.drift(probe)[0] if spec.drift_is_constant else None
    sigma = diag = None
    if spec.diffusion_is_constant:
        sigma = dispersion_sqrt_batch(spec.diffusion_matrix(probe)[0])
        diag = np.diag(sigma).copy()
        diag = diag if np.array_equal(sigma, np.diag(diag)) else None
    plan = StepPlan(sigma=sigma, sigma_diag=diag, drift=drift)
    return cls(spec.dims, spec, plan)


def build_sde_coefficients(op: SingularOperatorSpec) -> SdeCoefficients:
    """Assemble all simulation fields from a divergence-compatible spec."""
    return _compile(SdeCoefficients, op)


def build_standard_sde_coefficients(std: StandardOperatorSpec) -> StandardSdeCoefficients:
    """Assemble all simulation fields from a standard spec."""
    return _compile(StandardSdeCoefficients, std)


# ---------------------------------------------------------------------------
# Drift-change field
# ---------------------------------------------------------------------------


@record
class GirsanovField:
    """Batched drift-change field for path weighting.

    ``theta`` solves ``sigma^(z) theta = rhs(z)``, the divergence-side minus
    the standard-side drift in the noise coordinates: the degenerate rows of
    ``rhs`` are ``sqrt(x_i) sum_j f_ij ln x_j`` and the free rows are
    ``e_l + sum_j f_(n+l)j ln x_j - e^_l``.  ``theta_batch`` uses clamped
    logarithms so it extends continuously by 0 onto each degenerate face (the
    degenerate rows carry a ``sqrt(x_i)`` factor).  ``divisor`` is the
    diagonal of a constant, diagonal and nonsingular standard-side
    dispersion, for which the solve is a division.  ``shares_root`` says that
    the two sides have the same state-dependent ``D``, so a root the step
    took for its noise serves the solve too.
    """

    std: StandardSdeCoefficients
    sing: SdeCoefficients
    divisor: np.ndarray | None = None
    shares_root: bool = False

    @property
    def dims(self) -> StateSpaceDims:
        return self.sing.dims

    def theta_batch(
        self,
        states: np.ndarray,
        log_clamp_eps: float = 1e-12,
        log_sum: np.ndarray | None = None,
        sigma: np.ndarray | None = None,
        drift: np.ndarray | None = None,
        root_x: np.ndarray | None = None,
        out: np.ndarray | None = None,
        scratch: Scratch | None = None,
        *,
        calls=NOW,
    ) -> np.ndarray:
        """Drift change per state, in ``out`` (fresh when omitted), with
        arrays lent by ``scratch``.  When the caller already has them for
        these states, ``log_sum`` passes in the divergence side's
        ``log_drift``, ``drift`` its ``drift_batch`` with that log drift,
        ``sigma`` its ``sigma_batch`` (used when :attr:`shares_root`) and
        ``root_x`` the degenerate coordinates' ``sqrt(x)`` of a projected
        state, whose ``x`` is ``>= 0`` or ``-0.0``."""
        states = np.asarray(states, dtype=float)
        n = self.dims.n
        if out is None:
            out = np.empty(states.shape)
        scratch = Scratch() if scratch is None else scratch
        if log_sum is None:
            log_sum = self.sing.source.log_drift(states, log_clamp_eps, scratch, calls=calls)
        if log_sum is None:
            calls.add(np.copyto, out[..., :n], 0.0)
        else:
            # Degenerate rows: g = b^ by derivation, so the drift gap is
            # x_i (f . ln x)_i.  Its quotient by sqrt(x_i) is written as
            # sqrt(x_i) (f . ln x)_i, which stays finite on the face x_i = 0.
            if root_x is None:
                root_x = np.empty(states.shape[:-1] + (n,))
                calls.add(np.maximum, states[..., :n], 0.0, out=root_x)
                calls.add(np.sqrt, root_x, root_x)
            calls.add(np.multiply, root_x, log_sum[..., :n], out[..., :n])
        if self.dims.m:
            # Free rows: the divergence-side minus the standard-side free drift.
            if drift is None:
                drift = self.sing.drift_batch(states, log_clamp_eps, log_sum, scratch=scratch,
                                              calls=calls)
            e_hat = np.empty(states.shape[:-1] + (self.dims.m,))
            for l, entry in enumerate(self.std.source.e_hat.entries):
                entry.evaluate_into(states, e_hat[..., l], calls=calls)
            calls.add(np.subtract, drift[..., n:], e_hat, out[..., n:])
        if self.divisor is not None:
            # one column divides by its float
            divisor = float(self.divisor[0]) if self.divisor.size == 1 else self.divisor
            calls.add(np.divide, out, divisor, out)
            return out
        shared = sigma is not None and self.shares_root
        calls.add(_solve, sigma if shared else self.std.bound_sigma(states, calls), out)
        return out


def _solve(sigma: np.ndarray, rhs: np.ndarray) -> None:
    """``sigma^-1 rhs`` per state, written over ``rhs``."""
    try:
        rhs[...] = np.linalg.solve(sigma, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise EllipticityViolationError(f"standard dispersion is singular: {exc}")


def make_girsanov_field(
    std: StandardSdeCoefficients | StandardOperatorSpec,
    sing: SdeCoefficients | SingularOperatorSpec,
) -> GirsanovField:
    """Pair a standard-side and a divergence-side model into a theta field.

    The pairing is mandatory: the free rows of the linear system need the
    standard-side drift ``e^``, so a divergence-form model alone cannot
    produce a theta field.  A divergence side derived from this standard
    side (``derived_from``) has its ``D``: ``a = 1``, ``a~ = a^``,
    ``2 c = c^`` and ``d = d^``, so a state-dependent root is shared.
    """
    if isinstance(std, StandardOperatorSpec):
        std = build_standard_sde_coefficients(std)
    if isinstance(sing, SingularOperatorSpec):
        sing = build_sde_coefficients(sing)
    if std.dims != sing.dims:
        raise DimensionMismatchError("model pair dims mismatch")
    diag = std.plan.sigma_diag
    divisor = diag if diag is not None and diag.all() else None
    shares_root = sing.source.derived_from is std.source and std.plan.sigma is None
    return GirsanovField(std=std, sing=sing, divisor=divisor, shares_root=shares_root)
