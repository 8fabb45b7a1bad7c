"""Independent ground truth for the one-dimensional model and flat comparators.

Three oracles live here: closed-form transition densities of the separable 1D
constant-coefficient model (a time-changed squared Bessel process, reducing to
a Gamma law from the boundary), Gaussian heat-kernel reference values with
their integrated closed forms, and a deterministic weighted finite-volume
solver in the square-root chart that embodies the weak (energy-form)
formulation of the 1D problem.

The exact-law oracles use NumPy and ``math`` only: the cell masses come from
``_gammainc``, a vectorized regularized incomplete gamma (series and
continued fraction), and the log-gammas from ``math.lgamma``.  SciPy is
loaded only by the grid solver (``scipy.sparse``), inside the functions that
use it, so importing the package or running any command but a grid solve
does not load it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericFailureError, UnstableConfigurationError
from .records import record

__all__ = [
    "Besq1dModel",
    "besq_transition_density",
    "besq_transition_mass",
    "besq_mean",
    "gaussian_reference",
    "lq_closed_form",
    "gaussian_abs_moment",
    "Grid1dSolver",
    "Solution1D",
    "solve_parabolic_1d",
    "dirac_approx",
]

_SERIES_RTOL = 1e-12
# _gammainc: per-element stopping tolerance, iteration cap (both expansions
# need O(sqrt(a)) terms near x = a, so this covers shapes up to about 1e6),
# and the modified-Lentz floor that keeps the continued fraction off zero
_GAMMAINC_TOL = 2.0 * np.finfo(float).eps
_GAMMAINC_MAX_ITER = 10_000
_LENTZ_TINY = 1e-300
# the most cells one _gammainc table of besq_transition_mass holds
_MASS_TABLE_CELLS = 2**16


@record
class Besq1dModel:
    """1D model ``x u'' + b0 u'`` started at ``x0 >= 0``.

    Its solution is a squared Bessel process of dimension ``2 b0`` run at half
    speed, so transitions over time ``t`` have shape parameter ``b0`` and
    scale ``t`` (a pure Gamma law when started from the boundary).
    """

    b0: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if self.b0 <= 0.0:
            raise ValueError("boundary drift b0 must be positive")
        if self.x0 < 0.0:
            raise ValueError("start point must be nonnegative")


def _gammainc(a, x) -> np.ndarray:
    """Regularized lower incomplete gamma ``P(a, x)``, ``a`` and ``x``
    broadcast together.

    ``x < a + 1`` sums the power series (DLMF 8.7.1); ``x >= a + 1`` takes
    ``1 - Q`` from the modified-Lentz continued fraction for ``Q`` (DLMF
    8.9.2; Press et al., *Numerical Recipes* 6.2).  Both multiply the
    prefactor ``exp(a ln x - x - lgamma(a))``.  ``P(a, 0) = 0`` and
    ``P(a, inf) = 1``.  Each element stops on its own test (a term below
    ``2 eps`` of its sum, a Lentz factor within ``2 eps`` of 1) and leaves
    the loop.  Against SciPy's ``gammainc`` the absolute error is below
    ``1e-13`` for ``a <= 200``; it grows with ``a`` through the rounding of
    ``a ln x`` in the prefactor (about ``1e-11`` at ``a = 1e4``).  A shape
    that is not finite and positive, or an ``x`` that is NaN or negative,
    raises :class:`NumericFailureError`; an element still open after
    ``_GAMMAINC_MAX_ITER`` iterations raises
    :class:`UnstableConfigurationError`.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a) & (a > 0.0)) and np.all(x >= 0.0)):
        raise NumericFailureError(
            "incomplete gamma needs finite positive shapes and arguments x >= 0"
        )
    shape = np.broadcast_shapes(a.shape, x.shape)
    # one lgamma per shape, before broadcasting
    log_gamma = np.asarray(np.frompyfunc(math.lgamma, 1, 1)(a), dtype=float)
    a, x, log_gamma = (np.broadcast_to(v, shape).ravel() for v in (a, x, log_gamma))

    def prefactor(pick):
        return np.exp(a[pick] * np.log(x[pick]) - x[pick] - log_gamma[pick])

    out = np.where(x == math.inf, 1.0, 0.0)
    inner = (x > 0.0) & (x < math.inf)
    lower = inner & (x < a + 1.0)
    out[lower] = prefactor(lower) * _lower_series(a[lower], x[lower])
    upper = inner & ~lower
    out[upper] = 1.0 - prefactor(upper) * _upper_fraction(a[upper], x[upper])
    return out.reshape(shape)


def _lower_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_n x^n / (a (a+1) ... (a+n))``: ``P(a, x)`` over its prefactor."""
    total = np.empty(a.shape)
    live = np.arange(a.size)
    ap = a.copy()
    term = 1.0 / a
    acc = term.copy()
    for _ in range(_GAMMAINC_MAX_ITER):
        if not live.size:
            break
        ap += 1.0
        term *= x / ap
        acc += term
        done = np.abs(term) < _GAMMAINC_TOL * np.abs(acc)
        if done.any():
            total[live[done]] = acc[done]
            keep = ~done
            live, ap, x, term, acc = live[keep], ap[keep], x[keep], term[keep], acc[keep]
    _raise_if_open(live)
    return total


def _upper_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...))`` by the
    modified Lentz method: ``Q(a, x)`` over its prefactor."""
    total = np.empty(a.shape)
    live = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / _LENTZ_TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _GAMMAINC_MAX_ITER + 1):
        if not live.size:
            break
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _LENTZ_TINY] = _LENTZ_TINY
        c = b + an / c
        c[np.abs(c) < _LENTZ_TINY] = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _GAMMAINC_TOL
        if done.any():
            total[live[done]] = h[done]
            keep = ~done
            live, a, b, c, d, h = live[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
    _raise_if_open(live)
    return total


def _raise_if_open(live: np.ndarray) -> None:
    if live.size:
        raise UnstableConfigurationError(
            f"incomplete gamma: {live.size} element(s) still open after "
            f"{_GAMMAINC_MAX_ITER} iterations"
        )


def _poisson_rows(lam: float) -> int:
    """How many Poisson terms ``k = 0, 1, ...`` the series at rate ``lam``
    may read: one at ``lam = 0``, where only ``k = 0`` has weight."""
    if lam == 0.0:
        return 1
    return int(lam + 12.0 * math.sqrt(lam + 1.0) + 60.0) + 1


def _poisson_gamma_series(
    model: Besq1dModel, t: float, term_fn: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Sum ``sum_k Poisson(k; x0/t) term_k`` with Kahan compensation.

    Truncates once past the Poisson mode with all current terms below
    ``1e-12`` of the running sum.
    """
    lam = model.x0 / t
    total = None
    comp = None
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    for k in range(_poisson_rows(lam)):
        log_pois = 0.0 if lam == 0.0 else -lam + k * log_lam - math.lgamma(k + 1.0)
        term = math.exp(log_pois) * term_fn(k)
        if total is None:
            total = np.zeros_like(term)
            comp = np.zeros_like(term)
        # Kahan step
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if k >= lam:
            scale = np.max(np.abs(total), initial=0.0)
            if scale > 0.0 and np.max(np.abs(term)) < _SERIES_RTOL * scale:
                break
    return total


def besq_transition_density(model: Besq1dModel, t: float, x) -> np.ndarray | float:
    """Transition density (w.r.t. Lebesgue) at time ``t`` from ``model.x0``.

    From the boundary this is the Gamma(``b0``, ``t``) density; from interior
    starts it is the Poisson-Gamma mixture with rate ``x0 / t``.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    log_t = math.log(t)

    def term(k: int) -> np.ndarray:
        shape = k + model.b0
        with np.errstate(divide="ignore"):
            logs = np.where(
                xv > 0.0,
                (shape - 1.0) * np.log(np.maximum(xv, 1e-300))
                - xv / t
                - math.lgamma(shape)
                - shape * log_t,
                -np.inf if shape > 1.0 else np.nan,
            )
        out = np.exp(logs)
        if shape < 1.0:
            out = np.where(xv == 0.0, np.inf, out)
        elif shape == 1.0:
            out = np.where(xv == 0.0, 1.0 / t, out)
        else:
            out = np.where(xv == 0.0, 0.0, out)
        return out

    dens = _poisson_gamma_series(model, t, term)
    dens = np.where(xv < 0.0, 0.0, dens)
    return float(dens[0]) if scalar else dens


def besq_transition_mass(model: Besq1dModel, t: float, edges) -> np.ndarray:
    """Exact probability mass of each cell ``[edges[i], edges[i+1])``.

    The Gamma CDFs at the edges, for every Poisson shape ``k + b0`` the
    series may read, come from broadcast :func:`_gammainc` calls over blocks
    of ``k`` of at most ``_MASS_TABLE_CELLS`` cells: one call in all but very
    long series or very fine bins.
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be increasing")
    z = np.maximum(edges, 0.0) / t
    n_rows = _poisson_rows(model.x0 / t)
    rows = max(1, min(n_rows, _MASS_TABLE_CELLS // max(z.size, 1)))
    start, table = 0, np.empty(0)

    def term(k: int) -> np.ndarray:
        # the series reads k = 0, 1, ... in turn
        nonlocal start, table
        if k - start >= len(table):
            start = k
            shapes = np.arange(k, min(k + rows, n_rows)) + model.b0
            table = np.diff(_gammainc(shapes[:, None], z), axis=1)
        return table[k - start]

    return _poisson_gamma_series(model, t, term)


def besq_mean(model: Besq1dModel, t: float) -> float:
    return model.x0 + model.b0 * t


# ---------------------------------------------------------------------------
# Gaussian comparators
# ---------------------------------------------------------------------------


def gaussian_reference(n_dims: int, t: float, z0, z):
    """Unit-variance heat kernel ``(2 pi t)^(-n/2) exp(-|z - z0|^2 / (2 t))``."""
    z0 = np.asarray(z0, dtype=float)
    z = np.asarray(z, dtype=float)
    sq = np.sum((z - z0) ** 2, axis=-1) if z.ndim > 1 or n_dims > 1 else (z - z0) ** 2
    sq = np.asarray(sq, dtype=float)
    if z.ndim == 1 and n_dims > 1:
        sq = float(np.sum((z - z0) ** 2))
    return (2.0 * math.pi * t) ** (-n_dims / 2.0) * np.exp(-sq / (2.0 * t))


def lq_closed_form(q: float, t: float, n_dims: int) -> float:
    """``integral p^q dz`` for the unit-variance heat kernel:
    ``(2 pi)^(n(1-q)/2) q^(-n/2) t^((1-q) n/2)``.
    """
    if q <= 0.0 or t <= 0.0:
        raise ValueError("q and t must be positive")
    return (
        (2.0 * math.pi) ** (n_dims * (1.0 - q) / 2.0)
        * q ** (-n_dims / 2.0)
        * t ** ((1.0 - q) * n_dims / 2.0)
    )


def gaussian_abs_moment(alpha: float, t: float, n_dims: int) -> float:
    """``E |Z|^alpha`` for ``Z ~ N(0, t I_n)``: ``C(alpha, n) t^(alpha/2)``."""
    if alpha <= -n_dims:
        raise ValueError("moment diverges")
    log_c = (
        (alpha / 2.0) * math.log(2.0)
        + math.lgamma((n_dims + alpha) / 2.0)
        - math.lgamma(n_dims / 2.0)
    )
    return math.exp(log_c) * t ** (alpha / 2.0)


# ---------------------------------------------------------------------------
# Weighted 1D grid solver in the sqrt chart
# ---------------------------------------------------------------------------


class Grid1dSolver:
    """Finite-volume discretization of ``x u'' + b(x) u'`` under its weight.

    In the chart ``u = sqrt(x)`` the operator becomes
    ``(1/(4 w)) d/du (w dv/du)`` with ``w(u) = u^(2 b(u^2) - 1)``, which the
    scheme discretizes in flux form with interface coefficients that are exact
    on power-law steady states.  The origin is a natural (zero-flux) boundary;
    the outer edge is absorbing.
    """

    def __init__(self, length: float, n_cells: int, b_field: Callable | float = 1.0):
        if length <= 0.0 or n_cells < 4:
            raise ValueError("need positive length and at least 4 cells")
        self.length = float(length)
        self.n_cells = int(n_cells)
        if callable(b_field):
            self.b_of_x = b_field
        else:
            b_const = float(b_field)
            self.b_of_x = lambda x: np.full_like(np.asarray(x, dtype=float), b_const)
        U = math.sqrt(self.length)
        self.h = U / self.n_cells
        self.u_edges = np.linspace(0.0, U, self.n_cells + 1)
        self.u_centers = 0.5 * (self.u_edges[:-1] + self.u_edges[1:])
        self.x_centers = self.u_centers**2
        b_centers = np.asarray(self.b_of_x(self.x_centers), dtype=float)
        if np.any(b_centers <= 0.0):
            raise ValueError("weight exponents must be positive")
        # cell weights W_j = integral of u^(2b-1) over the cell (frozen b)
        e = 2.0 * b_centers
        self.cell_weight = (self.u_edges[1:] ** e - self.u_edges[:-1] ** e) / e
        self.mu_cells = 2.0 * self.cell_weight
        # interface conductances kappa = 1 / integral of u^(1-2b) between centers
        self.kappa = np.zeros(self.n_cells + 1)
        for j in range(1, self.n_cells):
            self.kappa[j] = 1.0 / self._resistance(
                self.u_centers[j - 1], self.u_centers[j], self.u_edges[j]
            )
        self.kappa[self.n_cells] = 1.0 / self._resistance(
            self.u_centers[-1], self.u_edges[-1], self.u_edges[-1]
        )
        self._matrix = self._assemble()

    def _resistance(self, u_lo: float, u_hi: float, u_if: float) -> float:
        b = float(np.asarray(self.b_of_x(np.array([u_if**2])))[0])
        p = 1.0 - 2.0 * b
        if abs(p + 1.0) < 1e-12:  # exponent -1
            return math.log(u_hi / u_lo)
        return (u_hi ** (p + 1.0) - u_lo ** (p + 1.0)) / (p + 1.0)

    def _assemble(self):
        """The tridiagonal generator as a sparse CSC matrix."""
        from scipy import sparse

        N = self.n_cells
        main = np.zeros(N)
        lower = np.zeros(N - 1)
        upper = np.zeros(N - 1)
        for j in range(N):
            k_left = self.kappa[j]
            k_right = self.kappa[j + 1]
            scale = 1.0 / (4.0 * self.cell_weight[j])
            main[j] = -(k_left + k_right) * scale
            if j > 0:
                lower[j - 1] = k_left * scale
            if j < N - 1:
                upper[j] = k_right * scale
        return sparse.diags(
            [lower, main, upper], offsets=[-1, 0, 1], format="csc"
        )

    def l2_mu_norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.sum(values**2 * self.mu_cells)))

    def mass(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.mu_cells))


@record
class Solution1D:
    """Space-time field produced by the grid solver (values are mu-densities
    when the initial data was a mass-normalized spike)."""

    solver: Grid1dSolver
    times: np.ndarray
    values: np.ndarray  # (n_times, n_cells)

    def value(self, t: float, x: float) -> float:
        """Bilinear interpolation in (t, sqrt(x))."""
        times = self.times
        if not (times[0] - 1e-12 <= t <= times[-1] + 1e-12):
            raise ValueError(f"time {t} outside solved range")
        kt = min(max(int(np.searchsorted(times, t) - 1), 0), len(times) - 2)
        wt = (t - times[kt]) / (times[kt + 1] - times[kt])
        u = math.sqrt(max(x, 0.0))
        centers = self.solver.u_centers
        if u <= centers[0]:
            j, wu = 0, 0.0
        elif u >= centers[-1]:
            j, wu = len(centers) - 2, 1.0
        else:
            j = int(np.searchsorted(centers, u) - 1)
            wu = (u - centers[j]) / (centers[j + 1] - centers[j])
        row0 = (1.0 - wu) * self.values[kt, j] + wu * self.values[kt, j + 1]
        row1 = (1.0 - wu) * self.values[kt + 1, j] + wu * self.values[kt + 1, j + 1]
        return float((1.0 - wt) * row0 + wt * row1)

    def mass(self, t: float) -> float:
        kt = int(np.argmin(np.abs(self.times - t)))
        return self.solver.mass(self.values[kt])


def dirac_approx(solver: Grid1dSolver, x0: float) -> np.ndarray:
    """Spike of unit weighted mass on the cell containing ``x0``, the initial
    value that converges to the transition density against the weighted
    measure."""
    j = int(np.clip(np.searchsorted(solver.u_edges, math.sqrt(max(x0, 0.0))) - 1,
                    0, solver.n_cells - 1))
    v = np.zeros(solver.n_cells)
    v[j] = 1.0 / solver.mu_cells[j]
    return v


def solve_parabolic_1d(
    solver: Grid1dSolver,
    f,
    gsrc,
    T: float,
    dt: float,
    theta: float = 0.5,
    stability_check: bool = True,
) -> Solution1D:
    """Theta-scheme evolution (Crank-Nicolson by default) of the 1D problem.

    ``f`` is the initial data (callable on x or an array of cell values),
    ``gsrc`` an optional source ``(t, x) -> value``.  For a zero source the
    discrete weighted L2 norm must not grow; growth beyond roundoff raises
    :class:`UnstableConfigurationError`.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be a positive integer multiple of dt")
    if callable(f):
        v = np.asarray(f(solver.x_centers), dtype=float)
    else:
        v = np.asarray(f, dtype=float).copy()
    if v.shape != (solver.n_cells,):
        raise ValueError("initial data does not match the grid")
    A = solver._matrix
    eye = sparse.identity(solver.n_cells, format="csc")
    lhs = splu((eye - dt * theta * A).tocsc())
    rhs_mat = eye + dt * (1.0 - theta) * A
    times = dt * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, solver.n_cells))
    out[0] = v
    norm_prev = solver.l2_mu_norm(v)
    has_source = gsrc is not None
    for k in range(1, n_steps + 1):
        rhs = rhs_mat @ v
        if has_source:
            g0 = np.asarray(gsrc(times[k - 1], solver.x_centers), dtype=float)
            g1 = np.asarray(gsrc(times[k], solver.x_centers), dtype=float)
            rhs = rhs + dt * 0.5 * (g0 + g1)
        v = lhs.solve(rhs)
        out[k] = v
        if stability_check and not has_source:
            norm = solver.l2_mu_norm(v)
            if norm > norm_prev * (1.0 + 1e-10) + 1e-14:
                raise UnstableConfigurationError(
                    f"weighted L2 norm grew at step {k}: {norm_prev} -> {norm}"
                )
            norm_prev = norm
    return Solution1D(solver=solver, times=times, values=out)
