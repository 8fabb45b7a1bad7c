import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from conftest import make_std_1d

from kimura_lab import oracle
from kimura_lab.errors import NumericFailureError, UnstableConfigurationError
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims
from kimura_lab.oracle import (
    Besq1dModel,
    Grid1dSolver,
    _gammainc,
    besq_mean,
    besq_transition_density,
    besq_transition_mass,
    dirac_approx,
    gaussian_abs_moment,
    gaussian_reference,
    lq_closed_form,
    solve_parabolic_1d,
)
from kimura_lab.sde import build_standard_sde_coefficients
from kimura_lab.simulate import PathConfig, simulate_bundle


class TestTransitionDensity:
    def test_boundary_start_is_gamma(self):
        model = Besq1dModel(b0=0.5, x0=0.0)
        xs = np.array([0.05, 0.3, 1.0, 2.5])
        got = besq_transition_density(model, 1.0, xs)
        ref = stats.gamma(a=0.5, scale=1.0).pdf(xs)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_unit_weight_is_exponential(self):
        model = Besq1dModel(b0=1.0, x0=0.0)
        xs = np.array([0.1, 1.0, 4.0])
        got = besq_transition_density(model, 2.0, xs)
        assert got == pytest.approx(np.exp(-xs / 2.0) / 2.0, rel=1e-12)

    def test_interior_start_matches_noncentral_chisquare(self):
        # independent reference: X(t) = (t/2) * ncx2(2 b0, 2 x0 / t)
        model = Besq1dModel(b0=0.75, x0=1.3)
        t = 0.7
        xs = np.linspace(0.05, 5.0, 40)
        got = besq_transition_density(model, t, xs)
        ref = (2.0 / t) * stats.ncx2(df=2 * 0.75, nc=2 * 1.3 / t).pdf(2.0 * xs / t)
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("b0,x0,t", [(0.5, 0.0, 1.0), (1.5, 0.8, 0.4)])
    def test_density_mass_is_one(self, b0, x0, t):
        model = Besq1dModel(b0=b0, x0=x0)
        val, err = quad(
            lambda x: besq_transition_density(model, t, x), 0.0, np.inf, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cell_masses_match_density_quadrature(self):
        model = Besq1dModel(b0=0.5, x0=0.6)
        t = 0.5
        edges = np.array([0.0, 0.2, 0.7, 1.5, 4.0])
        masses = besq_transition_mass(model, t, edges)
        for k in range(len(edges) - 1):
            ref, _ = quad(
                lambda x: besq_transition_density(model, t, x),
                edges[k],
                edges[k + 1],
                limit=200,
            )
            assert masses[k] == pytest.approx(ref, rel=1e-9)
        assert masses.sum() < 1.0

    def test_mean_formula(self):
        assert besq_mean(Besq1dModel(0.5, 0.2), 2.0) == pytest.approx(1.2)

    def test_exact_sampler_matches_law(self):
        # one exact-1d-gamma step from an interior start
        model = Besq1dModel(b0=0.5, x0=0.6)
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=0.5, seed=41, n_paths=200_000, horizon=0.5,
                         scheme="exact-1d-gamma")
        bundle = simulate_bundle(coeffs, Point((0.6,), ()),
                                 DomainSpec.full_space(StateSpaceDims(1, 0)), cfg)
        x = bundle.states_at(0.5)[:, 0]
        edges = np.linspace(0.0, 4.0, 30)
        emp, _ = np.histogram(x, edges)
        emp = emp / len(x)
        ref = besq_transition_mass(model, 0.5, edges)
        assert np.abs(emp - ref).sum() < 0.01

    def test_forward_equation_residual(self):
        # the mu-density q = p / x^(b-1) satisfies dq/dt = x q'' + b q'
        model = Besq1dModel(b0=0.5, x0=0.0)
        b0 = model.b0

        def q(t, x):
            return besq_transition_density(model, t, x) / x ** (b0 - 1.0)

        for (t, x) in [(0.5, 0.4), (1.0, 1.2)]:
            ht, hx = 1e-5, 1e-4
            dq_dt = (q(t + ht, x) - q(t - ht, x)) / (2 * ht)
            d1 = (q(t, x + hx) - q(t, x - hx)) / (2 * hx)
            d2 = (q(t, x + hx) - 2 * q(t, x) + q(t, x - hx)) / hx**2
            rhs = x * d2 + b0 * d1
            assert dq_dt == pytest.approx(rhs, rel=1e-4)


def _scipy_mass(model, t, edges):
    """The Poisson-Gamma cell-mass series as built on SciPy's gammainc."""
    lam = model.x0 / t
    k_cap = int(lam + 12.0 * math.sqrt(lam + 1.0) + 60.0)
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    total = comp = None
    for k in range(k_cap + 1):
        if lam == 0.0:
            log_pois = 0.0 if k == 0 else -math.inf
        else:
            log_pois = -lam + k * log_lam - special.gammaln(k + 1.0)
        if log_pois == -math.inf:
            break
        term = math.exp(log_pois) * np.diff(
            special.gammainc(k + model.b0, np.maximum(edges, 0.0) / t)
        )
        if total is None:
            total, comp = np.zeros_like(term), np.zeros_like(term)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if k >= lam and np.max(np.abs(term)) < 1e-12 * np.max(np.abs(total)):
            break
    return total


class TestIncompleteGamma:
    SHAPES = np.array([0.05, 0.1, 0.5, 0.7, 1.0, 1.5, 2.5, 5.0, 10.0, 30.0, 60.0, 100.0, 200.0])

    def test_matches_scipy_on_grid(self):
        x = np.concatenate([[0.0], np.logspace(-8.0, 3.3, 2000)])
        got = _gammainc(self.SHAPES[:, None], x)
        assert got.shape == (len(self.SHAPES), len(x))
        assert np.max(np.abs(got - special.gammainc(self.SHAPES[:, None], x))) <= 1e-13

    def test_zero_and_infinite_arguments(self):
        got = _gammainc(self.SHAPES[:, None], np.array([0.0, np.inf]))
        assert got[:, 0].tolist() == [0.0] * len(self.SHAPES)
        assert got[:, 1].tolist() == [1.0] * len(self.SHAPES)
        assert float(_gammainc(0.3, 0.0)) == 0.0 and float(_gammainc(0.3, np.inf)) == 1.0

    def test_closed_forms_below_and_at_unit_shape(self):
        # P(1/2, x) = erf(sqrt(x)) and P(1, x) = 1 - exp(-x), on both branches
        x = np.array([1e-6, 0.01, 0.3, 1.2, 1.6, 4.0, 25.0])
        half = np.array([math.erf(math.sqrt(v)) for v in x])
        assert np.max(np.abs(_gammainc(0.5, x) - half)) <= 1e-14
        assert np.max(np.abs(_gammainc(1.0, x) + np.expm1(-x))) <= 1e-14

    @pytest.mark.parametrize("x0", [0.0, 0.6, 6.0, 50.0])
    def test_cell_masses_match_scipy_series(self, x0):
        model = Besq1dModel(b0=0.5, x0=x0)
        edges = np.linspace(0.0, x0 + 6.0, 65)
        got = besq_transition_mass(model, 1.0, edges)
        assert np.max(np.abs(got - _scipy_mass(model, 1.0, edges))) <= 1e-13

    def test_cell_masses_in_row_blocks_match_one_table(self, monkeypatch):
        model = Besq1dModel(b0=0.5, x0=6.0)
        edges = np.linspace(0.0, 12.0, 65)
        one = besq_transition_mass(model, 1.0, edges)
        monkeypatch.setattr(oracle, "_MASS_TABLE_CELLS", 3 * 65)
        assert besq_transition_mass(model, 1.0, edges).tobytes() == one.tobytes()

    @pytest.mark.parametrize("a, x", [(np.inf, 1.0), (np.nan, 1.0), (0.0, 1.0), (1.0, np.nan)])
    def test_non_finite_input_raises(self, a, x):
        with pytest.raises(NumericFailureError):
            _gammainc(np.array([1.0, a]), x)

    def test_non_finite_shape_raises_from_the_cell_masses(self):
        with pytest.raises(NumericFailureError):
            besq_transition_mass(Besq1dModel(b0=np.inf), 1.0, np.linspace(0.0, 3.0, 5))

    @pytest.mark.parametrize("x", [1.5, 4.0], ids=["series", "fraction"])
    def test_iteration_cap_raises(self, monkeypatch, x):
        # a non-integer shape: the fraction for an integer one ends exactly
        monkeypatch.setattr(oracle, "_GAMMAINC_MAX_ITER", 3)
        with pytest.raises(UnstableConfigurationError):
            _gammainc(2.5, x)


class TestGaussianReference:
    def test_lq_unit_exponent(self):
        assert lq_closed_form(1.0, 0.37, 3) == pytest.approx(1.0)

    def test_lq_frozen_value(self):
        assert lq_closed_form(2.0, 1.0, 1) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))

    def test_lq_matches_quadrature(self):
        for (q, t, n) in [(1.5, 0.5, 1), (2.0, 2.0, 1)]:
            val, _ = quad(
                lambda x: float(gaussian_reference(1, t, 0.0, np.array([x]))[0]) ** q,
                -np.inf,
                np.inf,
            )
            assert val ** n == pytest.approx(lq_closed_form(q, t, n), abs=1e-8)

    def test_abs_moment_second_is_nt(self):
        assert gaussian_abs_moment(2.0, 0.7, 3) == pytest.approx(3 * 0.7)

    def test_abs_moment_matches_quadrature(self):
        alpha, t = 1.3, 0.8
        val, _ = quad(
            lambda x: abs(x) ** alpha * float(gaussian_reference(1, t, 0.0, np.array([x]))[0]),
            -np.inf,
            np.inf,
        )
        assert val == pytest.approx(gaussian_abs_moment(alpha, t, 1), abs=1e-8)

    def test_kernel_peak_value(self):
        assert float(gaussian_reference(1, 1.0, 0.0, np.array([0.0]))[0]) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi)
        )


class TestGridSolver:
    def test_constant_preserved_until_boundary_felt(self):
        solver = Grid1dSolver(length=4.0, n_cells=200, b_field=0.5)
        sol = solve_parabolic_1d(solver, lambda x: np.ones_like(x), None, 0.05, 1e-3)
        assert sol.value(0.05, 0.5) == pytest.approx(1.0, abs=1e-4)
        # the absorbing outer edge is felt only near that edge
        assert sol.value(0.05, 3.9) < 0.9

    def test_mass_nonincreasing_with_absorbing_edge(self):
        solver = Grid1dSolver(length=2.0, n_cells=100, b_field=0.5)
        sol = solve_parabolic_1d(solver, lambda x: np.ones_like(x), None, 0.5, 2e-3)
        masses = [solver.mass(sol.values[k]) for k in range(0, len(sol.times), 20)]
        assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(masses, masses[1:]))
        assert masses[-1] < masses[0]

    def test_weighted_l2_contraction(self):
        solver = Grid1dSolver(length=2.0, n_cells=80, b_field=1.0)
        sol = solve_parabolic_1d(
            solver, lambda x: np.sin(3 * x), None, 0.3, 1e-3
        )
        norms = [solver.l2_mu_norm(v) for v in sol.values]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_discrete_maximum_principle_at_small_dt(self):
        solver = Grid1dSolver(length=2.0, n_cells=60, b_field=0.7)
        f0 = lambda x: np.clip(1.0 - np.abs(x - 0.5), 0.0, 1.0)
        sol = solve_parabolic_1d(solver, f0, None, 0.1, 5e-5)
        assert sol.values.min() >= -1e-9
        assert sol.values.max() <= 1.0 + 1e-9

    def test_unstable_configuration_detected(self):
        solver = Grid1dSolver(length=1.0, n_cells=100, b_field=0.5)
        with pytest.raises(UnstableConfigurationError):
            solve_parabolic_1d(
                solver, lambda x: np.sin(20 * x), None, 0.5, 0.05, theta=0.0
            )

    def test_duhamel_linearity(self):
        solver = Grid1dSolver(length=2.0, n_cells=60, b_field=1.0)
        f = lambda x: np.exp(-x)
        g = lambda t, x: np.cos(x) * (1.0 + t)
        both = solve_parabolic_1d(solver, f, g, 0.2, 1e-3)
        hom = solve_parabolic_1d(solver, f, None, 0.2, 1e-3)
        src = solve_parabolic_1d(solver, lambda x: np.zeros_like(x), g, 0.2, 1e-3,
                                 stability_check=False)
        assert np.allclose(both.values, hom.values + src.values, atol=1e-11)

    def test_dirac_mass_normalization(self):
        solver = Grid1dSolver(length=4.0, n_cells=128, b_field=0.5)
        v = dirac_approx(solver, 0.0)
        assert solver.mass(v) == pytest.approx(1.0)

    def test_spike_evolves_to_transition_profile(self):
        # mu-density of the boundary-started law: exp(-x/t) / (Gamma(b0) t^b0)
        b0, t = 0.5, 1.0
        solver = Grid1dSolver(length=12.0, n_cells=600, b_field=b0)
        sol = solve_parabolic_1d(solver, dirac_approx(solver, 0.0), None, t, 5e-4)
        xs = solver.x_centers
        ref = np.exp(-xs / t) / (math.gamma(b0) * t**b0)
        err = np.sum(np.abs(sol.values[-1] - ref) * solver.mu_cells)
        assert err < 0.02

    def test_convergence_is_second_order_against_oracle(self):
        b0, t = 0.5, 1.0

        def l1_error(n_cells, dt):
            solver = Grid1dSolver(length=12.0, n_cells=n_cells, b_field=b0)
            sol = solve_parabolic_1d(solver, dirac_approx(solver, 0.0), None, t, dt)
            xs = solver.x_centers
            ref = np.exp(-xs / t) / (math.gamma(b0) * t**b0)
            return float(np.sum(np.abs(sol.values[-1] - ref) * solver.mu_cells))

        coarse = l1_error(150, 2e-3)
        fine = l1_error(300, 1e-3)
        assert coarse / fine == pytest.approx(4.0, rel=0.5)


def test_flux_coefficients_exact_on_power_law_steady_state():
    # v = u^(2 - 2b) has constant flux, so interior rows annihilate it
    b0 = 0.7
    solver = Grid1dSolver(length=2.0, n_cells=50, b_field=b0)
    v = solver.u_centers ** (2.0 - 2.0 * b0)
    residual = solver._matrix @ v
    assert np.max(np.abs(residual[1:-1])) < 1e-10


def test_importing_the_cli_loads_no_scipy():
    # SciPy is imported inside the grid-solver functions that use it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, kimura_lab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_oracle_compare_runs_without_scipy(tmp_path):
    # the exact-law oracles use NumPy and math only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({
        "command": "oracle-compare", "seed": 5, "b0": 0.5, "x0": 0.6, "t": 1.0, "bins": 16,
        "sim": {"n_paths": 8000, "dt": 0.01, "scheme": "exact-1d-gamma"},
    }))
    code = (
        "import sys; from kimura_lab.cli import main; "
        f"code = main(['--config', {str(config)!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    # exit code 0: the L1 gap and the mean passed against the exact law
    assert out.stdout.strip().splitlines()[-1] == "0 []"
