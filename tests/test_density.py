import math

import numpy as np
import pytest

from conftest import make_sing_1d, make_std_1d

from kimura_lab.density import (
    GridSpec,
    check_mass,
    estimate_density,
    subdomain_alive_at,
)
from kimura_lab.geometry import (
    DomainSpec,
    Point,
    StateSpaceDims,
    WeightedMeasure,
)
from kimura_lab.sde import build_sde_coefficients, build_standard_sde_coefficients
from kimura_lab.simulate import PathConfig, simulate_bundle

DIMS1 = StateSpaceDims(1, 0)
FULL1 = DomainSpec.full_space(DIMS1)
ORIGIN = Point((0.0,), ())


@pytest.fixture(scope="module")
def half_bundle():
    coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
    cfg = PathConfig(dt=2e-3, seed=71, n_paths=50_000, horizon=1.0,
                     record=(0.0, 0.25, 0.5, 1.0))
    return simulate_bundle(coeffs, ORIGIN, FULL1, cfg)


class TestHistogram:
    def test_mass_identity_exact(self, half_bundle):
        grid = GridSpec(box=((0.0, 12.0),), cells_per_axis=64)
        measure = WeightedMeasure.constant(DIMS1, [0.5])
        est = estimate_density(half_bundle, 1.0, grid, measure=measure)
        total = float(np.sum(est.values * est.cell_mu))
        assert total == pytest.approx(est.in_box_mass, rel=1e-12)
        assert check_mass(est) == pytest.approx(est.in_box_mass, rel=1e-12)

    def test_full_space_survival_is_one(self, half_bundle):
        grid = GridSpec(box=((0.0, 12.0),), cells_per_axis=32)
        est = estimate_density(half_bundle, 1.0, grid)
        assert est.survival_mass == 1.0

    def test_initial_slice_is_point_mass(self, half_bundle):
        grid = GridSpec(box=((0.0, 2.0),), cells_per_axis=16)
        est = estimate_density(half_bundle, 0.0, grid)
        assert est.counts[0] == half_bundle.n_paths
        assert np.all(est.counts[1:] == 0)

    def test_mass_nonincreasing_in_time_on_common_bundle(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        domain = DomainSpec.box(DIMS1, [(0.0, 1.5)])
        cfg = PathConfig(dt=2e-3, seed=72, n_paths=20_000, horizon=1.0,
                         record=(0.0, 0.25, 0.5, 1.0))
        bundle = simulate_bundle(coeffs, Point((0.5,), ()), domain, cfg)
        grid = GridSpec(box=((0.0, 1.5),), cells_per_axis=32)
        masses = [
            check_mass(estimate_density(bundle, t, grid))
            for t in (0.25, 0.5, 1.0)
        ]
        assert masses[0] >= masses[1] >= masses[2]
        assert masses[2] < 1.0

    def test_density_against_weighted_measure_matches_oracle(self, half_bundle):
        # mu-density of the boundary-started law is exp(-x)/Gamma(1/2) at t=1
        grid = GridSpec(box=((0.0, 6.0),), cells_per_axis=48)
        measure = WeightedMeasure.constant(DIMS1, [0.5])
        est = estimate_density(half_bundle, 1.0, grid, measure=measure)
        centers = est.cell_centers()[0]
        ref = np.exp(-centers) / math.gamma(0.5)
        l1 = float(np.sum(np.abs(est.values - ref) * est.cell_mu))
        assert l1 < 0.06


class TestSymmetry:
    def test_bidirectional_kernel_estimates_agree(self):
        # p(t, z0, z1) = p(t, z1, z0) against mu: each start's histogram in
        # one cell centred on the other start, both starts in one bundle
        coeffs = build_sde_coefficients(make_sing_1d(b0=1.0))
        measure = WeightedMeasure.constant(DIMS1, [1.0])
        t, z0, z1 = 0.5, 0.8, 1.6
        cfg = PathConfig(dt=2e-3, seed=73, n_paths=150_000, horizon=t, record=(0.0, t))
        both = simulate_bundle(coeffs, [Point((z0,), ()), Point((z1,), ())], FULL1, cfg)
        reads = []
        for part, target in zip(both.per_start(), (z1, z0)):
            grid = GridSpec(box=((target - 0.025, target + 0.025),), cells_per_axis=1)
            est = estimate_density(part, t, grid, measure=measure)
            c, value = float(est.counts[0]), float(est.values[0])
            assert c >= 100
            reads.append((value, value * math.sqrt((1.0 - c / est.n_paths) / c)))
        (a, se_a), (b, se_b) = reads
        assert abs(a - b) <= 3.0 * math.hypot(se_a, se_b)


class TestDomination:
    def test_cellwise_domination_on_common_paths(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        outer = DomainSpec.box(DIMS1, [(0.0, 4.0)])
        inner = DomainSpec.box(DIMS1, [(0.0, 2.0)])
        cfg = PathConfig(dt=4e-3, seed=75, n_paths=20_000, horizon=1.0,
                         record="all")
        bundle = simulate_bundle(coeffs, Point((0.5,), ()), outer, cfg)
        t = 1.0
        alive_outer = bundle.alive_at(t)
        alive_inner = subdomain_alive_at(bundle, inner, t)
        assert np.all(alive_inner <= alive_outer)
        states = bundle.states_at(t)[:, 0]
        edges = np.linspace(0.0, 4.0, 33)
        up, _ = np.histogram(states[alive_outer], edges)
        lo, _ = np.histogram(states[alive_inner], edges)
        assert np.all(lo <= up)


class TestSemigroupComposition:
    def test_density_composes_through_grid_propagator(self, half_bundle):
        # histogram at t, evolved by s with the deterministic weighted
        # propagator, must reproduce the histogram at t + s
        b0, t, s = 0.5, 0.5, 0.5
        from kimura_lab.oracle import Grid1dSolver, solve_parabolic_1d

        grid = GridSpec(box=((0.0, 12.0),), cells_per_axis=64)
        measure = WeightedMeasure.constant(DIMS1, [b0])
        est_t = estimate_density(half_bundle, t, grid, measure=measure)
        est_ts = estimate_density(half_bundle, t + s, grid, measure=measure)

        solver = Grid1dSolver(length=12.0, n_cells=480, b_field=b0)
        edges = est_t.edges[0]
        cell_of = np.clip(
            np.searchsorted(edges, solver.x_centers, side="right") - 1, 0, 63
        )
        v0 = est_t.values[cell_of]
        sol = solve_parabolic_1d(solver, v0, None, s, 1e-3)
        evolved_mass = np.zeros(64)
        np.add.at(evolved_mass, cell_of, sol.values[-1] * solver.mu_cells)
        target_mass = est_ts.values * est_ts.cell_mu
        l1 = float(np.abs(evolved_mass - target_mass).sum())
        assert l1 < 0.06


def test_degenerate_estimate_flag_when_everything_exited():
    coeffs = build_standard_sde_coefficients(make_std_1d(b0=50.0))
    domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
    cfg = PathConfig(dt=1e-3, seed=77, n_paths=200, horizon=1.0,
                     record=(0.0, 1.0))
    bundle = simulate_bundle(coeffs, Point((0.5,), ()), domain, cfg)
    est = estimate_density(bundle, 1.0, GridSpec(box=((0.0, 1.0),), cells_per_axis=8))
    assert est.degenerate
    assert est.survival_mass == 0.0
