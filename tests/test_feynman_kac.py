import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_sing_1d, make_std_1d, mean_se

from kimura_lab.errors import (
    BoundaryDataGapError,
    InvalidTestFunctionError,
    NumericFailureError,
    WeightBlowupError,
)
from kimura_lab.feynman_kac import (
    READ_PATHS,
    BoundaryData,
    estimate_dirichlet,
    estimate_dirichlet_nodes,
    estimate_inhomogeneous,
    estimate_probabilistic_solution,
    estimate_semigroup,
    RunningIntegralObserver,
    exp_moment_diagnostic,
    martingale_residual,
    weights_from_log,
)
from kimura_lab.fields import SmoothBump
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims
from kimura_lab.sde import (
    build_sde_coefficients,
    build_standard_sde_coefficients,
    make_girsanov_field,
)
from kimura_lab.simulate import PathConfig, simulate_bundle

DIMS1 = StateSpaceDims(1, 0)
FULL1 = DomainSpec.full_space(DIMS1)
BOX04 = DomainSpec.box(DIMS1, [(0.0, 4.0)])
ORIGIN = Point((0.0,), ())
ONE = lambda states: np.ones(states.shape[0])


def cfg(n_paths=20_000, dt=2e-3, seed=51, horizon=1.0, **kw):
    return PathConfig(dt=dt, seed=seed, n_paths=n_paths, horizon=horizon, **kw)


class TestSemigroup:
    def test_full_space_mass_is_exactly_one(self, coeffs_sing_half):
        est = estimate_semigroup(coeffs_sing_half, ONE, 0.5, ORIGIN, FULL1,
                                 cfg(n_paths=2_000))
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_bounded_domain_survival_probability(self, coeffs_sing_half):
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        est = estimate_semigroup(coeffs_sing_half, ONE, 0.5,
                                 Point((0.3,), ()), domain, cfg(n_paths=4_000))
        assert 0.0 < est.value < 1.0

    def test_monotone_in_payoff_with_common_seed(self, coeffs_sing_half):
        domain = DomainSpec.box(DIMS1, [(0.0, 2.0)])
        c = cfg(n_paths=4_000)
        lo = estimate_semigroup(coeffs_sing_half, lambda s: s[:, 0], 0.5,
                                Point((0.5,), ()), domain, c)
        hi = estimate_semigroup(coeffs_sing_half, lambda s: s[:, 0] + 0.2, 0.5,
                                Point((0.5,), ()), domain, c)
        assert lo.value <= hi.value

    def test_contraction_surrogate(self, coeffs_sing_half):
        f = lambda s: np.sin(5.0 * s[:, 0])
        est = estimate_semigroup(coeffs_sing_half, f, 0.5, Point((0.5,), ()),
                                 BOX04, cfg(n_paths=4_000))
        assert abs(est.value) <= 1.0

    def test_domain_monotonicity_with_common_seed(self, coeffs_sing_half):
        inner = DomainSpec.box(DIMS1, [(0.0, 1.5)])
        outer = DomainSpec.box(DIMS1, [(0.0, 3.0)])
        c = cfg(n_paths=4_000)
        z = Point((0.8,), ())
        f = lambda s: np.exp(-s[:, 0])  # nonnegative
        small = estimate_semigroup(coeffs_sing_half, f, 0.5, z, inner, c)
        big = estimate_semigroup(coeffs_sing_half, f, 0.5, z, outer, c)
        assert small.value <= big.value + 1e-15

    def test_restart_composition_agrees(self):
        # Markov restart: one leg to t+s versus a leg to t continued by a
        # hand-rolled second leg with fresh noise
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=1.0))
        t, s = 0.3, 0.2
        f = lambda x: np.exp(-x)
        direct = simulate_bundle(
            coeffs, ORIGIN, FULL1, cfg(n_paths=60_000, seed=60, horizon=t + s,
                                       record=(0.0, t + s))
        )
        leg1 = simulate_bundle(
            coeffs, ORIGIN, FULL1, cfg(n_paths=60_000, seed=61, horizon=t,
                                       record=(0.0, t))
        )
        x = leg1.states_at(t)[:, 0].copy()
        rng = np.random.Generator(np.random.Philox(key=62))
        dt = 2e-3
        for _ in range(int(round(s / dt))):
            xi = rng.standard_normal(len(x))
            x = np.maximum(x + 1.0 * dt + np.sqrt(2.0 * x * dt) * xi, 0.0)
        m1, se1 = mean_se(f(direct.states_at(t + s)[:, 0]))
        m2, se2 = mean_se(f(x))
        assert abs(m1 - m2) <= 3.0 * math.hypot(se1, se2)


class TestDirichlet:
    def test_unit_boundary_data_is_exactly_one(self, coeffs_sing_half):
        gdata = BoundaryData(lambda t, s: np.ones(len(s)))
        est = estimate_dirichlet(coeffs_sing_half, gdata, 0.8, Point((1.0,), ()),
                                 0.0, BOX04, cfg(n_paths=2_000))
        assert est.value == 1.0

    def test_truncation_gives_probability(self, coeffs_sing_half):
        gdata = BoundaryData(lambda t, s: np.ones(len(s)))
        est = estimate_dirichlet(coeffs_sing_half, gdata, 0.8, Point((3.5,), ()),
                                 0.0, BOX04, cfg(n_paths=4_000), t_cut=0.5)
        assert 0.0 <= est.value <= 1.0
        assert est.value < 1.0  # some paths survive past the cut

    def test_boundary_gap_detected(self, coeffs_sing_half):
        def g(times, states):
            out = np.ones(len(states))
            out[states[:, 0] >= 4.0] = np.nan
            return out

        with pytest.raises(BoundaryDataGapError):
            estimate_dirichlet(
                coeffs_sing_half, BoundaryData(g), 1.0, Point((3.9,), ()),
                0.0, BOX04, cfg(n_paths=2_000),
            )

    def test_degenerate_horizon_evaluates_data(self, coeffs_sing_half):
        gdata = BoundaryData(lambda t, s: 2.0 + s[:, 0])
        est = estimate_dirichlet(coeffs_sing_half, gdata, 0.3, Point((1.0,), ()),
                                 0.3, BOX04, cfg(n_paths=100))
        assert est.value == pytest.approx(3.0)


class TestDirichletNodes:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("n_paths", [512, 5000])
    def test_each_node_matches_its_own_call(self, coeffs_sing_half, n_threads, n_paths):
        gdata = BoundaryData(lambda times, states: 1.0 + 0.25 * states[:, 0] + 0.1 * times)
        t1 = 0.1
        z = [Point((x,), ()) for x in (0.5, 2.0, 3.9)]
        # t == t1, shared and distinct horizons, a duplicate node
        nodes = [(0.3, z[0]), (t1, z[1]), (0.3, z[2]), (0.25, z[1]), (0.3, z[0]), (0.31, z[2])]
        c = cfg(n_paths=n_paths, seed=17)
        many = estimate_dirichlet_nodes(
            coeffs_sing_half, gdata, nodes, t1, BOX04, c, t_cut=0.28, n_threads=n_threads
        )
        for (t, z0), est in zip(nodes, many):
            alone = estimate_dirichlet(
                coeffs_sing_half, gdata, t, z0, t1, BOX04, c, t_cut=0.28, n_threads=n_threads
            )
            assert est == alone
            assert est.value.hex() == alone.value.hex()
            assert est.stderr.hex() == alone.stderr.hex()
        assert many[0] == many[4]
        assert many[1].stderr == 0.0 and many[1].value == 1.5 + 0.1 * t1

    def test_node_before_t1_is_rejected(self, coeffs_sing_half):
        gdata = BoundaryData(lambda times, states: np.ones(states.shape[0]))
        with pytest.raises(ValueError):
            estimate_dirichlet_nodes(coeffs_sing_half, gdata, [(0.5, ORIGIN), (0.1, ORIGIN)],
                                     0.2, BOX04, cfg(n_paths=64))

    @pytest.mark.parametrize("t_cut", [0.2, -1.0])
    def test_cut_at_or_before_t1_is_rejected(self, coeffs_sing_half, t_cut):
        # such a cut truncates every payoff, so the estimate would read 0
        gdata = BoundaryData(lambda times, states: np.ones(states.shape[0]))
        with pytest.raises(ValueError):
            estimate_dirichlet_nodes(coeffs_sing_half, gdata, [(0.5, ORIGIN)],
                                     0.2, BOX04, cfg(n_paths=64), t_cut=t_cut)

    @pytest.mark.parametrize("n_paths", [512, 5000])
    def test_weighted_nodes_match_each_node_alone(self, n_paths):
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        gdata = BoundaryData(lambda times, states: 1.0 + 0.25 * states[:, 0] + 0.1 * times)
        t1 = 0.1
        z = [Point((x,), ()) for x in (0.5, 2.0, 3.9)]
        # t == t1, shared and distinct horizons, a duplicate node
        nodes = [(0.3, z[0]), (t1, z[1]), (0.3, z[2]), (0.25, z[1]), (0.3, z[0])]
        c = cfg(n_paths=n_paths, seed=19)
        many = estimate_dirichlet_nodes(pair.sing, gdata, nodes, t1, BOX04, c, theta=pair)
        for (t, z0), est in zip(nodes, many):
            alone = estimate_probabilistic_solution(
                pair.sing, gdata, t, z0, (t1, 1.0, BOX04), pair, c
            )
            assert est == alone
            for name in ("value", "stderr", "n_effective"):
                assert getattr(est, name).hex() == getattr(alone, name).hex()
        assert many[0] == many[4]
        assert many[0].n_effective < n_paths  # the weights are not all equal


class TestOneTimeGrid:
    """Estimators step on the ``dt`` they are given and read an off-grid time
    by blending the bracketing grid steps."""

    def test_grid_aligned_node_is_the_plain_bundle_read(self, coeffs_sing_half):
        # pins: a node on the grid reads stop_states of its own start, with
        # the shared bundle running past its horizon
        gdata = BoundaryData(lambda times, states: 1.0 + 0.25 * states[:, 0] + 0.1 * times)
        t1, z = 0.1, Point((3.7,), ())
        c = cfg(n_paths=3000, seed=23)
        nodes = [(0.5, Point((1.0,), ())), (0.3, z), (0.4567, z)]
        est = estimate_dirichlet_nodes(coeffs_sing_half, gdata, nodes, t1, BOX04, c)[1]
        plain = simulate_bundle(coeffs_sing_half, z, BOX04, replace(c, horizon=0.3 - t1))
        stop_state, stop_time = plain.stop_states()
        samples = gdata(0.3 - stop_time, stop_state)
        assert plain.exited.any()
        assert est.value.hex() == float(samples.mean()).hex()
        assert est.stderr.hex() == float(samples.std(ddof=1) / math.sqrt(3000)).hex()

    def test_off_grid_node_agrees_with_the_refit_step(self, coeffs_sing_half):
        # pins: the blend of steps 25 and 26 at dt = 0.01 estimates the same
        # quantity as the old refit run of 26 steps of 0.255 / 26
        gdata = BoundaryData(lambda times, states: 1.0 + states[:, 0] + 0.5 * times)
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        z, h = Point((0.7,), ()), 0.255
        est = estimate_dirichlet(coeffs_sing_half, gdata, h, z, 0.0, domain,
                                 cfg(n_paths=100_000, dt=0.01, seed=31))
        refit = cfg(n_paths=100_000, dt=h / 26, seed=32, horizon=h)
        bundle = simulate_bundle(coeffs_sing_half, z, domain, refit)
        stop_state, stop_time = bundle.stop_states()
        m, se = mean_se(gdata(h - stop_time, stop_state))
        assert 0.1 < bundle.exited.mean() < 0.9
        assert abs(est.value - m) <= 3.0 * math.hypot(est.stderr, se)

    def test_every_bundle_steps_on_the_given_dt(self, coeffs_sing_half, monkeypatch):
        # pins: no estimator rewrites dt, and the nodes of one call share one bundle
        import kimura_lab.feynman_kac as fk

        runs = []
        simulate = fk.simulate_bundle

        def recording(coeffs, z0, domain, config, **kwargs):
            runs.append(config)
            return simulate(coeffs, z0, domain, config, **kwargs)

        monkeypatch.setattr(fk, "simulate_bundle", recording)
        c = cfg(n_paths=200, dt=0.01)
        gdata = BoundaryData(lambda times, states: np.ones(states.shape[0]))
        z = [Point((x,), ()) for x in (0.5, 2.0)]
        nodes = [(0.333, z[0]), (0.25, z[1]), (0.4, z[0]), (0.1, z[1])]
        ests = estimate_dirichlet_nodes(coeffs_sing_half, gdata, nodes, 0.1, BOX04, c)
        assert [e.value for e in ests] == [1.0] * 4
        assert len(runs) == 1 and runs[0].horizon == pytest.approx(0.3)
        gsrc = lambda t, s: np.ones(len(s))
        est = estimate_inhomogeneous(coeffs_sing_half, None, gsrc, 0.3333, ORIGIN, FULL1, c)
        # the blend interpolates the integral's upper limit
        assert est.value == pytest.approx(0.3333, rel=1e-12)
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        assert exp_moment_diagnostic(pair.std, pair, ORIGIN, 0.1234, c).value == 1.0
        assert len(runs) == 3
        assert all(run.dt == c.dt for run in runs)


    def test_fingerprint_names_the_estimated_time(self, coeffs_sing_half):
        # pins: two times in one grid bracket share a bundle, yet they are
        # two estimates with two fingerprints
        c = cfg(n_paths=100)
        f = lambda s: s[:, 0]
        z = Point((1.0,), ())
        a, b = (estimate_semigroup(coeffs_sing_half, f, t, z, BOX04, c) for t in (0.2033, 0.2039))
        assert a.value != b.value and a.fingerprint != b.fingerprint
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        a, b = (exp_moment_diagnostic(pair.std, pair, z, t, c) for t in (0.2033, 0.2039))
        assert a.fingerprint != b.fingerprint


class TestBatchedNodeReads:
    """The reads of :func:`estimate_dirichlet_nodes`, once per distinct node
    time and run of consecutive starts, against the per-node chain they
    replace: the node's start slice, its stop states at each bracketing
    step, ``gdata``, the blend and the slice's mean and standard error."""

    @staticmethod
    def _bundle_and_estimates(monkeypatch, *args, **kwargs):
        import kimura_lab.feynman_kac as fk

        runs = []
        simulate = fk.simulate_bundle

        def recording(coeffs, z0, domain, config, **kw):
            runs.append((z0, config, simulate(coeffs, z0, domain, config, **kw)))
            return runs[-1][2]

        monkeypatch.setattr(fk, "simulate_bundle", recording)
        ests = estimate_dirichlet_nodes(*args, **kwargs)
        assert len(runs) == 1
        return runs[0], ests

    @staticmethod
    def _per_node(run, gdata, nodes, t1, t_cut, weighted):
        """``(value, stderr, n_effective)`` of each node in hex, by the
        per-node chain."""
        points, config, bundle = run
        parts = bundle.per_start()
        keys = [tuple(z.vector) for z in points]
        out = []
        for t, z0 in nodes:
            part = parts[keys.index(tuple(z0.vector))]

            def read(k, t=t, part=part):
                stop_state, stop_time = part.stop_states(k * config.dt)
                payoff = gdata(t - stop_time, stop_state)
                if t_cut is not None:
                    payoff = payoff * (stop_time < t_cut - t1)
                if not weighted:
                    return payoff
                w = weights_from_log(part.log_weights[:, part.record_index(k * config.dt)])
                return np.stack((w * payoff, w))

            h = t - t1
            k = math.floor(h / config.dt + 1e-9)
            lam = h / config.dt - k
            vals = read(k)
            if abs(lam) > 1e-9:
                vals = vals + lam * (read(k + 1) - vals)
            samples, w = (vals, None) if not weighted else (vals[0], vals[1])
            n = samples.shape[0]
            value = float(samples.mean())
            stderr = float(samples.std(ddof=1) / math.sqrt(n))
            ess = float(n) if w is None else float(np.sum(w)) ** 2 / float(np.sum(w * w))
            out.append((value.hex(), stderr.hex(), ess.hex()))
        return out

    @pytest.mark.parametrize("n_paths", [7, 1000, 9000])
    @pytest.mark.parametrize("t_cut", [None, 0.27])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "theta"])
    def test_reads_match_the_per_node_chain(self, monkeypatch, n_paths, t_cut, weighted):
        pair = make_girsanov_field(make_std_1d(b0=1.0, slope=0.2),
                                   make_sing_1d(b0=1.0, slope=0.2))
        calls = []

        def g(times, states):
            calls.append(len(times))
            return 1.0 + 0.25 * states[:, 0] + 0.1 * times

        gdata = BoundaryData(g)
        t1 = 0.1
        z = [Point((x,), ()) for x in (0.5, 2.0, 3.9)]
        # grid-aligned (0.2, 0.25, 0.3) and off-grid (0.2234) times; 0.2 is
        # shared by the consecutive starts 0 and 1 (z[0], z[2]), 0.3 by the
        # starts 0 and 2; a duplicate node; t == t1
        nodes = [(0.2, z[0]), (0.2, z[2]), (0.2234, z[1]), (0.25, z[2]), (t1, z[1]),
                 (0.3, z[0]), (0.2, z[0]), (0.3, z[1])]
        c = cfg(n_paths=n_paths, dt=0.01, seed=13)
        run, ests = self._bundle_and_estimates(
            monkeypatch, pair.sing, gdata, nodes, t1, BOX04, c, t_cut=t_cut,
            theta=pair if weighted else None,
        )
        assert run[2].exited.any()
        # one call per distinct time, run of consecutive starts (of at most
        # READ_PATHS paths) and bracketing step, and one for t == t1
        runs_at_02 = 1 if 2 * n_paths <= READ_PATHS else 2
        assert len(calls) == runs_at_02 + 2 + 1 + 1 + 2
        bundle_nodes = [node for node in nodes if node[0] > t1]
        got = [(e.value.hex(), e.stderr.hex(), e.n_effective.hex())
               for e, node in zip(ests, nodes) if node[0] > t1]
        assert got == self._per_node(run, gdata, bundle_nodes, t1, t_cut, weighted)
        assert ests[0] == ests[6]

    def test_gdata_reads_only_the_starts_with_a_node_at_its_time(self):
        # the data is undefined far out at late stop times: never read there
        # for the start near 0, always for the start near the exit face
        def g(times, states):
            return np.where((states[:, 0] > 2.0) & (times > 0.015), np.nan, 1.0)

        gdata = BoundaryData(g)
        near, far = Point((0.5,), ()), Point((3.9,), ())
        c = cfg(n_paths=500, dt=0.01, seed=3)
        coeffs = build_sde_coefficients(make_sing_1d(0.5))
        ests = estimate_dirichlet_nodes(coeffs, gdata, [(0.1, near), (0.02, far)], 0.0, BOX04, c)
        assert [e.value for e in ests] == [1.0, 1.0]
        with pytest.raises(BoundaryDataGapError):
            estimate_dirichlet_nodes(coeffs, gdata, [(0.1, near), (0.1, far)], 0.0, BOX04, c)


class TestInhomogeneous:
    def test_zero_source_reduces_to_semigroup(self, coeffs_sing_half):
        c = cfg(n_paths=4_000)
        f = lambda s: np.exp(-s[:, 0])
        a = estimate_semigroup(coeffs_sing_half, f, 0.5, Point((0.5,), ()), BOX04, c)
        b = estimate_inhomogeneous(coeffs_sing_half, f, None, 0.5,
                                   Point((0.5,), ()), BOX04, c)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_unit_source_full_space_gives_time(self, coeffs_sing_half):
        gsrc = lambda t, s: np.ones(len(s))
        est = estimate_inhomogeneous(coeffs_sing_half, None, gsrc, 0.7, ORIGIN,
                                     FULL1, cfg(n_paths=500))
        assert est.value == pytest.approx(0.7, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-13)

    def test_unit_source_bounded_domain_is_mean_stopped_time(self, coeffs_sing_half):
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        c = cfg(n_paths=4_000, horizon=0.5)
        gsrc = lambda t, s: np.ones(len(s))
        est = estimate_inhomogeneous(coeffs_sing_half, None, gsrc, 0.5,
                                     Point((0.8,), ()), domain, c)
        from dataclasses import replace

        bundle = simulate_bundle(
            coeffs_sing_half, Point((0.8,), ()), domain,
            replace(c, horizon=0.5, record=(0.0, 0.5)),
        )
        direct = np.minimum(bundle.tau, 0.5).mean()
        assert est.value == pytest.approx(float(direct), rel=1e-12)


    def test_source_is_evaluated_once_per_grid_node(self, coeffs_sing_half):
        rows = []

        def integrand(r, states):
            rows.append(len(states))
            return np.exp(-states[:, 0])

        obs = RunningIntegralObserver(integrand, snapshot_times=[0.1])
        c = cfg(n_paths=300, dt=0.01, horizon=0.1, record="all")
        bundle = simulate_bundle(coeffs_sing_half, Point((0.5,), ()), FULL1, c,
                                 observers=(obs,))
        assert sum(rows) == 300 * 11
        # the trapezoid sum over the recorded nodes, in the observer's order
        direct = np.zeros(300)
        for k in range(1, 11):
            g0, g1 = np.exp(-bundle.states[:, k - 1, 0]), np.exp(-bundle.states[:, k, 0])
            direct += 0.5 * 0.01 * (g0 + g1)
        assert obs.snapshots[0.1].tobytes() == direct.tobytes()


class TestProbabilisticSolution:
    def test_zero_theta_reduces_to_dirichlet(self):
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        gdata = BoundaryData(lambda t, s: 1.0 + 0.3 * s[:, 0])
        c = cfg(n_paths=4_000, horizon=0.5)
        z = Point((1.0,), ())
        a = estimate_probabilistic_solution(
            pair.sing, gdata, 0.5, z, (0.0, 1.0, BOX04), pair, c
        )
        b = estimate_dirichlet(pair.sing, gdata, 0.5, z, 0.0, BOX04, c)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_unit_data_gives_weight_martingale(self):
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        gdata = BoundaryData(lambda t, s: np.ones(len(s)))
        est = estimate_probabilistic_solution(
            pair.sing, gdata, 1.0, Point((1.0,), ()), (0.0, 1.0, BOX04), pair,
            cfg(n_paths=40_000),
        )
        assert abs(est.value - 1.0) <= 3.0 * est.stderr
        assert est.n_effective > 100

    def test_weight_blowup_raises(self):
        slope = 400.0
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=slope), make_sing_1d(b0=1.0, slope=slope)
        )
        gdata = BoundaryData(lambda t, s: np.ones(len(s)))
        with pytest.raises(WeightBlowupError):
            estimate_probabilistic_solution(
                pair.sing, gdata, 1.0, Point((1.0,), ()),
                (0.0, 1.0, DomainSpec.box(DIMS1, [(0.0, 50.0)])), pair,
                cfg(n_paths=400),
            )


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 700.5])
    def test_weight_check_rejects_nonfinite_and_capped_log_weights(self, bad):
        logw = np.array([0.0, -0.2, bad])
        with pytest.raises(WeightBlowupError):
            weights_from_log(logw)
        assert issubclass(WeightBlowupError, NumericFailureError)
        assert weights_from_log(logw[:2]).tolist() == np.exp(logw[:2]).tolist()


class TestExpMoment:
    def test_zero_theta_is_exactly_one(self):
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        est = exp_moment_diagnostic(pair.std, pair, ORIGIN, 0.5,
                                    cfg(n_paths=1_000))
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_affine_weight_moment_is_finite(self):
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        est = exp_moment_diagnostic(pair.std, pair, ORIGIN, 1.0,
                                    cfg(n_paths=20_000))
        assert np.isfinite(est.value)
        assert est.value >= 1.0
        assert "max_over_mean" in est.extra


class TestMartingaleResidual:
    def test_residual_small_for_interior_bump(self):
        op = make_sing_1d(b0=1.0)
        coeffs = build_sde_coefficients(op)
        phi = SmoothBump([1.5], [1.2])
        ests = martingale_residual(
            op, coeffs, phi, Point((1.5,), ()), BOX04,
            (0.0, 0.25, 0.5), cfg(n_paths=30_000, dt=2e-3, horizon=0.5),
        )
        assert ests[0].value == 0.0
        for est in ests[1:]:
            assert abs(est.value) <= 3.0 * est.stderr + 1.0 * 2e-3

    def test_support_outside_domain_rejected(self):
        op = make_sing_1d(b0=1.0)
        coeffs = build_sde_coefficients(op)
        phi = SmoothBump([3.5], [1.0])  # support reaches 4.5 > 4
        with pytest.raises(InvalidTestFunctionError):
            martingale_residual(
                op, coeffs, phi, Point((3.5,), ()), BOX04, (0.0, 0.1),
                cfg(n_paths=100, horizon=0.1),
            )

    def test_missing_support_rejected(self):
        from kimura_lab.fields import TestFunction

        op = make_sing_1d(b0=1.0)
        coeffs = build_sde_coefficients(op)
        phi = TestFunction(
            fn=lambda s: np.ones(s.shape[:-1]),
            grad=lambda s: np.zeros_like(s),
            hess=lambda s: np.zeros(s.shape + (1,)),
        )
        with pytest.raises(InvalidTestFunctionError):
            martingale_residual(
                op, coeffs, phi, Point((1.0,), ()), BOX04, (0.0, 0.1),
                cfg(n_paths=100, horizon=0.1),
            )


def test_estimate_json_record(coeffs_sing_half):
    est = estimate_semigroup(coeffs_sing_half, ONE, 0.25, ORIGIN, FULL1,
                             cfg(n_paths=500))
    doc = est.to_json(seed=51)
    assert set(doc) >= {"value", "stderr", "n_paths", "n_effective", "config_hash", "seed"}


class TestMoreInvariants:
    def test_semigroup_linear_in_payoff(self, coeffs_sing_half):
        domain = DomainSpec.box(DIMS1, [(0.0, 2.0)])
        c = cfg(n_paths=4_000)
        z = Point((0.5,), ())
        f = lambda s: s[:, 0]
        g = lambda s: np.exp(-s[:, 0])
        combo = lambda s: 2.0 * s[:, 0] - 3.0 * np.exp(-s[:, 0])
        a = estimate_semigroup(coeffs_sing_half, f, 0.5, z, domain, c)
        b = estimate_semigroup(coeffs_sing_half, g, 0.5, z, domain, c)
        ab = estimate_semigroup(coeffs_sing_half, combo, 0.5, z, domain, c)
        assert ab.value == pytest.approx(2.0 * a.value - 3.0 * b.value, rel=1e-12)

    def test_boundary_started_first_moment(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        est = estimate_semigroup(
            coeffs, lambda s: s[:, 0], 1.0, ORIGIN, FULL1,
            cfg(n_paths=20_000, dt=1e-3, seed=55, scheme="exact-1d-gamma"),
        )
        assert abs(est.value - 0.5) <= 3.0 * est.stderr

    def test_exp_moment_stable_under_path_doubling(self):
        # at T = 0.5 the tail is light enough for the doubling protocol;
        # at T = 1 the estimator is honestly heavy-tailed, which the
        # max/mean indicator is there to flag
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        z = Point((1.0,), ())
        small = exp_moment_diagnostic(pair.std, pair, z, 0.5,
                                      cfg(n_paths=100_000, seed=56, horizon=0.5))
        big = exp_moment_diagnostic(pair.std, pair, z, 0.5,
                                    cfg(n_paths=200_000, seed=56, horizon=0.5))
        assert np.isfinite(small.value) and np.isfinite(big.value)
        assert abs(big.value - small.value) <= 0.10 * small.value
        heavy = exp_moment_diagnostic(pair.std, pair, z, 1.0,
                                      cfg(n_paths=50_000, seed=58))
        assert heavy.extra["max_over_mean"] > 100.0


def test_exp_moment_overflow_reported_as_flag():
    slope = 400.0
    pair = make_girsanov_field(
        make_std_1d(b0=1.0, slope=slope), make_sing_1d(b0=1.0, slope=slope)
    )
    est = exp_moment_diagnostic(
        pair.std, pair, Point((1.0,), ()), 0.5, cfg(n_paths=300, horizon=0.5)
    )
    assert est.flag == "overflow"
    assert math.isinf(est.value)
    assert not est.trusted
