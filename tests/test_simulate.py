import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import advance, make_sing_1d, make_std_1d, mean_se

from kimura_lab import simulate
from kimura_lab.calls import Calls
from kimura_lab.errors import InvalidStartError, NumericFailureError
from kimura_lab.feynman_kac import estimate_inhomogeneous
from kimura_lab.fields import CallableField, FieldMatrix, FieldVector
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims
from kimura_lab.operators import (
    SingularOperatorSpec,
    derive_singular_from_standard,
    operator_from_json,
)
from kimura_lab.oracle import Besq1dModel, besq_mean, besq_transition_mass
from kimura_lab.sde import (
    build_sde_coefficients,
    build_standard_sde_coefficients,
    make_girsanov_field,
)
from kimura_lab.simulate import (
    PACK_ROWS,
    RNG_BLOCK,
    PathConfig,
    bundle_to_csv,
    bundle_to_kimb,
    grid_bracket,
    grid_steps,
    read_kimb,
    _ExactGammaParams,
    _block_rng,
    simulate_bundle,
)

DIMS1 = StateSpaceDims(1, 0)
FULL1 = DomainSpec.full_space(DIMS1)
ORIGIN = Point((0.0,), ())


def frozen_model():
    """Degenerate model with zero drift and zero diffusion."""
    return SingularOperatorSpec(
        dims=DIMS1,
        a_diag=FieldVector([0.0]),
        a_tilde=FieldMatrix.zeros(1, 1),
        b=FieldVector([0.0]),
        c=FieldMatrix.zeros(1, 0),
        d=FieldMatrix.zeros(0, 0),
    )


def one_step(coeffs, x: float, xi: float, dt: float = 0.01) -> float:
    """One projected-Euler step of a 1D path: a one-row block step."""
    cfg = PathConfig(dt=dt, seed=0, n_paths=1, horizon=dt)
    new, _ = advance(coeffs, None, cfg, np.array([[x]]), np.array([[xi]]))
    return float(new[0, 0])


class TestSingleStep:
    def test_zero_drift_zero_noise_is_identity(self):
        coeffs = build_sde_coefficients(frozen_model())
        assert one_step(coeffs, 0.4, 1.7) == 0.4

    def test_boundary_drift_pushes_inward(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=1.0))
        # diffusion vanishes at x = 0, so the step is purely the drift
        assert one_step(coeffs, 0.0, 5.0) == pytest.approx(0.01)
        assert one_step(coeffs, 0.0, -5.0) == pytest.approx(0.01)

    def test_projection_keeps_state_nonnegative(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        assert one_step(coeffs, 0.01, -10.0) == 0.0

    @pytest.mark.parametrize("scheme", ["euler-projected"])
    def test_single_step_is_the_block_step_row(self, scheme):
        std_op = make_std_1d(b0=1.0, slope=0.2, a_hat=0.3)  # state-dependent sigma
        cases = [
            build_sde_coefficients(derive_singular_from_standard(std_op)),
            build_sde_coefficients(make_sing_1d(b0=0.5)),
            build_standard_sde_coefficients(std_op),
        ]
        states = np.array([[0.0], [1e-14], [0.4], [2.5], [6.0]])
        xi = np.array([[0.8], [-1.1], [-2.4], [0.3], [1.7]])
        cfg = PathConfig(dt=1e-2, seed=0, n_paths=5, horizon=1.0, scheme=scheme)
        for coeffs in cases:
            block, _ = advance(coeffs, None, cfg, states, xi)
            for row in range(len(states)):
                one, _ = advance(coeffs, None, cfg, states[row:row + 1], xi[row:row + 1])
                assert one[0].tobytes() == block[row].tobytes()


class TestBundles:
    def test_drift_mean_matches_oracle(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=1.0))
        cfg = PathConfig(dt=1e-3, seed=5, n_paths=100_000, horizon=0.5,
                         record=(0.0, 0.5))
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        mean, se = mean_se(bundle.states_at(0.5)[:, 0])
        assert abs(mean - besq_mean(Besq1dModel(1.0), 0.5)) <= 3.0 * se

    def test_nonnegativity_everywhere(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=5e-3, seed=9, n_paths=2_000, horizon=0.5, record="all")
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        assert float(bundle.states.min()) >= 0.0

    def test_reproducible_and_thread_independent(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=5e-3, seed=123, n_paths=9_000, horizon=0.2,
                         record=(0.0, 0.2))
        a = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        b = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        c = simulate_bundle(coeffs, ORIGIN, FULL1, cfg, n_threads=4)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.states.tobytes() == c.states.tobytes()
        assert np.array_equal(a.tau, c.tau)

    def test_full_space_never_exits(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=5e-3, seed=3, n_paths=500, horizon=0.25)
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        assert not bundle.exited.any()
        assert np.all(bundle.tau == 0.25)

    def test_drift_dominated_exit(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=100.0))
        domain = DomainSpec.box(DIMS1, [(0.0, 2.0)])
        cfg = PathConfig(dt=1e-4, seed=4, n_paths=2_000, horizon=1.0,
                         record=(0.0, 1.0))
        bundle = simulate_bundle(coeffs, Point((1.0,), ()), domain, cfg)
        assert bundle.exited.mean() > 0.999
        assert bundle.tau.mean() < 0.05

    def test_frozen_after_exit(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=20.0))
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        cfg = PathConfig(dt=2e-3, seed=6, n_paths=300, horizon=0.5, record="all")
        bundle = simulate_bundle(coeffs, Point((0.5,), ()), domain, cfg)
        assert bundle.exited.all()
        for i in range(0, 300, 37):
            k = bundle.record_index(bundle.tau[i])
            tail = bundle.states[i, k:, 0]
            assert np.all(tail == tail[0])
            assert tail[0] >= 1.0  # frozen at the first outside point
            assert bundle.exit_state[i, 0] == tail[0]

    def test_invalid_start_rejected(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        with pytest.raises(InvalidStartError):
            simulate_bundle(
                coeffs, Point((1.5,), ()), domain,
                PathConfig(dt=1e-2, seed=1, n_paths=10, horizon=0.1),
            )

    def test_numeric_failure_reported_with_step(self):
        dims = DIMS1
        bad = SingularOperatorSpec(
            dims=dims,
            a_diag=FieldVector([1.0]),
            a_tilde=FieldMatrix.zeros(1, 1),
            b=FieldVector([CallableField(lambda s: np.full(s.shape[:-1], np.nan))]),
            c=FieldMatrix.zeros(1, 0),
            d=FieldMatrix.zeros(0, 0),
        )
        coeffs = build_sde_coefficients(bad)
        with pytest.raises(NumericFailureError, match="step"):
            simulate_bundle(
                coeffs, ORIGIN, FULL1,
                PathConfig(dt=1e-2, seed=1, n_paths=8, horizon=0.1),
            )

    def test_horizon_must_be_grid_multiple(self):
        with pytest.raises(ValueError):
            PathConfig(dt=3e-3, seed=1, n_paths=10, horizon=0.01).n_steps

    def test_auto_record_budget_counts_every_start(self, monkeypatch):
        # one start records 10 paths * 6 times * 1 coordinate = 60 floats
        monkeypatch.setattr("kimura_lab.simulate._AUTO_RECORD_BUDGET", 100)
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=0.1, seed=1, n_paths=10, horizon=0.5)
        one = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        three = simulate_bundle(coeffs, [ORIGIN] * 3, FULL1, cfg)
        assert one.record_times.tolist() == cfg.grid().tolist()
        assert three.record_times.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("offset, ok", [(3e-9, True), (1e-7, False)])
    def test_horizon_and_record_time_share_one_grid_test(self, offset, ok):
        # the same time off the dt = 0.1 grid by the same amount, once as a
        # horizon and once as a record time
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        t = 5.0 + offset
        kwargs = [dict(horizon=t, record="ends"), dict(horizon=5.0, record=(0.0, t))]
        for kw in kwargs:
            if ok:
                cfg = PathConfig(dt=0.1, seed=1, n_paths=4, **kw)
                assert simulate_bundle(coeffs, ORIGIN, FULL1, cfg).n_paths == 4
            else:
                with pytest.raises(ValueError, match="not a multiple of dt"):
                    PathConfig(dt=0.1, seed=1, n_paths=4, **kw)

    @pytest.mark.parametrize("t, dt, k, lam", [
        (0.3, 0.1, 3, 0.0),
        (5.0 + 3e-9, 0.1, 50, 0.0),
        (0.255, 0.01, 25, 0.5),
        (0.0005, 0.001, 0, 0.5),
    ])
    def test_grid_bracket_splits_a_time_into_step_and_fraction(self, t, dt, k, lam):
        # pins: the one off-grid rule, and grid_steps as its lam = 0 case
        got_k, got_lam = grid_bracket(t, dt)
        assert got_k == k and got_lam == pytest.approx(lam, abs=1e-9)
        if lam:
            with pytest.raises(ValueError, match="not a multiple of dt"):
                grid_steps(t, dt)
        else:
            assert got_lam == 0.0 and grid_steps(t, dt) == k

    def test_record_times_validated(self):
        with pytest.raises(ValueError):
            PathConfig(dt=1e-2, seed=1, n_paths=10, horizon=0.1, record=(0.0, 0.055))

    @pytest.mark.parametrize("change, message", [
        (dict(seed=-1), "U64"),
        (dict(seed=2**64), "U64"),
        (dict(record=(0.0, 0.5)), "outside"),
        (dict(record="every"), "record must be one of"),
    ])
    def test_config_is_checked_when_built(self, change, message):
        with pytest.raises(ValueError, match=message):
            PathConfig(**{**dict(dt=1e-2, seed=1, n_paths=10, horizon=0.1), **change})


    def test_record_times_on_one_grid_step_are_recorded_once(self):
        # 0.1 and 0.1 + 1e-13 are both step 10: one column, at the first time
        cfg = PathConfig(dt=0.01, seed=4, n_paths=64, horizon=0.2,
                         record=(0.1, 0.1000000000001, 0.2))
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        start = Point((1.0,), ())
        a, b = (simulate_bundle(coeffs, start, FULL1, cfg) for _ in range(2))
        assert a.record_times.tolist() == [0.1, 0.2]
        assert np.isfinite(a.states).all() and a.states.tobytes() == b.states.tobytes()
        assert a.states_at(0.1000000000001).tobytes() == a.states_at(0.1).tobytes()
        every = simulate_bundle(coeffs, start, FULL1, replace(cfg, record="all"))
        assert a.states_at(0.1).tobytes() == every.states_at(0.1).tobytes()


class TestWeights:
    def test_zero_theta_gives_zero_log_weight(self):
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=5e-3, seed=8, n_paths=400, horizon=0.2, record="all")
        bundle = simulate_bundle(
            pair.sing, ORIGIN, FULL1, cfg, theta=pair
        )
        assert np.all(bundle.log_weights == 0.0)

    def test_field_weights_only_its_own_paths(self):
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=5e-3, seed=8, n_paths=16, horizon=0.02)
        with pytest.raises(ValueError):
            simulate_bundle(pair.std, ORIGIN, FULL1, cfg, theta=pair)
        other = build_sde_coefficients(make_sing_1d(b0=0.5))
        with pytest.raises(ValueError):
            simulate_bundle(other, ORIGIN, FULL1, cfg, theta=pair)

    def test_weight_is_martingale(self):
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        cfg = PathConfig(
            dt=2e-3, seed=10, n_paths=40_000, horizon=0.5,
            record=(0.0, 0.1, 0.25, 0.5),
        )
        bundle = simulate_bundle(pair.sing, ORIGIN, FULL1, cfg, theta=pair)
        for t in (0.1, 0.25, 0.5):
            w = np.exp(bundle.log_weights[:, bundle.record_index(t)])
            mean, se = mean_se(w)
            assert abs(mean - 1.0) <= 3.0 * se


class TestWeakOrder:
    def test_error_decreases_under_dt_halving(self):
        b0 = 0.5
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=b0))
        t = 1.0
        # frozen oracle values for the boundary-started model
        targets = {
            "identity": b0 * t,
            "square": b0 * (b0 + 1.0) * t * t,
            "exp-neg": (1.0 + t) ** (-b0),
        }
        fns = {
            "identity": lambda x: x,
            "square": lambda x: x**2,
            "exp-neg": lambda x: np.exp(-x),
        }
        errs = {}
        for dt in (0.02, 0.01):
            cfg = PathConfig(dt=dt, seed=21, n_paths=400_000, horizon=t,
                             record=(0.0, t))
            bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
            x = bundle.states_at(t)[:, 0]
            errs[dt] = {k: abs(float(f(x).mean()) - targets[k]) for k, f in fns.items()}
        for k in fns:
            assert errs[0.01][k] < errs[0.02][k]


class TestSchemes:
    def test_exact_scheme_matches_transition_law(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=0.25, seed=32, n_paths=100_000, horizon=1.0,
                         scheme="exact-1d-gamma", record=(0.0, 1.0))
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        x = bundle.states_at(1.0)[:, 0]
        mean, se = mean_se(x)
        assert abs(mean - 0.5) <= 3.0 * se
        var = float(x.var(ddof=1))
        # Var = b0 t^2 for the boundary-started law
        assert abs(var - 0.5) < 0.02

    def test_exact_scheme_rejects_nonconstant_model(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=1.0, slope=0.2))
        cfg = PathConfig(dt=0.1, seed=1, n_paths=10, horizon=0.1,
                         scheme="exact-1d-gamma")
        with pytest.raises(ValueError):
            simulate_bundle(coeffs, ORIGIN, FULL1, cfg)

    def test_exact_scheme_rejects_periodic_drift(self):
        # b^ = 0.5 + 0.3 sin(2 pi x / 0.6) takes one value at x = 0.1, 0.7 and
        # 1.9 while ranging over 0.2..0.8: the model is not constant
        b_hat = {"family": "trig", "c0": 0.5, "amplitude": 0.3, "axis": 0,
                 "frequency": 2.0 * math.pi / 0.6}
        std = operator_from_json({"kind": "standard", "dims": {"n": 1, "m": 0},
                                  "b_hat": [b_hat]})
        coeffs = build_standard_sde_coefficients(std)
        probes = np.array([[0.1], [0.7], [1.9]])
        assert np.ptp(coeffs.drift_batch(probes)) < 1e-12
        cfg = PathConfig(dt=0.1, seed=1, n_paths=10, horizon=0.1,
                         scheme="exact-1d-gamma")
        with pytest.raises(ValueError, match="constant coefficients"):
            simulate_bundle(coeffs, ORIGIN, FULL1, cfg)

    def test_exact_scheme_rejects_weights(self):
        pair = make_girsanov_field(make_std_1d(b0=0.5), make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=0.1, seed=1, n_paths=10, horizon=0.1,
                         scheme="exact-1d-gamma")
        with pytest.raises(ValueError):
            simulate_bundle(pair.sing, ORIGIN, FULL1, cfg, theta=pair)


class TestExitTimeBias:
    def test_grid_exit_detection_bias_is_positive_and_shrinks(self):
        # the b0 = 1/2 model with absorption at 4 maps exactly onto Brownian
        # motion absorbed at |y| = 2 via x = y^2, run at half speed; the
        # eigenexpansion of that problem is an exact oracle, so the surplus
        # of the path estimate over it isolates the grid-crossing exit bias
        from scipy.integrate import quad

        from kimura_lab.feynman_kac import BoundaryData, estimate_dirichlet

        b0, t, x_probe = 0.5, 0.3, 3.0
        payoff = lambda xx: xx * (4.0 - xx) / 4.0
        half_time = t / 2.0
        y0 = math.sqrt(x_probe)
        exact = 0.0
        for k in range(1, 200):
            lam = 0.5 * (k * math.pi / 4.0) ** 2
            phi = lambda y: math.sin(k * math.pi * (y + 2.0) / 4.0)
            ck, _ = quad(lambda y: payoff(y * y) * phi(y), -2.0, 2.0, limit=200)
            exact += (2.0 / 4.0) * ck * math.exp(-lam * half_time) * phi(y0)

        coeffs = build_sde_coefficients(make_sing_1d(b0=b0))
        domain = DomainSpec.box(DIMS1, [(0.0, 4.0)])
        gdata = BoundaryData(
            lambda times, states: np.where(
                states[:, 0] >= 4.0 - 1e-9, 0.0, payoff(states[:, 0])
            )
        )
        biases = {}
        for dt in (2e-3, 2.5e-4):
            cfg = PathConfig(dt=dt, seed=189, n_paths=40_000, horizon=t)
            est = estimate_dirichlet(coeffs, gdata, t, Point((x_probe,), ()),
                                     0.0, domain, cfg)
            biases[dt] = est.value - exact
        # late detection keeps paths alive, so the bias is positive, and it
        # shrinks with the step (no fixed order asserted)
        assert biases[2e-3] > 0.0
        assert biases[2.5e-4] > 0.0
        assert biases[2.5e-4] < biases[2e-3]


class TestExports:
    def test_kimb_roundtrip(self, tmp_path):
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=0.1), make_sing_1d(b0=1.0, slope=0.1)
        )
        cfg = PathConfig(dt=1e-2, seed=77, n_paths=64, horizon=0.1, record="all")
        bundle = simulate_bundle(pair.sing, ORIGIN, FULL1, cfg, theta=pair)
        path = tmp_path / "bundle.kimb"
        bundle_to_kimb(bundle, str(path), DIMS1)
        back = read_kimb(str(path))
        assert back["dims"] == DIMS1
        assert np.array_equal(back["states"], bundle.states)
        assert np.array_equal(back["tau"], bundle.tau)
        assert np.array_equal(back["log_weights"], bundle.log_weights)

    def test_csv_layout(self, tmp_path):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=5e-2, seed=7, n_paths=3, horizon=0.1, record="all")
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        path = tmp_path / "paths.csv"
        bundle_to_csv(bundle, str(path), dims=DIMS1)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path,step,t,x0,exited,log_weight"
        assert len(lines) == 1 + 3 * 3
        assert not bundle.exited.any()
        assert [line.split(",")[4] for line in lines[1:]] == ["0"] * 9

    def test_csv_exited_column_marks_rows_from_the_exit_on(self, tmp_path):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=20.0))
        domain = DomainSpec.box(DIMS1, [(0.0, 1.0)])
        cfg = PathConfig(dt=2e-3, seed=6, n_paths=40, horizon=0.5, record="all")
        bundle = simulate_bundle(coeffs, Point((0.5,), ()), domain, cfg)
        path = tmp_path / "paths.csv"
        bundle_to_csv(bundle, str(path), dims=DIMS1)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        n_rec = len(bundle.record_times)
        assert bundle.exited.all()
        for i in range(bundle.n_paths):
            flags = [int(r[4]) for r in rows[i * n_rec:(i + 1) * n_rec]]
            k = bundle.record_index(bundle.tau[i])
            assert flags == [0] * k + [1] * (n_rec - k)


class TestStreamsAndIncrements:
    def test_rng_stream_ids_are_block_column_triples(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=99, n_paths=5000, horizon=0.1)
        bundle = simulate_bundle(coeffs, ORIGIN, FULL1, cfg)
        assert bundle.rng_stream_id(0) == (99, 0, 0)
        assert bundle.rng_stream_id(4097) == (99, 1, 1)
        with pytest.raises(IndexError):
            bundle.rng_stream_id(5000)

    def test_stored_increments_reproduce_path(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=13, n_paths=32, horizon=0.1, record="all")
        bundle = simulate_bundle(coeffs, Point((0.5,), ()), FULL1, cfg)
        # replay the projected update of path 3 from its block's Philox normals
        rng = _block_rng(13, 0)
        x = 0.5
        sigma = math.sqrt(2.0)
        for k in range(10):
            dw = math.sqrt(1e-2) * rng.standard_normal((32, 1))[3, 0]
            x = max(x + 0.5 * 1e-2 + math.sqrt(x) * sigma * dw, 0.0)
            assert bundle.states[3, k + 1, 0] == pytest.approx(x, rel=1e-12)


# ---------------------------------------------------------------------------
# Several start points in one bundle
# ---------------------------------------------------------------------------

BOX04 = DomainSpec.box(DIMS1, [(0.0, 4.0)])
# the last start repeats the second; 3.9 exits the box early and often
STARTS_1D = [Point((x,), ()) for x in (0.0, 1.0, 2.0, 3.5, 3.9, 1.0)]

COUPLED_N1M1 = {
    "kind": "standard", "dims": {"n": 1, "m": 1},
    "a_hat": [[0.2]],
    "b_hat": [{"family": "affine", "c0": 0.9, "coeffs": [0.1, -0.05]}],
    "c_hat": [[{"family": "affine", "c0": 0.5, "coeffs": [0.0, 0.2]}]],
    "d_hat": [[1.2]],
    "e_hat": [{"family": "trig", "c0": 0.1, "amplitude": 0.3, "axis": 1, "frequency": 1.5}],
}

FREE_M2 = {
    "kind": "standard", "dims": {"n": 0, "m": 2},
    "d_hat": [[1.0, 0.5], [0.5, 1.0]],
    "e_hat": [0.1, -0.2],
}


def make_sing_coupled(gamma=0.3):
    """n=1, m=1 model with a constant cross coupling."""
    return SingularOperatorSpec(
        dims=StateSpaceDims(1, 1),
        a_diag=FieldVector([1.0]),
        a_tilde=FieldMatrix.zeros(1, 1),
        b=FieldVector([1.0]),
        c=FieldMatrix([[gamma]]),
        d=FieldMatrix([[1.0]]),
    )


def assert_same_bundle(a, b):
    assert a.config == b.config and a.fingerprint == b.fingerprint
    for name in ("record_times", "states", "tau", "exited", "exit_state", "log_weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def assert_packed_matches_alone(coeffs, starts, domain, config, theta=None, n_threads=1):
    bundle = simulate_bundle(coeffs, starts, domain, config, theta=theta, n_threads=n_threads)
    assert bundle.n_starts == len(starts)
    assert bundle.n_paths == len(starts) * config.n_paths
    parts = bundle.per_start()
    for z0, part in zip(starts, parts):
        alone = simulate_bundle(coeffs, z0, domain, config, theta=theta, n_threads=n_threads)
        assert_same_bundle(part, alone)
    return parts


class TestPackedStarts:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("n_paths", [512, 5000])  # one block; a full block + a partial one
    def test_harnack_model_with_exits(self, n_paths, n_threads):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=2e-3, seed=42, n_paths=n_paths, horizon=0.3, record=(0.0, 0.1, 0.3))
        parts = assert_packed_matches_alone(coeffs, STARTS_1D, BOX04, cfg, n_threads=n_threads)
        assert parts[4].exited.mean() > 0.5 and 0 < parts[3].exited.sum() < n_paths

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_log_drift_with_increments_and_every_step_recorded(self, n_threads):
        coeffs = build_sde_coefficients(make_sing_1d(b0=1.0, slope=0.3))
        assert coeffs.source.log_drift(np.array([[0.5]]), 1e-12) is not None
        cfg = PathConfig(dt=5e-3, seed=8, n_paths=700, horizon=0.2, record="all")
        assert_packed_matches_alone(coeffs, STARTS_1D, BOX04, cfg, n_threads=n_threads)

    @pytest.mark.parametrize("n_paths", [512, 5000])
    def test_drift_change_weights(self, n_paths):
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=0.2), make_sing_1d(b0=1.0, slope=0.2)
        )
        cfg = PathConfig(dt=5e-3, seed=19, n_paths=n_paths, horizon=0.25)
        parts = assert_packed_matches_alone(pair.sing, STARTS_1D, BOX04, cfg, theta=pair,
                                            n_threads=2)
        assert np.abs(parts[0].log_weights[:, -1]).max() > 0.0

    @pytest.mark.parametrize("model", ["coupled", "n1m1", "n1m1-derived", "free-m2"])
    def test_two_dimensional_models(self, model):
        # state-dependent sigma with affine and trig fields; a constant
        # non-diagonal sigma (free-m2), taken once
        if model == "coupled":
            coeffs = build_sde_coefficients(make_sing_coupled())
        elif model == "free-m2":
            coeffs = build_standard_sde_coefficients(operator_from_json(FREE_M2))
            assert coeffs.plan.sigma is not None and coeffs.plan.sigma_diag is None
        else:
            std = operator_from_json(COUPLED_N1M1)
            coeffs = (build_standard_sde_coefficients(std) if model == "n1m1"
                      else build_sde_coefficients(derive_singular_from_standard(std)))
        dims = coeffs.dims
        domain = DomainSpec.box(dims, [(0.0, 3.0) if i < dims.n else (-2.0, 2.0)
                                       for i in range(dims.total)])
        starts = [Point.from_vector(dims, v) for v in ([0.5, 0.0], [1.9, 1.9], [0.0, -1.0])]
        cfg = PathConfig(dt=5e-3, seed=3, n_paths=1000, horizon=0.2)
        assert_packed_matches_alone(coeffs, starts, domain, cfg, n_threads=2)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "theta"])
    @pytest.mark.parametrize("n_threads", [1, 2])
    # one group; a block split at the row budget into a full group and a partial one
    @pytest.mark.parametrize("n_starts", [6, PACK_ROWS // RNG_BLOCK + 3])
    def test_full_blocks_pack_up_to_the_row_budget(self, n_starts, n_threads, weighted):
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=0.2), make_sing_1d(b0=1.0, slope=0.2)
        )
        starts = [Point((x,), ()) for x in np.linspace(0.0, 3.9, n_starts)]
        cfg = PathConfig(dt=5e-3, seed=5, n_paths=RNG_BLOCK, horizon=0.05)
        parts = assert_packed_matches_alone(pair.sing, starts, BOX04, cfg,
                                            theta=pair if weighted else None,
                                            n_threads=n_threads)
        assert parts[-1].exited.any()

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1], ids=["one-group", "two-groups"])
    def test_every_walk_draws_one_step_of_normals_a_step(self, monkeypatch, extra, n_threads):
        # pins: a group binds one step list, the block's draw among its
        # calls, so each walk draws n_steps arrays of (nb, d), the first
        # n_steps * nb * d normals of its block's stream.  Block 0 is full
        # and packs into 1 + extra groups, block 1 has 100 paths and packs
        # into one.  Paths exit the box.
        walks = record_draws(monkeypatch)
        binds = count_calls(monkeypatch, simulate._Lanes, "bind_step")
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=6, n_paths=RNG_BLOCK + 100, horizon=0.45)
        n_starts = PACK_ROWS // RNG_BLOCK + extra
        starts = [Point((x,), ()) for x in np.linspace(0.0, 3.9, n_starts)]
        bundle = simulate_bundle(coeffs, starts, BOX04, cfg, n_threads=n_threads)
        assert 0 < bundle.exited.mean() < 1
        assert len(walks) == len(binds) == 2 + extra
        assert sorted(block for block, _ in walks) == [0] * (1 + extra) + [1]
        for block, draws in walks:
            nb = (RNG_BLOCK, 100)[block]
            assert [a.shape for a in draws] == [(nb, 1)] * cfg.n_steps
            stream = _block_rng(cfg.seed, block).standard_normal((cfg.n_steps, nb, 1))
            assert np.stack(draws).tobytes() == stream.tobytes()

    def test_more_threads_than_cores_write_disjoint_slots(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        # two full blocks of 18 starts split at the row budget, and one
        # 500-path block: five groups on four threads
        cfg = PathConfig(dt=5e-3, seed=23, n_paths=2 * RNG_BLOCK + 500, horizon=0.1)
        starts = STARTS_1D * 3
        assert len(starts) > PACK_ROWS // RNG_BLOCK
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_packed_matches_alone(coeffs, starts, BOX04, cfg, n_threads=4)
        finally:
            sys.setswitchinterval(interval)

    def test_exact_scheme_starts_run_one_by_one(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=4, n_paths=300, horizon=0.2, scheme="exact-1d-gamma")
        assert_packed_matches_alone(coeffs, STARTS_1D[:3], BOX04, cfg)

    def test_stream_ids_do_not_depend_on_the_start(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=99, n_paths=RNG_BLOCK + 10, horizon=0.02)
        bundle = simulate_bundle(coeffs, STARTS_1D[:2], BOX04, cfg)
        assert bundle.rng_stream_id(RNG_BLOCK + 3) == (99, 1, 3)
        assert bundle.rng_stream_id(cfg.n_paths + 5) == (99, 0, 5)

    def test_invalid_starts_and_observers_are_rejected(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=1, n_paths=8, horizon=0.1)
        with pytest.raises(ValueError):
            simulate_bundle(coeffs, [], BOX04, cfg)
        with pytest.raises(InvalidStartError):
            simulate_bundle(coeffs, [Point((1.0,), ()), Point((5.0,), ())], BOX04, cfg)
        with pytest.raises(ValueError, match="one start"):
            simulate_bundle(coeffs, STARTS_1D[:2], BOX04, cfg, observers=(object(),))
        for n_threads in (0, -2):
            with pytest.raises(ValueError, match="n_threads"):
                simulate_bundle(coeffs, STARTS_1D[:2], BOX04, cfg, n_threads=n_threads)


# ---------------------------------------------------------------------------
# Equations that share a block's normals
# ---------------------------------------------------------------------------

GIRSANOV_MODEL = {  # configs/girsanov_consistency.json
    "kind": "standard", "dims": {"n": 1, "m": 0},
    "b_hat": [{"family": "affine", "c0": 1.0, "coeffs": [0.2]}],
}


def girsanov_pair():
    std_op = operator_from_json(GIRSANOV_MODEL)
    return make_girsanov_field(std_op, derive_singular_from_standard(std_op))


def assert_lanes_match_alone(eqs, starts, domain, config, theta, n_threads=1):
    bundle = simulate_bundle(eqs, starts, domain, config, theta=theta, n_threads=n_threads)
    assert bundle.n_equations == len(eqs)
    assert bundle.n_paths == len(eqs) * bundle.n_starts * config.n_paths
    lanes = bundle.per_equation()
    for eq, lane in zip(eqs, lanes):
        own = theta if eq is theta.sing else None
        alone = simulate_bundle(eq, starts, domain, config, theta=own, n_threads=n_threads)
        assert_same_bundle(lane, alone)
    return lanes


class TestSharedNoiseEquations:
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_each_lane_is_its_equation_alone(self, n_threads):
        # a full block and a partial one; only the divergence side is weighted
        pair = girsanov_pair()
        cfg = PathConfig(dt=5e-3, seed=13, n_paths=RNG_BLOCK + 300, horizon=0.25,
                         record=(0.0, 0.1, 0.25))
        std, sing = assert_lanes_match_alone((pair.std, pair.sing), Point((1.0,), ()),
                                             FULL1, cfg, pair, n_threads=n_threads)
        assert std.log_weights is None and np.abs(sing.log_weights[:, -1]).max() > 0.0
        assert std.states.tobytes() != sing.states.tobytes()

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_lanes_exit_a_box_at_their_own_steps(self, n_threads):
        # packed starts too: rows run by equation, then start, then path
        pair = girsanov_pair()
        cfg = PathConfig(dt=5e-3, seed=17, n_paths=700, horizon=0.3)
        std, sing = assert_lanes_match_alone((pair.std, pair.sing), STARTS_1D[2:5], BOX04,
                                             cfg, pair, n_threads=n_threads)
        assert std.exited.any() and sing.exited.any()
        assert (std.tau != sing.tau).any()

    def test_exact_scheme_and_observers_take_one_equation(self):
        coeffs = exact_coeffs()
        cfg = PathConfig(dt=1e-2, seed=1, n_paths=8, horizon=0.1)
        with pytest.raises(ValueError, match="one equation"):
            simulate_bundle((coeffs, coeffs), ORIGIN, FULL1,
                            replace(cfg, scheme="exact-1d-gamma"))
        with pytest.raises(ValueError, match="one equation"):
            simulate_bundle((coeffs, coeffs), ORIGIN, FULL1, cfg,
                            observers=(NoOpObserver(),))
        bundle = simulate_bundle((coeffs, coeffs), ORIGIN, FULL1, cfg)
        with pytest.raises(ValueError, match="per_equation"):
            bundle.per_start()

    def test_common_draws_shrink_the_stderr_of_the_difference(self):
        # the committed girsanov model: the paired stderr of f_std - w f_sing
        # against the hypot of the two means' stderrs under independent draws
        pair = girsanov_pair()
        cfg = PathConfig(dt=1e-3, seed=7, n_paths=16_384, horizon=1.0, record=(0.0, 1.0))
        std, sing = simulate_bundle((pair.std, pair.sing), Point((1.0,), ()), FULL1, cfg,
                                    theta=pair, n_threads=2).per_equation()
        f_std = np.exp(-std.states_at(1.0)[:, 0])
        f_sing = np.exp(sing.log_weights[:, -1]) * np.exp(-sing.states_at(1.0)[:, 0])
        paired = mean_se(f_std - f_sing)[1]
        independent = math.hypot(mean_se(f_std)[1], mean_se(f_sing)[1])
        assert paired < independent / 5.0


# ---------------------------------------------------------------------------
# Domains with no exit boundary
# ---------------------------------------------------------------------------


class NoOpObserver:
    """Watches every step and records nothing; forces the per-step loop."""

    def prepare(self, n_paths, dims, config):
        pass

    def observe(self, sl, k, t, prev, new, alive, logw=None):
        pass


def record_draws(monkeypatch) -> list:
    """Wrap ``simulate._block_rng`` and return ``[(block, draws)]``, one
    entry a walk of a group: its block and a copy of each array of normals
    it draws, in order."""
    walks = []

    class RecordedRng:
        def __init__(self, seed, block):
            self.rng, self.draws = _block_rng(seed, block), []
            walks.append((block, self.draws))

        def standard_normal(self, size=None, out=None):
            out = self.rng.standard_normal(size, out=out)
            self.draws.append(out.copy())
            return out

    monkeypatch.setattr("kimura_lab.simulate._block_rng", RecordedRng)
    return walks


def exact_coeffs(b0=0.5):
    return build_standard_sde_coefficients(make_std_1d(b0=b0))


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` and return the list of argument tuples it sees."""
    seen, original = [], getattr(owner, name)

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return seen


class TestNoExitBoundary:
    @pytest.mark.parametrize("scheme", ["euler-projected"])
    def test_stepping_skips_the_exit_test_with_equal_bytes(self, scheme):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        cfg = PathConfig(dt=1e-2, seed=12, n_paths=500, horizon=0.3, scheme=scheme,
                         record="all")
        calls = []

        def counted(states):
            calls.append(len(states))
            return FULL1.contains_underline(states)

        watched = replace(FULL1, contains_underline=counted)
        bundle = simulate_bundle(coeffs, Point((0.2,), ()), watched, cfg)
        assert calls == [1]  # the start check only
        # the full test as the exit test: every step runs it, no path leaves
        tested = replace(FULL1, exit_test=FULL1.contains_underline)
        assert_same_bundle(bundle, simulate_bundle(coeffs, Point((0.2,), ()), tested, cfg))

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "theta"])
    @pytest.mark.parametrize("model", [
        {"kind": "standard", "dims": {"n": 1, "m": 0},
         "b_hat": [{"family": "affine", "c0": 1.0, "coeffs": [0.2]}]},
        {"kind": "standard", "dims": {"n": 1, "m": 1},
         "b_hat": [{"family": "affine", "c0": 0.8, "coeffs": [0.3, 0.0]}], "e_hat": [0.1]},
    ], ids=["1d", "n1m1"])
    def test_full_space_skips_the_freeze_with_the_bytes_of_a_box_no_path_leaves(
        self, model, weighted
    ):
        # pins: with no exit boundary nothing is frozen and nobody dies; a
        # box too wide to leave runs that bookkeeping and gives the same paths
        std_op = operator_from_json(model)
        pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
        dims = std_op.dims
        wide = DomainSpec.box(dims, [(0.0, 1e6)] + [(-1e6, 1e6)] * dims.m)
        full = DomainSpec.full_space(dims)
        assert wide.exit_test is not None and full.exit_test is None
        cfg = PathConfig(dt=1e-2, seed=31, n_paths=300, horizon=0.5, record="all")
        start = Point((0.6,), (0.0,) * dims.m)
        theta = pair if weighted else None

        class AliveObserver(NoOpObserver):
            def __init__(self):
                self.seen = []

            def observe(self, sl, k, t, prev, new, alive, logw=None):
                self.seen.append((alive.shape == (len(new),) and bool(alive.all()),
                                  logw is not None))

        watch = AliveObserver()
        free = simulate_bundle(pair.sing, start, full, cfg, theta=theta, observers=(watch,))
        boxed = simulate_bundle(pair.sing, start, wide, cfg, theta=theta)
        assert watch.seen == [(True, weighted)] * cfg.n_steps
        assert not boxed.exited.any()
        for name in ("states", "log_weights", "tau", "exited", "exit_state"):
            x, y = getattr(free, name), getattr(boxed, name)
            assert (x is None) == (y is None) == (name == "log_weights" and not weighted)
            if x is not None:
                assert x.tobytes() == y.tobytes(), name

    def test_exact_jump_marginals_match_the_transition_law(self):
        # pins: each record interval is one draw of the exact BESQ law
        record = (0.0, 0.25, 0.5, 1.0)
        cfg = PathConfig(dt=1e-3, seed=71, n_paths=100_000, horizon=1.0,
                         scheme="exact-1d-gamma", record=record)
        bundle = simulate_bundle(exact_coeffs(), ORIGIN, FULL1, cfg)
        model = Besq1dModel(b0=0.5)
        for t in record[1:]:
            x = bundle.states_at(t)[:, 0]
            edges = np.linspace(0.0, 6.0 * t, 65)
            emp = np.histogram(x, bins=edges)[0] / len(x)
            true = besq_transition_mass(model, t, edges)
            tail = abs(float((x >= edges[-1]).mean()) - (1.0 - float(true.sum())))
            assert float(np.abs(emp - true).sum()) + tail <= 0.05, t

    def test_exact_jump_composes_by_the_markov_property(self):
        # pins: X_1 is drawn from X_0.5, not afresh from the start, so
        # E[X_1 | X_0.5] = X_0.5 + b0 / 2 and Cov(X_0.5, X_1) = Var(X_0.5)
        cfg = PathConfig(dt=1e-3, seed=72, n_paths=100_000, horizon=1.0,
                         scheme="exact-1d-gamma", record=(0.0, 0.5, 1.0))
        bundle = simulate_bundle(exact_coeffs(), ORIGIN, FULL1, cfg)
        xs, x1 = bundle.states_at(0.5)[:, 0], bundle.states_at(1.0)[:, 0]
        u = xs - xs.mean()
        # Cov(X_s, X_1) - Var(X_s) is the mean of u * (X_1 - X_s - mean)
        inc = x1 - xs
        mean, se = mean_se(u * (inc - inc.mean()))
        assert abs(mean) <= 3.0 * se
        # the conditional mean of the increment is 0.25 on every quartile of X_s
        quart = np.searchsorted(np.quantile(xs, [0.25, 0.5, 0.75]), xs)
        for q in range(4):
            mean, se = mean_se(inc[quart == q])
            assert abs(mean - 0.25) <= 3.0 * se, q

    def test_exact_every_step_recorded_equals_the_per_step_loop(self):
        # pins: with record="all" the jump draws once per step with the same
        # arguments, bit-equal to the loop that an observer forces
        cfg = PathConfig(dt=1e-2, seed=73, n_paths=300, horizon=0.2,
                         scheme="exact-1d-gamma", record="all")
        jumped = simulate_bundle(exact_coeffs(), Point((0.4,), ()), FULL1, cfg)
        stepped = simulate_bundle(exact_coeffs(), Point((0.4,), ()), FULL1, cfg,
                                  observers=(NoOpObserver(),))
        assert_same_bundle(jumped, stepped)

    def test_exact_jump_is_thread_independent(self):
        # pins: the jump draws from the (seed, block) streams only
        cfg = PathConfig(dt=1e-2, seed=74, n_paths=RNG_BLOCK + 10, horizon=1.0,
                         scheme="exact-1d-gamma", record=(0.0, 0.5, 1.0))
        one = simulate_bundle(exact_coeffs(), ORIGIN, FULL1, cfg, n_threads=1)
        two = simulate_bundle(exact_coeffs(), ORIGIN, FULL1, cfg, n_threads=2)
        assert_same_bundle(one, two)

    def test_exact_run_on_a_bounded_box_still_exits_on_the_grid(self, monkeypatch):
        # pins: a finite edge keeps the per-step loop and its grid exits
        seen = count_calls(monkeypatch, _ExactGammaParams, "sample")
        cfg = PathConfig(dt=1e-2, seed=75, n_paths=400, horizon=0.5,
                         scheme="exact-1d-gamma", record=(0.0, 0.5))
        bundle = simulate_bundle(exact_coeffs(), Point((3.5,), ()), BOX04, cfg)
        assert len(seen) == cfg.n_steps
        assert (bundle.tau[bundle.exited] < 0.5).any() and (bundle.tau <= 0.5).all()
        steps = bundle.tau / cfg.dt
        assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-9)
        assert (bundle.exit_state[bundle.exited, 0] >= 4.0).all()

    def test_exact_jump_draws_once_per_record_interval(self, monkeypatch):
        # pins: three record times after the start are three draws a block,
        # each over its own interval
        seen = count_calls(monkeypatch, _ExactGammaParams, "sample")
        cfg = PathConfig(dt=1e-3, seed=76, n_paths=2 * RNG_BLOCK + 5, horizon=1.0,
                         scheme="exact-1d-gamma", record=(0.25, 0.5, 1.0))
        bundle = simulate_bundle(exact_coeffs(), ORIGIN, FULL1, cfg)
        assert len(seen) == 3 * 3
        assert [args[3] for args in seen[:3]] == pytest.approx([0.25, 0.25, 0.5])
        assert not bundle.exited.any() and (bundle.tau == 1.0).all()


# ---------------------------------------------------------------------------
# Projected states: the root takes no projection, the exit test only the
# bounds a projected state can cross
# ---------------------------------------------------------------------------

DIMS11 = StateSpaceDims(1, 1)
# a closed face x = 0, a degenerate lower bound above 0, finite free-axis
# bounds, an intrinsic ball and a half-space cut from a box with a free bound
PROJECTED_DOMAINS = {
    "closed-face": (BOX04, [Point((0.2,), ()), Point((3.8,), ())]),
    "raised-face": (DomainSpec.box(DIMS1, [(0.5, 4.0)]), [Point((0.6,), ()), Point((3.8,), ())]),
    "n1m1-free-bounds": (DomainSpec.box(DIMS11, [(0.0, 3.0), (-1.0, 2.0)]),
                         [Point((0.2,), (0.0,)), Point((2.8,), (1.8,))]),
    "ball": (DomainSpec.ball(DIMS11, Point((1.0,), (0.0,)), 0.5),
             [Point((1.0,), (0.0,)), Point((1.4,), (0.3,))]),
    "halfspace": (DomainSpec.halfspace_intersection(DIMS11, [[1.0, 1.0]], [2.0],
                                                    [(0.0, 3.0), (-1.0, None)]),
                  [Point((0.2,), (0.0,)), Point((1.0,), (0.8,))]),
}


class CountedTest:
    """``test`` called from Python, as the exit test too, counting the rows
    of each call."""

    def __init__(self, test):
        self.test, self.rows = test, []

    def __call__(self, states, out=None):
        self.rows.append(len(states))
        return self.test(states, out=out)

    def bind(self, states, out, calls):
        calls.add(self, states, out=out)


def projected_states(domain, rows: int, seed: int) -> np.ndarray:
    """States a projected step can give in and around ``domain``: finite,
    with degenerate coordinates >= 0 or -0.0, a third of every coordinate
    exactly on 0, -0.0, a bound or a neighbour of a bound."""
    dims = domain.dims
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = np.empty((rows, dims.total))
    for i, (lo, hi) in enumerate(domain.bounding_box):
        bounds = [v for v in (lo, hi) if math.isfinite(v)]
        special = bounds + [np.nextafter(v, s) for v in bounds for s in (-np.inf, np.inf)]
        if i < dims.n:
            special = [v for v in special if v >= 0.0] + [0.0, -0.0]
        span = [max(lo, -1.0) - 1.0, min(hi, 5.0) + 1.0]
        if i < dims.n:
            span[0] = 0.0
        states[:, i] = rng.uniform(*span, rows)
        pick = rng.random(rows) < 1 / 3
        states[pick, i] = rng.choice(np.array(special), pick.sum())
    return states


class TestProjectedStates:
    @pytest.mark.parametrize("exits", [False, True], ids=["full-space", "box"])
    @pytest.mark.parametrize("model", ["girsanov", "harnack"])
    def test_a_start_at_minus_zero_gives_the_bytes_of_plus_zero(self, model, exits):
        # pins: the root is sqrt(x) with no projection before it; a start's
        # -0.0 has the root -0.0, which reaches only sums that add +0
        if model == "girsanov":
            pair = girsanov_pair()
            eqs, theta = (pair.std, pair.sing), pair
        else:
            eqs, theta = build_sde_coefficients(make_sing_1d(b0=0.5)), None
        domain = DomainSpec.box(DIMS1, [(0.0, 0.3)]) if exits else FULL1
        cfg = PathConfig(dt=1e-2, seed=31, n_paths=300, horizon=0.3, record="all")

        def run(x0):
            return simulate_bundle(eqs, [Point((x0,), ()), Point((0.1,), ())], domain, cfg,
                                   theta=theta)

        minus, plus = run(-0.0), run(0.0)
        # the start went in as given
        n = cfg.n_paths
        first = np.arange(minus.n_paths) % (2 * n) < n
        assert np.signbit(minus.states[first, 0]).all()
        assert not np.signbit(plus.states[:, 0]).any()
        assert minus.exited.any() == exits
        if exits:
            assert not minus.exited.all()
        for name in ("tau", "exited", "log_weights"):
            a, b = getattr(minus, name), getattr(plus, name)
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes(), name
        assert minus.states[:, 1:].tobytes() == plus.states[:, 1:].tobytes()
        left = minus.exited
        assert minus.exit_state[left].tobytes() == plus.exit_state[left].tobytes()

    @pytest.mark.parametrize("name", list(PROJECTED_DOMAINS))
    def test_the_projected_exit_test_agrees_with_the_underline_test(self, name):
        domain, _ = PROJECTED_DOMAINS[name]
        test = domain.exit_test
        states = projected_states(domain, 20_000, seed=len(name))
        want = domain.contains_underline(states)
        assert want.any() and not want.all()
        assert test(states).tobytes() == want.tobytes()
        out = np.empty(len(states), dtype=bool)
        assert test(states, out=out) is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(PROJECTED_DOMAINS))
    def test_exits_match_a_loop_that_calls_the_underline_test(self, name):
        # the full underline test, called from Python as the exit test too,
        # makes a reference loop
        domain, starts = PROJECTED_DOMAINS[name]
        coeffs = build_sde_coefficients(
            make_sing_1d(b0=0.5) if domain.dims.m == 0 else make_sing_coupled())
        cfg = PathConfig(dt=1e-2, seed=37, n_paths=400, horizon=0.4, record="all")
        counted = CountedTest(domain.contains_underline)
        reference = replace(domain, contains_underline=counted, exit_test=counted)
        expected = simulate_bundle(coeffs, starts, reference, cfg)
        # the start checks, then one test a step of the one packed group
        assert counted.rows == [1] * len(starts) + [len(starts) * cfg.n_paths] * cfg.n_steps
        bundle = simulate_bundle(coeffs, starts, domain, cfg)
        assert bundle.exited.any() and not bundle.exited.all()
        assert_same_bundle(bundle, expected)

    @pytest.mark.parametrize("name", list(PROJECTED_DOMAINS))
    def test_every_exit_test_binds_numpy_calls_alone(self, name):
        # every shape's exit test replays as NumPy calls, so it costs a
        # step no Python call (this pins a cost: a group tests finiteness
        # once whatever its lists hold); one read back from its JSON binds
        # the same calls
        domain, _ = PROJECTED_DOMAINS[name]
        back = DomainSpec.from_json(domain.to_json())
        states = projected_states(domain, 1000, seed=len(name))
        bound = []
        for spec in (domain, back):
            calls, out = Calls(), np.empty(len(states), dtype=bool)
            spec.exit_test.bind(states, out, calls)
            assert numpy_calls_alone(calls)
            calls.run()
            bound.append(([(c.func, [a for a in c.args if isinstance(a, float)]) for c in calls],
                          out.tobytes()))
        assert bound[0] == bound[1]
        assert DomainSpec.full_space(DIMS11).exit_test is None


# ---------------------------------------------------------------------------
# The finiteness test: once a group, then each step only to name a failure
# ---------------------------------------------------------------------------

# b^ = 1 + 1e200 x: a start at x = 1 is near 1e198 after one step of
# dt = 1e-2 and overflows at the second; a start at 0 overflows at the third
OVERFLOW = make_std_1d(b0=1.0, slope=1e200)
# the same b^ read through its own Python entry (calls.assign) each step
EAGER_OVERFLOW = replace(OVERFLOW, b_hat=FieldVector([
    CallableField(lambda s: 1.0 + 1e200 * s[..., 0])]))


def _refuse_not_finite(s):
    if not np.isfinite(s).all():
        raise ValueError("b^ of a state that is not finite")
    return 1.0 + 1e200 * s[..., 0]


# the eager b^ of an entry that refuses a state that is not finite: a
# walk untested raises its ValueError at the step after the overflow
REFUSING_OVERFLOW = replace(OVERFLOW, b_hat=FieldVector([CallableField(_refuse_not_finite)]))
# states, tau, exited and exit states of the exact-scheme bundle on [0, 4]
# of test_an_exact_scheme_group_tests_once_and_keeps_its_bytes, pinned
# from a run that tested no state: the test of the last states moves no bit
EXACT_BOX_SHA256 = "4378c71c411ff708bac4d24fa65bd380d903f09eff2808092287baf6c0965c77"
# a box that a state leaves only by overflowing
WIDE_BOX = DomainSpec.box(DIMS1, [(0.0, 1e300)])
# two blocks, so that two threads each run a group
OVERFLOW_CONFIG = PathConfig(dt=1e-2, seed=3, n_paths=RNG_BLOCK + 4, horizon=0.1, record="ends")


def overflow_bundle(lanes: str, domain, n_threads: int, std_op=OVERFLOW):
    std = build_standard_sde_coefficients(std_op)
    if lanes == "one":
        return simulate_bundle(std, Point((1.0,), ()), domain, OVERFLOW_CONFIG,
                               n_threads=n_threads)
    if lanes == "packed":
        # the start at 0 overflows a step later than the one at 1
        return simulate_bundle(std, [Point((0.0,), ()), Point((1.0,), ())], domain,
                               OVERFLOW_CONFIG, n_threads=n_threads)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    return simulate_bundle((pair.std, pair.sing), Point((1.0,), ()), domain, OVERFLOW_CONFIG,
                           theta=pair, n_threads=n_threads)


def record_tested_steps(monkeypatch) -> dict:
    """Wrap ``_Lanes.check_finite`` and return ``{workspace: the steps
    it tested, in order}``."""
    seen, original = {}, simulate._Lanes.check_finite

    def counted(new, ws):
        seen.setdefault(ws, []).append(int(ws.step))
        return original(new, ws)

    monkeypatch.setattr(simulate._Lanes, "check_finite", staticmethod(counted))
    return seen


class TestFinitenessTest:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("domain", [FULL1, WIDE_BOX], ids=["full-space", "box"])
    @pytest.mark.parametrize("lanes", ["one", "pair", "packed"])
    def test_an_overflow_raises_at_its_step(self, monkeypatch, lanes, domain, n_threads):
        # pins: the group tests its last states only, then steps again
        # testing each step, which names the step and path that a test of
        # every step names
        tested = record_tested_steps(monkeypatch)
        with pytest.raises(NumericFailureError) as failure:
            overflow_bundle(lanes, domain, n_threads)
        assert str(failure.value) == "non-finite state at step 2 (block path 0)"
        # each group that ran (one, or on two threads both, unless the
        # first failure cancelled the second) stepped again in a new
        # workspace testing each step, and raised at step 2
        assert 1 <= len(tested) <= n_threads
        assert all(steps == [1, 2] for steps in tested.values())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_the_testing_walk_draws_the_same_normals_again(self, monkeypatch):
        # pins: the walk that tests each step binds its one step list anew
        # and draws its block's stream from the start again, a step at a
        # time, up to the failing step; at one thread block 0's group fails
        # and block 1's never runs
        walks = record_draws(monkeypatch)
        binds = count_calls(monkeypatch, simulate._Lanes, "bind_step")
        with pytest.raises(NumericFailureError, match="at step 2 "):
            overflow_bundle("one", FULL1, 1)
        (block, untested), (again, tested) = walks
        assert block == again == 0 and len(binds) == 2
        assert len(untested) == OVERFLOW_CONFIG.n_steps and len(tested) == 2
        assert [a.tobytes() for a in tested] == [a.tobytes() for a in untested[:2]]

    def test_a_finite_run_tests_no_step(self, monkeypatch):
        tested = record_tested_steps(monkeypatch)
        cfg = PathConfig(dt=1e-2, seed=5, n_paths=RNG_BLOCK + 4, horizon=0.3)
        pair = girsanov_pair()
        bundle = simulate_bundle((pair.std, pair.sing), STARTS_1D[:2], BOX04, cfg, theta=pair)
        assert bundle.exited.any() and tested == {}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("std_op", [OVERFLOW, EAGER_OVERFLOW], ids=["numpy", "eager"])
    @pytest.mark.parametrize("lanes", ["one", "pair", "packed"])
    def test_a_dead_paths_discarded_step_fails_no_run(self, lanes, std_op):
        # every path leaves [0, 4] with a finite state, at step 1 (at 2
        # from a start at 0); the step from there overflows, but the
        # freeze discards it before any test reads it
        bundle = overflow_bundle(lanes, BOX04, 1, std_op=std_op)
        assert bundle.exited.all() and np.isfinite(bundle.exit_state).all()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_an_eager_field_tests_once(self, monkeypatch, n_threads):
        # a field read through its own Python entry (calls.assign) follows
        # the one rule: a finite run tests its last states only, and a
        # failing one steps again testing each step
        tested = record_tested_steps(monkeypatch)
        with pytest.raises(NumericFailureError) as failure:
            overflow_bundle("one", FULL1, n_threads, std_op=EAGER_OVERFLOW)
        assert str(failure.value) == "non-finite state at step 2 (block path 0)"
        assert 1 <= len(tested) <= n_threads
        assert all(steps == [1, 2] for steps in tested.values())
        tested.clear()
        cfg = PathConfig(dt=1e-2, seed=5, n_paths=RNG_BLOCK + 4, horizon=0.3)
        calm = replace(OVERFLOW, b_hat=FieldVector([CallableField(lambda s: 1.0 + s[..., 0])]))
        bundle = simulate_bundle(build_standard_sde_coefficients(calm), Point((1.0,), ()), BOX04,
                                 cfg, n_threads=n_threads)
        assert np.isfinite(bundle.states).all() and tested == {}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("lanes", ["one", "pair", "packed"])
    def test_an_entry_that_refuses_a_state_ends_in_the_numeric_failure(
            self, monkeypatch, lanes, n_threads):
        # the untested walk ends in the entry's ValueError at step 3; the
        # walk that tests each step names the overflow of step 2 instead
        tested = record_tested_steps(monkeypatch)
        with pytest.raises(NumericFailureError) as failure:
            overflow_bundle(lanes, FULL1, n_threads, std_op=REFUSING_OVERFLOW)
        assert str(failure.value) == "non-finite state at step 2 (block path 0)"
        assert 1 <= len(tested) <= n_threads
        assert all(steps == [1, 2] for steps in tested.values())

    def test_an_entry_error_without_a_state_not_finite_is_raised_again(self):
        # a step that raises on finite states raises alike in the walk that
        # tests each step
        def refuse(s):
            raise ValueError("refused")

        std = build_standard_sde_coefficients(
            replace(OVERFLOW, b_hat=FieldVector([CallableField(refuse)])))
        with pytest.raises(ValueError, match="refused"):
            simulate_bundle(std, Point((1.0,), ()), FULL1, OVERFLOW_CONFIG)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_an_observer_group_tests_once(self, monkeypatch, n_threads):
        # a source integral watches every step of its group from Python,
        # yet the group tests its last states only; when they overflow it
        # steps again and names the step that a test of every step names
        tested = record_tested_steps(monkeypatch)

        def source(t, states):
            return states[:, 0]

        std = build_standard_sde_coefficients(OVERFLOW)
        with pytest.raises(NumericFailureError) as failure:
            estimate_inhomogeneous(std, None, source, 0.1, Point((1.0,), ()), FULL1,
                                   OVERFLOW_CONFIG, n_threads=n_threads)
        assert str(failure.value) == "non-finite state at step 2 (block path 0)"
        assert 1 <= len(tested) <= n_threads
        assert all(steps == [1, 2] for steps in tested.values())
        tested.clear()
        calm = build_standard_sde_coefficients(make_std_1d(b0=1.0))
        est = estimate_inhomogeneous(calm, None, source, 0.3, Point((1.0,), ()), BOX04,
                                     replace(OVERFLOW_CONFIG, horizon=0.3), n_threads=n_threads)
        assert math.isfinite(est.value) and tested == {}

    def test_an_exact_scheme_group_tests_once_and_keeps_its_bytes(self, monkeypatch):
        # on a box the exact scheme steps a draw at a time; like every
        # group it tests its last states once, which changes no byte
        cfg = PathConfig(dt=1e-2, seed=7, n_paths=RNG_BLOCK + 4, horizon=0.3,
                         scheme="exact-1d-gamma")
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        tested = record_tested_steps(monkeypatch)
        bundle = simulate_bundle(coeffs, Point((1.0,), ()), BOX04, cfg)
        assert bundle.exited.any() and not bundle.exited.all() and tested == {}
        assert hashlib.sha256(b"".join(
            getattr(bundle, f).tobytes() for f in ("states", "tau", "exited", "exit_state")
        )).hexdigest() == EXACT_BOX_SHA256


# the NumPy routines a bound call may run besides a ufunc
NUMPY_ROUTINES = (np.copyto, np.einsum, np.putmask)


def numpy_calls_alone(calls) -> bool:
    """Whether every call of ``calls`` is a NumPy ufunc or routine bound
    directly, so that replaying them runs no Python: no eager entry, solve
    or closure.  This pins what a step costs; a group tests its states for
    finiteness the same way whatever its calls are."""
    return all(isinstance(c, functools.partial)
               and (isinstance(c.func, np.ufunc) or c.func in NUMPY_ROUTINES) for c in calls)


@pytest.mark.parametrize("config", ["girsanov_consistency", "harnack_scan", "validate_model"])
def test_committed_models_replay_numpy_alone(monkeypatch, config):
    # every call a step of the committed models binds, the marks of its
    # exits included, is a NumPy ufunc or routine bound directly, and a
    # ufunc takes its out positionally and no where=True; np.maximum takes
    # out=, as NumPy 2.4 deprecates a third positional argument to it.
    # This pins the per-step cost (no Python call a step), not a code
    # path: the groups test their last states once, as every group does
    bound = []
    for name in ("bind_step", "bind_settle"):
        original = getattr(simulate._Lanes, name)

        def spy(*args, original=original, **kwargs):
            calls = original(*args, **kwargs)
            bound.extend(calls)
            return calls

        monkeypatch.setattr(simulate._Lanes, name, spy)
    tested = record_tested_steps(monkeypatch)
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", f"{config}.json")) as fh:
        doc = json.load(fh)
    op = operator_from_json(doc["model"])
    cfg = PathConfig(dt=1e-2, seed=9, n_paths=300, horizon=0.3)
    if config == "girsanov_consistency":
        pair = make_girsanov_field(op, derive_singular_from_standard(op))
        simulate_bundle((pair.std, pair.sing), Point.from_vector(op.dims, doc["z0"]),
                        DomainSpec.full_space(op.dims), cfg, theta=pair)
    elif config == "validate_model":
        # a constant b^ beside a trig e^: each bound as its own ufuncs
        pair = make_girsanov_field(op, derive_singular_from_standard(op))
        box = DomainSpec.box(op.dims, [(0.0, 3.0), (-1.0, 2.0)])
        bundle = simulate_bundle((pair.std, pair.sing), Point((1.0,), (0.5,)), box, cfg,
                                 theta=pair)
        assert bundle.exited.any()
    else:
        starts = [Point((0.2,), ()), Point((3.8,), ())]
        bundle = simulate_bundle(build_sde_coefficients(op), starts,
                                 DomainSpec.from_json(doc["domain"]), cfg)
        assert bundle.exited.any()
    assert bound and tested == {}
    assert numpy_calls_alone(bound), [getattr(c, "func", c) for c in bound]
    for call in bound:
        fn = call.func
        if isinstance(fn, np.ufunc):
            assert fn is np.maximum or "out" not in call.keywords
            assert call.keywords.get("where") is not True


# ---------------------------------------------------------------------------
# Exits settled inside the bound step
# ---------------------------------------------------------------------------

VALIDATE_MODEL = {  # configs/validate_model.json
    "kind": "standard", "dims": {"n": 1, "m": 1},
    "b_hat": [0.5], "d_hat": [[1.0]],
    "e_hat": [{"family": "trig", "c0": 0.0, "amplitude": 0.1, "axis": 1, "frequency": 2.0}],
}


def exiting_bundle(case: str):
    """A bundle whose paths leave its box, stepped on ``case``'s draws."""
    if case == "harnack-scan":
        # 15 starts of one block of 512 paths: one group
        starts = [Point((x,), ()) for x in np.linspace(0.2, 3.0, 15)]
        cfg = PathConfig(dt=2e-3, seed=0, n_paths=512, horizon=254 * 2e-3, record="ends")
        assert cfg.n_steps == 254
        return simulate_bundle(build_sde_coefficients(make_sing_1d(b0=0.5)), starts, BOX04, cfg)
    if case == "pair":
        std_op = operator_from_json(VALIDATE_MODEL)
        pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
        box = DomainSpec.box(DIMS11, [(0.0, 3.0), (-1.0, 2.0)])
        cfg = PathConfig(dt=1e-2, seed=5, n_paths=2500, horizon=0.3, record="ends")
        # two lanes of two coordinates on one block: one group
        assert cfg.n_paths < RNG_BLOCK
        return simulate_bundle((pair.std, pair.sing), Point((2.5,), (1.5,)), box, cfg,
                               theta=pair)
    cfg = PathConfig(dt=1e-2, seed=75, n_paths=400, horizon=0.5, scheme="exact-1d-gamma")
    return simulate_bundle(exact_coeffs(), Point((3.5,), ()), BOX04, cfg)


class TestBoundSettle:
    @pytest.mark.parametrize("case", [
        "harnack-scan",   # packed starts
        "pair",           # two lanes of two coordinates
        "exact",          # one draw a step, from the one state array
    ])
    def test_an_exit_adds_no_step_lists(self, monkeypatch, case):
        # pins: a group binds its one list once, before and after its first
        # exit alike; the exact scheme binds its step with no bind_step
        binds = count_calls(monkeypatch, simulate._Lanes, "bind_settle")
        bundle = exiting_bundle(case)
        assert bundle.exited.any() and not bundle.exited.all()
        assert len(binds) == 1

    @pytest.mark.parametrize("domain", [BOX04, FULL1], ids=["exits", "in-place"])
    def test_an_observer_sees_each_step_from_the_last(self, domain):
        # pins: an observer's prev at step k is its new at step k - 1, and
        # the start at step 1, whether a step writes a second array and
        # freezes it into the states or writes the states in place
        cfg = PathConfig(dt=1e-2, seed=8, n_paths=300, horizon=0.3)

        class StepObserver(NoOpObserver):
            def __init__(self):
                self.seen = []

            def observe(self, sl, k, t, prev, new, alive, logw=None):
                self.seen.append((prev.copy(), new.copy()))

        watch = StepObserver()
        bundle = simulate_bundle(build_sde_coefficients(make_sing_1d(b0=0.5)),
                                 Point((3.5,), ()), domain, cfg, observers=(watch,))
        assert len(watch.seen) == cfg.n_steps
        assert np.array_equal(watch.seen[0][0], np.full((cfg.n_paths, 1), 3.5))
        for (_, new), (prev, _) in zip(watch.seen, watch.seen[1:]):
            assert new.tobytes() == prev.tobytes()
        assert watch.seen[-1][1].tobytes() == bundle.states[:, -1].tobytes()
        assert bundle.exited.any() == (domain is BOX04)

    def test_an_observer_sees_the_paths_alive_before_each_step(self):
        # pins: the exits a step finds are settled before the observers run,
        # which still see those paths as alive before the step
        cfg = PathConfig(dt=1e-2, seed=8, n_paths=300, horizon=0.5)

        class AliveObserver(NoOpObserver):
            def __init__(self):
                self.seen = []

            def observe(self, sl, k, t, prev, new, alive, logw=None):
                assert sl == slice(0, cfg.n_paths)
                self.seen.append((k, alive.copy()))

        watch = AliveObserver()
        bundle = simulate_bundle(build_sde_coefficients(make_sing_1d(b0=0.5)),
                                 Point((3.5,), ()), BOX04, cfg, observers=(watch,))
        assert [k for k, _ in watch.seen] == list(range(1, cfg.n_steps + 1))
        for k, alive in watch.seen:
            assert np.array_equal(alive, ~bundle.stopped_by((k - 1) * cfg.dt)), k
        # some paths leave on the way, others stay to the end
        assert not watch.seen[-1][1].all() and watch.seen[-1][1].any()
        # an exit time is a whole number of steps: the bits of k * dt
        tau = bundle.tau[bundle.exited]
        assert len(tau) and np.array_equal(tau, np.round(tau / cfg.dt) * cfg.dt)
