import gc
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import advance, make_sing_1d, make_std_1d
from drift_reference import reference_e, reference_f, reference_g

from kimura_lab import operators, simulate
from kimura_lab.errors import EllipticityViolationError, InvalidMatrixError
from kimura_lab.fields import ConstantField, FieldMatrix, FieldVector, ScalarField, TestFunction
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims
from kimura_lab.operators import (
    SingularOperatorSpec,
    StandardOperatorSpec,
    apply_generator_batch,
    derive_singular_from_standard,
    drift_identity_e,
    drift_identity_f,
    drift_identity_g,
    operator_from_json,
)
from kimura_lab.sde import (
    GirsanovField,
    SdeCoefficients,
    StandardSdeCoefficients,
    build_sde_coefficients,
    build_standard_sde_coefficients,
    dispersion_sqrt_batch,
    make_girsanov_field,
)
from kimura_lab.simulate import PathConfig, simulate_bundle


def make_sing_coupled(gamma=0.3):
    """n=1, m=1 model with a constant cross coupling."""
    dims = StateSpaceDims(1, 1)
    return SingularOperatorSpec(
        dims=dims,
        a_diag=FieldVector([1.0]),
        a_tilde=FieldMatrix.zeros(1, 1),
        b=FieldVector([1.0]),
        c=FieldMatrix([[gamma]]),
        d=FieldMatrix([[1.0]]),
    )


class TestCoefficientAssembly:
    def test_constant_1d_reduction(self):
        coeffs = build_sde_coefficients(make_sing_1d(b0=0.5))
        z = np.array([[0.7]])
        assert coeffs.source.diffusion_matrix(z)[0] == pytest.approx(np.array([[2.0]]))
        assert coeffs.sigma_batch(z)[0] == pytest.approx(np.array([[math.sqrt(2.0)]]))
        assert drift_identity_g(coeffs.source, z)[0] == pytest.approx([0.5])
        assert np.all(drift_identity_f(coeffs.source, z)[0] == 0.0)
        assert coeffs.drift_batch(z)[0] == pytest.approx([0.5])
        assert coeffs.plan.sigma is not None

    def test_affine_weight_log_drift(self):
        eps = 0.1
        coeffs = build_sde_coefficients(make_sing_1d(b0=1.0, slope=eps))
        x = 0.5
        z = np.array([[x]])
        assert drift_identity_f(coeffs.source, z)[0, 0, 0] == pytest.approx(eps, abs=1e-9)
        expected = (1.0 + eps * x) + x * eps * math.log(x)
        assert coeffs.drift_batch(z)[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_cross_coupling_block(self):
        gamma = 0.3
        coeffs = build_sde_coefficients(make_sing_coupled(gamma))
        x = 0.49
        D = coeffs.source.diffusion_matrix(np.array([[x, 0.0]]))[0]
        assert D[0, 0] == pytest.approx(2.0)
        assert D[1, 1] == pytest.approx(2.0)
        assert D[0, 1] == pytest.approx(2.0 * math.sqrt(x) * gamma)
        # eigenvalues 2 +- 2 sqrt(x) gamma, positive for this coupling
        w = np.linalg.eigvalsh(D)
        assert w[0] == pytest.approx(2.0 - 2.0 * math.sqrt(x) * gamma)
        assert w[0] > 0.0

    def test_indefinite_matrix_rejected(self):
        D = np.array([[2.0, 3.0], [3.0, 2.0]])  # eigenvalues 5, -1
        with pytest.raises(EllipticityViolationError):
            dispersion_sqrt_batch(D)

    def test_alpha_is_scaled_diffusion(self):
        coeffs = build_sde_coefficients(make_sing_coupled(0.3))
        x = 0.81
        z = np.array([[x, 0.5]])
        alpha = coeffs.source.increment_covariance(z)[0]
        D = coeffs.source.diffusion_matrix(z)[0]
        assert alpha[0, 0] == pytest.approx(x * D[0, 0])
        assert alpha[0, 1] == pytest.approx(math.sqrt(x) * D[0, 1])
        assert alpha[1, 1] == pytest.approx(D[1, 1])

    def test_alpha_matches_empirical_increment_covariance(self):
        coeffs = build_sde_coefficients(make_sing_coupled(0.3))
        z = np.array([1.0, 0.0])
        alpha = coeffs.source.increment_covariance(z[None, :])[0]
        rng = np.random.Generator(np.random.Philox(key=31))
        n = 400_000
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            xi = rng.standard_normal((n, 2))
            sigma = coeffs.sigma_batch(z[None, :])[0]
            noise = xi @ sigma.T * math.sqrt(dt)
            drift = coeffs.drift_batch(z[None, :], 1e-12)[0]
            dz = drift * dt + np.column_stack(
                [math.sqrt(z[0]) * noise[:, 0], noise[:, 1]]
            )
            cov = np.cov(dz.T) / dt
            errs.append(float(np.abs(cov - alpha).max()))
        assert errs[-1] < 0.05 * float(np.abs(alpha).max())


COUPLED_MODELS = {
    "n1m1": {
        "kind": "standard", "dims": {"n": 1, "m": 1},
        "a_hat": [[0.2]],
        "b_hat": [{"family": "affine", "c0": 0.9, "coeffs": [0.1, -0.05]}],
        "c_hat": [[{"family": "affine", "c0": 0.5, "coeffs": [0.0, 0.2]}]],
        "d_hat": [[1.2]],
        "e_hat": [{"family": "trig", "c0": 0.1, "amplitude": 0.3, "axis": 1, "frequency": 1.5}],
    },
    "n2m1": {
        "kind": "standard", "dims": {"n": 2, "m": 1},
        "a_hat": [[0.2, 0.1], [0.1, 0.3]],
        "b_hat": [
            {"family": "affine", "c0": 0.8, "coeffs": [0.1, 0.0, 0.05]},
            {"family": "affine", "c0": 1.1, "coeffs": [0.0, -0.1, 0.0]},
        ],
        "c_hat": [[0.4], [{"family": "affine", "c0": -0.3, "coeffs": [0.0, 0.0, 0.1]}]],
        "d_hat": [[1.0]],
        "e_hat": [{"family": "affine", "c0": 0.2, "coeffs": [0.3, -0.2, 0.1]}],
    },
}


def _quadratic_testfn(total):
    rng = np.random.Generator(np.random.Philox(key=31))
    A = rng.normal(size=(total, total))
    Q = A + A.T
    q = rng.normal(size=total)
    return TestFunction(
        fn=lambda s: 0.5 * np.einsum("...i,ij,...j->...", s, Q, s) + s @ q,
        grad=lambda s: s @ Q + q,
        hess=lambda s: np.broadcast_to(Q, s.shape[:-1] + Q.shape),
    )


def _sde_generator(coeffs, u, states):
    """``1/2 tr(alpha H) + drift . grad u`` of the simulated equation."""
    alpha = coeffs.source.increment_covariance(states)
    return 0.5 * np.einsum("pij,pij->p", alpha, u.hessian(states)) + np.einsum(
        "pi,pi->p", coeffs.drift_batch(states), u.gradient(states)
    )


@pytest.mark.parametrize("name", sorted(COUPLED_MODELS))
def test_sde_generators_match_operators_with_couplings(name):
    # each equation's generator is its operator, and a derived pair shares D
    std = operator_from_json(COUPLED_MODELS[name])
    n, m = std.dims.n, std.dims.m
    sing = derive_singular_from_standard(
        std, lattice_box=[(0.0, 2.0)] * n + [(-1.0, 1.0)] * m, lattice_spacing=1.0 / 8.0
    )
    rng = np.random.Generator(np.random.Philox(key=32))
    states = np.concatenate(
        [rng.uniform(0.1, 1.5, (20, n)), rng.uniform(-0.8, 0.8, (20, m))], axis=-1
    )
    u = _quadratic_testfn(n + m)
    std_coeffs = build_standard_sde_coefficients(std)
    sing_coeffs = build_sde_coefficients(sing)
    np.testing.assert_allclose(
        _sde_generator(std_coeffs, u, states), apply_generator_batch(std, u, states), rtol=1e-12
    )
    np.testing.assert_allclose(
        _sde_generator(sing_coeffs, u, states), apply_generator_batch(sing, u, states), rtol=1e-12
    )
    np.testing.assert_allclose(
        sing.diffusion_matrix(states), std.diffusion_matrix(states), rtol=1e-12
    )


class TestDispersionSqrt:
    def test_diagonal(self):
        out = dispersion_sqrt_batch(np.diag([2.0, 2.0]))
        assert out == pytest.approx(np.diag([math.sqrt(2.0)] * 2))

    def test_two_by_two_closed_form(self):
        out = dispersion_sqrt_batch(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s3 = math.sqrt(3.0)
        expected = np.array(
            [[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]]
        )
        assert out == pytest.approx(expected)

    def test_zero_matrix(self):
        assert np.all(dispersion_sqrt_batch(np.zeros((3, 3))) == 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrixError):
            dispersion_sqrt_batch(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_reconstruction_on_random_psd(self):
        rng = np.random.Generator(np.random.Philox(key=32))
        for _ in range(50):
            k = int(rng.integers(1, 5))
            A = rng.standard_normal((k, k))
            D = A @ A.T
            root = dispersion_sqrt_batch(D)
            err = np.abs(root @ root.T - D).max()
            assert err <= 1e-12 * max(np.abs(D).max(), 1.0)
            assert np.allclose(root, root.T)

    def test_deterministic_bytes(self):
        D = np.array([[2.0, 0.7], [0.7, 1.1]])
        a = dispersion_sqrt_batch(D)
        b = dispersion_sqrt_batch(D.copy())
        assert a.tobytes() == b.tobytes()

    def test_batch_matches_single(self):
        rng = np.random.Generator(np.random.Philox(key=33))
        A = rng.standard_normal((4, 3, 3))
        Ds = np.einsum("bij,bkj->bik", A, A)
        batch = dispersion_sqrt_batch(Ds)
        for i in range(4):
            assert batch[i] == pytest.approx(dispersion_sqrt_batch(Ds[i]))

    def test_roundoff_negative_clipped(self):
        D = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        root = dispersion_sqrt_batch(D)
        assert np.all(np.isfinite(root))


class TestStandardSide:
    def test_dhat_assembly(self):
        std = make_std_1d(b0=0.5, a_hat=0.3)
        coeffs = build_standard_sde_coefficients(std)
        x = 0.6
        z = np.array([[x]])
        assert coeffs.source.diffusion_matrix(z)[0, 0, 0] == pytest.approx(2.0 * (1.0 + 0.3 * x))
        assert coeffs.drift_batch(z)[0, 0] == pytest.approx(0.5)

    def test_constant_dispersion_detected(self):
        coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
        assert coeffs.plan.sigma == pytest.approx(np.array([[math.sqrt(2.0)]]))


class TestGirsanovTheta:
    def test_constant_weight_gives_zero(self):
        std = make_std_1d(b0=0.5)
        pair = make_girsanov_field(std, make_sing_1d(b0=0.5))
        assert pair.theta_batch(np.array([[0.8]]))[0] == pytest.approx([0.0])
        states = np.array([[0.1], [1.0], [3.0]])
        assert np.all(pair.theta_batch(states) == 0.0)

    def test_affine_weight_closed_form(self):
        eps = 0.1
        std = make_std_1d(b0=1.0, slope=eps)
        pair = make_girsanov_field(std, make_sing_1d(b0=1.0, slope=eps))
        assert pair.theta_batch(np.array([[1.0]]))[0, 0] == pytest.approx(0.0)
        x = math.exp(-2.0)
        got = pair.theta_batch(np.array([[x]]))[0, 0]
        expected = -math.sqrt(2.0) * eps * math.exp(-1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_theta_vanishes_at_degenerate_boundary(self):
        eps = 0.2
        pair = make_girsanov_field(
            make_std_1d(b0=1.0, slope=eps), make_sing_1d(b0=1.0, slope=eps)
        )
        tiny = pair.theta_batch(np.array([[1e-8]]), log_clamp_eps=1e-12)[0, 0]
        assert abs(tiny) < 1e-2
        smaller = pair.theta_batch(np.array([[1e-12]]), log_clamp_eps=1e-14)[0, 0]
        assert abs(smaller) < abs(tiny)

    def test_free_rows_use_standard_drift_gap(self):
        # n=1, m=1, constant weights but e_hat != e: theta carries the gap
        dims = StateSpaceDims(1, 1)
        std = StandardOperatorSpec(
            dims=dims,
            a_hat=FieldMatrix.zeros(1, 1),
            b_hat=FieldVector([1.0]),
            c_hat=FieldMatrix.zeros(1, 1),
            d_hat=FieldMatrix([[1.0]]),
            e_hat=FieldVector([0.7]),
        )
        sing = SingularOperatorSpec(
            dims=dims,
            a_diag=FieldVector([1.0]),
            a_tilde=FieldMatrix.zeros(1, 1),
            b=FieldVector([1.0]),
            c=FieldMatrix.zeros(1, 1),
            d=FieldMatrix([[1.0]]),
        )
        pair = make_girsanov_field(std, sing)
        theta = pair.theta_batch(np.array([[0.5, 0.0]]))[0]
        # free row: sigma^ theta = e - e_hat = -0.7, sigma^_yy = sqrt(2)
        assert theta[1] == pytest.approx(-0.7 / math.sqrt(2.0))
        assert theta[0] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Step plan against the unfolded assembly
# ---------------------------------------------------------------------------

HARNACK_MODEL = {  # configs/harnack_scan.json
    "kind": "singular", "dims": {"n": 1, "m": 0},
    "b": [{"family": "constant", "value": 0.5}],
}
GIRSANOV_MODEL = {  # configs/girsanov_consistency.json
    "kind": "standard", "dims": {"n": 1, "m": 0},
    "b_hat": [{"family": "affine", "c0": 1.0, "coeffs": [0.2]}],
}
VALIDATE_MODEL = {  # configs/validate_model.json
    "kind": "standard", "dims": {"n": 1, "m": 1},
    "b_hat": [{"family": "constant", "value": 0.5}],
    "d_hat": [[{"family": "constant", "value": 1.0}]],
    "e_hat": [{"family": "trig", "c0": 0.0, "amplitude": 0.1, "axis": 1, "frequency": 2.0}],
}
AFFINE_STANDARD = {
    "kind": "standard", "dims": {"n": 1, "m": 1},
    "b_hat": [{"family": "affine", "c0": 0.8, "coeffs": [0.3, -0.1]}],
    "d_hat": [[{"family": "constant", "value": 1.5}]],
    "e_hat": [{"family": "affine", "c0": 0.2, "coeffs": [-0.4, 0.25]}],
}
EPS = 1e-12
# x = 0, x below the log clamp, x = 1 (ln x = 0), x past the [0, 4] solve
# box; y past [-4, 4]
X_PROBES = [0.0, 1e-14, 0.3, 1.0, 1.7, 5.5, 21.0, 25.0]
Y_PROBES = [-4.5, 0.2, 6.0]


def _probe_states(dims):
    axes = [X_PROBES] * dims.n + [Y_PROBES] * dims.m
    return np.array(list(itertools.product(*axes)), dtype=float)


def _unfolded_log_sum(op, states, eps):
    n = op.dims.n
    logs = np.log(np.maximum(states[..., :n], eps))
    return np.einsum("...rj,...j->...r", reference_f(op, states), logs)


def _unfolded_drift(op, states, eps):
    n = op.dims.n
    out = np.concatenate(
        [reference_g(op, states), reference_e(op, states)], axis=-1
    )
    log_sum = _unfolded_log_sum(op, states, eps)
    out[..., :n] += states[..., :n] * log_sum[..., :n]
    out[..., n:] += log_sum[..., n:]
    return out


def _unfolded_noise(coeffs, states, xi):
    sigma = dispersion_sqrt_batch(coeffs.source.diffusion_matrix(states))
    return np.einsum("pij,pj->pi", sigma, xi)


def _unfolded_theta(std_op, sing_op, states, eps):
    n = sing_op.dims.n
    log_sum = _unfolded_log_sum(sing_op, states, eps)
    rhs = np.zeros(states.shape)
    rhs[:, :n] = np.sqrt(np.maximum(states[:, :n], 0.0)) * log_sum[:, :n]
    rhs[:, n:] = (
        reference_e(sing_op, states) + log_sum[:, n:]
        - std_op.e_hat.evaluate_batch(states)
    )
    sig = dispersion_sqrt_batch(std_op.diffusion_matrix(states))
    return np.linalg.solve(sig, rhs[..., None])[..., 0]


def _assert_plan_matches_unfolded(coeffs, states):
    xi = np.random.Generator(np.random.Philox(key=5)).standard_normal(states.shape)
    # the spec says what folds
    assert (coeffs.plan.drift is not None) == coeffs.source.drift_is_constant
    if isinstance(coeffs, StandardSdeCoefficients):
        src = coeffs.source
        drift = np.concatenate(
            [src.b_hat.evaluate_batch(states), src.e_hat.evaluate_batch(states)], axis=-1
        )
    else:
        drift = _unfolded_drift(coeffs.source, states, EPS)
    assert coeffs.drift_batch(states, EPS).tobytes() == drift.tobytes()
    # every model here has a constant diagonal dispersion: noise is a product
    assert coeffs.plan.sigma_diag is not None
    assert coeffs.noise_batch(states, xi).tobytes() == _unfolded_noise(coeffs, states, xi).tobytes()


class TestStepPlan:
    def test_constant_singular_folds_to_constant_drift(self):
        coeffs = build_sde_coefficients(operator_from_json(HARNACK_MODEL))
        plan = coeffs.plan
        assert plan.drift.tolist() == [0.5]
        assert coeffs.source.log_drift(_probe_states(coeffs.dims), EPS) is None
        _assert_plan_matches_unfolded(coeffs, _probe_states(coeffs.dims))

    def test_constant_standard_folds_to_constant_drift(self):
        coeffs = build_standard_sde_coefficients(operator_from_json(
            {"kind": "standard", "dims": {"n": 1, "m": 1}, "b_hat": [0.5], "d_hat": [[1.5]],
             "e_hat": [-0.3]}
        ))
        plan = coeffs.plan
        assert plan.drift.tolist() == [0.5, -0.3]
        _assert_plan_matches_unfolded(coeffs, _probe_states(coeffs.dims))

    def test_constant_singular_with_coupling_is_not_folded(self):
        # a~ != 0 puts x into g even with constant fields
        op = SingularOperatorSpec(
            dims=StateSpaceDims(1, 1), a_diag=FieldVector([1.0]),
            a_tilde=FieldMatrix([[0.3]]), b=FieldVector([0.5]),
            c=FieldMatrix([[0.2]]), d=FieldMatrix([[1.0]]),
        )
        assert not op.drift_is_constant and not op.diffusion_is_constant
        coeffs = build_sde_coefficients(op)
        assert coeffs.plan.drift is None and coeffs.plan.sigma is None
        states = _probe_states(op.dims)
        expected = np.concatenate([reference_g(op, states), reference_e(op, states)], axis=-1)
        assert coeffs.drift_batch(states, EPS).tobytes() == expected.tobytes()

    def test_affine_standard(self):
        coeffs = build_standard_sde_coefficients(operator_from_json(AFFINE_STANDARD))
        assert coeffs.plan.drift is None
        _assert_plan_matches_unfolded(coeffs, _probe_states(coeffs.dims))

    @pytest.mark.parametrize("model", [GIRSANOV_MODEL, VALIDATE_MODEL], ids=["1d", "n1m1"])
    def test_derived_model_with_theta(self, model):
        std_op = operator_from_json(model)
        sing_op = derive_singular_from_standard(std_op)
        pair = make_girsanov_field(std_op, sing_op)
        states = _probe_states(std_op.dims)
        _assert_plan_matches_unfolded(pair.sing, states)
        _assert_plan_matches_unfolded(pair.std, states)
        assert pair.divisor is not None  # theta by division
        expected = _unfolded_theta(std_op, sing_op, states, EPS).tobytes()
        assert pair.theta_batch(states, EPS).tobytes() == expected
        shared = pair.sing.source.log_drift(states, EPS)
        unfolded = _unfolded_log_sum(sing_op, states, EPS)
        if sing_op.b.is_constant:
            # an exact constant weight has no log drift on either side
            assert shared is None and not unfolded.any()
        else:
            assert shared.tobytes() == unfolded.tobytes()
        assert pair.theta_batch(states, EPS, shared).tobytes() == expected
        assert pair.sing.drift_batch(states, EPS, shared).tobytes() == (
            _unfolded_drift(sing_op, states, EPS).tobytes()
        )

    def test_constant_nondiagonal_dispersion_runs_the_per_state_product(self):
        # the root is taken once, but applied by the same einsum as a
        # state-dependent one
        dims = StateSpaceDims(0, 3)
        d = [[1.0, 0.3, 0.1], [0.3, 1.2, -0.2], [0.1, -0.2, 0.9]]
        coeffs = build_sde_coefficients(SingularOperatorSpec(
            dims=dims, a_diag=FieldVector([]), a_tilde=FieldMatrix.zeros(0, 0),
            b=FieldVector([]), c=FieldMatrix.zeros(0, 3), d=FieldMatrix(d),
        ))
        assert coeffs.plan.sigma is not None and coeffs.plan.sigma_diag is None
        states = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 5.0]])
        xi = np.array([[0.3, -1.2, 2.2], [-0.7, 0.4, 1.9]])
        ref = _unfolded_noise(coeffs, states, xi)
        assert coeffs.noise_batch(states, xi).tobytes() == ref.tobytes()

    def test_singular_standard_dispersion_keeps_the_solve(self):
        # a zero diagonal entry is no divisor: theta goes through the solve,
        # which reports the singular matrix
        dims = StateSpaceDims(0, 1)
        std = StandardOperatorSpec(
            dims=dims, a_hat=FieldMatrix.zeros(0, 0), b_hat=FieldVector([]),
            c_hat=FieldMatrix.zeros(0, 1), d_hat=FieldMatrix([[0.0]]),
            e_hat=FieldVector([0.5]),
        )
        sing = SingularOperatorSpec(
            dims=dims, a_diag=FieldVector([]), a_tilde=FieldMatrix.zeros(0, 0),
            b=FieldVector([]), c=FieldMatrix.zeros(0, 1), d=FieldMatrix([[1.0]]),
        )
        pair = make_girsanov_field(std, sing)
        assert pair.divisor is None
        with pytest.raises(EllipticityViolationError):
            pair.theta_batch(np.array([[0.0]]))

    def test_lattice_partials_are_differentiated_once(self, monkeypatch):
        calls = Counter()
        gradient = np.gradient

        def counting(values, *args, **kwargs):
            calls[(id(values), kwargs.get("axis"))] += 1
            return gradient(values, *args, **kwargs)

        monkeypatch.setattr(np, "gradient", counting)
        std_op = operator_from_json(dict(GIRSANOV_MODEL, a_hat=[[0.3]]))  # a^ != 0: a lattice
        pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
        cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=1.0, record="ends")
        simulate_bundle(pair.sing, Point((1.0,), ()), DomainSpec.full_space(std_op.dims),
                        cfg, theta=pair)
        assert cfg.n_steps == 100
        assert calls and max(calls.values()) == 1

    def test_lattice_weight_differentiates_each_axis_once_across_builds(self, monkeypatch):
        calls = Counter()
        gradient = np.gradient

        def counting(values, *args, **kwargs):
            calls[kwargs.get("axis")] += 1
            return gradient(values, *args, **kwargs)

        monkeypatch.setattr(np, "gradient", counting)
        sing_op = derive_singular_from_standard(
            operator_from_json(dict(VALIDATE_MODEL, a_hat=[[0.2]]))  # a^ != 0: a lattice
        )
        states = _probe_states(sing_op.dims)
        for _ in range(2):
            build_sde_coefficients(sing_op).drift_batch(states, EPS)
        assert calls == {0: 1, 1: 1}  # the weight's x and y axes


# ---------------------------------------------------------------------------
# The fold against opaque fields, and the shared dispersion root
# ---------------------------------------------------------------------------


class _Opaque(ScalarField):
    """A field that hides what it is: it delegates values and partials, but
    claims to be neither zero nor constant, so every identity term runs."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate_batch(self, states):
        return self.inner.evaluate_batch(states)

    def partial(self, axis):
        return _Opaque(self.inner.partial(axis))


def _opaque_vec(vec):
    return FieldVector([_Opaque(e) for e in vec.entries])


def _opaque_mat(mat):
    return FieldMatrix([[_Opaque(e) for e in row] for row in mat.entries], shape=mat.shape)


def _opaque_pair(std_op, sing_op):
    std = StandardOperatorSpec(
        dims=std_op.dims, a_hat=_opaque_mat(std_op.a_hat), b_hat=_opaque_vec(std_op.b_hat),
        c_hat=_opaque_mat(std_op.c_hat), d_hat=_opaque_mat(std_op.d_hat),
        e_hat=_opaque_vec(std_op.e_hat),
    )
    sing = SingularOperatorSpec(
        dims=sing_op.dims, a_diag=_opaque_vec(sing_op.a_diag),
        a_tilde=_opaque_mat(sing_op.a_tilde), b=_opaque_vec(sing_op.b),
        c=_opaque_mat(sing_op.c), d=_opaque_mat(sing_op.d),
    )
    return make_girsanov_field(std, sing)


COUPLED_PAIR = {  # n=1, m=1 with a^ and c^: a state-dependent D on both sides
    "kind": "standard", "dims": {"n": 1, "m": 1}, "a_hat": [[0.2]],
    "b_hat": [0.8], "c_hat": [[0.3]], "d_hat": [[1.0]], "e_hat": [0.1],
}
TRIG_MODEL = {  # b^ = 1 + 0.5 sin 3x: the partial of b varies, f does not fold
    "kind": "standard", "dims": {"n": 1, "m": 0},
    "b_hat": [{"family": "trig", "c0": 1.0, "amplitude": 0.5, "axis": 0, "frequency": 3.0}],
}
NEGATIVE_SLOPE = {  # f < 0 and a zero free row of f: the signs of zeros
    "kind": "standard", "dims": {"n": 1, "m": 1},
    "b_hat": [{"family": "affine", "c0": 6.0, "coeffs": [-0.2]}], "d_hat": [[1.0]],
    "e_hat": [0.3],
}


@pytest.mark.parametrize(
    "model",
    [GIRSANOV_MODEL, VALIDATE_MODEL, AFFINE_STANDARD, COUPLED_MODELS["n1m1"], COUPLED_PAIR,
     TRIG_MODEL, NEGATIVE_SLOPE],
    ids=["girsanov", "validate", "affine", "coupled", "coupled-pair", "trig", "negative-slope"],
)
def test_folded_step_matches_opaque_fields(model):
    std_op = operator_from_json(model)
    sing_op = derive_singular_from_standard(std_op)
    pair = make_girsanov_field(std_op, sing_op)
    ref = _opaque_pair(std_op, sing_op)
    assert ref.sing.plan.drift is None and ref.std.plan.sigma is None
    # f folds to one matrix exactly when its built terms are all floats
    assert ref.sing.source._f_matrix is None
    folds = sing_op._f_matrix is not None
    assert folds == (model in (GIRSANOV_MODEL, AFFINE_STANDARD, NEGATIVE_SLOPE))
    states = _probe_states(std_op.dims)
    # a large c^ makes D indefinite far out; keep the states with a root
    states = states[np.linalg.eigvalsh(std_op.diffusion_matrix(states))[:, 0] > 0.0]
    assert states[:, 0].min() == 0.0 and states[:, 0].max() >= 21.0
    log_sum = pair.sing.source.log_drift(states, EPS)
    ref_log_sum = ref.sing.source.log_drift(states, EPS)
    if log_sum is None:
        assert sing_op.b.is_constant and not ref_log_sum.any()
    else:
        assert log_sum.tobytes() == ref_log_sum.tobytes()
        assert log_sum.tobytes() == _unfolded_log_sum(sing_op, states, EPS).tobytes()
    drift = pair.sing.drift_batch(states, EPS, log_sum)
    assert drift.tobytes() == ref.sing.drift_batch(states, EPS).tobytes()
    assert drift.tobytes() == _unfolded_drift(sing_op, states, EPS).tobytes()
    assert pair.sing.drift_batch(states, EPS).tobytes() == drift.tobytes()
    theta = ref.theta_batch(states, EPS).tobytes()
    assert pair.theta_batch(states, EPS).tobytes() == theta
    # as a step calls it, with the log drift, root, drift and sqrt(x) it has
    sigma = pair.sing.sigma_batch(states)
    root_x = np.sqrt(np.maximum(states[:, :1], 0.0))
    assert pair.theta_batch(states, EPS, log_sum, sigma, drift, root_x).tobytes() == theta
    # one step, weighted and not, from the same normals
    xi = np.random.Generator(np.random.Philox(key=9)).standard_normal(states.shape)
    cfg = PathConfig(dt=1e-3, seed=0, n_paths=len(states), horizon=1.0)
    for field, ref_field in ((pair, ref), (None, None)):
        new, dlogw = advance(pair.sing, field, cfg, states, xi)
        ref_new, ref_dlogw = advance(ref.sing, ref_field, cfg, states, xi)
        assert new.tobytes() == ref_new.tobytes()
        assert (dlogw is None) == (ref_dlogw is None) == (field is None)
        if field is not None:
            assert dlogw.tobytes() == ref_dlogw.tobytes()


SINGULAR_N2M1 = {  # every coefficient of g, e and f live, n = 2 for the a~ sums
    "kind": "singular", "dims": {"n": 2, "m": 1},
    "a_diag": [{"family": "affine", "c0": 1.0, "coeffs": [0.1, 0.0, 0.05]}, 1.5],
    "a_tilde": [[0.2, {"family": "affine", "c0": 0.1, "coeffs": [0.0, 0.05, 0.0]}],
                [{"family": "affine", "c0": 0.1, "coeffs": [0.0, 0.05, 0.0]}, 0.3]],
    "b": [{"family": "affine", "c0": 0.8, "coeffs": [0.1, -0.05, 0.2]},
          {"family": "trig", "c0": 1.1, "amplitude": 0.2, "axis": 2, "frequency": 2.0}],
    "c": [[{"family": "affine", "c0": 0.3, "coeffs": [0.1, 0.0, 0.2]}], [0.0]],
    "d": [[{"family": "affine", "c0": 1.0, "coeffs": [0.0, 0.0, 0.1]}]],
}


@pytest.mark.parametrize(
    "model",
    [GIRSANOV_MODEL, VALIDATE_MODEL, AFFINE_STANDARD, COUPLED_MODELS["n1m1"], COUPLED_PAIR,
     TRIG_MODEL, NEGATIVE_SLOPE, HARNACK_MODEL, SINGULAR_N2M1],
    ids=["girsanov", "validate", "affine", "coupled", "coupled-pair", "trig", "negative-slope",
         "harnack", "singular-n2m1"],
)
def test_built_identities_match_the_reference(model):
    # the spec's built g, e and f against a term-by-term reading of the
    # formulas, with the fields as given and as opaque callables
    op = operator_from_json(model)
    if model["kind"] == "standard":
        op = derive_singular_from_standard(op)
    opaque = SingularOperatorSpec(
        dims=op.dims, a_diag=_opaque_vec(op.a_diag), a_tilde=_opaque_mat(op.a_tilde),
        b=_opaque_vec(op.b), c=_opaque_mat(op.c), d=_opaque_mat(op.d),
    )
    for spec in (op, opaque):
        states = _probe_states(spec.dims)
        for built, reference in ((drift_identity_g, reference_g), (drift_identity_e, reference_e),
                                 (drift_identity_f, reference_f)):
            assert built(spec, states).tobytes() == reference(spec, states).tobytes()


def test_state_free_f_with_a_cross_coupling_folds():
    # c != 0 and b varying only in y: f = [[c d_y b], [d d_y b]] is state-free
    op = operator_from_json({
        "kind": "singular", "dims": {"n": 1, "m": 1}, "c": [[0.25]], "d": [[1.0]],
        "b": [{"family": "affine", "c0": 0.8, "coeffs": [0.0, 0.1]}],
    })
    assert op._f_matrix.tolist() == [[0.25 * 0.1], [0.1]]
    assert not op.drift_is_constant
    ref = SingularOperatorSpec(
        dims=op.dims, a_diag=_opaque_vec(op.a_diag), a_tilde=_opaque_mat(op.a_tilde),
        b=_opaque_vec(op.b), c=_opaque_mat(op.c), d=_opaque_mat(op.d),
    )
    assert ref._f_matrix is None
    states = _probe_states(op.dims)
    states = states[np.linalg.eigvalsh(op.diffusion_matrix(states))[:, 0] > 0.0]
    assert states[:, 0].min() == 0.0
    assert op.log_drift(states, EPS).tobytes() == ref.log_drift(states, EPS).tobytes()
    xi = np.random.Generator(np.random.Philox(key=9)).standard_normal(states.shape)
    cfg = PathConfig(dt=1e-3, seed=0, n_paths=len(states), horizon=1.0)
    new, _ = advance(build_sde_coefficients(op), None, cfg, states, xi)
    ref_new, _ = advance(build_sde_coefficients(ref), None, cfg, states, xi)
    assert new.tobytes() == ref_new.tobytes()


@pytest.mark.parametrize("model", [GIRSANOV_MODEL, COUPLED_PAIR], ids=["girsanov", "coupled-pair"])
def test_weighted_step_leaves_no_reference_cycles(model):
    std_op = operator_from_json(model)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    rng = np.random.Generator(np.random.Philox(key=2))
    states = np.ones((256, std_op.dims.total))
    xi = rng.standard_normal(states.shape)
    cfg = PathConfig(dt=1e-3, seed=0, n_paths=len(states), horizon=1.0)
    gc.collect()
    gc.disable()
    try:
        for k in range(20):
            states, dlogw = advance(pair.sing, pair, cfg, states, xi, k + 1)
        assert dlogw.any() and gc.collect() == 0
    finally:
        gc.enable()


def test_one_column_log_weight_increment_has_the_einsum_bits():
    # every sign of zero and nonzero in theta and in the normal; the step
    # keeps the drop, whose negation is the increment, and passes the
    # block's normals once for several starts' rows
    values = [0.0, -0.0, 0.7, -1.3]
    th, xi = (a.reshape(-1, 1) for a in np.meshgrid(values, values + [1e-300]))
    sqdt, dt = math.sqrt(1e-3), 1e-3
    for starts in (1, 2):
        rows, sxi = np.concatenate([th, th[::-1]][:starts]), np.tile(sqdt * xi, (starts, 1))
        ref = -np.einsum("pi,pi->p", rows, sxi) - 0.5 * dt * np.einsum("pi,pi->p", rows, rows)
        drop = np.empty(len(rows))
        got = simulate._log_weight_drop(rows, sqdt * xi, dt, drop, np.empty(len(rows)))
        assert got is drop and (-drop).tobytes() == ref.tobytes()
        # a log weight lowered by the drop is the log weight plus the increment
        logw = np.linspace(-1.0, 1.0, len(rows))
        assert (logw - drop).tobytes() == (logw + ref).tobytes()


def test_weighted_girsanov_step_runs_no_drift_identity(monkeypatch):
    # f folds to one matrix and g is the lone term b at build time: the step
    # binds only that term, never a full g or f identity
    std_op = operator_from_json(GIRSANOV_MODEL)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    source = pair.sing.source
    assert source._g == [((0,), source.b[0])] and not source.b[0].is_constant
    assert source._f and source._f_matrix is not None
    seen = []
    evaluate = operators._evaluate

    def counting(terms, *args, **kwargs):
        seen.append(terms)
        return evaluate(terms, *args, **kwargs)

    monkeypatch.setattr(operators, "_evaluate", counting)
    cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=1.0, record="ends")
    bundle = simulate_bundle(pair.sing, Point((1.0,), ()), DomainSpec.full_space(std_op.dims),
                             cfg, theta=pair)
    assert bundle.log_weights[:, -1].any() and seen
    assert all(terms is source._g for terms in seen)


@pytest.mark.parametrize(
    "model, live",
    [(VALIDATE_MODEL, 0), (AFFINE_STANDARD, 0), (COUPLED_PAIR, 1)],
    ids=["folded", "affine", "coupled-pair"],
)
def test_weighted_step_assembles_the_free_drift_once(monkeypatch, model, live):
    # theta's free rows read the step's drift; a folded drift needs no e, a
    # zero e (c = 0, d free of y) has no live term to evaluate, and a coupled
    # pair's e terms are bound into the step once a group, whatever the
    # number of steps
    calls = Counter()
    evaluate = operators._evaluate
    std_op = operator_from_json(model)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))

    def counting(terms, *args, **kwargs):
        if terms is pair.sing.source._e:
            calls["e"] += 1
            calls["live"] += bool(terms)
        return evaluate(terms, *args, **kwargs)

    monkeypatch.setattr(operators, "_evaluate", counting)
    start, domain = Point((1.0,), (0.0,)), DomainSpec.full_space(std_op.dims)
    for horizon in (0.5, 1.0):
        calls.clear()
        cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=horizon, record="ends")
        simulate_bundle(pair.sing, start, domain, cfg, theta=pair)
        assert calls["live"] == live
        assert calls["e"] == (0 if model is VALIDATE_MODEL else 1)


@pytest.mark.parametrize(
    "d, zero_e",
    [(1.5, True), ({"family": "affine", "c0": 1.0, "coeffs": [0.2, 0.3]}, False)],
    ids=["constant-d", "d-varies-in-y"],
)
def test_free_drift_of_a_zero_e_has_the_identity_bits(d, zero_e):
    # c = 0: e vanishes unless d varies along y
    op = operator_from_json({
        "kind": "singular", "dims": {"n": 1, "m": 1},
        "b": [{"family": "affine", "c0": 0.5, "coeffs": [0.1, 0.05]}], "d": [[d]],
    })
    states = _probe_states(op.dims)
    e = reference_e(op, states)
    assert e.any() != zero_e
    log_sum = op.log_drift(states, EPS)
    assert op.drift(states, EPS)[:, 1:].tobytes() == (e + log_sum[:, 1:]).tobytes()
    assert op.drift(states, EPS, log_sum)[:, 1:].tobytes() == (e + log_sum[:, 1:]).tobytes()


def test_weighted_girsanov_step_evaluates_no_constant_field(monkeypatch):
    # neither the binding of a step nor its 100 replays evaluate one; the
    # group binds its one step list once
    calls = Counter()
    evaluate, bind_step = ConstantField.evaluate_batch, simulate._Lanes.bind_step

    def counting_evaluate(self, states):
        calls["evaluate_batch"] += 1
        return evaluate(self, states)

    def counting_bind_step(*args):
        calls["binds"] += 1
        return bind_step(*args)

    std_op = operator_from_json(GIRSANOV_MODEL)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    monkeypatch.setattr(ConstantField, "evaluate_batch", counting_evaluate)
    monkeypatch.setattr(simulate._Lanes, "bind_step", counting_bind_step)
    cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=1.0, record="ends")
    bundle = simulate_bundle(pair.sing, Point((1.0,), ()), DomainSpec.full_space(std_op.dims),
                             cfg, theta=pair)
    assert bundle.log_weights is not None
    assert calls["binds"] == 1
    assert calls["evaluate_batch"] == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_derived_pair_shares_its_dispersion_root(monkeypatch, threads):
    std_op = operator_from_json(COUPLED_PAIR)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    assert pair.shares_root and pair.divisor is None
    # a pair not derived from each other keeps two roots
    assert not make_girsanov_field(std_op, replace(pair.sing.source, derived_from=None)).shares_root
    calls = Counter()
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=0.5, record="all")
    start, domain = Point((1.0,), (0.0,)), DomainSpec.full_space(std_op.dims)

    def run(theta):
        calls.clear()
        bundle = simulate_bundle(theta.sing, start, domain, cfg, theta=theta, n_threads=threads)
        return bundle, calls["eigh"]

    shared, shared_calls = run(pair)
    apart, apart_calls = run(replace(pair, shares_root=False))
    assert cfg.n_steps == 50 and (shared_calls, apart_calls) == (50, 100)
    assert shared.states.tobytes() == apart.states.tobytes()
    assert shared.log_weights.tobytes() == apart.log_weights.tobytes()


def test_the_step_calls_each_kernel_entry(monkeypatch):
    # the girsanov command's pair: both lanes' drifts vary with the state, so
    # the step binds both drifts and theta through their one entry, once a
    # group; the 100 steps replay them
    std_op = operator_from_json(GIRSANOV_MODEL)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    assert pair.std.plan.drift is None and pair.sing.plan.drift is None
    calls = Counter()

    def counting(cls, name):
        kernel = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[cls.__name__, name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in [(SdeCoefficients, "drift_batch"), (StandardSdeCoefficients, "drift_batch"),
                      (GirsanovField, "theta_batch")]:
        counting(cls, name)
    cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=1.0, record="ends")
    simulate_bundle((pair.std, pair.sing), Point((1.0,), ()),
                    DomainSpec.full_space(std_op.dims), cfg, theta=pair)
    assert cfg.n_steps == 100
    assert calls == {("SdeCoefficients", "drift_batch"): 1,
                     ("StandardSdeCoefficients", "drift_batch"): 1,
                     ("GirsanovField", "theta_batch"): 1}


FOLDED_PAIR = {  # constant b^ and e^: both sides fold their drift and root
    "kind": "standard", "dims": {"n": 1, "m": 1}, "b_hat": [0.5], "d_hat": [[1.5]],
    "e_hat": [-0.3],
}


@pytest.mark.parametrize("model, folded", [
    (FOLDED_PAIR, (True, True)), (GIRSANOV_MODEL, (False, False)),
    (COUPLED_PAIR, (True, False)),  # a~ puts x into the divergence side's g
], ids=["folded", "girsanov", "coupled-pair"])
def test_each_kernel_returns_the_out_it_is_given(model, folded):
    std_op = operator_from_json(model)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    assert (pair.std.plan.drift is not None, pair.sing.plan.drift is not None) == folded
    states = _probe_states(std_op.dims)
    states = states[np.linalg.eigvalsh(std_op.diffusion_matrix(states))[:, 0] > 0.0]
    xi = np.random.Generator(np.random.Philox(key=5)).standard_normal(states.shape)

    def into(kernel, *args, **kwargs):
        out = np.full(states.shape, np.nan)
        assert kernel(*args, out=out, **kwargs) is out
        return out

    for eq in (pair.std, pair.sing):
        fresh = eq.drift_batch(states, EPS)
        assert into(eq.drift_batch, states, EPS).tobytes() == fresh.tobytes()
        assert into(eq.noise_batch, states, xi).tobytes() == eq.noise_batch(states, xi).tobytes()
    theta = pair.theta_batch(states, EPS)
    assert into(pair.theta_batch, states, EPS).tobytes() == theta.tobytes()
    # the step's route: one log drift read by the drift and by theta
    log_sum = pair.sing.source.log_drift(states, EPS)
    drift = into(pair.sing.drift_batch, states, EPS, log_sum)
    assert drift.tobytes() == pair.sing.drift_batch(states, EPS).tobytes()
    sigma = pair.sing.sigma_batch(states)
    root_x = np.sqrt(np.maximum(states[:, :1], 0.0))
    got = into(pair.theta_batch, states, EPS, log_sum, sigma, drift, root_x)
    assert got.tobytes() == theta.tobytes()


# ---------------------------------------------------------------------------
# The bound step against the eager one
# ---------------------------------------------------------------------------


def _eager_run(eqs, thetas, starts, domain, config):
    """Final states, final log weights and exit flags by lane, start and
    path: each block's normals drawn here a step at a time, stepped by a
    step bound afresh and tested for finiteness every time, from ``cur``
    into ``new``, with the freeze (coordinate by coordinate), the weight
    update and the exit test kept here."""
    lanes = simulate._Lanes(eqs, thetas, config)
    origins = np.stack([z.vector for z in starts])
    blocks = []
    for lo in range(0, config.n_paths, simulate.RNG_BLOCK):
        nb = min(simulate.RNG_BLOCK, config.n_paths - lo)
        ws = simulate._Workspace(lanes, np.repeat(origins, nb, axis=0), nb)
        rng = simulate._block_rng(config.seed, lo // simulate.RNG_BLOCK)
        dead = np.zeros(ws.alive.shape, dtype=bool)
        for k in range(1, config.n_steps + 1):
            rng.standard_normal(out=ws.xi)
            ws.step[()] = k
            lanes.bind_step(ws).run()
            lanes.check_finite(ws.out, ws)
            np.copyto(ws.new, ws.cur, where=dead[..., None])
            if ws.logw is not None:
                np.subtract(ws.logw, ws.drop, out=ws.logw, where=~dead[lanes.weighted])
            dead |= ~domain.contains_underline(ws.new)
            np.copyto(ws.cur, ws.new)
        by_start = (len(eqs), len(starts), nb)
        logw = np.zeros(by_start)
        if ws.logw is not None:
            logw[lanes.weighted] = ws.logw.reshape((-1,) + by_start[1:])
        blocks.append((ws.cur.reshape(by_start + (-1,)), logw, dead.reshape(by_start)))
    return [np.concatenate(parts, axis=2) for parts in zip(*blocks)]


def _lanes_of(name):
    """Equations and drift-change field of one row of the model matrix."""
    if name == "harnack":
        return [build_sde_coefficients(operator_from_json(HARNACK_MODEL))], None
    model = {"girsanov": GIRSANOV_MODEL, "validate": VALIDATE_MODEL, "folded": FOLDED_PAIR,
             "coupled-pair": COUPLED_PAIR, "coupled-apart": COUPLED_PAIR}[name]
    std_op = operator_from_json(model)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    if name == "coupled-apart":
        pair = replace(pair, shares_root=False)
    return [pair.std, pair.sing], pair


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", [
    "girsanov",       # both drifts unfolded, theta by divisor
    "validate",       # m = 1, a trig free drift, theta by divisor
    "folded",         # m = 1, both drifts and roots folded
    "coupled-pair",   # a state-dependent eigh root shared with theta's solve
    "coupled-apart",  # the same pair, theta solving with a root of its own
    "harnack",        # one folded lane, no theta
])
def test_bound_step_matches_the_eager_step(name, threads):
    # a full block and a 64-path block, three packed starts and exits from
    # a box, 24 steps
    eqs, theta = _lanes_of(name)
    dims = eqs[0].dims
    domain = DomainSpec.box(dims, [(0.0, 3.0)] + [(None, None)] * dims.m)
    starts = [Point((x,), (0.0,) * dims.m) for x in (0.5, 1.5, 2.8)]
    cfg = PathConfig(dt=1e-2, seed=29, n_paths=simulate.RNG_BLOCK + 64, horizon=0.24,
                     record="ends")
    thetas = [theta if theta is not None and eq is theta.sing else None for eq in eqs]
    states, logw, exited = _eager_run(eqs, thetas, starts, domain, cfg)
    bundle = simulate_bundle(eqs, starts, domain, cfg, theta=theta, n_threads=threads)
    assert exited.any() and not exited.all()
    assert bundle.exited.tobytes() == exited.tobytes()
    assert bundle.states[:, -1].tobytes() == states.tobytes()
    if theta is not None:
        assert logw.any() and bundle.log_weights[:, -1].tobytes() == logw.tobytes()


N1M2_PAIR = {  # two free coordinates: a state of 24 bytes, frozen as one row
    "kind": "standard", "dims": {"n": 1, "m": 2},
    "b_hat": [{"family": "affine", "c0": 0.6, "coeffs": [0.0, 0.1, -0.05]}],
    "d_hat": [[1.0, 0.2], [0.2, 0.5]],
    "e_hat": [0.1, {"family": "trig", "c0": 0.0, "amplitude": 0.2, "axis": 1,
                    "frequency": 1.5}],
}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_three_coordinate_box_bundle_matches_the_eager_step(threads):
    # the pair on a box bounding the first free coordinate, which most
    # exits cross, with theta solving on a root that is not diagonal
    std_op = operator_from_json(N1M2_PAIR)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    eqs = [pair.std, pair.sing]
    domain = DomainSpec.box(std_op.dims, [(0.0, 3.0), (-0.8, 0.8), (None, None)])
    starts = [Point((x,), (y, 0.0)) for x, y in ((0.5, 0.0), (1.5, 0.4), (2.8, -0.3))]
    cfg = PathConfig(dt=1e-2, seed=29, n_paths=simulate.RNG_BLOCK + 64, horizon=0.24,
                     record="ends")
    states, logw, exited = _eager_run(eqs, [None, pair], starts, domain, cfg)
    bundle = simulate_bundle(eqs, starts, domain, cfg, theta=pair, n_threads=threads)
    assert exited.any() and not exited.all()
    free_exits = np.abs(bundle.exit_state[bundle.exited, 1]) > 0.8
    assert free_exits.any() and not free_exits.all()
    assert bundle.exited.tobytes() == exited.tobytes()
    assert bundle.states[:, -1].tobytes() == states.tobytes()
    assert logw.any() and bundle.log_weights[:, -1].tobytes() == logw.tobytes()


def test_bound_kernels_run_no_entry_per_step(monkeypatch):
    # once a group has bound its step, the steps replay NumPy calls: the
    # kernels' entries are called as often for 50 steps as for 100
    calls = Counter()

    def counting(cls, name):
        entry = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[cls.__name__, name] += 1
            return entry(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    from kimura_lab.fields import AffineField

    std_op = operator_from_json(GIRSANOV_MODEL)
    pair = make_girsanov_field(std_op, derive_singular_from_standard(std_op))
    for cls, name in [(SdeCoefficients, "drift_batch"), (StandardSdeCoefficients, "drift_batch"),
                      (GirsanovField, "theta_batch"), (SingularOperatorSpec, "log_drift"),
                      (AffineField, "evaluate_into")]:
        counting(cls, name)
    counts = []
    for horizon in (0.5, 1.0):
        calls.clear()
        cfg = PathConfig(dt=1e-2, seed=3, n_paths=64, horizon=horizon, record="ends")
        simulate_bundle((pair.std, pair.sing), Point((1.0,), ()),
                        DomainSpec.full_space(std_op.dims), cfg, theta=pair)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {("SdeCoefficients", "drift_batch"),
                              ("StandardSdeCoefficients", "drift_batch"),
                              ("GirsanovField", "theta_batch"),
                              ("SingularOperatorSpec", "log_drift"),
                              ("AffineField", "evaluate_into")}
