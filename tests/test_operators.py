import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_flat_1d_free, make_sing_1d, make_std_1d

from kimura_lab.calls import Calls
from kimura_lab.errors import InvalidWeightError, NonDerivableError
from kimura_lab.fields import (
    AffineField,
    FieldMatrix,
    FieldVector,
    SmoothBump,
    TestFunction,
    TrigField,
)
from kimura_lab.geometry import DomainSpec, Point, QuadratureConfig, StateSpaceDims
from kimura_lab.operators import (
    AssumptionConstants,
    LatticeField,
    SingularOperatorSpec,
    StandardOperatorSpec,
    _form_matrix,
    apply_generator_batch,
    bilinear_form,
    derive_singular_from_standard,
    drift_identity_g,
    make_validation_grid,
    operator_from_json,
    validate_assumptions,
)


def scalar_testfn(f, d1, d2):
    """1D test function from scalar callables."""
    return TestFunction(
        fn=lambda s: f(s[..., 0]),
        grad=lambda s: d1(s[..., 0])[..., None],
        hess=lambda s: d2(s[..., 0])[..., None, None],
    )


def apply_at(op, u, z: Point) -> float:
    """The generator at one point: a one-row batch call."""
    return float(apply_generator_batch(op, u, z.vector[None, :])[0])


U_LINEAR = scalar_testfn(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
U_SQUARE = scalar_testfn(lambda x: x**2, lambda x: 2 * x, lambda x: 2 * np.ones_like(x))

# n=1, m=1 with a = 1, a~ = 0, constant b and a cross coupling c
B_COUPLED, C_COUPLED = 1.5, 0.3
SING_COUPLED = SingularOperatorSpec(
    dims=StateSpaceDims(1, 1),
    a_diag=FieldVector([1.0]),
    a_tilde=FieldMatrix.zeros(1, 1),
    b=FieldVector([B_COUPLED]),
    c=FieldMatrix([[C_COUPLED]]),
    d=FieldMatrix([[1.0]]),
)


def coupled_generator(u, states):
    """``x u_xx + 2 x c u_xy + u_yy + b u_x + b c u_y``, written out by hand."""
    g, h = u.gradient(states), u.hessian(states)
    x, b, c = states[..., 0], B_COUPLED, C_COUPLED
    return (
        x * h[..., 0, 0] + 2.0 * x * c * h[..., 0, 1] + h[..., 1, 1]
        + b * g[..., 0] + b * c * g[..., 1]
    )


class TestDrift:
    def test_singular_drift_matches_hand_written(self):
        # a = 1, a~ = 0, b = 1 + 0.2x + 0.3y, c = 0.3, d = 1:
        # g = b, f_xx = db/dx + c db/dy = 0.29, e = c b,
        # f_yx = x c db/dx + d db/dy = 0.06x + 0.3
        op = SingularOperatorSpec(
            dims=StateSpaceDims(1, 1),
            a_diag=FieldVector([1.0]),
            a_tilde=FieldMatrix.zeros(1, 1),
            b=FieldVector([AffineField(1.0, [0.2, 0.3])]),
            c=FieldMatrix([[0.3]]),
            d=FieldMatrix([[1.0]]),
        )
        rng = np.random.Generator(np.random.Philox(key=23))
        x, y = rng.uniform(0.1, 2.0, 40), rng.uniform(-1.0, 1.0, 40)
        b = 1.0 + 0.2 * x + 0.3 * y
        expected = np.column_stack(
            [b + 0.29 * x * np.log(x), 0.3 * b + (0.06 * x + 0.3) * np.log(x)]
        )
        states = np.column_stack([x, y])
        np.testing.assert_allclose(op.drift(states), expected, rtol=1e-12)


    # x = -0.0 and 0 hit the clamp, eps / 2 too; 1 gives ln x = +0.0
    LOG_PROBES = [-0.0, 0.0, 0.5e-12, 1.0, 2.0, 1e300]

    @pytest.mark.parametrize("eps", [1e-12, 0.0], ids=["clamped", "faces"])
    @pytest.mark.parametrize("slope", [0.3, -0.2, 1e-310], ids=["positive", "negative", "tiny"])
    def test_a_one_term_log_sum_is_the_einsum(self, slope, eps):
        # pins: a state-free 1x1 f is bound as its float, and the sum drops
        # einsum's + 0.0 only where no product can be -0.0: for an f > 0
        # whose product with a nonzero log cannot round to zero; at
        # x = nextafter(1, 0) a tiny f gives -0.0, which the + 0.0 mends
        op = make_sing_1d(b0=0.5, slope=slope)  # f = slope, state-free
        probes = self.LOG_PROBES + [float(np.nextafter(1.0, 0.0))]
        states = np.array(probes)[:, None]
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(states, eps))
        f = np.broadcast_to(np.array([[slope]]), (len(probes), 1, 1))
        want = np.einsum("...rj,...j->...r", f, logs)
        calls = Calls()
        got = op.log_drift(states, eps, calls=calls)
        calls.run()
        assert got.tobytes() == want.tobytes()
        assert (np.add in [c.func for c in calls]) == (slope != 0.3)
        if slope < 0:
            # ln 1 = +0.0 times a negative f is -0.0, and + 0.0 makes it +0.0
            assert got[probes.index(1.0), 0] == 0.0
            assert not np.signbit(got[probes.index(1.0), 0])


class TestApplyStandard:
    def test_first_order_only(self):
        op = make_std_1d(b0=0.7)
        assert apply_at(op, U_LINEAR, Point((0.3,), ())) == pytest.approx(0.7)

    def test_quadratic(self):
        op = make_std_1d(b0=0.7)
        x = 0.45
        # x u'' + b u' = 2x + 2 b x
        assert apply_at(op, U_SQUARE, Point((x,), ())) == pytest.approx(
            2 * x + 2 * 0.7 * x
        )

    def test_free_axis_laplacian(self):
        op = make_flat_1d_free()
        u = TestFunction(
            fn=lambda s: s[..., 0] ** 2,
            grad=lambda s: 2 * s[..., 0:1],
            hess=lambda s: 2 * np.ones(s.shape[:-1] + (1, 1)),
        )
        assert apply_at(op, u, Point((), (0.8,))) == pytest.approx(2.0)

    def test_cross_coupling_terms(self):
        # n=1, m=1 with a_hat, c_hat, e_hat all active on u = x^2 y
        dims = StateSpaceDims(1, 1)
        op = StandardOperatorSpec(
            dims=dims,
            a_hat=FieldMatrix([[0.3]]),
            b_hat=FieldVector([1.0]),
            c_hat=FieldMatrix([[0.5]]),
            d_hat=FieldMatrix([[1.0]]),
            e_hat=FieldVector([0.2]),
        )
        u = TestFunction(
            fn=lambda s: s[..., 0] ** 2 * s[..., 1],
            grad=lambda s: np.stack(
                [2 * s[..., 0] * s[..., 1], s[..., 0] ** 2], axis=-1
            ),
            hess=lambda s: np.stack(
                [
                    np.stack([2 * s[..., 1], 2 * s[..., 0]], axis=-1),
                    np.stack([2 * s[..., 0], np.zeros_like(s[..., 0])], axis=-1),
                ],
                axis=-2,
            ),
        )
        x, y = 0.4, 1.3
        expected = (
            x * 2 * y                     # x u_xx
            + 1.0 * 2 * x * y             # b_hat u_x
            + x * x * 0.3 * 2 * y         # x^2 a_hat u_xx
            + x * 0.5 * 2 * x             # x c_hat u_xy
            + 0.0                          # d_hat u_yy = 0
            + 0.2 * x * x                  # e_hat u_y
        )
        assert apply_at(op, u, Point((x,), (y,))) == pytest.approx(expected)


class TestApplySingular:
    def test_constant_weight_drops_log_terms(self):
        op = make_sing_1d(b0=0.8)
        x = 0.37
        # x u'' + b u'
        assert apply_at(op, U_SQUARE, Point((x,), ())) == pytest.approx(
            2 * x + 2 * 0.8 * x
        )

    def test_constant_function_maps_to_zero(self):
        op = make_sing_1d(b0=0.8)
        u = scalar_testfn(
            lambda x: np.full_like(x, 3.0),
            lambda x: np.zeros_like(x),
            lambda x: np.zeros_like(x),
        )
        assert apply_at(op, u, Point((0.5,), ())) == 0.0

    @pytest.mark.parametrize("x", [0.3, 0.9])
    def test_affine_weight_log_drift(self, x):
        eps = 0.1
        op = make_sing_1d(b0=1.0, slope=eps)
        # b(x) u' + x (db) ln(x) u' with u = x
        expected = (1.0 + eps * x) + x * eps * math.log(x)
        assert apply_at(op, U_LINEAR, Point((x,), ())) == pytest.approx(expected)

    def test_constant_weight_is_finite_on_the_face_without_a_clamp(self):
        # f vanishes for constant b, so the default eps = 0 takes no ln 0
        vals = apply_generator_batch(make_sing_1d(0.5), U_SQUARE, np.array([[0.0], [0.3]]))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(0.9, rel=1e-14)

    def test_clamped_batch_extends_to_boundary(self):
        op = make_sing_1d(b0=1.0, slope=0.1)
        vals = apply_generator_batch(
            op, U_LINEAR, np.array([[0.0]]), log_clamp_eps=1e-12
        )
        # x * ln x -> 0, so the drift reduces to b(0) = 1
        assert vals[0] == pytest.approx(1.0)

    def test_matches_standard_for_constant_weight(self):
        sing = make_sing_1d(b0=0.6)
        std = make_std_1d(b0=0.6)
        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(20):
            x = float(rng.uniform(0.05, 2.0))
            z = Point((x,), ())
            assert apply_at(sing, U_SQUARE, z) == pytest.approx(
                apply_at(std, U_SQUARE, z)
            )

    def test_coupled_generator_matches_hand_written(self):
        u = SmoothBump([0.6, 0.1], [0.5, 0.7])
        rng = np.random.Generator(np.random.Philox(key=22))
        states = np.column_stack([rng.uniform(0.2, 1.0, 40), rng.uniform(-0.4, 0.6, 40)])
        np.testing.assert_allclose(
            apply_generator_batch(SING_COUPLED, u, states),
            coupled_generator(u, states),
            rtol=1e-12,
        )


class TestValidation:
    def test_identity_model_passes_with_unit_floor(self):
        op = make_sing_1d(b0=0.7)
        grid = make_validation_grid(op.dims, points_per_axis=9)
        report = validate_assumptions(op, grid)
        assert report.passed
        assert report.form_min == pytest.approx(1.0)
        assert report.inferred.delta == pytest.approx(1.0)
        assert report.inferred.b_bar == pytest.approx(0.7)

    def test_asymmetric_block_fails(self):
        dims = StateSpaceDims(0, 2)
        op = StandardOperatorSpec(
            dims=dims,
            a_hat=FieldMatrix.zeros(0, 0),
            b_hat=FieldVector([]),
            c_hat=FieldMatrix.zeros(0, 2),
            d_hat=FieldMatrix([[1.0, 0.3], [0.0, 1.0]]),
            e_hat=FieldVector.zeros(2),
        )
        grid = make_validation_grid(dims, points_per_axis=5)
        report = validate_assumptions(op, grid)
        assert not report.passed
        assert any(
            c.name == "symmetry:d_hat" and not c.passed for c in report.checks
        )

    def test_near_degenerate_form_detected(self):
        dims = StateSpaceDims(2, 0)
        op = SingularOperatorSpec(
            dims=dims,
            a_diag=FieldVector([1.0, 1.0]),
            a_tilde=FieldMatrix([[0.0, 0.99], [0.99, 0.0]]),
            b=FieldVector([1.0, 1.0]),
            c=FieldMatrix.zeros(2, 0),
            d=FieldMatrix.zeros(0, 0),
        )
        grid = np.array([[1.0, 1.0], [0.5, 0.5]])
        report = validate_assumptions(
            op, grid, constants=AssumptionConstants(0.1, 3.0, 0.5)
        )
        assert report.form_min == pytest.approx(0.01, abs=1e-12)
        assert not report.passed

    def test_monotone_under_grid_shrink(self):
        op = make_sing_1d(b0=0.7)
        grid = make_validation_grid(op.dims, points_per_axis=9)
        sub = grid[::3]
        full = validate_assumptions(op, grid)
        small = validate_assumptions(op, sub)
        assert full.passed
        assert small.passed
        assert small.form_min >= full.form_min - 1e-15

    def test_coupled_form_matches_the_symbol(self):
        # the symbol x xi^2 + x c^ xi eta + eta^2 has the scale-free ratio
        # G_xy^2 / (G_xx G_yy) = x c^^2 / 4; a derived model has the same form
        std = operator_from_json(
            {"kind": "standard", "dims": {"n": 1, "m": 1}, "b_hat": [1.0], "c_hat": [[0.5]]}
        )
        sing = derive_singular_from_standard(
            std, lattice_box=[(0.0, 1.0), (-1.0, 1.0)], lattice_spacing=0.125
        )
        x = 0.49
        forms = [_form_matrix(op, np.array([[x, 0.3]]))[0] for op in (std, sing)]
        for G in forms:
            ratio = G[0, 1] ** 2 / (G[0, 0] * G[1, 1])
            assert ratio == pytest.approx(x * 0.5**2 / 4.0, rel=1e-12)
        np.testing.assert_allclose(forms[0], forms[1], rtol=1e-15)


def bump_testfn_1d(center=0.5, radius=0.4):
    return SmoothBump([center], [radius])


class TestBilinearForm:
    def test_zero_gradient_gives_zero(self):
        op = make_sing_1d(b0=1.0)
        dom = DomainSpec.box(op.dims, [(0.0, 2.0)])
        u = TestFunction(
            fn=lambda s: np.ones(s.shape[:-1]),
            grad=lambda s: np.zeros_like(s),
            hess=lambda s: np.zeros(s.shape + (1,)),
            support_box=[(0.0, 1.0)],
        )
        assert bilinear_form(op, u, u, dom) == pytest.approx(0.0)

    def test_polynomial_bump_closed_form(self):
        # u = x^2 (1-x)^2 on [0, 1]; integral of x u'^2 dx = 1/105
        op = make_sing_1d(b0=1.0)
        dom = DomainSpec.box(op.dims, [(0.0, 2.0)])
        u = TestFunction(
            fn=lambda s: np.where(
                (s[..., 0] >= 0) & (s[..., 0] <= 1),
                s[..., 0] ** 2 * (1 - s[..., 0]) ** 2,
                0.0,
            ),
            grad=lambda s: np.where(
                (s[..., 0] >= 0) & (s[..., 0] <= 1),
                2 * s[..., 0] * (1 - s[..., 0]) * (1 - 2 * s[..., 0]),
                0.0,
            )[..., None],
            hess=lambda s: np.zeros(s.shape + (1,)),
            support_box=[(0.0, 1.0)],
        )
        q = bilinear_form(op, u, u, dom, QuadratureConfig(512))
        assert q == pytest.approx(1.0 / 105.0, rel=1e-5)

    def test_symmetry_and_positivity(self):
        op = make_sing_1d(b0=1.5)
        dom = DomainSpec.box(op.dims, [(0.0, 2.0)])
        u = bump_testfn_1d(0.6, 0.35)
        v = bump_testfn_1d(0.8, 0.3)
        quv = bilinear_form(op, u, v, dom, QuadratureConfig(256))
        qvu = bilinear_form(op, v, u, dom, QuadratureConfig(256))
        assert quv == pytest.approx(qvu, rel=1e-12)
        assert bilinear_form(op, u, u, dom, QuadratureConfig(256)) > 0.0
        assert bilinear_form(op, v, v, dom, QuadratureConfig(256)) > 0.0

    def test_integration_by_parts_identity(self):
        # -(Lu, v) against the weighted measure equals the energy form
        b0 = 1.5
        op = make_sing_1d(b0=b0)
        dom = DomainSpec.box(op.dims, [(0.0, 2.0)])
        u = bump_testfn_1d(0.55, 0.35)
        v = bump_testfn_1d(0.65, 0.3)

        def integrand(x):
            s = np.array([[x]])
            lu = (
                x * u.hessian(s)[0, 0, 0] + b0 * u.gradient(s)[0, 0]
            )
            return -lu * v.value(s)[0] * x ** (b0 - 1.0)

        lhs, _ = quad(integrand, 0.2, 1.0, limit=200)
        rhs = bilinear_form(op, u, v, dom, QuadratureConfig(512))
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_coupled_integration_by_parts_identity(self):
        # the same identity with a cross coupling; both supports stay in x > 0.25
        dom = DomainSpec.box(SING_COUPLED.dims, [(0.0, 2.0), (-1.0, 1.0)])
        u = SmoothBump([0.6, 0.1], [0.35, 0.5])
        v = SmoothBump([0.7, -0.1], [0.3, 0.45])

        # tensor Gauss-Legendre over the intersection of the supports
        nodes, weights = np.polynomial.legendre.leggauss(64)
        (x0, x1), (y0, y1) = (0.4, 0.95), (-0.4, 0.35)
        x = 0.5 * (x1 - x0) * (nodes + 1.0) + x0
        y = 0.5 * (y1 - y0) * (nodes + 1.0) + y0
        s = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
        w = np.outer(weights, weights).ravel() * 0.25 * (x1 - x0) * (y1 - y0)
        integrand = -coupled_generator(u, s) * v.value(s) * s[:, 0] ** (B_COUPLED - 1.0)
        lhs = float(np.sum(w * integrand))
        rhs = bilinear_form(SING_COUPLED, u, v, dom, QuadratureConfig(256))
        assert lhs == pytest.approx(rhs, rel=1e-5)


# models with a != 1 and a non-constant b, so that f carries its a_ii factor
IBP_MODELS = {
    "a2-affine-b": SingularOperatorSpec(
        dims=StateSpaceDims(1, 0), a_diag=FieldVector([2.0]),
        a_tilde=FieldMatrix.zeros(1, 1), b=FieldVector([AffineField(1.0, [0.3])]),
        c=FieldMatrix.zeros(1, 0), d=FieldMatrix.zeros(0, 0),
    ),
    "affine-a-trig-b": SingularOperatorSpec(
        dims=StateSpaceDims(1, 0), a_diag=FieldVector([AffineField(1.5, [0.5])]),
        a_tilde=FieldMatrix.zeros(1, 1), b=FieldVector([TrigField(1.0, 0.3, 0, 2.0)]),
        c=FieldMatrix.zeros(1, 0), d=FieldMatrix.zeros(0, 0),
    ),
    "n1m1": SingularOperatorSpec(
        dims=StateSpaceDims(1, 1), a_diag=FieldVector([1.7]),
        a_tilde=FieldMatrix([[0.2]]), b=FieldVector([AffineField(1.0, [0.3, 0.2])]),
        c=FieldMatrix([[0.1]]), d=FieldMatrix([[1.0]]),
    ),
}


@pytest.mark.parametrize("name", sorted(IBP_MODELS))
def test_generator_integrates_by_parts_against_the_energy_form(name):
    # int (L u) v dmu = -Q(u, v) for bumps inside x > 0, with L applied by
    # apply_generator_batch: the log drift must be that of (1/w) div(w A)
    op = IBP_MODELS[name]
    if op.dims.m == 0:
        u, v = SmoothBump([0.55], [0.35]), SmoothBump([0.65], [0.3])
        box, pts = [(0.35, 0.9)], 512
        dom = DomainSpec.box(op.dims, [(0.0, 2.0)])
    else:
        u, v = SmoothBump([0.6, 0.1], [0.35, 0.5]), SmoothBump([0.7, -0.1], [0.3, 0.45])
        box, pts = [(0.4, 0.95), (-0.4, 0.35)], 128
        dom = DomainSpec.box(op.dims, [(0.0, 2.0), (-1.0, 1.0)])
    # tensor Gauss-Legendre over the intersection of the supports
    nodes, weights = np.polynomial.legendre.leggauss(64)
    axes = [0.5 * (hi - lo) * (nodes + 1.0) + lo for lo, hi in box]
    s = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
    w = np.ones(())
    for lo, hi in box:
        w = np.multiply.outer(w, 0.5 * (hi - lo) * weights)
    density = s[:, 0] ** (op.b.evaluate_batch(s)[:, 0] - 1.0)
    lhs = float(np.sum(w.ravel() * apply_generator_batch(op, u, s) * v.value(s) * density))
    rhs = -bilinear_form(op, u, v, dom, QuadratureConfig(pts))
    assert lhs == pytest.approx(rhs, rel=1e-6)


class TestDeriveSingular:
    def test_identity_when_no_couplings(self):
        std = make_std_1d(b0=1.0, slope=0.2)
        sing = derive_singular_from_standard(std)
        xs = np.linspace(0.0, 6.0, 31)[:, None]  # includes extrapolation range
        got = sing.b.evaluate_batch(xs)[:, 0]
        assert np.allclose(got, 1.0 + 0.2 * xs[:, 0], atol=1e-12)
        # derivative of the solved weight is the affine slope everywhere
        dgot = sing.b[0].partial(0).evaluate_batch(xs)
        assert np.allclose(dgot, 0.2, atol=1e-9)

    def test_scalar_coupling_solve(self):
        a1 = 0.3
        std = make_std_1d(b0=1.0, a_hat=a1)
        sing = derive_singular_from_standard(std)
        # b (1 + a1 x) = b_hat - x * a1  on the lattice
        xs = np.linspace(0.0, 3.9, 17)[:, None]
        expected = (1.0 - a1 * xs[:, 0]) / (1.0 + a1 * xs[:, 0])
        got = sing.b.evaluate_batch(xs)[:, 0]
        assert np.allclose(got, expected, atol=2e-4)
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", ["1d", "coupled-n1m1"])
    def test_round_trip_drift_identity_at_nodes(self, model):
        if model == "1d":
            std = make_std_1d(b0=1.0, a_hat=0.3)
        else:
            # a^ varies with x and c^ with y, so every term of the identity,
            # 1/2 d_y c^ included, is nonzero
            std = StandardOperatorSpec(
                dims=StateSpaceDims(1, 1),
                a_hat=FieldMatrix([[AffineField(0.3, [0.1, 0.0])]]),
                b_hat=FieldVector([AffineField(1.0, [0.2, 0.1])]),
                c_hat=FieldMatrix([[AffineField(0.2, [0.0, 0.15])]]),
                d_hat=FieldMatrix([[1.0]]),
                e_hat=FieldVector([0.0]),
            )
        sing = derive_singular_from_standard(std)
        axes = [a[::8] for a in sing.b[0].axes]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        g = drift_identity_g(sing, nodes)
        b_hat = std.b_hat.evaluate_batch(nodes)
        assert np.max(np.abs(g - b_hat)) < 1e-10
        if model == "coupled-n1m1":
            # the scalar identity solved by hand: b (1 + x a^) = b^ - x (a^
            # + x d_x a^ + 1/2 d_y c^), with d_x a^ = 0.1 and d_y c^ = 0.15
            x, y = nodes[:, 0], nodes[:, 1]
            a_hat = 0.3 + 0.1 * x
            b_hat = 1.0 + 0.2 * x + 0.1 * y
            expected = (b_hat - x * (a_hat + 0.1 * x + 0.075)) / (1.0 + x * a_hat)
            assert np.max(np.abs(sing.b.evaluate_batch(nodes)[:, 0] - expected)) < 1e-10

    def test_weight_floor_violation_raises(self):
        std = make_std_1d(b0=0.2)
        std = StandardOperatorSpec(
            dims=std.dims,
            a_hat=std.a_hat,
            b_hat=std.b_hat,
            c_hat=std.c_hat,
            d_hat=std.d_hat,
            e_hat=std.e_hat,
            constants=AssumptionConstants(1.0, 2.0, 0.5),
        )
        with pytest.raises(InvalidWeightError):
            derive_singular_from_standard(std)

    def test_oversized_default_lattice_raises_before_building(self):
        # the default box at spacing 1/64 gives an n=1, m=2 model
        # 257 * 513^2 nodes, about 1.6 GB of node states; a^ != 0 needs them
        std = operator_from_json({
            "kind": "standard", "dims": {"n": 1, "m": 2}, "a_hat": [[0.2]],
            "b_hat": [0.5], "d_hat": [[1.0, 0.0], [0.0, 1.0]], "e_hat": [0.0, 0.0],
        })
        with pytest.raises(NonDerivableError, match=str(257 * 513 * 513)):
            derive_singular_from_standard(std)

    def test_exact_weight_model_too_large_for_the_lattice_derives(self):
        # the same n=1, m=2 model with a^ = 0 needs no lattice: b is b^, and
        # the floor is checked at the 513^2 nodes of the face x = 0
        std = operator_from_json({
            "kind": "standard", "dims": {"n": 1, "m": 2},
            "b_hat": [0.5], "d_hat": [[1.0, 0.0], [0.0, 1.0]], "e_hat": [0.0, 0.0],
            "constants": {"delta": 0.5, "K": 5.0, "b_bar": 0.5},
        })
        sing = derive_singular_from_standard(std)
        assert sing.b[0] is std.b_hat[0]
        assert sing.derived_from is std

    def test_exact_weight_is_the_trig_field_itself(self):
        # a lattice read this b at x = 6 as 3.22 (exact 0.62) and at x = 21
        # as 21.9 (exact 1.08)
        trig = TrigField(1.0, 0.5, 0, 3.0)
        std = StandardOperatorSpec(
            dims=StateSpaceDims(1, 0), a_hat=FieldMatrix.zeros(1, 1),
            b_hat=FieldVector([trig]), c_hat=FieldMatrix.zeros(1, 0),
            d_hat=FieldMatrix.zeros(0, 0), e_hat=FieldVector([]),
        )
        sing = derive_singular_from_standard(std)
        xs = np.linspace(0.0, 25.0, 1001)[:, None]
        x = xs[:, 0]
        assert np.max(np.abs(sing.b[0].evaluate_batch(xs) - (1.0 + 0.5 * np.sin(3.0 * x)))) < 1e-12
        db = sing.b[0].partial(0).evaluate_batch(xs)
        assert np.max(np.abs(db - 1.5 * np.cos(3.0 * x))) < 1e-12

    def test_exact_weight_carries_the_cross_slope(self):
        # a^ = 0, c^ = 0.2 + 0.15 y: b = b^ - x/2 * 0.15, and g reproduces b^
        # everywhere, far outside the old solve box included
        b_hat = AffineField(1.0, [0.2, 0.1])
        std = StandardOperatorSpec(
            dims=StateSpaceDims(1, 1), a_hat=FieldMatrix.zeros(1, 1),
            b_hat=FieldVector([b_hat]),
            c_hat=FieldMatrix([[AffineField(0.2, [0.0, 0.15])]]),
            d_hat=FieldMatrix([[1.0]]), e_hat=FieldVector([0.0]),
        )
        sing = derive_singular_from_standard(std)
        rng = np.random.Generator(np.random.Philox(key=41))
        z = np.column_stack([rng.uniform(0.0, 25.0, 500), rng.uniform(-10.0, 10.0, 500)])
        z[:2] = [[0.0, -10.0], [25.0, 10.0]]
        x, y = z[:, 0], z[:, 1]
        expected = 1.0 + 0.2 * x + 0.1 * y - 0.075 * x
        assert np.max(np.abs(sing.b[0].evaluate_batch(z) - expected)) < 1e-12
        assert np.max(np.abs(sing.b[0].partial(0).evaluate_batch(z) - 0.125)) < 1e-12
        assert np.max(np.abs(sing.b[0].partial(1).evaluate_batch(z) - 0.1)) < 1e-12
        g = drift_identity_g(sing, z)[:, 0]
        assert np.max(np.abs(g - b_hat.evaluate_batch(z))) < 1e-12

    def test_exact_weight_floor_is_checked_off_the_axis(self):
        # b^ = 1 + 0.2 y meets the floor 0.5 at y = 0 but falls to 0.2 at
        # y = -4 on the face x = 0
        std = StandardOperatorSpec(
            dims=StateSpaceDims(1, 1), a_hat=FieldMatrix.zeros(1, 1),
            b_hat=FieldVector([AffineField(1.0, [0.0, 0.2])]),
            c_hat=FieldMatrix.zeros(1, 1), d_hat=FieldMatrix([[1.0]]),
            e_hat=FieldVector([0.0]), constants=AssumptionConstants(0.5, 5.0, 0.5),
        )
        with pytest.raises(InvalidWeightError, match="0.2"):
            derive_singular_from_standard(std)
        ok = replace(std, b_hat=FieldVector([AffineField(1.0, [0.0, 0.1])]))
        derive_singular_from_standard(ok)  # 0.6 at y = -4

    def test_lattice_field_affine_exact_with_extrapolation(self):
        axes = [np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)]
        g = np.meshgrid(*axes, indexing="ij")
        values = 1.0 + 2.0 * g[0] - 0.5 * g[1]
        f = LatticeField(axes, values)
        pts = np.array([[0.31, 0.17], [1.8, -2.3], [-0.2, 0.4]])
        assert np.allclose(
            f.evaluate_batch(pts), 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
        )
        assert np.allclose(f.partial(0).evaluate_batch(pts), 2.0)

    def test_lattice_field_extrapolates_a_runaway_state_from_the_near_end(self):
        # pins: the cell index is clipped before its cast to int, so a state
        # past the int range takes the last cell, with no invalid-cast warning
        axes = [np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)]
        g = np.meshgrid(*axes, indexing="ij")
        f = LatticeField(axes, 1.0 + 2.0 * g[0] - 0.5 * g[1])
        pts = np.array([[1e30, 0.3], [0.5, -1e30]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.evaluate_batch(pts)
        want = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_operator_from_json_builds_and_evaluates():
    doc = {
        "kind": "standard",
        "dims": {"n": 1, "m": 0},
        "b_hat": [{"family": "affine", "c0": 1.0, "coeffs": [0.2]}],
        "constants": {"delta": 1.0, "K": 5.0, "b_bar": 0.5},
    }
    op = operator_from_json(doc)
    assert isinstance(op, StandardOperatorSpec)
    assert op.b_hat.evaluate_batch(np.array([[2.0]]))[0, 0] == pytest.approx(1.4)
    assert op.constants.b_bar == 0.5
    doc2 = {
        "kind": "singular",
        "dims": {"n": 1, "m": 0},
        "b": [{"family": "constant", "value": 0.5}],
    }
    op2 = operator_from_json(doc2)
    assert isinstance(op2, SingularOperatorSpec)
    assert op2.a_diag.evaluate_batch(np.array([[0.3]]))[0, 0] == 1.0
