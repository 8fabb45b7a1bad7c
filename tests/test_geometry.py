import json
import math

import numpy as np
import pytest

from conftest import make_sing_1d, make_std_1d

from kimura_lab.density import GridSpec, _cell_measures, estimate_density
from kimura_lab.errors import (
    DimensionMismatchError,
    InvalidHarnackParametersError,
    InvalidWeightError,
)
from kimura_lab.fields import TestFunction
from kimura_lab.geometry import (
    DomainSpec,
    MetricBall,
    Point,
    QuadratureConfig,
    StateSpaceDims,
    WeightedMeasure,
    ball_box,
    coordinate_distance,
    coordinate_interval,
    cylinder_sets,
    mu_ball,
    mu_ball_comparator,
    mu_box,
    rho,
    rho_batch,
)
from kimura_lab.operators import bilinear_form
from kimura_lab.sde import build_standard_sde_coefficients
from kimura_lab.simulate import PathConfig, simulate_bundle


def p1(x):
    return Point((x,), ())


class TestIntrinsicDistance:
    def test_boundary_branch(self):
        assert rho(p1(0.0), p1(0.04)) == pytest.approx(0.2)

    def test_identity(self):
        assert rho(p1(0.3), p1(0.3)) == 0.0

    def test_euclidean_branch(self):
        assert rho(p1(2.0), p1(3.0)) == pytest.approx(1.0)

    def test_mixed_branch_goes_through_one(self):
        # additive path: (1 - sqrt(0.25)) + (1.5 - 1)
        assert rho(p1(0.25), p1(1.5)) == pytest.approx(0.5 + 0.5)

    def test_free_coordinates_are_euclidean(self):
        z0 = Point((), (0.0, 1.0))
        z1 = Point((), (0.3, -0.2))
        assert rho(z0, z1) == pytest.approx(1.2)

    def test_max_over_axes(self):
        z0 = Point((0.0,), (0.0,))
        z1 = Point((0.04,), (0.5,))
        assert rho(z0, z1) == pytest.approx(0.5)

    def test_symmetry_and_positivity_randomized(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(200):
            a = Point(tuple(rng.uniform(0, 3, 2)), tuple(rng.uniform(-2, 2, 1)))
            b = Point(tuple(rng.uniform(0, 3, 2)), tuple(rng.uniform(-2, 2, 1)))
            d_ab = rho(a, b)
            assert d_ab == pytest.approx(rho(b, a))
            if a != b:
                assert d_ab > 0.0

    def test_triangle_inequality_up_to_factor_two(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        vals = rng.uniform(0, 3, size=(500, 3))
        for a, b, c in vals:
            lhs = coordinate_distance(a, c)
            rhs = coordinate_distance(a, b) + coordinate_distance(b, c)
            assert lhs <= 2.0 * rhs + 1e-12

    def test_sqrt_agreement_inside_unit_interval(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        a = rng.uniform(0, 1, 100)
        b = rng.uniform(0, 1, 100)
        assert coordinate_distance(a, b) == pytest.approx(
            np.abs(np.sqrt(a) - np.sqrt(b))
        )

    def test_batch_matches_scalar(self):
        z0 = Point((0.5,), (1.0,))
        states = np.array([[0.1, 0.0], [2.0, 1.5], [0.5, 1.0]])
        batch = rho_batch(z0, states)
        for k in range(3):
            z = Point((states[k, 0],), (states[k, 1],))
            assert batch[k] == pytest.approx(rho(z0, z))

    def test_interval_inverts_distance(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        for _ in range(300):
            a = float(rng.uniform(0, 3))
            r = float(rng.uniform(0.01, 1.5))
            lo, hi = coordinate_interval(a, r)
            assert lo >= 0.0
            assert coordinate_distance(a, hi) == pytest.approx(r, abs=1e-12)
            if lo > 0.0:
                assert coordinate_distance(a, lo) == pytest.approx(r, abs=1e-12)
            else:
                assert coordinate_distance(a, 0.0) <= r + 1e-12

    def test_ball_box_is_the_ball(self):
        ball = MetricBall(Point((0.25,), (1.0,)), 0.3)
        box = ball_box(ball)
        rng = np.random.Generator(np.random.Philox(key=15))
        pts = np.column_stack(
            [rng.uniform(0, 2, 400), rng.uniform(0, 2, 400)]
        )
        inside_box = np.all(
            [(pts[:, i] > box[i][0]) & (pts[:, i] < box[i][1]) for i in range(2)],
            axis=0,
        )
        inside_ball = ball.contains_batch(pts)
        assert np.array_equal(inside_box, inside_ball)
        # a ball domain is that box's comparisons
        dom = DomainSpec.ball(StateSpaceDims(1, 1), ball.center, ball.radius)
        assert np.array_equal(dom.contains_underline(pts), inside_ball)


class TestWeightedMeasure:
    # the weighted measure has density prod_i x_i^(b_i - 1) against Lebesgue
    def test_flat_weight_density_is_one(self):
        m = WeightedMeasure.constant(StateSpaceDims(2, 1), [1.0, 1.0])
        box = [(0.2, 0.4), (1.5, 2.5), (0.5, 1.5)]
        assert mu_box(m, box) == pytest.approx(0.2, rel=1e-12)

    def test_linear_weight(self):
        m = WeightedMeasure.constant(StateSpaceDims(1, 0), [2.0])
        # int_0.16^0.36 x dx
        assert mu_box(m, [(0.16, 0.36)]) == pytest.approx(0.052, rel=1e-6)

    def test_two_axis_product(self):
        m = WeightedMeasure.constant(StateSpaceDims(2, 0), [0.5, 3.0])
        # int_0.16^0.36 x^-0.5 dx * int_1.5^2.5 x^2 dx = 0.4 * 49 / 12
        assert mu_box(m, [(0.16, 0.36), (1.5, 2.5)]) == pytest.approx(
            0.4 * 49.0 / 12.0, rel=1e-6
        )

    def test_interior_flat_ball_is_lebesgue_length(self):
        m = WeightedMeasure.constant(StateSpaceDims(1, 0), [1.0])
        ball = MetricBall(p1(2.0), 0.5)
        assert mu_ball(m, ball) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("b0,r", [(0.5, 0.1), (0.5, 0.3), (2.0, 0.2)])
    def test_boundary_ball_closed_form(self, b0, r):
        # ball around x0=0 is [0, r^2); integral of x^(b-1) is r^(2b)/b
        m = WeightedMeasure.constant(StateSpaceDims(1, 0), [b0])
        ball = MetricBall(p1(0.0), r)
        assert mu_ball(m, ball) == pytest.approx(r ** (2 * b0) / b0, rel=1e-5)

    def test_free_axis_ball(self):
        m = WeightedMeasure.constant(StateSpaceDims(0, 1), [])
        ball = MetricBall(Point((), (0.0,)), 1.0)
        assert mu_ball(m, ball) == pytest.approx(2.0, rel=1e-9)

    def test_quadrature_richardson_second_order(self):
        dims = StateSpaceDims(1, 0)
        m = WeightedMeasure(
            lambda s: 1.5 + 0.2 * s[..., :1], dims
        )
        ball = MetricBall(p1(0.5), 0.2)
        vals = [
            mu_ball(m, ball, QuadratureConfig(k)) for k in (32, 64, 128)
        ]
        ratio = (vals[1] - vals[0]) / (vals[2] - vals[1])
        assert 3.5 <= ratio <= 4.5

    def test_comparator_flat_weight_interior(self):
        m = WeightedMeasure.constant(StateSpaceDims(1, 1), [1.0])
        ball = MetricBall(Point((0.5,), (0.0,)), 0.05)
        # boundary index set empty for x0 above the crossover radius
        assert mu_ball_comparator(m, ball) == pytest.approx(0.05**2)

    def test_comparator_flat_weight_boundary_matches_true_measure(self):
        # at x0 = 0 with unit weight the true measure is 2 r^(m+n+1)
        m = WeightedMeasure.constant(StateSpaceDims(1, 1), [1.0])
        ball = MetricBall(Point((0.0,), (0.0,)), 0.05)
        comp = mu_ball_comparator(m, ball)
        assert comp == pytest.approx(0.05**3)
        assert mu_ball(m, ball) == pytest.approx(2.0 * 0.05**3, rel=1e-5)

    def test_comparator_boundary_value(self):
        m = WeightedMeasure.constant(StateSpaceDims(1, 0), [0.75])
        ball = MetricBall(p1(0.0), 0.1)
        assert mu_ball_comparator(m, ball) == pytest.approx(0.1**1.5)

    def test_comparator_skips_interior_axes(self):
        m = WeightedMeasure.constant(StateSpaceDims(1, 1), [2.0])
        ball = MetricBall(Point((1.0,), (0.0,)), 0.1)
        # x0 = 1 > r0, index set empty
        assert mu_ball_comparator(m, ball, r0=0.5) == pytest.approx(0.01)

    def test_sandwich_two_decades(self):
        # two-sided comparator across radii for constant and varying weights
        dims = StateSpaceDims(1, 0)
        measures = [
            WeightedMeasure.constant(dims, [0.5]),
            WeightedMeasure.constant(dims, [2.0]),
            WeightedMeasure(lambda s: 1.0 + 0.2 * s[..., :1], dims),
        ]
        rng = np.random.Generator(np.random.Philox(key=16))
        C = 10.0
        for m in measures:
            for _ in range(20):
                r = float(10 ** rng.uniform(-2, 0) * 0.9)
                x0 = float(rng.uniform(0.0, 2.0))
                ball = MetricBall(p1(x0), r)
                ratio = mu_ball(m, ball, QuadratureConfig(256)) / mu_ball_comparator(
                    m, ball
                )
                assert 1.0 / C <= ratio <= C

    @pytest.mark.parametrize("integrate", ["mu_box", "bilinear_form", "estimate_density"])
    def test_mu_box_rejects_nonintegrable_weight(self, integrate):
        # every integral against mu runs the same check at the degenerate face
        dims = StateSpaceDims(1, 0)
        m = WeightedMeasure.constant(dims, [-0.2])
        if integrate == "mu_box":
            call = lambda: mu_box(m, [(0.0, 1.0)], QuadratureConfig(64))
        elif integrate == "bilinear_form":
            u = TestFunction(
                fn=lambda s: s[..., 0],
                grad=lambda s: np.ones_like(s),
                hess=lambda s: np.zeros(s.shape + (1,)),
            )
            op = make_sing_1d(b0=-0.2)
            dom = DomainSpec.box(dims, [(0.0, 1.0)])
            call = lambda: bilinear_form(op, u, u, dom, QuadratureConfig(64))
        else:
            coeffs = build_standard_sde_coefficients(make_std_1d(b0=0.5))
            cfg = PathConfig(dt=0.05, seed=3, n_paths=16, horizon=0.1)
            bundle = simulate_bundle(coeffs, p1(0.5), DomainSpec.full_space(dims), cfg)
            grid = GridSpec(box=((0.0, 1.0),), cells_per_axis=4)
            call = lambda: estimate_density(bundle, 0.1, grid, measure=m)
        with pytest.raises(InvalidWeightError):
            call()

    def test_density_cells_sum_to_mu_box(self):
        # b = 1/2 and b = 1 make the chart integrand constant and linear, where
        # the midpoint rule is exact on any partition (x-uniform cells are not
        # u-uniform), so the cells must add up to the box to rounding
        m = WeightedMeasure.constant(StateSpaceDims(2, 1), [0.5, 1.0])
        box = ((0.0, 2.0), (0.3, 1.7), (-1.0, 0.5))
        cell_mu = _cell_measures(m, GridSpec(box=box, cells_per_axis=4).edges())
        assert cell_mu.shape == (4, 4, 4)
        total = mu_box(m, box, QuadratureConfig(8))
        assert cell_mu.sum() == pytest.approx(total, rel=1e-9)
        assert total == pytest.approx(2.0 * math.sqrt(2.0) * 1.4 * 1.5, rel=1e-9)


class TestCylinders:
    def test_rejects_small_d(self):
        # alpha = 8/(3 * 0.81) = 3.2922 <= beta = 3.5
        with pytest.raises(InvalidHarnackParametersError):
            cylinder_sets(1.0, p1(1.0), 0.1, 0.9, math.sqrt(0.5))

    def test_rejects_large_d(self):
        # d^2 = 1.35 is never below max(1, 4 - 8/(3 c^2)) for c < 1
        for c in (0.85, 0.95, 0.999):
            with pytest.raises(InvalidHarnackParametersError):
                cylinder_sets(1.0, p1(1.0), 0.1, c, math.sqrt(1.35))

    def test_rejects_c_out_of_range(self):
        with pytest.raises(InvalidHarnackParametersError):
            cylinder_sets(1.0, p1(1.0), 0.1, 0.7, 0.9)
        with pytest.raises(InvalidHarnackParametersError):
            cylinder_sets(1.0, p1(1.0), 0.1, 1.0, 0.9)

    def test_valid_pair_geometry(self):
        s, radius = 1.0, 0.1
        c, d2 = 0.9, 0.8
        q_minus, q_plus = cylinder_sets(s, p1(1.0), radius, c, math.sqrt(d2))
        alpha = 8.0 / (3.0 * c * c)
        assert alpha == pytest.approx(3.292181069958848)
        beta = 4.0 - d2
        assert alpha > beta
        assert q_minus.t_lo == pytest.approx(s - alpha * radius**2)
        assert q_minus.t_hi == pytest.approx(s - beta * radius**2)
        assert q_plus.t_lo == pytest.approx(s)
        assert q_plus.t_hi == pytest.approx(s + d2 * radius**2)
        # disjoint in time, same spatial ball
        assert q_minus.t_hi < q_plus.t_lo
        assert q_minus.ball == q_plus.ball

    def test_valid_pairs_always_ordered(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        found = 0
        for _ in range(200):
            c = float(rng.uniform(math.sqrt(2 / 3) + 1e-3, 0.999))
            d2 = float(rng.uniform(0.05, 1.4))
            try:
                q_minus, q_plus = cylinder_sets(0.5, p1(1.0), 0.05, c, math.sqrt(d2))
            except InvalidHarnackParametersError:
                continue
            found += 1
            assert q_minus.t_hi <= q_plus.t_lo
        assert found > 10


class TestDomains:
    def test_box_membership_and_underline(self):
        dims = StateSpaceDims(1, 1)
        dom = DomainSpec.box(dims, [(0.0, 2.0), (-1.0, 1.0)])
        assert dom.contains(Point((0.5,), (0.0,)))
        assert not dom.contains(Point((0.0,), (0.0,)))
        # degenerate face belongs to the underline set
        assert dom.contains_point_underline(Point((0.0,), (0.0,)))
        assert not dom.contains_point_underline(Point((2.0,), (0.0,)))
        assert not dom.contains_point_underline(Point((0.5,), (1.0,)))

    def test_box_with_positive_floor_has_no_degenerate_face(self):
        dom = DomainSpec.box(StateSpaceDims(1, 0), [(0.5, 2.0)])
        assert not dom.contains_point_underline(p1(0.5))

    def test_full_space_never_exits(self):
        dom = DomainSpec.full_space(StateSpaceDims(1, 1))
        pts = np.array([[0.0, -50.0], [1e9, 3.0]])
        assert dom.contains_underline(pts).all()
        assert dom.exit_test is None

    @pytest.mark.parametrize("builder, can_exit", [
        (lambda: DomainSpec.full_space(StateSpaceDims(2, 1)), False),
        (lambda: DomainSpec.box(StateSpaceDims(1, 1), [(0.0, None), (None, None)]), False),
        (lambda: DomainSpec.from_json(DomainSpec.full_space(StateSpaceDims(1, 0)).to_json()),
         False),
        (lambda: DomainSpec.box(StateSpaceDims(1, 0), [(0.0, 4.0)]), True),
        # a positive floor on a degenerate axis is an exit boundary
        (lambda: DomainSpec.box(StateSpaceDims(1, 0), [(0.5, None)]), True),
        (lambda: DomainSpec.box(StateSpaceDims(1, 1), [(0.0, None), (-1.0, None)]), True),
        (lambda: DomainSpec.ball(StateSpaceDims(1, 0), p1(1.0), 0.5), True),
        (lambda: DomainSpec.halfspace_intersection(
            StateSpaceDims(0, 2), [[1.0, 0.0]], [1.5], [(None, None), (None, None)]), True),
    ])
    def test_exit_boundary_is_set_by_the_constructor(self, builder, can_exit):
        assert (builder().exit_test is not None) is can_exit

    def test_ball_domain(self):
        dims = StateSpaceDims(1, 0)
        dom = DomainSpec.ball(dims, p1(1.0), 0.5)
        assert dom.contains(p1(1.2))
        assert not dom.contains(p1(1.6))

    def test_ball_domain_stays_inside_its_bounding_box(self):
        dims = StateSpaceDims(1, 1)
        dom = DomainSpec.ball(dims, Point((1.0,), (0.0,)), 0.5,
                              bounding_box=[(None, 1.2), (-0.1, None)])
        assert dom.bounding_box == ((0.25, 1.2), (-0.1, 0.5))
        pts = np.array([[1.1, 0.0], [1.3, 0.0], [1.0, -0.2], [1.0, 0.4]])
        assert dom.contains_underline(pts).tolist() == [True, False, False, True]
        assert dom.exit_test(pts).tolist() == [True, False, False, True]
        # a box of another length would leave an axis untested
        with pytest.raises(DimensionMismatchError):
            DomainSpec.ball(dims, Point((1.0,), (0.0,)), 0.5, bounding_box=[(None, None)])
        with pytest.raises(DimensionMismatchError):
            DomainSpec.ball(dims, Point((1.0,), ()), 0.5)

    def test_halfspace_intersection(self):
        dims = StateSpaceDims(0, 2)
        dom = DomainSpec.halfspace_intersection(
            dims, [[1.0, 1.0]], [1.0], [(-2.0, 2.0), (-2.0, 2.0)]
        )
        assert dom.contains(Point((), (0.2, 0.2)))
        assert not dom.contains(Point((), (0.8, 0.8)))

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: DomainSpec.box(StateSpaceDims(1, 1), [(0.0, 4.0), (-1.0, 1.0)]),
            lambda: DomainSpec.ball(StateSpaceDims(1, 0), p1(1.0), 0.5),
            lambda: DomainSpec.halfspace_intersection(
                StateSpaceDims(0, 2), [[1.0, 0.0]], [1.5], [(-2.0, 2.0), (-2.0, 2.0)]
            ),
            lambda: DomainSpec.full_space(StateSpaceDims(2, 1)),
        ],
    )
    def test_json_roundtrip(self, builder):
        dom = builder()
        doc = dom.to_json()
        json.loads(doc)  # valid JSON
        back = DomainSpec.from_json(doc)
        assert back.dims == dom.dims
        assert back.shape == dom.shape
        rng = np.random.Generator(np.random.Philox(key=18))
        pts = np.column_stack(
            [np.abs(rng.uniform(-1, 3, 50)) for _ in range(dom.dims.n)]
            + [rng.uniform(-3, 3, 50) for _ in range(dom.dims.m)]
        )
        assert np.array_equal(dom.membership(pts), back.membership(pts))
        assert np.array_equal(
            dom.contains_underline(pts), back.contains_underline(pts)
        )

    def test_ball_json_takes_the_intrinsic_metric_only(self):
        doc = json.loads(DomainSpec.ball(StateSpaceDims(1, 0), p1(1.0), 0.5).to_json())
        assert "metric" not in doc
        for extra in ({}, {"metric": "intrinsic"}):
            assert DomainSpec.from_json({**doc, **extra}).params == {
                "center": [1.0], "radius": 0.5}
        # a Euclidean ball must not run as the intrinsic box
        with pytest.raises(ValueError, match="euclidean"):
            DomainSpec.from_json({**doc, "metric": "euclidean"})


def test_rho_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rho(Point((0.5,), ()), Point((0.5,), (1.0,)))
