import math

import numpy as np
import pytest

from kimura_lab.errors import InvalidHarnackParametersError
from kimura_lab.geometry import Point, StateSpaceDims, cylinder_sets
from kimura_lab.harnack import (
    LatticeSpec,
    _cylinder_nodes,
    chain_count,
    chain_count_bound,
    chain_geometry,
    harnack_ratio,
    memoize_estimator,
    node_key,
    scale_invariant_scan,
)
from kimura_lab.oracle import gaussian_reference


class FakeEstimate:
    def __init__(self, value, stderr=0.0):
        self.value = value
        self.stderr = stderr


def exact_estimator(fn):
    return lambda nodes: [FakeEstimate(fn(t, z)) for t, z in nodes]


class TestChainGeometry:
    def test_first_step_closed_form(self):
        g = chain_geometry(1.0, 1)
        assert (g.alpha_k, g.beta_k, g.gamma_k) == (0.75, 0.5, 0.5)

    def test_limits(self):
        g = chain_geometry(2.0, 60)
        assert g.alpha_k == pytest.approx(4.0)
        assert g.beta_k == pytest.approx(8.0 / 3.0)
        assert g.gamma_k == pytest.approx(2.0)

    def test_identities_randomized(self):
        rng = np.random.Generator(np.random.Philox(key=91))
        for _ in range(100):
            r = float(rng.uniform(0.05, 5.0))
            k = int(rng.integers(1, 41))
            g = chain_geometry(r, k)
            assert g.alpha_k == (1.0 - 0.25**k) * r * r
            assert g.beta_k == pytest.approx((2.0 / 3.0) * (1.0 - 0.25**k) * r * r)
            assert g.gamma_k == (1.0 - 0.5**k) * r
            assert g.alpha_k > g.beta_k

    def test_chain_count_example(self):
        assert chain_count(0.9, 1.0) == 4

    def test_chain_count_satisfies_conditions(self):
        rng = np.random.Generator(np.random.Philox(key=92))
        for _ in range(100):
            r = float(rng.uniform(0.1, 3.0))
            rho = float(rng.uniform(0.01, 0.999)) * r
            k0 = chain_count(rho, r)
            assert (1.0 - 0.5**k0) * r >= rho
            assert (1.0 - 0.25**k0) * r * r >= rho * rho
            if k0 > 1:
                assert not (
                    (1.0 - 0.5 ** (k0 - 1)) * r >= rho
                    and (1.0 - 0.25 ** (k0 - 1)) * r * r >= rho * rho
                )

    def test_logarithmic_bound(self):
        rng = np.random.Generator(np.random.Philox(key=93))
        for _ in range(100):
            r = float(rng.uniform(0.1, 3.0))
            rho = float(rng.uniform(0.01, 0.999)) * r
            assert chain_count(rho, r) <= chain_count_bound(rho, r)


class TestRatioProbes:
    def test_constant_solution_has_unit_ratio(self):
        u = exact_estimator(lambda t, z: 1.0)
        rep = harnack_ratio(u, 1.0, Point((1.0,), ()), 0.2)
        assert rep.ratio == 1.0
        assert rep.flag == ""

    def test_time_windows_end_at_t0_and_two_r_squared_before(self):
        t0, r = 1.0, 0.4
        t_end = 1.0 - 2.0 * 0.4 * 0.4
        doc = harnack_ratio(exact_estimator(lambda t, z: 1.0), t0, Point((0.5,), ()), r).to_json()
        assert doc["sup_time_window"] == [t_end - 0.16, t_end]
        assert doc["inf_time_window"] == [1.0 - 0.16, 1.0]

    def test_flat_kernel_solution_finite_ratio(self):
        # caloric function for the unit-variance flat model
        dims = StateSpaceDims(0, 1)

        def u(t, z):
            return float(
                np.atleast_1d(
                    gaussian_reference(1, t + 0.5, np.array([0.0]), z.vector)
                )[0]
            )

        rep = harnack_ratio(exact_estimator(u), 1.0, Point((), (0.5,)), 0.3,
                            LatticeSpec(4, 7))
        assert math.isfinite(rep.ratio)
        assert rep.ratio > 1.0
        # the earlier window sits closer to the source time, hence larger sup
        assert rep.sup_value > rep.inf_value

    def test_refinement_monotone_for_deterministic_solution(self):
        def u(t, z):
            return float(
                np.atleast_1d(
                    gaussian_reference(1, t + 0.5, np.array([0.0]), z.vector)
                )[0]
            )

        lat = LatticeSpec(3, 5)
        fine = lat.refine()
        coarse_rep = harnack_ratio(exact_estimator(u), 1.0, Point((), (0.5,)),
                                   0.3, lat)
        fine_rep = harnack_ratio(exact_estimator(u), 1.0, Point((), (0.5,)),
                                 0.3, fine)
        assert fine_rep.sup_value >= coarse_rep.sup_value - 1e-15
        assert fine_rep.inf_value <= coarse_rep.inf_value + 1e-15
        assert fine_rep.ratio >= coarse_rep.ratio - 1e-12

    def test_noise_floor_flags_unbounded(self):
        u = exact_estimator(lambda t, z: 0.0)
        # an inf of 0 with stderr 0 does not clear three stderr
        rep = harnack_ratio(u, 1.0, Point((1.0,), ()), 0.2)
        assert math.isinf(rep.ratio)
        assert rep.flag == "unbounded-at-this-resolution"

    def test_scan_constant_solution(self):
        u = exact_estimator(lambda t, z: 2.5)
        reports = scale_invariant_scan(
            u, 0.5, Point((1.0,), ()), 0.25, 0.9, math.sqrt(0.8),
            [0.02, 0.05, 0.09],
        )
        assert all(rep.ratio == pytest.approx(1.0) for rep in reports)

    def test_scan_affine_solution_ratios_decrease_to_one(self):
        # u = 1 + 0.1 y is caloric for the flat model; ratios shrink with rho
        def u(t, z):
            return 1.0 + 0.1 * z.vector[0]

        reports = scale_invariant_scan(
            exact_estimator(u), 0.5, Point((), (0.0,)), 0.25, 0.9,
            math.sqrt(0.8), [0.18, 0.09, 0.02],
        )
        ratios = [rep.ratio for rep in reports]
        assert all(math.isfinite(r) and r >= 1.0 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(1.0, abs=0.01)

    def test_scan_rejects_bad_parameters(self):
        u = exact_estimator(lambda t, z: 1.0)
        with pytest.raises(InvalidHarnackParametersError):
            scale_invariant_scan(
                u, 0.5, Point((1.0,), ()), 0.25, 0.9, math.sqrt(0.5), [0.05]
            )
        with pytest.raises(ValueError):
            scale_invariant_scan(
                u, 0.5, Point((1.0,), ()), 0.25, 0.9, math.sqrt(0.8), [0.5]
            )

    def test_memoization_reuses_nodes(self):
        calls = []

        def u(t, z):
            calls.append((t, tuple(z.vector)))
            return FakeEstimate(1.0)

        memo = memoize_estimator(u)

        def u_nodes(nodes):
            return [memo(t, z) for t, z in nodes]

        rep1 = harnack_ratio(u_nodes, 1.0, Point((1.0,), ()), 0.2)
        n1 = len(calls)
        rep2 = harnack_ratio(u_nodes, 1.0, Point((1.0,), ()), 0.2)
        assert len(calls) == n1
        assert rep1.ratio == rep2.ratio

    @pytest.mark.parametrize("lattice", [LatticeSpec(), LatticeSpec().refine()])
    def test_scan_nodes_are_the_memoized_misses_in_order(self, lattice):
        # one scan per radius through a shared memo misses each node once, in
        # the order the combined scan asks for its batch
        misses = []

        def u(t, z):
            misses.append((t, z))
            return FakeEstimate(1.0 + z.vector[0] - t)

        memo = memoize_estimator(u)
        head = (0.5, Point((1.0,), ()), 0.25, 0.9, math.sqrt(0.8))
        rhos = [0.02, 0.05, 0.09]
        per_rho = [
            rep
            for rho in rhos
            for rep in scale_invariant_scan(
                lambda nodes: [memo(t, z) for t, z in nodes], *head, [rho], lattice
            )
        ]
        batches = []

        def u_nodes(nodes):
            batches.append(nodes)
            return [FakeEstimate(1.0 + z.vector[0] - t) for t, z in nodes]

        reports = scale_invariant_scan(u_nodes, *head, rhos, lattice)
        assert len(batches) == 1
        assert [(t, z.vector.tolist()) for t, z in batches[0]] == [
            (t, z.vector.tolist()) for t, z in misses
        ]
        assert reports == per_rho

    @pytest.mark.parametrize("lattice", [LatticeSpec(), LatticeSpec().refine()])
    def test_scan_asks_once_for_its_distinct_nodes_in_first_ask_order(self, lattice):
        s, z, R, c, d = 0.5, Point((1.0,), ()), 0.25, 0.9, math.sqrt(0.8)
        rhos = [0.02, 0.05, 0.09]
        expected: dict = {}
        first = []  # position of each cylinder's first node among the distinct ones
        for rho in rhos:
            for cyl in cylinder_sets(s, z, rho, c, d):
                cyl_nodes = list(_cylinder_nodes(cyl, lattice))
                for t, p in cyl_nodes:
                    expected.setdefault(node_key(t, p), (t, p))
                first.append(list(expected).index(node_key(*cyl_nodes[0])))
        calls = []

        def u_nodes(nodes):
            calls.append(nodes)
            # equal values everywhere: ties keep the cylinder's first node
            return [FakeEstimate(1.0, stderr=float(i)) for i in range(len(nodes))]

        reports = scale_invariant_scan(u_nodes, s, z, R, c, d, rhos, lattice)
        assert len(calls) == 1
        assert [(t, p.vector.tolist()) for t, p in calls[0]] == [
            (t, p.vector.tolist()) for t, p in expected.values()
        ]
        assert [(rep.sup_stderr, rep.inf_stderr) for rep in reports] == [
            (float(first[2 * i]), float(first[2 * i + 1])) for i in range(len(rhos))
        ]
