import numpy as np
import pytest

from kimura_lab.calls import Calls, numpy_only
from kimura_lab.fields import (
    AffineField,
    CallableField,
    ConstantField,
    FieldMatrix,
    FieldVector,
    SmoothBump,
    TrigField,
)


def fd_gradient(fn, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for i in range(len(z)):
        up = z.copy()
        up[i] += h
        dn = z.copy()
        dn[i] -= h
        out[i] = (fn(up[None, :])[0] - fn(dn[None, :])[0]) / (2 * h)
    return out


def test_affine_partials_exact():
    f = AffineField(1.0, [0.2, -0.5])
    z = np.array([[0.3, 1.2]])
    assert f.evaluate_batch(z)[0] == pytest.approx(1.0 + 0.06 - 0.6)
    assert f.partial(0).evaluate_batch(z)[0] == 0.2
    assert f.partial(1).evaluate_batch(z)[0] == -0.5


def test_trig_partial_is_cosine():
    f = TrigField(0.5, 2.0, axis=1, frequency=3.0, phase=0.1)
    z = np.array([[0.0, 0.7]])
    d = f.partial(1).evaluate_batch(z)[0]
    assert d == pytest.approx(2.0 * 3.0 * np.cos(3.0 * 0.7 + 0.1))
    assert f.partial(0).evaluate_batch(z)[0] == 0.0


@pytest.mark.parametrize("field, value", [
    (ConstantField(0.7), 0.7), (AffineField(-1.5, [0.0, 0.0]), -1.5),
    (TrigField(0.25, 0.0, axis=1, frequency=3.0), 0.25),
    (AffineField(1.0, [0.0, 0.1]), None), (TrigField(0.0, 1.0, axis=0, frequency=1.0), None),
    (CallableField(lambda s: s[..., 0]), None),
])
def test_value_is_the_float_of_a_constant_field(field, value):
    # the drift identities read a constant field as this float
    assert field.value == value and field.is_constant == (value is not None)
    if value is not None:
        z = np.array([[0.3, -4.0], [7.0, 2.5]])
        assert np.all(field.evaluate_batch(z) == value)


def test_fd_partial_matches_analytic():
    f = TrigField(0.0, 1.0, axis=0, frequency=2.0)
    from kimura_lab.fields import FDPartialField

    fd = FDPartialField(f, 0)
    z = np.array([[0.4]])
    assert fd.evaluate_batch(z)[0] == pytest.approx(
        f.partial(0).evaluate_batch(z)[0], rel=1e-8
    )


def test_matrix_and_vector_stacks():
    m = FieldMatrix([[1.0, 0.0], [0.0, 2.0]])
    z = np.zeros((3, 2))
    vals = m.evaluate_batch(z)
    assert vals.shape == (3, 2, 2)
    assert np.allclose(vals[0], [[1.0, 0.0], [0.0, 2.0]])
    v = FieldVector([AffineField(0.0, [1.0, 0.0]), 3.0])
    out = v.evaluate_batch(np.array([[2.0, 5.0]]))
    assert np.allclose(out, [[2.0, 3.0]])
    assert FieldMatrix.zeros(2, 2).is_zero
    assert not m.is_zero


def test_bump_support_and_center_value():
    bump = SmoothBump([1.0, 0.0], [0.5, 1.0], amplitude=2.0)
    z = np.array([[1.0, 0.0], [1.5, 0.0], [1.49, 0.0]])
    vals = bump.value(z)
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == 0.0
    assert vals[2] > 0.0
    assert bump.support_box == [(0.5, 1.5), (-1.0, 1.0)]


def test_bump_gradient_matches_fd():
    bump = SmoothBump([1.0, 0.2], [0.5, 0.8])
    z = np.array([0.8, -0.1])
    grad = bump.gradient(z[None, :])[0]
    assert np.allclose(grad, fd_gradient(bump.value, z), atol=1e-7)


def test_bump_hessian_matches_fd():
    bump = SmoothBump([1.0], [0.6])
    z = np.array([[1.2]])
    h = 1e-5
    val = lambda x: bump.value(np.array([[x]]))[0]
    fd2 = (val(1.2 + h) - 2 * val(1.2) + val(1.2 - h)) / h**2
    assert bump.hessian(z)[0, 0, 0] == pytest.approx(fd2, rel=1e-4)
    # cross term of a 2d bump
    bump2 = SmoothBump([0.0, 0.0], [1.0, 1.0])
    z2 = np.array([0.3, -0.4])
    g = lambda x, y: bump2.value(np.array([[x, y]]))[0]
    fd_cross = (
        g(0.3 + h, -0.4 + h) - g(0.3 + h, -0.4 - h)
        - g(0.3 - h, -0.4 + h) + g(0.3 - h, -0.4 - h)
    ) / (4 * h * h)
    assert bump2.hessian(z2[None, :])[0, 0, 1] == pytest.approx(fd_cross, rel=1e-4)


def test_bump_vanishes_smoothly_at_edge():
    bump = SmoothBump([0.0], [1.0])
    edge = np.array([[0.999999], [1.0], [1.2]])
    assert np.all(bump.value(edge) < 1e-6)
    assert np.all(np.abs(bump.gradient(edge)) < 1e-3)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_affine_with_one_coefficient_has_the_matmul_bits(axis):
    coeffs = np.zeros(3)
    coeffs[axis] = -0.37
    states = np.random.default_rng(axis).normal(size=(2, 50, 3)) * 10.0
    field = AffineField(1.25, coeffs)
    assert field.evaluate_batch(states).tobytes() == (1.25 + states @ coeffs).tobytes()


def test_affine_with_several_coefficients_is_within_an_ulp_of_matmul():
    coeffs = np.array([0.2, 0.0, 1.7, 0.05])
    states = np.random.default_rng(7).uniform(0.0, 30.0, size=(500, 4))
    out = AffineField(0.8, coeffs).evaluate_batch(states)
    np.testing.assert_array_max_ulp(out, 0.8 + states @ coeffs, maxulp=1)


def test_affine_with_zero_coefficients_is_its_constant_in_the_batch_shape():
    states = np.full((3, 4, 2), np.inf)  # no coordinate is read
    out = AffineField(-0.6, [0.0, 0.0]).evaluate_batch(states)
    assert out.shape == (3, 4) and np.all(out == -0.6)


def test_one_entry_vector_keeps_a_trailing_axis():
    entry = AffineField(0.5, [1.0, 2.0])
    states = np.arange(24.0).reshape(3, 4, 2)
    out = FieldVector([entry]).evaluate_batch(states)
    assert out.shape == (3, 4, 1)
    assert out[..., 0].tobytes() == entry.evaluate_batch(states).tobytes()


@pytest.mark.parametrize("field, closed_form", [
    (TrigField(0.1, 0.3, 1, 1.5, 0.2), lambda s: 0.1 + 0.3 * np.sin(1.5 * s[..., 1] + 0.2)),
    (ConstantField(0.7), lambda s: np.full(s.shape[:-1], 0.7)),
], ids=["trig", "constant"])
def test_a_field_binds_into_a_column_as_numpy_calls(field, closed_form):
    # bound into a strided column, as a drift writes each entry, the field
    # is NumPy calls alone, which give the bytes of its closed form
    states = 3.0 * np.random.default_rng(11).normal(size=(257, 2))
    out = np.full((257, 3), np.nan)
    calls = Calls()
    assert field.evaluate_into(states, out[:, 1], calls=calls) is not None
    assert numpy_only(calls) and np.isnan(out).all()
    calls.run()
    assert out[:, 1].tobytes() == closed_form(states).tobytes()
    assert field.evaluate_batch(states).tobytes() == closed_form(states).tobytes()
