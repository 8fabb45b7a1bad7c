"""Shared model builders for the test suite."""

import numpy as np
import pytest

from kimura_lab.fields import AffineField, ConstantField, FieldMatrix, FieldVector
from kimura_lab.geometry import DomainSpec, Point, StateSpaceDims
from kimura_lab.operators import SingularOperatorSpec, StandardOperatorSpec
from kimura_lab.sde import build_sde_coefficients, build_standard_sde_coefficients
from kimura_lab.simulate import _Lanes, _Workspace


def make_std_1d(b0=0.5, slope=0.0, a_hat=0.0):
    """1D standard model with drift weight b0 + slope * x."""
    dims = StateSpaceDims(1, 0)
    b_field = (
        ConstantField(b0) if slope == 0.0 else AffineField(b0, [slope])
    )
    return StandardOperatorSpec(
        dims=dims,
        a_hat=FieldMatrix([[ConstantField(a_hat)]]),
        b_hat=FieldVector([b_field]),
        c_hat=FieldMatrix.zeros(1, 0),
        d_hat=FieldMatrix.zeros(0, 0),
        e_hat=FieldVector([]),
    )


def make_sing_1d(b0=0.5, slope=0.0):
    """1D divergence-form model (a=1, no couplings) with the same weights."""
    dims = StateSpaceDims(1, 0)
    b_field = (
        ConstantField(b0) if slope == 0.0 else AffineField(b0, [slope])
    )
    return SingularOperatorSpec(
        dims=dims,
        a_diag=FieldVector([ConstantField(1.0)]),
        a_tilde=FieldMatrix.zeros(1, 1),
        b=FieldVector([b_field]),
        c=FieldMatrix.zeros(1, 0),
        d=FieldMatrix.zeros(0, 0),
    )


def make_flat_1d_free():
    """Pure free-coordinate model (n=0, m=1) with unit coefficient."""
    dims = StateSpaceDims(0, 1)
    return StandardOperatorSpec(
        dims=dims,
        a_hat=FieldMatrix.zeros(0, 0),
        b_hat=FieldVector([]),
        c_hat=FieldMatrix.zeros(0, 1),
        d_hat=FieldMatrix([[ConstantField(1.0)]]),
        e_hat=FieldVector([ConstantField(0.0)]),
    )


def advance(coeffs, theta, config, states, xi, k=1):
    """One step of the rows ``states`` on the normals ``xi``, one per row,
    through a bundle's own step: ``(new states, log-weight increments)``,
    the increments None without ``theta``."""
    lanes = _Lanes([coeffs], [theta], config)
    ws = _Workspace(lanes, np.asarray(states, dtype=float), len(xi))
    ws.xi[...] = xi
    ws.step[()] = k
    lanes.bind_step(ws).run()
    lanes.check_finite(ws.out, ws)
    return ws.new[0], None if theta is None else -ws.drop[0]


def mean_se(x):
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))


@pytest.fixture(scope="session")
def std_half():
    return make_std_1d(0.5)


@pytest.fixture(scope="session")
def sing_half():
    return make_sing_1d(0.5)


@pytest.fixture(scope="session")
def coeffs_std_half(std_half):
    return build_standard_sde_coefficients(std_half)


@pytest.fixture(scope="session")
def coeffs_sing_half(sing_half):
    return build_sde_coefficients(sing_half)


@pytest.fixture(scope="session")
def full_1d():
    return DomainSpec.full_space(StateSpaceDims(1, 0))


@pytest.fixture(scope="session")
def origin_1d():
    return Point((0.0,), ())
