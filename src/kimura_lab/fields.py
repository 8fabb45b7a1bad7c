"""Coefficient fields and smooth test functions on the state space.

Operator coefficients are scalar fields ``z -> R`` with derivative access.
Built-in families (constant, affine, sinusoidal in one coordinate) carry
analytic partial derivatives; arbitrary callables fall back to centered
finite differences with a step scaled by ``1 + |z_axis|``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .calls import NOW, assign
from .errors import DimensionMismatchError, InvalidMatrixError

__all__ = [
    "ScalarField",
    "ConstantField",
    "AffineField",
    "TrigField",
    "CallableField",
    "FDPartialField",
    "FieldVector",
    "FieldMatrix",
    "TestFunction",
    "SmoothBump",
    "field_from_json",
]

FD_STEP = 1e-5


class ScalarField:
    """Scalar coefficient field with batched evaluation and partials.

    ``value`` is the field's float when it is constant (what
    ``evaluate_batch`` returns at every state), else None.
    """

    is_constant = False
    is_zero = False
    value: float | None = None

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_into(self, states: np.ndarray, out: np.ndarray, *, calls=NOW) -> np.ndarray:
        """:meth:`evaluate_batch` written into ``out``, shape (...,); a
        field with no binder of its own binds that one call."""
        calls.add(assign, out, self.evaluate_batch, states)
        return out

    def partial(self, axis: int) -> "ScalarField":
        return FDPartialField(self, axis)


class ConstantField(ScalarField):
    is_constant = True

    def __init__(self, value: float):
        self.value = float(value)
        self.is_zero = self.value == 0.0

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        return np.full(states.shape[:-1], self.value)

    def partial(self, axis: int) -> ScalarField:
        return ConstantField(0.0)

    def __repr__(self) -> str:
        return f"ConstantField({self.value})"


class AffineField(ScalarField):
    """``c0 + sum_k coeffs[k] * z[k]``, summed over the nonzero coefficients in
    axis order: with one of them, the bits of ``c0 + states @ coeffs``."""

    def __init__(self, c0: float, coeffs: Sequence[float]):
        self.c0 = float(c0)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.is_zero = self.c0 == 0.0 and not self.coeffs.any()
        self.is_constant = not self.coeffs.any()
        self.value = self.c0 if self.is_constant else None
        self._terms = [(k, float(c)) for k, c in enumerate(self.coeffs) if c != 0.0]

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        return self.evaluate_into(states, np.empty(states.shape[:-1]))

    def evaluate_into(self, states: np.ndarray, out: np.ndarray, *, calls=NOW) -> np.ndarray:
        if states.shape[-1] != self.coeffs.shape[0]:
            raise DimensionMismatchError(
                f"affine field expects {self.coeffs.shape[0]} coords, "
                f"got {states.shape[-1]}"
            )
        if not self._terms:
            calls.add(np.copyto, out, self.c0)
            return out
        k, c = self._terms[0]
        calls.add(np.multiply, states[..., k], c, out)
        if len(self._terms) > 1:
            term = np.empty(out.shape)
            for k, c in self._terms[1:]:
                calls.add(np.multiply, states[..., k], c, term)
                calls.add(np.add, out, term, out)
        calls.add(np.add, out, self.c0, out)
        return out

    def partial(self, axis: int) -> ScalarField:
        return ConstantField(float(self.coeffs[axis]))

    def __repr__(self) -> str:
        return f"AffineField({self.c0}, {self.coeffs.tolist()})"


class TrigField(ScalarField):
    """``c0 + amplitude * sin(frequency * z[axis] + phase)``."""

    def __init__(self, c0: float, amplitude: float, axis: int, frequency: float,
                 phase: float = 0.0):
        self.c0 = float(c0)
        self.amplitude = float(amplitude)
        self.axis = int(axis)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.is_zero = self.c0 == 0.0 and self.amplitude == 0.0
        self.is_constant = self.amplitude == 0.0
        self.value = self.c0 if self.is_constant else None

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        return self.c0 + self.amplitude * np.sin(
            self.frequency * states[..., self.axis] + self.phase
        )

    def partial(self, axis: int) -> ScalarField:
        if axis != self.axis:
            return ConstantField(0.0)
        return TrigField(
            0.0,
            self.amplitude * self.frequency,
            self.axis,
            self.frequency,
            self.phase + math.pi / 2.0,
        )


class CallableField(ScalarField):
    """Wrap a callable that maps a (..., d) array of states to (...,) values."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(states, dtype=float)), dtype=float)

    # defined on the class, as perfbench/tracer.py times partial per class
    partial = ScalarField.partial


class FDPartialField(ScalarField):
    """Centered difference of another field; step ``FD_STEP * (1 + |z_axis|)``."""

    def __init__(self, base: ScalarField, axis: int):
        self.base = base
        self.axis = axis

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        h = FD_STEP * (1.0 + np.abs(states[..., self.axis]))
        up = states.copy()
        up[..., self.axis] += h
        dn = states.copy()
        dn[..., self.axis] -= h
        return (self.base.evaluate_batch(up) - self.base.evaluate_batch(dn)) / (2.0 * h)


def _as_field(entry) -> ScalarField:
    if isinstance(entry, ScalarField):
        return entry
    if isinstance(entry, (int, float)):
        return ConstantField(float(entry))
    if callable(entry):
        return CallableField(entry)
    raise TypeError(f"cannot interpret {entry!r} as a coefficient field")


class FieldVector:
    """Length-p vector of scalar fields."""

    def __init__(self, entries: Sequence):
        self.entries = [_as_field(e) for e in entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> ScalarField:
        return self.entries[i]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self.entries)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if not self.entries:
            return np.zeros(states.shape[:-1] + (0,))
        if len(self.entries) == 1:
            return self.entries[0].evaluate_batch(states)[..., None]
        return np.stack([e.evaluate_batch(states) for e in self.entries], axis=-1)

    @staticmethod
    def zeros(p: int) -> "FieldVector":
        return FieldVector([ConstantField(0.0)] * p)


class FieldMatrix:
    """p x q matrix of scalar fields; ``shape`` disambiguates empty blocks."""

    def __init__(self, entries: Sequence[Sequence], shape: tuple[int, int] | None = None):
        self.entries = [[_as_field(e) for e in row] for row in entries]
        inferred = (len(self.entries), len(self.entries[0]) if self.entries else 0)
        self.shape = shape if shape is not None else inferred
        if self.entries and self.shape != inferred:
            raise InvalidMatrixError(
                f"declared shape {self.shape} does not match entries {inferred}"
            )
        for row in self.entries:
            if len(row) != self.shape[1]:
                raise InvalidMatrixError("ragged coefficient matrix")

    def __getitem__(self, ij) -> ScalarField:
        i, j = ij
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for row in self.entries for e in row)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        p, q = self.shape
        if p == 0 or q == 0:
            return np.zeros(states.shape[:-1] + (p, q))
        rows = [
            np.stack([e.evaluate_batch(states) for e in row], axis=-1)
            for row in self.entries
        ]
        return np.stack(rows, axis=-2)

    @staticmethod
    def zeros(p: int, q: int) -> "FieldMatrix":
        if p == 0 or q == 0:
            return FieldMatrix([], shape=(p, q))
        return FieldMatrix([[ConstantField(0.0)] * q for _ in range(p)])

    @staticmethod
    def identity(p: int) -> "FieldMatrix":
        return FieldMatrix(
            [[ConstantField(1.0 if i == j else 0.0) for j in range(p)] for i in range(p)]
        )


# ---------------------------------------------------------------------------
# Test functions (twice differentiable scalar fields with explicit derivatives)
# ---------------------------------------------------------------------------


class TestFunction:
    """Scalar function with gradient and Hessian access.

    ``fn``, ``grad`` and ``hess`` take a batch of states (..., d) and return
    (...,), (..., d) and (..., d, d) respectively.  ``support_box`` declares a
    compact support when there is one.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, fn, grad, hess, support_box=None):
        self._fn = fn
        self._grad = grad
        self._hess = hess
        self.support_box = support_box

    def value(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(states, dtype=float)), dtype=float)

    def gradient(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self._grad(np.asarray(states, dtype=float)), dtype=float)

    def hessian(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self._hess(np.asarray(states, dtype=float)), dtype=float)


def _bump_parts(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first/second derivative of ``exp(1 - 1/(1 - s^2))`` on |s|<1."""
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 - s * s
        val = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, q, 1.0)), 0.0)
        d1 = np.where(inside, val * (-2.0 * s / q**2), 0.0)
        d2 = np.where(
            inside,
            val * (4.0 * s * s / q**4 - 2.0 / q**2 - 8.0 * s * s / q**3),
            0.0,
        )
    return val, d1, d2


class SmoothBump(TestFunction):
    """Product of one-axis bumps, compactly supported in a box.

    ``amplitude * prod_i exp(1 - 1/(1 - s_i^2))`` with ``s_i = (z_i - c_i)/r_i``;
    equals ``amplitude`` at the center and vanishes with all derivatives on the
    boundary of ``prod_i [c_i - r_i, c_i + r_i]``.
    """

    def __init__(self, center: Sequence[float], radii: Sequence[float],
                 amplitude: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        if self.radii.shape != self.center.shape or np.any(self.radii <= 0.0):
            raise ValueError("radii must be positive and match the center")
        self.amplitude = float(amplitude)
        box = [
            (c - r, c + r) for c, r in zip(self.center.tolist(), self.radii.tolist())
        ]
        super().__init__(self._value, self._gradient, self._hessian, support_box=box)

    def _parts(self, states: np.ndarray):
        s = (states - self.center) / self.radii
        return _bump_parts(s)

    def _value(self, states: np.ndarray) -> np.ndarray:
        val, _, _ = self._parts(states)
        return self.amplitude * np.prod(val, axis=-1)

    def _gradient(self, states: np.ndarray) -> np.ndarray:
        val, d1, _ = self._parts(states)
        d = states.shape[-1]
        out = np.zeros_like(states)
        for i in range(d):
            others = np.prod(np.delete(val, i, axis=-1), axis=-1) if d > 1 else 1.0
            out[..., i] = self.amplitude * others * d1[..., i] / self.radii[i]
        return out

    def _hessian(self, states: np.ndarray) -> np.ndarray:
        val, d1, d2 = self._parts(states)
        d = states.shape[-1]
        out = np.zeros(states.shape + (d,))
        for i in range(d):
            for j in range(d):
                keep = [k for k in range(d) if k != i and k != j]
                others = (
                    np.prod(val[..., keep], axis=-1) if keep else 1.0
                )
                if i == j:
                    out[..., i, i] = (
                        self.amplitude * others * d2[..., i] / self.radii[i] ** 2
                    )
                else:
                    out[..., i, j] = (
                        self.amplitude
                        * others
                        * d1[..., i]
                        * d1[..., j]
                        / (self.radii[i] * self.radii[j])
                    )
        return out


# ---------------------------------------------------------------------------
# JSON coefficient families
# ---------------------------------------------------------------------------


def field_from_json(doc, total_dims: int) -> ScalarField:
    """Build a field from {"family": "constant"|"affine"|"trig", ...}."""
    if isinstance(doc, (int, float)):
        return ConstantField(float(doc))
    family = doc.get("family") if isinstance(doc, dict) else None
    if family == "constant":
        return ConstantField(float(doc["value"]))
    if family == "affine":
        entries = doc.get("coeffs", [])
        if len(entries) > total_dims:
            raise ValueError(
                f"affine field has {len(entries)} coeffs for {total_dims} coordinates"
            )
        coeffs = np.zeros(total_dims)
        for k, v in enumerate(entries):
            coeffs[k] = float(v)
        return AffineField(float(doc.get("c0", 0.0)), coeffs)
    if family == "trig":
        axis = int(doc["axis"])
        if not 0 <= axis < total_dims:
            raise ValueError(f"trig axis {axis} outside 0..{total_dims - 1}")
        return TrigField(
            float(doc.get("c0", 0.0)),
            float(doc["amplitude"]),
            axis,
            float(doc["frequency"]),
            float(doc.get("phase", 0.0)),
        )
    raise ValueError(f"unknown coefficient family {doc!r}")

