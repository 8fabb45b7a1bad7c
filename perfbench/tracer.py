"""Layer spans for one kimura-lab CLI process, installed from outside the package.

The tracer replaces the public functions and methods of each module with
wrappers that time every call.  A layer's self time is its spans' duration
minus the part covered by the wrapped calls it makes, so the self times of
all layers add up to the duration of the outermost span, ``cli.main``.
Counters are read from call arguments and return values after the span has
closed; the time spent reading them is booked to the ``trace`` layer, so it
is neither hidden in a parent's self time nor lost from the sum.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute path) for every wrapped callable.  Class
# methods are wrapped where the class defines them, so subclasses that
# inherit a method are covered by the base class entry.
_FIELD_CLASSES = (
    "ConstantField", "AffineField", "TrigField", "CallableField", "FDPartialField",
    "FieldVector", "FieldMatrix",
)
_PARTIAL_CLASSES = ("ScalarField", "ConstantField", "AffineField", "TrigField", "CallableField")

SPANS = (
    [("cli.main", "cli", "main")]
    + [("fields.evaluate_batch", "fields", f"{c}.evaluate_batch") for c in _FIELD_CLASSES]
    + [("fields.partial", "fields", f"{c}.partial") for c in _PARTIAL_CLASSES]
    + [
        ("operators.drift_identity", "operators", "drift_identity_g"),
        ("operators.drift_identity", "operators", "drift_identity_e"),
        ("operators.drift_identity", "operators", "drift_identity_f"),
        ("operators.lattice_eval", "operators", "LatticeField.evaluate_batch"),
        ("operators.lattice_partial", "operators", "LatticeField.partial"),
        ("operators.derive", "operators", "derive_singular_from_standard"),
        ("sde.drift_batch", "sde", "SdeCoefficients.drift_batch"),
        ("sde.drift_batch", "sde", "StandardSdeCoefficients.drift_batch"),
        ("sde.sigma_batch", "sde", "SdeCoefficients.sigma_batch"),
        ("sde.sigma_batch", "sde", "StandardSdeCoefficients.sigma_batch"),
        ("sde.theta_batch", "sde", "GirsanovField.theta_batch"),
        ("sde.build", "sde", "build_sde_coefficients"),
        ("sde.build", "sde", "build_standard_sde_coefficients"),
        ("sde.build", "sde", "make_girsanov_field"),
        ("simulate.simulate_bundle", "simulate", "simulate_bundle"),
        ("feynman_kac.estimate", "feynman_kac", "estimate_semigroup"),
        ("feynman_kac.estimate", "feynman_kac", "estimate_dirichlet"),
        ("feynman_kac.estimate", "feynman_kac", "estimate_inhomogeneous"),
        ("feynman_kac.estimate", "feynman_kac", "estimate_probabilistic_solution"),
        ("harnack.scan", "harnack", "scale_invariant_scan"),
        ("harnack.scan", "harnack", "harnack_ratio"),
        ("oracle.besq_transition_mass", "oracle", "besq_transition_mass"),
    ]
)

# Spans whose inclusive time is reported: set-up work with nested layers.
INCLUSIVE = {"operators.derive": "operators.derive_s", "sde.build": "sde.build_s"}


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "kimura_lab" or name.startswith("kimura_lab.")]


def rebind(original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``.

    The CLI and the estimators import functions by name, so patching only the
    defining module would miss their calls.
    """
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Tracer:
    """Span and counter store for one process; ``report()`` summarises it."""

    def __init__(self) -> None:
        self._stack: list[float] = []  # per open span: time covered by children
        self._spans: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s, depth]
        self.counts: Counter = Counter()

    def span(self, name: str) -> list:
        return self._spans.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name, fn, inspect=None):
        """Return ``fn`` timed as span ``name``; ``inspect(args, kwargs, result)``
        runs after the span closes and is booked to the ``trace`` layer."""
        stack, acc, perf = self._stack, self.span(name), time.perf_counter
        trace_acc = self.span("trace")
        inclusive = name in INCLUSIVE

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            acc[3] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                acc[0] += 1
                acc[1] += dur - stack.pop()
                acc[3] -= 1
                if inclusive and not acc[3]:
                    acc[2] += dur
                if stack:
                    stack[-1] += dur
            if inspect is not None:
                t1 = perf()
                inspect(args, kwargs, result)
                spent = perf() - t1
                trace_acc[1] += spent
                if stack:
                    stack[-1] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__dict__.update(getattr(fn, "__dict__", {}))
        return wrapper

    # -- counters read at the layer boundaries --------------------------------

    def _on_bundle(self, args, kwargs, bundle) -> None:
        config = kwargs["config"] if "config" in kwargs else args[3]
        self.counts["simulate.path_steps"] += config.n_paths * config.n_steps
        self.counts["paths"] += bundle.n_paths
        self.counts["paths_exited"] += int(np.count_nonzero(bundle.exited))

    def _on_lattice_eval(self, args, kwargs, result) -> None:
        field, states = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["states"])
        flat = states.reshape(-1, states.shape[-1])
        his = np.array([a[-1] for a in field.axes])
        outside = np.any((flat < field.los) | (flat > his), axis=1)
        self.counts["lattice_states"] += flat.shape[0]
        self.counts["lattice_outside"] += int(np.count_nonzero(outside))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import kimura_lab.cli  # noqa: F401  (imports every traced module)
        from kimura_lab import geometry, harnack

        inspectors = {
            "simulate.simulate_bundle": self._on_bundle,
            "operators.lattice_eval": self._on_lattice_eval,
        }
        for name, module, path in SPANS:
            mod = sys.modules[f"kimura_lab.{module}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr] if owner_name else getattr(mod, attr)
            wrapped = self.wrap(name, original, inspectors.get(name))
            if owner_name:
                setattr(owner, attr, wrapped)
            else:
                rebind(original, wrapped)

        # DomainSpec exit tests are closures built by its constructors.
        for ctor in ("box", "ball"):
            original = geometry.DomainSpec.__dict__[ctor].__func__

            def build(*args, _original=original, **kwargs):
                spec = _original(*args, **kwargs)
                return dataclasses.replace(
                    spec,
                    contains_underline=self.wrap(
                        "geometry.contains_underline", spec.contains_underline
                    ),
                )

            setattr(geometry.DomainSpec, ctor, staticmethod(build))

        # The memoized estimator: calls in, and calls that miss the cache.
        memoize = harnack.memoize_estimator

        def traced_memoize(fn):
            def miss(t, z):
                self.counts["harnack.estimator_misses"] += 1
                return fn(t, z)

            return self.wrap("harnack.estimator", memoize(miss))

        rebind(memoize, traced_memoize)

    # -- summary ----------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer counts and times of this process (the bench's per-layer set)."""
        c, span = self.counts, self.span
        est_calls = span("harnack.estimator")[0]
        out = {
            "cli.self_s": span("cli.main")[1],
            "geometry.exit_fraction": c["paths_exited"] / c["paths"] if c["paths"] else 0.0,
            "operators.lattice_outside_ratio": (
                c["lattice_outside"] / c["lattice_states"] if c["lattice_states"] else 0.0
            ),
            "simulate.path_steps": c["simulate.path_steps"],
            "harnack.estimator_calls": est_calls,
            "harnack.cache_hit_ratio": (
                (est_calls - c["harnack.estimator_misses"]) / est_calls if est_calls else 0.0
            ),
            "fields.partial.calls": span("fields.partial")[0],
        }
        for name in ("geometry.contains_underline", "fields.evaluate_batch",
                     "operators.drift_identity", "operators.lattice_eval",
                     "operators.lattice_partial", "sde.drift_batch", "sde.sigma_batch",
                     "sde.theta_batch", "simulate.simulate_bundle", "feynman_kac.estimate"):
            out[f"{name}.calls"] = span(name)[0]
            out[f"{name}.self_s"] = span(name)[1]
        for name in ("harnack.scan", "oracle.besq_transition_mass"):
            out[f"{name}.self_s"] = span(name)[1]
        for name, metric in INCLUSIVE.items():
            out[metric] = span(name)[2]
        return out

    def layer_self_s(self) -> dict:
        """Self time per layer (module), summing every span of that module."""
        layers: defaultdict = defaultdict(float)
        for span, acc in self._spans.items():
            layers[span.split(".")[0]] += acc[1]
        return dict(layers)
