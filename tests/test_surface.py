"""The public surface: every exported name resolves, every dataclass is a
record, the benchmark's tracer (``perfbench/tracer.py``) finds every
function and method it times, and no library definition outside a pinned
list is unreached by every command."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import kimura_lab
from kimura_lab import records

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["kimura_lab"] + [
    f"kimura_lab.{info.name}" for info in pkgutil.iter_modules(kimura_lab.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_every_dataclass_is_a_record():
    # ``dataclass(frozen=True)`` compiles six methods per class at import,
    # about 1 ms a class; a record shares them (``kimura_lab.records``)
    shared = {
        "__init__": records._init,
        "__repr__": records._repr,
        "__eq__": records._eq,
        "__hash__": records._hash,
        "__setattr__": records._setattr,
        "__delattr__": records._delattr,
    }
    classes = {
        obj
        for module in MODULES
        for obj in vars(importlib.import_module(module)).values()
        if isinstance(obj, type) and obj.__module__.startswith("kimura_lab")
        and dataclasses.is_dataclass(obj)
    }
    assert len(classes) >= 27
    own = sorted(
        f"{cls.__qualname__}.{name}"
        for cls in classes
        for name, method in shared.items()
        if getattr(cls, name) is not method
    )
    assert own == []


def test_benchmark_tracer_installs():
    # the tracer looks its targets up by name, so a renamed or deleted one
    # fails here rather than in every traced benchmark sample
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# every definition ``scripts/unreached.py`` may list, each with why it stays
PINNED_UNREACHED = {
    "feynman_kac.estimate_probabilistic_solution": "bound to the tracer until ROADMAP item 1",
    "feynman_kac.exp_moment_diagnostic": "ROADMAP item 7 reports it from the girsanov command",
    "harnack.harnack_ratio": "bound to the tracer until ROADMAP item 1",
    "harnack.memoize_estimator": "bound to the tracer until ROADMAP item 1",
    "operators.bilinear_form": "test reference: integration by parts for apply_generator_batch",
    "operators.drift_identity_e": "bound to the tracer until ROADMAP item 1",
    "operators.drift_identity_f": "bound to the tracer until ROADMAP item 1",
    "oracle.besq_transition_density": "ROADMAP item 6 gives it a command",
    "oracle.dirac_approx": "test reference: initial data of the grid-solver tests",
    "simulate.read_kimb": "test reference: the only reader of the simulate command's .kimb files",
}


def test_only_pinned_definitions_are_unreached():
    # a library function that no command reaches fails here unless it is
    # named above with its reason
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "unreached.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = {line.split()[0] for line in proc.stdout.splitlines()[:-1]}
    assert listed == set(PINNED_UNREACHED)
