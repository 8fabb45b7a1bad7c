"""The public surface: every exported name resolves, and the benchmark's
tracer (``perfbench/tracer.py``) finds every function and method it times."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import kimura_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["kimura_lab"] + [
    f"kimura_lab.{info.name}" for info in pkgutil.iter_modules(kimura_lab.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


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
