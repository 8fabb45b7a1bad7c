"""Committed outputs of the configs, checked against configs/SHA256SUMS by
the comparison of ``scripts/config_hashes.py``.  The quick configs run at
one and two threads.  ``girsanov_consistency`` takes several seconds a run
and runs at one thread: it steps the standard equation and its weighted
twin as two lanes on one draw, the stepping path with the most kernels."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "config_hashes", os.path.join(ROOT, "scripts", "config_hashes.py")
)
config_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_hashes)

QUICK = ["validate_model", "oracle_compare", "harnack_scan", "density_weighted",
         "fk_dirichlet_box"]


@pytest.mark.parametrize(
    "stem, threads",
    [(stem, threads) for stem in QUICK for threads in (1, 2)] + [("girsanov_consistency", 1)],
)
def test_committed_output_matches_its_sha256(stem, threads):
    lines, failures = config_hashes.check(stem, threads, config_hashes.read_expected())
    assert lines and not failures, "\n".join(lines)
