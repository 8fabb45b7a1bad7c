"""Committed outputs of the quick configs, checked against configs/SHA256SUMS
by the comparison of ``scripts/config_hashes.py``.  ``girsanov_consistency``
takes several seconds a thread count and is checked by the script alone."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "config_hashes", os.path.join(ROOT, "scripts", "config_hashes.py")
)
config_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_hashes)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stem", ["validate_model", "oracle_compare", "harnack_scan"])
def test_committed_output_matches_its_sha256(stem, threads):
    lines, failures = config_hashes.check(stem, threads, config_hashes.read_expected())
    assert lines and not failures, "\n".join(lines)
