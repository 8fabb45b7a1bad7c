"""Check that every committed run configuration still writes the same bytes.

Runs each ``configs/*.json`` through ``kimura_lab.cli.main`` at
``--threads 1`` and ``--threads 2``, each into a fresh temporary directory,
and compares the sha256 of every file the run writes with
``configs/SHA256SUMS`` (``sha256sum`` format; names are
``<config stem>/<file>``).  Prints one line per file and thread count, with
the run's in-process wall seconds (``cli.main`` alone, imports already
done), and exits 1 on any mismatch, on a listed file that was not written,
on a written file that is not listed, or on a run that does not exit 0.
Takes no options; the full run takes under a minute on a 2-core machine.
The tier-1 tests run :func:`check` on every config: the quick ones at both
thread counts, ``girsanov_consistency`` at one thread.

    python3 scripts/config_hashes.py
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kimura_lab.cli import main  # noqa: E402

THREADS = (1, 2)


def read_expected() -> dict[str, str]:
    """``{<config stem>/<file>: sha256}`` from ``configs/SHA256SUMS``."""
    sums = {}
    with open(os.path.join(ROOT, "configs", "SHA256SUMS")) as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                sums[name] = digest
    return sums


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(config: str, threads: int) -> tuple[int, float, dict[str, str]]:
    """Exit code, wall seconds of ``main`` and ``{file name: sha256}`` of one
    run in a fresh directory."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(["--config", config, "--out", out, "--threads", str(threads)])
            wall = time.perf_counter() - start
        written = {name: _sha256(os.path.join(out, name)) for name in sorted(os.listdir(out))}
        return code, wall, written


def check(stem: str, threads: int, expected: dict[str, str]) -> tuple[list[str], int]:
    """Report lines and failure count of ``configs/<stem>.json`` run at
    ``threads`` against the ``expected`` sums of :func:`read_expected`."""
    code, wall, written = _run(os.path.join(ROOT, "configs", f"{stem}.json"), threads)
    run = f"threads={threads}  {wall:7.3f} s"
    lines, failures = [], 0
    if code != 0:
        failures += 1
        lines.append(f"FAIL  {stem}  {run}  exit code {code}")
    for name, digest in written.items():
        key = f"{stem}/{name}"
        want = expected.get(key)
        ok = digest == want
        failures += not ok
        note = "" if ok else ("  not listed" if want is None else f"  expected {want}")
        lines.append(f"{'ok  ' if ok else 'FAIL'}  {key}  {run}  {digest}{note}")
    for key in sorted(k for k in expected if k.startswith(f"{stem}/")):
        if key.split("/", 1)[1] not in written:
            failures += 1
            lines.append(f"FAIL  {key}  {run}  not written")
    return lines, failures


def main_check() -> int:
    expected = read_expected()
    failures = 0
    for config in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        stem = os.path.splitext(os.path.basename(config))[0]
        for threads in THREADS:
            lines, failed = check(stem, threads, expected)
            print("\n".join(lines))
            failures += failed
    for key in sorted(expected):
        if not os.path.exists(os.path.join(ROOT, "configs", key.split("/", 1)[0] + ".json")):
            failures += 1
            print(f"FAIL  {key}  no such config")
    print(f"{failures} mismatch(es)" if failures else "all outputs match configs/SHA256SUMS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main_check())
