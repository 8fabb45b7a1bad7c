"""Host speed: a fixed kernel, timed between samples, that the time metrics are scaled by.

The benchmark runs on a few cores of a shared host.  Other tenants' load slows
everything that runs there, by up to about 1.8x for minutes at a time, which
would swamp most changes to the program.  The kernel below does the kinds of
work the CLI does -- a NumPy stepping loop over 4096 paths with a batched 1x1
solve, interpolation and a gradient; many NumPy calls on small arrays; plain
Python object and dict work -- in the benchmark's own code, so its time moves
with the host's speed and never with the program.

Between two samples the kernel runs for about a third of a sample's time.
A sample's host factor is the mean of the kernel times in the blocks just
before and just after it, over ``REFERENCE_S``; its times are divided by the
factor and its rates multiplied by it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time, over 40 runs, on the machine the benchmark was defined
# on (2 vCPUs of an Intel Xeon host, Python 3.11, NumPy with OpenBLAS at one
# thread).
REFERENCE_S = 0.35

# Kernel time between two samples, as a share of a sample's time.  Longer
# blocks track the host better but leave fewer samples in a run; a third did
# best in trials with samples of 2.5 s and 6 s.
BLOCK_SHARE = 1 / 3

# Power of the host factor each scaled metric is multiplied by.
POWER = {"run_s": -1, "cpu_s": -1, "setup_s": -1, "path_steps_per_s": 1}


class _Point:
    def __init__(self, value: int) -> None:
        self.value = value

    def shifted(self, by: int) -> int:
        return self.value + by


def kernel_s() -> float:
    """Seconds this process takes for the fixed kernel."""
    rng = np.random.default_rng(0)
    x = np.full(4096, 1.0)
    nodes, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.7])
    a = np.linspace(0.1, 1.0, 512)
    table: dict = {}
    total = 0
    t0 = time.perf_counter()
    for _ in range(250):
        dw = rng.standard_normal(4096) * 0.03
        b = 0.5 + 0.2 * x
        w = np.linalg.solve((1.0 + x)[:, None, None], b[:, None, None])[:, 0, 0]
        x = np.abs(x + (b + 0.0 * w) * 1e-3 + np.sqrt(np.maximum(x, 0.0)) * dw)
        np.gradient(np.interp(x, nodes, values))
    for _ in range(6000):
        c = np.sqrt(a * a + 1.0)
        a = np.stack([np.where(c > 1.2, c - 0.2, c), np.full(512, 0.5)])[0]
    for i in range(250_000):
        p = _Point(i)
        total += p.shifted(i & 7)
        table[i & 1023] = (p, total)
    return time.perf_counter() - t0


def block(sample_s: float) -> list[float]:
    """Kernel times of the block run after a sample that took ``sample_s``."""
    times = [kernel_s()]
    while sum(times) < BLOCK_SHARE * sample_s:
        times.append(kernel_s())
    return times


def scaled(sample: dict, name: str) -> float:
    """``sample[name]`` at the reference host speed."""
    return sample[name] * sample["host_factor"] ** POWER.get(name, 0)
