"""Host-speed calibration for the timed pass.

On a shared host the same work runs at two speeds, as the physical core is
shared with another tenant or not, switching every ~100 ms; the share of
time at each speed drifts over minutes.  On a 2-core Xeon, identical
`rule_based` rounds took 1.0-1.9 s within 90 s, in CPU time as well as wall
time, and ten 30 s invocations spread by 26-36 % (interquartile range over
median) in wall-clock throughput.

`Speedometer` times a fixed reference kernel every `INTERVAL_S` seconds of
the pass, between the program's steps, and the benchmark reports throughput
in *reference seconds*: wall time scaled by ``REFERENCE_S / mean kernel
time``, i.e. what the pass would have taken on a host where the kernel
takes `REFERENCE_S`.  Over the same ten invocations that spread fell to
3-5 %.  The kernel uses no flockbench code, so a change to the program moves
the result in full; only the host's speed is divided out.  The kernel's own
time is excluded from the pass.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# kernel time on a quiet 2-core Xeon; only scales the reported unit
REFERENCE_S = 0.005
INTERVAL_S = 0.25

_POSITIONS = np.column_stack(
    (np.linspace(-15.0, 15.0, 30), 15.0 * np.cos(np.linspace(0.0, 6.0, 30)))
)
_VELOCITIES = np.column_stack((np.sin(np.arange(30.0)), np.cos(np.arange(30.0))))


def reference_kernel() -> float:
    """Per-agent neighbourhood rules over 30 points in numpy and interpreted
    Python, shaped like one rule-based flockbench step but sharing no code."""
    acc = 0.0
    for _ in range(6):
        diff = _POSITIONS[:, None, :] - _POSITIONS[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        rows = []
        for i in range(len(dist)):
            mask = (dist[i] < 8.4) & (dist[i] > 0.0)
            if mask.any():
                pull = _POSITIONS[mask].mean(axis=0) - _POSITIONS[i]
                align = _VELOCITIES[mask].mean(axis=0) - _VELOCITIES[i]
                rows.append({"agent": i, "accel": pull + align})
            else:
                rows.append({"agent": i, "accel": np.zeros(2)})
        accel = np.stack([row["accel"] for row in rows])
        acc += float(np.abs(accel).sum()) + sum(row["agent"] * 0.5 for row in rows)
    return acc


class Speedometer:
    """Times `reference_kernel` every `INTERVAL_S` seconds of a pass.

    Sampling rides on ``harness.step_dynamics`` (called once per step), which
    is wrapped for the `during` block only and restored afterwards.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # kernel time inside the block
        self._last = 0.0

    def sample(self):
        start = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        elapsed = self._last - start
        self.samples.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def during(self, harness):
        original = harness.step_dynamics

        def step_dynamics(*args, **kwargs):
            result = original(*args, **kwargs)
            if time.perf_counter() - self._last >= INTERVAL_S:
                self.spent_s += self.sample()
            return result

        self.sample()
        harness.step_dynamics = step_dynamics
        try:
            yield self
        finally:
            harness.step_dynamics = original
            self.sample()

    def host_factor(self) -> float:
        """Mean kernel time over `REFERENCE_S`: above 1 on a slow host.

        The mean, not the median: kernel times are bimodal (a physical core
        shared or not, switching every ~100 ms), and the pass's time is
        spread over both modes in the proportion the samples see."""
        return statistics.fmean(self.samples) / REFERENCE_S
