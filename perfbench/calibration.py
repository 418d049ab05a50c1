"""Calibration kernel and the scaling of measured times to a fixed-speed machine.

The shared machines this benchmark runs on change speed by tens of percent
over seconds to minutes, and a process that holds its core still runs
slower or faster.  Timing a fixed kernel just before and just after every
task tracks that speed.  A task's time, divided by the mean of those two
calibration times and multiplied by `REFERENCE_S`, is the time the task
would take on a machine where the kernel takes exactly `REFERENCE_S`.  The
benchmark reports these calibrated seconds, and the raw seconds in its
report line.  (Scaling by the samples on both sides of each task steadied
the tail figure more than a median over neighbouring tasks' samples did.)

The kernel mixes the kinds of work ringmix does: Python calls and
arithmetic, numpy Generator construction and draws, a small BLAS product
and a small symmetric eigensolve.  It never calls ringmix, so a change to
the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1e-3
_MIX = np.full((32, 32), 1.0 / 32)
_SYM = np.eye(16) + 0.01


def kernel() -> float:
    acc = 0.0
    for i in range(40):
        rng = np.random.default_rng(np.random.SeedSequence((7, i, 3)))
        acc += float((_MIX @ rng.standard_normal(32)).sum())
        acc += sum(j * 0.5 for j in range(20))
        if i % 8 == 0:
            acc += float(np.linalg.eigvalsh(_SYM)[-1])
    return acc


def sample() -> float:
    """Seconds one pass of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(times: list[float], cal: list[float]) -> list[float]:
    """Calibrated seconds of each time, cal[i] being the calibration time
    measured around times[i]."""
    return [t * REFERENCE_S / c for t, c in zip(times, cal)]
