"""Machine-speed correction for the benchmark's timings.

On a shared host the speed of the CPU a process gets shifts, by up to a
half and for anything from a second to a minute, with the load of other
tenants. A wall time measured during such a slow period tells about the
host, not the program. This module measures the host's speed while a timed
region runs and scales the region's wall time to a reference speed.

While a region runs, a SIGALRM timer interrupts it every INTERVAL_S
seconds of wall time, and the handler times probe(), a fixed piece of work
of the same kind the program does (a short Python loop over small numpy
matmuls, tanh, sorts and fancy indexing). The handler's own time is taken
out of the region's time. A probe also runs right before and right after
the region. With p_i the probe times and T the region's wall time without
the handlers, the region's time at the reference speed is

    T * mean(PROBE_REF_S / p_i)

which approximates the integral over the region of dt * (speed / reference
speed). PROBE_REF_S is a fixed constant, about the probe's time on a quiet
core of the machine the baseline was recorded on; it only sets the unit,
so that scaled times from two runs or two commits compare directly. The
correction is as good as the probe's slowdown matches the program's: on
that machine, 76 back-to-back 100-step pretrain passes took 5.3 to 8.5 s
of wall time (quartile spread 6.8% of the median) and 3.6 to 4.6 s scaled
(4.2%), and a pass that ran unusually fast or slow by wall clock was
scaled back near the rest. The program's outputs do not depend on the
probe: it uses only its own arrays and no random state.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# About the probe's time on a quiet core of the baseline machine (Intel
# Xeon, 2 vCPUs, single-threaded OpenBLAS): `python3 perfbench/speed.py`
# printed a 10th percentile of 1.02 ms and a minimum of 0.96 ms there.
PROBE_REF_S = 1.0e-3

_X = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
_W = np.linspace(0.5, -0.5, 32 * 32).reshape(32, 32) / 8.0
_IDX = np.arange(16)[::-1].copy()


def probe() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(80):
        y = x @ _W
        order = np.argsort(y[:, 0], kind="stable")
        x = np.tanh(y[order][_IDX]) + 0.5 * x
        _ = sum(float(v) for v in x[0, :4])
    return time.perf_counter() - t0


class SpeedSampler:
    """Times regions and scales each to the reference speed.

    Use as a context manager around one region; afterwards `wall_s` is
    the region's wall time without the probes and `scaled_s` the same time
    at the reference speed. A disabled sampler only times the region, and
    its `scaled_s` is its `wall_s`.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.probes: list[float] = []
        self._handler_s = 0.0
        self._old = None
        if enabled:
            probe()  # the first call pays for cold caches

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self._handler_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        if not self.enabled:
            self._t0 = time.perf_counter()
            return self
        self.probes = [probe()]
        self._handler_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            self.wall_s = self.scaled_s = time.perf_counter() - self._t0
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = t1 - self._t0 - self._handler_s
        self.probes.append(probe())
        factor = statistics.fmean(PROBE_REF_S / p for p in self.probes)
        self.scaled_s = self.wall_s * factor


def calibrate(seconds: float = 5.0) -> list[float]:
    """Probe times, sorted, from back-to-back probes over `seconds`."""
    probe()
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times.append(probe())
    return sorted(times)


if __name__ == "__main__":
    times = calibrate()
    print(f"probe: {len(times)} runs, min {times[0]:.4g} s, "
          f"10th percentile {times[len(times) // 10]:.4g} s, "
          f"median {statistics.median(times):.4g} s")
