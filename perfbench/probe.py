"""Host-speed probe: rescales measured times to a fixed reference speed.

On a shared host the speed of a vCPU changes by up to a factor of two
within minutes, as other tenants load the physical core under it, so raw
wall times of the same code vary by 20-30% from run to run. The probe
measures that speed where and when the work runs: every INTERVAL_S of wall
time a timer signal interrupts the measured thread between two bytecodes
and times one of a few fixed kernels of about 0.3 ms each, taking turns.
Each probe gives the speed of its moment as its kernel's reference
duration over its measured one. The probes are evenly spaced in wall time,
so a kernel's mean speed is the window's speed for that kind of work; the
window's speed is the geometric mean over the kernels.

A window's rescaled time is (its wall time - the probes' own time) x that
speed: the seconds it would have taken at the reference speed. The probes
cost about 0.5% of the window and their time is taken out again. The
kernels never call rda. Limits: they share the measured thread's caches,
so a program that evicts more of them makes the probe read a little slower
and its own rescaled time a little shorter; and they see only the vCPU of
the main thread, not the one where BLAS threads may run.

The kernels, each with its median duration on the 2-vCPU Intel Xeon VM at
2.1 GHz where the benchmark was written, so that rescaled times there read
as seconds at its typical speed:

* "python": a pure-Python loop;
* "numpy": 1024-point real FFT round trips with a short Python loop, then
  small-array numpy calls.

The host's load moves them differently, and the workloads mix both kinds
of work: "numpy" tracked the stepper best and "python" the quadrature;
either alone missed the other workload by 10-20%, the pair tracked all of
them within a few percent. The run windows
use both (numpy is imported by then); the set-up samples use "python"
alone, since they must not import numpy before rda does. On that VM, over
repeated runs of one workload, raw wall times spread (IQR over median)
10-30% and rescaled ones 2-9%.
"""

from __future__ import annotations

import math
import signal
import time

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "rescale"]

INTERVAL_S = 0.05
REFERENCE_S = {"numpy": 2.7e-4, "python": 2.5e-4}


def _python_kernel():
    def kernel() -> int:
        # Small ints only: nothing the garbage collector tracks, so the
        # size of the measured program's heap cannot slow the probe.
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        return acc
    return kernel


def _numpy_kernel():
    import numpy as np

    # Bound now, so that the traced run's counting wrappers, installed
    # later, never see the probe's transforms.
    rfft, irfft, exp = np.fft.rfft, np.fft.irfft, np.exp
    x = np.sin(np.arange(1024.0))
    y = np.linspace(0.0, 1.0, 64)

    def kernel() -> float:
        acc = 0.0
        for _ in range(2):
            irfft(rfft(x), n=1024)
            for i in range(300):
                acc += i
        for i in range(20):
            acc += float(exp(-i * y).sum())
        return acc
    return kernel


_KERNELS = {"numpy": _numpy_kernel, "python": _python_kernel}


class SpeedProbe:
    """Times the kernels in turn every INTERVAL_S on the main thread, via
    SIGALRM."""

    def __init__(self, *kernels: str):
        self.kernels = [(name, _KERNELS[name]()) for name in kernels]
        self.durations: dict[str, list[float]] = {name: [] for name in kernels}
        self._ticks = 0
        self._previous = None

    def _tick(self, _signum, _frame):
        name, kernel = self.kernels[self._ticks % len(self.kernels)]
        self._ticks += 1
        t0 = time.perf_counter()
        kernel()
        self.durations[name].append(time.perf_counter() - t0)

    def start(self) -> None:
        for _name, kernel in self.kernels:
            kernel()  # warm the kernels before the first timed probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def summary(self) -> dict:
        """probe_s: the probes' own time; speeds: each kernel's mean speed
        relative to its reference; speed: their geometric mean (1.0 when
        the window was too short for a probe of every kernel)."""
        speeds = {name: sum(REFERENCE_S[name] / d for d in durations)
                  / len(durations)
                  for name, durations in self.durations.items() if durations}
        speed = 1.0
        if len(speeds) == len(self.durations):
            speed = math.prod(speeds.values()) ** (1.0 / len(speeds))
        return {"probes": self._ticks,
                "probe_s": sum(map(sum, self.durations.values())),
                "speeds": speeds, "speed": speed}


def rescale(seconds: float, probe: dict) -> float:
    """A window's time at the reference speed, the probes' time removed."""
    return (seconds - probe["probe_s"]) * probe["speed"]
