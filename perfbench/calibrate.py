"""Machine-speed calibration of measured times.

On a small shared host the whole machine speeds up and slows down by up to
±30% over tens of seconds (neighbours on the same cores), which swamps
run-to-run comparisons.  The harness therefore times a fixed pure-Python
kernel (exact Fraction arithmetic and a tuple-keyed dict, like the program's
hot loops, with the collector off) right before and right after every op,
and scales each op's time by REFERENCE_S / (the median of the samples
around that op and its two neighbours).  Samples this close follow the
machine's speed swings better than any run-wide figure.  Scaled times read
as seconds on a machine where the kernel takes REFERENCE_S.

Each sample is a pair.  The kernel runs once in the harness's own process,
on the CPU the op just used, which is what tracks the swings best.  It runs
again at once in a child interpreter started from this file, which imports
nothing of the program (`Kernel`).  A program change that slows its
interpreter as a whole (a trace or profile hook, a busy thread, a new
switch interval, a heap that crowds the caches) slows the in-process kernel
as much as the ops, and not the child's.  So every op's scale is multiplied
by the run's median ratio of in-process to child time: such a change then
shows in the scaled figures in full.  Only load the program puts on the
rest of the machine (extra processes) can reach the child.

Set-up time is mostly a fresh interpreter importing numpy, which drifts
with the host on its own: in one period the numpy import took half its
usual time and the rest of set-up about two thirds.  So a probe's import is
scaled by IMPORT_REFERENCE_S / (the time a fresh interpreter takes to
import numpy, measured just before the probe), and the rest of its set-up,
pure Python, by REFERENCE_S / (the child's kernel time, sampled just
before the probe).
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence, Tuple

REFERENCE_S = 0.001
IMPORT_REFERENCE_S = 0.15
WINDOW = 1  # neighbouring ops on each side whose samples set an op's scale


def _kernel() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(1, 160):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[(i % 7, i)] = acc
    return len(table)


def _timed() -> float:
    """Seconds taken by one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _serve() -> None:
    """Child side of Kernel: one timed kernel run per line read."""
    for _ in sys.stdin:
        sys.stdout.write(f"{_timed()!r}\n")
        sys.stdout.flush()


class Kernel:
    """Takes samples: the kernel timed in this process and in a child."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, bufsize=1)

    def sample(self) -> Tuple[float, float]:
        """(seconds in this process, seconds in the child) of one kernel run each."""
        here = _timed()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration kernel's process ended")
        return here, float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def factors(samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Per op, the factor that scales its time; samples holds two Kernel
    samples per op, the one taken before it and the one taken after it."""
    ratio = statistics.median(here / child for here, child in samples)
    out = []
    for i in range(len(samples) // 2):
        near = [here for here, _ in samples[2 * max(0, i - WINDOW): 2 * (i + WINDOW + 1)]]
        out.append(REFERENCE_S * ratio / statistics.median(near))
    return out


def scale(raw: Sequence[float], samples: Sequence[Tuple[float, float]]) -> List[float]:
    """raw[i], the time of op i, scaled by its factor."""
    return [t * f for t, f in zip(raw, factors(samples))]


def import_sample() -> float:
    """Seconds a fresh interpreter takes to import numpy."""
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


if __name__ == "__main__":
    _serve()
