"""Machine-speed probe that runs inside a repetition's process.

A shared host changes speed under the benchmark: on a 2-vCPU Xeon VM
one `unsplit_oracle` repetition took 1.4 s or 2.6 s depending on what
the neighbours did, and the state flipped within a second.  Timing the
program alone cannot tell such a flip from a change to the program.

So while a repetition runs, a SIGALRM timer interrupts the main thread
every `PERIOD_S` of wall time and runs one `chunk()`, a fixed piece of
work of the program's own kinds (a small FFT derivative, elementwise
arithmetic, a gather, Python-level calls), and records the thread CPU
time it took.  That time rises and falls with the machine's speed, on
the core and in the cache state the program itself runs in, and leaves
out time spent waiting for the CPU.

`SpeedProbe.slowdown()` is the harmonic mean of the chunk times over
`REF_S`: how much slower than the reference state the machine ran,
averaged over the repetition's wall time (the chunks are evenly spaced
in it, so each stands for an equal slice).  run.py divides the
repetition's wall and CPU time, less the chunks' CPU time, by it, which
gives seconds at reference speed.

The program runs on the main thread only (run.py sets
CAPTENSION_THREADS=1).  Threads of the program's own running beside a
chunk would slow it and be taken for a slow machine: on the sweep with
its default pool, chunks read 1.8 times slower than in the serial
repetitions next to it.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.05
# CPU time of one chunk in the reference state: the usual speed of a
# 2-vCPU Xeon VM while its neighbours are busy (numpy 2.4, one BLAS
# thread); in its fast phases chunks took about two thirds of that
REF_S = 8.0e-4

_rng = np.random.default_rng(20240601)
_A = _rng.random((32, 16))
_B = _rng.random((32, 16))
_K = 1j * np.arange(17)[:, None]
_IDX = _rng.integers(0, _A.size, 64)


def _axpy(a, x, y):
    return a * x + y


def chunk():
    """One fixed unit of probe work; returns a checksum."""
    s = 0.0
    flat = _A.ravel()
    for _ in range(16):
        g = np.fft.irfft(_K * np.fft.rfft(_A, axis=0), n=32, axis=0)
        h = g * _B + _A
        s += float(h[3, 4]) + float(np.dot(_A[:, 0], _B[:, 1]))
        s += float(flat[_IDX].sum())
        for _ in range(40):
            s = _axpy(0.999, s, 1e-3)
    return s


class SpeedProbe:
    """A timed chunk every PERIOD_S of wall time between start and stop."""

    def __init__(self):
        self.cpu = []           # thread CPU time of each chunk
        self._old = None

    def _tick(self, signum=None, frame=None):
        c0 = time.thread_time()
        chunk()
        self.cpu.append(time.thread_time() - c0)

    def start(self):
        for _ in range(5):      # warm caches and code paths, untimed
            chunk()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def cpu_s(self):
        """CPU time the chunks have taken so far."""
        return sum(self.cpu)

    def slowdown(self):
        """Harmonic mean of the chunk times over REF_S."""
        return len(self.cpu) / sum(1.0 / c for c in self.cpu) / REF_S
