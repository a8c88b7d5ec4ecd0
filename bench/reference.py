"""Fixed reference work, apart from spinbound, that gauges the host's speed.

    python3 bench/reference.py

On a shared host the same work runs up to a third slower in one minute than
in the next.  ``child.py`` has this work timed right before and right after
each CLI call, and ``run.py`` divides the call's wall time by those times,
which takes the host's drift out of the benchmark's figures.

The work runs in a process of its own, so that its arrays stay out of the
peak resident memory of the round.  The process reads one line per request
on standard input, times the work once and writes the seconds as one line;
it ends at the end of its input.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.linalg
from scipy.special import jv


def reference_s():
    """Seconds the reference work takes once.

    Its three parts, about a third of a second each on the host of the
    README's figures, stand for the round's kinds of work: Bessel sums (the
    certificate's quadratures), a dense symmetric eigensolve (the oracle)
    and a plain interpreter loop.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1300, 1300))
    matrix = a + a.T
    rho = rng.uniform(0.0, 30.0, 13000)[:, None]
    orders = np.arange(16)[None, :]
    t0 = time.perf_counter()
    jv(orders, rho).sum()
    scipy.linalg.eigvalsh(matrix)
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    return time.perf_counter() - t0


class ReferenceWorker:
    """This file run as a separate process, timing the work on request."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process ended with code %r" % self._proc.poll())
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    main()
