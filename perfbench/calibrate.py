"""A fixed round of reference work, timed next to and inside every pass.

The benchmark runs on shared machines whose CPUs change speed by a third
or more, over spans from under a second to minutes, and each CPU on its
own. A pass's wall time divided by the mean time of this round, run in the
same process on the same CPU all through the same passes, cancels most of
that drift. The round imitates the kind of work gradus does: sparse
polynomial products in dicts, row reduction mod p in Python lists and in
int64 numpy arrays, sorting monomials by a graded order, and Fraction
arithmetic. It does not import gradus, so a change to gradus cannot change
it.
"""
from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import numpy as np

P = 32003


def _dict_products(reps: int) -> int:
    rng = random.Random(7)
    a = {tuple(rng.randrange(6) for _ in range(3)): rng.randrange(P) for _ in range(60)}
    b = {tuple(rng.randrange(6) for _ in range(3)): rng.randrange(P) for _ in range(60)}
    size = 0
    for _ in range(reps):
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = (out.get(e, 0) + ca * cb) % P
        size += len(out)
    return size


def _list_rank(reps: int, n: int = 60) -> int:
    rng = random.Random(3)
    start = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
    rank = 0
    for _ in range(reps):
        m, r = [row[:] for row in start], 0
        for c in range(n):
            piv = next((i for i in range(r, n) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], -1, P)
            m[r] = [x * inv % P for x in m[r]]
            for i in range(n):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(x - f * y) % P for x, y in zip(m[i], m[r])]
            r += 1
        rank += r
    return rank


def _numpy_rank(reps: int, n: int = 120) -> int:
    start = np.random.default_rng(7).integers(0, P, size=(n, n), dtype=np.int64)
    rank = 0
    for _ in range(reps):
        a, r = start.copy(), 0
        for c in range(n):
            nz = np.nonzero(a[r:, c])[0]
            if not len(nz):
                continue
            k = r + int(nz[0])
            a[[r, k]] = a[[k, r]]
            a[r] = a[r] * pow(int(a[r, c]), -1, P) % P
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % P
            r += 1
            if r == n:
                break
        rank += r
    return rank


def _monomial_sorts(reps: int) -> int:
    rng = random.Random(9)
    mons = [tuple(rng.randrange(8) for _ in range(4)) for _ in range(3000)]
    first = None
    for _ in range(reps):
        first = sorted(mons, key=lambda m: (sum(m), tuple(-x for x in reversed(m))))[0]
    return sum(first or ())


def _fractions(reps: int) -> Fraction:
    rng = random.Random(5)
    xs = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(200)]
    total = Fraction(0)
    for _ in range(reps):
        s = Fraction(0)
        for i, x in enumerate(xs):
            s = s + x * xs[i - 1] - xs[i - 3]
        total += s
    return total


# Repetitions per kernel; on a 2-vCPU Xeon VM the round takes about 0.08 s.
ROUND = ((_dict_products, 12), (_list_rank, 1), (_numpy_rank, 1),
         (_monomial_sorts, 2), (_fractions, 10))


def calibration_round() -> float:
    """Wall seconds of one round of every kernel."""
    t0 = time.perf_counter()
    for kernel, reps in ROUND:
        kernel(reps)
    return time.perf_counter() - t0


class Sampler:
    """While active, run a calibration round every `period` seconds of wall
    time, from a SIGALRM handler in the main thread, so that the rounds
    sample the CPU's speed in the middle of long library calls too.
    `rounds` collects their times; `busy` is the total time spent in them,
    which the caller subtracts from the wall time it measured."""

    def __init__(self, period: float = 1.0):
        self.period, self.rounds, self.busy = period, [], 0.0
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.rounds.append(calibration_round())
        self.busy += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False
