"""Fixed calibration loop: how fast this host runs Python right now.

Usage: python3 perfbench/calib.py

Stays running and answers each line read from stdin with one line: the wall
seconds of ROUNDS rounds (the median round, times ROUNDS) of fixed work that resembles what the nethom CLI does
(text splitting, dict lookups, Fraction and big-integer arithmetic, a few
numpy array passes). It exits at end of input. The work never changes and
imports nothing from nethom, so on a steady host it takes the same time for
every commit. run.py asks for one sample after every set-up and every op and
divides the run's times by the median sample, which cancels the drift in host
speed that a shared VM shows from minute to minute. One process serves the
whole run, so a sample carries neither interpreter start-up nor the
process-to-process spread of a fresh child; it sits blocked on stdin while
an op runs.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np

ROUNDS = 3


def one_round(r: int) -> int:
    text = "".join(f"u{i}\tu{(i * 7919 + r) % 20011}\n" for i in range(20_000))
    index: dict[str, int] = {}
    for line in text.splitlines():
        a, b = line.split()
        index.setdefault(a, len(index))
        index.setdefault(b, len(index))
    acc = Fraction(0)
    for k in range(1, 800):
        acc += Fraction(k * (k - 1), k * k + 3 + r)
    s = 0
    for i in range(60_000):
        s += i * i % 7
    ids = np.arange(200_000, dtype=np.int64) * 7919 % 200_003
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids[order] % 1_000)
    return len(index) + acc.denominator % 97 + s + int(counts.max())


def sample() -> float:
    """ROUNDS times the median round: a stall of the host inside one round
    (seen to last a few tenths of a second) is dropped, not averaged in."""
    times = []
    for r in range(ROUNDS):
        t0 = time.perf_counter()
        one_round(r)
        times.append(time.perf_counter() - t0)
    return ROUNDS * sorted(times)[ROUNDS // 2]


def main() -> int:
    sample()  # untimed warm-up: first-call allocation and caches
    for _ in sys.stdin:
        print(repr(sample()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
