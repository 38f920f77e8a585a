"""The machine's current speed, from a fixed reference loop.

On a shared 2-core virtual machine the same job can take 1.7 times as
long from one minute to the next, because the cores slow down and speed
up with the neighbours' load.  The reference loop below does the same
kind of work as the program (Fraction and modular integer arithmetic,
list and dict traffic) and never calls it.  Timing it just before and
just after a job tells how fast the machine ran meanwhile; a job's
reported time is its wall time scaled to a machine on which the loop
takes REFERENCE_S, its typical time on the 2-core Intel Xeon (2.1 GHz)
virtual machine the benchmark was tuned on, under Python 3.11.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005
REPEATS = 3


def reference_loop():
    acc, mod, table = Fraction(0), 1, {}
    for i in range(1, 2000):
        acc += Fraction(i % 7, i % 5 + 1)
        mod = (mod * (i % 5 + 1) + i) % 5
        table[i % 97] = [acc, mod] * 2
    return acc, mod


def reference_time():
    """Fastest of a few runs of the loop, in seconds."""
    best = None
    for _ in range(REPEATS):
        start = perf_counter()
        reference_loop()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scaled(elapsed, before, after):
    """Wall time rescaled by the reference times taken around it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
