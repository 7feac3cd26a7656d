"""References that measure how fast the machine is running right now.

On a shared machine the same code runs at different speeds from one second
to the next (other tenants, frequency changes): on a shared 2-core virtual
machine the reference below took 90 to 180 us within one second, and raw op
times of one workload spread by 10-40% between runs, far wider than the
regression bounds.
So the benchmark times a fixed reference just before and just after every
op, on the same CPU, and scales the op's time by the reference's nominal time
over its measured time.  The drift cancels, and the times read as times on a
machine where the reference takes its nominal time.  Raw times are printed
next to the scaled ones.

Two references, each doing the kind of work of the ops it scales, and
neither calling qktoledo code, so a change to the program never moves them:

* ``LOOP``, Python-level Fraction arithmetic with gcds on small integers,
  like qktoledo's scalar layer, for ops run in-process;
* ``SPAWN``, a bare ``python -c pass`` process, for ops and set-up that
  start a fresh interpreter, whose cost is mostly the kernel's and the
  interpreter's start-up rather than arithmetic.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple


class Reference(NamedTuple):
    name: str
    nominal_s: float
    time: Callable[[], float]


def _fraction_loop() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 25):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 7)
    return x


def time_loop(repeats: int = 5) -> float:
    """Mean time of a few runs of the Fraction loop.

    The mean, not the minimum: the speed changes within milliseconds, and
    the mean follows the share of slow moments that an op also meets.
    """
    start = perf_counter()
    for _ in range(repeats):
        _fraction_loop()
    return (perf_counter() - start) / repeats


def time_spawn() -> float:
    """Wall time of one bare interpreter process."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


LOOP = Reference("fraction-loop", 100e-6, time_loop)
SPAWN = Reference("bare-interpreter", 50e-3, time_spawn)


def scaled(times, refs, nominal_s: float):
    """Scale each time to the nominal speed.

    ``refs`` holds one reference timing before each time and one after the
    last, so time ``i`` is bracketed by ``refs[i]`` and ``refs[i + 1]``; their
    mean stands for the machine's speed during it.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference timing before each time and one after")
    return [t * 2 * nominal_s / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]
