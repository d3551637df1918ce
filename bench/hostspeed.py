"""Fixed reference work, timed next to each round to gauge the host's speed.

On a shared host the same round runs 20-70 % slower for stretches of seconds
to minutes, with CPU time tracking wall time, so the slowdown is the host's
and not the program's.  It comes in two kinds that move apart: Python
bytecode slows while passes over memory keep their pace, and the other way
round.  So there are two pieces of reference work, one of each kind, and
each workload is gauged by the kind its rounds spend their time in
(``Workload.GAUGE``):

- ``python``: a dict-and-float loop, float text formatting and parsing and
  small LAPACK calls, as the fits, the CLI and the per-point branch objects
  of a sweep do;
- ``memory``: passes over 16 MB of preallocated arrays, as the sparse
  products of the Fock oracle do.

Neither touches program code.  A round timed between two reference passes
is reported as ``round time * NOMINAL_S[kind] / mean(reference before,
reference after)``: seconds at the speed at which the reference work takes
its nominal time.

Import after the BLAS thread limits are set: this module imports numpy.
"""

from __future__ import annotations

import time

import numpy as np

#: each reference work's duration at nominal speed, in the range of the
#: medians of 150 passes measured at different times on the 2-vCPU machine
#: the benchmark was written on (python 6.7-9.9 ms, memory 8.3 ms)
NOMINAL_S = {"python": 0.008, "memory": 0.008}

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.normal(size=(8, 8))
_SMALL = _SMALL + _SMALL.T
_VALUES = _RNG.uniform(-1e3, 1e3, 1200)
_LARGE = _RNG.normal(size=1_000_000)
_OUT = np.empty_like(_LARGE)


def _python_work() -> float:
    acc = 0.0
    table = {}
    for i in range(12000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += table[i % 97] % 3.0
    text = ",".join(f"{v:.6g}" for v in _VALUES)
    acc += sum(float(s) for s in text.split(","))
    for _ in range(200):
        acc += float(np.linalg.eigh(_SMALL)[0][0])
    return acc


def _memory_work() -> float:
    # no allocations: their cost depends on the allocator's state, which
    # the round before leaves behind
    for _ in range(6):
        np.multiply(_LARGE, 1.0001, out=_OUT)
        np.add(_OUT, _LARGE, out=_OUT)
    return float(_OUT[0])


_WORK = {"python": _python_work, "memory": _memory_work}


def reference_s(kind: str, passes: int = 3) -> float:
    """Wall time of the fastest of a few passes of one reference work.

    The first pass after a round refills the caches the round evicted; the
    fastest pass is the host's speed and not that refill.
    """
    work = _WORK[kind]
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, kind: str, ref_before: float, ref_after: float) -> float:
    """``seconds`` rescaled to the speed at which reference work ``kind`` takes its nominal time."""
    return seconds * NOMINAL_S[kind] / (0.5 * (ref_before + ref_after))
