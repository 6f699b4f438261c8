"""Fixed reference computations that measure how fast the machine is now.

The benchmark's host is shared: its speed drifts by up to a third over
spells of tens of seconds, longer than a query and shorter than a run.
Each worker therefore times two fixed loops next to its query, and the
harness reports every time scaled to a machine on which they take their
nominal times.  Interpreter-bound code and the cache-bound numpy orbit
sweeps slow down by different amounts in the same spell, hence two loops.
They imitate the library's mix (tuple polynomial arithmetic mod p, dict
memos, recursive generators, digit extraction, table lookups and sorts of
state images) but call none of it, so no change to the library moves
them.
"""

import gc
import math
import statistics
import time

import numpy as np

# about what one pass of each reference takes on the 2-core host
NOMINAL_COMPUTE_S = 0.025
NOMINAL_SWEEP_S = 0.04


def _poly_work() -> int:
    p, f, acc, memo = 7, (1, 3, 0, 5, 1), (1,), {}
    for _ in range(300):
        out = [0] * (len(acc) + len(f) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(f):
                out[i + j] = (out[i + j] + a * b) % p
        while len(out) > 4:  # reduce mod x^4 - x - 1
            c = out.pop()
            out[-3] = (out[-3] + c) % p
            out[-4] = (out[-4] + c) % p
        acc = tuple(out)
        memo[acc] = memo.get(acc, 0) + 1
    return len(memo)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


_TABLE = np.arange(49, dtype=np.int64).reshape(7, 7) % 7
_STATES = np.arange(1 << 14, dtype=np.int64)
_POWS = np.array([343, 49, 7, 1], dtype=np.int64)


def _numpy_work() -> int:
    s = 0
    for _ in range(20):
        d = (_STATES[:, None] // _POWS) % 7
        s += int(_TABLE[d[:, 0], d[:, 1]].sum())
    return s


def _sweep_work(states, pows, table) -> int:
    s = 0
    for _ in range(2):
        digits = (states[:, None] // pows) % 3
        images = [states + (table[digits[:, k], digits[:, k + 1]] - digits[:, k])
                  * pows[k] for k in range(0, 10, 2)]
        s += int(np.unique(np.concatenate(images)).size)
    return s


def _timed(work) -> float:
    """Seconds one call of work takes, with the collector off so that
    objects a query left behind do not slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def compute_reference() -> float:
    """Interpreter-bound reference: small working set, no allocation peak."""
    return _timed(lambda: (_poly_work(), sum(1 for _ in _partitions(22, 22)),
                           _numpy_work()))


def sweep_reference() -> float:
    """Cache-bound reference shaped like steps of the numpy orbit sweep:
    digits of 16k states, table lookups and a sort of their images.  It
    allocates a few MB, so workers run it only after reading their peak
    RSS."""
    states = np.arange(1 << 14, dtype=np.int64) * 7
    pows = 3 ** np.arange(11, -1, -1, dtype=np.int64)
    table = np.arange(9, dtype=np.int64).reshape(3, 3) % 3
    return _timed(lambda: _sweep_work(states, pows, table))


def speed_factor(ref: dict) -> float:
    """Geometric mean of nominal over median measured time of the two
    references: multiply a time by it to express it at nominal speed.
    ref holds lists of samples under "compute" and "sweep"."""
    return math.sqrt(NOMINAL_COMPUTE_S / statistics.median(ref["compute"])
                     * NOMINAL_SWEEP_S / statistics.median(ref["sweep"]))
