"""Integer partitions (weakly decreasing positive parts)."""

from __future__ import annotations

from functools import lru_cache


def check_partition(lam) -> tuple:
    lam = tuple(int(x) for x in lam)
    if any(x < 1 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n as decreasing tuples, in ascending lex order.

    partitions(0) is the single empty partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(rem, max_part):
        if rem == 0:
            yield ()
            return
        for first in range(1, min(rem, max_part) + 1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))

