"""Integer partitions (weakly decreasing positive parts)."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator


def check_partition(lam) -> tuple:
    lam = tuple(map(int, lam))
    if lam and min(lam) < 1:
        raise ValueError(f"partition parts must be positive: {lam}")
    if list(lam) != sorted(lam, reverse=True):
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


def partition_numbers() -> Iterator[int]:
    """p(0), p(1), ... without end, nothing listed, by Euler's pentagonal
    recurrence: p(k) = sum_{j >= 1} (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))."""
    p = []
    for k in itertools.count():
        p.append(int(k == 0))
        j = 1
        while (g := j * (3 * j - 1) // 2) <= k:
            s = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            p[k] += s if j % 2 else -s
            j += 1
        yield p[k]
