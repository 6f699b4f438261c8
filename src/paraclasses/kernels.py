"""The orbit kernel: a vectorized frontier BFS over packed generator actions.

States are mixed-radix integers over the field order, first coefficient
most significant, so ascending state order is lexicographic order on
coefficient sequences.  Every group generator acts linearly; its action,
read off the generator's windows as the rows where it is not the identity,
is packed with a small table per row of the change it makes to a state and
applied to a whole chunk of states at once.

One expansion step serves both entry points: apply every generator to a
chunk of the frontier, drop the images already visited, deduplicate the
rest by sorting, and mark them.  `orbit_partition` keeps the visited set as
a bitset over the space and takes seeds in ascending order, so each
representative is its orbit's minimum.  `orbit_closure` keeps the visited
set as a sorted array, so its memory follows the one orbit it explores.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def kernel_choice() -> str:
    """Name of the orbit kernel (there is one, in plain numpy)."""
    return "numpy"


class PackedActions:
    """Sparse row-update form of linear generator actions, each given as
    {row: {column: coefficient}} over the rows where it is not the identity.

    ``gens[g]`` lists the rows that generator g changes, each as (columns,
    table): the columns are the row itself and every column it reads, and
    the table maps their digits, read as a base-radix number, to the change
    the row makes to the state.  Elementary generators read at most two
    digits per row, so the tables are small.
    """

    __slots__ = ("dim", "radix", "pows", "gens")

    def __init__(self, dim, radix, actions, add_table, mul_table):
        self.dim = dim
        self.radix = radix
        self.pows = radix ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        add = np.asarray(add_table, dtype=np.int64)
        mul = np.asarray(mul_table, dtype=np.int64)
        self.gens = []
        seen = set()
        changes = {}  # (scalars, position of the row) -> change in the row's digit
        for action in actions:
            key = tuple((r, tuple(sorted(row.items()))) for r, row in sorted(action.items()))
            if key in seen:
                continue
            seen.add(key)
            rows = []
            for r, row in sorted(action.items()):
                cols = sorted({r} | set(row))
                ck = (tuple(row.get(c, 0) for c in cols), cols.index(r))
                if ck not in changes:
                    digits = np.indices((radix,) * len(cols)).reshape(len(cols), -1)
                    new = np.zeros(digits.shape[1], dtype=np.int64)
                    for a, d in zip(ck[0], digits):
                        new = add[new, mul[a, d]]
                    changes[ck] = new - digits[ck[1]]
                rows.append((cols, changes[ck] * self.pows[r]))
            if rows:
                self.gens.append(rows)

    @property
    def n_gens(self) -> int:
        return len(self.gens)

    def space(self) -> int:
        return self.radix ** self.dim


def _apply_gen_batch(states, digits, pa: PackedActions, g: int, out) -> None:
    """Write generator g's image of every state into out; digits[i] holds
    digit i of every state."""
    out[:] = states
    for cols, table in pa.gens[g]:
        key = digits[cols[0]]
        for c in cols[1:]:
            key = key * pa.radix + digits[c]
        out += table[key]


_CHUNK = 1 << 14


def _expand(frontier, pa: PackedActions):
    """Yield the images of frontier states under every generator, one
    chunk of the frontier at a time."""
    if not pa.n_gens:
        return
    for lo in range(0, frontier.size, _CHUNK):
        chunk = frontier[lo:lo + _CHUNK]
        digits = (chunk // pa.pows[:, None]) % pa.radix
        out = np.empty((pa.n_gens, chunk.size), dtype=np.int64)
        for g in range(pa.n_gens):
            _apply_gen_batch(chunk, digits, pa, g, out[g])
        yield out.ravel()


def _sorted_unique(a):
    """The distinct values of a, ascending; sorts a in place.  np.unique
    would hash on recent numpy, many times slower than a sort here."""
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _unvisited(bits, states):
    return bits[states >> 3] & _BIT[states & 7] == 0


def _mark(bits, states):
    np.bitwise_or.at(bits, states >> 3, _BIT[states & 7])


def _next_unvisited(bits, start: int) -> int:
    """Least state >= start (rounded down to its byte) whose bit is clear,
    or -1; the bits past the end of the space are set."""
    i, block = start >> 3, 512
    while i < bits.size:
        hit = np.flatnonzero(bits[i:i + block] != 0xFF)
        if hit.size:
            byte = i + int(hit[0])
            b = int(bits[byte])
            return (byte << 3) + (~b & (b + 1)).bit_length() - 1
        i += block
        block <<= 1
    return -1


def orbit_partition(pa: PackedActions, budget: int):
    """Sweep the whole space: (reps ascending, sizes) of every orbit.

    Reps are the minimal state of each orbit because seeds are taken in
    ascending order.
    """
    space = pa.space()
    if space > budget:
        raise BudgetExceeded(space, budget)
    bits = np.zeros((space + 7) >> 3, dtype=np.uint8)
    _mark(bits, np.arange(space, bits.size << 3))  # padding counts as visited
    reps, sizes = [], []
    seed = 0
    while (seed := _next_unvisited(bits, seed)) >= 0:
        frontier = np.array([seed], dtype=np.int64)
        _mark(bits, frontier)
        size = 0
        while frontier.size:
            size += frontier.size
            fresh = []
            for cand in _expand(frontier, pa):
                cand = _sorted_unique(cand[_unvisited(bits, cand)])
                _mark(bits, cand)
                fresh.append(cand)
            frontier = np.concatenate(fresh) if fresh else frontier[:0]
        reps.append(seed)
        sizes.append(size)
    return reps, sizes


def orbit_closure(seed: int, pa: PackedActions, budget: int):
    """(minimal state, orbit size) of one orbit, without touching the rest
    of the space.  Raises BudgetExceeded if the orbit outgrows the budget."""
    visited = np.array([seed], dtype=np.int64)
    frontier = visited
    while frontier.size:
        fresh = []
        for cand in _expand(frontier, pa):
            cand = _sorted_unique(cand)
            pos = np.searchsorted(visited, cand)
            new = visited[np.minimum(pos, visited.size - 1)] != cand
            cand = cand[new]
            visited = np.insert(visited, pos[new], cand)
            if visited.size > budget:
                raise BudgetExceeded(visited.size, budget)
            fresh.append(cand)
        frontier = np.concatenate(fresh) if fresh else frontier[:0]
    return int(visited[0]), int(visited.size)
