"""The orbit kernel: two whole-space sweeps and an orbit-local closure
over packed generator actions.

States are mixed-radix integers over the field order, first coefficient
most significant, so ascending state order is lexicographic order on
coefficient sequences.  Every generator acts linearly; its action, read
off its windows as the rows where it is not the identity, is packed with
a small table per row of the change it makes to a state.

`orbit_partition` gives each orbit's minimal state and size.  A space of
at most one chunk is swept at once by min-label propagation: from
label(s) = s, repeat label = min(label, label o g) for each generator g,
then label = label o label, until nothing changes.  Labels only decrease
and stay inside their orbit.  At the fixed point label(s) <= label(g s)
for all s and g; g permutes a finite set, so the label is constant on
the cycles of g, hence on the orbit, whose minimum keeps its own label.
At one chunk the image table is no larger than the breadth-first search's
chunk buffer; with the switch at 2^16 the reps benchmark's peak RSS rose
from 36 to 49 MB.  A larger space is swept by breadth-first search from
ascending seeds: apply every generator to a chunk of the frontier, drop
the images already visited (one byte per state), deduplicate the rest by
sorting, and mark them.  `orbit_closure` searches one orbit the same way,
keeping its visited set as a sorted array.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def kernel_choice() -> str:
    """Name of the orbit kernel (there is one, in plain numpy)."""
    return "numpy"


class PackedActions:
    """Sparse row-update form of linear generator actions over a field, each
    given as {row: {column: coefficient}} over the rows where it is not the identity.

    ``gens[g]`` lists the rows that generator g changes, each as (columns,
    table): the columns are the row itself and every column it reads, and
    the table maps their digits, read as a base-radix number, to the change
    the row makes to the state.  Elementary generators read at most two
    digits per row, so the tables are small.
    """

    __slots__ = ("dim", "radix", "pows", "gens")

    def __init__(self, dim, field, actions):
        self.dim = dim
        self.radix = radix = field.order
        self.pows = radix ** np.arange(dim - 1, -1, -1, dtype=np.int64)
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
                        new = field.vadd(new, field.vmul(a, d))
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


def _next_unvisited(seen, start: int) -> int:
    """Least unvisited state >= start, or -1."""
    i, block = start, 4096
    while i < seen.size:
        hit = np.flatnonzero(~seen[i:i + block])
        if hit.size:
            return i + int(hit[0])
        i += block
        block <<= 1
    return -1


def orbit_partition(pa: PackedActions, budget: int):
    """(reps ascending, sizes) of every orbit, each rep its orbit's minimum."""
    if (space := pa.space()) > budget:
        raise BudgetExceeded(space, budget)
    return _label_sweep(pa) if space <= _CHUNK else _bfs_sweep(pa)


def _label_sweep(pa: PackedActions):
    """orbit_partition of at most one chunk, by min-label propagation.
    Without generators there are no images and every state is alone."""
    states = np.arange(pa.space(), dtype=np.int64)
    label, prev = states, None
    for images in _expand(states, pa):
        images = images.reshape(pa.n_gens, states.size)
        while prev is None or not np.array_equal(label, prev):
            prev = label
            for img in images:
                label = np.minimum(label, label[img])
            label = label[label]
    reps = np.flatnonzero(label == states)
    return reps.tolist(), np.bincount(label)[reps].tolist()


def _bfs_sweep(pa: PackedActions):
    """orbit_partition by breadth-first search from ascending seeds."""
    seen = np.zeros(pa.space(), dtype=bool)
    reps, sizes = [], []
    seed = 0
    while (seed := _next_unvisited(seen, seed)) >= 0:
        frontier = np.array([seed], dtype=np.int64)
        seen[seed] = True
        size = 0
        while frontier.size:
            size += frontier.size
            fresh = []
            for cand in _expand(frontier, pa):
                cand = _sorted_unique(cand[~seen[cand]])
                seen[cand] = True
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
