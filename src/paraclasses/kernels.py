"""The orbit kernel: two whole-space sweeps and an orbit-local closure
over packed generator actions.

States are mixed-radix integers over the field order, first coefficient
most significant, so ascending state order is lexicographic order on
coefficient sequences.  Every generator acts linearly; its action, read
off its windows as the rows where it is not the identity, is packed with
a small table per row of the change it makes to a state.

States, the powers of the radix and the change tables are int32 for a
space past one chunk and below 2^31, and int64 otherwise; `PackedActions`
decides once and the sweeps follow, while reps, sizes and the closure
minimum leave the kernel as Python ints.  A space past 2^63 fits no type;
`matrix_problem.packed_actions` refuses it, naming the shape and field.
Nothing overflows: a generator's image is the state plus one change per
row, each moving that row's digit from one value to another, so every
partial sum is itself a state in [0, space).  Digits are intp, as they
index the tables.  A space of at most one chunk stays int64: its label sweep
gathers labels by state at every step, numpy converts int32 indices to
intp at each gather, and with int32 those sweeps took 20-25 % longer,
while their arrays are bounded by the chunk anyway.

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
ascending seeds: apply every generator to a chunk of the level, drop
the images already visited (one byte per state), deduplicate the rest by
sorting, mark them and queue them after the level.  `orbit_closure`
searches one orbit the same way, keeping its visited set as a sorted
array.

Bytes, besides the returned lists, with w = 4 or 8 bytes per state.  The
breadth-first sweep holds a visited byte and a queue entry per state;
per chunk of c <= _CHUNK level states, 8 bytes per digit and w per image
under each generator, two 8-byte table keys, and in the deduplication a
byte mask and at most three more image-sized arrays (the unvisited
images, their distinct values and the previous chunk's); and numpy's
ufunc buffers, B = 2^18 bytes at most.  Its peak is at most
    (1 + w) * space + ((4w + 1) * n_gens + 8 * dim + 16) * _CHUNK + B
bytes, so 5 * space + (17 * n_gens + 8 * dim + 16) * _CHUNK + B below
2^31: the state budget bounds the bytes.  The label sweep holds the
states, digits and images and at most four label arrays; at its end the
states, two label arrays, the images and int64 counts and reps: at most
(48 + 8 * n_gens + 8 * dim) * space + B bytes, with space <= _CHUNK.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

_CHUNK = 1 << 14  # frontier states expanded at once; the label sweep's largest space


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
    digits per row, so the tables are small.  ``dtype`` is the kernel's
    integer type for states, int32 for a space past one chunk and below
    2^31 and int64 otherwise; ``pows`` and the tables are built in it.  The
    space must be at most 2^63.
    """

    __slots__ = ("dim", "radix", "dtype", "pows", "gens")

    def __init__(self, dim, field, actions):
        self.dim = dim
        self.radix = radix = field.order
        self.dtype = dtype = np.int32 if _CHUNK < radix ** dim < 2 ** 31 else np.int64
        self.pows = radix ** np.arange(dim - 1, -1, -1, dtype=dtype)
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
                    changes[ck] = np.subtract(new, digits[ck[1]], dtype=dtype)
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
    digit i of every state.  Each row moves its own digit from one value to
    another, so every partial sum is a state and fits pa.dtype."""
    out[:] = states
    for cols, table in pa.gens[g]:
        key = digits[cols[0]]
        for c in cols[1:]:
            key = key * pa.radix + digits[c]
        out += table[key]


def _expand(frontier, pa: PackedActions):
    """Yield the images of frontier states under every generator, one
    chunk of the frontier at a time.  The digit and image buffers are
    allocated once, so each yielded array is overwritten by the next."""
    if not pa.n_gens:
        return
    width = min(frontier.size, _CHUNK)
    digit_buf = np.empty((pa.dim, width), dtype=np.intp)  # they index the tables
    image_buf = np.empty(pa.n_gens * width, dtype=pa.dtype)
    for lo in range(0, frontier.size, _CHUNK):
        chunk = frontier[lo:lo + _CHUNK]
        digits = digit_buf[:, :chunk.size]
        np.floor_divide(chunk, pa.pows[:, None], out=digits)
        np.remainder(digits, pa.radix, out=digits)
        out = image_buf[:pa.n_gens * chunk.size].reshape(pa.n_gens, chunk.size)
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
    """Least unvisited state >= start, or -1.  argmin finds a block's first
    False without allocating."""
    i, block = start, 4096
    while i < seen.size:
        j = i + int(seen[i:i + block].argmin())
        if not seen[j]:
            return j
        i += block
        block <<= 1
    return -1


def orbit_partition(pa: PackedActions):
    """(reps ascending, sizes) of every orbit, each rep its orbit's minimum."""
    return _label_sweep(pa) if pa.space() <= _CHUNK else _bfs_sweep(pa)


def _label_sweep(pa: PackedActions):
    """orbit_partition of at most one chunk, by min-label propagation.
    Without generators there are no images and every state is alone."""
    states = np.arange(pa.space(), dtype=pa.dtype)
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
    """orbit_partition by breadth-first search from ascending seeds.  One
    queue holds the level being expanded, then the new states it reaches;
    a level that fits before its own start moves to the front first, so
    the queue's pages touched stay near the two largest adjacent levels."""
    seen = np.zeros(pa.space(), dtype=bool)
    queue = np.empty(pa.space(), dtype=pa.dtype)
    reps, sizes = [], []
    seed = 0
    while (seed := _next_unvisited(seen, seed)) >= 0:
        seen[seed] = True
        queue[0] = seed
        head, tail, size = 0, 1, 1
        while head < tail:
            if tail - head <= head:
                queue[:tail - head] = queue[head:tail]
                head, tail = 0, tail - head
            level, head = queue[head:tail], tail
            for images in _expand(level, pa):
                new = _sorted_unique(images[~seen[images]])
                seen[new] = True
                queue[tail:tail + new.size] = new
                tail += new.size
                size += new.size
        reps.append(seed)
        sizes.append(size)
    return reps, sizes


def orbit_closure(seed: int, pa: PackedActions, budget: int):
    """(minimal state, orbit size) of one orbit, without touching the rest
    of the space.  Raises BudgetExceeded if the orbit outgrows the budget."""
    visited = np.array([seed], dtype=pa.dtype)
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
