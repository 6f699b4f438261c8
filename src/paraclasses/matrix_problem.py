"""Solving the truncated-polynomial matrix problem over a finite field.

`enumerate_orbits` gives the orbits of a shape over a field, each as its
lexicographic minimum under the fixed element order, ascending, with its
size, so the output is deterministic (and field-uniform for finite-type
shapes, as the tests check).  A shape with a side (1^a) is built in closed
form from the cells of `_bruhat_cells`, the positions of a row space of
dimension <= a relative to a partial flag, with q-binomial sizes (proofs
there); `orbit_count` takes their number with nothing built.  Any other
shape is swept: its whole space is partitioned under the combined
left/right centralizer action, generator actions packed from their windows.
The orbit sets are the only memo of the orbit layer, kept by shape and
field; the budget is checked before the memo is read, so a smaller budget
still refuses a space an earlier call solved.  Every limit of the layer is
checked here, where the shape is known and named; `check_space` words the
state limit, the budget or 2^63, for a shape and for the space bound
`--reps` checks before its first line, `check_sweep` refuses a shape,
built or swept (that limit, then array arithmetic), and the kernels refuse
only a closure that outgrows its budget.  Counts and representatives ask
for finite-type shapes over F_2 only, their orbits not depending on it.
`reduce_structured` implements the textual greedy pivot reductions for
row shapes (r) and (r, 1, ..., 1); the other finite-type families go
through the generic sweep.  `type_classify` applies the proved finiteness
families and the wild-pattern criterion, and `wild_invariant` computes the
quantity preserved by all moves on the (4,2) x (4,2) wild form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import gf
from .gf import FiniteField
from .centralizer import AlgElement, alg_from_entry, d_twist, reduced_action_generators
from .cocentralizer import CocentElement, CocentShape, act_left, act_right, check_sides
from .errors import BudgetExceeded
from .kernels import PackedActions, orbit_closure, orbit_partition
from .partitions import check_partition

DEFAULT_BUDGET = 1 << 22
_STATE_LIMIT = 1 << 63  # no state type holds more states

_orbit_cache: dict = {}


def _changed_rows(g: AlgElement, shape: CocentShape, index: dict, left: bool) -> dict:
    """{row: {column: coefficient}} over the flat coordinates of the shape,
    ``index`` mapping each slot to its row, where g's action is not the identity.

    Entry (i, j) becomes sum_k g_ik v_kj on the left and sum_k v_ik w_kj,
    w = d_twist(g), on the right, truncated to l_ij: its x^a coefficient
    takes window position t of g_ik (w_kj) times the x^(a - offset - t)
    coefficient of v_kj (v_ik)."""
    w = g if left else d_twist(g)
    K = shape.field
    rows = {}
    for (i, j, a), r in index.items():
        row = {}
        for k in range(len(w.lam)):
            (wi, wj), (vi, vj) = ((i, k), (k, j)) if left else ((k, j), (i, k))
            for t, c in enumerate(w.windows[wi][wj]):
                b = a - w.offset(wi, wj) - t
                if c != K.zero and 0 <= b < shape.l[vi][vj]:
                    row[index[vi, vj, b]] = c
        if row != {r: K.one}:
            rows[r] = row
    return rows


def packed_actions(shape: CocentShape) -> PackedActions:
    """The reduced generator actions, packed for the kernels straight from
    each generator's windows, refused by `check_sweep` at its default
    budget of 2^63 states, past which no state type holds a state."""
    K = shape.field
    check_sweep(shape)
    index = {slot: r for r, slot in enumerate(shape.slots())}
    actions = [_changed_rows(g, shape, index, True)
               for g in reduced_action_generators(shape.mu, K)]
    actions += [_changed_rows(g, shape, index, False)
                for g in reduced_action_generators(shape.nu, K)]
    return PackedActions(shape.dim, K, actions)


def encode(v: CocentElement) -> int:
    sh = v.shape
    s = 0
    for c in v.flat():
        s = s * sh.field.order + c
    return s


def decode(state: int, shape: CocentShape) -> CocentElement:
    flat = []
    for _ in range(shape.dim):
        state, c = divmod(state, shape.field.order)
        flat.append(c)
    flat.reverse()
    return CocentElement.from_flat(shape, flat)


@dataclass(frozen=True)
class OrbitSet:
    shape: CocentShape
    reps: tuple          # canonical (lex-min) representatives
    sizes: tuple         # orbit sizes, same order

    @property
    def count(self) -> int:
        return len(self.reps)


def _describe(shape: CocentShape) -> str:
    """The shape and field, as "(2,1)x(1,1) over F_3"."""
    mu, nu = (",".join(map(str, lam)) for lam in (shape.mu, shape.nu))
    return f"({mu})x({nu}) over F_{shape.field.order}"


def check_space(shape: CocentShape, budget: int = _STATE_LIMIT) -> int:
    """The number of states of the shape's space, refused, naming the shape,
    field and limit, past the budget or 2^63, which fits no state type."""
    space, limit = shape.field.order ** shape.dim, min(budget, _STATE_LIMIT)
    if space > limit:
        raise BudgetExceeded(space, limit, _describe(shape))
    return space


def check_sweep(shape: CocentShape, budget: int = _STATE_LIMIT) -> int:
    """The number of states of the shape's space, refused, naming the shape
    and field, as a sweep of it is refused: past the budget or 2^63, then
    over a field without array arithmetic."""
    space = check_space(shape, budget)
    try:
        shape.field.check_arrays()
    except BudgetExceeded as e:
        raise BudgetExceeded(e.required, e.budget, f"{_describe(shape)}: {e.what}",
                             e.unit) from None
    return space


@lru_cache(maxsize=None)
def _bruhat_cells(mu, nu):
    """The cells (r_1..r_k) of a shape with a side (1^a), None for any other
    shape, refused as `CocentShape` refuses malformed sides: with m_1..m_k
    the multiplicities of the distinct parts of the other side, in
    descending order of part, every tuple with 0 <= r_i <= m_i and
    sum r_i <= a, in lexicographic order, built r_i by r_i within
    a - r_1 - ... - r_(i-1), none other made.  They are its orbits.

    Proof, for mu = (1^a) (nu = (1^b) is the transpose): every entry has
    length min(1, nu_j) = 1, so the space is the a x l(nu) matrices over K,
    and Aut((1^a)) acts on the left as all of GL_a.  On the right only the
    constant terms of Aut(nu) survive the truncation.  An entry between
    parts of different sizes has offset 0, so a constant term, in one
    direction only; the constant terms thus make up the parabolic P of
    GL_{l(nu)} that fixes the flag F_1 < ... < F_k whose quotients
    F_i / F_{i-1} gather the m_i parts of one size, ordered by size, with
    Levi factor prod GL_{m_i}, and every element of P occurs.  GL_a reduces
    a matrix to its row space W, of any dimension <= a, and the P-orbits of
    subspaces are their positions relative to the flag (the Bruhat
    decomposition of the Grassmannian): the tuples
    r_i = dim(W & F_i) - dim(W & F_{i-1}), each with 0 <= r_i <= m_i, all
    of which occur.

    The size of the orbit of a cell, with q = |K|, k = sum r_i, and F_i
    taken from the smallest part upward (M_{<i}, R_{<i} the sums of the
    m_j, r_j of the earlier groups), is

        prod_i [m_i choose r_i]_q q^(r_i (M_{<i} - R_{<i})) * prod_{j<k} (q^a - q^j).

    The first product counts the subspaces W of the cell (Macdonald,
    Symmetric Functions and Hall Polynomials, ch. II), group by group:
    given W & F_{i-1}, of dimension R_{<i}, the space W & F_i is fixed by
    its image in F_i / F_{i-1}, an r_i-dimensional subspace of an
    m_i-dimensional space ([m_i choose r_i]_q choices), and by a lift of
    it, a linear map from that image to F_{i-1} / (W & F_{i-1}), of
    dimension M_{<i} - R_{<i}.  The second counts the matrices with one
    given row space W: a basis of W fixed, they are the a x k matrices of
    rank k, whose rows are its coordinates.  `enumerate_orbits` checks that
    the sizes add up to q^(a l(nu)).
    """
    mu, nu = check_sides(mu, nu)
    for side, other in ((mu, nu), (nu, mu)):
        if set(side) == {1}:
            cells = [()]
            for m in Counter(other).values():
                cells = [r + (k,) for r in cells for k in range(min(m, len(side) - sum(r)) + 1)]
            return tuple(cells)
    return None


def _q_binomial(m: int, r: int, q: int) -> int:
    """The number of r-dimensional subspaces of F_q^m."""
    num = den = 1
    for j in range(r):
        num *= q ** (m - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def _cell_size(groups, r, q: int, a: int) -> int:
    """The size of the orbit of cell r, for the group sizes m_i of the
    other side in descending order of part and a side (1^a): the formula
    of `_bruhat_cells`."""
    size, earlier, chosen = 1, 0, 0
    for m, k in zip(reversed(groups), reversed(r)):
        size *= _q_binomial(m, k, q) * q ** (k * (earlier - chosen))
        earlier, chosen = earlier + m, chosen + k
    for j in range(chosen):
        size *= q ** a - q ** j
    return size


def _cell_orbits(shape: CocentShape, cells) -> tuple:
    """The representatives and sizes of the orbits of a shape with a side
    (1^a), one per cell, in ascending order of representative.

    For mu = (1^a), group the parts of nu by size in descending order; the
    representative of the cell (r_i) puts a 1 at the last r_i columns of
    group i, the chosen columns taken in increasing order on the rows from
    the bottom up.  For nu = (1^b) it puts a 1 at the last r_i rows of
    group i of mu, the chosen rows taken in increasing order on the columns
    from the right leftwards.  Its row space (column space) is spanned by
    the unit vectors of the chosen parts, r_i of them in group i, so its
    dimensions against the flag of `_bruhat_cells` are those of the cell:
    one representative per orbit.  That each is its orbit's lex-minimum,
    the one a sweep picks, is checked against the sweep over seven fields
    in the tests.  Its entries are 0 and 1, indices 0 and 1 in every field,
    so ascending flat tuples are the sweep's ascending states; each is
    sorted together with its size, so the two stay in the same order.
    """
    field = shape.field
    rows, cols = len(shape.mu), len(shape.nu)
    by_column = set(shape.mu) == {1}
    groups = list(Counter(shape.nu if by_column else shape.mu).values())
    ends = list(itertools.accumulate(groups))
    a = rows if by_column else cols
    pairs = []
    for r in cells:
        flat = [field.zero] * (rows * cols)
        chosen = [j for end, k in zip(ends, r) for j in range(end - k, end)]
        for t, j in enumerate(chosen):
            flat[(rows - 1 - t) * cols + j if by_column else j * cols + cols - 1 - t] = field.one
        pairs.append((tuple(flat), _cell_size(groups, r, field.order, a)))
    flats, sizes = zip(*sorted(pairs))
    return tuple(CocentElement.from_flat(shape, f) for f in flats), sizes


def enumerate_orbits(mu, nu, field: FiniteField, budget: int = DEFAULT_BUDGET) -> OrbitSet:
    """The orbits of (mu, nu) over the field, lex-min representatives in
    ascending order with their sizes: built from the cells of a shape with
    a side (1^a), swept for any other shape, each once `check_sweep` admits
    the space, and memoized by shape and field."""
    shape = CocentShape(mu, nu, field)
    space = check_sweep(shape, budget)
    key = shape.key()
    if key not in _orbit_cache:
        if (cells := _bruhat_cells(shape.mu, shape.nu)) is None:
            states, sizes = orbit_partition(packed_actions(shape))
            reps = tuple(decode(s, shape) for s in states)
        else:
            reps, sizes = _cell_orbits(shape, cells)
        assert sum(sizes) == space
        _orbit_cache[key] = OrbitSet(shape, reps, tuple(sizes))
    return _orbit_cache[key]


def orbit_count(mu, nu, field: FiniteField, budget: int = DEFAULT_BUDGET) -> int:
    """The number of orbits of (mu, nu) over the field, with nothing built:
    the number of cells of a shape with a side (1^a), where no budget
    applies, else the count of `enumerate_orbits`."""
    if (cells := _bruhat_cells(tuple(mu), tuple(nu))) is not None:
        return len(cells)
    return enumerate_orbits(mu, nu, field, budget).count


def canonical_form(v: CocentElement, budget: int = DEFAULT_BUDGET) -> CocentElement:
    """Lexicographic minimum of v's orbit (orbit-local closure only)."""
    pa = packed_actions(v.shape)
    try:
        mn, _ = orbit_closure(encode(v), pa, budget)
    except BudgetExceeded as e:
        raise BudgetExceeded(e.required, e.budget, _describe(v.shape),
                             "at least {} states") from None
    return decode(mn, v.shape)


# -- structured reductions ----------------------------------------------------


def reduce_structured(v: CocentElement, log: Optional[list] = None) -> CocentElement:
    """Greedy pivot reduction for mu = (r) or (r, 1, ..., 1).

    Every step is a single generator action applied through act_left /
    act_right (and appended to ``log`` when given), so the result stays in
    the orbit of v; all entries of the result are 0 or 1.
    """
    sh = v.shape
    mu, nu = sh.mu, sh.nu
    if len(mu) > 1 and any(x != 1 for x in mu[1:]):
        raise ValueError(f"unsupported row shape {mu}: need (r) or (r,1,...,1)")
    K = sh.field
    w = v

    def left(g: AlgElement):
        nonlocal w
        w = act_left(g, w)
        if log is not None:
            log.append(("L", g))

    def right(g: AlgElement):
        nonlocal w
        w = act_right(w, g)
        if log is not None:
            log.append(("R", g))

    ncols = len(nu)
    # phase 1: echelon form on the height-1 rows
    pivot_cols: dict[int, int] = {}  # column -> row
    for ri in range(1, len(mu)):
        for pc, pr in pivot_cols.items():
            c = w.entries[ri][pc][0]
            if c != K.zero:
                left(alg_from_entry(mu, K, ri, pr, (K.neg(c),)))
        j = next((j for j in range(ncols) if w.entries[ri][j][0] != K.zero), None)
        if j is None:
            continue
        left(alg_from_entry(mu, K, ri, ri, (K.inv(w.entries[ri][j][0]),)))
        for rj in range(1, len(mu)):
            if rj == ri:
                continue
            c = w.entries[rj][j][0]
            if c != K.zero:
                left(alg_from_entry(mu, K, rj, ri, (K.neg(c),)))
        for j2 in range(ncols):
            if j2 == j:
                continue
            c = w.entries[ri][j2][0]
            if c != K.zero:
                # col j2 += col j * (-c); offset vanishes since nu_j >= nu_j2
                assert nu[j] >= nu[j2]
                right(alg_from_entry(nu, K, j, j2, (K.neg(c),)))
        pivot_cols[j] = ri

    # phase 2: monomial normalization + greedy kill on the tall row,
    # pivot columns of phase 1 excluded
    avail = [j for j in range(ncols) if j not in pivot_cols]
    levels: dict[int, int] = {}
    for j in avail:
        e = w.entries[0][j]
        val = next((a for a, c in enumerate(e) if c != K.zero), None)
        if val is None:
            continue
        u = _series_inverse(tuple(e[val:]), nu[j], K)
        right(alg_from_entry(nu, K, j, j, u))
        levels[j] = val
    alive = sorted(levels)
    while alive:
        piv = min(alive, key=lambda j: (levels[j], j))
        alive.remove(piv)
        for j in list(alive):
            shift = max(0, nu[j] - nu[piv])
            excess = levels[j] - levels[piv] - shift
            if excess >= 0:
                a = (0,) * excess + (K.neg(K.one),)
                right(alg_from_entry(nu, K, piv, j, a))
                assert all(c == K.zero for c in w.entries[0][j])
                alive.remove(j)

    # phase 3: shaded entries above the phase-1 pivots, normalized to a
    # single 1 by a column unit, with the pivot repaired by a row unit
    for pc, pr in pivot_cols.items():
        e = w.entries[0][pc]
        val = next((a for a, c in enumerate(e) if c != K.zero), None)
        if val is None:
            continue
        u = _series_inverse(tuple(e[val:]), nu[pc], K)
        right(alg_from_entry(nu, K, pc, pc, u))
        rep = w.entries[pr][pc][0]
        if rep != K.one:
            left(alg_from_entry(mu, K, pr, pr, (K.inv(rep),)))
    return w


def _series_inverse(coeffs: tuple, length: int, field: FiniteField) -> tuple:
    """Inverse of a unit power series, truncated to the given length."""
    assert coeffs[0] != field.zero
    inv0 = field.inv(coeffs[0])
    out = [inv0] + [field.zero] * (length - 1)
    for k in range(1, length):
        acc = field.zero
        for i in range(1, min(k, len(coeffs) - 1) + 1):
            acc = field.add(acc, field.mul(coeffs[i], out[k - i]))
        out[k] = field.neg(field.mul(inv0, acc))
    return gf.pnormalize(out) or (field.zero,)


# -- type classification ------------------------------------------------------


@dataclass(frozen=True)
class TypeVerdict:
    kind: str  # "finite", "infinite" or "unknown"
    rule: str


def _finite_family(lam) -> Optional[str]:
    if all(x <= 2 for x in lam):
        return "(2^a,1^b)"
    if all(x == 1 for x in lam[1:]):
        return "(r,1^b)"
    if tuple(lam) == (3, 2):
        return "(3,2)"
    return None


def _has_wild_pattern(lam) -> bool:
    return len(lam) >= 2 and lam[0] >= 4 and lam[1] >= 2


def type_classify(mu, nu) -> TypeVerdict:
    """Finite via the proved families on either side, which hold every
    partition of size < 6: at most one part above 1 is (r,1^b), no part
    above 2 is (2^a,1^b), and two parts above 1, one of them above 2,
    leave only (3,2) in size 5.  Infinite via the wild (4,2) pattern on
    both sides; unknown otherwise."""
    mu, nu = check_partition(mu), check_partition(nu)
    for name, lam in (("mu", mu), ("nu", nu)):
        fam = _finite_family(lam)
        if fam is not None:
            return TypeVerdict("finite", f"{name} of the form {fam}")
    if _has_wild_pattern(mu) and _has_wild_pattern(nu):
        return TypeVerdict("infinite", "(4,2) pattern embeds on both sides")
    return TypeVerdict("unknown", "no applicable rule")


def wild_invariant(v: CocentElement) -> Optional[int]:
    """a * b^-1 * c^-1 * d for the (4,2) x (4,2) wild form with lowest terms
    a x^2, b x, c x, d; absent when v is not of that form."""
    sh = v.shape
    if sh.mu != (4, 2) or sh.nu != (4, 2):
        return None
    K = sh.field
    e11, e12 = v.entries[0]
    e21, e22 = v.entries[1]
    if e11[0] != K.zero or e11[1] != K.zero or e11[2] == K.zero:
        return None
    if e12[0] != K.zero or e12[1] == K.zero:
        return None
    if e21[0] != K.zero or e21[1] == K.zero:
        return None
    if e22[0] == K.zero:
        return None
    return K.mul(K.mul(e11[2], K.inv(e12[1])), K.mul(K.inv(e21[1]), e22[0]))
