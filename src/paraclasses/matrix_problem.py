"""Solving the truncated-polynomial matrix problem over a finite field.

`enumerate_orbits` sweeps the whole (finite) space and partitions it under
the combined left/right centralizer action; representatives are the
lexicographic minimum of each orbit under the fixed element order, so the
output is deterministic and field-uniform for finite-type shapes.  The
generators' actions are packed for the kernel straight from their windows.
The orbit sets are the only memo of the orbit layer, kept by shape and
field; the budget is checked before the memo is read, so a smaller budget
still refuses a space an earlier call swept.  Counting asks for finite-type
shapes over F_2 only, since their counts do not depend on the field.
`reduce_structured` implements the textual greedy pivot reductions for
row shapes (r) and (r, 1, ..., 1); the other finite-type families go
through the generic sweep.  `type_classify` applies the proved finiteness
families and the wild-pattern criterion, and `wild_invariant` computes the
quantity preserved by all moves on the (4,2) x (4,2) wild form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import gf
from .gf import FiniteField
from .centralizer import AlgElement, alg_from_entry, d_twist, reduced_action_generators
from .cocentralizer import CocentElement, CocentShape, act_left, act_right
from .errors import BudgetExceeded
from .kernels import PackedActions, orbit_closure, orbit_partition
from .partitions import check_partition

DEFAULT_BUDGET = 1 << 22

_orbit_cache: dict = {}


def _changed_rows(g: AlgElement, shape: CocentShape, left: bool) -> dict:
    """{row: {column: coefficient}} over the flat coordinates of the shape
    (in the order of ``shape.slots()``) where g's action is not the identity.

    Entry (i, j) becomes sum_k g_ik v_kj on the left and sum_k v_ik w_kj,
    w = d_twist(g), on the right, truncated to l_ij: its x^a coefficient
    takes window position t of g_ik (w_kj) times the x^(a - offset - t)
    coefficient of v_kj (v_ik)."""
    w = g if left else d_twist(g)
    K = shape.field
    index = {slot: r for r, slot in enumerate(shape.slots())}
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
    each generator's windows."""
    K = shape.field
    actions = [_changed_rows(g, shape, True)
               for g in reduced_action_generators(shape.mu, K)]
    actions += [_changed_rows(g, shape, False)
                for g in reduced_action_generators(shape.nu, K)]
    t = K.tables()
    return PackedActions(shape.dim, K.order, actions, t["add"], t["mul"])


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


def enumerate_orbits(mu, nu, field: FiniteField, budget: int = DEFAULT_BUDGET) -> OrbitSet:
    """Complete orbit partition of the space for (mu, nu) over the field,
    memoized by shape and field once the budget admits the space."""
    shape = CocentShape(mu, nu, field)
    space = field.order ** shape.dim
    if space > budget:
        raise BudgetExceeded(space, budget, _describe(shape))
    key = shape.key()
    if key not in _orbit_cache:
        reps, sizes = orbit_partition(packed_actions(shape), budget)
        assert sum(sizes) == space
        _orbit_cache[key] = OrbitSet(shape, tuple(decode(r, shape) for r in reps),
                                     tuple(sizes))
    return _orbit_cache[key]


def orbit_count(mu, nu, field: FiniteField, budget: int = DEFAULT_BUDGET) -> int:
    return enumerate_orbits(mu, nu, field, budget).count


def canonical_form(v: CocentElement, budget: int = DEFAULT_BUDGET) -> CocentElement:
    """Lexicographic minimum of v's orbit (orbit-local closure only)."""
    pa = packed_actions(v.shape)
    try:
        mn, _ = orbit_closure(encode(v), pa, budget)
    except BudgetExceeded as e:
        raise BudgetExceeded(e.required, e.budget, _describe(v.shape)) from None
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
    """Finite via the proved families or a side of size < 6; infinite via the
    wild (4,2) pattern on both sides; unknown otherwise."""
    mu, nu = check_partition(mu), check_partition(nu)
    for name, lam in (("mu", mu), ("nu", nu)):
        fam = _finite_family(lam)
        if fam is not None:
            return TypeVerdict("finite", f"{name} of the form {fam}")
        if sum(lam) < 6:
            return TypeVerdict("finite", f"|{name}| < 6")
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
