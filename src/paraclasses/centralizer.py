"""The centralizer algebra of a Jordan matrix J_lambda(C_p).

Elements are s x s grids of truncated polynomials over K: the (i,j) block
lives in K[x]_{lam_i} and is divisible by x^(lam_i - lam_j) when lam_i >
lam_j.  Only the min(lam_i, lam_j) legal coefficients are stored (the
"window"), so the divisibility constraint is structural.  A transposed
variant of the same data (offsets mirrored, blocks truncated to the column
ring) carries the right action on row spaces; `d_twist` maps between the
two shapes by moving the mandatory x-factors across the diagonal while
keeping every window in place.

Unit-group generators come in the four elementary families (diagonal unit
multiplications, copy swaps, and the two directed addition families); their
meaning is defined by the realized algebra elements under `alg_mul`, and
the group they generate is checked against exhaustive unit filtering in the
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import gf
from .gf import FiniteField, Poly
from .matrices import Mat
from .partitions import check_partition


class AlgElement:
    """Element of the truncated block-polynomial algebra over a partition."""

    __slots__ = ("lam", "field", "windows", "transposed", "_hash")

    def __init__(self, lam, field: FiniteField, windows, transposed: bool = False):
        self.lam = check_partition(lam)
        self.field = field
        self.windows = tuple(tuple(tuple(w) for w in row) for row in windows)
        self.transposed = transposed
        s = len(self.lam)
        assert len(self.windows) == s and all(len(r) == s for r in self.windows)
        for i in range(s):
            for j in range(s):
                assert len(self.windows[i][j]) == min(self.lam[i], self.lam[j])
        self._hash = None

    def offset(self, i: int, j: int) -> int:
        if self.transposed:
            return max(0, self.lam[j] - self.lam[i])
        return max(0, self.lam[i] - self.lam[j])

    def ring(self, i: int, j: int) -> int:
        return self.lam[j] if self.transposed else self.lam[i]

    def entry_coeffs(self, i: int, j: int) -> list:
        """Absolute coefficient list of block (i,j) in its ring."""
        out = [self.field.zero] * self.ring(i, j)
        off = self.offset(i, j)
        for t, c in enumerate(self.windows[i][j]):
            out[off + t] = c
        return out

    def __eq__(self, other):
        return (isinstance(other, AlgElement) and self.lam == other.lam
                and self.field is other.field and self.transposed == other.transposed
                and self.windows == other.windows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.lam, id(self.field), self.transposed, self.windows))
        return self._hash

    def __repr__(self):
        kind = "AlgElementT" if self.transposed else "AlgElement"
        rows = []
        for i in range(len(self.lam)):
            rows.append([gf.poly_str(gf.pnormalize(self.entry_coeffs(i, j)), self.field)
                         for j in range(len(self.lam))])
        return f"{kind}(lam={self.lam}, {rows})"


def _zero_windows(lam):
    return [[(0,) * min(a, b) for b in lam] for a in lam]


def alg_identity(lam, field: FiniteField) -> AlgElement:
    w = _zero_windows(lam)
    for i in range(len(lam)):
        wi = list(w[i][i])
        wi[0] = field.one
        w[i][i] = tuple(wi)
    return AlgElement(lam, field, w)


def alg_from_entry(lam, field, i, j, poly: Poly) -> AlgElement:
    """The identity with window (i,j) set to the coefficients of poly."""
    w = [list(r) for r in alg_identity(lam, field).windows]
    lim = min(lam[i], lam[j])
    assert gf.pdeg(poly) < lim, "parameter polynomial too long for this block"
    w[i][j] = tuple(poly) + (0,) * (lim - len(poly))
    return AlgElement(lam, field, w)


def truncated_product(left, right, rings, field: FiniteField) -> list:
    """Grid product of ``left`` and ``right`` with entry (i, j) truncated to
    its first rings[i][j] coefficients.  Every grid entry is an (offset,
    coefficients) pair holding the coefficient of x^(offset + t) at
    position t."""
    out = []
    for row, row_rings in zip(left, rings):
        out_row = []
        for j, ring in enumerate(row_rings):
            acc = [field.zero] * ring
            for (oa, wa), col in zip(row, right):
                ob, wb = col[j]
                for e1, c1 in enumerate(wa, oa + ob):
                    if e1 >= ring:
                        break
                    if c1 == field.zero:
                        continue
                    for e, c2 in enumerate(wb, e1):
                        if e >= ring:
                            break
                        if c2 != field.zero:
                            acc[e] = field.add(acc[e], field.mul(c1, c2))
            out_row.append(acc)
        out.append(out_row)
    return out


def _grid(a: AlgElement) -> list:
    """The windows of a with their exponent offsets, for truncated_product."""
    return [[(a.offset(i, j), w) for j, w in enumerate(row)]
            for i, row in enumerate(a.windows)]


def alg_mul(a: AlgElement, b: AlgElement) -> AlgElement:
    """Block-matrix product with per-entry truncation."""
    _check_pair(a, b)
    f = a.field
    s = len(a.lam)
    out = truncated_product(_grid(a), _grid(b),
                            [[a.ring(i, j) for j in range(s)] for i in range(s)], f)
    for i in range(s):
        for j in range(s):
            off = a.offset(i, j)
            assert all(c == f.zero for c in out[i][j][:off]), \
                "product left the algebra (divisibility constraint violated)"
            out[i][j] = out[i][j][off:]
    return AlgElement(a.lam, f, out, a.transposed)


def _check_pair(a, b):
    if a.lam != b.lam or a.field is not b.field or a.transposed != b.transposed:
        raise ValueError("algebra elements of mismatched shape")


def alg_is_unit(b: AlgElement) -> bool:
    """Invertibility via the constant-term block diagonal: one matrix over K
    per distinct part size, formed from the equal-size copies."""
    assert not b.transposed
    f = b.field
    lam = b.lam
    sizes = sorted(set(lam), reverse=True)
    for v in sizes:
        idx = [i for i, x in enumerate(lam) if x == v]
        m = Mat.zeros(f, len(idx), len(idx))
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                m.a[r, c] = b.windows[i][j][0]
        if not m.is_invertible():
            return False
    return True


def d_twist(b: AlgElement) -> AlgElement:
    """Move the mandatory x-factors across the diagonal: the isomorphism onto
    the transposed-shape algebra through which the right action is defined."""
    return AlgElement(b.lam, b.field, b.windows, not b.transposed)


def centralizer_dim(lam, d: int = 1) -> int:
    """Base-field dimension of the commutant of J_lambda(C_p), deg p = d."""
    lam = check_partition(lam)
    return d * sum(min(a, b) for a in lam for b in lam)


def alg_to_json(b: AlgElement) -> dict:
    """Grid of coefficient windows tagged with their exponent offsets."""
    f = b.field
    s = len(b.lam)
    return {
        "lambda": list(b.lam),
        "transposed": b.transposed,
        "blocks": [[{"offset": b.offset(i, j),
                     "coeffs": [f.element_str(c) for c in b.windows[i][j]]}
                    for j in range(s)] for i in range(s)],
    }


# -- generators of the unit group ------------------------------------------


@dataclass(frozen=True)
class Generator:
    kind: str          # "M", "E", "A<=" or "A>="
    i: int             # row part size
    j: int             # column part size
    l: int             # 1-based copy index on the row side
    m: int             # 1-based copy index on the column side
    param: Poly        # parameter polynomial (empty for E)
    realized: AlgElement


def _positions_by_size(lam) -> dict:
    out: dict[int, list] = {}
    for pos, v in enumerate(lam):
        out.setdefault(v, []).append(pos)
    return out


def _units_of_truncated_ring(v: int, field: FiniteField) -> Iterator[Poly]:
    """Units of K[x]_v: nonzero constant term."""
    for cs in itertools.product(field.elements(), repeat=v):
        if cs[0] != field.zero:
            yield gf.pnormalize(cs)


def generators(lam, field: FiniteField) -> list:
    """The four elementary families with full parameter ranges.

    Over a finite K this is a finite list whose realized elements generate
    the whole unit group of the algebra.
    """
    lam = check_partition(lam)
    if not lam:
        raise ValueError("partition must be nonempty")
    by_size = _positions_by_size(lam)
    sizes = sorted(by_size, reverse=True)
    out = []
    for v in sizes:
        poss = by_size[v]
        for l, pos in enumerate(poss, start=1):
            for a in _units_of_truncated_ring(v, field):
                out.append(Generator("M", v, v, l, l, a,
                                     alg_from_entry(lam, field, pos, pos, a)))
    for v in sizes:
        poss = by_size[v]
        for l in range(len(poss)):
            for m in range(l + 1, len(poss)):
                w = [list(r) for r in alg_identity(lam, field).windows]
                pl, pm = poss[l], poss[m]
                zero_diag = (0,) * v
                one = (field.one,) + (0,) * (v - 1)
                w[pl][pl] = zero_diag
                w[pm][pm] = zero_diag
                w[pl][pm] = one
                w[pm][pl] = one
                out.append(Generator("E", v, v, l + 1, m + 1, (),
                                     AlgElement(lam, field, w)))
    for vi in sizes:
        for vj in sizes:
            lim = min(vi, vj)
            kind = "A<=" if vi <= vj else "A>="
            for l, pr in enumerate(by_size[vi], start=1):
                for m, pc in enumerate(by_size[vj], start=1):
                    if pr == pc:
                        continue
                    for flat in itertools.product(field.elements(), repeat=lim):
                        a = gf.pnormalize(flat)
                        if not a:
                            continue
                        out.append(Generator(kind, vi, vj, l, m, a,
                                             alg_from_entry(lam, field, pr, pc, a)))
    return out


def reduced_action_generators(lam, field: FiniteField) -> tuple:
    """A small generating set of the same unit group, for orbit kernels,
    memoized by partition and field once the partition is checked.

    Unit multiplications are cut down to a primitive scalar and the
    filtration units 1 + w^s x^t; additions to the monomial parameters
    w^s x^t (the A families compose additively in the parameter).  Swaps
    are products of these.  Additions between adjacent parts suffice: parts
    are sorted, so along i < j < k (or i > j > k) the window offsets add, and
    Steinberg's relation [x_ij(a), x_jk(1)] = x_ik(a) rebuilds every other
    x_ik(w^s x^t) (Steinberg, Lectures on Chevalley Groups, 1967, §6).
    """
    return _reduced_action_generators(check_partition(lam), field)


@lru_cache(maxsize=None)
def _reduced_action_generators(lam: tuple, f: FiniteField) -> tuple:
    """The build behind reduced_action_generators; __wrapped__ is uncached."""
    out = []
    omega = f.primitive_element()
    basis = [f.pow(omega, s) for s in range(f.abs_degree)]
    seen_sizes = set()
    for pos, v in enumerate(lam):
        # one copy per size class suffices: transvections conjugate the
        # diagonal units onto the other copies
        if v in seen_sizes:
            continue
        seen_sizes.add(v)
        if f.order > 2:
            out.append(alg_from_entry(lam, f, pos, pos, (omega,)))
        for t in range(1, v):
            for c in basis:
                a = (f.one,) + (0,) * (t - 1) + (c,)
                out.append(alg_from_entry(lam, f, pos, pos, a))
    for pr in range(len(lam)):
        for pc in (pr - 1, pr + 1):
            if 0 <= pc < len(lam):
                for t in range(min(lam[pr], lam[pc])):
                    for c in basis:
                        out.append(alg_from_entry(lam, f, pr, pc, (0,) * t + (c,)))
    return tuple(out)


# -- embedding into base-field matrices -------------------------------------


def _mult_matrix(c: int, ext: FiniteField, base: FiniteField) -> Mat:
    """Matrix of multiplication by c on ext, in the power basis over base."""
    if ext is base:
        return Mat.from_rows(base, [[c]])
    assert ext.base is base
    d = ext.degree
    m = Mat.zeros(base, d, d)
    col_elt = c
    for j in range(d):
        for i, x in enumerate(ext.coeffs(col_elt)):
            m.a[i, j] = x
        col_elt = ext.mul(col_elt, ext.gen)
    return m


def embed(b: AlgElement, p: Poly, base: FiniteField) -> Mat:
    """The n x n base-field matrix of b in the commutant of J_lambda(C_p).

    A coefficient c of x^a in block (i,j) becomes the d x d multiplication
    matrix of c placed along the a-th block subdiagonal of the (i,j) block.
    """
    assert not b.transposed
    d = gf.pdeg(p)
    K = b.field
    if d == 1:
        assert K is base
    else:
        assert K.base is base and K.modulus == tuple(p)
    lam = b.lam
    n = sum(lam) * d
    offs = [0]
    for v in lam:
        offs.append(offs[-1] + v * d)
    out = Mat.zeros(base, n, n)
    for i in range(len(lam)):
        for j in range(len(lam)):
            off = b.offset(i, j)
            for t, c in enumerate(b.windows[i][j]):
                if c == K.zero:
                    continue
                a = off + t
                mm = _mult_matrix(c, K, base)
                for col in range(lam[j]):
                    row = col + a
                    if row >= lam[i]:
                        break
                    r0 = offs[i] + row * d
                    c0 = offs[j] + col * d
                    out.a[r0:r0 + d, c0:c0 + d] = mm.a
    return out
