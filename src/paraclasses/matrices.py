"""Exact dense matrices over a finite field.

Entries are field element indices stored in a numpy int32 array; row
operations go through the field's dense op tables, so elimination stays
exact and reasonably fast for the sizes this package needs (n up to a few
dozen, systems up to a few hundred unknowns).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import numpy as np

from . import gf
from .gf import FiniteField, Poly


class SimilarityUndetermined(Exception):
    """Randomized search for an invertible conjugator hit its retry bound."""


class Mat:
    __slots__ = ("field", "a")

    def __init__(self, field: FiniteField, a: np.ndarray):
        self.field = field
        self.a = np.ascontiguousarray(a, dtype=np.int32)
        assert self.a.ndim == 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.int32))

    @classmethod
    def identity(cls, field, n):
        a = np.zeros((n, n), dtype=np.int32)
        np.fill_diagonal(a, field.one)
        return cls(field, a)

    @classmethod
    def from_rows(cls, field, rows: Iterable[Iterable[int]]):
        return cls(field, np.array([list(r) for r in rows], dtype=np.int32))

    # -- basics --------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.a.shape == other.a.shape and bool((self.a == other.a).all()))

    def __hash__(self):
        return hash((id(self.field), self.a.shape, self.a.tobytes()))

    def copy(self) -> "Mat":
        return Mat(self.field, self.a.copy())

    def __getitem__(self, ij):
        return int(self.a[ij])

    def __repr__(self):
        return f"Mat({self.field!r}, {self.a.tolist()})"

    # -- arithmetic ------------------------------------------------------------

    def _t(self):
        return self.field.tables()

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.field, self._t()["add"][self.a, other.a])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        t = self._t()
        return Mat(self.field, t["add"][self.a, t["neg"][other.a]])

    def __neg__(self) -> "Mat":
        return Mat(self.field, self._t()["neg"][self.a])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other, mul=True)
        t = self._t()
        add, mul = t["add"], t["mul"]
        out = np.zeros((self.rows, other.cols), dtype=np.int32)
        for k in range(self.cols):
            term = mul[self.a[:, k][:, None], other.a[k, :][None, :]]
            out = add[out, term]
        return Mat(self.field, out)

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self._t()["mul"][c, self.a])

    def _check(self, other, mul=False):
        if self.field is not other.field:
            raise ValueError("matrices over different fields")
        if mul:
            if self.cols != other.rows:
                raise ValueError(f"dimension mismatch {self.a.shape} @ {other.a.shape}")
        elif self.a.shape != other.a.shape:
            raise ValueError(f"dimension mismatch {self.a.shape} vs {other.a.shape}")

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["Mat", list]:
        """Reduced row echelon form and the list of pivot columns."""
        t = self._t()
        add, mul, neg, inv = t["add"], t["mul"], t["neg"], t["inv"]
        a = self.a.copy()
        m, n = a.shape
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            piv = int(a[r, c])
            if piv != self.field.one:
                a[r] = mul[int(inv[piv]), a[r]]
            col = a[:, c].copy()
            col[r] = 0
            rows_to_fix = np.nonzero(col)[0]
            for i in rows_to_fix:
                f = int(neg[a[i, c]])
                a[i] = add[a[i], mul[f, a[r]]]
            pivots.append(c)
            r += 1
        return Mat(self.field, a), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list["Mat"]:
        """Basis of the right null space, as column vectors."""
        R, pivots = self.rref()
        n = self.cols
        free = [c for c in range(n) if c not in pivots]
        t = self._t()
        out = []
        for fc in free:
            v = np.zeros((n, 1), dtype=np.int32)
            v[fc, 0] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc, 0] = t["neg"][R.a[r, fc]]
            out.append(Mat(self.field, v))
        return out

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Mat(self.field, np.hstack([self.a, Mat.identity(self.field, n).a]))
        R, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Mat(self.field, R.a[:, n:])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def direct_sum(*mats: Mat) -> Mat:
    field = mats[0].field
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int32)
    r = c = 0
    for m in mats:
        out[r:r + m.rows, c:c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return Mat(field, out)


def block(rows_of_blocks: list) -> Mat:
    field = rows_of_blocks[0][0].field
    parts = [np.hstack([b.a for b in row]) for row in rows_of_blocks]
    return Mat(field, np.vstack(parts))


def mat_str(m: Mat) -> str:
    """Rows separated by ';', entries by spaces."""
    f = m.field
    return ";".join(" ".join(f.element_str(x) for x in row) for row in m.a.tolist())


def mat_parse(s: str, field: FiniteField) -> Mat:
    rows = []
    for row_s in s.split(";"):
        entries = [field.element_parse(tok) for tok in row_s.split()]
        rows.append(entries)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix text")
    return Mat.from_rows(field, rows)


# -- characteristic polynomial -----------------------------------------------


def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(tI - A) by Hessenberg reduction."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    field = m.field
    n = m.rows
    if n == 0:
        return (field.one,)
    t = field.tables()
    add, mul, neg, inv = t["add"], t["mul"], t["neg"], t["inv"]
    h = m.a.copy()
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1:, j])[0]
        if nz.size == 0:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            h[[j + 1, i]] = h[[i, j + 1]]
            h[:, [j + 1, i]] = h[:, [i, j + 1]]
        piv_inv = int(inv[h[j + 1, j]])
        for i in range(j + 2, n):
            if h[i, j] == 0:
                continue
            f = mul[h[i, j], piv_inv]
            h[i] = add[h[i], mul[int(neg[f]), h[j + 1]]]
            h[:, j + 1] = add[h[:, j + 1], mul[int(f), h[:, i]]]
    # p_k = char poly of leading k x k Hessenberg block
    polys = [(field.one,)]
    for k in range(1, n + 1):
        tm = gf.pmul(polys[k - 1], (field.neg(h[k - 1, k - 1]), field.one), field)
        acc = tm
        run = field.one
        for i in range(1, k):
            run = field.mul(run, h[k - i, k - i - 1])
            if run == field.zero:
                break
            coef = field.mul(h[k - i - 1, k - 1], run)
            acc = gf.psub(acc, gf.pscale(coef, polys[k - i - 1], field), field)
        polys.append(acc)
    return polys[n]


def eval_poly_at(f: Poly, m: Mat) -> Mat:
    """f(A) by Horner's rule."""
    field = m.field
    out = Mat.zeros(field, m.rows, m.cols)
    for c in reversed(f):
        out = out @ m
        if c != field.zero:
            out = out + Mat.identity(field, m.rows).scale(c)
    return out


# -- similarity ---------------------------------------------------------------


def _rank_invariants(m: Mat, polys: list) -> tuple:
    out = []
    for p in polys:
        pa = eval_poly_at(p, m)
        cur = pa
        ranks = [m.rows]
        while ranks[-1] > 0:
            r = cur.rank()
            if r == ranks[-1]:
                break
            ranks.append(r)
            cur = cur @ pa
        out.append(tuple(ranks))
    return tuple(out)


def conjugator(a: Mat, b: Mat, seed: int = 0,
               exhaustive_limit: int = 1 << 20, retries: int = 1000) -> Optional[Mat]:
    """Invertible X with X A X^-1 = B, or None if A and B are not similar.

    Similarity is refuted only through rank invariants rank(p(A)^i).  When
    they agree, the solution space of XA = BX is searched for an invertible
    element: exhaustively while the space has at most ``exhaustive_limit``
    members, otherwise by seeded random sampling.  Exhausting the retry
    bound without a certificate raises SimilarityUndetermined.
    """
    if a.rows != a.cols or a.a.shape != b.a.shape:
        raise ValueError("conjugator needs square matrices of equal size")
    field = a.field
    n = a.rows
    if n == 0:
        return Mat.identity(field, 0)
    cpa, cpb = char_poly(a), char_poly(b)
    polys = sorted({p for p, _ in gf.poly_factor(cpa, field)}
                   | {p for p, _ in gf.poly_factor(cpb, field)})
    if _rank_invariants(a, polys) != _rank_invariants(b, polys):
        return None
    # linear system X A - B X = 0 in the n^2 entries of X
    nn = n * n
    sys = Mat.zeros(field, nn, nn)
    t = field.tables()
    for i in range(n):
        for j in range(n):
            eq = i * n + j
            for l in range(n):
                sys.a[eq, i * n + l] = t["add"][sys.a[eq, i * n + l], a.a[l, j]]
            for k in range(n):
                sys.a[eq, k * n + j] = t["add"][sys.a[eq, k * n + j],
                                                t["neg"][b.a[i, k]]]
    basis = sys.kernel_basis()
    d = len(basis)
    if d == 0:
        return None
    q = field.order
    vecs = np.hstack([v.a for v in basis])  # nn x d

    def candidate(coeffs) -> Mat:
        acc = np.zeros(nn, dtype=np.int32)
        for c, col in zip(coeffs, vecs.T):
            if c:
                acc = t["add"][acc, t["mul"][c, col]]
        return Mat(field, acc.reshape(n, n))

    if q ** d <= exhaustive_limit:
        import itertools
        for coeffs in itertools.product(range(q), repeat=d):
            x = candidate(coeffs)
            if x.is_invertible():
                return x
        return None  # no invertible solution exists: not similar
    rng = random.Random(0xC0DE ^ seed)
    for _ in range(retries):
        x = candidate([rng.randrange(q) for _ in range(d)])
        if x.is_invertible():
            return x
    raise SimilarityUndetermined(
        f"no invertible conjugator found in {retries} samples (space size {q}**{d})")


def random_invertible(field: FiniteField, n: int, rng: random.Random) -> Mat:
    while True:
        m = Mat(field, np.array([[rng.randrange(field.order) for _ in range(n)]
                                 for _ in range(n)], dtype=np.int32))
        if m.is_invertible():
            return m
