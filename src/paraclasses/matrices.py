"""Exact dense matrices over a finite field.

Entries are field element indices stored in a numpy int32 array; row
operations go through the field's array arithmetic (`vadd`, `vneg`,
`vmul`; mod p over a prime field whose indices fit int32, so no op
tables), so elimination stays exact and reasonably fast for the sizes
this package needs (n up to a few dozen, systems up to a few hundred
unknowns).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import gf
from .gf import FiniteField, Poly


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

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.field, self.field.vadd(self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.field.vneg(self.a))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other, mul=True)
        f = self.field
        out = np.zeros((self.rows, other.cols), dtype=np.int32)
        for k in range(self.cols):
            out = f.vadd(out, f.vmul(self.a[:, k][:, None], other.a[k, :][None, :]))
        return Mat(f, out)

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self.field.vmul(c, self.a))

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
        f = self.field
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
            if piv != f.one:
                a[r] = f.vmul(f.inv(piv), a[r])
            col = a[:, c].copy()
            col[r] = 0
            fix = np.nonzero(col)[0]
            a[fix] = f.vadd(a[fix], f.vmul(f.vneg(a[fix, c])[:, None], a[r]))
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
        out = []
        for fc in free:
            v = np.zeros((n, 1), dtype=np.int32)
            v[fc, 0] = self.field.one
            v[pivots, 0] = self.field.vneg(R.a[:len(pivots), fc])
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


def row_texts(a: np.ndarray, field: FiniteField) -> list:
    """The text of each row of an array of element indices, entries
    separated by spaces."""
    s = field.element_str
    return [" ".join(map(s, row)) for row in a.tolist()]


def mat_str(m: Mat) -> str:
    """Rows separated by ';', entries by spaces."""
    return ";".join(row_texts(m.a, m.field))


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
    h = m.a.copy()
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1:, j])[0]
        if nz.size == 0:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            h[[j + 1, i]] = h[[i, j + 1]]
            h[:, [j + 1, i]] = h[:, [i, j + 1]]
        piv_inv = field.inv(int(h[j + 1, j]))
        for i in range(j + 2, n):
            if h[i, j] == 0:
                continue
            f = field.mul(int(h[i, j]), piv_inv)
            h[i] = field.vadd(h[i], field.vmul(field.neg(f), h[j + 1]))
            h[:, j + 1] = field.vadd(h[:, j + 1], field.vmul(f, h[:, i]))
    # p_k = char poly of leading k x k block, over Python ints: no overflow
    h = h.tolist()
    polys = [(field.one,)]
    for k in range(1, n + 1):
        acc = gf.pmul(polys[k - 1], (field.neg(h[k - 1][k - 1]), field.one), field)
        run = field.one
        for i in range(1, k):
            run = field.mul(run, h[k - i][k - i - 1])
            if run == field.zero:
                break
            coef = field.mul(h[k - i - 1][k - 1], run)
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


# -- rank sequences -----------------------------------------------------------


def rank_sequence(p: Poly, m: Mat) -> tuple:
    """rank p(A)^i for i = 0, 1, ... until the rank stops falling."""
    pa = eval_poly_at(p, m)
    cur = pa
    ranks = [m.rows]
    while ranks[-1] > 0:
        r = cur.rank()
        if r == ranks[-1]:
            break
        ranks.append(r)
        cur = cur @ pa
    return tuple(ranks)
