"""Independent brute-force conjugacy partition of block upper-triangular
groups, for verifying the pipeline.

Elements [[A, v], [0, B]] are enumerated outright and indexed as
(A, v, B) triples; conjugation by each group generator is precomputed as an
index permutation, and classes are the orbits of those permutations.  This
never touches the Jordan/centralizer machinery it is used to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded
from .gf import FiniteField
from .matrices import Mat

DEFAULT_ORACLE_BUDGET = 10 ** 6


def _all_matrices(field: FiniteField, rows: int, cols: int):
    for flat in itertools.product(field.elements(), repeat=rows * cols):
        yield Mat(field, np.array(flat, dtype=np.int32).reshape(rows, cols))


def _gl_elements(field: FiniteField, n: int) -> list:
    if n == 0:
        return [Mat.zeros(field, 0, 0)]
    return [m for m in _all_matrices(field, n, n) if m.is_invertible()]


def _gl_order(q: int, n: int) -> int:
    """|GL_n(F_q)|: the product of q^n - q^i over i < n."""
    return math.prod(q ** n - q ** i for i in range(n))


def _gl_generators(field: FiniteField, n: int) -> list:
    """Transvections with parameters spanning the field additively, plus one
    primitive diagonal scaling."""
    out = []
    if n == 0:
        return out
    params = field.additive_basis()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in params:
                t = Mat.identity(field, n)
                t.a[i, j] = c
                out.append(t)
    if field.order > 2:
        d = Mat.identity(field, n)
        d.a[0, 0] = field.primitive_element()
        out.append(d)
    return out


class _VSpace:
    """Index arithmetic for the additive group of m x n matrices: an index
    reads the entries as base-q digits, first most significant, so that
    ``mats`` lists the matrices by index."""

    def __init__(self, field: FiniteField, m: int, n: int):
        self.size = field.order ** (m * n)
        self.mats = list(_all_matrices(field, m, n))
        self.pows = field.order ** np.arange(m * n - 1, -1, -1, dtype=np.int64)
        assert all(self.index(self.mats[i]) == i for i in (0, self.size - 1))
        digits = np.array([v.a.reshape(-1) for v in self.mats], dtype=np.int64)
        self.add_index = sum(field.vadd(digits[:, k][:, None], digits[:, k]) * self.pows[k]
                             for k in range(m * n))

    def index(self, v: Mat) -> int:
        return int(v.a.reshape(-1) @ self.pows)


@dataclass
class OracleResult:
    field: FiniteField
    m: int
    n: int
    count: int
    labels: np.ndarray
    sizes: np.ndarray
    _a_idx: dict = dc_field(repr=False)
    _vs: _VSpace = dc_field(repr=False)
    _b_idx: dict = dc_field(repr=False)

    def class_of(self, g: Mat) -> int:
        """Class id of a group element given as an (m+n) x (m+n) matrix."""
        m, n = self.m, self.n
        if g.rows != m + n or g.cols != m + n:
            raise ValueError("element has the wrong size")
        if np.any(g.a[m:, :m] != 0):
            raise ValueError("element is not block upper-triangular")
        a = self._a_idx[g.a[:m, :m].tobytes()]
        v = self._vs.index(Mat(self.field, g.a[:m, m:]))
        b = self._b_idx[g.a[m:, m:].tobytes()]
        return int(self.labels[(a * self._vs.size + v) * len(self._b_idx) + b])


def _orbit_partition_perms(size: int, perms: list):
    labels = np.full(size, -1, dtype=np.int32)
    cls = 0
    ptr = 0
    while ptr < size:
        rest = labels[ptr:] == -1
        off = int(np.argmax(rest))
        if not rest[off]:
            break
        seed = ptr + off
        ptr = seed + 1
        labels[seed] = cls
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            cand = np.unique(np.concatenate([p[frontier] for p in perms]))
            fresh = cand[labels[cand] == -1]
            labels[fresh] = cls
            frontier = fresh
        cls += 1
    return cls, labels


def oracle_classes(m: int, n: int, field: FiniteField,
                   budget: int = DEFAULT_ORACLE_BUDGET,
                   fix_a_identity: bool = False) -> OracleResult:
    """Conjugacy classes of the block group by exhaustive orbit closure.

    With ``fix_a_identity`` the top-left factor is pinned to the identity
    and its Levi generators are dropped: that is the affine group sitting
    inside the (1, n) parabolic.
    """
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    order = field.order
    na = 1 if fix_a_identity else _gl_order(order, m)
    nv, nb = order ** (m * n), _gl_order(order, n)
    total = na * nv * nb
    if total > budget:  # before any element is listed
        group = f"AGL_{n}" if fix_a_identity else f"P({m},{n})"
        raise BudgetExceeded(total, budget, f"oracle {group} over F_{order}")
    gl_m = [Mat.identity(field, m)] if fix_a_identity else _gl_elements(field, m)
    gl_n = _gl_elements(field, n)
    vs = _VSpace(field, m, n)
    a_idx = {g.a.tobytes(): i for i, g in enumerate(gl_m)}
    b_idx = {g.a.tobytes(): i for i, g in enumerate(gl_n)}

    idx = np.arange(total, dtype=np.int64)
    ia = idx // (nv * nb)
    iv = (idx // nb) % nv
    ib = idx % nb

    perms = []
    # Levi generators on the left factor
    if not fix_a_identity:
        for p in _gl_generators(field, m):
            pinv = p.inverse()
            pa = np.array([a_idx[(p @ g @ pinv).a.tobytes()] for g in gl_m],
                          dtype=np.int64)
            pv = np.array([vs.index(p @ v) for v in vs.mats], dtype=np.int64)
            perms.append((pa[ia] * nv + pv[iv]) * nb + ib)
    # Levi generators on the right factor
    for q in _gl_generators(field, n):
        qinv = q.inverse()
        pb = np.array([b_idx[(q @ g @ qinv).a.tobytes()] for g in gl_n],
                      dtype=np.int64)
        pv = np.array([vs.index(v @ qinv) for v in vs.mats], dtype=np.int64)
        perms.append(ia * (nv * nb) + pv[iv] * nb + pb[ib])
    # unipotent generators: v -> v + wB - Aw
    params = field.additive_basis()
    for r in range(m):
        for c in range(n):
            for coef in params:
                w = Mat.zeros(field, m, n)
                w.a[r, c] = coef
                wb = np.array([vs.index(w @ g) for g in gl_n])
                aw = np.array([vs.index(-(g @ w)) for g in gl_m])
                sh = vs.add_index[wb[None, :], aw[:, None]]  # sh[i, j]: wb[j] + aw[i]
                perms.append(ia * (nv * nb)
                             + vs.add_index[iv, sh[ia, ib]] * nb + ib)

    count, labels = _orbit_partition_perms(total, perms)
    sizes = np.bincount(labels, minlength=count)
    return OracleResult(field, m, n, count, labels, sizes, a_idx, vs, b_idx)


def oracle_agl(n: int, field: FiniteField,
               budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Conjugacy classes of the affine group of degree n, realized as
    (n+1) x (n+1) matrices with a pinned 1 in the corner."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return oracle_classes(1, n, field, budget=budget, fix_a_identity=True)
