"""Generalized Jordan normal form over a finite field.

A form is a tuple of (monic irreducible polynomial, partition) pairs sorted
by (degree, coefficient sequence).  Jordan blocks follow the subdiagonal
convention: the companion matrix repeats on the diagonal with identity
blocks directly below it, and the companion matrix of p is the matrix of
multiplication by a root of p on the power basis.  Two matrices are
similar exactly when their forms agree; `conjugator` then certifies it.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

import numpy as np

from . import gf
from .gf import FiniteField, Poly
from .matrices import Mat, char_poly, direct_sum, rank_sequence
from .partitions import check_partition, partitions

GJNF = tuple  # tuple of (poly, partition) pairs, canonically sorted


class SimilarityUndetermined(Exception):
    """Randomized search for an invertible conjugator hit its retry bound."""


def companion(p: Poly, field: FiniteField) -> Mat:
    d = gf.pdeg(p)
    if d < 1 or p[-1] != field.one:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    m = Mat.zeros(field, d, d)
    for j in range(d - 1):
        m.a[j + 1, j] = field.one
    for i in range(d):
        m.a[i, d - 1] = field.neg(p[i])
    return m


def jordan_block(p: Poly, n: int, field: FiniteField) -> Mat:
    """J_n(C_p): n copies of the companion matrix with I_d on the block
    subdiagonal."""
    if n < 1:
        raise ValueError("block multiplicity must be >= 1")
    if not gf.is_irreducible(p, field):
        raise ValueError("p must be irreducible")
    return _block(p, n, field)


def _block(p: Poly, n: int, field: FiniteField) -> Mat:
    """jordan_block of a p known to be irreducible and an n >= 1."""
    d = gf.pdeg(p)
    c = companion(p, field)
    m = Mat.zeros(field, n * d, n * d)
    for i in range(n):
        m.a[i * d:(i + 1) * d, i * d:(i + 1) * d] = c.a
        if i:
            for k in range(d):
                m.a[i * d + k, (i - 1) * d + k] = field.one
    return m


def canonical_sort(factors) -> GJNF:
    factors = tuple(sorted(((tuple(p), check_partition(lam)) for p, lam in factors),
                           key=lambda t: (gf.pdeg(t[0]), t[0])))
    polys = [p for p, _ in factors]
    if len(set(polys)) != len(polys):
        raise ValueError("duplicate generalized eigenvalue in form data")
    return factors


def assemble(form: GJNF, field: FiniteField) -> Mat:
    """Direct sum over factors of the per-part Jordan blocks.  Each
    polynomial must be monic irreducible, as `enumerate_gjnf` and `gjnf`
    give them; unlike `jordan_block`, this does not re-check it."""
    blocks = []
    for p, lam in canonical_sort(form):
        for part in lam:
            blocks.append(_block(p, part, field))
    if not blocks:
        return Mat.zeros(field, 0, 0)
    return direct_sum(*blocks)


def factor_offsets(form: GJNF, field: FiniteField) -> dict:
    """Row/column offset of each factor's block inside the assembled matrix."""
    out = {}
    off = 0
    for p, lam in canonical_sort(form):
        out[tuple(p)] = off
        off += sum(lam) * gf.pdeg(p)
    return out


def gjnf(m: Mat) -> GJNF:
    """Generalized Jordan data of a square matrix from the ranks of p(A)^i.

    The number of parts of lambda_p that are >= i is
    (rank p(A)^(i-1) - rank p(A)^i) / deg(p).
    """
    if m.rows != m.cols:
        raise ValueError("gjnf needs a square matrix")
    field = m.field
    cp = char_poly(m)
    out = []
    for p, mult in gf.poly_factor(cp, field):
        d = gf.pdeg(p)
        ranks = rank_sequence(p, m)
        counts = [(ranks[i - 1] - ranks[i]) // d for i in range(1, len(ranks))]
        lam = []
        for size in range(len(counts), 0, -1):
            reps = counts[size - 1] - (counts[size] if size < len(counts) else 0)
            lam.extend([size] * reps)
        assert sum(lam) == mult, "rank data inconsistent with factor multiplicity"
        out.append((p, tuple(lam)))
    return canonical_sort(out)


def conjugator(a: Mat, b: Mat, retries: int = 1000) -> Optional[Mat]:
    """Invertible X with X A X^-1 = B, or None if A and B are not similar.

    A and B are similar exactly when their generalized Jordan data agree.
    Then the solution space of XA = BX holds an invertible element, and
    one is drawn by seeded random sampling; exhausting the retry bound
    without a certificate raises SimilarityUndetermined.
    """
    if a.rows != a.cols or a.a.shape != b.a.shape:
        raise ValueError("conjugator needs square matrices of equal size")
    field = a.field
    n = a.rows
    if n == 0:
        return Mat.identity(field, 0)
    if gjnf(a) != gjnf(b):
        return None
    # linear system X A - B X = 0 in the n^2 row-major entries of X, whose
    # matrix is (I kron A^T) - (B kron I); indices 0 and 1 are zero and one
    # in every field, so the Kronecker products hold valid indices
    eye = np.eye(n, dtype=np.int32)
    sys = Mat(field, field.vadd(np.kron(eye, a.a.T), np.kron(field.vneg(b.a), eye)))
    vecs = np.hstack([v.a for v in sys.kernel_basis()])  # nn x d
    q, d = field.order, vecs.shape[1]
    rng = random.Random(0xC0DE)
    for _ in range(retries):
        acc = np.zeros(n * n, dtype=np.int32)
        for col in vecs.T:
            acc = field.vadd(acc, field.vmul(rng.randrange(q), col))
        x = Mat(field, acc.reshape(n, n))
        if x.is_invertible():
            return x
    raise SimilarityUndetermined(
        f"no invertible conjugator found in {retries} samples (space size {q}**{d})")


def enumerate_gjnf(n: int, field: FiniteField) -> Iterator[GJNF]:
    """Every invertible generalized Jordan form of total dimension n,
    exactly once, in canonical form.

    Iterates over multisets of (irreducible, partition) pairs whose weighted
    sizes sum to n, p = t excluded; the irreducibles are taken in canonical
    (degree, lex) order, so every form comes out sorted.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    irrs = [f for d in range(1, n + 1) for f in gf.irreducibles(d, field)
            if f[0] != field.zero]

    def rec(rem: int, start: int):
        if rem == 0:
            yield ()
            return
        for idx in range(start, len(irrs)):
            d = gf.pdeg(irrs[idx])
            if d > rem:
                break  # degrees ascend from here on
            for size in range(1, rem // d + 1):
                for lam in partitions(size):
                    for rest in rec(rem - size * d, idx + 1):
                        yield ((irrs[idx], lam),) + rest

    yield from rec(n, 0)


def gjnf_to_json(form: GJNF, field: FiniteField) -> list:
    """The form as a fresh list of {"poly", "partition"} objects."""
    return [{"poly": gf.poly_str(p, field), "partition": list(lam)} for p, lam in form]
