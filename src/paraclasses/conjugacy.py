"""Conjugacy classes in maximal parabolic subgroups and affine groups.

A class of the block group is located by a pair of Jordan forms (the Levi
representative) together with one orbit representative of the per-eigenvalue
matrix problem for every shared generalized eigenvalue; the assembled
witness is [[A, V], [0, B]] with V the sum of the lifted blocks.
Representatives reuse each form's assembled Jordan array and factor
offsets across its Levi pairs, place both forms into one array per Levi
pair, and lift each (eigenvalue, orbit representative) once per call.
Their JSON line, `class_rep_line`, joins text encoded once: each form's
text is memoized by form and field, each block's by eigenvalue, orbit
representative and field, so a class pays only for its matrix text and
the join.  Counting never enumerates Levi pairs: the number of orbits at
an eigenvalue depends only on its pair of partitions and its degree, so
classes are counted by type, as the coefficient of x^m y^n in a product of
one power series per degree raised to the number of irreducibles of that
degree.  A shape with a side (1^a) is counted in closed form, the number
of positions of a row space of dimension <= a relative to a partial flag
(proof in `orbit_count_cached`), and is never swept.  Other orbit counts
come from the one orbit memo of `enumerate_orbits`, keyed by shape and
field and shared with representatives (both solve a degree-d eigenvalue
over `gf.extension(F_q, d)`); finite-type shapes are solved over F_2,
sound by field independence (checked in the tests), and with the number
of irreducibles written as a polynomial in q the same sum gives the class
count as an exact polynomial in the field size.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import gf
from .gf import FiniteField, Poly, ff
from .jordan import (GJNF, assemble, canonical_sort, enumerate_gjnf,
                     factor_offsets, gjnf_to_json)
from .matrices import Mat, mat_str
from .cocentralizer import cocent_to_json, lift, reduce_levi_pair
from .matrix_problem import DEFAULT_BUDGET, enumerate_orbits, type_classify
from .partitions import partitions

# the one compact encoder of every output line (json.dumps with separators
# builds a new encoder per call)
_JSON = json.JSONEncoder(separators=(",", ":"))


def orbit_count_cached(mu, nu, field: FiniteField, d: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Orbit count of the (mu, nu) problem at a degree-d eigenvalue over
    the field: in closed form when a side is (1^a), where nothing is swept,
    so the budget does not apply; solved over F_2 for finite-type shapes
    (their counts do not depend on the field); otherwise solved over
    `gf.extension(field, d)`, the field representatives use, sharing its
    memo entries.

    Closed form: let mu = (1^a) and let m_1..m_k be the multiplicities of
    the distinct parts of nu; then the count is the number of (r_1..r_k)
    with 0 <= r_i <= m_i and sum r_i <= a, and symmetrically for nu = (1^b).
    Proof: every entry has length min(1, nu_j) = 1, so the space is the
    a x l(nu) matrices over K, and Aut((1^a)) acts on the left as all of
    GL_a.  On the right only the constant terms of Aut(nu) survive the
    truncation.  An entry between parts of different sizes has offset 0,
    so a constant term, in one direction only; the constant terms thus
    make up the parabolic P of GL_{l(nu)} that fixes the flag
    F_1 < ... < F_k whose quotients F_i / F_{i-1} gather the m_i parts of
    one size, ordered by size, with Levi factor prod GL_{m_i}, and every
    element of P occurs.  GL_a reduces a matrix to its row space W, of any
    dimension <= a, and the P-orbits of subspaces are their positions
    relative to the flag (the Bruhat decomposition of the Grassmannian):
    the tuples r_i = dim(W & F_i) - dim(W & F_{i-1}), each with
    0 <= r_i <= m_i, all of which occur.
    """
    for side, other in ((mu, nu), (nu, mu)):
        if set(side) == {1}:
            return sum(sum(r) <= len(side) for r in itertools.product(
                *(range(m + 1) for m in Counter(other).values())))
    K = ff(2) if type_classify(mu, nu).kind == "finite" else gf.extension(field, d)
    return enumerate_orbits(mu, nu, K, budget).count


def levi_reps(m: int, n: int, field: FiniteField) -> Iterator[tuple]:
    """All pairs of invertible Jordan forms of dimensions (m, n)."""
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    ga_list = list(enumerate_gjnf(m, field))
    gb_list = list(enumerate_gjnf(n, field))
    for ga in ga_list:
        for gb in gb_list:
            yield ga, gb


def _series_mul(f: dict, g: dict, m: int, n: int) -> dict:
    """Product of two series {(i, j): coefficient of x^i y^j} up to x^m y^n."""
    out: dict = {}
    for (a, b), c in f.items():
        for (a2, b2), c2 in g.items():
            if a + a2 <= m and b + b2 <= n:
                out[a + a2, b + b2] = out.get((a + a2, b + b2), 0) + c * c2
    return out


def _count_by_type(m: int, n: int, eigen_count, weight):
    """Coefficient of x^m y^n in the product over degrees d of
    F_d(x^d, y^d) ** eigen_count(d), where F_d sums weight(mu, nu, d)
    x^|mu| y^|nu| over pairs of partitions, with weight 1 when mu or nu
    is empty.

    A class is a choice of partitions (mu_p, nu_p) for every monic
    irreducible p != t (its Jordan blocks in the two Levi factors) and one
    corner orbit for every p with both non-empty; eigen_count(d) counts
    the p of degree d.  The power is expanded as sum_k C(N, k) (F - 1)^k,
    so eigen_count may return a polynomial in q as well as a number.
    """
    total = {(0, 0): 1}
    for d in range(1, max(m, n) + 1):
        M, N = m // d, n // d
        g = {(a, b): sum(weight(mu, nu, d) if mu and nu else 1
                         for mu in partitions(a) for nu in partitions(b))
             for a in range(M + 1) for b in range(N + 1) if a or b}
        local, power, binom, nd = {(0, 0): 1}, {(0, 0): 1}, 1, eigen_count(d)
        for k in range(1, M + N + 1):
            power = _series_mul(power, g, M, N)
            binom = binom * (nd - k + 1) * Fraction(1, k)
            for key, c in power.items():
                local[key] = local.get(key, 0) + binom * c
        total = _series_mul(total, {(d * a, d * b): c for (a, b), c in local.items()},
                            m, n)
    return total.get((m, n), 0)


def _eigen_count(q):
    """Invertible generalized eigenvalues of degree d over F_q, for q a
    number or a polynomial in the field size."""
    return lambda d: gf.irreducible_count(d, q) - (d == 1)


def parabolic_class_count(m: int, n: int, field: FiniteField,
                          budget: int = DEFAULT_BUDGET) -> int:
    """Number of conjugacy classes of the (m, n) block group over the field."""
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    return int(_count_by_type(
        m, n, _eigen_count(field.order),
        lambda mu, nu, d: orbit_count_cached(mu, nu, field, d, budget)))


@dataclass
class ClassRep:
    """A conjugacy class representative of the block group."""
    levi_a: GJNF
    levi_b: GJNF
    blocks: tuple          # (poly, CocentElement) per shared eigenvalue
    matrix: Mat            # [[A, V], [0, B]]


def parabolic_class_reps(m: int, n: int, field: FiniteField,
                         budget: int = DEFAULT_BUDGET) -> Iterator[ClassRep]:
    """One assembled representative per conjugacy class.

    Before the first is yielded, the array arithmetic of the largest field
    needed, `gf.extension(field, min(m, n))`, is checked before a modulus
    is searched for, and the budget against the largest space swept,
    (1^m)x(1^n) over the field itself; the loop sweeps that space and
    solves every degree-min(m, n) eigenvalue over that very field.
    """
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    field.check_arrays(min(m, n))
    enumerate_orbits((1,) * m, (1,) * n, field, budget)
    forms: dict = {}  # form -> (Jordan array, factor offsets)
    lifts: dict = {}  # (eigenvalue, orbit rep) -> corner block array
    for ga, gb in levi_reps(m, n, field):
        for g in (ga, gb):
            if g not in forms:
                forms[g] = assemble(g, field).a, factor_offsets(g, field)
        (a, ra), (b, cb) = forms[ga], forms[gb]
        levi = np.zeros((m + n, m + n), dtype=np.int32)
        levi[:m, :m] = a
        levi[m:, m:] = b
        per_block = []
        for pr in reduce_levi_pair(ga, gb, field):
            p, r0, c0 = pr.p, ra[pr.p], m + cb[pr.p]
            choices = []
            for rep in enumerate_orbits(pr.mu, pr.nu, pr.field, budget).reps:
                if (p, rep) not in lifts:
                    lifts[p, rep] = lift(rep, p, field).a
                lf = lifts[p, rep]
                cell = np.s_[r0:r0 + lf.shape[0], c0:c0 + lf.shape[1]]
                choices.append(((p, rep), cell, lf))
            per_block.append(choices)
        for combo in itertools.product(*per_block):
            g = levi.copy()
            for _, cell, lf in combo:
                g[cell] = lf
            yield ClassRep(ga, gb, tuple(blk for blk, _, _ in combo), Mat(field, g))


@lru_cache(maxsize=None)
def _form_text(form: GJNF, field: FiniteField) -> str:
    """JSON text of a Levi form, memoized by form and field: every
    representative of one Levi pair prints the same two forms."""
    return _JSON.encode(gjnf_to_json(form, field))


@lru_cache(maxsize=None)
def _block_text(p: Poly, rep, field: FiniteField) -> str:
    """JSON text of one corner block, memoized by eigenvalue, orbit
    representative and field: a block recurs across classes and Levi pairs."""
    return _JSON.encode({"poly": gf.poly_str(p, field), "rep": cocent_to_json(rep)})


def class_rep_line(rep: ClassRep, field: FiniteField) -> str:
    """The representative as one line of compact JSON: its two Levi forms,
    a {"poly", "rep"} object per shared eigenvalue, and the matrix text."""
    blocks = ",".join([_block_text(p, v, field) for p, v in rep.blocks])
    return (f'{{"levi_a":{_form_text(rep.levi_a, field)},'
            f'"levi_b":{_form_text(rep.levi_b, field)},"blocks":[{blocks}],'
            f'"matrix":{_JSON.encode(mat_str(rep.matrix))}}}')


def class_rep_to_json(rep: ClassRep, field: FiniteField) -> dict:
    """The representative as a fresh dict, parsed from `class_rep_line`."""
    return json.loads(class_rep_line(rep, field))


# -- class-count polynomials -------------------------------------------------


class CountPolynomial(tuple):
    """Integer coefficients of the class count as a polynomial in the field
    size, low-to-high."""

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self):
            acc = acc * q + c
        return acc


def count_poly(m: int, n: int, budget: int = DEFAULT_BUDGET) -> CountPolynomial:
    """The class count of the (m, n) block group as a polynomial in the
    field size q: the type sum with the number of degree-d irreducibles
    other than t taken from `gf.irreducible_count` at the polynomial q,
    whose Fraction coefficients keep the necklace formula's division by d
    exact.

    With m < 6 or n < 6 every shape is of finite type (a side of size
    < 6), so every orbit count is a constant and the sum is exact.
    Non-integer coefficients signal an implementation bug and raise.
    """
    from numpy.polynomial import Polynomial
    if not (m < 6 or n < 6):
        raise ValueError("count polynomial only available for m < 6 or n < 6")
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")

    poly = _count_by_type(m, n, _eigen_count(Polynomial([Fraction(0), Fraction(1)])),
                          lambda mu, nu, d: orbit_count_cached(mu, nu, ff(2), d, budget))
    coeffs = list(poly.coef)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(Fraction(c).denominator != 1 for c in coeffs):
        raise ArithmeticError(f"count polynomial has non-integer coefficients: {coeffs}")
    return CountPolynomial(int(c) for c in coeffs)


# -- general linear and affine groups ----------------------------------------


def gl_class_count(n: int, field: FiniteField) -> int:
    """Number of conjugacy classes of the invertible n x n group (1 for n=0):
    the type sum with one side empty, so a degree contributes
    (sum over k of p(k) x^k) ** (number of eigenvalues of that degree)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return int(_count_by_type(n, 0, _eigen_count(field.order), None))


def agl_class_count(n: int, field: FiniteField) -> int:
    """Sum of the invertible class counts in dimensions n, n-1, ..., 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(gl_class_count(n - d, field) for d in range(n + 1))


def _eigen_one_poly(field: FiniteField) -> Poly:
    return (field.neg(field.one), field.one)  # t - 1


def agl_class_reps(n: int, field: FiniteField) -> Iterator[Mat]:
    """Affine class representatives: for every invertible form of dimension
    n - d (d = 0, ..., n), adjoin one eigenvalue-1 Jordan block of size d
    and put the translation row above it (nothing adjoined for d = 0).

    The single 1 sits on the last column of the adjoined block: with the
    subdiagonal block convention, translations over the first d-1 columns
    of an eigenvalue-1 block are killed by conjugation and the last column
    survives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p1 = _eigen_one_poly(field)
    for d in range(n + 1):
        for g in enumerate_gjnf(n - d, field):
            if d == 0:
                gp = g
                e_col = None
            else:
                parts = dict(g)
                lam = tuple(sorted(parts.get(p1, ()) + (d,), reverse=True))
                parts[p1] = lam
                gp = canonical_sort(list(parts.items()))
                off = factor_offsets(gp, field)[p1]
                off += sum(x for x in lam if x > d)
                e_col = off + d - 1
            body = assemble(gp, field)
            out = Mat.zeros(field, n + 1, n + 1)
            out.a[0, 0] = field.one
            out.a[1:, 1:] = body.a
            if e_col is not None:
                out.a[0, 1 + e_col] = field.one
            yield out
