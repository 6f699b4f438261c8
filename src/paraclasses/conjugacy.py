"""Conjugacy classes in maximal parabolic subgroups and affine groups.

A class of the block group is located by a pair of Jordan forms (the Levi
representative) together with one orbit representative of the per-eigenvalue
matrix problem for every shared generalized eigenvalue; the assembled
witness is [[A, V], [0, B]] with V the sum of the lifted blocks.
Representatives read each (eigenvalue, shape)'s orbits and lift their
representatives once per call, and build no array per class: the matrix
text is joined from each form's rows, formatted once per form and field,
and each lift's rows, formatted once per call, and the matrix is
assembled only when `ClassRep.matrix` is read.
Their JSON line, `class_rep_line`, joins text encoded once: each form's
text is memoized by form and field, each block's by eigenvalue, orbit
representative and field, so a class pays only for the escaping of its
matrix text and the join.  Counting never enumerates Levi pairs: the
number of orbits at an eigenvalue depends only on its pair of partitions
and its degree, so classes are counted by type, as the coefficient of
x^m y^n in a product of one power series per degree raised to the number
of irreducibles of that degree.  The orbits of a shape come from
`matrix_problem`, which answers a shape with a side (1^a) from its Bruhat
cells and sweeps no such shape.
`_solving_field` picks the field that solves a shape,
for counts and representatives alike, so both read the same memo
entries: F_2 for a finite-type shape (field independence is checked in
the tests), else the eigenvalue's F_{q^d}.  With the number of irreducibles
a polynomial in q, the same sum is the class count as an exact polynomial.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import gf
from .gf import FiniteField, Poly, ff
from .jordan import (GJNF, assemble, canonical_sort, enumerate_gjnf,
                     factor_offsets, gjnf_to_json)
from .matrices import Mat, row_texts
from .cocentralizer import (CocentElement, CocentShape, cocent_to_json, lift,
                            reduce_levi_pair)
from .matrix_problem import (DEFAULT_BUDGET, check_space, enumerate_orbits, orbit_count,
                             type_classify)
from .partitions import partitions

# the one compact encoder of every output line (json.dumps with separators
# builds a new encoder per call)
_JSON = json.JSONEncoder(separators=(",", ":"))


@lru_cache(maxsize=None)
def _solving_field(mu, nu, field: FiniteField, d: int) -> FiniteField:
    """F_2 for a finite-type shape, whose orbits do not depend on the field
    (checked in the tests), else `gf.extension(field, d)`: the one field
    solving (mu, nu) at a degree-d eigenvalue, for counts and reps alike."""
    return ff(2) if type_classify(mu, nu).kind == "finite" else gf.extension(field, d)


def orbit_count_cached(mu, nu, field: FiniteField, d: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """The number of orbits of the (mu, nu) problem at a degree-d
    eigenvalue over the field: `orbit_count` over `_solving_field`."""
    return orbit_count(mu, nu, _solving_field(mu, nu, field, d), budget)


def levi_reps(m: int, n: int, field: FiniteField) -> Iterator[tuple]:
    """All pairs of invertible Jordan forms of dimensions (m, n)."""
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    yield from itertools.product(enumerate_gjnf(m, field), enumerate_gjnf(n, field))


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
    """A conjugacy class representative of the block group: its Levi pair,
    a (poly, CocentElement) block per shared eigenvalue, and the text of
    its matrix [[A, V], [0, B]], rows separated by ';' and entries by
    spaces, as `mat_str` writes it."""
    levi_a: GJNF
    levi_b: GJNF
    blocks: tuple          # (poly, CocentElement) per shared eigenvalue
    field: FiniteField
    matrix_text: str

    @property
    def matrix(self) -> Mat:
        """[[A, V], [0, B]]: both forms assembled, each block lifted at its
        factor offsets, on every read.  Output reads `matrix_text` only."""
        f = self.field
        a, b = assemble(self.levi_a, f).a, assemble(self.levi_b, f).a
        m = len(a)
        g = np.zeros((m + len(b), m + len(b)), dtype=np.int32)
        g[:m, :m], g[m:, m:] = a, b
        ra, cb = factor_offsets(self.levi_a, f), factor_offsets(self.levi_b, f)
        for p, v in self.blocks:
            lf = lift(v, p, f).a
            g[ra[p]:ra[p] + lf.shape[0], m + cb[p]:m + cb[p] + lf.shape[1]] = lf
        return Mat(f, g)


def parabolic_class_reps(m: int, n: int, field: FiniteField,
                         budget: int = DEFAULT_BUDGET) -> Iterator[ClassRep]:
    """One representative per conjugacy class, its matrix as text.

    Each problem's representatives are those its count reads, over
    `_solving_field`; each is read into the eigenvalue's F_{q^d} (entries
    0 and 1 of F_2 mean the same there) once per field, before its lift.
    No class builds an array or a `Mat`: its matrix text is a join of
    ready strings.  Each form's rows are formatted once per call, padded
    with zeros into [A | 0] or [0 | B]; each (eigenvalue, orbit
    representative) formats the rows of its lift once; and once per Levi
    pair and representative, the rows of A in a shared eigenvalue's factor
    are joined with them, the lift placed at the factor offsets.  Every row
    of B, and every row of A outside a shared factor, is the same for all
    classes of a Levi pair; a pair with no shared eigenvalue is one class.
    Before the first is yielded, the array arithmetic of
    `gf.extension(field, min(m, n))` is checked before a modulus is
    searched for, and the budget and 2^63 against the space of
    (1^m)x(1^n) over the field itself, by arithmetic alone.  That space
    bounds every shape solved, so `check_sweep` never refuses one here: a
    shape at a degree-d eigenvalue has dimension at most mn/d^2, so at most
    q^(mn/d) states over F_{q^d}, and a finite-type one, every shape with a
    side (1^a) among them, is solved over F_2, with 2^dim <= q^(mn) states.
    The checks thus guard Levi enumeration, not arithmetic: `levi_reps` lists
    every form of both sides before the first line, and no other limit
    stops it.  Without them, `--m 2 --n 2 --q 1000000007 --reps` would
    test some 10^18 monic quadratics for irreducibility, and `--m 1 --n 3
    --q 1031 --reps` some 10^9 monic cubics, then some 10^12 lines.
    """
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    field.check_arrays(min(m, n))
    bound = CocentShape((1,) * m, (1,) * n, field)
    check_space(bound, budget)
    check_space(bound)
    zero = field.element_str(field.zero)
    top_pad, bottom_pad = (" " + zero) * n, (zero + " ") * m
    forms: dict = {}    # form -> (factor offsets, text of each row of its matrix)
    tops: dict = {}     # A -> (rows of [A | 0], each ended by ';', their text)
    bottoms: dict = {}  # B -> text of [0 | B]
    lifts: dict = {}    # (eigenvalue, mu, nu) -> (blocks, lift width, rows of each lift)
    for ga, gb in levi_reps(m, n, field):
        for g in (ga, gb):
            if g not in forms:
                forms[g] = factor_offsets(g, field), row_texts(assemble(g, field).a, field)
        if ga not in tops:
            padded = [r + top_pad + ";" for r in forms[ga][1]]
            tops[ga] = padded, "".join(padded)
        if gb not in bottoms:
            bottoms[gb] = ";".join(bottom_pad + r for r in forms[gb][1])
        top_rows, top = tops[ga]
        problems = reduce_levi_pair(ga, gb, field)
        if not problems:  # no shared eigenvalue: one class, V = 0
            yield ClassRep(ga, gb, (), field, top + bottoms[gb])
            continue
        (ra, a_rows), (cb, _) = forms[ga], forms[gb]
        # problems come in the order of A's factors, both sorted by degree
        # and then polynomial, so r, the first top row not yet joined, only grows
        blocks, texts, r = [], [], 0
        for pr in problems:
            p = pr.p
            key = p, pr.mu, pr.nu
            if key not in lifts:
                K = _solving_field(pr.mu, pr.nu, field, gf.pdeg(p))
                reps = [_read_into(v, pr.field)
                        for v in enumerate_orbits(pr.mu, pr.nu, K, budget).reps]
                lfs = [lift(v, p, field).a for v in reps]
                lifts[key] = ([(p, v) for v in reps], lfs[0].shape[1],
                              [row_texts(lf, field) for lf in lfs])
            blks, w, lift_rows = lifts[key]
            left, right = (zero + " ") * cb[p], (" " + zero) * (n - cb[p] - w)
            texts.append(["".join(top_rows[r:ra[p]])])
            texts.append(["".join([f"{a} {left}{v}{right};"
                                   for a, v in zip(a_rows[ra[p]:], rows)])
                          for rows in lift_rows])
            blocks.append(blks)
            r = ra[p] + len(lift_rows[0])
        texts.append(["".join(top_rows[r:]) + bottoms[gb]])
        # a singleton factor does not change the order of a product
        for blk, text in zip(itertools.product(*blocks), itertools.product(*texts)):
            yield ClassRep(ga, gb, blk, field, "".join(text))


@lru_cache(maxsize=None)
def _read_into(rep: CocentElement, field: FiniteField) -> CocentElement:
    """The representative over the field, its entry indices kept."""
    if rep.shape.field is field:
        return rep
    return CocentElement.from_flat(CocentShape(rep.shape.mu, rep.shape.nu, field), rep.flat())


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
            f'"matrix":{_JSON.encode(rep.matrix_text)}}}')


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

    With m < 6 or n < 6 every shape is of finite type: `type_classify`
    puts every side of size < 6 in a proved family.  So every orbit
    count is a constant and the sum is exact.
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


def eigen_one_poly(field: FiniteField) -> Poly:
    """t - 1, the minimal polynomial of the eigenvalue 1."""
    return (field.neg(field.one), field.one)


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
    p1 = eigen_one_poly(field)
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
