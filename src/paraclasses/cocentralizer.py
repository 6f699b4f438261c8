"""The matrix-problem space attached to a pair of Jordan data sharing a
generalized eigenvalue.

For partitions mu (left, size m) and nu (right, size n) over K, the
F_{q^d} of every eigenvalue of degree d, the space is a grid of truncated
polynomials: entry (i,j) lives in K[x]_{l_ij} with l_ij = min(mu_i, nu_j).
The centralizer unit groups of the two sides act on the left by block
multiplication and on the right through the d_twist isomorphism; both
truncate entrywise.  Orbits of the combined action index the conjugacy
classes over the fixed Levi representative, and `lift` sends a grid
element to the m x n corner block of the class representative.

The lift is an exact linear section of the corner-block quotient: the
column space of a Jordan block reads x-powers upward (basis vector s maps
to x^(s-1)) while the row space reads them downward (t maps to x^(nu_j-t)),
so the matrix cells carrying exponent e in block (i,j) form the
antidiagonal (s-1) + (nu_j-t) = e, and the lift puts the whole coefficient
in the top-row cell of that antidiagonal.  Its image is a complement of
the commutator space {wB - Aw}, which is what makes distinct orbits
assemble into non-conjugate group elements (checked against the
brute-force oracle in the tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf
from .gf import FiniteField, Poly
from .matrices import Mat
from .centralizer import AlgElement, _grid, d_twist, truncated_product
from .partitions import check_partition


def check_sides(mu, nu) -> tuple:
    """The two sides of a shape, each a nonempty partition."""
    mu, nu = check_partition(mu), check_partition(nu)
    if not mu or not nu:
        raise ValueError("both partitions must be nonempty")
    return mu, nu


class CocentShape:
    __slots__ = ("mu", "nu", "field", "l", "dim")

    def __init__(self, mu, nu, field: FiniteField):
        self.mu, self.nu = check_sides(mu, nu)
        self.field = field
        self.l = tuple(tuple(min(a, b) for b in self.nu) for a in self.mu)
        self.dim = sum(sum(row) for row in self.l)

    def key(self):
        return (self.mu, self.nu, id(self.field))

    def __eq__(self, other):
        return isinstance(other, CocentShape) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"CocentShape(mu={self.mu}, nu={self.nu}, {self.field!r})"

    def slots(self) -> list:
        """Flat (i, j, exponent) coordinates in canonical order."""
        return [(i, j, a) for i, row in enumerate(self.l) for j, l in enumerate(row)
                for a in range(l)]


class CocentElement:
    __slots__ = ("shape", "entries", "_hash")

    def __init__(self, shape: CocentShape, entries):
        self.shape = shape
        self.entries = tuple(tuple(tuple(e) for e in row) for row in entries)
        assert tuple(tuple(map(len, row)) for row in self.entries) == shape.l
        self._hash = None

    @classmethod
    def from_flat(cls, shape: CocentShape, flat) -> "CocentElement":
        rows, pos = [], 0
        for row in shape.l:
            entries = []
            for l in row:
                entries.append(tuple(flat[pos:pos + l]))
                pos += l
            rows.append(tuple(entries))
        assert pos == len(flat)
        v = cls.__new__(cls)  # the entries have the shape's lengths by construction
        v.shape, v.entries, v._hash = shape, tuple(rows), None
        return v

    def flat(self) -> tuple:
        return tuple(c for row in self.entries for e in row for c in e)

    def __eq__(self, other):
        return (isinstance(other, CocentElement) and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape.key(), self.entries))
        return self._hash

    def __repr__(self):
        f = self.shape.field
        rows = [[gf.poly_str(gf.pnormalize(e), f) for e in row] for row in self.entries]
        return f"CocentElement(mu={self.shape.mu}, nu={self.shape.nu}, {rows})"


def _at_zero(v: CocentElement) -> list:
    """The entries of v as (offset 0, coefficients) pairs."""
    return [[(0, e) for e in row] for row in v.entries]


def act_left(g: AlgElement, v: CocentElement) -> CocentElement:
    """Left multiplication by an element of the mu-side centralizer."""
    sh = v.shape
    if g.lam != sh.mu or g.field is not sh.field or g.transposed:
        raise ValueError("left action needs a straight-shape element over mu")
    return CocentElement(sh, truncated_product(_grid(g), _at_zero(v), sh.l, sh.field))


def act_right(v: CocentElement, g: AlgElement) -> CocentElement:
    """Right multiplication by d_twist(g), g in the nu-side centralizer."""
    sh = v.shape
    if g.lam != sh.nu or g.field is not sh.field or g.transposed:
        raise ValueError("right action needs a straight-shape element over nu")
    return CocentElement(sh, truncated_product(_at_zero(v), _grid(d_twist(g)), sh.l,
                                               sh.field))


@dataclass(frozen=True)
class EigenBlockProblem:
    """Per-eigenvalue matrix problem of a Levi pair: partitions of the shared
    irreducible p on the two sides, over the one F_{q^d} of its degree."""
    p: Poly
    mu: tuple
    nu: tuple
    field: FiniteField  # gf.extension(base, deg p), shared by the degree


def reduce_levi_pair(ga, gb, base: FiniteField) -> list:
    """One problem per irreducible occurring in both forms, in the order of
    ga's factors, over the F_{q^d} shared by its degree; eigenvalues on one
    side only contribute nothing (their block vanishes)."""
    db = dict(gb)
    return [EigenBlockProblem(p, mu, db[p], gf.extension(base, gf.pdeg(p)))
            for p, mu in ga if p in db]


def lift(v: CocentElement, p: Poly, base: FiniteField) -> Mat:
    """Corner-block representative: coefficient c of x^a in entry (i,j)
    becomes the multiplication matrix of c in the top-row cell of the
    block's exponent-a antidiagonal (local cell (1, nu_j - a)).  Over a
    degree-d field other than extend(base, p), every c must lie in the base
    field (the indices < q), which an isomorphism onto extend(base, p)
    fixes, so it keeps such an orbit minimum; there c lifts to c * I_d."""
    sh = v.shape
    d = gf.pdeg(p)
    K = sh.field
    if d == 1:
        assert K is base
    else:
        assert K.base is base and K.degree == d
        if K.modulus != tuple(p) and any(c >= base.order for c in v.flat()):
            raise ArithmeticError(f"{v!r} lifts at {p} only over its own field")
    mu, nu = sh.mu, sh.nu
    roffs, coffs = ([0, *itertools.accumulate(x * d for x in lam)] for lam in (mu, nu))
    out = Mat.zeros(base, roffs[-1], coffs[-1])
    for i in range(len(mu)):
        for j in range(len(nu)):
            for a, c in enumerate(v.entries[i][j]):
                if c == K.zero:
                    continue
                r0 = roffs[i]
                c0 = coffs[j] + (nu[j] - 1 - a) * d
                out.a[r0:r0 + d, c0:c0 + d] = K.mult_matrix(c, base)
    return out


# -- JSON ---------------------------------------------------------------------


def cocent_to_json(v: CocentElement) -> dict:
    f = v.shape.field
    return {
        "mu": list(v.shape.mu),
        "nu": list(v.shape.nu),
        "entries": [[",".join(f.element_str(c) for c in e) if e else ""
                     for e in row] for row in v.entries],
    }

