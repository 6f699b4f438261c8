"""Exact arithmetic for finite fields and univariate polynomials over them.

A field is either a prime field F_p or an extension of another field by a
monic irreducible modulus, so towers like F_4 = F_2(w) and K = F_4(u) are
supported uniformly.  Field elements are plain integers: the index of the
element in the field's canonical enumeration (coefficient vectors over the
base field read low-to-high in mixed radix), which keeps them hashable and
cheap.  Prime fields compute modulo p.  Extension fields of order up to
1024 compute through dense op tables built with numpy from the base
field's tables; larger ones through polynomial arithmetic on coefficient
vectors modulo the modulus.

Polynomials are normalized tuples of element indices, low-to-high, with the
zero polynomial represented by the empty tuple.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded

Poly = tuple  # tuple of element indices, low-to-high, no trailing zeros

_TABLE_LIMIT = 1024  # largest field order for which dense op tables are built


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """F_p, or an extension of another FiniteField by an irreducible modulus.

    Do not call directly: use ``ff(p, e)`` and ``extend(field, modulus)`` so
    that equal fields are shared and identity comparison works.
    """

    def __init__(self, p: int, base: Optional["FiniteField"] = None,
                 modulus: Optional[Poly] = None):
        self.p = p
        self.base = base
        if base is None:
            self.degree = 1          # degree over the base (= itself)
            self.abs_degree = 1      # degree over the prime field
            self.order = p
            self.modulus = (0, 1)    # the polynomial t, by convention
        else:
            assert modulus is not None and len(modulus) >= 3, "extension degree must be >= 2"
            assert modulus[-1] == base.one, "modulus must be monic"
            self.degree = len(modulus) - 1
            self.abs_degree = base.abs_degree * self.degree
            self.order = base.order ** self.degree
            self.modulus = modulus
        self._tables = None
        self._primitive = None
        self._ext_cache: dict[Poly, "FiniteField"] = {}

    # -- element access -------------------------------------------------

    zero = 0
    one = 1

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def coeffs(self, a: int) -> tuple:
        """Coefficient vector of a over the base field, low-to-high."""
        if self.base is None:
            return (a,)
        B = self.base.order
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, B)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs: Sequence[int]) -> int:
        if self.base is None:
            return cs[0] % self.p
        B = self.base.order
        a = 0
        for c in reversed(list(cs)):
            a = a * B + c
        return a

    @property
    def gen(self) -> int:
        """The adjoined generator (index of the coefficient vector (0,1,0,..))."""
        assert self.base is not None, "prime field has no extension generator"
        return self.base.order

    # -- arithmetic on element indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return int(a + b) % self.p
        if self.order > _TABLE_LIMIT:
            return self.from_coeffs(padd(self.coeffs(a), self.coeffs(b), self.base))
        return self._ops["add"][a][b]

    def neg(self, a: int) -> int:
        if self.base is None:
            return int(-a) % self.p
        if self.order > _TABLE_LIMIT:
            return self.from_coeffs(pneg(self.coeffs(a), self.base))
        return self._ops["neg"][a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return int(a * b) % self.p
        if self.order > _TABLE_LIMIT:
            prod = pmul(self.coeffs(a), self.coeffs(b), self.base)
            return self.from_coeffs(pmod(prod, self.modulus, self.base))
        return self._ops["mul"][a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.base is None:
            return pow(int(a), self.p - 2, self.p)
        if self.order > _TABLE_LIMIT:
            return self.pow(a, self.order - 2)
        return self._ops["inv"][a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def pth_root(self, a: int) -> int:
        """The unique p-th root of a (Frobenius is bijective)."""
        return self.pow(a, self.order // self.p)

    def primitive_element(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        if self._primitive is None:
            n = self.order - 1
            for a in self.units():
                if self._elt_order(a) == n:
                    self._primitive = a
                    break
        return self._primitive

    def _elt_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.one:
            x = self.mul(x, a)
            k += 1
        return k

    # -- dense op tables -----------------------------------------------------

    def tables(self) -> dict:
        """Numpy add/mul/neg/inv tables indexed by element index.

        An extension field's tables are built from its base field's: each
        element splits into base digits, sums add digit by digit, and
        products sum the digits of one factor times the other factor
        multiplied by successive powers of x, folding the top digit back
        with the modulus each time.
        """
        if self._tables is None:
            n = self.order
            if n > _TABLE_LIMIT:
                raise BudgetExceeded(n, _TABLE_LIMIT, f"dense op tables of F_{n}",
                                     "field order {}")
            idx = np.arange(n, dtype=np.int32)
            if self.base is None:
                add = (idx[:, None] + idx) % n
                mul = (idx[:, None] * idx) % n
                neg = -idx % n
            else:
                bt, B, d = self.base.tables(), self.base.order, self.degree
                digits = [idx // B ** i % B for i in range(d)]
                add = sum(bt["add"][c[:, None], c] * B ** i for i, c in enumerate(digits))
                neg = sum(bt["neg"][c] * B ** i for i, c in enumerate(digits))
                # smul[c, a] = c * a for c in the base; xa runs through a * x^j
                smul = sum(bt["mul"][:, c] * B ** i for i, c in enumerate(digits))
                # x^d = -(m_0 + m_1 x + ... + m_{d-1} x^{d-1}) modulo the modulus
                fold = self.from_coeffs([self.base.neg(c) for c in self.modulus[:-1]])
                top = B ** (d - 1)
                mul, xa = np.zeros((n, n), dtype=np.int32), idx
                for c in digits:
                    mul = add[mul, smul[c, xa[:, None]]]
                    xa = add[xa % top * B, smul[xa // top, fold]]
            inv = np.argmax(mul == 1, axis=1).astype(np.int32)
            self._tables = {"add": add, "mul": mul, "neg": neg, "inv": inv}
        return self._tables

    @cached_property
    def _ops(self) -> dict:
        """The tables as nested Python lists, whose scalar lookups are
        several times faster than indexing numpy arrays.  Entries share
        one int object per element."""
        ints = np.arange(self.order).astype(object)
        return {k: ints[t].tolist() for k, t in self.tables().items()}

    # -- printing / parsing -----------------------------------------------

    def _symbol(self) -> str:
        depth = 0
        f = self
        while f.base is not None:
            depth += 1
            f = f.base
        return {1: "w", 2: "u", 3: "v"}.get(depth, f"g{depth}")

    def element_str(self, a: int) -> str:
        if self.base is None:
            return str(a)
        sym = self._symbol()
        terms = []
        for i, c in enumerate(self.coeffs(a)):
            if c == self.base.zero:
                continue
            cs = self.base.element_str(c)
            if self.base.base is not None:
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*{sym}")
            else:
                terms.append(f"{cs}*{sym}^{i}")
        return "+".join(terms) if terms else "0"

    def element_parse(self, s: str) -> int:
        s = s.strip()
        if self.base is None:
            return int(s) % self.p
        sym = self._symbol()
        cs = [self.base.zero] * self.degree
        for term in _split_top(s):
            term = term.strip()
            if term == "0":
                continue
            if term.startswith("("):
                close = term.index(")")
                coeff_s, rest = term[1:close], term[close + 1:]
                power_s = rest.lstrip("*")
            elif term.startswith(sym):
                coeff_s, power_s = "1", term
            elif "*" in term:
                coeff_s, power_s = term.rsplit("*", 1)
            else:
                coeff_s, power_s = term, ""
            if power_s == "":
                i = 0
            elif power_s == sym:
                i = 1
            else:
                assert power_s.startswith(sym + "^"), f"bad term {term!r}"
                i = int(power_s[len(sym) + 1:])
            cs[i] = self.base.add(cs[i], self.base.element_parse(coeff_s))
        return self.from_coeffs(cs)

    def __repr__(self):
        if self.base is None:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.abs_degree})"


def _split_top(s: str) -> list:
    """Split on '+' outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


@lru_cache(maxsize=None)
def _prime_field(p: int) -> FiniteField:
    return FiniteField(p)


def ff(p: int, e: int = 1) -> FiniteField:
    """The field F_{p^e} with the lexicographically least irreducible modulus.

    Deterministic across runs: two calls with the same (p, e) return the
    same object.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    base = _prime_field(p)
    if e == 1:
        return base
    return extend(base, lex_least_irreducible(base, e))


@lru_cache(maxsize=None)
def lex_least_irreducible(field: FiniteField, d: int) -> Poly:
    for f in _monic_polys(field, d):
        if is_irreducible(f, field):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


def ff_order(q: int) -> FiniteField:
    """The field of order q = p^e, auto-factored."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return ff(p, e)
    raise ValueError(f"{q} is not a prime power")


def extend(field: FiniteField, modulus: Poly) -> FiniteField:
    """Extension of ``field`` by a monic irreducible ``modulus``.

    Degree-1 moduli give back ``field`` itself.
    """
    modulus = pnormalize(modulus)
    d = len(modulus) - 1
    if d < 1:
        raise ValueError("modulus must have degree >= 1")
    if d == 1:
        return field
    if modulus not in field._ext_cache:
        if modulus[-1] != field.one:
            raise ValueError("modulus must be monic")
        if not is_irreducible(modulus, field):
            raise ValueError("modulus must be irreducible")
        field._ext_cache[modulus] = FiniteField(field.p, base=field, modulus=modulus)
    return field._ext_cache[modulus]


# -- polynomial arithmetic (tuples of element indices, low-to-high) --------


def pnormalize(cs: Sequence[int]) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdeg(f: Poly) -> int:
    return len(f) - 1  # zero polynomial gets -1


def padd(f: Poly, g: Poly, field: FiniteField) -> Poly:
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    return pnormalize([field.add(a, b) for a, b in zip(f, g)])


def pneg(f: Poly, field: FiniteField) -> Poly:
    return tuple(field.neg(a) for a in f)


def psub(f: Poly, g: Poly, field: FiniteField) -> Poly:
    return padd(f, pneg(g, field), field)


def pscale(c: int, f: Poly, field: FiniteField) -> Poly:
    if c == field.zero:
        return ()
    return pnormalize([field.mul(c, a) for a in f])


def pmul(f: Poly, g: Poly, field: FiniteField) -> Poly:
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == field.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return pnormalize(out)


def pdivmod(f: Poly, g: Poly, field: FiniteField) -> tuple:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), f
    quot = [field.zero] * (dq + 1)
    ginv = field.inv(g[-1])
    for k in range(dq, -1, -1):
        c = field.mul(rem[k + len(g) - 1], ginv)
        quot[k] = c
        if c != field.zero:
            for j, b in enumerate(g):
                rem[k + j] = field.sub(rem[k + j], field.mul(c, b))
    return pnormalize(quot), pnormalize(rem)


def pmod(f: Poly, g: Poly, field: FiniteField) -> Poly:
    return pdivmod(f, g, field)[1]


def pmonic(f: Poly, field: FiniteField) -> Poly:
    if not f:
        return f
    if f[-1] == field.one:
        return f
    return pscale(field.inv(f[-1]), f, field)


def pgcd(f: Poly, g: Poly, field: FiniteField) -> Poly:
    while g:
        f, g = g, pmod(f, g, field)
    return pmonic(f, field)


def ppow_mod(f: Poly, k: int, m: Poly, field: FiniteField) -> Poly:
    out = (field.one,)
    f = pmod(f, m, field)
    while k:
        if k & 1:
            out = pmod(pmul(out, f, field), m, field)
        f = pmod(pmul(f, f, field), m, field)
        k >>= 1
    return out


def pderiv(f: Poly, field: FiniteField) -> Poly:
    out = []
    for i in range(1, len(f)):
        c = f[i]
        s = field.zero
        for _ in range(i % field.p):
            s = field.add(s, c)
        out.append(s)
    return pnormalize(out)


def poly_str(f: Poly, field: FiniteField) -> str:
    """Textual format: coefficients low-to-high, comma-separated."""
    if not f:
        return "0"
    return ",".join(field.element_str(c) for c in f)


def poly_parse(s: str, field: FiniteField) -> Poly:
    s = s.strip()
    if s == "0" or s == "":
        return ()
    return pnormalize([field.element_parse(t) for t in s.split(",")])


def _monic_polys(field: FiniteField, d: int) -> Iterator[Poly]:
    """Monic degree-d polynomials in ascending lexicographic order of
    (c_0, c_1, ...) with elements ordered by index."""
    import itertools
    for lows in itertools.product(field.elements(), repeat=d):
        yield tuple(lows) + (field.one,)


def is_irreducible(f: Poly, field: FiniteField) -> bool:
    """Rabin's criterion: x^{q^d} = x mod f and gcd(x^{q^{d/r}} - x, f) = 1
    for every prime r dividing d."""
    d = pdeg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = field.order
    x = (field.zero, field.one)
    r = 2
    dd = d
    prime_divs = []
    while r * r <= dd:
        if dd % r == 0:
            prime_divs.append(r)
            while dd % r == 0:
                dd //= r
        r += 1
    if dd > 1:
        prime_divs.append(dd)
    for r in prime_divs:
        h = ppow_mod(x, q ** (d // r), f, field)
        if pgcd(psub(h, x, field), f, field) != (field.one,):
            return False
    h = ppow_mod(x, q ** d, f, field)
    return psub(h, x, field) == ()


@lru_cache(maxsize=None)
def irreducibles(d: int, field: FiniteField, exclude_x: bool = False) -> tuple:
    """All monic irreducibles of degree d, in lexicographic order.

    With ``exclude_x`` the polynomial t is dropped (the invertibility
    constraint on generalized eigenvalues).
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    for f in _monic_polys(field, d):
        if exclude_x and f[0] == field.zero:
            continue
        if is_irreducible(f, field):
            out.append(f)
    return tuple(out)


def mobius(n: int) -> int:
    """The Möbius function: 0 unless n is squarefree, else (-1)^(prime factors)."""
    out, r = 1, 2
    while r * r <= n:
        if n % r == 0:
            n //= r
            if n % r == 0:
                return 0
            out = -out
        r += 1
    return -out if n > 1 else out


def irreducible_count(d: int, q: int) -> int:
    """Number of monic irreducibles of degree d over F_q, by the necklace
    formula (1/d) sum over e | d of mobius(d/e) q^e; t is counted."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


# -- factorization ----------------------------------------------------------


def _pth_root_poly(f: Poly, field: FiniteField) -> Poly:
    """g with g(x)^p = f(x), for f whose exponents are all multiples of p."""
    p = field.p
    out = []
    for i in range(0, len(f), p):
        out.append(field.pth_root(f[i]))
    return pnormalize(out)


def _squarefree_parts(f: Poly, field: FiniteField) -> list:
    """List of (monic squarefree factor, multiplicity), product = f."""
    out = []
    if pdeg(f) == 0:
        return out
    fp = pderiv(f, field)
    if not fp:
        for g, m in _squarefree_parts(_pth_root_poly(f, field), field):
            out.append((g, m * field.p))
        return out
    c = pgcd(f, fp, field)
    w = pdivmod(f, c, field)[0]
    i = 1
    while pdeg(w) > 0:
        y = pgcd(w, c, field)
        z = pdivmod(w, y, field)[0]
        if pdeg(z) > 0:
            out.append((z, i))
        w = y
        c = pdivmod(c, y, field)[0]
        i += 1
    if pdeg(c) > 0:
        for g, m in _squarefree_parts(_pth_root_poly(c, field), field):
            out.append((g, m * field.p))
    return out


def _distinct_degree(f: Poly, field: FiniteField) -> list:
    """For squarefree monic f: list of (product of its degree-d irreducibles, d)."""
    out = []
    q = field.order
    x = (field.zero, field.one)
    h = x
    g = f
    d = 0
    while pdeg(g) > 2 * (d + 1) - 1:
        d += 1
        h = ppow_mod(h, q, g, field)
        gd = pgcd(psub(h, x, field), g, field)
        if pdeg(gd) > 0:
            out.append((gd, d))
            g = pdivmod(g, gd, field)[0]
            h = pmod(h, g, field)
    if pdeg(g) > 0:
        out.append((g, pdeg(g)))
    return out


def _equal_degree_split(f: Poly, d: int, field: FiniteField, rng: random.Random) -> list:
    """Cantor-Zassenhaus splitting of a product of distinct degree-d irreducibles."""
    n = pdeg(f)
    if n == d:
        return [f]
    q = field.order
    one = (field.one,)
    for _ in range(200):
        r = pnormalize([rng.randrange(q) for _ in range(n)])
        if pdeg(r) < 1:
            continue
        g = pgcd(r, f, field)
        if pdeg(g) == 0:
            if field.p == 2:
                # trace map over F_{2^(abs_degree * d)}
                t = r
                acc = r
                for _ in range(field.abs_degree * d - 1):
                    t = pmod(pmul(t, t, field), f, field)
                    acc = padd(acc, t, field)
                g = pgcd(acc, f, field)
            else:
                h = ppow_mod(r, (q ** d - 1) // 2, f, field)
                g = pgcd(psub(h, one, field), f, field)
        if 0 < pdeg(g) < n:
            left = _equal_degree_split(g, d, field, rng)
            right = _equal_degree_split(pdivmod(f, g, field)[0], d, field, rng)
            return left + right
    raise RuntimeError("equal-degree splitting exceeded its retry bound")


def poly_factor(f: Poly, field: FiniteField, seed: int = 0) -> list:
    """Monic irreducible factors with multiplicities, sorted by (degree, coeffs).

    The product of the factors (with multiplicity) times the leading
    coefficient of f equals f.  Randomness in equal-degree splitting is
    drawn from a generator seeded deterministically.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0x5EED ^ seed)
    fm = pmonic(f, field)
    out = []
    for g, mult in _squarefree_parts(fm, field):
        for h, d in _distinct_degree(g, field):
            for irr in _equal_degree_split(h, d, field, rng):
                out.append((pmonic(irr, field), mult))
    out.sort(key=lambda t: (pdeg(t[0]), t[0]))
    return out
