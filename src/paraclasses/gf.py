"""Exact arithmetic for finite fields and univariate polynomials over them.

A field is either a prime field F_p or an extension of another field by a
monic irreducible modulus, so towers like F_4 = F_2(w) and K = F_4(u) are
supported uniformly.  Field elements are plain integers: the index of the
element in the field's canonical enumeration (coefficient vectors over the
base field read low-to-high in mixed radix), which keeps them hashable and
cheap.  Prime fields compute modulo p.  An extension field of order up to
1024 keeps one set of dense numpy op tables, built from the base field's
tables, and both its scalar operations and its array arithmetic (`vadd`,
`vneg`, `vmul`) read them; larger ones compute through polynomial
arithmetic on coefficient vectors modulo the modulus.  Fields of order up
to 1024 also keep the text of every element, formatted once.  Only this
module reads an element's digits or the op tables: other modules take the
d x d matrix of multiplication by an element over the base field from
`mult_matrix`, and a basis over the prime field, the first powers of the
primitive element, from `additive_basis`.

Polynomials are normalized tuples of element indices, low-to-high, with the
zero polynomial represented by the empty tuple.  One polynomial's
irreducibility is Ben-Or's test; the irreducibles of a degree are listed by a
sieve that strikes every product of lower-degree ones and tests none.
Factorization runs distinct-degree then equal-degree (Cantor-Zassenhaus)
splitting on f itself, repeated factors included, and counts each factor's
multiplicity by repeated division.  Primality is Miller-Rabin, proved
deterministic below 3.3 * 10^24, and a field order q = p^e is split by exact
integer e-th roots; one trial-division integer factoriser serves the Möbius
function and primitive elements.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded

Poly = tuple  # tuple of element indices, low-to-high, no trailing zeros

_TABLE_LIMIT = 1024  # largest field order for which dense op tables are built
_INDEX_LIMIT = 2 ** 31 - 1  # largest prime whose indices fit int32 arrays
_SIEVE_LIMIT = 2 ** 22  # most bytes `irreducibles` sieves: one per monic candidate


def check_table_order(order: int) -> None:
    """Refuse, as exceeding the budget, dense op tables for a field of
    this order: above _TABLE_LIMIT."""
    if order > _TABLE_LIMIT:
        raise BudgetExceeded(order, _TABLE_LIMIT, f"dense op tables of F_{order}",
                             "field order {}")


def _prime_factors(n: int) -> dict:
    """{p: e} with n the product of the p^e (empty for n < 2), by trial
    division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p], n = out.get(p, 0) + 1, n // p
        p += 1
    if n > 1:
        out[n] = 1  # a prime above every p found
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # the first 13 primes
# below this bound no composite is a strong probable prime to every base in
# _MR_BASES (Sorenson and Webster, Math. Comp. 86 (2017), arXiv 2015)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, deterministic below _MR_LIMIT.
    Raises ValueError, naming the bound, for a number at or above it that
    passes every base."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:  # a is a witness when a^d != 1 and no a^(d 2^i) = -1
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin to the first 13 "
                         f"prime bases is proved only below {_MR_LIMIT}")
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
        return tuple(a // B ** i % B for i in range(self.degree))

    def from_coeffs(self, cs: Sequence[int]) -> int:
        if self.base is None:
            return cs[0] % self.p
        return sum(c * self.base.order ** i for i, c in enumerate(cs))

    # -- arithmetic on element indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (int(a) + int(b)) % self.p
        if self.order > _TABLE_LIMIT:
            return self.from_coeffs(padd(self.coeffs(a), self.coeffs(b), self.base))
        return self.tables()["add"].item(a, b)

    def neg(self, a: int) -> int:
        if self.base is None:
            return -int(a) % self.p
        if self.order > _TABLE_LIMIT:
            return self.from_coeffs(pneg(self.coeffs(a), self.base))
        return self.tables()["neg"].item(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return int(a) * int(b) % self.p
        if self.order > _TABLE_LIMIT:
            prod = pmul(self.coeffs(a), self.coeffs(b), self.base)
            return self.from_coeffs(pmod(prod, self.modulus, self.base))
        return self.tables()["mul"].item(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.base is None:
            return pow(int(a), self.p - 2, self.p)
        if self.order > _TABLE_LIMIT:
            return self.pow(a, self.order - 2)
        return self.tables()["inv"].item(a)

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

    def primitive_element(self) -> int:
        """Smallest-index generator of the multiplicative group: the first
        unit a with a^((q-1)/r) != 1 for every prime r dividing q - 1."""
        if self._primitive is None:
            n = self.order - 1
            self._primitive = next(a for a in self.units() if all(
                self.pow(a, n // r) != self.one for r in _prime_factors(n)))
        return self._primitive

    def additive_basis(self) -> list:
        """w^0, ..., w^(k-1) for the primitive element w and k the degree
        over the prime field: a basis of the field over it ([1] over F_p)."""
        omega = self.primitive_element()
        return [self.pow(omega, s) for s in range(self.abs_degree)]

    def mult_matrix(self, c: int, base: "FiniteField") -> np.ndarray:
        """The d x d int32 array of multiplication by c over ``base``, this
        field itself ([[c]]) or its base field; column k holds the base
        digits of c * x^k for the adjoined generator x."""
        if base is self:
            return np.array([[c]], dtype=np.int32)
        assert base is self.base, "multiplication matrices are over the base field"
        return np.array([self.coeffs(self.mul(c, base.order ** k))  # c * x^k
                         for k in range(self.degree)], dtype=np.int32).T

    # -- array arithmetic on element indices -----------------------------------

    def check_arrays(self, d: int = 1) -> None:
        """Refuse, as exceeding the budget, array arithmetic over
        ``extension(self, d)``, before any modulus is searched for: an
        extension field past _TABLE_LIMIT has no op tables, and the indices
        of a prime field past _INDEX_LIMIT overflow int32 arrays."""
        if self.base is not None or d > 1:
            check_table_order(self.order ** d)
        elif self.p > _INDEX_LIMIT:
            raise BudgetExceeded(self.p, _INDEX_LIMIT, f"int32 arrays of F_{self.p}",
                                 "field order {}")

    def _array(self, a) -> np.ndarray:
        """a as int64 indices of this prime field: sums and products stay exact."""
        self.check_arrays()
        return np.asarray(a, dtype=np.int64)

    def vadd(self, a, b):
        """a + b entrywise on numpy arrays or scalars of indices, broadcast:
        mod p in a prime field, else through the op tables."""
        if self.base is None:
            return (self._array(a) + b) % self.p
        return self.tables()["add"][a, b]

    def vneg(self, a):
        """-a entrywise, as ``vadd``."""
        if self.base is None:
            return -self._array(a) % self.p
        return self.tables()["neg"][a]

    def vmul(self, a, b):
        """a * b entrywise, as ``vadd``."""
        if self.base is None:
            return self._array(a) * b % self.p
        return self.tables()["mul"][a, b]

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
            check_table_order(n)
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

    # -- printing / parsing -----------------------------------------------

    def _symbol(self) -> str:
        depth = 0
        f = self
        while f.base is not None:
            depth += 1
            f = f.base
        return {1: "w", 2: "u", 3: "v"}.get(depth, f"g{depth}")

    @cached_property
    def element_str(self):
        """The function from an element to its text: a lookup in names up
        to _TABLE_LIMIT, the formatter above it.  Below the limit it is the
        list's own C-level __getitem__, so printing a matrix entry by entry
        makes no Python call per entry."""
        if self.order > _TABLE_LIMIT:
            return self._format
        return self.names.__getitem__

    @cached_property
    def names(self) -> list:
        """Every element's text, by index.  Output prints the same few
        elements thousands of times, so each is formatted once; like the op
        tables, only for a field of order up to _TABLE_LIMIT.  Callers
        share the list and must not mutate it."""
        check_table_order(self.order)
        return [self._format(a) for a in self.elements()]

    def _format(self, a: int) -> str:
        """The text of a: its base-field coefficients times powers of the
        tower symbol, low to high, zero terms left out."""
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
        """The element named by s in the text `_format` writes: in a prime
        field, ASCII decimal digits with a value below p; in an extension,
        terms c, c*x or c*x^i joined by '+', c a base-field element,
        parenthesized in a tower, x the tower symbol and i ASCII digits with
        0 <= i < degree.  Raises ValueError, naming the term, on any other
        text."""
        s = s.strip()
        if self.base is None:
            if not (s.isascii() and s.isdecimal() and int(s) < self.p):
                raise ValueError(f"bad term {s!r} of {self!r}")
            return int(s)
        sym = self._symbol()
        cs = [self.base.zero] * self.degree
        for term in _split_top(s):
            term = term.strip()
            if term == "0":
                continue
            coeff_s, power_s = term, ""
            if term == sym or term.startswith(sym + "^"):
                coeff_s, power_s = "1", term
            elif (star := term.rfind("*")) > term.rfind(")"):
                coeff_s, power_s = term[:star], term[star + 1:]
            if coeff_s.startswith("(") and coeff_s.endswith(")"):
                coeff_s = coeff_s[1:-1]
            head, _, exp = power_s.partition("^")
            i = (int(exp) if head == sym and exp.isascii() and exp.isdecimal()
                 else {"": 0, sym: 1}.get(power_s))
            if i is None or i >= self.degree:
                raise ValueError(f"bad term {term!r} of {self!r}")
            try:
                cs[i] = self.base.add(cs[i], self.base.element_parse(coeff_s))
            except ValueError:
                raise ValueError(f"bad term {term!r} of {self!r}") from None
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
    return extension(_prime_field(p), e)


@lru_cache(maxsize=None)
def extension(field: FiniteField, d: int) -> FiniteField:
    """``field`` extended by its lexicographically least irreducible of
    degree d (``field`` itself for d = 1): the one F_{q^d} over which every
    degree-d eigenvalue's problem is solved."""
    if d == 1:
        return field
    return extend(field, next(f for f in _monic_polys(field, d)
                              if is_irreducible(f, field)))


def _iroot(n: int, e: int) -> int:
    """The largest r with r^e <= n, for n >= 1: Newton's method from
    2^ceil(bits/e), above the root, descending to it."""
    r = 1 << -(-n.bit_length() // e)
    while (s := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
        r = s
    return r


def ff_order(q: int) -> FiniteField:
    """The field of order q = p^e: the one e with an exact e-th root p of
    q that is prime, tried for e = 1, 2, ... while 2^e <= q."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    for e in range(1, q.bit_length()):
        if (p := _iroot(q, e)) ** e == q and is_prime(p):
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
    if not f or f[-1] == field.one:
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
    (c_0, c_1, ...) with elements ordered by index, one at a time.  For
    d >= 2 the stream starts past the q^(d-1) candidates with c_0 = 0,
    which t divides."""
    q = field.order
    for k in range(q ** (d - 1) if d > 1 else 0, q ** d):
        yield tuple(k // q ** (d - 1 - i) % q for i in range(d)) + (field.one,)


def is_irreducible(f: Poly, field: FiniteField) -> bool:
    """Ben-Or's test: f of degree n >= 1 is irreducible exactly when
    gcd(x^(q^d) - x, f) = 1 for every d <= n/2, since a reducible f has a
    factor of degree at most n/2, which divides x^(q^d) - x for its d."""
    x = h = (field.zero, field.one)
    for _ in range(pdeg(f) // 2):
        h = ppow_mod(h, field.order, f, field)
        if pgcd(psub(h, x, field), f, field) != (field.one,):
            return False
    return pdeg(f) >= 1


@lru_cache(maxsize=None)
def irreducibles(d: int, field: FiniteField) -> tuple:
    """All monic irreducibles of degree d, in lexicographic order, by a
    sieve: for d >= 2, the candidates of `_monic_polys` left unmarked in a
    bytearray, indexed by the digits c_0 ... c_(d-1), once every product
    f * g is marked, f a monic irreducible other than t of degree
    e <= d/2 and g monic of degree d - e.  A reducible monic polynomial
    with c_0 != 0 has a monic irreducible factor of degree at most d/2,
    and that factor is not t, so exactly the reducible candidates are
    marked.  Refuses, as exceeding the budget, a sieve of more than
    _SIEVE_LIMIT bytes, one per monic polynomial of degree d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.order
    if q ** d > _SIEVE_LIMIT:
        raise BudgetExceeded(q ** d, _SIEVE_LIMIT, f"the sieve of degree-{d} "
                             f"irreducibles over F_{q}", "{} bytes")
    if d == 1:
        return tuple(_monic_polys(field, 1))
    marked = bytearray(q ** d)
    for e in range(1, d // 2 + 1):
        for f in irreducibles(e, field):
            if f[0] == field.zero:
                continue  # t: its multiples have c_0 = 0, no candidate
            for g in _monic_polys(field, d - e):
                k = 0
                for c in pmul(f, g, field)[:d]:
                    k = k * q + c
                marked[k] = 1
    return tuple(f for k, f in enumerate(_monic_polys(field, d), q ** (d - 1))
                 if not marked[k])


def mobius(n: int) -> int:
    """The Möbius function: 0 unless n is squarefree, else (-1)^(prime factors)."""
    exps = _prime_factors(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def irreducible_count(d: int, q: int) -> int:
    """Number of monic irreducibles of degree d over F_q, by the necklace
    formula (1/d) sum over e | d of mobius(d/e) q^e; t is counted.  q may
    also be a `conjugacy.CountPolynomial`, divided exactly."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


# -- factorization ----------------------------------------------------------


def _distinct_degree(f: Poly, field: FiniteField) -> list:
    """For monic f: list of (g_d, d), g_d the product of the distinct
    degree-d irreducibles dividing f, each taken once.

    Once the factors of degree below d are divided out of g, gcd(x^(q^d) - x, g)
    is g_d; it is divided out of g until the two are coprime, which removes
    every power of those factors.
    """
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
            c = gd
            while pdeg(c) > 0:
                g = pdivmod(g, c, field)[0]
                c = pgcd(g, c, field)
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


def poly_factor(f: Poly, field: FiniteField) -> list:
    """Monic irreducible factors with multiplicities, sorted by (degree, coeffs).

    The product of the factors (with multiplicity) times the leading
    coefficient of f equals f.  Each multiplicity is counted by dividing
    its factor into f until it no longer divides.  Equal-degree splitting
    draws from a generator with a fixed seed.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0x5EED)
    rest = pmonic(f, field)
    out = []
    for g, d in _distinct_degree(rest, field):
        for irr in _equal_degree_split(g, d, field, rng):
            irr, mult = pmonic(irr, field), 0
            while not (qr := pdivmod(rest, irr, field))[1]:
                rest, mult = qr[0], mult + 1
            out.append((irr, mult))
    out.sort(key=lambda t: (pdeg(t[0]), t[0]))
    return out
