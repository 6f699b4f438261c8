"""Shared independent oracles for the test suite.

These deliberately avoid the package's linear algebra: matrices are nested
tuples over a prime field with arithmetic written out directly, and field
arithmetic is recomputed coefficient by coefficient, so the values they
produce are independent of the code under test.
"""

import itertools
from functools import lru_cache

import numpy as np


def tup_mat_mul(a, b, p):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p
                       for j in range(m)) for i in range(n))


def tup_mat_rank(a, p):
    rows = [list(r) for r in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def gl_elements_bruteforce(n, p):
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        m = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if tup_mat_rank(m, p) == n:
            out.append(m)
    return out


def gl_conjugacy_classes_bruteforce(n, p):
    """Partition of the invertible n x n matrices over F_p into conjugacy
    classes, by closing under conjugation by every group element."""
    els = gl_elements_bruteforce(n, p)
    index = {m: i for i, m in enumerate(els)}
    inverses = {}
    for m in els:
        if m not in inverses:
            for w in els:
                if tup_mat_mul(m, w, p) == tuple(
                        tuple(int(i == j) for j in range(n)) for i in range(n)):
                    inverses[m] = w
                    break
    labels = [-1] * len(els)
    cls = 0
    for i, m in enumerate(els):
        if labels[i] != -1:
            continue
        for g in els:
            c = tup_mat_mul(tup_mat_mul(g, m, p), inverses[g], p)
            labels[index[c]] = cls
        cls += 1
    return cls, labels


def reference_add(field, a, b):
    """Sum of two field elements, base digit by base digit down the tower."""
    if field.base is None:
        return (a + b) % field.p
    return field.from_coeffs([reference_add(field.base, x, y)
                              for x, y in zip(field.coeffs(a), field.coeffs(b))])


def reference_neg(field, a):
    if field.base is None:
        return -a % field.p
    return field.from_coeffs([reference_neg(field.base, x) for x in field.coeffs(a)])


@lru_cache(maxsize=None)
def _fold_rows(field):
    """x^k modulo the modulus for k = d .. 2d-2, as base coefficient lists."""
    bf = field.base
    top = [reference_neg(bf, c) for c in field.modulus[:-1]]
    rows = [top]
    for _ in range(field.degree - 2):
        prev = rows[-1]
        nxt = [0] + prev[:-1]
        if prev[-1]:
            nxt = [reference_add(bf, a, reference_mul(bf, prev[-1], b))
                   for a, b in zip(nxt, top)]
        rows.append(nxt)
    return rows


def reference_mul(field, a, b):
    """Product of two field elements: the convolution of their coefficient
    vectors over the base field, with exponents >= the degree folded back
    through the rows x^k mod modulus."""
    if field.base is None:
        return a * b % field.p
    bf, d = field.base, field.degree
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(field.coeffs(a)):
        if x:
            for j, y in enumerate(field.coeffs(b)):
                conv[i + j] = reference_add(bf, conv[i + j], reference_mul(bf, x, y))
    out = conv[:d]
    for k in range(d, 2 * d - 1):
        if conv[k]:
            out = [reference_add(bf, o, reference_mul(bf, conv[k], r))
                   for o, r in zip(out, _fold_rows(field)[k - d])]
    return field.from_coeffs(out)


def reference_tables(field):
    """Add and mul tables of the field as nested lists, from reference_add
    and reference_mul over the upper triangle."""
    n = field.order
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            add[a][b] = add[b][a] = reference_add(field, a, b)
            mul[a][b] = mul[b][a] = reference_mul(field, a, b)
    return add, mul


def commutator_space(A, B):
    """Columns spanning {wB - Aw} inside the flattened m x n matrix space."""
    from paraclasses.matrices import Mat
    f = A.field
    m, n = A.rows, B.rows
    cols = []
    for r in range(m):
        for c in range(n):
            w = Mat.zeros(f, m, n)
            w.a[r, c] = f.one
            img = w @ B - A @ w
            cols.append(img.a.reshape(-1))
    return Mat(f, np.array(cols, dtype=np.int32).T)


def in_span(S, target):
    from paraclasses.matrices import Mat
    aug = Mat(S.field, np.hstack([S.a, target.a.reshape(-1, 1)]))
    return aug.rank() == S.rank()


def reference_orbits(shape):
    """Orbits of the corner space of a CocentShape by plain Python closure.

    Each reduced generator of either side is turned into the images of the
    basis elements under act_left/act_right, and applied by linearity with
    the field tables of reference_tables.  Nothing of
    the packed actions or the numpy kernel is used.  Returns the orbits as
    sets of flat coefficient tuples, in the order of their least element;
    tuples compare lexicographically, as the kernel's states do.
    """
    from paraclasses.centralizer import reduced_action_generators
    from paraclasses.cocentralizer import CocentElement, act_left, act_right
    K, dim = shape.field, shape.dim
    els = list(K.elements())
    add, mul = reference_tables(K)
    basis = [CocentElement.from_flat(shape, [int(i == t) for i in range(dim)])
             for t in range(dim)]
    gens = [[act_left(g, e).flat() for e in basis]
            for g in reduced_action_generators(shape.mu, K)]
    gens += [[act_right(e, g).flat() for e in basis]
             for g in reduced_action_generators(shape.nu, K)]

    def apply(images, v):
        out = [0] * dim
        for c, img in zip(v, images):
            if c:
                out = [add[o][mul[c][x]] for o, x in zip(out, img)]
        return tuple(out)

    seen, orbits = set(), []
    for v in itertools.product(els, repeat=dim):
        if v in seen:
            continue
        orbit, stack = {v}, [v]
        while stack:
            w = stack.pop()
            for images in gens:
                img = apply(images, w)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def reference_packed_gens(shape, add, mul):
    """The packed generator actions of a CocentShape, built by probing.

    Each reduced generator's dense matrix is assembled from the
    act_left/act_right images of the basis elements; equal matrices are
    kept once.  Every row that differs from the identity's becomes the
    columns it reads (itself included) and the table of the change it makes
    to the state, indexed by those columns' digits; add and mul are the
    field's tables.  Returns one list of (columns, table) per generator,
    the layout of ``PackedActions.gens``.
    """
    from paraclasses.centralizer import reduced_action_generators
    from paraclasses.cocentralizer import CocentElement, act_left, act_right
    K, dim, q = shape.field, shape.dim, shape.field.order
    add, mul = np.asarray(add, dtype=np.int64), np.asarray(mul, dtype=np.int64)
    basis = [CocentElement.from_flat(shape, [int(i == t) for i in range(dim)])
             for t in range(dim)]
    mats = [tuple(zip(*[act_left(g, e).flat() for e in basis]))
            for g in reduced_action_generators(shape.mu, K)]
    mats += [tuple(zip(*[act_right(e, g).flat() for e in basis]))
             for g in reduced_action_generators(shape.nu, K)]
    gens = []
    for m in dict.fromkeys(mats):
        rows = []
        for r in range(dim):
            if all(m[r][c] == int(c == r) for c in range(dim)):
                continue
            cols = sorted({r} | {c for c in range(dim) if m[r][c]})
            digits = np.indices((q,) * len(cols)).reshape(len(cols), -1)
            new = np.zeros(digits.shape[1], dtype=np.int64)
            for c, d in zip(cols, digits):
                new = add[new, mul[m[r][c], d]]
            rows.append((cols, (new - digits[cols.index(r)]) * q ** (dim - 1 - r)))
        if rows:
            gens.append(rows)
    return gens


def aut_order(lam, q):
    """Order of Aut(lam), the unit group of the centralizer of a nilpotent
    of type lam over F_q: q^(sum lam'_i^2 - sum m_i^2) * prod |GL_(m_i)(q)|,
    with lam' the conjugate partition and m_i the part multiplicities
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. II (1.6))."""
    conj = [sum(1 for x in lam if x > i) for i in range(max(lam))]
    mult = [lam.count(v) for v in set(lam)]
    order = q ** (sum(c * c for c in conj) - sum(m * m for m in mult))
    for m in mult:
        for i in range(m):
            order *= q ** m - q ** i
    return order


def reference_class_count(m, n, field):
    """Class count of P(m, n) by the Levi-pair loop: over every pair of
    invertible Jordan forms, the product of the orbit counts of its
    per-eigenvalue problems (the path the type-level count replaced)."""
    from paraclasses.cocentralizer import reduce_levi_pair
    from paraclasses.conjugacy import levi_reps, orbit_count_cached
    total = 0
    for ga, gb in levi_reps(m, n, field):
        prod = 1
        for pr in reduce_levi_pair(ga, gb, field):
            prod *= orbit_count_cached(pr.mu, pr.nu, pr.field)
        total += prod
    return total


def prime_powers():
    """2, 3, 4, 5, 7, 8, 9, 11, ... without end."""
    q = 2
    while True:
        m = q
        p = next(p for p in range(2, q + 1) if q % p == 0)
        while m % p == 0:
            m //= p
        if m == 1:
            yield q
        q += 1


def _lagrange_fit(points):
    """Exact interpolation through (x, y) points; coefficients low-to-high."""
    from fractions import Fraction
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= Fraction(xj) * num[k + 1]
            den *= xi - xj
        for k, c in enumerate(num):
            coeffs[k] += c * Fraction(yi) / den
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_count_poly(m, n):
    """The class count polynomial fitted through Levi-loop counts at prime
    powers: degree found adaptively (two consecutive fits agree), then
    checked at two held-out prime powers."""
    from paraclasses.conjugacy import CountPolynomial
    from paraclasses.gf import ff_order
    counts = {}

    def sample(q):
        if q not in counts:
            counts[q] = reference_class_count(m, n, ff_order(q))
        return counts[q]

    qs = prime_powers()
    pts = [(q, sample(q)) for q in itertools.islice(qs, m + n + 3)]
    fit = _lagrange_fit(pts)
    while True:
        q = next(qs)
        pts.append((q, sample(q)))
        fit2 = _lagrange_fit(pts)
        if fit2 == fit:
            h1, h2, cp = next(qs), next(qs), CountPolynomial(fit)
            if cp(h1) == sample(h1) and cp(h2) == sample(h2):
                break
        fit = fit2
    assert all(c.denominator == 1 for c in fit)
    return CountPolynomial(int(c) for c in fit)
