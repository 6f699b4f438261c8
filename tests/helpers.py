"""Shared independent oracles and test-only helpers for the test suite.

The oracles deliberately avoid the package's linear algebra: matrices are
nested tuples over a prime field with arithmetic written out directly, and
field arithmetic is recomputed coefficient by coefficient, so the values
they produce are independent of the code under test.  The reference paths
and the test-only constructors and JSON readers at the end build on the
package's own types.
"""

import itertools
import json
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


def reference_element_str(field, a):
    """The text of a field element, formatted on every call: its base-field
    coefficients, low to high, each formatted by recursion down the tower
    and bracketed when the base is itself an extension, times powers of the
    tower symbol (w, u, v, then g4, g5, ... by depth); zero terms are left
    out and the zero element is "0"."""
    if field.base is None:
        return str(a)
    depth, f = 0, field
    while f.base is not None:
        depth, f = depth + 1, f.base
    sym = {1: "w", 2: "u", 3: "v"}.get(depth, f"g{depth}")
    B, terms = field.base.order, []
    for i in range(field.degree):
        c = a // B ** i % B
        if not c:
            continue
        cs = reference_element_str(field.base, c)
        if field.base.base is not None:
            cs = f"({cs})"
        terms.append(cs if i == 0 else f"{cs}*{sym}" if i == 1 else f"{cs}*{sym}^{i}")
    return "+".join(terms) or "0"


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


def all_pairs_action_generators(lam, field):
    """Generators of the unit group with every addition written out: the
    primitive scalar and the filtration units 1 + w^s x^t on one copy per
    part size, and the additions w^s x^t between every ordered pair of
    distinct parts, where reduced_action_generators keeps only adjacent
    pairs and relies on commutators for the rest."""
    from paraclasses.centralizer import alg_from_entry
    f = field
    out = []
    omega = f.primitive_element()
    basis = [f.pow(omega, s) for s in range(f.abs_degree)]
    seen_sizes = set()
    for pos, v in enumerate(lam):
        if v in seen_sizes:
            continue
        seen_sizes.add(v)
        if f.order > 2:
            out.append(alg_from_entry(lam, f, pos, pos, (omega,)))
        for t in range(1, v):
            for c in basis:
                a = (f.one,) + (0,) * (t - 1) + (c,)
                out.append(alg_from_entry(lam, f, pos, pos, a))
    for pr, pc in itertools.permutations(range(len(lam)), 2):
        for t in range(min(lam[pr], lam[pc])):
            for c in basis:
                out.append(alg_from_entry(lam, f, pr, pc, (0,) * t + (c,)))
    return out


def reference_orbits(shape):
    """Orbits of the corner space of a CocentShape by plain Python closure.

    Each generator of all_pairs_action_generators on either side is turned
    into the images of the basis elements under act_left/act_right, and
    applied by linearity with the field tables of reference_tables.  Nothing
    of the packed actions, the numpy kernel or the package's reduced
    generating set is used.  Returns the orbits as sets of flat coefficient
    tuples, in the order of their least element; tuples compare
    lexicographically, as the kernel's states do.
    """
    from paraclasses.cocentralizer import CocentElement, act_left, act_right
    K, dim = shape.field, shape.dim
    els = list(K.elements())
    add, mul = reference_tables(K)
    basis = [CocentElement.from_flat(shape, [int(i == t) for i in range(dim)])
             for t in range(dim)]
    gens = [[act_left(g, e).flat() for e in basis]
            for g in all_pairs_action_generators(shape.mu, K)]
    gens += [[act_right(e, g).flat() for e in basis]
             for g in all_pairs_action_generators(shape.nu, K)]

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


def reference_is_irreducible(f, field):
    """Rabin's criterion (Rabin, Probabilistic algorithms in finite fields,
    SIAM J. Comput. 1980), an independent check of Ben-Or's test in
    `gf.is_irreducible`: f of degree d >= 1 is irreducible exactly when
    x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1 for every prime r
    dividing d."""
    from paraclasses.gf import pdeg, pgcd, ppow_mod, psub
    d, q = pdeg(f), field.order
    if d < 2:
        return d == 1
    x = (field.zero, field.one)
    for r in (r for r in range(2, d + 1) if d % r == 0
              and all(r % s for s in range(2, r))):
        h = ppow_mod(x, q ** (d // r), f, field)
        if pgcd(psub(h, x, field), f, field) != (field.one,):
            return False
    return psub(ppow_mod(x, q ** d, f, field), x, field) == ()


def swept_orbits(mu, nu, field):
    """The orbits of (mu, nu) over the field from a sweep of the whole
    space, with no closed form and no memo: lex-min representatives in
    ascending order with their sizes (the reference of `enumerate_orbits`)."""
    from paraclasses import kernels
    from paraclasses.cocentralizer import CocentShape
    from paraclasses.matrix_problem import OrbitSet, decode, packed_actions
    shape = CocentShape(mu, nu, field)
    states, sizes = kernels.orbit_partition(packed_actions(shape))
    return OrbitSet(shape, tuple(decode(s, shape) for s in states), tuple(sizes))


def reference_class_count(m, n, field):
    """Class count of P(m, n) by the Levi-pair loop: over every pair of
    invertible Jordan forms, the product of the orbit counts of its
    per-eigenvalue problems (the path the type-level count replaced).
    Every orbit count comes from a sweep, over F_2 for finite-type shapes
    and over the problem's own field otherwise, never from the closed form
    of `enumerate_orbits`."""
    from paraclasses.cocentralizer import reduce_levi_pair
    from paraclasses.conjugacy import levi_reps
    from paraclasses.gf import ff
    from paraclasses.matrix_problem import type_classify
    total, counts = 0, {}
    for ga, gb in levi_reps(m, n, field):
        prod = 1
        for pr in reduce_levi_pair(ga, gb, field):
            finite = type_classify(pr.mu, pr.nu).kind == "finite"
            key = pr.mu, pr.nu, ff(2) if finite else pr.field
            if key not in counts:
                counts[key] = swept_orbits(*key).count
            prod *= counts[key]
        total += prod
    return total


def reference_class_rep_json(rep, field):
    """A class representative as a dict built field by field from the
    package's per-object writers and `mat_str` (the path `class_rep_line`'s
    cached text pieces replaced)."""
    from paraclasses.cocentralizer import cocent_to_json
    from paraclasses.gf import poly_str
    from paraclasses.jordan import gjnf_to_json
    from paraclasses.matrices import mat_str
    return {
        "levi_a": gjnf_to_json(rep.levi_a, field),
        "levi_b": gjnf_to_json(rep.levi_b, field),
        "blocks": [{"poly": poly_str(p, field), "rep": cocent_to_json(v)}
                   for p, v in rep.blocks],
        "matrix": mat_str(rep.matrix),
    }


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


# -- test-only constructors and JSON readers (the package only writes JSON) ---


def block(rows_of_blocks):
    """The matrix assembled from a grid of blocks."""
    from paraclasses.matrices import Mat
    field = rows_of_blocks[0][0].field
    return Mat(field, np.vstack([np.hstack([b.a for b in row]) for row in rows_of_blocks]))


def cocent_zero(shape):
    """The zero element of a CocentShape's space."""
    from paraclasses.cocentralizer import CocentElement
    return CocentElement(shape, tuple(tuple((0,) * l for l in row) for row in shape.l))


def cocent_elements(shape):
    """Every element of a CocentShape's space, in the lexicographic order
    of their flat coefficient tuples."""
    from paraclasses.cocentralizer import CocentElement
    for flat in itertools.product(shape.field.elements(), repeat=shape.dim):
        yield CocentElement.from_flat(shape, flat)


def random_invertible(field, n, rng):
    from paraclasses.matrices import Mat
    while True:
        m = Mat(field, np.array([[rng.randrange(field.order) for _ in range(n)]
                                 for _ in range(n)], dtype=np.int32))
        if m.is_invertible():
            return m


def alg_zero(lam, field):
    from paraclasses.centralizer import AlgElement, _zero_windows
    return AlgElement(lam, field, _zero_windows(lam))


def alg_add(a, b):
    from paraclasses.centralizer import AlgElement, _check_pair
    _check_pair(a, b)
    f = a.field
    w = [[tuple(f.add(x, y) for x, y in zip(wa, wb))
          for wa, wb in zip(ra, rb)] for ra, rb in zip(a.windows, b.windows)]
    return AlgElement(a.lam, f, w, a.transposed)


def enumerate_algebra(lam, field, units_only=False):
    from paraclasses.centralizer import AlgElement, _zero_windows, alg_is_unit
    from paraclasses.partitions import check_partition
    lam = check_partition(lam)
    slots = [(i, j) for i in range(len(lam)) for j in range(len(lam))]
    lens = [min(lam[i], lam[j]) for i, j in slots]
    for flat in itertools.product(field.elements(), repeat=sum(lens)):
        w = _zero_windows(lam)
        pos = 0
        for (i, j), ln in zip(slots, lens):
            w[i][j] = tuple(flat[pos:pos + ln])
            pos += ln
        el = AlgElement(lam, field, w)
        if units_only and not alg_is_unit(el):
            continue
        yield el


def alg_from_json(data, field):
    from paraclasses.centralizer import AlgElement
    if isinstance(data, str):
        data = json.loads(data)
    lam = tuple(data["lambda"])
    windows = [[tuple(field.element_parse(c) for c in cell["coeffs"])
                for cell in row] for row in data["blocks"]]
    el = AlgElement(lam, field, windows, bool(data.get("transposed", False)))
    for i in range(len(lam)):
        for j in range(len(lam)):
            assert data["blocks"][i][j]["offset"] == el.offset(i, j)
    return el


def gjnf_from_json(data, field):
    from paraclasses.gf import poly_parse
    from paraclasses.jordan import canonical_sort
    if isinstance(data, str):
        data = json.loads(data)
    return canonical_sort([(poly_parse(d["poly"], field), tuple(d["partition"]))
                           for d in data])


def cocent_from_json(data, field):
    from paraclasses.cocentralizer import CocentElement, CocentShape
    if isinstance(data, str):
        data = json.loads(data)
    sh = CocentShape(tuple(data["mu"]), tuple(data["nu"]), field)
    rows = []
    for i, row in enumerate(data["entries"]):
        out = []
        for j, e in enumerate(row):
            coeffs = tuple(field.element_parse(t) for t in e.split(",")) if e else ()
            assert len(coeffs) == sh.l[i][j], "entry length does not match the shape"
            out.append(coeffs)
        rows.append(tuple(out))
    return CocentElement(sh, rows)


def class_rep_from_json(data, field):
    from paraclasses.conjugacy import ClassRep
    from paraclasses.gf import extend, poly_parse
    from paraclasses.matrices import mat_parse
    if isinstance(data, str):
        data = json.loads(data)
    ga = gjnf_from_json(data["levi_a"], field)
    gb = gjnf_from_json(data["levi_b"], field)
    blocks = []
    for b in data["blocks"]:
        p = poly_parse(b["poly"], field)
        K = extend(field, p)
        blocks.append((p, cocent_from_json(b["rep"], K)))
    return ClassRep(ga, gb, tuple(blocks), mat_parse(data["matrix"], field))
