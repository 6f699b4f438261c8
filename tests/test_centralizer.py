import itertools
import random

import pytest

from paraclasses.gf import extend, ff
from paraclasses.jordan import assemble, jordan_block
from paraclasses.matrices import Mat
from paraclasses.partitions import partitions
from helpers import alg_add, alg_from_json, alg_zero, enumerate_algebra
from paraclasses.centralizer import (AlgElement, alg_from_entry, alg_identity,
                                     alg_is_unit, alg_mul, alg_to_json,
                                     centralizer_dim, d_twist, embed, generators,
                                     reduced_action_generators)

F2, F3, F4 = ff(2), ff(3), ff(2, 2)


def mulclose(gens, limit=500000):
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                prod = alg_mul(g, h)
                if prod not in els:
                    els.add(prod)
                    new.append(prod)
                    assert len(els) <= limit
        frontier = new
    return els


def test_identity_and_truncation():
    lam = (2, 1)
    ident = alg_identity(lam, F2)
    for i, b in enumerate(enumerate_algebra(lam, F2)):
        assert alg_mul(ident, b) == b
        assert alg_mul(b, ident) == b
        if i > 40:
            break
    x_el = AlgElement((2,), F2, [[(0, 1)]])
    assert alg_mul(x_el, x_el) == alg_zero((2,), F2)


def test_embedding_is_algebra_homomorphism():
    lam = (2, 1)
    p = (1, 1)
    els = list(enumerate_algebra(lam, F2))
    rng = random.Random(3)
    for _ in range(30):
        a, b = els[rng.randrange(len(els))], els[rng.randrange(len(els))]
        ea, eb = embed(a, p, F2), embed(b, p, F2)
        assert embed(alg_mul(a, b), p, F2) == ea @ eb
        assert embed(alg_add(a, b), p, F2) == ea + eb


def test_unit_criterion_examples():
    lam = (2, 2)
    assert alg_is_unit(alg_identity(lam, F3))
    assert not alg_is_unit(alg_zero(lam, F3))
    # singular constant block [[1,1],[1,1]] stays singular whatever the
    # higher coefficients are
    rng = random.Random(7)
    for _ in range(10):
        w = [[[rng.randrange(2) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
        for i in range(2):
            for j in range(2):
                w[i][j][0] = 1
        b = AlgElement(lam, F2, [[tuple(w[0][0]), tuple(w[0][1])],
                                 [tuple(w[1][0]), tuple(w[1][1])]])
        assert not alg_is_unit(b)


def test_unit_criterion_equals_matrix_invertibility_exhaustive():
    lam, p = (2, 1), (1, 1)
    for b in enumerate_algebra(lam, F2):
        assert alg_is_unit(b) == embed(b, p, F2).is_invertible()


def test_d_twist_identity_and_equal_parts():
    lam = (2, 1)
    ident = alg_identity(lam, F2)
    assert d_twist(ident) == AlgElement(lam, F2, ident.windows, transposed=True)
    # equal parts: no x-factors move, the window grid is untouched
    b = alg_from_entry((2, 2), F3, 0, 1, (1, 2))
    db = d_twist(b)
    assert db.windows == b.windows and db.transposed


def test_d_twist_is_multiplicative():
    # the twist carries products to products of the twisted factors:
    # composing right actions this way matches the matrix ground truth
    lam = (2, 1)
    els = list(enumerate_algebra(lam, F2))
    rng = random.Random(12)
    for _ in range(60):
        a, b = els[rng.randrange(len(els))], els[rng.randrange(len(els))]
        assert d_twist(alg_mul(a, b)) == alg_mul(d_twist(a), d_twist(b))


def test_d_twist_matches_row_action_of_the_embedding():
    # ground truth: right multiplication in the matrix ring, read through
    # the per-block reversed row basis, is right multiplication by the twist
    import numpy as np
    lam, p = (3, 1), (2, 1)
    J = assemble(((p, lam),), F3)

    def to_rows(vec):
        out, off = [], 0
        for lj in lam:
            out.append(tuple(int(vec[off + lj - 1 - t]) for t in range(lj)))
            off += lj
        return out

    def times_twist(rows, db):
        f = db.field
        out = []
        for j in range(len(lam)):
            acc = [f.zero] * lam[j]
            for k in range(len(lam)):
                off = db.offset(k, j)
                for t1, c1 in enumerate(rows[k]):
                    for t2, c2 in enumerate(db.windows[k][j]):
                        e = t1 + off + t2
                        if e < lam[j] and c1 and c2:
                            acc[e] = f.add(acc[e], f.mul(c1, c2))
            out.append(tuple(acc))
        return out

    els = list(enumerate_algebra(lam, F3))
    rng = random.Random(5)
    for _ in range(8):
        b = els[rng.randrange(len(els))]
        eb = embed(b, p, F3)
        assert eb @ J == J @ eb
        for _ in range(6):
            w = Mat(F3, np.array([[rng.randrange(3) for _ in range(4)]],
                                 dtype=np.int32))
            assert to_rows((w @ eb).a[0]) == times_twist(to_rows(w.a[0]),
                                                         d_twist(b))


def test_generator_examples():
    gens = generators((1,), F2)
    assert len(gens) == 1 and gens[0].kind == "M"
    assert gens[0].realized == alg_identity((1,), F2)
    assert len(mulclose([g.realized for g in generators((1,), F3)])) == 2
    assert len(mulclose([g.realized for g in generators((2,), F2)])) == 2


@pytest.mark.parametrize("lam,field", [((1, 1), F2), ((2,), F3), ((2, 1), F2)])
def test_generated_group_is_the_full_unit_group(lam, field):
    grp = mulclose([g.realized for g in generators(lam, field)])
    units = sum(1 for e in enumerate_algebra(lam, field) if alg_is_unit(e))
    assert len(grp) == units
    for g in generators(lam, field):
        assert alg_is_unit(g.realized)


@pytest.mark.parametrize("lam,field", [((1, 1), F2), ((1, 1), F3),
                                       ((2, 1), F2), ((1, 1, 1), F2),
                                       ((2, 2), F2), ((2, 1, 1), F2),
                                       ((2, 2, 1), F2)])
def test_reduced_generators_generate_the_same_group(lam, field):
    full = mulclose([g.realized for g in generators(lam, field)])
    assert mulclose(reduced_action_generators(lam, field)) == full


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_dropped_additions_are_commutators_of_adjacent_ones(field):
    # x_ik(c x^t) = [x_ij(c x^t), x_jk(1)] with j the next part from i toward
    # k, so additions between adjacent parts generate all the others
    basis = [field.pow(field.primitive_element(), s) for s in range(field.abs_degree)]
    one, minus_one = (field.one,), (field.neg(field.one),)
    lams = [lam for size in range(1, 6) for lam in partitions(size)]
    cases = 0
    for lam in lams:
        def x(i, j, a):
            return alg_from_entry(lam, field, i, j, a)
        for i, k in itertools.permutations(range(len(lam)), 2):
            if abs(i - k) < 2:
                continue
            j = i + 1 if k > i else i - 1
            for t in range(min(lam[i], lam[k])):
                for c in basis:
                    a, neg_a = (0,) * t + (c,), (0,) * t + (field.neg(c),)
                    comm = alg_mul(alg_mul(x(i, j, a), x(j, k, one)),
                                   alg_mul(x(i, j, neg_a), x(j, k, minus_one)))
                    assert comm == x(i, k, a), (lam, i, k, t, c)
                    cases += 1
    assert cases == {2: 32, 3: 32, 4: 64}[field.order]


def test_embed_examples():
    assert embed(alg_identity((2, 1), F3), (2, 1), F3) == Mat.identity(F3, 3)
    x_el = AlgElement((2,), F2, [[(0, 1)]])
    assert embed(x_el, (0, 1), F2) == jordan_block((0, 1), 2, F2)


def test_embed_commutes_with_jordan_matrix():
    lam, p = (2, 1), (1, 1, 1)
    K = extend(F2, p)
    J = assemble(((p, lam),), F2)
    els = list(itertools.islice(enumerate_algebra(lam, K), 0, None, 47))
    assert len(els) > 20
    for b in els:
        eb = embed(b, p, F2)
        assert eb @ J == J @ eb


def test_embedding_image_is_the_full_commutant():
    # kernel dimension of the commutation system equals the closed formula
    import numpy as np
    for field, p in ((F2, (1, 1)), (F2, (1, 1, 1)), (F3, (1, 0, 1))):
        d = len(p) - 1
        for lam in ((2, 1), (2, 2), (3, 1)):
            J = assemble(((p, lam),), field)
            n = J.rows
            t = field.tables()
            sys_rows = []
            for i in range(n):
                for j in range(n):
                    row = np.zeros(n * n, dtype=np.int32)
                    for l in range(n):
                        row[i * n + l] = t["add"][row[i * n + l], J.a[l, j]]
                    for k in range(n):
                        row[k * n + j] = t["add"][row[k * n + j],
                                                  t["neg"][J.a[i, k]]]
                    sys_rows.append(row)
            sysm = Mat(field, np.array(sys_rows, dtype=np.int32))
            assert n * n - sysm.rank() == centralizer_dim(lam, d)


def test_centralizer_dim_examples():
    assert centralizer_dim((1, 1), 1) == 4
    assert centralizer_dim((5, 3, 3, 2), 1) == 43
    assert centralizer_dim((2,), 2) == 4


def test_alg_json_roundtrip():
    import json
    K = extend(F2, (1, 1, 1))
    el = alg_from_entry((2, 1), K, 0, 1, (3,))
    blob = json.dumps(alg_to_json(el))
    assert alg_from_json(blob, K) == el
    td = d_twist(el)
    assert alg_from_json(alg_to_json(td), K) == td
