"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact; runtimes are bounded by the per-criterion budgets in the project
README.
"""

import random
from contextlib import contextmanager

import numpy as np

from helpers import enumerate_algebra, random_invertible, swept_orbits
from paraclasses.gf import extend, ff, irreducibles
from paraclasses.jordan import assemble, conjugator, gjnf
from paraclasses.matrices import Mat
from paraclasses.centralizer import (alg_is_unit, alg_mul, centralizer_dim,
                                     embed, generators, reduced_action_generators)
from paraclasses.cocentralizer import CocentElement, CocentShape, act_left, act_right, lift
from paraclasses.matrix_problem import enumerate_orbits, wild_invariant
from paraclasses.conjugacy import (agl_class_count, agl_class_reps, count_poly,
                                   gl_class_count, parabolic_class_count,
                                   parabolic_class_reps)
from paraclasses.oracle import oracle_agl, oracle_classes
from paraclasses.partitions import partitions

F2, F3, F4 = ff(2), ff(3), ff(2, 2)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_acceptance_01_gjnf_round_trip():
    with criterion(1, "generalized Jordan round trip"):
        rng = random.Random(20240)
        done = 0
        for field in (F2, F3):
            for n in (1, 2, 3, 4, 5):
                for _ in range(20):
                    a = random_invertible(field, n, rng)
                    b = assemble(gjnf(a), field)
                    x = conjugator(a, b)
                    assert x is not None and x.is_invertible()
                    assert x @ a @ x.inverse() == b
                    done += 1
        assert done == 200


def _mulclose(gens):
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
        frontier = new
    return els


def test_acceptance_02_centralizer_generation():
    lams = [(1, 1), (2,), (2, 1), (3,), (2, 2)]
    with criterion(2, "generators give the full unit group"):
        for field in (F2, F3):
            for lam in lams:
                grp = _mulclose([g.realized for g in generators(lam, field)])
                unit_count = sum(1 for e in enumerate_algebra(lam, field)
                                 if alg_is_unit(e))
                assert len(grp) == unit_count, (lam, field)
            for d in (1, 2):
                p = (field.neg(field.one), field.one) if d == 1 \
                    else irreducibles(2, field)[0]
                K = extend(field, p) if d == 2 else field
                for lam in lams:
                    j = assemble(((p, lam),), field)
                    for g in generators(lam, K):
                        assert alg_is_unit(g.realized)
                        e = embed(g.realized, p, field)
                        assert e @ j == j @ e, (lam, field, p, g)


def test_acceptance_03_centralizer_dimension():
    with criterion(3, "commutant dimension for (5,3,3,2)"):
        lam = (5, 3, 3, 2)
        assert centralizer_dim(lam, 1) == 43
        j = assemble((((1, 1), lam),), F2)
        n = j.rows
        t = F2.tables()
        rows = []
        for i in range(n):
            for jj in range(n):
                row = np.zeros(n * n, dtype=np.int32)
                for l in range(n):
                    row[i * n + l] = t["add"][row[i * n + l], j.a[l, jj]]
                for k in range(n):
                    row[k * n + jj] = t["add"][row[k * n + jj],
                                               t["neg"][j.a[i, k]]]
                rows.append(row)
        sysm = Mat(F2, np.array(rows, dtype=np.int32))
        assert n * n - sysm.rank() == 43


def test_acceptance_04_finite_type_field_independence():
    with criterion(4, "orbit counts independent of the field"):
        parts = [lam for k in range(1, 5) for lam in partitions(k)]
        pairs = sorted(((mu, nu) for mu in parts for nu in parts),
                       key=lambda t: sum(min(a, b) for a in t[0] for b in t[1]))
        for mu, nu in pairs:
            c2 = swept_orbits(mu, nu, F2).count
            c3 = swept_orbits(mu, nu, F3).count
            assert c2 == c3, (mu, nu, c2, c3)
        for mu, nu in (((5,), (5,)), ((4, 1), (3, 2))):
            c2 = enumerate_orbits(mu, nu, F2).count
            c3 = enumerate_orbits(mu, nu, F3).count
            c4 = enumerate_orbits(mu, nu, F4).count
            assert c2 == c3 == c4, (mu, nu)


def test_acceptance_05_infinite_type():
    with criterion(5, "wild shape depends on the field, invariant stable"):
        assert enumerate_orbits((4, 2), (4, 2), F2).count \
            != enumerate_orbits((4, 2), (4, 2), F3).count
        sh = CocentShape((4, 2), (4, 2), F3)
        gens = reduced_action_generators((4, 2), F3)
        rng = random.Random(505)
        v = CocentElement(sh, (((0, 0, 1, 0), (0, 1)), ((0, 1), (1, 0))))
        base_inv = wild_invariant(v)
        assert base_inv is not None
        for _ in range(500):
            g = gens[rng.randrange(len(gens))]
            v = act_left(g, v) if rng.randrange(2) else act_right(v, g)
            assert wild_invariant(v) == base_inv
        values = set()
        for rep in enumerate_orbits((4, 2), (4, 2), F3).reps:
            w = wild_invariant(rep)
            if w is not None:
                values.add(w)
        assert len(values) >= 2  # at least q - 1 over F_3


def test_acceptance_06_pipeline_matches_oracle_counts():
    with criterion(6, "class counts equal the brute-force oracle"):
        cases = [(1, 1, F2), (1, 1, F3), (1, 2, F2), (1, 3, F2), (2, 2, F2),
                 (2, 2, F3)]
        for m, n, field in cases:
            assert parabolic_class_count(m, n, field) \
                == oracle_classes(m, n, field).count, (m, n, field)
        assert parabolic_class_count(1, 2, F2) == 5
        assert parabolic_class_count(1, 1, F3) == 6


def test_acceptance_07_representative_completeness():
    with criterion(7, "representatives biject with oracle classes"):
        reps = list(parabolic_class_reps(2, 2, F2))
        orc = oracle_classes(2, 2, F2)
        labels = [orc.class_of(r.matrix) for r in reps]
        assert len(labels) == orc.count
        assert len(set(labels)) == orc.count


def test_acceptance_08_worked_twelve_by_twelve_example():
    # Levi blocks J_(4,2)(alpha) on both sides over F_5 with alpha = 2,
    # beta = 3; the displayed corner carries beta on the third and fourth
    # rows and three single 1 entries
    with criterion(8, "worked 12x12 example, entry for entry"):
        F5 = ff(5)
        alpha, beta = 2, 3
        p = ((-alpha) % 5, 1)
        j = assemble(((p, (4, 2)),), F5)
        sh = CocentShape((4, 2), (4, 2), F5)
        v = CocentElement(sh, (((0, 0, beta, 0), (0, 1)), ((0, 1), (1, 0))))
        corner = lift(v, p, F5)
        expected = Mat.zeros(F5, 6, 6)
        expected.a[2, 0] = beta
        expected.a[3, 1] = beta
        expected.a[3, 4] = 1
        expected.a[4, 4] = 1
        expected.a[5, 5] = 1
        expected.a[5, 0] = 1
        full = Mat.zeros(F5, 12, 12)
        full.a[:6, :6] = j.a
        full.a[6:, 6:] = j.a
        full.a[:6, 6:] = corner.a
        display = Mat.zeros(F5, 12, 12)
        display.a[:6, :6] = j.a
        display.a[6:, 6:] = j.a
        display.a[:6, 6:] = expected.a
        assert corner == expected, (corner, expected)
        assert full == display


def test_acceptance_09_count_polynomials():
    with criterion(9, "class-count polynomials in the field size"):
        cp11 = count_poly(1, 1)
        assert tuple(cp11) == (0, -1, 1)
        cp12 = count_poly(1, 2)
        assert all(isinstance(c, int) for c in cp12)
        assert cp12(2) == 5
        cp22 = count_poly(2, 2)
        assert all(isinstance(c, int) for c in cp22)
        # held-out validation is built into the fit; anchor two more points
        assert cp22(2) == parabolic_class_count(2, 2, F2)
        assert cp22(3) == parabolic_class_count(2, 2, F3)


def test_acceptance_10_affine_groups():
    with criterion(10, "affine class counts and representatives"):
        for n in (1, 2, 3, 4):
            for field in (F2, F3):
                assert agl_class_count(n, field) == \
                    sum(gl_class_count(n - d, field) for d in range(n + 1))
        for n, field in ((1, F2), (1, F3), (2, F2)):
            orc = oracle_agl(n, field)
            assert agl_class_count(n, field) == orc.count
        assert agl_class_count(2, F2) == 5
        reps = list(agl_class_reps(2, F2))
        orc = oracle_agl(2, F2)
        labels = [orc.class_of(r) for r in reps]
        assert len(labels) == len(set(labels)) == orc.count
