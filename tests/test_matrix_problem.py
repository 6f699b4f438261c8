import itertools
import random

import pytest

from paraclasses.gf import ff
from paraclasses.cocentralizer import CocentElement, CocentShape, act_left, act_right
from paraclasses.errors import BudgetExceeded
from paraclasses.matrix_problem import (canonical_form, decode, encode,
                                        enumerate_orbits, orbit_count,
                                        packed_actions, reduce_structured,
                                        type_classify, wild_invariant)
from paraclasses.partitions import partitions

from helpers import aut_order, reference_orbits, reference_packed_gens, reference_tables

F2, F3, F4, F9 = ff(2), ff(3), ff(2, 2), ff(3, 2)


def test_orbit_examples():
    os_ = enumerate_orbits((1,), (1,), F3)
    assert os_.count == 2 and os_.sizes == (1, 2)
    os_ = enumerate_orbits((2,), (2,), F2)
    assert os_.count == 3
    assert [v.entries[0][0] for v in os_.reps] == [(0, 0), (0, 1), (1, 0)]
    os_ = enumerate_orbits((1,), (1, 1), F3)
    assert os_.count == 2


@pytest.mark.parametrize("m,n,field", [(2, 2, F2), (2, 3, F3), (3, 3, F2),
                                       (2, 2, F4)])
def test_all_size_one_parts_classify_by_rank(m, n, field):
    # independent check: row/column equivalence of plain matrices is rank
    assert orbit_count((1,) * m, (1,) * n, field) == min(m, n) + 1


def test_orbit_sizes_sum_to_the_space():
    os_ = enumerate_orbits((2, 1), (2, 1), F3)
    assert sum(os_.sizes) == 3 ** os_.shape.dim


def test_encode_decode_roundtrip():
    sh = CocentShape((2, 1), (2,), F3)
    for v in itertools.islice(sh.elements(), 0, None, 7):
        assert decode(encode(v), sh) == v


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_orbits((1, 1, 1, 1), (1, 1, 1, 1), F3, budget=1000)
    assert ei.value.required == 3 ** 16


def test_orbit_memo_returns_the_same_set_and_still_checks_the_budget():
    os_ = enumerate_orbits((2, 1), (1, 1), F3)
    assert enumerate_orbits((2, 1), (1, 1), F3) is os_
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_orbits((2, 1), (1, 1), F3, budget=3 ** os_.shape.dim - 1)
    assert ei.value.required == 3 ** os_.shape.dim


def test_canonical_form_budget_is_orbit_local():
    sh = CocentShape((1, 1, 1), (1, 1, 1), F3)
    flat = [0] * sh.dim
    flat[0] = 1
    v = CocentElement.from_flat(sh, flat)  # rank-one matrix, large orbit
    with pytest.raises(BudgetExceeded):
        canonical_form(v, budget=10)
    assert canonical_form(sh.zero(), budget=1) == sh.zero()


def test_canonical_form_examples_and_invariance():
    sh = CocentShape((2,), (2,), F2)
    zero = sh.zero()
    assert canonical_form(zero) == zero
    one_plus_x = CocentElement(sh, (((1, 1),),))
    assert canonical_form(one_plus_x).entries[0][0] == (1, 0)
    rng = random.Random(2)
    sh2 = CocentShape((2, 1), (2, 1), F2)
    els = list(sh2.elements())
    for _ in range(30):
        v = els[rng.randrange(len(els))]
        cf = canonical_form(v)
        assert canonical_form(cf) == cf


def test_canonical_form_is_a_complete_orbit_invariant():
    sh = CocentShape((2, 1), (2, 1), F2)
    os_ = enumerate_orbits((2, 1), (2, 1), F2)
    by_rep = {}
    for v in sh.elements():
        by_rep.setdefault(canonical_form(v), 0)
        by_rep[canonical_form(v)] += 1
    assert set(by_rep) == set(os_.reps)
    assert sorted(by_rep.values()) == sorted(os_.sizes)


@pytest.mark.parametrize("mu,nu,field", [((2,), (2,), F3), ((2, 1), (2, 1), F3),
                                         ((3,), (2, 1), F2), ((2, 2), (2, 2), F2)])
def test_finite_type_canonical_reps_have_zero_one_entries(mu, nu, field):
    for v in enumerate_orbits(mu, nu, field).reps:
        assert all(c in (0, 1) for row in v.entries for e in row for c in e)


@pytest.mark.parametrize("mu,nu,field", [((2, 1), (2, 1), F3),
                                         ((4, 2), (4, 2), F2),
                                         ((1,), (1,), F2),  # no nontrivial actions
                                         ((4, 1), (3, 2), F4)])
def test_kernel_matches_reference_sweep(mu, nu, field):
    sh = CocentShape(mu, nu, field)
    ref = reference_orbits(sh)
    os_ = enumerate_orbits(mu, nu, field)
    assert [v.flat() for v in os_.reps] == [min(o) for o in ref]
    assert list(os_.sizes) == [len(o) for o in ref]
    for o in ref:
        least = CocentElement.from_flat(sh, min(o))
        for flat in (min(o), max(o)):
            assert canonical_form(CocentElement.from_flat(sh, flat)) == least


@pytest.mark.parametrize("field", [F2, F3, F4, F9])
def test_packing_from_windows_matches_basis_probe(field):
    add, mul = reference_tables(field)
    for size in range(2, 8):
        for a in range(1, size):
            for mu, nu in itertools.product(partitions(a), partitions(size - a)):
                sh = CocentShape(mu, nu, field)
                got = [[(cols, t.tolist()) for cols, t in g] for g in packed_actions(sh).gens]
                want = [[(cols, t.tolist()) for cols, t in g]
                        for g in reference_packed_gens(sh, add, mul)]
                assert got == want, (mu, nu)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_orbit_sizes_divide_the_group_order(field):
    # orbit-stabiliser: Aut(mu) x Aut(nu) acts, so every orbit size divides its order
    q = field.order
    lams = [lam for size in range(1, 5) for lam in partitions(size)]
    for mu, nu in itertools.product(lams, repeat=2):
        if q ** CocentShape(mu, nu, field).dim > 1 << 16:
            continue
        group = aut_order(mu, q) * aut_order(nu, q)
        assert all(group % s == 0 for s in enumerate_orbits(mu, nu, field).sizes), (mu, nu)


def test_orbit_count_field_independence_small():
    from paraclasses.partitions import partitions
    parts = [lam for k in range(1, 4) for lam in partitions(k)]
    for mu in parts:
        for nu in parts:
            counts = {orbit_count(mu, nu, f) for f in (F2, F3, F4)}
            assert len(counts) == 1, (mu, nu, counts)


def test_wild_shape_orbit_count_depends_on_the_field():
    assert orbit_count((4, 2), (4, 2), F2) != orbit_count((4, 2), (4, 2), F3)


def test_reduce_structured_examples():
    sh = CocentShape((2,), (2,), F2)
    assert reduce_structured(sh.zero()) == sh.zero()
    v = CocentElement(sh, (((1, 1),),))
    assert reduce_structured(v).entries[0][0] == (1, 0)
    with pytest.raises(ValueError):
        reduce_structured(CocentShape((2, 2), (1,), F2).zero())


@pytest.mark.parametrize("mu,nu,field,trials", [((3,), (2, 1), F2, 200),
                                                ((2, 1, 1), (2, 2, 1), F3, 40),
                                                ((4,), (3, 2, 1), F2, 60),
                                                ((3, 1), (3, 1), F2, 60)])
def test_reduce_structured_stays_in_orbit_with_zero_one_output(mu, nu, field,
                                                               trials):
    sh = CocentShape(mu, nu, field)
    rng = random.Random(11)
    for _ in range(trials):
        v = decode(rng.randrange(field.order ** sh.dim), sh)
        log = []
        r = reduce_structured(v, log=log)
        w = v
        for side, g in log:
            w = act_left(g, w) if side == "L" else act_right(w, g)
        assert w == r
        assert all(c in (0, 1) for row in r.entries for e in row for c in e)
        assert canonical_form(r) == canonical_form(v)


def test_type_classification_examples():
    assert type_classify((3, 2), (9, 8, 7)).kind == "finite"
    assert type_classify((4, 2), (4, 2)).kind == "infinite"
    assert type_classify((5, 1), (9,)).kind == "finite"
    assert type_classify((9,), (5, 1)).kind == "finite"
    assert type_classify((2, 2, 1, 1), (7, 7)).kind == "finite"
    assert type_classify((6, 3), (7, 1, 1)).kind == "finite"
    assert type_classify((5, 4), (4, 2)).kind == "infinite"
    assert type_classify((3, 3), (3, 3)).kind == "unknown"
    assert type_classify((4, 2), (3, 3)).kind == "unknown"


def test_wild_invariant_examples():
    sh = CocentShape((4, 2), (4, 2), F3)

    def form(alpha, beta, gamma, delta, extra=0):
        return CocentElement(sh, (((0, 0, alpha, extra), (0, beta)),
                                  ((0, gamma), (delta, extra))))

    assert wild_invariant(form(1, 1, 1, 1)) == 1
    assert wild_invariant(form(2, 1, 1, 1)) == 2
    assert wild_invariant(form(2, 2, 1, 2)) == F3.mul(F3.mul(2, F3.inv(2)),
                                                      F3.mul(F3.inv(1), 2))
    assert wild_invariant(sh.zero()) is None
    assert wild_invariant(form(0, 1, 1, 1)) is None
    assert wild_invariant(CocentShape((2,), (2,), F3).zero()) is None


def test_wild_invariant_preserved_by_500_random_generator_actions():
    from paraclasses.centralizer import reduced_action_generators
    sh = CocentShape((4, 2), (4, 2), F3)
    gens = reduced_action_generators((4, 2), F3)
    rng = random.Random(77)
    v = CocentElement(sh, (((0, 0, 2, 1), (0, 1)), ((0, 2), (1, 2))))
    inv = wild_invariant(v)
    assert inv is not None
    for _ in range(500):
        g = gens[rng.randrange(len(gens))]
        v = act_left(g, v) if rng.randrange(2) else act_right(v, g)
        assert wild_invariant(v) == inv
