import itertools

import numpy as np
import pytest

from helpers import (cocent_elements, cocent_from_json, cocent_zero, commutator_space,
                     in_span)
from paraclasses.gf import extend, extension, ff, irreducibles, pdeg
from paraclasses.jordan import assemble
from paraclasses.matrices import Mat
from paraclasses.centralizer import (alg_from_entry, alg_identity, alg_mul, d_twist,
                                     embed, reduced_action_generators)
from paraclasses.cocentralizer import (CocentElement, CocentShape, act_left,
                                       act_right, cocent_to_json, lift,
                                       reduce_levi_pair)

F2, F3 = ff(2), ff(3)


def test_shape_examples():
    sh = CocentShape((4, 2), (4, 2), F2)
    assert sh.l == ((4, 2), (2, 2)) and sh.dim == 10
    sh = CocentShape((1,), (5,), F2)
    assert sh.l == ((1,),) and sh.dim == 1
    sh = CocentShape((3, 1), (2, 2, 1), F2)
    assert sh.l == ((2, 2, 1), (1, 1, 1)) and sh.dim == 8
    with pytest.raises(ValueError):
        CocentShape((2, 3), (1,), F2)  # not weakly decreasing


def test_action_examples():
    sh = CocentShape((1,), (1,), F3)
    v = CocentElement(sh, (((2,),),))
    g = alg_from_entry((1,), F3, 0, 0, (2,))
    assert act_left(g, v).entries[0][0] == (1,)   # 2*2 = 4 = 1 mod 3
    assert act_right(v, g).entries[0][0] == (1,)
    sh2 = CocentShape((2,), (2,), F2)
    v = CocentElement(sh2, (((1, 0),),))
    g = alg_from_entry((2,), F2, 0, 0, (1, 1))
    assert act_left(g, v).entries[0][0] == (1, 1)
    ident = alg_identity((2, 1), F2)
    sh3 = CocentShape((2, 1), (2, 1), F2)
    for v in itertools.islice(cocent_elements(sh3), 0, 60, 11):
        assert act_left(ident, v) == v
        assert act_right(v, ident) == v
    # both sides take straight-shape elements only; act_right twists itself
    for act in (lambda g: act_left(g, v), lambda g: act_right(v, g)):
        with pytest.raises(ValueError):
            act(d_twist(ident))


def test_action_compatibility_and_commutation():
    sh = CocentShape((2, 1), (2, 1), F2)
    gens = reduced_action_generators((2, 1), F2)
    sample = list(itertools.islice(cocent_elements(sh), 0, None, 13))[:8]
    for a in gens:
        for b in gens:
            ab = alg_mul(a, b)
            for v in sample[:4]:
                assert act_left(a, act_left(b, v)) == act_left(ab, v)
                assert act_right(act_right(v, a), b) == act_right(v, ab)
                assert act_left(a, act_right(v, b)) == \
                    act_right(act_left(a, v), b)


def test_reduce_levi_pair_examples():
    assert reduce_levi_pair((((1, 1), (1,)),), (((2, 1), (1,)),), F3) == []
    probs = reduce_levi_pair((((1, 1), (1,)),), (((1, 1), (1, 1)),), F2)
    assert len(probs) == 1
    assert probs[0].mu == (1,) and probs[0].nu == (1, 1)
    assert probs[0].field is F2
    probs = reduce_levi_pair((((1, 1, 1), (2,)),), (((1, 1, 1), (2,)),), F2)
    assert len(probs) == 1 and probs[0].field.order == 4
    assert probs[0].mu == probs[0].nu == (2,)


def test_lift_trivial_examples():
    sh = CocentShape((4, 2), (4, 2), F3)
    assert lift(cocent_zero(sh), (2, 1), F3) == Mat.zeros(F3, 6, 6)
    sh1 = CocentShape((1,), (1,), F3)
    assert lift(CocentElement(sh1, (((2,),),)), (2, 1), F3) \
        == Mat.from_rows(F3, [[2]])


def test_lift_places_coefficients_on_top_row_cells():
    # entry (i,j) coefficient of x^a lands at local cell (1, nu_j - a)
    sh = CocentShape((2,), (2,), F2)
    v = CocentElement(sh, (((0, 1),),))  # the element x
    assert lift(v, (1, 1), F2) == Mat.from_rows(F2, [[1, 0], [0, 0]])
    v = CocentElement(sh, (((1, 0),),))  # the element 1
    assert lift(v, (1, 1), F2) == Mat.from_rows(F2, [[0, 1], [0, 0]])


def test_lift_over_the_shared_degree_field():
    # base-field coefficients lift to c * I_d over any degree-d field, so
    # over gf.extension they lift as over the eigenvalue's own extend(F, p)
    K = extension(F3, 2)
    p = next(f for f in irreducibles(2, F3) if f != K.modulus)
    Kp = extend(F3, p)
    for flat in [(1, 0, 2), (0, 2, 1)]:
        v, vp = (CocentElement.from_flat(CocentShape((2,), (2, 1), L), flat)
                 for L in (K, Kp))
        assert lift(v, p, F3) == lift(vp, p, F3)
    v = CocentElement.from_flat(CocentShape((2,), (2, 1), K), (1, 3, 0))  # 3 = t
    with pytest.raises(ArithmeticError):
        lift(v, p, F3)


@pytest.mark.parametrize("base,p", [(F2, (1, 1)), (F2, (1, 1, 1)),
                                    (F3, (2, 1)), (F3, (1, 0, 1))])
def test_lift_image_is_a_complement_of_the_commutator_space(base, p):
    d = pdeg(p)
    K = extend(base, p) if d > 1 else base
    kbasis = [K.one] if d == 1 else [K.from_coeffs([1, 0]), K.from_coeffs([0, 1])]
    for mu, nu in [((1,), (1, 1)), ((2,), (2,)), ((2, 1), (2,)),
                   ((1, 1), (2,)), ((3, 1), (2, 2))]:
        A = assemble(((p, mu),), base)
        B = assemble(((p, nu),), base)
        S = commutator_space(A, B)
        sh = CocentShape(mu, nu, K)
        cols = []
        for t in range(sh.dim):
            for b in kbasis:
                flat = [0] * sh.dim
                flat[t] = b
                cols.append(lift(CocentElement.from_flat(sh, flat), p,
                                 base).a.reshape(-1))
        L = Mat(base, np.array(cols, dtype=np.int32).T)
        assert L.rank() == sh.dim * d
        assert Mat(base, np.hstack([S.a, L.a])).rank() == A.rows * B.rows
        assert S.rank() + sh.dim * d == A.rows * B.rows


@pytest.mark.parametrize("mu,nu", [((1,), (1, 1)), ((2,), (2,))])
def test_lift_equivariance_modulo_commutator_space(mu, nu):
    p = (1, 1)
    A = assemble(((p, mu),), F2)
    B = assemble(((p, nu),), F2)
    S = commutator_space(A, B)
    sh = CocentShape(mu, nu, F2)
    for v in cocent_elements(sh):
        lv = lift(v, p, F2)
        for g in reduced_action_generators(mu, F2):
            G = embed(g, p, F2)
            assert in_span(S, G @ lv - lift(act_left(g, v), p, F2))
        for h in reduced_action_generators(nu, F2):
            H = embed(h, p, F2)
            assert in_span(S, lv @ H - lift(act_right(v, h), p, F2))


def test_dimension_identity_for_all_small_pairs():
    # free coefficient count = m*n - rank of w -> wB - Aw at a shared
    # eigenvalue, for every pair of partitions of at most 4
    from paraclasses.partitions import partitions
    p = (1, 1)
    parts = [lam for k in range(1, 5) for lam in partitions(k)]
    for mu in parts:
        for nu in parts:
            A = assemble(((p, mu),), F2)
            B = assemble(((p, nu),), F2)
            S = commutator_space(A, B)
            expected = sum(min(a, b) for a in mu for b in nu)
            assert sum(mu) * sum(nu) - S.rank() == expected


def test_vanishing_for_distinct_eigenvalues():
    A = assemble((((1, 1), (2,)),), F2)
    B = assemble((((1, 1, 1), (1,)),), F2)
    S = commutator_space(A, B)
    assert S.rank() == A.rows * B.rows  # w -> wB - Aw is onto


def test_json_roundtrip():
    K = extend(F2, (1, 1, 1))
    sh = CocentShape((2, 1), (2,), K)
    v = CocentElement(sh, (((2, 3),), ((1,),)))
    data = cocent_to_json(v)
    assert data["mu"] == [2, 1] and data["nu"] == [2]
    assert cocent_from_json(data, K) == v
