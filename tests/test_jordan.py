import random

import pytest

from helpers import gjnf_from_json, gl_conjugacy_classes_bruteforce, random_invertible
from paraclasses.gf import ff, ff_order
from paraclasses.jordan import (assemble, canonical_sort, companion, conjugator,
                                enumerate_gjnf, factor_offsets, gjnf, gjnf_to_json,
                                jordan_block)
from paraclasses.matrices import Mat, direct_sum, eval_poly_at, mat_parse

F2, F3 = ff(2), ff(3)


def test_jordan_block_examples():
    assert jordan_block((1, 1), 1, F2) == Mat.from_rows(F2, [[1]])
    assert jordan_block((1, 1), 2, F2) == Mat.from_rows(F2, [[1, 0], [1, 1]])
    jb = jordan_block((1, 0, 1), 2, F3)
    c = companion((1, 0, 1), F3)
    assert c == Mat.from_rows(F3, [[0, 2], [1, 0]])
    assert (jb.a[:2, :2] == c.a).all() and (jb.a[2:, 2:] == c.a).all()
    assert jb[2, 0] == 1 and jb[3, 1] == 1 and jb[2, 1] == 0 and jb[0, 2] == 0


def test_jordan_block_rejects_reducible():
    with pytest.raises(ValueError):
        jordan_block((0, 0, 1), 1, F2)  # t^2
    with pytest.raises(ValueError):
        jordan_block((1, 1), 0, F2)


def test_gjnf_examples():
    assert gjnf(Mat.identity(F2, 3)) == (((1, 1), (1, 1, 1)),)
    comp = Mat.from_rows(F2, [[0, 1], [1, 1]])
    assert gjnf(comp) == (((1, 1, 1), (1,)),)
    assert gjnf(mat_parse("0 1;1 0", F3)) == (((1, 1), (1,)), ((2, 1), (1,)))


def test_assemble_examples():
    assert assemble((((1, 1), (1, 1, 1)),), F2) == Mat.identity(F2, 3)
    # eigenvalue-2 block over F_3 comes from the factor t - 2 = t + 1
    assert assemble((((1, 1), (2,)),), F3) == Mat.from_rows(F3, [[2, 0], [1, 2]])
    assert assemble((), F2).rows == 0


def test_enumeration_examples():
    assert len(list(enumerate_gjnf(1, F3))) == 2
    forms = set(enumerate_gjnf(2, F2))
    assert forms == {(((1, 1), (1, 1)),), (((1, 1), (2,)),),
                     (((1, 1, 1), (1,)),)}
    assert list(enumerate_gjnf(0, F2)) == [()]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_enumerated_forms_are_canonical(q):
    field = ff_order(q)
    for n in range(6):
        for form in enumerate_gjnf(n, field):
            assert form == canonical_sort(form)


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_enumeration_count_matches_bruteforce_conjugacy(n, p):
    count, _ = gl_conjugacy_classes_bruteforce(n, p)
    assert len(list(enumerate_gjnf(n, ff(p)))) == count


@pytest.mark.parametrize("field", [F2, F3])
def test_round_trip_with_conjugator(field):
    rng = random.Random(108 + field.order)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a = random_invertible(field, n, rng)
            g = gjnf(a)
            b = assemble(g, field)
            x = conjugator(a, b)
            assert x is not None and x @ a @ x.inverse() == b
            assert gjnf(b) == g


def test_conjugator_on_a_degree_two_eigenvalue():
    # p = t^2+t+1 over F_2: one Jordan block of size 2 is not two blocks
    # of size 1, though both have characteristic polynomial p^2
    p = (1, 1, 1)
    j2 = jordan_block(p, 2, F2)
    cc = direct_sum(companion(p, F2), companion(p, F2))
    assert conjugator(j2, cc) is None
    g = random_invertible(F2, 4, random.Random(2))
    b = g @ j2 @ g.inverse()
    x = conjugator(j2, b)
    assert x is not None and x.is_invertible()
    assert x @ j2 @ x.inverse() == b


def test_rank_spectrum_recovered_on_assembled_matrix():
    rng = random.Random(4)
    for field in (F2, F3):
        for n in (2, 3, 4):
            a = random_invertible(field, n, rng)
            g = gjnf(a)
            b = assemble(g, field)
            for p, lam in g:
                d = len(p) - 1
                pa = eval_poly_at(p, b)
                prev = n
                cur = pa
                for i in range(1, max(lam) + 1):
                    r = cur.rank()
                    assert (prev - r) // d == sum(1 for x in lam if x >= i)
                    prev = r
                    cur = cur @ pa


def test_block_structure_of_assembled_matrix():
    g = (((1, 1), (2, 1)), ((1, 1, 1), (1,)))
    m = assemble(g, F2)
    assert m.rows == 5
    offs = factor_offsets(g, F2)
    assert offs == {(1, 1): 0, (1, 1, 1): 3}
    assert m[1, 0] == 1 and m[1, 1] == 1  # subdiagonal inside the size-2 block
    assert m[2, 1] == 0                    # blocks do not bleed together


def test_json_roundtrip():
    g = gjnf(mat_parse("0 1;1 0", F3))
    assert gjnf_from_json(gjnf_to_json(g, F3), F3) == g


def test_json_is_a_fresh_list_on_every_call():
    g = gjnf(mat_parse("1 0 0;1 1 0;0 0 2", F3))
    first = gjnf_to_json(g, F3)
    want = [dict(d, partition=list(d["partition"])) for d in first]
    first[0]["poly"] = "x"
    first[0]["partition"].append(9)
    first.append({})
    assert gjnf_to_json(g, F3) == want
