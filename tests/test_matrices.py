import operator
import random

import numpy as np
import pytest

from helpers import random_invertible
from paraclasses.gf import ff, padd, pmul, pnormalize, psub
from paraclasses.jordan import SimilarityUndetermined, conjugator
from paraclasses.matrices import Mat, char_poly, eval_poly_at, mat_parse, mat_str

F2, F3 = ff(2), ff(3)


def test_rank_inverse_examples():
    j2 = Mat.from_rows(F2, [[0, 0], [1, 0]])
    assert j2.rank() == 1
    assert Mat.identity(F3, 3).inverse() == Mat.identity(F3, 3)


def test_singular_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        Mat.zeros(F2, 2, 2).inverse()
    with pytest.raises(ValueError):
        Mat.zeros(F2, 2, 3).inverse()


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Mat.zeros(F2, 2, 2) @ Mat.zeros(F2, 3, 3)
    with pytest.raises(ValueError):
        Mat.zeros(F2, 2, 2) + Mat.zeros(F2, 2, 3)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
def test_arithmetic_across_two_fields_raises(op):
    with pytest.raises(ValueError, match="^matrices over different fields$"):
        op(Mat.identity(F2, 2), Mat.identity(F3, 2))


def test_char_poly_examples():
    assert char_poly(Mat.from_rows(F2, [[0, 0], [1, 0]])) == (0, 0, 1)
    assert char_poly(Mat.from_rows(F3, [[1, 0], [0, 2]])) == (2, 0, 1)
    comp = Mat.from_rows(F2, [[0, 1], [1, 1]])
    assert char_poly(comp) == (1, 1, 1)
    with pytest.raises(ValueError):
        char_poly(Mat.zeros(F2, 2, 3))


def _det_poly(entries, field):
    # oracle: cofactor expansion with exact polynomial entries
    n = len(entries)
    if n == 1:
        return entries[0][0]
    out = ()
    for i in range(n):
        minor = [row[1:] for k, row in enumerate(entries) if k != i]
        term = pmul(entries[i][0], _det_poly(minor, field), field)
        out = padd(out, term, field) if i % 2 == 0 else psub(out, term, field)
    return out


@pytest.mark.parametrize("field", [F2, F3])
def test_char_poly_against_cofactor_expansion(field):
    rng = random.Random(field.order)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = Mat(field, np.array([[rng.randrange(field.order)
                                      for _ in range(n)] for _ in range(n)],
                                    dtype=np.int32))
            t_minus_a = [[pnormalize([field.neg(a[i, j])]
                                     + ([field.one] if i == j else []))
                          for j in range(n)] for i in range(n)]
            assert char_poly(a) == _det_poly(t_minus_a, field)


@pytest.mark.parametrize("field", [F2, F3])
def test_char_poly_similarity_invariance_and_rank_nullity(field):
    rng = random.Random(9 + field.order)
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = Mat(field, np.array([[rng.randrange(field.order)
                                  for _ in range(n)] for _ in range(n)],
                                dtype=np.int32))
        p = random_invertible(field, n, rng)
        assert char_poly(p @ a @ p.inverse()) == char_poly(a)
        assert a.rank() + len(a.kernel_basis()) == n


def test_conjugator_examples():
    a = Mat.from_rows(F2, [[0, 0], [1, 0]])
    b = Mat.from_rows(F2, [[0, 1], [0, 0]])
    x = conjugator(a, b)
    assert x is not None and x.is_invertible()
    assert x @ a @ x.inverse() == b
    assert conjugator(Mat.identity(F2, 2), Mat.from_rows(F2, [[1, 0], [1, 1]])) is None
    assert conjugator(Mat.identity(F2, 2), Mat.identity(F2, 2)) is not None


@pytest.mark.parametrize("field", [F2, F3])
def test_conjugator_certificates(field):
    rng = random.Random(31 + field.order)
    for _ in range(15):
        n = rng.randrange(1, 5)
        a = random_invertible(field, n, rng)
        p = random_invertible(field, n, rng)
        b = p @ a @ p.inverse()
        x = conjugator(a, b)
        assert x is not None and x.is_invertible()
        assert x @ a @ x.inverse() == b


def test_conjugator_undetermined_is_distinct_from_not_similar():
    # a zero retry bound draws no samples
    a = Mat.identity(F3, 3)
    with pytest.raises(SimilarityUndetermined):
        conjugator(a, a, retries=0)


def test_eval_poly_at():
    a = Mat.from_rows(F3, [[1, 0], [0, 2]])
    cp = char_poly(a)
    assert eval_poly_at(cp, a) == Mat.zeros(F3, 2, 2)  # Cayley-Hamilton


def test_matrix_text_roundtrip():
    m = mat_parse("0 1; 1 0", F3)
    assert mat_str(m) == "0 1;1 0"
    F4 = ff(2, 2)
    m = mat_parse("1+1*w 1*w;0 1", F4)
    assert mat_parse(mat_str(m), F4) == m
    with pytest.raises(ValueError):
        mat_parse("1 0; 1", F2)
