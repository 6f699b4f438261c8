import itertools
import json
from pathlib import Path

import pytest

import paraclasses.conjugacy
import paraclasses.jordan
import paraclasses.partitions
from paraclasses.cocentralizer import lift
from paraclasses.errors import BudgetExceeded
from paraclasses.gf import extension, ff, ff_order, pdeg
from paraclasses.jordan import assemble, factor_offsets
from paraclasses.matrices import Mat, mat_parse, mat_str
from paraclasses.conjugacy import (CountPolynomial, agl_class_count, agl_class_reps,
                                   class_rep_line, class_rep_to_json, count_poly,
                                   gl_class_count, levi_reps,
                                   orbit_count_cached, parabolic_class_count,
                                   parabolic_class_reps)
from paraclasses.oracle import oracle_agl, oracle_classes

from helpers import (block, class_rep_from_json, prime_powers,
                     reference_class_count, reference_class_rep_json,
                     reference_count_poly, swept_orbits)

F2, F3, F4 = ff(2), ff(3), ff(2, 2)


def test_levi_rep_counts():
    assert len(list(levi_reps(1, 1, F2))) == 1
    assert len(list(levi_reps(1, 2, F2))) == 3
    assert len(list(levi_reps(1, 1, F3))) == 4


def test_parabolic_count_examples():
    assert parabolic_class_count(1, 1, F2) == 2
    assert parabolic_class_count(1, 1, F3) == 6
    assert parabolic_class_count(1, 2, F2) == 5


@pytest.mark.parametrize("m,n,field", [(1, 1, F2), (1, 1, F3), (1, 2, F2),
                                       (1, 2, F3), (2, 2, F2)])
def test_parabolic_count_equals_oracle(m, n, field):
    assert parabolic_class_count(m, n, field) == oracle_classes(m, n, field).count


@pytest.mark.parametrize("m,n,q", [(1, 2, 4), (2, 2, 3), (2, 3, 4), (2, 3, 5),
                                   (3, 3, 3), (4, 4, 2), (2, 2, 9)])
def test_type_count_matches_levi_loop(m, n, q):
    assert parabolic_class_count(m, n, ff_order(q)) == \
        reference_class_count(m, n, ff_order(q))


def test_class_reps_for_the_smallest_group():
    reps = list(parabolic_class_reps(1, 1, F2))
    assert sorted(mat_str(r.matrix) for r in reps) == ["1 0;0 1", "1 1;0 1"]


def test_class_rep_structure_invariants():
    for rep in parabolic_class_reps(2, 2, F2):
        m = rep.matrix
        assert m.is_invertible()
        a = assemble(rep.levi_a, F2)
        b = assemble(rep.levi_b, F2)
        assert (m.a[:2, :2] == a.a).all()
        assert (m.a[2:, 2:] == b.a).all()
        assert (m.a[2:, :2] == 0).all()


def test_class_reps_past_the_table_limit():
    # a prime field past 1024 computes mod p, so its first representatives
    # are assembled without op tables
    field = ff(1031)
    reps = list(itertools.islice(parabolic_class_reps(1, 1, field), 40))
    assert len(reps) == 40
    for rep in reps:
        assert rep.matrix.is_invertible() and rep.matrix[1, 0] == 0


@pytest.mark.parametrize("m,n,field", [(2, 2, F3), (2, 3, F2), (2, 2, F4)])
def test_class_reps_match_per_class_assembly(m, n, field):
    # every representative assembled from scratch: Levi blocks on the
    # diagonal, each lifted orbit representative at its factor offsets;
    # over F_4 the degree-2 eigenvalues share one field and its orbit reps,
    # so one memoized lift serves several eigenvalues
    for rep in parabolic_class_reps(m, n, field):
        a = assemble(rep.levi_a, field)
        b = assemble(rep.levi_b, field)
        v = Mat.zeros(field, m, n)
        ra = factor_offsets(rep.levi_a, field)
        cb = factor_offsets(rep.levi_b, field)
        for p, orbit_rep in rep.blocks:
            lf = lift(orbit_rep, p, field)
            v.a[ra[p]:ra[p] + lf.rows, cb[p]:cb[p] + lf.cols] = lf.a
        assert rep.matrix == block([[a, v], [Mat.zeros(field, n, m), b]])


@pytest.mark.parametrize("m,n,field", [(2, 2, ff(5)), (3, 3, F3)])
def test_class_reps_solve_each_degree_over_one_field(m, n, field):
    # every degree-d eigenvalue's orbit representative, solved over F_2 for
    # a finite-type shape, is read into the one F_{q^d} shared by its
    # degree, not into its own extend(F, p)
    blocks = [b for rep in parabolic_class_reps(m, n, field) for b in rep.blocks]
    assert {pdeg(p) for p, _ in blocks} == set(range(1, min(m, n) + 1))
    for p, v in blocks:
        assert v.shape.field is extension(field, pdeg(p)), p


@pytest.mark.parametrize("m,n,field", [(1, 2, F2), (2, 2, F2), (2, 3, F2)])
def test_class_reps_biject_with_oracle_classes(m, n, field):
    reps = list(parabolic_class_reps(m, n, field))
    orc = oracle_classes(m, n, field)
    labels = [orc.class_of(r.matrix) for r in reps]
    assert len(labels) == orc.count
    assert len(set(labels)) == orc.count


def test_orbit_count_memo_is_field_independent():
    shapes = [((1,), (1,)), ((1,), (2,)), ((2,), (2,)), ((1, 1), (2,)),
              ((2, 1), (2, 1)), ((3,), (2, 1)), ((2, 2), (2, 2))]
    from paraclasses.matrix_problem import enumerate_orbits
    for mu, nu in shapes:
        memo = orbit_count_cached(mu, nu, F2, 1)
        for field in (F2, F3, F4):
            assert enumerate_orbits(mu, nu, field).count == memo


def test_one_power_side_closed_form_matches_the_sweep():
    # every (1^a) x nu and nu x (1^a), a <= 4, |nu| <= 5, that fits in 2^20
    # states, against the orbit count of a sweep over the field itself
    from paraclasses.partitions import partitions
    compared = 0
    for a in range(1, 5):
        for nu in (nu for k in range(1, 6) for nu in partitions(k)):
            for field in (F2, F3):
                if field.order ** (a * len(nu)) > 1 << 20:
                    continue
                for mu_, nu_ in (((1,) * a, nu), (nu, (1,) * a)):
                    assert orbit_count_cached(mu_, nu_, field, 1) == \
                        swept_orbits(mu_, nu_, field).count, (mu_, nu_, field)
                    compared += 1
    assert compared == 280


def test_one_power_side_reps_match_the_sweep(monkeypatch):
    # every (1^a) x nu and nu x (1^a), a <= 6, |nu| <= 6, that fits in 2^14
    # states over seven fields: the built reps and sizes are the sweep's, in
    # its order, the count, the number of cells, is the number of reps, and
    # the orbit layer hands none of these shapes to the kernel
    import paraclasses.matrix_problem as mp
    from paraclasses.partitions import partitions
    sweep, swept = mp.orbit_partition, []

    def sweeping(pa):
        swept.append(pa.space())
        return sweep(pa)

    monkeypatch.setattr(mp, "_orbit_cache", {})
    monkeypatch.setattr(mp, "orbit_partition", sweeping)
    compared = 0
    for a in range(1, 7):
        for nu in (nu for k in range(1, 7) for nu in partitions(k)):
            for field in (F2, F3, F4, ff(5), ff(7), ff(2, 3), ff(3, 2)):
                if field.order ** (a * len(nu)) > 1 << 14:
                    continue
                for mu_, nu_ in (((1,) * a, nu), (nu, (1,) * a)):
                    built, ref = mp.enumerate_orbits(mu_, nu_, field), swept_orbits(mu_, nu_, field)
                    assert (built.reps, built.sizes) == (ref.reps, ref.sizes), \
                        (mu_, nu_, field)
                    assert orbit_count_cached(mu_, nu_, field, 1) == built.count
                    compared += 1
    assert compared == 1120 and swept == []


def test_one_power_side_sizes_past_the_sweep_grid():
    # (1^4)x(3,3,2,1,1) over F_8 has 2^60 states, too many to sweep: the
    # cells with r_1 + r_2 + r_3 <= 4 (r_i <= 2, 1, 2) are its 17 orbits,
    # and their sizes add up to 2^60 (also asserted as they are built).
    # A rank-1 matrix is a line, times the 8^4 - 1 nonzero columns that
    # span it: the lines in the 2-dimensional span of the parts of size 1,
    # in that of size 2 off it, and in that of size 3 off both
    from paraclasses.matrix_problem import enumerate_orbits
    orbits = enumerate_orbits((1,) * 4, (3, 3, 2, 1, 1), ff(2, 3), budget=1 << 60)
    assert orbits.count == 17 and sum(orbits.sizes) == 1 << 60
    size = {r.flat(): s for r, s in zip(orbits.reps, orbits.sizes)}
    unit = [tuple(int(i == k) for i in range(20)) for k in range(20)]
    assert size[(0,) * 20] == 1
    assert size[unit[19]] == 9 * (8 ** 4 - 1)            # row 4, column 5
    assert size[unit[17]] == 8 ** 2 * (8 ** 4 - 1)       # row 4, column 3
    assert size[unit[16]] == 9 * 8 ** 3 * (8 ** 4 - 1)   # row 4, column 2


def test_finite_type_reps_do_not_depend_on_the_field(monkeypatch):
    # every finite-type shape with no side (1^a), |mu| <= 6, |nu| <= 6, that
    # fits in 2^14 states over six fields: the F_2 reps, which counts and
    # representatives read for every field, are the lex-min reps of a sweep
    # over that field, in its order
    import paraclasses.matrix_problem as mp
    from paraclasses.cocentralizer import CocentShape
    from paraclasses.partitions import partitions
    monkeypatch.setattr(mp, "_orbit_cache", {})
    sides = [lam for k in range(1, 7) for lam in partitions(k) if set(lam) != {1}]
    compared = 0
    for mu, nu in itertools.product(sides, repeat=2):
        if mp.type_classify(mu, nu).kind != "finite":
            continue
        dim = CocentShape(mu, nu, F2).dim
        for field in (F3, F4, ff(5), ff(7), ff(2, 3), ff(3, 2)):
            if field.order ** dim > 1 << 14:
                continue
            assert [r.flat() for r in mp.enumerate_orbits(mu, nu, F2).reps] == \
                [r.flat() for r in mp.enumerate_orbits(mu, nu, field).reps], (mu, nu, field)
            compared += 1
    assert compared == 1024


def test_f2_reps_read_into_larger_fields_are_canonical():
    # past the sweep grid: each F_2 rep, read into F_3 and F_5, is the
    # lex-minimum of its orbit there, on every orbit that closes within
    # the budget
    from paraclasses.cocentralizer import CocentElement, CocentShape
    from paraclasses.matrix_problem import canonical_form, enumerate_orbits
    checked = 0
    for mu, nu in [((2, 2, 1), (2, 1, 1)), ((3, 2), (2, 2, 1)),
                   ((2, 2, 1), (2, 2, 1)), ((3, 1, 1), (2, 2))]:
        for field in (F3, ff(5)):
            shape = CocentShape(mu, nu, field)
            for rep in enumerate_orbits(mu, nu, F2).reps:
                v = CocentElement.from_flat(shape, rep.flat())
                try:
                    assert canonical_form(v, budget=20000) == v, (v, field)
                except BudgetExceeded:
                    continue
                checked += 1
    assert checked == 85


@pytest.mark.parametrize("m,n,field", [(3, 3, F3), (2, 2, ff(5)), (2, 3, F4)])
def test_class_reps_pack_nothing_the_count_did_not(monkeypatch, m, n, field):
    # counts and representatives pick the solving field by one rule, so
    # after the count the representatives read its orbit memo entries
    import paraclasses.matrix_problem as mp
    packed, pack = [], mp.packed_actions

    def packing(shape):
        packed.append((shape.mu, shape.nu, shape.field.order))
        return pack(shape)

    monkeypatch.setattr(mp, "_orbit_cache", {})
    monkeypatch.setattr(mp, "packed_actions", packing)
    count = parabolic_class_count(m, n, field)
    counted = len(packed)
    assert counted and sum(1 for _ in parabolic_class_reps(m, n, field)) == count
    assert packed[counted:] == []


def test_class_reps_sweep_no_one_power_side(monkeypatch):
    # P(4, 4) over F_2 from an empty orbit memo: the kernel sweeps shapes,
    # but none with a side (1^a)
    import paraclasses.matrix_problem as mp
    shape_of, swept = {}, []
    pack, sweep = mp.packed_actions, mp.orbit_partition

    def packing(shape):
        pa = pack(shape)
        shape_of[id(pa)] = shape.mu, shape.nu
        return pa

    def sweeping(pa):
        swept.append(shape_of[id(pa)])
        return sweep(pa)

    monkeypatch.setattr(mp, "_orbit_cache", {})
    monkeypatch.setattr(mp, "packed_actions", packing)
    monkeypatch.setattr(mp, "orbit_partition", sweeping)
    reps = sum(1 for _ in parabolic_class_reps(4, 4, F2))
    assert reps == parabolic_class_count(4, 4, F2)
    assert swept and not [s for s in swept if {1} in map(set, s)], swept


def test_prime_powers_stream():
    assert list(itertools.islice(prime_powers(), 10)) \
        == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_count_poly_smallest_case():
    cp = count_poly(1, 1)
    assert tuple(cp) == (0, -1, 1)           # q^2 - q
    assert cp(2) == 2 and cp(3) == 6
    assert len(cp) - 1 == 2 and cp[-1] == 1  # degree 2, leading coefficient 1


def test_count_polynomial_arithmetic_matches_evaluation():
    # +, -, *, ** and exact // by an integer, against the same expression
    # evaluated at integers
    from fractions import Fraction
    q = CountPolynomial((0, 1))
    f = 1 + q * 5 - (2 * q ** 3 - q + 1) * (q - 3) // 6
    assert all(f(x) == 1 + 5 * x - Fraction((2 * x ** 3 - x + 1) * (x - 3), 6)
               for x in range(-4, 8))


def test_count_poly_refuses_non_integer_coefficients(monkeypatch):
    # a wrong eigenvalue count, q/2 of degree 1, leaves halves in the sum
    from paraclasses import gf
    monkeypatch.setattr(gf, "irreducible_count", lambda d, q: q // 2)
    with pytest.raises(ArithmeticError, match="non-integer coefficients"):
        count_poly(1, 1)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_count_poly_matches_interpolated_levi_loop(m, n):
    assert count_poly(m, n) == reference_count_poly(m, n)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4)])
def test_count_poly_beyond_interpolation_reach(m, n):
    cp = count_poly(m, n)
    assert len(cp) - 1 == m + n and cp[-1] == 1
    for q in (2, 3):
        assert cp(q) == reference_class_count(m, n, ff(q))


def test_count_poly_is_symmetric_in_m_and_n():
    # transpose-inverse and the antidiagonal map P(m, n) onto P(n, m); the
    # two sides sum orbit counts of mirrored shapes, each from its own sweep
    for m in range(1, 8):
        for n in range(m + 1, 9 - m):
            assert count_poly(m, n) == count_poly(n, m), (m, n)


def test_count_poly_reaches_every_parabolic_of_gl_11():
    # the pairs whose shapes with a (1^a) side were past the state budget;
    # the mirrored side sums different shapes, an independent check
    assert tuple(count_poly(5, 5)) == (-1, 0, 6, -1, -7, -2, -1, 2, 2, 1, 1)
    assert tuple(count_poly(4, 6)) == (0, -1, 6, -2, -7, -2, 0, 2, 2, 1, 1)
    for m, n in [(4, 6), (3, 8), (4, 7), (5, 6)]:
        assert count_poly(m, n) == count_poly(n, m), (m, n)


@pytest.mark.parametrize("q", [1000000007, 2147483647])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (1, 3)])
def test_class_count_at_a_large_prime_matches_count_poly(m, n, q):
    # neither the field nor its order is ever enumerated
    assert parabolic_class_count(m, n, ff_order(q)) == count_poly(m, n)(q)


def test_count_poly_budget_holds_after_a_warm_call():
    count_poly(2, 2)
    with pytest.raises(BudgetExceeded) as ei:
        count_poly(2, 2, budget=3)
    assert str(ei.value).startswith("(2)x(2) over F_2 needs")


def test_count_poly_evaluations_match_direct_counts():
    cp = count_poly(1, 2)
    assert all(isinstance(c, int) for c in cp)
    assert cp(2) == 5
    assert cp(3) == parabolic_class_count(1, 2, F3)


def _gl_class_counts(n, q):
    """The class counts of GL_0..GL_n over F_q from their generating function
    prod_{k >= 1} (1 - x^k) / (1 - q x^k) (Macdonald, ch. IV)."""
    c = [1] + [0] * n
    for k in range(1, n + 1):
        c = [c[i] - (c[i - k] if i >= k else 0) for i in range(n + 1)]
        for i in range(k, n + 1):
            c[i] += q * c[i - k]
    return c


def test_gl_class_count_examples():
    assert gl_class_count(0, F2) == 1
    assert gl_class_count(1, F3) == 2
    assert gl_class_count(1, F4) == 3
    assert gl_class_count(2, F2) == 3
    for q in (2, 3, 4, 5, 9):
        assert [gl_class_count(n, ff_order(q)) for n in range(13)] == _gl_class_counts(12, q)


def _spy_partitions(monkeypatch) -> list:
    """The sizes `partitions.partitions` is asked for, at every binding."""
    real, calls = paraclasses.partitions.partitions, []

    def spy(k):
        calls.append(k)
        return real(k)

    for mod in (paraclasses.partitions, paraclasses.conjugacy, paraclasses.jordan):
        monkeypatch.setattr(mod, "partitions", spy)
    return calls


def test_gl_and_agl_counts_list_no_partition(monkeypatch):
    # GL and AGL sums have only one-sided terms, read from partition numbers
    calls = _spy_partitions(monkeypatch)
    assert gl_class_count(60, F2) == _gl_class_counts(60, 2)[60]
    assert agl_class_count(60, F2) == sum(_gl_class_counts(60, 2)) == 2305843004929163879
    assert calls == []
    parabolic_class_count(1, 2, F2)
    assert calls  # the spy sees the two-sided terms list their pairs


def test_agl_count_is_one_gl_sum(monkeypatch):
    # one GL type sum up to x^n holds every GL_k, k <= n, exactly
    real, calls = paraclasses.conjugacy._count_by_type, []

    def spy(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(paraclasses.conjugacy, "_count_by_type", spy)
    agl_class_count(30, F3)
    assert calls == [(30, 0)]
    for q in (2, 3):
        agl = list(itertools.accumulate(_gl_class_counts(100, q)))
        assert [agl_class_count(n, ff(q)) for n in range(1, 101)] == agl[1:]


@pytest.mark.parametrize("count,m,n,terms", [
    (lambda: parabolic_class_count(1, 200, F3), 1, 200, 313064),
    (lambda: parabolic_class_count(2, 40, F2), 2, 40, 297396),
    (lambda: count_poly(2, 40), 2, 40, 297396),
    (lambda: parabolic_class_count(1, 10 ** 6, F2), 1, 10 ** 6, 313064)])
def test_type_sum_past_its_limit_is_refused_before_listing(monkeypatch, count, m, n, terms):
    # refused as soon as the degree-1 two-sided terms read so far pass the
    # limit, (p(0) + p(1) - 1)(p(0) + ... + p(k) - 1) for (1, n): (1,200)
    # and (1,10^6) stop at the same k, long before p(n)
    calls = _spy_partitions(monkeypatch)
    with pytest.raises(BudgetExceeded) as ei:
        count()
    assert str(ei.value) == f"type sum of ({m},{n}) needs at least {terms} terms, budget 262144"
    assert calls == []


def test_type_sum_limit_counts_the_two_sided_terms(monkeypatch):
    # (2,2): p(1) + p(2) = 3 partitions a side at degree 1 and one at
    # degree 2, so 3 * 3 + 1 * 1 = 10 two-sided terms
    monkeypatch.setattr(paraclasses.conjugacy, "_TYPE_SUM_LIMIT", 10)
    assert parabolic_class_count(2, 2, F3) == 90
    monkeypatch.setattr(paraclasses.conjugacy, "_TYPE_SUM_LIMIT", 9)
    with pytest.raises(BudgetExceeded,
                       match=r"^type sum of \(2,2\) needs at least 10 terms, budget 9$"):
        parabolic_class_count(2, 2, F3)


def test_agl_count_formula_and_oracle():
    for n in (1, 2, 3, 4):
        for field in (F2, F3):
            assert agl_class_count(n, field) == \
                sum(gl_class_count(n - d, field) for d in range(n + 1))
    assert agl_class_count(1, F2) == 2
    assert agl_class_count(2, F2) == 5
    assert agl_class_count(1, F2) == oracle_agl(1, F2).count
    assert agl_class_count(1, F3) == oracle_agl(1, F3).count
    assert agl_class_count(2, F2) == oracle_agl(2, F2).count


def test_agl_reps_smallest_case():
    reps = sorted(mat_str(m) for m in agl_class_reps(1, F2))
    assert reps == ["1 0;0 1", "1 1;0 1"]


@pytest.mark.parametrize("n,field", [(1, F2), (1, F3), (2, F2), (2, F3)])
def test_agl_reps_biject_with_oracle(n, field):
    reps = list(agl_class_reps(n, field))
    orc = oracle_agl(n, field)
    labels = [orc.class_of(r) for r in reps]
    assert len(labels) == len(set(labels)) == orc.count


@pytest.mark.parametrize("m,n,field,limit", [
    (1, 2, F2, None), (2, 2, F3, None), (2, 2, F4, None), (2, 2, ff(3, 2), None),
    (1, 1, ff(1031), 40),
    # two shared eigenvalues of different degrees, corner blocks below the
    # first row, and the names of a prime-power field
    (3, 3, F2, None), (2, 3, F3, None), (2, 2, ff(2, 4), 200)])
def test_class_rep_line_matches_the_reference_writer(m, n, field, limit):
    reps = itertools.islice(parabolic_class_reps(m, n, field), limit)
    for rep in reps:
        want = json.dumps(reference_class_rep_json(rep, field), separators=(",", ":"))
        assert class_rep_line(rep) == want


def test_class_rep_json_roundtrip():
    reps = list(parabolic_class_reps(2, 2, F2))
    for rep in reps[::5]:
        blob = json.dumps(class_rep_to_json(rep))
        back = class_rep_from_json(blob, F2)
        assert back.levi_a == rep.levi_a and back.levi_b == rep.levi_b
        assert back.blocks == rep.blocks and back.matrix == rep.matrix
        assert mat_parse(back.matrix_text, F2) == rep.matrix


@pytest.mark.parametrize("call,message", [
    (lambda: oracle_classes(1, 1, F2).class_of(Mat.identity(F2, 3)),
     "element has the wrong size"),
    (lambda: oracle_classes(1, 1, F2).class_of(Mat.from_rows(F2, [[1, 0], [1, 1]])),
     "element is not block upper-triangular"),
    (lambda: list(levi_reps(0, 1, F2)), "block dimensions must be >= 1"),
    (lambda: list(levi_reps(1, 0, F2)), "block dimensions must be >= 1"),
    (lambda: parabolic_class_count(0, 1, F2), "block dimensions must be >= 1"),
    (lambda: parabolic_class_count(1, 0, F2), "block dimensions must be >= 1"),
    (lambda: list(parabolic_class_reps(0, 1, F2)), "block dimensions must be >= 1"),
    (lambda: list(parabolic_class_reps(1, 0, F2)), "block dimensions must be >= 1"),
    (lambda: count_poly(0, 1), "block dimensions must be >= 1"),
    (lambda: count_poly(1, 0), "block dimensions must be >= 1"),
    (lambda: count_poly(6, 6), "count polynomial only available for m < 6 or n < 6"),
    (lambda: gl_class_count(-1, F2), "n must be >= 0"),
    (lambda: agl_class_count(0, F2), "n must be >= 1"),
    (lambda: list(agl_class_reps(0, F2)), "n must be >= 1")])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_oracle_budget():
    with pytest.raises(BudgetExceeded) as ei:
        oracle_classes(2, 2, F3, budget=100)
    assert str(ei.value) == "oracle P(2,2) over F_3 needs 186624 states, budget 100"


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_oracle_group_orders_count_the_listed_elements(field):
    # the budget is checked from |GL_k(q)| before any element is listed; the
    # oracle stays independent of the Jordan and centralizer code it checks
    import ast
    import paraclasses.oracle as oracle
    for k in range(3):
        assert oracle._gl_order(field.order, k) == len(oracle._gl_elements(field, k))
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level} == {"errors", "gf", "matrices"}
