import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraclasses import gf
from paraclasses.errors import BudgetExceeded
from paraclasses.gf import (FiniteField, extend, extension, ff, ff_order,
                            irreducible_count, irreducibles, is_irreducible,
                            is_prime, padd, pdeg, pdivmod, pmul, pnormalize,
                            poly_factor, poly_parse, poly_str)

from helpers import reference_element_str, reference_is_irreducible, reference_tables


def _tower(p, e, d):
    return extension(ff(p, e), d)


def _field_id(field):
    if field.base is None or field.base.base is None:
        return f"F{field.order}"
    return f"F{field.order}/F{field.base.order}"


def test_field_construction_examples():
    assert ff(2, 1).modulus == (0, 1)          # the polynomial t
    assert ff(2, 2).modulus == (1, 1, 1)       # t^2 + t + 1
    assert ff(3, 2).modulus == (1, 0, 1)       # t^2 + 1


def test_lex_least_modulus_derived_by_scan():
    # independent derivation: scan monic quadratics over F_3 in lex order of
    # (c0, c1) and take the first with no root
    first = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                first = (c0, c1, 1)
                break
        if first:
            break
    assert first == ff(3, 2).modulus


def test_field_construction_determinism_and_identity():
    assert ff(3, 2) is ff(3, 2)
    assert ff(2, 3).modulus == ff(2, 3).modulus


def test_field_construction_errors():
    with pytest.raises(ValueError):
        ff(4, 1)
    with pytest.raises(ValueError):
        ff(2, 0)
    with pytest.raises(ValueError, match="^12 is not a prime power$"):
        ff_order(12)
    for q in (0, 1):
        with pytest.raises(ValueError, match=f"^field order must be >= 2, got {q}$"):
            ff_order(q)


def test_arithmetic_examples():
    F4 = ff(2, 2)
    w = F4.gen
    assert F4.mul(w, F4.add(w, F4.one)) == F4.one   # w(w+1) = 1
    assert F4.pow(w, 3) == F4.one
    F3 = ff(3)
    assert F3.inv(2) == 2


@pytest.mark.parametrize("field", [ff(2), ff(3), ff(5), ff(7), ff(2, 2),
                                   ff(2, 3), ff(3, 2)])
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    for a in els:
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
        if a:
            assert field.mul(a, field.inv(a)) == field.one
        assert field.add(a, field.neg(a)) == field.zero
    step = max(1, len(els) // 5)
    for a in els[::step]:
        for b in els[::step]:
            for c in els[::step]:
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(a, field.add(b, c)) == \
                    field.add(field.mul(a, b), field.mul(a, c))


TABLE_FIELDS = ([ff(p, e) for p in range(2, 257) if is_prime(p)
                 for e in range(1, 9) if p ** e <= 256]
                + [_tower(2, 2, 2), _tower(2, 2, 3), _tower(2, 3, 2), _tower(3, 2, 2)])


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=_field_id)
def test_tables_match_per_coefficient_reference(field):
    add, mul = reference_tables(field)
    t = field.tables()
    assert all(a.dtype == np.int32 for a in t.values())
    assert t["add"].tolist() == add
    assert t["mul"].tolist() == mul
    assert all(add[a][t["neg"][a]] == 0 for a in field.elements())
    assert all(mul[a][t["inv"][a]] == 1 for a in field.units())


@pytest.mark.parametrize("base,modulus", [
    (ff(2), ff(2, 3).modulus), (ff(3), ff(3, 2).modulus),
    (ff(2), ff(2, 4).modulus), (ff(2, 2), extension(ff(2, 2), 2).modulus)],
    ids=["F8", "F9", "F16", "F16/F4"])
def test_polynomial_path_matches_tables(monkeypatch, base, modulus):
    tabled = extend(base, modulus)
    els = list(tabled.elements())
    expected = ([[(tabled.add(a, b), tabled.mul(a, b)) for b in els] for a in els],
                [tabled.neg(a) for a in els], [tabled.inv(a) for a in tabled.units()])
    monkeypatch.setattr(gf, "_TABLE_LIMIT", 1)
    # built directly, so the field cache of ff and extend is untouched
    field = FiniteField(base.p, base=base, modulus=modulus)
    assert ([[(field.add(a, b), field.mul(a, b)) for b in els] for a in els],
            [field.neg(a) for a in els],
            [field.inv(a) for a in field.units()]) == expected
    with pytest.raises(BudgetExceeded, match=f"F_{field.order}"):
        field.tables()


AXIOM_FIELDS = [ff(2, 2), ff(3, 2), ff(2, 3), ff(2, 4), ff(5, 2), ff(3, 3),
                ff(2, 5), ff(7, 2), ff(2, 6), _tower(2, 2, 2), _tower(2, 2, 3),
                ff(2, 11)]  # F_2048 is above the table limit


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=_field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_random_elements(field, data):
    a, b, c = data.draw(st.tuples(*[st.integers(0, field.order - 1)] * 3))
    add, mul = field.add, field.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, field.neg(a)) == field.zero
    if a:
        assert mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("field", [ff(2), ff(3, 2), _tower(2, 2, 2), ff(2, 11)],
                         ids=_field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pdivmod_round_trip(field, data):
    coeffs = st.lists(st.integers(0, field.order - 1), max_size=8)
    f = pnormalize(data.draw(coeffs))
    g = pnormalize(data.draw(coeffs.filter(any)))
    q, r = pdivmod(f, g, field)
    assert padd(pmul(q, g, field), r, field) == f
    assert pdeg(r) < pdeg(g)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ff(3).inv(0)


def test_element_text_roundtrip():
    K = extend(ff(2, 2), irreducibles(2, ff(2, 2))[0])
    for field in (ff(2), ff(5), ff(2, 2), ff(3, 2), ff(2, 3), K):
        for a in field.elements():
            assert field.element_parse(field.element_str(a)) == a


def test_irreducibles_bad_degree():
    with pytest.raises(ValueError):
        irreducibles(0, ff(2))


def pth_root(field, a):
    """The unique p-th root of a (Frobenius is bijective)."""
    return field.pow(a, field.order // field.p)


def test_pow_and_pth_root():
    F9 = ff(3, 2)
    for a in F9.units():
        assert F9.pow(a, 8) == F9.one
        r = pth_root(F9, a)
        assert F9.pow(r, 3) == a


def test_irreducibles_examples():
    F3, F2 = ff(3), ff(2)
    assert [poly_str(f, F3) for f in irreducibles(1, F3) if f[0] != 0] \
        == ["1,1", "2,1"]
    assert irreducibles(2, F2) == ((1, 1, 1),)
    assert len(irreducibles(2, F3)) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_irreducible_count_matches_enumeration(q):
    for d in range(1, 5):
        assert irreducible_count(d, q) == len(irreducibles(d, ff_order(q)))
    assert irreducible_count(1, q) - 1 == \
        len([f for f in irreducibles(1, ff_order(q)) if f[0] != 0])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_irreducibles_and_moduli_match_a_full_lexicographic_scan(q):
    # the scan starts at c_0 = 0 in every degree; the package's stream skips
    # c_0 = 0 for d >= 2
    F = ff_order(q)
    for d in (d for d in range(1, 4) if q ** d <= 1000):
        monic = (lows + (F.one,) for lows in itertools.product(F.elements(), repeat=d))
        scan = tuple(f for f in monic if reference_is_irreducible(f, F))
        assert irreducibles(d, F) == scan
        if d > 1:
            assert extension(F, d).modulus == scan[0]


def test_count_over_a_field_of_order_two_to_the_twenty():
    # the modulus of F_{2^20} is found without scanning the 2^19 multiples
    # of t; the count agrees with the count polynomial at q = 2^20
    from paraclasses.conjugacy import count_poly, parabolic_class_count
    q = 2 ** 20
    assert parabolic_class_count(2, 2, ff_order(q)) == count_poly(2, 2)(q) \
        == 1208926972533934758297600


def test_irreducible_quadratics_counted_by_root_scan():
    # independent count over F_3: monic quadratics without roots
    n = 0
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                n += 1
    assert n == len(irreducibles(2, ff(3)))


def test_factor_examples():
    F2, F3 = ff(2), ff(3)
    assert poly_factor((0, 1, 0, 0, 1), F2) == [((0, 1), 1), ((1, 1), 1),
                                                ((1, 1, 1), 1)]
    assert poly_factor((1, 0, 1), F2) == [((1, 1), 2)]
    assert poly_factor((1, 0, 1), F3) == [((1, 0, 1), 1)]


def test_factor_zero_raises():
    with pytest.raises(ValueError):
        poly_factor((), ff(2))


def _trial_division_irreducible(f, field):
    # oracle: no divisor among the monic irreducibles of degree <= deg/2
    d = pdeg(f)
    for e in range(1, d // 2 + 1):
        for g in irreducibles(e, field):
            from paraclasses.gf import pmod
            if pmod(f, g, field) == ():
                return False
    return d >= 1


@pytest.mark.parametrize("field", [ff(2), ff(3), ff(2, 2), ff(3, 2)])
def test_factor_product_and_irreducibility_property(field):
    rng = random.Random(20240 + field.order)
    for _ in range(40):
        cs = [rng.randrange(field.order) for _ in range(rng.randrange(1, 9))]
        cs.append(1 + rng.randrange(field.order - 1))
        f = pnormalize(cs)
        if pdeg(f) < 1:
            continue
        fac = poly_factor(f, field)
        prod = (f[-1],)
        for g, mult in fac:
            assert g[-1] == field.one
            assert _trial_division_irreducible(g, field)
            assert is_irreducible(g, field)
            for _ in range(mult):
                prod = pmul(prod, g, field)
        assert prod == f


def test_factor_determinism():
    F2 = ff(2)
    f = (1, 1, 0, 1, 1, 0, 1, 1)
    assert poly_factor(f, F2) == poly_factor(f, F2)


@pytest.mark.parametrize("field", [ff(2), ff(3), ff(2, 2), ff(3, 2)], ids=_field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factor_recovers_prime_powers(field, data):
    # distinct irreducibles of degree <= 3 raised to exponents up to 2p+1,
    # p and p^2 among them, times a unit: the factors come back exactly
    p = field.p
    pool = [g for d in (1, 2, 3) for g in irreducibles(d, field)]
    irrs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                              unique=True))
    exps = st.sampled_from(sorted({*range(1, 2 * p + 2), p * p}))
    expected = sorted(((g, data.draw(exps)) for g in irrs),
                      key=lambda t: (pdeg(t[0]), t[0]))
    f = (data.draw(st.integers(1, field.order - 1)),)
    for g, e in expected:
        for _ in range(e):
            f = pmul(f, g, field)
    assert poly_factor(f, field) == expected


def test_poly_text_roundtrip():
    F4 = ff(2, 2)
    f = (2, 0, 3, 1)
    assert poly_parse(poly_str(f, F4), F4) == f
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


@pytest.mark.parametrize("field,top", [
    (ff(2), 6), (ff(3), 4), (ff(2, 2), 4), (ff(5), 4), (ff(7), 3), (ff(2, 3), 3),
    (ff(3, 2), 3)], ids=lambda v: _field_id(v) if isinstance(v, FiniteField) else f"deg{v}")
def test_ben_or_matches_rabin_on_every_monic_polynomial(field, top):
    irreducible = [0] * (top + 1)
    for d in range(top + 1):
        for lows in itertools.product(range(field.order), repeat=d):
            f = lows + (field.one,)
            answer = is_irreducible(f, field)
            assert answer == reference_is_irreducible(f, field), f
            irreducible[d] += answer
    assert irreducible == [0] + [irreducible_count(d, field.order)
                                 for d in range(1, top + 1)]


@pytest.mark.parametrize("field", [ff(2), ff(3), ff(2, 2), ff(5)], ids=_field_id)
def test_ben_or_at_its_tight_bound(field):
    # p * p' and p^2 of degree 2e have no factor below degree e = n/2, so
    # only the last gcd of Ben-Or's loop can see them; a unit factor c and
    # constants must not change the answer
    c = field.units()[-1]
    for e in (1, 2, 3):
        irrs = irreducibles(e, field)[:4]
        for g in irrs:
            assert is_irreducible(pmul((c,), g, field), field)
            for h in irrs:
                f = pmul((c,), pmul(g, h, field), field)
                assert not is_irreducible(f, field)
                assert not reference_is_irreducible(f, field)
    for f in [(), (field.one,), (c,)]:
        assert not is_irreducible(f, field) and not reference_is_irreducible(f, field)


def _order(field, a):
    k, x = 1, a
    while x != field.one:
        x, k = field.mul(x, a), k + 1
    return k


TOWER_FIELDS = [extension(ff_order(q), d) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
                for d in range(2, 9) if q ** d <= 256]


@pytest.mark.parametrize("field", TABLE_FIELDS + TOWER_FIELDS, ids=_field_id)
def test_primitive_element_is_least_unit_of_full_order(field):
    assert field.primitive_element() == next(
        a for a in field.units() if _order(field, a) == field.order - 1)


# the tower of test_element_text_roundtrip is _tower(2, 2, 2), in TABLE_FIELDS;
# the last field is three extensions deep, so its symbol is v
@pytest.mark.parametrize("field", TABLE_FIELDS + TOWER_FIELDS
                         + [extension(_tower(2, 2, 2), 2)], ids=_field_id)
def test_names_table_matches_the_reference_formatter(field):
    expected = [reference_element_str(field, a) for a in field.elements()]
    assert field.names == expected
    assert [field.element_str(a) for a in field.elements()] == expected


def test_large_prime_field_formats_without_a_names_table():
    field = ff_order(1000000007)
    assert field.element_str(12345) == "12345"
    assert field.element_str(1000000006) == "1000000006"
    assert "names" not in vars(field)
    with pytest.raises(BudgetExceeded, match="F_1000000007"):
        field.names


def test_extension_past_the_table_limit_formats_without_a_names_table():
    field = extension(ff(37), 2)
    assert field.order == 1369
    assert all(field.element_str(a) == reference_element_str(field, a)
               for a in field.elements())
    assert field.element_str(37 * 5 + 2) == "2+5*w"
    assert "names" not in vars(field)


def test_is_prime_and_mobius_match_brute_force():
    N = 2000
    primes = [n for n in range(N) if n >= 2 and all(n % k for k in range(2, n))]
    assert [n for n in range(N) if is_prime(n)] == primes
    # mu(1) = 1 and the mu(e) over the divisors e of any n > 1 sum to 0
    mu = [0, 1] + [0] * (N - 2)
    for n in range(2, N):
        mu[n] = -sum(mu[e] for e in range(1, n) if n % e == 0)
    assert [gf.mobius(n) for n in range(1, N)] == mu[1:]
