import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodjet.laurent import (
    INF, LaurentSeries, NonUnitLeadingCoefficient, NonzeroResidue, OddOrder,
    PrecisionExhausted, ZeroSeries, derive, from_json, integrate,
    int_from_key, invert, product_below, rational_from_str, rational_to_str,
    residue, sqrt_unit, sqrt_unit_with_inverse, symplectic_pair, to_json)

from series_reference import (
    canon, fraction_sqrt_unit, full_product, full_symplectic_pair)


def random_series(rng, lo=-6, hi=6, trunc=None, nterms=5):
    coeffs = {}
    for _ in range(nterms):
        e = rng.randint(lo, hi - 1)
        coeffs[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    t = hi if trunc is None else trunc
    return LaurentSeries(coeffs, t)


def test_constructor_normalizes():
    f = LaurentSeries({2: Fraction(0), -1: Fraction(3), 7: Fraction(1)}, 5)
    assert f.coeffs == {-1: Fraction(3)}  # zero dropped, exp >= trunc dropped
    assert f.trunc == 5
    assert LaurentSeries({}, 3).is_visible_zero()
    with pytest.raises(ValueError):
        LaurentSeries({0: 1}, trunc=2.5)
    assert not (f != LaurentSeries({-1: 3}, 5))
    assert f != LaurentSeries({-1: 3}, 6)
    assert f != LaurentSeries({-1: 2}, 5)
    assert LaurentSeries.one() != 1 and 1 != LaurentSeries.one()


def test_coeff_access_and_precision():
    f = LaurentSeries({-2: 1, 3: Fraction(1, 2)}, 4)
    assert f.coeff(-2) == 1
    assert f.coeff(0) == 0
    assert f.coeff(3) == Fraction(1, 2)
    with pytest.raises(PrecisionExhausted):
        f.coeff(4)
    g = LaurentSeries.monomial(5)
    assert g.coeff(10 ** 6) == 0  # exact series knows every coefficient


def test_add_sub_trunc_rule():
    a = LaurentSeries({-1: 1, 2: 3}, 5)
    b = LaurentSeries({2: -3, 4: 1}, 7)
    s = a + b
    assert s.trunc == 5
    assert s.coeffs == {-1: Fraction(1), 4: Fraction(1)}
    d = a - a
    assert d.is_visible_zero() and d.trunc == 5
    exact = LaurentSeries.monomial(0) + LaurentSeries.monomial(3)
    assert exact.trunc is INF


def test_mul_trunc_rule():
    # trunc(ab) = min(ta + ord b, tb + ord a)
    a = LaurentSeries({-2: 1}, 3)
    b = LaurentSeries({1: 1, 2: 5}, 6)
    p = a * b
    assert p.trunc == min(3 + 1, 6 - 2)
    assert p.coeffs == {-1: Fraction(1), 0: Fraction(5)}
    # visible zero: its order counts as its truncation
    z = LaurentSeries.zero(2)
    q = z * b
    assert q.trunc == min(2 + 1, 6 + 2) and q.is_visible_zero()
    # exact * exact stays exact
    e = LaurentSeries({0: 1, 1: -1}) * LaurentSeries({0: 1, 1: 1})
    assert e == LaurentSeries({0: 1, 2: -1})


def test_scale_keeps_trunc():
    a = LaurentSeries({-1: 2, 3: 4}, 6)
    s = a.scaled(Fraction(1, 2))
    assert s.trunc == 6 and s.coeffs == {-1: Fraction(1), 3: Fraction(2)}
    assert a.scaled(0).is_visible_zero()
    assert a.scaled(0).trunc == 6


def test_derive_integrate_roundtrip():
    rng = random.Random(101)
    for _ in range(20):
        f = random_series(rng)
        g = LaurentSeries({e: c for e, c in f.coeffs.items() if e != 0},
                          f.trunc)  # kill constant so integrate(derive(g)) = g
        assert integrate(derive(g)) == g
    # derivative loses one order of knowledge
    f = LaurentSeries({0: 1, 4: 2}, 5)
    assert derive(f).trunc == 4
    assert integrate(derive(f)) == LaurentSeries({4: 2}, 5)


def test_integrate_requires_zero_residue():
    with pytest.raises(NonzeroResidue):
        integrate(LaurentSeries({-1: 1}, 3))
    # residue hidden beyond the truncation: refuse rather than guess
    with pytest.raises(PrecisionExhausted):
        integrate(LaurentSeries({-3: 1}, -1))
    ok = integrate(LaurentSeries({-3: 1}, 0))
    assert ok == LaurentSeries({-2: Fraction(-1, 2)}, 1)


def test_invert_geometric_series():
    f = LaurentSeries({0: 1, 1: -1}, 8)
    g = invert(f)
    assert g == LaurentSeries({e: 1 for e in range(8)}, 8)


def test_invert_is_right_inverse():
    rng = random.Random(7)
    for _ in range(25):
        f = random_series(rng, lo=-4, hi=5, nterms=4)
        o = f.order()
        if o is None:
            continue
        if f.coeffs[o] == 0:
            continue
        g = invert(f)
        assert g.trunc == f.trunc - 2 * o
        prod = f * g
        one = LaurentSeries.one().truncate(prod.trunc)
        assert prod == one


NONZERO_RATIONALS = st.fractions(-9, 9, max_denominator=7).filter(bool)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(order=st.integers(-6, 6), stride=st.integers(1, 3),
       lead=NONZERO_RATIONALS,
       rest=st.lists(st.fractions(-9, 9, max_denominator=7), max_size=6),
       length=st.integers(1, 20))
def test_invert_times_f_is_one_to_its_truncation(order, stride, lead, rest,
                                                  length):
    # f = lead z^order + terms every stride exponents, known below
    # order + length
    coeffs = {order + stride * j: c for j, c in enumerate(rest, 1)}
    coeffs[order] = lead
    f = LaurentSeries(coeffs, order + length)
    assert invert(f) * f == LaurentSeries.one(f.trunc - f.order())


def test_invert_errors():
    with pytest.raises(ZeroSeries):
        invert(LaurentSeries.zero(5))
    with pytest.raises(ZeroSeries):
        invert(LaurentSeries.zero())
    # exact monomial inverts exactly
    assert invert(LaurentSeries.monomial(-3, 2)) == \
        LaurentSeries.monomial(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        invert(LaurentSeries({0: 1, 1: 1}))  # exact, needs explicit precision


def test_sqrt_unit_squares_back():
    rng = random.Random(13)
    for _ in range(25):
        w = random_series(rng, lo=0, hi=7, nterms=4)
        f = (w + LaurentSeries.one()).shift(2 * rng.randint(-2, 2))
        f = LaurentSeries({e: c for e, c in f.coeffs.items()
                           if e >= f.order()}, f.trunc)
        o = f.order()
        if f.coeffs[o] != 1:
            continue
        r = sqrt_unit(f)
        assert r.coeff(o // 2) == 1
        assert r.trunc == f.trunc - o + o // 2
        sq = r * r
        assert sq == f.truncate(sq.trunc)


def test_sqrt_unit_known_expansion():
    # sqrt(1+z) = 1 + z/2 - z^2/8 + z^3/16 - 5 z^4/128 + ...
    f = LaurentSeries({0: 1, 1: 1}, 5)
    r = sqrt_unit(f)
    assert r == LaurentSeries({0: 1, 1: Fraction(1, 2), 2: Fraction(-1, 8),
                               3: Fraction(1, 16), 4: Fraction(-5, 128)}, 5)


def test_sqrt_unit_errors():
    with pytest.raises(ZeroSeries):
        sqrt_unit(LaurentSeries.zero(4))
    with pytest.raises(OddOrder):
        sqrt_unit(LaurentSeries({1: 1, 2: 1}, 6))
    with pytest.raises(NonUnitLeadingCoefficient):
        sqrt_unit(LaurentSeries({0: 4, 1: 1}, 6))
    assert sqrt_unit(LaurentSeries.monomial(-4)) == LaurentSeries.monomial(-2)
    with pytest.raises(ValueError):
        sqrt_unit(LaurentSeries({0: 1, 2: 1}))  # exact, needs a precision


@st.composite
def unit_series(draw):
    """z^o (1 + sum c_e z^(ek)) + O(z^trunc): even order o, stride k,
    rational coefficients with non-unit denominators."""
    o = 2 * draw(st.integers(-4, 3))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    coeffs = {o: Fraction(1)}
    for i in range(1, -(-n // k)):
        if draw(st.booleans()):
            coeffs[o + i * k] = Fraction(draw(st.integers(-9, 9)),
                                         draw(st.integers(1, 12)))
    return LaurentSeries(coeffs, o + n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(unit_series())
def test_sqrt_unit_matches_fraction_recurrence(f):
    r = sqrt_unit(f)
    assert canon(r) == canon(fraction_sqrt_unit(f))
    sq = r * r
    assert canon(sq) == canon(f.truncate(sq.trunc))
    root, inverse = sqrt_unit_with_inverse(f)
    assert canon(root) == canon(r)
    assert canon(inverse) == canon(invert(r))


def test_sqrt_unit_stride_one_negative_order():
    # z^-4 (1 + z/3 - 2z^2/5 + 7z^5/6) + O(z^9): every exponent step is 1,
    # the denominators are not 1 and the order is negative
    f = LaurentSeries({-4: 1, -3: Fraction(1, 3), -2: Fraction(-2, 5),
                       1: Fraction(7, 6)}, 9)
    r = sqrt_unit(f)
    assert r.order() == -2 and r.trunc == 11
    assert canon(r) == canon(fraction_sqrt_unit(f))
    assert r.coeff(-1) == Fraction(1, 6)
    sq = r * r
    assert sq.trunc == 9 and canon(sq) == canon(f)
    root, inverse = sqrt_unit_with_inverse(f)
    assert canon(inverse) == canon(invert(r)) and inverse.trunc == 15
    prod = r * inverse
    assert canon(prod) == canon(LaurentSeries.one().truncate(prod.trunc))


def test_sqrt_unit_with_inverse_monomials():
    assert sqrt_unit_with_inverse(LaurentSeries.monomial(-4)) == \
        (LaurentSeries.monomial(-2), LaurentSeries.monomial(2))
    root, inverse = sqrt_unit_with_inverse(LaurentSeries({2: 1}, 7))
    assert root == LaurentSeries({1: 1}, 6)
    assert inverse == LaurentSeries({-1: 1}, 4) == invert(root)
    with pytest.raises(OddOrder):
        sqrt_unit_with_inverse(LaurentSeries({1: 1}, 6))
    with pytest.raises(ValueError):
        sqrt_unit_with_inverse(LaurentSeries({0: 1, 2: 1}))


@st.composite
def truncated_series(draw):
    """Sparse rational series with exponents in -8..8 and a truncation
    that is exact or anywhere from -10 to 12; some have no visible term."""
    trunc = draw(st.one_of(st.just(INF), st.integers(-10, 12)))
    coeffs = draw(st.dictionaries(
        st.integers(-8, 8),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=draw(st.sampled_from([0, 1, 4, 9]))))
    return LaurentSeries(coeffs, trunc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(truncated_series(), truncated_series(),
       st.one_of(st.just(INF), st.integers(-14, 14)))
def test_product_below_is_truncated_product(a, b, cap):
    full = full_product(a, b)
    capped = product_below(a, b, cap)
    assert canon(capped) == canon(full.truncate(cap))
    assert canon(a * b) == canon(full)
    w = cap - a.min_rule_order()
    if math.isfinite(w):
        # b is read only below cap - ord a
        assert canon(product_below(a, b.truncate(w), cap)) == canon(capped)


def test_product_below_caps():
    a = LaurentSeries({-2: 1, 0: 3, 4: 1}, 7)
    b = LaurentSeries({-1: 2, 1: 1})
    # min-rule truncation 7 + (-1) = 6, capped
    assert product_below(a, b, 0) == LaurentSeries({-3: 2, -1: 7}, 0)
    assert product_below(a, b, -5) == LaurentSeries.zero(-5)
    assert product_below(a, b, 100) == a * b and (a * b).trunc == 6
    # a visible zero still limits the truncation
    assert product_below(LaurentSeries.zero(2), b, 5) == \
        LaurentSeries.zero(1)


def assert_constructor_invariant(r):
    """r is what LaurentSeries(...) would build from its own fields."""
    assert type(r) is LaurentSeries
    if math.isinf(r.trunc):
        assert r.trunc is INF
    else:
        assert type(r.trunc) is int
    for e, c in r.coeffs.items():
        assert type(e) is int and type(c) is Fraction
        assert c != 0 and e < r.trunc
    assert canon(r) == canon(LaurentSeries(dict(r.coeffs), r.trunc))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(truncated_series(), truncated_series(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.one_of(st.just(INF), st.integers(-14, 14)), st.integers(-5, 5))
def test_internal_results_meet_the_constructor_invariant(a, b, c, cut, k):
    results = [a + b, b + a, a - b, a - a, a + (-a), a + a.scaled(-1), -a,
               a.scaled(c), a.scaled(0), a * c, a.truncate(cut), a.shift(k),
               derive(a), derive(derive(a)), a * b, product_below(a, b, cut),
               (a + b) * (a - b), product_below(a + b, a - b, cut),
               LaurentSeries.monomial(k, c, cut), LaurentSeries.zero(cut),
               LaurentSeries.one(cut)]
    if a.trunc >= 0:
        results.append(integrate(a - LaurentSeries.monomial(-1, a.coeff(-1))))
    for r in results:
        assert_constructor_invariant(r)
    assert (a - a).is_visible_zero() and (a + (-a)).is_visible_zero()
    for unit in (1, -1):  # fast paths: a fresh series, no product formed
        r = a.scaled(unit)
        assert_constructor_invariant(r)
        assert r is not a and r.coeffs is not a.coeffs
        assert canon(r) == canon(LaurentSeries(
            {e: v * unit for e, v in a.coeffs.items()}, a.trunc))


@st.composite
def one_term_series(draw):
    """c z^e + O(z^trunc), c drawn from 1, -1 and general rationals: the
    one-term factors of product_below that skip all Fraction arithmetic,
    or all but negation. A truncation at or below e leaves a visible
    zero."""
    c = draw(st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        st.fractions(min_value=-5, max_value=5, max_denominator=7)
        .filter(bool)))
    trunc = draw(st.one_of(st.just(INF), st.integers(-10, 12)))
    return LaurentSeries({draw(st.integers(-8, 8)): c}, trunc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(one_term_series(), one_term_series(), truncated_series(),
       st.one_of(st.just(INF), st.integers(-14, 14)))
def test_product_below_with_a_one_term_factor(m, m2, other, cap):
    # the one-term factor on the left, on the right, and on both sides
    for a, b in ((m, other), (other, m), (m, m2)):
        full = full_product(a, b)
        for r, want in ((product_below(a, b, cap), full.truncate(cap)),
                        (a * b, full)):
            assert canon(r) == canon(want)
            assert_constructor_invariant(r)
            assert list(r.coeffs) == sorted(r.coeffs)  # as the walk forms


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(unit_series())
def test_sqrt_results_meet_the_constructor_invariant(f):
    for r in (sqrt_unit(f),) + sqrt_unit_with_inverse(f):
        assert_constructor_invariant(r)


def test_residue():
    assert residue(LaurentSeries({-1: Fraction(5, 3), 2: 1}, 3)) == \
        Fraction(5, 3)
    assert residue(LaurentSeries({2: 1}, 0)) == 0
    with pytest.raises(PrecisionExhausted):
        residue(LaurentSeries({-2: 1}, -1))


def test_symplectic_pair_monomials():
    # <z^a, z^b> = b * Res z^{a+b-1} = b if a = -b, else 0
    for a in range(-5, 6):
        for b in range(-5, 6):
            f = LaurentSeries.monomial(a)
            g = LaurentSeries.monomial(b)
            want = Fraction(b) if a + b == 0 else Fraction(0)
            assert symplectic_pair(f, g) == want


def test_symplectic_pair_antisymmetric():
    rng = random.Random(31)
    for _ in range(30):
        f = random_series(rng, lo=-5, hi=6)
        g = random_series(rng, lo=-5, hi=6)
        assert symplectic_pair(f, g) == -symplectic_pair(g, f)


@st.composite
def pairing_operands(draw):
    """(f, g) for the pairing: free draws, a g whose only term is its
    constant, and pairs with matching terms z^-e, z^e whose truncations
    are placed around where z^-1 of f*dg stops being known."""
    f = draw(truncated_series())
    kind = draw(st.sampled_from(["free", "constant g", "f near", "g near"]))
    if kind == "free":
        return f, draw(truncated_series())
    if kind == "constant g":
        return f, LaurentSeries(
            {0: draw(st.sampled_from([1, -2, Fraction(3, 5)]))},
            draw(st.one_of(st.just(INF), st.integers(-2, 6))))
    nonzero = st.fractions(min_value=-5, max_value=5,
                           max_denominator=7).filter(bool)
    g = LaurentSeries(draw(st.dictionaries(
        st.integers(-8, 8).filter(bool), nonzero, min_size=1, max_size=5)))
    coeffs = dict(f.coeffs)
    for e in g.coeffs:
        coeffs[-e] = draw(nonzero)
    f = LaurentSeries(coeffs)
    near = draw(st.integers(-2, 2))
    if kind == "f near":
        # trunc f + ord dg = near: z^-1 is known from near = 0 on
        f = LaurentSeries(f.coeffs, 1 - min(g.coeffs) + near)
    else:
        # trunc dg + ord f = near - 1
        g = LaurentSeries(g.coeffs, -f.order() + near)
    return f, g


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairing_operands())
def test_symplectic_pair_matches_full_product(operands):
    f, g = operands
    got = _outcome(symplectic_pair, f, g)
    assert got == _outcome(full_symplectic_pair, f, g)
    if not isinstance(got, tuple):
        assert type(got) is Fraction


def test_rational_strings():
    assert rational_from_str("3/4") == Fraction(3, 4)
    assert rational_from_str("-7") == Fraction(-7)
    assert rational_to_str(Fraction(-6, 4)) == "-3/2"
    assert rational_to_str(Fraction(5)) == "5/1"
    with pytest.raises(ValueError):
        rational_from_str("1/0")
    with pytest.raises(ValueError):
        rational_from_str("x")
    with pytest.raises(ValueError):
        rational_from_str(3)
    assert rational_from_str("0012/8") == Fraction(3, 2)
    # only -?[0-9]+(/[0-9]+)? is a rational, whatever Fraction() accepts
    for text in ("1e5", "1.5", "1_000", " 3/4 ", "3/4\n", "+2", "3/+4",
                 "1/-2", "", "-", "/4", "3/", "\u0663"):
        with pytest.raises(ValueError):
            rational_from_str(text)


def test_json_roundtrip():
    rng = random.Random(47)
    for _ in range(10):
        f = random_series(rng)
        assert from_json(to_json(f)) == f
    obj = to_json(LaurentSeries({-2: Fraction(-3, 2)}, 4))
    assert obj == {"trunc": 4, "coeffs": {"-2": "-3/2"}}


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        to_json(LaurentSeries.one())  # exact series has no finite trunc
    with pytest.raises(ValueError):
        from_json([1, 2])
    with pytest.raises(ValueError):
        from_json({"trunc": "4", "coeffs": {}})
    with pytest.raises(ValueError):
        from_json({"trunc": 4, "coeffs": {"x": "1/1"}})
    with pytest.raises(ValueError):
        from_json({"trunc": 4, "coeffs": {"5": "1/1"}})  # exp >= trunc
    with pytest.raises(ValueError):
        from_json({"trunc": 4, "coeffs": {}, "tail": 0})


def test_json_keys_must_be_canonical_integers():
    assert from_json({"trunc": 4, "coeffs": {"0": "1", "-12": "2/3",
                                             "3": "-1"}}) == \
        LaurentSeries({0: 1, -12: Fraction(2, 3), 3: -1}, 4)
    assert int_from_key("-40", "exponent") == -40
    # each of these is int() of some integer, but not the way str() writes
    # it, so two of them could name one exponent
    for key in ("-01", "-0_1", " -1", "-1 ", "+1", "\u0663", "-0", "01",
                "1\n", "", "-", "1.0", "0x1"):
        with pytest.raises(ValueError, match="canonical integer"):
            from_json({"trunc": 4, "coeffs": {key: "1"}})
    with pytest.raises(ValueError):
        from_json({"trunc": 4, "coeffs": {"-1": "1", "-0_1": "2"}})


def test_str_forms():
    assert str(LaurentSeries.zero(3)) == "0 + O(z^3)"
    assert str(LaurentSeries({-1: -1, 0: Fraction(1, 2), 2: 3})) == \
        "-z^-1 + 1/2 + 3*z^2"
    assert str(LaurentSeries({1: 1}, 9)) == "z + O(z^9)"
