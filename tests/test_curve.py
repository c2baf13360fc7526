import random
from fractions import Fraction

import pytest

from periodjet.laurent import (
    LaurentSeries, derive, integrate, invert, symplectic_pair)
from periodjet.curve import (
    HyperellipticCurve, curve_from_json, curve_to_json, default_precision,
    expand_curve, holomorphic_integrals, precision_floor)

from series_reference import canon, fraction_sqrt_unit
from test_period import DENSE_G6, ED, dense_expansion

C5 = HyperellipticCurve([1, 0, 0, 0, 0, 1])          # y^2 = x^5 + 1
C7 = HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1])   # y^2 = x^7 - x + 1


def exp5():
    return expand_curve(C5, default_precision(2))


def exp7():
    return expand_curve(C7, default_precision(3))


def test_curve_validation():
    with pytest.raises(ValueError):
        HyperellipticCurve([1, 0, 1])            # degree 2
    with pytest.raises(ValueError):
        HyperellipticCurve([1, 0, 0, 1])         # degree 3 < 5
    with pytest.raises(ValueError):
        HyperellipticCurve([0, 0, 0, 0, 0, 0, 1])  # even degree 6
    with pytest.raises(ValueError):
        HyperellipticCurve([1, 0, 0, 0, 0, 2])   # not monic
    with pytest.raises(ValueError):
        HyperellipticCurve([0, 0, 0, 1, 2, 1])   # x^3 (x+1)^2 not squarefree
    assert C5.genus == 2 and C7.genus == 3


def test_precision_floor():
    with pytest.raises(ValueError):
        expand_curve(C5, 11)  # needs 4g+4 = 12
    assert expand_curve(C5, 12).precision == 12
    assert default_precision(2) == 40 and default_precision(3) == 48


def test_y_expansion_fixture():
    e = exp5()
    y = e.y_series
    assert y.order() == -5
    assert y.coeff(-5) == 1
    assert y.coeff(5) == Fraction(1, 2)
    assert y.coeff(15) == Fraction(-1, 8)
    assert y.coeff(25) == Fraction(1, 16)
    assert all(c == 0 for c in
               (y.coeff(k) for k in range(-4, 5)))
    assert y.trunc == 40 - 5


def test_curve_equation_holds():
    for e in (exp5(), exp7()):
        y2 = e.y_series * e.y_series
        px = e.curve.p_at(e.x_series)
        assert y2 == px.truncate(y2.trunc)


def test_v0_leading_term():
    for e in (exp5(), exp7()):
        g = e.curve.genus
        f = e.v0_series.f
        assert f.order() == -(2 * g - 2)
        assert f.coeff(-(2 * g - 2)) == Fraction(-1, 2)
        assert f.trunc == e.precision - 2 * g + 2


def test_holomorphic_integrals_fixture():
    e = exp5()
    g1, g2 = e.h10_basis
    assert g1.order() == 3 and g1.coeff(3) == Fraction(-2, 3)
    assert g1.coeff(13) == Fraction(1, 13)
    assert g2.order() == 1 and g2.coeff(1) == -2
    assert g2.coeff(11) == Fraction(1, 11)
    assert holomorphic_integrals(e) == (e.h10_forms, e.h10_basis)
    e3 = exp7()
    assert [s.order() for s in e3.h10_basis] == [5, 3, 1]
    # rho's table and refusal rest on these (see hodge), at any
    # precision: each g_j^(k) has gap trunc - ord at most the precision,
    # so no column known below z^1 reaches beyond the basis window
    floor = [expand_curve(c, precision_floor(c.genus) + d)
             for c in (C5, C7) for d in (0, 1)]
    for exp in [e, e3, ED, DENSE_G6] + floor:
        g = exp.curve.genus
        for j, s in enumerate(exp.h10_basis, 1):
            assert s.order() == 2 * (g - j) + 1
            assert s.trunc == exp.precision + s.order()
            assert all(x % 2 for x in s.coeffs)
            for k in range(5):
                assert s.trunc - s.min_rule_order() <= exp.precision
                s = derive(s)
        assert exp.h10_basis[-1].coeff(1) == -2


def test_kept_forms_are_the_derivatives_of_the_g_i():
    # the contraction route starts from h_i, not from derive(g_i)
    floor = [expand_curve(c, precision_floor(c.genus)) for c in (C5, C7)]
    for e in [exp5(), exp7(), dense_expansion(61)] + floor:
        assert len(e.h10_forms) == len(e.h10_basis) == e.curve.genus
        for h, g in zip(e.h10_forms, e.h10_basis):
            assert canon(h) == canon(derive(g))


def test_gap_sequences():
    e = exp5()
    assert e.gaps_O == [1, 3]
    assert e.gaps_Theta == [1, 3, 5]
    assert [m for m, _ in e.k0_basis] == [2, 4, 5, 6, 7, 8, 9, 10]
    assert [m for m, _ in e.theta_basis] == [2, 4, 6, 7, 8, 9, 10]
    e3 = exp7()
    assert e3.gaps_O == [1, 3, 5]
    assert e3.gaps_Theta == [1, 2, 3, 5, 7, 9]
    assert len(e3.k0_basis) == (4 * 3 + 2) - 3
    assert len(e3.theta_basis) == (6 * 3 - 2) - 6


def test_basis_membership_and_orders():
    for e in (exp5(), exp7()):
        for m, k in e.k0_basis:
            assert k.order() == -m
            assert k.coeff(-m) == 1
            assert k.in_h_prime()
            assert k.trunc >= e.precision - m
        for m, w in e.theta_basis:
            assert w.f.order() == -m
            assert w.f.coeff(-m) == Fraction(-1, 2)
            assert w.f.trunc >= e.precision - m


def test_k0_isotropic_and_kills_integrals():
    for e in (exp5(), exp7()):
        for _, k in e.k0_basis:
            for _, kk in e.k0_basis:
                assert symplectic_pair(k, kk) == 0
            for gi in e.h10_basis:
                assert symplectic_pair(k, gi) == 0


def test_extended_elements():
    e = exp5()
    assert e.element_of_pole_O(1) is None
    assert e.element_of_pole_O(3) is None
    assert e.element_of_pole_Theta(5) is None
    big = e.element_of_pole_O(27)  # x^11 y minus constant
    assert big.order() == -27 and big.coeff(-27) == 1
    assert big.trunc >= e.precision - 27
    bigt = e.element_of_pole_Theta(25)
    assert bigt.f.order() == -25 and bigt.f.coeff(-25) == Fraction(-1, 2)
    # cache returns the same object
    assert e.element_of_pole_O(27) is big


def test_json_roundtrip():
    obj = curve_to_json(C7, 48)
    assert obj == {"p": ["1/1", "-1/1", "0/1", "0/1", "0/1", "0/1", "0/1",
                         "1/1"],
                   "precision": 48}
    c, n = curve_from_json(obj)
    assert c == C7 and n == 48
    c2, n2 = curve_from_json({"p": ["1", "0", "0", "0", "0", "1"]})
    assert c2 == C5 and n2 is None
    with pytest.raises(ValueError):
        curve_from_json({"p": []})
    with pytest.raises(ValueError):
        curve_from_json({"p": ["1", "0", "0", "0", "0", "1"], "bad": 1})
    with pytest.raises(ValueError):
        curve_from_json({"p": ["1", "0", "0", "0", "0", "1"],
                         "precision": "40"})
    with pytest.raises(ValueError):
        curve_from_json([1])


def reference_expansion(curve, precision):
    """y, 1/y, v0, the holomorphic integrals and every basis element up to
    pole order precision - 2, built by Fraction recurrences and explicit
    products: y from the Fraction sqrt, 1/y = invert(y), x^a y - const and
    x^a * v0 * y."""
    g = curve.genus

    def x_pow(a):
        return LaurentSeries.monomial(-2 * a)

    inner = curve.p_at(x_pow(1)).shift(2 * (2 * g + 1)).truncate(precision)
    y = fraction_sqrt_unit(inner).shift(-(2 * g + 1))
    inv_y = invert(y)
    dx = derive(x_pow(1))
    v0 = y * invert(dx)
    v0_y = v0 * y  # one dense product; x^a * v0 * y = x^a * (v0 * y)
    ref = {"y": y, "1/y": inv_y, "v0": v0}
    for i in range(g):
        ref["g%d" % (i + 1)] = integrate(x_pow(i) * dx * inv_y)
    for m in range(1, precision - 1):
        odd = m - (2 * g + 1)  # odd pole orders come from x^a y
        if m % 2 == 0:
            f = x_pow(m // 2)
        elif odd >= 0:
            f = x_pow(odd // 2) * y
        else:
            f = None
        if f is not None:
            f = f - LaurentSeries.monomial(0, f.coeff(0))
        ref["O%d" % m] = f
        r = m - (2 * g - 2)  # v0 has pole order 2g-2
        if r >= 0 and r % 2 == 0:
            f = x_pow(r // 2) * v0
        elif r - (2 * g + 1) >= 0 and (r - (2 * g + 1)) % 2 == 0:
            f = x_pow((r - (2 * g + 1)) // 2) * v0_y
        else:
            f = None
        ref["T%d" % m] = f
    return ref


def seeded_curves():
    rng = random.Random(2024)
    for g in range(2, 7):
        while True:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(2 * g + 1)]
            try:
                yield HyperellipticCurve(coeffs + [1])
                break
            except ValueError:
                continue  # not squarefree, draw again


def test_expansion_matches_fraction_reference():
    for curve in seeded_curves():
        g = curve.genus
        for precision in (4 * g + 4, 4 * g + 5, 8 * g + 24, 61):
            e = expand_curve(curve, precision)
            ref = reference_expansion(curve, precision)
            got = {"y": e.y_series, "1/y": e._inv_y, "v0": e.v0_series.f}
            for i, gi in enumerate(e.h10_basis):
                got["g%d" % (i + 1)] = gi
            for m in range(1, precision - 1):
                got["O%d" % m] = e.element_of_pole_O(m)
                t = e.element_of_pole_Theta(m)
                got["T%d" % m] = None if t is None else t.f
            assert set(got) == set(ref)
            for key, series in ref.items():
                want = None if series is None else canon(series)
                have = None if got[key] is None else canon(got[key])
                assert have == want, (g, precision, key)
