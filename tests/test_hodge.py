import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from periodjet import hodge
from periodjet.curve import HyperellipticCurve, default_precision, expand_curve
from periodjet.hodge import (
    GapClass, HomMatrix, UnreducibleExponent, duality_det,
    duality_matrix, hom_to_json, is_symmetric_hom, reduce_O,
    reduce_Theta, rho)
from periodjet.laurent import (
    INF, LaurentSeries, PrecisionExhausted, symplectic_pair)
from periodjet.linalg import det, row_echelon
from periodjet.period import ell1_n_contraction
from periodjet.witt import DiffOp, WittElement, phi

from series_reference import fraction_reduce
from test_period import dense_expansion, finer

E5 = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]),
                  default_precision(2))
E7 = expand_curve(HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1]),
                  default_precision(3))
ED = dense_expansion(61)


def random_tail(rng, lo, nterms=4):
    coeffs = {rng.randint(lo, -1): Fraction(rng.randint(-7, 7))
              for _ in range(nterms)}
    return LaurentSeries(coeffs)


def solve_square(a, b):
    """Solve a x = b exactly; a invertible."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    rows, rank = row_echelon(aug)
    assert rank == n
    return [rows[i][n] for i in range(n)]


def test_reduce_O_gap_monomials_and_k0():
    for e in (E5, E7):
        g = e.curve.genus
        for idx, n in enumerate(e.gaps_O):
            cls = reduce_O(LaurentSeries.monomial(-n), e)
            want = [Fraction(0)] * g
            want[idx] = Fraction(1)
            assert cls == GapClass(want, e.gaps_O)
        for _, k in e.k0_basis:
            assert reduce_O(k, e).is_zero()
        # anything in H+ dies too
        assert reduce_O(LaurentSeries({0: 5, 3: 1}), e).is_zero()


def test_reduce_O_linear():
    rng = random.Random(3)
    for e in (E5, E7):
        for _ in range(10):
            f = random_tail(rng, -12)
            h = random_tail(rng, -12)
            a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            lhs = reduce_O(f.scaled(a) + h.scaled(b), e)
            assert lhs.coords == [a * x + b * y for x, y in
                                  zip(reduce_O(f, e).coords,
                                      reduce_O(h, e).coords)]


def test_reduce_O_against_duality_solve():
    # independent oracle: pairing with the g_i determines the class, since
    # <g_i, .> kills H+ and K0 and D is invertible
    rng = random.Random(9)
    for e in (E5, E7):
        d = duality_matrix(e)
        for _ in range(10):
            h = random_tail(rng, -14, nterms=5)
            rhs = [symplectic_pair(gi, h) for gi in e.h10_basis]
            assert reduce_O(h, e).coords == solve_square(d, rhs)


def span_oracle(e, element_at, gaps, reduce, inputs):
    """Each input minus its class's gap representative lies in the span
    of the realized elements of pole order up to precision - 2, modulo
    the nonnegative powers: every order in that window is a gap or
    realized, so a reduction never meets an order that is neither."""
    top = e.precision - 2
    window = range(-top, 0)
    elems = [(m, element_at(m)) for m in range(1, top + 1)]
    assert all((m in gaps) != (x is not None) for m, x in elems)
    rows = [[x.coeff(k) for k in window] for _, x in elems if x is not None]
    resids = []
    for h in inputs:
        cls = reduce(h, e)
        resid = h - LaurentSeries(
            {-n: c for n, c in zip(gaps, cls.coords)})
        resids.append([resid.coeff(k) for k in window])
    # one elimination: all residuals lie in the span iff adding them
    # leaves the rank unchanged
    assert row_echelon(rows + resids)[1] == row_echelon(rows)[1]


def test_reduce_O_span_oracle():
    rng = random.Random(15)
    for e in (E5, E7, ED):
        monomials = [LaurentSeries.monomial(-m)
                     for m in range(1, e.precision - 1)]
        tails = [random_tail(rng, -14, nterms=5) for _ in range(10)]
        span_oracle(e, e.element_of_pole_O, e.gaps_O, reduce_O,
                    monomials + tails)


def test_reduce_O_errors():
    with pytest.raises(PrecisionExhausted):
        reduce_O(LaurentSeries({-2: 1}, 0), E5)
    # the basis window of both quotients is the precision P: the poles
    # P - 1 and P reduce to their classes at P + 30, and P + 1 is refused
    e = expand_curve(E5.curve, 30)
    for exp in (E5, e):
        fine = finer(exp)
        for reduce, lift, what in ((reduce_O, lambda h: h, "H^1(O)"),
                                   (reduce_Theta, WittElement,
                                    "H^1(Theta)")):
            for m in (exp.precision - 1, exp.precision):
                h = lift(LaurentSeries.monomial(-m))
                assert reduce(h, exp) == reduce(h, fine)
            with pytest.raises(UnreducibleExponent) as info:
                reduce(lift(LaurentSeries.monomial(-exp.precision - 1)), exp)
            assert str(info.value) == (
                "%s reduction hit pole order %d, beyond the basis window "
                "%d at this precision"
                % (what, exp.precision + 1, exp.precision))
    assert len(reduce_O(LaurentSeries.monomial(-29), e).coords) == 2
    assert len(reduce_Theta(WittElement.monomial(-29), e).coords) == 3


def test_reduce_Theta_gap_fields_and_theta():
    for e in (E5, E7):
        for idx, n in enumerate(e.gaps_Theta):
            cls = reduce_Theta(WittElement.monomial(-n), e)
            want = [Fraction(0)] * (3 * e.curve.genus - 3)
            want[idx] = Fraction(1)
            assert cls == GapClass(want, e.gaps_Theta)
        for _, w in e.theta_basis:
            assert reduce_Theta(w, e).is_zero()
        assert reduce_Theta(WittElement.monomial(0), e).is_zero()
        assert reduce_Theta(WittElement.monomial(4, 7), e).is_zero()


def test_reduce_Theta_span_oracle():
    rng = random.Random(21)
    for e in (E5, E7, ED):
        monomials = [LaurentSeries.monomial(-m)
                     for m in range(1, e.precision - 1)]
        tails = [random_tail(rng, -16, nterms=5) for _ in range(10)]
        span_oracle(e, lambda m: getattr(e.element_of_pole_Theta(m), "f",
                                         None), e.gaps_Theta,
                    lambda h, e: reduce_Theta(WittElement(h), e),
                    monomials + tails)
        # Serre duality: the quadratic differentials pair nondegenerately
        # with the gap fields
        _, _, d, _, _ = hodge._quotient(e, hodge._pairing_Theta)
        assert len(d) == len(e.gaps_Theta) == 3 * e.curve.genus - 3
        assert det(d) != 0


def test_reduce_Theta_trunc_floor():
    # trunc >= 0 suffices for fields (remainder only needs ord >= 0)
    cls = reduce_Theta(WittElement(LaurentSeries({-1: 1}, 0)), E5)
    assert cls.coords[0] == 1
    with pytest.raises(PrecisionExhausted):
        reduce_Theta(WittElement(LaurentSeries({-2: 1}, -1)), E5)


def test_duality_matrix_fixture():
    d = duality_matrix(E5)
    assert d == [[0, 2], [2, 0]]
    assert duality_det(E5) == -4
    assert duality_det(E7) != 0
    # pairing formula: <g_i, z^-n> = -n * coeff(g_i, n)
    for e in (E5, E7):
        d = duality_matrix(e)
        for i, gi in enumerate(e.h10_basis):
            for j, n in enumerate(e.gaps_O):
                assert d[i][j] == -n * gi.coeff(n)
                assert d[i][j] == -symplectic_pair(
                    LaurentSeries.monomial(-n), gi)


def test_duality_class_invariance():
    # adding a K0 element to the gap monomial does not move the pairing
    for e in (E5, E7):
        _, k = e.k0_basis[2]
        for i, gi in enumerate(e.h10_basis):
            for j, n in enumerate(e.gaps_O):
                shifted = LaurentSeries.monomial(-n) + k
                assert symplectic_pair(gi, shifted) == duality_matrix(e)[i][j]


def test_rho_zero_and_theta_kernel():
    for e in (E5, E7):
        assert rho(DiffOp.zero(), e).is_zero()
        for _, w in e.theta_basis:
            assert rho(phi(w), e).is_zero()


def test_rho_symmetry_criterion():
    rng = random.Random(27)
    for e in (E5, E7):
        for _ in range(8):
            zeta = WittElement(random_tail(rng, -6, nterms=3) +
                               LaurentSeries.monomial(rng.randint(0, 4)))
            m = rho(phi(zeta), e)
            assert is_symmetric_hom(m, e)
    # negative control: an operator that is not symplectic
    skew = DiffOp({2: LaurentSeries.monomial(-2)})
    assert not is_symmetric_hom(rho(skew, E5), E5)


def test_hom_matrix_json():
    m = HomMatrix([[Fraction(1, 2), 0], [-3, 4]], [1, 3])
    obj = hom_to_json(m)
    assert obj == {"basis_gaps": [1, 3],
                   "entries": [["1/2", "0/1"], ["-3/1", "4/1"]]}
    # the gaps are kept as a tuple, and printed as a list
    assert m.basis_gaps == (1, 3)
    assert repr(m) == ("HomMatrix([[Fraction(1, 2), Fraction(0, 1)], "
                       "[Fraction(-3, 1), Fraction(4, 1)]], "
                       "basis_gaps=[1, 3])")
    assert repr(rho(phi(WittElement.monomial(-3)), E5)).endswith(
        "basis_gaps=[1, 3])")
    with pytest.raises(ValueError):
        HomMatrix([[1, 2]], [1, 3])


def test_hom_matrix_arithmetic():
    a = HomMatrix([[1, 2], [3, 4]], [1, 3])
    b = HomMatrix([[0, 1], [1, 0]], [1, 3])
    assert (a + b).entries == [[1, 3], [4, 4]]
    assert (a - b).entries == [[1, 1], [2, 4]]
    assert a.scaled(Fraction(1, 2)).entries == [[Fraction(1, 2), 1],
                                                [Fraction(3, 2), 2]]
    # one value, one representation: a sum that cancels a factor of its
    # denominator equals the matrix written in lowest terms
    c = HomMatrix([[Fraction(1, 6), Fraction(1, 3)], [0, 1]], [1, 3]) + \
        HomMatrix([[Fraction(1, 3), Fraction(-1, 3)], [0, 0]], [1, 3])
    assert c == HomMatrix([[Fraction(2, 4), 0], [0, 1]], [1, 3]) == \
        HomMatrix([["1/2", 0], [0, "3/3"]], [1, 3])
    assert (c.numerators, c.denominator) == ((1, 0, 0, 2), 2)
    with pytest.raises(ValueError):
        a + HomMatrix([[0]], [2])


def assert_normal_form(m):
    """The matrix fields as the constructor leaves them: g x g row-major
    int numerators over a positive denominator, in lowest terms, 1 for
    the zero matrix."""
    g = len(m.basis_gaps)
    assert type(m.numerators) is tuple and len(m.numerators) == g * g
    assert all(type(x) is int for x in m.numerators + (m.denominator,))
    assert m.denominator > 0
    assert gcd(m.denominator, *m.numerators) == 1
    assert m.is_zero() == (not any(m.numerators))
    if m.is_zero():
        assert m.denominator == 1
    assert m == HomMatrix(m.entries, m.basis_gaps)


def test_internal_results_meet_the_constructor_invariant():
    # classes and matrices the library builds skip validation; they must
    # hold what the public constructors would: fresh lists of Fractions,
    # and for a matrix its normal form over a gaps tuple, which needs no
    # fresh copy
    rng = random.Random(61)
    a = HomMatrix([[1, 2], [3, 4]], [1, 3])
    matrices = [a + a, a - a, a.scaled(1), a.scaled(-1), a.scaled(0),
                a.scaled(Fraction(2, 3))]
    classes = []
    for e in (E5, E7, ED):
        matrices.append(rho(DiffOp.zero(), e))
        for _ in range(4):
            tail = random_tail(rng, -6, nterms=3)
            zeta = WittElement(tail)
            # the table path, and the columns of the contraction route
            matrices += [rho(phi(zeta), e), ell1_n_contraction([zeta], e)]
            classes += [reduce_O(tail, e), reduce_Theta(zeta, e)]
        table, columns = matrices[-2:]
        matrices += [table + columns, table - columns, columns.scaled(0),
                     columns.scaled(-1), table.scaled(Fraction(-7, 6))]
        for m in matrices[-14:]:
            assert type(m.basis_gaps) is tuple
            assert m.basis_gaps == tuple(e.gaps_O)
    for m in matrices:
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert_normal_form(m)
    for m in matrices[:4]:
        assert all(r is not s for r, s in zip(m.entries, a.entries))
        assert m.basis_gaps == a.basis_gaps == (1, 3)
    for c in classes:
        assert all(type(x) is Fraction for x in c.coords)
        assert c == GapClass(c.coords, c.gaps)
    assert classes[0].gaps is not E5.gaps_O


def rational_matrix(g):
    return st.lists(st.lists(st.fractions(-30, 30, max_denominator=12),
                             min_size=g, max_size=g), min_size=g, max_size=g)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matrix_arithmetic_keeps_the_normal_form(data):
    # sums, differences and multiples on the numerators are the Fraction
    # arithmetic on the entries, brought to lowest terms
    g = data.draw(st.integers(1, 3))
    gaps = list(range(1, 2 * g, 2))
    x, y = data.draw(rational_matrix(g)), data.draw(rational_matrix(g))
    c = data.draw(st.sampled_from([0, 1, -1]) |
                  st.fractions(-9, 9, max_denominator=9))
    a, b = HomMatrix(x, gaps), HomMatrix(y, gaps)
    for m, rows in ((a + b, [[p + q for p, q in zip(r, s)]
                             for r, s in zip(x, y)]),
                    (a - b, [[p - q for p, q in zip(r, s)]
                             for r, s in zip(x, y)]),
                    (a - a, [[0] * g] * g),
                    (a.scaled(c), [[c * p for p in r] for r in x])):
        assert_normal_form(m)
        assert m.entries == rows
        assert m == HomMatrix(rows, gaps)
        assert m.is_zero() == all(p == 0 for r in rows for p in r)
    assert (a == b) == (x == y)


def test_duality_matrix_is_built_once_per_expansion(monkeypatch):
    # D of H^1(O) is built from the quotient's pairing, once: reductions,
    # the symmetry test, the determinant and the public copy share it
    built = []
    build = hodge._pairing_O
    monkeypatch.setattr(hodge, "_pairing_O",
                        lambda exp: built.append(exp) or build(exp))
    exp = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]), 30)
    m = rho(phi(WittElement.monomial(-1)), exp)
    for _ in range(3):
        assert is_symmetric_hom(m, exp)
        assert duality_det(exp) == -4
        d = duality_matrix(exp)
        assert d == [[0, 2], [2, 0]]
        d[0][0] = 7  # a fresh copy: the record's D does not move
    assert duality_det(exp) == -4
    assert built == [exp]


MONOTONE = [(e, expand_curve(e.curve, e.precision + 8)) for e in (E5, E7, ED)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reductions_are_monotone_in_precision(data):
    # a tail with poles up to the basis window, the precision P, reduces
    # to the same class on the same curve expanded at P + 8 and P + 30
    e, plus8 = data.draw(st.sampled_from(MONOTONE))
    coeffs = data.draw(st.dictionaries(
        st.integers(-e.precision, 6),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
        max_size=6))
    h = LaurentSeries(coeffs, data.draw(st.integers(1, e.precision)))
    zeta = WittElement(h)
    for fine in (plus8, finer(e)):
        assert reduce_O(h, e) == reduce_O(h, fine)
        assert reduce_Theta(zeta, e) == reduce_Theta(zeta, fine)


def reduction_inputs(exp):
    """Series with poles at small orders and at the edge of the basis
    window, one past it included, and terms at exponents >= 0, over
    small and large denominators; exact, or known below a truncation at,
    just below or above the floors 0 and 1, or farther up; and zeros,
    exact or known below such a truncation."""
    edge = exp.precision
    exponents = st.integers(-edge, -1) | st.integers(-8, 4) | st.integers(
        -edge - 1, -edge + 2)
    coefficients = st.fractions(-9, 9, max_denominator=12) | st.fractions(
        -10 ** 6, 10 ** 6, max_denominator=10 ** 6)
    truncations = st.just(INF) | st.integers(-1, 3) | st.integers(
        4, exp.precision)
    series = st.builds(LaurentSeries, st.dictionaries(
        exponents, coefficients, min_size=1, max_size=6), truncations)
    return series | series | series | st.builds(LaurentSeries.zero,
                                                truncations)


# built once per curve: one input, and a column for each gap of H^1(O)
REDUCTION_INPUTS = {exp: reduction_inputs(exp) for exp in (E5, E7, ED)}
COLUMNS = {exp: st.lists(s, min_size=len(exp.gaps_O),
                         max_size=len(exp.gaps_O))
           for exp, s in REDUCTION_INPUTS.items()}
QUOTIENTS = [(reduce_O, 1, "H^1(O)", hodge._pairing_O, lambda h: h),
             (reduce_Theta, 0, "H^1(Theta)", hodge._pairing_Theta,
              WittElement)]


def coordinates(fn, *args):
    """The coordinates of fn's class, or the type and message of its
    refusal."""
    try:
        got = fn(*args)
    except (PrecisionExhausted, UnreducibleExponent) as e:
        return type(e), str(e)
    return got.coords if isinstance(got, GapClass) else got


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reductions_are_the_fraction_sum(exp, data):
    # the integer class table and sum give the coordinates of the
    # Fraction sum sum_m c_(-m) D^-1 p(m), or its refusal
    h = data.draw(REDUCTION_INPUTS[exp])
    for reduce, min_trunc, what, pairing, lift in QUOTIENTS:
        got = coordinates(reduce, lift(h), exp)
        assert got == coordinates(fraction_reduce, h, exp, min_trunc, what,
                                  pairing)
        if isinstance(got, list):
            assert all(type(c) is Fraction for c in got)
            assert reduce(lift(h), exp).gaps == list(pairing(exp)[1])
            assert got == reduce(lift(h), finer(exp)).coords  # at P + 30


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matrix_of_columns_is_the_fraction_reference(exp, data):
    # column j is the Fraction class of the j-th series, and a refusal
    # is that of the first column that refuses, raised before the next
    # column is formed
    cols = data.draw(COLUMNS[exp])
    formed = []

    def columns():
        for s in cols:
            formed.append(s)
            yield s

    def reference():
        classes = [fraction_reduce(s, exp, 1, "H^1(O)", hodge._pairing_O)
                   for s in cols]
        return HomMatrix([[c[i] for c in classes]
                          for i in range(len(cols))], exp.gaps_O)

    want = coordinates(reference)
    got = coordinates(hodge._matrix_of_columns, columns(), exp)
    assert got == want
    if not isinstance(got, tuple):  # the matrix at P + 30
        assert got == hodge._matrix_of_columns(cols, finer(exp))
    if isinstance(want, tuple):
        assert len(formed) == next(
            j + 1 for j, s in enumerate(cols) if isinstance(
                coordinates(fraction_reduce, s, exp, 1, "H^1(O)",
                            hodge._pairing_O), tuple))
    else:
        assert got.basis_gaps is hodge._gaps_O(exp)
        assert_normal_form(got)
