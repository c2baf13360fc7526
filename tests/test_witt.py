import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodjet.laurent import (
    INF, LaurentSeries, PrecisionExhausted, derive, symplectic_pair)
from periodjet import witt
from periodjet.period import T2Rep, canonical_second_rep
from periodjet.witt import (
    DiffOp, WittElement, diffop_apply, diffop_compose, phi, sp_witness,
    witt_bracket)

from series_reference import full_bracket, full_compose, scaled


def random_field(rng, lo=-5, hi=6, nterms=3):
    coeffs = {rng.randint(lo, hi): Fraction(rng.randint(-5, 5))
              for _ in range(nterms)}
    return WittElement(LaurentSeries(coeffs))


def test_bracket_monomials():
    # [z^{a+1} d/dz, z^{b+1} d/dz] = (b-a) z^{a+b+1} d/dz
    assert witt_bracket(WittElement.monomial(1), WittElement.monomial(2)) == \
        WittElement.monomial(2)
    for a in range(-3, 4):
        for b in range(-3, 4):
            lhs = witt_bracket(WittElement.monomial(a + 1),
                               WittElement.monomial(b + 1))
            assert lhs == WittElement.monomial(a + b + 1, b - a)
            assert not (lhs != WittElement.monomial(a + b + 1, b - a))
            assert lhs != WittElement.monomial(a + b + 1, b - a + 1)
    assert WittElement.monomial(0) != LaurentSeries.one()


def test_bracket_alternating_and_jacobi():
    rng = random.Random(5)
    for _ in range(10):
        z = random_field(rng)
        assert witt_bracket(z, z) == WittElement(LaurentSeries.zero())
    a = WittElement.monomial(-1)
    b = WittElement.monomial(0)
    c = WittElement.monomial(3)
    jac = witt_bracket(a, witt_bracket(b, c)) + \
        witt_bracket(b, witt_bracket(c, a)) + \
        witt_bracket(c, witt_bracket(a, b))
    assert jac == WittElement(LaurentSeries.zero())


def test_phi_on_monomials():
    euler = phi(WittElement.monomial(1))
    for j in range(-6, 7):
        assert diffop_apply(euler, LaurentSeries.monomial(j)) == \
            LaurentSeries.monomial(j, j)
    for k in range(-4, 5):
        op = phi(WittElement.monomial(k + 1))
        for m in range(-6, 7):
            assert diffop_apply(op, LaurentSeries.monomial(m)) == \
                LaurentSeries.monomial(m + k, m)


def test_phi_is_lie_homomorphism():
    for a in range(-4, 5):
        for b in range(-4, 5):
            za = WittElement.monomial(a)
            zb = WittElement.monomial(b)
            lhs = phi(witt_bracket(za, zb))
            rhs = diffop_compose(phi(za), phi(zb)) - \
                diffop_compose(phi(zb), phi(za))
            assert lhs == rhs, (a, b)


def test_diffop_apply_basics():
    d = DiffOp({1: LaurentSeries.one()})
    g = LaurentSeries({-2: 3, 5: Fraction(1, 7)}, 9)
    assert diffop_apply(d, g) == derive(g)
    # second-derivative mix on an exact cubic
    op = DiffOp({1: LaurentSeries.monomial(-3, -1),
                 2: LaurentSeries.monomial(-2)})
    g = LaurentSeries.monomial(3, Fraction(-2, 3))
    assert diffop_apply(op, g) == LaurentSeries.monomial(-1, -2)
    assert diffop_apply(DiffOp.zero(), g) == LaurentSeries.zero()
    assert diffop_apply(DiffOp.zero(), g).trunc is INF


def test_compose_order_one_formula():
    rng = random.Random(11)
    for _ in range(15):
        f1 = random_field(rng).f
        f2 = random_field(rng).f
        got = diffop_compose(DiffOp({1: f2}), DiffOp({1: f1}))
        want = DiffOp({1: f2 * derive(f1), 2: f1 * f2})
        assert got == want


def test_compose_with_plain_derivative_shifts_orders():
    op = DiffOp({1: LaurentSeries.monomial(2, 5),
                 3: LaurentSeries.monomial(-1)})
    shifted = diffop_compose(op, DiffOp({1: LaurentSeries.one()}))
    assert shifted == DiffOp({2: LaurentSeries.monomial(2, 5),
                              4: LaurentSeries.monomial(-1)})


def test_compose_matches_apply():
    rng = random.Random(17)
    for _ in range(15):
        w = DiffOp({1: random_field(rng).f, 2: random_field(rng).f})
        v = DiffOp({1: random_field(rng).f, 3: random_field(rng).f})
        g = LaurentSeries({rng.randint(-4, 6): Fraction(rng.randint(-5, 5))
                           for _ in range(4)})
        assert diffop_apply(diffop_compose(w, v), g) == \
            diffop_apply(w, diffop_apply(v, g))


def test_compose_associative():
    rng = random.Random(23)
    for _ in range(8):
        a = DiffOp({1: random_field(rng).f})
        b = DiffOp({1: random_field(rng).f, 2: random_field(rng).f})
        c = DiffOp({2: random_field(rng).f})
        assert diffop_compose(diffop_compose(a, b), c) == \
            diffop_compose(a, diffop_compose(b, c))


def test_sp_witness():
    rng = random.Random(29)
    for _ in range(10):
        assert sp_witness(phi(random_field(rng)), 8)
    # the plain derivative is phi(d/dz), hence symplectic
    assert sp_witness(DiffOp({1: LaurentSeries.one()}), 8)
    # the second derivative is not: a=3, b=-1 already separates the sides
    assert not sp_witness(DiffOp({2: LaurentSeries.one()}), 4)
    assert sp_witness(DiffOp.zero(), 8)


def test_sp_witness_precision():
    hidden = DiffOp({1: LaurentSeries({-30: 1}, -25)})
    with pytest.raises(PrecisionExhausted):
        sp_witness(hidden, 8)


def sp_witness_by_pairing(op, radius):
    """sp_witness written with laurent.symplectic_pair, pair by pair in
    the same order."""
    monomials = {e: LaurentSeries.monomial(e)
                 for e in range(-radius, radius + 1) if e != 0}
    images = {a: diffop_apply(op, za) for a, za in monomials.items()}
    for a, za in monomials.items():
        for b, zb in monomials.items():
            if b >= a and (symplectic_pair(images[a], zb)
                           != symplectic_pair(images[b], za)):
                return False
    return True


# what witness_operators draws from, built once: the orders, and per
# order terms over mixed denominators and a truncation, exact or finite
WITNESS_ORDERS = st.sets(st.integers(1, 3), max_size=3)
WITNESS_TERMS = st.dictionaries(
    st.integers(-8, 8), st.fractions(-3, 3, max_denominator=4), max_size=4)
WITNESS_TRUNCATIONS = st.one_of(st.just(INF), st.integers(-8, 12))


@st.composite
def witness_operators(draw):
    """Operators of order at most 3 whose coefficients are exact or known
    only below a truncation drawn per order; order-1 ones are
    phi-images."""
    terms = {}
    for k in draw(WITNESS_ORDERS):
        terms[k] = LaurentSeries(draw(WITNESS_TERMS),
                                 draw(WITNESS_TRUNCATIONS))
    return DiffOp(terms)


def _witness_outcome(fn, op, radius):
    try:
        return fn(op, radius)
    except PrecisionExhausted as e:
        return type(e), str(e)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(witness_operators(), st.integers(1, 8))
def test_sp_witness_matches_the_pairing(op, radius):
    got = _witness_outcome(sp_witness, op, radius)
    assert got == _witness_outcome(sp_witness_by_pairing, op, radius)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(witness_operators(), witness_operators(), st.integers(-14, 16))
def test_bounded_compose_is_the_truncated_full_composition(w, v, below):
    bounded = diffop_compose(w, v, below)
    full = diffop_compose(w, v)
    # an order whose full coefficient is exact zero is absent from it
    zero = LaurentSeries.zero()
    orders = bounded.terms.keys() | full.terms.keys()
    assert {k: bounded.terms.get(k, zero) for k in orders} == \
        {k: full.terms.get(k, zero).truncate(below) for k in orders}


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=9)
NONZERO_RATIONALS = RATIONALS.filter(bool)
# what compose_coefficients draws from, built once: a truncation, exact
# or finite, the kind of coefficient, its terms, or its one term
TRUNCATIONS = st.one_of(st.just(INF), st.integers(-6, 10))
FINITE_TRUNCATIONS = st.integers(-6, 10)
COEFFICIENT_KINDS = st.sampled_from(["terms", "one term", "visible zero"])
EXPONENTS = st.integers(-6, 6)
TERMS = st.dictionaries(EXPONENTS, RATIONALS, min_size=2, max_size=6)
ONE_TERM = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                     NONZERO_RATIONALS)


@st.composite
def compose_coefficients(draw):
    """An operator coefficient: terms over mixed denominators, one term
    c z^e with c = 1, -1 or a general rational, or a visible zero; exact
    or known only below a drawn truncation."""
    trunc = draw(TRUNCATIONS)
    kind = draw(COEFFICIENT_KINDS)
    if kind == "terms":
        coeffs = draw(TERMS)
    elif kind == "one term":
        c = draw(ONE_TERM)
        coeffs = {draw(EXPONENTS): c}
    else:
        coeffs, trunc = {}, draw(FINITE_TRUNCATIONS)
    return LaurentSeries(coeffs, trunc)


COEFFICIENTS = compose_coefficients()
# the orders of an operator, and of an order m holding b beside -b' at
# m - 1
ORDERS = st.sets(st.integers(1, 3), min_size=1, max_size=3)
CANCELLING_ORDERS = st.integers(2, 3)


@st.composite
def compose_operators(draw):
    """Operators of orders k <= 3. Some hold b at order m and -b' at
    order m - 1, so that a D composed with them sums a b' and -a b' at
    order m: pieces that cancel within an order."""
    terms = {k: draw(COEFFICIENTS) for k in draw(ORDERS)}
    if draw(st.booleans()):
        m = draw(CANCELLING_ORDERS)
        terms[m] = draw(COEFFICIENTS)
        terms[m - 1] = -derive(terms[m])
    return DiffOp(terms)


# the weights of the words a composition is collected with: 1, -1, the
# 1/2 of a symmetric pair, and a general p/q
WEIGHTS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                           Fraction(-1, 2)]) | NONZERO_RATIONALS


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(compose_operators(), compose_operators(),
       st.one_of(st.just(INF), st.integers(-14, 16)), WEIGHTS)
def test_compose_is_the_truncated_leibniz_reference(w, v, below, c):
    pieces = {}
    witt._collect(witt._numerators(w.terms), witt._numerators(v.terms),
                  below, c, pieces)
    got = DiffOp({k: a.series()
                  for k, a in witt._summed(pieces, below).items()})
    if c == 1:
        assert diffop_compose(w, v, below) == got
    full = scaled(full_compose(w, v), c)
    # an order whose full coefficient is exact zero is absent from it
    zero = LaurentSeries.zero()
    orders = got.terms.keys() | full.terms.keys()
    assert {k: got.terms.get(k, zero) for k in orders} == \
        {k: full.terms.get(k, zero).truncate(below) for k in orders}
    for a in got.terms.values():  # the constructor's invariant
        assert a.trunc is INF or type(a.trunc) is int
        assert all(type(e) is int and type(c) is Fraction and c and
                   e < a.trunc for e, c in a.coeffs.items())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(compose_operators(), compose_operators(),
       st.one_of(st.just(INF), st.integers(-14, 16)), WEIGHTS,
       st.booleans())
def test_sketch_is_the_truncation_and_order_of_the_sum(
        w, v, below, c, cancel):
    # read off the pieces without forming them, the sketch of each order
    # is its sum's truncation and min-rule order, or a bound below that
    # order where lowest terms cancel; collecting w o v at c and -c
    # cancels them all
    pieces = {}
    w, v = witt._numerators(w.terms), witt._numerators(v.terms)
    witt._collect(w, v, below, c, pieces)
    if cancel:
        witt._collect(w, v, below, -c, pieces)
    for group in pieces.values():
        total = witt._sum_below(group, below)
        t, o, exact = witt._sketch(group, below)
        assert total.trunc == t
        if exact:
            assert total.min_rule_order() == o
        else:
            assert total.min_rule_order() > o


BRACKET_COEFFICIENTS = COEFFICIENTS | st.just(LaurentSeries.zero())
ZERO_OR_MONOMIAL = st.sampled_from([LaurentSeries.zero()]) | st.builds(
    LaurentSeries.monomial, EXPONENTS, NONZERO_RATIONALS)


@st.composite
def bracket_pairs(draw):
    """Two fields whose coefficients are drawn as compose_coefficients,
    or exact zero; some pairs are a and r a + s, with s a one-term field
    or zero, so that the two products cancel in whole or in part."""
    a = draw(BRACKET_COEFFICIENTS)
    if draw(st.booleans()):
        r = draw(NONZERO_RATIONALS)
        s = draw(ZERO_OR_MONOMIAL)
        b = a.scaled(r) + s
    else:
        b = draw(BRACKET_COEFFICIENTS)
    pair = [WittElement(a), WittElement(b)]
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(bracket_pairs())
def test_bracket_is_the_fraction_reference(pair):
    a, b = pair
    got = witt_bracket(a, b)
    assert got == WittElement(full_bracket(a, b))
    f = got.f  # the constructor's invariant
    assert f.trunc is INF or type(f.trunc) is int
    assert all(type(e) is int and type(c) is Fraction and c and e < f.trunc
               for e, c in f.coeffs.items())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(bracket_pairs())
def test_canonical_representative_is_the_halved_bracket(pair):
    # upsilon, summed once at weights +-1/2, is the bracket formed and
    # then halved, term for term in the same order, with the same types
    zeta, xi = pair
    rep = canonical_second_rep(zeta, xi)
    want = witt_bracket(xi, zeta).scaled(Fraction(1, 2)).f
    got = rep.upsilon.f
    assert [(e, type(c), c) for e, c in got.coeffs.items()] == \
        [(e, type(c), c) for e, c in want.coeffs.items()]
    assert (type(got.trunc), got.trunc) == (type(want.trunc), want.trunc)
    assert (got.trunc is INF) == (want.trunc is INF)
    assert repr(got) == repr(want)
    assert rep == T2Rep(WittElement(want), [(zeta, xi)])


def test_bracket_of_far_apart_fields_takes_memory_in_their_terms():
    # exponents 2 10^7 apart: the bracket has three terms, formed in
    # memory that grows with them, not with the span between them
    a = WittElement(LaurentSeries({-10 ** 7: 1, 0: 1}))
    b = WittElement(LaurentSeries({1: 1, 10 ** 7: 3}, 2 * 10 ** 7))
    tracemalloc.start()
    try:
        got = witt_bracket(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert got == WittElement(full_bracket(a, b))
    assert len(got.f.coeffs) == 3


def test_diffop_constructor_invariants():
    with pytest.raises(ValueError):
        DiffOp({0: LaurentSeries.one()})
    with pytest.raises(ValueError):
        DiffOp({-1: LaurentSeries.one()})
    with pytest.raises(ValueError):
        DiffOp({1: "not a series"})
    assert DiffOp({1: LaurentSeries.zero()}) == DiffOp.zero()
    assert not (DiffOp({1: LaurentSeries.zero()}) != DiffOp.zero())
    assert DiffOp({2: LaurentSeries.one()}).max_order() == 2
    # a zero known only below z^-3 is kept: its truncation bounds the image
    unknown = DiffOp({1: LaurentSeries.zero(-3)})
    assert unknown != DiffOp.zero()
    assert DiffOp.zero() != None  # noqa: E711 (a foreign operand)
    image = diffop_apply(unknown, LaurentSeries.monomial(-2))
    assert image.is_visible_zero() and image.trunc == -6
