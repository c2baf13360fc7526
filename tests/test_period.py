import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from periodjet import hodge, laurent, period, witt
from periodjet.curve import (
    HyperellipticCurve, default_precision, expand_curve, precision_floor)
from periodjet.hodge import (
    HomMatrix, UnreducibleExponent, _table_rho, is_symmetric_hom,
    reduce_O, reduce_Theta, rho)
from periodjet.laurent import (
    INF, LaurentSeries, PrecisionExhausted, derive, product_below)
from periodjet.period import (
    DEFAULT_MAX_ORDER, JetImage, SymProductSum, T2Rep, UnsupportedOrder,
    _set_partitions, canonical_second_rep, d2Phi, ell2, ell2_via_lie, ell1_n,
    ell1_n_contraction, ell_k_n, fundamental_form_II, in_nu1_image,
    jet_to_json, nu1, nu1_image_generators, nu2,
    sym_sum_to_json, t2rep_from_json)
from periodjet.witt import (
    DiffOp, WittElement, diffop_compose, phi, witt_bracket)

from series_reference import (
    full_contraction, full_nu2, full_operator_route, full_rho, lie_on_form)

E5 = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]),
                  default_precision(2))
E7 = expand_curve(HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1]),
                  default_precision(3))


def dense_expansion(seed, genus=3, precision=60):
    """A seeded monic curve whose other coefficients are p/q with |p|,
    q <= 9: its deep rho table entries have denominators with odd prime
    factors, where the fixtures' have powers of two."""
    rng = random.Random(seed)
    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(2 * genus + 1)]
        try:
            return expand_curve(HyperellipticCurve(coeffs + [1]), precision)
        except ValueError:  # p not squarefree
            continue


ED = dense_expansion(61)


def mono(k, c=1):
    return WittElement.monomial(k, c)


def random_field(rng, lo=-6, hi=6, max_terms=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        coeffs[rng.randint(lo, hi)] = Fraction(c)
    return WittElement(LaurentSeries(coeffs))


# --- first differential ---------------------------------------------------

def test_nu1_vanishes_on_trivial_directions():
    for exp in (E5, E7):
        zero = HomMatrix([[0] * len(exp.gaps_O)
                          for _ in exp.gaps_O], exp.gaps_O)
        assert nu1(mono(3), exp) == zero
        assert nu1(mono(4), exp) == zero
        for _, t in exp.theta_basis:
            assert nu1(t, exp) == zero


def test_nu1_depends_only_on_theta_class():
    rng = random.Random(20260817)
    for exp in (E5, E7):
        for _ in range(5):
            zeta = random_field(rng)
            trivial = exp.theta_basis[0][1].scaled(rng.randint(1, 4)) + \
                mono(5, rng.randint(-3, 3))
            assert nu1(zeta + trivial, exp) == nu1(zeta, exp)


def test_nu1_frozen_values():
    # hand-reduced from g_1 = -2/3 z^3 + ..., g_2 = -2 z + z^11/11 + ...
    assert nu1(mono(-1), E5) == HomMatrix([[0, 2], [0, 0]], [1, 3])
    assert nu1(mono(-3), E5) == HomMatrix([[2, 0], [0, 2]], [1, 3])
    assert nu1(mono(-5), E5) == HomMatrix([[0, 0], [2, 0]], [1, 3])


def test_nu1_gap_fields_symmetric_and_nonzero():
    # z^-n d/dz for odd gaps n deforms nontrivially; the even-gap direction
    # of the genus-3 curve is the classical rank drop of the period map on
    # the hyperelliptic locus (kernel dimension g-2), so its matrix is zero
    for exp in (E5, E7):
        for n, m in zip(exp.gaps_Theta, nu1_image_generators(exp)):
            assert is_symmetric_hom(m, exp)
            assert m.is_zero() == (n % 2 == 0)


def test_nu1_linear():
    rng = random.Random(7)
    for exp in (E5, E7):
        a, b = random_field(rng), random_field(rng)
        assert nu1(a + b, exp) == nu1(a, exp) + nu1(b, exp)
        assert nu1(a.scaled(Fraction(3, 2)), exp) == \
            nu1(a, exp).scaled(Fraction(3, 2))


# --- second differential, linear part -------------------------------------

def test_ell2_frozen_value():
    m = ell2(mono(-1), mono(-1), E5)
    assert m == HomMatrix([[-2, 0], [0, 2]], [1, 3])
    assert ell2_via_lie(mono(-1), mono(-1), E5) == m
    # the symmetric composition of two sp operators pairs antisymmetrically,
    # so this matrix is NOT duality-symmetric (nu1 matrices always are)
    assert not is_symmetric_hom(m, E5)


def test_ell2_equals_contraction_route():
    rng = random.Random(11)
    for exp in (E5, E7):
        for _ in range(8):
            f1, f2 = random_field(rng), random_field(rng)
            assert ell2(f1, f2, exp) == ell2_via_lie(f1, f2, exp)


def test_ell2_bilinear():
    rng = random.Random(13)
    exp = E5
    a, b, c = (random_field(rng) for _ in range(3))
    assert ell2(a + b, c, exp) == ell2(a, c, exp) + ell2(b, c, exp)
    assert ell2(a, b + c, exp) == ell2(a, b, exp) + ell2(a, c, exp)
    assert ell2(a.scaled(5), b, exp) == ell2(a, b, exp).scaled(5)
    zero = WittElement(LaurentSeries.zero())
    assert ell2(zero, a, exp).is_zero()
    assert ell2(a, zero, exp).is_zero()


def test_commutator_identity():
    # ell2(f1, f2) - ell2(f2, f1) = nu1([f1, f2]), global sign +1; the
    # antisymmetric pairing obstruction cancels, so each difference is
    # duality-symmetric
    rng = random.Random(17)
    for exp in (E5, E7):
        for _ in range(8):
            f1, f2 = random_field(rng), random_field(rng)
            diff = ell2(f1, f2, exp) - ell2(f2, f1, exp)
            assert diff == nu1(witt_bracket(f1, f2), exp)
            assert is_symmetric_hom(diff, exp)


def test_lie_on_form_product_rule():
    # zeta -| L_f1 (h dz) has coefficient f2 (f1 h)' termwise
    rng = random.Random(19)
    f1, f2 = random_field(rng), random_field(rng)
    h = derive(E5.h10_basis[0])
    assert f2.f * lie_on_form(f1, h) == f2.f * derive(f1.f * h)


def contraction_caps(fields):
    """The caps of a word's products, in the order they are formed: the
    last contraction is formed below z^1 and reads its form below
    z^(1 - ord fn); L_zeta formed below z^w is (zeta h)' with zeta h
    formed below z^(w+1), and reads h below z^(w - ord zeta + 1). An
    exact-zero field keeps the bound."""
    caps = [1]
    o = fields[-1].f.min_rule_order()
    reads = 1 - o if o < INF else 1
    for zeta in reversed(fields[:-1]):
        caps.append(reads + 1)
        o = zeta.f.min_rule_order()
        reads = reads - o + 1 if o < INF else reads
    return caps[::-1]


def test_contraction_route_forms_each_form_only_below_what_is_read(
        monkeypatch):
    # every product of the contraction route, as (a, b, cap, result)
    products = []

    def recorded_product(a, b, cap):
        r = product_below(a, b, cap)
        products.append((a, b, cap, r))
        return r
    monkeypatch.setattr(period, "product_below", recorded_product)
    rng = random.Random(73)
    zero = WittElement(LaurentSeries.zero())
    for exp in (E5, ED):
        runs = []
        for n in (1, 2, 3, 4):
            for i in range(4):
                fields = [random_field(rng) for _ in range(n)]
                if i == 0:
                    fields[rng.randrange(n)] = zero
                runs.append((ell1_n_contraction, fields,
                             [((-1) ** n, fields)]))
        # weighted words, nu2's oracle on a representative
        rep = T2Rep(random_field(rng), [(random_field(rng),
                                         random_field(rng))])
        runs.append((period._contraction, rep.words(), rep.words()))
        for route, arg, words in runs:
            del products[:]
            route(arg, exp)
            expected = [(zeta.f, cap) for _ in exp.h10_forms
                        for _, fields in words
                        for zeta, cap in zip(fields, contraction_caps(fields))]
            assert [(a, cap) for a, _, cap, _ in products] == expected
            k = 0
            for _ in exp.h10_forms:
                for _, fields in words:
                    chain = products[k:k + len(fields)]
                    k += len(fields)
                    # each form after the kept h_j is formed only below
                    # what the next product reads
                    assert all(b.trunc <= cap - a.min_rule_order()
                               for a, b, cap, _ in chain[1:]
                               if a.min_rule_order() < INF)
                    # and known up to there: the fields are exact, so no
                    # bound may cut the contraction short of z^1
                    assert chain[-1][3].trunc == 1


def test_contraction_route_forms_as_many_terms_at_any_precision(
        monkeypatch):
    # the work of either route is bounded by its fields: at precision P
    # and P + 100 the contraction route forms the same number of product
    # terms, and the operator route of nu2 the same number of operator
    # terms, as sums of pieces or products
    formed = []

    def counted_product(a, b, cap):
        r = product_below(a, b, cap)
        formed.append(len(r.coeffs))
        return r
    sum_below = witt._sum_below

    def counted_sum(pieces, cap):
        r = sum_below(pieces, cap)
        formed.append(len(r.coeffs))
        return r
    monkeypatch.setattr(laurent, "product_below", counted_product)
    monkeypatch.setattr(period, "product_below", counted_product)
    monkeypatch.setattr(witt, "product_below", counted_product)
    monkeypatch.setattr(witt, "_sum_below", counted_sum)
    rng = random.Random(79)
    curve = HyperellipticCurve([1, -1, 0, 0, 0, 0, 0, 1])
    f1, f2, f3, f4 = (random_field(rng) for _ in range(4))
    rep = T2Rep(f1, [(f2, f3), (f3, f4)])
    counts, results = [], []
    for p in (default_precision(3), default_precision(3) + 100):
        exp = expand_curve(curve, p)
        row, out = [], []
        for route, arg in ((ell2_via_lie, (f1, f2)),
                           (period._contraction, (rep.words(),)),
                           (nu2, (rep,))):
            del formed[:]
            out.append(route(*arg, exp))
            row.append(sum(formed))
        counts.append(row)
        results.append(out)
    assert counts[0] == counts[1] and all(counts[0])
    assert results[0] == results[1]
    assert results[0][1] == results[0][2]


def test_nu2_refuses_long_fields_before_forming(monkeypatch):
    # upsilon and a pair of n-term fields z^-(n-1) + ... + 1 known below
    # z^1: no column is known at z^0. nu2 refuses as the contraction
    # route does, and sums no piece before it refuses, at either n
    formed = []
    sum_below = witt._sum_below

    def counted_sum(pieces, cap):
        r = sum_below(pieces, cap)
        formed.append(len(r.coeffs))
        return r
    monkeypatch.setattr(witt, "_sum_below", counted_sum)
    for n in (40, 400):
        f = WittElement(LaurentSeries({-i: 1 for i in range(n)}, 1))
        rep = T2Rep(f, [(f, f.scaled(2))])
        del formed[:]
        got = outcome(nu2, rep, E5)
        assert formed == []
        assert got[0] is PrecisionExhausted
        assert got == outcome(period._contraction, rep.words(), E5)


def summed_rep(rep):
    """The pieces nu2 collects for rep, by order."""
    pieces = {}
    for c, fields in rep.words():
        if len(fields) == 1:
            witt._collect_phi(fields[0], -c, pieces)
        else:
            witt._collect(phi(fields[1]), phi(fields[0]), 1, -c, pieces)
    return pieces


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_refusal_before_rho_is_the_refusal_of_rho(exp, data):
    # where the sketches decide a refusal, it is the one rho raises on the
    # summed operator; where they do not, nothing is raised
    field = mixed_fields(exp)
    rep = T2Rep(data.draw(field),
                data.draw(st.lists(st.tuples(field, field), max_size=3)))
    pieces = summed_rep(rep)
    early = outcome(hodge.refuse_before_rho,
                    {k: witt._sketch(g, 1) for k, g in pieces.items()}, exp)
    assert early is None or early == outcome(rho, witt._summed(pieces, 1),
                                             exp)


# --- full second jet and second fundamental form ---------------------------

def test_d2Phi_split():
    rng = random.Random(23)
    for exp in (E5, E7):
        f1, f2 = random_field(rng), random_field(rng)
        jet = d2Phi(f1, f2, exp)
        assert jet.linear == ell2(f1, f2, exp)
        assert jet == JetImage(ell2(f1, f2, exp),
                               [(nu1(f2, exp), nu1(f1, exp))])


def test_jet_image_equality_ignores_the_order_of_pairs_and_factors():
    a, b, c = (HomMatrix([[i, 0], [0, 1]], [1, 3]) for i in (1, 2, 3))
    assert JetImage(a, [(a, b), (c, a)]) == JetImage(a, [(a, c), (b, a)])
    pairs = [(a, b), (c, a), (b, b)]
    for order in itertools.permutations(pairs):
        for flips in itertools.product([False, True], repeat=len(pairs)):
            quadratic = [(y, x) if flip else (x, y)
                         for (x, y), flip in zip(order, flips)]
            assert JetImage(a, quadratic) == JetImage(a, pairs)
    assert JetImage(a, [(a, b), (c, a)]) != JetImage(a, [(a, c), (b, b)])
    assert JetImage(a, [(a, b)]) != JetImage(a, [(a, b), (a, b)])
    assert JetImage(a, [(a, b)]) != JetImage(b, [(a, b)])


def key_by_fraction_rows(m):
    """The canonical key the members are ordered by: the gaps, then the
    rows of Fractions."""
    return (tuple(m.basis_gaps), tuple(tuple(row) for row in m.entries))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_canonical_order_is_the_sort_by_the_fraction_rows(data):
    # a small pool, so groups share factors and hold distinct matrices
    # with equal keys; the denominators differ, so an order of the
    # numerators would not be the order of the values
    entry = st.fractions(-2, 2, max_denominator=3)
    matrix = st.builds(
        lambda rows, gaps: HomMatrix(rows, gaps),
        st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2,
                 max_size=2),
        st.sampled_from([[1, 3], [1, 5]]))
    pool = data.draw(st.lists(matrix, min_size=1, max_size=5))
    pool += [HomMatrix(m.entries, m.basis_gaps) for m in pool[:2]]
    picks = data.draw(st.lists(st.lists(st.integers(0, len(pool) - 1),
                                        min_size=1, max_size=3),
                               max_size=5))
    groups = [[pool[i] for i in g] for g in picks]
    want = sorted([tuple(sorted(g, key=key_by_fraction_rows))
                   for g in groups],
                  key=lambda g: [key_by_fraction_rows(x) for x in g])
    got = period._canonical(groups, period._hom_key)
    # the same members in the same places, ties kept in their input order
    assert [[id(x) for x in g] for g in got] == \
        [[id(x) for x in g] for g in want]
    assert all(type(g) is tuple for g in got)


def test_fundamental_form():
    rng = random.Random(29)
    for exp in (E5, E7):
        f1, f2 = random_field(rng), random_field(rng)
        m, flag = fundamental_form_II(f1, f2, exp)
        assert flag == "mod image nu1"
        assert m == fundamental_form_II(f2, f1, exp)[0]
        assert m - ell2(f1, f2, exp) == \
            nu1(witt_bracket(f1, f2), exp).scaled(Fraction(-1, 2))
        assert in_nu1_image(m - ell2(f1, f2, exp), exp)
        same, _ = fundamental_form_II(f1, f1, exp)
        assert same == ell2(f1, f1, exp)


def test_nu1_image_membership():
    rng = random.Random(31)
    for exp in (E5, E7):
        assert in_nu1_image(nu1(random_field(rng), exp), exp)
    # the raw second differential itself is not a first-differential value
    assert not in_nu1_image(ell2(mono(-1), mono(-1), E5), E5)


# --- second-order tangent representatives ----------------------------------

def test_nu2_canonical_rep_reproduces_ell2():
    rng = random.Random(37)
    for exp in (E5, E7):
        for _ in range(6):
            f1, f2 = random_field(rng), random_field(rng)
            rep = canonical_second_rep(f1, f2)
            assert nu2(rep, exp) == ell2(f1, f2, exp)


def test_nu2_degenerate_reps():
    rng = random.Random(41)
    zeta = random_field(rng)
    assert nu2(T2Rep(zeta), E5) == nu1(zeta, E5).scaled(-1)
    zero = WittElement(LaurentSeries.zero())
    assert nu2(T2Rep(zero), E5).is_zero()


def test_nu2_pair_order_immaterial():
    rng = random.Random(43)
    ups, a, b = (random_field(rng) for _ in range(3))
    r1 = T2Rep(ups, [(a, b)])
    r2 = T2Rep(ups, [(b, a)])
    assert r1 == r2
    assert nu2(r1, E5) == nu2(r2, E5)


# --- capped products against full-length references -----------------------

def field_near_threshold(exp):
    """Fields with a pole, whose products with h = g_j' are known to just
    below or just above z^1 (the smallest order of h is 0), or exactly;
    some have a pole at the edge of the basis window, precision - 2."""
    edge = exp.precision - 2
    exponents = st.tuples(
        st.lists(st.integers(-8, -1), min_size=1, max_size=2),
        st.lists(st.integers(-8, 6), max_size=2)
        | st.lists(st.integers(-edge - 2, -edge + 2), max_size=1))
    coefficient = st.fractions(-4, 4, max_denominator=5).filter(bool)
    trunc = st.one_of(st.just(INF), st.integers(-3, 4),
                      st.integers(5, exp.precision))

    def field(es, cs, t):
        return WittElement(LaurentSeries(dict(zip(es[0] + es[1], cs)), t))
    return st.builds(field, exponents,
                     st.lists(coefficient, min_size=5, max_size=5), trunc)


def outcome(fn, *args):
    """The matrix, or the type and message of the refusal."""
    try:
        return fn(*args)
    except (PrecisionExhausted, UnreducibleExponent) as e:
        return type(e), str(e)


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rho_matches_full_length_reference(exp, data):
    fields = data.draw(st.lists(field_near_threshold(exp), min_size=1,
                                max_size=2))
    if data.draw(st.booleans()):
        op = phi(fields[0])
        for zeta in fields[1:]:
            op = diffop_compose(phi(zeta), op)
    else:  # any orders, not only those of composed phi-images
        orders = data.draw(st.lists(st.integers(1, 4), min_size=len(fields),
                                    max_size=len(fields), unique=True))
        op = DiffOp({k: zeta.f for k, zeta in zip(orders, fields)})
    assert outcome(rho, op, exp) == outcome(full_rho, op, exp)
    # rho reads no coefficient at or above z^1, which ell1_n relies on
    below_one = DiffOp({k: a.truncate(1) for k, a in op.terms.items()})
    assert outcome(rho, below_one, exp) == outcome(full_rho, op, exp)


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ell1_n_matches_full_length_reference(exp, data):
    fields = data.draw(st.lists(field_near_threshold(exp), min_size=1,
                                max_size=DEFAULT_MAX_ORDER))
    assert outcome(ell1_n, fields, exp) == \
        outcome(full_operator_route, fields, exp)


def derivative_bounds(exp, k):
    """The smallest order and the smallest truncation over the g_j^(k)."""
    derived = []
    for g in exp.h10_basis:
        for _ in range(k):
            g = derive(g)
        derived.append(g)
    return (min(g.min_rule_order() for g in derived),
            min(g.trunc for g in derived))


def test_derivatives_of_the_g_j_have_no_pole():
    # rho reads a coefficient a_k only below z^(1 - ord g_j^(k)), so below
    # z^1 for every order a composition of DEFAULT_MAX_ORDER fields has,
    # also at the precision floor
    floor = [expand_curve(HyperellipticCurve([1] + [0] * (2 * g) + [1]),
                          precision_floor(g)) for g in (2, 3, 4)]
    for exp in [E5, E7, ED] + floor:
        for k in range(1, DEFAULT_MAX_ORDER + 1):
            assert derivative_bounds(exp, k)[0] >= 0


def table_edge_cases(exp):
    """(operator, whether rho must take the per-column path) at the edges
    of the table path: a coefficient truncated at the threshold, a pole at
    the edge of the basis window, and two orders whose deepest poles
    cancel in one column. A column is known below the smaller of
    trunc a + ord g^(k) and trunc g^(k) + ord a."""
    edge = exp.precision - 2
    cases = []
    for k in (1, 2, 3):
        o, t = derivative_bounds(exp, k)
        for trunc in (-o - 1, -o, 1 - o, 2 - o):
            cases.append((DiffOp({k: LaurentSeries({-1: 1, 0: 2, 2: -3},
                                                   trunc)}),
                          trunc + o < 1))
            cases.append((DiffOp({k: LaurentSeries.zero(trunc)}),
                          trunc + o < 1))
        for e in range(-edge - o - 2, -edge - o + 2):  # pole order -(e + o)
            cases.append((DiffOp({k: LaurentSeries({e: 1, -1: 1})}),
                          e + o < -edge or t + e < 1))
    for g in exp.h10_basis:
        r = g.order()  # z^(e+1) D^2 - (r-1) z^e D kills the z^(e+r-1) term
        for e in range(-edge - r - 1, -edge + 2):
            op = DiffOp({2: LaurentSeries.monomial(e + 1),
                         1: LaurentSeries.monomial(e, 1 - r)})
            cases.append((op, None))
    return cases


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
def test_rho_table_edges_match_full_length_reference(exp):
    fallbacks = 0
    for op, must_fall_back in table_edge_cases(exp):
        if must_fall_back is not None:
            assert (_table_rho(op, exp) is None) == must_fall_back
            fallbacks += must_fall_back
        assert outcome(rho, op, exp) == outcome(full_rho, op, exp)
    assert fallbacks >= 12


def test_rho_table_entries_are_integer_numerators_over_their_lcm():
    exp = dense_expansion(61)  # a table of its own, filled here
    edge = exp.precision - 2
    for k in (1, 2, 3):
        o, _ = derivative_bounds(exp, k)
        for e in range(-edge - o - 1, 0):  # the first one is past the edge
            outcome(rho, DiffOp({k: LaurentSeries.monomial(e)}), exp)
    dens = []
    for (k, e), (d, pairs) in exp._hodge[hodge._table_entry].items():
        m = full_rho(DiffOp({k: LaurentSeries.monomial(e)}), exp).entries
        g = len(m)
        nonzero = {i * g + j: x for i, row in enumerate(m)
                   for j, x in enumerate(row) if x}
        assert type(d) is int and all(type(n) is int for _, n in pairs)
        assert d == lcm(*(x.denominator for x in nonzero.values()))
        assert {p: Fraction(n, d) for p, n in pairs} == nonzero
        dens.append(d)
    # denominators that are not powers of two reach the lcm scaling
    assert len(dens) >= 20 and sum(d & (d - 1) != 0 for d in dens) >= 3


def test_rho_tables_are_per_expansion():
    curves = ([1, 0, 0, 0, 0, 1], [2, 0, 1, 0, 0, 1])  # both genus 2
    a, b = (expand_curve(HyperellipticCurve(c), 30) for c in curves)
    op = diffop_compose(phi(mono(-3)), phi(mono(-1, 2) + mono(-5)))
    first = rho(op, a)
    assert first == full_rho(op, a)
    assert rho(op, b) == full_rho(op, b) != first
    assert rho(op, a) == first
    ta, tb = (x._hodge[hodge._table_entry] for x in (a, b))
    assert ta is not tb
    assert ta.keys() == tb.keys()
    assert any(ta[key] != tb[key] for key in ta)


@pytest.mark.parametrize("exp", [E5, E7], ids=["x5+1", "x7-x+1"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_nu2_matches_full_length_reference(exp, data):
    field = field_near_threshold(exp)
    rep = T2Rep(data.draw(field),
                data.draw(st.lists(st.tuples(field, field), max_size=1)))
    assert outcome(nu2, rep, exp) == outcome(full_nu2, rep, exp)


def minus_rho_of_rep(rep, exp):
    """-rho of phi(upsilon) + (1/2) sum (phi(xi) o phi(zeta)
    + phi(zeta) o phi(xi)), the operator of the representative."""
    op = phi(rep.upsilon)
    for zeta, xi in rep.sym_pairs:
        op = op + (diffop_compose(phi(xi), phi(zeta)) +
                   diffop_compose(phi(zeta), phi(xi))).scaled(Fraction(1, 2))
    return rho(op, exp).scaled(-1)


@pytest.mark.parametrize("exp", [E5, E7], ids=["x5+1", "x7-x+1"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_nu2_is_minus_rho_of_its_operator(exp, data):
    # the operator route on the same words gives the same matrix, or the
    # same refusal
    field = field_near_threshold(exp)
    rep = T2Rep(data.draw(field),
                data.draw(st.lists(st.tuples(field, field), max_size=2)))
    assert outcome(nu2, rep, exp) == outcome(minus_rho_of_rep, rep, exp)


def mixed_fields(exp):
    """Exact low-pole fields, zero fields, exact or known only below some
    z^t, and fields near the refusal threshold (see
    field_near_threshold)."""
    exact = st.builds(
        lambda es, cs: WittElement(LaurentSeries(dict(zip(es, cs)))),
        st.lists(st.integers(-3, 6), min_size=1, max_size=3),
        st.lists(st.fractions(-4, 4, max_denominator=5).filter(bool),
                 min_size=3, max_size=3))
    zero = st.builds(lambda t: WittElement(LaurentSeries.zero(t)),
                     st.just(INF) | st.integers(-3, 4))
    return exact | zero | field_near_threshold(exp)


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_nu2_operator_route_is_its_contraction_oracle(exp, data):
    # the operator route of nu2 gives the matrix, or the refusal, of the
    # contraction route on the same words, where no two words cancel (see
    # test_nu2_is_unchanged_by_a_pair_and_its_negative)
    field = mixed_fields(exp)
    if data.draw(st.booleans()):
        rep = canonical_second_rep(data.draw(field), data.draw(field))
    else:
        rep = T2Rep(data.draw(field),
                    data.draw(st.lists(st.tuples(field, field), max_size=2)))
    assert outcome(nu2, rep, exp) == \
        outcome(period._contraction, rep.words(), exp)


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_nu2_is_unchanged_by_a_pair_and_its_negative(exp, data):
    # the words of (xi, zeta) and (-xi, zeta) cancel exactly when xi and
    # zeta are exact, and nu2 sums the pieces before the min-rule reads
    # their orders: it is the nu2 of the representative without them.
    # The contraction route takes each word's truncation, and may refuse.
    # Poles near precision / 2 put the cancelling products beyond what
    # the g_j are known for, so an order read off the uncancelled pieces
    # would refuse
    field = mixed_fields(exp)
    half = exp.precision // 2
    exact = field.filter(lambda f: f.f.trunc is INF) | st.builds(
        lambda es, c: WittElement(LaurentSeries({e: c for e in es})),
        st.sets(st.integers(-half - 2, -half + 2), min_size=1, max_size=2),
        st.fractions(-4, 4, max_denominator=5).filter(bool))
    rep = T2Rep(data.draw(field),
                data.draw(st.lists(st.tuples(field, field), max_size=2)))
    xi, zeta = data.draw(exact), data.draw(exact)
    padded = T2Rep(rep.upsilon,
                   rep.sym_pairs + [(xi, zeta), (xi.scaled(-1), zeta)])
    assert outcome(nu2, padded, exp) == outcome(nu2, rep, exp)


@pytest.mark.parametrize("exp", [E5, E7], ids=["x5+1", "x7-x+1"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_contraction_matches_full_length_reference(exp, data):
    # the reference's Lie derivatives are full-length; exact low-pole
    # fields among them keep some order-3 and order-4 words reducible, and
    # zero fields, exact or known only below some z^t, bound what the
    # steps before them read
    fields = data.draw(st.lists(mixed_fields(exp), max_size=3))
    fields.append(data.draw(field_near_threshold(exp)))
    assert outcome(ell1_n_contraction, fields, exp) == \
        outcome(full_contraction, fields, exp)


# --- sound truncation: tail perturbation and precision monotonicity ------

# each differential on three fields, as (name, function of fields and
# expansion)
DIFFERENTIALS = [
    ("reduce_O", lambda fs, e: reduce_O(fs[0].f, e)),
    ("reduce_Theta", lambda fs, e: reduce_Theta(fs[0], e)),
    ("nu1", lambda fs, e: nu1(fs[0], e)),
    ("ell2", lambda fs, e: ell2(fs[0], fs[1], e)),
    ("ell2_via_lie", lambda fs, e: ell2_via_lie(fs[0], fs[1], e)),
    ("nu2", lambda fs, e: nu2(T2Rep(fs[0], [(fs[1], fs[2])]), e)),
    ("ell1_n", ell1_n),
    ("ell1_n_contraction", ell1_n_contraction),
]
SMALL_RATIONALS = st.fractions(-4, 4, max_denominator=5)


def truncated_fields():
    """Three fields with poles and finite truncations, some of them known
    too little for a differential to read."""
    return st.lists(st.builds(
        lambda coeffs, t: WittElement(LaurentSeries(coeffs, t)),
        st.dictionaries(st.integers(-8, 4), SMALL_RATIONALS, min_size=1,
                        max_size=4),
        st.integers(-1, 12) | st.integers(13, 36)), min_size=3, max_size=3)


def succeeded(fn, fields, exp):
    """fn's result, or None where it refuses for want of precision."""
    try:
        return fn(fields, exp)
    except (PrecisionExhausted, UnreducibleExponent):
        return None


def raised(field, tail):
    """field known below trunc + len(tail), with tail in the new slots."""
    f = field.f
    coeffs = dict(f.coeffs)
    coeffs.update((f.trunc + i, c) for i, c in enumerate(tail))
    return WittElement(LaurentSeries(coeffs, f.trunc + len(tail)))


@pytest.mark.parametrize("exp", [E5, E7, ED],
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_differentials_ignore_what_lies_beyond_the_truncation(exp, data):
    # raising a truncation by 1-12 and filling the new slots changes no
    # answer that was given without them
    fields = data.draw(truncated_fields())
    tails = data.draw(st.lists(st.lists(SMALL_RATIONALS, min_size=1,
                                        max_size=12),
                               min_size=3, max_size=3))
    known = [raised(f, t) for f, t in zip(fields, tails)]
    for name, fn in DIFFERENTIALS:
        want = succeeded(fn, fields, exp)
        if want is not None:
            assert fn(known, exp) == want, name


MONOTONE = [(e, expand_curve(e.curve, e.precision + 8)) for e in (E5, E7, ED)]
DOUBLED = [(e, expand_curve(e.curve, 2 * e.precision)) for e in (E5, E7, ED)]


@pytest.mark.parametrize("exp, finer", MONOTONE,
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_differentials_are_monotone_in_precision(exp, finer, data):
    # an answer given at precision P is the one given at P + 8
    fields = data.draw(truncated_fields())
    for name, fn in DIFFERENTIALS:
        want = succeeded(fn, fields, exp)
        if want is not None:
            assert fn(fields, finer) == want, name


@pytest.mark.parametrize("exp, finer", DOUBLED,
                         ids=["x5+1", "x7-x+1", "dense-g3"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_differentials_are_monotone_when_precision_doubles(exp, finer, data):
    # an answer given at precision P is the one given at 2P
    fields = data.draw(truncated_fields())
    for name, fn in DIFFERENTIALS:
        want = succeeded(fn, fields, exp)
        if want is not None:
            assert fn(fields, finer) == want, name


# --- higher orders ----------------------------------------------------------

def test_ell1_n_specializations():
    rng = random.Random(47)
    for exp in (E5, E7):
        f1, f2 = random_field(rng), random_field(rng)
        assert ell1_n([f1], exp) == nu1(f1, exp)
        assert ell1_n_contraction([f1], exp) == nu1(f1, exp)
        assert ell1_n([f1, f2], exp) == ell2(f1, f2, exp)
        assert ell1_n_contraction([f1, f2], exp) == ell2(f1, f2, exp)


def test_ell1_n_routes_agree_at_higher_order():
    rng = random.Random(53)
    for exp in (E5, E7):
        for _ in range(4):
            fields = [random_field(rng, max_terms=2) for _ in range(3)]
            assert ell1_n(fields, exp) == ell1_n_contraction(fields, exp) \
                == full_contraction(fields, exp)
    fields = [mono(-1), mono(2), mono(-3), mono(1)]
    assert ell1_n(fields, E5) == ell1_n_contraction(fields, E5) \
        == full_contraction(fields, E5)


def test_ell1_n_routes_agree_on_a_dense_rational_curve():
    rng = random.Random(67)
    coefficient = [Fraction(p, q) for p in range(-9, 10) if p
                   for q in range(1, 10)]
    for n in range(1, DEFAULT_MAX_ORDER + 1):
        for _ in range(3):
            fields = [WittElement(LaurentSeries(
                {rng.randint(-6, 6): rng.choice(coefficient)
                 for _ in range(3)})) for _ in range(n)]
            assert ell1_n(fields, ED) == ell1_n_contraction(fields, ED)


def test_ell1_n_forms_its_composition_only_below_z1(monkeypatch):
    # the products of each order of a composition, as (a, b, cap), and the
    # operator handed to rho; the stand-in for rho forms none
    products, handed = [], []
    sum_below = witt._sum_below

    def recorded_sum(pieces, cap):
        products.extend((a, b, cap) for _, a, b in pieces)
        return sum_below(pieces, cap)

    def recorded_rho(op, exp):
        handed.append(op)
        return HomMatrix([], [])
    monkeypatch.setattr(witt, "_sum_below", recorded_sum)
    monkeypatch.setattr(period, "rho", recorded_rho)
    rng = random.Random(71)
    for n in (2, 3, 4):
        for _ in range(4):
            fields = [random_field(rng) for _ in range(n)]
            del products[:], handed[:]
            ell1_n(fields, E5)
            # the last composition is formed below z^1, and the one before
            # the composition with phi(zeta) below w - ord zeta + 1
            bounds = [1]
            for zeta in reversed(fields[2:]):
                bounds.append(bounds[-1] - zeta.f.order() + 1)
            assert products
            assert {cap for _, _, cap in products} == set(bounds)
            # a product reads b, or b', only below z^(cap - ord a + 1);
            # a and b are series, or their integer numerators
            assert all(b.trunc <= cap - a.min_rule_order() + 1
                       for a, b, cap in products)
            [op] = handed
            assert all(e < 1 for a in op.terms.values() for e in a.coeffs)
            # and it is known up to there: the fields are exact, so no
            # earlier bound or truncation may cut it short
            assert all(a.trunc == 1 for a in op.terms.values())


def test_ell1_n_multilinear():
    rng = random.Random(59)
    a, b, c, d = (random_field(rng, max_terms=2) for _ in range(4))
    assert ell1_n([a + b, c, d], E5) == \
        ell1_n([a, c, d], E5) + ell1_n([b, c, d], E5)
    # an exact-zero field in any slot, also one that bounds the
    # compositions before it, gives zero
    zero = WittElement(LaurentSeries.zero())
    for i in range(4):
        fields = [a, b, c, d]
        fields[i] = zero
        assert ell1_n(fields, E5).is_zero()


def test_order_guard():
    fields = [mono(-1)] * 5
    with pytest.raises(UnsupportedOrder):
        ell1_n(fields, E5)
    with pytest.raises(UnsupportedOrder):
        ell1_n_contraction(fields, E5)
    with pytest.raises(UnsupportedOrder):
        ell_k_n(fields, 2, E5)
    assert DEFAULT_MAX_ORDER == 4
    with pytest.raises(ValueError):
        ell1_n([], E5)


def test_ell_k_n_extremes():
    rng = random.Random(61)
    f1, f2, f3 = (random_field(rng, max_terms=2) for _ in range(3))
    assert ell_k_n([f1, f2], 1, E5) == ell1_n([f1, f2], E5)
    sym = ell_k_n([f1, f2], 2, E5)
    assert isinstance(sym, SymProductSum)
    assert sym.interpretation is None
    assert sym == SymProductSum([(nu1(f1, E5), nu1(f2, E5))])
    # the symbol is permutation invariant
    assert ell_k_n([f1, f2, f3], 3, E5) == ell_k_n([f3, f1, f2], 3, E5)


def test_ell_k_n_middle_orders():
    rng = random.Random(67)
    f = [random_field(rng, max_terms=2) for _ in range(3)]
    got = ell_k_n(f, 2, E5)
    assert got.interpretation == "set-partition"
    want = SymProductSum(
        [(ell2(f[0], f[1], E5), nu1(f[2], E5)),
         (ell2(f[0], f[2], E5), nu1(f[1], E5)),
         (nu1(f[0], E5), ell2(f[1], f[2], E5))],
        interpretation="set-partition")
    assert got == want
    four = [mono(-1), mono(1), mono(-2), mono(2)]
    assert len(ell_k_n(four, 2, E5).terms) == 7
    assert len(ell_k_n(four, 3, E5).terms) == 6
    assert len(ell_k_n(four, 4, E5).terms) == 1
    with pytest.raises(ValueError):
        ell_k_n(f, 0, E5)
    with pytest.raises(ValueError):
        ell_k_n(f, 4, E5)


def stirling2(n, k):
    """The number of partitions of an n-set into k nonempty blocks."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n", range(6))
def test_set_partitions_are_each_partition_once(n):
    for k in range(7):
        partitions = list(_set_partitions(n, k))
        want = stirling2(n, k) if 1 <= k <= n else 0
        assert len(partitions) == want, (n, k)
        assert len({tuple(map(tuple, p)) for p in partitions}) == want
        for blocks in partitions:
            assert len(blocks) == k
            assert sorted(i for b in blocks for i in b) == list(range(n))
            assert all(b and b == sorted(b) for b in blocks)
            # blocks in the order of their smallest element, so equal
            # partitions are equal lists
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


# --- serialization ----------------------------------------------------------

def test_t2rep_from_json():
    obj = {"upsilon": {"trunc": 10, "coeffs": {"-1": "1"}},
           "sym_pairs": [[{"trunc": 10, "coeffs": {"-1": "2"}},
                          {"trunc": 10, "coeffs": {"2": "1/3"}}]]}
    rep = t2rep_from_json(obj)
    assert rep.upsilon == WittElement(LaurentSeries({-1: 1}, 10))
    assert rep.sym_pairs == [(WittElement(LaurentSeries({-1: 2}, 10)),
                              WittElement(LaurentSeries({2: Fraction(1, 3)},
                                                        10)))]
    assert t2rep_from_json({"upsilon": {"trunc": 5, "coeffs": {}}}).sym_pairs \
        == []
    with pytest.raises(ValueError):
        t2rep_from_json({"sym_pairs": []})
    with pytest.raises(ValueError):
        t2rep_from_json({"upsilon": {"trunc": 5, "coeffs": {}}, "extra": 1})
    with pytest.raises(ValueError):
        t2rep_from_json({"upsilon": {"trunc": 5, "coeffs": {}},
                         "sym_pairs": [[{"trunc": 5, "coeffs": {}}]]})


def test_jet_and_sum_json_shapes():
    jet = d2Phi(mono(-1), mono(-3), E5)
    out = jet_to_json(jet)
    assert set(out) == {"linear", "quadratic"}
    assert out["linear"]["basis_gaps"] == [1, 3]
    assert len(out["quadratic"]) == 1 and len(out["quadratic"][0]) == 2

    sym = ell_k_n([mono(-1), mono(-3), mono(-5)], 2, E5)
    dumped = sym_sum_to_json(sym)
    assert dumped["interpretation"] == "set-partition"
    assert len(dumped["terms"]) == 3
    assert all(len(t["factors"]) == 2 for t in dumped["terms"])
    plain = sym_sum_to_json(ell_k_n([mono(-1), mono(-3)], 2, E5))
    assert "interpretation" not in plain
