"""The Witt algebra of vector fields on the punctured disc, and its image
in differential operators.

A WittElement is f(z) d/dz with f a LaurentSeries; the bracket is

    [f d/dz, g d/dz] = (f g' - g f') d/dz.

phi sends f d/dz to the first-order operator g -> f g' acting on series
without constant term. Compositions of such operators live in DiffOp, a
finite sum  g -> sum_k a_k g^(k)  with k >= 1; order-0 terms never arise
from composing phi-images, and the constructor enforces that.

sp_witness checks the symplectic-compatibility identity

    <op(z^a), z^b> = <op(z^b), z^a>

for all monomial exponents 0 < |a|,|b| <= radius. This is a finite
certificate, not a proof of membership in sp(H'). Every phi-image passes
(for x, y in H and alpha = phi(f d/dz): <alpha(x),y> - <alpha(y),x> =
Res(f x'y' + x(fy')') = Res (xfy')' = 0), while the genuinely
non-symplectic second derivative g -> g'' fails already at radius 4.

One integer kernel serves the operator route (period._operator, behind
ell1_n and nu2) and the bracket. An operator's coefficients are held
as _Numerators, integers over one denominator per order: _collect
gathers the Leibniz pieces of a weighted composition by order, and
_sum_below sums the pieces of each order on those integers into the
next _Numerators, so a chain of compositions (_compose, the two at
weight 1) stays numerators from the first field to hodge's rho table.
diffop_compose is _compose between _Numerators.of and one LaurentSeries
per order, and _bracket sums the pieces w f_a f_b' and -w f_b f_a' of a
weighted bracket, which witt_bracket takes at w = 1 and
period.canonical_second_rep at w = 1/2.
_sketch reads the truncation and the order of such a sum off its pieces
without forming it, which lets the operator route refuse before it
sums, or decide that hodge's rho table serves the sum; then _sum_below
forms only the terms of the parity that table reads. hodge's rho forms
no column: it reads its table, or refuses from orders and truncations.
sp_witness reads each pairing off the operator's _Numerators, with no
image formed. Of the operator code, only the public diffop_apply and
the contraction oracle (period._contraction) multiply Fraction series.
"""

from bisect import bisect_left
from fractions import Fraction
from math import comb, gcd, lcm

from .laurent import (
    INF, LaurentSeries, _require_residue, derive, product_below)


class WittElement(object):
    """A vector field f(z) d/dz."""

    def __init__(self, f):
        if not isinstance(f, LaurentSeries):
            raise ValueError("WittElement wants a LaurentSeries coefficient")
        self.f = f

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        return cls(LaurentSeries.monomial(exponent, coefficient))

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return self.f == other.f

    def __neg__(self):
        return WittElement(-self.f)

    def __add__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return WittElement(self.f + other.f)

    def __sub__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return WittElement(self.f - other.f)

    def scaled(self, c):
        return WittElement(self.f.scaled(c))

    def __str__(self):
        return "(%s) d/dz" % (self.f,)

    def __repr__(self):
        return "WittElement(%r)" % (self.f,)


class DiffOp(object):
    """g -> sum_k a_k g^(k), finitely many orders k >= 1."""

    def __init__(self, terms=None):
        stored = {}
        if terms:
            for k, a in terms.items():
                if not isinstance(k, int) or k < 1:
                    raise ValueError("operator order must be an integer >= 1,"
                                     " got %r" % (k,))
                if not isinstance(a, LaurentSeries):
                    raise ValueError("operator coefficient must be a "
                                     "LaurentSeries")
                # an exact zero is no term; a zero known only below its
                # truncation still limits what the operator can produce
                if not (a.is_visible_zero() and a.trunc is INF):
                    stored[k] = a
        self.terms = stored

    @classmethod
    def zero(cls):
        return cls({})

    def max_order(self):
        return max(self.terms) if self.terms else 0

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        out = dict(self.terms)
        for k, a in other.terms.items():
            out[k] = out[k] + a if k in out else a
        return DiffOp(out)

    def __neg__(self):
        return DiffOp({k: -a for k, a in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*D^%d" % (self.terms[k], k)
                          for k in sorted(self.terms))

    def __repr__(self):
        return "DiffOp(%r)" % (self.terms,)


def witt_bracket(a, b):
    """[a, b] with coefficient f_a f_b' - f_b f_a' (see _bracket)."""
    return WittElement(_bracket(a, b, 1).series())


def _bracket(a, b, w):
    """The coefficient of w [a, b] as _Numerators: the pieces
    (w, f_a, f_b') and (-w, f_b, f_a') on integer numerators, summed by
    _sum_below with no cap."""
    na, nb = _Numerators.of(a.f), _Numerators.of(b.f)
    return _sum_below([(w, na, nb.derive()), (-w, nb, na.derive())], INF)


def phi(zeta):
    """The order-1 operator g -> f g' attached to zeta = f d/dz."""
    return DiffOp({1: zeta.f})


def diffop_apply(op, g):
    """Evaluate sum_k a_k g^(k); truncation follows the min-rule.

    Each product is a full product of Fraction series (see
    laurent.product_below). rho never applies its operator: it reads
    its table or refuses (see hodge._refuse).
    """
    out = LaurentSeries.zero()
    dg, order = g, 0
    for k in sorted(op.terms):
        for _ in range(k - order):
            dg = derive(dg)
        order = k
        out = out + product_below(op.terms[k], dg, INF)
    return out


class _Numerators(object):
    """A series as integers over one common denominator: its stored
    terms as (e, n) in ascending exponent, the coefficient at z^e being
    n/den, and its truncation. Every coefficient is nonzero; den is
    positive, a multiple of every coefficient's denominator."""

    __slots__ = ("den", "terms", "trunc")

    def __init__(self, den, terms, trunc):
        self.den, self.terms, self.trunc = den, terms, trunc

    @classmethod
    def of(cls, s):
        """s over the lcm of its coefficients' denominators."""
        terms = sorted(s.coeffs.items())
        den = lcm(*[c.denominator for _, c in terms])
        return cls(den, [(e, c.numerator * (den // c.denominator))
                         for e, c in terms], s.trunc)

    def series(self):
        """The LaurentSeries, one Fraction normalized per term."""
        return LaurentSeries._trusted(
            {e: Fraction(n, self.den) for e, n in self.terms}, self.trunc)

    def derive(self):
        """The derivative over the same denominator."""
        return _Numerators(self.den, [(e - 1, n * e) for e, n in self.terms
                                      if e], self.trunc - 1)

    def truncate(self, trunc):
        """The terms below z^trunc, as LaurentSeries.truncate keeps them,
        over the same denominator."""
        if trunc >= self.trunc:
            return self
        # (trunc,) sorts before every (trunc, n): the cut is at e >= trunc
        return _Numerators(self.den,
                           self.terms[:bisect_left(self.terms, (trunc,))],
                           trunc)

    def min_rule_order(self):
        return self.terms[0][0] if self.terms else self.trunc


def _numerators(terms):
    """An operator's coefficients, given by order, as _Numerators; an
    exact zero is no term, as in DiffOp."""
    return {k: _Numerators.of(a) for k, a in terms.items()
            if a.coeffs or a.trunc is not INF}


def _sum_below(pieces, cap, parity=None):
    """sum c * a * b over the pieces (c, a, b) of _Numerators a and b,
    c an int or a Fraction, truncated at cap, as adding the products as
    series gives it: the truncation is the smallest of cap and the
    pieces' min-rule truncations, and sums that cancel to zero are
    dropped.

    The products are summed as ints over one denominator, the lcm of the
    pieces' c.denominator * a.den * b.den, below that truncation, each
    walk over a and b stopping at the first pair at or above it. The sum
    is a _Numerators brought to lowest terms by one gcd, so its den is
    the lcm of its coefficients' denominators, and 1 when it has no
    terms.

    With a parity, only the terms at z^e with e = parity (mod 2) are
    formed: each term z^e1 of a meets only the terms of b of parity
    parity - e1, b's terms split by parity once per piece. The
    truncation is the full sum's. rho's table reads only these terms of
    an order-k coefficient at parity k, since rho(z^e D^k) is zero where
    e + k is odd (see hodge._table_rho).
    """
    t, den, formed = cap, 1, []
    for c, a, b in pieces:
        t = min(t, a.trunc + b.min_rule_order(), b.trunc + a.min_rule_order())
        if a.terms and b.terms:
            formed.append((c, a, b))
            den = lcm(den, c.denominator * a.den * b.den)
    acc = {}
    for c, a, b in formed:
        scale = c.numerator * (den // (c.denominator * a.den * b.den))
        lowest = b.terms[0][0]
        if parity is None:
            sides = (b.terms, b.terms)
        else:  # sides[i]: the terms z^e2 of b with e2 - parity = i (mod 2)
            sides = ([], [])
            for term in b.terms:
                sides[(term[0] - parity) % 2].append(term)
        for e1, n1 in a.terms:
            limit = t - e1
            if lowest >= limit:
                break
            n1 *= scale
            for e2, n2 in sides[e1 % 2]:
                if e2 >= limit:
                    break
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
    terms = sorted((e, n) for e, n in acc.items() if n)
    common = gcd(den, *[n for _, n in terms])
    if common != 1:
        den //= common
        terms = [(e, n // common) for e, n in terms]
    return _Numerators(den, terms, t)


def _sketch(pieces, cap):
    """What _sum_below(pieces, cap) gives, read off the pieces' lowest
    terms and truncations without forming a product: (t, o, exact),
    where t is its truncation and it has no term below z^o. exact says
    that o is its min-rule order: it has no term and o = t, or the
    pieces' lowest terms at z^o, summed as integer fractions, do not
    cancel.
    """
    t, low = cap, {}
    for w, a, b in pieces:
        t = min(t, a.trunc + b.min_rule_order(),
                b.trunc + a.min_rule_order())
        if a.terms and b.terms:
            (ea, na), (eb, nb) = a.terms[0], b.terms[0]
            n, d = low.get(ea + eb, (0, 1))
            pn = w.numerator * na * nb
            pd = w.denominator * a.den * b.den
            low[ea + eb] = (n * pd + pn * d, d * pd)
    o = min((e for e in low if e < t), default=t)
    return t, o, o == t or low[o][0] != 0


def _collect(w, v, below, weight, pieces):
    """Add the Leibniz pieces of weight * (w o v), formed below z^below,
    to pieces, a dict from each order to its list of pieces (c, a, b) as
    _sum_below takes them. w and v map each order to its coefficient as
    _Numerators.

    a_k D^k (b_m D^m) = a_k sum_{i=0..k} C(k,i) b_m^(k-i) D^(m+i), so order
    m+i collects (weight * C(k,i), a_k, derive^{k-i}(b_m)) over all
    (k, m). The product with a_k reads b_m^(k-i) only below
    z^(below - ord a_k), that is b_m below z^(below - ord a_k + k), so
    b_m is truncated there before it is differentiated, on its
    numerators.
    """
    for k, a in w.items():
        for m, b in v.items():
            if below < INF:
                b = b.truncate(below - a.min_rule_order() + k)
            derivatives = [b]
            for _ in range(k):
                derivatives.append(derivatives[-1].derive())
            # derivatives[j] = b^(j)
            for i in range(k + 1):
                pieces.setdefault(m + i, []).append(
                    (weight * comb(k, i), a, derivatives[k - i]))


def _summed(pieces, below, parity=False):
    """The coefficient of each order collected in pieces, summed below
    z^below (see _sum_below); with parity, the coefficient of order k
    only at the z^e with e = k (mod 2)."""
    return {k: _sum_below(group, below, k % 2 if parity else None)
            for k, group in pieces.items()}


def _compose(w, v, below):
    """w o v below z^below, operators held as _Numerators per order: the
    pieces of _collect at weight 1, summed per order by _sum_below."""
    pieces = {}
    _collect(w, v, below, 1, pieces)
    return _summed(pieces, below)


def diffop_compose(w, v, below=INF):
    """The operator g -> w(v(g)), expanded by the Leibniz rule: _compose
    between the coefficients as _Numerators and one LaurentSeries per
    order.

    With a finite bound, only the terms below z^below are formed, and the
    result is the full composition with every coefficient truncated at
    below; an order whose full coefficient is exact zero, and so absent,
    may then be stored as a zero known below z^below. Each order keeps
    the truncation that adding its pieces as series gives, the smallest
    of their min-rule truncations.
    """
    op = _compose(_numerators(w.terms), _numerators(v.terms), below)
    return DiffOp({k: a.series() for k, a in op.items()})


def sp_witness(op, radius):
    """Finite symplectic-compatibility certificate on monomials.

    True iff <op(z^a), z^b> = <op(z^b), z^a> for all a, b with
    0 < |a|, |b| <= radius. Each pairing is read off the operator's
    terms, on integers over the lcm of its coefficients' denominators:
    op(z^a) = sum_k a(a-1)...(a-k+1) a_k z^(a-k), so

        <op(z^a), z^b> = b * op(z^a)[-b]
                       = b * sum_k a(a-1)...(a-k+1) a_k[k-a-b],

    and a term n z^e of a_k adds to the pairs with a + b = k - e. op(z^a)
    is known below the smallest trunc a_k + a - k over the orders k
    whose falling factorial at a is nonzero, and the pairing is known
    when that truncation + b - 1 >= 0, the guard laurent.symplectic_pair
    applies; otherwise PrecisionExhausted is raised with residue()'s
    message. The pairs (a, b), b >= a, are met in ascending order, each
    pairing's guard before the next, so the first refusal or asymmetry
    is the one that forming the images and pairing them meets first.
    """
    exponents = [e for e in range(-radius, radius + 1) if e != 0]
    ops = _numerators(op.terms)
    den = lcm(*[c.den for c in ops.values()])
    known, pairs = {}, {}  # pairs[a][b] = den * op(z^a)[-b]
    for a in exponents:
        known[a], row, falling = INF, {}, 1
        for k in range(1, max(ops, default=0) + 1):
            falling *= a - k + 1
            c = ops.get(k)
            if c is None or not falling:
                continue
            known[a] = min(known[a], c.trunc + a - k)
            scale = falling * (den // c.den)
            for e, n in c.terms:
                b = k - e - a
                row[b] = row.get(b, 0) + scale * n
        pairs[a] = row

    # (a, b) is refused where known[a] + b < 1 or known[b] + a < 1, and
    # then so is (-radius, a) or (-radius, b): a refusal is met first in
    # the first row, a = -radius, which is walked in order. Past it
    # nothing is refused, and only whether some pair is asymmetric is
    # left, which only the pairs a term of op reaches can be.
    a = -radius
    for b in exponents:
        # the guards of <op(z^a), z^b>, then of <op(z^b), z^a>
        if known[a] + b < 1 or known[b] + a < 1:
            _require_residue(known[a] + b - 1)
            _require_residue(known[b] + a - 1)
        if b * pairs[a].get(b, 0) != a * pairs[b].get(a, 0):
            return False
    return all(b * n == a * pairs[b].get(a, 0)
               for a, row in pairs.items() for b, n in row.items()
               if b in pairs)
