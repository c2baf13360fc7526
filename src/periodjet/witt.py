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

diffop_compose, the kernel of the operator route (period.ell1_n), sums
its Leibniz pieces on integer numerators and normalizes one Fraction per
coefficient; diffop_apply and the contraction route keep Fraction
products.
"""

from fractions import Fraction
from math import comb, lcm

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

    def scaled(self, c):
        return DiffOp({k: a.scaled(c) for k, a in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*D^%d" % (self.terms[k], k)
                          for k in sorted(self.terms))

    def __repr__(self):
        return "DiffOp(%r)" % (self.terms,)


def witt_bracket(a, b):
    """[a, b] with coefficient f_a f_b' - f_b f_a'."""
    return WittElement(a.f * derive(b.f) - b.f * derive(a.f))


def phi(zeta):
    """The order-1 operator g -> f g' attached to zeta = f d/dz."""
    return DiffOp({1: zeta.f})


def diffop_apply(op, g, below=INF):
    """Evaluate sum_k a_k g^(k); truncation follows the min-rule.

    With a finite bound, only the terms below z^below are formed and the
    result is exactly diffop_apply(op, g).truncate(below). The product
    with a_k then reads g^(k) only below z^(below - ord a_k), that is g
    below z^(below - ord a_k + k), so g is truncated at the largest of
    these before it is differentiated (see laurent.product_below).
    """
    if below < INF and op.terms:
        g = g.truncate(below + max(k - a.min_rule_order()
                                   for k, a in op.terms.items()))
    out = LaurentSeries.zero(below)
    dg, order = g, 0
    for k in sorted(op.terms):
        for _ in range(k - order):
            dg = derive(dg)
        order = k
        out = out + product_below(op.terms[k], dg, below)
    return out


class _Numerators(object):
    """A factor of diffop_compose as integers over one denominator: its
    stored terms as (e, n) in ascending exponent, the coefficient at z^e
    being n/den, with den the lcm of the coefficients' denominators, and
    its truncation."""

    __slots__ = ("den", "terms", "trunc")

    def __init__(self, den, terms, trunc):
        self.den, self.terms, self.trunc = den, terms, trunc

    @classmethod
    def of(cls, s):
        terms = sorted(s.coeffs.items())
        den = lcm(*[c.denominator for _, c in terms])
        return cls(den, [(e, c.numerator * (den // c.denominator))
                         for e, c in terms], s.trunc)

    def derive(self):
        """The derivative over the same denominator."""
        return _Numerators(self.den, [(e - 1, n * e) for e, n in self.terms
                                      if e], self.trunc - 1)

    def min_rule_order(self):
        return self.terms[0][0] if self.terms else self.trunc


def _sum_below(pieces, cap):
    """sum c * a * b over the pieces (c, a, b), truncated at cap, as adding
    the products as series gives it: the truncation is the smallest of
    cap and the pieces' min-rule truncations, and sums that cancel to
    zero are dropped.

    A piece of LaurentSeries is formed by product_below, where a one-term
    factor is a shift. The pieces of _Numerators are summed as ints over
    one denominator, the lcm of their a.den * b.den, below the smallest
    of cap and their min-rule truncations, each walk stopping where
    product_below's would, and one Fraction is normalized per
    coefficient.
    """
    parts, on_ints = [], []
    for c, a, b in pieces:
        if isinstance(a, _Numerators):
            on_ints.append((c, a, b))
        else:
            piece = product_below(a, b, cap)
            parts.append(piece if c == 1 else piece.scaled(c))
    if on_ints:
        t = min(cap, min(min(a.trunc + b.min_rule_order(),
                             b.trunc + a.min_rule_order())
                         for _, a, b in on_ints))
        den = lcm(*[a.den * b.den for _, a, b in on_ints])
        acc = {}
        for c, a, b in on_ints:
            if not b.terms:
                continue
            scale = c * (den // (a.den * b.den))
            lowest = b.terms[0][0]
            for e1, n1 in a.terms:
                limit = t - e1
                if lowest >= limit:
                    break
                n1 *= scale
                for e2, n2 in b.terms:
                    if e2 >= limit:
                        break
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + n1 * n2
        parts.append(LaurentSeries._trusted(
            {e: Fraction(n, den) for e, n in acc.items() if n}, t))
    total = parts[0]
    for piece in parts[1:]:
        total = total + piece
    return total


def diffop_compose(w, v, below=INF):
    """The operator g -> w(v(g)), expanded by the Leibniz rule.

    a_k D^k (b_m D^m) = a_k sum_{i=0..k} C(k,i) b_m^(k-i) D^(m+i), so order
    m+i collects a_k * C(k,i) * derive^{k-i}(b_m) over all (k, m).

    With a finite bound, only the terms below z^below are formed, and the
    result is the full composition with every coefficient truncated at
    below; an order whose full coefficient is exact zero, and so absent,
    may then be stored as a zero known below z^below. The product with
    a_k reads b_m^(k-i) only below z^(below - ord a_k), that is b_m below
    z^(below - ord a_k + k), so b_m is truncated there before it is
    differentiated (see laurent.product_below).

    Each order keeps the truncation that adding its pieces as series
    gives, the smallest of their min-rule truncations (see _sum_below).
    Where a_k or b_m has one stored term, the pieces are shifts by
    product_below. Otherwise a_k and b_m are each brought once to integer
    numerators over one denominator, b_m is differentiated on them, and
    the pieces are summed as ints.
    """
    pieces = {}
    for k, a in w.terms.items():
        a_ints = _Numerators.of(a) if len(a.coeffs) != 1 else None
        for m, b in v.terms.items():
            if below < INF:
                b = b.truncate(below - a.min_rule_order() + k)
            if a_ints is None or len(b.coeffs) == 1:
                factor, derivatives, step = a, [b], derive
            else:
                factor, derivatives, step = \
                    a_ints, [_Numerators.of(b)], _Numerators.derive
            for _ in range(k):
                derivatives.append(step(derivatives[-1]))
            # derivatives[j] = b^(j)
            for i in range(k + 1):
                pieces.setdefault(m + i, []).append(
                    (comb(k, i), factor, derivatives[k - i]))
    return DiffOp({o: _sum_below(group, below)
                   for o, group in pieces.items()})


def sp_witness(op, radius):
    """Finite symplectic-compatibility certificate on monomials.

    True iff <op(z^a), z^b> = <op(z^b), z^a> for all a, b with
    0 < |a|, |b| <= radius. Each pairing is read off the image:
    <f, z^b> = b * f[-b], known when trunc f + b - 1 >= 0, the guard
    laurent.symplectic_pair applies; otherwise PrecisionExhausted is
    raised with residue()'s message.
    """
    exponents = [e for e in range(-radius, radius + 1) if e != 0]
    images = {a: diffop_apply(op, LaurentSeries.monomial(a))
              for a in exponents}

    def pair(a, b):  # <op(z^a), z^b>
        image = images[a]
        _require_residue(image.trunc + b - 1)
        return b * image.coeffs.get(-b, 0)

    for a in exponents:
        for b in exponents:
            # the identity is symmetric in (a, b)
            if b >= a and pair(a, b) != pair(b, a):
                return False
    return True
