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
"""

from math import comb

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
    """
    acc = {}
    for k, a in w.terms.items():
        for m, b in v.terms.items():
            if below < INF:
                b = b.truncate(below - a.min_rule_order() + k)
            derivatives = [b]
            for _ in range(k):
                derivatives.append(derive(derivatives[-1]))
            # derivatives[j] = b^(j)
            for i in range(k + 1):
                piece = product_below(a, derivatives[k - i], below)
                c = comb(k, i)
                if c != 1:
                    piece = piece.scaled(c)
                o = m + i
                acc[o] = acc[o] + piece if o in acc else piece
    return DiffOp(acc)


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
