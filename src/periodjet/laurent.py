"""Truncated formal Laurent series with exact rational coefficients.

The ambient field is H = Q((z)), stored sparsely as a finite map from
integer exponents to nonzero rationals together with a truncation order:
coefficients at exponents >= trunc are unknown, everything below is exact.
Exact Laurent polynomials carry trunc = +infinity and behave as genuinely
exact values under all operations.

Distinguished subspaces, decidable from the stored exponents:

    H+  = Q[[z]]            (no negative exponents)
    H-  = span of negative powers
    H'+ = z*Q[[z]]          (exponents >= 1)
    H'  = H'+ (+) H-        (no constant term)

The symplectic residue pairing <f,g> = Res_{z=0} f dg is nondegenerate on
H' and is the single primitive everything downstream is built from.

Scalars are `fractions.Fraction` throughout: always lowest terms, positive
denominator, arbitrary precision.

Validation happens where values enter: the LaurentSeries(...) constructor
and from_json() check exponents, coefficients and the truncation. Every
series an operation of this module returns is built by
LaurentSeries._trusted() from fields the operation has just formed, which
already meet the constructor's invariant, so they are not checked again.
"""

import bisect
import math
import operator
import re
from fractions import Fraction

INF = math.inf


class PrecisionExhausted(Exception):
    """A coefficient (or residue) beyond the known truncation was required."""


class NonzeroResidue(Exception):
    """integrate() applied to a series with a nonzero z^-1 coefficient."""


class ZeroSeries(Exception):
    """invert()/sqrt_unit() applied to a series with no visible terms."""


class OddOrder(Exception):
    """sqrt_unit() applied to a series of odd order."""


class NonUnitLeadingCoefficient(Exception):
    """sqrt_unit() applied to a series whose leading coefficient is not 1."""


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INTEGER_KEY = re.compile(r"0|-?[1-9][0-9]*")


def rational_from_str(s):
    """Parse "p/q" (or a bare integer string "p") into a Fraction.

    Exactly the form -?[0-9]+(/[0-9]+)? is accepted: no sign "+", no
    whitespace, decimal point, exponent or digit separator.
    """
    if not isinstance(s, str):
        raise ValueError("rational must be given as a string, got %r" % (s,))
    if not _RATIONAL.fullmatch(s):
        raise ValueError("not a rational: %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("not a rational: %r" % (s,))


def int_from_key(k, what):
    """Parse an integer written as str(int) writes it, such as a JSON
    object key: exactly the form 0|-?[1-9][0-9]*, so that no two accepted
    strings name the same integer."""
    if not isinstance(k, str) or not _INTEGER_KEY.fullmatch(k):
        raise ValueError("%s key %r is not a canonical integer" % (what, k))
    return int(k)


def _checked_trunc(trunc):
    """trunc as a series stores it: an int, or INF for any +infinity."""
    if isinstance(trunc, float) and math.isinf(trunc) and trunc > 0:
        return INF  # canonicalize arithmetic like INF - 1
    if not isinstance(trunc, int) or isinstance(trunc, bool):
        raise ValueError("trunc must be an int or math.inf")
    return trunc


def rational_to_str(q):
    """Canonical "p/q" form: q > 0, lowest terms, denominator always shown."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


class LaurentSeries(object):
    """A truncated Laurent series sum_{e < trunc} c_e z^e.

    Immutable by convention: no method mutates self, all operations return
    new instances, so values can be shared freely.
    """

    def __init__(self, coeffs=None, trunc=INF):
        trunc = _checked_trunc(trunc)
        stored = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int):
                    raise ValueError("exponent must be an int, got %r" % (e,))
                c = Fraction(c)
                # exponents at or beyond trunc are unknown, not storable
                if c != 0 and e < trunc:
                    stored[e] = c
        self.coeffs = stored
        self.trunc = trunc

    @classmethod
    def _trusted(cls, coeffs, trunc):
        """A series made from fields that are not checked again.

        The caller hands over a fresh dict that maps int exponents below
        trunc to nonzero Fractions, and an int or infinite trunc. An
        infinite trunc is stored as INF itself, because exactness is
        tested with `trunc is INF` and INF - 1 is another float object.
        """
        s = object.__new__(cls)
        s.coeffs = coeffs
        s.trunc = INF if trunc == INF else trunc
        return s

    @classmethod
    def zero(cls, trunc=INF):
        return cls._trusted({}, _checked_trunc(trunc))

    @classmethod
    def monomial(cls, exponent, coefficient=1, trunc=INF):
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an int, got %r" % (exponent,))
        c = Fraction(coefficient)
        trunc = _checked_trunc(trunc)
        return cls._trusted({exponent: c} if c and exponent < trunc else {},
                            trunc)

    @classmethod
    def one(cls, trunc=INF):
        return cls.monomial(0, 1, trunc)

    def order(self):
        """Smallest stored exponent, or None if no terms are visible."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def coeff(self, exponent):
        """Coefficient at the given exponent; raises beyond the truncation."""
        if exponent >= self.trunc:
            raise PrecisionExhausted(
                "coefficient at z^%d requested but series is only known "
                "below z^%s" % (exponent, self.trunc))
        return self.coeffs.get(exponent, Fraction(0))

    def is_visible_zero(self):
        """True if no nonzero coefficient is stored (zero up to trunc)."""
        return not self.coeffs

    def truncate(self, trunc):
        """Forget all coefficients at exponents >= trunc."""
        t = min(self.trunc, _checked_trunc(trunc))
        return LaurentSeries._trusted(
            {e: c for e, c in self.coeffs.items() if e < t}, t)

    def shift(self, k):
        """Multiply by z^k (exact)."""
        if not isinstance(k, int):
            raise ValueError("shift must be an int, got %r" % (k,))
        return LaurentSeries._trusted(
            {e + k: c for e, c in self.coeffs.items()}, self.trunc + k)

    def in_h_prime(self):
        return 0 not in self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    def __neg__(self):
        return LaurentSeries._trusted(
            {e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _sum(self, other, False)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _sum(self, other, True)

    def min_rule_order(self):
        """The order the min-rule of products uses: the smallest stored
        exponent, or for a visible zero the truncation itself, where its
        unknown tail starts."""
        o = self.order()
        return self.trunc if o is None else o

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return product_below(self, other, INF)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        c = Fraction(c)
        if c == 1:
            return LaurentSeries._trusted(dict(self.coeffs), self.trunc)
        if c == -1:  # a negation skips the gcd work of a product
            return -self
        if not c:
            return LaurentSeries._trusted({}, self.trunc)
        return LaurentSeries._trusted(
            {e: v * c for e, v in self.coeffs.items()}, self.trunc)

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(str(c))
                else:
                    mono = "z" if e == 1 else "z^%d" % e
                    if c == 1:
                        parts.append(mono)
                    elif c == -1:
                        parts.append("-" + mono)
                    else:
                        parts.append("%s*%s" % (c, mono))
            body = " + ".join(parts).replace("+ -", "- ")
        if self.trunc is INF:
            return body
        return "%s + O(z^%d)" % (body, self.trunc)

    def __repr__(self):
        return "LaurentSeries(%r, trunc=%r)" % (self.coeffs, self.trunc)


def _sum(a, b, negate):
    """a + b, or a - b when negate is set. Terms at or above the smaller
    truncation are dropped, and so are the sums that cancel to zero."""
    t = min(a.trunc, b.trunc)
    if a.trunc == t:
        out = dict(a.coeffs)
    else:
        out = {e: c for e, c in a.coeffs.items() if e < t}
    for e, c in b.coeffs.items():
        if e >= t:
            continue
        if negate:
            c = -c
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            prev += c
            if prev:
                out[e] = prev
            else:
                del out[e]
    return LaurentSeries._trusted(out, t)


def product_below(a, b, cap):
    """(a * b).truncate(cap), forming only the terms below z^cap.

    The truncation is the min-rule min(trunc a + ord b, trunc b + ord a),
    capped at cap (an int or INF), with ord as in min_rule_order(). Both
    exponent lists are walked in ascending order and each walk stops at
    the first exponent whose pairs lie at or above the result's
    truncation, so those pairs are never formed.

    No term of b at or above w = cap - a.min_rule_order() is read, and
    b.truncate(w) gives the same result: its truncation and order can
    only change the min-rule in terms that are >= cap anyway.

    When one factor has a single stored term c z^e, the product is the
    other factor shifted by e and scaled by c, below t. That reads and
    forms exactly the terms the walk does, in the same ascending order,
    with no Fraction arithmetic when c = 1 and only negations when
    c = -1.
    """
    t = min(a.trunc + b.min_rule_order(), b.trunc + a.min_rule_order(),
            _checked_trunc(cap))
    if len(a.coeffs) == 1:
        a, b = b, a
    if len(b.coeffs) == 1:
        (e2, c2), = b.coeffs.items()
        limit = t - e2
        terms = sorted(a.coeffs.items())
        # (limit,) sorts before every (limit, c): the cut is at e1 >= limit
        terms = terms[:bisect.bisect_left(terms, (limit,))]
        if c2 == 1:
            out = {e1 + e2: c1 for e1, c1 in terms}
        elif c2 == -1:
            out = {e1 + e2: -c1 for e1, c1 in terms}
        else:
            out = {e1 + e2: c1 * c2 for e1, c1 in terms}
        return LaurentSeries._trusted(out, t)
    out = {}
    if a.coeffs and b.coeffs:
        terms_b = sorted(b.coeffs.items())
        lowest_b = terms_b[0][0]
        for e1, c1 in sorted(a.coeffs.items()):
            limit = t - e1
            if lowest_b >= limit:
                break
            for e2, c2 in terms_b:
                if e2 >= limit:
                    break
                e = e1 + e2
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
    return LaurentSeries._trusted({e: c for e, c in out.items() if c}, t)


def derive(f):
    """d/dz, termwise; the truncation drops by one."""
    return LaurentSeries._trusted(
        {e - 1: c * e for e, c in f.coeffs.items() if e != 0}, f.trunc - 1)


def integrate(f):
    """Termwise antiderivative with zero constant term (lands in H').

    Requires a zero z^-1 coefficient; that coefficient must be visible.
    """
    if f.trunc < 0:
        raise PrecisionExhausted(
            "z^-1 coefficient is beyond the truncation, cannot integrate")
    if f.coeffs.get(-1, 0) != 0:
        raise NonzeroResidue("series has residue %s, not integrable in H"
                             % (f.coeffs[-1],))
    return LaurentSeries._trusted(
        {e + 1: c / (e + 1) for e, c in f.coeffs.items() if e != -1},
        f.trunc + 1)


def invert(f):
    """Multiplicative inverse, by recursive coefficient solving.

    The output is known below trunc(f) - 2*ord(f). Exact inputs (infinite
    truncation) are only invertible when they are monomials; truncate an
    exact series first to choose an output precision.
    """
    o = f.order()
    if o is None:
        if f.trunc is INF:
            raise ZeroSeries("cannot invert the zero series")
        raise ZeroSeries("no visible leading coefficient below z^%s; "
                         "cannot invert" % (f.trunc,))
    if f.trunc is INF:
        if len(f.coeffs) == 1:
            return LaurentSeries.monomial(-o, 1 / f.coeffs[o])
        raise ValueError("inverting an exact multi-term series needs a "
                         "precision: truncate() it first")
    lead = f.coeffs[o]
    # normalize to u = 1 + (higher terms), known below trunc - ord
    n = f.trunc - o
    u = {e - o: c / lead for e, c in f.coeffs.items()}
    v = [Fraction(0)] * n
    v[0] = Fraction(1)
    for i in range(1, n):
        s = Fraction(0)
        for j in range(1, i + 1):
            uj = u.get(j)
            if uj is not None and v[i - j] != 0:
                s += uj * v[i - j]
        v[i] = -s
    out = {i - o: c / lead for i, c in enumerate(v) if c != 0}
    return LaurentSeries._trusted(out, f.trunc - 2 * o)


def _sqrt_unit_numerators(f):
    """Checks f for sqrt_unit() and runs its integer recurrence.

    Returns (o, k, s, nums): f has order o, every exponent of f - z^o is
    o plus a multiple of the stride k, and the square root is
    z^(o/2) * sum_i nums[i]/s^i z^(ik) for ik < trunc(f) - o.
    """
    o = f.order()
    if o is None:
        raise ZeroSeries("cannot take sqrt of a series with no visible terms")
    if o % 2 != 0:
        raise OddOrder("order %d is odd, no Laurent square root" % o)
    if f.coeffs[o] != 1:
        raise NonUnitLeadingCoefficient(
            "leading coefficient is %s, expected 1" % (f.coeffs[o],))
    if f.trunc is INF and len(f.coeffs) > 1:
        raise ValueError("sqrt of an exact multi-term series needs a "
                         "precision: truncate() it first")
    k, d = 0, 1
    for e, c in f.coeffs.items():
        k = math.gcd(k, e - o)
        d = math.lcm(d, c.denominator)
    if k == 0:  # f is z^o up to its truncation
        return o, 1, 1, [1]
    # f = z^o (1 + X(t)) with t = z^k: X(st) = 4Y(t) with Y integral, and
    # sqrt(1 + 4Y) has integer coefficients, so the root taken at st does
    s = 4 * d
    m = -(-(f.trunc - o) // k)
    u = [0] * m
    for e, c in f.coeffs.items():
        i = (e - o) // k
        u[i] = c.numerator * (s ** i // c.denominator)
    nums = [1]
    for i in range(1, m):
        h = (i - 1) // 2  # N_j N_(i-j) for j = 1..h, counted twice
        conv = 2 * sum(map(operator.mul, nums[1:h + 1],
                           nums[i - 1:i - h - 1:-1]))
        if i % 2 == 0:
            conv += nums[i // 2] ** 2
        nums.append((u[i] - conv) // 2)
    return o, k, s, nums


def _over_powers(nums, s, k, start, trunc):
    """The series sum_i nums[i]/s^i z^(start + ik), known below trunc."""
    out, scale = {}, 1
    for i, c in enumerate(nums):
        if c:
            out[start + i * k] = Fraction(c, scale)
        scale *= s
    return LaurentSeries._trusted(out, trunc)


def sqrt_unit(f):
    """Square root of a series of even order o with leading coefficient 1.

    Returns the branch with leading coefficient +1; the result is known
    below trunc(f) - o/2. The recurrence runs on integers: with d the lcm
    of the coefficient denominators of f, s = 4d, and k the gcd of the
    exponent steps of f above z^o, the coefficient w_i of z^(o/2 + ik) is
    N_i / s^i with N_0 = 1 and N_i = (U_i - sum_{0<j<i} N_j N_(i-j)) / 2,
    where U_i = s^i * coeff(f, o + ik). Every division is exact, and one
    Fraction is built per output coefficient.
    """
    o, k, s, nums = _sqrt_unit_numerators(f)
    return _over_powers(nums, s, k, o // 2, f.trunc - o // 2)


def sqrt_unit_with_inverse(f):
    """(sqrt_unit(f), its multiplicative inverse) from one recurrence.

    The inverse is sum_i M_i / s^i z^(-o/2 + ik) over the same s and
    stride as the square root, with M_0 = 1 and
    M_i = -sum_{0<j<=i} N_j M_(i-j): integers again. Its truncation is the
    one invert() gives the square root, trunc(f) - 3o/2.
    """
    o, k, s, nums = _sqrt_unit_numerators(f)
    inv = [1]
    for i in range(1, len(nums)):
        inv.append(-sum(map(operator.mul, nums[1:i + 1], reversed(inv))))
    return (_over_powers(nums, s, k, o // 2, f.trunc - o // 2),
            _over_powers(inv, s, k, -(o // 2), f.trunc - 3 * (o // 2)))


def _require_residue(trunc):
    """Raise unless a series known below z^trunc has a known z^-1 term."""
    if trunc < 0:
        raise PrecisionExhausted(
            "residue needs the z^-1 coefficient, series only known below "
            "z^%s" % (trunc,))


def residue(f):
    """Coefficient of z^-1; requires it to be visible (trunc >= 0)."""
    _require_residue(f.trunc)
    return f.coeffs.get(-1, Fraction(0))


def symplectic_pair(f, g):
    """<f,g> = Res_{z=0} f dg = sum_e e * g_e * f_(-e), over stored terms.

    Antisymmetric on H' (integration by parts: <f,g>+<g,f> = Res d(fg) = 0
    for any f,g, without restriction). The guard is the one the product
    f * dg gets from the min-rule: with dg = derive(g), the product is
    known below t = min(trunc f + ord dg, trunc dg + ord f), ord as in
    min_rule_order(), and PrecisionExhausted is raised when t <= -1, with
    the message residue() gives. dg itself is never formed: its order is
    one less than the smallest nonconstant exponent of g, or, when g has
    no such term, its truncation trunc g - 1.
    """
    dg_order = min((e for e in g.coeffs if e), default=g.trunc) - 1
    _require_residue(min(f.trunc + dg_order,
                         g.trunc - 1 + f.min_rule_order(), 0))
    fc = f.coeffs
    total = Fraction(0)
    for e, c in g.coeffs.items():
        h = fc.get(-e)
        if h is not None:
            total += c * h * e
    return total


def to_json(f):
    """JSON form {"trunc": int, "coeffs": {"<exp>": "p/q"}}.

    Exact series (infinite truncation) must be truncate()d first; an
    unbounded truncation is not representable in the schema.
    """
    if f.trunc is INF:
        raise ValueError("exact series has no JSON form; truncate() it first")
    return {"trunc": f.trunc,
            "coeffs": {str(e): rational_to_str(c)
                       for e, c in f.coeffs.items()}}


def from_json(obj):
    """Strict parse of the to_json() schema."""
    if not isinstance(obj, dict):
        raise ValueError("series JSON must be an object, got %r" % (obj,))
    extra = set(obj) - {"trunc", "coeffs"}
    if extra:
        raise ValueError("unknown series keys %s" % sorted(extra))
    trunc = obj.get("trunc")
    if not isinstance(trunc, int) or isinstance(trunc, bool):
        raise ValueError("series trunc must be an integer, got %r" % (trunc,))
    raw = obj.get("coeffs", {})
    if not isinstance(raw, dict):
        raise ValueError("series coeffs must be an object")
    coeffs = {}
    for k, v in raw.items():
        e = int_from_key(k, "exponent")
        if e >= trunc:
            raise ValueError("coefficient at z^%d contradicts trunc %d"
                             % (e, trunc))
        coeffs[e] = rational_from_str(v)
    return LaurentSeries(coeffs, trunc)
