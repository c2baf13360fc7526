"""Expansion data of a hyperelliptic curve at its point at infinity.

The curve is y^2 = p(x) with p monic, squarefree, of odd degree 2g+1 >= 5,
so there is exactly one point at infinity, a Weierstrass point, and the
genus is g >= 2. In the local parameter z there,

    x = z^-2,
    y = z^-(2g+1) * sqrt(z^(2(2g+1)) p(z^-2)),

with the sqrt normalized to leading coefficient 1, all coefficients
rational. y and 1/y come from one integer recurrence (see
laurent.sqrt_unit_with_inverse), and y^2 is never formed as a product:
it is the polynomial p(x) itself. From these, the expansion bundles
everything the reduction and period-map layers consume:

    k0_basis     functions x^a y^b (b in {0,1}) minus their constant term,
                 one for each realized pole order up to 4g+2; the Weierstrass
                 gaps below that cutoff number exactly g.
    theta_basis  vector fields x^a y^b * v0, v0 = (y/x') d/dz, one per
                 realized pole order up to 6g-2; gaps number exactly 3g-3.
    h10_forms    the holomorphic forms x^(i-1) dx / y = h_i dz, i = 1..g,
                 as the series h_i = g_i'.
    h10_basis    their integrals g_i, each of positive order.

Pole orders are arithmetic here: a function x^a y^b has pole order
2a + (2g+1)b, a field x^a y^b v0 has 2a + (2g+1)b + (2g-2).
element_of_pole_O / element_of_pole_Theta build the element of any pole
order, known below precision - m, and return None at gap orders; the
bases above are read off them. The reduction layer does not ask for
them: it reduces by Serre duality, pairing with the g_i and with the
quadratic differentials, from 1/y and the polynomial p(x) = y^2.
"""

from fractions import Fraction

from .laurent import (
    LaurentSeries, derive, integrate, rational_from_str, rational_to_str,
    sqrt_unit_with_inverse)
from .witt import WittElement


def default_precision(genus):
    return 8 * genus + 24


def precision_floor(genus):
    """The smallest precision an expansion accepts."""
    return 4 * genus + 4


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_deriv(c):
    return _poly_trim([i * c[i] for i in range(1, len(c))])


def _poly_mod(a, b):
    # remainder of a by b over Q; b nonzero
    a = _poly_trim(list(a))
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        q = a[-1] / lead
        shift = len(a) - 1 - db
        for i in range(len(b)):
            a[shift + i] -= q * b[i]
        a = _poly_trim(a)
    return a


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    return a


class GenusAboveLimit(Exception):
    """A curve's genus is above the limit its caller set."""

    def __init__(self, genus, max_genus):
        super().__init__("genus %d is above the limit %d"
                         % (genus, max_genus))
        self.genus = genus


class HyperellipticCurve(object):
    """y^2 = p(x), p monic squarefree of odd degree 2g+1 >= 5.

    With max_genus set, a larger genus raises GenusAboveLimit before the
    squarefree test, whose cost grows with the square of the degree.
    """

    def __init__(self, p_coeffs, max_genus=None):
        coeffs = [Fraction(c) for c in p_coeffs]
        coeffs = _poly_trim(coeffs)
        deg = len(coeffs) - 1
        if deg < 5 or deg % 2 == 0:
            raise ValueError("p must have odd degree >= 5, got degree %d"
                             % deg)
        if coeffs[-1] != 1:
            raise ValueError("p must be monic, leading coefficient is %s"
                             % coeffs[-1])
        if max_genus is not None and deg // 2 > max_genus:
            raise GenusAboveLimit(deg // 2, max_genus)
        g = _poly_gcd(coeffs, _poly_deriv(coeffs))
        if len(g) != 1:
            raise ValueError("p must be squarefree; gcd(p, p') has degree %d"
                             % (len(g) - 1))
        self.p_coeffs = coeffs
        self.genus = deg // 2

    def p_at(self, series):
        """Evaluate p on a LaurentSeries by Horner's rule."""
        acc = LaurentSeries.zero()
        for c in reversed(self.p_coeffs):
            acc = acc * series + LaurentSeries.monomial(0, c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return self.p_coeffs == other.p_coeffs

    def __repr__(self):
        return "HyperellipticCurve(%r)" % (self.p_coeffs,)


def _basis_and_gaps(element_at, cutoff):
    """The (m, element) pairs of the pole orders m = 1..cutoff that
    element_at realizes, and the other orders, the gaps."""
    elems = [(m, element_at(m)) for m in range(1, cutoff + 1)]
    return ([(m, e) for m, e in elems if e is not None],
            [m for m, e in elems if e is None])


class CurveExpansion(object):
    """All z-expansions of a curve at infinity, to a fixed precision.

    y = z^-(2g+1) w and 1/y = z^(2g+1) / w, where w is the square root of
    the polynomial z^(2(2g+1)) p(z^-2) in z^2, both read off one integer
    recurrence; y is known below precision - (2g+1) and 1/y below
    precision + 2g+1, as invert(y) would give. The exact polynomial
    p(x) = y^2 is kept, and the odd fields x^a y v0 are built from it
    (see element_of_pole_Theta).

    The holomorphic forms h_i = g_i' are kept in h10_forms, next to
    their integrals g_i in h10_basis.

    Immutable after construction apart from internal caches, filled on
    first use: pole-order elements keyed by pole order, and one slot,
    _hodge, that the hodge layer keeps its own state in.
    """

    def __init__(self, curve, precision):
        g = curve.genus
        if precision < precision_floor(g):
            raise ValueError("precision %d too small, need at least 4g+4 = %d"
                             % (precision, precision_floor(g)))
        self.curve = curve
        self.precision = precision

        self.x_series = LaurentSeries.monomial(-2)
        # p(x) is exactly y^2; z^(2(2g+1)) p(z^-2) is a polynomial in z^2
        # with constant term 1, clamped to the working precision so the
        # sqrt has a finite job
        self._y_squared = curve.p_at(self.x_series)
        inner = self._y_squared.shift(2 * (2 * g + 1))
        w, w_inv = sqrt_unit_with_inverse(inner.truncate(precision))
        self.y_series = w.shift(-(2 * g + 1))
        self._inv_y = w_inv.shift(2 * g + 1)

        # v0 = (y/x') d/dz with x' = -2 z^-3
        self.v0_series = WittElement(
            self.y_series.shift(3).scaled(Fraction(-1, 2)))

        self._o_cache = {}
        self._theta_cache = {}
        self._hodge = {}  # the hodge layer's own state

        self.h10_forms, self.h10_basis = holomorphic_integrals(self)

        self.k0_basis, self.gaps_O = _basis_and_gaps(
            self.element_of_pole_O, 4 * g + 2)
        self.theta_basis, self.gaps_Theta = _basis_and_gaps(
            self.element_of_pole_Theta, 6 * g - 2)

    def _monomial_pair(self, m, offset):
        """Solve 2a + (2g+1)b = m - offset with a >= 0, b in {0,1}."""
        g = self.curve.genus
        r = m - offset
        if r >= 0 and r % 2 == 0:
            return r // 2, 0
        r -= 2 * g + 1
        if r >= 0 and r % 2 == 0:
            return r // 2, 1
        return None

    def element_of_pole_O(self, m):
        """The function x^a y^b - const of pole order m >= 1, or None.

        Leading coefficient 1; no constant term; truncation at least
        precision - m.
        """
        if m in self._o_cache:
            return self._o_cache[m]
        ab = self._monomial_pair(m, 0)
        if ab is None:
            elem = None
        else:
            a, b = ab
            if b:
                elem = self.y_series.shift(-2 * a)  # x^a = z^(-2a)
            else:
                elem = LaurentSeries.monomial(-2 * a)
            const = elem.coeff(0)
            if const != 0:
                elem = elem - LaurentSeries.monomial(0, const)
        self._o_cache[m] = elem
        return elem

    def element_of_pole_Theta(self, m):
        """The field x^a y^b v0 of pole order m >= 1, or None.

        Leading coefficient -1/2; truncation at least precision - m. As
        v0 = -1/2 z^3 y, the odd field x^a y v0 is -1/2 z^(3-2a) y^2, and
        y^2 = p(x) exactly: it is built from the polynomial p(x), with the
        truncation trunc(y) + ord(y) + 3 - 2a that the product
        (x^a v0) * y would have, instead of multiplying two series.
        """
        if m in self._theta_cache:
            return self._theta_cache[m]
        ab = self._monomial_pair(m, 2 * self.curve.genus - 2)
        if ab is None:
            elem = None
        else:
            a, b = ab
            if b:
                y, shift = self.y_series, 3 - 2 * a
                f = (self._y_squared.scaled(Fraction(-1, 2)).shift(shift)
                     .truncate(y.trunc + y.order() + shift))
            else:
                f = self.v0_series.f.shift(-2 * a)  # x^a = z^(-2a)
            elem = WittElement(f)
        self._theta_cache[m] = elem
        return elem


def expand_curve(curve, precision):
    """Build the full expansion; precision must be at least 4g+4."""
    return CurveExpansion(curve, precision)


def holomorphic_integrals(exp):
    """The forms x^(i-1) dx / y = h_i dz, i = 1..genus, and their
    integrals g_i, each of order 2(g-i)+1 > 0, as two lists (h_i), (g_i).
    The integrands h_i only have even exponents, so the residue
    precondition of integrate() holds automatically, and derive(g_i) is
    h_i in coefficients and truncation.
    """
    dx = derive(exp.x_series)
    forms = []
    xpow = LaurentSeries.one()
    for _ in range(exp.curve.genus):
        forms.append(xpow * dx * exp._inv_y)
        xpow = xpow * exp.x_series
    return forms, [integrate(h) for h in forms]


def curve_to_json(curve, precision):
    """{"p": ["<c0>", ..., "1"], "precision": N}, index = degree."""
    return {"p": [rational_to_str(c) for c in curve.p_coeffs],
            "precision": precision}


def curve_from_json(obj, max_genus=None):
    """Parse the curve schema; returns (curve, precision or None).

    Coefficients are "p/q" strings (bare integer strings accepted);
    max_genus is passed on to HyperellipticCurve.
    """
    if not isinstance(obj, dict):
        raise ValueError("curve JSON must be an object")
    extra = set(obj) - {"p", "precision"}
    if extra:
        raise ValueError("unknown curve keys %s" % sorted(extra))
    raw = obj.get("p")
    if not isinstance(raw, list) or not raw:
        raise ValueError("curve JSON needs a coefficient list under \"p\"")
    coeffs = [rational_from_str(c) for c in raw]
    precision = obj.get("precision")
    if precision is not None and (not isinstance(precision, int)
                                  or isinstance(precision, bool)):
        raise ValueError("precision must be an integer, got %r" % (precision,))
    return HyperellipticCurve(coeffs, max_genus), precision
