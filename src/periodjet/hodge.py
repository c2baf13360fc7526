"""Normal forms for cohomology classes and the matrix realization of
operators as maps H^{1,0} -> H^{0,1}.

Both cohomology presentations are quotients with canonical gap-monomial
bases:

    H^1(O)      H / (H+ + K0),        basis [z^-n] for n in gaps_O
    H^1(Theta)  d / (theta (+) d+),   basis [z^-n d/dz] for n in gaps_Theta

reduce_O / reduce_Theta compute the gap coordinates by Serre duality,
on the residue pairing. The quotient pairs nondegenerately with a basis
of its dual space, so a class is fixed by its pairings p(m) of z^-m:

    H^1(O)      pairs with the g_i:   p(m) = (<g_i, z^-m>)_i = (-m g_i[m])_i;
    H^1(Theta)  pairs with the quadratic differentials q_i, x^i dx^2/y^2
                (i <= 2g-2) and x^i dx^2/y (i <= g-3):
                p(m) = (Res q_i z^-m dz)_i = (q_i[m-1])_i.

The pairings of the gap monomials form an invertible matrix
D = (p(n_j))_j. Each quotient has one record per expansion, built on
first use from its pairing alone: p, D, D^-1, and a table of the
classes [z^-m] = D^-1 p(m), filled one pole order at a time. A class is
the sum of x_(-m) [z^-m] over the poles of its input x. Exponents >= 0
pair to zero, so inputs are treated modulo H+ (respectively d+): a
reduction reads only the polar part of its input, plus the check that
the input is known below z^1 (respectively z^0), and reduce_O(x) equals
reduce_O(x.truncate(1)) exactly, raised exceptions included. A pole
order beyond precision - 2, the window in which the expansion's
pole-order elements are known, raises UnreducibleExponent.

rho sends an operator alpha to the matrix of

    g_j  ->  -[alpha(g_j)]   in H^1(O),

the sign being part of the definition. It is linear in the coefficients
of alpha = sum a_(k,e) z^e D^k, so it is read off a per-curve table of
the monomial operators' matrices rho(z^e D^k), each formed once, by
reducing z^e g_j^(k) below z^1, the part reduce_O reads, and kept as
integer numerators over one denominator. Where the orders and
truncations of alpha say a column might be unknown at z^0 or reach a
pole beyond the basis window, rho reduces alpha(g_j) itself, so the
matrix, and any exception, is the one the full alpha(g_j) gives.
refuse_before_rho raises that PrecisionExhausted from sketches of
alpha's coefficients, before alpha is formed, where they decide it.

A matrix M represents a symmetric map exactly when D*M is symmetric,
with D the duality pairing matrix D(i,j) = <g_i, z^-n_j>, the D of
H^1(O)'s record; that criterion is exported for reuse by the period
layer and the CLI report.

All of this per-expansion state, the two quotient records, the
derivative orders and the rho table, lives in one attribute of the
expansion, exp._hodge, that only this module reads and writes: a table
per function that fills one, keyed by that function.
"""

from fractions import Fraction
from math import gcd, lcm

from .laurent import LaurentSeries, PrecisionExhausted, invert, rational_to_str
from .linalg import det, row_echelon
from .witt import DiffOp, diffop_apply


class UnreducibleExponent(Exception):
    """A reduction met a pole order beyond the basis window precision - 2."""


class GapClass(object):
    """Coordinates of a class in a gap basis: of H^1(O) from reduce_O, of
    H^1(Theta) from reduce_Theta."""

    def __init__(self, coords, gaps):
        coords = [Fraction(c) for c in coords]
        if len(coords) != len(gaps):
            raise ValueError("expected %d coordinates, got %d"
                             % (len(gaps), len(coords)))
        self.coords = coords
        self.gaps = list(gaps)

    @classmethod
    def _trusted(cls, coords, gaps):
        """A class from fresh lists, one Fraction per gap, not checked
        again."""
        c = object.__new__(cls)
        c.coords = coords
        c.gaps = gaps
        return c

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, GapClass):
            return NotImplemented
        return self.coords == other.coords and self.gaps == other.gaps

    def __repr__(self):
        return "GapClass(%r, gaps=%r)" % (self.coords, self.gaps)


def _over_lcm(xs):
    """(d, numerators): the Fractions xs as integers over d, the lcm of
    their denominators, which leaves them in lowest terms."""
    d = lcm(*(x.denominator for x in xs))
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


class HomMatrix(object):
    """Matrix of a map H^{1,0} -> H^{0,1}: entry (i,j) is the coordinate
    of [z^-n_i] in the image of g_j.

    The g x g entries are kept as one row-major tuple of int numerators
    over one positive denominator, in lowest terms: the gcd of the
    denominator and every numerator is 1, so the zero matrix has
    denominator 1, and equal matrices have equal fields. entries gives
    them as fresh lists of Fractions. basis_gaps is a tuple, which the
    matrices the library builds share with their quotient record.
    """

    __slots__ = ("numerators", "denominator", "basis_gaps")

    def __init__(self, entries, basis_gaps):
        gaps = tuple(basis_gaps)
        rows = [[Fraction(x) for x in r] for r in entries]
        if len(rows) != len(gaps) or any(len(r) != len(gaps) for r in rows):
            raise ValueError("entries must be %d x %d"
                             % (len(gaps), len(gaps)))
        self.denominator, self.numerators = _over_lcm(
            [x for r in rows for x in r])
        self.basis_gaps = gaps

    @classmethod
    def _trusted(cls, numerators, denominator, basis_gaps):
        """A matrix from a gaps tuple, shared, and g x g row-major int
        numerators over a positive denominator, brought to lowest terms
        here."""
        m = object.__new__(cls)
        common = gcd(denominator, *numerators)
        if common != 1:
            numerators = [x // common for x in numerators]
            denominator //= common
        m.numerators = tuple(numerators)
        m.denominator = denominator
        m.basis_gaps = basis_gaps
        return m

    @classmethod
    def from_columns(cls, columns, basis_gaps):
        """The matrix whose column j is columns[j], a list of Fractions,
        over the gaps tuple basis_gaps."""
        d, numerators = _over_lcm([x for row in zip(*columns) for x in row])
        return cls._trusted(numerators, d, basis_gaps)

    @property
    def entries(self):
        """The rows, as fresh lists of Fractions."""
        g, d, nums = len(self.basis_gaps), self.denominator, self.numerators
        return [[Fraction(x, d) for x in nums[i * g:(i + 1) * g]]
                for i in range(g)]

    def is_zero(self):
        return not any(self.numerators)

    def __eq__(self, other):
        if not isinstance(other, HomMatrix):
            return NotImplemented
        return self.numerators == other.numerators and \
            self.denominator == other.denominator and \
            self.basis_gaps == other.basis_gaps

    def _combined(self, other, sign):
        """self + sign * other, on the numerators over the lcm of the two
        denominators."""
        if not isinstance(other, HomMatrix):
            return NotImplemented
        if self.basis_gaps != other.basis_gaps:
            raise ValueError("basis mismatch")
        d = lcm(self.denominator, other.denominator)
        p, q = d // self.denominator, sign * (d // other.denominator)
        return HomMatrix._trusted(
            [p * a + q * b for a, b in zip(self.numerators, other.numerators)],
            d, self.basis_gaps)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def scaled(self, c):
        c = Fraction(c)
        return HomMatrix._trusted(
            [c.numerator * x for x in self.numerators],
            c.denominator * self.denominator, self.basis_gaps)

    def __repr__(self):
        return "HomMatrix(%r, basis_gaps=%r)" % (self.entries,
                                                 list(self.basis_gaps))


def _table(exp, owner):
    """The per-expansion table that the function owner fills, kept with
    the others in exp._hodge, keyed by owner."""
    return exp._hodge.setdefault(owner, {})


def _quotient(exp, pairing):
    """The record (pair, gaps, D, D^-1, classes) of the quotient whose
    pairing is given, built once per expansion.

    pairing(exp) gives pair, the pairings p(m) of z^-m with a basis of
    the quotient's dual space, and the gap basis, kept as a tuple that
    the matrices over it share. D = (p(n_j))_j holds the pairings of the
    gap monomials, and D^-1 is the right half of the echelon form of
    [D | I]. classes maps a pole order m to the class of z^-m, D^-1 p(m),
    filled by _reduce as it meets m.
    """
    records = _table(exp, _quotient)
    if pairing not in records:
        pair, gaps = pairing(exp)
        d = [list(r) for r in zip(*map(pair, gaps))]
        n = len(d)
        rows, _ = row_echelon([r + [int(i == j) for j in range(n)]
                               for i, r in enumerate(d)])
        records[pairing] = (pair, tuple(gaps), d, [r[n:] for r in rows],
                            {})
    return records[pairing]


def _short(what, min_trunc, trunc):
    """The refusal of a reduction whose input is known too little."""
    return PrecisionExhausted(
        "%s reduction needs truncation >= %d, input has %s"
        % (what, min_trunc, trunc))


def _reduce(series, exp, min_trunc, what, pairing):
    """The class of series in the quotient with the given pairing, by
    Serre duality.

    Once the input's truncation is checked, the class is the sum of
    x_(-m) [z^-m] over the input's poles m, each [z^-m] = D^-1 p(m) read
    off, or added to, the quotient's record (see _quotient).
    """
    if series.trunc < min_trunc:
        raise _short(what, min_trunc, series.trunc)
    poles = {-e: c for e, c in series.coeffs.items() if e < 0}
    if poles and max(poles) > exp.precision - 2:
        raise UnreducibleExponent(
            "%s reduction hit pole order %d, beyond the basis window %d "
            "at this precision" % (what, max(poles), exp.precision - 2))
    pair, gaps, _, inverse, classes = _quotient(exp, pairing)
    for m in poles.keys() - classes.keys():
        p = pair(m)
        classes[m] = [sum(a * b for a, b in zip(row, p)) for row in inverse]
    return GapClass._trusted(
        [sum((c * classes[m][j] for m, c in poles.items()), Fraction(0))
         for j in range(len(gaps))], list(gaps))


def _pairing_O(exp):
    """p(m) = (<g_i, z^-m>)_i = (-m g_i[m])_i, on the O-gaps."""
    def pair(m):
        return [-m * gi.coeff(m) for gi in exp.h10_basis]
    return pair, exp.gaps_O


def _pairing_Theta(exp):
    """p(m) = (<q_i, z^-m d/dz>)_i = (q_i[m-1])_i, on the Theta-gaps, over
    the quadratic differentials q_i: x^i dx^2/y^2 for i <= 2g-2 and
    x^i dx^2/y for i <= g-3, in z 4 z^(-2i-6) / y^2 and 4 z^(-2i-6) / y.
    1/y^2 is the inverse of the polynomial p(x), formed once, and known
    below precision + 4g + 2 as (1/y)^2 would be.
    """
    g = exp.curve.genus
    inv_y2 = invert(exp._y_squared.truncate(exp.precision - 4 * g - 2))

    def pair(m):
        return [4 * s.coeff(m + 2 * i + 5)
                for s, top in ((inv_y2, 2 * g - 2), (exp._inv_y, g - 3))
                for i in range(top + 1)]
    return pair, exp.gaps_Theta


def reduce_O(h, exp):
    """Class of h in H^1(O) = H/(H+ + K0); needs trunc(h) >= 1."""
    return _reduce(h, exp, 1, "H^1(O)", _pairing_O)


def reduce_Theta(zeta, exp):
    """Class of zeta in H^1(Theta) = d/(theta (+) d+); needs trunc >= 0."""
    return _reduce(zeta.f, exp, 0, "H^1(Theta)", _pairing_Theta)


def _gaps_O(exp):
    """The gaps of H^1(O) as its record keeps them, a tuple that every
    matrix over them shares."""
    return _quotient(exp, _pairing_O)[1]


def duality_matrix(exp):
    """D(i,j) = <g_i, z^-n_j> over the O-gaps; exact, invertible. A fresh
    copy of the D of H^1(O)'s record."""
    return [list(r) for r in _quotient(exp, _pairing_O)[2]]


def duality_det(exp):
    return det(_quotient(exp, _pairing_O)[2])


def _columns(op, exp):
    """rho's columns, reducing each op(g_j) formed below z^1."""
    return [[-c for c in reduce_O(diffop_apply(op, gj, below=1), exp).coords]
            for gj in exp.h10_basis]


def _derivative_orders(exp, k):
    """The smallest min_rule_order and the smallest trunc over the
    g_j^(k), and the pair (min_rule_order, trunc) of each g_j^(k) in
    column order, read off the g_j: k derivatives kill exactly the
    exponents 0 <= e < k. Formed once per expansion.
    """
    table = _table(exp, _derivative_orders)
    orders = table.get(k)
    if orders is None:
        columns = [(min((e for e in gj.coeffs if not 0 <= e < k),
                        default=gj.trunc) - k, gj.trunc - k)
                   for gj in exp.h10_basis]
        orders = table[k] = (min(o for o, _ in columns),
                             min(t for _, t in columns), columns)
    return orders


def refuse_before_rho(sketches, exp):
    """Raise the PrecisionExhausted that rho raises on an operator of
    which only the sketches of its coefficients are known, where they
    decide it; else return, and rho forms what it reads.

    sketches maps each order k of the operator to the sketch
    (t, o, exact) of its coefficient a_k (see witt._sketch). Where the
    table cannot serve, rho reduces the columns in order. Column j, the
    sum of a_k g_j^(k) below z^1, is known below the smallest of 1,
    t + ord g_j^(k) and trunc g_j^(k) + ord a_k, and has no pole deeper
    than -min_k(o + ord g_j^(k)). Where that truncation is below 1 and
    does not rest on an order the sketch leaves open, reduce_O raises
    on column j, and this raises the same, provided each column before
    it is known below z^1 and reaches no pole beyond the basis window.
    """
    window = exp.precision - 2
    columns = {k: _derivative_orders(exp, k)[2] for k in sketches}
    for j in range(len(exp.h10_basis)):
        trunc, known, deepest = 1, True, 1
        for k, (t, o, exact) in sketches.items():
            og, tg = columns[k][j]
            for bound, sure in ((t + og, True), (tg + o, exact)):
                if bound < trunc:
                    trunc, known = bound, sure
                elif bound == trunc:
                    known = known or sure
            deepest = min(deepest, o + og)
        if trunc < 1:
            if known:
                raise _short("H^1(O)", 1, trunc)
            return
        if deepest < -window:
            return


def _table_entry(exp, k, e):
    """rho(z^e D^k) as (d, pairs): its nonzero entries are n/d for the
    (row-major position, integer n) pairs, d the lcm of their
    denominators; formed once per expansion."""
    table = _table(exp, _table_entry)
    entry = table.get((k, e))
    if entry is None:
        cols = _columns(DiffOp({k: LaurentSeries.monomial(e)}), exp)
        g = len(cols)
        nonzero = [(i * g + j, x) for j, col in enumerate(cols)
                   for i, x in enumerate(col) if x]
        d = lcm(*(x.denominator for _, x in nonzero))
        entry = table[k, e] = (d, tuple(
            (p, x.numerator * (d // x.denominator)) for p, x in nonzero))
    return entry


def _table_rho(op, exp):
    """rho(op) as sum a_(k,e) rho(z^e D^k), or None when a column might
    not reduce.

    Column j of the per-column path is known below the smallest of 1,
    trunc a_k + ord g_j^(k) and trunc g_j^(k) + ord a_k, and reaches no
    pole deeper than -min_k(ord a_k + ord g_j^(k)). When every such
    truncation is 1 and every such pole order is within the basis window
    precision - 2 (checked with the smallest order and truncation over
    the g_j^(k)), reduce_O is linear on the columns and on every table
    entry they need, and none of them raises. A term whose products have
    no pole adds nothing to a class and is skipped.

    The sum runs on integer numerators over one denominator, the lcm of
    the terms' a_(k,e).denominator * d, and the matrix keeps them, brought
    to lowest terms once.
    """
    window = exp.precision - 2
    terms = []
    for k, a in op.terms.items():
        o, t, _ = _derivative_orders(exp, k)
        lowest = a.order()
        if a.trunc + o < 1 or t + (a.trunc if lowest is None else lowest) < 1:
            return None
        if lowest is not None and lowest + o < -window:
            return None
        terms.extend((k, e, c) for e, c in a.coeffs.items() if e + o < 0)
    scaled = []
    den = 1
    for k, e, c in terms:
        d, entry = _table_entry(exp, k, e)
        if entry:
            d *= c.denominator
            den = lcm(den, d)
            scaled.append((c.numerator, d, entry))
    gaps = _gaps_O(exp)
    g = len(gaps)
    acc = [0] * (g * g)
    for n, d, entry in scaled:
        n *= den // d
        for p, x in entry:
            acc[p] += n * x
    return HomMatrix._trusted(acc, den, gaps)


def rho(op, exp):
    """Matrix of g_j -> -[op(g_j)] in the gap basis of H^1(O).

    A sum over the expansion's table of monomial-operator matrices where
    that is exact (see _table_rho), otherwise op(g_j) reduced column by
    column: the matrix, and any exception, is the one the full op(g_j)
    gives.
    """
    m = _table_rho(op, exp)
    if m is None:
        m = HomMatrix.from_columns(_columns(op, exp), _gaps_O(exp))
    return m


def is_symmetric_hom(hom, exp):
    """Symmetry criterion: D * M symmetric <=> M is in Hom^(s)."""
    d = _quotient(exp, _pairing_O)[2]
    m = hom.numerators  # D * M is symmetric exactly when D * (den M) is
    n = len(d)
    b = [[sum(d[i][k] * m[k * n + j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return all(b[i][j] == b[j][i] for i in range(n) for j in range(i + 1, n))


def hom_to_json(hom):
    """{"basis_gaps": [n1..ng], "entries": [["p/q", ...], ...]} row-major."""
    return {"basis_gaps": list(hom.basis_gaps),
            "entries": [[rational_to_str(x) for x in row]
                        for row in hom.entries]}
