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
the sum of x_(-m) [z^-m] over the poles of its input x. The class table
holds each [z^-m] as integer numerators over one denominator, and the
sum runs on integers over one lcm: reduce_O and reduce_Theta make one
Fraction per gap, and the matrices built from reduced columns (the
contraction route's, see _matrix_of_columns) and the rho table's entries
none; the contraction route's columns come as series, one Fraction per
term below z^1. Exponents >= 0 pair to zero, so inputs are treated
modulo H+ (respectively d+): a reduction reads only the polar part of
its input, plus the check that the input is known below z^1
(respectively z^0), and reduce_O(x) equals reduce_O(x.truncate(1))
exactly, raised exceptions included. The basis window is the precision
P: p(m) is known for every m <= P, as the g_i are known below
z^(P + ord g_i), ord g_i >= 1, and 1/y^2 and 1/y below z^(P + 4g + 2)
and z^(P + 2g + 1). A pole order beyond P raises UnreducibleExponent.

rho sends an operator alpha to the matrix of

    g_j  ->  -[alpha(g_j)]   in H^1(O),

the sign being part of the definition. It is linear in the coefficients
of alpha = sum a_(k,e) z^e D^k, so it is read off a per-curve table of
the monomial operators' matrices rho(z^e D^k), each formed once and kept
as integer numerators over one denominator. An entry is a lookup in the
class table: column j is -sum_i g_j^(k)[i] [z^(e+i)] over the poles of
z^e g_j^(k), with no series formed (see _table_entry). Half the entries
are zero by the involution z -> -z: each g_j has only odd exponents, so
where e + k is odd z^e g_j^(k) has only even poles, and an even pole m
has class zero, its pairings p(m) = -m g_i[m] being zero. So
rho(z^e D^k) = 0 when e + k is odd, and the table reads, and forms, only
the entries with e + k even (see _table_rho).

The table is exact where the orders and truncations of alpha's
coefficients say that every column is known below z^1 (see
_table_serves). Everywhere else rho refuses, read off orders and
truncations with no column formed (see _refuse). No column known below
z^1 reaches beyond the basis window. Call trunc - ord a series' gap.
Each g_j has gap P; a derivative does not widen a gap; a product's gap
is the smaller of its factors' gaps; and a sum's order is at least its
truncation minus P where each term's gap is at most P. So every column
on both routes, sum_k a_k g_j^(k) on the operator route and
fn -| L_f(n-1) ... L_f1 omega_j on the contraction route, has
ord >= trunc - P, and a column known below z^1 has no pole deeper than
P - 1. rho is its table or a PrecisionExhausted, and
UnreducibleExponent is raised only on a caller's own series, by
reduce_O and reduce_Theta. _table_serves makes the same decision from
sketches of alpha's coefficients before alpha is formed, and the same
walk, _refuse, raises rho's PrecisionExhausted from them where they
decide it. The operator route hands its sum to _table_rho as witt's
integer numerators, one denominator per order, summed only at the
parity the table reads where the sketches say the table serves, and in
full to _rho otherwise; the public rho brings a DiffOp's coefficients
to them once.

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
from math import gcd, lcm, perm

from .laurent import PrecisionExhausted, invert, rational_to_str
from .linalg import det, row_echelon
from .witt import _numerators


class UnreducibleExponent(Exception):
    """A reduction met a pole order beyond the basis window, the
    precision. Only a caller's own series can: no column of rho or of the
    contraction route known below z^1 has such a pole."""


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
    as integer numerators over one denominator (see _over_lcm), filled by
    _class_sum as it meets m.
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
    Serre duality, as (d, numerators): its gap coordinates are n/d.

    Once the input's truncation is checked, the class is the sum of
    x_(-m) [z^-m] over the input's poles m (see _class_sum).
    """
    if series.trunc < min_trunc:
        raise _short(what, min_trunc, series.trunc)
    poles = {-e: c for e, c in series.coeffs.items() if e < 0}
    if poles and max(poles) > exp.precision:
        raise UnreducibleExponent(
            "%s reduction hit pole order %d, beyond the basis window %d "
            "at this precision" % (what, max(poles), exp.precision))
    return _class_sum([(m, c.numerator, c.denominator)
                       for m, c in poles.items()], _quotient(exp, pairing))


def _class_sum(terms, record):
    """sum (n/c) [z^-m] over the terms (m, n, c), n and c integers, in the
    quotient of the given record, as (d, numerators).

    Each [z^-m] = D^-1 p(m) is read off, or added to, the record's class
    table (see _quotient). The sum runs on integers: the term of pole m
    is over c times the denominator of [z^-m], and one lcm of these is d.
    """
    pair, gaps, _, inverse, classes = record
    scaled, d = [], 1
    for m, n, c in terms:
        cls = classes.get(m)
        if cls is None:
            p = pair(m)
            cls = classes[m] = _over_lcm(
                [sum(a * b for a, b in zip(row, p)) for row in inverse])
        dm = c * cls[0]
        scaled.append((n, dm, cls[1]))
        d = lcm(d, dm)
    acc = [0] * len(gaps)
    for n, dm, nums in scaled:
        n *= d // dm
        for j, x in enumerate(nums):
            acc[j] += n * x
    return d, acc


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


def _gap_class(reduced, gaps):
    """The GapClass of a class (d, numerators) that _reduce gives, one
    Fraction per gap."""
    d, nums = reduced
    return GapClass._trusted([Fraction(n, d) for n in nums], list(gaps))


def reduce_O(h, exp):
    """Class of h in H^1(O) = H/(H+ + K0); needs trunc(h) >= 1."""
    return _gap_class(_reduce(h, exp, 1, "H^1(O)", _pairing_O), exp.gaps_O)


def reduce_Theta(zeta, exp):
    """Class of zeta in H^1(Theta) = d/(theta (+) d+); needs trunc >= 0."""
    return _gap_class(_reduce(zeta.f, exp, 0, "H^1(Theta)", _pairing_Theta),
                      exp.gaps_Theta)


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


def _matrix_of_columns(columns, exp):
    """The HomMatrix whose column j is the class in H^1(O) of columns[j],
    read from an iterable of series in column order, so each column is
    reduced before the next is formed (see _matrix_of_classes). The
    contraction route builds its matrices so; rho forms no column.
    """
    return _matrix_of_classes(
        [_reduce(s, exp, 1, "H^1(O)", _pairing_O) for s in columns], exp, 1)


def _matrix_of_classes(classes, exp, sign):
    """The HomMatrix whose column j is sign times classes[j], a class in
    H^1(O) as integers over a denominator (see _class_sum), the columns
    brought over one lcm with no Fraction."""
    d = lcm(*(dj for dj, _ in classes))
    g = len(classes)
    nums = [0] * (g * g)
    for j, (dj, col) in enumerate(classes):
        scale = sign * (d // dj)
        nums[j::g] = [scale * x for x in col]
    return HomMatrix._trusted(nums, d, _gaps_O(exp))


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


def _table_serves(sketches, exp):
    """Whether rho's table gives the matrix of an operator whose order-k
    coefficient a_k has the sketch sketches[k] = (t, o, exact) (see
    witt._sketch): a_k is known below z^t and has no term below z^o.

    Column j, op(g_j) = sum_k a_k g_j^(k), is known below the smallest of
    t + ord g_j^(k) and trunc g_j^(k) + ord a_k. When every order clears
    z^1 against the smallest order and the smallest truncation over the
    g_j^(k), every column is known below z^1, and so is z^e g_j^(k) for
    every term z^e of a_k the table reads; none of them reaches beyond
    the basis window (see the module docstring), so reduce_O is linear on
    the columns and on every table entry they need, and none of them
    raises. o is at most ord a_k, so where the sketches pass, so does the
    operator: a formed coefficient's sketch is (trunc, ord, True). Where
    the formed coefficients do not pass, rho refuses (see _refuse).
    """
    for k, (t, o, _) in sketches.items():
        og, tg, _ = _derivative_orders(exp, k)
        if t + og < 1 or tg + o < 1:
            return False
    return True


def _refuse(sketches, exp):
    """Raise what rho raises on an operator that its table declines (see
    _table_serves), where the sketches of its coefficients decide it;
    else return.

    sketches maps each order k of the operator to the sketch
    (t, o, exact) of its coefficient a_k (see witt._sketch). Reducing the
    columns op(g_j) in order would refuse the first that is known only
    below some z^trunc, trunc < 1: a column known below z^1 has no pole
    beyond the basis window (see the module docstring). Column j is
    known below the smallest of 1, t + ord g_j^(k) and
    trunc g_j^(k) + ord a_k; that bound is the column's truncation
    unless it rests on an order the sketch leaves open.

    Where _table_serves declines, some order has t + ord g_j^(k) < 1 for
    the j of the smallest ord g_j^(k), or trunc g_j^(k) + o < 1 for the j
    of the smallest trunc g_j^(k). A formed coefficient's sketch
    (trunc, ord, True) leaves no order open, so on formed coefficients
    this walk raises: rho never reaches the table on an operator it
    declines.
    """
    orders = {k: _derivative_orders(exp, k)[2] for k in sketches}
    for j in range(len(exp.h10_basis)):
        trunc, known = 1, True
        for k, (t, o, exact) in sketches.items():
            og, tg = orders[k][j]
            for bound, sure in ((t + og, True), (tg + o, exact)):
                if bound < trunc:
                    trunc, known = bound, sure
                elif bound == trunc:
                    known = known or sure
        if trunc < 1:
            if known:
                raise _short("H^1(O)", 1, trunc)
            return


def _table_entry(exp, k, e):
    """rho(z^e D^k) as (d, pairs): its nonzero entries are n/d for the
    (row-major position, integer n) pairs, d the lcm of their
    denominators; formed once per expansion.

    Column j is minus the class of z^e g_j^(k), whose poles are its terms
    below z^0:

        -sum_{0 <= i < -e} g_j^(k)[i] [z^(e+i)],
        g_j^(k)[i] = (i+k)...(i+1) g_j[i+k],

    each column summed on H^1(O)'s class table as _reduce sums a class
    (see _class_sum), with no series formed. This is the matrix that
    reducing z^e g_j^(k) below z^1 gives only where that reduction
    cannot raise: where trunc g_j^(k) + e >= 1 for every j, a product
    then having no pole beyond the basis window (see the module
    docstring). _table_rho, its one caller, reads an entry only where
    _table_serves has passed, which implies it, reads a formed entry off
    the table itself and calls this on a miss, and asks only for the
    entries with e + k even: the others are zero, the poles of
    z^e g_j^(k) being even.
    """
    table = _table(exp, _table_entry)
    entry = table.get((k, e))
    if entry is None:
        record = _quotient(exp, _pairing_O)
        columns = []
        for gj in exp.h10_basis:
            terms = []
            for i in range(-e):
                c = gj.coeffs.get(i + k)
                if c:
                    terms.append((-e - i, perm(i + k, k) * c.numerator,
                                  c.denominator))
            columns.append(_class_sum(terms, record))
        m = _matrix_of_classes(columns, exp, -1)
        entry = table[k, e] = (m.denominator, tuple(
            (p, x) for p, x in enumerate(m.numerators) if x))
    return entry


def _table_rho(ops, exp):
    """rho of the operator whose order-k coefficient is ops[k], a
    _Numerators, as sum a_(k,e) rho(z^e D^k). That is rho's matrix where
    _table_serves passes the coefficients' sketches, which its callers
    check first: on the pieces' sketches before the sum is formed, or on
    the formed coefficients (see _rho).

    rho(z^e D^k) is zero where e + k is odd: each g_j has only odd
    exponents, so z^e g_j^(k) then has only even poles, and an even
    pole's class is zero, its pairings -m g_i[m] being zero. So only the
    terms with e = k (mod 2) are read, and the others are skipped before
    any lookup: their entries are never formed. The operator route hands
    over coefficients summed at that parity only (see witt._sum_below).
    A term
    whose products have no pole adds nothing to a class and is skipped
    too.

    The sum runs on integer numerators over one denominator. Order k
    reads its terms (e, n) over a_k.den, each against a table entry over
    its d, so the term is over a_k.den * d, and one lcm per order brings
    its terms into the common denominator; the matrix keeps the sum,
    brought to lowest terms once.
    """
    table = _table(exp, _table_entry)
    scaled, den = [], 1
    for k, a in ops.items():
        o = _derivative_orders(exp, k)[0]
        read = []
        for e, n in a.terms:
            if e + o >= 0:
                break
            if (e + k) % 2:
                continue
            d, entry = table.get((k, e)) or _table_entry(exp, k, e)
            if entry:
                read.append((n, a.den * d, entry))
        den = lcm(den, *[d for _, d, _ in read])
        scaled += read
    gaps = _gaps_O(exp)
    g = len(gaps)
    acc = [0] * (g * g)
    for n, d, entry in scaled:
        n *= den // d
        for p, x in entry:
            acc[p] += n * x
    return HomMatrix._trusted(acc, den, gaps)


def _rho(ops, exp):
    """rho of the operator whose order-k coefficient is ops[k], a
    _Numerators: read off the table where _table_serves passes the
    sketches (trunc, ord, True) of those coefficients (see _table_rho),
    and otherwise the PrecisionExhausted that _refuse raises from them,
    with no column formed."""
    sketches = {k: (a.trunc, a.min_rule_order(), True)
                for k, a in ops.items()}
    if not _table_serves(sketches, exp):
        _refuse(sketches, exp)
    return _table_rho(ops, exp)


def rho(op, exp):
    """Matrix of g_j -> -[op(g_j)] in the gap basis of H^1(O).

    A sum over the expansion's table of monomial-operator matrices where
    that is exact (see _table_rho); otherwise the PrecisionExhausted that
    reducing the full op(g_j) in column order raises, read off orders
    and truncations (see _refuse). op's coefficients are brought to
    integer numerators once.
    """
    return _rho(_numerators(op.terms), exp)


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
