"""Normal forms for cohomology classes and the matrix realization of
operators as maps H^{1,0} -> H^{0,1}.

Both cohomology presentations are quotients with canonical gap-monomial
bases:

    H^1(O)      H / (H+ + K0),        basis [z^-n] for n in gaps_O
    H^1(Theta)  d / (theta (+) d+),   basis [z^-n d/dz] for n in gaps_Theta

reduce_O / reduce_Theta compute the unique representative by an upward
sweep from the most negative exponent: a realized pole order is cleared by
subtracting the matching basis element, a gap order contributes a
coordinate. Exponents >= 0 are killed by the quotient, so inputs are
treated modulo H+ (respectively d+): a reduction reads only the polar
part of its input, plus the check that the input is known below z^1
(respectively z^0). The sweep therefore runs on the input and the basis
elements truncated at that bound, and reduce_O(x) equals
reduce_O(x.truncate(1)) exactly, raised exceptions included.

rho sends an operator alpha to the matrix of

    g_j  ->  -[alpha(g_j)]   in H^1(O),

the sign being part of the definition. It forms alpha(g_j) only below
z^1, the part reduce_O reads. A matrix M represents a symmetric
map exactly when D*M is symmetric, with D the duality pairing matrix
D(i,j) = <g_i, z^-n_j>; that criterion is exported for reuse by the
period layer and the CLI report.
"""

from fractions import Fraction

from .laurent import (
    LaurentSeries, PrecisionExhausted, rational_from_str, rational_to_str,
    symplectic_pair)
from .linalg import det
from .witt import diffop_apply


class UnreducibleExponent(Exception):
    """The sweep hit a pole order no basis element covers at this precision."""


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

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, GapClass):
            return NotImplemented
        return self.coords == other.coords and self.gaps == other.gaps

    def __repr__(self):
        return "GapClass(%r, gaps=%r)" % (self.coords, self.gaps)


class HomMatrix(object):
    """Matrix of a map H^{1,0} -> H^{0,1}: entry (i,j) is the coordinate
    of [z^-n_i] in the image of g_j."""

    def __init__(self, entries, basis_gaps):
        gaps = list(basis_gaps)
        rows = [[Fraction(x) for x in r] for r in entries]
        if len(rows) != len(gaps) or any(len(r) != len(gaps) for r in rows):
            raise ValueError("entries must be %d x %d"
                             % (len(gaps), len(gaps)))
        self.entries = rows
        self.basis_gaps = gaps

    @classmethod
    def from_columns(cls, columns, basis_gaps):
        """The matrix whose column j is columns[j]."""
        return cls([list(row) for row in zip(*columns)], basis_gaps)

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def __eq__(self, other):
        if not isinstance(other, HomMatrix):
            return NotImplemented
        return self.entries == other.entries and \
            self.basis_gaps == other.basis_gaps

    def __add__(self, other):
        if not isinstance(other, HomMatrix):
            return NotImplemented
        if self.basis_gaps != other.basis_gaps:
            raise ValueError("basis mismatch")
        return HomMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)],
                         self.basis_gaps)

    def __sub__(self, other):
        if not isinstance(other, HomMatrix):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        return HomMatrix([[c * x for x in r] for r in self.entries],
                         self.basis_gaps)

    def __repr__(self):
        return "HomMatrix(%r, basis_gaps=%r)" % (self.entries,
                                                 self.basis_gaps)


def _sweep(series, gaps, element_at, cutoff, min_trunc, what):
    """Shared reduction sweep; returns gap coordinates in ascending order.

    element_at(m) must return a series of order exactly -m (or None at a
    gap); its truncation is at least precision - m, which keeps min_trunc
    intact across subtractions because m <= cutoff = precision - 2.
    Only exponents below 0 decide the coordinates, so the sweep works on
    the input and on each subtracted element truncated at min_trunc, after
    the input's truncation has been checked.
    """
    if series.trunc < min_trunc:
        raise PrecisionExhausted(
            "%s reduction needs truncation >= %d, input has %s"
            % (what, min_trunc, series.trunc))
    gapset = set(gaps)
    coords = {n: Fraction(0) for n in gaps}
    work = series.truncate(min_trunc)
    while True:
        o = work.order()
        if o is None or o >= 0:
            break
        m = -o
        c = work.coeffs[o]
        if m in gapset:
            coords[m] = c
            work = work - LaurentSeries.monomial(o, c)
            continue
        if m > cutoff:
            raise UnreducibleExponent(
                "%s reduction hit pole order %d, beyond the basis window %d "
                "at this precision" % (what, m, cutoff))
        elem = element_at(m)
        if elem is None:
            raise UnreducibleExponent(
                "%s reduction: pole order %d is neither a gap nor realized"
                % (what, m))
        work = work - elem.truncate(min_trunc).scaled(c / elem.coeff(o))
    return coords


def reduce_O(h, exp):
    """Class of h in H^1(O) = H/(H+ + K0); needs trunc(h) >= 1."""
    coords = _sweep(h, exp.gaps_O, exp.element_of_pole_O,
                    exp.precision - 2, 1, "H^1(O)")
    return GapClass([coords[n] for n in exp.gaps_O], exp.gaps_O)


def reduce_Theta(zeta, exp):
    """Class of zeta in H^1(Theta) = d/(theta (+) d+); needs trunc >= 0."""
    def coefficient_at(m):
        elem = exp.element_of_pole_Theta(m)
        return None if elem is None else elem.f
    coords = _sweep(zeta.f, exp.gaps_Theta, coefficient_at,
                    exp.precision - 2, 0, "H^1(Theta)")
    return GapClass([coords[n] for n in exp.gaps_Theta], exp.gaps_Theta)


def duality_matrix(exp):
    """D(i,j) = <g_i, z^-n_j> over the O-gaps; exact, invertible."""
    return [[symplectic_pair(gi, LaurentSeries.monomial(-n))
             for n in exp.gaps_O]
            for gi in exp.h10_basis]


def duality_det(exp):
    return det(duality_matrix(exp))


def rho(op, exp):
    """Matrix of g_j -> -[op(g_j)] in the gap basis of H^1(O).

    op(g_j) is formed only below z^1: reduce_O reads nothing above, so
    the matrix, and any exception, is the one the full op(g_j) gives.
    """
    cols = []
    for gj in exp.h10_basis:
        cls = reduce_O(diffop_apply(op, gj, below=1), exp)
        cols.append([-c for c in cls.coords])
    return HomMatrix.from_columns(cols, exp.gaps_O)


def is_symmetric_hom(hom, exp):
    """Symmetry criterion: D * M symmetric <=> M is in Hom^(s)."""
    d = duality_matrix(exp)
    m = hom.entries
    n = len(d)
    b = [[sum(d[i][k] * m[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return all(b[i][j] == b[j][i] for i in range(n) for j in range(i + 1, n))


def hom_to_json(hom):
    """{"basis_gaps": [n1..ng], "entries": [["p/q", ...], ...]} row-major."""
    return {"basis_gaps": list(hom.basis_gaps),
            "entries": [[rational_to_str(x) for x in row]
                        for row in hom.entries]}


def hom_from_json(obj):
    if not isinstance(obj, dict) or set(obj) - {"basis_gaps", "entries"}:
        raise ValueError("matrix JSON must have basis_gaps and entries only")
    gaps = obj.get("basis_gaps")
    rows = obj.get("entries")
    if not isinstance(gaps, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in gaps):
        raise ValueError("basis_gaps must be a list of integers")
    if sorted(gaps) != gaps or len(set(gaps)) != len(gaps):
        raise ValueError("basis_gaps must be strictly ascending")
    if not isinstance(rows, list):
        raise ValueError("entries must be a list of rows")
    return HomMatrix([[rational_from_str(x) for x in row] for row in rows],
                     gaps)
