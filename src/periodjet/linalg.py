"""Small exact linear algebra over Fraction: echelon form, determinant,
row-span membership. Matrices are lists of lists of Fractions; every
routine copies its input. Dimensions stay in the single digits here, so
plain Gaussian elimination with exact pivots is all that is needed.
"""

from fractions import Fraction


def _copy(rows):
    return [[Fraction(x) for x in r] for r in rows]


def _eliminate(rows):
    """Gauss-Jordan elimination on a copy of rows. Returns the reduced
    rows, the rank, and the product of the pivots as found, negated once
    per row swap: the first rank rows have unit pivots in strictly
    increasing columns."""
    m = _copy(rows)
    rank = 0
    pivots = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0),
                     None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            pivots = -pivots
        pivots *= m[rank][col]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return m, rank, pivots


def row_echelon(rows):
    """Return (echelon, rank); echelon rows have strictly increasing pivots."""
    m, rank, _ = _eliminate(rows)
    return m[:rank], rank


def det(rows):
    """Exact determinant of a square matrix: the signed product of the
    pivots of the elimination, 0 below full rank."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, rank, pivots = _eliminate(rows)
    return pivots if rank == n else Fraction(0)


def in_row_span(rows, vec):
    """Is vec a rational combination of the given rows?"""
    basis, rank = row_echelon(rows)
    _, joint_rank = row_echelon(basis + [list(vec)])
    return joint_rank == rank
