"""Plain Fraction recurrences that the integer kernels are tested against."""

from fractions import Fraction

from periodjet.laurent import LaurentSeries


def fraction_sqrt_unit(f):
    """sqrt of a truncated series of even order with leading coefficient 1,
    solving w^2 = f one coefficient at a time over Fractions."""
    o = f.order()
    n = f.trunc - o
    u = {e - o: c for e, c in f.coeffs.items()}
    w = [Fraction(0)] * n
    w[0] = Fraction(1)
    for i in range(1, n):
        conv = sum((w[j] * w[i - j] for j in range(1, i)), Fraction(0))
        w[i] = (u.get(i, Fraction(0)) - conv) / 2
    return LaurentSeries({i + o // 2: c for i, c in enumerate(w) if c},
                         f.trunc - o // 2)


def canon(series):
    """Sorted coefficient map and truncation: insertion order is no part
    of a series' value."""
    return sorted(series.coeffs.items()), series.trunc
