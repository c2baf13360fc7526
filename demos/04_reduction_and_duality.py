"""Reduction to canonical representatives and the duality pairing.

A class in the g-dimensional quotient is fixed by its residue pairings
with the holomorphic integrals g_i. Pairing the g_i against the gap
monomials gives an invertible g x g matrix D, the exact form of the
duality between the two quotients the package works in, and the gap
coordinates of a series h are D^-1 times its pairings <g_i, h>.
"""

from fractions import Fraction

from periodjet.curve import (
    HyperellipticCurve, default_precision, expand_curve)
from periodjet.hodge import (
    duality_det, duality_matrix, reduce_O, reduce_Theta)
from periodjet.laurent import LaurentSeries, symplectic_pair

exp = expand_curve(HyperellipticCurve([1, 0, 0, 0, 0, 1]),
                   default_precision(2))

# --- reducing a series ---------------------------------------------------------

h = LaurentSeries({-5: 4, -3: 7, -1: 2, 6: 1})
cls = reduce_O(h, exp)
print("class of 4z^-5 + 7z^-3 + 2z^-1 + z^6 on gaps", cls.gaps,
      "is", cls.coords)
# z^-5 is the polar part of the function y on this curve, so it pairs to
# zero with every g_i and its class vanishes; the gap terms 7z^-3 + 2z^-1
# are their own coordinates, and z^6 pairs to zero
assert cls.gaps == [1, 3]
assert cls.coords == [2, 7]

# reducing any basis function gives zero, and positive parts never matter
for _, e in exp.k0_basis:
    assert reduce_O(e, exp).is_zero()
assert reduce_O(LaurentSeries({2: 9, 11: -4}), exp).is_zero()

# the same machinery on vector fields, pairing with the quadratic
# differentials: a field of the basis has the zero class
zeta = exp.theta_basis[0][1]
assert reduce_Theta(zeta, exp).is_zero()
print("every basis element reduces to the zero class")

# --- duality --------------------------------------------------------------------

d = duality_matrix(exp)
print("duality matrix:", d, " det =", duality_det(exp))
assert duality_det(exp) == -4

# entry (i, j) is the pairing of the integral g_i against the j-th gap
# monomial z^-n_j
for i, gi in enumerate(exp.h10_basis):
    for j, n in enumerate(exp.gaps_O):
        assert d[i][j] == symplectic_pair(gi, LaurentSeries.monomial(-n))

# duality converts classes to linear functionals: <g_i, h> can be read
# off from the class coordinates alone, whatever representative h had
vec = [sum(d[i][j] * cls.coords[j] for j in range(len(cls.coords)))
       for i in range(2)]
full = [symplectic_pair(gi, h) for gi in exp.h10_basis]
print("pairings via class coordinates:", vec, " directly:", full)
assert vec == full

print("ok")
