"""The hyperelliptic involution iota: y -> -y as an exact symmetry.

iota fixes the point at infinity and acts there as z -> -z, so it pushes
a field forward as iota_*(f(z) d/dz) = -f(-z) d/dz, that is
c_e z^e -> (-1)^(e+1) c_e z^e, the truncation kept. It acts by -1 on
H^{1,0} and on H^1(O), so by +1 on the matrices of every differential:
ell1_n and nu2 of the pushed-forward fields are those of the fields, or
the same refusal, and so are ell_k_n's symmetrized products of them.
Fields with only even exponents are anti-invariant,
and nu1 kills them: the rank of nu1 is 2g-1 (Oort-Steenbrink).
"""

import pytest
from hypothesis import given, settings, strategies as st

from periodjet.curve import default_precision
from periodjet.laurent import INF, LaurentSeries
from periodjet.linalg import row_echelon
from periodjet.period import (
    canonical_second_rep, ell1_n, ell_k_n, nu1_image_generators, nu2)
from periodjet.witt import WittElement

from test_period import dense_expansion, outcome

# one seeded dense curve per genus, at its default precision
CURVES = {g: dense_expansion(100 + g, g, default_precision(g))
          for g in range(2, 10)}

# words of one to four fields with poles to z^-8, all exact or all known
# below z^30, z^12 or z^6; built once, shared by every curve
COEFFS = st.dictionaries(st.integers(-8, 5),
                         st.fractions(-4, 4, max_denominator=5).filter(bool),
                         min_size=1, max_size=3)
TRUNCS = st.sampled_from([INF, 30, 12, 6])


def word(coeffs, trunc):
    return [WittElement(LaurentSeries(c, trunc)) for c in coeffs]


WORDS = st.builds(word, st.lists(COEFFS, min_size=1, max_size=4), TRUNCS)
PAIRS = st.builds(word, st.lists(COEFFS, min_size=2, max_size=2), TRUNCS)
# words of two or three fields, exact or known below z^12, z^4 or z^1,
# with a k = 2 or 3 of at most their length
BLOCKS = st.builds(lambda fields, k: (fields, min(k, len(fields))),
                   st.builds(word, st.lists(COEFFS, min_size=2, max_size=3),
                             st.sampled_from([INF, 12, 4, 1])),
                   st.sampled_from([2, 3]))


def involution(zeta):
    """iota_* zeta: c_e -> (-1)^(e+1) c_e, the truncation kept."""
    f = zeta.f
    return WittElement(LaurentSeries(
        {e: c if e % 2 else -c for e, c in f.coeffs.items()}, f.trunc))


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(fields=WORDS)
def test_ell1_n_is_invariant_under_the_involution(genus, fields):
    exp = CURVES[genus]
    assert outcome(ell1_n, [involution(f) for f in fields], exp) == \
        outcome(ell1_n, fields, exp)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(pair=PAIRS)
def test_nu2_is_invariant_under_the_involution(genus, pair):
    exp = CURVES[genus]
    zeta, xi = pair
    pushed = canonical_second_rep(involution(zeta), involution(xi))
    assert outcome(nu2, pushed, exp) == \
        outcome(nu2, canonical_second_rep(zeta, xi), exp)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(blocks=BLOCKS)
def test_ell_k_n_is_invariant_under_the_involution(genus, blocks):
    exp = CURVES[genus]
    fields, k = blocks
    assert outcome(ell_k_n, [involution(f) for f in fields], k, exp) == \
        outcome(ell_k_n, fields, k, exp)


@pytest.mark.parametrize("genus", range(2, 10))
def test_nu1_has_rank_2g_minus_1(genus):
    # the even gap fields are anti-invariant, so nu1 kills them, and the
    # 2g-1 odd ones have independent images
    exp = CURVES[genus]
    images = nu1_image_generators(exp)
    assert [m.is_zero() for m in images] == \
        [n % 2 == 0 for n in exp.gaps_Theta]
    assert row_echelon([m.numerators for m in images])[1] == 2 * genus - 1
