"""Plain references that the fast kernels are tested against: Fraction
recurrences for the integer square root, full-length products,
compositions by the Leibniz rule over those products, the Witt bracket
over them, the Lie derivative by the product rule, full-length forms of
the routes that form only the coefficients a reduction reads, and the
residue pairing read off a full product."""

from fractions import Fraction
from math import comb

from periodjet.hodge import HomMatrix, reduce_O
from periodjet.laurent import LaurentSeries, derive, residue
from periodjet.witt import DiffOp, diffop_apply, phi


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


def full_product(a, b):
    """a * b over every pair of terms, with the min-rule truncation
    min(trunc a + ord b, trunc b + ord a), a visible zero's order being
    its truncation."""
    def order(s):
        return min(s.coeffs) if s.coeffs else s.trunc
    t = min(a.trunc + order(b), b.trunc + order(a))
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if e1 + e2 < t:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return LaurentSeries(out, t)


def full_symplectic_pair(f, g):
    """<f,g> = Res f dg as the residue of the whole product f * derive(g),
    with its min-rule truncation deciding whether z^-1 is known."""
    return residue(full_product(f, derive(g)))


def _columns(cols, gaps):
    return HomMatrix([[cols[j][i] for j in range(len(gaps))]
                      for i in range(len(gaps))], gaps)


def full_rho(op, exp):
    """rho reducing op(g_j) formed to the full precision."""
    return _columns([[-c for c in reduce_O(diffop_apply(op, gj), exp).coords]
                     for gj in exp.h10_basis], exp.gaps_O)


def full_compose(w, v):
    """w o v by the Leibniz rule over full_product: order m+i sums
    C(k,i) a_k b_m^(k-i) over all (k, m) by series addition."""
    acc = {}
    for k, a in w.terms.items():
        for m, b in v.terms.items():
            derivatives = [b]
            for _ in range(k):
                derivatives.append(derive(derivatives[-1]))
            for i in range(k + 1):
                piece = full_product(a, derivatives[k - i]).scaled(comb(k, i))
                acc[m + i] = acc[m + i] + piece if m + i in acc else piece
    return DiffOp(acc)


def full_bracket(a, b):
    """The coefficient f_a f_b' - f_b f_a' of [a, b], by series
    subtraction of two full_products."""
    return full_product(a.f, derive(b.f)) - full_product(b.f, derive(a.f))


def full_operator_route(fields, exp):
    """ell1_n with every composition and every column formed to the full
    precision."""
    op = phi(fields[0])
    for zeta in fields[1:]:
        op = full_compose(phi(zeta), op)
    return full_rho(op, exp).scaled((-1) ** (len(fields) - 1))


def lie_on_form(zeta, h):
    """Coefficient of L_zeta (h dz) = (f h' + f' h) dz, by the product rule
    over two full-length products: the production route forms it as one
    windowed product, (f h)'."""
    return zeta.f * derive(h) + derive(zeta.f) * h


def full_contraction(fields, exp):
    """ell1_n_contraction with its last contraction formed to the full
    precision."""
    cols = []
    for gj in exp.h10_basis:
        h = derive(gj)
        for zeta in fields[:-1]:
            h = lie_on_form(zeta, h)
        cols.append(reduce_O(fields[-1].f * h, exp).coords)
    return _columns(cols, exp.gaps_O).scaled((-1) ** len(fields))


def full_nu2(rep, exp):
    """nu2 reducing its three contractions formed to the full precision."""
    cols = []
    for gj in exp.h10_basis:
        h = derive(gj)
        total = rep.upsilon.f * h
        for zeta, xi in rep.sym_pairs:
            s = xi.f * lie_on_form(zeta, h) + zeta.f * lie_on_form(xi, h)
            total = total + s.scaled(Fraction(1, 2))
        cols.append(reduce_O(total, exp).coords)
    return _columns(cols, exp.gaps_O)
