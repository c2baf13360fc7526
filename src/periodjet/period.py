"""Differentials of the period map, to all implemented orders.

Conventions. A tangent direction to the deformation base is named by a
Witt lift zeta = f d/dz; the holomorphic forms are omega_j = dg_j = h dz
with h = derive(g_j), kept by the expansion as exp.h10_forms; contraction
and Lie derivative act on series by

    zeta -| (h dz)   =  f h,
    L_zeta (h dz)    =  (f h' + f' h) dz  =  (f h)' dz,

the last form (Cartan: L_zeta omega = d(zeta -| omega)) being the one
formed: one product, with the min-rule truncation of the other two.

Every differential is a HomMatrix (or a formal sum of symmetrized products
of them). Two independent prescriptions exist for each order and the
module implements each once:

    operator route      ell1_n: compose first-order operators phi(zeta_i),
                        feed the reversed composition to rho, with sign
                        (-1)^(n-1). The production route; nu1 and ell2 are
                        its cases n = 1 and n = 2, and nu2 runs it on its
                        representative's words.
    contraction route   ell1_n_contraction: iterate the Lie derivative on
                        the form and contract with the last field, with
                        sign (-1)^n, then reduce. The cross-check oracle;
                        ell2_via_lie is its case n = 2, and _contraction
                        on a representative's words is nu2's oracle.

Both routes form each step only below the bound the next step reads (see
_bounds), so the last one, the operator handed to rho or the contraction
handed to reduce_O, is formed only below z^1.

A second-order representative is a weighted sum of field words
(c, [f1, ..., fn]) (T2Rep.words): upsilon alone, and each symmetric pair
in both orders with weight 1/2. nu2 sums their operators
-c phi(fn) o ... o phi(f1) in one integer pass and hands the sum to rho.
Its oracle, _contraction, reduces sum c [fn -| L_f(n-1) ... L_f1 omega_j]
once per column; ell1_n_contraction is its single word
(-1)^n [f1, ..., fn].

The two agree identically (L_zeta d(u) = d(phi(zeta) u)), which is the
cross-check the acceptance suite pins. All remaining global signs are +1;
they are fixed by three internal consistency requirements: the two routes
agree termwise, ell2(f1,f2) - ell2(f2,f1) = nu1([f1,f2]), and nu2 on the
canonical second-order representative reproduces ell2. The coupling sign
on the upsilon term of nu2 is forced to + by the last requirement.
"""

import itertools
from fractions import Fraction
from operator import itemgetter

from .hodge import (
    HomMatrix, _gaps_O, hom_to_json, reduce_O, refuse_before_rho, rho)
from .laurent import INF, LaurentSeries, derive, product_below
from .laurent import from_json as series_from_json
from .linalg import in_row_span
from .witt import (
    WittElement, _collect, _collect_phi, _sketch, _summed, diffop_compose,
    phi, witt_bracket)

# the highest differential order the order-n entry points take
DEFAULT_MAX_ORDER = 4


class UnsupportedOrder(Exception):
    """More fields than the maximum differential order."""


def _series_key(s):
    return (tuple(sorted(s.coeffs.items())), s.trunc)


def _hom_key(m):
    return (m.basis_gaps, tuple(tuple(row) for row in m.entries))


def _canonical(groups, key):
    """The one canonical form of a list of unordered groups: each group a
    tuple sorted by key, and the groups sorted by the keys of their
    members. Each member's key is computed once."""
    keyed = [sorted(((key(x), x) for x in g), key=itemgetter(0))
             for g in groups]
    keyed.sort(key=lambda g: [k for k, _ in g])
    return [tuple(x for _, x in g) for g in keyed]


class T2Rep(object):
    """A second-order tangent representative: upsilon + sum of symmetric
    pairs (1/2)(zeta_i (x) xi_i + xi_i (x) zeta_i). The pairs are stored
    in canonical form, the symmetrization being definitional.
    """

    def __init__(self, upsilon, sym_pairs=()):
        if not isinstance(upsilon, WittElement):
            raise ValueError("upsilon must be a WittElement")
        pairs = [(a, b) for a, b in sym_pairs]
        if not all(isinstance(x, WittElement) for p in pairs for x in p):
            raise ValueError("sym_pairs must hold WittElement pairs")
        self.upsilon = upsilon
        self.sym_pairs = _canonical(pairs, lambda x: _series_key(x.f))

    def __eq__(self, other):
        if not isinstance(other, T2Rep):
            return NotImplemented
        return self.upsilon == other.upsilon and \
            self.sym_pairs == other.sym_pairs

    def words(self):
        """The field words (c, [f1, ..., fn]) whose operators
        c phi(fn) o ... o phi(f1) sum to the representative's operator
        phi(upsilon) + (1/2) sum_i (phi(xi_i) o phi(zeta_i)
        + phi(zeta_i) o phi(xi_i))."""
        half = Fraction(1, 2)
        words = [(1, [self.upsilon])]
        for zeta, xi in self.sym_pairs:
            words += [(half, [zeta, xi]), (half, [xi, zeta])]
        return words

    def __repr__(self):
        return "T2Rep(%r, %r)" % (self.upsilon, self.sym_pairs)


class JetImage(object):
    """Split image of a second-order jet: a linear part and a quadratic
    part, the latter a list of symmetrized matrix pairs. Pairs are stored
    as computed; equality treats (A, B) and (B, A) as the same symbol.
    """

    def __init__(self, linear, quadratic):
        self.linear = linear
        self.quadratic = [(a, b) for a, b in quadratic]

    def __eq__(self, other):
        if not isinstance(other, JetImage):
            return NotImplemented
        return self.linear == other.linear and \
            _canonical(self.quadratic, _hom_key) == \
            _canonical(other.quadratic, _hom_key)

    def __repr__(self):
        return "JetImage(%r, %r)" % (self.linear, self.quadratic)


class SymProductSum(object):
    """Formal sum of symmetrized products of HomMatrices. Factors within a
    term and the terms themselves are kept in a canonical sort, so equal
    sums compare equal regardless of construction order."""

    def __init__(self, terms, interpretation=None):
        self.terms = _canonical(terms, _hom_key)
        self.interpretation = interpretation

    def __eq__(self, other):
        if not isinstance(other, SymProductSum):
            return NotImplemented
        return self.terms == other.terms and \
            self.interpretation == other.interpretation

    def __repr__(self):
        return "SymProductSum(%r, interpretation=%r)" % (
            self.terms, self.interpretation)


def nu1(zeta, exp):
    """First differential: the matrix of rho(phi(zeta)), ell1_n at n = 1.

    Vanishes on d+ and on theta-sections; depends only on the class
    reduce_Theta(zeta).
    """
    return ell1_n([zeta], exp)


def ell2(f1, f2, exp):
    """Linear part of the second differential, ell1_n at n = 2:
    -rho(phi(f2) o phi(f1)). Column j is the class of f2 (f1 h)' with
    h = derive(g_j)."""
    return ell1_n([f1, f2], exp)


def ell2_via_lie(f1, f2, exp):
    """Same map by the contraction prescription, ell1_n_contraction at
    n = 2: omega -> f2 -| L_f1 omega.

    Termwise identical to ell2: f2 (f1 h' + f1' h) = f2 (f1 h)'.
    """
    return ell1_n_contraction([f1, f2], exp)


def d2Phi(f1, f2, exp):
    """Full second differential, split as linear (+) quadratic."""
    return JetImage(ell2(f1, f2, exp), [(nu1(f1, exp), nu1(f2, exp))])


def fundamental_form_II(f1, f2, exp):
    """Second fundamental form: the symmetrization of ell2, together with
    the reminder that downstream equalities hold only modulo the image of
    nu1 (test membership with in_nu1_image)."""
    m = (ell2(f1, f2, exp) + ell2(f2, f1, exp)).scaled(Fraction(1, 2))
    return m, "mod image nu1"


def nu1_image_generators(exp):
    """nu1 of the gap fields z^-n d/dz, n over gaps_Theta: these span the
    image of nu1, because nu1 factors through reduce_Theta linearly."""
    return [nu1(WittElement.monomial(-n), exp) for n in exp.gaps_Theta]


def in_nu1_image(hom, exp):
    """Exact membership of a HomMatrix in span{nu1(zeta)}, read on the
    numerators: scaling a row or the vector keeps the span membership."""
    gens = [m.numerators for m in nu1_image_generators(exp)]
    return in_row_span(gens, hom.numerators)


def canonical_second_rep(zeta, xi):
    """The standard representative of the second-order tangent vector
    attached to the ordered pair (zeta, xi):

        upsilon = (1/2)[xi, zeta],   pairs = [(zeta, xi)].

    nu2 of this equals ell2(zeta, xi); that equality pins the coupling
    sign below.
    """
    return T2Rep(witt_bracket(xi, zeta).scaled(Fraction(1, 2)), [(zeta, xi)])


def nu2(rep, exp):
    """Second differential on second-order tangent representatives: the
    operator route on the representative's words (T2Rep.words),

        -rho( phi(upsilon) + sum_i (1/2)(phi(xi_i) o phi(zeta_i)
                                         + phi(zeta_i) o phi(xi_i)) ).

    The words' operators are summed in one integer pass: the Leibniz
    pieces of each pair's composition, formed below z^1 as ell1_n forms
    its last one, and the order-1 term phi(upsilon) go into one dict with
    weight -c, and each order is summed once below z^1 (see
    witt._sum_below). Before that, the sketch of each order's sum (see
    witt._sketch) decides rho's PrecisionExhausted where it can
    (hodge.refuse_before_rho), so fields known too little for z^1 are
    refused without forming a product. rho reads the sum off its table
    where it can. The contraction route on the same words, _contraction,
    is the oracle. The min-rule reads the orders of the summed
    coefficients, so where words cancel nu2 can answer where the
    contraction route, which takes each word's truncation, refuses.

    The + on the upsilon coupling makes nu2(canonical_second_rep(z, x))
    equal ell2(z, x) identically; with a - it would differ by twice the
    upsilon term.
    """
    pieces = {}
    for c, fields in rep.words():
        if len(fields) == 1:
            _collect_phi(fields[0], -c, pieces)
        else:  # phi(f2) o phi(f1), the last composition of the word
            _collect(phi(fields[1]), phi(fields[0]), 1, -c, pieces)
    refuse_before_rho({k: _sketch(group, 1) for k, group in pieces.items()},
                      exp)
    return rho(_summed(pieces, 1), exp)


def _order(fields):
    """The order n = len(fields), guarded as every order-n entry point
    guards it: 1 <= n <= DEFAULT_MAX_ORDER."""
    n = len(fields)
    if n < 1:
        raise ValueError("need at least one field")
    if n > DEFAULT_MAX_ORDER:
        raise UnsupportedOrder(
            "%d fields exceed the configured maximum order %d"
            % (n, DEFAULT_MAX_ORDER))
    return n


def _bounds(last, fields):
    """The bounds below which the steps of a chain are formed, in their
    order: fields holds the field of every step but the first. The last
    step is formed below last. A composition with phi(zeta), or a Lie
    derivative L_zeta, formed below w reads its input only below
    w - ord zeta + 1, and the step before it is formed below that bound.
    After an exact-zero field the step is zero and reads nothing, and the
    bound is kept."""
    bounds = [last]
    for zeta in reversed(fields):
        o = zeta.f.min_rule_order()
        bounds.append(bounds[-1] - o + 1 if o < INF else bounds[-1])
    return bounds[::-1]


def ell1_n(fields, exp):
    """Order-n linear differential, operator route:

        (-1)^(n-1) rho( phi(zeta_n) o ... o phi(zeta_1) ).

    rho reads each coefficient a_k of the composition only below
    z^(1 - ord g_j^(k)), ord g_j^(k) being the smallest over j, and that
    order is >= 0: the g_j have no exponent below 1 and are known below
    precision + 1, beyond n >= k. So the last composition is formed only
    below z^1 (see witt.diffop_compose). Formed below z^w, the
    composition with phi(zeta_s) reads its right factor only below
    z^(w - ord zeta_s + 1), and that factor is formed below this bound in
    turn (see _bounds).
    """
    n = _order(fields)
    # the sign rides on the first field: negating it keeps every order
    # and truncation, so the refusals are those of the unsigned operator
    op = phi(fields[0] if n % 2 else -fields[0])
    for zeta, below in zip(fields[1:], _bounds(1, fields[2:])):
        op = diffop_compose(phi(zeta), op, below)
    return rho(op, exp)


def _contraction(words, exp):
    """The contraction route on a sum of field words (c, [f1, ..., fn]):
    column j reduces

        sum_w c [ fn -| L_f(n-1) ... L_f1 omega_j ]

    once, starting from the expansion's form h_j = g_j'. Each contraction
    goes straight into reduce_O, so it is formed only below z^1, and it
    reads its form only below z^(1 - ord fn). Each Lie derivative is one
    product, L_zeta (h dz) = (zeta h)' dz, formed only below the bound
    the next step reads (see _bounds): below z^w, it forms zeta h below
    z^(w+1) and reads h below z^(w - ord zeta + 1). By the min-rule the
    windowed forms have the coefficients and truncation of the full ones
    below their bounds, so every contraction, and every refusal, is the
    one the full-length route gives.
    """
    chains = []
    for c, fields in words:
        o = fields[-1].f.min_rule_order()
        chains.append((c, fields, _bounds(1 - o if o < INF else 1,
                                          fields[1:-1])))
    cols = []
    for h in exp.h10_forms:
        total = LaurentSeries.zero()
        for c, fields, bounds in chains:
            form = h
            for zeta, below in zip(fields[:-1], bounds):
                form = derive(product_below(zeta.f, form, below + 1))
            total = total + product_below(fields[-1].f, form, 1).scaled(c)
        cols.append(reduce_O(total, exp).coords)
    return HomMatrix.from_columns(cols, _gaps_O(exp))


def ell1_n_contraction(fields, exp):
    """The same map by iterated Lie derivatives:

        column j = (-1)^n [ zeta_n -| L_zeta_{n-1} ... L_zeta_1 omega_j ].
    """
    return _contraction([((-1) ** _order(fields), fields)], exp)


def _set_partitions(n, k):
    """All partitions of range(n) into exactly k nonempty blocks, each
    once, every block ascending: the labellings of 0..n-1 by block
    numbers whose labels first appear in the order 0, 1, .., k-1."""
    for labels in itertools.product(range(k), repeat=n):
        if labels and list(dict.fromkeys(labels)) == list(range(k)):
            yield [[i for i in range(n) if labels[i] == b] for b in range(k)]


def ell_k_n(fields, k, exp):
    """Order-(k, n) differential under the set-partition reading: sum over
    partitions of the n field slots into k blocks, each block contributing
    ell1 on its fields in their original order, the k block matrices
    multiplied as a symmetrized product.

    k = 1 returns the plain HomMatrix ell1_n(fields). k = n is the symbol:
    the single symmetrized product of the n first differentials. For
    1 < k < n the result is flagged interpretation="set-partition"; those
    values are a consistent reading, not a pinned ground truth.
    """
    n = len(fields)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (k, n))
    _order(fields)
    if k == 1:
        return ell1_n(fields, exp)
    terms = []
    for blocks in _set_partitions(n, k):
        factors = [ell1_n([fields[i] for i in block], exp)
                   for block in blocks]
        terms.append(tuple(factors))
    flag = "set-partition" if k < n else None
    return SymProductSum(terms, interpretation=flag)


def t2rep_from_json(obj):
    """Parse {"upsilon": <series>, "sym_pairs": [[<series>, <series>]...]}
    into a T2Rep; series give the d/dz coefficients."""
    if not isinstance(obj, dict) or set(obj) - {"upsilon", "sym_pairs"}:
        raise ValueError(
            "second-order rep JSON must have upsilon and sym_pairs only")
    if "upsilon" not in obj:
        raise ValueError("second-order rep JSON needs an upsilon field")
    ups = WittElement(series_from_json(obj["upsilon"]))
    raw = obj.get("sym_pairs", [])
    if not isinstance(raw, list):
        raise ValueError("sym_pairs must be a list of pairs")
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError("each sym_pair must be a two-element list")
        pairs.append((WittElement(series_from_json(item[0])),
                      WittElement(series_from_json(item[1]))))
    return T2Rep(ups, pairs)


def jet_to_json(jet):
    return {"linear": hom_to_json(jet.linear),
            "quadratic": [[hom_to_json(a), hom_to_json(b)]
                          for a, b in jet.quadratic]}


def sym_sum_to_json(s):
    out = {"terms": [{"factors": [hom_to_json(m) for m in t]}
                     for t in s.terms]}
    if s.interpretation is not None:
        out["interpretation"] = s.interpretation
    return out
