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
of them). Two independent prescriptions exist for each order, and the
module implements each once, on a weighted sum of field words
(c, [f1, ..., fn]):

    operator route      _operator(words): rho of
                        sum c phi(fn) o ... o phi(f1), the compositions
                        kept as integer numerators from the first field to
                        the rho table. The production route: ell1_n is its
                        single word ((-1)^(n-1), [f1, ..., fn]), nu1 and
                        ell2 are ell1_n at n = 1 and n = 2, and nu2 is its
                        representative's words (-c, w).
    contraction route   _contraction(words): reduce
                        sum c [fn -| L_f(n-1) ... L_f1 omega_j] once per
                        column. The cross-check oracle:
                        ell1_n_contraction is its single word
                        ((-1)^n, [f1, ..., fn]), ell2_via_lie its case
                        n = 2, and on a representative's words it is nu2's
                        oracle.

Both routes form each step only below the bound the next step reads (see
_bounds), so the last one, the operator handed to rho or the contraction
handed to the H^1(O) reduction, is formed only below z^1.

A second-order representative is a weighted sum of field words
(T2Rep.words): upsilon alone, and each symmetric pair in both orders
with weight 1/2.

The two agree identically (L_zeta d(u) = d(phi(zeta) u)), which is the
cross-check the acceptance suite pins. All remaining global signs are +1;
they are fixed by three internal consistency requirements: the two routes
agree termwise, ell2(f1,f2) - ell2(f2,f1) = nu1([f1,f2]), and nu2 on the
canonical second-order representative reproduces ell2. The coupling sign
on the upsilon term of nu2 is forced to + by the last requirement.
"""

import itertools
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .hodge import (
    _matrix_of_columns, _refuse, _rho, _table_rho, _table_serves,
    hom_to_json)
from .laurent import INF, LaurentSeries, derive, product_below
from .laurent import from_json as series_from_json
from .linalg import in_row_span
from .witt import (
    WittElement, _bracket, _collect, _compose, _Numerators, _numerators,
    _sketch, _summed)

# the highest differential order the order-n entry points take
DEFAULT_MAX_ORDER = 4


# the exact series 1 as _Numerators: a one-field word c [f] is the
# piece (c, f, 1)
_ONE = _Numerators(1, [(0, 1)], INF)


class UnsupportedOrder(Exception):
    """More fields than the maximum differential order."""


def _series_key(s):
    return (tuple(sorted(s.coeffs.items())), s.trunc)


def _canonical(groups, key):
    """The one canonical form of a list of unordered groups: each group a
    tuple sorted by key, and the groups sorted by the keys of their
    members. Each member's key is computed once."""
    keyed = [sorted(((key(x), x) for x in g), key=itemgetter(0))
             for g in groups]
    keyed.sort(key=lambda g: [k for k, _ in g])
    return [tuple(x for _, x in g) for g in keyed]


def _canonical_homs(groups):
    """_canonical on groups of HomMatrices, ordered by the gaps and then
    the rows of values. Each is keyed on its row-major numerators
    brought to the groups' common denominator, with no Fraction formed:
    scaling every value by the same positive number keeps their order."""
    d = lcm(*(m.denominator for g in groups for m in g))
    return _canonical(groups, lambda m: (
        m.basis_gaps, tuple(x * (d // m.denominator) for x in m.numerators)))


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
            _canonical_homs(self.quadratic) == \
            _canonical_homs(other.quadratic)

    def __repr__(self):
        return "JetImage(%r, %r)" % (self.linear, self.quadratic)


class SymProductSum(object):
    """Formal sum of symmetrized products of HomMatrices. Factors within a
    term and the terms themselves are kept in a canonical sort, so equal
    sums compare equal regardless of construction order."""

    def __init__(self, terms, interpretation=None):
        self.terms = _canonical_homs(terms)
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
    sign below. upsilon is one sum of the bracket's pieces at weights
    +-1/2 (see witt._bracket).
    """
    return T2Rep(WittElement(_bracket(xi, zeta, Fraction(1, 2)).series()),
                 [(zeta, xi)])


def nu2(rep, exp):
    """Second differential on second-order tangent representatives: the
    operator route on the representative's words (T2Rep.words),

        -rho( phi(upsilon) + sum_i (1/2)(phi(xi_i) o phi(zeta_i)
                                         + phi(zeta_i) o phi(xi_i)) ),

    that is _operator on the words (-c, w). The contraction route on the
    same words, _contraction, is the oracle. The min-rule reads the
    orders of the summed coefficients, so where words cancel nu2 can
    answer where the contraction route, which takes each word's
    truncation, refuses.

    The + on the upsilon coupling makes nu2(canonical_second_rep(z, x))
    equal ell2(z, x) identically; with a - it would differ by twice the
    upsilon term.
    """
    return _operator([(-c, fields) for c, fields in rep.words()], exp)


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

        (-1)^(n-1) rho( phi(zeta_n) o ... o phi(zeta_1) ),

    _operator on the single word ((-1)^(n-1), fields).
    """
    return _operator([((-1) ** (_order(fields) - 1), fields)], exp)


def _pieces(words):
    """The Leibniz pieces of the last step of each field word
    c phi(fn) o ... o phi(f1), formed below z^1 at weight c, in one dict
    by order (see witt._collect); a one-field word is the piece
    (c, f1, 1).

    rho reads each coefficient a_k of the words' sum only below
    z^(1 - ord g_j^(k)), ord g_j^(k) being the smallest over j, and that
    order is >= 0: the g_j have no exponent below 1 and are known below
    precision + 1, beyond n >= k. So the last composition of each word
    is formed only below z^1. Formed below z^w, the composition with
    phi(fs) reads its right factor only below z^(w - ord fs + 1), and
    that factor is composed on witt's kernel below this bound in turn
    (see _bounds).
    """
    converted = {}  # by id: each distinct field converted once
    for _, fields in words:
        for zeta in fields:
            if id(zeta) not in converted:
                converted[id(zeta)] = _numerators({1: zeta.f})
    pieces = {}
    for c, fields in words:
        ops = [converted[id(zeta)] for zeta in fields]
        op = ops[0]
        for step, below in zip(ops[1:-1], _bounds(1, fields[2:])):
            op = _compose(step, op, below)
        if len(ops) > 1:
            _collect(ops[-1], op, 1, c, pieces)
        elif op:
            pieces.setdefault(1, []).append((c, op[1], _ONE))
    return pieces


def _operator(words, exp):
    """rho of a sum of field words c phi(fn) o ... o phi(f1), on
    integer numerators from the first field to the rho table.

    Before any order of the words' last pieces (see _pieces) is summed,
    the sketch of each order's sum (see witt._sketch) decides whether
    rho's table serves the sum (hodge._table_serves). Where it does,
    each order k is summed below z^1 only at the z^e with e = k (mod 2),
    the terms the table reads (see hodge._table_rho), and no other
    product is formed. Where it does not, the sketches decide rho's
    PrecisionExhausted where they can (hodge._refuse), so fields known
    too little for z^1 are refused without forming their last products;
    then each order is summed in full below z^1, and rho raises, or
    gives the matrix, from the sum. A lone one-field word c [f] has
    nothing to sum: rho reads c f itself, and raises what the sketch
    would.
    """
    if len(words) == 1 and len(words[0][1]) == 1:
        (c, (zeta,)), = words
        return _rho(_numerators({1: zeta.f.scaled(c)}), exp)
    pieces = _pieces(words)
    sketches = {k: _sketch(group, 1) for k, group in pieces.items()}
    if _table_serves(sketches, exp):
        return _table_rho(_summed(pieces, 1, parity=True), exp)
    _refuse(sketches, exp)
    return _rho(_summed(pieces, 1), exp)


def _contraction(words, exp):
    """The contraction route on a sum of field words (c, [f1, ..., fn]):
    column j reduces

        sum_w c [ fn -| L_f(n-1) ... L_f1 omega_j ]

    once, starting from the expansion's form h_j = g_j'; the classes
    become the matrix on integers (hodge._matrix_of_columns), while the
    products stay on Fractions, apart from the operator route's kernel.
    Each contraction goes straight into the reduction, so it is formed
    only below z^1, and it reads its form only below z^(1 - ord fn).
    Each Lie derivative is one product, L_zeta (h dz) = (zeta h)' dz,
    formed only below the bound the next step reads (see _bounds): below
    z^w, it forms zeta h below z^(w+1) and reads h below
    z^(w - ord zeta + 1). By the min-rule the
    windowed forms have the coefficients and truncation of the full ones
    below their bounds, so every contraction, and every refusal, is the
    one the full-length route gives.
    """
    chains = []
    for c, fields in words:
        o = fields[-1].f.min_rule_order()
        chains.append((c, fields, _bounds(1 - o if o < INF else 1,
                                          fields[1:-1])))

    def column(h):
        total = LaurentSeries.zero()
        for c, fields, bounds in chains:
            form = h
            for zeta, below in zip(fields[:-1], bounds):
                form = derive(product_below(zeta.f, form, below + 1))
            total = total + product_below(fields[-1].f, form, 1).scaled(c)
        return total
    return _matrix_of_columns(map(column, exp.h10_forms), exp)


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
