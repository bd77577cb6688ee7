"""Cohomology of the classical BRST complex in low degrees.

Everything here is reduced to exact linear algebra over the rationals.
The Jacobian ring is presented by a Groebner basis, so its elements have
canonical normal forms and a degree-d slice has the standard monomials
as a basis.  A symmetry presentation keeps that basis, one per monomial
order, so every slice computed from it shares the normal forms memoized
on the basis, and the normal forms of the tau images of the monomials,
so a ladder of bounds computes each image once.  Symmetries of the
action enter through a finite presentation: generators tau_i of the
vector fields annihilating S0 modulo the trivial ones, relations among
them with bivector certificates, and structure functions for their
commutators.  H^0 is the algebra of invariants, H^1 is computed from
the associated one-cochain complex, and both are cross-checkable
against the first page of the weight spectral sequence of a master
solution.

All reports are exact statements about a degree slice: membership
conditions hold on the nose, never merely up to the degree bound.
Dimensions need not be monotone in the bound, so every report carries a
stabilization flag comparing the bound against the next one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence

from .elimination import _axpy, _cleared, _echelon, reduce_row
from .polynomial_engine import (
    BasePolynomial,
    GroebnerBasis,
    ModuleBasis,
    ModuleVector,
    ORDER_GREVLEX,
    _combination,
    _monomial_mul,
    _nf_sum,
    _poly,
    groebner_basis,
    monomial_key,
    normal_form,
    poly_to_str,
    syzygy_basis,
)
from .graded_algebra import GradedPolynomial, _bracket_pair, gr_project, graded_to_str
from .tate import _graded_monomials

__all__ = [
    "CohomologyReport",
    "SymmetryPresentation",
    "e2_page",
    "h0",
    "h0_bracket",
    "h1",
    "jacobian_ring",
    "koszul_syzygies",
    "standard_monomials",
    "symmetry_presentation",
]


# -- small polynomial utilities ----------------------------------------


def _gradient(f: BasePolynomial) -> list:
    """The partial derivatives of f, one per coordinate.  A field t
    applied to f is _combination(_gradient(f), t), so f is
    differentiated once however many fields are applied to it."""
    return [f.derivative(name) for name in f.vars]


def _commutator(a: ModuleVector, b: ModuleVector, da: list, db: list) -> ModuleVector:
    """[a, b], with da and db the gradients of the components of a and b."""
    return ModuleVector([_combination(dbk, a) - _combination(dak, b)
                         for dak, dbk in zip(da, db)])


def _check_partials(partials: Sequence[BasePolynomial]) -> tuple:
    parts = list(partials)
    if not parts:
        raise ValueError("at least one partial derivative is required")
    for i, p in enumerate(parts):
        if not isinstance(p, BasePolynomial):
            raise ValueError(f"partial {i} is {type(p).__name__} {p!r}, not a BasePolynomial")
        if p.vars != parts[0].vars:
            raise ValueError("partials use inconsistent coordinate lists")
    vars = parts[0].vars
    if len(parts) != len(vars):
        raise ValueError(f"expected {len(vars)} partials for coordinates {vars}")
    return parts, vars


def koszul_syzygies(partials: Sequence[BasePolynomial]) -> list:
    """The trivial syzygies p_j e_i - p_i e_j, ordered by (i, j), i < j."""
    parts, vars = _check_partials(partials)
    return [_contract(parts, {(i, j): -1})
            for i, j in combinations(range(len(vars)), 2)]


def _contract(partials: Sequence[BasePolynomial], bivector: dict) -> ModuleVector:
    """dS0 against a bivector sum c_ij d_i ^ d_j gives c_ij (p_i e_j - p_j e_i)."""
    vars = partials[0].vars
    comps = [BasePolynomial.zero(vars) for _ in range(len(vars))]
    for (i, j), c in bivector.items():
        comps[j] = comps[j] + partials[i] * c
        comps[i] = comps[i] - partials[j] * c
    return ModuleVector(comps)


def _monic(v: ModuleVector, order: str) -> ModuleVector:
    for c in v.components:
        if not c.is_zero():
            _e, lc = c.leading(order)
            return v * (Fraction(1) / lc)
    return v


def _vec_sort_key(v: ModuleVector, order: str):
    return (max(c.total_degree() for c in v.components),
            tuple(poly_to_str(c, order) for c in v.components))


def _prune(vectors: list, spanned: ModuleBasis, order: str) -> list:
    """The vectors, in _vec_sort_key order, that spanned does not reach,
    made monic; each joins spanned before the next one is tried."""
    ordered = sorted(vectors, key=lambda v: _vec_sort_key(v, order))
    return [_monic(v, order) for v in spanned.absorb(ordered)]


def _bivector(v: ModuleVector, r: int, kpairs: list) -> dict:
    """Fold the Koszul coefficients v[r:] into the bivector certificate:
    the entry of pair (i, j) is minus its coefficient."""
    return {ij: -c for ij, c in zip(kpairs, v.components[r:]) if not c.is_zero()}


# -- symmetry presentation ---------------------------------------------


class SymmetryPresentation:
    """Finite presentation of the symmetries of the action.

    tau lists generators of the annihilator of dS0 in the vector
    fields, pruned so that none lies in the module spanned by the
    Koszul syzygies and the earlier generators.  relations is an s x r
    matrix over the coordinate ring; each row kills the taus up to the
    contraction of dS0 with the matching entry of bivectors_v.  The
    commutator of two generators is recorded by structure_f (an
    antisymmetric r x r x r table) plus a bivector correction.
    """

    __slots__ = ("vars", "order", "partials", "tau", "relations",
                 "bivectors_v", "structure_f", "correction_g", "_rings", "_images",
                 "_invariants")

    def __init__(self, vars, order, partials, tau, relations, bivectors_v,
                 structure_f, correction_g):
        self.vars = tuple(vars)
        self.order = order
        self.partials = tuple(partials)
        self.tau = tuple(tau)
        self.relations = tuple(tuple(row) for row in relations)
        self.bivectors_v = tuple(dict(b) for b in bivectors_v)
        self.structure_f = tuple(tuple(tuple(row) for row in plane)
                                 for plane in structure_f)
        self.correction_g = tuple(tuple(dict(b) for b in row)
                                  for row in correction_g)
        self._rings: dict = {}   # monomial order -> Jacobian ring, built on first use
        self._images: dict = {}  # monomial order -> {exponent: flat tau image}, see _tau_images
        self._invariants: dict = {}  # monomial order -> polynomials checked invariant
        self._verify()

    @property
    def r(self) -> int:
        return len(self.tau)

    @property
    def s(self) -> int:
        return len(self.relations)

    def _verify(self) -> None:
        # explicit raises, not assert: python -O must not strip a certificate check
        r = self.r
        for t in self.tau:
            if not _combination(t, self.partials).is_zero():
                raise AssertionError(
                    "presentation certificate failed: tau does not annihilate dS0")
        for a in range(self.s):
            acc = (_combination(self.relations[a], self.tau)
                   + _contract(self.partials, self.bivectors_v[a]))
            if not acc.is_zero():
                raise AssertionError(
                    f"presentation certificate failed: relation {a} is not closed by its bivector")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if not (self.structure_f[i][j][k] + self.structure_f[j][i][k]).is_zero():
                        raise AssertionError(
                            "presentation certificate failed: structure functions not antisymmetric")
        grads = [[_gradient(c) for c in t] for t in self.tau]
        for i in range(r):
            for j in range(i + 1, r):
                acc = (_commutator(self.tau[i], self.tau[j], grads[i], grads[j])
                       - _combination(self.structure_f[i][j], self.tau)
                       - _contract(self.partials, self.correction_g[i][j]))
                if not acc.is_zero():
                    raise AssertionError(
                        f"presentation certificate failed: commutator ({i},{j}) is not resolved")

    def _ring(self, order: str) -> GroebnerBasis:
        """The Jacobian ring of the partials in the given order.

        Built on first use and kept: every slice computed from this
        presentation divides against one basis and shares the normal
        forms memoized on it, and the lifts of h0_bracket divide by it too.
        """
        gb = self._rings.get(order)
        if gb is None:
            gb = self._rings[order] = jacobian_ring(self.partials, order)
        return gb

    def __repr__(self):
        return f"SymmetryPresentation(r={self.r}, s={self.s}, vars={self.vars})"


def jacobian_ring(partials: Sequence[BasePolynomial],
                  order: str = ORDER_GREVLEX) -> GroebnerBasis:
    """Groebner basis of the ideal of the partials.

    Normal forms against the result are canonical representatives of
    the quotient ring.
    """
    parts, _vars = _check_partials(partials)
    return groebner_basis(parts, order)


def symmetry_presentation(partials: Sequence[BasePolynomial],
                          order: str = ORDER_GREVLEX) -> SymmetryPresentation:
    """Present the symmetries of the action by generators and relations.

    Generators are syzygies of the partials pruned modulo the Koszul
    syzygies and the generators kept so far, so the trivial rotations
    of a nondegenerate quadratic produce none.  Relations come from a
    syzygy computation over the kept generators together with the
    Koszul vectors; the Koszul coefficients of each relation are folded
    into a bivector certificate.  Structure functions are membership
    certificates for the pairwise commutators.  Every certificate is
    reverified exactly by the constructor.
    """
    parts, vars = _check_partials(partials)
    n = len(vars)
    kosz = koszul_syzygies(parts)
    kpairs = list(combinations(range(n), 2))

    tau = _prune(syzygy_basis(parts, order), ModuleBasis(kosz, order), order)
    r = len(tau)

    relations = []
    bivectors = []
    if r:
        second = syzygy_basis(tau + kosz, order)
        pure = [v for v in second if all(v[i].is_zero() for i in range(r))]
        cands = [v for v in second if not all(v[i].is_zero() for i in range(r))]
        for v in _prune(cands, ModuleBasis(pure, order), order):
            relations.append([v[i] for i in range(r)])
            bivectors.append(_bivector(v, r, kpairs))

    zero = BasePolynomial.zero(vars)
    structure = [[[zero for _ in range(r)] for _ in range(r)] for _ in range(r)]
    correction = [[{} for _ in range(r)] for _ in range(r)]
    if r:
        lifts = ModuleBasis(tau + kosz, order)
        grads = [[_gradient(c) for c in t] for t in tau]
        for i in range(r):
            for j in range(i + 1, r):
                co = lifts.lift(_commutator(tau[i], tau[j], grads[i], grads[j]))
                if co is None:
                    raise AssertionError(
                        f"presentation certificate failed: commutator ({i},{j}) "
                        "has no expression over the generators")
                for k in range(r):
                    if co[k]:   # a zero entry stays the one shared zero
                        structure[i][j][k] = co[k]
                        structure[j][i][k] = -co[k]
                bv = _bivector(co, r, kpairs)
                correction[i][j] = bv
                correction[j][i] = {k: -c for k, c in bv.items()}

    return SymmetryPresentation(vars, order, parts, tau, relations, bivectors,
                                structure, correction)


# -- degree slices of the quotient ring --------------------------------


def standard_monomials(gb: GroebnerBasis, D: int) -> list:
    """Exponents of the monomials of degree <= D in normal form.

    A monomial is its own normal form exactly when no leading term of
    the basis divides it, so the standard exponents are closed under
    taking divisors.  One of degree k + 1 is standard exactly when it
    is no leading exponent and each of its degree-k divisors e - e_j
    is standard: a leading term that divides it properly divides one of
    those.  So each degree is grown from the one below by set lookups,
    with no divisibility test.  Sorted descending in the basis order,
    so linear algebra over slices eliminates against high monomials
    first and representatives come out reduced toward low degree.
    """
    leads = {g.leading(gb.order)[0] for g in gb.elements}
    n = len(gb.vars)
    layer = {(0,) * n} - leads if D >= 0 else set()
    std = list(layer)
    for _k in range(D):
        up = {e[:i] + (e[i] + 1,) + e[i + 1:] for e in layer for i in range(n)} - leads
        layer = {e for e in up
                 if all(e[:j] + (e[j] - 1,) + e[j + 1:] in layer for j in range(n) if e[j])}
        std += layer
    std.sort(key=monomial_key(gb.order), reverse=True)
    return std


class CohomologyReport:
    """Exact basis of a cohomology group on a degree slice.

    dim counts basis elements; every element satisfies the defining
    conditions of its group exactly.  stable records whether the
    dimension at bound D agrees with the one at D + 1; an unstable
    report signals that the slice has not settled and says nothing
    about the group beyond the bound.
    """

    __slots__ = ("p", "bound", "dim", "basis", "stable")

    def __init__(self, p: int, bound: int, basis, stable: bool):
        self.p = p
        self.bound = bound
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.stable = bool(stable)

    def to_json_obj(self) -> dict:
        out = []
        for b in self.basis:
            if isinstance(b, BasePolynomial):
                out.append(poly_to_str(b))
            elif isinstance(b, GradedPolynomial):
                out.append(graded_to_str(b))
            else:
                out.append([poly_to_str(c) for c in b])
        return {"p": self.p, "bound": self.bound, "dim": self.dim,
                "basis": out, "stable": self.stable}

    def __repr__(self):
        return (f"CohomologyReport(p={self.p}, bound={self.bound}, "
                f"dim={self.dim}, stable={self.stable})")


def _slice_image(images: list, low: dict) -> list:
    """_echelon rows spanning the images' span intersected with the slice.

    low maps the slice's keys to columns 0, 1, ...; every other key
    gets a negative column, below all of them.  An _echelon row takes
    its smallest column as pivot, so a row with a slice pivot vanishes
    off the slice.  A vector of the row space is fixed by its pivot
    entries, the sum of v[pc] / row[pc] * row, so one that vanishes off
    the slice is a combination of those rows alone: they span exactly
    the images that land inside the slice.
    """
    neg: dict = {}
    red = _echelon([(low[k] if k in low else neg.setdefault(k, ~len(neg)), c)
                    for k, c in img.items()] for img in images)
    return [(pc, row) for pc, row in red if pc >= 0]


def _slice_cohomology(keys: list, images: list, prev: list, D: int) -> tuple:
    """Cocycles modulo the previous column's image, at bounds D and D + 1.

    keys[j] = (label, exponent) names cochain j, up to degree D + 1, and
    images[j] is its differential; prev holds the images of the previous
    column, keyed like the cochains, over inputs far enough beyond D + 1
    to reach every image landing inside that slice.  Bound D numbers its
    cochains n = 0, 1, ... and makes one _echelon call on the boundary
    rows (_slice_image of prev) and, per cochain, e_n with its image in
    negative columns.  As in _slice_image, the rows with a slice pivot
    span the cocycles Z plus the boundaries B; those whose pivot no
    boundary row holds vanish on the boundary pivots, so they are the
    reduced echelon form of the cocycles modulo boundaries, which is
    unique.  Returns those representatives at bound D as {key: c}, each
    row over its pivot, and their number at D + 1.

    That number is dim(B + Z) - dim B = dim Z - dim B + rank d(B), with
    no d^2 = 0 assumption, and no second elimination of the slice.  The
    bound-D rows with a negative pivot, cut to their negative columns,
    are an echelon basis of the images up to D, so one _echelon call on
    them and the images of degree D + 1, numbered through the same neg,
    gives the rank r of the images up to D + 1, and dim Z = n(D + 1) - r.
    B at D + 1 is _slice_image of prev there, and d(B) is one _echelon
    call on the images of its rows.

    Image keys are numbered by neg as they first appear, below the
    slice columns, unless every key is a negative int already, as the
    cocycle conditions of h1 are: then each key is its own column.
    """
    neg: dict = {}
    numbered = all(type(k) is int and k < 0 for img in images for k in img)

    def imaged(img):
        if numbered:
            return iter(img.items())
        return ((neg.setdefault(k, ~len(neg)), c) for k, c in img.items())

    def boundaries(bound):
        cols = [j for j, (_label, e) in enumerate(keys) if sum(e) <= bound]
        return cols, _slice_image(prev, {keys[j]: n for n, j in enumerate(cols)})

    cols, bred = boundaries(D)
    red = _echelon(chain((row.items() for _pc, row in bred),
                         ([(n, 1), *imaged(images[j])] for n, j in enumerate(cols))))
    held = {pc for pc, _row in bred}
    vecs = [{keys[cols[n]]: Fraction(c, row[pc]) for n, c in row.items()}
            for pc, row in red if pc >= 0 and pc not in held]
    spans = [row for pc, row in red if pc < 0]
    del red

    def drained():
        # each row is dropped as the rank pass reads it, so the two
        # eliminations never hold the images up to D twice
        while spans:
            yield ((k, c) for k, c in spans.pop().items() if k < 0)

    top = [images[j] for j, (_label, e) in enumerate(keys) if sum(e) == D + 1]
    rank = len(_echelon(chain(drained(), map(imaged, top))))
    cols, bred = boundaries(D + 1)

    def image_of(row):
        v: dict = {}
        for n, c in row.items():
            _axpy(v, c, ((k, x) for k, x in images[cols[n]].items() if x))
        return imaged(v)

    moved = len(_echelon(image_of(row) for _pc, row in bred))
    return vecs, len(cols) - rank - len(bred) + moved


def _nf_values(acc: dict, q: int):
    """The (exponent, x / q) pairs of an _nf_sum result over q > 0, each
    value an int exactly when it is integral."""
    return ((e, x // q if x % q == 0 else Fraction(x, q)) for e, x in acc.items())


def _tau_images(pres: SymmetryPresentation, gb: GroebnerBasis, exps) -> list:
    """{(i, e): c} of normal_form(tau_i(x^m)) for each exponent m.

    Each image is computed once per presentation and monomial order:
    pres._images[gb.order] keeps it for m as a flat tuple (i, e, c, i,
    e, c, ...), a third of the size of the dict, so a ladder of bounds,
    h1 and the boundary spaces of h0_bracket on one presentation read
    the images already made, and each call builds the dicts it returns.
    This function alone reads and writes that memo, and gb is
    pres._ring(gb.order).

    tau_i(x^m) = sum_k m_k t_ik x^(m - e_k) is written by shifting the
    exponents of the coefficients t_ik, with no polynomial multiply.
    The coefficients are cleared of denominators once, by L, so each
    image is one int sum over the memoized monomial normal forms
    (_nf_sum), over one denominator q, whose entries _nf_values divides
    by L * q.
    """
    memo = pres._images.setdefault(gb.order, {})
    todo = [m for m in exps if m not in memo]
    if todo:
        cleared, L = _cleared({(i, k, e): c for i, t in enumerate(pres.tau)
                               for k, tk in enumerate(t) for e, c in tk.terms.items()})
        tau = [[] for _ in pres.tau]
        for (i, k, e), c in cleared.items():
            tau[i].append((k, e, c))
        for m in todo:
            img = []
            for i, terms in enumerate(tau):
                acc, q = _nf_sum(gb, ((_monomial_mul(e, m[:k] + (m[k] - 1,) + m[k + 1:]), m[k] * c)
                                      for k, e, c in terms if m[k]))
                img += (z for e, x in _nf_values(acc, L * q) for z in (i, e, x))
            memo[m] = tuple(img)
    return [{(i, e): x for i, e, x in zip(*[iter(memo[m])] * 3)} for m in exps]


def _is_invariant(pres: SymmetryPresentation, gb: GroebnerBasis, f: BasePolynomial) -> bool:
    """Whether normal_form(tau_i(f)) = 0 for every generator, from one
    gradient of f; gb is pres._ring(gb.order).  A polynomial that passes
    is kept in pres._invariants[gb.order], so a ladder of bounds, whose
    bases nest, checks each one once."""
    passed = pres._invariants.setdefault(gb.order, set())
    if f not in passed:
        grad = _gradient(f)
        if not all(normal_form(_combination(grad, t), gb).is_zero() for t in pres.tau):
            return False
        passed.add(f)
    return True


def _presentation(parts: list, order: str,
                  presentation: Optional[SymmetryPresentation]) -> SymmetryPresentation:
    if presentation is None:
        return symmetry_presentation(parts, order)
    if presentation.partials != tuple(parts):
        raise ValueError("presentation was built for different partials")
    return presentation


# -- H^0: invariants ---------------------------------------------------


def h0(partials: Sequence[BasePolynomial], D: int,
       order: str = ORDER_GREVLEX,
       presentation: Optional[SymmetryPresentation] = None) -> CohomologyReport:
    """Invariants of the quotient ring on the degree-<=D slice.

    Basis elements f are normal forms with normal_form(tau_i(f)) = 0
    for every generator; invariance under the full symmetry module
    follows because the Koszul fields move everything into the ideal.
    One image set, of the standard monomials up to D + 1, serves both
    bounds in _slice_cohomology, with no previous column: its
    degree-<=D part, in the same order, is the D slice, and the D
    elimination plus the degree-(D + 1) images give the kernel at D + 1
    that sets stable.  The images are kept on the presentation, so a
    ladder of bounds on one presentation computes each image once.
    Each basis element is checked against every generator from one
    gradient, with neither the images nor the eliminator, once per
    presentation and monomial order.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    parts, vars = _check_partials(partials)
    pres = _presentation(parts, order, presentation)
    gb = pres._ring(order)
    std1 = standard_monomials(gb, D + 1)
    keys = [(None, m) for m in std1]
    vecs, dim1 = _slice_cohomology(keys, _tau_images(pres, gb, std1), [], D)
    basis = [BasePolynomial(vars, {m: c for (_none, m), c in v.items()}) for v in vecs]
    for b in basis:
        if not _is_invariant(pres, gb, b):
            raise AssertionError("invariant candidate fails its defining condition")
    return CohomologyReport(0, D, basis, len(basis) == dim1)


# -- H^1: the one-cochain complex --------------------------------------


def _degree_allowance(pres: SymmetryPresentation) -> int:
    """How far beyond the bound boundary inputs must range.

    Applying tau_i to a monomial shifts its degree by deg(c) - 1 per
    coefficient term c, so inputs up to D plus the worst negative shift
    are enough for every boundary that can land inside the slice.
    """
    allow = 0
    for t in pres.tau:
        degrees = [sum(e) for c in t.components for e in c.terms]
        if degrees:
            allow = max(allow, 1 - min(degrees))
    return allow


def _boundary_space(pres: SymmetryPresentation, gb: GroebnerBasis, D: int):
    """The boundaries tau_i(f) that lie inside the slice, as _echelon rows.

    Inputs f range over the standard monomials up to D + 1 plus the
    allowance, the range h1 uses.  _slice_image gives the slice keys
    columns above every other key, so its rows with a slice pivot span
    the full boundary space intersected with the slice over that input
    range.  Returns the slice's (i, e) keys, in column order, with the
    (pivot, row) pairs.
    """
    ext = standard_monomials(gb, D + 1 + _degree_allowance(pres))
    keys = [(i, e) for i in range(pres.r) for e in ext if sum(e) <= D]
    return keys, _slice_image(_tau_images(pres, gb, ext), {k: n for n, k in enumerate(keys)})


def _cocycle_images(pres: SymmetryPresentation, gb: GroebnerBasis, keys, taus: dict) -> list:
    """The cocycle conditions of each cochain (k, e), as {n: c}.

    n numbers each pair (condition, e') ~0, ~1, ... in the order the
    pairs first occur, so the images hold no key tuples and
    _slice_cohomology takes each n as its column.  Condition
    ("c", i, j) is tau_i(g_j) - tau_j(g_i) - f_ij^k g_k and ("r", a) is
    sum_k r_ak g_k, both in normal form.  taus maps each exponent to its _tau_images
    entry, whose tau_i(x^e) part enters the conditions (i, k) and (k, i).
    Each f_ij^k and r_ak is cleared of denominators once, by L, and its
    part is one int sum of NF(x^(a + e)) over its terms (_nf_sum), over
    one q, divided by L * q in _nf_values.  Every entry is an int exactly
    when it is integral, and one that sums to zero is dropped.
    """
    index: dict = {}

    def add(img, cond, ee, c):
        n = index.setdefault((cond, ee), ~len(index))
        s = img.get(n, 0) + c
        if s:
            img[n] = s if s.denominator > 1 else s.numerator
        else:
            del img[n]

    # one label tuple per condition, shared by all of its pairs
    conds = {(i, j): ("c", i, j) for i, j in combinations(range(pres.r), 2)}
    # (condition, sign, cleared coefficient of g_k, L) of each cochain generator k
    terms = [[(cond, -1, *_cleared(pres.structure_f[i][j][k].terms))
              for (i, j), cond in conds.items()]
             + [(("r", a), 1, *_cleared(row[k].terms)) for a, row in enumerate(pres.relations)]
             for k in range(pres.r)]
    images = []
    for k, e in keys:
        img: dict = {}
        for (i, ee), c in taus[e].items():
            if i != k:
                add(img, conds[min(i, k), max(i, k)], ee, c if i < k else -c)
        for cond, sign, p, L in terms[k]:
            acc, q = _nf_sum(gb, ((_monomial_mul(a, e), sign * c) for a, c in p.items()))
            for ee, x in _nf_values(acc, L * q):
                add(img, cond, ee, x)
        images.append(img)
    return images


def _h1_check_exact(pres: SymmetryPresentation, gb: GroebnerBasis, gs) -> None:
    r = pres.r
    grads = [_gradient(g) for g in gs]
    for i in range(r):
        for j in range(i + 1, r):
            acc = (_combination(grads[j], pres.tau[i])
                   - _combination(grads[i], pres.tau[j])
                   - _combination(pres.structure_f[i][j], gs))
            if not normal_form(acc, gb).is_zero():
                raise AssertionError("one-cocycle fails its commutator condition")
    for a in range(pres.s):
        if not normal_form(_combination(pres.relations[a], gs), gb).is_zero():
            raise AssertionError("one-cocycle fails a relation condition")


def _split_tuple(pres: SymmetryPresentation, v: dict) -> list:
    """The r polynomials of a slice vector {(i, e): c}."""
    terms = [{} for _ in range(pres.r)]
    for (i, e), c in v.items():
        terms[i][e] = c
    return [BasePolynomial(pres.vars, t) for t in terms]


def h1(partials: Sequence[BasePolynomial], D: int,
       order: str = ORDER_GREVLEX,
       presentation: Optional[SymmetryPresentation] = None) -> CohomologyReport:
    """First cohomology of the symmetry action on the quotient ring.

    Cocycles are tuples (g_1, ..., g_r) over the degree-<=D slice with
    tau_i(g_j) - tau_j(g_i) - sum_k f_ij^k g_k = 0 and
    sum_k r_ak g_k = 0 in the quotient, both checked exactly.
    Boundaries are the tuples (tau_i(f)) for f over the standard
    monomials up to D + 1 plus the degree allowance, far enough beyond
    both bounds that the boundary space is complete inside each slice.
    That one tau image set also gives the tau part of the cocycle
    conditions, and serves bounds D and D + 1 in _slice_cohomology.
    Representatives are reduced against the boundaries.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    parts, _vars = _check_partials(partials)
    pres = _presentation(parts, order, presentation)
    gb = pres._ring(order)
    ext = standard_monomials(gb, D + 1 + _degree_allowance(pres))
    taus = _tau_images(pres, gb, ext)
    keys = [(i, e) for i in range(pres.r) for e in ext if sum(e) <= D + 1]
    vecs, dim1 = _slice_cohomology(
        keys, _cocycle_images(pres, gb, keys, dict(zip(ext, taus))), taus, D)
    reps = [tuple(_split_tuple(pres, v)) for v in vecs]
    for gs in reps:
        _h1_check_exact(pres, gb, gs)
    return CohomologyReport(1, D, reps, len(reps) == dim1)


# -- the induced bracket H^0 x H^0 -> H^1 ------------------------------


def _hamiltonian_lift(pres: SymmetryPresentation, gb: GroebnerBasis, grad: list) -> list:
    """For each tau_i, a field xi_i with tau_i(f) = xi_i(S0), from the
    gradient of f, lifted against gb = pres._ring(pres.order) over the
    partials.  Membership of tau_i(f) in their ideal is exactly
    invariance of f, so failure is reported as a bad input."""
    lifts = []
    for i, t in enumerate(pres.tau):
        xi = gb.lift(_combination(grad, t))
        if xi is None:
            raise ValueError(
                f"h0_bracket input is not an exact invariant: generator {i} "
                "moves it off the ideal of the partials")
        lifts.append(xi)
    return lifts


def _class_reduce(pres: SymmetryPresentation, boundary, gs):
    """Reduce a cocycle tuple against a slice's _boundary_space."""
    keys, rows = boundary
    col = {k: n for n, k in enumerate(keys)}
    v = {col[(i, ee)]: c for i, g in enumerate(gs) for ee, c in g.terms.items()}
    return _split_tuple(pres, {keys[n]: c for n, c in reduce_row(v, rows).items()})


def _raw_bracket(gb: GroebnerBasis, df: list, xi: list, dg: list, eta: list) -> list:
    """NF(xi_i(g) + eta_i(f)) for each i; df and dg are the gradients."""
    return [normal_form(_combination(dg, x) + _combination(df, e), gb)
            for x, e in zip(xi, eta)]


def h0_bracket(f, g, presentation: SymmetryPresentation) -> list:
    """Class of the induced bracket of two invariants (polynomials, text
    or numbers over the presentation's coordinates).

    The value on tau_i is xi_i(g) + eta_i(f), where xi_i and eta_i lift
    tau_i(f) and tau_i(g) over the partials in the presentation's
    Jacobian ring; lifts differ by syzygies, which move invariants into
    the ideal.  The result is reduced against the boundary space, so
    equal classes come out as equal tuples.  Well-definedness is spot
    checked on every call by redoing the computation with the lift
    f + d_1 S0, reusing eta, and comparing reduced classes.
    """
    pres = presentation
    f, g = _poly(f, pres.vars), _poly(g, pres.vars)
    if pres.r == 0:
        return []
    gb = pres._ring(pres.order)
    df, dg = _gradient(f), _gradient(g)
    xi = _hamiltonian_lift(pres, gb, df)
    eta = _hamiltonian_lift(pres, gb, dg)
    raw = _raw_bracket(gb, df, xi, dg, eta)
    bound = max(0, max(p.total_degree() for p in raw))
    dh = _gradient(f + pres.partials[0])
    shifted = _raw_bracket(gb, dh, _hamiltonian_lift(pres, gb, dh), dg, eta)
    common = max(bound, max((p.total_degree() for p in shifted), default=-1), 0)
    spaces = {b: _boundary_space(pres, gb, b) for b in {common, bound}}
    left = _class_reduce(pres, spaces[common], raw)
    right = _class_reduce(pres, spaces[common], shifted)
    for a, b in zip(left, right):
        if a != b:
            raise AssertionError("bracket class depends on the chosen lift")
    return _class_reduce(pres, spaces[bound], raw)


# -- first page of the weight spectral sequence ------------------------


def _d1_decompose(dS: list, table, gb, gm: tuple, e: tuple, p: int) -> dict:
    """Page differential of x^e * ghost monomial, as {(ghost, exponent): c}.

    ``dS`` holds the derivatives of S, ``sol._factors()``;
    coefficients are those of the normal forms.
    """
    coeff = BasePolynomial(table.coordinates, {e: Fraction(1)})
    a = GradedPolynomial.monomial(table, gm, coeff)
    out = gr_project(_bracket_pair(dS, a, p + 1), p + 1)
    dec = {}
    for m, c in out.terms.items():
        for ee, cc in normal_form(c, gb).terms.items():
            dec[(m, ee)] = cc
    return dec


def e2_page(sol, p: int, D: int) -> CohomologyReport:
    """Column p of the first-page cohomology of a master solution.

    Cochains are quotient-ring coefficients on the weight-p ghost
    monomials; the differential is the weight-(p+1) projection of the
    antibracket with S, which singles out the linear layer of the
    solution without decomposing it symbolically.  The report gives
    ker/im on the degree-<=D slice.  Cochains up to degree D + 1 and
    previous-column inputs up to D + 2 are decomposed once and serve
    both bounds in _slice_cohomology; inputs one degree beyond a bound
    cover every combination landing inside its slice.
    """
    if p < 0:
        raise ValueError(f"column p must be >= 0, got {p}")
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    if sol.order < p + 1:
        raise ValueError(
            f"solution is certified to order {sol.order}; column {p} needs "
            f"order at least {p + 1}")
    res = sol.resolution
    table = res.table
    gb = jacobian_ring(res.partials, res.order)
    dS = sol._factors()
    std = standard_monomials(gb, D + 2)

    def column(q, bound):
        pairs = [(gm, e) for gm in _graded_monomials(table, q, 1) for e in std
                 if sum(e) <= bound]
        return pairs, [_d1_decompose(dS, table, gb, gm, e, q) for gm, e in pairs]

    vecs, dim1 = _slice_cohomology(*column(p, D + 1), column(p - 1, D + 2)[1], D)
    reps = []
    for v in vecs:
        terms = {}
        for (gm, e), c in v.items():
            terms.setdefault(gm, {})[e] = c
        reps.append(GradedPolynomial(table, {gm: BasePolynomial(table.coordinates, t)
                                             for gm, t in terms.items()}))
    for rep in reps:
        for c in gr_project(_bracket_pair(dS, rep, p + 1), p + 1).terms.values():
            if not normal_form(c, gb).is_zero():
                raise AssertionError("page cocycle fails its defining condition")
    return CohomologyReport(p, D, reps, len(reps) == dim1)
