"""Cohomology of the classical BRST complex in low degrees.

Everything here is reduced to exact linear algebra over the rationals.
The Jacobian ring is presented by a Groebner basis, so its elements have
canonical normal forms and a degree-d slice has the standard monomials
as a basis.  Symmetries of the action enter through a finite
presentation: generators tau_i of the vector fields annihilating S0
modulo the trivial ones, relations among them with bivector
certificates, and structure functions for their commutators.  H^0 is
the algebra of invariants, H^1 is computed from the associated
one-cochain complex, and both are cross-checkable against the first
page of the weight spectral sequence of a master solution.

All reports are exact statements about a degree slice: membership
conditions hold on the nose, never merely up to the degree bound.
Dimensions need not be monotone in the bound, so every report carries a
stabilization flag comparing the bound against the next one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polynomial_engine import (
    BasePolynomial,
    GroebnerBasis,
    ModuleBasis,
    ModuleVector,
    ORDER_GREVLEX,
    groebner_basis,
    monomial_key,
    normal_form,
    nullspace,
    poly_to_str,
    reduce_row,
    rref,
    syzygy_basis,
)
from .graded_algebra import GradedPolynomial, gr_project, graded_to_str
from .antibracket import _bracket_factors, _bracket_pair

__all__ = [
    "CohomologyReport",
    "SymmetryPresentation",
    "apply_vector_field",
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


def apply_vector_field(field: ModuleVector, f: BasePolynomial) -> BasePolynomial:
    """Apply sum_k field[k] * d/dx_k to f."""
    if field.vars != f.vars or field.rank != len(f.vars):
        raise ValueError("vector field does not match the polynomial's coordinates")
    out = BasePolynomial.zero(f.vars)
    for k, name in enumerate(f.vars):
        out = out + field[k] * f.derivative(name)
    return out


def _commutator(a: ModuleVector, b: ModuleVector) -> ModuleVector:
    vars = a.vars
    comps = []
    for k in range(len(vars)):
        acc = BasePolynomial.zero(vars)
        for l, name in enumerate(vars):
            acc = acc + a[l] * b[k].derivative(name) - b[l] * a[k].derivative(name)
        comps.append(acc)
    return ModuleVector(comps)


def _check_partials(partials: Sequence[BasePolynomial]) -> tuple:
    parts = list(partials)
    if not parts:
        raise ValueError("at least one partial derivative is required")
    vars = parts[0].vars
    for p in parts:
        if p.vars != vars:
            raise ValueError("partials use inconsistent coordinate lists")
    if len(parts) != len(vars):
        raise ValueError(f"expected {len(vars)} partials for coordinates {vars}")
    return parts, vars


def _pair_index(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def koszul_syzygies(partials: Sequence[BasePolynomial]) -> list:
    """The trivial syzygies p_j e_i - p_i e_j, ordered by (i, j), i < j."""
    parts, vars = _check_partials(partials)
    n = len(vars)
    out = []
    for i, j in _pair_index(n):
        comps = [BasePolynomial.zero(vars) for _ in range(n)]
        comps[i] = parts[j]
        comps[j] = -parts[i]
        out.append(ModuleVector(comps))
    return out


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
                 "bivectors_v", "structure_f", "correction_g")

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
        self._verify()

    @property
    def r(self) -> int:
        return len(self.tau)

    @property
    def s(self) -> int:
        return len(self.relations)

    def _verify(self) -> None:
        r = self.r
        zero = ModuleVector([BasePolynomial.zero(self.vars)] * len(self.vars))
        for t in self.tau:
            acc = BasePolynomial.zero(self.vars)
            for k in range(len(self.vars)):
                acc = acc + t[k] * self.partials[k]
            assert acc.is_zero(), "presentation certificate failed: tau does not annihilate dS0"
        for a in range(self.s):
            acc = zero
            for j in range(r):
                acc = acc + self.tau[j] * self.relations[a][j]
            acc = acc + _contract(self.partials, self.bivectors_v[a])
            assert acc.is_zero(), (
                f"presentation certificate failed: relation {a} is not closed by its bivector")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    assert (self.structure_f[i][j][k] + self.structure_f[j][i][k]).is_zero(), (
                        "presentation certificate failed: structure functions not antisymmetric")
        for i in range(r):
            for j in range(i + 1, r):
                acc = _commutator(self.tau[i], self.tau[j])
                for k in range(r):
                    acc = acc - self.tau[k] * self.structure_f[i][j][k]
                acc = acc - _contract(self.partials, self.correction_g[i][j])
                assert acc.is_zero(), (
                    f"presentation certificate failed: commutator ({i},{j}) is not resolved")

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
    kpairs = _pair_index(n)

    # the prunes ask yes/no questions only, so their bases grow in place
    raw = syzygy_basis(parts, order)
    raw.sort(key=lambda v: _vec_sort_key(v, order))
    tau = []
    spanned = ModuleBasis(kosz, order)
    for v in raw:
        if v.is_zero() or spanned.lift(v) is not None:
            continue
        tau.append(_monic(v, order))
        spanned.add(tau[-1])
    r = len(tau)

    relations = []
    bivectors = []
    if r:
        second = syzygy_basis(tau + kosz, order)
        pure = [v for v in second if all(v[i].is_zero() for i in range(r))]
        cands = [v for v in second if not all(v[i].is_zero() for i in range(r))]
        cands.sort(key=lambda v: _vec_sort_key(v, order))
        kept = []
        spanned = ModuleBasis(pure, order)
        for v in cands:
            if spanned.lift(v) is not None:
                continue
            kept.append(_monic(v, order))
            spanned.add(kept[-1])
        for v in kept:
            relations.append([v[i] for i in range(r)])
            bv = {}
            for t, (i, j) in enumerate(kpairs):
                c = v[r + t]
                if not c.is_zero():
                    bv[(i, j)] = -c
            bivectors.append(bv)

    zero = BasePolynomial.zero(vars)
    structure = [[[zero for _ in range(r)] for _ in range(r)] for _ in range(r)]
    correction = [[{} for _ in range(r)] for _ in range(r)]
    if r:
        lifts = ModuleBasis(tau + kosz, order)
        for i in range(r):
            for j in range(i + 1, r):
                cert = lifts.lift(_commutator(tau[i], tau[j]))
                if cert is None:
                    raise AssertionError(
                        f"presentation certificate failed: commutator ({i},{j}) "
                        "has no expression over the generators")
                co = cert.coefficients
                for k in range(r):
                    structure[i][j][k] = co[k]
                    structure[j][i][k] = -co[k]
                bv = {}
                for t, (a, b) in enumerate(kpairs):
                    w = co[r + t]
                    if not w.is_zero():
                        bv[(a, b)] = -w
                correction[i][j] = bv
                correction[j][i] = {k: -c for k, c in bv.items()}

    return SymmetryPresentation(vars, order, parts, tau, relations, bivectors,
                                structure, correction)


# -- degree slices of the quotient ring --------------------------------


def _exponents_upto(n: int, D: int) -> list:
    out = []

    def rec(i, left, exp):
        if i == n:
            out.append(tuple(exp))
            return
        for k in range(left + 1):
            exp.append(k)
            rec(i + 1, left - k, exp)
            exp.pop()

    rec(0, D, [])
    return out


def standard_monomials(gb: GroebnerBasis, D: int) -> list:
    """Exponents of the monomials of degree <= D in normal form.

    A monomial is its own normal form exactly when no leading term of
    the basis divides it.  Sorted descending in the basis order, so
    linear algebra over slices eliminates against high monomials first
    and representatives come out reduced toward low degree.
    """
    leads = [g.leading(gb.order)[0] for g in gb.elements]
    std = [e for e in _exponents_upto(len(gb.vars), D)
           if not any(all(a <= b for a, b in zip(lt, e)) for lt in leads)]
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

    def __init__(self, p: int, bound: int, dim: int, basis, stable: bool):
        self.p = p
        self.bound = bound
        self.dim = dim
        self.basis = list(basis)
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


def _slice_image(images: list, low: dict) -> tuple:
    """RREF of the span of the images intersected with the slice.

    low maps the slice's keys to coordinates.  Combinations whose
    entries off the slice cancel are written in those coordinates, so
    the span is every image that lands inside the slice.
    """
    high = [{k: c for k, c in img.items() if k not in low} for img in images]
    inslice = []
    for co in nullspace(high):
        w = {}
        for j, a in co.items():
            for k, c in images[j].items():
                if k in low:
                    w[low[k]] = w.get(low[k], 0) + a * c
        inslice.append(w)
    return rref(inslice)


def _tau_images(pres: SymmetryPresentation, gb: GroebnerBasis, exps) -> list:
    """{(i, e): c} of normal_form(tau_i(x^m)) for each exponent m."""
    out = []
    for m in exps:
        mono = BasePolynomial(pres.vars, {m: Fraction(1)})
        img = {}
        for i, t in enumerate(pres.tau):
            for e, c in normal_form(apply_vector_field(t, mono), gb).terms.items():
                img[(i, e)] = c
        out.append(img)
    return out


def _presentation(parts: list, order: str,
                  presentation: Optional[SymmetryPresentation]) -> SymmetryPresentation:
    if presentation is None:
        return symmetry_presentation(parts, order)
    if presentation.partials != tuple(parts):
        raise ValueError("presentation was built for different partials")
    return presentation


# -- H^0: invariants ---------------------------------------------------


def _invariant_vectors(pres: SymmetryPresentation, gb: GroebnerBasis, D: int):
    std = standard_monomials(gb, D)
    red, _piv = rref(nullspace(_tau_images(pres, gb, std)))
    return std, red


def _vec_to_poly(vars, std, v: dict) -> BasePolynomial:
    return BasePolynomial(vars, {std[j]: c for j, c in v.items()})


def h0(partials: Sequence[BasePolynomial], D: int,
       order: str = ORDER_GREVLEX,
       presentation: Optional[SymmetryPresentation] = None) -> CohomologyReport:
    """Invariants of the quotient ring on the degree-<=D slice.

    Basis elements f are normal forms with normal_form(tau_i(f)) = 0
    for every generator; invariance under the full symmetry module
    follows because the Koszul fields move everything into the ideal.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    parts, vars = _check_partials(partials)
    pres = _presentation(parts, order, presentation)
    gb = jacobian_ring(parts, order)
    std, vecs = _invariant_vectors(pres, gb, D)
    _std1, vecs1 = _invariant_vectors(pres, gb, D + 1)
    basis = [_vec_to_poly(vars, std, v) for v in vecs]
    for b in basis:
        for t in pres.tau:
            if not normal_form(apply_vector_field(t, b), gb).is_zero():
                raise AssertionError("invariant candidate fails its defining condition")
    return CohomologyReport(0, D, len(basis), basis, len(vecs) == len(vecs1))


# -- H^1: the one-cochain complex --------------------------------------


def _degree_allowance(pres: SymmetryPresentation) -> int:
    """How far beyond the bound boundary inputs must range.

    Applying tau_i to a monomial shifts its degree by deg(c) - 1 per
    coefficient term c, so inputs up to D plus the worst negative shift
    are enough for every boundary that can land inside the slice.
    """
    allow = 0
    for t in pres.tau:
        mindeg = None
        for c in t.components:
            if c.is_zero():
                continue
            d = min(sum(e) for e in c.terms)
            mindeg = d if mindeg is None else min(mindeg, d)
        if mindeg is not None:
            allow = max(allow, 1 - mindeg)
    return max(0, allow)


def _boundary_space(pres: SymmetryPresentation, gb: GroebnerBasis, D: int):
    """RREF of the boundaries tau_i(f) that lie inside the slice.

    Inputs f range over standard monomials up to the allowance-extended
    bound; combinations whose images stick out of the slice are
    eliminated, so the span is the full boundary space intersected with
    the slice over that input range.
    """
    r = pres.r
    std = standard_monomials(gb, D)
    colmap = {}
    for i in range(r):
        for e in std:
            colmap[(i, e)] = len(colmap)
    ext = standard_monomials(gb, D + _degree_allowance(pres))
    red, piv = _slice_image(_tau_images(pres, gb, ext), colmap)
    return std, colmap, red, piv


def _cocycle_vectors(pres: SymmetryPresentation, gb: GroebnerBasis, D: int, std, colmap):
    r = pres.r
    images = [{} for _ in colmap]

    def add(cond, ee, col, c):
        img = images[col]
        img[(cond, ee)] = img.get((cond, ee), Fraction(0)) + c

    for e in std:
        m = BasePolynomial(pres.vars, {e: Fraction(1)})
        nf_tau = [normal_form(apply_vector_field(t, m), gb) for t in pres.tau]
        for i in range(r):
            for j in range(i + 1, r):
                # condition (i,j): tau_i(g_j) - tau_j(g_i) - f_ij^k g_k = 0
                for ee, c in nf_tau[i].terms.items():
                    add(("c", i, j), ee, colmap[(j, e)], c)
                for ee, c in nf_tau[j].terms.items():
                    add(("c", i, j), ee, colmap[(i, e)], -c)
                for k in range(r):
                    fk = pres.structure_f[i][j][k]
                    if fk.is_zero():
                        continue
                    out = normal_form(fk * m, gb)
                    for ee, c in out.terms.items():
                        add(("c", i, j), ee, colmap[(k, e)], -c)
        for a in range(pres.s):
            for k in range(r):
                rk = pres.relations[a][k]
                if rk.is_zero():
                    continue
                out = normal_form(rk * m, gb)
                for ee, c in out.terms.items():
                    add(("r", a), ee, colmap[(k, e)], c)
    return nullspace(images)


def _h1_check_exact(pres: SymmetryPresentation, gb: GroebnerBasis, gs) -> None:
    r = pres.r
    for i in range(r):
        for j in range(i + 1, r):
            acc = apply_vector_field(pres.tau[i], gs[j]) \
                - apply_vector_field(pres.tau[j], gs[i])
            for k in range(r):
                acc = acc - pres.structure_f[i][j][k] * gs[k]
            if not normal_form(acc, gb).is_zero():
                raise AssertionError("one-cocycle fails its commutator condition")
    for a in range(pres.s):
        acc = BasePolynomial.zero(pres.vars)
        for k in range(r):
            acc = acc + pres.relations[a][k] * gs[k]
        if not normal_form(acc, gb).is_zero():
            raise AssertionError("one-cocycle fails a relation condition")


def _split_tuple(pres: SymmetryPresentation, colmap, v: dict) -> list:
    """The r polynomials of a vector over the (generator, monomial) slice."""
    terms = [{} for _ in range(pres.r)]
    for (i, e), col in colmap.items():
        if col in v:
            terms[i][e] = v[col]
    return [BasePolynomial(pres.vars, t) for t in terms]


def _h1_slice(pres: SymmetryPresentation, gb: GroebnerBasis, D: int):
    std, colmap, bred, bpiv = _boundary_space(pres, gb, D)
    Z = _cocycle_vectors(pres, gb, D, std, colmap)
    red, _piv = rref([reduce_row(z, bred, bpiv) for z in Z])
    return [tuple(_split_tuple(pres, colmap, v)) for v in red]


def h1(partials: Sequence[BasePolynomial], D: int,
       order: str = ORDER_GREVLEX,
       presentation: Optional[SymmetryPresentation] = None) -> CohomologyReport:
    """First cohomology of the symmetry action on the quotient ring.

    Cocycles are tuples (g_1, ..., g_r) over the degree-<=D slice with
    tau_i(g_j) - tau_j(g_i) - sum_k f_ij^k g_k = 0 and
    sum_k r_ak g_k = 0 in the quotient, both checked exactly.
    Boundaries are the tuples (tau_i(f)); their inputs range far enough
    beyond the bound that the boundary space is complete inside the
    slice.  Representatives are reduced against the boundaries.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    parts, _vars = _check_partials(partials)
    pres = _presentation(parts, order, presentation)
    gb = jacobian_ring(parts, order)
    if pres.r == 0:
        return CohomologyReport(1, D, 0, [], True)
    reps = _h1_slice(pres, gb, D)
    reps1 = _h1_slice(pres, gb, D + 1)
    for gs in reps:
        _h1_check_exact(pres, gb, gs)
    return CohomologyReport(1, D, len(reps), reps, len(reps) == len(reps1))


# -- the induced bracket H^0 x H^0 -> H^1 ------------------------------


def _hamiltonian_lift(pres: SymmetryPresentation, partials: ModuleBasis,
                      f: BasePolynomial):
    """For each tau_i, a field xi_i with tau_i(f) = xi_i(S0).

    ``partials`` is the ModuleBasis of pres.partials.  Membership of
    tau_i(f) in the ideal of the partials is exactly invariance of f,
    so failure is reported as a bad input rather than an internal error.
    """
    lifts = []
    for i, t in enumerate(pres.tau):
        cert = partials.lift(apply_vector_field(t, f))
        if cert is None:
            raise ValueError(
                f"h0_bracket input is not an exact invariant: generator {i} "
                "moves it off the ideal of the partials")
        lifts.append(cert.coefficients)
    return lifts


def _class_reduce(pres: SymmetryPresentation, boundary, gs):
    """Reduce a cocycle tuple against a slice's _boundary_space."""
    _std, colmap, bred, bpiv = boundary
    v = {colmap[(i, ee)]: c for i, g in enumerate(gs) for ee, c in g.terms.items()}
    return _split_tuple(pres, colmap, reduce_row(v, bred, bpiv))


def _raw_bracket(pres: SymmetryPresentation, gb: GroebnerBasis,
                 partials: ModuleBasis, f: BasePolynomial, g: BasePolynomial):
    xi = _hamiltonian_lift(pres, partials, f)
    eta = _hamiltonian_lift(pres, partials, g)
    out = []
    for i in range(pres.r):
        out.append(normal_form(apply_vector_field(xi[i], g)
                               + apply_vector_field(eta[i], f), gb))
    return out


def h0_bracket(f: BasePolynomial, g: BasePolynomial,
               presentation: SymmetryPresentation) -> list:
    """Class of the induced bracket of two invariants.

    The value on tau_i is xi_i(g) + eta_i(f), where xi_i and eta_i are
    membership certificates for tau_i(f) and tau_i(g) against the
    partials.  The result is reduced against the boundary space, so
    equal classes come out as equal tuples.  Well-definedness is spot
    checked on every call by redoing the computation with the lift
    f + d_1 S0 and comparing reduced classes.
    """
    pres = presentation
    if pres.r == 0:
        return []
    gb = jacobian_ring(list(pres.partials), pres.order)
    partials = ModuleBasis(pres.partials, pres.order)
    raw = _raw_bracket(pres, gb, partials, f, g)
    bound = max(0, max(p.total_degree() for p in raw))
    shifted = _raw_bracket(pres, gb, partials, f + pres.partials[0], g)
    common = max(bound, max((p.total_degree() for p in shifted), default=-1), 0)
    spaces = {b: _boundary_space(pres, gb, b) for b in {common, bound}}
    left = _class_reduce(pres, spaces[common], raw)
    right = _class_reduce(pres, spaces[common], shifted)
    for a, b in zip(left, right):
        if a != b:
            raise AssertionError("bracket class depends on the chosen lift")
    return _class_reduce(pres, spaces[bound], raw)


# -- first page of the weight spectral sequence ------------------------


def _ghost_monomials(table, p: int) -> list:
    """Monomials in the positive generators of total ghost degree p."""
    pos = [(i, d) for i, d in enumerate(table.degrees) if d > 0]
    out = []

    def rec(k, left, exp):
        if left == 0:
            m = [0] * len(table.names)
            for (i, _d), e in zip(pos, exp):
                m[i] = e
            out.append(tuple(m))
            return
        if k == len(pos):
            return
        i, d = pos[k]
        emax = left // d
        if table.parities[i]:
            emax = min(emax, 1)
        for e in range(emax + 1):
            rec(k + 1, left - e * d, exp + [e])

    if p == 0:
        return [table.unit_monomial()]
    if p < 0:
        return []
    rec(0, p, [])
    return sorted(out)


def _d1_decompose(dS: list, table, gb, gm: tuple, e: tuple, p: int) -> dict:
    """Page differential of x^e * ghost monomial, as {(ghost, exponent): c}.

    ``dS`` holds the derivatives of S, ``_bracket_factors(S)``;
    coefficients are those of the normal forms.
    """
    coeff = BasePolynomial(table.coordinates, {e: Fraction(1)})
    a = GradedPolynomial.monomial(table, gm, coeff)
    out = gr_project(_bracket_pair(dS, a), p + 1)
    dec = {}
    for m, c in out.terms.items():
        for ee, cc in normal_form(c, gb).terms.items():
            dec[(m, ee)] = cc
    return dec


def _e2_slice(sol, gb, p: int, D: int, dS: list):
    table = sol.resolution.table
    std = standard_monomials(gb, D)
    dom = [(gm, e) for gm in _ghost_monomials(table, p) for e in std]
    if not dom:
        return []
    ker = nullspace([_d1_decompose(dS, table, gb, gm, e, p) for gm, e in dom])
    # image of the previous column, restricted to the slice
    ext = standard_monomials(gb, D + 1)
    prev = [(gm, e) for gm in _ghost_monomials(table, p - 1) for e in ext]
    dmap = {pair: idx for idx, pair in enumerate(dom)}
    bred, bpiv = _slice_image(
        [_d1_decompose(dS, table, gb, gm, e, p - 1) for gm, e in prev], dmap)
    red, _piv = rref([reduce_row(z, bred, bpiv) for z in ker])
    reps = []
    for v in red:
        terms = {}
        for idx, c in v.items():
            gm, e = dom[idx]
            terms.setdefault(gm, {})[e] = c
        gp = GradedPolynomial(table, {gm: BasePolynomial(table.coordinates, t)
                                      for gm, t in terms.items()})
        reps.append(gp)
    return reps


def e2_page(sol, p: int, D: int) -> CohomologyReport:
    """Column p of the first-page cohomology of a master solution.

    Cochains are quotient-ring coefficients on the weight-p ghost
    monomials; the differential is the weight-(p+1) projection of the
    antibracket with S, which singles out the linear layer of the
    solution without decomposing it symbolically.  The report gives
    ker/im on the degree-<=D slice; images are taken from inputs one
    degree beyond the bound, which covers every combination landing
    inside the slice.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    if sol.order < p + 1:
        raise ValueError(
            f"solution is certified to order {sol.order}; column {p} needs "
            f"order at least {p + 1}")
    res = sol.resolution
    gb = groebner_basis(list(res.partials), res.order)
    dS = _bracket_factors(sol.S)
    reps = _e2_slice(sol, gb, p, D, dS)
    reps1 = _e2_slice(sol, gb, p, D + 1, dS)
    for rep in reps:
        out = gr_project(_bracket_pair(dS, rep), p + 1)
        for _m, c in out.terms.items():
            if not normal_form(c, gb).is_zero():
                raise AssertionError("page cocycle fails its defining condition")
    return CohomologyReport(p, D, len(reps), reps, len(reps) == len(reps1))
