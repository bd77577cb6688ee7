"""Master-equation solutions over a Koszul-Tate resolution.

Solutions are carried as graded polynomials of ghost number zero whose
antibracket square lies deep in the weight filtration.  The solver builds
them order by order; the constructors below produce exact solutions for
structured inputs (direct sums, quadratic pieces, group actions, flat
pairings on a bundle).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polynomial_engine import BasePolynomial, ModuleBasis, poly_to_str, rref
from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _add_into,
    dual_name,
    graded_to_str,
    gr_project,
    left_derivative,
    multiply,
    parse_graded,
    transport,
    truncate,
)
from .antibracket import bracket, exp_ad
from .tate import (
    TateGenerator,
    TateResolution,
    _delta_columns,
    _vectorize,
    negative_monomials,
)

import json

__all__ = [
    "MasterSolution",
    "GaugeWord",
    "VerifyReport",
    "s_lin",
    "master_residual",
    "solve_master",
    "verify_master",
    "gauge_relate",
    "trivial_solution",
    "product_solution",
    "add_square",
    "faddeev_popov",
    "bundle_solution",
]


class MasterSolution:
    """A ghost-zero element S certified to solve [S,S] = 0 through an order.

    ``order`` p means the recomputed residual lies in F^(p+1) and has at
    least two positive factors in every term.  ``log`` records how the
    solution was produced.
    """

    __slots__ = ("resolution", "S", "order", "log")

    def __init__(self, resolution: TateResolution, S: GradedPolynomial,
                 order: int, log: Optional[list] = None):
        self.resolution = resolution
        self.S = S
        self.order = order
        self.log = list(log) if log else []

    def to_json_obj(self) -> dict:
        return {
            "resolution": self.resolution.to_json_obj(),
            "S": graded_to_str(self.S),
            "order": self.order,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MasterSolution":
        res = TateResolution.from_json_obj(obj["resolution"])
        S = parse_graded(obj["S"], res.table)
        return cls(res, S, int(obj["order"]), ["restored from JSON"])

    @classmethod
    def from_json(cls, text: str) -> "MasterSolution":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self):
        return (f"MasterSolution(order={self.order}, "
                f"terms={len(self.S.terms)})")


class GaugeWord:
    """An ordered list of ghost(-1) elements acting by exp of the bracket.

    Each entry must have at least two positive factors in every term, so
    the induced automorphism fixes the associated solution.
    """

    __slots__ = ("elements", "p_max")

    def __init__(self, elements: Sequence[GradedPolynomial], p_max: int):
        elems = tuple(elements)
        for k, u in enumerate(elems):
            for m in u.terms:
                if u.table.ghost_of(m) != -1:
                    raise ValueError(f"word entry {k} is not ghost -1")
                if u.table.count_of(m) < 2:
                    raise ValueError(
                        f"word entry {k} has a term with fewer than two "
                        "positive factors")
        self.elements = elems
        self.p_max = p_max

    def apply(self, a: GradedPolynomial) -> GradedPolynomial:
        out = a
        for u in self.elements:
            out = exp_ad(u, out, self.p_max)
        return out

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GaugeWord(length={len(self.elements)}, p_max={self.p_max})"


class VerifyReport:
    """Outcome of re-checking a solution; failures are recorded, not raised."""

    __slots__ = ("requested", "achieved", "s0_ok", "associated_ok",
                 "residual_class")

    def __init__(self, requested: int, achieved: int, s0_ok: bool,
                 associated_ok: bool,
                 residual_class: Optional[GradedPolynomial]):
        self.requested = requested
        self.achieved = achieved
        self.s0_ok = s0_ok
        self.associated_ok = associated_ok
        self.residual_class = residual_class

    @property
    def ok(self) -> bool:
        return (self.achieved >= self.requested and self.s0_ok
                and self.associated_ok)

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        return (f"VerifyReport({status}, achieved={self.achieved}/"
                f"{self.requested}, s0_ok={self.s0_ok}, "
                f"associated_ok={self.associated_ok})")


# -- linear part and residual -----------------------------------------


def s_lin(res: TateResolution) -> GradedPolynomial:
    """The associated solution: S0 plus the boundary-times-ghost pairing.

    For a resolution given only by closed partials the S0 summand is
    omitted; the bracket of the missing term is restored by
    ``master_residual``.
    """
    t = res.table
    S: dict = {}
    if res.s0 is not None:
        _add_into(S, GradedPolynomial.from_scalar(t, res.s0).terms.items())
    images = res.delta_images()
    for aname, _deg, gname in t.pairs:
        term = multiply(images[aname], GradedPolynomial.generator(t, gname))
        _add_into(S, term.terms.items())
    return GradedPolynomial(t, S)


def master_residual(res: TateResolution,
                    S: GradedPolynomial) -> GradedPolynomial:
    """[S,S], with the closed-one-form correction in the multivalued case."""
    r = bracket(S, S)
    if res.s0 is None:
        corr: dict = {}
        for c, p in zip(res.table.coordinates, res.partials):
            if p.is_zero():
                continue
            term = multiply(GradedPolynomial.from_scalar(res.table, p),
                            left_derivative(S, dual_name(c)))
            _add_into(corr, term.terms.items())
        r = r + GradedPolynomial(res.table, corr) * 2
    return r


def _split_blocks(a: GradedPolynomial) -> dict:
    """Group terms by their positive-generator factor.

    Returns {positive exponent tuple: {negative exponent tuple: coeff}}.
    Negative generators sit before the ghosts in the table order, so the
    split never introduces a sign.
    """
    t = a.table
    blocks: dict = {}
    for m, c in a.terms.items():
        pos = tuple(e if t.degrees[i] > 0 else 0 for i, e in enumerate(m))
        neg = tuple(e if t.degrees[i] < 0 else 0 for i, e in enumerate(m))
        blocks.setdefault(pos, {})[neg] = c
    return blocks


def _solve_layer(res: TateResolution, blocks: dict, p: int,
                 cache: dict) -> GradedPolynomial:
    """Solve delta(v) = target blockwise, with v of chain weight p+1.

    ``blocks`` is ``_split_blocks(target)``.  ``target`` must be a sum of
    terms whose negative part is a ghost(-p) chain monomial and whose
    positive part has weight p+1 (for the solver residual) or p (for
    gauge differences); the positive factors ride along untouched.
    Raises if some block fails to lift, which means the resolution is
    not deep enough.
    """
    t = res.table
    if p not in cache:
        basis = negative_monomials(t, p)
        chains = negative_monomials(t, p + 1)
        delta = res.gr_delta()
        cols = _delta_columns(t, delta, chains, basis, t.coordinates)
        cache[p] = (basis, chains, ModuleBasis(cols, res.order))
    basis, chains, lifts = cache[p]
    out: dict = {}
    for pos in sorted(blocks):
        rhs = GradedPolynomial(t, dict(blocks[pos]))
        vec = _vectorize(rhs, basis, t.coordinates)
        cert = lifts.lift(vec)
        if cert is None:
            raise RuntimeError(
                f"no lift for an obstruction block at weight {p + 1}; "
                "resolution depth insufficient")
        vbar = GradedPolynomial(
            t, {m: c for m, c in zip(chains, cert.coefficients) if not c.is_zero()})
        term = multiply(vbar, GradedPolynomial.monomial(t, pos, 1))
        _add_into(out, term.terms.items())
    return GradedPolynomial(t, out)


# -- the order-by-order solver ----------------------------------------


def solve_master(res: TateResolution, p_max: int) -> MasterSolution:
    """Extend the associated solution until [S,S] lands in F^(p_max+1).

    Works one filtration order at a time: the weight-(p+1) slice of the
    residual is a boundary in the acyclic range, and half its negative
    lift is subtracted from S.  Every residual term is checked to carry
    at least two positive factors and weight at least p+1 before the
    slice is taken.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if res.depth < p_max + 1:
        raise ValueError(
            f"resolution depth {res.depth} is insufficient for order "
            f"{p_max}; need depth at least {p_max + 1}")
    t = res.table
    S = s_lin(res)
    low = truncate(S, 1)
    log = [f"associated solution: {len(S.terms)} terms"]
    cache: dict = {}
    order = p_max
    r = master_residual(res, S)
    for p in range(1, p_max + 1):
        if r.is_zero():
            log.append(f"order {p}: residual vanished")
            break
        for m in r.terms:
            if t.count_of(m) < 2:
                raise AssertionError(
                    "residual term with fewer than two positive factors "
                    f"at order {p}")
            if t.weight_of(m) < p + 1:
                raise AssertionError(
                    f"residual term of weight {t.weight_of(m)} below "
                    f"{p + 1} at order {p}")
            if t.ghost_of(m) != 1:
                raise AssertionError(f"residual term of ghost "
                                     f"{t.ghost_of(m)} at order {p}")
        rbar = gr_project(r, p + 1)
        if rbar.is_zero():
            log.append(f"order {p}: residual already in F^{p + 2}")
            continue
        blocks = _split_blocks(rbar * Fraction(-1, 2))
        v = _solve_layer(res, blocks, p, cache)
        S = S + v
        if truncate(S, 1) != low:
            raise AssertionError("correction leaked into weight <= 1")
        r2 = master_residual(res, S)
        if not r2.is_zero() and r2.min_weight() < p + 2:
            raise AssertionError(
                f"residual weight failed to increase at order {p}")
        log.append(f"order {p}: cleared {len(blocks)} obstruction blocks, "
                   f"{len(v.terms)} correction terms")
        r = r2
    return MasterSolution(res, S, order, log)


def verify_master(sol: MasterSolution, p: int) -> VerifyReport:
    """Recompute the residual and report how far the certification holds."""
    res = sol.resolution
    r = master_residual(res, sol.S)
    if r.is_zero():
        achieved = p
        residual_class = None
    else:
        mc = r.min_count()
        mw = r.min_weight()
        achieved = min(p, mw - 1) if mc >= 2 else 0
        residual_class = gr_project(r, mw) if achieved < p else None
    if res.s0 is None:
        s0_ok = truncate(sol.S, 0).is_zero()
    else:
        s0_ok = truncate(sol.S, 0) == GradedPolynomial.from_scalar(
            res.table, res.s0)
    diff = sol.S - s_lin(res)
    associated_ok = diff.is_zero() or diff.min_count() >= 2
    return VerifyReport(p, achieved, s0_ok, associated_ok, residual_class)


# -- gauge equivalence -------------------------------------------------


def gauge_relate(a: MasterSolution, b: MasterSolution,
                 p_max: int) -> GaugeWord:
    """A word of ghost(-1) elements carrying a.S to b.S mod F^(p_max+1).

    Both solutions must live on the same resolution and be certified to
    order p_max.  The word is built by a double induction on the weight
    of the difference and the number of positive factors in it.
    """
    if a.resolution.to_json_obj() != b.resolution.to_json_obj():
        raise ValueError("solutions live on different resolutions")
    if a.order < p_max or b.order < p_max:
        raise ValueError(
            f"both solutions must be certified to order {p_max}")
    res = a.resolution
    t = res.table
    T = transport(b.S, t)
    S = transport(a.S, t)
    cache: dict = {}
    elements = []
    for p in range(2, p_max + 1):
        for q in range(2, p + 1):
            v = gr_project(S - T, p)
            if v.is_zero():
                break
            for m in v.terms:
                if t.count_of(m) < q:
                    raise AssertionError(
                        f"difference at weight {p} has a term with "
                        f"{t.count_of(m)} positive factors; expected "
                        f">= {q}")
            vq = GradedPolynomial(
                t, {m: c for m, c in v.terms.items()
                    if t.count_of(m) == q})
            if vq.is_zero():
                continue
            u = _solve_layer(res, _split_blocks(vq), p, cache)
            elements.append(u)
            S = exp_ad(u, S, p_max)
    if not truncate(S - T, p_max).is_zero():
        raise AssertionError("gauge transport failed to converge")
    return GaugeWord(elements, p_max)


# -- exact constructors ------------------------------------------------


def _reexpress(a: GradedPolynomial, table: GeneratorTable) -> GradedPolynomial:
    """Move a graded polynomial to a table with a larger coordinate list.

    Coefficients are extended to the new coordinates; generator names
    are remapped by position.  The common generators must appear in the
    same relative order, so no signs arise.
    """
    old = a.table
    posmap = [table.index.get(n) for n in old.names]
    if any(p is None for p in posmap):
        missing = [n for n, p in zip(old.names, posmap) if p is None]
        raise ValueError(f"generators missing from table: {missing}")
    seen = [p for p in posmap if p is not None]
    if any(x >= y for x, y in zip(seen, seen[1:])):
        raise ValueError("generator order not preserved between tables")
    width = len(table.names)
    out: dict = {}
    for m, c in a.terms.items():
        m2 = [0] * width
        for i, e in enumerate(m):
            if e:
                m2[posmap[i]] = e
        out[tuple(m2)] = c.extend(table.coordinates)
    return GradedPolynomial(table, out)


def _as_fraction_matrix(rows, nrows: int, ncols: int, what: str) -> list:
    if len(rows) != nrows:
        raise ValueError(f"{what} must have {nrows} rows")
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"{what} must have {ncols} columns")
        out.append([Fraction(x) for x in row])
    return out


def trivial_solution(W: Sequence[tuple], d_W: dict) -> MasterSolution:
    """The solution attached to an acyclic complex of vector spaces.

    ``W`` lists (degree, dimension) pairs with all degrees <= -1; ``d_W``
    maps a degree d to the matrix of the degree-raising differential
    W_d -> W_(d+1), with rows indexed by the target basis.  The complex
    must square to zero and be exact everywhere, which is checked by rank
    counts.  Degree -1 basis vectors become duals of fresh coordinates;
    deeper ones become antifield-ghost pairs, and S is the associated
    solution over zero partials.
    """
    dims: dict = {}
    for deg, dim in W:
        deg = int(deg)
        dim = int(dim)
        if deg > -1:
            raise ValueError("all degrees must be <= -1")
        if deg in dims:
            raise ValueError(f"duplicate degree {deg}")
        if dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if dim:
            dims[deg] = dim
    mats: dict = {}
    for deg in sorted(dims):
        if deg + 1 in dims:
            mats[deg] = _as_fraction_matrix(
                d_W.get(deg, []), dims[deg + 1], dims[deg],
                f"d_W[{deg}]")
    # d squared is zero
    for deg in mats:
        if deg + 1 in mats:
            upper = mats[deg + 1]
            lower = mats[deg]
            for i in range(len(upper)):
                for j in range(len(lower[0])):
                    s = sum((upper[i][k] * lower[k][j]
                             for k in range(len(lower))), Fraction(0))
                    if s != 0:
                        raise ValueError(
                            f"differential does not square to zero at "
                            f"degree {deg}")
    # exactness by rank counts: at each degree, incoming rank plus
    # outgoing rank must exhaust the dimension
    ranks = {deg: len(rref([dict(enumerate(row)) for row in m])[1])
             for deg, m in mats.items()}
    for deg in sorted(dims):
        rank_out = ranks.get(deg, 0)
        rank_in = ranks.get(deg - 1, 0)
        if rank_in + rank_out != dims[deg]:
            raise ValueError(f"complex is not acyclic at degree {deg}")
    ntop = dims.get(-1, 0)
    coords = tuple(f"w{i + 1}" for i in range(ntop))
    names: dict = {}
    for i in range(ntop):
        names[(-1, i)] = dual_name(coords[i])
    pairs = []
    k = 0
    for deg in sorted(dims, reverse=True):
        if deg == -1:
            continue
        for i in range(dims[deg]):
            k += 1
            names[(deg, i)] = f"cs{k}"
            pairs.append((f"cs{k}", deg, f"c{k}"))
    table = GeneratorTable(coords, tuple(pairs))
    zero = BasePolynomial.zero(coords)
    partials = [zero for _ in coords]
    gens = []
    for deg in sorted(dims, reverse=True):
        if deg == -1:
            continue
        mat = mats[deg]
        for j in range(dims[deg]):
            img = GradedPolynomial.zero(table)
            for i in range(dims[deg + 1]):
                if mat[i][j] != 0:
                    img = img + GradedPolynomial.generator(
                        table, names[(deg + 1, i)]) * mat[i][j]
            gens.append(TateGenerator(names[(deg, j)], deg, img))
    depth = max((-d - 1 for d in dims), default=0)
    res = TateResolution(table, partials, gens, depth,
                         s0=BasePolynomial.zero(coords))
    S = s_lin(res)
    r = master_residual(res, S)
    if not r.is_zero():
        raise AssertionError("trivial solution failed the master equation")
    return MasterSolution(res, S, 8,
                          [f"trivial solution on a complex of total "
                           f"dimension {sum(dims.values())}"])


def product_solution(a: MasterSolution, b: MasterSolution) -> MasterSolution:
    """Disjoint union of two solutions; the residuals simply add."""
    ta, tb = a.resolution.table, b.resolution.table
    clash = set(ta.names) & set(tb.names)
    clash |= set(ta.coordinates) & set(tb.coordinates)
    if clash:
        raise ValueError(f"name clash: {sorted(clash)}")
    if (a.resolution.s0 is None) != (b.resolution.s0 is None):
        raise ValueError("cannot combine a multivalued solution with a "
                         "standard one")
    coords = ta.coordinates + tb.coordinates
    pairs = ta.pairs + tb.pairs
    table = GeneratorTable(coords, pairs)
    partials = ([BasePolynomial.parse(poly_to_str(p), coords)
                 for p in a.resolution.partials]
                + [BasePolynomial.parse(poly_to_str(p), coords)
                   for p in b.resolution.partials])
    gens = [TateGenerator(g.name, g.degree, _reexpress(g.delta, table))
            for g in a.resolution.generators + b.resolution.generators]
    s0 = None
    if a.resolution.s0 is not None:
        s0 = (BasePolynomial.parse(poly_to_str(a.resolution.s0), coords)
              + BasePolynomial.parse(poly_to_str(b.resolution.s0), coords))
    depth = min(a.resolution.depth, b.resolution.depth)
    res = TateResolution(table, partials, gens, depth, s0=s0)
    S = _reexpress(a.S, table) + _reexpress(b.S, table)
    expected = (_reexpress(master_residual(a.resolution, a.S), table)
                + _reexpress(master_residual(b.resolution, b.S), table))
    if master_residual(res, S) != expected:
        raise AssertionError("product residual is not additive")
    order = min(a.order, b.order)
    return MasterSolution(res, S, order,
                          ["product of two solutions", f"order {order}"])


def add_square(sol: MasterSolution, c) -> MasterSolution:
    """Append a fresh coordinate t and the quadratic term c*t^2."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("coefficient must be nonzero")
    res = sol.resolution
    used = set(res.table.names) | set(res.table.coordinates)
    tname = "t"
    n = 1
    while tname in used or dual_name(tname) in used:
        n += 1
        tname = f"t{n}"
    coords = res.table.coordinates + (tname,)
    table = GeneratorTable(coords, res.table.pairs)
    sq = BasePolynomial.parse(f"{c}*{tname}^2", coords)
    partials = [BasePolynomial.parse(poly_to_str(p), coords)
                for p in res.partials]
    partials.append(sq.derivative(tname))
    s0 = None
    if res.s0 is not None:
        s0 = BasePolynomial.parse(poly_to_str(res.s0), coords) + sq
    gens = [TateGenerator(g.name, g.degree, _reexpress(g.delta, table))
            for g in res.generators]
    res2 = TateResolution(table, partials, gens, res.depth, s0=s0)
    S = _reexpress(sol.S, table)
    if s0 is not None:
        S = S + GradedPolynomial.from_scalar(table, sq)
    return MasterSolution(res2, S, sol.order,
                          sol.log + [f"added square {c}*{tname}^2"])


def faddeev_popov(s0, action: Sequence[Sequence], structure=None,
                  coords: Optional[Sequence[str]] = None) -> MasterSolution:
    """The solution for an action invariant under given vector fields.

    ``action[i]`` lists the coefficients of the i-th vector field in the
    coordinate frame; ``structure[i][j][l]`` gives the coefficient of the
    l-th field in the commutator of the i-th and j-th (entries may be
    polynomials in the coordinates).  Each field must annihilate s0.  If
    the data fail to close or to satisfy the Jacobi-type identity, the
    residual of the candidate solution detects it and the defect is
    reported: its part free of antifields is the closure defect, the part
    linear in them the Jacobi defect.
    """
    if isinstance(s0, str):
        if coords is None:
            raise ValueError("coords are required when s0 is a string")
        coords = tuple(coords)
        s0 = BasePolynomial.parse(s0, coords)
    else:
        coords = tuple(coords) if coords is not None else s0.vars
    nsym = len(action)
    fields = []
    for i, row in enumerate(action):
        if len(row) != len(coords):
            raise ValueError(f"action row {i} must have {len(coords)} "
                             "entries")
        fields.append([x if isinstance(x, BasePolynomial)
                       else BasePolynomial.parse(str(x), coords)
                       for x in row])
    if structure is None:
        structure = [[[Fraction(0)] * nsym for _ in range(nsym)]
                     for _ in range(nsym)]
    cmat = []
    for i in range(nsym):
        crow = []
        for j in range(nsym):
            entry = [x if isinstance(x, BasePolynomial)
                     else BasePolynomial.parse(str(x), coords)
                     for x in structure[i][j]]
            if len(entry) != nsym:
                raise ValueError("structure constants have wrong shape")
            crow.append(entry)
        cmat.append(crow)
    for i in range(nsym):
        for j in range(nsym):
            for l in range(nsym):
                if cmat[i][j][l] + cmat[j][i][l] != BasePolynomial.zero(
                        coords):
                    raise ValueError(
                        "structure constants must be antisymmetric")
    for i, field in enumerate(fields):
        val = sum((coeff * s0.derivative(c)
                   for coeff, c in zip(field, coords)),
                  BasePolynomial.zero(coords))
        if not val.is_zero():
            raise ValueError(
                f"invariance failure: field {i + 1} applied to the action "
                f"gives {poly_to_str(val)}")
    pairs = tuple((f"bs{i + 1}", -2, f"b{i + 1}") for i in range(nsym))
    table = GeneratorTable(coords, pairs)
    partials = [s0.derivative(c) for c in coords]
    gens = []
    hats = []
    for i, field in enumerate(fields):
        hat = GradedPolynomial.zero(table)
        for coeff, c in zip(field, coords):
            if not coeff.is_zero():
                hat = hat + multiply(
                    GradedPolynomial.from_scalar(table, coeff),
                    GradedPolynomial.generator(table, dual_name(c))) * -1
        hats.append(hat)
        gens.append(TateGenerator(f"bs{i + 1}", -2, hat))
    res = TateResolution(table, partials, gens, 0, s0=s0)
    S = GradedPolynomial.from_scalar(table, s0)
    for i in range(nsym):
        S = S + multiply(hats[i], GradedPolynomial.generator(table,
                                                             f"b{i + 1}"))
    for i in range(nsym):
        for j in range(nsym):
            for l in range(nsym):
                if cmat[i][j][l].is_zero():
                    continue
                term = multiply(
                    GradedPolynomial.from_scalar(table, cmat[i][j][l]),
                    multiply(GradedPolynomial.generator(table, f"bs{l + 1}"),
                             multiply(
                                 GradedPolynomial.generator(table,
                                                            f"b{i + 1}"),
                                 GradedPolynomial.generator(table,
                                                            f"b{j + 1}"))))
                S = S - term * Fraction(1, 2)
    r = bracket(S, S)
    if not r.is_zero():
        t = table
        closure = GradedPolynomial(
            t, {m: c for m, c in r.terms.items()
                if sum(e for i, e in enumerate(m)
                       if t.degrees[i] <= -2) == 0})
        jacobi = r - closure
        parts = []
        if not closure.is_zero():
            parts.append(f"closure defect {graded_to_str(closure)}")
        if not jacobi.is_zero():
            parts.append(f"Jacobi defect {graded_to_str(jacobi)}")
        raise ValueError("gauge data are inconsistent: " + "; ".join(parts))
    return MasterSolution(res, S, 8,
                          [f"group action with {nsym} symmetries"])


def bundle_solution(g, A, F, base: Optional[Sequence[str]] = None,
                    fiber: Optional[Sequence[str]] = None) -> MasterSolution:
    """Exact solution for a pairing on a trivial bundle with connection.

    ``g[i][j]`` is the pairing, ``A[mu][i][j]`` the connection coefficient
    of dy^mu acting on the fiber, ``F[mu][nu][i][j]`` the curvature-like
    coefficient (antisymmetric in both index pairs); entries are
    polynomials in the base coordinates.  Three identities are required:

      (a)  d_mu g_ij - sum_l (A^l_i,mu g_lj + A^l_j,mu g_li) = 0
      (b)  d_mu A^i_j,nu - d_nu A^i_j,mu
             + sum_k (A^i_k,mu A^k_j,nu - A^i_k,nu A^k_j,mu)
             = sum_k F^ik_mu,nu g_kj
      (c)  the cyclic sum over mu,nu,rho of
             d_mu F^ij_nu,rho + sum_l (A^i_l,mu F^lj_nu,rho
                                        - A^j_l,mu F^li_nu,rho) = 0

    A violated identity is reported by its letter.  The result satisfies
    the master equation exactly.
    """
    r = len(g)
    m = len(A)
    base = tuple(base) if base is not None else tuple(
        f"y{k + 1}" for k in range(m))
    fiber = tuple(fiber) if fiber is not None else tuple(
        f"v{k + 1}" for k in range(r))
    if len(base) != m or len(fiber) != r:
        raise ValueError("coordinate names do not match the data shape")
    coords = base + fiber

    def parse(x):
        return (x if isinstance(x, BasePolynomial)
                else BasePolynomial.parse(str(x), coords))

    gmat = [[parse(g[i][j]) for j in range(r)] for i in range(r)]
    amat = [_pm(A[mu], r, parse, f"A[{mu}]") for mu in range(m)]
    fmat = [[None] * m for _ in range(m)]
    for mu in range(m):
        if len(F) != m or len(F[mu]) != m:
            raise ValueError("F must be an m x m array of fiber matrices")
        for nu in range(m):
            fmat[mu][nu] = _pm(F[mu][nu], r, parse, f"F[{mu}][{nu}]")
    zero = BasePolynomial.zero(coords)
    for mu in range(m):
        for nu in range(m):
            for i in range(r):
                for j in range(r):
                    if fmat[mu][nu][i][j] + fmat[nu][mu][i][j] != zero:
                        raise ValueError("F must be antisymmetric in the "
                                         "base indices")
                    if fmat[mu][nu][i][j] + fmat[mu][nu][j][i] != zero:
                        raise ValueError("F must be antisymmetric in the "
                                         "fiber indices")
    for mu in range(m):
        for i in range(r):
            for j in range(r):
                lhs = gmat[i][j].derivative(base[mu])
                for l in range(r):
                    lhs = (lhs - amat[mu][l][i] * gmat[l][j]
                           - amat[mu][l][j] * gmat[l][i])
                if not lhs.is_zero():
                    raise ValueError(
                        f'identity "(a)" fails at mu={mu + 1}, i={i + 1}, '
                        f"j={j + 1}: {poly_to_str(lhs)}")
    for mu in range(m):
        for nu in range(mu + 1, m):
            for i in range(r):
                for j in range(r):
                    lhs = (amat[nu][i][j].derivative(base[mu])
                           - amat[mu][i][j].derivative(base[nu]))
                    for k in range(r):
                        lhs = (lhs + amat[mu][i][k] * amat[nu][k][j]
                               - amat[nu][i][k] * amat[mu][k][j])
                    for k in range(r):
                        lhs = lhs - fmat[mu][nu][i][k] * gmat[k][j]
                    if not lhs.is_zero():
                        raise ValueError(
                            f'identity "(b)" fails at mu={mu + 1}, '
                            f"nu={nu + 1}, i={i + 1}, j={j + 1}: "
                            f"{poly_to_str(lhs)}")
    for mu in range(m):
        for nu in range(mu + 1, m):
            for rho in range(nu + 1, m):
                for i in range(r):
                    for j in range(r):
                        lhs = zero
                        for (a1, b1, c1) in ((mu, nu, rho), (nu, rho, mu),
                                             (rho, mu, nu)):
                            lhs = lhs + fmat[b1][c1][i][j].derivative(
                                base[a1])
                            for l in range(r):
                                lhs = (lhs
                                       + amat[a1][i][l] * fmat[b1][c1][l][j]
                                       - amat[a1][j][l] * fmat[b1][c1][l][i])
                        if not lhs.is_zero():
                            raise ValueError(
                                f'identity "(c)" fails at mu={mu + 1}, '
                                f"nu={nu + 1}, rho={rho + 1}, i={i + 1}, "
                                f"j={j + 1}")
    s0 = zero
    for i in range(r):
        for j in range(r):
            if not gmat[i][j].is_zero():
                s0 = s0 + (gmat[i][j]
                           * BasePolynomial.parse(
                               f"{fiber[i]}*{fiber[j]}", coords)
                           * Fraction(1, 2))
    pairs = tuple((f"bs{mu + 1}", -2, f"b{mu + 1}") for mu in range(m))
    table = GeneratorTable(coords, pairs)
    ws = []
    for mu in range(m):
        w = GradedPolynomial.generator(table, dual_name(base[mu]))
        for i in range(r):
            for j in range(r):
                if amat[mu][i][j].is_zero():
                    continue
                w = w - multiply(
                    GradedPolynomial.from_scalar(
                        table, amat[mu][i][j]
                        * BasePolynomial.parse(fiber[j], coords)),
                    GradedPolynomial.generator(table, dual_name(fiber[i])))
        ws.append(w)
    partials = [s0.derivative(c) for c in coords]
    gens = [TateGenerator(f"bs{mu + 1}", -2, ws[mu] * -1)
            for mu in range(m)]
    res = TateResolution(table, partials, gens, 0, s0=s0)
    S = GradedPolynomial.from_scalar(table, s0)
    for mu in range(m):
        S = S + multiply(GradedPolynomial.generator(table, f"b{mu + 1}"),
                         ws[mu])
    for mu in range(m):
        for nu in range(m):
            for i in range(r):
                for j in range(r):
                    if fmat[mu][nu][i][j].is_zero():
                        continue
                    term = multiply(
                        GradedPolynomial.from_scalar(table,
                                                     fmat[mu][nu][i][j]),
                        multiply(
                            GradedPolynomial.generator(table, f"b{mu + 1}"),
                            multiply(
                                GradedPolynomial.generator(table,
                                                           f"b{nu + 1}"),
                                multiply(
                                    GradedPolynomial.generator(
                                        table, dual_name(fiber[i])),
                                    GradedPolynomial.generator(
                                        table, dual_name(fiber[j]))))))
                    S = S + term * Fraction(1, 4)
    rres = bracket(S, S)
    if not rres.is_zero():
        raise AssertionError("bundle data passed the identities but the "
                             "master equation failed")
    return MasterSolution(res, S, 8,
                          [f"bundle solution, rank {r} over dimension {m}"])


def _pm(rows, r: int, parse, what: str) -> list:
    if len(rows) != r:
        raise ValueError(f"{what} must be an {r} x {r} matrix")
    out = []
    for row in rows:
        if len(row) != r:
            raise ValueError(f"{what} must be an {r} x {r} matrix")
        out.append([parse(x) for x in row])
    return out
