"""Master-equation solutions over a Koszul-Tate resolution.

Solutions are carried as graded polynomials of ghost number zero whose
antibracket square lies deep in the weight filtration.  The solver builds
them order by order; the constructors below produce exact solutions for
structured inputs (direct sums, quadratic pieces, group actions, flat
pairings on a bundle).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .elimination import _echelon
from .polynomial_engine import BasePolynomial, _combination, _number, _poly, poly_to_str
from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _add_into,
    _bracket_pair,
    _weight_rows,
    dual_name,
    graded_to_str,
    gr_project,
    multiply,
    parse_graded,
    transport,
    truncate,
)
from .antibracket import (
    _bracket_factors,
    _is_even,
    antifield_lift,
    exp_ad,
)
from .tate import TateGenerator, TateResolution, _DeltaLayer, _json_fields, partner_name

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

    __slots__ = ("resolution", "S", "order", "log", "_dS")

    def __init__(self, resolution: TateResolution, S: GradedPolynomial,
                 order: int, log: Optional[list] = None):
        self.resolution = resolution
        self.S = S
        self.order = order
        self.log = list(log) if log else []
        self._dS = None

    def _factors(self) -> list:
        """``_bracket_factors(S)``, built on first use and kept with the S
        it was built from: every column of the E2 page pairs it with its
        cochains."""
        if self._dS is None or self._dS[0] is not self.S:
            self._dS = self.S, _bracket_factors(self.S)
        return self._dS[1]

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
        """The solution written by to_json_obj; a missing or ill-typed
        field raises ValueError naming it."""
        res, S, order = _json_fields(obj, "solution", resolution=dict, S=str,
                                     order=int)
        res = TateResolution.from_json_obj(res)
        return cls(res, parse_graded(S, res.table), order,
                   ["restored from JSON"])

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
    return _residual_bracket(res, S, S)


def _residual_bracket(res: TateResolution, a: GradedPolynomial,
                      v: GradedPolynomial,
                      cap: Optional[int] = None) -> GradedPolynomial:
    """[a, v] plus, for closed partials, 2 sum_i dS0/dx_i * dv/dxs_i.

    The added one-form term is linear in v, so (a, v) = (S, S) gives the
    residual of S and (a, v) = (2S + v, v) its change from S to S + v.
    With a cap, only the terms of weight <= cap are computed.  A square
    of an even a is built from the half factors, as in ``bracket``.
    """
    factors = _bracket_factors(a, a is v and _is_even(a)) + _one_form_factors(res)
    return _bracket_pair(factors, v, cap)


def _one_form_factors(res: TateResolution) -> list:
    """For closed partials, the bracket factors of the missing S0 term:
    the scalar 2 dS0/dx_i paired with the derivative by xs_i, one per
    nonzero partial.  They enter every residual and every update."""
    if res.s0 is not None:
        return []
    t = res.table
    return [(_weight_rows(GradedPolynomial.from_scalar(t, p * 2)), t.index[dual_name(c)])
            for c, p in zip(t.coordinates, res.partials) if not p.is_zero()]


def _square_cap(res: TateResolution, p: int) -> int:
    """max(p + 1, largest generator degree): a term of count <= 1 has
    weight at most that degree, so [S, S] capped there holds every term
    that the solver's checks and ``verify_master``'s report read."""
    return max((p + 1, *res.table._positive_degrees))


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
        cache[p] = _DeltaLayer(t, res.gr_delta(), p, res.order)
    out: dict = {}
    for pos in sorted(blocks):
        vbar = cache[p].lift(GradedPolynomial(t, dict(blocks[pos])))
        if vbar is None:
            raise RuntimeError(
                f"no lift for an obstruction block at weight {p + 1}; "
                "resolution depth insufficient")
        term = multiply(vbar, GradedPolynomial.monomial(t, pos, 1))
        _add_into(out, term.terms.items())
    return GradedPolynomial(t, out)


# -- the order-by-order solver ----------------------------------------


def solve_master(res: TateResolution, p_max: int) -> MasterSolution:
    """Extend the associated solution until [S,S] lands in F^(p_max+1).

    Works one filtration order at a time: the weight-(p+1) slice of the
    residual is a boundary in the acyclic range, and half its negative
    lift is subtracted from S.

    The residual of the associated solution is [S,S] capped at
    ``_square_cap``.  No term of [S,S] weighs more than twice the
    largest weight of S, so when that is within the cap the capped
    square is all of [S,S]; otherwise a zero capped square is followed
    by the full one, so that "residual vanished" is exact.  After the
    first order the residual is truncated to weight P = p_max + 1, the
    highest any order reads, and after each correction v it is updated
    as r <- r + [2S + v, v], computing only the terms of weight <= P: S
    and v have ghost degree 0, so the bracket is bilinear and symmetric
    on them and [S+v, S+v] - [S,S] = 2[S,v] + [v,v].

    The bracket factors F of ``_bracket_factors`` are linear in their
    argument, and ``_bracket_pair`` sums over a list of them, so the
    factors of a sum are those of its parts listed together.  They are
    kept across orders, with the one-form factors of closed partials:
    F(2S) is taken once, from one scan of S; the first square reads its
    entries paired with a dual or an antifield, which are the half
    factors of S, since S of ghost degree 0 is even; and each order
    takes the derivatives of v only, pairing F(2S + v) = F(2S) + F(v)
    with v and keeping F(2S + 2v) = F(2S + v) + F(v).

    Each order scans the residual once: every term must carry at least
    two positive factors, ghost degree 1 and weight at least p+1, and
    the terms of weight p+1 form the slice.  The checks see every term
    the solver computes.  ``verify_master`` recomputes the capped square
    from S alone.  A residual without terms of weight p+1 is logged as
    already lying in F^(p+2).
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if res.depth < p_max + 1:
        raise ValueError(
            f"resolution depth {res.depth} is insufficient for order "
            f"{p_max}; need depth at least {p_max + 1}")
    t = res.table
    P = p_max + 1
    S = s_lin(res)
    low = truncate(S, 1)
    log = [f"associated solution: {len(S.terms)} terms"]
    cap = _square_cap(res, p_max)
    kept = _bracket_factors(S * 2) + _one_form_factors(res)
    n = len(t.names)
    r = _bracket_pair([f for f in kept if f[1] < n and t.degrees[f[1]] < 0], S, cap)
    if not r and 2 * (S.max_weight() or 0) > cap:
        r = master_residual(res, S)
    if r.is_zero():
        log.append("order 1: residual vanished")
        return MasterSolution(res, S, p_max, log)
    for p in range(1, p_max + 1):
        rbar = {}
        for m, c in r.terms.items():
            if t.count_of(m) < 2:
                raise AssertionError(
                    "residual term with fewer than two positive factors "
                    f"at order {p}")
            w = t.weight_of(m)
            if w < p + 1:
                raise AssertionError(
                    f"residual term of weight {w} below {p + 1} at order {p}")
            if t.ghost_of(m) != 1:
                raise AssertionError(f"residual term of ghost "
                                     f"{t.ghost_of(m)} at order {p}")
            if w == p + 1:
                rbar[m] = c
        if p == 1:
            r = truncate(r, P)
        if not rbar:
            log.append(f"order {p}: residual already in F^{p + 2}")
            continue
        blocks = _split_blocks(GradedPolynomial(t, rbar) * Fraction(-1, 2))
        # order p lifts against layer p alone: no layer outlives its order
        v = _solve_layer(res, blocks, p, {})
        fv = _bracket_factors(v)
        kept += fv
        r = r + _bracket_pair(kept, v, P)
        kept += fv
        S = S + v
        if truncate(S, 1) != low:
            raise AssertionError("correction leaked into weight <= 1")
        log.append(f"order {p}: cleared {len(blocks)} obstruction blocks, "
                   f"{len(v.terms)} correction terms")
    if not r.is_zero():
        raise AssertionError(
            f"residual weight failed to increase at order {p_max}")
    return MasterSolution(res, S, p_max, log)


def verify_master(sol: MasterSolution, p: int) -> VerifyReport:
    """Recompute the residual and report how far the certification holds.

    ``achieved`` is 0 when some term of [S,S] has fewer than two positive
    factors, and min(p, w - 1) otherwise, w the minimum weight of [S,S];
    below p, ``residual_class`` is the slice of weight w.  A term of
    count <= 1 has weight at most the largest generator degree, so [S,S]
    capped at the larger of that degree and p + 1 holds every term the
    report reads, and the report equals the one the full bracket gives;
    ``master_residual`` computes the full bracket.
    """
    if p < 0:
        raise ValueError(f"order p must be >= 0, got {p}")
    res = sol.resolution
    t, S = res.table, sol.S
    r = _residual_bracket(res, S, S, _square_cap(res, p))
    if any(t.count_of(m) <= 1 for m in r.terms):
        achieved = 0
    else:
        achieved = min(p, r.min_weight() - 1) if r else p
    residual_class = gr_project(r, r.min_weight()) if achieved < p else None
    if res.s0 is None:
        s0_ok = truncate(S, 0).is_zero()
    else:
        s0_ok = truncate(S, 0) == GradedPolynomial.from_scalar(t, res.s0)
    diff = S - s_lin(res)
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
    if p_max < 0:
        raise ValueError(f"order p_max must be >= 0, got {p_max}")
    # the monomial order is how lifts are computed, not part of the resolution
    if (dict(a.resolution.to_json_obj(), order=None)
            != dict(b.resolution.to_json_obj(), order=None)):
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


def _matrix(rows, nrows: int, ncols: int, what: str, entry) -> list:
    """rows as an nrows x ncols list of lists, each entry read by entry."""
    if len(rows) != nrows or any(len(row) != ncols for row in rows):
        raise ValueError(f"{what} must be {nrows} x {ncols}")
    return [[entry(x) for x in row] for row in rows]


def _word(table: GeneratorTable, coeff, names: Sequence[str]) -> GradedPolynomial:
    """coeff times the product of the named generators, in that order."""
    out = GradedPolynomial.from_scalar(table, coeff)
    for n in names:
        out = multiply(out, GradedPolynomial.generator(table, n))
    return out


def _exact(res: TateResolution, S: GradedPolynomial, what: str,
           defect=None) -> MasterSolution:
    """Close an exact construction: check [S, S] = 0 and certify order 8.

    A nonzero [S, S] raises ValueError(defect(residual)) if the caller
    can name what in its data the residual reveals, else AssertionError,
    since the data passed their checks.  [S, S] = 0 holds to every order,
    but a MasterSolution carries one number: 8 stands in for every order,
    so a caller that needs order p (e2_page, gauge_relate) accepts an
    exact solution for every p <= 8.  The number is written into the
    solution JSON.
    """
    r = master_residual(res, S)
    if not r.is_zero():
        if defect is not None:
            raise ValueError(defect(r))
        raise AssertionError(f"{what}: [S, S] does not vanish")
    return MasterSolution(res, S, 8, [what])


def _symmetry_solution(s0: BasePolynomial, fields: Sequence[Sequence]):
    """The resolution of s0 with one pair (bs_i, b_i) per vector field,
    delta(bs_i) the antifield lift of field i, and S0 + sum_i
    delta(bs_i) * b_i on it.  Returns (resolution, S)."""
    coords = s0.vars
    pairs = tuple((f"bs{i + 1}", -2, f"b{i + 1}") for i in range(len(fields)))
    table = GeneratorTable(coords, pairs)
    gens = [TateGenerator(name, -2, antifield_lift(table, field))
            for (name, _deg, _ghost), field in zip(pairs, fields)]
    res = TateResolution(table, [s0.derivative(c) for c in coords], gens, 0,
                         s0=s0)
    return res, s_lin(res)


def _direct_sum(a: TateResolution, b: TateResolution) -> TateResolution:
    """The resolution of the sum of two actions on disjoint coordinates:
    a's coordinates and generators, then b's."""
    ta, tb = a.table, b.table
    clash = ((set(ta.names) | set(ta.coordinates))
             & (set(tb.names) | set(tb.coordinates)))
    if clash:
        raise ValueError(f"name clash: {sorted(clash)}")
    if (a.s0 is None) != (b.s0 is None):
        raise ValueError("cannot combine a multivalued solution with a "
                         "standard one")
    if a.order != b.order:
        raise ValueError(f"cannot combine the monomial orders {a.order!r} "
                         f"and {b.order!r}")
    coords = ta.coordinates + tb.coordinates
    s0 = None if a.s0 is None else a.s0.extend(coords) + b.s0.extend(coords)
    return TateResolution(GeneratorTable(coords, ta.pairs + tb.pairs),
                          [p.extend(coords) for p in a.partials + b.partials],
                          a.generators + b.generators, min(a.depth, b.depth),
                          s0=s0, order=a.order)


def trivial_solution(W: Sequence[tuple], d_W: dict) -> MasterSolution:
    """The solution attached to an acyclic complex of vector spaces.

    ``W`` lists (degree, dimension) pairs of ints, all degrees <= -1; ``d_W``
    maps a degree d to the matrix of the degree-raising differential
    W_d -> W_(d+1), with rows indexed by the target basis and entries
    ints, Fractions or numeric text; a degree whose target is zero has
    no matrix.  Degree -1 basis vectors become duals of fresh
    coordinates; deeper ones become antifield-ghost pairs, each
    antifield bounding its column of d_W, and S is the associated
    solution over zero partials.  TateResolution checks that the
    differential squares to zero, then rank counts check exactness.
    """
    dims: dict = {}
    for deg, dim in W:
        if not (isinstance(deg, int) and isinstance(dim, int)):
            raise ValueError(f"degrees and dimensions must be integers, got {(deg, dim)!r}")
        if deg > -1:
            raise ValueError("all degrees must be <= -1")
        if deg in dims:
            raise ValueError(f"duplicate degree {deg}")
        if dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if dim:
            dims[deg] = dim
    coords = tuple(f"w{i + 1}" for i in range(dims.get(-1, 0)))
    names = {-1: [dual_name(c) for c in coords]}
    images, ranks = [], {}
    for deg in sorted(dims, reverse=True):
        if deg == -1:
            continue
        target = names.get(deg + 1, [])
        mat = _matrix(d_W.get(deg, []), len(target), dims[deg],
                      f"d_W[{deg}]", _number) if target else []
        ranks[deg] = len(_echelon(map(enumerate, mat)))
        names[deg] = [f"cs{len(images) + j + 1}" for j in range(dims[deg])]
        images += [(name, deg, [(row[j], t) for row, t in zip(mat, target)
                                if row[j]])
                   for j, name in enumerate(names[deg])]
    table = GeneratorTable(coords, tuple((name, deg, partner_name(name))
                                         for name, deg, _ in images))
    gens = [TateGenerator(name, deg, sum((_word(table, c, [t]) for c, t in image),
                                         GradedPolynomial.zero(table)))
            for name, deg, image in images]
    zero = BasePolynomial.zero(coords)
    res = TateResolution(table, [zero] * len(coords), gens,
                         max((-d - 1 for d in dims), default=0), s0=zero)
    # exactness: at each degree, incoming plus outgoing rank exhaust it
    for deg in sorted(dims):
        if ranks.get(deg - 1, 0) + ranks.get(deg, 0) != dims[deg]:
            raise ValueError(f"complex is not acyclic at degree {deg}")
    return _exact(res, s_lin(res), f"trivial solution on a complex of total "
                                   f"dimension {sum(dims.values())}")


def product_solution(a: MasterSolution, b: MasterSolution) -> MasterSolution:
    """Disjoint union of two solutions; the residuals simply add."""
    res = _direct_sum(a.resolution, b.resolution)
    table = res.table
    S = transport(a.S, table) + transport(b.S, table)
    expected = (transport(master_residual(a.resolution, a.S), table)
                + transport(master_residual(b.resolution, b.S), table))
    if master_residual(res, S) != expected:
        raise AssertionError("product residual is not additive")
    order = min(a.order, b.order)
    return MasterSolution(res, S, order,
                          ["product of two solutions", f"order {order}"])


def add_square(sol: MasterSolution, c) -> MasterSolution:
    """Append a fresh coordinate t and the quadratic term c*t^2, with c
    an int, a Fraction or numeric text."""
    c = _number(c)
    if c == 0:
        raise ValueError("coefficient must be nonzero")
    res = sol.resolution
    used = set(res.table.names) | set(res.table.coordinates)
    tname = "t"
    n = 1
    while tname in used or dual_name(tname) in used:
        n += 1
        tname = f"t{n}"
    sq = BasePolynomial.parse(f"{c}*{tname}^2", (tname,))
    # the square resolves itself: one coordinate, no generators
    square = TateResolution(GeneratorTable((tname,)), [sq.derivative(tname)],
                            (), res.depth, s0=None if res.s0 is None else sq,
                            order=res.order)
    res2 = _direct_sum(res, square)
    S = transport(sol.S, res2.table)
    if res2.s0 is not None:
        S = S + GradedPolynomial.from_scalar(res2.table, sq.extend(res2.coordinates))
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
    if coords is None and not isinstance(s0, BasePolynomial):
        raise ValueError("coords are required when s0 is not a polynomial")
    coords = tuple(coords) if coords is not None else s0.vars
    s0 = _poly(s0, coords)
    nsym = len(action)

    def poly(x):
        return _poly(x, coords)

    fields = _matrix(action, nsym, len(coords), "action", poly)
    if structure is None:
        structure = [[[0] * nsym] * nsym] * nsym
    cmat = _matrix(structure, nsym, nsym, "structure",
                   lambda c: _matrix([c], 1, nsym, "structure[i][j]", poly)[0])
    for i, j, l in product(range(nsym), repeat=3):
        if not (cmat[i][j][l] + cmat[j][i][l]).is_zero():
            raise ValueError("structure constants must be antisymmetric")
    partials = [s0.derivative(c) for c in coords]
    for i, field in enumerate(fields):
        val = _combination(partials, field) if field else BasePolynomial.zero(coords)
        if not val.is_zero():
            raise ValueError(
                f"invariance failure: field {i + 1} applied to the action "
                f"gives {poly_to_str(val)}")
    res, S = _symmetry_solution(s0, fields)
    for i, j, l in product(range(nsym), repeat=3):
        if not cmat[i][j][l].is_zero():
            S = S + _word(res.table, cmat[i][j][l] * Fraction(-1, 2),
                          (f"bs{l + 1}", f"b{i + 1}", f"b{j + 1}"))

    def defect(r):
        t = res.table
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
        return "gauge data are inconsistent: " + "; ".join(parts)

    return _exact(res, S, f"group action with {nsym} symmetries", defect)


def _product(x: list, y: list) -> list:
    """The matrix product x y of polynomial matrices given by rows."""
    columns = list(zip(*y))
    return [[_combination(row, col) for col in columns] for row in x]


def bundle_solution(g, A, F) -> MasterSolution:
    """Exact solution for a pairing on a trivial bundle with connection.

    ``g[i][j]`` is the pairing (symmetric), ``A[mu][i][j]`` the connection
    coefficient of dy^mu acting on the fiber, ``F[mu][nu][i][j]`` the
    curvature-like coefficient (antisymmetric in both index pairs);
    entries are polynomials in the base coordinates y1..ym, and an entry
    in the fiber coordinates v1..vr is refused.  Three equations of r x r
    matrices are required, with d_mu the derivative along y_mu:

      (a)  d_mu g - P - P^T = 0,  P = A_mu^T g
      (b)  d_mu A_nu - d_nu A_mu + A_mu A_nu - A_nu A_mu - F_mu,nu g = 0
      (c)  the cyclic sum over (mu, nu, rho) of
             d_mu F_nu,rho + Q - Q^T = 0,  Q = A_mu F_nu,rho

    A violated identity is reported by its letter, its base indices and
    its first nonzero entry (i, j) in row order.  The result satisfies
    the master equation exactly.
    """
    r = len(g)
    m = len(A)
    base = tuple(f"y{k + 1}" for k in range(m))
    fiber = tuple(f"v{k + 1}" for k in range(r))
    coords = base + fiber

    def poly(x):
        p = _poly(x, coords)
        for k, v in enumerate(fiber):
            if any(e[m + k] for e in p.terms):
                raise ValueError(f"entry {poly_to_str(p)} involves the fiber coordinate "
                                 f"{v}; entries are polynomials in the base coordinates")
        return p

    gmat = _matrix(g, r, r, "g", poly)
    amat = [_matrix(a, r, r, f"A[{mu}]", poly) for mu, a in enumerate(A)]
    fmat = _matrix(F, m, m, "F", lambda f: _matrix(f, r, r, "F[mu][nu]", poly))
    zero = BasePolynomial.zero(coords)
    if any(gmat[i][j] != gmat[j][i] for i, j in combinations(range(r), 2)):
        raise ValueError("g must be symmetric")
    for mu, nu, i, j in product(range(m), range(m), range(r), range(r)):
        if fmat[mu][nu][i][j] + fmat[nu][mu][i][j] != zero:
            raise ValueError("F must be antisymmetric in the base indices")
        if fmat[mu][nu][i][j] + fmat[mu][nu][j][i] != zero:
            raise ValueError("F must be antisymmetric in the fiber indices")

    def require(name, at, lhs, shown=True):
        # the identity holds where every entry lhs(i, j) vanishes
        for i, j in product(range(r), repeat=2):
            value = lhs(i, j)
            if not value.is_zero():
                raise ValueError(
                    f'identity "({name})" fails at {at}, i={i + 1}, j={j + 1}'
                    + (f": {poly_to_str(value)}" if shown else ""))

    for mu, a in enumerate(amat):
        p = _product(list(zip(*a)), gmat)
        require("a", f"mu={mu + 1}", lambda i, j: (
            gmat[i][j].derivative(base[mu]) - p[i][j] - p[j][i]))
    for mu, nu in combinations(range(m), 2):
        ab, ba = _product(amat[mu], amat[nu]), _product(amat[nu], amat[mu])
        fg = _product(fmat[mu][nu], gmat)
        require("b", f"mu={mu + 1}, nu={nu + 1}", lambda i, j: (
            amat[nu][i][j].derivative(base[mu])
            - amat[mu][i][j].derivative(base[nu])
            + ab[i][j] - ba[i][j] - fg[i][j]))
    for mu, nu, rho in combinations(range(m), 3):
        cycle = [(base[a], fmat[b][c], _product(amat[a], fmat[b][c]))
                 for a, b, c in ((mu, nu, rho), (nu, rho, mu), (rho, mu, nu))]
        require("c", f"mu={mu + 1}, nu={nu + 1}, rho={rho + 1}", lambda i, j: sum(
            (f[i][j].derivative(y) + q[i][j] - q[j][i] for y, f, q in cycle),
            zero), shown=False)
    fvars = [BasePolynomial.var(coords, v) for v in fiber]
    s0 = zero
    for i in range(r):
        for j in range(r):
            if not gmat[i][j].is_zero():
                s0 = s0 + gmat[i][j] * fvars[i] * fvars[j] * Fraction(1, 2)
    # one field d/dy_mu - sum_ij A^i_j,mu v_j d/dv_i per base direction
    fields = [[1 if nu == mu else 0 for nu in range(m)]
              + [-_combination(amat[mu][i], fvars) for i in range(r)]
              for mu in range(m)]
    res, S = _symmetry_solution(s0, fields)
    for mu, nu, i, j in product(range(m), range(m), range(r), range(r)):
        if not fmat[mu][nu][i][j].is_zero():
            S = S + _word(res.table, fmat[mu][nu][i][j] * Fraction(1, 4),
                          (f"b{mu + 1}", f"b{nu + 1}", dual_name(fiber[i]),
                           dual_name(fiber[j])))
    return _exact(res, S, f"bundle solution, rank {r} over dimension {m}")
