"""Depth-bounded Koszul-Tate resolutions over polynomial coordinates.

A resolution stores the coordinate duals implicitly (delta sends xs_i to
the i-th partial) plus an ordered list of added generators, each an
antifield of degree <= -2 carrying its boundary.  Building to depth n
proceeds in stages: stage d computes the delta-cycles among ghost(-d)
chains by a syzygy computation, discards every cycle that already
bounds, and adjoins one degree-(-d-1) generator per survivor.  The
stored depth certifies exactness in degrees -1 down to -depth.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Sequence

from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    dual_name,
    graded_to_str,
    multiply,
    odd_derivation,
    parse_graded,
    transport,
)
from .polynomial_engine import (
    BasePolynomial,
    ModuleBasis,
    ModuleVector,
    ORDER_GREVLEX,
    ORDER_LEX,
    _mvec_to_vector,
    _poly,
    lift_membership,  # noqa: F401  (bound here: the perfbench self-tests read tate.lift_membership)
    poly_to_str,
    syzygy_basis,
)


_JSON_NOUNS = {dict: "object", list: "list", str: "string", int: "integer"}


def _json_fields(obj, where: str, **kinds) -> list:
    """The values of the named fields of the JSON object obj, each of its
    JSON type ((list, t): a list of t's), else ValueError naming it."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object")
    out = []
    for key, kind in kinds.items():
        if key not in obj:
            raise ValueError(f"{where} has no field {key!r}")
        kind, item = kind if isinstance(kind, tuple) else (kind, None)
        value = obj[key]
        if type(value) is not kind or item and any(type(v) is not item
                                                   for v in value):
            noun = f"list of {_JSON_NOUNS[item]}s" if item else _JSON_NOUNS[kind]
            raise ValueError(f"{where} field {key!r} must be a JSON {noun}")
        out.append(value)
    return out


class TateGenerator:
    """One added generator: antifield name, degree <= -2, boundary."""

    __slots__ = ("name", "degree", "delta")

    def __init__(self, name: str, degree: int, delta: GradedPolynomial):
        if degree > -2:
            raise ValueError("added generators sit in degree <= -2")
        self.name = name
        self.degree = degree
        self.delta = delta

    def __repr__(self):
        return f"TateGenerator({self.name!r}, {self.degree}, {graded_to_str(self.delta)!r})"


def partner_name(name: str) -> str:
    """Ghost partner naming: bs3 -> b3, ts2 -> t2, anything else + 'g'."""
    if len(name) >= 3 and name[1] == "s" and name[2:].isdigit():
        return name[0] + name[2:]
    return name + "g"


class TateResolution:
    __slots__ = ("table", "s0", "partials", "generators", "depth", "order")

    def __init__(self, table: GeneratorTable, partials: Sequence[BasePolynomial],
                 generators: Sequence[TateGenerator], depth: int,
                 s0: Optional[BasePolynomial] = None, order: str = ORDER_GREVLEX):
        self.table = table
        self.partials = tuple(partials)
        if len(self.partials) != len(table.coordinates):
            raise ValueError("one partial per coordinate required")
        # every boundary is held over this table, so no reader transports it
        self.generators = tuple(
            TateGenerator(g.name, g.degree, transport(g.delta, table))
            for g in generators)
        self.depth = depth
        self.s0 = s0
        if order not in (ORDER_GREVLEX, ORDER_LEX):
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self._validate()

    def _validate(self) -> None:
        """The one check of boundary data: delta must square to zero,
        raise degree by one, and send every degree -2 generator to an
        O_X-combination of the duals, else ValueError.

        Boundaries enter here from callers, from JSON and from the exact
        constructors, so a failure is bad input; the builder's boundaries
        are syzygies that syzygy_basis has already certified.
        """
        delta = self.gr_delta()
        nc = self.table.ncoords
        for g in self.generators:
            if not delta(g.delta).is_zero():
                raise ValueError(
                    f"boundary fails to square to zero on {g.name!r}")
            for m in g.delta.terms:
                if self.table.ghost_of(m) != g.degree + 1:
                    raise ValueError(
                        f"boundary of {g.name!r} is not homogeneous of "
                        f"degree {g.degree + 1}")
            if g.degree == -2:
                for m in g.delta.terms:
                    neg = [i for i, e in enumerate(m)
                           if e and self.table.degrees[i] < 0]
                    if (self.table.count_of(m) != 0 or len(neg) != 1
                            or neg[0] >= nc or m[neg[0]] != 1):
                        raise ValueError(
                            f"boundary of {g.name!r} must be linear in the duals")

    @property
    def coordinates(self) -> tuple:
        return self.table.coordinates

    def counts(self) -> dict:
        """Number of added generators per degree."""
        out: dict = {}
        for g in self.generators:
            out[g.degree] = out.get(g.degree, 0) + 1
        return out

    def delta_images(self) -> dict:
        return _delta_images(self.table, self.partials, self.generators)

    def gr_delta(self) -> Callable[[GradedPolynomial], GradedPolynomial]:
        """The Koszul-Tate boundary as an odd derivation (ghosts go to 0)."""
        return odd_derivation(self.table, self.delta_images())

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        obj = {
            "coords": list(self.table.coordinates),
            "partials": [poly_to_str(p) for p in self.partials],
            "generators": [
                {"name": g.name, "degree": g.degree,
                 "delta": graded_to_str(g.delta)}
                for g in self.generators
            ],
            "depth": self.depth,
        }
        if self.s0 is not None:
            obj["s0"] = poly_to_str(self.s0)
        if self.order != ORDER_GREVLEX:
            obj["order"] = self.order
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TateResolution":
        """The resolution written by to_json_obj; a missing or ill-typed
        field raises ValueError naming it."""
        coords, partials, generators, depth = _json_fields(
            obj, "resolution", coords=(list, str), partials=(list, str),
            generators=(list, dict), depth=int)
        coords = tuple(coords)
        gens = [_json_fields(g, f"generator {k + 1}", name=str, degree=int,
                             delta=str)
                for k, g in enumerate(generators)]
        table = GeneratorTable(coords, tuple((name, deg, partner_name(name))
                                             for name, deg, _ in gens))
        s0 = None
        if "s0" in obj:
            s0 = BasePolynomial.parse(*_json_fields(obj, "resolution", s0=str),
                                      coords)
        return cls(table, [BasePolynomial.parse(s, coords) for s in partials],
                   [TateGenerator(name, deg, parse_graded(delta, table))
                    for name, deg, delta in gens],
                   depth, s0=s0, order=obj.get("order", ORDER_GREVLEX))

    @classmethod
    def from_json(cls, text: str) -> "TateResolution":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self):
        return (f"TateResolution(coords={self.table.coordinates}, "
                f"generators={len(self.generators)}, depth={self.depth})")


# -- chain-level helpers ----------------------------------------------


def negative_monomials(table: GeneratorTable, d: int) -> list:
    """Ghost(-d) monomials in the negative generators, sorted.

    The same body lists the ghost monomials of degree d for brst."""
    return _graded_monomials(table, d, -1)


def _graded_monomials(table: GeneratorTable, d: int, sign: int) -> list:
    """Monomials of ghost degree sign * d in the generators whose degree
    has that sign (sign = -1: duals and antifields, 1: ghosts), ascending
    as the walk emits them; an odd generator appears at most once."""
    if d < 0:
        return []
    gens = [(i, sign * table.degrees[i], table.parities[i])
            for i in range(len(table.names)) if sign * table.degrees[i] > 0]
    # least[k]: the smallest degree among gens[k:], so a walk stops as soon
    # as its budget is positive and below it
    least = [min([g[1] for g in gens[k:]], default=d + 1) for k in range(len(gens) + 1)]
    out: list = []
    _graded_walk(gens, least, 0, d, [0] * len(table.names), out)
    return out


def _graded_walk(gens: list, least: list, k: int, budget: int, m: list, out: list) -> None:
    """Append to out each monomial that completes m with exponents of
    gens[k:] summing to budget in degree, depth first with each exponent
    ascending; m is restored before return.  A module-level function, so
    a call leaves no reference cycle, as a closure that calls itself
    would."""
    if budget == 0:
        out.append(tuple(m))
        return
    if budget < least[k]:
        return
    idx, size, parity = gens[k]
    for e in range(min(1 if parity else budget, budget // size) + 1):
        m[idx] = e
        _graded_walk(gens, least, k + 1, budget - e * size, m, out)
    m[idx] = 0


class _DeltaLayer:
    """delta from the ghost(-d-1) chains onto the ghost(-d) chains, as a
    map of free modules over the coordinate ring.

    ``here`` and ``above`` list the ghost(-d) and ghost(-d-1) chain
    monomials, and ``columns`` holds delta of each monomial of ``above``
    written over ``here``.  ``bounds`` is the ModuleBasis of the columns,
    built on first use, so a layer read only for its columns costs no
    Groebner basis; a zero column is never used in a reduction, so it
    takes coefficient 0 in every lift.  lift(a) returns a chain c with
    delta(c) = a, or None.  With record, ``bounds`` keeps the syzygies of
    the columns that its first build met, so the layer that gives the
    boundaries at degree d also gives the cycles at d + 1 (syzygies).
    """

    def __init__(self, table: GeneratorTable, delta, d: int, order: str,
                 record: bool = False):
        self.table = table
        self.order = order
        self.record = record
        self.here = negative_monomials(table, d)
        self.above = negative_monomials(table, d + 1)
        self._index = {m: i for i, m in enumerate(self.here)}
        self.columns = [self.vector(delta(GradedPolynomial.monomial(table, m, 1)))
                        for m in self.above]

    @cached_property
    def bounds(self) -> ModuleBasis:
        return ModuleBasis(self.columns, self.order, self.record)

    def vector(self, a: GradedPolynomial) -> ModuleVector:
        """a, a ghost(-d) chain, as its coefficient vector over ``here``;
        the empty components share one zero, as polynomials are
        immutable."""
        comps = [BasePolynomial.zero(self.table.coordinates)] * len(self.here)
        for m, c in a.terms.items():
            if m not in self._index:
                raise ValueError("element does not lie in the chain span")
            comps[self._index[m]] = c
        return ModuleVector(comps)

    def lift(self, a: GradedPolynomial) -> Optional[GradedPolynomial]:
        c = self.bounds.lift(self.vector(a))
        if c is None:
            return None
        return GradedPolynomial(self.table, dict(zip(self.above, c)))

    def chain(self, z: ModuleVector) -> GradedPolynomial:
        """z, a vector over ``here``, as a ghost(-d) chain."""
        return GradedPolynomial(self.table, dict(zip(self.here, z)))

    def unreached(self, cycles: Sequence[ModuleVector]) -> list:
        """The cycles, as chains, that neither the boundaries nor an earlier
        kept cycle reach; each kept cycle joins ``bounds``."""
        return [self.chain(z) for z in self.bounds.absorb(cycles)]

    def syzygies(self) -> list:
        """Generators of the kernel of ``columns``, the cycles among the
        ghost(-d-1) chains, as vectors over ``above``: what the first
        build of a recording ``bounds`` met (ModuleBasis.syzygies), which
        is released; [] without record."""
        return [_mvec_to_vector(v, len(self.above), self.table.coordinates, 1)
                for v in self.bounds.syzygies()]


def _delta_images(table: GeneratorTable, partials: Sequence[BasePolynomial],
                  generators: Sequence[TateGenerator]) -> dict:
    """delta on the generators: xs_i goes to the i-th partial and each
    added generator to its boundary, written over table.  A resolution's
    boundaries already are; the builder's carry the table of their stage."""
    imgs = {}
    for c, p in zip(table.coordinates, partials):
        imgs[dual_name(c)] = GradedPolynomial.from_scalar(table, p)
    for g in generators:
        imgs[g.name] = transport(g.delta, table)
    return imgs


# -- construction ------------------------------------------------------


def _open_pair(partials: Sequence[BasePolynomial], coords: Sequence[str]):
    """The first pair (i, j), i < j, with d p_i/dx_j != d p_j/dx_i, or None.

    The one-form sum p_i dx_i is closed exactly when there is none.
    """
    for i, j in combinations(range(len(coords)), 2):
        if partials[i].derivative(coords[j]) != partials[j].derivative(coords[i]):
            return i, j
    return None


def build_resolution(coords: Sequence[str], s0=None, partials=None,
                     depth: int = 1, order: str = ORDER_GREVLEX) -> TateResolution:
    """Resolve the ideal of the partials, killing homology down to -depth.

    Pass either the action s0 (partials are its derivatives) or the
    partials directly.  Generators can reach degree -(depth + 1).
    """
    coords = tuple(coords)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if (s0 is None) == (partials is None):
        raise ValueError("provide exactly one of s0 and partials")
    if s0 is not None:
        s0 = _poly(s0, coords)
        partials = [s0.derivative(c) for c in coords]
    else:
        partials = [_poly(p, coords) for p in partials]
    if len(partials) != len(coords):
        raise ValueError("one partial per coordinate required")
    bad = _open_pair(partials, coords)
    if bad is not None:
        i, j = bad
        raise ValueError(
            f"closedness violation: d({poly_to_str(partials[i])})/"
            f"d{coords[j]} != d({poly_to_str(partials[j])})/d{coords[i]}")

    pairs: list = []
    gens: list = []
    table = GeneratorTable(coords, ())
    counter = 0

    for d in range(1, depth + 1):
        delta = odd_derivation(table, _delta_images(table, partials, gens))
        into = _DeltaLayer(table, delta, d - 1, order)
        if not into.above:
            continue
        accepted = _DeltaLayer(table, delta, d, order).unreached(
            syzygy_basis(into.columns, order))
        if not accepted:
            continue
        for z in accepted:
            counter += 1
            name = f"bs{counter}"
            gens.append(TateGenerator(name, -(d + 1), z))
            pairs.append((name, -(d + 1), partner_name(name)))
        table = GeneratorTable(coords, tuple(pairs))

    return TateResolution(table, partials, gens, depth, s0=s0, order=order)


# -- verification ------------------------------------------------------


class AcyclicityReport:
    """Per-degree exactness verdicts with a witness for each failure."""

    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = list(entries)

    @property
    def ok(self) -> bool:
        return all(e[1] for e in self.entries)

    def witness(self, degree: int) -> Optional[GradedPolynomial]:
        for d, _ok, w in self.entries:
            if d == degree:
                return w
        return None

    def __repr__(self):
        body = ", ".join(f"-{d}:{'ok' if ok else 'FAIL'}"
                         for d, ok, _ in self.entries)
        return f"AcyclicityReport({body})"


def check_acyclic(res: TateResolution, through: int) -> AcyclicityReport:
    """Recheck exactness in degrees -1 .. -through on the stored boundaries.

    The cycles at degree d are the syzygies of layer d - 1's columns,
    read off the tracked basis of those columns that the check builds
    for the boundaries at degree d - 1 anyway (_DeltaLayer.syzygies):
    a unit vector per zero column, the combinations that reduced to zero
    in its first build, and the Koszul syzygies of the pairs the product
    criterion skipped (Schreyer).  So no second Groebner basis runs.
    These generate the cycle module, so degree d is exact exactly when
    the boundaries reach each of them.  Each is a certified membership
    query (ModuleBasis._certified, checked in ints by _certifies); the
    first cycle they do not reach is the witness, and the check of that
    degree stops there, adding nothing to the basis.  The builder's
    syzygy_basis reduces the same engine record, so the two share that
    record, and its completeness rests on the tests, which hold it to an
    elimination on the graph vectors.
    through < 1 raises ValueError.
    """
    if through < 1:
        raise ValueError("through must be >= 1")
    delta = res.gr_delta()
    entries = []
    layer = _DeltaLayer(res.table, delta, 0, res.order, record=True)
    for d in range(1, through + 1):
        # each layer is read twice: for its boundaries at d - 1, then as
        # the map whose syzygies are the cycles at d; it is dropped before
        # the next layer builds its basis, and the last layer records
        # nothing, since its syzygies would be cycles past the window
        cycles = layer.syzygies()
        layer = _DeltaLayer(res.table, delta, d, res.order, record=d < through)
        missed = next((z for z in cycles if layer.bounds._certified(z) is None), None)
        entries.append((d, missed is None, None if missed is None else layer.chain(missed)))
    return AcyclicityReport(entries)


# -- morphisms and stabilization ---------------------------------------


class ResolutionMorphism:
    """Chain map between resolutions, the identity on coordinates."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: TateResolution, target: TateResolution,
                 images: dict):
        self.source = source
        self.target = target
        self.images = dict(images)

    def apply(self, a: GradedPolynomial) -> GradedPolynomial:
        ttable = self.target.table
        stable = self.source.table
        out = GradedPolynomial.zero(ttable)
        for m, c in a.terms.items():
            acc = GradedPolynomial.from_scalar(ttable, c)
            for i, e in enumerate(m):
                if not e:
                    continue
                name = stable.names[i]
                img = self.images.get(name)
                if img is None:
                    raise ValueError(f"no image for generator {name!r}")
                for _ in range(e):
                    acc = multiply(acc, img)
            out = out + acc
        return out

    def is_chain_map(self, through: int) -> bool:
        sdelta = self.source.gr_delta()
        tdelta = self.target.gr_delta()
        names = [dual_name(c) for c in self.source.coordinates]
        names += [g.name for g in self.source.generators if -g.degree <= through]
        for n in names:
            x = GradedPolynomial.generator(self.source.table, n)
            if self.apply(sdelta(x)) != tdelta(self.apply(x)):
                return False
        return True


def _duals_to_duals(src: TateResolution, dst: TateResolution) -> dict:
    """The start of every chain map: each coordinate dual goes to itself."""
    return {n: GradedPolynomial.generator(dst.table, n)
            for n in map(dual_name, src.coordinates)}


def extend_morphism(source: TateResolution, target: TateResolution,
                    through: Optional[int] = None) -> ResolutionMorphism:
    """Lift the identity of the base to a chain map, degree by degree.

    Requires both resolutions to present the same partials.  Each
    generator image solves delta(image) = f(delta(gen)) inside the
    target; a missing solution means the target is not exact deep
    enough and raises ValueError.
    """
    if source.coordinates != target.coordinates:
        raise ValueError("coordinate mismatch")
    if tuple(source.partials) != tuple(target.partials):
        raise ValueError("resolutions present different partials")
    if through is None:
        through = max((-g.degree for g in source.generators), default=1)
    images = _duals_to_duals(source, target)
    for d in range(2, through + 1):
        _extend_layer(source, target, images, d)
    return ResolutionMorphism(source, target, images)


def _extend_layer(src: TateResolution, dst: TateResolution,
                  imap: dict, d: int) -> None:
    """Solve images for the degree-(-d) source generators missing one."""
    layer = [g for g in src.generators
             if g.degree == -d and g.name not in imap]
    if not layer:
        return
    morphism = ResolutionMorphism(src, dst, imap)
    lifts = _DeltaLayer(dst.table, dst.gr_delta(), d - 1, src.order)
    for g in layer:
        img = lifts.lift(morphism.apply(g.delta))
        if img is None:
            raise ValueError(
                f"no lift for generator {g.name!r} at degree {-d}; "
                f"target depth insufficient")
        imap[g.name] = img


def _pad_layer(res: TateResolution, d: int, count: int, prefix: str,
               start: int):
    """Adjoin count contractible pairs: uppers at -d with zero boundary,
    lowers at -d-1 mapping onto them.  Returns the padded resolution and
    the (upper, lower) name list."""
    if count == 0:
        return res, []
    pairs = [(g.name, g.degree, partner_name(g.name)) for g in res.generators]
    names = []
    for j in range(count):
        k = start + j
        upper = f"{prefix}{2 * k + 1}"
        lower = f"{prefix}{2 * k + 2}"
        pairs.append((upper, -d, partner_name(upper)))
        pairs.append((lower, -d - 1, partner_name(lower)))
        names.append((upper, lower))
    table = GeneratorTable(res.coordinates, tuple(pairs))
    gens = list(res.generators)
    for upper, lower in names:
        gens.append(TateGenerator(upper, -d, GradedPolynomial.zero(table)))
        gens.append(TateGenerator(
            lower, -d - 1, GradedPolynomial.generator(table, upper)))
    padded = TateResolution(table, res.partials, gens, res.depth,
                            s0=res.s0, order=res.order)
    return padded, names


def _identity_morphism(src: TateResolution,
                       dst: TateResolution) -> ResolutionMorphism:
    images = _duals_to_duals(src, dst)
    for g in src.generators:
        images[g.name] = GradedPolynomial.generator(dst.table, g.name)
    return ResolutionMorphism(src, dst, images)


def stabilize(res_a: TateResolution, res_b: TateResolution, through: int):
    """Make two resolutions of the same action isomorphic in a window.

    Both sides receive mirror pads: at each degree -d down to -through,
    every generator of one resolution buys a contractible pair on the
    other side, and the maps are corrected so both composites restrict
    to the identity in degrees >= -through.  Identical presentations
    skip the padding and return identity maps.  Returns (padded_a,
    padded_b, f, g) after verifying the composites and the chain-map
    property; verification failure raises AssertionError.
    """
    if res_a.coordinates != res_b.coordinates:
        raise ValueError("coordinate mismatch")
    if tuple(res_a.partials) != tuple(res_b.partials):
        raise ValueError("resolutions present different partials")
    if through < 2:
        raise ValueError("stabilization window must reach degree -2")
    ja, jb = res_a.to_json_obj(), res_b.to_json_obj()
    for j in (ja, jb):
        j.pop("depth", None)
        j.pop("s0", None)
        j.pop("order", None)
    if ja == jb:
        return (res_a, res_b, _identity_morphism(res_a, res_b),
                _identity_morphism(res_b, res_a))
    a, b = res_a, res_b
    fmap = _duals_to_duals(a, b)
    gmap = _duals_to_duals(b, a)
    tpad = upad = 0
    for d in range(2, through + 1):
        _extend_layer(a, b, fmap, d)
        _extend_layer(b, a, gmap, d)
        tlist = [g.name for g in a.generators if g.degree == -d]
        slist = [g.name for g in b.generators if g.degree == -d]
        a, ts_names = _pad_layer(a, d, len(slist), "ts", tpad)
        tpad += len(slist)
        b, us_names = _pad_layer(b, d, len(tlist), "us", upad)
        upad += len(tlist)
        fmap = {k: transport(v, b.table) for k, v in fmap.items()}
        gmap = {k: transport(v, a.table) for k, v in gmap.items()}
        fpre = dict(fmap)
        gpre = dict(gmap)
        # each old generator picks up its mirror pad ...
        for t, (upper, _lower) in zip(tlist, us_names):
            fmap[t] = fmap[t] + GradedPolynomial.generator(b.table, upper)
        for s, (upper, _lower) in zip(slist, ts_names):
            gmap[s] = gmap[s] + GradedPolynomial.generator(a.table, upper)
        fwd = ResolutionMorphism(a, b, fmap)
        back = ResolutionMorphism(b, a, gmap)
        # ... and each pad upper maps to the mismatch it cancels
        for s, (upper, _lower) in zip(slist, ts_names):
            fmap[upper] = (GradedPolynomial.generator(b.table, s)
                           - fwd.apply(gpre[s]))
        for t, (upper, _lower) in zip(tlist, us_names):
            gmap[upper] = (GradedPolynomial.generator(a.table, t)
                           - back.apply(fpre[t]))
    f = ResolutionMorphism(a, b, fmap)
    g = ResolutionMorphism(b, a, gmap)
    for res, fwd, back in ((a, f, g), (b, g, f)):
        for gen in res.generators:
            if -gen.degree > through:
                continue
            x = GradedPolynomial.generator(res.table, gen.name)
            if back.apply(fwd.apply(x)) != x:
                raise AssertionError(
                    "stabilization composite is not the identity "
                    f"on {gen.name!r}")
    if not f.is_chain_map(through) or not g.is_chain_map(through):
        raise AssertionError("stabilization maps fail to commute with delta")
    return a, b, f, g
