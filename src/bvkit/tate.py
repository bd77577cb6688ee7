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
    lift_membership,  # noqa: F401  (bound here: the perfbench self-tests read tate.lift_membership)
    poly_to_str,
    syzygy_basis,
)


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
        self.generators = tuple(generators)
        self.depth = depth
        self.s0 = s0
        self.order = order
        self._validate()

    def _validate(self) -> None:
        # delta must square to zero, raise degree by one, and send every
        # degree -2 generator to an O_X-combination of the duals
        delta = self.gr_delta()
        nc = self.table.ncoords
        for g in self.generators:
            gd = transport(g.delta, self.table)
            if not delta(gd).is_zero():
                raise AssertionError(
                    f"boundary fails to square to zero on {g.name!r}")
            for m in gd.terms:
                if self.table.ghost_of(m) != g.degree + 1:
                    raise AssertionError(
                        f"boundary of {g.name!r} is not homogeneous of "
                        f"degree {g.degree + 1}")
            if g.degree == -2:
                for m in gd.terms:
                    neg = [i for i, e in enumerate(m)
                           if e and self.table.degrees[i] < 0]
                    if (self.table.count_of(m) != 0 or len(neg) != 1
                            or neg[0] >= nc or m[neg[0]] != 1):
                        raise AssertionError(
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
        imgs = {}
        for c, p in zip(self.table.coordinates, self.partials):
            imgs[dual_name(c)] = GradedPolynomial.from_scalar(self.table, p)
        for g in self.generators:
            imgs[g.name] = transport(g.delta, self.table)
        return imgs

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
                 "delta": graded_to_str(transport(g.delta, self.table))}
                for g in self.generators
            ],
            "depth": self.depth,
        }
        if self.s0 is not None:
            obj["s0"] = poly_to_str(self.s0)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TateResolution":
        coords = tuple(obj["coords"])
        partials = [BasePolynomial.parse(s, coords) for s in obj["partials"]]
        pairs = tuple((g["name"], int(g["degree"]), partner_name(g["name"]))
                      for g in obj["generators"])
        table = GeneratorTable(coords, pairs)
        gens = [TateGenerator(g["name"], int(g["degree"]),
                              parse_graded(g["delta"], table))
                for g in obj["generators"]]
        s0 = None
        if "s0" in obj:
            s0 = BasePolynomial.parse(obj["s0"], coords)
        return cls(table, partials, gens, int(obj["depth"]), s0=s0)

    @classmethod
    def from_json(cls, text: str) -> "TateResolution":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self):
        return (f"TateResolution(coords={self.table.coordinates}, "
                f"generators={len(self.generators)}, depth={self.depth})")


# -- chain-level helpers ----------------------------------------------


def negative_monomials(table: GeneratorTable, d: int) -> list:
    """Ghost(-d) monomials in the negative generators, sorted."""
    if d < 0:
        return []
    negs = [(i, -table.degrees[i], table.parities[i])
            for i in range(len(table.names)) if table.degrees[i] < 0]
    width = len(table.names)
    out = []

    def rec(k: int, budget: int, acc: list) -> None:
        if budget == 0:
            m = [0] * width
            for i, e in acc:
                m[i] = e
            out.append(tuple(m))
            return
        if k == len(negs):
            return
        idx, size, parity = negs[k]
        top = 1 if parity else budget // size
        for e in range(top + 1):
            if e * size > budget:
                break
            if e:
                rec(k + 1, budget - e * size, acc + [(idx, e)])
            else:
                rec(k + 1, budget, acc)

    rec(0, d, [])
    return sorted(out)


def _vectorize(a: GradedPolynomial, basis: list, vars: tuple) -> ModuleVector:
    index = {m: i for i, m in enumerate(basis)}
    comps = [BasePolynomial.zero(vars) for _ in basis]
    for m, c in a.terms.items():
        if m not in index:
            raise ValueError("element does not lie in the chain span")
        comps[index[m]] = c
    return ModuleVector(comps)


def _devectorize(vec, basis: list, table: GeneratorTable) -> GradedPolynomial:
    terms = {}
    for c, m in zip(vec, basis):
        if not c.is_zero():
            terms[m] = c
    return GradedPolynomial(table, terms)


def _delta_columns(table: GeneratorTable, delta, monomials: list,
                   basis: list, vars: tuple) -> list:
    cols = []
    for m in monomials:
        img = delta(GradedPolynomial.monomial(table, m, 1))
        cols.append(_vectorize(img, basis, vars))
    return cols


# -- construction ------------------------------------------------------


def build_resolution(coords: Sequence[str], s0=None, partials=None,
                     depth: int = 1, order: str = ORDER_GREVLEX,
                     name_prefix: str = "bs") -> TateResolution:
    """Resolve the ideal of the partials, killing homology down to -depth.

    Pass either the action s0 (partials are its derivatives) or the
    partials directly.  Generators can reach degree -(depth + 1).
    """
    coords = tuple(coords)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if (s0 is None) == (partials is None):
        raise ValueError("provide exactly one of s0 and partials")
    if isinstance(s0, str):
        s0 = BasePolynomial.parse(s0, coords)
    if s0 is not None:
        partials = [s0.derivative(c) for c in coords]
    partials = [BasePolynomial.parse(p, coords) if isinstance(p, str) else p
                for p in partials]
    if len(partials) != len(coords):
        raise ValueError("one partial per coordinate required")
    for i, ci in enumerate(coords):
        for j in range(i + 1, len(coords)):
            left = partials[i].derivative(coords[j])
            right = partials[j].derivative(ci)
            if left != right:
                raise ValueError(
                    f"closedness violation: d({poly_to_str(partials[i])})/"
                    f"d{coords[j]} != d({poly_to_str(partials[j])})/d{ci}")

    pairs: list = []
    gens: list = []
    table = GeneratorTable(coords, ())
    counter = 0

    def images_for(tbl):
        imgs = {}
        for c, p in zip(coords, partials):
            imgs[dual_name(c)] = GradedPolynomial.from_scalar(tbl, p)
        for g in gens:
            imgs[g.name] = g.delta
        return imgs

    for d in range(1, depth + 1):
        delta = odd_derivation(table, images_for(table))
        lower = negative_monomials(table, d - 1)
        here = negative_monomials(table, d)
        above = negative_monomials(table, d + 1)
        if not here:
            continue
        cols = _delta_columns(table, delta, here, lower, coords)
        cycles = syzygy_basis(cols, order)
        boundary_cols = [c for c in _delta_columns(table, delta, above, here, coords)
                         if not c.is_zero()]
        # yes/no questions only, so the basis may grow one cycle at a time
        bounds = ModuleBasis(boundary_cols, order)
        accepted = []
        for z in cycles:
            if bounds.lift(z) is not None:
                continue
            accepted.append(z)
            bounds.add(z)
        if not accepted:
            continue
        new_records = []
        for z in accepted:
            counter += 1
            name = f"{name_prefix}{counter}"
            new_records.append((name, -(d + 1), _devectorize(z, here, table)))
            pairs.append((name, -(d + 1), partner_name(name)))
        table2 = GeneratorTable(coords, tuple(pairs))
        gens = [TateGenerator(g.name, g.degree, transport(g.delta, table2))
                for g in gens]
        for name, deg, old_delta in new_records:
            gens.append(TateGenerator(name, deg, transport(old_delta, table2)))
        table = table2

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
    """Independently recheck exactness in degrees -1 .. -through."""
    table = res.table
    vars = res.coordinates
    delta = res.gr_delta()
    entries = []
    for d in range(1, through + 1):
        lower = negative_monomials(table, d - 1)
        here = negative_monomials(table, d)
        above = negative_monomials(table, d + 1)
        if not here:
            entries.append((d, True, None))
            continue
        cols = _delta_columns(table, delta, here, lower, vars)
        cycles = syzygy_basis(cols, res.order)
        boundary_cols = [c for c in _delta_columns(table, delta, above, here, vars)
                         if not c.is_zero()]
        bounds = ModuleBasis(boundary_cols, res.order)
        bad = None
        for z in cycles:
            if bounds.lift(z) is None:
                bad = z
                break
        if bad is None:
            entries.append((d, True, None))
        else:
            entries.append((d, False, _devectorize(bad, here, table)))
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
        for c in self.source.coordinates:
            n = dual_name(c)
            x = GradedPolynomial.generator(self.source.table, n)
            if self.apply(sdelta(x)) != tdelta(self.apply(x)):
                return False
        for g in self.source.generators:
            if -g.degree > through:
                continue
            x = GradedPolynomial.generator(self.source.table, g.name)
            if self.apply(sdelta(x)) != tdelta(self.apply(x)):
                return False
        return True




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
    images = {}
    for c in source.coordinates:
        images[dual_name(c)] = GradedPolynomial.generator(
            target.table, dual_name(c))
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
    vars = src.coordinates
    morphism = ResolutionMorphism(src, dst, imap)
    ddelta = dst.gr_delta()
    basis = negative_monomials(dst.table, d - 1)
    chain_monos = negative_monomials(dst.table, d)
    cols = _delta_columns(dst.table, ddelta, chain_monos, basis, vars)
    keep = [(m, c) for m, c in zip(chain_monos, cols) if not c.is_zero()]
    lifts = ModuleBasis([c for _, c in keep], src.order)
    for g in layer:
        rhs = morphism.apply(transport(g.delta, src.table))
        if rhs.is_zero():
            imap[g.name] = GradedPolynomial.zero(dst.table)
            continue
        cert = lifts.lift(_vectorize(rhs, basis, vars))
        if cert is None:
            raise ValueError(
                f"no lift for generator {g.name!r} at degree {-d}; "
                f"target depth insufficient")
        img = GradedPolynomial.zero(dst.table)
        for coeff, (m, _c) in zip(cert.coefficients, keep):
            if not coeff.is_zero():
                img = img + GradedPolynomial.monomial(dst.table, m, coeff)
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
    gens = [TateGenerator(g.name, g.degree, transport(g.delta, table))
            for g in res.generators]
    for upper, lower in names:
        gens.append(TateGenerator(upper, -d, GradedPolynomial.zero(table)))
        gens.append(TateGenerator(
            lower, -d - 1, GradedPolynomial.generator(table, upper)))
    padded = TateResolution(table, res.partials, gens, res.depth,
                            s0=res.s0, order=res.order)
    return padded, names


def _identity_morphism(src: TateResolution,
                       dst: TateResolution) -> ResolutionMorphism:
    images = {}
    for c in src.coordinates:
        images[dual_name(c)] = GradedPolynomial.generator(
            dst.table, dual_name(c))
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
    if ja == jb:
        return (res_a, res_b, _identity_morphism(res_a, res_b),
                _identity_morphism(res_b, res_a))
    a, b = res_a, res_b
    fmap = {}
    gmap = {}
    for c in a.coordinates:
        fmap[dual_name(c)] = GradedPolynomial.generator(
            b.table, dual_name(c))
        gmap[dual_name(c)] = GradedPolynomial.generator(
            a.table, dual_name(c))
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
