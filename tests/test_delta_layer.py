"""The one Koszul-Tate layer routine (tate._DeltaLayer) against the bodies
it replaced: the builder's and check_acyclic's stage loops,
_extend_layer's lift and _solve_layer's lift.  Each reference writes
delta on the chains as a module map by hand; outputs must agree term for
term and in dict order."""

import copy
import gc
import weakref
from fractions import Fraction

import pytest

from bvkit import bv_solver, tate
from bvkit.antibracket import exp_ad
from bvkit.bv_solver import MasterSolution, gauge_relate, solve_master
from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _add_into,
    dual_name,
    multiply,
    odd_derivation,
    transport,
)
from bvkit.polynomial_engine import (
    BasePolynomial,
    ModuleBasis,
    ModuleVector,
    _combination,
    syzygy_basis,
)
from bvkit.tate import (
    ResolutionMorphism,
    TateGenerator,
    TateResolution,
    _graded_monomials,
    _pad_layer,
    build_resolution,
    check_acyclic,
    extend_morphism,
    negative_monomials,
    partner_name,
    stabilize,
)
from reference_syzygies import graph_syzygy_basis


# -- the replaced bodies ----------------------------------------------


def _vectorize(a, basis, vars):
    index = {m: i for i, m in enumerate(basis)}
    comps = [BasePolynomial.zero(vars) for _ in basis]
    for m, c in a.terms.items():
        if m not in index:
            raise ValueError("element does not lie in the chain span")
        comps[index[m]] = c
    return ModuleVector(comps)


def _devectorize(vec, basis, table):
    terms = {}
    for c, m in zip(vec, basis):
        if not c.is_zero():
            terms[m] = c
    return GradedPolynomial(table, terms)


def _delta_columns(table, delta, monomials, basis, vars):
    cols = []
    for m in monomials:
        img = delta(GradedPolynomial.monomial(table, m, 1))
        cols.append(_vectorize(img, basis, vars))
    return cols


def _reference_build(coords, s0, depth, order):
    """build_resolution's stage loop with its own delta images."""
    coords = tuple(coords)
    s0 = BasePolynomial.parse(s0, coords)
    partials = [s0.derivative(c) for c in coords]
    pairs, gens = [], []
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
            name = f"bs{counter}"
            new_records.append((name, -(d + 1), _devectorize(z, here, table)))
            pairs.append((name, -(d + 1), partner_name(name)))
        table2 = GeneratorTable(coords, tuple(pairs))
        gens = [TateGenerator(g.name, g.degree, transport(g.delta, table2))
                for g in gens]
        for name, deg, old_delta in new_records:
            gens.append(TateGenerator(name, deg, transport(old_delta, table2)))
        table = table2
    return TateResolution(table, partials, gens, depth, s0=s0, order=order)


def _reference_check_acyclic(res, through):
    """check_acyclic's stage loop: entries (degree, ok, witness)."""
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
    return entries


def _reference_bounds(res, d):
    """The reference stage loop's boundary basis at degree d, and the
    ghost(-d) chain monomials it is written over."""
    table, vars, delta = res.table, res.coordinates, res.gr_delta()
    here = negative_monomials(table, d)
    above = negative_monomials(table, d + 1)
    cols = [c for c in _delta_columns(table, delta, above, here, vars) if not c.is_zero()]
    return ModuleBasis(cols, res.order), here


def _reference_unreached(layer, cycles):
    """_DeltaLayer.unreached's loop before ModuleBasis.absorb."""
    kept = []
    for z in cycles:
        if layer.bounds.lift(z) is None:
            kept.append(GradedPolynomial(layer.table, dict(zip(layer.here, z))))
            layer.bounds.add(z)
    return kept


def _reference_extend_layer(src, dst, imap, d):
    """_extend_layer's lift: columns, basis and certificate by hand."""
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
        coeffs = lifts.lift(_vectorize(rhs, basis, vars))
        if coeffs is None:
            raise ValueError(
                f"no lift for generator {g.name!r} at degree {-d}; "
                f"target depth insufficient")
        img = GradedPolynomial.zero(dst.table)
        for coeff, (m, _c) in zip(coeffs, keep):
            if not coeff.is_zero():
                img = img + GradedPolynomial.monomial(dst.table, m, coeff)
        imap[g.name] = img


def _reference_solve_layer(res, blocks, p, cache):
    """_solve_layer's lift, over every column including the zero ones."""
    t = res.table
    if p not in cache:
        basis = negative_monomials(t, p)
        chains = negative_monomials(t, p + 1)
        delta = res.gr_delta()
        cols = _delta_columns(t, delta, chains, basis, t.coordinates)
        cache[p] = (basis, chains, ModuleBasis(cols, res.order))
    basis, chains, lifts = cache[p]
    out = {}
    for pos in sorted(blocks):
        rhs = GradedPolynomial(t, dict(blocks[pos]))
        vec = _vectorize(rhs, basis, t.coordinates)
        coeffs = lifts.lift(vec)
        if coeffs is None:
            raise RuntimeError(
                f"no lift for an obstruction block at weight {p + 1}; "
                "resolution depth insufficient")
        vbar = GradedPolynomial(
            t, {m: c for m, c in zip(chains, coeffs) if not c.is_zero()})
        term = multiply(vbar, GradedPolynomial.monomial(t, pos, 1))
        _add_into(out, term.terms.items())
    return GradedPolynomial(t, out)


# -- the comparisons --------------------------------------------------

# (coordinates, action, depth, p_max)
ACTIONS = {
    "circle-xy": (("x", "y"), "(x^2+y^2-1)^2/4", 5, 4),
    "circle-yx": (("y", "x"), "(x^2+y^2-1)^2/4", 5, 4),
    "x2y2": (("x", "y"), "x^2*y^2", 4, 3),
    "x2+y2-in-xyz": (("x", "y", "z"), "x^2 + y^2", 3, 2),
    "cubic": (("x",), "x^3/3 - x", 3, 2),
    "sphere": (("x", "y", "z"), "(x^2+y^2+z^2-1)^2/4", 3, 2),
}
CASES = [(name, order) for name in ACTIONS for order in ("grevlex", "lex")]
IDS = [f"{name}-{order}" for name, order in CASES]


def terms(a):
    return list(a.terms.items())


def images(m):
    return [(k, terms(v)) for k, v in m.images.items()]


def without_last_generator(res):
    # the dropped generator's boundary comes back as an unreached cycle
    last = res.generators[-1]
    table = GeneratorTable(res.coordinates,
                           tuple(pr for pr in res.table.pairs if pr[0] != last.name))
    kept = [TateGenerator(g.name, g.degree, transport(g.delta, table))
            for g in res.generators[:-1]]
    return TateResolution(table, res.partials, kept, res.depth, order=res.order)


def gauge_partner(sol, p_max):
    """sol moved by exp(ad u) for a ghost(-1) u with two ghosts per term."""
    t = sol.resolution.table
    u = {}
    for w in range(2, p_max + 1):
        for pos in _graded_monomials(t, w, 1):
            negs = negative_monomials(t, w + 1)
            if t.count_of(pos) == 2 and negs and len(u) < 3:
                m = tuple(x + y for x, y in zip(pos, negs[0]))
                u[m] = BasePolynomial.const(t.coordinates, Fraction(1, len(u) + 2))
    u = GradedPolynomial(t, u)
    return None if u.is_zero() else MasterSolution(
        sol.resolution, exp_ad(u, sol.S, 8), p_max)


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    name, order = request.param
    coords, s0, depth, p_max = ACTIONS[name]
    return coords, s0, depth, p_max, order


def assert_same_verdicts(res, through):
    # the verdict per degree is the reference's; the witness of a failing
    # degree is a delta-cycle that the reference boundaries do not reach
    # (check_acyclic reads its cycles off other generators than the
    # reference's syzygy_basis, so the two witnesses may differ)
    rep = check_acyclic(res, through)
    want = _reference_check_acyclic(res, through)
    assert [(d, ok) for d, ok, _w in rep.entries] == [(d, ok) for d, ok, _w in want]
    delta = res.gr_delta()
    for d, ok, w in rep.entries:
        if ok:
            assert w is None
            continue
        assert not w.is_zero() and delta(w).is_zero()
        bounds, here = _reference_bounds(res, d)
        assert bounds.lift(_vectorize(w, here, res.coordinates)) is None
    return rep


def test_builder_and_acyclicity_match_the_stage_loops(case):
    coords, s0, depth, _p, order = case
    res = build_resolution(coords, s0=s0, depth=depth, order=order)
    assert res.to_json() == _reference_build(coords, s0, depth, order).to_json()
    assert assert_same_verdicts(res, depth).ok
    if res.generators:
        assert not assert_same_verdicts(without_last_generator(res), depth).ok


def test_recorded_cycles_span_the_syzygy_basis_per_layer(case):
    # the cycles check_acyclic reads off each layer's boundary basis are
    # cycles, and they generate every cycle that elimination on the graph
    # vectors finds there; syzygy_basis, which reduces the same record,
    # is that elimination's basis exactly
    coords, s0, depth, _p, order = case
    res = build_resolution(coords, s0=s0, depth=depth, order=order)
    delta = res.gr_delta()
    for d in range(depth):
        layer = tate._DeltaLayer(res.table, delta, d, order, record=True)
        if not layer.above:
            continue
        cycles = layer.syzygies()
        for z in cycles:
            assert not z.is_zero() and _combination(z, layer.columns).is_zero()
        want = graph_syzygy_basis(layer.columns, order)
        assert syzygy_basis(layer.columns, order) == want
        span = ModuleBasis(cycles, order)
        assert all(span.lift(z) is not None for z in want)


def test_chain_maps_match_the_extension_lift(case, monkeypatch):
    coords, s0, depth, _p, order = case
    res = build_resolution(coords, s0=s0, depth=depth, order=order)
    other = build_resolution(coords, s0=s0, depth=depth,
                             order="lex" if order == "grevlex" else "grevlex")
    padded, _names = _pad_layer(res, 2, 1, "ws", 0)
    through = min(depth, 4)

    def run():
        out = [images(extend_morphism(res, target, through))
               for target in (res, padded, other)]
        for target in (padded, other):
            a, b, f, g = stabilize(res, target, through)
            out.append((a.to_json(), b.to_json(), images(f), images(g)))
        return out

    got = run()
    monkeypatch.setattr(tate, "_extend_layer", _reference_extend_layer)
    assert got == run()


def test_solutions_and_gauge_words_match_the_solver_lift(case, monkeypatch):
    coords, s0, depth, p_max, order = case
    res = build_resolution(coords, s0=s0, depth=depth, order=order)

    def run():
        sol = solve_master(res, p_max)
        partner = gauge_partner(sol, p_max)
        word = [] if partner is None else gauge_relate(sol, partner, p_max).elements
        return terms(sol.S), sol.log, [terms(u) for u in word]

    got = run()
    monkeypatch.setattr(bv_solver, "_solve_layer", _reference_solve_layer)
    assert got == run()


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("s0", ["(x^2+y^2-1)^2/4", "x^2*y^2"])
def test_unreached_matches_the_reference_loop(s0, order, monkeypatch):
    # every cycle list the builder hands to unreached, at depth 5, is also
    # run through the reference on a twin layer whose bounds are built
    # afresh; check_acyclic asks membership only and calls no unreached
    real = tate._DeltaLayer.unreached
    counts = []

    def spy(layer, cycles):
        twin = copy.copy(layer)
        twin.__dict__.pop("bounds", None)
        want = _reference_unreached(twin, cycles)
        got = real(layer, cycles)
        assert [terms(a) for a in got] == [terms(a) for a in want]
        counts.append((len(cycles), len(got)))
        return got

    monkeypatch.setattr(tate._DeltaLayer, "unreached", spy)
    res = build_resolution(("x", "y"), s0=s0, depth=5, order=order)
    assert check_acyclic(res, 5).ok
    assert sum(kept for _n, kept in counts) == len(res.generators) > 0
    assert sum(n for n, _kept in counts) > len(res.generators)


def test_solve_master_holds_one_layer_at_a_time(monkeypatch):
    # order p lifts against layer p alone, so each layer is dropped when
    # its order ends: no earlier layer is alive when the next one is built
    res = build_resolution(("x", "y"), s0="(x^2+y^2-1)^2/4", depth=6)
    built = []
    real = tate._DeltaLayer.__init__

    def spy(self, table, delta, d, order, record=False):
        gc.collect()
        assert [ref for ref in built if ref() is not None] == []
        built.append(weakref.ref(self))
        real(self, table, delta, d, order, record)

    monkeypatch.setattr(tate._DeltaLayer, "__init__", spy)
    solve_master(res, 5)
    assert len(built) > 2


def test_vector_components_share_one_zero():
    # polynomials are immutable, so the empty components of a chain's
    # vector are one zero object rather than a new zero each
    res = build_resolution(("x", "y"), s0="(x^2+y^2-1)^2/4", depth=4)
    layer = tate._DeltaLayer(res.table, res.gr_delta(), 3, res.order)
    assert len(layer.here) > 2
    chains = [GradedPolynomial.zero(res.table), layer.chain(layer.columns[0])]
    for v in [layer.vector(a) for a in chains] + layer.columns:
        zeros = {id(c) for c in v if c.is_zero()}
        assert len(zeros) <= 1
    assert len({id(c) for c in layer.vector(chains[0])}) == 1
