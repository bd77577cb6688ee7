"""Acceptance suite: one end-to-end check per contract item, in order.

Every test enforces its own wall-clock budget and works in exact
arithmetic; there are no tolerances anywhere.  The generator-count
assertion in the resolution test records a known discrepancy (the
minimal builder needs one generator fewer at degree -5 than the
reference profile) and is left failing rather than weakened; the
acyclicity half of that test passes.
"""

import random
import time
from fractions import Fraction

import pytest

from bvkit.polynomial_engine import (
    BasePolynomial,
    normal_form,
)
from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    multiply,
    parse_graded,
    truncate,
)
from bvkit.antibracket import bracket, exp_ad
from bvkit.tate import (
    TateGenerator,
    TateResolution,
    build_resolution,
    check_acyclic,
    stabilize,
)
from bvkit.bv_solver import (
    MasterSolution,
    bundle_solution,
    faddeev_popov,
    gauge_relate,
    master_residual,
    solve_master,
    verify_master,
)
from bvkit.brst import (
    e2_page,
    h0,
    h1,
    jacobian_ring,
    symmetry_presentation,
)
from reference_derivatives import apply_vector_field
from reference_elimination import _reference_rref

CIRCLE = "(x^2+y^2-1)^2/4"


def _within(start, limit):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"time budget exceeded: {elapsed:.1f}s >= {limit}s"


def _in_span(f, basis, gb):
    nf = normal_form(f, gb)
    cols = {}
    for b in basis:
        for e in b.terms:
            cols.setdefault(e, len(cols))
    for e in nf.terms:
        cols.setdefault(e, len(cols))
    red, piv = _reference_rref([{cols[e]: c for e, c in b.terms.items()} for b in basis])
    t = {cols[e]: c for e, c in nf.terms.items()}
    for row, pc in zip(red, piv):
        if t.get(pc):
            c = t[pc]
            t = {k: t.get(k, 0) - c * row.get(k, 0) for k in t.keys() | row.keys()}
    return all(a == 0 for a in t.values())


def _sgn(k):
    return -1 if k % 2 else 1


def _random_table(rng):
    coords = tuple(f"x{i + 1}" for i in range(rng.randint(1, 3)))
    pairs = tuple((f"a{k + 1}", -rng.randint(2, 5), f"g{k + 1}")
                  for k in range(rng.randint(1, 3)))
    return GeneratorTable(coords, pairs)


def _random_homogeneous(rng, t):
    def mono():
        exps = tuple(rng.randint(0, 1) if par else rng.randint(0, 2)
                     for par in t.parities)
        e = tuple(rng.randint(0, 2) for _ in t.coordinates)
        coeff = BasePolynomial(
            t.coordinates, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))})
        return GradedPolynomial.monomial(t, exps, coeff)

    m = mono()
    extra = mono()
    if not m.is_zero() and extra.ghost_degree() == m.ghost_degree():
        m = m + extra
    return m


def test_01_bracket_axioms_hold_on_random_tables():
    # graded antisymmetry, the Leibniz rule, and the graded Jacobi
    # identity, each checked exactly on 1000 homogeneous triples
    # spread over 20 independently drawn generator tables
    start = time.monotonic()
    rng = random.Random(20260822)
    checked = 0
    for _ in range(20):
        t = _random_table(rng)
        done = 0
        while done < 50:
            a = _random_homogeneous(rng, t)
            b = _random_homogeneous(rng, t)
            c = _random_homogeneous(rng, t)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            ga, gb = a.ghost_degree(), b.ghost_degree()
            s = _sgn((ga - 1) * (gb - 1))
            assert bracket(a, b) == bracket(b, a) * (-s)
            s2 = _sgn((ga + 1) * gb)
            assert bracket(a, multiply(b, c)) == \
                multiply(bracket(a, b), c) + multiply(b, bracket(a, c)) * s2
            assert bracket(a, bracket(b, c)) == \
                bracket(bracket(a, b), c) + bracket(b, bracket(a, c)) * s
            done += 1
        checked += done
    assert checked >= 1000
    _within(start, 10)


def test_02_quadratic_action_with_flat_directions():
    # two nondegenerate directions, two flat ones: each flat direction
    # contributes exactly one dual-ghost coupling with unit coefficient
    start = time.monotonic()
    res = build_resolution(["x1", "x2", "x3", "x4"], s0="x1^2 + 3*x2^2",
                           depth=2)
    sol = solve_master(res, 1)
    assert len(res.table.pairs) == 2
    expected = parse_graded(
        "(x1^2 + 3*x2^2) + (1)*x3s*b1 + (1)*x4s*b2", res.table)
    assert sol.S == expected
    assert master_residual(res, sol.S).is_zero()
    parts = list(res.partials)
    assert h0(parts, 4).dim == 1
    assert h1(parts, 4).dim == 0
    _within(start, 5)


def test_03_resolution_of_the_circle_quartic_to_depth_five():
    start = time.monotonic()
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=5)
    assert check_acyclic(res, 5).ok
    _within(start, 120)
    counts = res.counts()
    got = tuple(counts.get(-d, 0) for d in (2, 3, 4, 5))
    assert got == (1, 1, 2, 4), (
        f"generator counts at degrees -2..-5: got {got}, expected "
        "(1, 1, 2, 4); the minimal build prunes the degree -5 layer to "
        "three generators, and acyclicity through depth 5 holds either way")


def test_04_master_solution_to_order_four():
    start = time.monotonic()
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=5)
    sol = solve_master(res, 4)
    assert verify_master(sol, 4).ok
    r = master_residual(res, sol.S)
    assert r.is_zero() or (r.min_weight() >= 5 and r.min_count() >= 2)
    s0 = GradedPolynomial.from_scalar(res.table, res.s0)
    assert truncate(sol.S, 0) == s0
    low = parse_graded("(x)*ys*b1 + (-y)*xs*b1", res.table)
    assert truncate(sol.S, 1) == s0 + low
    _within(start, 300)


def test_05_low_degree_cohomology_and_first_page():
    start = time.monotonic()
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=5)
    parts = list(res.partials)
    a0 = h0(parts, 6)
    a1 = h1(parts, 6)
    assert a0.dim == 2
    assert a1.dim == 1
    sol = solve_master(res, 4)
    assert e2_page(sol, 0, 6).dim == a0.dim
    assert e2_page(sol, 1, 6).dim == a1.dim
    _within(start, 60)


def test_06_cubic_cone_invariants_grow_without_bound():
    start = time.monotonic()
    coords = ("w", "x", "y", "z")
    s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", coords)
    parts = [s0.derivative(v) for v in coords]
    pres = symmetry_presentation(parts)
    gb = jacobian_ring(parts)
    w3 = BasePolynomial.parse("(w^3 - 1)^2", coords)
    r11 = h0(parts, 11, presentation=pres)
    for mtext in ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"):
        f = normal_form(w3 * BasePolynomial.parse(mtext, coords), gb)
        for t in pres.tau:
            assert normal_form(apply_vector_field(t, f), gb).is_zero()
        assert _in_span(f, r11.basis, gb)
    dims = [r11.dim] + [h0(parts, D, presentation=pres).dim
                        for D in (12, 13, 14)]
    assert dims[0] == 31
    assert all(a < b for a, b in zip(dims, dims[1:])), dims
    _within(start, 300)


def test_07_rotation_symmetry_solution_is_exact():
    start = time.monotonic()
    fields = [["0", "-z", "y"], ["z", "0", "-x"], ["-y", "x", "0"]]
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = -1
    c[1][0][2] = 1
    c[1][2][0] = -1
    c[2][1][0] = 1
    c[2][0][1] = -1
    c[0][2][1] = 1
    sol = faddeev_popov("(x^2+y^2+z^2-1)^2", fields, structure=c,
                        coords=["x", "y", "z"])
    assert master_residual(sol.resolution, sol.S).is_zero()
    _within(start, 30)


def test_08_flat_bundles_and_rejected_curvature():
    start = time.monotonic()
    sol1 = bundle_solution([["1"]], [[["0"]]], [[[["0"]]]])
    assert master_residual(sol1.resolution, sol1.S).is_zero()
    z2 = [[0, 0], [0, 0]]
    sol2 = bundle_solution([["1", "y1"], ["y1", "y1^2 + 1"]],
                           [[["0", "1"], ["0", "0"]]], [[z2]])
    assert master_residual(sol2.resolution, sol2.S).is_zero()
    j = [[0, 1], [-1, 0]]
    nj = [[0, -1], [1, 0]]
    with pytest.raises(ValueError, match=r'"\(b\)"'):
        bundle_solution([[1, 0], [0, 1]], [z2, z2], [[z2, j], [nj, z2]])
    _within(start, 30)


def test_09_gauge_word_relates_perturbed_solutions():
    # the second solution realizes a different lift choice: a ghost(-1)
    # element with two positive factors shifts the correction at each
    # order without touching the action or the weight-one layer
    start = time.monotonic()
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=5)
    a = solve_master(res, 4)
    u0 = parse_graded("(1/3)*xs*bs2*b1*b2 + (1)*xs*ys*bs1*b1*b2", res.table)
    b = MasterSolution(res, exp_ad(u0, a.S, 8), 4)
    assert verify_master(b, 4).ok
    w = gauge_relate(a, b, 4)
    assert len(w) >= 1
    moved = w.apply(a.S)
    assert truncate(moved, 4).terms == truncate(b.S, 4).terms
    _within(start, 300)


def test_10_stabilization_of_minimal_and_padded_resolutions():
    start = time.monotonic()
    mini = build_resolution(["x"], s0="0", depth=3)
    table = GeneratorTable(
        ("x",), (("bs1", -2, "b1"), ("ws1", -2, "w1"), ("ws2", -3, "w2")))
    gens = [
        TateGenerator("bs1", -2, parse_graded("xs", table)),
        TateGenerator("ws1", -2, GradedPolynomial.zero(table)),
        TateGenerator("ws2", -3, parse_graded("ws1", table)),
    ]
    padded = TateResolution(table, mini.partials, gens, 3, order=mini.order)
    a, b, f, g = stabilize(mini, padded, 3)
    assert f.is_chain_map(3) and g.is_chain_map(3)
    for res, fwd, back in ((a, f, g), (b, g, f)):
        for gen in res.generators:
            if -gen.degree > 3:
                continue
            x = GradedPolynomial.generator(res.table, gen.name)
            assert back.apply(fwd.apply(x)) == x
    _within(start, 10)


def test_11_residual_weight_invariant_across_solver_runs():
    # the solver itself raises AssertionError whenever a residual term
    # of weight <= p appears at order p; this re-derives the invariant
    # externally on an escalating ladder of runs
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=5)
    for p in range(1, 5):
        sol = solve_master(res, p)
        r = master_residual(res, sol.S)
        assert r.is_zero() or r.min_weight() >= p + 1
        assert r.is_zero() or r.min_count() >= 2
        logged = [line for line in sol.log if line.startswith("order ")]
        assert len(logged) == p


def test_12_empty_critical_locus_has_no_cohomology():
    start = time.monotonic()
    parts = [BasePolynomial.parse("1", ("x",))]
    for bound in range(7):
        assert h0(parts, bound).dim == 0
        assert h1(parts, bound).dim == 0
    _within(start, 5)


def test_13_circle_quartic_solves_to_order_seven():
    # the solver computes only the residual terms of weight <= p_max + 1;
    # verify_master recomputes the full [S, S] and checks all of it
    start = time.monotonic()
    res = build_resolution(["x", "y"], s0=CIRCLE, depth=8)
    sol = solve_master(res, 7)
    assert verify_master(sol, 7).ok
    _within(start, 10)
