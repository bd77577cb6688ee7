"""Tests for the master-equation solver and the exact constructors."""

import functools
import hashlib
import itertools
import json
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.elimination import _echelon
from bvkit.polynomial_engine import BasePolynomial, _poly, poly_to_str
from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    dual_name,
    graded_to_str,
    gr_project,
    parse_graded,
    transport,
    truncate,
)
from bvkit.antibracket import exp_ad
from bvkit import bv_solver, graded_algebra
from bvkit.brst import e2_page
from bvkit.tate import (
    TateGenerator,
    TateResolution,
    _graded_monomials,
    build_resolution,
    negative_monomials,
)
from bvkit.bv_solver import (
    _exact,
    _matrix,
    _residual_bracket,
    _solve_layer,
    _split_blocks,
    _word,
    GaugeWord,
    MasterSolution,
    add_square,
    bundle_solution,
    faddeev_popov,
    gauge_relate,
    master_residual,
    product_solution,
    s_lin,
    solve_master,
    trivial_solution,
    verify_master,
)

CIRCLE = "(x^2+y^2-1)^2/4"
CIRCLE_PARTIALS = ["x^3+x*y^2-x", "x^2*y+y^3-y"]


def circle(depth):
    return build_resolution(["x", "y"], s0=CIRCLE, depth=depth)


def circle_partials(depth):
    return build_resolution(["x", "y"], partials=CIRCLE_PARTIALS,
                            depth=depth)


class TestSLin:
    def test_regular_quadratic_is_bare_action(self):
        res = build_resolution(["x", "y"], s0="x^2+3*y^2", depth=3)
        S = s_lin(res)
        assert S == GradedPolynomial.from_scalar(res.table, res.s0)

    def test_circle_linear_terms(self):
        res = circle(2)
        S = s_lin(res)
        low = truncate(S, 1)
        expected = (GradedPolynomial.from_scalar(res.table, res.s0)
                    + parse_graded("(x)*ys*b1 + (-y)*xs*b1", res.table))
        assert low == expected

    def test_multivalued_omits_weight_zero(self):
        res = build_resolution(["x", "y"],
                               partials=["x^3+x*y^2-x", "x^2*y+y^3-y"],
                               depth=2)
        assert truncate(s_lin(res), 0).is_zero()


class TestSolveMaster:
    def test_regular_quadratic_solves_exactly(self):
        res = build_resolution(["x", "y"], s0="x^2+3*y^2", depth=3)
        sol = solve_master(res, 2)
        assert sol.S == GradedPolynomial.from_scalar(res.table, res.s0)
        assert master_residual(res, sol.S).is_zero()

    def test_circle_order_four(self):
        res = circle(5)
        sol = solve_master(res, 4)
        rep = verify_master(sol, 4)
        assert rep.ok
        assert len(sol.S.terms) == 42
        low = truncate(sol.S, 1)
        expected = (GradedPolynomial.from_scalar(res.table, res.s0)
                    + parse_graded("(x)*ys*b1 + (-y)*xs*b1", res.table))
        assert low == expected

    def test_circle_log_reports_obstruction_blocks(self):
        sol = solve_master(circle(5), 4)
        assert any("order 3: cleared 3 obstruction blocks" in line
                   for line in sol.log)
        assert any("order 1: residual already in F^3" in line
                   for line in sol.log)

    def test_multivalued_matches_standard_solve(self):
        rm = build_resolution(["x", "y"],
                              partials=["x^3+x*y^2-x", "x^2*y+y^3-y"],
                              depth=5)
        rs = circle(5)
        mv = solve_master(rm, 4)
        sv = solve_master(rs, 4)
        diff = sv.S - GradedPolynomial.from_scalar(rs.table, rs.s0)
        assert transport(diff, rm.table) == mv.S
        assert verify_master(mv, 4).ok

    def test_multivalued_update_carries_the_one_form_term(self):
        # from order 5 on the corrections have antifield factors, so the
        # residual update must include their closed-one-form term
        rm, rs = circle_partials(6), circle(6)
        mv = solve_master(rm, 5)
        sv = solve_master(rs, 5)
        diff = sv.S - GradedPolynomial.from_scalar(rs.table, rs.s0)
        assert transport(diff, rm.table) == mv.S
        assert verify_master(mv, 5).ok

    def test_depth_must_cover_order(self):
        with pytest.raises(ValueError, match="depth"):
            solve_master(circle(2), 4)

    def test_rejects_trivial_order(self):
        with pytest.raises(ValueError, match="p_max"):
            solve_master(circle(2), 0)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 3),
                                 max_value=Fraction(5)),
                    min_size=1, max_size=3))
    def test_diagonal_quadratics_are_already_solutions(self, coeffs):
        names = tuple(f"x{i + 1}" for i in range(len(coeffs)))
        s0 = " + ".join(f"{c}*{n}^2" for c, n in zip(coeffs, names))
        res = build_resolution(names, s0=s0, depth=2)
        sol = solve_master(res, 1)
        assert sol.S == GradedPolynomial.from_scalar(res.table, res.s0)
        assert master_residual(res, sol.S).is_zero()

    def test_full_residual_computed_once(self, monkeypatch):
        # the associated solution's square is capped at max(p_max + 1,
        # largest generator degree), as in verify_master; the full [S, S]
        # is computed once, and only when that capped square vanishes and
        # twice the top weight of S exceeds the cap, so that "residual
        # vanished" is logged exactly
        full, caps = [], []
        real_residual = bv_solver.master_residual
        real_pair = bv_solver._bracket_pair

        def residual_spy(res, S):
            full.append(len(S.terms))
            return real_residual(res, S)

        def pair_spy(factors, b, cap=None):
            caps.append(cap)
            return real_pair(factors, b, cap)

        monkeypatch.setattr(bv_solver, "master_residual", residual_spy)
        monkeypatch.setattr(bv_solver, "_bracket_pair", pair_spy)
        sol = solve_master(circle(6), 3)
        assert full == [] and caps == [6, 4]
        assert verify_master(sol, 3).ok
        caps.clear()
        # S = x^2 + y^2 has weight 0, so the cap 2 covers all of [S, S]
        res = build_resolution(["x", "y"], s0="x^2 + y^2", depth=2)
        sol = solve_master(res, 1)
        assert full == [] and caps == [2]
        assert sol.log[-1] == "order 1: residual vanished"
        # S has weight 3 and the cap is 3: [S, S] vanishes below weight 4
        # only, and the full square shows it
        caps.clear()
        res = build_resolution(["x", "y"], s0="x^2*y^2", depth=3)
        sol = solve_master(res, 1)
        assert full == [len(s_lin(res).terms)] and caps == [3, None]
        assert sol.log[-1] == "order 1: residual already in F^3"


def _reference_solve_master(res, p_max):
    """The solver loop before weight-capped brackets: it carries every
    term of the residual and updates it with uncapped brackets."""
    t = res.table
    S = s_lin(res)
    low = truncate(S, 1)
    log = [f"associated solution: {len(S.terms)} terms"]
    cache = {}
    r = master_residual(res, S)
    for p in range(1, p_max + 1):
        if r.is_zero():
            log.append(f"order {p}: residual vanished")
            break
        for m in r.terms:
            assert t.count_of(m) >= 2
            assert t.weight_of(m) >= p + 1
            assert t.ghost_of(m) == 1
        rbar = gr_project(r, p + 1)
        if rbar.is_zero():
            log.append(f"order {p}: residual already in F^{p + 2}")
            continue
        blocks = _split_blocks(rbar * Fraction(-1, 2))
        v = _solve_layer(res, blocks, p, cache)
        r = r + _residual_bracket(res, S * 2 + v, v)
        S = S + v
        assert truncate(S, 1) == low
        assert r.is_zero() or r.min_weight() >= p + 2
        log.append(f"order {p}: cleared {len(blocks)} obstruction blocks, "
                   f"{len(v.terms)} correction terms")
    return MasterSolution(res, S, p_max, log)


REFERENCE_SOLVES = {
    "circle-5": (lambda: circle(5), 4),
    "circle-6": (lambda: circle(6), 5),
    "circle-7": (lambda: circle(7), 6),
    "circle-dS0-6": (lambda: circle_partials(6), 5),
    # the registry's exa1 (exact at order 1) and exa7 actions
    "exa1": (lambda: build_resolution(["x", "y", "z"], s0="x^2 + y^2",
                                      depth=2), 1),
    "exa7": (lambda: build_resolution(["x", "y"], s0=CIRCLE, depth=3), 2),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_SOLVES))
def test_capped_solver_matches_the_reference(case):
    build, p_max = REFERENCE_SOLVES[case]
    res = build()
    sol = solve_master(res, p_max)
    ref = _reference_solve_master(res, p_max)
    assert list(sol.S.terms.items()) == list(ref.S.terms.items())
    assert ([line for line in sol.log if line.startswith("order ")]
            == [line for line in ref.log if line.startswith("order ")])
    assert verify_master(sol, p_max).ok


def test_residual_updates_are_capped(monkeypatch):
    # the first residual computes only weights <= max(p_max + 1, largest
    # generator degree) and every update after a correction only
    # weights <= p_max + 1
    caps, weights = [], []
    real = bv_solver._bracket_pair

    def spy(factors, v, cap=None):
        out = real(factors, v, cap)
        caps.append(cap)
        weights.append(out.max_weight() or 0)
        return out

    monkeypatch.setattr(bv_solver, "_bracket_pair", spy)
    for p_max, want in ((5, [6, 6, 6, 6]), (3, [6, 4])):
        caps.clear()
        weights.clear()
        sol = solve_master(circle_partials(6), p_max)
        assert caps == want
        assert all(w <= cap for w, cap in zip(weights, caps))
        assert verify_master(sol, p_max).ok


@pytest.mark.parametrize("kind", ["s0", "partials"])
def test_kept_factors_give_the_residual_of_each_order(monkeypatch, kind):
    # the solver takes the bracket factors of 2S once and then those of
    # each correction v only; the residual it keeps, the first capped
    # square truncated to P plus every update, must be the residual of S
    # recomputed after each order (with the one-form term for partials)
    res = circle(6) if kind == "s0" else circle_partials(6)
    p_max = 5
    P = p_max + 1
    taken, brackets = [], []
    real_factors, real_pair = bv_solver._bracket_factors, bv_solver._bracket_pair

    def factors_spy(a, half=False):
        taken.append(a)
        return real_factors(a, half)

    def pair_spy(factors, b, cap=None):
        out = real_pair(factors, b, cap)
        brackets.append((b, out))
        return out

    monkeypatch.setattr(bv_solver, "_bracket_factors", factors_spy)
    monkeypatch.setattr(bv_solver, "_bracket_pair", pair_spy)
    sol = solve_master(res, p_max)
    monkeypatch.undo()
    S = s_lin(res)
    (first, r), *updates = brackets
    assert first == S and taken[0] == S * 2
    assert len(updates) >= 2
    assert len(taken) == 1 + len(updates)
    assert all(a is v for a, (v, _update) in zip(taken[1:], updates))
    r = truncate(r, P)
    assert r == truncate(master_residual(res, S), P)
    for v, update in updates:
        S = S + v
        r = r + update
        assert r == truncate(master_residual(res, S), P)
    assert S == sol.S


UPDATE_TABLES = {"s0": circle(3), "partials": circle_partials(3)}


def _ghost_zero_monomials(t):
    """Ghost-0 exponent tuples with at most three factors."""
    ranges = [range(2 if odd else 3) for odd in t.parities]
    return [m for m in itertools.product(*ranges)
            if sum(m) <= 3 and t.ghost_of(m) == 0]


GHOST_ZERO = {k: _ghost_zero_monomials(r.table)
              for k, r in UPDATE_TABLES.items()}


@st.composite
def ghost_zero(draw, kind):
    t = UPDATE_TABLES[kind].table
    terms = {}
    for m in draw(st.lists(st.sampled_from(GHOST_ZERO[kind]),
                           max_size=4, unique=True)):
        e = tuple(draw(st.integers(0, 2)) for _ in t.coordinates)
        c = draw(st.fractions(min_value=-3, max_value=3,
                              max_denominator=3).filter(bool))
        terms[m] = BasePolynomial(t.coordinates, {e: c})
    return GradedPolynomial(t, terms)


@pytest.mark.parametrize("kind", sorted(UPDATE_TABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_update_matches_full_bracket(kind, data):
    # [S+v, S+v] - [S, S] = [2S + v, v] for ghost-0 S and v, and the
    # closed-one-form term of the multivalued residual is linear
    res = UPDATE_TABLES[kind]
    S = data.draw(ghost_zero(kind), label="S")
    v = data.draw(ghost_zero(kind), label="v")
    update = _residual_bracket(res, S * 2 + v, v)
    assert master_residual(res, S + v) == master_residual(res, S) + update


class TestVerifyMaster:
    def test_clean_report(self):
        sol = solve_master(circle(5), 4)
        rep = verify_master(sol, 4)
        assert rep.ok
        assert rep.achieved == 4
        assert rep.s0_ok and rep.associated_ok
        assert rep.residual_class is None

    def test_linear_tampering_breaks_association(self):
        res = circle(5)
        sol = solve_master(res, 4)
        bad = sol.S + parse_graded("(-2*x)*ys*b1", res.table)
        rep = verify_master(MasterSolution(res, bad, 4), 4)
        assert not rep.ok
        assert rep.achieved == 0
        assert not rep.associated_ok
        assert rep.residual_class is not None

    def test_deep_tampering_reports_failure_order(self):
        res = circle(5)
        sol = solve_master(res, 4)
        bad = sol.S + parse_graded("(1)*xs*bs1*b1*b2", res.table)
        rep = verify_master(MasterSolution(res, bad, 4), 4)
        assert not rep.ok
        assert rep.achieved == 2
        assert rep.s0_ok and rep.associated_ok
        cls = rep.residual_class
        assert cls is not None and cls.min_weight() == 3

    def test_failures_never_raise(self):
        res = circle(5)
        junk = parse_graded("(x)*ys*b1", res.table)
        rep = verify_master(MasterSolution(res, junk, 4), 4)
        assert not rep.ok
        assert not rep.s0_ok

    def test_negative_order_is_refused(self):
        # it reported ok with achieved = -1
        sol = solve_master(circle(3), 2)
        with pytest.raises(ValueError, match="order p must be >= 0"):
            verify_master(sol, -1)
        assert verify_master(sol, 0).ok

    @pytest.mark.parametrize("kind,tamper", [
        ("s0", None), ("partials", None), ("s0", "(-2*x)*ys*b1"),
        ("partials", "(1)*xs*bs1*b1*b2")])
    @pytest.mark.parametrize("p", [0, 1, 4, 6])
    def test_one_bracket_per_report(self, monkeypatch, kind, tamper, p):
        res = circle(5) if kind == "s0" else circle_partials(5)
        sol = solve_master(res, 4)
        if tamper is not None:
            sol = MasterSolution(res, sol.S + parse_graded(tamper, res.table), 4)
        calls = []
        real = bv_solver._bracket_pair

        def spy(factors, v, cap=None):
            calls.append(cap)
            return real(factors, v, cap)

        monkeypatch.setattr(bv_solver, "_bracket_pair", spy)
        rep = verify_master(sol, p)
        monkeypatch.undo()
        assert calls == [max(p + 1, 5)]
        assert_same_report(rep, _reference_verify(sol, p))

    def test_square_is_built_from_the_half_factors(self, monkeypatch):
        # every product of the square the verify computes is capped, and S
        # is even, so its capped square takes the half factors of S: one
        # product per pair, doubled.  _products also serves multiply (for
        # s_lin), so only the products made inside the square are read.
        sol = solve_master(circle(5), 4)
        caps, halves, inside = [], [], []
        real_products = graded_algebra._products
        real_factors = bv_solver._bracket_factors
        real_pair = bv_solver._bracket_pair

        def products_spy(rows_a, rows_b, cap, acc):
            if inside:
                caps.append(cap)
            return real_products(rows_a, rows_b, cap, acc)

        def factors_spy(a, half=False):
            if a is sol.S:
                halves.append(half)
            return real_factors(a, half)

        def pair_spy(factors, b, cap=None):
            inside.append(cap)
            out = real_pair(factors, b, cap)
            inside.pop()
            return out

        monkeypatch.setattr(graded_algebra, "_products", products_spy)
        monkeypatch.setattr(bv_solver, "_bracket_factors", factors_spy)
        monkeypatch.setattr(bv_solver, "_bracket_pair", pair_spy)
        assert verify_master(sol, 4).ok
        assert caps and set(caps) == {5}
        assert halves == [True]

    @pytest.mark.parametrize("kind", ["s0", "partials"])
    def test_residual_of_truncated_solution_matches_two_sums(self, kind):
        # S with its corrections truncated has a residual that does not
        # vanish to order p; its report must equal the full-bracket one
        res = circle(6) if kind == "s0" else circle_partials(6)
        lin = s_lin(res)
        corrections = solve_master(res, 5).S - lin
        for P in (3, 4):
            sol = MasterSolution(res, lin + truncate(corrections, P), 5)
            ref = _reference_verify(sol, 5)
            assert ref.residual_class is not None and ref.achieved == P
            assert_same_report(verify_master(sol, 5), ref)


def _reference_verify(sol, p):
    """verify_master before it capped its brackets: it computes all of
    [S, S] and takes both minima from every term."""
    res = sol.resolution
    r = master_residual(res, sol.S)
    if r.is_zero():
        achieved = p
        residual_class = None
    else:
        pos = [i for i, d in enumerate(res.table.degrees) if d > 0]
        degs = [res.table.degrees[i] for i in pos]
        mw = mc = None
        for m in r.terms:
            exps = [m[i] for i in pos]
            w, n = sum(map(mul, exps, degs)), sum(exps)
            if mw is None or w < mw:
                mw = w
            if mc is None or n < mc:
                mc = n
        achieved = min(p, mw - 1) if mc >= 2 else 0
        residual_class = gr_project(r, mw) if achieved < p else None
    if res.s0 is None:
        s0_ok = truncate(sol.S, 0).is_zero()
    else:
        s0_ok = truncate(sol.S, 0) == GradedPolynomial.from_scalar(
            res.table, res.s0)
    diff = sol.S - s_lin(res)
    associated_ok = diff.is_zero() or diff.min_count() >= 2
    return bv_solver.VerifyReport(p, achieved, s0_ok, associated_ok,
                                  residual_class)


def assert_same_report(rep, ref):
    assert (rep.requested, rep.achieved, rep.s0_ok, rep.associated_ok) == (
        ref.requested, ref.achieved, ref.s0_ok, ref.associated_ok)
    if ref.residual_class is None:
        assert rep.residual_class is None
    else:
        assert rep.residual_class.terms == ref.residual_class.terms
        assert (graded_to_str(rep.residual_class)
                == graded_to_str(ref.residual_class))


@functools.cache
def perturbation_base(kind):
    """A solution and its ghost-0 monomials of count <= 3 by weight."""
    if kind == "x2y2":
        res, p = build_resolution(["x", "y"], s0="x^2*y^2", depth=5), 4
    else:
        res, p = (circle(6) if kind == "s0" else circle_partials(6)), 5
    t = res.table
    by_weight = {}
    for w in range(p + 3):
        for pos in _graded_monomials(t, w, 1):
            if t.count_of(pos) <= 3:
                by_weight.setdefault(w, []).extend(
                    tuple(map(add, pos, neg)) for neg in negative_monomials(t, w))
    return solve_master(res, p), by_weight


@st.composite
def perturbed(draw, kind):
    sol, by_weight = perturbation_base(kind)
    t = sol.S.table
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from(by_weight[draw(st.sampled_from(sorted(by_weight)))]))
        e = tuple(draw(st.integers(0, 2)) for _ in t.coordinates)
        c = draw(st.fractions(min_value=-3, max_value=3,
                              max_denominator=3).filter(bool))
        terms[m] = BasePolynomial(t.coordinates, {e: c})
    return MasterSolution(sol.resolution, sol.S + GradedPolynomial(t, terms),
                          sol.order)


@pytest.mark.parametrize("kind", ["s0", "partials", "x2y2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_capped_verify_matches_the_full_bracket(kind, data):
    sol = data.draw(perturbed(kind), label="solution")
    p = data.draw(st.integers(0, sol.order + 2), label="p")
    assert_same_report(verify_master(sol, p), _reference_verify(sol, p))


class TestVerifyBranches:
    """Each case pins the cap of the one square the verify takes,
    max(p + 1, largest generator degree), and its report against the
    full-bracket reference."""

    @staticmethod
    def square_caps(monkeypatch, sol, p):
        caps = []
        real = bv_solver._residual_bracket

        def spy(res, a, v, cap=None):
            if a is sol.S and v is sol.S:
                caps.append(cap)
            return real(res, a, v, cap)

        monkeypatch.setattr(bv_solver, "_residual_bracket", spy)
        rep = verify_master(sol, p)
        monkeypatch.undo()
        assert_same_report(rep, _reference_verify(sol, p))
        return rep, caps

    @pytest.mark.parametrize("kind", ["s0", "partials"])
    def test_zero_residual(self, monkeypatch, kind):
        # a nondegenerate quadratic: the associated solution is exact,
        # and both parts of [S, S] are empty
        if kind == "s0":
            res = build_resolution(["x", "y"], s0="x^2 + 3*y^2", depth=2)
        else:
            res = build_resolution(["x", "y"], partials=["2*x", "6*y"], depth=2)
        sol = MasterSolution(res, s_lin(res), 1)
        assert master_residual(res, sol.S).is_zero()
        rep, caps = self.square_caps(monkeypatch, sol, 1)
        assert caps == [2]
        assert rep.ok and rep.achieved == 1 and rep.residual_class is None

    @pytest.mark.parametrize("kind", ["s0", "partials"])
    def test_count_one_residual_below_the_order(self, monkeypatch, kind):
        # a count-1 tamper of weight 1: the square is capped at p + 1 = 5,
        # the largest generator degree too, and holds the slice of weight 1
        res = circle(5) if kind == "s0" else circle_partials(5)
        sol = solve_master(res, 4)
        bad = MasterSolution(res, sol.S + parse_graded("(-2*x)*ys*b1", res.table), 4)
        rep, caps = self.square_caps(monkeypatch, bad, 4)
        assert caps == [5]
        assert rep.achieved == 0 and rep.residual_class.min_weight() == 1

    @pytest.mark.parametrize("kind", ["s0", "partials"])
    def test_count_one_residual_above_the_order(self, monkeypatch, kind):
        # a count-1 tamper on a weight-4 ghost verified at p = 1: [S, S]
        # has no term of weight <= p + 1, so the square is capped at the
        # largest generator degree, 5, above p + 1
        res = circle(5) if kind == "s0" else circle_partials(5)
        sol = solve_master(res, 4)
        bad = MasterSolution(res, sol.S + parse_graded("bs3*b5", res.table), 4)
        assert _residual_bracket(res, bad.S, bad.S, 2).is_zero()
        rep, caps = self.square_caps(monkeypatch, bad, 1)
        assert caps == [5]
        assert rep.achieved == 0 and rep.residual_class.min_weight() == 4

    @pytest.mark.parametrize("text,achieved", [
        # even: [S_0, S_2] and [S_2, S_0] are equal and reach count 1
        ("bs1 + bs2*b1*b2", 0),
        # not even: [S_0, S_2] and [S_2, S_0] cancel at count 1
        ("bs1 + xs*ys*b1*b2", 4),
    ])
    def test_antifield_in_the_count_zero_part(self, monkeypatch, text, achieved):
        # off ghost 0, S_0 can hold an antifield, and then [S_0, S_2]
        # reaches count 1
        res = circle(5)
        S = parse_graded(text, res.table)
        rep, caps = self.square_caps(monkeypatch, MasterSolution(res, S, 4), 4)
        assert len(caps) == 1 and rep.achieved == achieved


class TestGaugeWord:
    def test_rejects_wrong_ghost(self):
        res = circle(3)
        with pytest.raises(ValueError, match="ghost"):
            GaugeWord([parse_graded("(1)*xs*b1*b2", res.table)], 4)

    def test_rejects_low_count(self):
        res = circle(3)
        with pytest.raises(ValueError, match="positive factors"):
            GaugeWord([parse_graded("(1)*xs*ys*b1", res.table)], 4)

    def test_empty_word_is_identity(self):
        res = circle(3)
        w = GaugeWord([], 4)
        a = parse_graded("(x)*ys*b1", res.table)
        assert w.apply(a) == a


class TestGaugeRelate:
    def perturbed_pair(self):
        res = circle(5)
        a = solve_master(res, 4)
        u0 = parse_graded("(1/3)*xs*bs2*b1*b2 + (1)*xs*ys*bs1*b1*b2",
                          res.table)
        b = MasterSolution(res, exp_ad(u0, a.S, 8), 4)
        assert verify_master(b, 4).ok
        return res, a, b

    def test_transport_matches_term_by_term(self):
        res, a, b = self.perturbed_pair()
        w = gauge_relate(a, b, 4)
        assert len(w) >= 1
        moved = w.apply(a.S)
        assert truncate(moved - b.S, 4).is_zero()

    def test_reflexive_gives_empty_word(self):
        res = circle(5)
        a = solve_master(res, 4)
        assert len(gauge_relate(a, a, 4)) == 0

    def test_word_entries_are_admissible(self):
        res, a, b = self.perturbed_pair()
        w = gauge_relate(a, b, 4)
        for u in w.elements:
            assert u.ghost_degrees() == {-1}
            assert u.min_count() >= 2

    def test_requires_shared_resolution(self):
        a = solve_master(circle(5), 4)
        other = build_resolution(["x", "y"], s0="x^2+y^2", depth=5)
        b = solve_master(other, 4)
        with pytest.raises(ValueError, match="different resolutions"):
            gauge_relate(a, b, 4)

    def test_requires_certified_order(self):
        res = circle(5)
        a = solve_master(res, 4)
        b = MasterSolution(res, a.S, 2)
        with pytest.raises(ValueError, match="certified"):
            gauge_relate(a, b, 4)

    def test_negative_order_is_refused(self):
        # it failed inside truncate, on the truncation weight
        a = solve_master(circle(3), 2)
        with pytest.raises(ValueError, match="order p_max must be >= 0"):
            gauge_relate(a, a, -1)
        assert len(gauge_relate(a, a, 0)) == 0


class TestTrivialSolution:
    def test_empty_complex(self):
        sol = trivial_solution([], {})
        assert sol.S.is_zero()
        assert sol.resolution.table.coordinates == ()

    def test_identity_step_gives_one_bilinear_term(self):
        sol = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        assert graded_to_str(sol.S) == "(1)*w1s*c1"
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_three_step_complex(self):
        sol = trivial_solution([(-1, 1), (-2, 2), (-3, 1)],
                               {-2: [[1, 0]], -3: [[0], [1]]})
        assert graded_to_str(sol.S) == "(1)*w1s*c1 + (1)*cs2*c3"

    def test_zero_top_degree(self):
        # W_-1 = 0: the degree -2 antifield bounds nothing
        sol = trivial_solution([(-2, 1), (-3, 1)], {-3: [[1]]})
        assert graded_to_str(sol.S) == "(1)*cs1*c2"

    def test_zero_degree_between_two_steps(self):
        # W_-3 = 0 splits the complex: the degree -4 antifield bounds
        # nothing
        sol = trivial_solution([(-1, 1), (-2, 1), (-3, 0), (-4, 1), (-5, 1)],
                               {-2: [[1]], -5: [[1]]})
        assert graded_to_str(sol.S) == "(1)*w1s*c1 + (1)*cs2*c3"
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_rejects_nonacyclic(self):
        with pytest.raises(ValueError, match="acyclic"):
            trivial_solution([(-1, 1)], {})

    def test_rejects_nonsquaring_differential(self):
        with pytest.raises(ValueError, match="square"):
            trivial_solution([(-1, 1), (-2, 1), (-3, 1)],
                             {-2: [[1]], -3: [[1]]})

    def test_rejects_positive_degree(self):
        with pytest.raises(ValueError, match="<= -1"):
            trivial_solution([(0, 1)], {})

    def test_rejects_duplicate_degree(self):
        with pytest.raises(ValueError, match="duplicate"):
            trivial_solution([(-1, 1), (-1, 2)], {})

    @pytest.mark.parametrize("W", [[(-1.5, 1), (-2.7, 1)], [(-1, 1), (-2, 1.0)],
                                   [("-1", 1), (-2, 1)]])
    def test_rejects_non_integer_degrees_and_dimensions(self, W):
        # int() read the first complex as degrees -1 and -2 and solved it
        with pytest.raises(ValueError, match="must be integers"):
            trivial_solution(W, {-2: [[1]]})

    @pytest.mark.parametrize("entry", [0.5, 1.0])
    def test_rejects_float_matrix_entries(self, entry):
        # Fraction read the float 0.5 into the differential
        with pytest.raises(ValueError, match="float .* exact number"):
            trivial_solution([(-1, 1), (-2, 1)], {-2: [[entry]]})

    @pytest.mark.parametrize("entry", [Fraction(3, 2), "3/2", "1.5"])
    def test_exact_matrix_entries_kept(self, entry):
        sol = trivial_solution([(-1, 1), (-2, 1)], {-2: [[entry]]})
        assert graded_to_str(sol.S) == "(3/2)*w1s*c1"

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=3),
                    min_size=4, max_size=4))
    def test_invertible_two_step(self, entries):
        a, b, c, d = entries
        if a * d - b * c == 0:
            return
        sol = trivial_solution([(-1, 2), (-2, 2)],
                               {-2: [[a, b], [c, d]]})
        assert master_residual(sol.resolution, sol.S).is_zero()
        assert all(sol.resolution.table.count_of(m) == 1
                   for m in sol.S.terms)


def _reference_trivial_solution(W, d_W):
    """trivial_solution as it was before its one-pass rewrite: its own
    d o d loop, and a KeyError where a degree's target is zero."""
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
            mats[deg] = _matrix(d_W.get(deg, []), dims[deg + 1], dims[deg],
                                f"d_W[{deg}]", Fraction)
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
    ranks = {deg: len(_echelon(map(enumerate, m)))
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
                    img = img + _word(table, mat[i][j], [names[(deg + 1, i)]])
            gens.append(TateGenerator(names[(deg, j)], deg, img))
    depth = max((-d - 1 for d in dims), default=0)
    res = TateResolution(table, partials, gens, depth, s0=zero)
    return _exact(res, s_lin(res), f"trivial solution on a complex of total "
                                   f"dimension {sum(dims.values())}")


@st.composite
def small_complexes(draw):
    """A complex in degrees -1 to -4 of dimension at most 2 with matrices
    of entries in -1..1, some drawn missing; or an exact one, a direct
    sum of up to four isomorphisms W_d -> W_(d+1), d in -4..-2, each a
    multiple of 1 by -1, 1 or 2.  Degrees are listed in any order, and
    an empty one is sometimes left out."""
    if draw(st.booleans()):
        dims = dict(enumerate(draw(st.lists(st.integers(0, 2), max_size=4))))
        dims = {-k - 1: d for k, d in dims.items()}
        d_W = {deg: draw(st.lists(
                   st.lists(st.integers(-1, 1), min_size=dims[deg],
                            max_size=dims[deg]),
                   min_size=dims[deg + 1], max_size=dims[deg + 1]))
               for deg in dims if deg + 1 in dims and draw(st.integers(0, 4))}
    else:
        dims, cells = {}, []
        for deg, c in draw(st.lists(st.tuples(st.integers(-4, -2),
                                              st.sampled_from([-1, 1, 2])),
                                    max_size=4)):
            cells.append((deg, dims.get(deg + 1, 0), dims.get(deg, 0), c))
            dims[deg] = dims.get(deg, 0) + 1
            dims[deg + 1] = dims.get(deg + 1, 0) + 1
        d_W = {deg: [[0] * dims[deg] for _ in range(dims[deg + 1])]
               for deg in dims if deg + 1 in dims}
        for deg, i, j, c in cells:
            d_W[deg][i][j] = c
    W = [(deg, d) for deg, d in dims.items() if d or draw(st.booleans())]
    return draw(st.permutations(W)), d_W


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_trivial_solution_matches_the_reference(case):
    # where the reference returns, the one-pass body returns the same
    # solution; where it refuses the complex, so does the one-pass body;
    # where it raised KeyError, the one-pass body returns a solution
    W, d_W = case
    try:
        want = _reference_trivial_solution(W, d_W)
    except ValueError:
        with pytest.raises(ValueError):
            trivial_solution(W, d_W)
        return
    except KeyError:
        want = None
    got = trivial_solution(W, d_W)
    assert master_residual(got.resolution, got.S).is_zero()
    if want is not None:
        assert got.to_json() == want.to_json()
        assert got.log == want.log


class TestProductSolution:
    def test_disjoint_union(self):
        t1 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        sq = add_square(trivial_solution([], {}), 3)
        p = product_solution(t1, sq)
        assert graded_to_str(p.S) == "(3*t^2) + (1)*w1s*c1"
        assert p.order == 8
        assert master_residual(p.resolution, p.S).is_zero()

    def test_order_is_minimum(self):
        t1 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        t2 = MasterSolution(t1.resolution, t1.S, 3)
        sq = add_square(trivial_solution([], {}), 1)
        assert product_solution(t2, sq).order == 3

    def test_name_clash_detected(self):
        t1 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        t2 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        with pytest.raises(ValueError, match="name clash"):
            product_solution(t1, t2)

    def test_mode_mismatch_detected(self):
        t1 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        rm = build_resolution(["u"], partials=["u^3"], depth=2)
        mv = solve_master(rm, 1)
        with pytest.raises(ValueError, match="multivalued"):
            product_solution(t1, mv)


class TestMonomialOrder:
    """The direct sums keep the resolutions' monomial order, and refuse to
    combine two different ones."""

    @staticmethod
    def lex_solution():
        return solve_master(build_resolution(["x", "y"], s0=CIRCLE, depth=3,
                                             order="lex"), 2)

    def test_add_square_keeps_lex(self):
        sol = add_square(self.lex_solution(), 1)
        assert sol.resolution.order == "lex"
        assert MasterSolution.from_json(sol.to_json()).resolution.order == "lex"

    def test_product_keeps_lex(self):
        # u^2 needs no generators, so no name meets the circle's
        u = solve_master(build_resolution(["u"], s0="u^2", depth=2,
                                          order="lex"), 1)
        sol = product_solution(self.lex_solution(), u)
        assert sol.resolution.order == "lex"
        back = MasterSolution.from_json(sol.to_json())
        assert back.resolution.order == "lex"
        assert back.to_json() == sol.to_json()

    def test_mixed_orders_rejected(self):
        sq = add_square(trivial_solution([], {}), 1)
        with pytest.raises(ValueError, match="monomial orders"):
            product_solution(self.lex_solution(), sq)


class TestShapeChecks:
    """Every matrix a constructor reads has its shape checked: a ragged,
    short or long input raises ValueError, never IndexError, and no entry
    is dropped."""

    Z2 = [[0, 0], [0, 0]]

    @pytest.mark.parametrize("build", [
        lambda z: bundle_solution([[1, 0], [0]], [z], [[z]]),
        lambda z: bundle_solution([[1, 0, 5], [0, 1, 7]], [z], [[z]]),
        lambda z: bundle_solution([[1, 0], [0, 1]], [[[0, 0], [0]]], [[z]]),
        lambda z: bundle_solution([[1, 0], [0, 1]], [z], [[z, z]]),
        lambda z: bundle_solution([[1, 0], [0, 1]], [z], [[[[0, 0]]]]),
        lambda z: faddeev_popov("0", [["1"]], structure=[[[0]]] * 3,
                                coords=["x"]),
        lambda z: faddeev_popov("0", [["1"], ["x"]], structure=[z],
                                coords=["x"]),
        lambda z: faddeev_popov("0", [["1"], ["x"]],
                                structure=[[[0], [0]], [[0], [0]]],
                                coords=["x"]),
        lambda z: faddeev_popov("0", [["1", "0"]], coords=["x"]),
        lambda z: trivial_solution([(-1, 1), (-2, 1)], {-2: [[1, 0]]}),
        lambda z: trivial_solution([(-1, 1), (-2, 1)], {-2: [[1], [0]]}),
    ], ids=["g-ragged", "g-long-rows", "A-ragged", "F-short", "F-entry",
            "structure-long", "structure-short", "structure-entry",
            "action-row", "d_W-columns", "d_W-rows"])
    def test_wrong_shape_raises_value_error(self, build):
        with pytest.raises(ValueError, match="must be"):
            build(self.Z2)


class TestAddSquare:
    def test_appends_quadratic_coordinate(self):
        sol = add_square(trivial_solution([], {}), Fraction(-1, 2))
        assert graded_to_str(sol.S) == "(-1/2*t^2)"
        assert sol.resolution.table.coordinates == ("t",)
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_fresh_names_never_collide(self):
        sol = add_square(add_square(trivial_solution([], {}), 1), 2)
        assert sol.resolution.table.coordinates == ("t", "t2")
        assert graded_to_str(sol.S) == "(t^2 + 2*t2^2)"

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            add_square(trivial_solution([], {}), 0)

    @pytest.mark.parametrize("c", [0.1, 2.0, None, [1]])
    def test_inexact_coefficient_rejected(self, c):
        # Fraction read 0.1 as 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="exact number"):
            add_square(trivial_solution([], {}), c)

    @pytest.mark.parametrize("c,want", [(3, "(3*t^2)"), (Fraction(2, 3), "(2/3*t^2)"),
                                        ("1/10", "(1/10*t^2)"), ("0.1", "(1/10*t^2)")])
    def test_exact_coefficients_kept(self, c, want):
        assert graded_to_str(add_square(trivial_solution([], {}), c).S) == want

    def test_multivalued_action_stays_implicit(self):
        rm = build_resolution(["u"], partials=["u^3"], depth=2)
        mv = solve_master(rm, 1)
        out = add_square(mv, 5)
        assert truncate(out.S, 0).is_zero()
        assert out.resolution.partials[-1] == BasePolynomial.parse(
            "10*t", out.resolution.table.coordinates)


def _reference_reexpress(a, table):
    """The table change product_solution and add_square used before
    transport took it over: coefficients extended to the new
    coordinates, generators remapped by position."""
    old = a.table
    posmap = [table.index.get(n) for n in old.names]
    if any(p is None for p in posmap):
        missing = [n for n, p in zip(old.names, posmap) if p is None]
        raise ValueError(f"generators missing from table: {missing}")
    seen = [p for p in posmap if p is not None]
    if any(x >= y for x, y in zip(seen, seen[1:])):
        raise ValueError("generator order not preserved between tables")
    width = len(table.names)
    out = {}
    for m, c in a.terms.items():
        m2 = [0] * width
        for i, e in enumerate(m):
            if e:
                m2[posmap[i]] = e
        out[tuple(m2)] = c.extend(table.coordinates)
    return GradedPolynomial(table, out)


class TestTransportToLargerTables:
    """transport moves an element to a table with more coordinates and
    generators, as the exact constructors need."""

    @staticmethod
    def solution():
        return solve_master(circle(4), 3)

    @pytest.mark.parametrize("coords", [("x", "y", "t"), ("t", "x", "y"),
                                        ("u", "x", "t", "y")])
    def test_matches_the_reference(self, coords):
        S = self.solution().S
        pairs = []
        for k, pair in enumerate(S.table.pairs):
            pairs += [pair, (f"n{k}s", -2 - k % 2, f"n{k}")]
        for table in (GeneratorTable(coords, S.table.pairs),
                      GeneratorTable(coords, tuple(pairs))):
            moved = transport(S, table)
            assert moved == _reference_reexpress(S, table)
            assert moved.table is table and len(moved.terms) == len(S.terms)

    def test_missing_generator(self):
        S = self.solution().S
        table = GeneratorTable(("x", "y", "t"), S.table.pairs[:-1])
        with pytest.raises(ValueError, match="missing"):
            transport(S, table)

    def test_reordered_generators(self):
        S = self.solution().S
        pairs = S.table.pairs
        table = GeneratorTable(("x", "y", "t"), (pairs[1], pairs[0]) + pairs[2:])
        with pytest.raises(ValueError, match="order not preserved"):
            transport(S, table)

    def test_coordinates_not_contained(self):
        S = self.solution().S
        for coords in (("x",), ("x", "t")):
            with pytest.raises(ValueError, match="coordinate mismatch"):
                transport(S, GeneratorTable(coords, S.table.pairs))


class TestFaddeevPopov:
    SO3_FIELDS = [["0", "-z", "y"], ["z", "0", "-x"], ["-y", "x", "0"]]

    @staticmethod
    def so3_structure():
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = -1
        c[1][0][2] = 1
        c[1][2][0] = -1
        c[2][1][0] = 1
        c[2][0][1] = -1
        c[0][2][1] = 1
        return c

    def test_abelian_rotation(self):
        sol = faddeev_popov("x^2+y^2", [["-y", "x"]], coords=["x", "y"])
        assert graded_to_str(sol.S) == \
            "(x^2 + y^2) + (-x)*ys*b1 + (y)*xs*b1"
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_rotations_of_the_sphere(self):
        sol = faddeev_popov("(x^2+y^2+z^2-1)^2", self.SO3_FIELDS,
                            structure=self.so3_structure(),
                            coords=["x", "y", "z"])
        assert master_residual(sol.resolution, sol.S).is_zero()
        assert graded_to_str(sol.S) == (
            "(x^4 + 2*x^2*y^2 + y^4 + 2*x^2*z^2 + 2*y^2*z^2 + z^4"
            " - 2*x^2 - 2*y^2 - 2*z^2 + 1)"
            " + (x)*zs*b2 + (-y)*zs*b1 + (-x)*ys*b3 + (z)*ys*b1"
            " + (y)*xs*b3 + (-z)*xs*b2"
            " + (1)*bs3*b1*b2 + (-1)*bs2*b1*b3 + (1)*bs1*b2*b3")

    def test_function_valued_structure(self):
        c = [[["0", "0"], ["2*x", "0"]], [["-2*x", "0"], ["0", "0"]]]
        sol = faddeev_popov("0", [["1"], ["x^2"]], structure=c,
                            coords=["x"])
        assert graded_to_str(sol.S) == \
            "(-x^2)*xs*b2 + (-1)*xs*b1 + (-2*x)*bs1*b1*b2"
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_invariance_failure(self):
        with pytest.raises(ValueError, match="invariance failure"):
            faddeev_popov("x^2+y^2", [["y", "x"]], coords=["x", "y"])

    @pytest.mark.parametrize("s0", ["0", 0, Fraction(1, 2)], ids=["str", "int", "Fraction"])
    def test_coords_required_unless_s0_is_a_polynomial(self, s0):
        # only a BasePolynomial names its own coordinates
        with pytest.raises(ValueError, match="coords are required"):
            faddeev_popov(s0, [["1"]])

    @pytest.mark.parametrize("coords", [["x", "y", "z"], ["y", "x"]])
    def test_polynomial_over_other_coordinates_rejected(self, coords):
        s0 = BasePolynomial.parse("x^2+y^2", ("x", "y"))
        with pytest.raises(ValueError) as err:
            faddeev_popov(s0, [["x", "-y", "0"][:len(coords)]], coords=coords)
        assert str(err.value) == (f"polynomial over ('x', 'y') does not match "
                                  f"the coordinates {tuple(coords)}")

    def test_antisymmetry_enforced(self):
        c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        with pytest.raises(ValueError, match="antisymmetric"):
            faddeev_popov("0", [["1"], ["x"]], structure=c, coords=["x"])

    def test_missing_structure_reports_closure_defect(self):
        with pytest.raises(ValueError, match="closure defect"):
            faddeev_popov("(x^2+y^2+z^2-1)^2", self.SO3_FIELDS,
                          coords=["x", "y", "z"])

    def test_non_lie_constants_report_jacobi_defect(self):
        c = [[["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
             [["0", "-1", "0"], ["0", "0", "0"], ["0", "0", "1"]],
             [["0", "0", "0"], ["0", "0", "-1"], ["0", "0", "0"]]]
        with pytest.raises(ValueError, match="Jacobi defect"):
            faddeev_popov("0", [["0"], ["0"], ["0"]], structure=c,
                          coords=["x"])


class TestBundleSolution:
    J = [[0, 1], [-1, 0]]
    NJ = [[0, -1], [1, 0]]
    Z2 = [[0, 0], [0, 0]]

    def test_rank_one_flat(self):
        sol = bundle_solution([[1]], [[[0]]], [[[[0]]]])
        assert graded_to_str(sol.S) == "(1/2*v1^2) + (-1)*y1s*b1"
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_rank_two_transformed_flat(self):
        # frame change h = [[1, y], [0, 1]]: connection h^-1 dh, pairing
        # h^T h
        sol = bundle_solution([[1, "y1"], ["y1", "y1^2+1"]],
                              [[[0, 1], [0, 0]]],
                              [[self.Z2]])
        assert master_residual(sol.resolution, sol.S).is_zero()
        assert graded_to_str(sol.S) == (
            "(1/2*y1^2*v2^2 + y1*v1*v2 + 1/2*v1^2 + 1/2*v2^2)"
            " + (v2)*v1s*b1 + (-1)*y1s*b1")

    def test_curved_abelian_family(self):
        sol = bundle_solution([[1, 0], [0, 1]],
                              [self.Z2, [[0, "y1"], ["-y1", 0]]],
                              [[self.Z2, self.J], [self.NJ, self.Z2]])
        assert master_residual(sol.resolution, sol.S).is_zero()
        assert graded_to_str(sol.S) == (
            "(1/2*v1^2 + 1/2*v2^2) + (-y1*v1)*v2s*b2 + (y1*v2)*v1s*b2"
            " + (-1)*y2s*b2 + (-1)*y1s*b1 + (1)*v1s*v2s*b1*b2")

    def test_bianchi_on_three_base_directions(self):
        sol = bundle_solution(
            [[1, 0], [0, 1]],
            [self.Z2, [[0, "y1"], ["-y1", 0]], [[0, "y2"], ["-y2", 0]]],
            [[self.Z2, self.J, self.Z2],
             [self.NJ, self.Z2, self.J],
             [self.Z2, self.NJ, self.Z2]])
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_degenerate_pairing(self):
        sol = bundle_solution([[0, 0], [0, 0]], [self.Z2, self.Z2],
                              [[self.Z2, self.J], [self.NJ, self.Z2]])
        assert graded_to_str(sol.S) == (
            "(-1)*y2s*b2 + (-1)*y1s*b1 + (1)*v1s*v2s*b1*b2")
        assert master_residual(sol.resolution, sol.S).is_zero()

    def test_orthogonality_violation_named(self):
        with pytest.raises(ValueError, match=r'"\(a\)"'):
            bundle_solution([["y1"]], [[[0]]], [[[[0]]]])

    def test_structure_equation_violation_named(self):
        with pytest.raises(ValueError, match=r'"\(b\)"'):
            bundle_solution([[1, 0], [0, 1]],
                            [self.Z2, self.Z2],
                            [[self.Z2, self.J], [self.NJ, self.Z2]])

    def test_bianchi_violation_named(self):
        f12 = [[0, "y3"], ["-y3", 0]]
        f21 = [[0, "-y3"], ["y3", 0]]
        with pytest.raises(ValueError, match=r'"\(c\)"'):
            bundle_solution([[0, 0], [0, 0]],
                            [self.Z2, self.Z2, self.Z2],
                            [[self.Z2, f12, self.Z2],
                             [f21, self.Z2, self.Z2],
                             [self.Z2, self.Z2, self.Z2]])

    def test_curvature_antisymmetry_enforced(self):
        bad = [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="antisymmetric"):
            bundle_solution([[1, 0], [0, 1]], [self.Z2],
                            [[bad]])

    def test_fiber_coordinate_in_an_entry_refused(self):
        # the identities read entries as functions on the base: A = (v1, 1)
        # passed (a)-(c) and then failed [S, S] = 0 with an AssertionError
        z = [[[0]], [[0]]]
        with pytest.raises(ValueError, match="fiber coordinate v1"):
            bundle_solution([[0]], [[["v1"]], [[1]]], [z, z])
        with pytest.raises(ValueError, match="fiber coordinate v2"):
            bundle_solution([[1, 0], [0, "y1*v2 + 1"]], [self.Z2], [[self.Z2]])

    def test_asymmetric_pairing_refused(self):
        # S0 sees only the symmetric part of g; (a) held for this g and
        # failed for that part, so TateResolution refused the boundaries
        with pytest.raises(ValueError, match="g must be symmetric"):
            bundle_solution([[0, 0], [1, 0]], [[[0, 1], [0, 0]]], [[self.Z2]])


def _reference_bundle_identities(g, A, F):
    """The checks of bundle_solution as they were before the identities
    became matrix equations: index loops, nested up to six deep.  The
    input checks added since, entries over the base only and a symmetric
    g, come first, in the same place."""
    r = len(g)
    m = len(A)
    base = tuple(f"y{k + 1}" for k in range(m))
    fiber = tuple(f"v{k + 1}" for k in range(r))
    coords = base + fiber

    def poly(x):
        p = _poly(x, coords)
        for e in p.terms:
            for v, k in zip(fiber, e[m:]):
                if k:
                    raise ValueError(f"entry {poly_to_str(p)} involves the fiber coordinate "
                                     f"{v}; entries are polynomials in the base coordinates")
        return p

    gmat = _matrix(g, r, r, "g", poly)
    amat = [_matrix(a, r, r, f"A[{mu}]", poly) for mu, a in enumerate(A)]
    fmat = _matrix(F, m, m, "F", lambda f: _matrix(f, r, r, "F[mu][nu]", poly))
    zero = BasePolynomial.zero(coords)
    for i in range(r):
        for j in range(r):
            if gmat[i][j] != gmat[j][i]:
                raise ValueError("g must be symmetric")
    for mu, nu, i, j in itertools.product(range(m), range(m), range(r), range(r)):
        if fmat[mu][nu][i][j] + fmat[nu][mu][i][j] != zero:
            raise ValueError("F must be antisymmetric in the base indices")
        if fmat[mu][nu][i][j] + fmat[mu][nu][j][i] != zero:
            raise ValueError("F must be antisymmetric in the fiber indices")
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


@st.composite
def bundle_data(draw):
    """A pairing, connection and curvature of rank r <= 2 over m <= 3
    base directions.  Entries are 0, a small integer, or a small multiple
    of a y or a v; whole matrices are often 0 (g also the identity), and
    the connection is often a list of multiples of one matrix, whose
    terms commute, so the identities after (a) are reached too.  The
    curvature is antisymmetric unless it is drawn raw."""
    r, m = draw(st.integers(1, 2)), draw(st.sampled_from([1, 2, 3, 3]))
    names = [f"y{k + 1}" for k in range(m)] + [f"v{k + 1}" for k in range(r)]
    entry = st.one_of(st.just("0"), st.integers(-2, 2).map(str),
                      st.builds("{}*{}".format, st.integers(-2, 2),
                                st.sampled_from(names)))
    zero = [["0"] * r for _ in range(r)]
    one = [["1" if i == j else "0" for j in range(r)] for i in range(r)]
    square = st.lists(st.lists(entry, min_size=r, max_size=r),
                      min_size=r, max_size=r)
    g = draw(st.one_of(st.just(zero), st.just(zero), st.just(one), square))
    if draw(st.booleans()):
        A = [draw(st.one_of(st.just(zero), square)) for _ in range(m)]
    else:
        unit = draw(square)
        A = [[[f"({e})*({x})" for x in row] for row in unit]
             for e in draw(st.lists(entry, min_size=m, max_size=m))]
    if draw(st.integers(0, 5)) == 5:
        return g, A, [[draw(square) for _ in range(m)] for _ in range(m)]
    F = [[zero] * m for _ in range(m)]
    for mu, nu in itertools.combinations(range(m), 2):
        f = [[draw(entry) if i < j else "0" for j in range(r)]
             for i in range(r)]
        f = [[f[i][j] if i < j else f"-({f[j][i]})" for j in range(r)]
             for i in range(r)]
        F[mu][nu] = f
        F[nu][mu] = [[f"-({e})" for e in row] for row in f]
    return g, A, F


@settings(max_examples=300, deadline=None)
@given(bundle_data())
def test_bundle_identities_match_the_reference_loops(data):
    # the matrix equations refuse exactly what the loops refused, with
    # the same message; what both accept solves the master equation
    g, A, F = data
    try:
        _reference_bundle_identities(g, A, F)
        want = None
    except ValueError as e:
        want = str(e)
    try:
        sol = bundle_solution(g, A, F)
    except ValueError as e:
        assert str(e) == want
        return
    assert want is None
    assert master_residual(sol.resolution, sol.S).is_zero()


class TestSerialization:
    def test_round_trip(self):
        sol = solve_master(circle(5), 4)
        back = MasterSolution.from_json(sol.to_json())
        assert back.order == sol.order
        assert back.S == transport(sol.S, back.resolution.table)
        assert (back.resolution.to_json_obj()
                == sol.resolution.to_json_obj())

    def test_lex_round_trip_keeps_the_order(self):
        lex = build_resolution(["x", "y"], s0=CIRCLE, depth=4, order="lex")
        sol = solve_master(lex, 3)
        back = MasterSolution.from_json(sol.to_json())
        assert back.resolution.order == "lex"
        assert back.to_json() == sol.to_json()
        assert verify_master(back, 3).ok
        # to depth 4 the circle's two orders give one presentation, so the
        # solutions live on the same resolution
        assert len(gauge_relate(solve_master(circle(4), 3), back, 3)) == 0

    @pytest.mark.parametrize("text, message", [
        ("{}", "solution has no field 'resolution'"),
        ('{"resolution": 5}',
         "solution field 'resolution' must be a JSON object"),
        ('{"resolution": {}}', "solution has no field 'S'"),
        ('{"resolution": {}, "S": 0, "order": 1}',
         "solution field 'S' must be a JSON string"),
        ('{"resolution": {}, "S": "0", "order": "8"}',
         "solution field 'order' must be a JSON integer"),
        ('{"resolution": {}, "S": "0", "order": 8}',
         "resolution has no field 'coords'"),
        ("null", "solution must be a JSON object"),
    ], ids=["empty", "resolution-int", "no-S", "S-int", "order-text",
            "resolution-empty", "null"])
    def test_malformed_field_named(self, text, message):
        with pytest.raises(ValueError) as err:
            MasterSolution.from_json(text)
        assert str(err.value) == message

    def test_json_keys(self):
        sol = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
        obj = sol.to_json_obj()
        assert set(obj) == {"resolution", "S", "order"}


class TestGolden:
    """sha256 of exact outputs, pinned so that a change to any term, sign
    or log line shows up: the circle quartic solved at depth 5, p = 4,
    and its E2 columns 0 and 1 at bound 4; the same solve given only the
    closed partials; the solution and log of each exact constructor."""

    SOLUTION = ("858cf794da142928b967e35ea1545e5c"
                "6452ed530d7d0610e8da885f35e81046")
    LOG = ("9b0fc605f6cc176ed06be4af641d4a74"
           "501c11c7aa058b8da9c4186395b0c463")
    E2 = {0: ("5389c973a3a51d794cba421c91a1bd54"
              "52545984da4a6e80a0b25d1e16c2cb3e"),
          1: ("8b4ede1d96e2a1c213ccaab805312f48"
              "360258fbd0eef98289160780b0f5e1bd")}

    MULTIVALUED_SOLUTION = ("054b51d58b28a31e928842df61187cc1"
                            "d5f8578d9b8cfb78411a6dfe9b564381")
    MULTIVALUED_LOG = ("eb208302f70b64c0442b9270a79a5483"
                       "5a3f96f32f2e611cb3ca16a0af1a1858")

    @staticmethod
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_multivalued_solution(self):
        sol = solve_master(circle_partials(5), 4)
        assert self.sha(sol.to_json()) == self.MULTIVALUED_SOLUTION
        assert self.sha("\n".join(sol.log)) == self.MULTIVALUED_LOG

    def test_circle_solution_and_page(self):
        sol = solve_master(circle(5), 4)
        assert self.sha(sol.to_json()) == self.SOLUTION
        assert self.sha("\n".join(sol.log)) == self.LOG
        for col, want in self.E2.items():
            obj = e2_page(sol, col, 4).to_json_obj()
            assert self.sha(json.dumps(obj, sort_keys=True)) == want

    # the exact constructors: (to_json(), "\n".join(log)) per case
    CONSTRUCTED = {
        "fp_so3": ("a31670e4caf4acb6636faf6c0cc1a4ab"
                   "cde7af57976500befaf08d3470a00abf",
                   "38837d4691d7d5f100e8bda343d1c47e"
                   "7738732a9b10ea98f562aa303aa2d5ec"),
        "fp_function_structure": ("ffea844cee49fcf0efbd241d4093e3a6"
                                  "a8102aa2b9e1c913da5d5801d5663e65",
                                  "585cdb3753b236900732a6d1b59fd2b4"
                                  "59447ca57a81845ff534c310688c07a6"),
        "bundle_curved": ("6825a18f62f9a15e3f7936202c1331be"
                          "4ded817e399dfda8423331986144a26d",
                          "1fab24cb748d8e650bce2db2e898439a"
                          "d9cfeb5a3e73fb10641e279702ff6766"),
        "product_with_square": ("991bd8dd9027ef24535b1fc667e7f342"
                                "82f205f4a84037180249aced23d50849",
                                "7eda4b12292f7e9d739828f3f4d97b40"
                                "cebdd73f3c99ed79576652fd76b42b5f"),
        "square_on_multivalued": ("060f7ecf2d00a6638e2cba57edf144eb"
                                  "d5c1e525ae047f1fa891dc62811ef470",
                                  "15501bf9c3ddf366d3ad165281e96004"
                                  "e11b0948a29dcd7610c49100bb4fa241"),
    }

    @staticmethod
    def construct(case):
        fp, bundle = TestFaddeevPopov, TestBundleSolution
        if case == "fp_so3":
            return faddeev_popov("(x^2+y^2+z^2-1)^2", fp.SO3_FIELDS,
                                 structure=fp.so3_structure(),
                                 coords=["x", "y", "z"])
        if case == "fp_function_structure":
            c = [[["0", "0"], ["2*x", "0"]], [["-2*x", "0"], ["0", "0"]]]
            return faddeev_popov("0", [["1"], ["x^2"]], structure=c,
                                 coords=["x"])
        if case == "bundle_curved":
            return bundle_solution([[1, 0], [0, 1]],
                                   [bundle.Z2, [[0, "y1"], ["-y1", 0]]],
                                   [[bundle.Z2, bundle.J],
                                    [bundle.NJ, bundle.Z2]])
        if case == "product_with_square":
            t1 = trivial_solution([(-1, 1), (-2, 1)], {-2: [[1]]})
            return product_solution(t1, add_square(trivial_solution([], {}), 3))
        return add_square(solve_master(circle_partials(5), 4), 2)

    @pytest.mark.parametrize("case", sorted(CONSTRUCTED))
    def test_exact_constructors(self, case):
        sol = self.construct(case)
        assert (self.sha(sol.to_json()), self.sha("\n".join(sol.log))) \
            == self.CONSTRUCTED[case]
