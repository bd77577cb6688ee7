"""Tests for symmetry presentations, H^0/H^1, the induced bracket, and E2 slices."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import polynomial_engine
from bvkit.polynomial_engine import (
    BasePolynomial,
    groebner_basis,
    lift_membership,
    monomial_key,
    normal_form,
    nullspace,
    poly_to_str,
    rref,
)
from bvkit.graded_algebra import GradedPolynomial, gr_project, graded_to_str
from bvkit.antibracket import bracket
from bvkit.tate import build_resolution
from bvkit.bv_solver import solve_master, trivial_solution
from bvkit import brst
from bvkit.brst import (
    CohomologyReport,
    SymmetryPresentation,
    apply_vector_field,
    e2_page,
    h0,
    h0_bracket,
    h1,
    jacobian_ring,
    koszul_syzygies,
    standard_monomials,
    symmetry_presentation,
    _slice_image,
)

XY = ("x", "y")
WXYZ = ("w", "x", "y", "z")


def poly(s, vars=XY):
    return BasePolynomial.parse(s, vars)


def circle_partials():
    h = poly("x^2 + y^2 - 1")
    return [poly("x") * h, poly("y") * h]


def vec_strs(v):
    return [poly_to_str(c) for c in v]


class TestVectorFields:
    def test_apply_is_derivation(self):
        from bvkit.polynomial_engine import ModuleVector
        t = ModuleVector([poly("y"), poly("-x")])
        f, g = poly("x^2 + y"), poly("x*y - 3")
        lhs = apply_vector_field(t, f * g)
        rhs = apply_vector_field(t, f) * g + f * apply_vector_field(t, g)
        assert lhs == rhs

    def test_mismatched_coordinates_rejected(self):
        from bvkit.polynomial_engine import ModuleVector
        t = ModuleVector([BasePolynomial.parse("1", ("x",))])
        with pytest.raises(ValueError):
            apply_vector_field(t, poly("x"))

    def test_koszul_vectors_annihilate_the_partials(self):
        parts = circle_partials()
        for v in koszul_syzygies(parts):
            acc = BasePolynomial.zero(XY)
            for c, p in zip(v.components, parts):
                acc = acc + c * p
            assert acc.is_zero()


class TestJacobianRing:
    def test_circle_basis(self):
        gb = jacobian_ring(circle_partials())
        assert sorted(poly_to_str(g) for g in gb.elements) == [
            "x^2*y + y^3 - y",
            "x^3 + x*y^2 - x",
        ]

    def test_standard_monomials_count(self):
        gb = jacobian_ring(circle_partials())
        std = standard_monomials(gb, 6)
        assert len(std) == 14
        # descending in the basis order, leading monomials first
        assert std[-1] == (0, 0)

    def test_unit_ideal_has_no_standard_monomials(self):
        gb = jacobian_ring([BasePolynomial.parse("1", ("x",))])
        assert standard_monomials(gb, 5) == []

    def test_wrong_partial_count_rejected(self):
        with pytest.raises(ValueError):
            jacobian_ring([poly("x")])


def _nf_standard_monomials(gb, D):
    """Reference for standard_monomials: monomials equal to their normal form."""
    std = []
    for e in brst._exponents_upto(len(gb.vars), D):
        m = BasePolynomial(gb.vars, {e: Fraction(1)})
        if normal_form(m, gb) == m:
            std.append(e)
    std.sort(key=monomial_key(gb.order), reverse=True)
    return std


# total degree <= 2 keeps every basis small: three random sextics can have a
# lex basis that no exact Buchberger run finishes in reasonable time
_MONO3 = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2)
_POLY3 = st.dictionaries(_MONO3, st.integers(-3, 3).filter(bool), min_size=1, max_size=3).map(
    lambda t: BasePolynomial(("x", "y", "z"), t))


@settings(deadline=None, max_examples=60)
@given(st.lists(_POLY3, min_size=1, max_size=3), st.sampled_from(["grevlex", "lex"]),
       st.integers(0, 6))
def test_standard_monomials_match_the_normal_form_rule(gens, order, D):
    gb = groebner_basis(gens, order)
    assert standard_monomials(gb, D) == _nf_standard_monomials(gb, D)


class TestSymmetryPresentation:
    def test_circle_presentation(self):
        pres = symmetry_presentation(circle_partials())
        assert (pres.r, pres.s) == (1, 1)
        assert [vec_strs(t) for t in pres.tau] == [["y", "-x"]]
        assert [[poly_to_str(c) for c in row] for row in pres.relations] == \
            [["x^2 + y^2 - 1"]]
        assert [{k: poly_to_str(v) for k, v in b.items()}
                for b in pres.bivectors_v] == [{(0, 1): "1"}]
        assert pres.structure_f[0][0][0].is_zero()

    def test_nondegenerate_quadratic_has_no_symmetries(self):
        # rotations of x^2 + y^2 are Koszul, so they are pruned
        parts = [poly("2*x"), poly("2*y")]
        pres = symmetry_presentation(parts)
        assert (pres.r, pres.s) == (0, 0)

    def test_free_line(self):
        parts = [BasePolynomial.zero(("x",))]
        pres = symmetry_presentation(parts)
        assert (pres.r, pres.s) == (1, 0)
        assert vec_strs(pres.tau[0]) == ["1"]
        assert pres.structure_f[0][0][0].is_zero()

    def test_unit_partial(self):
        pres = symmetry_presentation([BasePolynomial.parse("1", ("x",))])
        assert (pres.r, pres.s) == (0, 0)

    def test_certificates_reverified_on_construction(self):
        pres = symmetry_presentation(circle_partials())
        bad = list(pres.relations[0])
        bad[0] = bad[0] + poly("1")
        with pytest.raises(AssertionError):
            SymmetryPresentation(pres.vars, pres.order, pres.partials, pres.tau,
                                 [bad], pres.bivectors_v, pres.structure_f,
                                 pres.correction_g)

    def test_structure_antisymmetry_enforced(self):
        pres = symmetry_presentation(circle_partials())
        with pytest.raises(AssertionError):
            SymmetryPresentation(pres.vars, pres.order, pres.partials, pres.tau,
                                 pres.relations, pres.bivectors_v,
                                 [[[poly("1")]]], pres.correction_g)

    def test_cubic_surface_presentation(self):
        s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", WXYZ)
        parts = [s0.derivative(v) for v in WXYZ]
        pres = symmetry_presentation(parts)
        assert (pres.r, pres.s) == (6, 12)
        for t in pres.tau:
            moved = BasePolynomial.zero(WXYZ)
            for c, p in zip(t.components, parts):
                moved = moved + c * p
            assert moved.is_zero()


class TestH0:
    def test_circle_invariants_at_six(self):
        rep = h0(circle_partials(), 6)
        assert rep.dim == 2
        assert [poly_to_str(b) for b in rep.basis] == ["x^2 + y^2", "1"]
        assert rep.stable

    def test_invariants_are_exact(self):
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        gb = jacobian_ring(parts)
        rep = h0(parts, 6, presentation=pres)
        for b in rep.basis:
            moved = apply_vector_field(pres.tau[0], b)
            assert normal_form(moved, gb).is_zero()

    def test_no_symmetries_means_whole_slice(self):
        # J = k for x^2 + y^2, so the invariants are the constants
        rep = h0([poly("2*x"), poly("2*y")], 4)
        assert rep.dim == 1
        assert poly_to_str(rep.basis[0]) == "1"
        assert rep.stable

    def test_single_morse_point(self):
        rep = h0([BasePolynomial.parse("2*x", ("x",))], 3)
        assert rep.dim == 1 and rep.stable

    def test_unit_ideal_kills_everything(self):
        for D in (0, 1, 4):
            rep = h0([BasePolynomial.parse("1", ("x",))], D)
            assert rep.dim == 0 and rep.basis == [] and rep.stable

    def test_free_line_invariants_are_constants(self):
        rep = h0([BasePolynomial.zero(("x",))], 3)
        assert rep.dim == 1
        assert poly_to_str(rep.basis[0]) == "1"

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            h0(circle_partials(), -1)

    def test_json_shape(self):
        obj = h0(circle_partials(), 6).to_json_obj()
        assert sorted(obj) == ["basis", "bound", "dim", "p", "stable"]
        assert obj["p"] == 0 and obj["dim"] == 2
        assert obj["basis"] == ["x^2 + y^2", "1"]


class TestH1:
    def test_circle_class_at_six(self):
        rep = h1(circle_partials(), 6)
        assert rep.dim == 1
        assert [vec_strs(gs) for gs in rep.basis] == [["y^2"]]
        assert rep.stable

    def test_representative_satisfies_both_conditions(self):
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        gb = jacobian_ring(parts)
        (g,) = h1(parts, 6, presentation=pres).basis[0]
        # one generator: the commutator condition is vacuous, the relation is not
        assert normal_form(pres.relations[0][0] * g, gb).is_zero()

    def test_class_misses_the_naive_constant(self):
        # (1) is not a cocycle on the nose: h * 1 is nonzero in the quotient
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        gb = jacobian_ring(parts)
        assert not normal_form(pres.relations[0][0], gb).is_zero()
        # but 1 + h is, and it lands in the nontrivial class
        lifted = poly("x^2 + y^2")
        assert normal_form(pres.relations[0][0] * lifted, gb).is_zero()

    def test_no_symmetries_no_cohomology(self):
        rep = h1([poly("2*x"), poly("2*y")], 4)
        assert rep.dim == 0 and rep.basis == [] and rep.stable

    def test_free_line_has_no_h1(self):
        # tau = d/dx on k[x]: every slice monomial is a boundary, but the
        # inputs producing them live one degree above the bound
        parts = [BasePolynomial.zero(("x",))]
        for D in (0, 2, 5):
            rep = h1(parts, D)
            assert rep.dim == 0 and rep.stable

    def test_unit_ideal(self):
        rep = h1([BasePolynomial.parse("1", ("x",))], 3)
        assert rep.dim == 0 and rep.stable

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            h1(circle_partials(), -1)

    def test_json_round_trip(self):
        obj = h1(circle_partials(), 6).to_json_obj()
        assert obj == {"p": 1, "bound": 6, "dim": 1,
                       "basis": [["y^2"]], "stable": True}


@pytest.mark.parametrize("group", [h0, h1])
def test_presentation_of_another_action_rejected(group):
    # trusting it would give h0 dim 14 (not 2) and h1 dim 0 (not 1)
    other = symmetry_presentation([poly("x^2 - 1"), poly("y")])
    with pytest.raises(ValueError):
        group(circle_partials(), 6, presentation=other)


@pytest.fixture(scope="module")
def cubic_surface():
    s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", WXYZ)
    parts = [s0.derivative(v) for v in WXYZ]
    pres = symmetry_presentation(parts)
    gb = jacobian_ring(parts)
    reports = {D: h0(parts, D, presentation=pres) for D in (11, 12, 13)}
    return parts, pres, gb, reports


class TestCubicSurfaceH0:
    def test_dimensions_grow_with_the_bound(self, cubic_surface):
        _parts, _pres, _gb, reports = cubic_surface
        dims = [reports[D].dim for D in (11, 12, 13)]
        assert dims == [31, 34, 37]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert not reports[11].stable

    def test_modular_invariants_in_the_span(self, cubic_surface):
        _parts, _pres, gb, reports = cubic_surface
        span = reports[11].basis
        w3 = BasePolynomial.parse("(w^3 - 1)^2", WXYZ)
        for m in ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"):
            f = w3 * BasePolynomial.parse(m, WXYZ)
            assert _in_span(f, span, gb)


def _in_span(f, basis, gb):
    nf = normal_form(f, gb)
    cols = {}
    rows = []
    for b in basis:
        for e in b.terms:
            cols.setdefault(e, len(cols))
        rows.append(b)
    for e in nf.terms:
        cols.setdefault(e, len(cols))
    red, piv = rref([{cols[e]: c for e, c in b.terms.items()} for b in rows])
    t = {cols[e]: c for e, c in nf.terms.items()}
    for row, pc in zip(red, piv):
        if t.get(pc):
            c = t[pc]
            t = {k: t.get(k, 0) - c * row.get(k, 0) for k in t.keys() | row.keys()}
    return all(a == 0 for a in t.values())


class TestBracket:
    def test_constant_brackets_to_zero(self):
        pres = symmetry_presentation(circle_partials())
        out = h0_bracket(poly("1"), poly("x^2 + y^2"), pres)
        assert all(c.is_zero() for c in out)

    def test_invariant_pair_on_the_circle(self):
        # both arguments sit in the class of 1 + h; the bracket class vanishes
        pres = symmetry_presentation(circle_partials())
        f = poly("x^2 + y^2")
        out = h0_bracket(f, f, pres)
        assert all(c.is_zero() for c in out)

    def test_symmetric_in_its_arguments(self):
        pres = symmetry_presentation(circle_partials())
        h = poly("x^2 + y^2 - 1")
        f = poly("x^2 + y^2") + poly("x") * h
        g = poly("x^2 + y^2") + poly("y") * h
        assert h0_bracket(f, g, pres) == h0_bracket(g, f, pres)

    def test_lift_independent(self):
        # shifting an argument by an ideal element cannot move the class
        pres = symmetry_presentation(circle_partials())
        parts = circle_partials()
        f = poly("x^2 + y^2")
        g = poly("x^2 + y^2") + poly("x") * parts[0]
        assert h0_bracket(f, f, pres) == h0_bracket(g, g, pres)

    def test_non_invariant_input_rejected(self):
        pres = symmetry_presentation(circle_partials())
        with pytest.raises(ValueError):
            h0_bracket(poly("x"), poly("1"), pres)

    def test_each_boundary_space_built_once(self, monkeypatch):
        # the lift check and the result share the bound-1 space
        built = []
        real = brst._boundary_space

        def spy(pres, gb, D):
            built.append(D)
            return real(pres, gb, D)

        monkeypatch.setattr(brst, "_boundary_space", spy)
        pres = symmetry_presentation(circle_partials())
        h0_bracket(poly("1"), poly("x^2 + y^2"), pres)
        assert sorted(built) == [0, 1]

    def test_one_basis_of_the_partials_per_call(self, monkeypatch):
        # every lift of tau_i(f) and tau_i(g), for both lifts of f, divides
        # against one tracked basis; the Jacobian ring is the other build
        pres = symmetry_presentation(circle_partials())
        h = poly("x^2 + y^2 - 1")
        f = poly("x^2 + y^2") + poly("x") * h
        g = poly("x^2 + y^2") + poly("y") * h
        tracked, reduced = [], []
        real_init = polynomial_engine._Engine.__init__
        real_gb = brst.groebner_basis

        def spy_init(self, *args, **kwargs):
            tracked.append(kwargs.get("track", False))
            real_init(self, *args, **kwargs)

        def spy_gb(*args):
            reduced.append(args)
            return real_gb(*args)

        monkeypatch.setattr(polynomial_engine._Engine, "__init__", spy_init)
        monkeypatch.setattr(brst, "groebner_basis", spy_gb)
        h0_bracket(f, g, pres)
        assert sum(tracked) - len(reduced) == 1

    def test_no_symmetries_gives_empty_tuple(self):
        pres = symmetry_presentation([poly("2*x"), poly("2*y")])
        assert h0_bracket(poly("1"), poly("1"), pres) == []

    def test_matches_the_antibracket_projection(self):
        # lift f to F = f - xi^k x*_k b, likewise g; the weight-one layer of
        # [F, G] recovers -(xi(g) + eta(f)) b on the nose
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        h = poly("x^2 + y^2 - 1")
        f = poly("x^2 + y^2") + poly("x") * h
        g = poly("x^2 + y^2") + poly("y") * h
        xi = lift_membership(apply_vector_field(pres.tau[0], f), parts).coefficients
        eta = lift_membership(apply_vector_field(pres.tau[0], g), parts).coefficients
        assert vec_strs(xi) == ["0", "1"]
        assert vec_strs(eta) == ["-1", "0"]

        res = build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=2)
        table = res.table

        def cochain(scalar, lift):
            out = GradedPolynomial.from_scalar(table, scalar)
            for k, name in enumerate(XY):
                if lift[k].is_zero():
                    continue
                m = [0] * len(table.names)
                m[table.index[name + "s"]] = 1
                m[table.index["b1"]] = 1
                out = out - GradedPolynomial.monomial(table, tuple(m), lift[k])
            return out

        br = gr_project(bracket(cochain(f, xi), cochain(g, eta)), 1)
        m = [0] * len(table.names)
        m[table.index["b1"]] = 1
        coeff = br.terms[tuple(m)]
        expected = apply_vector_field(xi, g) + apply_vector_field(eta, f)
        assert coeff == -expected
        assert len(br.terms) == 1


@pytest.fixture(scope="module")
def solution():
    res = build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=3)
    return solve_master(res, p_max=2)


class TestE2Page:
    def test_column_zero_matches_h0(self, solution):
        rep = e2_page(solution, 0, 6)
        direct = h0(circle_partials(), 6)
        assert rep.dim == direct.dim == 2
        assert [graded_to_str(b) for b in rep.basis] == ["(x^2 + y^2)", "(1)"]
        assert rep.stable

    def test_column_one_matches_h1(self, solution):
        rep = e2_page(solution, 1, 6)
        direct = h1(circle_partials(), 6)
        assert rep.dim == direct.dim == 1
        assert [graded_to_str(b) for b in rep.basis] == ["(y^2)*b1"]
        assert rep.stable

    def test_negative_column_is_empty(self, solution):
        rep = e2_page(solution, -1, 4)
        assert rep.dim == 0 and rep.basis == []

    def test_insufficient_order_rejected(self, solution):
        with pytest.raises(ValueError):
            e2_page(solution, solution.order, 3)

    def test_negative_bound_rejected(self, solution):
        with pytest.raises(ValueError):
            e2_page(solution, 0, -2)

    def test_json_uses_graded_strings(self, solution):
        obj = e2_page(solution, 1, 6).to_json_obj()
        assert obj["basis"] == ["(y^2)*b1"] and obj["p"] == 1

    def test_morse_point_page(self):
        res = build_resolution(["x"], s0="x^2", depth=2)
        sol = solve_master(res, p_max=1)
        rep = e2_page(sol, 0, 4)
        assert rep.dim == 1
        assert graded_to_str(rep.basis[0]) == "(1)"


class TestDegenerateAction:
    # S0 = x has no critical points at all
    def test_everything_vanishes(self):
        parts = [BasePolynomial.parse("1", ("x",))]
        for D in (0, 2, 5):
            assert h0(parts, D).dim == 0
            assert h1(parts, D).dim == 0


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=5))
def test_invariants_nest_as_the_bound_grows(D):
    parts = circle_partials()
    pres = symmetry_presentation(parts)
    gb = jacobian_ring(parts)
    small = h0(parts, D, presentation=pres)
    big = h0(parts, D + 1, presentation=pres)
    assert small.dim <= big.dim
    for b in small.basis:
        assert _in_span(b, big.basis, gb)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-2, max_value=2))
def test_bracket_bilinear_shifts(a, b, c):
    # B(f, g + c) = B(f, g) for constants c, and scaling f scales the class
    pres = symmetry_presentation(circle_partials())
    h = poly("x^2 + y^2 - 1")
    f = poly("x^2 + y^2") * Fraction(a) + poly("x") * h
    g = poly("x^2 + y^2") * Fraction(b) + poly("y") * h
    base = h0_bracket(f, g, pres)
    shifted = h0_bracket(f, g + poly(str(c)), pres)
    assert base == shifted


def _dense_slice_image(images, low):
    """Reference for _slice_image: dense columns, the keys of low first,
    high columns eliminated by one nullspace."""
    cols = dict(low)
    for img in images:
        for k in img:
            cols.setdefault(k, len(cols))
    nlow = len(low)
    dense = []
    for img in images:
        v = [Fraction(0)] * len(cols)
        for k, c in img.items():
            v[cols[k]] = c
        dense.append(v)
    if len(cols) > nlow:
        combos = nullspace([dict(enumerate(v[nlow:])) for v in dense])
        inslice = [[sum(co.get(k, 0) * dense[k][i] for k in range(len(dense)))
                    for i in range(nlow)] for co in combos]
    else:
        inslice = [v[:nlow] for v in dense]
    return rref([dict(enumerate(w)) for w in inslice])


_KEYS = st.integers(min_value=0, max_value=7)
_IMAGE = st.dictionaries(_KEYS, st.integers(min_value=-3, max_value=3)
                         .filter(bool).map(Fraction), max_size=5)


@settings(deadline=None, max_examples=200)
@given(st.lists(_IMAGE, max_size=7), st.lists(_KEYS, unique=True))
def test_slice_image_matches_dense_elimination(images, slice_keys):
    low = {k: i for i, k in enumerate(slice_keys)}
    assert _slice_image(images, low) == _dense_slice_image(images, low)


class TestGolden:
    """sha256 of exact cohomology slices, pinned so that a change to any
    term or sign shows up: circle h0 and h1 at bound 6, the cubic cone's
    h0 at bound 6 and h1 at bound 2 (r = 3, s = 10: structure functions
    and relations both enter the cocycle conditions) and one trivial
    solution."""

    CIRCLE = {h0: ("a7e283892e11202184e301d673e9478c"
                   "8b3c2797b3263ae75553054506ce9790"),
              h1: ("0433a7486c98906145e27189ecfba917"
                   "aa6b3db1f3c268f409e9adfc4012fff9")}
    CUBIC_H0 = ("c1ecae196eb43d966585d3c261d75cfa"
                "18ebe0e7691d266ea7aed4ef985217b4")
    CUBIC_H1 = ("fb0d896e4c7f3d31b8c621ce4904ecea"
                "a271e60780785a8a29fee7c597f69c46")
    TRIVIAL = ("9b860ade5eb6dc916a8e6bdea65dd4c0"
               "1e73459d18c1b7a953ac9c92dbf77049")

    @staticmethod
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def report_sha(self, rep):
        return self.sha(json.dumps(rep.to_json_obj(), sort_keys=True))

    @staticmethod
    def cubic_partials():
        coords = ("x", "w", "y", "z")
        s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", coords)
        return [s0.derivative(v) for v in coords]

    def test_circle_h0_and_h1(self):
        for group, want in self.CIRCLE.items():
            assert self.report_sha(group(circle_partials(), 6)) == want

    def test_cubic_cone_h0(self):
        rep = h0(self.cubic_partials(), 6)
        assert rep.dim == 16
        assert self.report_sha(rep) == self.CUBIC_H0

    def test_cubic_cone_h1(self):
        rep = h1(self.cubic_partials(), 2)
        assert rep.dim == 3
        assert self.report_sha(rep) == self.CUBIC_H1

    def test_trivial_solution(self):
        sol = trivial_solution([(-1, 1), (-2, 2), (-3, 1)],
                               {-2: [[1, 0]], -3: [[0], [1]]})
        assert self.sha(sol.to_json()) == self.TRIVIAL
