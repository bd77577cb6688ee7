"""Tests for symmetry presentations, H^0/H^1, the induced bracket, and E2 slices."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import elimination, polynomial_engine
from bvkit.elimination import _axpy, _cleared, reduce_row
from bvkit.polynomial_engine import (
    BasePolynomial,
    ModuleBasis,
    ModuleVector,
    _monomial_mul,
    _monomial_nf,
    groebner_basis,
    lift_membership,
    monomial_key,
    normal_form,
    poly_to_str,
    syzygy_basis,
)
from bvkit.graded_algebra import GradedPolynomial, gr_project, graded_to_str
from bvkit.antibracket import _bracket_factors, bracket
from bvkit.tate import _graded_monomials, build_resolution, negative_monomials
from bvkit.bv_solver import MasterSolution, solve_master, trivial_solution
from bvkit import brst, bv_solver
from bvkit.brst import (
    CohomologyReport,
    SymmetryPresentation,
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
from reference_derivatives import apply_vector_field
from reference_elimination import (
    _dense_rref,
    _reference_nullspace,
    _reference_reduce_row,
    _reference_rref,
    _rref_of,
    _typed,
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
        t = ModuleVector([poly("y"), poly("-x")])
        f, g = poly("x^2 + y"), poly("x*y - 3")
        lhs = apply_vector_field(t, f * g)
        rhs = apply_vector_field(t, f) * g + f * apply_vector_field(t, g)
        assert lhs == rhs

    def test_mismatched_coordinates_rejected(self):
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


def _exponents_upto(n, D):
    """Exponents of length n and total degree <= D, ascending in lex."""
    out = [()]
    for _ in range(n):
        out = [p + (k,) for p in out for k in range(D - sum(p) + 1)]
    return out


def _reference_standard_monomials(gb, D):
    """standard_monomials before it grew the order ideal: every exponent
    of degree <= D, kept when no leading term divides it."""
    leads = [g.leading(gb.order)[0] for g in gb.elements]
    std = [e for e in _exponents_upto(len(gb.vars), D)
           if not any(all(a <= b for a, b in zip(lt, e)) for lt in leads)]
    std.sort(key=monomial_key(gb.order), reverse=True)
    return std


def _layered_standard_monomials(gb, D):
    """standard_monomials before it grew each degree by divisor closure:
    the degree-(k + 1) candidates are the standard degree-k exponents
    times a variable, each tested against every leading term."""
    leads = [g.leading(gb.order)[0] for g in gb.elements]
    n = len(gb.vars)
    std: list = []
    layer = [(0,) * n]
    for k in range(D + 1):
        if k:
            layer = {e[:i] + (e[i] + 1,) + e[i + 1:] for e in layer for i in range(n)}
        layer = [e for e in layer
                 if not any(all(a <= b for a, b in zip(lt, e)) for lt in leads)]
        std += layer
    std.sort(key=monomial_key(gb.order), reverse=True)
    return std


def _nf_standard_monomials(gb, D):
    """Reference for standard_monomials: monomials equal to their normal form."""
    std = []
    for e in _exponents_upto(len(gb.vars), D):
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
    std = standard_monomials(gb, D)
    assert std == _nf_standard_monomials(gb, D)
    assert std == _reference_standard_monomials(gb, D)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("action", ["circle", "cubic"])
def test_standard_monomials_match_the_enumerating_reference(action, order):
    if action == "circle":
        parts, bounds = circle_partials(), range(12)
    else:
        s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", WXYZ)
        parts, bounds = [s0.derivative(v) for v in WXYZ], (0, 1, 5, 15)
    gb = jacobian_ring(parts, order)
    for D in bounds:
        assert standard_monomials(gb, D) == _reference_standard_monomials(gb, D)


@settings(deadline=None, max_examples=60)
@given(st.lists(_POLY3, min_size=1, max_size=3), st.sampled_from(["grevlex", "lex"]),
       st.integers(-1, 6))
def test_standard_monomials_match_the_layered_reference(gens, order, D):
    gb = groebner_basis(gens, order)
    assert standard_monomials(gb, D) == _layered_standard_monomials(gb, D)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("action", ["circle", "cubic"])
def test_divisor_closure_matches_the_layered_reference(action, order):
    if action == "circle":
        parts = circle_partials()
    else:
        s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", WXYZ)
        parts = [s0.derivative(v) for v in WXYZ]
    gb = jacobian_ring(parts, order)
    for D in range(16):
        assert standard_monomials(gb, D) == _layered_standard_monomials(gb, D)


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

    def test_tau_off_the_annihilator_rejected(self):
        pres = symmetry_presentation(circle_partials())
        t = pres.tau[0]
        bad = ModuleVector([t[0] + poly("1"), t[1]])
        with pytest.raises(AssertionError, match="tau does not annihilate dS0"):
            SymmetryPresentation(pres.vars, pres.order, pres.partials, [bad],
                                 pres.relations, pres.bivectors_v, pres.structure_f,
                                 pres.correction_g)

    def test_unresolved_commutator_rejected(self):
        # the free plane: tau = (d_y, d_x) commute, so f_01^0 = 1 leaves -tau_0
        pres = symmetry_presentation([BasePolynomial.zero(XY)] * 2)
        assert pres.r == 2
        f = [[list(row) for row in plane] for plane in pres.structure_f]
        f[0][1][0] = f[0][1][0] + poly("1")
        f[1][0][0] = f[1][0][0] - poly("1")
        with pytest.raises(AssertionError, match=r"commutator \(0,1\) is not resolved"):
            SymmetryPresentation(pres.vars, pres.order, pres.partials, pres.tau,
                                 pres.relations, pres.bivectors_v, f, pres.correction_g)

    def test_structure_antisymmetry_enforced(self):
        pres = symmetry_presentation(circle_partials())
        with pytest.raises(AssertionError):
            SymmetryPresentation(pres.vars, pres.order, pres.partials, pres.tau,
                                 pres.relations, pres.bivectors_v,
                                 [[[poly("1")]]], pres.correction_g)

    def test_checks_survive_python_O(self):
        # python -O strips assert statements; the certificate checks must not go with them
        code = textwrap.dedent("""
            import sys
            from bvkit.brst import SymmetryPresentation, symmetry_presentation
            from bvkit.polynomial_engine import BasePolynomial, ModuleVector
            xy = ("x", "y")
            h = BasePolynomial.parse("x^2 + y^2 - 1", xy)
            pres = symmetry_presentation([BasePolynomial.parse("x", xy) * h,
                                          BasePolynomial.parse("y", xy) * h])
            bad = ModuleVector([BasePolynomial.parse("y + 1", xy),
                                BasePolynomial.parse("-x", xy)])
            print(sys.flags.optimize, flush=True)
            SymmetryPresentation(pres.vars, pres.order, pres.partials, [bad],
                                 pres.relations, pres.bivectors_v, pres.structure_f,
                                 pres.correction_g)
            """)
        src = os.path.dirname(os.path.dirname(brst.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["1"]
        assert out.returncode != 0
        assert ("AssertionError: presentation certificate failed: "
                "tau does not annihilate dS0") in out.stderr

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


    def test_report_reads_its_dimension_off_the_basis(self):
        # dim was passed next to the basis, and could disagree with it
        basis = [poly("1"), poly("x^2 + y^2")]
        rep = CohomologyReport(0, 4, basis, True)
        assert rep.dim == 2 and rep.to_json_obj()["dim"] == 2
        assert repr(rep) == "CohomologyReport(p=0, bound=4, dim=2, stable=True)"
        with pytest.raises(TypeError):
            CohomologyReport(0, 4, 3, basis, True)


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

    @pytest.mark.parametrize("partials, gs, condition", [
        # the free plane: tau_0(g_1) - tau_1(g_0) = -d_x(x) = -1
        ([BasePolynomial.zero(XY)] * 2, ("x", "0"), "its commutator condition"),
        # the circle: the relation x^2 + y^2 - 1 times 1 is off the ideal
        (circle_partials(), ("1",), "a relation condition"),
    ])
    def test_non_cocycle_rejected(self, partials, gs, condition):
        pres = symmetry_presentation(partials)
        with pytest.raises(AssertionError, match=f"one-cocycle fails {condition}"):
            brst._h1_check_exact(pres, jacobian_ring(partials), [poly(g) for g in gs])

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


def _reference_prune(vectors, spanned, order):
    """_prune's loop before ModuleBasis.absorb: each kept vector is made
    monic and joins spanned before the next one is tried."""
    kept = []
    for v in sorted(vectors, key=lambda v: brst._vec_sort_key(v, order)):
        if v.is_zero() or spanned.lift(v) is not None:
            continue
        kept.append(brst._monic(v, order))
        spanned.add(kept[-1])
    return kept


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("action", ["circle", "cubic"])
def test_prune_matches_the_reference_loop(action, order, cubic_surface):
    # both prunes of symmetry_presentation: the syzygies of the partials
    # against the Koszul span, then the relation candidates against the
    # pure Koszul relations
    parts = circle_partials() if action == "circle" else cubic_surface[0]
    kosz = koszul_syzygies(parts)
    syz = syzygy_basis(parts, order)
    tau = brst._prune(syz, ModuleBasis(kosz, order), order)
    assert tau and tau == _reference_prune(syz, ModuleBasis(kosz, order), order)
    second = syzygy_basis(tau + kosz, order)
    pure = [v for v in second if all(c.is_zero() for c in v.components[:len(tau)])]
    cands = [v for v in second if v not in pure]
    kept = brst._prune(cands, ModuleBasis(pure, order), order)
    assert kept == _reference_prune(cands, ModuleBasis(pure, order), order)
    if action == "cubic":
        # 19 syzygies keep 6 generators and 18 candidates keep 12 relations
        assert (len(tau), len(kept)) == (6, 12) and (len(syz), len(cands)) == (19, 18)


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


class TestH0OneImageSet:
    def test_one_image_set_per_report(self, cubic_surface, monkeypatch):
        # the bound-D slice is the low-degree part of the D + 1 image set
        parts, pres, gb, _reports = cubic_surface
        asked = []
        real = brst._tau_images

        def spy(pres, gb, exps):
            asked.append(len(exps))
            return real(pres, gb, exps)

        monkeypatch.setattr(brst, "_tau_images", spy)
        h0(parts, 6, presentation=pres)
        assert asked == [len(standard_monomials(gb, 7))]

    @pytest.mark.parametrize("D", range(2, 7))
    def test_circle_stable_compares_with_the_next_bound(self, D):
        a, b = h0(circle_partials(), D), h0(circle_partials(), D + 1)
        assert a.stable == (a.dim == b.dim)

    @pytest.mark.parametrize("D", range(4, 8))
    def test_cubic_stable_compares_with_the_next_bound(self, cubic_surface, D):
        parts, pres, _gb, _reports = cubic_surface
        a, b = (h0(parts, d, presentation=pres) for d in (D, D + 1))
        assert a.stable == (a.dim == b.dim)


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
    red, piv = _reference_rref([{cols[e]: c for e, c in b.terms.items()} for b in rows])
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
        # against the Jacobian ring's own tracked basis, the one build
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
        assert sum(tracked) - len(reduced) == 0

    def test_no_symmetries_gives_empty_tuple(self):
        pres = symmetry_presentation([poly("2*x"), poly("2*y")])
        assert h0_bracket(poly("1"), poly("1"), pres) == []

    def test_inputs_are_read_over_the_presentation_coordinates(self):
        pres = symmetry_presentation(circle_partials())
        assert (h0_bracket("x^2+y^2", 1, pres)
                == h0_bracket(poly("x^2 + y^2"), poly("1"), pres))

    def test_no_symmetries_still_reads_its_inputs(self):
        # r = 0 returns no value, but an input over other coordinates is
        # an error there as everywhere else
        pres = symmetry_presentation([poly("2*x"), poly("2*y")])
        other = BasePolynomial.parse("1", ("u", "v"))
        with pytest.raises(ValueError, match="does not match the coordinates"):
            h0_bracket(other, poly("1"), pres)
        with pytest.raises(ValueError, match="cannot read list"):
            h0_bracket(poly("1"), [], pres)

    def test_matches_the_antibracket_projection(self):
        # lift f to F = f - xi^k x*_k b, likewise g; the weight-one layer of
        # [F, G] recovers -(xi(g) + eta(f)) b on the nose
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        h = poly("x^2 + y^2 - 1")
        f = poly("x^2 + y^2") + poly("x") * h
        g = poly("x^2 + y^2") + poly("y") * h
        xi = lift_membership(apply_vector_field(pres.tau[0], f), parts)
        eta = lift_membership(apply_vector_field(pres.tau[0], g), parts)
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


class TestPartialsMustBePolynomials:
    """Every entry point that takes the partials names an entry that is
    not a BasePolynomial, instead of failing on its missing attributes."""

    def test_h0(self):
        with pytest.raises(ValueError, match=r"partial 0 is str '2\*x', not a BasePolynomial"):
            h0(["2*x", "2*y"], 2)

    def test_symmetry_presentation(self):
        with pytest.raises(ValueError, match=r"partial 0 is str '2\*x'"):
            symmetry_presentation(["2*x"])

    def test_jacobian_ring(self):
        with pytest.raises(ValueError, match="partial 0 is str 'x'"):
            jacobian_ring(["x"])

    def test_koszul_syzygies(self):
        with pytest.raises(ValueError, match="partial 0 is int 2"):
            koszul_syzygies([2])

    def test_a_later_entry_is_named(self):
        with pytest.raises(ValueError, match="partial 1 is Fraction"):
            h1([poly("2*x"), Fraction(1, 2)], 2)


def _reference_hamiltonian_lift(pres, partials, f):
    """brst._hamiltonian_lift before the Jacobian ring lifted: each
    tau_i(f) applied field by field and lifted against a ModuleBasis of
    the partials."""
    lifts = []
    for i, t in enumerate(pres.tau):
        xi = partials.lift(apply_vector_field(t, f))
        if xi is None:
            raise ValueError(
                f"h0_bracket input is not an exact invariant: generator {i} "
                "moves it off the ideal of the partials")
        lifts.append(xi)
    return lifts


def _reference_raw_bracket(pres, gb, partials, f, g):
    xi = _reference_hamiltonian_lift(pres, partials, f)
    eta = _reference_hamiltonian_lift(pres, partials, g)
    return [normal_form(apply_vector_field(x, g) + apply_vector_field(e, f), gb)
            for x, e in zip(xi, eta)]


def _reference_h0_bracket(f, g, pres, raws=None):
    """h0_bracket before one gradient per polynomial: a second tracked
    basis, ModuleBasis(pres.partials), next to the ring, both lifts of
    g made twice, and f and g differentiated once per field.  raws, if
    given, collects the two unreduced values."""
    if pres.r == 0:
        return []
    gb = pres._ring(pres.order)
    partials = ModuleBasis(pres.partials, pres.order)
    raw = _reference_raw_bracket(pres, gb, partials, f, g)
    bound = max(0, max(p.total_degree() for p in raw))
    shifted = _reference_raw_bracket(pres, gb, partials, f + pres.partials[0], g)
    if raws is not None:
        raws += [raw, shifted]
    common = max(bound, max((p.total_degree() for p in shifted), default=-1), 0)
    spaces = {b: brst._boundary_space(pres, gb, b) for b in {common, bound}}
    left = brst._class_reduce(pres, spaces[common], raw)
    right = brst._class_reduce(pres, spaces[common], shifted)
    for a, b in zip(left, right):
        if a != b:
            raise AssertionError("bracket class depends on the chosen lift")
    return brst._class_reduce(pres, spaces[bound], raw)


class TestBracketMatchesTheReference:
    """Lifts against the ring differ from those against a second basis by
    syzygies of the partials, which move an invariant into the ideal, so
    every normal form and class is the reference's, term for term."""

    def test_cubic_pairs(self, cubic_surface):
        # the first eight invariants at bound 6: all 36 classes are nonzero
        parts, pres, _gb, _reports = cubic_surface
        inv = h0(parts, 6, presentation=pres).basis[:8]
        for i in range(8):
            for j in range(i, 8):
                got = h0_bracket(inv[i], inv[j], pres)
                assert got == _reference_h0_bracket(inv[i], inv[j], pres)
                assert not all(c.is_zero() for c in got)

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("s0", ["(x^2+y^2-1)^2/4", "x^2*y^2"])
    def test_circle_and_square_pairs_both_ways(self, s0, order, monkeypatch):
        # the unreduced values too, which h0_bracket makes through _raw_bracket
        raws = []
        real = brst._raw_bracket

        def spy(*args):
            raws.append(real(*args))
            return raws[-1]

        monkeypatch.setattr(brst, "_raw_bracket", spy)
        parts = [poly(s0).derivative(v) for v in XY]
        pres = symmetry_presentation(parts, order)
        inv = h0(parts, 4, order, pres).basis
        # representatives off the normal form give nonzero unreduced values
        fs = inv + [inv[0] + poly("x") * parts[0], inv[0] + poly("x^2") * parts[1]]
        expected = []
        for f in fs:
            for g in fs:
                assert h0_bracket(f, g, pres) == _reference_h0_bracket(f, g, pres, expected)
        assert raws == expected
        assert any(not c.is_zero() for raw in raws for c in raw)

    def test_one_gradient_per_polynomial_and_no_engine(self, cubic_surface, monkeypatch):
        # warm presentation: the ring is built, so a call builds no engine
        # and differentiates f, g and f + d_1 S0 once each
        parts, pres, _gb, _reports = cubic_surface
        f, g = h0(parts, 6, presentation=pres).basis[:2]
        h0_bracket(f, g, pres)
        grads, engines = [], []
        real_gradient = brst._gradient
        real_init = polynomial_engine._Engine.__init__

        def spy_gradient(p):
            grads.append(p)
            return real_gradient(p)

        def spy_init(self, *args, **kwargs):
            engines.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(brst, "_gradient", spy_gradient)
        monkeypatch.setattr(polynomial_engine._Engine, "__init__", spy_init)
        h0_bracket(f, g, pres)
        assert grads == [f, g, f + parts[0]]
        assert engines == []


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

    def test_negative_column_rejected(self, solution):
        # it returned a column -1 report, of dim 0 and stable
        with pytest.raises(ValueError, match="column p must be >= 0"):
            e2_page(solution, -1, 4)

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

    def test_no_coordinates_rejected_as_by_h0(self):
        # the page reads its ring through jacobian_ring, which h0 and h1
        # share: an action on no coordinates has no partials to present
        sol = solve_master(build_resolution([], partials=[], depth=3), 2)
        with pytest.raises(ValueError, match="at least one partial") as page:
            e2_page(sol, 1, 2)
        with pytest.raises(ValueError) as direct:
            h0([], 2)
        assert str(page.value) == str(direct.value)


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
    high columns eliminated by one nullspace, the in-slice combinations
    row-reduced densely."""
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
        combos = _reference_nullspace([dict(enumerate(v[nlow:])) for v in dense])
        inslice = [[sum(co.get(k, 0) * dense[k][i] for k in range(len(dense)))
                    for i in range(nlow)] for co in combos]
    else:
        inslice = [v[:nlow] for v in dense]
    red, piv = _dense_rref(inslice)
    return [{j: c for j, c in enumerate(r) if c} for r in red], piv


_KEYS = st.integers(min_value=0, max_value=7)
_IMAGE = st.dictionaries(_KEYS, st.integers(min_value=-3, max_value=3)
                         .filter(bool).map(Fraction), max_size=5)


@settings(deadline=None, max_examples=200)
@given(st.lists(_IMAGE, max_size=7), st.lists(_KEYS, unique=True))
def test_slice_image_matches_dense_elimination(images, slice_keys):
    low = {k: i for i, k in enumerate(slice_keys)}
    assert _rref_of(_slice_image(images, low)) == _dense_slice_image(images, low)


def _reference_ghost_monomials(table, p):
    """The ghost-monomial enumerator brst kept beside tate's before the
    two shared one body: monomials in the positive generators of total
    ghost degree p, sorted."""
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


def test_ghost_monomials_match_the_reference():
    # both signs come out ascending without a sort
    for depth in range(2, 8):
        table = build_resolution(XY, s0="(x^2+y^2-1)^2/4", depth=depth).table
        for p in range(-2, 7):
            assert _graded_monomials(table, p, 1) == \
                _reference_ghost_monomials(table, p)
        for d in range(-1, depth + 2):
            monos = negative_monomials(table, d)
            assert monos == sorted(monos)


# -- the slice routines that brst._slice_cohomology replaced, kept as references.
# Each built its own boundary or previous-column images at D and again at D + 1:
# h1 from inputs up to D plus the degree allowance, E2 from inputs up to D + 1.


def _reference_slice_image(images: list, low: dict) -> tuple:
    """_slice_image before it made one _echelon call: the RREF of the
    span of the images intersected with the slice, as (rows, pivots).

    low maps the slice's keys to coordinates.  Combinations whose
    entries off the slice cancel are written in those coordinates, so
    the span is every image that lands inside the slice.
    """
    high = [{k: c for k, c in img.items() if k not in low} for img in images]
    inslice = []
    for co in _reference_nullspace(high):
        w = {}
        for j, a in co.items():
            for k, c in images[j].items():
                if k in low:
                    w[low[k]] = w.get(low[k], 0) + a * c
        inslice.append(w)
    return _reference_rref(inslice)


def _reference_slice_cohomology(keys: list, images: list, prev: list, D: int) -> tuple:
    """_slice_cohomology before it made one _echelon call per bound: the
    kernel of the images, reduced against the in-slice part of prev, then
    row-reduced."""

    def reduced(bound):
        cols = [j for j, (_label, e) in enumerate(keys) if sum(e) <= bound]
        kernel = _reference_nullspace([images[j] for j in cols])
        bred, bpiv = _reference_slice_image(prev, {keys[j]: n for n, j in enumerate(cols)})
        return cols, _reference_rref([_reference_reduce_row(z, bred, bpiv) for z in kernel])[0]

    cols, red = reduced(D)
    return [{keys[cols[n]]: c for n, c in v.items()} for v in red], len(reduced(D + 1)[1])


# image keys in both shapes brst uses: ints (cocycle conditions) and
# (label, exponent) tuples (tau images, page differentials)
_IMAGE_KEYS = st.sampled_from([0, 1, 2, ("c", (0, 1)), ("r", (1, 0)), ("r", (2, 0))])
_SLICE_ENTRY = st.just(Fraction(0)) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def _slice_inputs(draw):
    """Cochain keys up to degree D + 1 with sparse images, and previous-
    column images keyed by cochain keys and by keys of no cochain; the
    images of prev need not be cocycles, and any list may be empty."""
    D = draw(st.integers(0, 2))
    pool = [(label, (a, d - a)) for label in ("f", "g") for d in range(D + 2)
            for a in range(d + 1)]
    keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
    image = st.dictionaries(_IMAGE_KEYS, _SLICE_ENTRY, max_size=4)
    images = [draw(image) for _ in keys]
    # some cochains are combinations of others, so kernels are not all trivial
    for j in range(len(images)):
        if j >= 2 and draw(st.booleans()):
            a, b = draw(_SLICE_ENTRY), draw(_SLICE_ENTRY)
            images[j] = {k: a * images[0].get(k, 0) + b * images[1].get(k, 0)
                         for k in images[0].keys() | images[1].keys()}
    prev_keys = st.sampled_from(keys + [("h", (0, 0)), ("h", (3, 0))])
    prev = draw(st.lists(st.dictionaries(prev_keys, _SLICE_ENTRY, max_size=4), max_size=5))
    return keys, images, prev, D


@settings(deadline=None, max_examples=300)
@given(_slice_inputs(), st.data())
def test_slice_cohomology_matches_the_parent_path(inputs, data):
    keys, images, prev, D = inputs
    vecs, dim1 = brst._slice_cohomology(keys, images, prev, D)
    want, want1 = _reference_slice_cohomology(keys, images, prev, D)
    assert _typed(vecs) == _typed(want)
    assert dim1 == want1
    # reduce_row on the _echelon rows of the slice image against the
    # reference reduction on its RREF
    low = {k: n for n, k in enumerate(keys)}
    v = {n: data.draw(_SLICE_ENTRY) for n in range(len(keys))}
    assert (_typed([reduce_row(v, _slice_image(prev, low))])
            == _typed([_reference_reduce_row(v, *_reference_slice_image(prev, low))]))


@settings(deadline=None, max_examples=150)
@given(_slice_inputs())
def test_images_numbered_below_the_slice_serve_as_their_own_columns(inputs):
    # h1 hands over its cocycle conditions numbered ~0, ~1, ...; numbering
    # the labels of any image set that way changes neither the classes nor
    # the count at D + 1
    keys, images, prev, D = inputs
    labels: dict = {}
    numbered = [{labels.setdefault(k, ~len(labels)): c for k, c in img.items()}
                for img in images]
    vecs, dim1 = brst._slice_cohomology(keys, numbered, prev, D)
    want, want1 = brst._slice_cohomology(keys, images, prev, D)
    assert _typed(vecs) == _typed(want) and dim1 == want1


def _reference_cocycle_vectors(pres, gb, std, colmap):
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
    return _reference_nullspace(images)


def _reference_h1_slice(pres, gb, D):
    std = standard_monomials(gb, D)
    colmap = {}
    for i in range(pres.r):
        for e in std:
            colmap[(i, e)] = len(colmap)
    ext = standard_monomials(gb, D + brst._degree_allowance(pres))
    bred, bpiv = _reference_slice_image(brst._tau_images(pres, gb, ext), colmap)
    Z = _reference_cocycle_vectors(pres, gb, std, colmap)
    red, _piv = _reference_rref([_reference_reduce_row(z, bred, bpiv) for z in Z])
    reps = []
    for v in red:
        terms = [{} for _ in range(pres.r)]
        for (i, e), col in colmap.items():
            if col in v:
                terms[i][e] = v[col]
        reps.append(tuple(BasePolynomial(pres.vars, t) for t in terms))
    return reps


def _reference_e2_slice(sol, gb, p, D, dS):
    table = sol.resolution.table
    std = standard_monomials(gb, D)
    dom = [(gm, e) for gm in _graded_monomials(table, p, 1) for e in std]
    if not dom:
        return []
    ker = _reference_nullspace([brst._d1_decompose(dS, table, gb, gm, e, p) for gm, e in dom])
    # image of the previous column, restricted to the slice
    ext = standard_monomials(gb, D + 1)
    prev = [(gm, e) for gm in _graded_monomials(table, p - 1, 1) for e in ext]
    dmap = {pair: idx for idx, pair in enumerate(dom)}
    bred, bpiv = _reference_slice_image(
        [brst._d1_decompose(dS, table, gb, gm, e, p - 1) for gm, e in prev], dmap)
    red, _piv = _reference_rref([_reference_reduce_row(z, bred, bpiv) for z in ker])
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


_REFERENCE_ACTIONS = {
    "circle": (XY, "(x^2+y^2-1)^2/4"),
    "x2y2": (XY, "x^2*y^2"),
    "sphere": (("x", "y", "z"), "(x^2+y^2+z^2-1)^2"),
    # normal forms with denominators up to 54 and tau coefficients over 3
    "twisted": (XY, "(3*x^2*y - 2*y^2 + x)^2"),
}


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("action", sorted(_REFERENCE_ACTIONS))
def test_h1_matches_the_reference_slices(action, order):
    vars, s0 = _REFERENCE_ACTIONS[action]
    parts = [BasePolynomial.parse(s0, vars).derivative(v) for v in vars]
    pres = symmetry_presentation(parts, order)
    gb = jacobian_ring(parts, order)
    assert pres.r > 0
    slices = [_reference_h1_slice(pres, gb, D) for D in range(7)]
    for D in range(6):
        rep = h1(parts, D, order, pres)
        assert rep.basis == slices[D]
        assert rep.stable == (len(slices[D]) == len(slices[D + 1]))


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("action", sorted(_REFERENCE_ACTIONS))
def test_e2_page_matches_the_reference_slices(action, order):
    vars, s0 = _REFERENCE_ACTIONS[action]
    sol = solve_master(build_resolution(vars, s0=s0, depth=3, order=order), p_max=2)
    gb = groebner_basis(list(sol.resolution.partials), order)
    dS = _bracket_factors(sol.S)
    for p in (0, 1):
        slices = [_reference_e2_slice(sol, gb, p, D, dS) for D in range(7)]
        for D in range(6):
            rep = e2_page(sol, p, D)
            assert rep.basis == slices[D]
            assert rep.stable == (len(slices[D]) == len(slices[D + 1]))


class TestOneImageSetForBothBounds:
    def test_h1_builds_one_tau_image_set(self, cubic_surface, monkeypatch):
        # the boundaries and the tau part of the cocycle conditions share it
        parts, pres, gb, _reports = cubic_surface
        asked = []
        real = brst._tau_images

        def spy(pres, gb, exps):
            asked.append(len(exps))
            return real(pres, gb, exps)

        monkeypatch.setattr(brst, "_tau_images", spy)
        h1(parts, 1, presentation=pres)
        assert asked == [len(standard_monomials(gb, 2 + brst._degree_allowance(pres)))]

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_e2_decomposes_each_input_once(self, monkeypatch, p):
        sol = solve_master(build_resolution(XY, s0="(x^2+y^2-1)^2/4", depth=4), p_max=3)
        decomposed, shapes = [], []
        real_d1, real_slices = brst._d1_decompose, brst._slice_cohomology

        def spy_d1(dS, table, gb, gm, e, q):
            decomposed.append((gm, e, q))
            return real_d1(dS, table, gb, gm, e, q)

        def spy_slices(keys, images, prev, D):
            shapes.append((len(keys), len(prev)))
            return real_slices(keys, images, prev, D)

        monkeypatch.setattr(brst, "_d1_decompose", spy_d1)
        monkeypatch.setattr(brst, "_slice_cohomology", spy_slices)
        e2_page(sol, p, 4)
        (nkeys, nprev), = shapes
        assert nkeys > 0 and (nprev > 0) == (p > 0)
        assert len(decomposed) == nkeys + nprev
        assert len(set(decomposed)) == len(decomposed)

    def test_e2_columns_share_the_factors_of_S(self, monkeypatch):
        # the derivatives of S are taken on the first page of a solution
        # and kept with it; a solution given another S takes them again
        sol = solve_master(build_resolution(XY, s0="(x^2+y^2-1)^2/4", depth=4), p_max=3)
        want = [e2_page(sol, p, 4).to_json_obj() for p in (0, 1)]
        fresh = MasterSolution(sol.resolution, sol.S, sol.order)
        taken = []
        real = bv_solver._bracket_factors

        def spy(a, half=False):
            taken.append(a)
            return real(a, half)

        monkeypatch.setattr(bv_solver, "_bracket_factors", spy)
        assert [e2_page(fresh, p, 4).to_json_obj() for p in (0, 1)] == want
        assert taken == [sol.S]
        fresh.S = sol.S + GradedPolynomial.zero(sol.resolution.table)
        e2_page(fresh, 0, 4)
        assert len(taken) == 2 and taken[1] is fresh.S


def _reference_tau_images(pres, gb, exps):
    """_tau_images before it shifted exponents: apply_vector_field to the
    monomial, then normal_form of the whole image."""
    out = []
    for m in exps:
        mono = BasePolynomial(pres.vars, {m: Fraction(1)})
        img = {}
        for i, t in enumerate(pres.tau):
            for e, c in normal_form(apply_vector_field(t, mono), gb).terms.items():
                img[(i, e)] = c
        out.append(img)
    return out


def _reference_summed_tau_images(pres, gb, exps) -> list:
    """_tau_images before _nf_sum: each image read the memoized NF(x^e)
    itself and rescaled its sum whenever the denominator q grew."""
    cleared, L = _cleared({(i, k, e): c for i, t in enumerate(pres.tau)
                           for k, tk in enumerate(t) for e, c in tk.terms.items()})
    tau = [[] for _ in pres.tau]
    for (i, k, e), c in cleared.items():
        tau[i].append((k, e, c))
    out = []
    for m in exps:
        img = {}
        for i, terms in enumerate(tau):
            acc: dict = {}
            q = 1
            for k, e, c in terms:
                if m[k]:
                    it = iter(_monomial_nf(gb, _monomial_mul(e, m[:k] + (m[k] - 1,) + m[k + 1:])))
                    d = next(it, 1)
                    if q % d:
                        scale = d // gcd(q, d)
                        acc = {ee: x * scale for ee, x in acc.items()}
                        q *= scale
                    _axpy(acc, m[k] * c * (q // d), zip(it, it))
            for e, x in acc.items():
                img[(i, e)] = x if L * q == 1 else Fraction(x, L * q)
        out.append(img)
    return out


def _reference_cocycle_images(pres, gb, keys, taus: dict) -> list:
    """_cocycle_images before _nf_sum: each term c x^a of a structure
    function or relation entered as sign * c / d times each numerator of
    the memoized NF(x^(a + e))."""
    index: dict = {}

    def add(img, cond, ee, c):
        n = index.setdefault((cond, ee), len(index))
        s = img.get(n, 0) + c
        if s:
            img[n] = s
        else:
            del img[n]

    # one label tuple per condition, shared by all of its pairs
    conds = {(i, j): ("c", i, j) for i, j in combinations(range(pres.r), 2)}
    # (condition, sign, coefficient of g_k) of each cochain generator k
    terms = [[(cond, -1, pres.structure_f[i][j][k]) for (i, j), cond in conds.items()]
             + [(("r", a), 1, row[k]) for a, row in enumerate(pres.relations)]
             for k in range(pres.r)]
    images = []
    for k, e in keys:
        img: dict = {}
        for (i, ee), c in taus[e].items():
            if i != k:
                add(img, conds[min(i, k), max(i, k)], ee, c if i < k else -c)
        for cond, sign, p in terms[k]:
            for a, cf in p.terms.items():
                it = iter(_monomial_nf(gb, _monomial_mul(a, e)))
                f = sign * cf / next(it, 1)
                f = f.numerator if f.denominator == 1 else f
                for ee, x in zip(it, it):
                    add(img, cond, ee, f * x)
        images.append(img)
    return images


def _assert_integral_rule(images):
    """Every value is an int exactly when it is integral."""
    for img in images:
        for c in img.values():
            assert type(c) is (int if c.denominator == 1 else Fraction), c


def _assert_images_match(got, want):
    """got and want hold equal values.

    Each image numbers its (condition, exponent) pairs in the order they
    first occur, and the reference numbered a pair whose terms cancel
    too, so the two are compared as multisets of columns: for each
    label, its (cochain, value) pairs.
    """
    def columns(images):
        cols = {}
        for j, img in enumerate(images):
            for n, c in img.items():
                cols.setdefault(n, []).append((j, c))
        return Counter(map(tuple, cols.values()))

    assert columns(got) == columns(want)


def _check_summed_images(pres, gb, fresh, exps):
    """_tau_images and _cocycle_images on gb against the references on
    fresh, a second basis of the same ideal that shares no memo entry:
    equal values, each an int exactly when it is integral."""
    taus = brst._tau_images(pres, gb, exps)
    want = _reference_summed_tau_images(pres, fresh, exps)
    assert taus == want
    keys = [(k, e) for k in range(pres.r) for e in exps]
    cocycles = brst._cocycle_images(pres, gb, keys, dict(zip(exps, taus)))
    _assert_images_match(cocycles,
                         _reference_cocycle_images(pres, fresh, keys, dict(zip(exps, want))))
    _assert_integral_rule(taus)
    _assert_integral_rule(cocycles)


_FRACTION_POLY2 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    max_size=3).map(lambda t: BasePolynomial(XY, t))


@st.composite
def _summed_image_inputs(draw):
    """A random ideal of the plane, fields tau, structure functions,
    relations and exponents: the sums read only these, so no action or
    certificate is needed behind them."""
    gens = draw(st.lists(_FRACTION_POLY2, min_size=1, max_size=3))
    r = draw(st.integers(1, 3))
    tau = [ModuleVector(draw(st.lists(_FRACTION_POLY2, min_size=2, max_size=2)))
           for _ in range(r)]
    f = [[[draw(_FRACTION_POLY2) if i < j else None for _k in range(r)]
          for j in range(r)] for i in range(r)]
    relations = [draw(st.lists(_FRACTION_POLY2, min_size=r, max_size=r))
                 for _ in range(draw(st.integers(0, 2)))]
    exps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=6, unique=True))
    # _images is the presentation's memo of tau images, which _tau_images fills
    pres = SimpleNamespace(tau=tau, r=r, structure_f=f, relations=relations, _images={})
    return gens, pres, exps


@settings(deadline=None, max_examples=80)
@given(_summed_image_inputs(), st.sampled_from(["grevlex", "lex"]))
def test_summed_images_match_the_reference_sums(inputs, order):
    gens, pres, exps = inputs
    _check_summed_images(pres, groebner_basis(gens, order),
                         groebner_basis(gens, order), exps)


def _reference_exponents_upto(n, D):
    """_exponents_upto as a recursive closure."""
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


class TestSharedJacobianRing:
    """A presentation owns one Jacobian ring per monomial order, and the
    normal forms memoized on it serve every slice computed from it."""

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("action", ["circle", "cubic", "ellipse", "twisted"])
    def test_tau_images_match_the_reference(self, action, order, cubic_surface):
        # the ellipse and the twisted square have tau coefficients with
        # denominator 3 and normal forms NF(x^a) with denominators up to 54,
        # so their images are summed over a denominator that is not 1
        if action == "circle":
            parts, D = circle_partials(), 8
        elif action == "cubic":
            parts, D = cubic_surface[0], 7
        else:
            text = {"ellipse": "(2*x^2 + 3*y^2 - 1)^2/4",
                    "twisted": "(3*x^2*y - 2*y^2 + x)^2"}[action]
            s0 = BasePolynomial.parse(text, XY)
            parts, D = [s0.derivative(v) for v in XY], 6
        pres = symmetry_presentation(parts, order)
        exps = standard_monomials(jacobian_ring(parts, order),
                                  D + brst._degree_allowance(pres))
        got = brst._tau_images(pres, pres._ring(order), exps)
        # a fresh basis for the reference, so no memo entry is shared
        assert got == _reference_tau_images(pres, jacobian_ring(parts, order), exps)
        # the images and cocycle conditions summed by _nf_sum, against the
        # bodies that read the memo themselves
        _check_summed_images(pres, pres._ring(order), jacobian_ring(parts, order), exps)

    def test_cubic_normal_forms_are_integral(self, cubic_surface):
        # every memoized NF(x^a) of the cubic cone's ring has int
        # coefficients, so each entry's denominator d is 1
        _parts, pres, _gb, _reports = cubic_surface
        memo = pres._ring(pres.order)._nf
        assert len(memo) > 100
        assert all(nf == () or nf[0] == 1 for nf in memo.values())

    def test_shared_presentation_matches_a_fresh_one_per_bound(self):
        coords = ("x", "w", "y", "z")
        s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", coords)
        parts = [s0.derivative(v) for v in coords]
        pres = symmetry_presentation(parts)
        for D in (11, 12, 13, 14):
            shared = h0(parts, D, presentation=pres)
            fresh = h0(parts, D, presentation=symmetry_presentation(parts))
            assert (shared.dim, shared.stable) == (fresh.dim, fresh.stable)
            assert shared.basis == fresh.basis
            assert shared.to_json_obj() == fresh.to_json_obj()

    def test_one_ring_per_order(self, monkeypatch):
        parts = circle_partials()
        pres = symmetry_presentation(parts)
        built = []
        real = brst.jacobian_ring

        def spy(partials, order="grevlex"):
            built.append(order)
            return real(partials, order)

        monkeypatch.setattr(brst, "jacobian_ring", spy)
        for order in ("grevlex", "lex", "grevlex", "lex"):
            h0(parts, 4, order, pres)
            h1(parts, 4, order, pres)
        h0_bracket(poly("1"), poly("x^2 + y^2"), pres)
        assert built == ["grevlex", "lex"]
        assert sorted(pres._rings) == ["grevlex", "lex"]

    # sha256 of the reports at the commit before the presentation owned its
    # ring: a grevlex presentation asked for lex slices divides by the lex ring
    LEX_OF_GREVLEX = {
        ("circle", "h0", 6): "a7e283892e11202184e301d673e9478c8b3c2797b3263ae75553054506ce9790",
        ("circle", "h1", 6): "0433a7486c98906145e27189ecfba917aa6b3db1f3c268f409e9adfc4012fff9",
        ("cubic", "h0", 6): "368d9a076bcbd2900670f91441b2ff1472ba5cc4174cb27b6e1c56d6906bfdc5",
        ("cubic", "h1", 2): "ecccbfb89f0614c85b17a3bc355d25f603d813c7ccefb11ffbb17b79b6a7d284",
    }

    @pytest.mark.parametrize("case", sorted(LEX_OF_GREVLEX))
    def test_lex_slices_of_a_grevlex_presentation(self, case, cubic_surface):
        action, group, D = case
        parts = circle_partials() if action == "circle" else cubic_surface[0]
        pres = symmetry_presentation(parts)
        rep = {"h0": h0, "h1": h1}[group](parts, D, "lex", pres)
        text = json.dumps(rep.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.LEX_OF_GREVLEX[case]


class TestImageMemo:
    """A presentation keeps each tau image once per monomial order, and an
    h0 ladder on it gives the reports of a fresh presentation per call."""

    @pytest.mark.parametrize("action", ["circle", "cubic"])
    def test_warm_presentation_matches_a_fresh_one_per_call(self, action, cubic_surface):
        parts, h1_bound = (circle_partials(), 6) if action == "circle" else (cubic_surface[0], 2)
        pres = symmetry_presentation(parts)
        for order in ("grevlex", "lex"):
            # out of order, so a call can find its images made by a higher bound
            for D in (14, 11, 13, 12):
                warm = h0(parts, D, order, pres)
                fresh = h0(parts, D, order, symmetry_presentation(parts))
                assert warm.to_json_obj() == fresh.to_json_obj()
            warm = h1(parts, h1_bound, order, pres)
            fresh = h1(parts, h1_bound, order, symmetry_presentation(parts))
            assert warm.to_json_obj() == fresh.to_json_obj()
            # every image was made once: the memo holds the inputs of h0 at 14
            # and of h1, and nothing else
            gb = pres._ring(order)
            ext = h1_bound + 1 + brst._degree_allowance(pres)
            assert (sorted(pres._images[order])
                    == sorted(standard_monomials(gb, max(15, ext))))
        assert sorted(pres._images) == ["grevlex", "lex"]

    def test_tampered_slice_step_is_caught(self, monkeypatch):
        # x moves off the ideal under the rotation of the circle, so the
        # check after the slice step must refuse it
        real = brst._slice_cohomology

        def tampered(keys, images, prev, D):
            vecs, dim1 = real(keys, images, prev, D)
            return vecs + [{(None, (1, 0)): Fraction(1)}], dim1

        monkeypatch.setattr(brst, "_slice_cohomology", tampered)
        with pytest.raises(AssertionError,
                           match="invariant candidate fails its defining condition"):
            h0(circle_partials(), 4)

    def test_invariance_check_uses_neither_images_nor_eliminator(self, cubic_surface,
                                                                 monkeypatch):
        # the check reads the tau fields and normal forms only, so it does
        # not depend on the code whose result it checks
        parts, pres, _gb, _reports = cubic_surface
        want = h0(parts, 8, presentation=pres).to_json_obj()
        real = brst._slice_cohomology

        def refuse(*args, **kwargs):
            raise AssertionError("the invariance check called the slice computation")

        def then_refuse(keys, images, prev, D):
            out = real(keys, images, prev, D)
            for name in ("_tau_images", "_echelon", "_slice_image"):
                monkeypatch.setattr(brst, name, refuse)
            monkeypatch.setattr(elimination, "_echelon", refuse)
            return out

        # a fresh presentation: pres already holds the invariants it checked
        fresh = symmetry_presentation(parts)
        monkeypatch.setattr(brst, "_slice_cohomology", then_refuse)
        assert h0(parts, 8, presentation=fresh).to_json_obj() == want

    def test_a_ladder_checks_each_invariant_once(self, cubic_surface, monkeypatch):
        # the cubic bases nest, 31 in 34 in 37 in 40, so the ladder
        # differentiates 40 polynomials and not 142; each monomial order
        # keeps its own checks
        parts = cubic_surface[0]
        pres = symmetry_presentation(parts)
        real = brst._gradient
        calls = []

        def spy(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(brst, "_gradient", spy)
        for order in ("grevlex", "lex"):
            del calls[:]
            reports = [h0(parts, D, order, pres) for D in (11, 12, 13, 14)]
            assert [rep.dim for rep in reports] == [31, 34, 37, 40]
            assert all(set(a.basis) <= set(b.basis) for a, b in zip(reports, reports[1:]))
            assert len(calls) == 40 and set(calls) == set(reports[-1].basis)
            for D in (14, 11):
                h0(parts, D, order, pres)
            assert len(calls) == 40


@settings(deadline=None, max_examples=40)
@given(_FRACTION_POLY2, _FRACTION_POLY2, st.sampled_from(["grevlex", "lex"]),
       st.integers(0, 4))
def test_h0_next_bound_count_matches_the_reference_slices(f, g, order, D):
    # the D + 1 count from the D elimination against the two full
    # eliminations of the reference, on h0's own inputs; S0 = f g, so
    # products of two small factors give actions with symmetries
    s0 = f * g
    parts = [s0.derivative(v) for v in XY]
    pres = symmetry_presentation(parts, order)
    gb = pres._ring(order)
    std1 = standard_monomials(gb, D + 1)
    keys = [(None, m) for m in std1]
    images = brst._tau_images(pres, gb, std1)
    want, want1 = _reference_slice_cohomology(keys, images, [], D)
    vecs, dim1 = brst._slice_cohomology(keys, images, [], D)
    assert _typed(vecs) == _typed(want) and dim1 == want1
    rep = h0(parts, D, order, pres)
    assert (rep.dim, rep.stable) == (len(want), len(want) == want1)


@pytest.mark.parametrize("n", range(5))
def test_exponents_match_the_recursive_reference(n):
    # the enumeration under the standard-monomial references
    for D in range(7):
        assert _exponents_upto(n, D) == _reference_exponents_upto(n, D)


def test_standard_monomials_leave_no_cycle_behind():
    gb = jacobian_ring(circle_partials())
    gc.collect()
    gc.disable()
    try:
        standard_monomials(gb, 15)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


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
