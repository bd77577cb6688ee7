"""Resolution builder, acyclicity checker, morphism lifts, stabilization."""

import json
import time

import pytest

from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    graded_to_str,
    multiply,
    parse_graded,
    transport,
)
from bvkit import polynomial_engine
from bvkit.polynomial_engine import BasePolynomial
from bvkit.tate import (
    AcyclicityReport,
    ResolutionMorphism,
    TateGenerator,
    TateResolution,
    build_resolution,
    check_acyclic,
    extend_morphism,
    negative_monomials,
    stabilize,
)


CIRCLE = "(x^2+y^2-1)^2/4"


def circle(depth):
    return build_resolution(["x", "y"], s0=CIRCLE, depth=depth)


def delta_str(res, name):
    for g in res.generators:
        if g.name == name:
            return graded_to_str(transport(g.delta, res.table))
    raise KeyError(name)


class TestLine:
    """S0 = 0 on the line: the Koszul generator and nothing after it."""

    def test_counts_and_delta(self):
        r = build_resolution(["x"], s0="0", depth=3)
        assert r.counts() == {-2: 1}
        assert delta_str(r, "bs1") == "(1)*xs"
        assert r.depth == 3

    def test_acyclic(self):
        r = build_resolution(["x"], s0="0", depth=3)
        rep = check_acyclic(r, 3)
        assert rep.ok
        assert [d for d, ok, _w in rep.entries] == [1, 2, 3]

    def test_dual_cycle_bounds(self):
        # x*.bs1 is killed by bs1^2/2, so no degree -4 generator appears
        r = build_resolution(["x"], s0="0", depth=3)
        delta = r.gr_delta()
        chain = parse_graded("bs1^2/2", r.table)
        assert delta(chain) == parse_graded("xs*bs1", r.table)

    def test_unit_partial_gives_empty_resolution(self):
        r = build_resolution(["x"], s0="x", depth=3)
        assert r.counts() == {}
        assert check_acyclic(r, 3).ok


class TestQuadratic:
    def test_rank_deficit_gets_one_generator(self):
        r = build_resolution(["x", "y", "z"], s0="x^2+y^2", depth=3)
        assert r.counts() == {-2: 1}
        assert delta_str(r, "bs1") == "(1)*zs"
        assert check_acyclic(r, 3).ok

    def test_full_rank_stays_koszul(self):
        r = build_resolution(["x", "y"], s0="x^2+y^2", depth=4)
        assert r.counts() == {}
        assert check_acyclic(r, 4).ok


class TestCircle:
    def test_depth_two_deltas(self):
        r = circle(2)
        assert r.counts() == {-2: 1, -3: 1}
        assert delta_str(r, "bs1") == "(x)*ys + (-y)*xs"
        assert delta_str(r, "bs2") == "(x^2 + y^2 - 1)*bs1 + (-1)*xs*ys"

    def test_depth_five_counts(self):
        t0 = time.time()
        r = circle(5)
        build_time = time.time() - t0
        assert r.counts() == {-2: 1, -3: 1, -4: 2, -5: 3, -6: 4}
        assert check_acyclic(r, 5).ok
        assert build_time < 30.0

    def test_depth_three_generator_boundaries(self):
        r = circle(3)
        assert delta_str(r, "bs3") == "(y)*bs2 + (-1)*ys*bs1"
        assert delta_str(r, "bs4") == "(x)*bs2 + (-1)*xs*bs1"

    def test_ghost_partners_present(self):
        r = circle(2)
        assert ("bs1", -2, "b1") in r.table.pairs
        assert ("bs2", -3, "b2") in r.table.pairs

    def test_determinism(self):
        a, b = circle(4), circle(4)
        assert a.to_json() == b.to_json()


class TestBasisReuse:
    def test_check_acyclic_builds_one_module_basis_per_degree(self, monkeypatch):
        # syzygy_basis builds untracked engines; membership bases are tracked
        res = circle(5)
        tracked = []
        real = polynomial_engine._Engine.__init__

        def spy(self, *args, **kwargs):
            tracked.append(kwargs.get("track", False))
            real(self, *args, **kwargs)

        monkeypatch.setattr(polynomial_engine._Engine, "__init__", spy)
        assert check_acyclic(res, 5).ok
        assert sum(tracked) <= 5


class TestAcyclicityWitness:
    def test_missing_generator_reported(self):
        # drop the degree -3 generator: h.bs1 - x*.y* survives as homology
        r = circle(2)
        table = GeneratorTable(("x", "y"), (("bs1", -2, "b1"),))
        kept = [TateGenerator("bs1", -2,
                              parse_graded("x*ys - y*xs", table))]
        broken = TateResolution(table, r.partials, kept, 2, order=r.order)
        rep = check_acyclic(broken, 2)
        assert not rep.ok
        bad = [e for e in rep.entries if not e[1]]
        assert [d for d, _ok, _w in bad] == [2]
        w = rep.witness(2)
        assert w is not None
        delta = broken.gr_delta()
        assert delta(w).is_zero()
        assert "bs1" in graded_to_str(w)

    def test_report_repr(self):
        rep = check_acyclic(circle(2), 2)
        assert "ok" in repr(rep)


class TestValidation:
    def test_closedness_violation(self):
        with pytest.raises(ValueError, match="closedness"):
            build_resolution(["x", "y"], partials=["y^2", "x*y"], depth=1)

    def test_closed_multivalued_accepted(self):
        # dS = (2xy, x^2): closed but not exact-looking to the builder
        r = build_resolution(["x", "y"], partials=["2*x*y", "x^2+1"], depth=2)
        assert check_acyclic(r, 2).ok

    def test_delta_square_enforced(self):
        table = GeneratorTable(("x",), (("bs1", -2, "b1"),))
        bad = parse_graded("x*xs", table)
        with pytest.raises(AssertionError, match="square"):
            TateResolution(table, (BasePolynomial.parse("x^2", ("x",)),),
                           [TateGenerator("bs1", -2, bad)], 1)

    def test_degree_minus_two_shape_enforced(self):
        table = GeneratorTable(("x",), (("bs1", -2, "b1"), ("bs2", -2, "b2")))
        # b1*bs1 sits in ghost degree -1 and is closed for the zero
        # differential, but it is not an O_X-combination of duals
        bad = parse_graded("b1*bs1", table)
        with pytest.raises(AssertionError, match="linear in the duals"):
            TateResolution(table, (BasePolynomial.parse("0", ("x",)),),
                           [TateGenerator("bs1", -2,
                                          GradedPolynomial.zero(table)),
                            TateGenerator("bs2", -2, bad)], 1)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            build_resolution(["x"], depth=1)
        with pytest.raises(ValueError):
            build_resolution(["x"], s0="0", partials=["0"], depth=1)


class TestSerialization:
    def test_round_trip(self):
        r = circle(3)
        back = TateResolution.from_json(r.to_json())
        assert back.to_json() == r.to_json()
        assert back.counts() == r.counts()
        assert check_acyclic(back, 3).ok

    def test_partials_only_round_trip(self):
        r = build_resolution(["x", "y"], partials=["2*x*y", "x^2+1"], depth=2)
        obj = json.loads(r.to_json())
        assert "s0" not in obj
        back = TateResolution.from_json_obj(obj)
        assert back.to_json_obj() == obj

    def test_tampered_delta_rejected(self):
        obj = circle(2).to_json_obj()
        obj["generators"][1]["delta"] = "(1)*xs*ys"
        with pytest.raises(AssertionError):
            TateResolution.from_json_obj(obj)


class TestNegativeMonomials:
    def test_budget_and_parity(self):
        table = GeneratorTable(("x",), (("bs1", -2, "b1"), ("bs2", -3, "b2")))
        monos = negative_monomials(table, 3)
        strs = {graded_to_str(GradedPolynomial.monomial(table, m, 1))
                for m in monos}
        assert strs == {"(1)*bs2", "(1)*xs*bs1"}
        # odd generators never repeat: xs^3 and xs*bs2-free checks
        assert all(m[table.index["xs"]] <= 1 for m in monos)

    def test_degree_one(self):
        table = GeneratorTable(("x", "y"), ())
        monos = negative_monomials(table, 1)
        assert len(monos) == 2


class TestExtendMorphism:
    def test_identity_lift_deep(self):
        r = circle(4)
        m = extend_morphism(r, r, through=4)
        assert m.is_chain_map(4)
        for g in r.generators:
            if -g.degree <= 4:
                x = GradedPolynomial.generator(r.table, g.name)
                assert m.apply(x) == x

    def test_minimal_into_padded(self):
        mini = build_resolution(["x"], s0="0", depth=2)
        table = GeneratorTable(
            ("x",), (("bs1", -2, "b1"), ("ws1", -2, "w1"), ("ws2", -3, "w2")))
        gens = [
            TateGenerator("bs1", -2, parse_graded("xs", table)),
            TateGenerator("ws1", -2, GradedPolynomial.zero(table)),
            TateGenerator("ws2", -3, parse_graded("ws1", table)),
        ]
        padded = TateResolution(table, mini.partials, gens, 2, order=mini.order)
        m = extend_morphism(mini, padded, through=2)
        assert m.is_chain_map(2)
        assert graded_to_str(m.images["bs1"]) == "(1)*bs1"

    def test_depth_shortfall_raises(self):
        deep = circle(3)
        shallow = circle(1)
        with pytest.raises(ValueError, match="depth insufficient"):
            extend_morphism(deep, shallow, through=3)

    def test_partials_must_match(self):
        a = build_resolution(["x"], s0="0", depth=1)
        b = build_resolution(["x"], s0="x^2/2", depth=1)
        with pytest.raises(ValueError):
            extend_morphism(a, b)


class TestStabilize:
    def test_identical_presentations_identity(self):
        r = circle(3)
        a, b, f, g = stabilize(r, circle(3), 3)
        assert a.counts() == r.counts() and b.counts() == r.counts()
        for gen in r.generators:
            x = GradedPolynomial.generator(a.table, gen.name)
            assert f.apply(x) == GradedPolynomial.generator(b.table, gen.name)
        assert f.is_chain_map(3) and g.is_chain_map(3)

    def test_minimal_versus_padded_window(self):
        t0 = time.time()
        mini = build_resolution(["x"], s0="0", depth=3)
        table = GeneratorTable(
            ("x",), (("bs1", -2, "b1"), ("ws1", -2, "w1"), ("ws2", -3, "w2")))
        gens = [
            TateGenerator("bs1", -2, parse_graded("xs", table)),
            TateGenerator("ws1", -2, GradedPolynomial.zero(table)),
            TateGenerator("ws2", -3, parse_graded("ws1", table)),
        ]
        padded = TateResolution(table, mini.partials, gens, 3,
                                order=mini.order)
        a, b, f, g = stabilize(mini, padded, 3)
        for res, fwd, back in ((a, f, g), (b, g, f)):
            for gen in res.generators:
                if -gen.degree > 3:
                    continue
                x = GradedPolynomial.generator(res.table, gen.name)
                assert back.apply(fwd.apply(x)) == x
        assert f.is_chain_map(3) and g.is_chain_map(3)
        # the mirror padding equalizes graded counts inside the window
        ca, cb = a.counts(), b.counts()
        for d in (-2, -3):
            assert ca.get(d, 0) == cb.get(d, 0)
        assert time.time() - t0 < 10.0

    def test_mismatched_partials_rejected(self):
        a = build_resolution(["x"], s0="0", depth=2)
        b = build_resolution(["x"], s0="x^2/2", depth=2)
        with pytest.raises(ValueError):
            stabilize(a, b, 2)

    def test_window_too_shallow(self):
        r = build_resolution(["x"], s0="0", depth=2)
        with pytest.raises(ValueError):
            stabilize(r, r, 1)
