"""Bracket axioms, generator pairings, vector field lifts, exp_ad."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.antibracket import (
    _bracket_factors,
    _bracket_pair,
    antifield_lift,
    bracket,
    exp_ad,
)
from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _collect,
    _products,
    _weight_rows,
    multiply,
    truncate,
)
from bvkit.polynomial_engine import BasePolynomial


def table_xy():
    return GeneratorTable(("x", "y"), (("bs1", -2, "b1"),))


def table_mixed():
    return GeneratorTable(("x", "y"), (("bs1", -2, "b1"), ("gs1", -3, "g1")))


def gen(t, name):
    return GradedPolynomial.generator(t, name)


def sc(t, text):
    return GradedPolynomial.from_scalar(
        t, BasePolynomial.parse(text, t.coordinates))


class TestGeneratorValues:
    def test_coordinate_pair(self):
        t = table_xy()
        one = sc(t, "1")
        assert bracket(sc(t, "x"), gen(t, "xs")) == one
        assert bracket(gen(t, "xs"), sc(t, "x")) == -one
        assert bracket(sc(t, "x"), gen(t, "ys")).is_zero()
        assert bracket(sc(t, "x"), sc(t, "y")).is_zero()

    def test_ghost_pair(self):
        t = table_xy()
        one = sc(t, "1")
        assert bracket(gen(t, "b1"), gen(t, "bs1")) == one
        assert bracket(gen(t, "bs1"), gen(t, "b1")) == -one
        assert bracket(gen(t, "b1"), gen(t, "b1")).is_zero()
        assert bracket(gen(t, "xs"), gen(t, "xs")).is_zero()
        assert bracket(gen(t, "xs"), gen(t, "bs1")).is_zero()

    def test_scalar_against_dual(self):
        t = table_xy()
        f = sc(t, "x^2*y")
        assert bracket(f, gen(t, "xs")) == sc(t, "2*x*y")
        assert bracket(f, gen(t, "ys")) == sc(t, "x^2")

    def test_ghost_shift(self):
        t = table_xy()
        a = multiply(gen(t, "xs"), gen(t, "b1"))   # ghost 0
        b = gen(t, "bs1")                          # ghost -2
        out = bracket(a, b)
        assert not out.is_zero()
        assert out.ghost_degree() == a.ghost_degree() + b.ghost_degree() + 1

    def test_table_mismatch(self):
        with pytest.raises(ValueError):
            bracket(sc(table_xy(), "x"), sc(table_mixed(), "x"))


class TestVectorFieldLift:
    def test_applies_to_scalars(self):
        # lift of y^2 d/dx + x d/dy
        t = table_xy()
        xi = antifield_lift(t, [BasePolynomial.parse("y^2", t.coordinates),
                                BasePolynomial.parse("x", t.coordinates)])
        assert xi == -multiply(sc(t, "y^2"), gen(t, "xs")) - multiply(
            sc(t, "x"), gen(t, "ys"))
        f = sc(t, "x*y")
        assert bracket(xi, f) == sc(t, "y^3 + x^2")

    def test_commutator_frozen(self):
        # [y^2 d/dx, x d/dy] = y^2 d/dy - 2xy d/dx
        t = table_xy()
        zero = BasePolynomial.zero(t.coordinates)
        a = antifield_lift(t, [BasePolynomial.parse("y^2", t.coordinates), zero])
        b = antifield_lift(t, [zero, BasePolynomial.parse("x", t.coordinates)])
        expect = antifield_lift(
            t, [BasePolynomial.parse("-2*x*y", t.coordinates),
                BasePolynomial.parse("y^2", t.coordinates)])
        assert bracket(a, b) == expect

    def test_component_length(self):
        with pytest.raises(ValueError):
            antifield_lift(table_xy(), [1])

    def test_components_are_read_like_any_polynomial_input(self):
        # text is parsed and a number is a constant
        t = table_xy()
        assert antifield_lift(t, ["y", 0]) == antifield_lift(
            t, [BasePolynomial.parse("y", t.coordinates),
                BasePolynomial.zero(t.coordinates)])


class TestExpAd:
    def u_and_table(self):
        # gs1 * b1^2 over ghosts of degree 2 and 4: ghost -1, count 2
        t = GeneratorTable(("x", "y"), (("bs1", -3, "b1"), ("gs1", -5, "g1")))
        u = GradedPolynomial.monomial(t, (0, 0, 0, 1, 2, 0), 1)
        assert u.ghost_degree() == -1
        assert u.min_count() == 2
        return t, u

    def test_frozen_expansion(self):
        t, u = self.u_and_table()
        a = GradedPolynomial.monomial(t, (0, 0, 1, 0, 0, 1), 1)  # bs1 g1
        k1 = (GradedPolynomial.monomial(t, (0, 0, 0, 1, 1, 1), 2)
              - GradedPolynomial.monomial(t, (0, 0, 1, 0, 2, 0), 1))
        k2 = GradedPolynomial.monomial(t, (0, 0, 0, 1, 3, 0), -2)
        assert exp_ad(u, a, 6) == a + k1 + k2
        # the series terminates on its own at this truncation
        assert exp_ad(u, a, 20) == a + k1 + k2

    def test_truncation_window(self):
        t, u = self.u_and_table()
        a = GradedPolynomial.monomial(t, (0, 0, 1, 0, 0, 1), 1)
        low = a - GradedPolynomial.monomial(t, (0, 0, 1, 0, 2, 0), 1)
        assert exp_ad(u, a, 4) == low
        assert exp_ad(u, a, 5) == low
        assert exp_ad(u, a, 3).is_zero()

    def test_inverse(self):
        t, u = self.u_and_table()
        a = (GradedPolynomial.monomial(t, (0, 0, 1, 0, 0, 1), 1)
             + sc(t, "y^2") + gen(t, "xs") + gen(t, "g1"))
        for P in (3, 4, 6, 9):
            assert exp_ad(-u, exp_ad(u, a, P), P) == truncate(a, P)

    def test_algebra_automorphism(self):
        t, u = self.u_and_table()
        a = gen(t, "bs1") + sc(t, "x*y")
        b = multiply(gen(t, "g1"), gen(t, "xs")) + sc(t, "y") + gen(t, "bs1")
        P = 8
        lhs = exp_ad(u, multiply(a, b), P)
        rhs = truncate(multiply(exp_ad(u, a, P), exp_ad(u, b, P)), P)
        assert lhs == rhs

    def test_bracket_automorphism(self):
        t, u = self.u_and_table()
        a = multiply(sc(t, "y"), gen(t, "bs1")) + gen(t, "xs") + gen(t, "g1")
        b = multiply(sc(t, "x"), gen(t, "ys")) + sc(t, "x^2") + gen(t, "b1")
        P = 8
        lhs = exp_ad(u, bracket(a, b), P)
        rhs = truncate(bracket(exp_ad(u, a, P), exp_ad(u, b, P)), P)
        assert lhs == rhs

    def test_identity_on_zero_generator(self):
        t = table_xy()
        a = sc(t, "x") + gen(t, "b1")
        assert exp_ad(GradedPolynomial.zero(t), a, 1) == a

    def test_preconditions(self):
        t = table_xy()
        # ghost 0
        with pytest.raises(ValueError):
            exp_ad(multiply(gen(t, "xs"), gen(t, "b1")), sc(t, "x"), 3)
        # ghost -1 but only one positive factor
        with pytest.raises(ValueError):
            exp_ad(multiply(gen(t, "bs1"), gen(t, "b1")), sc(t, "x"), 3)


# -- randomized axiom checks ------------------------------------------


@st.composite
def monomials(draw, t):
    exps = []
    for par in t.parities:
        exps.append(draw(st.integers(0, 1 if par else 2)))
    e = tuple(draw(st.integers(0, 2)) for _ in t.coordinates)
    c = draw(st.integers(-3, 3).filter(bool))
    coeff = BasePolynomial(t.coordinates, {e: Fraction(c)})
    return GradedPolynomial.monomial(t, tuple(exps), coeff)


@st.composite
def homogeneous(draw, t):
    """Random ghost-homogeneous element: a monomial times a scalar sum."""
    m = draw(monomials(t))
    extra = draw(monomials(t))
    if (not extra.is_zero() and not m.is_zero()
            and extra.ghost_degree() == m.ghost_degree()):
        m = m + extra
    return m


TM = table_mixed()


def _sgn(k):
    return -1 if k % 2 else 1


@settings(max_examples=100, deadline=None)
@given(homogeneous(TM), homogeneous(TM))
def test_axiom_antisymmetry(a, b):
    if a.is_zero() or b.is_zero():
        return
    s = _sgn((a.ghost_degree() - 1) * (b.ghost_degree() - 1))
    assert bracket(a, b) == bracket(b, a) * (-s)


@settings(max_examples=100, deadline=None)
@given(homogeneous(TM), homogeneous(TM), homogeneous(TM))
def test_axiom_leibniz(a, b, c):
    if a.is_zero() or b.is_zero():
        return
    s = _sgn((a.ghost_degree() + 1) * b.ghost_degree())
    lhs = bracket(a, multiply(b, c))
    rhs = multiply(bracket(a, b), c) + multiply(b, bracket(a, c)) * s
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(homogeneous(TM), homogeneous(TM), homogeneous(TM))
def test_axiom_jacobi(a, b, c):
    if a.is_zero() or b.is_zero():
        return
    s = _sgn((a.ghost_degree() - 1) * (b.ghost_degree() - 1))
    lhs = bracket(a, bracket(b, c))
    rhs = bracket(bracket(a, b), c) + bracket(b, bracket(a, c)) * s
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(homogeneous(TM), homogeneous(TM))
def test_count_drop_bounded(a, b):
    out = bracket(a, b)
    if out.is_zero() or a.is_zero() or b.is_zero():
        return
    assert out.min_count() >= a.min_count() + b.min_count() - 1


@settings(max_examples=100, deadline=None)
@given(homogeneous(TM), homogeneous(TM), homogeneous(TM))
def test_once_computed_d_s_matches_bracket(S, a, b):
    # the E2 page takes the derivatives of S once and pairs them with
    # many cochains; each pairing must equal the bracket term for term
    factors = _bracket_factors(S)
    for x in (a, b, a):
        out = _bracket_pair(factors, x)
        assert out.terms == bracket(S, x).terms


@st.composite
def capped_pairs(draw, t):
    """Two sums of random monomials and a cap from 0 to the largest
    weight of either factor's product with the other, plus one."""
    a = sum(draw(st.lists(monomials(t), min_size=1, max_size=4)),
            GradedPolynomial.zero(t))
    b = sum(draw(st.lists(monomials(t), min_size=1, max_size=4)),
            GradedPolynomial.zero(t))
    top = (a.max_weight() or 0) + (b.max_weight() or 0)
    return a, b, draw(st.integers(0, top + 1))


@settings(max_examples=150, deadline=None)
@given(capped_pairs(TM))
def test_capped_products_are_truncations(case):
    # weight is additive, so skipping every pair above the cap loses
    # exactly the terms that truncation drops and changes no other term
    a, b, cap = case
    acc: dict = {}
    _products(_weight_rows(a), _weight_rows(b), cap, acc)
    assert _collect(a.table, acc) == truncate(multiply(a, b), cap)
    assert _bracket_pair(_bracket_factors(a), b, cap) == truncate(
        bracket(a, b), cap)


@st.composite
def self_bracket_cases(draw, t):
    """A sum of up to four random monomials, kept whole (often of mixed
    Koszul parity) or cut down to its even or to its odd terms."""
    terms = draw(st.lists(monomials(t), min_size=1, max_size=4))
    parity = draw(st.sampled_from((0, 1, None)))
    if parity is not None:
        terms = [m for m in terms if m.ghost_degree() % 2 == parity]
    return sum(terms, GradedPolynomial.zero(t))


@settings(max_examples=200, deadline=None)
@given(self_bracket_cases(TM))
def test_self_bracket_matches_both_sums(a):
    # bracket(a, a) takes one doubled sum for even a; the reference
    # pairs the derivatives of a with those of a through both sums
    assert bracket(a, a) == _bracket_pair(_bracket_factors(a), a)
