"""Graded algebra: tables, signs, grading triples, projections, strings."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.antibracket import _bracket_factors
from bvkit.graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _add_into,
    _bracket_pair,
    _collect,
    _derivatives,
    _generator_index,
    _graded,
    _products,
    _weight_rows,
    dual_name,
    graded_to_str,
    grading_data,
    gr_project,
    multiply,
    odd_derivation,
    parse_graded,
    truncate,
)
from bvkit.polynomial_engine import (
    BasePolynomial,
    ParseError,
    _Parser,
    _tokenize,
    poly_to_str,
)
from reference_derivatives import (
    coordinate_derivative,
    derivatives,
    left_derivative,
    right_derivative,
)
from reference_products import product_sum, products, weight_rows


def table_xy():
    # one odd ghost of degree 1
    return GeneratorTable(("x", "y"), (("bs1", -2, "b1"),))


def table_even():
    # one even ghost of degree 2
    return GeneratorTable(("x", "y"), (("bs1", -3, "b1"),))


def table_mixed():
    return GeneratorTable(("x", "y"), (("bs1", -2, "b1"), ("gs1", -3, "g1")))


def gen(t, name):
    return GradedPolynomial.generator(t, name)


def sc(t, text):
    return GradedPolynomial.from_scalar(
        t, BasePolynomial.parse(text, t.coordinates))


class TestTable:
    def test_layout(self):
        t = table_xy()
        assert t.names == ("xs", "ys", "bs1", "b1")
        assert t.degrees == (-1, -1, -2, 1)
        assert t.parities == (1, 1, 0, 1)
        assert t.coordinates == ("x", "y")

    def test_pairing(self):
        t = table_mixed()
        assert t.pairing_of("b1") == "bs1"
        assert t.pairing_of("gs1") == "g1"
        assert t.pairing_of("xs") is None
        assert t.degree_of("g1") == 2
        assert t.degree_of("gs1") == -3

    def test_dual_collision(self):
        with pytest.raises(ValueError):
            GeneratorTable(("x", "xs"))

    def test_ghost_name_collision(self):
        with pytest.raises(ValueError):
            GeneratorTable(("x",), (("bs1", -2, "xs"),))

    def test_antifield_degree_validation(self):
        with pytest.raises(ValueError):
            GeneratorTable(("x",), (("bs1", -1, "b1"),))

    def test_duplicate_coordinates(self):
        with pytest.raises(ValueError):
            GeneratorTable(("x", "x"))


class TestGradingData:
    def test_unit(self):
        t = table_xy()
        assert grading_data((0, 0, 0, 0), t) == (0, 0, 0)

    def test_field_pair(self):
        # xs * b1: ghost -1 + 1, weight from b1 only
        t = table_xy()
        assert grading_data((1, 0, 0, 1), t) == (0, 1, 1)

    def test_antifield_square(self):
        # bs1 * b1^2 needs the even ghost table
        t = table_even()
        assert grading_data((0, 0, 1, 2), t) == (1, 4, 2)

    def test_negative_generators_weightless(self):
        t = table_xy()
        assert grading_data((1, 1, 1, 0), t) == (-4, 0, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            grading_data((0, 0), table_xy())


@pytest.mark.parametrize("pairs", [(), (("bs1", -2, "b1"),),
                                   (("bs1", -2, "b1"), ("gs1", -3, "g1"), ("hs1", -4, "h1"))])
def test_weight_and_count_match_the_generator_sums(pairs):
    # the per-index generator sums that the compress forms replaced, on
    # tables with no, one and several positive generators
    t = GeneratorTable(("x", "y"), pairs)
    pos = [i for i, d in enumerate(t.degrees) if d > 0]
    assert len(pos) == len(pairs)
    for m in itertools.product(range(3), repeat=len(t.names)):
        assert t.weight_of(m) == sum(m[i] * t.degrees[i] for i in pos)
        assert t.count_of(m) == sum(m[i] for i in pos)


class TestMultiply:
    def test_odd_square_vanishes(self):
        t = table_xy()
        xs = gen(t, "xs")
        assert multiply(xs, xs).is_zero()
        b1 = gen(t, "b1")
        assert multiply(b1, b1).is_zero()

    def test_odd_anticommute(self):
        t = table_xy()
        xs, ys = gen(t, "xs"), gen(t, "ys")
        assert multiply(xs, ys) == -multiply(ys, xs)

    def test_even_commutes_with_odd(self):
        t = table_xy()
        bs1, b1 = gen(t, "bs1"), gen(t, "b1")
        assert multiply(b1, bs1) == multiply(bs1, b1)

    def test_mixed_sign_example(self):
        # (x b1)(y bs1) = xy bs1 b1 with sign +1
        t = table_xy()
        a = multiply(sc(t, "x"), gen(t, "b1"))
        b = multiply(sc(t, "y"), gen(t, "bs1"))
        expect = GradedPolynomial.monomial(
            t, (0, 0, 1, 1), BasePolynomial.parse("x*y", t.coordinates))
        assert multiply(a, b) == expect

    def test_even_power(self):
        t = table_even()
        b1 = gen(t, "b1")
        sq = multiply(b1, b1)
        assert sq == GradedPolynomial.monomial(t, (0, 0, 0, 2), 1)

    def test_scalar_embedding_central(self):
        t = table_xy()
        f = sc(t, "x^2 - y")
        m = multiply(gen(t, "xs"), gen(t, "b1"))
        assert multiply(f, m) == multiply(m, f)

    def test_table_mismatch(self):
        with pytest.raises(ValueError):
            multiply(gen(table_xy(), "xs"), gen(table_even(), "xs"))


class TestGhostParts:
    def test_homogeneous(self):
        t = table_xy()
        a = multiply(gen(t, "xs"), gen(t, "b1"))
        assert a.is_homogeneous()
        assert a.ghost_degree() == 0

    def test_mixed_raises(self):
        t = table_xy()
        a = gen(t, "xs") + gen(t, "b1")
        assert not a.is_homogeneous()
        with pytest.raises(ValueError):
            a.ghost_degree()
        assert a.ghost_part(-1) == gen(t, "xs")
        assert a.ghost_part(1) == gen(t, "b1")
        assert a.ghost_part(5).is_zero()


class TestProjections:
    def build(self):
        t = table_even()
        a = (sc(t, "1") + multiply(sc(t, "x"), gen(t, "b1"))
             + multiply(gen(t, "bs1"), multiply(gen(t, "b1"), gen(t, "b1"))))
        return t, a

    def test_gr_partition(self):
        t, a = self.build()
        assert gr_project(a, 0) == sc(t, "1")
        assert gr_project(a, 2) == multiply(sc(t, "x"), gen(t, "b1"))
        assert gr_project(a, 4) == multiply(
            gen(t, "bs1"), multiply(gen(t, "b1"), gen(t, "b1")))
        assert gr_project(a, 1).is_zero()
        total = GradedPolynomial.zero(t)
        for p in range(5):
            total = total + gr_project(a, p)
        assert total == a

    def test_truncate(self):
        t, a = self.build()
        assert truncate(a, 3) == gr_project(a, 0) + gr_project(a, 2)
        assert truncate(a, 4) == a
        assert truncate(a, 0) == sc(t, "1")
        with pytest.raises(ValueError):
            truncate(a, -1)

    def test_weight_bounds(self):
        _, a = self.build()
        assert a.min_weight() == 0
        assert a.max_weight() == 4
        assert a.min_count() == 0


class TestDerivatives:
    def test_left_vs_right_odd(self):
        t = table_xy()
        m = multiply(gen(t, "xs"), gen(t, "ys"))
        assert left_derivative(m, "xs") == gen(t, "ys")
        assert right_derivative(m, "xs") == -gen(t, "ys")
        assert left_derivative(m, "ys") == -gen(t, "xs")
        assert right_derivative(m, "ys") == gen(t, "xs")

    def test_even_derivative(self):
        t = table_xy()
        m = GradedPolynomial.monomial(t, (0, 0, 2, 0), 1)
        two_bs = GradedPolynomial.monomial(t, (0, 0, 1, 0), 2)
        assert left_derivative(m, "bs1") == two_bs
        assert right_derivative(m, "bs1") == two_bs

    def test_missing_factor(self):
        t = table_xy()
        assert left_derivative(gen(t, "b1"), "xs").is_zero()

    def test_coordinate_derivative(self):
        t = table_xy()
        a = multiply(sc(t, "x^2*y"), gen(t, "b1"))
        assert coordinate_derivative(a, "x") == multiply(
            sc(t, "2*x*y"), gen(t, "b1"))

    def test_odd_derivation_leibniz(self):
        t = table_xy()
        p, q = sc(t, "x^2"), sc(t, "y")
        D = odd_derivation(t, {"xs": p, "ys": q})
        m = multiply(gen(t, "xs"), gen(t, "ys"))
        assert D(m) == multiply(p, gen(t, "ys")) - multiply(q, gen(t, "xs"))
        # derivation kills anything without the named generators
        assert D(gen(t, "b1")).is_zero()

    def test_unknown_generator_is_named(self):
        t = table_xy()
        a = multiply(sc(t, "x"), gen(t, "b1"))
        msg = ("'x' is not a generator of the table; "
               "its generators are ['xs', 'ys', 'bs1', 'b1']")
        for derivative in (left_derivative, right_derivative):
            with pytest.raises(ValueError, match=re.escape(msg)):
                derivative(a, "x")

    def test_unknown_coordinate_is_named(self):
        t = table_xy()
        msg = "'zz' is not a coordinate of the table; its coordinates are ['x', 'y']"
        with pytest.raises(ValueError, match=re.escape(msg)):
            coordinate_derivative(sc(t, "x*y"), "zz")

    def test_odd_derivation_names_an_unknown_generator_when_built(self):
        t = table_xy()
        msg = ("'bogus' is not a generator of the table; "
               "its generators are ['xs', 'ys', 'bs1', 'b1']")
        with pytest.raises(ValueError, match=re.escape(msg)):
            odd_derivation(t, {"xs": sc(t, "x"), "bogus": sc(t, "y")})
        # a zero image does not excuse the name
        with pytest.raises(ValueError, match=re.escape(msg)):
            odd_derivation(t, {"bogus": GradedPolynomial.zero(t)})


class TestStrings:
    def test_frozen_form(self):
        t = table_even()
        a = multiply(sc(t, "x*y - 1"),
                     GradedPolynomial.monomial(t, (0, 0, 1, 2), 1))
        assert graded_to_str(a) == "(x*y - 1)*bs1*b1^2"

    def test_term_order_by_weight(self):
        t = table_xy()
        a = sc(t, "1") + multiply(sc(t, "x"), gen(t, "b1"))
        assert graded_to_str(a) == "(1) + (x)*b1"

    def test_zero(self):
        t = table_xy()
        assert graded_to_str(GradedPolynomial.zero(t)) == "(0)"
        assert parse_graded("(0)", t).is_zero()

    def test_round_trip_concrete(self):
        t = table_mixed()
        a = (multiply(sc(t, "x^2 - 1/2*y"), multiply(gen(t, "xs"), gen(t, "b1")))
             + multiply(sc(t, "3"), gen(t, "gs1")) - sc(t, "y^4"))
        assert parse_graded(graded_to_str(a), t) == a

    def test_lenient_inputs(self):
        t = table_xy()
        assert parse_graded("2*b1", t) == multiply(sc(t, "2"), gen(t, "b1"))
        assert parse_graded("x*b1 - ys", t) == (
            multiply(sc(t, "x"), gen(t, "b1")) - gen(t, "ys"))
        assert parse_graded("b1/2", t) == multiply(sc(t, "1/2"), gen(t, "b1"))

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_graded("(1)*c7", table_xy())

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_graded("(1)*b1 b1", table_xy())

    def test_odd_power_in_input_vanishes(self):
        t = table_xy()
        assert parse_graded("xs^2", t).is_zero()


class TestOddExponentCheck:
    """Building a term whose odd generator has exponent > 1 raises;
    parsing one yields zero, as the odd power vanishes."""

    ONE = BasePolynomial.const(("x", "y"), 1)

    @pytest.mark.parametrize("name", ["xs", "ys", "gs1", "b1"])
    def test_constructors_reject_odd_square(self, name):
        t = table_mixed()
        assert t.parities[t.index[name]] == 1
        m = [0] * len(t.names)
        m[t.index[name]] = 2
        with pytest.raises(ValueError, match="odd generator exponent"):
            GradedPolynomial(t, {tuple(m): self.ONE})
        with pytest.raises(ValueError, match="odd generator exponent"):
            GradedPolynomial.monomial(t, tuple(m), 3)
        # the parser builds powers by multiplication, so an odd square
        # in the text vanishes instead of reaching the constructor
        assert parse_graded(f"(x)*{name}^2 + (y)*{name}^3", t).is_zero()

    @pytest.mark.parametrize("name", ["bs1", "g1"])
    def test_even_powers_accepted(self, name):
        t = table_mixed()
        m = [0] * len(t.names)
        m[t.index[name]] = 2
        a = GradedPolynomial.monomial(t, tuple(m), 3)
        assert list(a.terms) == [tuple(m)]
        assert parse_graded(f"(3)*{name}^2", t) == a


class TestCoefficientCoordinates:
    """A coefficient must be a polynomial in the table's coordinates."""

    Z = BasePolynomial.parse("z", ("z",))

    def test_constructors_reject_foreign_coefficients(self):
        t = table_xy()
        unit = t.unit_monomial()
        with pytest.raises(ValueError, match=r"\('z',\).*\('x', 'y'\)"):
            GradedPolynomial(t, {unit: self.Z})
        with pytest.raises(ValueError, match=r"\('z',\).*\('x', 'y'\)"):
            GradedPolynomial.monomial(t, unit, self.Z)
        with pytest.raises(ValueError, match=r"\('z',\).*\('x', 'y'\)"):
            GradedPolynomial.from_scalar(t, self.Z)

    def test_scalars_are_read_from_text_and_numbers(self):
        t = table_xy()
        assert GradedPolynomial.from_scalar(t, "x + y") == sc(t, "x + y")
        assert GradedPolynomial.monomial(t, t.unit_monomial(), "x") == sc(t, "x")
        assert GradedPolynomial.from_scalar(t, Fraction(1, 2)) == sc(t, "1/2")


# -- randomized properties --------------------------------------------


@st.composite
def monomials(draw, t):
    exps = []
    for par in t.parities:
        exps.append(draw(st.integers(0, 1 if par else 2)))
    coeff = BasePolynomial.zero(t.coordinates)
    nv = len(t.coordinates)
    for _ in range(draw(st.integers(1, 2))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        c = draw(st.integers(-3, 3))
        coeff = coeff + BasePolynomial(t.coordinates, {e: Fraction(c)})
    return GradedPolynomial.monomial(t, tuple(exps), coeff)


@st.composite
def graded_polys(draw, t):
    out = GradedPolynomial.zero(t)
    for _ in range(draw(st.integers(1, 3))):
        out = out + draw(monomials(t))
    return out


TM = table_mixed()


@settings(max_examples=60, deadline=None)
@given(graded_polys(TM), graded_polys(TM), graded_polys(TM))
def test_associativity(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=80, deadline=None)
@given(monomials(TM), monomials(TM))
def test_graded_commutativity(a, b):
    if a.is_zero() or b.is_zero():
        return
    sign = -1 if (a.ghost_degree() % 2) and (b.ghost_degree() % 2) else 1
    assert multiply(a, b) == multiply(b, a) * sign


@settings(max_examples=80, deadline=None)
@given(monomials(TM), monomials(TM))
def test_grading_additive(a, b):
    p = multiply(a, b)
    if p.is_zero() or a.is_zero() or b.is_zero():
        return
    (ma,), (mb,), (mp,) = a.terms, b.terms, p.terms
    ga, wa, ca = grading_data(ma, TM)
    gb, wb, cb = grading_data(mb, TM)
    assert grading_data(mp, TM) == (ga + gb, wa + wb, ca + cb)


@settings(max_examples=60, deadline=None)
@given(graded_polys(TM), graded_polys(TM), st.integers(0, 4))
def test_truncate_multiplicative(a, b, P):
    lhs = truncate(multiply(a, b), P)
    rhs = truncate(multiply(truncate(a, P), truncate(b, P)), P)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(graded_polys(TM))
def test_string_round_trip(a):
    assert parse_graded(graded_to_str(a), TM) == a


# -- one-pass derivatives against the per-name kernels they replaced ---


def _reference_derivative(a, name, right):
    """The per-name body that scanned every term of a once per generator."""
    table = a.table
    i = table.index[name]
    passed = ()
    if table.parities[i]:
        passed = [j for j in table._odd_idx if (j > i if right else j < i)]

    def terms():
        for m, c in a.terms.items():
            e = m[i]
            if e:
                m2 = list(m)
                m2[i] -= 1
                c = c * e
                if sum(m[j] for j in passed) % 2:
                    c = -c
                yield tuple(m2), c

    out: dict = {}
    _add_into(out, terms())
    return GradedPolynomial(table, out)


def _reference_bracket_factors(a, half=False):
    """The body that took two per-name derivatives of a for each pair;
    an entry names the derivative of b to pair with."""
    table = a.table

    def left(x, name):
        return _reference_derivative(x, name, False)

    def right(x, name):
        return _reference_derivative(x, name, True)

    pairs = [(c, dual_name(c), coordinate_derivative, coordinate_derivative)
             for c in table.coordinates]
    pairs += [(g, aname, right, left) for aname, _deg, g in table.pairs]
    out = []
    for x, xs, da_dx, db_dx in pairs:
        da = da_dx(a, x)
        if da:
            out.append((weight_rows(da * 2 if half else da), left, xs))
        if half:
            continue
        ra = right(a, xs)
        if ra:
            out.append((weight_rows(-ra), db_dx, x))
    return out


def _reference_bracket_pair(factors, b, cap=None):
    """The pairing that took one per-name derivative of b per entry, on
    the product kernel before the integer one."""
    out: dict = {}
    for rows, derivative, name in factors:
        db = derivative(b, name)
        if db:
            _add_into(out, products(b.table, rows,
                                    weight_rows(db, cap is not None), cap))
    return GradedPolynomial(b.table, out)


@settings(max_examples=150, deadline=None)
@given(graded_polys(TM))
def test_one_pass_derivatives_match_the_per_name_kernel(a):
    for right in (False, True):
        derivs = derivatives(a, right)
        for i, name in enumerate(TM.names):
            ref = _reference_derivative(a, name, right)
            got = derivs.get(i, GradedPolynomial.zero(TM))
            # equal term for term, in the same order
            assert list(got.terms.items()) == list(ref.terms.items())
            assert (i in derivs) == bool(ref)


# -- row-form derivatives against the graded ones they replaced --------


@st.composite
def derivative_cases(draw, t):
    """An operand with rational coefficients, a scale per derivative
    index (generators, then coordinates; 0 skips the index), a side and
    whether rows are split by weight."""
    terms = draw(st.lists(monomials(t), min_size=1, max_size=4))
    a = sum((m * Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4)))
             for m in terms), GradedPolynomial.zero(t))
    width = len(t.names) + len(t.coordinates)
    scales = draw(st.lists(st.sampled_from((0, 1, -1, 2)), min_size=width, max_size=width))
    return a, scales, draw(st.booleans()), draw(st.booleans())


def _masks_from_scratch(t, m):
    """A and PA of a monomial, counted generator by generator."""
    odd = [m[i] for i in t._odd_idx]
    A = sum(1 << k for k, e in enumerate(odd) if e)
    PA = sum(1 << k for k in range(len(odd)) if sum(odd[k + 1:]) % 2)
    return A, PA


@settings(max_examples=300, deadline=None)
@given(derivative_cases(TM))
def test_row_derivatives_match_the_graded_ones(case):
    # each scaled derivative, left or right or by a coordinate, in the
    # rows _weight_rows gives it: equal term for term and in order, with
    # numerators and denominators in lowest terms and masks that match
    # the ones counted from the derivative's own monomial
    a, scales, right, split = case
    n = len(TM.names)
    graded = derivatives(a, right)
    graded.update({n + j: coordinate_derivative(a, c) for j, c in enumerate(TM.coordinates)})
    got = _derivatives(a, scales, right, split)
    for i, k in enumerate(scales):
        d = graded.get(i, GradedPolynomial.zero(TM)) * k
        assert (i in got) == bool(d)
        if d:
            want = [(w, [(m, *_masks_from_scratch(TM, m), c) for m, _A, _PA, c in rows])
                    for w, rows in _weight_rows(d, split)]
            assert got[i] == want


@settings(max_examples=150, deadline=None)
@given(graded_polys(TM), graded_polys(TM), st.booleans(),
       st.one_of(st.none(), st.integers(0, 3)))
def test_bracket_factors_match_the_per_name_kernel(a, b, half, cap):
    got = _bracket_pair(_bracket_factors(a, half), b, cap)
    ref = _reference_bracket_pair(_reference_bracket_factors(a, half), b, cap)
    assert list(got.terms.items()) == list(ref.terms.items())


def _assert_checked_form(r):
    rebuilt = GradedPolynomial(r.table, r.terms)
    assert r == rebuilt
    assert hash(r) == hash(rebuilt)
    width = len(r.table.names)
    for m, c in r.terms.items():
        assert type(m) is tuple and len(m) == width
        assert all(m[i] <= 1 for i in r.table._odd_idx)
        assert isinstance(c, BasePolynomial) and not c.is_zero()


@settings(max_examples=100, deadline=None)
@given(graded_polys(TM), graded_polys(TM), st.integers(0, 4))
def test_unchecked_results_are_in_checked_form(a, b, P):
    # internal results skip the constructor's checks; each must be what
    # the checked constructor would build from its terms
    D = odd_derivation(TM, {"xs": sc(TM, "x"), "ys": sc(TM, "y^2 - 1"),
                            "gs1": b})
    K = odd_derivation(TM, {"xs": sc(TM, "x"), "ys": sc(TM, "y")})
    cancelled = [a - a, a + (-a), K(K(a)), a * 0,
                 multiply(gen(TM, "b1"), gen(TM, "b1")),
                 left_derivative(gen(TM, "b1"), "xs")]
    assert all(r.is_zero() for r in cancelled)
    capped: dict = {}
    _products(_weight_rows(a), _weight_rows(b), P, capped)
    results = cancelled + [
        a + b, a - b, -a, a * Fraction(-1, 2), multiply(a, b),
        _collect(TM, capped), truncate(a, P),
        gr_project(a, P), left_derivative(a, "gs1"), right_derivative(a, "b1"),
        coordinate_derivative(a, "x"), D(a), K(a),
        _bracket_pair(_bracket_factors(a), b),
        _bracket_pair(_bracket_factors(a, True), a, P),
        _bracket_pair(_bracket_factors(a), a)]
    results += list(derivatives(a).values())
    results += list(derivatives(a, right=True).values())
    for r in results:
        _assert_checked_form(r)


# -- the integer product kernel against the loop it replaced ----------


@st.composite
def product_cases(draw, t):
    """Factor pairs to add into one sum, with rational coefficients, and
    a cap or none.  Often three more pairs add k times the first product
    and then -(k + 1) times it, over other denominators, and bring its
    monomials back after the sum has dropped them."""

    def factor():
        terms = draw(st.lists(monomials(t), min_size=1, max_size=3))
        return sum((m * Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
                    for m in terms), GradedPolynomial.zero(t))

    pairs = [(factor(), factor()) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        a, b = pairs[0]
        k = Fraction(draw(st.integers(1, 3)), draw(st.integers(2, 4)))
        pairs += [(a * k, b), (-a * (k + 1), b), (a, b * k)]
    return pairs, draw(st.one_of(st.none(), st.integers(0, 6)))


@settings(max_examples=300, deadline=None)
@given(product_cases(TM))
def test_products_match_the_reference_kernel(case):
    # odd squares, Koszul signs, sums over unequal denominators and
    # monomials that cancel and come back: equal term for term, in order
    pairs, cap = case
    acc: dict = {}
    for a, b in pairs:
        _products(_weight_rows(a, cap is not None), _weight_rows(b, cap is not None),
                  cap, acc)
    got = _collect(TM, acc)
    ref = product_sum(TM, pairs, cap)
    assert list(got.terms.items()) == list(ref.terms.items())
    _assert_checked_form(got)


# -- the Koszul-Tate derivation against the loop it replaced ----------


def _reference_odd_derivation(table, images):
    """The derivation before it ran on _bracket_pair: one scan of a for
    its left derivatives, then each nonzero image multiplied by its
    derivative and added in."""
    items = []
    for name, img in images.items():
        i = _generator_index(table, name)
        if img:
            items.append((i, img))

    def apply(a):
        derivs = derivatives(a)
        out: dict = {}
        for i, img in items:
            d = derivs.get(i)
            if d:
                _add_into(out, multiply(img, d).terms.items())
        return _graded(table, out)

    return apply


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(TM.names), graded_polys(TM), max_size=4),
       graded_polys(TM))
def test_odd_derivation_matches_the_reference_loop(images, a):
    got = odd_derivation(TM, images)(a)
    assert got == _reference_odd_derivation(TM, images)(a)
    _assert_checked_form(got)


def test_odd_derivation_refuses_another_table():
    t, other = table_xy(), table_mixed()
    images = {"xs": sc(t, "x"), "ys": sc(t, "y^2")}
    D, ref = odd_derivation(t, images), _reference_odd_derivation(t, images)
    # an input with a derivative the images meet: both raise
    a = multiply(sc(other, "x"), gen(other, "xs"))
    for delta in (D, ref):
        with pytest.raises(ValueError, match="generator table mismatch"):
            delta(a)
    # the reference returned 0 over t for an input it had nothing to pair
    # with; the derivation now checks the input first
    assert ref(sc(other, "x")).is_zero()
    with pytest.raises(ValueError, match="generator table mismatch"):
        D(sc(other, "x"))
    # an image over another table raised when first paired; now when built
    bad = {"xs": sc(other, "x")}
    with pytest.raises(ValueError, match="generator table mismatch"):
        _reference_odd_derivation(t, bad)(gen(t, "xs"))
    with pytest.raises(ValueError, match="generator table mismatch"):
        odd_derivation(t, bad)


# -- one grammar: parse_graded against its former private parser ------


def _reference_parse_graded(text, table):
    """The recursive-descent body parse_graded had before it became a
    subclass of the scalar parser: factors are a parenthesized scalar,
    an integer or name[^k]; a sign only before a whole term."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        t = toks[pos]
        if kind is not None and t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", t[2])
        pos += 1
        return t

    def parse_factor():
        nonlocal pos
        t = peek()
        if t[0] == "(":
            take()
            sub = _Parser(toks, table.coordinates)
            sub.i = pos
            scalar = sub.expr()
            pos = sub.i
            take(")")
            return GradedPolynomial.from_scalar(table, scalar)
        if t[0] == "int":
            take()
            return GradedPolynomial.from_scalar(table, int(t[1]))
        if t[0] == "name":
            take()
            name = t[1]
            if name in table.index:
                g = GradedPolynomial.generator(table, name)
            elif name in table.coordinates:
                g = GradedPolynomial.coordinate(table, name)
            else:
                raise ParseError(f"unknown name {name!r}", t[2])
            if peek()[0] == "^":
                take()
                e = int(take("int")[1])
                out = GradedPolynomial.from_scalar(table, 1)
                for _ in range(e):
                    out = multiply(out, g)
                return out
            return g
        raise ParseError(f"unexpected token {t[1]!r}", t[2])

    def parse_term():
        out = parse_factor()
        while True:
            t = peek()
            if t[0] == "*":
                take()
                out = multiply(out, parse_factor())
            elif t[0] == "/":
                take()
                d = take("int")
                denom = int(d[1])
                if denom == 0:
                    raise ParseError("division by zero", d[2])
                out = out * Fraction(1, denom)
            else:
                return out

    result = GradedPolynomial.zero(table)
    sign = 1
    t = peek()
    if t[0] in ("+", "-"):
        take()
        sign = -1 if t[0] == "-" else 1
    result = result + parse_term() * sign
    while peek()[0] in ("+", "-"):
        op = take()[0]
        nxt = parse_term()
        result = result + nxt if op == "+" else result - nxt
    t = peek()
    if t[0] != "end":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return result


@st.composite
def scalar_texts(draw, coords):
    p = BasePolynomial.zero(coords)
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in coords)
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        p = p + BasePolynomial(coords, {e: c})
    return poly_to_str(p)


@st.composite
def term_texts(draw, t):
    """One term in any spelling the former grammar reads: factors in any
    order, integer or parenthesized coefficients, name^k or a repeated
    name, and /k after any factor."""
    factors = []
    if draw(st.booleans()):
        factors.append(str(draw(st.integers(0, 5))))
    if draw(st.booleans()):
        factors.append("(" + draw(scalar_texts(t.coordinates)) + ")")
    names = list(t.coordinates) + list(t.names)
    parities = [0] * len(t.coordinates) + list(t.parities)
    for name, par in zip(names, parities):
        e = draw(st.integers(0, 1 if par else 2))
        if e > 1 and draw(st.booleans()):
            factors.append(f"{name}^{e}")
        else:
            factors.extend([name] * e)
    if not factors:
        factors.append("1")
    factors = draw(st.permutations(factors))
    parts = [factors[0]] + ["*" + f for f in factors[1:]]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 4))
        parts.insert(draw(st.integers(1, len(parts))), f"/{k}")
    return "".join(parts)


@st.composite
def graded_texts(draw, t):
    text = draw(st.sampled_from(["", "-", "+"])) + draw(term_texts(t))
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - "])) + draw(term_texts(t))
    return text


@settings(max_examples=150, deadline=None)
@given(graded_texts(TM))
def test_parse_graded_matches_the_reference_parser(text):
    assert parse_graded(text, TM) == _reference_parse_graded(text, TM)


class TestScalarGrammar:
    """Graded text reads exactly the scalar grammar: unary minus inside
    a term and ^ after a group or an integer, which the former parser
    rejected."""

    @pytest.mark.parametrize("text,expected", [
        ("b1*-xs", "-(1)*b1*xs"),
        ("(x + 1)^2*b1", "(x^2 + 2*x + 1)*b1"),
        ("2^3*b1", "(8)*b1"),
        ("-(2)^2*g1^2*bs1", "(-4)*bs1*g1^2"),
        ("x^2*-(1/2)*g1", "(-1/2*x^2)*g1"),
    ])
    def test_wider_inputs(self, text, expected):
        t = TM
        assert parse_graded(text, t) == _reference_parse_graded(expected, t) != 0
        with pytest.raises(ParseError):
            _reference_parse_graded(text, t)

    def test_power_of_a_sum_is_a_product(self):
        t = TM
        a = parse_graded("x*b1 + bs1", t)
        assert a ** 0 == sc(t, "1")
        assert a ** 3 == multiply(a, multiply(a, a))
        with pytest.raises(ValueError):
            a ** -1

    def test_group_is_a_scalar(self):
        with pytest.raises(ParseError, match="unbound variable 'b1'"):
            parse_graded("(x*b1 + bs1)^2", TM)
