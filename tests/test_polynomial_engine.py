"""Engine tests: frozen oracle values first, then property suites."""

import contextlib
import heapq
import signal
import threading
import time
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import elimination, polynomial_engine
from bvkit.brst import symmetry_presentation
from bvkit.elimination import _axpy, _cleared, _echelon, reduce_row
from bvkit.polynomial_engine import (
    BasePolynomial,
    _Engine,
    _as_vectors,
    _combination,
    _from_terms,
    _monomial_div,
    _monomial_divides,
    _monomial_lcm,
    _monomial_mul,
    _monomial_nf,
    _mvec_add_into,
    _mvec_from_vector,
    _mvec_to_vector,
    _poly,
    _term_key,
    ModuleBasis,
    ModuleVector,
    groebner_basis,
    lift_membership,
    monomial_key,
    normal_form,
    poly_to_str,
    syzygy_basis,
)
from bvkit.tate import _Bounds
from reference_elimination import (
    _dense_rref,
    _reference_nullspace,
    _reference_reduce_row,
    _reference_rref,
    _rref_of,
    _typed,
)

P = BasePolynomial.parse


def mk(vars, *texts):
    return [P(t, vars) for t in texts]


# -- oracles, computed independently and frozen ------------------------


class TestOracles:
    def test_gaussian_elimination_oracle_linear_ideal(self):
        # oracle: row-reduce the coefficient matrix of {x+y, x-y} -> {x, y}
        rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
        assert _echelon(r.items() for r in rows) == [(0, {0: 1}), (1, {1: 1})]
        gb = groebner_basis(mk(("x", "y"), "x + y", "x - y"))
        assert set(map(str, gb)) == {"x", "y"}

    def test_single_buchberger_step_oracle(self):
        # oracle: S(x^2, xy) = y*x^2 - x*(xy) = 0, so the input is already
        # a Groebner basis; reduction cannot shrink it
        gb = groebner_basis(mk(("x", "y"), "x^2", "x*y"))
        assert set(map(str, gb)) == {"x^2", "x*y"}

    def test_unit_ideal(self):
        gb = groebner_basis(mk(("x",), "1"))
        assert [str(g) for g in gb] == ["1"]

    def test_syzygy_of_coordinates(self):
        # the Koszul relation; canonical (monic-leading) form is (-y, x)
        syz = syzygy_basis(mk(("x", "y"), "x", "y"))
        assert len(syz) == 1
        assert [str(c) for c in syz[0]] == ["-y", "x"]

    def test_syzygy_example7_partials(self):
        h = "x^2 + y^2 - 1"
        syz = syzygy_basis(mk(("x", "y"), f"x*({h})", f"y*({h})"))
        assert len(syz) == 1
        assert [str(c) for c in syz[0]] == ["-y", "x"]

    def test_syzygy_of_unit(self):
        assert syzygy_basis(mk(("x",), "1")) == []

    def test_dense_syzygy_oracle_slice(self):
        # independent dense solve: coefficients of c1, c2 up to degree 6
        # for c1*x^2 + c2*(x*y) = 0 over k[x, y]
        vars = ("x", "y")
        gens = mk(vars, "x^2", "x*y")
        monos = [(a, b) for d in range(7) for a in range(d + 1)
                 for b in [d - a]]
        cols = []
        col_meta = []
        for gi, g in enumerate(gens):
            for m in monos:
                prod = BasePolynomial(vars, {m: Fraction(1)}) * g
                cols.append(prod)
                col_meta.append((gi, m))
        kernel = _reference_nullspace([c.terms for c in cols])
        syz = syzygy_basis(gens)
        # every dense kernel vector is a module combination of the syzygies
        for v in kernel:
            comps = [BasePolynomial.zero(vars), BasePolynomial.zero(vars)]
            for j, coeff in v.items():
                gi, m = col_meta[j]
                comps[gi] = comps[gi] + BasePolynomial(vars, {m: coeff})
            vec = ModuleVector(comps)
            assert lift_membership(vec, syz) is not None


# -- spec-level examples ----------------------------------------------


class TestNormalForm:
    def test_square_reduces(self):
        vars = ("x",)
        gb = groebner_basis(mk(vars, "x"))
        assert normal_form(P("x^2", vars), gb).is_zero()

    def test_unrelated_variable_passes(self):
        vars = ("x", "y")
        gb = groebner_basis(mk(vars, "x"))
        assert str(normal_form(P("y", vars), gb)) == "y"

    def test_example7_jacobian_member(self):
        vars = ("x", "y")
        h = "(x^2 + y^2 - 1)"
        gb = groebner_basis(mk(vars, f"x*{h}", f"y*{h}"))
        assert normal_form(P(f"x^2*{h}", vars), gb).is_zero()

    def test_zero_ideal(self):
        vars = ("x",)
        gb = groebner_basis([BasePolynomial.zero(vars)])
        f = P("x^3 - 2", vars)
        assert normal_form(f, gb) == f

    def test_variables_are_checked_against_an_empty_basis(self):
        # the zero ideal has no elements, and its variables are still checked
        gb = groebner_basis([BasePolynomial.zero(("y",))])
        with pytest.raises(ValueError, match="variable mismatch with basis"):
            normal_form(P("x^2", ("x",)), gb)


class TestLift:
    def test_simple_lift(self):
        vars = ("x", "y")
        coeffs = lift_membership(P("x^2 + x*y", vars), mk(vars, "x"))
        assert coeffs is not None
        assert str(coeffs[0]) == "x + y"

    def test_negative_answer(self):
        vars = ("x", "y")
        assert lift_membership(P("y", vars), mk(vars, "x")) is None

    def test_zero_target(self):
        vars = ("x", "y")
        coeffs = lift_membership(BasePolynomial.zero(vars), mk(vars, "x", "y"))
        assert coeffs is not None
        assert all(c.is_zero() for c in coeffs)

    def test_module_lift(self):
        vars = ("x",)
        g1 = ModuleVector(mk(vars, "x", "1"))
        g2 = ModuleVector(mk(vars, "0", "x"))
        target = ModuleVector(mk(vars, "x^2", "x + x^2"))
        coeffs = lift_membership(target, [g1, g2])
        assert coeffs is not None
        acc = ModuleVector(mk(vars, "0", "0"))
        for c, g in zip(coeffs, [g1, g2]):
            acc = acc + g * c
        assert acc == target

    def test_empty_list_reaches_only_zero(self):
        vars = ("x", "y")
        empty = ModuleBasis([])
        assert empty.lift(BasePolynomial.zero(vars)) == ()
        assert empty.lift(P("x", vars)) is None
        assert lift_membership(P("x", vars), []) is None
        empty.add(P("x", vars))
        assert str(empty.lift(P("x*y", vars))[0]) == "y"

    def test_add_completes_the_new_pairs(self):
        # y^2 = y*(x^2 + y) - x*(x*y) is reached only through their S-pair
        vars = ("x", "y")
        grown = ModuleBasis(mk(vars, "x^2 + y"))
        assert grown.lift(P("y^2", vars)) is None
        grown.add(P("x*y", vars))
        assert [str(c) for c in grown.lift(P("y^2", vars))] == ["y", "-x"]


    def test_groebner_basis_builds_its_generator_vectors_once(self, monkeypatch):
        # gens was a property that rebuilt and checked the vectors on each
        # read, and a lift reads it several times
        gb = groebner_basis(mk(VARS2, "x^2 + y", "x*y - 1"))
        assert gb.gens is gb.gens
        assert [v.components for v in gb.gens] == [(g,) for g in gb.generators]
        calls = []
        real = polynomial_engine._as_vectors
        monkeypatch.setattr(polynomial_engine, "_as_vectors",
                            lambda items: calls.append(items) or real(items))
        assert gb.lift(P("x^3 + x*y", VARS2)) is not None
        assert calls == []


class TestAbsorb:
    def test_empty_basis_absorbs_the_first_nonzero_vector(self):
        vars = ("x", "y")
        empty = ModuleBasis([])
        assert empty.absorb([]) == []
        x, y = mk(vars, "x", "y")
        assert empty.absorb([x, x * P("2*y", vars), y]) == [x, y]
        assert len(empty.gens) == 2

    def test_zero_vector_is_never_added(self):
        vars = ("x", "y")
        zero = BasePolynomial.zero(vars)
        for basis in (ModuleBasis([]), ModuleBasis(mk(vars, "x"))):
            before = len(basis.gens)
            assert basis.absorb([zero, ModuleVector([zero])]) == []
            assert len(basis.gens) == before

    def test_repeated_vector_is_added_once(self):
        vars = ("x", "y")
        basis = ModuleBasis(mk(vars, "x^2"))
        v = P("x*y + y", vars)
        assert basis.absorb([v, v, v * 3]) == [v]
        assert len(basis.gens) == 2
        assert basis.lift(v) is not None

    def test_raw_and_monic_vectors_span_alike(self):
        vars = ("x", "y")
        raw = [ModuleVector(mk(vars, "3*x", "2*y")), ModuleVector(mk(vars, "4*y^2", "0"))]
        monic = [v * P(f"1/{c}", vars) for v, c in zip(raw, (3, 4))]
        a, b = ModuleBasis([]), ModuleBasis([])
        assert a.absorb(raw) == raw
        assert b.absorb(monic) == monic
        targets = raw + monic + [ModuleVector(mk(vars, "x*y", "y^2")),
                                 ModuleVector(mk(vars, "x", "0")),
                                 ModuleVector(mk(vars, "y^3", "0"))]
        assert [a.lift(t) is None for t in targets] == [b.lift(t) is None for t in targets]


class TestCertificateChecks:
    """Each check raises when the engine hands it a wrong answer."""

    GENS = ("x^2 - y", "x*y")

    @staticmethod
    def double(tr):
        return {k: 2 * c for k, c in tr.items()}

    def test_lift_rejects_a_corrupted_transform(self):
        basis = ModuleBasis(mk(VARS2, *self.GENS))
        f = P("x^3 - x*y + x*y^2", VARS2)
        assert basis.lift(f) is not None
        eng = basis._engine
        eng.transforms = [self.double(tr) for tr in eng.transforms]
        with pytest.raises(AssertionError, match="membership certificate failed"):
            basis.lift(f)

    def test_groebner_basis_rejects_a_corrupted_matrix_row(self, monkeypatch):
        reduce = _Engine.reduce_canonical

        def corrupt(eng):
            reduce(eng)
            eng.transforms[0] = self.double(eng.transforms[0])

        monkeypatch.setattr(_Engine, "reduce_canonical", corrupt)
        with pytest.raises(AssertionError, match="transformation matrix failed"):
            groebner_basis(mk(VARS2, *self.GENS))

    def test_syzygy_basis_rejects_a_non_syzygy(self, monkeypatch):
        # the syzygy (-y, x) of (x, y) becomes (1 - y, x)
        reduce = _Engine.reduce_canonical

        def corrupt(eng):
            reduce(eng)
            for g in eng.basis:
                if all(pos >= 1 for pos, _e in g):
                    g[(1, (0, 0))] = g.get((1, (0, 0)), 0) + 1

        monkeypatch.setattr(_Engine, "reduce_canonical", corrupt)
        with pytest.raises(AssertionError, match="syzygy failed verification"):
            syzygy_basis(mk(VARS2, "x", "y"))


def test_engine_coefficients_are_ints(monkeypatch):
    # every build clears its inputs of denominators and keeps each
    # element with its transform primitive, leading coefficient positive
    engines = []
    real = _Engine.__init__

    def spy(self, *args, **kwargs):
        engines.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_Engine, "__init__", spy)
    gens = mk(VARS2, "x/2 - y/3", "2/3*x*y + 5/7", "-y^2/4")
    basis = ModuleBasis(gens[:2])
    basis.add(gens[2])
    assert [str(c) for c in basis.lift(P("x^2/6 - x*y/9", VARS2))] == ["1/3*x", "0", "0"]
    groebner_basis(gens)
    syzygy_basis(gens)
    assert [eng.track for eng in engines] == [True, True, False]
    for eng in engines:
        assert eng.basis
        for vec, tr, (_t, lc) in zip(eng.basis, eng.transforms, eng.lts):
            values = list(vec.values()) + list((tr or {}).values())
            assert all(type(c) is int for c in values)
            assert gcd(*values) == 1 and type(lc) is int and lc > 0


class TestDivisorMemo:
    def test_add_clears_the_memo(self):
        # the lift before add records y as unreducible; after add(y) that
        # entry must be gone, or f and y would stay outside the module
        vars = ("x", "y")
        grown = ModuleBasis(mk(vars, "x^2"))
        f = P("x^3 + y", vars)
        assert grown.lift(f) is None
        assert grown.lift(P("y", vars)) is None
        grown.add(P("y", vars))
        assert [str(c) for c in grown.lift(P("y", vars))] == ["0", "1"]
        coeffs = grown.lift(f)
        assert coeffs is not None
        assert _reference_combination(coeffs, grown.gens) == ModuleVector([f])

    def test_reordering_clears_the_memo(self):
        # reduce_canonical sorts [x^2 + 1, y + 1] to [y + 1, x^2 + 1]; a memo
        # entry kept from before would send x^2 to y + 1
        vars = ("x", "y")
        gens = mk(vars, "x^2 + 1", "y + 1")
        eng = _Engine([{(0, e): c for e, c in g.terms.items()} for g in gens],
                      rank=1, nvars=2, order="grevlex")
        x2 = {(0, (2, 0)): 1}
        assert eng._divide(x2, None)[0] == {(0, (0, 0)): -1}
        eng.reduce_canonical()
        assert [lt for lt, _c in eng.lts] == [(0, (0, 1)), (0, (2, 0))]
        assert eng._divide(x2, None)[0] == {(0, (0, 0)): -1}


class TestCoefficients:
    def test_int_fraction_and_zero_inputs(self):
        p = BasePolynomial(("x", "y"), {(1, 0): 3, (0, 1): Fraction(-1, 2), (0, 0): 0,
                                        (2, 0): Fraction(0), (1, 1): Fraction(4, 2)})
        assert p.terms == {(1, 0): Fraction(3), (0, 1): Fraction(-1, 2),
                           (1, 1): Fraction(2)}
        assert all(type(c) is Fraction for c in p.terms.values())

    @pytest.mark.parametrize("c", [0.5, 1.0, None])
    def test_inexact_coefficients_refused(self, c):
        # Fraction read the float 0.5 as an exact coefficient, and None
        # raised TypeError
        with pytest.raises(ValueError, match="as an exact number"):
            BasePolynomial(VARS2, {(1, 0): c})
        with pytest.raises(ValueError, match="as an exact number"):
            BasePolynomial.const(VARS2, c)

    def test_numeric_text_is_read_exactly(self):
        assert BasePolynomial.const(VARS2, "0.1").terms == {(0, 0): Fraction(1, 10)}
        assert BasePolynomial(VARS2, {(0, 1): "3/2"}).terms == {(0, 1): Fraction(3, 2)}


class TestPolynomialInput:
    """The one rule by which every entry point reads a polynomial input."""

    def test_a_polynomial_over_the_coordinates_is_taken_as_given(self):
        p = P("x*y - 1", VARS2)
        assert _poly(p, ["x", "y"]) is p

    def test_numbers_and_text(self):
        assert _poly(3, VARS2) == BasePolynomial.const(VARS2, 3)
        assert _poly(Fraction(-1, 2), VARS2) == P("-1/2", VARS2)
        assert _poly(0, VARS2).is_zero()
        assert _poly("x^2 - y", VARS2) == P("x^2 - y", VARS2)

    @pytest.mark.parametrize("x", [P("x", ("y", "x")), P("x", ("x",))])
    def test_other_coordinates_are_refused_naming_both_lists(self, x):
        with pytest.raises(ValueError) as e:
            _poly(x, VARS2)
        assert str(x.vars) in str(e.value) and str(VARS2) in str(e.value)

    @pytest.mark.parametrize("x", [None, 0.5, ["x"]])
    def test_anything_else_is_refused(self, x):
        with pytest.raises(ValueError, match=r"\('x', 'y'\)"):
            _poly(x, VARS2)


# -- property suites ---------------------------------------------------

VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")


def _clamp_degree(e, budget):
    e = list(e)
    while sum(e) > budget:
        i = max(range(len(e)), key=lambda k: e[k])
        e[i] -= 1
    return tuple(e)


# Generous: a property example runs in well under a second, and one full
# run once stalled for minutes inside a Buchberger call of these suites.
BUCHBERGER_LIMIT_S = 180


class BuchbergerTimeout(AssertionError):
    """A Buchberger call of a property ran past its time limit."""


@contextlib.contextmanager
def _time_limit(ideal, seconds=BUCHBERGER_LIMIT_S):
    """Fail, naming the ideal, if the block runs longer than seconds.

    The block holds a property's Buchberger calls, so a stalled example
    reports its input instead of hanging the run.  signal.alarm works on
    the main thread only; on any other thread the block runs untimed.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(_signum, _frame):
        raise BuchbergerTimeout(f"Buchberger calls ran past {seconds} s on the ideal {ideal!r}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_time_limit_names_the_ideal():
    gens = mk(VARS2, "x^2 + y", "x*y - 1")
    with pytest.raises(BuchbergerTimeout, match=r"ideal \[BasePolynomial\('x\^2 \+ y'\)"):
        with _time_limit(gens, seconds=1):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pass


def poly_strategy(vars, max_deg=4, max_terms=4):
    n = len(vars)
    mono = st.tuples(*[st.integers(0, max_deg) for _ in range(n)]).map(
        lambda e: _clamp_degree(e, max_deg))
    coeff = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
    return st.lists(st.tuples(mono, coeff), max_size=max_terms).map(
        lambda items: BasePolynomial(vars, dict(items)))


@settings(max_examples=60, deadline=None)
@given(st.lists(poly_strategy(VARS3, max_deg=3, max_terms=3), min_size=1, max_size=3),
       poly_strategy(VARS3, max_deg=4))
def test_remainder_certificate(gens, f):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    with _time_limit(gens):
        gb = groebner_basis(gens)
        nf = normal_form(f, gb)
        coeffs = lift_membership(f - nf, gens)
    assert coeffs is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=1, max_size=3),
       poly_strategy(VARS2), poly_strategy(VARS2),
       st.fractions(min_value=-3, max_value=3))
def test_normal_form_idempotent_linear(gens, f, g, c):
    gens = [p for p in gens if not p.is_zero()]
    if not gens:
        return
    with _time_limit(gens):
        gb = groebner_basis(gens)
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f * c + g, gb) == normal_form(f, gb) * c + normal_form(g, gb)


def _direct_normal_form(f, gb):
    """normal_form before the monomial memo: one division of all of f,
    cleared of denominators, over the scale the division reports."""
    vec, k = _cleared({(0, e): c for e, c in f.terms.items()})
    rem, _, d = gb._engine._divide(vec, None)
    return {e: Fraction(c, d * k) for (_p, e), c in rem.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]),
       st.lists(poly_strategy(VARS3, max_deg=2, max_terms=3), min_size=1, max_size=3),
       st.lists(poly_strategy(VARS3, max_deg=4), min_size=1, max_size=4))
def test_memoized_normal_form_matches_direct_division(order, gens, fs):
    # total degree <= 2 keeps the lex bases small, as in the membership property
    with _time_limit(gens):
        gb = groebner_basis(gens, order)
    for f in fs + fs:   # the second pass reads memo entries only
        nf = normal_form(f, gb)
        assert nf.vars == f.vars
        assert nf.terms == _direct_normal_form(f, gb)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]),
       st.lists(poly_strategy(VARS3, max_deg=2, max_terms=3), min_size=1, max_size=3),
       st.lists(poly_strategy(VARS3, max_deg=4), min_size=1, max_size=4))
def test_normal_form_memo_holds_int_numerators_over_one_reduced_denominator(order, gens, fs):
    # each entry is (d, e, r, e, r, ...) with int r and d > 0 sharing no
    # factor with all of them, so d = 1 exactly when NF(x^a) is integral
    with _time_limit(gens):
        gb = groebner_basis(gens, order)
    for f in fs:
        normal_form(f, gb)
    for a, nf in gb._nf.items():
        if not nf:
            assert _direct_normal_form(BasePolynomial(VARS3, {a: 1}), gb) == {}
            continue
        d, numerators = nf[0], nf[2::2]
        assert type(d) is int and d > 0
        assert numerators and all(type(r) is int and r for r in numerators)
        assert gcd(d, *numerators) == 1
        integral = all(c.denominator == 1 for c in
                       _direct_normal_form(BasePolynomial(VARS3, {a: 1}), gb).values())
        assert integral == (d == 1)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(3)),
       st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=3, max_size=3))
def test_groebner_permutation_invariant(perm, gens):
    with _time_limit(gens):
        a = groebner_basis(gens)
        b = groebner_basis([gens[i] for i in perm])
    assert [str(g) for g in a] == [str(g) for g in b]


def _syzygy_inputs(data, vars, rank):
    """A list of 1-4 vectors of the rank: random ones, a pure power of one
    variable plus a constant in one component (coprime leading terms in
    rank 1), and, once the list is not empty, a copy of an earlier vector
    or a combination of two (both reduce to zero when inserted)."""
    poly = poly_strategy(vars, max_deg=2, max_terms=3)
    zero = BasePolynomial.zero(vars)
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        kinds = ["random", "power"] + (["copy", "combination"] if gens else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "random":
            v = ModuleVector([data.draw(poly) for _ in range(rank)])
        elif kind == "power":
            x, k = data.draw(st.sampled_from(vars)), data.draw(st.integers(1, 3))
            p = P(f"{x}^{k} + ({data.draw(st.integers(-2, 2))})", vars)
            at = data.draw(st.integers(0, rank - 1))
            v = ModuleVector([p if i == at else zero for i in range(rank)])
        elif kind == "copy":
            v = data.draw(st.sampled_from(gens))
        else:
            pick = st.sampled_from(gens)
            v = _combination([data.draw(poly), data.draw(poly)], [data.draw(pick), data.draw(pick)])
        gens.append(v)
    return gens


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.sampled_from([VARS2, VARS3]),
       st.integers(1, 2), st.data())
def test_recorded_syzygies_generate_the_syzygy_module(order, vars, rank, data):
    # what the first build of a recording basis reduced to zero, with the
    # Koszul syzygies of the product-criterion pairs and a unit vector per
    # zero generator (tate._DeltaLayer adds those), spans syzygy_basis
    gens = _syzygy_inputs(data, vars, rank)
    n = len(gens)
    with _time_limit(gens):
        basis = _Bounds(gens, order)
        recorded = [_mvec_to_vector(m, n, vars, 1) for m in basis.syzygies()]
        want = syzygy_basis(gens, order)
    assert basis.syzygies() == []   # handed out once
    for z in recorded:
        assert not z.is_zero() and _combination(z, gens).is_zero()
    one = BasePolynomial.const(vars, 1)
    units = [ModuleVector([one if j == i else BasePolynomial.zero(vars) for j in range(n)])
             for i, g in enumerate(gens) if g.is_zero()]
    with _time_limit(gens):
        span = ModuleBasis(recorded + units, order)
        assert all(span.lift(z) is not None for z in want)


@settings(max_examples=40, deadline=None)
@given(st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=1, max_size=3))
def test_syzygies_annihilate(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    with _time_limit(gens):
        syzygies = syzygy_basis(gens)
    for syz in syzygies:
        acc = BasePolynomial.zero(VARS2)
        for c, g in zip(syz, gens):
            acc = acc + c * g
        assert acc.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]),
       st.lists(poly_strategy(VARS2, max_deg=2, max_terms=3), min_size=1, max_size=3),
       st.lists(poly_strategy(VARS2, max_deg=2, max_terms=2), min_size=3, max_size=3),
       poly_strategy(VARS2, max_deg=3))
def test_ring_lift_certifies_exactly_the_members(order, gens, coeffs, f):
    # GroebnerBasis.lift is ModuleBasis.lift over the tracked engine of the
    # ring: a certificate exactly for the members, over the generators
    with _time_limit(gens):
        gb = groebner_basis(gens, order)
    member = _combination(coeffs[:len(gens)], gens)
    for target in (f, member, f - normal_form(f, gb)):
        c = gb.lift(target)
        assert (c is not None) == normal_form(target, gb).is_zero()
        if c is not None:
            assert _combination(c, gb.generators) == target
    if not member.is_zero():
        # a tampered transform fails the certificate check, as in ModuleBasis
        eng = gb._engine
        eng.transforms = [TestCertificateChecks.double(tr) for tr in eng.transforms]
        with pytest.raises(AssertionError, match="membership certificate failed"):
            gb.lift(member)


def _reference_combination(coeffs, gens):
    """The accumulation loop every certificate check wrote out before
    polynomial_engine._combination: every product, zero or not."""
    acc = None
    for c, g in zip(coeffs, gens):
        acc = g * c if acc is None else acc + g * c
    return acc


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2), st.data())
def test_combination_matches_the_accumulation_loop(rank, data):
    # rank 0 draws BasePolynomial generators, rank 1 and 2 ModuleVectors
    gen = poly_strategy(VARS2, max_deg=2, max_terms=3)
    if rank:
        gen = st.lists(gen, min_size=rank, max_size=rank).map(ModuleVector)
    gens = data.draw(st.lists(gen, min_size=1, max_size=4))
    coeff = st.one_of(st.just(BasePolynomial.zero(VARS2)),
                      poly_strategy(VARS2, max_deg=2, max_terms=2))
    coeffs = data.draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))
    got = _combination(coeffs, gens)
    assert type(got) is type(gens[0])
    assert got == _reference_combination(coeffs, gens)


class TestCombination:
    """Edge cases of the one-dict accumulation in _combination."""

    def test_products_that_cancel_leave_an_empty_polynomial(self):
        x, y = mk(VARS2, "x", "y")
        got = _combination([y, -x], [x, y])
        assert type(got) is BasePolynomial
        assert got.vars == VARS2 and got.terms == {}

    def test_a_vector_component_that_cancels_is_empty(self):
        x, y, one = mk(VARS2, "x", "y", "1")
        gens = [ModuleVector([x, y]), ModuleVector([y, one])]
        got = _combination([y, -x], gens)
        assert type(got) is ModuleVector
        assert got[0].terms == {} and got[1] == P("y^2 - x", VARS2)
        assert got == _reference_combination([y, -x], gens)

    @pytest.mark.parametrize("rank", [0, 2])
    def test_all_zero_coefficients_give_gens0_times_zero(self, rank):
        gens = mk(VARS2, "x + 1", "y")
        if rank:
            gens = [ModuleVector([g, g * g]) for g in gens]
        zero = BasePolynomial.zero(VARS2)
        got = _combination([zero, zero], gens)
        assert type(got) is type(gens[0])
        assert got == gens[0] * 0 and got.is_zero()

    def test_a_coefficient_over_other_variables_raises(self):
        with pytest.raises(ValueError):
            _combination([P("1", VARS2), P("z", VARS3)], mk(VARS2, "x", "y"))

    @pytest.mark.parametrize("first", [True, False])
    def test_a_generator_over_other_variables_raises(self, first):
        gens = [P("x", VARS2), P("z", VARS3)]
        if first:
            gens.reverse()
        with pytest.raises(ValueError):
            _combination(mk(VARS2, "1", "x"), gens)
        with pytest.raises(ValueError):
            _combination(mk(VARS2, "1", "x"), [ModuleVector([g]) for g in gens])

    def test_never_calls_the_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_combination called the engine")

        for name in ("__init__", "_divide", "insert", "complete", "append", "_primitive"):
            monkeypatch.setattr(_Engine, name, refuse)
        for name in ("groebner_basis", "normal_form", "_monomial_nf", "lift_membership",
                     "syzygy_basis", "_cleared", "_mvec_to_vector", "_nf_sum"):
            monkeypatch.setattr(polynomial_engine, name, refuse)
        for name in ("reduce_row", "_cleared", "_echelon"):
            monkeypatch.setattr(elimination, name, refuse)
        coeffs = mk(VARS2, "x*y - 1", "0", "y^2 + 1/2")
        gens = [ModuleVector(mk(VARS2, a, b))
                for a, b in (("x", "y^2"), ("1", "x - y"), ("x*y", "3"))]
        assert _combination(coeffs, gens) == _reference_combination(coeffs, gens)


def _reference_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _reference_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reference_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reference_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(0, 6)] * n)] * 2)))
def test_monomial_helpers_match_the_generator_bodies(pair):
    # the generator-expression bodies the map-based helpers replaced
    a, b = pair
    assert _monomial_mul(a, b) == _reference_mul(a, b)
    assert _monomial_divides(a, b) is _reference_divides(a, b)
    assert _monomial_divides(a, a) is True
    assert _monomial_div(a, b) == _reference_div(a, b)
    assert _monomial_lcm(a, b) == _reference_lcm(a, b)
    assert all(type(f(a, b)) is tuple for f in (_monomial_mul, _monomial_div, _monomial_lcm))


def _assert_checked_form(p):
    """p is what the checking constructor makes of its own vars and terms."""
    assert type(p) is BasePolynomial and type(p.vars) is tuple
    assert p == BasePolynomial(p.vars, p.terms)
    assert hash(p) == hash(BasePolynomial(p.vars, p.terms))
    assert all(type(e) is tuple for e in p.terms)
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(poly_strategy(VARS2, max_deg=3), poly_strategy(VARS2, max_deg=3),
       st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)),
       st.lists(poly_strategy(VARS2, max_deg=2, max_terms=3), min_size=1, max_size=3))
def test_unchecked_results_have_the_checked_form(f, g, c, ideal):
    # + - * and the rest build their results without the constructor's
    # checks; each must still be a polynomial the checks would accept
    results = [f + g, f - g, f - f, -f, f + c, c - f, f * g, f * c, c * f, f * 0,
               f.derivative("x"), f.derivative("y"), f ** 2,
               _combination([f, g], [g, f]), _combination([g, -f], [f, g])]
    results += _combination([f, g], [ModuleVector([g, f]), ModuleVector([f, c * g])])
    ideal = [h for h in ideal if not h.is_zero()]
    if ideal:
        with _time_limit(ideal):
            gb = groebner_basis(ideal)
        results += [normal_form(f, gb), normal_form(f * g, gb)]
    for p in results:
        _assert_checked_form(p)


def _reference_normal_form(f: BasePolynomial, gb) -> BasePolynomial:
    """normal_form before _nf_sum: each Fraction c of f over the d of
    NF(x^a), added term by term."""
    if not gb.elements:
        return f
    vars = gb.vars
    if f.vars != vars:
        raise ValueError("variable mismatch with basis")
    out: dict = {}
    for a, c in f.terms.items():
        it = iter(_monomial_nf(gb, a))
        d = next(it, 1)
        _axpy(out, c if d == 1 else c / d, zip(it, it))
    return _from_terms(vars, out)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]),
       st.lists(poly_strategy(VARS3, max_deg=2, max_terms=3), min_size=1, max_size=3),
       st.lists(poly_strategy(VARS3, max_deg=4), min_size=1, max_size=4))
def test_normal_form_matches_the_term_by_term_reference(order, gens, fs):
    # Fraction generators give normal forms NF(x^a) whose d is not 1
    with _time_limit(gens):
        gb = groebner_basis(gens, order)
        fresh = groebner_basis(gens, order)   # the reference shares no memo entry
    for f in fs + fs:
        nf, want = normal_form(f, gb), _reference_normal_form(f, fresh)
        assert nf.vars == want.vars
        assert _typed([nf.terms]) == _typed([want.terms])


def _s_vector(a, b, order):
    """S-vector of two module vectors whose leading terms share a position."""
    key = monomial_key(order)

    def lead(v):
        return max(((key(c.leading(order)[0]), -k), k, *c.leading(order))
                   for k, c in enumerate(v) if not c.is_zero())[1:]

    if a.is_zero() or b.is_zero() or lead(a)[0] != lead(b)[0]:
        return None
    (_, ea, ca), (_, eb, cb) = lead(a), lead(b)
    lcm = tuple(max(x, y) for x, y in zip(ea, eb))
    ma = BasePolynomial(a.vars, {tuple(l - x for l, x in zip(lcm, ea)): 1 / ca})
    mb = BasePolynomial(b.vars, {tuple(l - x for l, x in zip(lcm, eb)): 1 / cb})
    return a * ma - b * mb


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.integers(1, 2), st.data())
def test_module_basis_agrees_with_lift_membership(order, rank, data):
    vec = st.lists(poly_strategy(VARS2, max_deg=2, max_terms=2),
                   min_size=rank, max_size=rank).map(ModuleVector)
    gens = data.draw(st.lists(vec, min_size=1, max_size=3))
    mults = data.draw(st.lists(poly_strategy(VARS2, max_deg=1, max_terms=2),
                               min_size=len(gens), max_size=len(gens)))
    member = _reference_combination(mults, gens)
    s_vectors = [s for a in gens for b in gens if (s := _s_vector(a, b, order)) is not None]
    targets = [member] + s_vectors + data.draw(st.lists(vec, max_size=2))
    split = data.draw(st.integers(0, len(gens)))

    with _time_limit(gens):
        fixed = ModuleBasis(gens, order)
        grown = ModuleBasis(gens[:split], order)
        for g in gens[split:]:
            grown.add(g)
    for f in targets:
        with _time_limit(gens):
            fresh = lift_membership(f, gens, order)
        again, grown_cert = fixed.lift(f), grown.lift(f)
        if f is member or any(f is s for s in s_vectors):
            assert fresh is not None
        assert (again is None) == (grown_cert is None) == (fresh is None)
        if fresh is None:
            continue
        assert again == fresh
        assert fixed.lift(f) == fresh
        for coeffs in (fresh, grown_cert):
            assert _reference_combination(coeffs, gens) == f


def _scan_key(order, split):
    """Key the reference maximizes: block 0 (pos < split), then the ring
    order, then the earlier position."""
    ring = monomial_key(order)

    def key(t):
        pos, e = t
        return (1 if (split > 0 and pos < split) else 0, ring(e), -pos)
    return key


def _scan_divide(eng, key, vec, comb, skip=-1):
    """Reference division: reduce the largest term by the first leading
    term dividing it, found by a max over the pending terms and a scan."""
    rem = {}
    vec = dict(vec)
    if comb is not None:
        comb = dict(comb)
    while vec:
        t = max(vec, key=key)
        c = vec[t]
        pos, e = t
        for i, ((p2, e2), c2) in enumerate(eng.lts):
            if p2 == pos and i != skip and all(a <= b for a, b in zip(e2, e)):
                break
        else:
            rem[t] = c
            del vec[t]
            continue
        shift = tuple(a - b for a, b in zip(e, e2))
        factor = -c / c2
        _mvec_add_into(vec, eng.basis[i], factor, shift)
        if comb is not None:
            _mvec_add_into(comb, eng.transforms[i], factor, shift)
    return rem, comb


def _mvec(vector):
    return {(i, e): c for i, p in enumerate(vector) for e, c in p.terms.items()}


def _over(m, d):
    """The MVec m divided by d, as Fractions; None stays None."""
    return None if m is None else {k: Fraction(c, d) for k, c in m.items()}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.integers(1, 2), st.booleans(),
       st.booleans(), st.data())
def test_heap_division_matches_the_scan_reference(order, rank, track, build, data):
    split = data.draw(st.integers(0, rank - 1))
    vec = st.lists(poly_strategy(VARS2, max_deg=2, max_terms=3),
                   min_size=rank, max_size=rank).map(_mvec)
    gens = data.draw(st.lists(vec, min_size=1, max_size=3))
    if build:
        # a Groebner basis, sometimes reordered by reduce_canonical
        with _time_limit(gens):
            eng = _Engine(gens, rank, 2, order, split=split, track=track)
        if data.draw(st.booleans()):
            eng.reduce_canonical()
    else:
        # any list of leading terms: division needs no Groebner property
        eng = _Engine([], rank, 2, order, split=split, track=track)
        for i, g in enumerate(gens):
            if g:
                g, k = _cleared(g)
                eng.append(g, {(i, (0, 0)): k} if track else None)
    key = _scan_key(order, split)
    for f in data.draw(st.lists(vec, min_size=1, max_size=4)):
        # the engine divides ints; the reference divides the same ints as
        # Fractions, so the two agree once the engine's scale d is divided out
        f = _cleared(f)[0]
        comb = _cleared(data.draw(vec))[0] if track else None
        skips = [-1] + list(range(len(eng.lts)))
        for skip in (-1, data.draw(st.sampled_from(skips))):
            rem, got, d = eng._divide(f, comb, skip)
            assert all(type(c) is int for m in (rem, got or {}) for c in m.values())
            want = _scan_divide(eng, key, _over(f, 1), _over(comb, 1), skip)
            assert (_over(rem, d), _over(got, d)) == want


def _mvec_scale(a, factor):
    if factor == 1:
        return a
    return {k: c * factor for k, c in a.items()}


def _mvec_leading(m, key):
    k = min(m, key=key)
    return k, m[k]


class _FractionEngine:
    """The Buchberger engine before it worked over the ints: every
    coefficient a Fraction, every stored element as division leaves it,
    the reduced basis made monic.  Reference for _Engine.  Its pair
    update is the Gebauer-Moller UPDATE as Becker and Weispfenning write
    it (Groebner Bases, 1993, sec. 5.5), loop by loop, with the new
    pairs visited from the last element down, so that of the pairs of
    one lcm the one with the first element is kept, as in _Engine.

    Buchberger over k[x]^rank with tracked transformations.

    basis[i] is an MVec and lts[i] its leading ((pos, exp), coeff).
    Tracking expresses basis[i] as transforms[i], an MVec of
    combinations of the inputs (position = input index), enough to hand
    out membership certificates.  Inputs may arrive after the build:
    insert() queues the new S-pairs and complete() works them off.

    Division (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    sec. 2.3) keeps the pending terms in a heap on the term key, so each
    term is keyed once.  divisor memoizes, per term (pos, exp), the index
    of the first leading term that divides it, or -1; the reductions of
    one build or of one ModuleBasis share it.  It is cleared whenever
    lts changes (append, _select, the inter-reduction in
    reduce_canonical); a division that skips an element neither reads
    nor writes it.
    """

    def __init__(self, vectors: Sequence[dict], rank: int, nvars: int,
                 order: str, split: int = 0, track: bool = False):
        self.rank = rank
        self.nvars = nvars
        self.key = _term_key(order, split)
        self.track = track
        self.basis: list = []        # list of MVec
        self.lts: list = []          # parallel list of leading (term, coeff)
        self.transforms: list = []   # parallel list of MVec over inputs
        self.pairs: list = []        # heap of (lcm degree, i, j)
        self.divisor: dict = {}      # term -> first lts index dividing it, or -1
        for idx, v in enumerate(vectors):
            self.insert(v, idx)
        self.complete()

    # division of vec by current basis (skipping element skip); returns
    # (remainder, combination) where combination is an MVec over the
    # inputs (None if not tracking).  The largest pending term is reduced
    # by the first leading term dividing it; a step adds only terms below
    # the one it cancels, so a popped term that is gone from vec is stale.
    def _divide(self, vec: dict, comb: Optional[dict], skip: int = -1) -> tuple:
        rem: dict = {}
        vec = dict(vec)
        if comb is not None:
            comb = dict(comb)
        key = self.key
        lts = self.lts
        memo = self.divisor if skip < 0 else None
        heap = [(key(t), t) for t in vec]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            t = pop(heap)[1]
            c = vec.get(t)
            if c is None:
                continue
            i = None if memo is None else memo.get(t)
            if i is None:
                pos, e = t
                for i, ((p2, e2), _c2) in enumerate(lts):
                    if p2 == pos and i != skip and _monomial_divides(e2, e):
                        break
                else:
                    i = -1
                if memo is not None:
                    memo[t] = i
            if i < 0:
                rem[t] = c
                del vec[t]
                continue
            (_p, e2), c2 = lts[i]
            shift = _monomial_div(t[1], e2)
            factor = -c / c2
            for (p, eb), cb in self.basis[i].items():
                k = (p, _monomial_mul(eb, shift))
                s = vec.get(k)
                if s is None:
                    vec[k] = factor * cb
                    push(heap, (key(k), k))
                else:
                    s += factor * cb
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
            if comb is not None:
                _mvec_add_into(comb, self.transforms[i], factor, shift)
        return rem, comb

    def insert(self, vec: dict, idx: int) -> None:
        """Reduce input number idx into the basis and queue its S-pairs."""
        if vec:
            tr = {(idx, (0,) * self.nvars): Fraction(1)} if self.track else None
            self._add(vec, tr)

    def complete(self) -> None:
        """Reduce every queued S-pair: the basis is then a Groebner basis."""
        while self.pairs:
            # normal selection: minimal lcm degree, then discovery order
            _, i, j = heapq.heappop(self.pairs)
            (_pi, ei), ci = self.lts[i]
            (_pj, ej), cj = self.lts[j]
            lcm = _monomial_lcm(ei, ej)
            si = _monomial_div(lcm, ei)
            sj = _monomial_div(lcm, ej)
            s: dict = {}
            _mvec_add_into(s, self.basis[i], Fraction(1) / ci, si)
            _mvec_add_into(s, self.basis[j], Fraction(-1) / cj, sj)
            tr = None
            if self.track:
                tr = {}
                _mvec_add_into(tr, self.transforms[i], Fraction(1) / ci, si)
                _mvec_add_into(tr, self.transforms[j], Fraction(-1) / cj, sj)
            self._add(s, tr)

    def _lcm(self, i, j):
        return _monomial_lcm(self.lts[i][0][1], self.lts[j][0][1])

    def _coprime(self, i, j):
        # the product criterion, for the rank-1 ring case only
        return self.rank == 1 and self._lcm(i, j) == _monomial_mul(self.lts[i][0][1],
                                                                   self.lts[j][0][1])

    def _add(self, vec: dict, tr: Optional[dict]) -> None:
        rem, tr = self._divide(vec, tr)
        if not rem:
            return
        h = self.append(rem, tr)
        pn, en = self.lts[h][0]
        # C: the new pairs, within h's component
        C = [g for g in reversed(range(h)) if self.lts[g][0][0] == pn]
        D = []
        while C:
            g1 = C.pop(0)
            lcm1 = self._lcm(h, g1)
            if self._coprime(h, g1) or not any(
                    _monomial_divides(self._lcm(h, g2), lcm1) for g2 in C + D):
                D.append(g1)
        E = [g for g in D if not self._coprime(h, g)]
        B = []
        for p in self.pairs:
            _, g1, g2 = p
            lcm12 = self._lcm(g1, g2)
            if (self.lts[g1][0][0] != pn or not _monomial_divides(en, lcm12)
                    or self._lcm(g1, h) == lcm12 or self._lcm(h, g2) == lcm12):
                B.append(p)
        self.pairs = B + [(sum(self._lcm(g, h)), g, h) for g in E]
        heapq.heapify(self.pairs)

    def append(self, vec: dict, tr: Optional[dict]) -> int:
        """Store vec as the next basis element, without pairs; its index."""
        self.basis.append(vec)
        self.lts.append(_mvec_leading(vec, self.key))
        self.divisor.clear()
        self.transforms.append(tr)
        return len(self.basis) - 1

    def reduce_canonical(self) -> None:
        """Minimalize, inter-reduce, normalize monic, sort by leading term."""
        # minimalize: drop elements whose LT is divisible by another LT
        items = range(len(self.basis))
        keep = []
        for i in items:
            pi, ei = self.lts[i][0]
            dominated = False
            for j in items:
                if i == j:
                    continue
                pj, ej = self.lts[j][0]
                if pj == pi and _monomial_divides(ej, ei):
                    if ej != ei or j < i:
                        dominated = True
                        break
            if not dominated:
                keep.append(i)
        self._select(keep)
        # inter-reduce tails to fixpoint
        changed = True
        while changed:
            changed = False
            for i in range(len(self.basis)):
                rem, tr = self._divide(
                    self.basis[i], self.transforms[i] if self.track else None, skip=i)
                if rem != self.basis[i]:
                    changed = True
                    if not rem:
                        self._select([j for j in range(len(self.basis)) if j != i])
                        break
                    self.basis[i] = rem
                    self.lts[i] = _mvec_leading(rem, self.key)
                    self.divisor.clear()
                    self.transforms[i] = tr
        # monic + canonical sort
        for i, g in enumerate(self.basis):
            inv = Fraction(1) / self.lts[i][1]
            self.basis[i] = _mvec_scale(g, inv)
            self.lts[i] = (self.lts[i][0], Fraction(1))
            if self.track:
                self.transforms[i] = _mvec_scale(self.transforms[i], inv)
        self._select(sorted(range(len(self.basis)),
                            key=lambda i: self.key(self.lts[i][0]), reverse=True))

    def _select(self, idx: list) -> None:
        self.basis = [self.basis[i] for i in idx]
        self.lts = [self.lts[i] for i in idx]
        self.transforms = [self.transforms[i] for i in idx]
        self.divisor.clear()


def _monic(eng, i, tr=False):
    """Element i of eng (or its transform) over its leading coefficient."""
    return _over(eng.transforms[i] if tr else eng.basis[i], eng.lts[i][1])


def _logging(cls):
    """cls logging each reduction as (basis size, leading term of the
    vector reduced), so that two engines compare step by step."""
    class Logging(cls):
        def __init__(self, *args, **kwargs):
            self.log = []
            super().__init__(*args, **kwargs)

        def _add(self, vec, tr):
            self.log.append((len(self.basis), min(vec, key=self.key, default=None)))
            super()._add(vec, tr)
    return Logging


@st.composite
def shared_factor_vectors(draw, rank):
    """Three or four vectors of the given rank over VARS2 whose entries in
    one component share a factor 1, x or y, each cofactor one or two
    monomials of degree <= 2 with small coefficients.  On about a third
    of them B_k drops a pending pair, and on about a fifth F keeps one
    pair of an lcm over the others, so a reference without either
    criterion reduces other pairs.  A shared x*y made some lex graph
    builds run for minutes."""
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda e: _clamp_degree(e, 2))
    cofactor = st.dictionaries(mono, st.sampled_from([1, -1, 2, -2, 3]),
                               min_size=1, max_size=2)
    shared = [draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
              for _ in range(rank)]
    return [[BasePolynomial(VARS2, {e: 1}) * BasePolynomial(VARS2, draw(cofactor))
             for e in shared] for _ in range(draw(st.integers(3, 4)))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.integers(1, 2), st.booleans(),
       st.booleans(), st.data())
def test_integer_engine_matches_the_fraction_reference(order, rank, track, graph, data):
    poly = poly_strategy(VARS2, max_deg=2, max_terms=3)
    gens = data.draw(st.one_of(
        st.lists(st.lists(poly, min_size=rank, max_size=rank), min_size=1, max_size=3),
        shared_factor_vectors(rank)))
    split = 0
    if graph:
        # the graph vectors (g_i ; e_i) of syzygy_basis, under its block
        # order: the reduced elements in the tail block are the syzygies
        one = P("1", VARS2)
        zero = one * 0
        gens = [g + [one if j == i else zero for j in range(len(gens))]
                for i, g in enumerate(gens)]
        split, rank = rank, rank + len(gens)
    vectors = [ModuleVector(g) for g in gens]
    mults = data.draw(st.lists(poly_strategy(VARS2, max_deg=1, max_terms=2),
                               min_size=len(gens), max_size=len(gens)))
    member = _mvec(_reference_combination(mults, vectors))
    others = data.draw(st.lists(st.lists(poly, min_size=rank, max_size=rank), max_size=2))
    mvecs = [_mvec(g) for g in gens]
    with _time_limit(vectors):
        ref = _logging(_FractionEngine)(mvecs, rank, 2, order, split=split, track=track)
        eng = _logging(_Engine)(mvecs, rank, 2, order, split=split, track=track)
    # the same pairs are reduced in the same order
    assert eng.log == ref.log
    for reduced in (False, True):
        if reduced:
            with _time_limit(vectors):
                ref.reduce_canonical()
                eng.reduce_canonical()
        assert [t for t, _c in eng.lts] == [t for t, _c in ref.lts]
        for i in range(len(ref.basis)):
            assert _monic(eng, i) == _monic(ref, i)
            if track:
                assert _monic(eng, i, tr=True) == _monic(ref, i, tr=True)
        for f in [member] + [_mvec(g) for g in others]:
            # normal form and, when tracked, lift coefficients
            vec, k = _cleared(f)
            rem, comb, d = eng._divide(vec, {} if track else None)
            want = ref._divide(f, {} if track else None)
            assert (_over(rem, d * k), _over(comb, d * k)) == want
            if f is member:
                assert rem == {}


# inputs on which a criterion changes what the engine reduces: B_k drops
# a pending pair (lex), and F keeps the first pair of an lcm (grevlex)
@pytest.mark.parametrize("order, gens", [
    ("lex", ["-x*y", "-x^2 - y^2", "2*x + 2*x^2*y"]),
    ("grevlex", ["x^2 + x^2*y + x*y^2", "2*x^2*y", "x + 2*x*y^2 + 1"])])
def test_criteria_cases_match_the_fraction_reference(order, gens):
    mvecs = [_mvec([P(g, VARS2)]) for g in gens]
    ref = _logging(_FractionEngine)(mvecs, 1, 2, order, track=True)
    eng = _logging(_Engine)(mvecs, 1, 2, order, track=True)
    assert eng.log == ref.log
    assert len(eng.log) < len(_logging(_PlainEngine)(mvecs, 1, 2, order, track=True).log)
    assert [t for t, _c in eng.lts] == [t for t, _c in ref.lts]
    for i in range(len(ref.basis)):
        assert _monic(eng, i) == _monic(ref, i)
        assert _monic(eng, i, tr=True) == _monic(ref, i, tr=True)


class _PlainEngine(_Engine):
    """_Engine before the Gebauer-Moller update: every pair of one
    component is queued, and the product criterion, rank 1 only, is
    checked as a pair is taken.  Reference for the criteria."""

    def complete(self) -> None:
        pairs = self.pairs
        while pairs:
            # normal selection: minimal lcm degree, then discovery order
            _, i, j = heapq.heappop(pairs)
            (_pi, ei), ci = self.lts[i]
            (_pj, ej), cj = self.lts[j]
            lcm_e = _monomial_lcm(ei, ej)
            # product criterion (rank-1 ring case only; not valid in modules)
            if self.rank == 1 and lcm_e == _monomial_mul(ei, ej):
                continue
            g = gcd(ci, cj)
            s: dict = {}
            tr = {} if self.track else None
            for k, f, e in ((i, cj // g, ei), (j, -ci // g, ej)):
                shift = _monomial_div(lcm_e, e)
                _mvec_add_into(s, self.basis[k], f, shift)
                if self.track:
                    _mvec_add_into(tr, self.transforms[k], f, shift)
            self._add(s, tr)

    def _add(self, vec: dict, tr: Optional[dict]) -> None:
        rem, tr, _d = self._divide(vec, tr)
        if not rem:
            return
        new = self.append(rem, tr)
        pn, en = self.lts[new][0]
        for i in range(new):
            pi, ei = self.lts[i][0]
            if pi == pn:
                heapq.heappush(self.pairs, (sum(_monomial_lcm(ei, en)), i, new))


def _reductions(cls, run) -> tuple:
    """(reductions, zero reductions) of the engines while run() runs, every
    engine built as a cls."""
    counts = [0, 0]
    real = cls._add

    def add(self, vec, tr):
        n = len(self.basis)
        real(self, vec, tr)
        counts[0] += 1
        counts[1] += len(self.basis) == n

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_add", add)
        mp.setattr(polynomial_engine, "_Engine", cls)
        run()
    return tuple(counts)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.integers(1, 2), st.booleans(), st.data())
def test_criteria_change_no_reduced_basis_normal_form_syzygy_or_membership(order, rank,
                                                                          graph, data):
    poly = poly_strategy(VARS2, max_deg=2, max_terms=3)
    gens = data.draw(st.lists(st.lists(poly, min_size=rank, max_size=rank),
                              min_size=1, max_size=3))
    vectors = [ModuleVector(g) for g in gens]
    split, width = 0, rank
    if graph:
        # the graph vectors of syzygy_basis under its block order
        one = P("1", VARS2)
        gens = [g + [one if j == i else one * 0 for j in range(len(gens))]
                for i, g in enumerate(gens)]
        split, width = rank, rank + len(gens)
    mults = data.draw(st.lists(poly_strategy(VARS2, max_deg=1, max_terms=2),
                               min_size=len(vectors), max_size=len(vectors)))
    member = _reference_combination(mults, vectors)
    targets = [member] + [ModuleVector(v) for v in data.draw(
        st.lists(st.lists(poly, min_size=rank, max_size=rank), max_size=2))]
    mvecs = [_mvec(g) for g in gens]
    pad = [P("0", VARS2)] * (width - rank)
    with _time_limit(vectors):
        eng = _Engine(mvecs, width, 2, order, split=split, track=True)
        plain = _PlainEngine(mvecs, width, 2, order, split=split, track=True)
    for reduced in (False, True):
        if reduced:
            with _time_limit(vectors):
                eng.reduce_canonical()
                plain.reduce_canonical()
            assert (eng.basis, eng.lts) == (plain.basis, plain.lts)
        # a Groebner basis leaves one remainder, reduced or not
        for f in mvecs + [_mvec(list(v) + pad) for v in targets]:
            vec = _cleared(f)[0]
            (rem, _c, d), (rem2, _c2, d2) = (e._divide(vec, None) for e in (eng, plain))
            assert _over(rem, d) == _over(rem2, d2)
    with _time_limit(vectors):
        syz = syzygy_basis(vectors, order)
        bases = [ModuleBasis(vectors, order)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomial_engine, "_Engine", _PlainEngine)
            assert syzygy_basis(vectors, order) == syz
            bases.append(ModuleBasis(vectors, order))
    for f in targets:
        assert (bases[0].lift(f) is None) == (bases[1].lift(f) is None)
    assert bases[0].lift(member) is not None


def test_criteria_cut_the_reductions_of_the_cubic_presentation():
    # the w-first cubic cone: 445 reductions (310 of them zero) without the
    # criteria, 248 (112) with them, and the same presentation
    wxyz = ("w", "x", "y", "z")
    s0 = P("x^3 + y^3 + z^3 - 3*w*x*y*z", wxyz)
    parts = [s0.derivative(v) for v in wxyz]
    pres = []
    assert _reductions(_Engine, lambda: pres.append(symmetry_presentation(parts))) == (248, 112)
    assert (_reductions(_PlainEngine, lambda: pres.append(symmetry_presentation(parts)))
            == (445, 310))
    new, old = ([[poly_to_str(c) for c in row] for row in rows]
                for rows in (p.tau + p.relations for p in pres))
    assert new == old


def _reference_reduce_canonical(self) -> None:
    """_Engine.reduce_canonical before one inter-reduction pass: the
    tails are reduced again until no element changes, and an element
    that reduces to zero is dropped."""
    # minimalize: drop elements whose LT is divisible by another LT
    # (of equal LTs, all but the first)
    lts = [t for t, _c in self.lts]
    self._select([i for i, (pi, ei) in enumerate(lts)
                  if not any(pj == pi and _monomial_divides(ej, ei) and (ej != ei or j < i)
                             for j, (pj, ej) in enumerate(lts) if j != i)])
    # inter-reduce tails to fixpoint
    changed = True
    while changed:
        changed = False
        for i in range(len(self.basis)):
            rem, tr, _d = self._divide(self.basis[i], self.transforms[i], skip=i)
            if rem != self.basis[i]:
                changed = True
                if not rem:
                    self._select([j for j in range(len(self.basis)) if j != i])
                    break
                self.basis[i], self.lts[i], self.transforms[i] = self._primitive(rem, tr)
                self.divisor.clear()
    self._select(sorted(range(len(self.basis)),
                        key=lambda i: self.key(self.lts[i][0]), reverse=True))


def _reference_syzygy_basis(gens: Sequence, order: str = "grevlex") -> list:
    """syzygy_basis before it kept only the tail block: the whole basis
    is reduced, to a fixpoint, and the elements with a term in the first
    block are skipped afterwards."""
    vecs = _as_vectors(list(gens))
    if not vecs:
        raise ValueError("empty generator list")
    rank, vars = vecs[0].rank, vecs[0].vars
    s = len(vecs)
    one = (0,) * len(vars)
    graph = [{**_mvec_from_vector(v), (rank + i, one): 1} for i, v in enumerate(vecs)]
    eng = _Engine(graph, rank=rank + s, nvars=len(vars), order=order, split=rank)
    _reference_reduce_canonical(eng)
    out = []
    for g, (_t, lc) in zip(eng.basis, eng.lts):
        if any(pos < rank for (pos, _e) in g):
            continue
        shifted = {(pos - rank, e): c for (pos, e), c in g.items()}
        syz = _mvec_to_vector(shifted, s, vars, lc)
        if not _combination(syz, vecs).is_zero():
            raise AssertionError("syzygy failed verification")
        out.append(syz)
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.integers(1, 2), st.booleans(),
       st.booleans(), st.data())
def test_one_inter_reduction_pass_matches_the_fixpoint_reference(order, rank, track, graph,
                                                                  data):
    poly = poly_strategy(VARS2, max_deg=2, max_terms=3)
    gens = data.draw(st.lists(st.lists(poly, min_size=rank, max_size=rank),
                              min_size=1, max_size=3))
    vectors = [ModuleVector(g) for g in gens]
    split, width = 0, rank
    if graph:
        # the graph vectors of syzygy_basis under its block order
        one = P("1", VARS2)
        gens = [g + [one if j == i else one * 0 for j in range(len(gens))]
                for i, g in enumerate(gens)]
        split, width = rank, rank + len(gens)
    mvecs = [_mvec(g) for g in gens]
    with _time_limit(vectors):
        eng = _Engine(mvecs, width, 2, order, split=split, track=track)
        ref = _Engine(mvecs, width, 2, order, split=split, track=track)
        eng.reduce_canonical()
        _reference_reduce_canonical(ref)
    assert eng.basis == ref.basis
    assert eng.lts == ref.lts
    assert eng.transforms == ref.transforms
    with _time_limit(vectors):
        assert syzygy_basis(vectors, order) == _reference_syzygy_basis(vectors, order)


@settings(max_examples=60, deadline=None)
@given(st.lists(poly_strategy(VARS3, max_deg=2, max_terms=3), min_size=1, max_size=3),
       st.data())
def test_membership_does_not_depend_on_the_order(gens, data):
    # total degree <= 2, as in the standard-monomials property test: exact
    # lex Buchberger on larger random ideals need not finish in time
    mults = data.draw(st.lists(poly_strategy(VARS3, max_deg=1, max_terms=2),
                               min_size=len(gens), max_size=len(gens)))
    member = _reference_combination(mults, gens)
    mono = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
    with _time_limit(gens):
        bases = [ModuleBasis(gens, order) for order in ("grevlex", "lex")]
    assert all(b.lift(member) is not None for b in bases)
    f = member + BasePolynomial(VARS3, {mono: data.draw(st.integers(1, 3))})
    grevlex, lex = (b.lift(f) for b in bases)
    assert (grevlex is None) == (lex is None)


_ENTRY = st.integers(-3, 3) | st.integers(-3, 3).map(Fraction)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(st.lists(_ENTRY, min_size=n, max_size=n), max_size=5),
           st.lists(_ENTRY, min_size=n, max_size=n))),
       st.booleans())
def test_sparse_eliminator_matches_dense_reference(matrix_and_v, keep_zeros):
    matrix, dense_v = matrix_and_v

    def sparse(r):
        return {j: c for j, c in enumerate(r) if keep_zeros or c}

    rows = [sparse(r) for r in matrix]
    ints = _echelon(r.items() for r in rows)
    red, piv = _rref_of(ints)
    dense_red, dense_piv = _dense_rref(matrix)
    assert piv == dense_piv
    assert red == [{j: c for j, c in enumerate(r) if c} for r in dense_red]

    w = reduce_row(sparse(dense_v), ints)
    assert all(not w.get(pc) for pc in piv)
    diff = [a - w.get(k, 0) for k, a in enumerate(dense_v)]
    assert len(_dense_rref(matrix + [diff])[1]) == len(piv)


# (label, exponent) keys in the shape brst uses, ordered as tuples
_TUPLE_KEYS = [(label, (a, b)) for label in ("c", "r") for a in range(2) for b in range(2)]


@st.composite
def _eliminator_rows(draw):
    """Rows of Fraction entries with explicit zeros, rows that are
    combinations of earlier ones and duplicates, keyed by ints or by
    (label, exponent) tuples."""
    n = draw(st.integers(1, 6))
    keys = draw(st.sampled_from([list(range(n)), _TUPLE_KEYS[:n]]))
    entry = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=6)
    dense = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "combination", "duplicate"]) if dense
                    else st.just("free"))
        if kind == "free":
            row = draw(st.lists(entry, min_size=n, max_size=n))
        elif kind == "duplicate":
            row = list(draw(st.sampled_from(dense)))
        else:
            a, b = draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
            s, t = draw(entry), draw(entry)
            row = [s * x + t * y for x, y in zip(a, b)]
        dense.append(row)
    keep_zeros = draw(st.booleans())
    return [{k: c for k, c in zip(keys, row) if keep_zeros or c} for row in dense]


@settings(max_examples=300, deadline=None)
@given(_eliminator_rows(), st.data())
def test_eliminator_matches_the_fraction_reference(rows, data):
    ints = _echelon(r.items() for r in rows)
    red, piv = _rref_of(ints)
    ref_red, ref_piv = _reference_rref(rows)
    assert piv == ref_piv
    assert _typed(red) == _typed(ref_red)
    for pc, row in ints:
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1 and row[pc] > 0

    # reduce_row divides each _echelon row by its pivot as it goes
    keys = sorted({k for r in rows for k in r})
    if keys:
        v = {k: data.draw(st.fractions(-3, 3, max_denominator=4)) for k in keys}
        assert (_typed([reduce_row(v, ints)])
                == _typed([_reference_reduce_row(v, ref_red, ref_piv)]))


def test_eliminator_drops_explicit_zeros_and_repeated_rows():
    rows = [{0: Fraction(0), 1: Fraction(2, 3), 2: Fraction(0)},
            {0: Fraction(0), 1: Fraction(2, 3), 2: Fraction(0)},
            {0: 0, 1: 0, 2: 0},
            {0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(-1, 4)}]
    ints = _echelon(r.items() for r in rows)
    assert ints == [(0, {0: 2, 2: -1}), (1, {1: 1})]
    assert _rref_of(ints) == _reference_rref(rows)


# -- parser / printer --------------------------------------------------


class TestStrings:
    def test_parse_print_canonical(self):
        vars = ("x", "y")
        for text in ["x^2*y - 1/2*x + 5", "-x + 3", "0", "2/3",
                     "x*y^4 - x*y + y"]:
            assert poly_to_str(P(text, vars)) == text

    def test_quartic_action_parses(self):
        vars = ("x", "y")
        s0 = P("(x^2 + y^2 - 1)^2/4", vars)
        assert s0.derivative("x") == P("x*(x^2 + y^2 - 1)", vars)

    def test_unbound_variable(self):
        with pytest.raises(ValueError, match="unbound"):
            P("x + z", ("x", "y"))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ValueError):
            P("2x", ("x",))

    def test_order_keys(self):
        key = monomial_key("grevlex")
        assert key((2, 1)) > key((0, 3))  # x^2 y > y^3
        assert key((1, 0)) > key((0, 1))  # x > y
        lex = monomial_key("lex")
        assert lex((1, 0)) > lex((0, 3))


@settings(max_examples=80, deadline=None)
@given(poly_strategy(VARS2, max_deg=5, max_terms=5))
def test_round_trip(p):
    assert BasePolynomial.parse(poly_to_str(p), VARS2) == p
