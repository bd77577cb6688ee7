"""Engine tests: frozen oracle values first, then property suites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.polynomial_engine import (
    BasePolynomial,
    ModuleBasis,
    ModuleVector,
    groebner_basis,
    lift_membership,
    monomial_key,
    normal_form,
    nullspace,
    poly_to_str,
    reduce_row,
    rref,
    syzygy_basis,
)

P = BasePolynomial.parse


def mk(vars, *texts):
    return [P(t, vars) for t in texts]


# -- oracles, computed independently and frozen ------------------------


class TestOracles:
    def test_gaussian_elimination_oracle_linear_ideal(self):
        # oracle: row-reduce the coefficient matrix of {x+y, x-y} -> {x, y}
        rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
        red, piv = rref(rows)
        assert red == [{0: 1}, {1: 1}] and piv == [0, 1]
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
        kernel = nullspace([c.terms for c in cols])
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


class TestLift:
    def test_simple_lift(self):
        vars = ("x", "y")
        cert = lift_membership(P("x^2 + x*y", vars), mk(vars, "x"))
        assert cert is not None
        assert str(cert.coefficients[0]) == "x + y"

    def test_negative_answer(self):
        vars = ("x", "y")
        assert lift_membership(P("y", vars), mk(vars, "x")) is None

    def test_zero_target(self):
        vars = ("x", "y")
        cert = lift_membership(BasePolynomial.zero(vars), mk(vars, "x", "y"))
        assert cert is not None
        assert all(c.is_zero() for c in cert.coefficients)

    def test_module_lift(self):
        vars = ("x",)
        g1 = ModuleVector(mk(vars, "x", "1"))
        g2 = ModuleVector(mk(vars, "0", "x"))
        target = ModuleVector(mk(vars, "x^2", "x + x^2"))
        cert = lift_membership(target, [g1, g2])
        assert cert is not None
        acc = ModuleVector(mk(vars, "0", "0"))
        for c, g in zip(cert.coefficients, [g1, g2]):
            acc = acc + g * c
        assert acc == target

    def test_empty_list_reaches_only_zero(self):
        vars = ("x", "y")
        empty = ModuleBasis([])
        assert empty.lift(BasePolynomial.zero(vars)).coefficients == ()
        assert empty.lift(P("x", vars)) is None
        assert lift_membership(P("x", vars), []) is None
        empty.add(P("x", vars))
        assert str(empty.lift(P("x*y", vars)).coefficients[0]) == "y"

    def test_add_completes_the_new_pairs(self):
        # y^2 = y*(x^2 + y) - x*(x*y) is reached only through their S-pair
        vars = ("x", "y")
        grown = ModuleBasis(mk(vars, "x^2 + y"))
        assert grown.lift(P("y^2", vars)) is None
        grown.add(P("x*y", vars))
        assert [str(c) for c in grown.lift(P("y^2", vars)).coefficients] == ["y", "-x"]


class TestCoefficients:
    def test_int_fraction_and_zero_inputs(self):
        p = BasePolynomial(("x", "y"), {(1, 0): 3, (0, 1): Fraction(-1, 2), (0, 0): 0,
                                        (2, 0): Fraction(0), (1, 1): Fraction(4, 2)})
        assert p.terms == {(1, 0): Fraction(3), (0, 1): Fraction(-1, 2),
                           (1, 1): Fraction(2)}
        assert all(type(c) is Fraction for c in p.terms.values())


# -- property suites ---------------------------------------------------

VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")


def _clamp_degree(e, budget):
    e = list(e)
    while sum(e) > budget:
        i = max(range(len(e)), key=lambda k: e[k])
        e[i] -= 1
    return tuple(e)


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
    gb = groebner_basis(gens)
    nf = normal_form(f, gb)
    cert = lift_membership(f - nf, gens)
    assert cert is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=1, max_size=3),
       poly_strategy(VARS2), poly_strategy(VARS2),
       st.fractions(min_value=-3, max_value=3))
def test_normal_form_idempotent_linear(gens, f, g, c):
    gens = [p for p in gens if not p.is_zero()]
    if not gens:
        return
    gb = groebner_basis(gens)
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f * c + g, gb) == normal_form(f, gb) * c + normal_form(g, gb)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(3)),
       st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=3, max_size=3))
def test_groebner_permutation_invariant(perm, gens):
    a = groebner_basis(gens)
    b = groebner_basis([gens[i] for i in perm])
    assert [str(g) for g in a] == [str(g) for g in b]


@settings(max_examples=40, deadline=None)
@given(st.lists(poly_strategy(VARS2, max_deg=3, max_terms=3), min_size=1, max_size=3))
def test_syzygies_annihilate(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    for syz in syzygy_basis(gens):
        acc = BasePolynomial.zero(VARS2)
        for c, g in zip(syz, gens):
            acc = acc + c * g
        assert acc.is_zero()


def _combination(coeffs, gens):
    acc = None
    for c, g in zip(coeffs, gens):
        acc = g * c if acc is None else acc + g * c
    return acc


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
    member = _combination(mults, gens)
    s_vectors = [s for a in gens for b in gens if (s := _s_vector(a, b, order)) is not None]
    targets = [member] + s_vectors + data.draw(st.lists(vec, max_size=2))
    split = data.draw(st.integers(0, len(gens)))

    fixed = ModuleBasis(gens, order)
    grown = ModuleBasis(gens[:split], order)
    for g in gens[split:]:
        grown.add(g)
    for f in targets:
        fresh = lift_membership(f, gens, order)
        again, grown_cert = fixed.lift(f), grown.lift(f)
        if f is member or any(f is s for s in s_vectors):
            assert fresh is not None
        assert (again is None) == (grown_cert is None) == (fresh is None)
        if fresh is None:
            continue
        assert again.coefficients == fresh.coefficients
        assert fixed.lift(f).coefficients == fresh.coefficients
        for cert in (fresh, grown_cert):
            assert _combination(cert.coefficients, gens) == f


def _dense_rref(rows):
    """Reference for rref: dense Gauss-Jordan, column by column."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


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
    red, piv = rref(rows)
    dense_red, dense_piv = _dense_rref(matrix)
    assert piv == dense_piv
    assert red == [{j: c for j, c in enumerate(r) if c} for r in dense_red]

    kernel = nullspace(rows)
    assert all(type(c) is Fraction for v in red + kernel for c in v.values())
    assert len(kernel) == len(rows) - len(piv)
    for co in kernel:
        for k in range(len(dense_v)):
            assert sum(c * matrix[j][k] for j, c in co.items()) == 0

    w = reduce_row(sparse(dense_v), red, piv)
    assert all(not w.get(pc) for pc in piv)
    diff = [a - w.get(k, 0) for k, a in enumerate(dense_v)]
    assert len(_dense_rref(matrix + [diff])[1]) == len(piv)


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
