"""The odd bracket pairing fields with antifields, and its exponentials.

The bracket pairs each coordinate with its degree(-1) dual and each
ghost with its antifield.  On generators: [x, xs] = 1, [xs, x] = -1,
[b, bs] = 1, [bs, b] = -1, and [f, xs] = df/dx for scalar f.  It shifts
ghost degree by +1 and is a graded biderivation.
"""

from __future__ import annotations

from fractions import Fraction

from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    _add_into,
    _bracket_pair,
    _derivatives,
    dual_name,
    multiply,
    truncate,
)
from .polynomial_engine import _poly


def bracket(a: GradedPolynomial, b: GradedPolynomial) -> GradedPolynomial:
    """The odd bracket [a, b].

    It is computed in two steps, the derivatives of a and then their
    pairing with derivatives of b, so that a caller bracketing one a
    with many b (the E2 page with a fixed S) can take the first once.
    If a is b and every term of a is even, graded symmetry makes the two
    products of each pair equal, [a, a] = 2 sum_x (da/dx)(dl a/dxs) +
    2 sum_g (dr a/dg)(dl a/dgs), and only that half is computed.
    """
    if a.table != b.table:
        raise ValueError("generator table mismatch")
    return _bracket_pair(_bracket_factors(a, a is b and _is_even(a)), b)


def _is_even(a: GradedPolynomial) -> bool:
    """Whether every term of a has an even number of odd factors."""
    odd = a.table._odd_idx
    return not any(sum(m[i] for i in odd) % 2 for m in a.terms)


def _bracket_factors(a: GradedPolynomial, half: bool = False) -> list:
    """The nonzero derivatives of a that enter [a, -], from one scan of a.

    Each entry is (derivative of a as weight rows, i): it is paired with
    the derivative of b by index i of ``_derivatives``, the left one by a
    generator or the one by a coordinate.  Entries come in bracket order,
    da/dx paired with db/dxs and then -(dr a/dxs) paired with db/dx, for
    each coordinate x and each ghost x with its antifield xs; every
    derivative of a is a right one, and the sign of a subtracted product
    is the scale -1 of its derivative.  With half, only the first product
    of each pair enters, with scale 2.
    """
    table = a.table
    index = table.index
    n = len(table.names)
    pairs = [(n + j, index[dual_name(c)]) for j, c in enumerate(table.coordinates)]
    pairs += [(index[g], index[aname]) for aname, _deg, g in table.pairs]
    entries = []
    for x, xs in pairs:
        entries.append((x, xs, 2 if half else 1))
        if not half:
            entries.append((xs, x, -1))
    scales = [0] * (n + len(table.coordinates))
    for i, _j, k in entries:
        scales[i] = k
    right = _derivatives(a, scales, right=True)
    return [(right[i], j) for i, j, _k in entries if i in right]


def exp_ad(u: GradedPolynomial, a: GradedPolynomial, P: int) -> GradedPolynomial:
    """exp([u, -]) applied to a in the weight <= P quotient.

    Requires u of ghost degree -1 with every term containing at least
    two positive-degree factors; then each bracket application strictly
    raises both filtration weight and positive factor count, so the sum
    is finite in the quotient and exp(ad -u) is an exact inverse.
    """
    if u.is_zero():
        return truncate(a, P)
    if u.ghost_degree() != -1:
        raise ValueError("gauge generator must have ghost degree -1")
    if u.min_count() < 2:
        raise ValueError(
            "gauge generator terms need at least two positive factors")
    term = truncate(a, P)
    total = dict(term.terms)
    factors = _bracket_factors(u)
    k = 1
    while True:
        term = _bracket_pair(factors, term, P) * Fraction(1, k)
        if term.is_zero():
            return GradedPolynomial(a.table, total)
        _add_into(total, term.terms.items())
        k += 1
        if k > P + 2:
            raise AssertionError("exponential failed to terminate")


def antifield_lift(table: GeneratorTable, components) -> GradedPolynomial:
    """Odd ghost(-1) element representing a vector field on X.

    components lists the coefficient of d/dx_i per coordinate; the lift
    is -sum components[i] * xs_i, so bracketing with a scalar f returns
    the vector field applied to f, and the lift of a commutator is the
    bracket of the lifts.
    """
    coords = table.coordinates
    if len(components) != len(coords):
        raise ValueError("one component per coordinate required")
    out: dict = {}
    for c, comp in zip(coords, components):
        comp = _poly(comp, coords)
        if comp.is_zero():
            continue
        term = multiply(GradedPolynomial.from_scalar(table, comp),
                        GradedPolynomial.generator(table, dual_name(c)))
        _add_into(out, term.terms.items(), negate=True)
    return GradedPolynomial(table, out)
