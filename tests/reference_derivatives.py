"""Derivative wrappers the package no longer has, kept for the tests.

The package applies a vector field to a polynomial as
_combination(brst._gradient(f), field), differentiating f once however
many fields meet it, and takes graded and coordinate derivatives
straight into the integer rows of its product kernel
(graded_algebra._derivatives).  The bodies below are the ones it had
before: derivatives as graded polynomials, from one scan for every
generator, per generator and per coordinate.  The tests state their
properties through them, and compare the row form against them.
"""

from bvkit.brst import _gradient
from bvkit.graded_algebra import GradedPolynomial, _generator_index, _graded
from bvkit.polynomial_engine import _combination


def apply_vector_field(field, f):
    """Apply sum_k field[k] * d/dx_k to f."""
    if field.vars != f.vars or field.rank != len(f.vars):
        raise ValueError("vector field does not match the polynomial's coordinates")
    return _combination(_gradient(f), field)


def derivatives(a, right=False):
    """Every nonzero left (or right) graded derivative of a, by generator
    index, from one scan of its terms.

    A term adds to the derivative by each generator it contains; an odd
    generator picks up the sign of the odd factors it passes on its way
    to the left or right end.  For a fixed index i, m -> m - e_i is
    injective, so no two terms of a meet in one derivative and nothing
    cancels.
    """
    table = a.table
    parities = table.parities
    odd = table._odd_idx
    derivs = {}
    for m, c in a.terms.items():
        total = sum(m[j] for j in odd) if right else 0
        before = 0
        for i, e in enumerate(m):
            if e:
                d = c if e == 1 else c * e
                if parities[i]:
                    if (total - before - 1 if right else before) % 2:
                        d = -d
                    before += 1
                derivs.setdefault(i, {})[m[:i] + (e - 1,) + m[i + 1:]] = d
    return {i: _graded(table, t) for i, t in derivs.items()}


def left_derivative(a, name):
    """Graded left partial derivative by a table generator."""
    i = _generator_index(a.table, name)
    return derivatives(a).get(i) or GradedPolynomial.zero(a.table)


def right_derivative(a, name):
    """Graded right partial derivative by a table generator."""
    i = _generator_index(a.table, name)
    return derivatives(a, right=True).get(i) or GradedPolynomial.zero(a.table)


def coordinate_derivative(a, coord):
    """The derivative of every coefficient of a by a coordinate."""
    if coord not in a.table.coordinates:
        raise ValueError(f"{coord!r} is not a coordinate of the table; "
                         f"its coordinates are {list(a.table.coordinates)}")
    out = {}
    for m, c in a.terms.items():
        d = c.derivative(coord)
        if not d.is_zero():
            out[m] = d
    return _graded(a.table, out)
