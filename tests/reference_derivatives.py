"""Derivative wrappers the package no longer has, kept for the tests.

The package applies a vector field to a polynomial as
_combination(brst._gradient(f), field), differentiating f once however
many fields meet it, and takes graded derivatives of all generators
from one scan (graded_algebra._derivatives).  The per-field and
per-generator wrappers below are the bodies it had before; the tests
state their properties through them, with the assertions they had.
"""

from bvkit.brst import _gradient
from bvkit.graded_algebra import GradedPolynomial, _derivatives, _generator_index
from bvkit.polynomial_engine import _combination


def apply_vector_field(field, f):
    """Apply sum_k field[k] * d/dx_k to f."""
    if field.vars != f.vars or field.rank != len(f.vars):
        raise ValueError("vector field does not match the polynomial's coordinates")
    return _combination(_gradient(f), field)


def left_derivative(a, name):
    """Graded left partial derivative by a table generator."""
    i = _generator_index(a.table, name)
    return _derivatives(a).get(i) or GradedPolynomial.zero(a.table)


def right_derivative(a, name):
    """Graded right partial derivative by a table generator."""
    i = _generator_index(a.table, name)
    return _derivatives(a, right=True).get(i) or GradedPolynomial.zero(a.table)
