"""Sparse exact linear algebra: the one eliminator of the package.

A row is a dict {column: coefficient}.  _echelon row-reduces over the
integers (fraction-free, by cross-multiplication) and returns the
(pivot column, row) pairs of the reduced echelon form; reduce_row
reduces a vector against them.  _cleared and _axpy are the integer
helpers the Groebner engine shares with it.  Standard library only;
nothing here imports from the rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _cleared(m: dict) -> tuple:
    """(k * m, k) for the least k > 0 that makes every coefficient an int."""
    k = lcm(*[c.denominator for c in m.values()])
    return {t: c.numerator * (k // c.denominator) for t, c in m.items()}, k


def _axpy(out: dict, f, items: Iterable) -> None:
    """out[k] += f * c for each (k, c) of items, in place; f and every c
    are nonzero, and entries that reach zero are dropped."""
    for k, c in items:
        x = out.get(k)
        x = f * c if x is None else x + f * c
        if x:
            out[k] = x
        else:
            del out[k]


def reduce_row(v: dict, rows: Sequence[tuple]) -> dict:
    """v minus its components along the (pivot, row) pairs of _echelon.

    Each row is divided by its pivot coefficient as it is used, so the
    result vanishes on every pivot column; v itself is not changed.
    """
    out = {k: c for k, c in v.items() if c}
    for pc, row in rows:
        if pc in out:
            _axpy(out, -Fraction(out[pc], row[pc]), row.items())
    return out


def _primitive_row(v: dict, sign: int = 1) -> dict:
    """v over the content of its entries, times sign."""
    g = gcd(*v.values()) * sign
    return {k: c // g for k, c in v.items()}


def _eliminate(v: dict, row: dict, pc) -> dict:
    """(p * v - f * row) / gcd(f, p) for f = v[pc] and p = row[pc] > 0,
    made primitive: v with column pc cleared, and with the sign of v
    wherever row vanishes."""
    p, f = row[pc], v[pc]
    g = gcd(p, f)
    out = {k: c * (p // g) for k, c in v.items()}
    _axpy(out, -f // g, row.items())
    return _primitive_row(out)


def _echelon(rows: Iterable) -> list:
    """Gauss-Jordan over the ints: the (pivot column, row) pairs of the
    row space, by pivot.

    Each input row, an iterable of (column, value) pairs with distinct
    columns, is cleared of denominators and explicit zeros, then
    reduced against the rows kept so far by cross-multiplication
    (fraction-free elimination: Bareiss, Math. Comp. 22, 1968).  What is
    left takes its smallest column as pivot and clears that column from
    the earlier rows.  Every kept row is primitive with a positive pivot
    coefficient, so it is its row of the reduced echelon form times that
    coefficient; a row space has one such form, so the input order does
    not change the result.
    """
    red: dict = {}
    for r in rows:
        v = _cleared({k: c for k, c in r if c})[0]
        for pc in [pc for pc in v if pc in red]:
            v = _eliminate(v, red[pc], pc)
        if v:
            pc = min(v)
            v = _primitive_row(v, -1 if v[pc] < 0 else 1)
            for q, row in red.items():
                if pc in row:
                    red[q] = _eliminate(row, v, pc)
            red[pc] = v
    return sorted(red.items())
