"""Exact eliminators that share no code with bvkit, for the tests.

The package runs one eliminator, elimination._echelon, and reduces
against its rows with reduce_row.  The oracles of the tests row-reduce
through these instead, so no oracle calls the code it checks:
_reference_rref, _reference_nullspace and _reference_reduce_row are the
Fraction eliminator that _echelon replaced, and _dense_rref is dense
Gauss-Jordan.  _rref_of writes _echelon's rows in the shape of
_reference_rref, and _typed pairs each value with its type, for
comparison.
"""

from fractions import Fraction
from typing import Sequence


def _rref_of(red: list) -> tuple:
    """(rows, pivot columns) of the (pivot, row) pairs of _echelon, each
    row over its pivot coefficient."""
    return ([{k: Fraction(c, row[pc]) for k, c in row.items()} for pc, row in red],
            [pc for pc, _row in red])


def _typed(vectors):
    """The vectors with each value paired with its type, so equality
    also compares types."""
    return [{k: (type(c), c) for k, c in v.items()} for v in vectors]


def _dense_rref(rows):
    """Reference for _echelon: dense Gauss-Jordan, column by column;
    returns (rows, pivot columns), the rows dense lists of Fractions."""
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


def _reference_reduce_row(v: dict, red: Sequence[dict], pivots: Sequence[int]) -> dict:
    """v minus its components along the rows of a reduced echelon form.

    The result vanishes on every pivot column; v itself is not changed.
    """
    out = {k: c for k, c in v.items() if c}
    for row, pc in zip(red, pivots):
        f = out.get(pc)
        if f:
            for k, c in row.items():
                x = out.get(k, 0) - f * c
                if x:
                    out[k] = x
                else:
                    del out[k]
    return out


def _reference_rref(rows: Sequence[dict]) -> tuple:
    """Reduced row echelon form; returns (rows, pivot columns), by pivot.

    Each row is reduced against the pivots found so far, takes its
    smallest column as its pivot and clears that column from the
    earlier rows.  A row space has one such form, so the input order
    does not change the result.
    """
    red, pivots = [], []
    for r in rows:
        v = _reference_reduce_row(r, red, pivots)
        if not v:
            continue
        pc = min(v)
        inv = Fraction(1) / v[pc]
        v = {k: c * inv for k, c in v.items()}
        for i, row in enumerate(red):
            if pc in row:
                red[i] = _reference_reduce_row(row, (v,), (pc,))
        red.append(v)
        pivots.append(pc)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [red[i] for i in order], [pivots[i] for i in order]


def _reference_nullspace(vectors: Sequence[dict]) -> list:
    """Basis {j: c} of the combinations sum_j c_j vectors[j] that vanish.

    One basis vector per free index j, in increasing order of j; the
    vectors may be keyed by any hashable.
    """
    rows = {}
    for j, vec in enumerate(vectors):
        for k, c in vec.items():
            rows.setdefault(k, {})[j] = c
    red, pivots = _reference_rref(list(rows.values()))
    bound = set(pivots)
    basis = []
    for fc in range(len(vectors)):
        if fc in bound:
            continue
        v = {fc: Fraction(1)}
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis
