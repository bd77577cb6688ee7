"""The product kernel the package had before its integer kernel, kept
for the tests.

graded_algebra._products takes terms in a row form with odd-generator
bit masks and adds integer numerators over a common denominator into
one accumulator.  The bodies below are the loop it replaced: weight rows
of (monomial, coefficient) pairs, an index scan for odd squares and for
the Koszul sign (merge_sign), and BasePolynomial products added one at a
time by _add_into.
"""

from operator import add

from bvkit.graded_algebra import GradedPolynomial, _add_into


def merge_sign(a, b, odd):
    """Koszul sign exponent for reordering (a-block)(b-block) to canonical."""
    total = 0
    later = 0
    for i in reversed(odd):
        total += b[i] * later
        later += a[i]
    return total % 2


def weight_rows(a, split=True):
    """The terms of a as (weight, its terms of that weight) by weight.

    Unsplit, all terms form one row of weight 0 in their own order.
    """
    if not split:
        return [(0, a.terms.items())]
    rows = {}
    weight = a.table.weight_of
    for m, c in a.terms.items():
        rows.setdefault(weight(m), {})[m] = c
    return [(w, rows[w].items()) for w in sorted(rows)]


def products(table, rows_a, rows_b, cap):
    """The signed products of two factors given as weight rows.

    Rows come in increasing weight, so once a pair of rows exceeds cap
    the rest of rows_b is skipped without touching its terms.
    """
    odd = table._odd_idx
    for wa, terms_a in rows_a:
        for wb, terms_b in rows_b:
            if cap is not None and wa + wb > cap:
                break
            for ma, ca in terms_a:
                for mb, cb in terms_b:
                    for i in odd:
                        if ma[i] + mb[i] > 1:
                            break
                    else:
                        c = ca * cb
                        if merge_sign(ma, mb, odd):
                            c = -c
                        yield tuple(map(add, ma, mb)), c


def product_sum(table, pairs, cap=None):
    """The sum of the products of each (a, b) in pairs, capped at cap,
    added in order into one dict."""
    out = {}
    for a, b in pairs:
        _add_into(out, products(table, weight_rows(a, cap is not None),
                                weight_rows(b, cap is not None), cap))
    return GradedPolynomial(table, out)
