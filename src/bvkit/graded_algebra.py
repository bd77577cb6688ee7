"""The free graded-commutative algebra over a polynomial coefficient ring.

Coordinates have degree 0 and live inside the coefficients; every other
generator is tracked in a dense exponent tuple per monomial, with Koszul
signs absorbed into the coefficient.  Three per-monomial weights drive
all structural reasoning downstream:

  ghost_degree            sum of exponent * degree over all generators
  filtration_weight       same sum restricted to positive-degree generators
  positive_factor_count   plain exponent count of positive-degree generators

A monomial lies in F^p iff filtration_weight >= p and in I^(q) iff
positive_factor_count >= q; truncation at weight P is the computational
surrogate for the completed algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from math import gcd
from operator import add, mul
from typing import Optional, Sequence

from .polynomial_engine import (
    BasePolynomial,
    _Parser,
    _from_terms,
    _poly,
    _tokenize,
    poly_to_str,
)


def dual_name(coord: str) -> str:
    return coord + "s"


class GeneratorTable:
    """Coordinates, their degree(-1) duals, and paired ghost/antifield rows.

    pairs is a sequence of (antifield_name, antifield_degree <= -2,
    ghost_name); the ghost gets degree -antifield_degree - 1 >= 1.  The
    stored generator order is: all duals, all antifields, all ghosts.
    """

    __slots__ = ("coordinates", "pairs", "names", "degrees", "parities",
                 "index", "_positive_mask", "_positive_degrees", "_odd_idx",
                 "_bits")

    def __init__(self, coordinates: Sequence[str], pairs: Sequence[tuple] = ()):
        self.coordinates = tuple(coordinates)
        if len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("duplicate coordinate names")
        names: list = []
        degrees: list = []
        for c in self.coordinates:
            names.append(dual_name(c))
            degrees.append(-1)
        anti = []
        ghosts = []
        for rec in pairs:
            aname, adeg, gname = rec
            if adeg > -2:
                raise ValueError(f"antifield degree must be <= -2, got {adeg}")
            anti.append((aname, adeg))
            ghosts.append((gname, -adeg - 1))
        for nm, d in anti + ghosts:
            names.append(nm)
            degrees.append(d)
        all_names = list(self.coordinates) + names
        if len(set(all_names)) != len(all_names):
            raise ValueError(f"name collision in generator table: {all_names}")
        self.pairs = tuple((a, d, g) for (a, d, g) in pairs)
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.parities = tuple(d % 2 for d in degrees)
        self.index = {n: i for i, n in enumerate(names)}
        # weight_of and count_of read the positive exponents through
        # compress, not a tuple: CPython 3.11 puts every freed 20-item tuple
        # on a free list that allocation never takes from (up to 368 KB)
        self._positive_mask = tuple(d > 0 for d in degrees)
        self._positive_degrees = tuple(d for d in degrees if d > 0)
        self._odd_idx = tuple(i for i, par in enumerate(self.parities) if par)
        # per generator, its bit in a term's odd mask: the k-th odd one has
        # bit k, and an even one none
        self._bits = tuple(par << k for k, par in zip(
            accumulate(self.parities, initial=0), self.parities))

    @property
    def ncoords(self) -> int:
        return len(self.coordinates)

    def degree_of(self, name: str) -> int:
        return self.degrees[self.index[name]]

    def pairing_of(self, name: str) -> Optional[str]:
        for a, _d, g in self.pairs:
            if name == a:
                return g
            if name == g:
                return a
        return None

    def __eq__(self, other):
        return (isinstance(other, GeneratorTable)
                and self.coordinates == other.coordinates
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.coordinates, self.pairs))

    def __repr__(self):
        return f"GeneratorTable(coords={self.coordinates}, pairs={self.pairs})"

    # -- monomial-level grading ---------------------------------------

    def ghost_of(self, m: tuple) -> int:
        return sum(map(mul, m, self.degrees))

    def weight_of(self, m: tuple) -> int:
        return sum(map(mul, compress(m, self._positive_mask), self._positive_degrees))

    def count_of(self, m: tuple) -> int:
        return sum(compress(m, self._positive_mask))

    def unit_monomial(self) -> tuple:
        return (0,) * len(self.names)


def grading_data(m: tuple, table: GeneratorTable) -> tuple:
    """(ghost_degree, filtration_weight, positive_factor_count)."""
    if len(m) != len(table.names):
        raise ValueError("monomial incompatible with table")
    return table.ghost_of(m), table.weight_of(m), table.count_of(m)


class GradedPolynomial:
    """Finite sum of (coefficient in O_X) * (generator monomial)."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: GeneratorTable, terms: Optional[dict] = None):
        self.table = table
        clean = {}
        if terms:
            width = len(table.names)
            odd = table._odd_idx
            coords = table.coordinates
            for m, c in terms.items():
                if not isinstance(c, BasePolynomial):
                    raise TypeError("coefficients must be BasePolynomial")
                if c.vars != coords:
                    raise ValueError(f"coefficient over {c.vars} does not match "
                                     f"the coordinates {coords}")
                m = tuple(m)
                if len(m) != width:
                    raise ValueError("monomial incompatible with table")
                for i in odd:
                    if m[i] > 1:
                        raise ValueError("odd generator exponent exceeds 1")
                if not c.is_zero():
                    clean[m] = c
        self.terms = clean
        self._hash = None

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "GradedPolynomial":
        return cls(table)

    @classmethod
    def from_scalar(cls, table: GeneratorTable, p) -> "GradedPolynomial":
        p = _poly(p, table.coordinates)
        if p.is_zero():
            return cls(table)
        return cls(table, {table.unit_monomial(): p})

    @classmethod
    def coordinate(cls, table: GeneratorTable, name: str) -> "GradedPolynomial":
        return cls.from_scalar(table, BasePolynomial.var(table.coordinates, name))

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "GradedPolynomial":
        i = table.index[name]
        m = [0] * len(table.names)
        m[i] = 1
        one = BasePolynomial.const(table.coordinates, 1)
        return cls(table, {tuple(m): one})

    @classmethod
    def monomial(cls, table: GeneratorTable, m: tuple, coeff) -> "GradedPolynomial":
        return cls(table, {tuple(m): _poly(coeff, table.coordinates)})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def ghost_degrees(self) -> set:
        return {self.table.ghost_of(m) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.ghost_degrees()) <= 1

    def ghost_degree(self) -> int:
        degs = self.ghost_degrees()
        if len(degs) != 1:
            raise ValueError(f"not ghost-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def min_weight(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(self.table.weight_of(m) for m in self.terms)

    def max_weight(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(self.table.weight_of(m) for m in self.terms)

    def min_count(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(self.table.count_of(m) for m in self.terms)

    def ghost_part(self, g: int) -> "GradedPolynomial":
        t = {m: c for m, c in self.terms.items() if self.table.ghost_of(m) == g}
        return GradedPolynomial(self.table, t)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "GradedPolynomial") -> None:
        if self.table != other.table:
            raise ValueError("generator table mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, BasePolynomial)):
            other = GradedPolynomial.from_scalar(self.table, other)
        self._check(other)
        t = dict(self.terms)
        _add_into(t, other.terms.items())
        return _graded(self.table, t)

    __radd__ = __add__

    def __neg__(self):
        return _graded(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __pow__(self, k: int):
        """Repeated multiply, so a power of an odd generator above 1 is 0."""
        if k < 0:
            raise ValueError("negative power")
        out = GradedPolynomial.from_scalar(self.table, 1)
        for _ in range(k):
            out = multiply(out, self)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return GradedPolynomial(self.table)
            c = Fraction(other)
            return _graded(self.table, {m: co * c for m, co in self.terms.items()})
        if isinstance(other, BasePolynomial):
            return GradedPolynomial(self.table,
                                    {m: co * other for m, co in self.terms.items()})
        return multiply(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, BasePolynomial)):
            other = GradedPolynomial.from_scalar(self.table, other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.table, frozenset(
                (m, c) for m, c in self.terms.items())))
        return self._hash

    def __str__(self):
        return graded_to_str(self)

    def __repr__(self):
        return f"GradedPolynomial({graded_to_str(self)!r})"


def _graded(table: GeneratorTable, terms: dict) -> GradedPolynomial:
    """GradedPolynomial(table, terms) unchecked: keys are tuples of table
    width with no odd exponent above 1, values nonzero BasePolynomials."""
    a = object.__new__(GradedPolynomial)
    a.table, a.terms, a._hash = table, terms, None
    return a


def _add_into(out: dict, terms, negate: bool = False) -> None:
    """Add (monomial, coeff) pairs, negated if asked, into out; drop zeros."""
    for m, c in terms:
        if negate:
            c = -c
        s = out.get(m)
        if s is not None:
            c = s + c
        if c.is_zero():
            out.pop(m, None)
        else:
            out[m] = c


def multiply(a: GradedPolynomial, b: GradedPolynomial) -> GradedPolynomial:
    """Graded-commutative product with Koszul signs; odd squares vanish."""
    if a.table != b.table:
        raise ValueError("generator table mismatch")
    acc: dict = {}
    _products(_weight_rows(a, False), _weight_rows(b, False), None, acc)
    return _collect(a.table, acc)


def _weight_rows(a: GradedPolynomial, split: bool = True) -> "_WeightRows":
    """The terms of a in the row form of _products, as (weight, rows) by
    increasing weight; unsplit, all rows form one of weight 0 in the
    order of a's terms.

    A row is (monomial, A, PA, [(exponent, numerator, denominator)] of
    its coefficient), with the odd masks A and PA of _odd_masks.  The
    rows are built when first iterated and kept, so an image of
    ``odd_derivation`` that meets no derivative is never converted.
    """
    return _WeightRows(a, split)


class _WeightRows:
    __slots__ = ("a", "split", "rows")

    def __init__(self, a: GradedPolynomial, split: bool):
        self.a, self.split, self.rows = a, split, None

    def __iter__(self):
        if self.rows is None:
            table, split = self.a.table, self.split
            bits, weight = table._bits, table.weight_of
            rows: dict = {}
            for m, c in self.a.terms.items():
                rows.setdefault(weight(m) if split else 0, []).append(
                    (m, *_odd_masks(bits, m), _ratios(c)))
            self.rows = [(w, rows[w]) for w in sorted(rows)]
            self.a = None
        return iter(self.rows)


def _odd_masks(bits: tuple, m: tuple) -> tuple:
    """(A, PA) of the row form: bit k of A is set when the k-th odd
    generator is in m, and bit k of PA when an odd number of the odd
    generators after it are (a suffix xor of A)."""
    odd = above = sum(compress(bits, m))
    s = 1
    while above >> s:
        above ^= above >> s
        s <<= 1
    return odd, above >> 1


def _ratios(c: BasePolynomial) -> list:
    """The coefficient c of a row, as [(exponent, numerator, denominator)]."""
    return [(e, *k.as_integer_ratio()) for e, k in c.terms.items()]


def _products(rows_a, rows_b, cap: Optional[int], acc: dict) -> None:
    """Add the signed products of two factors given as weight rows into
    acc, {monomial: {exponent: (numerator, denominator)}}.

    Rows come in increasing weight, so once a pair of rows exceeds cap
    the rest of rows_b is skipped without touching its terms.  A pair
    sharing an odd generator (A & B) vanishes, and the product takes the
    Koszul sign of moving b's odd generators past the a-generators above
    them, the parity of PA & B.  Each sum keeps the lcm of the
    denominators it adds, and an entry or monomial that sums to zero is
    dropped, so a monomial sits where the running sum last became
    nonzero, as adding the products one at a time would place it.
    """
    for wa, terms_a in rows_a:
        for wb, terms_b in rows_b:
            if cap is not None and wa + wb > cap:
                break
            for ma, oa, pa, ca in terms_a:
                for mb, ob, _pb, cb in terms_b:
                    if oa & ob:
                        continue
                    m = tuple(map(add, ma, mb))
                    out = acc.get(m)
                    if out is None:
                        out = acc[m] = {}
                    neg = (pa & ob).bit_count() & 1
                    for ea, na, da in ca:
                        if neg:
                            na = -na
                        for eb, nb, db in cb:
                            e = tuple(map(add, ea, eb))
                            n, d = na * nb, da * db
                            s = out.get(e)
                            if s is not None:
                                k, q = s
                                if q == d:
                                    n += k
                                else:
                                    lcm = q // gcd(q, d) * d
                                    n, d = k * (lcm // q) + n * (lcm // d), lcm
                                if not n:
                                    del out[e]
                                    continue
                            out[e] = n, d
                    if not out:
                        del acc[m]


def _collect(table: GeneratorTable, acc: dict) -> GradedPolynomial:
    """The graded polynomial of an accumulator of _products, built in
    place: each sum n / d becomes Fraction(n, d)."""
    coords = table.coordinates
    for m, t in acc.items():
        acc[m] = _from_terms(coords, {e: Fraction(n, d) for e, (n, d) in t.items()})
    return _graded(table, acc)


def gr_project(a: GradedPolynomial, p: int) -> GradedPolynomial:
    """Terms of filtration weight exactly p (canonical monomial lift)."""
    t = {m: c for m, c in a.terms.items() if a.table.weight_of(m) == p}
    return _graded(a.table, t)


def truncate(a: GradedPolynomial, P: int) -> GradedPolynomial:
    """Drop terms of filtration weight > P."""
    if P < 0:
        raise ValueError("truncation weight must be >= 0")
    t = {m: c for m, c in a.terms.items() if a.table.weight_of(m) <= P}
    return _graded(a.table, t)


def transport(a: GradedPolynomial, new_table: GeneratorTable) -> GradedPolynomial:
    """Re-express a over a table that contains all its generators.

    The new coordinate list must contain the old one, in any order; if
    the lists differ, the coefficients are extended to the new one.  The
    common generators must keep their relative order, so no sign
    bookkeeping is needed; violations raise rather than silently
    flipping signs.
    """
    old = a.table
    if old == new_table:
        return a
    coords = new_table.coordinates
    if not set(old.coordinates) <= set(coords):
        raise ValueError("coordinate mismatch")
    extend = old.coordinates != coords
    posmap = []
    for n in old.names:
        posmap.append(new_table.index.get(n))
    seen = [p for p in posmap if p is not None]
    if any(x >= y for x, y in zip(seen, seen[1:])):
        raise ValueError("generator order not preserved between tables")
    width = len(new_table.names)
    out = {}
    for m, c in a.terms.items():
        m2 = [0] * width
        for i, e in enumerate(m):
            if not e:
                continue
            p = posmap[i]
            if p is None:
                raise ValueError(f"generator {old.names[i]!r} missing from table")
            m2[p] = e
        out[tuple(m2)] = c.extend(coords) if extend else c
    return GradedPolynomial(new_table, out)


# -- derivations -------------------------------------------------------


def _generator_index(table: GeneratorTable, name: str) -> int:
    """The position of a generator in table; a missing one is named."""
    i = table.index.get(name)
    if i is None:
        raise ValueError(f"{name!r} is not a generator of the table; "
                         f"its generators are {list(table.names)}")
    return i


def _derivatives(a: GradedPolynomial, scales: Sequence[int], right: bool = False,
                 split: bool = True) -> dict:
    """The nonzero derivatives of a that scales asks for, by index, each
    as the weight rows of _products, from one scan of a's terms.

    Index i < n = len(table.names) is the left (or right) graded
    derivative by generator i, and index n + j the derivative by
    coordinate j.  The derivative by index i is multiplied by the integer
    scales[i]; a scale of 0 skips the index.  Rows are those of
    _weight_rows(derivative, split), term for term and in order, built
    from the row of each term of a:

    - dropping one factor of generator i lowers the weight by its
      positive degree; an odd one, bit b of the term's odd mask A,
      leaves the masks A ^ b and PA ^ (b - 1), and takes the sign of
      the odd factors before it (left) or after it (right: bit b of PA);
    - the exponent, that sign and the scale multiply each numerator,
      reduced against its denominator.

    For a fixed index, m -> m - e_i (or the exponent map of the
    coordinate) is injective, so no two terms of a meet in one
    derivative and nothing cancels.
    """
    table = a.table
    n = len(table.names)
    bits, weight = table._bits, table.weight_of
    degrees = table.degrees if split else (0,) * n
    # an even generator has no bit, so no sign and no change of masks
    gens = [(i, k, bits[i], max(bits[i] - 1, 0), max(degrees[i], 0))
            for i, k in enumerate(scales[:n]) if k]
    coords = [(n + j, j, k) for j, k in enumerate(scales[n:]) if k]
    out: dict = {}
    for m, c in a.terms.items():
        A, PA = _odd_masks(bits, m)
        w = weight(m) if split else 0
        coeff = _ratios(c)
        for i, k, b, below, deg in gens:
            e = m[i]
            if e:
                k *= e
                if PA & b if right else (A & below).bit_count() & 1:
                    k = -k
                out.setdefault(i, {}).setdefault(w - deg, []).append(
                    (m[:i] + (e - 1,) + m[i + 1:], A ^ b, PA ^ below,
                     _times(coeff, k)))
        for i, j, k in coords:
            dc = []
            for x, num, den in coeff:
                if x[j]:
                    q = x[j] * k
                    g = gcd(q, den)
                    dc.append((x[:j] + (x[j] - 1,) + x[j + 1:], num * q // g, den // g))
            if dc:
                out.setdefault(i, {}).setdefault(w, []).append((m, A, PA, dc))
    return {i: [(w, rows[w]) for w in sorted(rows)] for i, rows in out.items()}


def _times(coeff: list, k: int) -> list:
    """A row coefficient times the integer k, kept in lowest terms: n / d
    is reduced, so gcd(n * k, d) = gcd(k, d)."""
    if k == 1:
        return coeff
    out = []
    for e, num, den in coeff:
        g = gcd(k, den)
        out.append((e, num * k // g, den // g))
    return out


def _bracket_pair(factors: list, b: GradedPolynomial,
                  cap: Optional[int] = None) -> GradedPolynomial:
    """The sum of each factor (rows, i) times the derivative of b by
    index i of _derivatives, a left generator derivative or a coordinate
    one: [a, b] for the factors of ``antibracket._bracket_factors``, and
    ``odd_derivation``.

    The derivatives of b come from one scan of b, which takes only the
    indices the factors name, unchecked against the factors' table.
    With a cap, only the terms of weight <= cap are computed: the result
    is truncate(sum, cap).
    """
    scales = [0] * (len(b.table.names) + len(b.table.coordinates))
    for _rows, i in factors:
        scales[i] = 1
    derivs = _derivatives(b, scales, split=cap is not None)
    acc: dict = {}
    for rows, i in factors:
        db = derivs.get(i)
        if db:
            _products(rows, db, cap, acc)
    return _collect(b.table, acc)


def odd_derivation(table: GeneratorTable, images: dict):
    """Extend generator images (odd total degree shift) to a derivation.

    images maps generator names to GradedPolynomial values; unmapped
    generators and all coordinates are sent to zero.  D(a) = sum over g
    of images[g] times the left derivative of a by g (_bracket_pair).  A
    name that is not a generator of table, or an image or argument over
    another table, raises ValueError.
    """
    factors = []
    for name, img in images.items():
        i = _generator_index(table, name)
        if img.table != table:
            raise ValueError("generator table mismatch")
        if img:
            factors.append((_weight_rows(img, False), i))

    def apply(a: GradedPolynomial) -> GradedPolynomial:
        if a.table != table:
            raise ValueError("generator table mismatch")
        return _bracket_pair(factors, a)

    return apply


# -- canonical strings -------------------------------------------------


def graded_to_str(a: GradedPolynomial) -> str:
    """Canonical form: `(coeff)*gen^k*...` terms joined by ` + `.

    Terms are ordered by (filtration weight, ghost degree, exponents).
    """
    if not a.terms:
        return "(0)"
    table = a.table

    def term_key(m):
        return (table.weight_of(m), table.ghost_of(m), m)

    parts = []
    for m in sorted(a.terms, key=term_key):
        c = a.terms[m]
        body = f"({poly_to_str(c)})"
        factors = [f"{n}^{e}" if e > 1 else n
                   for n, e in zip(table.names, m) if e]
        if factors:
            body += "*" + "*".join(factors)
        parts.append(body)
    return " + ".join(parts)


class _GradedParser(_Parser):
    """The scalar grammar with graded values: a name is a table
    generator or a coordinate, and an integer or a parenthesized group
    is a scalar, read by the scalar parser."""

    def __init__(self, toks: list, table: GeneratorTable):
        super().__init__(toks, table.coordinates)
        self.table = table

    def primary(self) -> GradedPolynomial:
        t = self.peek()
        if t[0] == "name" and t[1] in self.table.index:
            self.take()
            return GradedPolynomial.generator(self.table, t[1])
        scalar = _Parser(self.toks, self.vars)
        scalar.i = self.i
        out = scalar.primary()
        self.i = scalar.i
        return GradedPolynomial.from_scalar(self.table, out)


def parse_graded(text: str, table: GeneratorTable) -> GradedPolynomial:
    """Parse graded text: the canonical form of graded_to_str, or any
    input of the scalar grammar of BasePolynomial.parse whose names are
    generators or coordinates.

    Factors may come in any order, with integer coefficients, `/k`,
    `name^k`, unary minus inside a term and `^` after a group or an
    integer; a parenthesized group is a scalar coefficient.  Powers are
    products, so an odd generator squared is zero.
    """
    return _GradedParser(_tokenize(text), table).parse()
