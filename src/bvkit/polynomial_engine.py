"""Exact rational multivariate polynomials, Groebner bases, and syzygies.

Everything downstream reduces to the primitives here: polynomials over Q
and the one rule that reads a polynomial input (_poly); reduced Groebner
bases over free modules k[x]^r, each built once and keeping the normal
form of every monomial it has reduced, which one int sum (_nf_sum)
reads; ModuleBasis, which lifts many vectors against one generator list
and grows by one generator at a time, and whose one lift body serves a
GroebnerBasis too, over its generators; and syzygies.  The sparse
eliminator is in elimination.  Results are in `fractions.Fraction`; the
engine works over the integers inside, and its certificates are checked
in those integers (_certifies), apart from the engine.  No floats, no
modular shortcuts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterable, Iterator, Optional, Sequence

from .elimination import _axpy, _cleared

ORDER_GREVLEX = "grevlex"
ORDER_LEX = "lex"
_ORDERS = (ORDER_GREVLEX, ORDER_LEX)


def monomial_key(order: str):
    """Sort key on exponent tuples; larger key = larger monomial."""
    if order == ORDER_GREVLEX:
        def key(e: tuple) :
            return (sum(e), tuple(-x for x in reversed(e)))
        return key
    if order == ORDER_LEX:
        return lambda e: e
    raise ValueError(f"unknown monomial order {order!r}")


def _monomial_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _monomial_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _monomial_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


class BasePolynomial:
    """Polynomial over Q in a fixed ordered variable list.

    terms maps exponent tuples to nonzero Fractions.  Instances are
    treated as immutable; arithmetic returns new objects.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Optional[dict] = None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not Fraction:
                    c = _number(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "BasePolynomial":
        return cls(vars)

    @classmethod
    def const(cls, vars: Sequence[str], c) -> "BasePolynomial":
        c = _number(c)
        n = len(vars)
        return cls(vars, {(0,) * n: c} if c else {})

    @classmethod
    def var(cls, vars: Sequence[str], name: str) -> "BasePolynomial":
        i = list(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    @classmethod
    def parse(cls, text: str, vars: Sequence[str]) -> "BasePolynomial":
        return _Parser(_tokenize(text), tuple(vars)).parse()

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self, order: str = ORDER_GREVLEX) -> tuple:
        """(exponent, coefficient) of the leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = monomial_key(order)
        e = max(self.terms, key=key)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "BasePolynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BasePolynomial.const(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            else:
                s += c
                if s:
                    t[e] = s
                else:
                    del t[e]
        return _from_terms(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BasePolynomial.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other if type(other) is Fraction else Fraction(other)
            if not c:
                return _from_terms(self.vars, {})
            return _from_terms(self.vars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _monomial_mul(e1, e2)
                c = c1 * c2
                s = t.get(e)
                if s is None:
                    t[e] = c
                else:
                    s += c
                    if s:
                        t[e] = s
                    else:
                        del t[e]
        return _from_terms(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = BasePolynomial.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self, name: str) -> "BasePolynomial":
        i = self.vars.index(name)
        t: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                t[tuple(e2)] = c * e[i]
        return _from_terms(self.vars, t)

    def extend(self, vars: Sequence[str]) -> "BasePolynomial":
        """Reinterpret over a superset variable list (same names kept)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        t = {}
        for e, c in self.terms.items():
            e2 = [0] * len(vars)
            for p, x in zip(pos, e):
                e2[p] = x
            t[tuple(e2)] = c
        return BasePolynomial(vars, t)

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BasePolynomial.const(self.vars, other)
        if not isinstance(other, BasePolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"BasePolynomial({poly_to_str(self)!r})"


def _from_terms(vars: tuple, terms: dict) -> BasePolynomial:
    """BasePolynomial(vars, terms) unchecked: keys are tuples, values nonzero Fractions."""
    p = object.__new__(BasePolynomial)
    p.vars, p.terms, p._hash = vars, terms, None
    return p


def _number(x) -> Fraction:
    """x read exactly: an int, a Fraction or numeric text; a float, or
    anything else, raises ValueError."""
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    raise ValueError(f"cannot read {type(x).__name__} {x!r} as an exact number")


def _poly(x, coords: Sequence[str]) -> BasePolynomial:
    """A polynomial input read over coords: a BasePolynomial over exactly
    coords as given, a number as a constant, text parsed; anything else,
    a BasePolynomial over other variables too, raises ValueError."""
    coords = tuple(coords)
    if isinstance(x, BasePolynomial) and x.vars == coords:
        return x
    if isinstance(x, (int, Fraction)):
        return BasePolynomial.const(coords, x)
    if isinstance(x, str):
        return BasePolynomial.parse(x, coords)
    if isinstance(x, BasePolynomial):
        raise ValueError(f"polynomial over {x.vars} does not match the "
                         f"coordinates {coords}")
    raise ValueError(f"cannot read {type(x).__name__} {x!r} as a polynomial "
                     f"over the coordinates {coords}")


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_to_str(p: BasePolynomial, order: str = ORDER_GREVLEX) -> str:
    """Canonical form: terms descending, explicit `*` and `^`."""
    if not p.terms:
        return "0"
    key = monomial_key(order)
    parts = []
    for e in sorted(p.terms, key=key, reverse=True):
        c = p.terms[e]
        factors = [f"{v}^{k}" if k > 1 else v for v, k in zip(p.vars, e) if k]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = _coeff_str(mag) + "*" + "*".join(factors)
        else:
            body = _coeff_str(mag)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# -- scalar polynomial parser -----------------------------------------


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over the tokens:

        expr   = [+|-] term {(+|-) term}
        term   = factor {* factor | / int}
        factor = - factor | primary [^ int]

    A primary is an integer, a variable or a parenthesized expr.  A
    subclass reads other values by overriding primary; they need only
    +, -, * and ** with the scalar types.
    """

    def __init__(self, toks: list, vars: tuple):
        self.toks = toks
        self.vars = vars
        self.i = 0

    def parse(self):
        """The whole input as one expr; trailing tokens raise."""
        out = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"trailing input {t[1]!r}", t[2])
        return out

    def peek(self):
        return self.toks[self.i]

    def take(self, kind: Optional[str] = None):
        t = self.toks[self.i]
        if kind is not None and t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", t[2])
        self.i += 1
        return t

    def expr(self) -> BasePolynomial:
        sign = 1
        t = self.peek()
        if t[0] in ("+", "-"):
            self.take()
            sign = -1 if t[0] == "-" else 1
        out = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            nxt = self.term()
            out = out + nxt if op == "+" else out - nxt
        return out

    def term(self) -> BasePolynomial:
        out = self.factor()
        while True:
            t = self.peek()
            if t[0] == "*":
                self.take()
                out = out * self.factor()
            elif t[0] == "/":
                self.take()
                d = self.take("int")
                denom = int(d[1])
                if denom == 0:
                    raise ParseError("division by zero", d[2])
                out = out * Fraction(1, denom)
            else:
                return out

    def factor(self) -> BasePolynomial:
        t = self.peek()
        if t[0] == "-":
            self.take()
            return -self.factor()
        base = self.primary()
        if self.peek()[0] == "^":
            self.take()
            e = self.take("int")
            return base ** int(e[1])
        return base

    def primary(self) -> BasePolynomial:
        t = self.take()
        if t[0] == "int":
            return BasePolynomial.const(self.vars, int(t[1]))
        if t[0] == "name":
            if t[1] not in self.vars:
                raise ParseError(f"unbound variable {t[1]!r}", t[2])
            return BasePolynomial.var(self.vars, t[1])
        if t[0] == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {t[1]!r}", t[2])


# -- module vectors ----------------------------------------------------


class ModuleVector:
    """Fixed-rank vector of BasePolynomial over a shared variable list."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[BasePolynomial]):
        comps = list(components)
        if not comps:
            raise ValueError("empty module vector")
        vars = comps[0].vars
        for c in comps:
            if c.vars != vars:
                raise ValueError("mixed variable lists in module vector")
        self.components = tuple(comps)

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def vars(self) -> tuple:
        return self.components[0].vars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __getitem__(self, i: int) -> BasePolynomial:
        return self.components[i]

    def __iter__(self) -> Iterator[BasePolynomial]:
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __add__(self, other):
        return ModuleVector([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return ModuleVector([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, p):
        return ModuleVector([c * p for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return ModuleVector([-c for c in self.components])

    def __repr__(self):
        return "ModuleVector(" + ", ".join(poly_to_str(c) for c in self.components) + ")"


def _combination(coeffs: Iterable, gens: Sequence):
    """sum(c_i * gens_i), added term by term into one dict per component.

    gens are BasePolynomials or ModuleVectors of one rank, the coefficients
    BasePolynomials, all over one variable list, or ValueError.  Zero
    coefficients are skipped; gens must not be empty (a combination with
    no nonzero coefficient is gens[0] * 0).  It never calls the engine.
    It serves the Fraction-level jobs: the fields that brst applies, the
    presentation's _verify and the exact constructors of bv_solver.  The
    certificates the engine hands out (lifts, syzygies, the Groebner
    matrix) are checked in the engine's own ints, by _certifies.
    """
    acc = None
    for c, g in zip(coeffs, gens, strict=True):
        if not c:
            continue
        comps = g.components if isinstance(g, ModuleVector) else (g,)
        if acc is None:
            vars, acc = g.vars, [{} for _ in comps]
        if c.vars != vars or g.vars != vars or len(comps) != len(acc):
            raise ValueError("combination over mixed variable lists or ranks")
        cterms = c.terms.items()
        for t, p in zip(acc, comps):
            for e1, c1 in p.terms.items():
                for e2, c2 in cterms:
                    e = tuple(map(add, e1, e2))
                    s = t.get(e)
                    s = c1 * c2 if s is None else s + c1 * c2
                    if s:
                        t[e] = s
                    else:
                        del t[e]
    if acc is None:
        return gens[0] * 0
    out = [_from_terms(vars, t) for t in acc]
    return out[0] if isinstance(gens[0], BasePolynomial) else ModuleVector(out)


def _certifies(comb: dict, gens: Sequence, target: dict) -> bool:
    """Whether sum c * x^e * gens_i over the ((i, e), c) of comb equals
    target, decided in ints alone.

    comb and target are int MVecs, comb's positions indexing gens, a list
    of ModuleVectors.  The generators that comb touches are cleared here,
    from their own Fraction terms, by the lcm L of their denominators,
    and sum c * x^e * (L * gens_i) is compared with L * target.  Nothing
    cleared is kept.  This is the check of every certificate the engine
    hands out (ModuleBasis.lift, syzygy_basis, the groebner_basis
    matrix): it never calls the engine, so a check does not depend on
    the code whose result it checks.
    """
    rows = {i: [(p, e, c) for p, g in enumerate(gens[i]) for e, c in g.terms.items()]
            for i in {i for i, _e in comb}}
    L = lcm(*[c.denominator for row in rows.values() for _p, _e, c in row])
    acc: dict = {}
    _axpy(acc, -L, target.items())
    for (i, e1), c1 in comb.items():
        _axpy(acc, c1, [((p, tuple(map(add, e1, e2))), c2.numerator * (L // c2.denominator))
                        for p, e2, c2 in rows[i]])
    return not acc


# -- internal sparse vectors for the Buchberger engine -----------------
#
# An MVec is a dict {(position, exponent-tuple): coefficient}; inside the
# engine every coefficient is an int.  The rank travels separately.


def _mvec_from_vector(v: ModuleVector) -> dict:
    return {(i, e): c for i, p in enumerate(v.components) for e, c in p.terms.items()}


def _mvec_to_vector(m: dict, rank: int, vars: tuple, d: int) -> ModuleVector:
    """The integer MVec m divided by d, as a vector of polynomials."""
    comps = [{} for _ in range(rank)]
    for (i, e), c in m.items():
        comps[i][e] = Fraction(c, d)
    return ModuleVector([_from_terms(vars, t) for t in comps])


def _mvec_add_into(out: dict, b: dict, factor: int, shift: tuple) -> None:
    """out += factor * x^shift * b, in place."""
    for (i, e), c in b.items():
        key = (i, _monomial_mul(e, shift))
        s = out.get(key, 0) + factor * c
        if s:
            out[key] = s
        else:
            del out[key]


def _term_key(order: str):
    """Heap key on (pos, exp): the smaller key is the larger term.

    The ring order decides, then the earlier position.  Keys are unique
    per term, so min, heap order and a reversed sort agree.
    """
    if order == ORDER_GREVLEX:
        return lambda t: (-sum(t[1]), t[1][::-1], t[0])
    if order == ORDER_LEX:
        return lambda t: (tuple([-x for x in t[1]]), t[0])
    raise ValueError(f"unknown monomial order {order!r}")


class _Engine:
    """Buchberger over k[x]^rank with tracked transformations, over the ints.

    basis[i] is an MVec and lts[i] its leading ((pos, exp), coeff).
    Tracking expresses basis[i] as transforms[i], an MVec of
    combinations of the inputs (position = input index), enough to hand
    out membership certificates.  Inputs may arrive after the build:
    insert() queues the new S-pairs and complete() works them off.

    Pairs form within one component only, and complete takes them by
    normal selection: least lcm degree, then discovery order.  Each
    element that _add appends runs the Gebauer-Moller update (Gebauer &
    Moller, J. Symb. Comput. 6, 1988; Cox, Little & O'Shea, sec. 2.10).
    On the pending pairs, criterion B_k drops a pair whose lcm the new
    leading term divides and differs from both lcms with the new
    element: the two pairs with the new element, of smaller lcm, cover
    it.  On the new pairs, criterion M drops a pair whose lcm another
    new lcm properly divides, and criterion F keeps one pair per lcm,
    the first; in rank 1 the product criterion drops the whole class of
    an lcm that some pair's coprime leading terms reach (it does not
    hold in modules).  Reduced bases and normal forms are unique, so the
    criteria leave them as they are; which elements are appended on the
    way, and so the tracked transforms, may differ.

    With record, a tracked build over the inputs given here keeps what
    generates their syzygies (Schreyer 1980; Moller, Mora & Traverso,
    ISSAC 1992) in syzygies: the unit vector of each empty input; the
    tracked combination of each input or S-pair that reduced to zero, an
    exact syzygy of the inputs since the remainder is 0; and the pair
    (i, new) of each pair that the product criterion drops, whose Koszul
    syzygy basis[new] * transforms[i] - basis[i] * transforms[new] the
    one reader, ModuleBasis.syzygies, builds.  A pair whose remainder
    joins the basis gives the zero syzygy over the inputs.  A pair that
    B_k, M or F drops needs nothing: its leading-term syzygy is
    generated by those of the kept pairs and the product pairs (Gebauer
    & Moller), and by Schreyer's theorem any syzygies that lift a
    generating set of the leading-term syzygies generate all syzygies of
    the basis.  Inputs inserted after the build record nothing, since
    they are not among the inputs.  An engine built without record keeps
    syzygies None and records nothing.

    Every coefficient is an int.  insert clears an input of its
    denominators, and basis[i] = transforms[i] . inputs holds exactly;
    each stored pair is divided by its joint content and signed so that
    the leading coefficient is positive.  No step chooses by a
    coefficient, so every element, transform and remainder is a nonzero
    rational multiple of what the same steps give over Q; callers divide
    by the leading coefficient, or by the d that _divide returns.

    Terms compare by the ring order, then by position (_term_key); no
    block order splits the positions.  Division (Cox, Little & O'Shea,
    Ideals, Varieties, and Algorithms, sec. 2.3) keeps the pending terms
    in a heap on the term key, so each term is keyed once.  divisor
    memoizes, per term (pos, exp), the index of the first leading term
    that divides it, or -1; the reductions of one build or of one
    ModuleBasis share it.  It is cleared whenever the leading terms
    change (append, _select; the inter-reduction in reduce_canonical
    keeps them); a division that skips an element neither reads nor
    writes it.
    """

    def __init__(self, vectors: Sequence[dict], rank: int, nvars: int,
                 order: str, track: bool = False, record: bool = False):
        self.rank = rank
        self.nvars = nvars
        self.key = _term_key(order)
        self.track = track
        self.basis: list = []        # list of MVec
        self.lts: list = []          # parallel list of leading (term, coeff)
        self.transforms: list = []   # parallel list of MVec over inputs
        self.pairs: list = []        # heap of (lcm degree, i, j, lcm)
        self.divisor: dict = {}      # term -> first lts index dividing it, or -1
        self.zeros = [] if record else None
        for idx, v in enumerate(vectors):
            self.insert(v, idx)
        self.complete()
        # later inputs (ModuleBasis.add) are not syzygies of these
        self.syzygies, self.zeros = self.zeros, None

    # division of the int MVec vec by the current basis (skipping element
    # skip); returns (remainder, combination, d) with the combination an
    # MVec over the inputs (None if not tracking) and d the product of
    # the factors c2 / gcd(c, c2) by which steps scaled the pending
    # vector, remainder and combination together, so that
    # rem - comb . inputs = d * (vec - comb . inputs) for the arguments.
    # The largest pending term is reduced by the first leading term
    # dividing it; a step adds only terms below the one it cancels, so a
    # popped term that is gone from vec is stale.
    def _divide(self, vec: dict, comb: Optional[dict], skip: int = -1) -> tuple:
        rem: dict = {}
        vec = dict(vec)
        if comb is not None:
            comb = dict(comb)
        d = 1
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
            g = gcd(c, c2)
            if g != c2:
                a = c2 // g
                d *= a
                for m in (vec, rem, comb or {}):
                    for k in m:
                        m[k] *= a
            factor = -c // g
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
        return rem, comb, d

    def insert(self, vec: dict, idx: int) -> None:
        """Clear input number idx of denominators, reduce it into the basis
        and queue its S-pairs; an empty input, while recording, is
        recorded as its unit syzygy."""
        one = (0,) * self.nvars
        if vec:
            vec, k = _cleared(vec)
            self._add(vec, {(idx, one): k} if self.track else None)
        elif self.zeros is not None:
            self.zeros.append({(idx, one): 1})

    def complete(self) -> None:
        """Reduce every queued S-pair: the basis is then a Groebner basis."""
        pairs = self.pairs
        while pairs:
            # normal selection: minimal lcm degree, then discovery order
            _, i, j, lcm_e = heapq.heappop(pairs)
            (_pi, ei), ci = self.lts[i]
            (_pj, ej), cj = self.lts[j]
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
        """Reduce vec; append a nonzero remainder and update the pairs."""
        rem, tr, _d = self._divide(vec, tr)
        if not rem:
            if self.zeros is not None and tr:
                self.zeros.append(tr)
            return
        new = self.append(rem, tr)
        lts, pairs = self.lts, self.pairs
        pn, en = lts[new][0]
        # B_k, in place: complete pops from this list
        pairs[:] = [p for p in pairs
                    if lts[p[1]][0][0] != pn or not _monomial_divides(en, p[3])
                    or _monomial_lcm(lts[p[1]][0][1], en) == p[3]
                    or _monomial_lcm(lts[p[2]][0][1], en) == p[3]]
        heapq.heapify(pairs)
        # F: the first pair of each lcm, or -1 for a product class; then M
        new_pairs: dict = {}
        for i in range(new):
            (pi, ei), _c = lts[i]
            if pi == pn:
                lcm_e = _monomial_lcm(ei, en)
                if self.rank == 1 and lcm_e == _monomial_mul(ei, en):
                    new_pairs[lcm_e] = -1
                    if self.zeros is not None:
                        self.zeros.append((i, new))
                else:
                    new_pairs.setdefault(lcm_e, i)
        for lcm_e, i in new_pairs.items():
            if i >= 0 and not any(m != lcm_e and _monomial_divides(m, lcm_e) for m in new_pairs):
                heapq.heappush(pairs, (sum(lcm_e), i, new, lcm_e))

    def _primitive(self, vec: dict, tr: Optional[dict]) -> tuple:
        """(vec, leading (term, coeff), tr), vec and tr divided by their
        joint content and signed so the leading coefficient is positive."""
        t = min(vec, key=self.key)
        g = gcd(*vec.values(), *(tr or {}).values())
        if vec[t] < 0:
            g = -g
        vec = {k: c // g for k, c in vec.items()}
        return vec, (t, vec[t]), tr and {k: c // g for k, c in tr.items()}

    def append(self, vec: dict, tr: Optional[dict]) -> int:
        """Store the int MVec vec, made primitive, as the next basis
        element, without pairs; its index."""
        vec, lt, tr = self._primitive(vec, tr)
        self.basis.append(vec)
        self.lts.append(lt)
        self.divisor.clear()
        self.transforms.append(tr)
        return len(self.basis) - 1

    def reduce_canonical(self) -> None:
        """Minimalize, inter-reduce, sort by leading term."""
        # minimalize: drop elements whose LT is divisible by another LT
        # (of equal LTs, all but the first)
        lts = [t for t, _c in self.lts]
        self._select([i for i, (pi, ei) in enumerate(lts)
                      if not any(pj == pi and _monomial_divides(ej, ei) and (ej != ei or j < i)
                                 for j, (pj, ej) in enumerate(lts) if j != i)])
        # inter-reduce tails: no leading term divides another, so each
        # keeps its term and a reduced tail stays reduced; one pass is enough
        for i in range(len(self.basis)):
            rem, tr, _d = self._divide(self.basis[i], self.transforms[i], skip=i)
            if rem != self.basis[i]:
                self.basis[i], self.lts[i], self.transforms[i] = self._primitive(rem, tr)
        self._select(sorted(range(len(self.basis)),
                            key=lambda i: self.key(self.lts[i][0]), reverse=True))

    def _select(self, idx: list) -> None:
        self.basis = [self.basis[i] for i in idx]
        self.lts = [self.lts[i] for i in idx]
        self.transforms = [self.transforms[i] for i in idx]
        self.divisor.clear()


# -- public types ------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of an ideal, with provenance.

    The basis keeps the engine that groebner_basis built and reduced
    (sparse int vectors with their leading terms), which every
    normal_form divides against; elements are its vectors over their
    leading coefficients, as polynomials.  provenance holds the original
    generators and the transformation matrix read off the engine's
    tracked transforms, over the same leading coefficients:
    elements[i] = sum_k matrix[i][k] * generators[k].  groebner_basis
    verifies each int transform row against its int element
    (_certifies), apart from the engine, so every element is certified
    to lie in the ideal of the generators.
    _nf holds the normal form of each monomial reduced (_monomial_nf),
    as int numerators over one denominator d, reduced so that d = 1
    whenever the normal form is integral; _nf_sum is its one reader.
    The engine is tracked, so lift is ModuleBasis.lift over gens, the
    generators as rank-1 vectors.
    """

    __slots__ = ("order", "elements", "generators", "gens", "matrix", "vars", "_engine", "_nf")

    def __init__(self, order: str, generators: Sequence[BasePolynomial],
                 vars: tuple, engine: "_Engine"):
        self.order = order
        self.generators = tuple(generators)
        self.gens = _as_vectors(self.generators)
        self.vars = vars
        self._engine = engine
        self._nf: dict = {}   # exponent -> flat (d, exponent, numerator, ...) of its normal form
        self.elements = tuple(_mvec_to_vector(g, 1, vars, c)[0]
                              for g, (_t, c) in zip(engine.basis, engine.lts))
        self.matrix = tuple(_mvec_to_vector(tr, len(generators), vars, c).components
                            for tr, (_t, c) in zip(engine.transforms, engine.lts))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        body = ", ".join(poly_to_str(g) for g in self.elements)
        return f"GroebnerBasis[{self.order}]({body})"


class ModuleBasis:
    """Tracked Groebner basis of the module a generator list spans.

    Built once per generator list, then asked many membership questions:
    lift(f) returns the coefficient vector c with sum(c_i * gens_i) = f,
    or None.  The division's int combination is verified exactly, in
    ints (_certified, _certifies), before c is built from it.  add(v)
    appends a generator and runs Buchberger on the new S-pairs only;
    absorb(vectors) adds each vector the span does not reach yet, asking
    the certified membership query alone.  Coefficients depend on the
    basis, so two bases grown from the same generators in different
    steps agree on membership but may hand out different coefficients.
    Generators may be BasePolynomial (rank 1) or ModuleVector of a
    common rank; an empty list spans only the zero vector.  With record,
    the first build keeps what generates the syzygies of gens (_Engine's
    record), and syzygies() hands it out once; syzygy_basis and
    check_acyclic both read their syzygies so.
    """

    __slots__ = ("order", "gens", "_engine")

    def __init__(self, gens: Sequence = (), order: str = ORDER_GREVLEX, record: bool = False):
        if order not in _ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self.gens = _as_vectors(gens)
        self._engine = None
        if self.gens:
            self._engine = _Engine([_mvec_from_vector(v) for v in self.gens],
                                   rank=self.gens[0].rank, nvars=len(self.gens[0].vars),
                                   order=order, track=True, record=record)

    def syzygies(self) -> list:
        """Generators of the syzygies of gens, as int MVecs over the
        generator index, each divided by its content: the record of the
        first build, with the Koszul syzygy of each product-criterion pair
        built.  With the basis G = T . gens, every syzygy of gens is T
        times a syzygy of G plus a combination of the gens that reduced
        to zero on insertion (Cox, Little & O'Shea, Using Algebraic
        Geometry, ch. 5 sec. 3).  The one reader of an engine's record,
        which it releases, so a second call returns []; [] without
        record."""
        eng = self._engine
        if eng is None or eng.syzygies is None:
            return []
        out = []
        for rec in eng.syzygies:
            if isinstance(rec, tuple):
                i, j = rec
                rec = {}
                for k, other, f in ((i, j, 1), (j, i, -1)):
                    for (_p, e), c in eng.basis[other].items():
                        _mvec_add_into(rec, eng.transforms[k], f * c, e)
                if not rec:
                    continue
            g = gcd(*rec.values())
            out.append({k: c // g for k, c in rec.items()})
        eng.syzygies = None
        return out

    def add(self, v) -> None:
        """Append generator v; the basis grows by the new S-pairs only."""
        vec = _as_vectors(self.gens[:1] + [v])[-1]   # checked against gens[0]
        if self._engine is None:
            self._engine = _Engine([], rank=vec.rank, nvars=len(vec.vars),
                                   order=self.order, track=True)
        self._engine.insert(_mvec_from_vector(vec), len(self.gens))
        self._engine.complete()
        self.gens.append(vec)

    def absorb(self, vectors: Iterable) -> list:
        """Add, in order, each vector the span does not reach yet; the
        vectors added.  A zero vector is always reached.  Each question
        is a certified membership query (_certified), so no coefficient
        vector is built."""
        added = []
        for v in vectors:
            if self._certified(v) is None:
                self.add(v)
                added.append(v)
        return added

    def _certified(self, f):
        """(comb, s) with sum comb . gens = s * f, or None when the span
        does not reach f: comb is the int MVec over the generator index
        that the division hands out, checked by _certifies before return,
        and s = -d * k a nonzero int; ({}, 1) for an empty generator list
        and f = 0."""
        fv = ModuleVector([f]) if isinstance(f, BasePolynomial) else f
        if not self.gens:
            return ({}, 1) if fv.is_zero() else None
        if fv.rank != self.gens[0].rank or fv.vars != self.gens[0].vars:
            raise ValueError("target incompatible with generators")
        vec, k = _cleared(_mvec_from_vector(fv))
        rem, comb, d = self._engine._divide(vec, {})
        if rem:
            return None
        # k * f reduced to zero: d * k * f + comb . inputs = 0
        if not _certifies(comb, self.gens, {t: -d * c for t, c in vec.items()}):
            raise AssertionError("membership certificate failed verification")
        return comb, -d * k

    def lift(self, f):
        """The coefficient vector c with sum(c_i * gens_i) = f, or None;
        () for an empty generator list and f = 0.  c is the certified
        combination of _certified over its scale, so only a caller that
        reads the coefficients builds Fractions."""
        cert = self._certified(f)
        if cert is None:
            return None
        if not self.gens:
            return ()
        return _mvec_to_vector(cert[0], len(self.gens), self.gens[0].vars, cert[1])


GroebnerBasis.lift = ModuleBasis.lift
GroebnerBasis._certified = ModuleBasis._certified


# -- public operations -------------------------------------------------


def groebner_basis(gens: Iterable[BasePolynomial], order: str = ORDER_GREVLEX) -> GroebnerBasis:
    gens = list(gens)
    if order not in _ORDERS:
        raise ValueError(f"unknown monomial order {order!r}")
    vars = gens[0].vars if gens else ()
    for g in gens:
        if g.vars != vars:
            raise ValueError("generators must share one variable list")
    vectors = [_mvec_from_vector(ModuleVector([g])) for g in gens]
    eng = _Engine(vectors, rank=1, nvars=len(vars), order=order, track=True)
    eng.reduce_canonical()
    gb = GroebnerBasis(order, gens, vars, eng)
    for tr, el in zip(eng.transforms, eng.basis):
        if not _certifies(tr, gb.gens, el):
            raise AssertionError("transformation matrix failed verification")
    return gb


def _monomial_nf(gb: GroebnerBasis, a: tuple) -> tuple:
    """NF(x^a) as a flat tuple (d, exponent, r, exponent, r, ...), kept
    on gb: the sum of r / d * x^exponent.

    Every r is an int and d > 0 shares no factor with all of them, so
    d = 1 exactly when the normal form has int coefficients.  Each
    monomial is divided once; every x^a that reduces to 0 holds the one
    empty tuple.  The engine's divisor memo is emptied after the
    division, since gb._nf answers every later question about x^a.
    """
    nf = gb._nf.get(a)
    if nf is None:
        rem, _, d = gb._engine._divide({(0, a): 1}, None)
        gb._engine.divisor.clear()
        g = gcd(d, *rem.values())
        terms = [x for (_p, e), r in rem.items() for x in (e, r // g)]
        nf = gb._nf[a] = (d // g, *terms) if terms else ()
    return nf


def _nf_sum(gb: GroebnerBasis, terms: Iterable) -> tuple:
    """(acc, q): sum c * NF(x^a) over the (a, c) pairs of terms, each c a
    nonzero int, as int numerators {exponent: r} over q > 0, the lcm of
    the d read; acc is rescaled when q grows.  The one reader of the
    _monomial_nf layout."""
    acc, q = {}, 1
    for a, c in terms:
        it = iter(_monomial_nf(gb, a))
        d = next(it, 1)
        if q % d:
            scale = d // gcd(q, d)
            acc = {e: x * scale for e, x in acc.items()}
            q *= scale
        _axpy(acc, c * (q // d), zip(it, it))
    return acc, q


def normal_form(f: BasePolynomial, gb: GroebnerBasis) -> BasePolynomial:
    """Remainder of f on division by the basis.

    A Groebner basis leaves one remainder (Cox, Little & O'Shea, sec.
    2.6), so the normal form is sum c * NF(x^a) over the terms of f;
    each NF(x^a) is computed once per basis, and the leading terms of a
    built GroebnerBasis never change, so no kept remainder goes stale.
    f is cleared once, summed in ints (_nf_sum) and divided at the end.
    """
    if f.vars != gb.vars:
        raise ValueError("variable mismatch with basis")
    cleared, k = _cleared(f.terms)
    acc, q = _nf_sum(gb, cleared.items())
    return _from_terms(f.vars, {e: Fraction(x, k * q) for e, x in acc.items()})


def _as_vectors(items: Sequence) -> list:
    """Normalize a list of BasePolynomial or ModuleVector to vectors of
    one rank over one variable list."""
    vecs = []
    for x in items:
        if isinstance(x, BasePolynomial):
            vecs.append(ModuleVector([x]))
        elif isinstance(x, ModuleVector):
            vecs.append(x)
        else:
            raise TypeError(f"expected polynomial or vector, got {type(x)!r}")
    for v in vecs:
        if v.rank != vecs[0].rank or v.vars != vecs[0].vars:
            raise ValueError("generators must share rank and variables")
    return vecs


def lift_membership(f, gens: Sequence, order: str = ORDER_GREVLEX):
    """The coefficient vector c with sum(c_i * gens_i) = f, or None.

    f and gens may be BasePolynomial (rank 1) or ModuleVector of a
    common rank.  c is verified exactly before return (() when gens is
    empty and f = 0); a caller asking several questions of one list
    builds a ModuleBasis.
    """
    return ModuleBasis(gens, order).lift(f)


def syzygy_basis(gens: Sequence, order: str = ORDER_GREVLEX) -> list:
    """The reduced Groebner basis of {c : sum(c_i * gens_i) = 0}, each
    element verified as an int syzygy of the cleared generators
    (_certifies) before it is divided by its leading coefficient.

    A recording ModuleBasis of gens hands out generators of the module
    (ModuleBasis.syzygies), and an untracked engine of rank len(gens)
    reduces them.  Elimination on the graph vectors (g_i ; e_i), under
    the block order that ranks the g part first, finds the same module
    and orders its tail as _term_key orders rank len(gens); a reduced
    basis is unique, so this is that elimination's basis, element for
    element and in order.
    """
    vecs = _as_vectors(list(gens))
    if not vecs:
        raise ValueError("empty generator list")
    s, vars = len(vecs), vecs[0].vars
    eng = _Engine(ModuleBasis(vecs, order, record=True).syzygies(),
                  rank=s, nvars=len(vars), order=order)
    eng.reduce_canonical()
    out = []
    for g, (_t, lc) in zip(eng.basis, eng.lts):
        if not _certifies(g, vecs, {}):
            raise AssertionError("syzygy failed verification")
        out.append(_mvec_to_vector(g, s, vars, lc))
    return out
