"""Exact rational multivariate polynomials, Groebner bases, and syzygies.

Everything downstream (resolutions, master-equation solving, cohomology)
reduces to three primitives implemented here: reduced Groebner bases over
free modules k[x]^r, membership certificates extracted from the tracked
transformation matrix, and syzygy modules computed by block elimination.
Each basis is built once and reused: a GroebnerBasis keeps its engine
form for normal forms, and a ModuleBasis answers many membership
questions against one generator list and can grow by one generator at a
time.  Cohomology slices use the one sparse eliminator at the end (rref,
nullspace, reduce_row on dict rows).  Coefficients are
`fractions.Fraction` throughout; no floats, no modular shortcuts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Rational = Fraction

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
    return tuple(x + y for x, y in zip(a, b))


def _monomial_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


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
                    c = Fraction(c)
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
        c = Fraction(c)
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
        return _parse_poly(text, tuple(vars))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

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
            s = t.get(e, Fraction(0)) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return BasePolynomial(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return BasePolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BasePolynomial.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return BasePolynomial(self.vars)
            return BasePolynomial(self.vars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _monomial_mul(e1, e2)
                s = t.get(e, Fraction(0)) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return BasePolynomial(self.vars, t)

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
        return BasePolynomial(self.vars, t)

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
    def __init__(self, toks: list, vars: tuple):
        self.toks = toks
        self.vars = vars
        self.i = 0

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


def _parse_poly(text: str, vars: tuple) -> BasePolynomial:
    p = _Parser(_tokenize(text), vars)
    out = p.expr()
    t = p.peek()
    if t[0] != "end":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return out


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


# -- internal sparse vectors for the Buchberger engine -----------------
#
# An MVec is a dict {(position, exponent-tuple): Fraction}.  Rank and the
# block split (for elimination orders) travel separately.


def _mvec_from_vector(v: ModuleVector) -> dict:
    out = {}
    for i, p in enumerate(v.components):
        for e, c in p.terms.items():
            out[(i, e)] = c
    return out


def _mvec_to_vector(m: dict, rank: int, vars: tuple) -> ModuleVector:
    comps = [dict() for _ in range(rank)]
    for (i, e), c in m.items():
        comps[i][e] = c
    return ModuleVector([BasePolynomial(vars, t) for t in comps])


def _mvec_add_into(out: dict, b: dict, factor: Fraction, shift: tuple) -> None:
    """out += factor * x^shift * b, in place."""
    for (i, e), c in b.items():
        key = (i, _monomial_mul(e, shift))
        s = out.get(key, 0) + factor * c
        if s:
            out[key] = s
        else:
            del out[key]


def _mvec_scale(a: dict, factor: Fraction) -> dict:
    if factor == 1:
        return a
    return {k: c * factor for k, c in a.items()}


def _module_key(order: str, split: int):
    """Key on (pos, exp): block 0 (pos < split) beats block 1, then ring
    order, then earlier position.  split <= 0 means a single block."""
    ring = monomial_key(order)
    def key(t):
        pos, e = t
        block = 1 if (split > 0 and pos < split) else 0
        return (block, ring(e), -pos)
    return key


def _mvec_leading(m: dict, key) -> tuple:
    k = max(m, key=key)
    return k, m[k]


class _Engine:
    """Buchberger over k[x]^rank with tracked transformations.

    basis[i] is an MVec and lts[i] its leading ((pos, exp), coeff).
    Tracking expresses basis[i] as transforms[i], an MVec of
    combinations of the inputs (position = input index), enough to hand
    out membership certificates.  Inputs may arrive after the build:
    insert() queues the new S-pairs and complete() works them off.
    """

    def __init__(self, vectors: Sequence[dict], rank: int, nvars: int,
                 order: str, split: int = 0, track: bool = False):
        self.rank = rank
        self.nvars = nvars
        self.key = _module_key(order, split)
        self.track = track
        self.basis: list = []        # list of MVec
        self.lts: list = []          # parallel list of leading (term, coeff)
        self.transforms: list = []   # parallel list of MVec over inputs
        self.pairs: list = []        # heap of (lcm degree, i, j)
        for idx, v in enumerate(vectors):
            self.insert(v, idx)
        self.complete()

    # division of vec by current basis (skipping element skip); returns
    # (remainder, combination) where combination is an MVec over the
    # inputs (None if not tracking).
    def _divide(self, vec: dict, comb: Optional[dict], skip: int = -1) -> tuple:
        rem: dict = {}
        vec = dict(vec)
        if comb is not None:
            comb = dict(comb)
        key = self.key
        lts = self.lts
        while vec:
            t = max(vec, key=key)
            c = vec[t]
            pos, e = t
            for i, ((p2, e2), c2) in enumerate(lts):
                if p2 == pos and i != skip and _monomial_divides(e2, e):
                    break
            else:
                rem[t] = c
                del vec[t]
                continue
            shift = _monomial_div(e, e2)
            factor = -c / c2
            _mvec_add_into(vec, self.basis[i], factor, shift)
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
        pairs = self.pairs
        while pairs:
            # normal selection: minimal lcm degree, then discovery order
            _, i, j = heapq.heappop(pairs)
            (_pi, ei), ci = self.lts[i]
            (_pj, ej), cj = self.lts[j]
            lcm = _monomial_lcm(ei, ej)
            # product criterion (rank-1 ring case only; not valid in modules)
            if self.rank == 1 and lcm == _monomial_mul(ei, ej):
                continue
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

    def _add(self, vec: dict, tr: Optional[dict]) -> None:
        rem, tr = self._divide(vec, tr)
        if not rem:
            return
        new = self.append(rem, tr)
        pn, en = self.lts[new][0]
        for i in range(new):
            pi, ei = self.lts[i][0]
            if pi == pn:
                heapq.heappush(self.pairs, (sum(_monomial_lcm(ei, en)), i, new))

    def append(self, vec: dict, tr: Optional[dict]) -> int:
        """Store vec as the next basis element, without pairs; its index."""
        self.basis.append(vec)
        self.lts.append(_mvec_leading(vec, self.key))
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
                    self.transforms[i] = tr
        # monic + canonical sort
        for i, g in enumerate(self.basis):
            inv = Fraction(1) / self.lts[i][1]
            self.basis[i] = _mvec_scale(g, inv)
            self.lts[i] = (self.lts[i][0], Fraction(1))
            if self.track:
                self.transforms[i] = _mvec_scale(self.transforms[i], inv)
        self._select(sorted(range(len(self.basis)),
                            key=lambda i: self.key(self.lts[i][0])))

    def _select(self, idx: list) -> None:
        self.basis = [self.basis[i] for i in idx]
        self.lts = [self.lts[i] for i in idx]
        self.transforms = [self.transforms[i] for i in idx]


# -- public types ------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of an ideal, with provenance.

    provenance holds the original generators and a transformation matrix:
    elements[i] = sum_k matrix[i][k] * generators[k], verified exactly.
    The basis keeps its engine form (the elements as sparse vectors with
    their leading terms), built once, which every normal_form divides
    against.
    """

    __slots__ = ("order", "elements", "generators", "matrix", "vars", "_engine")

    def __init__(self, order: str, elements: Sequence[BasePolynomial],
                 generators: Sequence[BasePolynomial], matrix: Sequence[Sequence[BasePolynomial]],
                 vars: tuple):
        self.order = order
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.matrix = tuple(tuple(row) for row in matrix)
        self.vars = vars
        self._engine = _Engine([], 1, len(vars), order)
        for g in self.elements:
            self._engine.append(_mvec_from_vector(ModuleVector([g])), None)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        body = ", ".join(poly_to_str(g) for g in self.elements)
        return f"GroebnerBasis[{self.order}]({body})"


class MembershipCertificate:
    """Witness c with sum(c_i * g_i) = f, verified at construction.

    coefficients is a ModuleVector with one entry per generator, or the
    empty tuple when the generator list is empty (then f = 0).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = coefficients

    def __repr__(self):
        return f"MembershipCertificate({self.coefficients!r})"


class ModuleBasis:
    """Tracked Groebner basis of the module a generator list spans.

    Built once per generator list, then asked many membership questions:
    lift(f) returns a MembershipCertificate over the generators, verified
    exactly, or None.  add(v) appends a generator and runs Buchberger on
    the new S-pairs only.  Certificates depend on the basis, so two
    bases grown from the same generators in different steps agree on
    membership but may hand out different certificates.  Generators may
    be BasePolynomial (rank 1) or ModuleVector of a common rank; an
    empty list spans only the zero vector.
    """

    __slots__ = ("order", "gens", "_engine")

    def __init__(self, gens: Sequence = (), order: str = ORDER_GREVLEX):
        if order not in _ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self.gens = _as_vectors(gens)
        self._engine = None
        if self.gens:
            self._engine = _Engine([_mvec_from_vector(v) for v in self.gens],
                                   rank=self.gens[0].rank, nvars=len(self.gens[0].vars),
                                   order=order, track=True)

    def add(self, v) -> None:
        """Append generator v; the basis grows by the new S-pairs only."""
        vec = _as_vectors(self.gens[:1] + [v])[-1]   # checked against gens[0]
        mvec = _mvec_from_vector(vec)
        if self._engine is None:
            self._engine = _Engine([mvec], rank=vec.rank, nvars=len(vec.vars),
                                   order=self.order, track=True)
        else:
            self._engine.insert(mvec, len(self.gens))
            self._engine.complete()
        self.gens.append(vec)

    def lift(self, f) -> Optional[MembershipCertificate]:
        """Certificate c with sum(c_i * gens_i) = f, or None."""
        fv = ModuleVector([f]) if isinstance(f, BasePolynomial) else f
        if not self.gens:
            return MembershipCertificate(()) if fv.is_zero() else None
        vars = self.gens[0].vars
        if fv.rank != self.gens[0].rank or fv.vars != vars:
            raise ValueError("target incompatible with generators")
        rem, comb = self._engine._divide(_mvec_from_vector(fv), {})
        if rem:
            return None
        # f reduced to zero: f = -sum(comb) over inputs
        coeffs = _mvec_to_vector(_mvec_scale(comb, Fraction(-1)), len(self.gens), vars)
        acc = None
        for c, g in zip(coeffs.components, self.gens):
            contrib = g * c
            acc = contrib if acc is None else acc + contrib
        if acc != fv:
            raise AssertionError("membership certificate failed verification")
        return MembershipCertificate(coeffs)


# -- public operations -------------------------------------------------


def groebner_basis(gens: Iterable[BasePolynomial], order: str = ORDER_GREVLEX) -> GroebnerBasis:
    gens = list(gens)
    if order not in _ORDERS:
        raise ValueError(f"unknown monomial order {order!r}")
    if not gens:
        return GroebnerBasis(order, [], [], [], ())
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars:
            raise ValueError("generators must share one variable list")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return GroebnerBasis(order, [], gens, [], vars)
    vectors = [_mvec_from_vector(ModuleVector([g])) for g in gens]
    eng = _Engine(vectors, rank=1, nvars=len(vars), order=order, track=True)
    eng.reduce_canonical()
    elements = []
    matrix = []
    for g, tr in zip(eng.basis, eng.transforms):
        elements.append(_mvec_to_vector(g, 1, vars)[0])
        row = _mvec_to_vector(tr, len(gens), vars)
        matrix.append(list(row.components))
    for el, row in zip(elements, matrix):
        acc = BasePolynomial.zero(vars)
        for c, g in zip(row, gens):
            acc = acc + c * g
        if acc != el:
            raise AssertionError("transformation matrix failed verification")
    return GroebnerBasis(order, elements, gens, matrix, vars)


def normal_form(f: BasePolynomial, gb: GroebnerBasis) -> BasePolynomial:
    if not gb.elements:
        return f
    vars = gb.vars
    if f.vars != vars:
        raise ValueError("variable mismatch with basis")
    rem, _ = gb._engine._divide({(0, e): c for e, c in f.terms.items()}, None)
    return _mvec_to_vector(rem, 1, vars)[0]


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
    """Certificate c with sum(c_i * gens_i) = f, or None.

    f and gens may be BasePolynomial (rank 1) or ModuleVector of a
    common rank.  The certificate is verified exactly before return;
    a caller asking several questions of one list builds a ModuleBasis.
    """
    return ModuleBasis(gens, order).lift(f)


def syzygy_basis(gens: Sequence, order: str = ORDER_GREVLEX) -> list:
    """Generators of {c : sum(c_i * gens_i) = 0}, each verified.

    Computed from a Groebner basis of the graph vectors (g_i ; e_i) in
    k[x]^(r+s) under a block order eliminating the first block: basis
    elements supported purely in the tail block are syzygies.
    """
    vecs = _as_vectors(list(gens))
    if not vecs:
        raise ValueError("empty generator list")
    rank, vars = vecs[0].rank, vecs[0].vars
    s = len(vecs)
    zero = BasePolynomial.zero(vars)
    aug = []
    for i, v in enumerate(vecs):
        tail = [zero] * s
        tail[i] = BasePolynomial.const(vars, 1)
        aug.append(ModuleVector(list(v.components) + tail))
    mvecs = [_mvec_from_vector(v) for v in aug]
    eng = _Engine(mvecs, rank=rank + s, nvars=len(vars), order=order, split=rank)
    eng.reduce_canonical()
    out = []
    for g in eng.basis:
        if any(pos < rank for (pos, _e) in g):
            continue
        shifted = {(pos - rank, e): c for (pos, e), c in g.items()}
        syz = _mvec_to_vector(shifted, s, vars)
        acc = None
        for c, v in zip(syz.components, vecs):
            contrib = v * c
            acc = contrib if acc is None else acc + contrib
        if acc is not None and not acc.is_zero():
            raise AssertionError("syzygy failed verification")
        out.append(syz)
    return out


# -- sparse exact linear algebra: a row is {column: Fraction}, no zeros -


def reduce_row(v: dict, red: Sequence[dict], pivots: Sequence[int]) -> dict:
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


def rref(rows: Sequence[dict]) -> tuple:
    """Reduced row echelon form; returns (rows, pivot columns), by pivot.

    Each row is reduced against the pivots found so far, takes its
    smallest column as its pivot and clears that column from the
    earlier rows.  A row space has one such form, so the input order
    does not change the result.
    """
    red, pivots = [], []
    for r in rows:
        v = reduce_row(r, red, pivots)
        if not v:
            continue
        pc = min(v)
        inv = Fraction(1) / v[pc]
        v = {k: c * inv for k, c in v.items()}
        for i, row in enumerate(red):
            if pc in row:
                red[i] = reduce_row(row, (v,), (pc,))
        red.append(v)
        pivots.append(pc)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [red[i] for i in order], [pivots[i] for i in order]


def nullspace(vectors: Sequence[dict]) -> list:
    """Basis {j: c} of the combinations sum_j c_j vectors[j] that vanish.

    One basis vector per free index j, in increasing order of j; the
    vectors may be keyed by any hashable.
    """
    rows = {}
    for j, vec in enumerate(vectors):
        for k, c in vec.items():
            rows.setdefault(k, {})[j] = c
    red, pivots = rref(list(rows.values()))
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
