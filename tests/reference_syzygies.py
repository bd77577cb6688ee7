"""The Buchberger engine and the syzygy basis that bvkit replaced, for
the tests.

_FractionEngine is the engine before it worked over the integers: every
coefficient a Fraction, under its own term key, which can also order
two blocks (_block_term_key).  graph_syzygy_basis is syzygy_basis as it
was, an elimination on the graph vectors (g_i ; e_i) under that block
order, run on _FractionEngine; the package now reduces the syzygies a
recording ModuleBasis hands out, and the two must agree exactly.
Inputs are MVecs {(position, exponent): Fraction}.
"""

import heapq
from fractions import Fraction
from typing import Optional, Sequence

from bvkit.polynomial_engine import (
    BasePolynomial,
    ModuleVector,
    _monomial_div,
    _monomial_divides,
    _monomial_lcm,
    _monomial_mul,
    _mvec_add_into,
)


def _block_term_key(order: str, split: int):
    """Heap key on (pos, exp): the smaller key is the larger term.

    Block 0 (pos < split) beats block 1, then the ring order, then the
    earlier position; split <= 0 means a single block.  The package's
    _term_key before the block order left it.
    """
    if order == "grevlex":
        ring = lambda e: (-sum(e), e[::-1])
    elif order == "lex":
        ring = lambda e: tuple([-x for x in e])
    else:
        raise ValueError(f"unknown monomial order {order!r}")
    if split <= 0:
        return lambda t: (ring(t[1]), t[0])
    return lambda t: (t[0] >= split, ring(t[1]), t[0])


def _mvec_scale(a, factor):
    if factor == 1:
        return a
    return {k: c * factor for k, c in a.items()}


def _mvec_leading(m, key):
    k = min(m, key=key)
    return k, m[k]


class _FractionEngine:
    """The Buchberger engine before it worked over the ints: every
    coefficient a Fraction, every stored element as division leaves it,
    the reduced basis made monic.  Reference for _Engine.  Its pair
    update is the Gebauer-Moller UPDATE as Becker and Weispfenning write
    it (Groebner Bases, 1993, sec. 5.5), loop by loop, with the new
    pairs visited from the last element down, so that of the pairs of
    one lcm the one with the first element is kept, as in _Engine.

    Buchberger over k[x]^rank with tracked transformations, under the
    term key of _block_term_key (split = 0: one block).

    basis[i] is an MVec and lts[i] its leading ((pos, exp), coeff).
    Tracking expresses basis[i] as transforms[i], an MVec of
    combinations of the inputs (position = input index), enough to hand
    out membership certificates.  Inputs may arrive after the build:
    insert() queues the new S-pairs and complete() works them off.

    Division (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    sec. 2.3) keeps the pending terms in a heap on the term key, so each
    term is keyed once.  divisor memoizes, per term (pos, exp), the index
    of the first leading term that divides it, or -1; the reductions of
    one build or of one ModuleBasis share it.  It is cleared whenever
    lts changes (append, _select, the inter-reduction in
    reduce_canonical); a division that skips an element neither reads
    nor writes it.
    """

    def __init__(self, vectors: Sequence[dict], rank: int, nvars: int,
                 order: str, split: int = 0, track: bool = False):
        self.rank = rank
        self.nvars = nvars
        self.key = _block_term_key(order, split)
        self.track = track
        self.basis: list = []        # list of MVec
        self.lts: list = []          # parallel list of leading (term, coeff)
        self.transforms: list = []   # parallel list of MVec over inputs
        self.pairs: list = []        # heap of (lcm degree, i, j)
        self.divisor: dict = {}      # term -> first lts index dividing it, or -1
        for idx, v in enumerate(vectors):
            self.insert(v, idx)
        self.complete()

    # division of vec by current basis (skipping element skip); returns
    # (remainder, combination) where combination is an MVec over the
    # inputs (None if not tracking).  The largest pending term is reduced
    # by the first leading term dividing it; a step adds only terms below
    # the one it cancels, so a popped term that is gone from vec is stale.
    def _divide(self, vec: dict, comb: Optional[dict], skip: int = -1) -> tuple:
        rem: dict = {}
        vec = dict(vec)
        if comb is not None:
            comb = dict(comb)
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
            factor = -c / c2
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
        return rem, comb

    def insert(self, vec: dict, idx: int) -> None:
        """Reduce input number idx into the basis and queue its S-pairs."""
        if vec:
            tr = {(idx, (0,) * self.nvars): Fraction(1)} if self.track else None
            self._add(vec, tr)

    def complete(self) -> None:
        """Reduce every queued S-pair: the basis is then a Groebner basis."""
        while self.pairs:
            # normal selection: minimal lcm degree, then discovery order
            _, i, j = heapq.heappop(self.pairs)
            (_pi, ei), ci = self.lts[i]
            (_pj, ej), cj = self.lts[j]
            lcm = _monomial_lcm(ei, ej)
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

    def _lcm(self, i, j):
        return _monomial_lcm(self.lts[i][0][1], self.lts[j][0][1])

    def _coprime(self, i, j):
        # the product criterion, for the rank-1 ring case only
        return self.rank == 1 and self._lcm(i, j) == _monomial_mul(self.lts[i][0][1],
                                                                   self.lts[j][0][1])

    def _add(self, vec: dict, tr: Optional[dict]) -> None:
        rem, tr = self._divide(vec, tr)
        if not rem:
            return
        h = self.append(rem, tr)
        pn, en = self.lts[h][0]
        # C: the new pairs, within h's component
        C = [g for g in reversed(range(h)) if self.lts[g][0][0] == pn]
        D = []
        while C:
            g1 = C.pop(0)
            lcm1 = self._lcm(h, g1)
            if self._coprime(h, g1) or not any(
                    _monomial_divides(self._lcm(h, g2), lcm1) for g2 in C + D):
                D.append(g1)
        E = [g for g in D if not self._coprime(h, g)]
        B = []
        for p in self.pairs:
            _, g1, g2 = p
            lcm12 = self._lcm(g1, g2)
            if (self.lts[g1][0][0] != pn or not _monomial_divides(en, lcm12)
                    or self._lcm(g1, h) == lcm12 or self._lcm(h, g2) == lcm12):
                B.append(p)
        self.pairs = B + [(sum(self._lcm(g, h)), g, h) for g in E]
        heapq.heapify(self.pairs)

    def append(self, vec: dict, tr: Optional[dict]) -> int:
        """Store vec as the next basis element, without pairs; its index."""
        self.basis.append(vec)
        self.lts.append(_mvec_leading(vec, self.key))
        self.divisor.clear()
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
                    self.divisor.clear()
                    self.transforms[i] = tr
        # monic + canonical sort
        for i, g in enumerate(self.basis):
            inv = Fraction(1) / self.lts[i][1]
            self.basis[i] = _mvec_scale(g, inv)
            self.lts[i] = (self.lts[i][0], Fraction(1))
            if self.track:
                self.transforms[i] = _mvec_scale(self.transforms[i], inv)
        self._select(sorted(range(len(self.basis)),
                            key=lambda i: self.key(self.lts[i][0]), reverse=True))

    def _select(self, idx: list) -> None:
        self.basis = [self.basis[i] for i in idx]
        self.lts = [self.lts[i] for i in idx]
        self.transforms = [self.transforms[i] for i in idx]
        self.divisor.clear()


def graph_syzygy_basis(gens: Sequence, order: str = "grevlex") -> list:
    """Generators of {c : sum(c_i * gens_i) = 0}, by elimination: a
    Groebner basis of the graph vectors (g_i ; e_i) in k[x]^(r+s) under
    the block order that eliminates the first block, whose elements led
    by the tail lie wholly in it and are the syzygies, reduced and monic.
    gens are BasePolynomials or ModuleVectors of one rank."""
    vecs = [ModuleVector([g]) if isinstance(g, BasePolynomial) else g for g in gens]
    rank, vars, s = vecs[0].rank, vecs[0].vars, len(vecs)
    one = (0,) * len(vars)
    graph = [{**{(i, e): c for i, p in enumerate(v) for e, c in p.terms.items()},
              (rank + k, one): Fraction(1)} for k, v in enumerate(vecs)]
    eng = _FractionEngine(graph, rank + s, len(vars), order, split=rank)
    eng._select([i for i, ((pos, _e), _c) in enumerate(eng.lts) if pos >= rank])
    eng.reduce_canonical()
    return [ModuleVector([BasePolynomial(vars, {e: c for (p, e), c in g.items() if p == rank + k})
                          for k in range(s)])
            for g in eng.basis]
