"""Problem files, command dispatch, JSON persistence, and the example registry.

A problem file declares coordinates and an action, either as a single
polynomial or as its list of partial derivatives when the action is
only defined up to constants.  Subcommands build resolutions, solve
and verify the master equation, relate solutions by gauge words, and
compute cohomology; `example` replays the registry of worked examples
and doubles as the regression gate.  All output is deterministic:
machine mode emits the JSON schemas of the corresponding modules,
human mode prints solutions with the conventional generator names
(x*, beta, gamma, ...) so they can be compared against the displays
they reproduce.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from .polynomial_engine import (
    BasePolynomial,
    ORDER_GREVLEX,
    ORDER_LEX,
    ParseError,
    normal_form,
    poly_to_str,
)
from .graded_algebra import (
    GeneratorTable,
    GradedPolynomial,
    dual_name,
    graded_to_str,
    gr_project,
    parse_graded,
    truncate,
)
from .tate import TateResolution, _open_pair, build_resolution, check_acyclic
from .bv_solver import (
    MasterSolution,
    bundle_solution,
    faddeev_popov,
    gauge_relate,
    master_residual,
    solve_master,
    verify_master,
)
from .brst import (
    _is_invariant,
    e2_page,
    h0,
    h0_bracket,
    h1,
    symmetry_presentation,
)

__all__ = [
    "EXAMPLES",
    "ProblemError",
    "ProblemSpec",
    "display_names",
    "display_str",
    "main",
    "parse_problem",
    "run_command",
]


# -- problem files -----------------------------------------------------


class ProblemError(ValueError):
    """Problem-file error carrying a 1-based line and column."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


class ProblemSpec:
    """Coordinates, an action (s0 or its partials), and solver options."""

    __slots__ = ("coordinates", "s0", "partials", "options")

    def __init__(self, coordinates, s0, partials, options):
        self.coordinates = tuple(coordinates)
        self.s0 = s0
        self.partials = list(partials) if partials is not None else None
        self.options = dict(options)

    def action_partials(self) -> list:
        if self.partials is not None:
            return list(self.partials)
        return [self.s0.derivative(c) for c in self.coordinates]

    def __repr__(self):
        mode = "s0" if self.s0 is not None else "partials"
        return f"ProblemSpec(coordinates={self.coordinates}, mode={mode})"


def _linecol(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    nl = text.rfind("\n", 0, pos)
    return line, pos - nl


def _pieces(text: str, sep: str) -> list:
    """(piece, offset in text) of each sep-separated piece, the last too."""
    out, at = [], 0
    for piece in text.split(sep):
        out.append((piece, at))
        at += len(piece) + len(sep)
    return out


_IDENT = re.compile(r"[A-Za-z_]\w*\Z")
_OPTION_KEYS = ("depth", "pmax", "bound", "order")


def parse_problem(text: str) -> ProblemSpec:
    """Parse `vars ...; S0 = ...;` (or `dS0 = ...,...;`) plus options.

    Statements end with `;`.  Coordinates must be declared before the
    action so its variables are bound.  A partials action must be a
    closed 1-form: mixed derivatives are compared pairwise and the
    first mismatch is reported.
    """
    *statements, (tail, start) = _pieces(text, ";")
    if tail.strip():
        pos = start + len(tail) - len(tail.lstrip())
        raise ProblemError("statement is missing its ';'", *_linecol(text, pos))

    coords: Optional[tuple] = None
    s0 = None
    partials = None
    options: dict = {}

    def err(msg, offset):
        raise ProblemError(msg, *_linecol(text, offset))

    def parse_poly(src, offset):
        if coords is None:
            err("coordinates must be declared before the action", offset)
        try:
            return BasePolynomial.parse(src, coords)
        except ParseError as e:
            # the absolute line and column already locate the error
            msg = re.sub(r" \(at position \d+\)\Z", "", str(e))
            err(msg, offset + e.pos)

    for stmt, off in statements:
        body = stmt.strip()
        if not body:
            continue
        lead = off + len(stmt) - len(stmt.lstrip())
        pos = lead
        m = re.match(r"vars\s+(.*)\Z", body, re.S)
        if m:
            if coords is not None:
                err("coordinates are already declared", pos)
            names = [n for n in re.split(r"[,\s]+", m.group(1).strip()) if n]
            if not names:
                err("vars needs at least one name", pos)
            for n in names:
                if not _IDENT.match(n):
                    err(f"bad coordinate name {n!r}", pos)
            if len(set(names)) != len(names):
                err("duplicate coordinate name", pos)
            coords = tuple(names)
            continue
        m = re.match(r"S0\s*=\s*(.*)\Z", body, re.S)
        if m:
            if s0 is not None or partials is not None:
                err("the action is already declared", pos)
            s0 = parse_poly(m.group(1), lead + m.start(1))
            continue
        m = re.match(r"dS0\s*=\s*(.*)\Z", body, re.S)
        if m:
            if s0 is not None or partials is not None:
                err("the action is already declared", pos)
            partials = [parse_poly(piece, lead + m.start(1) + o)
                        for piece, o in _pieces(m.group(1), ",")]
            continue
        m = re.match(r"option\s+([A-Za-z_]\w*)\s*=\s*(\S+)\Z", body)
        if m:
            key, value = m.group(1), m.group(2)
            if key == "p_max":
                key = "pmax"
            if key not in _OPTION_KEYS:
                err(f"unknown option {key!r}", pos)
            if key == "order":
                if value not in (ORDER_GREVLEX, ORDER_LEX):
                    err(f"order must be {ORDER_GREVLEX} or {ORDER_LEX}", pos)
                options[key] = value
            else:
                try:
                    options[key] = int(value)
                except ValueError:
                    err(f"option {key} needs an integer, got {value!r}", pos)
            continue
        err(f"unrecognized statement {body.split()[0]!r}", pos)

    if coords is None:
        raise ProblemError("no coordinates declared", 1, 1)
    if s0 is None and partials is None:
        raise ProblemError("no action declared", 1, 1)
    if partials is not None:
        if len(partials) != len(coords):
            raise ProblemError(
                f"dS0 needs {len(coords)} components, got {len(partials)}", 1, 1)
        bad = _open_pair(partials, coords)
        if bad is not None:
            i, j = bad
            raise ProblemError(
                f"dS0 is not closed: d(component {i + 1})/d{coords[j]}"
                f" != d(component {j + 1})/d{coords[i]}", 1, 1)
    return ProblemSpec(coords, s0, partials, options)


# -- display names -----------------------------------------------------


# the greek glyphs of the ghosts of each degree
GREEK = {1: ("β",), 2: ("γ",), 3: ("ξ", "η"), 4: ("ρ", "μ", "ν", "φ")}


def display_names(table: GeneratorTable) -> dict:
    """Conventional names for printing: duals get `*`, ghosts get greek.

    One ghost in a degree takes the bare letter for that degree; several
    share the first letter with subscripts.  Degrees past the named
    range keep their engine names.
    """
    mapping = {}
    for c in table.coordinates:
        mapping[dual_name(c)] = c + "*"
    bydeg: dict = {}
    for anti, adeg, ghost in table.pairs:
        bydeg.setdefault(-adeg - 1, []).append((anti, ghost))
    for d in sorted(bydeg):
        items = bydeg[d]
        pool = GREEK.get(d, ())
        for k, (anti, ghost) in enumerate(items):
            if len(items) <= len(pool):
                name = pool[k]
            elif pool:
                name = pool[0] + str(k + 1)
            else:
                continue
            mapping[ghost] = name
            mapping[anti] = name + "*"
    return mapping


def display_str(s: str, mapping: dict) -> str:
    """Rename generators and drop the stars between generator factors.

    Multiplication inside coefficient parentheses is kept; the stars
    joining generator factors become spaces so that dual markers do not
    collide with them (`(x)*xs*ys` prints as `(x) x* y*`).
    """
    out = []
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append(" ")
        else:
            out.append(ch)
    return re.sub(r"[A-Za-z_]\w*",
                  lambda m: mapping.get(m.group(0), m.group(0)), "".join(out))


# -- shared command plumbing -------------------------------------------


def _load_problem(path: str) -> ProblemSpec:
    with open(path) as fh:
        return parse_problem(fh.read())


def _resolve_options(spec: ProblemSpec, args, *keys) -> list:
    """Each key's value from its flag, else from the problem file.

    The order defaults to grevlex, and a bound has no default.
    """
    out = []
    for key in keys:
        value = getattr(args, key)
        if value is None:
            value = spec.options.get(key, ORDER_GREVLEX if key == "order" else None)
        if value is None and key == "bound":
            raise ValueError("a degree bound is required (--bound)")
        out.append(value)
    return out


def _build_from_spec(spec: ProblemSpec, depth: int, order: str) -> TateResolution:
    return build_resolution(spec.coordinates, s0=spec.s0, partials=spec.partials,
                            depth=depth, order=order)


# -- subcommands -------------------------------------------------------
#
# Each returns (result, text, failure): the JSON-ready result, a function
# that renders it as text lines, and what went wrong, or None.


def _cmd_tate(args):
    spec = _load_problem(args.problem)
    depth, order = _resolve_options(spec, args, "depth", "order")
    depth = 2 if depth is None else depth
    res = _build_from_spec(spec, depth, order)
    report = check_acyclic(res, depth)

    def text():
        names = display_names(res.table)
        yield f"resolution to depth {depth} ({order})"
        yield f"coordinates: {', '.join(res.coordinates)}"
        for gen in res.generators:
            yield (f"  {display_str(gen.name, names)} (degree {gen.degree}): "
                   f"delta = {display_str(graded_to_str(gen.delta), names)}")
        if not res.generators:
            yield ("  no generators beyond the duals: "
                   "the partials form a regular sequence")
        yield f"acyclic through degree -{depth}: {'yes' if report.ok else 'NO'}"

    bad = [e[0] for e in report.entries if not e[1]]
    return (res.to_json_obj(), text,
            f"homology survives at degree -{bad[0]}" if bad else None)


def _cmd_solve(args):
    spec = _load_problem(args.problem)
    depth, pmax, order = _resolve_options(spec, args, "depth", "pmax", "order")
    if pmax is None:
        pmax = depth - 1 if depth is not None else 2
    if depth is None:
        depth = pmax + 1
    if depth < pmax + 1:
        raise ValueError(
            f"order {pmax} needs resolution depth at least {pmax + 1}, "
            f"got {depth}")
    res = _build_from_spec(spec, depth, order)
    sol = solve_master(res, pmax)
    report = verify_master(sol, pmax)

    def text():
        names = display_names(res.table)
        return [f"S = {display_str(graded_to_str(sol.S), names)}",
                f"certified order: {sol.order}  ([S,S] in F^{sol.order + 1})",
                f"verify: achieved {report.achieved} of {report.requested}, "
                f"S0 {'ok' if report.s0_ok else 'WRONG'}, "
                f"associated solution {'ok' if report.associated_ok else 'WRONG'}"]

    return (sol.to_json_obj(), text, None if report.ok else
            f"verification failed (achieved order {report.achieved} "
            f"< {report.requested})")


def _load_solution(path: str) -> MasterSolution:
    with open(path) as fh:
        return MasterSolution.from_json(fh.read())


def _cmd_verify(args):
    sol = _load_solution(args.solution)
    report = verify_master(sol, sol.order if args.pmax is None else args.pmax)
    obj = {"requested": report.requested, "achieved": report.achieved,
           "s0_ok": report.s0_ok, "associated_ok": report.associated_ok,
           "ok": report.ok}

    def text():
        return [f"requested order {report.requested}: achieved {report.achieved}",
                f"weight-0 layer matches the action: {report.s0_ok}",
                f"associated solution intact: {report.associated_ok}",
                f"verdict: {'ok' if report.ok else 'FAILED'}"]

    name = ("residual weight" if report.achieved < report.requested
            else "weight-0 layer" if not report.s0_ok
            else "associated solution")
    return obj, text, None if report.ok else f"verification failed ({name})"


def _cmd_gauge(args):
    a, b = _load_solution(args.first), _load_solution(args.second)
    p = min(a.order, b.order) if args.pmax is None else args.pmax
    word = gauge_relate(a, b, p)
    match = truncate(word.apply(a.S) - b.S, p).is_zero()
    elements = [graded_to_str(u) for u in word.elements]

    def text():
        names = display_names(a.resolution.table)
        yield f"gauge word with {len(elements)} generator(s), order {p}:"
        for el in elements:
            yield "  exp(ad " + display_str(el, names) + ")"
        yield (f"transported solution matches mod F^{p + 1}: "
               + ("yes" if match else "NO"))

    return ({"p_max": p, "elements": elements, "match": match}, text,
            None if match else "transported solution differs inside the certified range")


def _cmd_cohomology(args):
    spec = _load_problem(args.problem)
    bound, order = _resolve_options(spec, args, "bound", "order")
    report = args.cohomology(spec.action_partials(), bound, order)

    def text():
        yield (f"H^{report.p} at bound {report.bound}: dim {report.dim}"
               f" ({'stable' if report.stable else 'not stable'})")
        for b in report.basis:
            if isinstance(b, BasePolynomial):
                yield "  " + poly_to_str(b, order)
            else:
                yield "  (" + ", ".join(poly_to_str(c, order) for c in b) + ")"

    return report.to_json_obj(), text, None


def _cmd_bracket(args):
    spec = _load_problem(args.problem)
    order, = _resolve_options(spec, args, "order")
    pres = symmetry_presentation(spec.action_partials(), order)
    f = BasePolynomial.parse(args.f, spec.coordinates)
    g = BasePolynomial.parse(args.g, spec.coordinates)
    value = [poly_to_str(c, order) for c in h0_bracket(f, g, pres)]

    def text():
        shown = "(" + ", ".join(value) + ")" if value else "(no symmetries)"
        return [f"[{args.f}, {args.g}] -> {shown}"]

    return {"value": value}, text, None


def _cmd_e2(args):
    """Columns 0..pmax of the first page at the requested bound."""
    spec = _load_problem(args.problem)
    bound, pcols, depth, order = _resolve_options(
        spec, args, "bound", "pmax", "depth", "order")
    pcols = 1 if pcols is None else pcols
    if pcols < 0:
        raise ValueError(f"--pmax must be >= 0, got {pcols}")
    depth = pcols + 2 if depth is None else depth
    if depth < pcols + 2:
        raise ValueError(f"--pmax {pcols} solves to order {pcols + 1}, which "
                         f"needs --depth at least {pcols + 2}, got {depth}")
    res = _build_from_spec(spec, depth, order)
    sol = solve_master(res, pcols + 1)
    columns = [e2_page(sol, p, bound).to_json_obj() for p in range(pcols + 1)]

    def text():
        names = display_names(res.table)
        for c in columns:
            yield (f"E2 column {c['p']} at bound {c['bound']}: dim {c['dim']}"
                   f" ({'stable' if c['stable'] else 'not stable'})")
            for b in c["basis"]:
                yield "  " + display_str(b, names)

    return columns, text, None


# -- the example registry ----------------------------------------------


def _check_exa1():
    res = build_resolution(["x", "y", "z"], s0="x^2 + y^2", depth=2)
    sol = solve_master(res, 1)
    expect = graded_to_str(sol.S) == "(x^2 + y^2) + (1)*zs*b1"
    parts = list(res.partials)
    return [
        ("solution is S0 plus the flat-direction coupling z*beta", expect,
         graded_to_str(sol.S)),
        ("master residual vanishes identically",
         master_residual(res, sol.S).is_zero(), ""),
        ("h0 is one-dimensional", h0(parts, 4).dim == 1, ""),
        ("h1 vanishes", h1(parts, 4).dim == 0, ""),
    ]


def _check_exa2():
    res = build_resolution(["x"], s0="x^3/3 - x", depth=2)
    sol = solve_master(res, 1)
    parts = list(res.partials)
    return [
        ("regular sequence: no generators beyond the duals",
         len(res.table.pairs) == 0, ""),
        ("solution is S0 itself",
         graded_to_str(sol.S) == "(1/3*x^3 - x)", graded_to_str(sol.S)),
        ("h0 has dimension 2 (two Morse points)", h0(parts, 4).dim == 2, ""),
        ("h1 vanishes", h1(parts, 4).dim == 0, ""),
    ]


def _check_exa3():
    sol = faddeev_popov("(x^2+y^2-1)^2/4", [["y", "-x"]], coords=["x", "y"])
    low = graded_to_str(gr_project(sol.S, 1))
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("weight-one layer couples the rotation to the ghost",
         low == "(x)*ys*b1 + (-y)*xs*b1", low),
    ]


def _check_exa4():
    c = [[["0", "0"], ["2*x", "0"]], [["-2*x", "0"], ["0", "0"]]]
    sol = faddeev_popov("0", [["1"], ["x^2"]], structure=c, coords=["x"])
    rep = verify_master(sol, 2)
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("verification passes", rep.ok, ""),
    ]


def _check_exa5():
    sol = faddeev_popov("0", [["1", "0"], ["0", "1"]], coords=["x", "y"])
    zero = BasePolynomial.zero(("x", "y"))
    parts = [zero, zero]
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("h0 is the constants", h0(parts, 4).dim == 1, ""),
        ("h1 vanishes (affine plane)", h1(parts, 4).dim == 0, ""),
    ]


def _check_exa6():
    sol = bundle_solution([["1", "y1"], ["y1", "y1^2 + 1"]],
                          [[["0", "1"], ["0", "0"]]],
                          [[[["0", "0"], ["0", "0"]]]])
    shown = graded_to_str(sol.S)
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("solution matches the transformed-flat form",
         shown == "(1/2*y1^2*v2^2 + y1*v1*v2 + 1/2*v1^2 + 1/2*v2^2)"
         " + (v2)*v1s*b1 + (-1)*y1s*b1", shown),
    ]


def _check_exa7():
    res = build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=3)
    acyclic = check_acyclic(res, 3).ok
    sol = solve_master(res, 2)
    rep = verify_master(sol, 2)
    low = sol.S - GradedPolynomial.from_scalar(res.table, res.s0)
    low_ok = truncate(low, 1) == parse_graded("(x)*ys*b1 + (-y)*xs*b1",
                                              res.table)
    parts = list(res.partials)
    a0, a1 = h0(parts, 6), h1(parts, 6)
    e0, e1 = e2_page(sol, 0, 6), e2_page(sol, 1, 6)
    return [
        ("resolution is acyclic through degree -3", acyclic, ""),
        ("solution verifies to order 2", rep.ok, ""),
        ("low-order layer is S0 + (x y* - y x*) beta", low_ok, ""),
        ("h0 at bound 6 has dimension 2", a0.dim == 2, f"dim {a0.dim}"),
        ("h1 at bound 6 has dimension 1", a1.dim == 1, f"dim {a1.dim}"),
        ("first-page column 0 agrees with h0", e0.dim == a0.dim, ""),
        ("first-page column 1 agrees with h1", e1.dim == a1.dim, ""),
    ]


def _check_exa8():
    coords = ("w", "x", "y", "z")
    s0 = BasePolynomial.parse("x^3 + y^3 + z^3 - 3*w*x*y*z", coords)
    parts = [s0.derivative(v) for v in coords]
    pres = symmetry_presentation(parts)
    gb = pres._ring(pres.order)
    r11 = h0(parts, 11, presentation=pres)
    r12 = h0(parts, 12, presentation=pres)
    w3 = BasePolynomial.parse("(w^3 - 1)^2", coords)
    members = []
    for mtext in ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"):
        f = normal_form(w3 * BasePolynomial.parse(mtext, coords), gb)
        members.append(_is_invariant(pres, gb, f) and f.total_degree() <= 11)
    return [
        ("h0 at bound 11 has dimension 31", r11.dim == 31, f"dim {r11.dim}"),
        ("all six (w^3-1)^2 * quadratic invariants lie in the slice",
         all(members), ""),
        ("dimension strictly increases with the bound",
         r12.dim > r11.dim, f"{r11.dim} -> {r12.dim}"),
    ]


def _check_fp_so3():
    fields = [["0", "-z", "y"], ["z", "0", "-x"], ["-y", "x", "0"]]
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = -1
    c[1][0][2] = 1
    c[1][2][0] = -1
    c[2][1][0] = 1
    c[2][0][1] = -1
    c[0][2][1] = 1
    sol = faddeev_popov("(x^2+y^2+z^2-1)^2", fields, structure=c,
                        coords=["x", "y", "z"])
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("verification passes", verify_master(sol, 2).ok, ""),
    ]


def _check_bundle_flat():
    z2 = [[0, 0], [0, 0]]
    j = [[0, 1], [-1, 0]]
    nj = [[0, -1], [1, 0]]
    sol1 = bundle_solution([["1"]], [[["0"]]], [[[["0"]]]])
    ok1 = master_residual(sol1.resolution, sol1.S).is_zero()
    sol2 = bundle_solution([["1", "y1"], ["y1", "y1^2 + 1"]],
                           [[["0", "1"], ["0", "0"]]],
                           [[z2]])
    ok2 = master_residual(sol2.resolution, sol2.S).is_zero()
    rejected = False
    message = ""
    try:
        bundle_solution([[1, 0], [0, 1]], [z2, z2], [[z2, j], [nj, z2]])
    except ValueError as e:
        rejected = '"(b)"' in str(e)
        message = str(e)
    return [
        ("rank-1 flat bundle solves exactly", ok1, ""),
        ("gauge-transformed flat rank-2 bundle solves exactly", ok2, ""),
        ("curvature breaking the structure equation is rejected as (b)",
         rejected, message),
    ]


def _check_derham_a1():
    sol = faddeev_popov("0", [["1"]], coords=["x"])
    parts = [BasePolynomial.zero(("x",))]
    return [
        ("master residual vanishes identically",
         master_residual(sol.resolution, sol.S).is_zero(), ""),
        ("h0 is one-dimensional", h0(parts, 4).dim == 1, ""),
    ]


EXAMPLES = {
    "exa1": ("quadratic action with a flat direction", _check_exa1),
    "exa2": ("Morse action on the line", _check_exa2),
    "exa3": ("abelian rotation of the circle quartic", _check_exa3),
    "exa4": ("rank-2 algebroid with function coefficients", _check_exa4),
    "exa5": ("translations of the plane", _check_exa5),
    "exa6": ("gauge-transformed flat rank-2 bundle", _check_exa6),
    "exa7": ("circle quartic: resolution, solution, cohomology", _check_exa7),
    "exa8": ("cubic cone with modular parameter", _check_exa8),
    "fp-so3": ("rotations of the sphere quartic", _check_fp_so3),
    "bundle-flat": ("flat bundles and the rejected curvature", _check_bundle_flat),
    "derham-a1": ("de Rham complex of the line", _check_derham_a1),
}


def _cmd_example(args):
    ids = list(EXAMPLES) if args.id in ("*", "all") else [args.id]
    for i in ids:
        if i not in EXAMPLES:
            raise ValueError(f"unknown example {i!r}; known: "
                             + ", ".join(EXAMPLES))
    payload = []
    for i in ids:
        title, check = EXAMPLES[i]
        entry = {"id": i, "title": title}
        if args.check:
            entry["checks"] = [{"name": n, "ok": ok, "detail": detail}
                               for n, ok, detail in check()]
            entry["ok"] = all(c["ok"] for c in entry["checks"])
        payload.append(entry)

    def text():
        for entry in payload:
            yield f"{entry['id']}: {entry['title']}"
            for c in entry.get("checks", ()):
                extra = f"  [{c['detail']}]" if c["detail"] and not c["ok"] else ""
                yield f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']}{extra}"

    bad = [c["name"] for e in payload for c in e.get("checks", ()) if not c["ok"]]
    return payload, text, f"failed check: {bad[0]}" if bad else None


# -- argument parsing --------------------------------------------------


def _command(sub, name, func, *, problem=True, **kw):
    """The parser of one command: --json and --out, and for a command that
    reads a problem file --order and the file."""
    sp = sub.add_parser(name, **kw)
    sp.set_defaults(func=func)
    sp.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the output to a file instead of stdout")
    if problem:
        sp.add_argument("--order", choices=(ORDER_GREVLEX, ORDER_LEX),
                        default=None, help="monomial order")
        sp.add_argument("problem")
    return sp


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bvkit",
        description="Exact Batalin-Vilkovisky data for polynomial actions.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _command(sub, "tate", _cmd_tate, help="build a resolution and check it")
    sp.add_argument("--depth", type=int, default=None)

    sp = _command(sub, "solve", _cmd_solve, help="solve the master equation")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--pmax", type=int, default=None)

    sp = _command(sub, "verify", _cmd_verify, problem=False,
                  help="re-verify a saved solution")
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("solution")

    sp = _command(sub, "gauge", _cmd_gauge, problem=False,
                  help="relate two saved solutions")
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("brst", help="cohomology of the critical locus")
    bsub = sp.add_subparsers(dest="op", required=True)
    for op, cohomology in (("h0", h0), ("h1", h1)):
        bp = _command(bsub, op, _cmd_cohomology)
        bp.add_argument("--bound", type=int, default=None)
        bp.set_defaults(cohomology=cohomology)
    bp = _command(bsub, "bracket", _cmd_bracket)
    bp.add_argument("f")
    bp.add_argument("g")
    bp = _command(bsub, "e2", _cmd_e2)
    bp.add_argument("--bound", type=int, default=None)
    bp.add_argument("--pmax", type=int, default=None,
                    help="highest column to report")
    bp.add_argument("--depth", type=int, default=None)

    sp = _command(sub, "example", _cmd_example, problem=False,
                  help="replay a worked example")
    sp.add_argument("id", help="example id, or * for the whole registry")
    sp.add_argument("--check", action="store_true",
                    help="run the example's verification suite")

    return ap


def run_command(argv: Sequence[str]) -> int:
    """Run one command; return 0, 1 if its result failed, 2 on bad input.

    The one writer of every command result: JSON under --json, else the
    text lines, to --out or stdout.
    """
    ap = _build_argparser()
    try:
        args, extra = ap.parse_known_args(list(argv))
        if extra:
            # an unknown option can be followed by its value, which then
            # fills a positional, so name the first unknown option alone
            options = [a for a in extra if a.startswith("-")]
            ap.error("unrecognized arguments: " + " ".join(options[:1] or extra))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result, text, failure = args.func(args)
        payload = (json.dumps(result, indent=2) if args.json
                   else "\n".join(text())) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        code = 1 if failure else 0
    except (ValueError, OSError) as e:
        failure, code = e, 2
    if failure:
        print(f"error: {failure}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
