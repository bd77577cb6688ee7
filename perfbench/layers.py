"""Per-layer metrics of one traced pass: calls, self time and wasted-work ratios.

Each layer is a bvkit module.  `Observers` looks at the arguments and
results of a few entry points as they return; `metrics` folds the spans
and observations into the named per-layer metrics.

Ratios, each with its base:
  lift_membership.found_ratio    certificates returned / calls
  lift_membership.repeat_ratio   calls whose generator list (and order)
                                 equals one seen earlier in the pass / calls
  groebner_basis.repeat_ratio    the same, for basis builds
  normal_form.unchanged_ratio    normal forms equal to their input / calls
  tate.cycle_accept_ratio        generators adjoined by build_resolution /
                                 cycles syzygy_basis returned to it
  cli.pool_speedup               thread CPU time inside example checks /
                                 wall time of run_command
A ratio whose base is zero reads 0.
"""

from __future__ import annotations

import sys

from tracer import LAYERS

# every named per-layer metric: name -> unit, in report order
LAYER_METRICS = {
    "polynomial_engine.lift_membership.calls": "count",
    "polynomial_engine.lift_membership.self_s": "s",
    "polynomial_engine.lift_membership.found_ratio": "ratio",
    "polynomial_engine.lift_membership.repeat_ratio": "ratio",
    "polynomial_engine.groebner_basis.calls": "count",
    "polynomial_engine.groebner_basis.self_s": "s",
    "polynomial_engine.groebner_basis.repeat_ratio": "ratio",
    "polynomial_engine.syzygy_basis.calls": "count",
    "polynomial_engine.syzygy_basis.self_s": "s",
    "polynomial_engine.normal_form.calls": "count",
    "polynomial_engine.normal_form.self_s": "s",
    "polynomial_engine.normal_form.unchanged_ratio": "ratio",
    "polynomial_engine.rref.calls": "count",
    "polynomial_engine.rref.self_s": "s",
    "polynomial_engine.rref.cells": "count",
    "polynomial_engine.nullspace.calls": "count",
    "polynomial_engine.nullspace.self_s": "s",
    "graded_algebra.construct.calls": "count",
    "graded_algebra.construct.self_s": "s",
    "graded_algebra.construct.terms": "count",
    "graded_algebra.add.calls": "count",
    "graded_algebra.add.self_s": "s",
    "graded_algebra.multiply.calls": "count",
    "graded_algebra.multiply.self_s": "s",
    "graded_algebra.derivative.calls": "count",
    "graded_algebra.derivative.self_s": "s",
    "antibracket.bracket.calls": "count",
    "antibracket.bracket.self_s": "s",
    "antibracket.bracket.terms_out": "count",
    "antibracket.exp_ad.calls": "count",
    "bv_solver.master_residual.calls": "count",
    "bv_solver.master_residual.self_s": "s",
    "bv_solver.solve_master.self_s": "s",
    "bv_solver.verify_master.self_s": "s",
    "tate.build_resolution.self_s": "s",
    "tate.check_acyclic.self_s": "s",
    "tate.cycles_found": "count",
    "tate.cycle_accept_ratio": "ratio",
    "brst.standard_monomials.calls": "count",
    "brst.standard_monomials.self_s": "s",
    "brst.symmetry_presentation.self_s": "s",
    "brst.h0.self_s": "s",
    "brst.h1.self_s": "s",
    "brst.e2_page.self_s": "s",
    "brst.apply_vector_field.calls": "count",
    "cli.run_command.self_s": "s",
    "cli.example.busy_s": "s",
    "cli.pool_speedup": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Self times of layers that a workload never enters read exactly 0 on
# it: the solve path (graded_algebra, antibracket, bv_solver, tate,
# brst.e2_page) on cubic-cohomology and the registry command (cli
# run_command and example checks) on the other two.  They stay in the
# run record; the result line carries every other metric.
ZERO_ON_SOME_WORKLOAD = {
    "graded_algebra.construct.self_s", "graded_algebra.add.self_s",
    "graded_algebra.multiply.self_s", "graded_algebra.derivative.self_s",
    "antibracket.bracket.self_s", "bv_solver.master_residual.self_s",
    "bv_solver.solve_master.self_s", "bv_solver.verify_master.self_s",
    "tate.build_resolution.self_s", "tate.check_acyclic.self_s",
    "brst.e2_page.self_s", "cli.run_command.self_s", "cli.example.busy_s",
    "cli.pool_speedup", "graded_algebra.self_s", "antibracket.self_s",
    "bv_solver.self_s", "tate.self_s",
}

# the per-layer metrics of the result line (and of BENCHMARK.json)
PER_LAYER = {k: u for k, u in LAYER_METRICS.items()
             if k not in ZERO_ON_SOME_WORKLOAD}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Observers:
    """Counters filled by hooks on traced entry points."""

    def __init__(self):
        self.lift_found = 0
        self.lift_seen = set()
        self.lift_repeats = 0
        self.gb_seen = set()
        self.gb_repeats = 0
        self.nf_unchanged = 0
        self.rref_cells = 0
        self.construct_terms = 0
        self.bracket_terms = 0
        self.syzygies = []          # (span id, cycles returned)
        self.adjoined = 0

    def _repeat(self, seen, gens, order) -> int:
        # a hash stands in for the list, so no generator list is kept alive
        key = hash((tuple(gens), order))
        if key in seen:
            return 1
        seen.add(key)
        return 0

    def lift(self, sid, args, kwargs, out):
        self.lift_found += out is not None
        self.lift_repeats += self._repeat(
            self.lift_seen, _arg(args, kwargs, 1, "gens"),
            _arg(args, kwargs, 2, "order", "grevlex"))

    def groebner(self, sid, args, kwargs, out):
        self.gb_repeats += self._repeat(self.gb_seen, out.generators, out.order)

    def normal_form(self, sid, args, kwargs, out):
        self.nf_unchanged += out == _arg(args, kwargs, 0, "f")

    def rref(self, sid, args, kwargs, out):
        rows = _arg(args, kwargs, 0, "rows")
        self.rref_cells += len(rows) * len(rows[0]) if len(rows) else 0

    def construct(self, sid, args, kwargs, out):
        self.construct_terms += len(args[0].terms)

    def bracket(self, sid, args, kwargs, out):
        self.bracket_terms += len(out.terms)

    def syzygy(self, sid, args, kwargs, out):
        self.syzygies.append((sid, len(out)))

    def build(self, sid, args, kwargs, out):
        self.adjoined += len(out.generators)

    def hooks(self) -> dict:
        return {
            "polynomial_engine.lift_membership": self.lift,
            "polynomial_engine.groebner_basis": self.groebner,
            "polynomial_engine.normal_form": self.normal_form,
            "polynomial_engine.rref": self.rref,
            "polynomial_engine.syzygy_basis": self.syzygy,
            "graded_algebra.construct": self.construct,
            "antibracket.bracket": self.bracket,
            "tate.build_resolution": self.build,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, obs, self_s, durations, unattributed, traced_wall,
            untraced_wall) -> tuple:
    """(every named metric, calls and self time of every traced entry point)."""
    names = tracer.names
    calls = [0] * len(names)
    selfs = [0.0] * len(names)
    for sid, code in enumerate(tracer.span_code):
        calls[code] += 1
        selfs[code] += self_s[sid]
    table = {names[c]: {"calls": calls[c], "self_s": selfs[c]}
             for c in range(len(names)) if calls[c]}

    def n(name):
        return table.get(name, {}).get("calls", 0)

    def s(name):
        return table.get(name, {}).get("self_s", 0.0)

    build = names.index("tate.build_resolution")
    cycles = sum(k for sid, k in obs.syzygies
                 if tracer.span_parent[sid] >= 0
                 and tracer.span_code[tracer.span_parent[sid]] == build)
    run_code = names.index("cli.run_command")
    run_wall = sum(durations[sid] for sid, code in enumerate(tracer.span_code)
                   if code == run_code)
    values = {
        "polynomial_engine.lift_membership.found_ratio":
            _ratio(obs.lift_found, n("polynomial_engine.lift_membership")),
        "polynomial_engine.lift_membership.repeat_ratio":
            _ratio(obs.lift_repeats, n("polynomial_engine.lift_membership")),
        "polynomial_engine.groebner_basis.repeat_ratio":
            _ratio(obs.gb_repeats, n("polynomial_engine.groebner_basis")),
        "polynomial_engine.normal_form.unchanged_ratio":
            _ratio(obs.nf_unchanged, n("polynomial_engine.normal_form")),
        "polynomial_engine.rref.cells": obs.rref_cells,
        "graded_algebra.construct.terms": obs.construct_terms,
        "antibracket.bracket.terms_out": obs.bracket_terms,
        "tate.cycles_found": cycles,
        "tate.cycle_accept_ratio": _ratio(obs.adjoined, cycles),
        "cli.example.busy_s": tracer.busy_s,
        "cli.pool_speedup": _ratio(tracer.busy_s, run_wall),
        "trace.unattributed_s": unattributed,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in table.items() if k.startswith(layer + "."))
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name not in values:
            entry, _, field = name.rpartition(".")
            values[name] = n(entry) if field == "calls" else s(entry)
        out[name] = {"value": values[name], "unit": unit}
    return out, table


def bindings(package) -> dict:
    """Every binding the tracer may replace: (where, name) -> object."""
    mods = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
    out = {}
    for mod in mods:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    cls = package.graded_algebra.GradedPolynomial
    for key, value in vars(cls).items():
        out[("GradedPolynomial", key)] = value
    for key, value in package.cli.EXAMPLES.items():
        out[("EXAMPLES", key)] = value
    return out


def changed_bindings(before: dict, after: dict) -> list:
    """Names whose bound object is not the one bound before."""
    return sorted(str(k) for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))
