"""The three workloads: problem texts drawn from a seed, and one checked pass each.

A pass starts from problem text and reuses nothing from an earlier
pass.  Every call into bvkit is one operation: it is timed, counted,
and checked as soon as it returns.  An operation fails if it raises or
if a check on its result fails; a failed pass stops at that operation.

Checks that hold for every seed are asserted on every pass.  Results
that depend on the coordinate order (resolutions, solutions, bases,
the size of the symmetry presentation, cubic h1) are only compared,
by sha256 of their canonical JSON, against the references stored for
the seed-0 problem texts in `fingerprints.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

CIRCLE_DEPTH = 7        # resolution depth; solve cost grows fast with it
CIRCLE_PMAX = 6         # master-equation order, needs depth >= PMAX + 1
CIRCLE_BOUND = 6        # degree bound of h0, h1 and the E2 columns
CUBIC_H0_BOUNDS = (11, 12, 13, 14)
CUBIC_H0_DIMS = (31, 34, 37, 40)
CUBIC_H1_BOUND = 2
REGISTRY_ARGV = ("example", "*", "--check", "--json")


def canonical_sha(obj) -> str:
    """sha256 of the canonical JSON of obj (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def text_key(text: str) -> str:
    """The name of a problem text in fingerprints.json."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class OperationFailed(Exception):
    """Raised inside a pass after an operation raised or failed a check."""


class Pass:
    """Times, counts and checks the operations of one pass."""

    def __init__(self, bvkit, text, refs, tracer=None):
        self.bv = bvkit
        self.text = text
        self.refs = refs            # {result name: sha256} or None
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.windows = []           # (command, start, end) per operation
        self.fingerprints = {}      # result name -> sha256
        self.facts = {}             # recorded, never asserted
        self.start = self.end = 0.0

    def op(self, command, fn, *args, **kwargs):
        """Run one operation and record its time window under `command`."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as e:       # a raising operation is a failed one
            self._fail(f"{command}: {fn.__name__} raised {e!r}")
        finally:
            self.windows.append((command, t0, time.perf_counter()))

    def check(self, what, ok):
        """Fail the operation that just returned unless ok."""
        if not ok:
            self._fail(f"check failed: {what}")

    def fingerprint(self, name, obj):
        """Record the sha of obj; compare it when this text has references."""
        sha = canonical_sha(obj)
        self.fingerprints[name] = sha
        if self.refs is not None:
            self.check(f"fingerprint {name} matches its reference",
                       self.refs.get(name) == sha)

    def _fail(self, msg):
        self.failed += 1
        self.failures.append(msg)
        raise OperationFailed(msg)


# -- circle-tower ------------------------------------------------------


def circle_inputs(seed: int) -> list:
    """One problem text: the circle quartic with radius^2 r > 0.

    Seed 0 is the textbook problem (x, y; r = 1).  Other seeds draw the
    coordinate order and a rational r with one-digit numerator and
    denominator.
    """
    if seed == 0:
        coords, r = ("x", "y"), Fraction(1)
    else:
        rng = random.Random(seed)
        coords = tuple(rng.sample(("x", "y"), 2))
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return [f"vars {' '.join(coords)};\nS0 = (x^2+y^2-{r})^2/4;\n"]


def circle_pass(p: Pass) -> None:
    bv = p.bv
    spec = p.op("parse", bv.parse_problem, p.text)
    res = p.op("resolve", bv.build_resolution, spec.coordinates, s0=spec.s0,
               depth=CIRCLE_DEPTH)
    p.facts["generator_counts"] = {str(d): n for d, n in sorted(
        res.counts().items(), reverse=True)}
    p.fingerprint("resolution", json.loads(res.to_json()))
    acyclic = p.op("resolve", bv.check_acyclic, res, CIRCLE_DEPTH)
    p.check(f"acyclic through degree -{CIRCLE_DEPTH}", acyclic.ok)

    sol = p.op("solve", bv.solve_master, res, CIRCLE_PMAX)
    p.fingerprint("solution", json.loads(sol.to_json()))
    verdict = p.op("solve", bv.verify_master, sol, CIRCLE_PMAX)
    p.check(f"solution verifies to order {CIRCLE_PMAX}", verdict.ok)

    parts = list(res.partials)
    a0 = p.op("h0", bv.h0, parts, CIRCLE_BOUND)
    p.fingerprint("h0", a0.to_json_obj())
    p.check(f"h0 at bound {CIRCLE_BOUND} has dimension 2", a0.dim == 2)
    a1 = p.op("h1", bv.h1, parts, CIRCLE_BOUND)
    p.fingerprint("h1", a1.to_json_obj())
    p.check(f"h1 at bound {CIRCLE_BOUND} has dimension 1", a1.dim == 1)

    for col, ref in ((0, a0), (1, a1)):
        e = p.op("page", bv.e2_page, sol, col, CIRCLE_BOUND)
        p.fingerprint(f"e2_{col}", e.to_json_obj())
        p.check(f"E2 column {col} agrees with h{col}", e.dim == ref.dim)


# -- cubic-cohomology --------------------------------------------------


CUBIC_S0 = "x^3+y^3+z^3-3*w*x*y*z"


def cubic_inputs(seed: int) -> list:
    """Four problem texts, one per position of w in the coordinate order.

    The action is symmetric in x, y, z, so the cost of a pass depends on
    where w sits.  One round covers each position once, in an order the
    seed draws, with x, y, z shuffled by the seed.  Seed 0 starts with
    the textbook order w x y z.
    """
    rng = random.Random(seed)
    positions = [0, 1, 2, 3]
    rng.shuffle(positions)
    orders = []
    for pos in positions:
        rest = rng.sample(("x", "y", "z"), 3)
        orders.append(rest[:pos] + ["w"] + rest[pos:])
    if seed == 0:
        i = positions.index(0)
        orders[i] = orders[0]
        orders[0] = ["w", "x", "y", "z"]
    return [f"vars {' '.join(o)};\nS0 = {CUBIC_S0};\n" for o in orders]


def cubic_pass(p: Pass) -> None:
    bv = p.bv
    spec = p.op("parse", bv.parse_problem, p.text)
    parts = spec.action_partials()
    pres = p.op("presentation", bv.symmetry_presentation, parts)
    p.facts["presentation_r"] = pres.r
    p.fingerprint("presentation", {
        "r": pres.r, "s": pres.s,
        "tau": [[bv.polynomial_engine.poly_to_str(c) for c in t]
                for t in pres.tau]})
    for bound, want in zip(CUBIC_H0_BOUNDS, CUBIC_H0_DIMS):
        rep = p.op("h0", bv.h0, parts, bound, presentation=pres)
        p.fingerprint(f"h0_{bound}", rep.to_json_obj())
        p.check(f"h0 at bound {bound} has dimension {want}", rep.dim == want)
    rep = p.op("h1", bv.h1, parts, CUBIC_H1_BOUND, presentation=pres)
    p.facts["h1_dim"] = rep.dim
    p.fingerprint(f"h1_{CUBIC_H1_BOUND}", rep.to_json_obj())


# -- registry ----------------------------------------------------------


def registry_inputs(seed: int) -> list:
    """The registry is fixed: every seed runs the same command."""
    return [" ".join(REGISTRY_ARGV)]


def registry_pass(p: Pass) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = p.op("example", p.bv.run_command, list(REGISTRY_ARGV))
    p.check("example '*' --check exits 0", rc == 0)
    payload = json.loads(out.getvalue())
    p.facts["examples"] = len(payload)
    p.fingerprint("payload", payload)
    bad = [c["name"] for e in payload for c in e["checks"] if not c["ok"]]
    p.check(f"every registry check is ok (failed: {bad})", not bad)


WORKLOADS = {
    "circle-tower": (circle_inputs, circle_pass),
    "cubic-cohomology": (cubic_inputs, cubic_pass),
    "registry": (registry_inputs, registry_pass),
}


def run_pass(bvkit, workload, text, refs, tracer=None) -> Pass:
    """Run one pass of `workload` on `text`; never raises for a failed check."""
    p = Pass(bvkit, text, refs, tracer)
    p.start = time.perf_counter()
    try:
        WORKLOADS[workload][1](p)
    except OperationFailed:
        pass
    p.end = time.perf_counter()
    return p
