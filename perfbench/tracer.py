"""Span tracer that wraps bvkit's public entry points from outside the package.

Every public function of a bvkit module is wrapped once, in the module
that defines it, and the wrapper is rebound under every name in every
bvkit module (and the package namespace) that holds the original
function.  `GradedPolynomial.__init__` is traced as
`graded_algebra.construct`, `__add__`/`__radd__`/`__sub__` as
`graded_algebra.add`, and the three graded derivatives as
`graded_algebra.derivative`.  Each example check of the registry is
traced as `cli.example`.  `BasePolynomial` arithmetic is not wrapped:
its time belongs to whichever layer called it.

A span records its name, start, end, parent span and operation id.
Span stacks are kept per thread; a span opened on a thread with an
empty stack takes the innermost open span of the tracing thread as its
parent.  Spans live in compact in-memory arrays and are written out by
`write_spans` once the traced pass is over.

Self time is attributed by a sweep over all span boundaries: at each
instant the innermost open span of every thread is active, a span that
is only waiting for its children on other threads is skipped while any
other span is active, and the instant is split equally among the
active spans.  On one thread this is the usual "duration minus
children".  Self times plus `unattributed_s` (time inside the traced
window with no span open) equal the traced wall time by construction.
"""

from __future__ import annotations

import gzip
import heapq
import inspect
import json
import sys
import threading
import time
from array import array

LAYERS = ("polynomial_engine", "graded_algebra", "antibracket", "tate",
          "bv_solver", "brst", "cli")

# graded entry points traced under a shared name
_GRADED_METHODS = {"__init__": "construct", "__add__": "add", "__radd__": "add",
                   "__sub__": "add"}
_GRADED_RENAMES = {"left_derivative": "derivative",
                   "right_derivative": "derivative",
                   "coordinate_derivative": "derivative"}


class _Thread:
    """Span stack and time-ordered event log of one thread."""

    __slots__ = ("index", "stack", "times", "events")

    def __init__(self, index):
        self.index = index
        self.stack = []
        self.times = array("d")
        self.events = array("q")    # span id at its start, ~span id at its end


class Tracer:
    """Installs wrappers on bvkit, records spans, and restores the bindings."""

    def __init__(self, package):
        self.package = package
        self.modules = [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        self.names = []            # span name per code
        self._codes = {}
        self.span_code = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_thread = array("i")
        self.threads = {}          # thread ident -> _Thread
        self.op = 0
        self.busy_s = 0.0          # thread CPU time inside example checks
        self._lock = threading.Lock()
        self._restore = []
        self._main = None
        self.installed = False

    # -- recording -------------------------------------------------------

    def _code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _thread(self):
        ident = threading.get_ident()
        th = self.threads.get(ident)
        if th is None:
            with self._lock:
                th = self.threads[ident] = _Thread(len(self.threads))
        return th

    def _wrap(self, name, fn, observe=None, cpu=False):
        code = self._code(name)
        tracer = self

        def traced(*args, **kwargs):
            th = tracer._thread()
            with tracer._lock:
                sid = len(tracer.span_code)
                if th.stack:
                    parent = th.stack[-1]
                elif th is not tracer._main and tracer._main.stack:
                    parent = tracer._main.stack[-1]
                else:
                    parent = -1
                tracer.span_code.append(code)
                tracer.span_parent.append(parent)
                tracer.span_op.append(tracer.op)
                tracer.span_thread.append(th.index)
            th.stack.append(sid)
            c0 = time.thread_time() if cpu else 0.0
            th.events.append(sid)
            th.times.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                th.times.append(time.perf_counter())
                th.events.append(~sid)
                th.stack.pop()
                if cpu:
                    with tracer._lock:
                        tracer.busy_s += time.thread_time() - c0
            if observe is not None:
                observe(sid, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        spaces = [self.package] + self.modules
        for mod in spaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, observers=None):
        """Wrap every public entry point; `observers` maps span names to hooks.

        A hook is called as hook(span_id, args, kwargs, result) after the
        span closes; its own time falls to the enclosing span.
        """
        if self.installed:
            raise RuntimeError("tracer already installed")
        observers = observers or {}
        self._main = self._thread()
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for key, fn in sorted(vars(mod).items()):
                if key.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "graded_algebra":
                    key = _GRADED_RENAMES.get(key, key)
                name = f"{layer}.{key}"
                self._rebind_everywhere(
                    fn, self._wrap(name, fn, observers.get(name)))
        graded = sys.modules[f"{self.package.__name__}.graded_algebra"]
        cls = graded.GradedPolynomial
        wrapped = {}
        for attr, short in _GRADED_METHODS.items():
            fn = cls.__dict__[attr]
            if fn not in wrapped:
                name = f"graded_algebra.{short}"
                wrapped[fn] = self._wrap(name, fn, observers.get(name))
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, wrapped[fn])
        cli = sys.modules[f"{self.package.__name__}.cli"]
        for key, entry in list(cli.EXAMPLES.items()):
            self._restore.append((cli.EXAMPLES, key, entry))
            title, check = entry
            cli.EXAMPLES[key] = (title, self._wrap("cli.example", check, cpu=True))
        self.installed = True

    def uninstall(self):
        """Put back every original binding, in reverse order of installation."""
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()
        self.installed = False

    # -- analysis --------------------------------------------------------

    def self_times(self, t0, t1):
        """(self seconds, duration per span id, unattributed seconds) in [t0, t1]."""
        nspans = len(self.span_code)
        self_s = [0.0] * nspans
        duration = [0.0] * nspans
        waiting = [0] * nspans     # open children on other threads
        stacks = {}
        unattributed = 0.0
        prev = t0
        events = heapq.merge(*(zip(th.times, th.events)
                               for th in self.threads.values()))
        for t, ev in events:
            dt = t - prev
            if dt > 0:
                active = [st[-1] for st in stacks.values() if st]
                ready = [s for s in active if not waiting[s]] or active
                if ready:
                    share = dt / len(ready)
                    for s in ready:
                        self_s[s] += share
                else:
                    unattributed += dt
            prev = t
            sid = ev if ev >= 0 else ~ev
            tid = self.span_thread[sid]
            st = stacks.setdefault(tid, [])
            parent = self.span_parent[sid]
            cross = parent >= 0 and self.span_thread[parent] != tid
            if ev >= 0:
                st.append(sid)
                duration[sid] = -t
                if cross:
                    waiting[parent] += 1
            else:
                st.pop()
                duration[sid] += t
                if cross:
                    waiting[parent] -= 1
        unattributed += max(0.0, t1 - prev)
        return self_s, duration, unattributed

    def span_count(self):
        return len(self.span_code)

    def write_spans(self, path, self_s):
        """Write every span as one JSON line to a gzip file."""
        n = len(self.span_code)
        starts, ends = array("d", bytes(8 * n)), array("d", bytes(8 * n))
        for th in self.threads.values():
            for t, ev in zip(th.times, th.events):
                if ev >= 0:
                    starts[ev] = t
                else:
                    ends[~ev] = t
        with gzip.open(path, "wt") as fh:
            for sid in range(len(self.span_code)):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[self.span_code[sid]],
                    "start": starts[sid], "end": ends[sid],
                    "parent": self.span_parent[sid], "op": self.span_op[sid],
                    "thread": self.span_thread[sid], "self_s": self_s[sid],
                }) + "\n")
