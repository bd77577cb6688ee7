"""bvkit benchmark: checked workloads, end-to-end times and a traced per-layer split.

    python3 perfbench/run.py --workload circle-tower --seed 0 --seconds 20 --trace 0

With --trace 0 the workload runs untraced in rounds until --seconds have
passed (at least one round) and the end-to-end metrics are reported.
With --trace 1 an untraced, a traced and an untraced pass of the same
input run, the per-layer metrics of the traced pass are reported, and
every span is written to perfbench/out/spans-WORKLOAD-seedN.jsonl.gz.
Every result is checked; any failure makes the exit code 1.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it holds the run record: metadata (Python, nproc, load
average, seed, git commit), every command time with its sample count,
recorded facts and fingerprints.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 11
SETUP_PROBES = 5        # probe runs before and after each set-up process

# end-to-end metrics of every workload, at reference speed: name -> unit
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-command times reported in the run record: name -> command timed
COMMANDS = {"resolve_s": "resolve", "solve_s": "solve", "page_s": "page",
            "presentation_s": "presentation", "h0_s": "h0", "h1_s": "h1",
            "example_s": "example"}

_SETUP_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import bvkit
specs = [bvkit.parse_problem(t) for t in json.loads(sys.argv[2])]
sys.stdout.write("ready\n")
sys.stdout.flush()
"""


def load_bvkit():
    """Import bvkit from this checkout's src/, or exit with an error."""
    if not (SRC / "bvkit" / "__init__.py").is_file():
        sys.exit(f"error: no bvkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bvkit
    if Path(bvkit.__file__).resolve().parent != (SRC / "bvkit").resolve():
        sys.exit(f"error: imported bvkit from {bvkit.__file__}, not {SRC}")
    return bvkit


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup_times(texts, probe) -> tuple:
    """Interpreter start to parsed inputs in fresh processes: (wall, scaled) lists."""
    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        probe.burst(SETUP_PROBES)
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(texts)],
                stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            dt = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up process failed")
        probe.burst(SETUP_PROBES)
        walls.append(dt)
        scaled.append(probe.scale_recent(dt, 2 * SETUP_PROBES))
    return walls, scaled


def timing(scaled, walls) -> dict:
    """Medians at reference speed ("value") and as measured ("wall")."""
    return {"value": statistics.median(scaled), "wall": statistics.median(walls),
            "n": len(scaled), "unit": "s"}


def run_untraced(bvkit, args, texts, refs) -> tuple:
    """Rounds of passes until args.seconds have passed; returns (passes, record)."""
    passes = []
    probe = SpeedProbe()
    probe.burst(SETUP_PROBES)
    t0 = time.perf_counter()
    probe.start()
    try:
        while True:
            for text in texts:
                gc.collect()
                passes.append(wl.run_pass(bvkit, args.workload, text,
                                          refs.get(wl.text_key(text))))
            if time.perf_counter() - t0 >= args.seconds or any(p.failed for p in passes):
                break
    finally:
        probe.stop()
    setup_walls, setup = setup_times([] if args.workload == "registry" else texts,
                                     probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_scaled = [probe.scaled(p.start, p.end) for p in passes]
    pass_walls = [p.end - p.start for p in passes]
    timings = {
        "pass_s": timing(pass_scaled, pass_walls),
        "setup_s": timing(setup, setup_walls),
    }
    for name, command in COMMANDS.items():
        spans = [[(a, b) for c, a, b in p.windows if c == command] for p in passes]
        if any(spans):
            timings[name] = timing(
                [sum(probe.scaled(a, b) for a, b in w) for w in spans],
                [sum(b - a for a, b in w) for w in spans])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timings["peak_rss_mb"] = {"value": rss_mb, "n": 1, "unit": "MB"}
    timings["fail_frac"] = {"value": failed / attempted, "n": attempted,
                            "unit": "ratio"}
    metrics = {name: {"value": timings[name]["value"], "unit": unit}
               for name, unit in END_TO_END.items()}
    record = {"timings": timings, "metrics": metrics,
              "each_pass": {"scaled_s": pass_scaled, "wall_s": pass_walls},
              "probe": {"samples": len(probe.cpus),
                        "median_s": statistics.median(probe.cpus)}}
    return passes, record


def run_traced(bvkit, args, texts, refs) -> tuple:
    """An untraced, a traced and an untraced pass of the first input."""
    text = texts[0]
    key = refs.get(wl.text_key(text))
    gc.collect()
    plain = [wl.run_pass(bvkit, args.workload, text, key)]
    gc.collect()
    before = layers.bindings(bvkit)
    tracer = Tracer(bvkit)
    obs = layers.Observers()
    tracer.install(obs.hooks())
    try:
        t0 = time.perf_counter()
        traced = wl.run_pass(bvkit, args.workload, text, key, tracer)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    gc.collect()
    plain.append(wl.run_pass(bvkit, args.workload, text, key))
    untraced_wall = statistics.fmean(p.end - p.start for p in plain)
    problems = []
    left = layers.changed_bindings(before, layers.bindings(bvkit))
    if left:
        problems.append(f"bindings not restored after tracing: {left}")
    self_s, durations, unattributed = tracer.self_times(t0, t1)
    if abs(sum(self_s) + unattributed - (t1 - t0)) > 1e-6 * (t1 - t0):
        problems.append("self times and unattributed time miss the traced wall")
    traced.failed += len(problems)
    traced.failures += problems
    named, table = layers.metrics(tracer, obs, self_s, durations,
                                  unattributed, t1 - t0, untraced_wall)
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans, self_s)
    record = {"traced_wall_s": t1 - t0, "untraced_wall_s": untraced_wall,
              "spans_file": str(spans),
              "spans": tracer.span_count(), "bindings_restored": not left,
              "layer_metrics": named, "entry_points": table,
              "metrics": {k: named[k] for k in layers.PER_LAYER}}
    return plain + [traced], record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bvkit = load_bvkit()
    load_start = os.getloadavg()
    refs = json.loads((HERE / "fingerprints.json").read_text()).get(args.workload, {})
    texts = wl.WORKLOADS[args.workload][0](args.seed)
    run = run_traced if args.trace else run_untraced
    passes, record = run(bvkit, args, texts, refs)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "commit": git_commit(), "passes": len(passes),
        "failures": [f for p in passes for f in p.failures],
        "facts": {wl.text_key(p.text): p.facts for p in passes},
        "fingerprints": {wl.text_key(p.text): p.fingerprints for p in passes},
        **record,
    }
    metrics = record.pop("metrics")
    for name, m in sorted(record.get("timings", {}).items()):
        wall = f"  wall {m['wall']:.6f}" if "wall" in m else ""
        print(f"{name:16s} {m['value']:12.6f} {m['unit']:6s} (n={m['n']}){wall}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
