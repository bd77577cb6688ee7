"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bvkit  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from probe import REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(*extra, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", "registry", "--seed", "3",
            "--seconds", "0", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_names_every_metric_the_command_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
    assert bench["paths"] == [HERE.name]


def test_metric_names_and_units_are_printed():
    out = _run()
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = {ln.split()[0]: ln.split()[2] for ln in lines[:-2]}
    for name, unit in run.END_TO_END.items():
        assert table[name] == unit
    assert table["example_s"] == "s" and table["fail_frac"] == "ratio"
    record = json.loads(lines[-2])
    for key in ("python", "nproc", "loadavg_start", "loadavg_end", "seed",
                "commit"):
        assert key in record


def _copy_checkout(dest, with_src):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest / HERE.name / "run.py"


def test_corrupted_fingerprint_fails_the_run(tmp_path):
    script = _copy_checkout(tmp_path, with_src=True)
    path = script.parent / "fingerprints.json"
    refs = json.loads(path.read_text())
    (entry,) = refs["registry"].values()
    entry["payload"] = "0" * 64
    path.write_text(json.dumps(refs))
    out = _run(cwd=tmp_path, script=script)
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "fingerprint payload" in out.stdout


def test_fails_without_result_when_the_package_is_missing(tmp_path):
    out = _run(cwd=tmp_path, script=_copy_checkout(tmp_path, with_src=False))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_inputs_follow_the_seed():
    assert wl.circle_inputs(0) == ["vars x y;\nS0 = (x^2+y^2-1)^2/4;\n"]
    assert wl.cubic_inputs(0)[0].startswith("vars w x y z;")
    for seed in range(6):
        assert wl.circle_inputs(seed) == wl.circle_inputs(seed)
        texts = wl.cubic_inputs(seed)
        assert texts == wl.cubic_inputs(seed)
        coords = [t.split(";")[0].split()[1:] for t in texts]
        assert sorted(c.index("w") for c in coords) == [0, 1, 2, 3]
    assert len({wl.circle_inputs(s)[0] for s in range(1, 6)}) > 1


def _trace_small_problem():
    tracer = Tracer(bvkit)
    obs = layers.Observers()
    tracer.install(obs.hooks())
    try:
        t0 = time.perf_counter()
        res = bvkit.build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=2)
        bvkit.check_acyclic(res, 2)
        sol = bvkit.solve_master(res, 1)
        bvkit.verify_master(sol, 1)
        bvkit.h0(list(res.partials), 3)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    return tracer, obs, t0, t1


def test_tracer_restores_every_binding_and_accounts_for_wall_time():
    before = layers.bindings(bvkit)
    originals = (bvkit.build_resolution, bvkit.tate.lift_membership,
                 bvkit.GradedPolynomial.__init__, bvkit.cli.EXAMPLES["exa1"])
    tracer, obs, t0, t1 = _trace_small_problem()
    assert tracer.span_count() > 0
    assert layers.changed_bindings(before, layers.bindings(bvkit)) == []
    assert (bvkit.build_resolution, bvkit.tate.lift_membership,
            bvkit.GradedPolynomial.__init__,
            bvkit.cli.EXAMPLES["exa1"]) == originals
    assert not hasattr(bvkit.polynomial_engine.normal_form, "__wrapped__")

    self_s, durations, unattributed = tracer.self_times(t0, t1)
    assert sum(self_s) + unattributed == pytest.approx(t1 - t0, abs=1e-6)
    named, table = layers.metrics(tracer, obs, self_s, durations,
                                  unattributed, t1 - t0, t1 - t0)
    assert set(named) == set(layers.LAYER_METRICS)
    assert table["tate.build_resolution"]["calls"] == 1
    assert named["tate.cycles_found"]["value"] > 0
    assert named["graded_algebra.construct.calls"]["value"] > 0


def test_probe_rescales_each_stretch_by_the_local_speed():
    probe = SpeedProbe()
    probe.starts = [float(k) for k in range(20)]
    probe.walls = [0.1] * 20
    probe.cpus = [2 * REF_S] * 10 + [REF_S] * 10
    # half speed until t = 10, then reference speed; probe time removed
    assert probe.scaled(0.0, 4.0) == pytest.approx(4 * 0.9 / 2)
    assert probe.scaled(15.0, 19.0) == pytest.approx(4 * 0.9)
    assert probe.scaled(2.5, 3.5) == pytest.approx((0.5 + 0.4) / 2)
    probe.burst(3)
    assert len(probe.cpus) == 23 and all(c > 0 for c in probe.cpus[-3:])
