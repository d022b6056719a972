"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines), name
    if trace == "1":
        for layer in WORKLOADS[workload].layers:
            assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer


@pytest.fixture(scope="module")
def qx():
    return run.import_qx()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_is_a_failure_not_a_crash(qx, workload):
    import random

    w = WORKLOADS[workload]
    good = run.run_op(qx.cli.main, w.argv(random.Random(0), "tiny"))
    run.check_op(w, good)
    assert good.problems == []
    negated = good.out.replace(",", ",-").replace(": ", ": -")
    for text in (negated, good.out[len(good.out) // 2:], ""):
        bad = run.Op(argv=good.argv, traced=False, rc=0, out=text)
        run.check_op(w, bad)
        assert bad.problems, text[:300]


def test_failing_operation_is_counted(qx):
    op = run.run_op(qx.cli.main, ["kl", "--code", "vbs:2:0", "--errors", "bond"])
    assert op.problems


def test_tracer_wraps_every_binding(qx):
    from qx import cli, qec_core, quantum_ops, quasi_universality, su_algebra, vbs_code

    originals = (quantum_ops.trace_distance, su_algebra.gell_mann_basis, vbs_code.eta)
    copies = [(m, "trace_distance") for m in (quantum_ops, qec_core, vbs_code, cli)]
    copies += [(quasi_universality, "gell_mann_basis"), (quasi_universality, "eta")]
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in copies:
            assert getattr(module, attr) not in originals, (module.__name__, attr)
        tracer.run_op(0, cli.main, ["simulate", "--d", "2", "--n", "3", "--length", "10"])
    finally:
        tracer.uninstall()
    assert quantum_ops.trace_distance is qec_core.trace_distance is cli.trace_distance
    assert quasi_universality.eta is vbs_code.eta
    assert tracer.layer_totals()["vbs_code.eta"]["calls"] == 1


def test_tail_falls_back_to_the_median():
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0
    value, note = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and note.startswith("p67")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
