"""Tests of the benchmark itself, at tiny size.

    python -m pytest perfbench

They check the output schema against BENCHMARK.json, determinism of the
recorded output digests, that the tracer rebinds aliases and restores them,
that a broken builder makes the audit checks fire, that only a signature
rounding step is forgiven, and that the benchmark fails without the
program's sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny(workload, seed=3, trace=0):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_schema_and_metric_names(workload, trace):
    lines = tiny(workload, trace=trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for name, m in result["metrics"].items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(m["unit"]) for line in lines)


def test_per_layer_units_match_spec():
    assert tracing.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ["train", "predict"])
def test_same_seed_same_digest(workload):
    def digest(seed):
        return next(line for line in tiny(workload, seed=seed) if line.startswith("digest: "))

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_tracer_rebinds_aliases_and_restores_them():
    from matformer import audit, engine, graphs, training

    originals = (graphs.build_radius_graph, engine.ACTIVATIONS["silu"], training.batch_prepared)
    with tracing.Tracer() as tracer:
        assert audit.build_radius_graph is graphs.build_radius_graph
        assert audit.build_radius_graph.__wrapped__ is originals[0]
        assert engine.ACTIVATIONS["silu"].__wrapped__ is originals[1]
        assert training.batch_prepared.__wrapped__ is originals[2]
    assert (audit.build_radius_graph, engine.ACTIVATIONS["silu"], training.batch_prepared) == originals
    assert tracer.missed_probes("predict")  # nothing ran while it was installed


def test_broken_builder_fires_invariance_check(monkeypatch, tmp_path):
    from matformer import audit

    original = audit.build_radius_graph

    def in_cell_edges_only(crystal, neighbor_rank=12):
        # which images lie inside the cell depends on where its boundaries sit
        graph = original(crystal, neighbor_rank=neighbor_rank)
        return dataclasses.replace(graph, edges=tuple(e for e in graph.edges if e.image.k == (0, 0, 0)))

    monkeypatch.setattr(audit, "build_radius_graph", in_cell_edges_only)
    workload = workloads.AuditWorkload(tiny=True)
    state = workload.setup(0, str(tmp_path))
    rounds = [workload.run_round(state)]
    checks = {c.name: c.ok for c in workload.check(state, rounds)}
    assert rounds[0].failed > 0
    assert checks["audit.radius-periodic.invariant"] is False
    assert checks["audit.tfc-shift.invariant"] is True


def test_only_one_rounding_step_is_forgiven():
    from matformer.audit import AuditReport

    def failures(violations, worst):
        witness = {"discrepancy": worst} if violations else None
        return workloads.audit_failures(AuditReport("tfc", 64, violations, worst, witness))

    assert failures(0, 0.0) == 0
    assert failures(1, 1.00000008e-09) == 0
    assert failures(2, 2.0e-09) == 2
    assert failures(3, sys.float_info.max) == 3


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "audit", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
