"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

Smoke-runs every workload at tiny size, checks that the tracer leaves the
program's output byte-identical, and shows that the correctness gate
rejects corrupted reports.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import gate
import run
import workloads
from workloads import DEFAULT_SEED, WORKLOADS


@pytest.fixture
def workdir():
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as path:
        yield Path(path)


def _output(work, workdir) -> str:
    sample = run.run_cli(work, workdir / "out")
    assert sample.returncode == 0
    return sample.output_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_end_to_end(name, workdir):
    work = workloads.make(name, 5, workdir, tiny=True)
    result = run.measure_end_to_end(work, 0.0, workdir)
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (work.points, 0)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_output_is_byte_identical(name, workdir):
    work = workloads.make(name, 5, workdir, tiny=True)
    outputs = {}
    for mode in ("plain", "traced"):
        out = workdir / f"out-{mode}"
        argv = [sys.executable, str(run.TRACER), "--mode", mode, "--report",
                str(workdir / f"report-{mode}.json"), "--", *run.cli_argv(work, out)]
        assert run.spawn(argv).returncode == 0
        outputs[mode] = out.read_bytes()
    outputs["cli"] = _output(work, workdir).encode("utf-8")
    assert outputs["plain"] == outputs["traced"] == outputs["cli"]

    result = run.measure_layers(work, 0.0, workdir)
    assert result["failed"] == 0 and result["counts_repeat"]
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_times_scale_by_the_neighbouring_reference_runs():
    nominal = run.REF_NOMINAL_S
    # refs 0.2/0.4 bracket the first time, 0.4/0.4 the second: mean 0.3, then 0.4
    scaled = run.at_reference_speed([0.6, 1.2], [0.2, 0.4, 0.4])
    assert scaled == pytest.approx([0.6 * nominal / 0.3, 1.2 * nominal / 0.4])
    assert run.reference_sample().returncode == 0


def test_circuit_layer_counts(workdir):
    work = workloads.make("circuit-3mode", DEFAULT_SEED, workdir)
    result = run.measure_layers(work, 0.0, workdir)
    metrics = result["metrics"]
    assert metrics["protocols.outcomes_tried"] == 41 * 41
    assert metrics["protocols.branches_kept"] == 953
    assert metrics["fock.project.calls"] == 2 * 41 * 41
    assert metrics["elements.bs_apply.calls"] == 2


def test_gate_rejects_swapped_sweep_probability(workdir):
    work = workloads.make("sup-sweep", 5, workdir, tiny=True)
    lines = _output(work, workdir).splitlines()
    assert gate.check(work, "\n".join(lines)).failed == 0
    rec = json.loads(lines[1])
    db, dc = rec["branches"]["Db_fires"], rec["branches"]["Dc_fires"]
    db["probability"], dc["probability"] = dc["probability"], db["probability"]
    lines[1] = json.dumps(rec)
    verdict = gate.check(work, "\n".join(lines))
    assert verdict.failed == 1 and "point 1" in verdict.problems[0]


def test_gate_rejects_swapped_csv_probability(workdir):
    work = workloads.make("ent-sweep", 5, workdir, tiny=True)
    rows = list(csv.reader(io.StringIO(_output(work, workdir))))
    col = gate.CSV_COLUMNS.index("probability")
    rows[3][col], rows[4][col] = rows[4][col], rows[3][col]
    text = "".join(",".join(row) + "\n" for row in rows)
    assert gate.check(work, text).failed == 1


def test_gate_rejects_swapped_circuit_probability(workdir):
    work = workloads.make("circuit-3mode", 5, workdir, tiny=True)
    doc = json.loads(_output(work, workdir))
    assert gate.check(work, json.dumps(doc)).failed == 0
    a, b = doc["branches"]["a=0 b=0"], doc["branches"]["a=1 b=0"]
    a["probability"], b["probability"] = b["probability"], a["probability"]
    a["pre_norm"], b["pre_norm"] = b["pre_norm"], a["pre_norm"]
    verdict = gate.check(work, json.dumps(doc))
    assert verdict.failed == 1 and "photon law" in verdict.problems[0]


def test_reference_catches_what_physics_checks_allow(workdir):
    work = workloads.make("ent-large", DEFAULT_SEED, workdir)
    doc = json.loads(_output(work, workdir))
    assert gate.check(work, json.dumps(doc)).failed == 0
    # The overlap with the wrong pair is not an invariant, only a recorded value.
    doc["branches"]["Db_fires"]["analysis"]["fidelity_targets"]["pair_plus"] = 1e-6
    verdict = gate.check(work, json.dumps(doc))
    assert verdict.failed == 1 and verdict.problems[0].startswith("reference")


def test_default_seed_uses_the_committed_circuit(workdir):
    work = workloads.make("circuit-3mode", DEFAULT_SEED, workdir)
    assert work.argv[2] == "bench/circuit-3mode.qcirc"
    assert workloads.circuit_text(DEFAULT_SEED, False) == workloads.CIRCUIT_TEMPLATE.read_text()


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_keep_workload_size(name, workdir):
    base = workloads.make(name, DEFAULT_SEED, workdir)
    for seed in range(1, 6):
        other = workloads.make(name, seed, workdir)
        assert other.points == base.points
        assert other.argv != base.argv
    if name == "circuit-3mode":
        text = workloads.circuit_text(3, False)
        assert text.count(f"cutoff {workloads.CIRCUIT_CUTOFF}") == 3
