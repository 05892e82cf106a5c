"""The package names that ``bench/tracer.py`` wraps must exist.

The tracer behind ``bench/run.py --trace 1`` replaces the public functions
of each layer by name (its ``LAYERS`` table), so renaming or deleting one of
them in ``src/`` would break traced benchmark runs. The tracer is loaded
from its path, unedited.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrcat

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer().LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in LAYERS.items() for name in names]
)
def test_every_traced_name_exists(layer, name):
    module = importlib.import_module(f"kerrcat.{layer}")
    assert callable(getattr(module, name, None)), f"kerrcat.{layer}.{name}"


@pytest.mark.parametrize(
    "argv, span",
    [
        (["run", "--circuit", "tests/golden/lazy-joins.qcirc", "--epsilon", "1e-4"],
         "protocols.run_circuit"),
        (["run", "--protocol", "superposition", "--r", "0.2"], "protocols.run_circuit"),
        (["run", "--protocol", "entanglement", "--r", "0.3"], "protocols.run_circuit"),
    ],
)
def test_traced_run_records_spans(argv, span, tmp_path):
    report = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(Path(kerrcat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(TRACER_PATH), "--mode", "traced", "--report", str(report),
         "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    names = {s[0] for s in json.loads(report.read_text(encoding="utf-8"))["spans"]}
    assert {span, "dsl.validate_program", "cli.main"} <= names
    if "--protocol" in argv:
        # protocol sources are built through states.build_source, which must
        # still reach the traced factory; their cutoffs come from the search
        assert {"states.squeezed_vacuum", "states.suggest_cutoff"} <= names
