"""CLI tests: rendered reports against the report schema, exit codes, and
the embedded ``kerrcat check`` suite."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import kerrcat
from kerrcat import cli
from kerrcat.checks import CHECK_NAMES, run_self_checks

PACKAGE_DIR = Path(kerrcat.__file__).resolve().parent
SCHEMA = json.loads((PACKAGE_DIR / "report.schema.json").read_text(encoding="utf-8"))

CIRCUIT = (
    "mode a cutoff 16\nmode b cutoff 1\nmode c cutoff 1\n"
    "source a squeezed r=0.3 phi=0\nsource b fock n=1\n"
    "bs b c\nkerr a b tau=pi/2\nbs b c\n"
    "detect b n=1\ndetect c n=0\n"
)


def validate(record: dict) -> None:
    jsonschema.validate(record, SCHEMA)


def check_branches(branches: dict, protocol: str) -> None:
    assert set(branches) == {"Db_fires", "Dc_fires"}
    assert abs(sum(b["probability"] for b in branches.values()) - 1.0) < 1e-9
    for branch in branches.values():
        analysis = branch["analysis"]
        if protocol == "entanglement":
            assert set(analysis["distributions"]) == {"a", "a2"}
            assert analysis["schmidt_entropy"] >= 0.0
        else:
            assert set(analysis["distributions"]) == {"a"}
            assert analysis["schmidt_entropy"] is None


def run_kerrcat(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run(
        [sys.executable, "-m", "kerrcat", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
class TestProtocolReports:
    def test_run(self, protocol):
        report = json.loads(cli.render_output(["run", "--protocol", protocol, "--r", "0.3"]))
        validate(report)
        assert report["kind"] == "run"
        assert report["config"]["input"] == {"protocol": protocol}
        check_branches(report["branches"], protocol)

    def test_run_with_trace(self, protocol):
        report = json.loads(
            cli.render_output(["run", "--protocol", protocol, "--r", "0.2", "--trace"])
        )
        validate(report)
        assert report["trace"][0]["stage"] == "single_photon_input"

    def test_sweep_json_lines_and_csv_agree(self, protocol):
        argv = ["sweep", "--protocol", protocol, "--sweep", "r:0.1:0.3:3"]
        lines = cli.render_output(argv).splitlines()
        records = [json.loads(line) for line in lines]
        assert [rec["point"] for rec in records] == [0, 1, 2]
        for rec in records:
            validate(rec)
            assert rec["kind"] == "sweep-point" and rec["error"] is None
            check_branches(rec["branches"], protocol)

        rows = list(csv.DictReader(io.StringIO(cli.render_output(argv + ["--format", "csv"]))))
        assert len(rows) == 2 * len(records)
        for row in rows:
            branch = records[int(row["point"])]["branches"][row["branch"]]
            assert float(row["probability"]) == branch["probability"]
            entropy = branch["analysis"]["schmidt_entropy"]
            assert row["schmidt_entropy"] == ("" if entropy is None else repr(entropy))
            assert row["error"] == ""


def test_circuit_run(tmp_path):
    path = tmp_path / "cat.qcirc"
    path.write_text(CIRCUIT, encoding="utf-8")
    report = json.loads(cli.render_output(["run", "--circuit", str(path), "--trace"]))
    validate(report)
    assert report["config"]["cutoffs"] == {"a": 16, "b": 1, "c": 1}
    assert "b=1 c=0" in report["branches"]
    assert report["trace"][0]["stage"] == "input"


@pytest.mark.parametrize("alpha_re", ["1e200", "1000", "30"])
def test_unreachable_coherent_cutoff_is_a_numerical_error(alpha_re):
    # 1e200 overflows |alpha|^2; 1000 and 30 underflow e^{-|alpha|^2}
    done = run_kerrcat("run", "--protocol", "superposition", "--source", "coherent",
                       "--alpha-re", alpha_re)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "numerical error" in done.stderr


def test_sweep_records_unreachable_cutoff_per_point():
    done = run_kerrcat("sweep", "--protocol", "superposition", "--source", "coherent",
                       "--sweep", "alpha_re:1:1e200:2")
    assert done.returncode == 0, done.stderr
    first, second = (json.loads(line) for line in done.stdout.splitlines())
    assert first["error"] is None and first["branches"]
    assert second["branches"] == {}
    assert second["error"].startswith("CutoffError: ")
    assert math.isclose(second["params"]["alpha_re"], 1e200)
    for rec in (first, second):
        validate(rec)


def test_usage_and_circuit_errors_exit_1(tmp_path):
    assert cli.main(["run"]) == 1
    assert cli.main(["run", "--protocol", "superposition", "--epsilon", "nan"]) == 1
    bad = tmp_path / "bad.qcirc"
    bad.write_text("mode a cutoff 3\nbs a zz\n", encoding="utf-8")
    assert cli.main(["run", "--circuit", str(bad)]) == 1


def test_self_checks_pass():
    results = run_self_checks()
    assert tuple(r.name for r in results) == CHECK_NAMES
    failed = {r.name: r.detail for r in results if not r.passed}
    assert not failed
