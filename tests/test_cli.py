"""CLI tests: rendered reports against the report schema, exit codes, the
command-line grammar (a property over whole command lines), and the embedded
``kerrcat check`` suite."""

import contextlib
import csv
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrcat
from kerrcat import analysis, cli, dsl, protocols
from kerrcat.checks import CHECKS, CheckFailure, check_squeezed_cat_branches

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


def run_kerrcat(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run(
        [sys.executable, "-m", "kerrcat", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
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
        # stages are named by DSL lines; the photon mode joins first
        assert report["trace"][0]["stage"] == "source b fock n=1"
        assert report["trace"][0]["modes"] == ["b"]

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
    assert report["trace"][0]["stage"] == "source b fock n=1"
    assert report["trace"][0]["modes"] == ["b"]


@pytest.mark.parametrize("alpha_re", ["1e200", "1000", "30"])
def test_unreachable_coherent_cutoff_is_a_numerical_error(alpha_re):
    # 1e200 overflows |alpha|^2; 1000 and 30 underflow e^{-|alpha|^2}
    done = run_kerrcat("run", "--protocol", "superposition", "--source", "coherent",
                       "--alpha-re", alpha_re)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "numerical error" in done.stderr


def test_overflowing_coherent_source_in_circuit_file(tmp_path):
    path = tmp_path / "huge.qcirc"
    path.write_text("mode a cutoff 3\nsource a coherent re=1e200 im=0\n", encoding="utf-8")
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "numerical error" in done.stderr


@pytest.mark.parametrize("argv", [
    ["--r", "1.156", "--phi", "1.705", "--epsilon", "0.03229562628149708"],
    ["--source", "coherent", "--alpha-re", "2.7052044141492857", "--alpha-im",
     "-0.30913237221825085", "--epsilon", "0.0002634190152933647", "--tau",
     "0.15387946498917343", "--tau2", "0"],
])
def test_entanglement_run_within_budget_reports_its_targets(argv):
    # each budget sits one ulp above the source's leakage at its cutoff, and
    # a rotated source's tail, rounded apart, reaches it; the circuit runs,
    # and the rotated targets are not checked against the budget again
    done = run_kerrcat("run", "--protocol", "entanglement", *argv)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    validate(report)
    for branch in report["branches"].values():
        assert set(branch["analysis"]["fidelity_targets"]) == {"pair_plus", "pair_minus"}


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


@pytest.mark.parametrize("argv", [
    ("run", "--protocol", "superposition", "--r", "nan"),
    ("run", "--protocol", "superposition", "--r", "inf"),
    ("run", "--protocol", "superposition", "--r", "1e400"),
    ("run", "--protocol", "superposition", "--source", "coherent", "--alpha-re", "nan"),
    ("run", "--protocol", "superposition", "--source", "coherent", "--alpha-im", "inf"),
    ("run", "--protocol", "superposition", "--phi", "1e308*pi"),
    ("sweep", "--protocol", "superposition", "--sweep", "tau:0:1e308*pi:2"),
    # each end is finite, but the grid step overflows
    ("sweep", "--protocol", "superposition", "--sweep", "alpha_re:-1e308:1e308:3"),
])
def test_non_finite_numbers_are_usage_errors(argv):
    done = run_kerrcat(*argv)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert "kerrcat: error: argument" in done.stderr


HUGE_ANGLES = (
    "mode a cutoff 30\nmode b cutoff 1\nsource a coherent re=1 im=0.5\nsource b fock n=1\n"
    "phase a theta=1e308\nkerr a b tau=-1e308\ndetect b n=1\n"
)


@pytest.mark.parametrize("argv", [
    ("--protocol", "entanglement", "--r", "0", "--tau=1e308"),
    ("--protocol", "entanglement", "--r", "0", "--tau2=-1e308"),
    ("--protocol", "superposition", "--tau", "1e308"),
    ("--circuit", "huge-angles.qcirc"),
])
def test_huge_angles_run(argv, tmp_path):
    # the squeezed phase used to overflow to -inf in kerr_rotated, and the
    # phase tables of the Kerr and phase kernels to inf
    path = tmp_path / "huge-angles.qcirc"
    path.write_text(HUGE_ANGLES, encoding="utf-8")
    done = run_kerrcat("run", *(str(path) if arg == path.name else arg for arg in argv))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    validate(json.loads(done.stdout))


def test_circuit_file_that_is_not_utf8_is_a_diagnostic(tmp_path):
    path = tmp_path / "bad.qcirc"
    path.write_bytes(b"mode a cutoff 2\n\xff\n")
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{path}:2:1: error: input is not valid UTF-8" in done.stderr


def test_circuit_with_too_many_modes_is_a_diagnostic(tmp_path):
    # 64 modes would need 65 stack axes; 31 modes, 32 axes, are numpy 1.x's limit
    path = tmp_path / "wide.qcirc"
    path.write_text("".join(f"mode m{i} cutoff 0\n" for i in range(64)), encoding="utf-8")
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{path}:32:1: error: mode 'm31' is past the maximum of 31 modes" in done.stderr
    path.write_text(
        "mode m0 cutoff 4\nmode m1 cutoff 1\nmode m2 cutoff 1\n"
        + "".join(f"mode m{i} cutoff 0\n" for i in range(3, 31))
        + "source m0 squeezed r=0.2 phi=0\nsource m1 fock n=1\n"
        "bs m1 m2\nkerr m0 m1 tau=pi/2\nbs m1 m2\ndetect m1 n=1\ndetect m2 n=0\ndetect m30 n=0\n",
        encoding="utf-8",
    )
    done = run_kerrcat("run", "--circuit", str(path), "--epsilon", "1e-3")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    validate(report)
    assert list(report["branches"]) == ["m1=0 m2=1 m30=0", "m1=1 m2=0 m30=0"]
    assert abs(sum(b["probability"] for b in report["branches"].values()) - 1) < 1e-3


@pytest.mark.parametrize("given", ["protocol", "circuit", "r=8", "r=20", "r=40"])
def test_overflowing_squeeze_magnitude_is_a_numerical_error(given, tmp_path):
    # cosh(r) overflows above r of about 710, with or without a pinned
    # cutoff. From r of about 7.7 the cutoff's tail bound passes the state
    # cap, and from about 19 tanh(r)^2 rounds to 1; the cutoff search used to
    # run for minutes there, or for ever.
    message = "cosh(r) overflows"
    if given == "circuit":
        path = tmp_path / "huge.qcirc"
        path.write_text("mode a cutoff 3\nsource a squeezed r=800 phi=0\n", encoding="utf-8")
        argv = ("run", "--circuit", str(path))
    elif given == "protocol":
        argv = ("run", "--protocol", "superposition", "--r", "800")
    else:
        argv = ("run", "--protocol", "superposition", "--r", given.removeprefix("r="))
        message = "MAX_STATE_DIMENSION"
    done = run_kerrcat(*argv, timeout=20)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "numerical error" in done.stderr and message in done.stderr


def test_sweep_records_overflowing_squeeze_per_point():
    # r = 20: no cutoff under the state cap (the search used to hang)
    for stop, message in (("711", "cosh(r)"), ("20", "MAX_STATE_DIMENSION")):
        done = run_kerrcat("sweep", "--protocol", "entanglement", "--sweep", f"r:0.2:{stop}:2",
                           timeout=20)
        assert done.returncode == 0, done.stderr
        first, second = (json.loads(line) for line in done.stdout.splitlines())
        assert first["error"] is None and first["branches"]
        assert second["branches"] == {}
        assert second["error"].startswith("CutoffError: ") and message in second["error"]
        for rec in (first, second):
            validate(rec)
        # the failed point's CSV row: every cell in its column, the message quoted
        text = cli.render_output(["sweep", "--protocol", "entanglement", "--sweep",
                                  f"r:0.2:{stop}:2", "--format", "csv"])
        assert {len(row) for row in csv.reader(io.StringIO(text))} == {16}
        *_, failed = csv.DictReader(io.StringIO(text))
        assert failed["error"] == second["error"] and failed["schmidt_entropy"] == ""


def test_import_does_not_load_the_checks():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, kerrcat.cli; print('kerrcat.checks' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("workers", ["2", "65"])
@pytest.mark.parametrize("argv", [
    ["--protocol", "superposition", "--sweep", "r:0.1:0.3:3", "--sweep", "tau:0:pi:4"],
    ["--protocol", "entanglement", "--sweep", "r:0.1:0.6:12", "--sweep", "tau:0:pi:2",
     "--format", "csv"],
])
def test_a_sweep_runs_in_one_process_whatever_its_workers(argv, workers):
    # --workers is read and ignored: no value loads a process pool's modules,
    # and each writes the bytes of one worker
    pool = ("concurrent.futures.process", "multiprocessing")
    script = ("import sys\nfrom kerrcat import cli\ncode = cli.main(sys.argv[1:])\n"
              f"print([m for m in {pool!r} if m in sys.modules], file=sys.stderr)\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-c", script, "sweep", *argv, "--workers", workers],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[]", done.stderr
    assert done.stdout == cli.render_output(["sweep", *argv, "--workers", "1"])


def test_every_submodule_is_the_package_attribute_of_its_name():
    names = [m.name for m in pkgutil.iter_modules(kerrcat.__path__) if m.name != "__main__"]
    assert {"fock", "states", "cli"} <= set(names)
    for name in names:
        assert getattr(kerrcat, name) is importlib.import_module(f"kerrcat.{name}"), name


# the names kerrcat/__init__.py documents: the circuit language, the element
# types, the errors, the state types, the batch runner and the source factories
PACKAGE_SURFACE = {
    "CircuitProgram", "CircuitValidationError", "ParseResult", "format_program", "parse",
    "validate_program",
    "BalancedBeamSplitter", "CrossKerr", "Detect", "PhaseShift",
    "CutoffError", "FockSpaceError", "ModeLabelError", "StateMismatchError",
    "TruncationWarning", "ZeroStateError",
    "FockVector", "MultiModeState",
    "Branch", "EntanglementParams", "ProtocolResult", "SuperpositionParams",
    "entanglement_program", "run_batches", "run_circuit", "superposition_program",
    "CoherentParam", "FockParam", "SqueezeParam", "coherent", "squeezed_vacuum",
    "suggest_cutoff", "vacuum",
}
# single-state names that no CLI path calls, each in its own module alone
MODULE_NAMES = {
    "analysis": ("photon_distribution", "joint_photon_distribution", "fidelity",
                 "entanglement_entropy"),
    "elements": ("apply_element", "apply_beam_splitter", "apply_cross_kerr", "apply_phase_shift"),
    "fock": ("single", "tensor_product", "project_mode", "project_modes", "schmidt_decompose",
             "SchmidtDecomposition"),
    "protocols": ("run_superposition", "run_entanglement", "superposition_targets",
                  "entanglement_targets"),
    "states": ("cat_squeezed", "cat_coherent"),
}


def test_the_package_exports_its_documented_surface():
    public = {name for name, value in vars(kerrcat).items()
              if not name.startswith("_") and not isinstance(value, type(kerrcat))}
    assert public == PACKAGE_SURFACE


def test_each_single_state_name_resolves_in_its_module_alone():
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"kerrcat.{module}"), name)), name
            assert not hasattr(kerrcat, name), name


def test_neither_import_nor_a_factored_run_loads_numpy_random(tmp_path):
    # replaces the sketch's run: at r = 2 each branch's two 571-photon modes
    # are held as four terms (the two Kerr-split terms, as the first one and
    # its differences), and its Schmidt spectrum is that of a 4 x 4 matrix
    # over the modes' spans, not of a 286 x 286 occupied matrix
    script = f"""
import sys
import kerrcat.cli as cli
import kerrcat.analysis as analysis
loaded = ["numpy.random" in sys.modules]
shapes, spectra = [], analysis._spectra
analysis._spectra = lambda matrices: shapes.extend(m.shape for m in matrices) or spectra(matrices)
out = {str(tmp_path / "large.json")!r}
code = cli.main(["run", "--protocol", "entanglement", "--r", "2.0", "--out", out])
print(loaded + ["numpy.random" in sys.modules], code, shapes)
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[False, False] 0 [(4, 4), (4, 4)]"


def kept_branches(output: str) -> int:
    return sum(bool(branch["analysis"]["distributions"]) for line in output.splitlines()
               for branch in json.loads(line)["branches"].values())


@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
def test_no_state_is_built_per_kept_branch_of_a_sweep(protocol, monkeypatch):
    # branches are analyzed as rows of their batch's kept slices; the count
    # must not grow with the number of kept branches
    built, post_init = [], kerrcat.MultiModeState.__post_init__
    monkeypatch.setattr(kerrcat.MultiModeState, "__post_init__",
                        lambda state: built.append(state) or post_init(state))
    counts = []
    for axes in (["r:0.1:0.3:2"], ["r:0.1:0.6:6", "--sweep", "tau:0.5:pi:3"]):
        built.clear()
        output = cli.render_output(["sweep", "--protocol", protocol, "--sweep", *axes])
        counts.append((kept_branches(output), len(built)))
    (few, few_built), (many, many_built) = counts
    assert many > few and many_built == few_built


def test_no_state_is_built_per_kept_branch_of_a_circuit(tmp_path, monkeypatch):
    built, post_init = [], kerrcat.MultiModeState.__post_init__
    monkeypatch.setattr(kerrcat.MultiModeState, "__post_init__",
                        lambda state: built.append(state) or post_init(state))
    counts = []
    for cutoff in (3, 9):
        path = tmp_path / f"cutoff-{cutoff}.qcirc"
        path.write_text(f"mode a cutoff {cutoff}\nmode b cutoff {cutoff}\nmode c cutoff 2\n"
                        "source a coherent re=1.2 im=0.3\nsource b squeezed r=0.4 phi=0\n"
                        "kerr a b tau=0.5\nkerr b c tau=0.5\ndetect a n=1\n", encoding="utf-8")
        built.clear()
        output = cli.render_output(["run", "--circuit", str(path), "--epsilon", "0.2"])
        counts.append((kept_branches(output),
                       len(built)))
    (few, few_built), (many, many_built) = counts
    assert many > few and many_built == few_built


def test_groups_split_by_failed_points_are_byte_identical_in_batches_of_one(monkeypatch):
    # alpha_im = 1e200 cannot be sized: the twelve points are three sized,
    # three failed, three sized and three failed, and batches of one point
    # split each group of three
    argv = ["sweep", "--protocol", "superposition", "--source", "coherent",
            "--sweep", "alpha_re:1:0.5:2", "--sweep", "alpha_im:0:1e200:2", "--sweep", "tau:0:pi:3"]
    grouped = cli.render_output(argv)
    records = [json.loads(line) for line in grouped.splitlines()]
    assert [rec["error"] is None for rec in records] == ([True] * 3 + [False] * 3) * 2
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)  # a batch of one point
    assert cli.render_output(argv) == grouped


def angle_axes(protocol):
    """Sweep axes over the angles that ``protocol`` reads."""
    tau2 = ["--sweep", "tau2:0:pi/2:2"] if protocol == "entanglement" else []
    return ["--sweep", "tau:0:pi:3", *tau2, "--sweep", "theta:0:pi/2:2"]


@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
@pytest.mark.parametrize("source", [
    ["--source", "squeezed", "--phi", "0.3", "--sweep", "r:0.2:0.5:2"],
    ["--source", "coherent", "--alpha-im", "0.2", "--sweep", "alpha_re:0.4:1.1:2"],
    # r = 0.12 and 0.16 share cutoff 10, so all points form one group
    ["--source", "squeezed", "--phi", "0.3", "--sweep", "r:0.12:0.16:2"],
    # three cutoffs each: 16, 24 and 34; 8, 15 and 22
    ["--source", "squeezed", "--phi", "0.3", "--sweep", "r:0.3:0.6:3"],
    ["--source", "coherent", "--alpha-im", "0.2", "--sweep", "alpha_re:0.5:2:3"],
    # ten cutoffs, 5 to 14
    ["--source", "coherent", "--alpha-im", "0.2", "--sweep", "alpha_re:0.1:1.2:10"],
])
def test_sweep_point_equals_a_run(protocol, source, monkeypatch):
    # six angle points per source value (twelve on entanglement, with tau2);
    # tau = tau2 = theta = 0 gives a zero branch inside each batch. A batch
    # zero-pads each data mode to its longest member's cutoff, so the
    # superposition points share one batch a chunk (here one), and the
    # entanglement scheme's factored data modes share one from 3 * MAX_TERMS - 3
    # up (protocols.layout)
    argv = ["sweep", "--protocol", protocol, *source, *angle_axes(protocol)]
    run_batch, batches = protocols._run_batch, []

    def counted(programs, *rest):
        batches.append(len(programs))
        return run_batch(programs, *rest)

    monkeypatch.setattr(protocols, "_run_batch", counted)
    records = [json.loads(line) for line in cli.render_output(argv).splitlines()]
    monkeypatch.setattr(protocols, "_run_batch", run_batch)
    values = int(source[-1].rsplit(":", 1)[1])
    assert len(records) == values * (12 if protocol == "entanglement" else 6)
    assert any(b["probability"] == 0.0 for rec in records for b in rec["branches"].values())
    cutoffs = set()
    for rec in records:
        options = [f"--{name.replace('_', '-')}={value!r}" for name, value in rec["params"].items()]
        run = json.loads(cli.render_output(
            ["run", "--protocol", protocol, "--source", source[1], *options]))
        assert rec["error"] is None
        assert json.dumps(rec["branches"]) == json.dumps(run["branches"])
        cutoffs.add(run["config"]["cutoffs"]["a"])
    if protocol == "entanglement":
        assert len(batches) == len({min(c, 3 * protocols.dsl.MAX_TERMS - 3) for c in cutoffs})
    else:  # every point fits one chunk at the largest point's size
        assert len(records) * 4 * (max(cutoffs) + 1) <= protocols._CHUNK_AMPLITUDES
        assert batches == [len(records)]
    assert len(cutoffs) == 10 or values < 10


# the sweep axes that each protocol and each source reads
PROTOCOL_AXES = {"superposition": {"tau", "theta"}, "entanglement": {"tau", "tau2", "theta"}}
SOURCE_AXES = {"squeezed": {"r", "phi"}, "coherent": {"alpha_re", "alpha_im"}}


@pytest.mark.parametrize("axis", cli.SWEEPABLE)
@pytest.mark.parametrize("source", ["squeezed", "coherent"])
@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
def test_sweep_axis_is_one_the_run_reads(protocol, source, axis, capsys):
    # an axis the run never reads would give identical points
    argv = ["sweep", "--protocol", protocol, "--source", source, "--sweep", f"{axis}:0:1:2"]
    if axis in PROTOCOL_AXES[protocol] | SOURCE_AXES[source]:
        assert [spec.param for spec in cli._run_config(argv).sweeps] == [axis]
    else:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (f"kerrcat: error: --sweep names {axis!r}, which a "
                                           f"{protocol} run of a {source} source does not read\n")


@pytest.mark.parametrize("source", ["squeezed", "coherent"])
@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
def test_a_run_reads_each_name_of_read_params_and_no_other(protocol, source):
    # the converse of test_sweep_axis_is_one_the_run_reads: a point's
    # parameters change with each name that _read_params returns, and with
    # no other SWEEPABLE name
    config = cli._run_config(["run", "--protocol", protocol, "--source", source])
    point = dict.fromkeys(cli.SWEEPABLE, 0.25)
    params = cli._protocol_params(config, point)
    read = cli._read_params(config)
    for name in cli.SWEEPABLE:
        changed = cli._protocol_params(config, {**point, name: 0.5})
        assert (changed != params) == (name in read), name


def test_kept_branches_past_the_cap_are_a_numerical_error(tmp_path):
    # each of 17 detected coherent modes at cutoff 1 keeps both outcomes
    path = tmp_path / "many.qcirc"
    labels = [f"m{i}" for i in range(17)]
    path.write_text("".join(f"mode {m} cutoff 1\n" for m in labels)
                    + "".join(f"source {m} coherent re=1 im=0\n" for m in labels)
                    + "".join(f"detect {m} n=0\n" for m in labels), encoding="utf-8")
    done = run_kerrcat("run", "--circuit", str(path), "--epsilon", "0.9")
    assert done.returncode == 2
    assert done.stderr == ("kerrcat: numerical error: detection would keep 131072 branches; "
                           f"the cap is {protocols.MAX_KEPT_BRANCHES}\n")


def test_splitter_over_the_plan_cap_is_a_numerical_error(tmp_path):
    # the state (165,649 amplitudes) is legal, but the cutoff-406 splitter's
    # plan would hold 407^3 entries, above MAX_STATE_DIMENSION
    path = tmp_path / "wide.qcirc"
    path.write_text("mode a cutoff 406\nmode b cutoff 406\nsource a fock n=1\nbs a b\n",
                    encoding="utf-8")
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 2
    assert done.stderr.startswith("kerrcat: numerical error: a beam splitter at cutoff 406 ")
    assert "Traceback" not in done.stderr


def test_grouped_sweep_records_each_points_own_error(capsys):
    # alpha_re = 1e200 has no cutoff: its three tau points form one failing
    # group, and each records the error it has when it runs alone (here, as
    # a group of one, with tau the slower axis)
    base = ["sweep", "--protocol", "superposition", "--source", "coherent"]
    grouped = [json.loads(line) for line in cli.render_output(
        base + ["--sweep", "alpha_re:1:1e200:2", "--sweep", "tau:0:pi:3"]).splitlines()]
    alone = [json.loads(line) for line in cli.render_output(
        base + ["--sweep", "tau:0:pi:3", "--sweep", "alpha_re:1:1e200:2"]).splitlines()]
    by_params = {json.dumps(rec["params"]): rec for rec in alone}
    for rec in grouped:
        other = by_params[json.dumps(rec["params"])]
        assert (rec["branches"], rec["error"]) == (other["branches"], other["error"])
    assert [rec["error"] is None for rec in grouped] == [True] * 3 + [False] * 3
    assert cli.main(["run", "--protocol", "superposition", "--source", "coherent",
                     "--alpha-re", "1e200"]) == 2
    message = capsys.readouterr().err.splitlines()[0].removeprefix("kerrcat: numerical error: ")
    assert {rec["error"] for rec in grouped[3:]} == {f"CutoffError: {message}"}


def test_sweep_computes_each_points_layout_once(monkeypatch):
    # two r values of one cutoff and three tau values: six points, one group
    layout, layouts = protocols.layout, []

    def counted(program):
        layouts.append(program)
        return layout(program)

    for module in (protocols, cli):  # wherever a module binds it
        monkeypatch.setattr(module, "layout", counted, raising=False)
    cli.render_output(["sweep", "--protocol", "superposition", "--sweep", "r:0.12:0.16:2",
                       "--sweep", "tau:0:pi:3"])
    assert len(layouts) == 6 and len({id(program) for program in layouts}) == 6


def test_failed_batch_reruns_only_its_own_points(monkeypatch):
    # r = 0.3 has one cutoff, so the twelve tau points share a layout and run
    # in batches of four; the Kerr kernel refuses the sixth point's tau
    argv = ["sweep", "--protocol", "superposition", "--r", "0.3", "--sweep", "tau:0:pi:12"]
    program = kerrcat.superposition_program(
        kerrcat.SuperpositionParams(kerrcat.SqueezeParam(0.3), 0.0))
    refused = float(np.linspace(0, math.pi, 12)[5])
    apply, run_batch, runs = protocols.apply_batch, protocols._run_batch, []

    def refusing(stack, axes, members):
        if any(getattr(member, "tau", None) == refused for member in members):
            raise FloatingPointError("refused")
        return apply(stack, axes, members)

    def counted(programs, *rest):
        runs.append(len(programs))
        return run_batch(programs, *rest)

    monkeypatch.setattr(protocols, "apply_batch", refusing)
    monkeypatch.setattr(protocols, "_run_batch", counted)
    size = math.prod(c + 1 for _, c in program.modes)  # a point's amplitudes
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 4 * size)
    grouped = cli.render_output(argv)
    # the first and last batches ran once; the failed one, point by point
    assert runs == [4, 4, 1, 1, 1, 1, 4]
    records = [json.loads(line) for line in grouped.splitlines()]
    assert [rec["point"] for rec in records] == list(range(12))
    errors = [None] * 5 + ["FloatingPointError: refused"] + [None] * 6
    assert [rec["error"] for rec in records] == errors
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)  # a batch of one point
    assert cli.render_output(argv) == grouped


def test_out_is_complete_or_absent(tmp_path, monkeypatch):
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.4:4", "--format", "csv"]
    expected = cli.render_output(argv)
    out = tmp_path / "report.csv"
    out.write_text("earlier\n", encoding="utf-8")
    records = cli._sweep_records

    def failing(config):  # fails after the first two points are written
        yield from itertools.islice(records(config), 2)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_sweep_records", failing)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv + ["--out", str(out)])
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    assert out.read_text(encoding="utf-8") == "earlier\n"
    monkeypatch.setattr(cli, "_sweep_records", records)
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    # a link's target is replaced, and the link kept
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    out.write_text("earlier\n", encoding="utf-8")
    assert cli.main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and out.read_text(encoding="utf-8") == expected
    # a target that is not a regular file is written in place
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text(encoding="utf-8")),
                              daemon=True)
    reader.start()
    assert cli.main(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert read == [expected] and fifo.is_fifo()


def test_stdout_reader_that_leaves_early_ends_the_sweep_with_exit_1():
    # 580 KB of records, far above a pipe's buffer: the writer is still
    # writing when the reader leaves
    argv = [sys.executable, "-m", "kerrcat", "sweep", "--protocol", "superposition",
            "--sweep", "r:0.1:1.5:200"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.read(100).startswith(b'{"schema": ')
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "superposition"],
    ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.3:3"],
    ["check"],
])
def test_stdout_that_cannot_be_written_ends_with_exit_1(argv):
    # every write to /dev/full fails with ENOSPC, at the flush at the latest
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "kerrcat", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "kerrcat: error: cannot write report: [Errno 28] " in done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_an_os_error_while_records_are_made_is_not_a_write_error(monkeypatch, capsys, tmp_path):
    def failing(config):  # fails after the first point is written
        yield from itertools.islice(records(config), 1)
        raise OSError("raised while a record was made")

    records = cli._sweep_records
    monkeypatch.setattr(cli, "_sweep_records", failing)
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.3:3"]
    with pytest.raises(OSError, match="raised while a record was made"):
        cli.main(argv)
    assert capsys.readouterr().out.count("\n") == 1
    with pytest.raises(OSError, match="raised while a record was made"):
        cli.main(argv + ["--out", str(tmp_path / "report.jsonl")])
    assert list(tmp_path.iterdir()) == []
    assert "cannot write report" not in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_write_leaves_no_descriptor_open():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails
    with open(write, "w") as out:
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BrokenPipeError):
            cli._write(out, ["record\n"])
        assert len(os.listdir("/proc/self/fd")) == before


def test_zero_workers_is_a_usage_error(capsys):
    # a run report echoes --workers, and its schema asks for at least 1
    for command in (["run"], ["sweep", "--sweep", "r:0.1:0.3:3"]):
        argv = [*command, "--protocol", "superposition", "--workers", "0"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "kerrcat: error: --workers must be at least 1, got 0\n")


def test_usage_and_circuit_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert cli.main(["run"]) == 1
    assert cli.main(["run", "--protocol", "superposition", "--epsilon", "nan"]) == 1
    # numbers take the circuit language's grammar: ASCII digits, no underscores
    for option, value, message in (("--r", "0_3", "malformed value '0_3': expected a float"),
                                   ("--r", "\u0660.\u0663", "malformed value '\u0660.\u0663': "
                                    "expected a float"),
                                   ("--workers", "\u0662", "malformed value '\u0662': "
                                    "expected an unsigned integer")):
        assert cli.main(["run", "--protocol", "superposition", option, value]) == 1
        assert f"argument {option}: {message}" in capsys.readouterr().err
    bad = tmp_path / "bad.qcirc"
    bad.write_text("mode a cutoff 3\nbs a zz\n", encoding="utf-8")
    assert cli.main(["run", "--circuit", str(bad)]) == 1
    # the report cannot be written: a missing directory, and a directory;
    # either is refused before any program runs
    def run_circuit(*args, **kwargs):
        raise AssertionError("a program ran")

    monkeypatch.setattr(cli, "run_circuit", run_circuit)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["run", "--protocol", "superposition", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "kerrcat: error: cannot write report: " in err
        # it names the file asked for, not the partial file written beside it
        assert repr(str(out)) in err and ".partial" not in err
    # a repeated axis would silently replace the earlier one; "²" passes
    # str.isdigit but not int
    sweep = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.2:2", "--sweep"]
    for axis, message in (("r:0.3:0.4:2", "--sweep names 'r' more than once"),
                          ("tau:0:1:²", "argument --sweep: malformed steps '²': "
                                        "expected an unsigned integer")):
        assert cli.main(sweep + [axis]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_a_circuit_file_past_the_cap_is_a_usage_error(tmp_path):
    import resource

    def limited():  # a read without end fails here, not on the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-m", "kerrcat", "run", "--circuit", "/dev/zero"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limited,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr == ("kerrcat: error: circuit file /dev/zero is longer than "
                           f"{cli.MAX_CIRCUIT_BYTES} bytes\n")
    # a file of exactly the cap runs; one byte more is refused
    head = b"mode a cutoff 3\nsource a fock n=1\ndetect a n=1\n#"
    path = tmp_path / "cap.qcirc"
    path.write_bytes(head + b"#" * (cli.MAX_CIRCUIT_BYTES - len(head)))
    report = json.loads(cli.render_output(["run", "--circuit", str(path)]))
    assert report["branches"]["a=1"]["probability"] == 1.0
    path.write_bytes(path.read_bytes() + b"#")
    with pytest.raises(cli._UsageError, match="cap.qcirc is longer than 1048576 bytes"):
        cli.render_output(["run", "--circuit", str(path)])


@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
def test_a_source_past_the_cap_is_refused_within_a_small_address_space(protocol):
    import resource

    def limited():  # sizing r = 7.6 up to its tail bound took 1.4 GB
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-m", "kerrcat", "run", "--protocol", protocol, "--r", "7.6"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limited,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "(the maximum state dimension), the leakage stays at" in done.stderr


SUPERPOSITION_SWEEP = ["sweep", "--protocol", "superposition"]


@pytest.mark.parametrize("argv, message", [
    (["run", "--protocol", "superposition", "--format", "csv"],
     "CSV output is only available for sweeps; runs are JSON"),
    (["run", "--protocol", "superposition", "--epsilon", "0"],
     "--epsilon must lie in (0, 1), got 0.0"),
    (["run", "--protocol", "superposition", "--epsilon", "1"],
     "--epsilon must lie in (0, 1), got 1.0"),
    (["sweep", "--circuit", "any.qcirc", "--sweep", "r:0:1:2"],
     "sweeps need --protocol; circuit files have no sweepable parameters"),
    (SUPERPOSITION_SWEEP + ["--sweep", "r:0:1"],
     "argument --sweep: sweep spec must be param:start:stop:steps, got 'r:0:1'"),
    (SUPERPOSITION_SWEEP + ["--sweep", "r:0:1:0"],
     "argument --sweep: steps must be a positive integer, got '0'"),
    (SUPERPOSITION_SWEEP + ["--sweep", "phi:-1e308:1e308:2"],
     "argument --sweep: sweep range -1e308:1e308 overflows the float range"),
    (SUPERPOSITION_SWEEP + ["--sweep", "q:0:1:2"],
     "argument --sweep: unknown sweep parameter 'q'; choose from "
     "r, phi, alpha_re, alpha_im, tau, tau2, theta"),
    (SUPERPOSITION_SWEEP, "sweep needs at least one --sweep PARAM:START:STOP:STEPS"),
    (SUPERPOSITION_SWEEP + ["--sweep", "r:0:1:2", "--trace"],
     "--trace is only available for single runs"),
    (["check"], "render_output does not drive the check command"),
])
def test_usage_error_names_its_rule(argv, message, capsys):
    with pytest.raises(cli._UsageError) as raised:
        cli.render_output(argv)
    assert str(raised.value) == message
    if argv != ["check"]:  # main runs the check suite instead
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"kerrcat: error: {message}\n"


def test_huge_integer_literals_are_diagnostics(tmp_path):
    # past CPython's 4,300-digit int-string limit in a circuit file, and past
    # the float range in a pi/<uint> angle on the command line
    path = tmp_path / "huge.qcirc"
    path.write_text(f"mode a cutoff {'9' * 5000}\n", encoding="utf-8")
    for argv in (
        ("run", "--circuit", str(path)),
        ("run", "--protocol", "superposition", "--tau", "pi/" + "7" * 400),
        ("sweep", "--protocol", "superposition", "--sweep", "r:0:1:" + "9" * 5000),
    ):
        done = run_kerrcat(*argv)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert "too many digits" in done.stderr


@pytest.mark.parametrize("axes", [["r:0:1:1000000000"], ["r:0:1:200", "tau:0:pi:51"]])
def test_oversized_sweep_grid_is_a_usage_error(axes, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "_grid_points", forbidden)
    argv = ["sweep", "--protocol", "superposition"]
    for axis in axes:
        argv += ["--sweep", axis]
    with pytest.raises(cli._UsageError, match="sweep grid has"):
        cli._config_from_args(cli._build_parser().parse_args(argv))
    assert cli.main(argv) == 1
    limit = f"r:0:1:{cli.MAX_SWEEP_POINTS}"
    assert cli._run_config(["sweep", "--protocol", "superposition", "--sweep", limit])


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "superposition", "--tau=--"],
    ["run", "--protocol", "superposition", "--workers=--"],
    ["run", "--circuit=--"],
    ["sweep", "--protocol", "superposition", "--sweep=--"],
])
def test_double_dash_value_is_a_usage_error(argv, capsys):
    # argparse drops a "--" value before the option's type sees it
    option = argv[-1].removesuffix("=--")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"kerrcat: error: argument {option}: expected one argument\n"


@pytest.mark.parametrize("source, option, value", [
    ("coherent", "--alpha-re", "-1e-3"),
    ("coherent", "--alpha-im", "-2E+0"),
    ("squeezed", "--tau", "-1."),
    ("squeezed", "--phi", "-0.25*pi"),
])
def test_negative_number_is_the_option_value(source, option, value):
    # argparse's own negative numbers have no exponent, trailing dot or *pi
    argv = ["run", "--protocol", "superposition", "--source", source]
    report = cli.render_output(argv + [option, value])
    assert report == cli.render_output(argv + [f"{option}={value}"])
    assert report != cli.render_output(argv)


@pytest.mark.parametrize("option, value, expected", [
    ("--phi", "-pi/2", "<float>, pi, pi/<uint> or <float>*pi"),
    ("--tau", "-pi", "<float>, pi, pi/<uint> or <float>*pi"),
    ("--alpha-re", "-inf", "a float"),
])
def test_malformed_negative_value_is_named_by_its_option(option, value, expected, capsys):
    # outside the number grammar, but argparse would still take it for an option
    assert cli.main(["run", "--protocol", "superposition", option, value]) == 1
    message = f"argument {option}: malformed value {value!r}: expected {expected}"
    assert capsys.readouterr().err == f"kerrcat: error: {message}\n"


def test_help_after_an_option_is_not_its_value(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["run", "--trace", "-h"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kerrcat run")


def test_negative_magnitude_is_refused_in_either_spelling(capsys):
    for spelling in (["--r", "-1e-3"], ["--r=-1e-3"]):
        assert cli.main(["run", "--protocol", "superposition", *spelling]) == 1
        assert "kerrcat: error: argument --r: value '-1e-3' must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("axis, message", [
    ("r:-1:1:3", "start '-1' must be >= 0"),
    ("alpha_re:0:pi:3", "malformed stop 'pi': expected a float"),
    ("alpha_im:1:-1e999:3", "stop '-1e999' is not finite"),
])
def test_sweep_ends_are_read_as_their_option(axis, message, capsys):
    assert cli.main(["sweep", "--protocol", "superposition", "--sweep", axis]) == 1
    assert f"kerrcat: error: argument --sweep: {message}" in capsys.readouterr().err


# Values of every option, sized so that no example is slow: r <= 1, |alpha| <= 2,
# circuit cutoffs <= 4, sweeps of at most 3 points, and --workers, which is read
# and ignored. Paths are relative to the test's working directory.
OPTION_VALUES = {
    "--protocol": ["superposition", "entanglement"],
    "--circuit": ["ok.qcirc"],
    "--source": ["squeezed", "coherent"],
    "--r": ["0", "0.3", "1"],
    "--phi": ["0", "pi/4", "-0.25*pi"],
    "--alpha-re": ["-1.4", "0", "1"],
    "--alpha-im": ["-1.4", "-1e-3", "1"],
    "--tau": ["pi/2", "pi", "1e308"],
    "--tau2": ["pi/2", "pi", "-1."],
    "--theta": ["0", "0.3", "-2e-1"],
    "--epsilon": ["1e-4", "0.5"],
    "--trace": [None],
    "--format": ["json", "csv"],
    "--out": ["report.txt"],
    "--workers": ["1", "2", "65"],
    "--sweep": ["r:0:1:3", "tau:0:pi:3", "alpha_re:-1:1:2", "theta:-1e-3:pi/2:2"],
    "--no-such-option": [None],
}
COMMON = ["--source", "--r", "--phi", "--alpha-re", "--alpha-im", "--tau", "--tau2", "--theta",
          "--epsilon", "--format", "--out", "--workers"]
# refused values: every option may take a hostile one, some take one of their own
HOSTILE = ["--", "-", "", "-1e-3", "nan", "1e999", "pi/0"]
REFUSED = {
    "--protocol": ["cat"],
    "--circuit": ["bad.qcirc", "latin1.qcirc", "missing.qcirc", "."],
    "--epsilon": ["0", "1"],
    "--out": [".", "missing/report.txt"],
    "--workers": ["0"],
    "--sweep": ["r:-1:1:3", "alpha_re:0:pi:3", "theta:0:1e308*pi:2", "x:0:1:2", "r:0:1:0"],
}


@st.composite
def command_lines(draw):
    """A ``run`` or ``sweep`` command line with at most one fault: a refused
    value, a missing input or axis, or an option out of place."""
    command = draw(st.sampled_from(["run", "sweep"]))
    if command == "run":
        options = [draw(st.sampled_from(["--protocol", "--circuit"]))]
        options += ["--trace"] if draw(st.booleans()) else []
    else:
        options = ["--protocol", "--sweep"]
    options += draw(st.lists(st.sampled_from(COMMON), max_size=4, unique=True))
    fault = draw(st.sampled_from([None, "value", "missing", "extra"]))
    if fault == "missing":
        del options[draw(st.integers(0, 1 if command == "sweep" else 0))]
    elif fault == "extra":
        options.append(draw(st.sampled_from(
            ["--protocol", "--circuit", "--sweep", "--trace", "--no-such-option"])))
    options = list(dict.fromkeys(options))
    refused = draw(st.sampled_from(options)) if fault == "value" else None
    argv = [command]
    for option in options:
        values = HOSTILE + REFUSED.get(option, []) if option == refused else OPTION_VALUES[option]
        value = draw(st.sampled_from(values))
        if value is None:
            argv.append(option)
        else:
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_every_command_line_ends_in_an_exit_code(argv, tmp_path, monkeypatch):
    # the fixtures are shared by every example: a working directory with one
    # runnable circuit file, one broken one and one that is not UTF-8
    monkeypatch.chdir(tmp_path)
    Path("ok.qcirc").write_text(
        "mode a cutoff 4\nmode b cutoff 1\nsource a fock n=2\nsource b fock n=1\n"
        "kerr a b tau=pi/2\ndetect b n=1\n", encoding="utf-8",
    )
    Path("bad.qcirc").write_text("mode a cutoff 3\nbs a zz\n", encoding="utf-8")
    Path("latin1.qcirc").write_bytes("mode a cutoff 2\n# \xe9\n".encode("latin-1"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        out = cli._run_config(argv).out
        report = Path(out).read_text(encoding="utf-8") if out else stdout.getvalue()
        assert report.endswith("\n")
        if report.startswith("{"):
            assert all(json.loads(line) for line in report.splitlines())
        if out:
            os.remove(out)


def test_truncation_warning_is_a_kerrcat_diagnostic(tmp_path):
    # |1, 1> into a cutoff-1 splitter: all of its mass sits above the cutoff
    path = tmp_path / "spill.qcirc"
    path.write_text(
        "mode b cutoff 1\nmode c cutoff 1\nsource b fock n=1\nsource c fock n=1\n"
        "bs b c\ndetect b n=1\n",
        encoding="utf-8",
    )
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("kerrcat: warning: beam splitter on modes ('b', 'c'): ")
    assert "runpy" not in done.stderr and "TruncationWarning" not in done.stderr
    with pytest.warns(kerrcat.TruncationWarning):
        assert done.stdout == cli.render_output(["run", "--circuit", str(path)])


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "superposition"],
    ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.2:2"],
])
def test_non_finite_report_is_refused(argv, tmp_path, monkeypatch, capsys):
    # no report may hold NaN: the encoder refuses it, and nothing is written
    monkeypatch.setattr(cli, "fidelities", lambda states, targets, pairs: [math.nan] * len(pairs))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.render_output(argv)
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.main(argv + ["--out", str(out)])
    assert not out.exists()
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.main(argv)
    assert "NaN" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "entanglement", "--r", "0.2", "--trace"],
    ["run", "--circuit", "CIRCUIT", "--trace"],
])
def test_traced_run_report_is_written_as_json_dumps_would(argv, tmp_path):
    path = tmp_path / "cat.qcirc"
    path.write_text(CIRCUIT, encoding="utf-8")
    argv = [str(path) if arg == "CIRCUIT" else arg for arg in argv]
    expected = json.dumps(cli._run_report(cli._run_config(argv)), allow_nan=False) + "\n"
    assert cli.render_output(argv) == expected


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check_item(check):
    # a failing item raises CheckFailure with its finding as the message
    check()


def test_checks_read_the_report(monkeypatch):
    # a check asserts on the numbers that `kerrcat run` reports
    monkeypatch.setattr(cli, "fidelities", lambda rows, stack, pairs: [0.5] * len(pairs))
    with pytest.raises(CheckFailure, match="odd-cat branch fidelity 0.5"):
        check_squeezed_cat_branches()


def test_each_target_rows_norm_is_summed_once(monkeypatch):
    # an entanglement point has two target rows, each paired with both of its
    # branches; the norm of each is one row of the targets' own norm sum
    fidelities, overlaps, stacks, covered = cli.fidelities, analysis._overlaps, [], []

    def counted_fidelities(states, targets, *args):
        stacks.append(targets)
        return fidelities(states, targets, *args)

    def counted_overlaps(left, right, *args, **kwargs):
        values = overlaps(left, right, *args, **kwargs)
        if left is right and any(left is targets for targets in stacks):
            covered.append(len(values))
        return values

    monkeypatch.setattr(cli, "fidelities", counted_fidelities)
    monkeypatch.setattr(analysis, "_overlaps", counted_overlaps)
    cli.render_output(["sweep", "--protocol", "entanglement", "--sweep", "r:0.2:0.6:5"])
    assert sum(covered) == sum(len(targets[0]) for targets in stacks) == 2 * 5


def test_each_batch_validates_one_member(monkeypatch):
    # r from 1 to 3 spans cutoffs 76 to 4,218, whose factored data modes share
    # batches; a batch's widest member stands for all in the circuit rules
    validate, run_batch, batches = dsl.validate_program, protocols._run_batch, []

    def counted_batch(programs, *rest):
        batches.append({"members": len(programs), "validated": 0})
        return run_batch(programs, *rest)

    def counted_validate(program):
        batches[-1]["validated"] += 1
        return validate(program)

    monkeypatch.setattr(dsl, "validate_program", counted_validate)
    monkeypatch.setattr(protocols, "_run_batch", counted_batch)
    cli.render_output(["sweep", "--protocol", "entanglement", "--sweep", "r:1:3:12"])
    assert [batch["validated"] for batch in batches] == [1] * len(batches)
    members = [batch["members"] for batch in batches]
    assert sum(members) == 12 and max(members) > 1


# --- the exit-code contract (module docstring of kerrcat.cli) ---------------

EXIT_ENTRY_POINTS = ("protocol-run", "circuit-run", "sweep-point", "check")
NUMERICAL_ERRORS = (
    kerrcat.CutoffError,
    kerrcat.ZeroStateError,
    kerrcat.StateMismatchError,
    kerrcat.ModeLabelError,
    FloatingPointError,
)


def _exit_code_cases():
    """(entry point, error, expected exit code): ``None`` is a clean run,
    ``"usage"`` an unknown option, ``"parse"`` a broken circuit file, and an
    exception class is raised from inside the entry point."""
    for entry in EXIT_ENTRY_POINTS:
        point = entry == "sweep-point"
        yield entry, None, 0
        yield entry, "usage", 1
        for error in NUMERICAL_ERRORS:
            yield entry, error, 0 if point else 2
        yield entry, kerrcat.CircuitValidationError, 0 if point else 1
    yield "circuit-run", "parse", 1
    yield "check", CheckFailure, 1


@pytest.mark.parametrize(
    "entry, error, code",
    list(_exit_code_cases()),
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", str(v)),
)
def test_exit_code_matrix(entry, error, code, tmp_path, monkeypatch, capsys):
    import kerrcat.checks

    circuit = tmp_path / "cat.qcirc"
    circuit.write_text(CIRCUIT, encoding="utf-8")
    argv = {
        "protocol-run": ["run", "--protocol", "superposition", "--r", "0.2"],
        "circuit-run": ["run", "--circuit", str(circuit)],
        "sweep-point": ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.2:2"],
        "check": ["check"],
    }[entry]

    def raise_error(*args, **kwargs):
        raise error("injected")

    # the self-check suite is replaced by one check that passes or raises
    check = raise_error if isinstance(error, type) else lambda: "ok"
    monkeypatch.setattr(kerrcat.checks, "CHECKS", (("stand-in", check),))
    if error == "usage":
        argv.append("--no-such-option")
    elif error == "parse":
        circuit.write_text("mode a cutoff 3\nbs a zz\n", encoding="utf-8")
    elif error is not None and entry != "check":
        # a sweep's batch runner fails every batch, and each point alone
        module, target = (protocols, "_run_batch") if entry == "sweep-point" else (cli, "run_circuit")
        monkeypatch.setattr(module, target, raise_error)

    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if entry == "sweep-point" and isinstance(error, type):
        records = [json.loads(line) for line in out.splitlines()]
        assert [rec["error"] for rec in records] == [f"{error.__name__}: injected"] * 2
        assert all(rec["branches"] == {} for rec in records)
    elif code == 2:
        assert "kerrcat: numerical error: injected" in err
    elif error is kerrcat.CircuitValidationError:
        assert "kerrcat: invalid circuit: injected" in err
    elif error == "usage":
        assert "kerrcat: error: " in err
    elif error == "parse":
        assert err.startswith(f"{circuit}:")
    elif error is CheckFailure:
        assert "[FAIL] stand-in: injected" in out


def test_a_circuit_file_prints_at_most_its_first_hundred_diagnostics(tmp_path):
    # 1 MiB of one-character lines is 524,288 errors; the first hundred are
    # printed, then one line counts the rest
    path = tmp_path / "errors.qcirc"
    path.write_text("x\n" * (cli.MAX_CIRCUIT_BYTES // 2), encoding="utf-8")
    done = run_kerrcat("run", "--circuit", str(path))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == cli.MAX_DIAGNOSTICS + 1
    assert lines[0] == f"{path}:1:1: error: unknown keyword 'x'"
    assert lines[-1] == f"{path}: {cli.MAX_CIRCUIT_BYTES // 2 - cli.MAX_DIAGNOSTICS} more diagnostics"


def test_entanglement_at_r3_runs_factored_and_its_dense_trace_is_refused():
    # r = 3 gives cutoff 4218: its dense product, 4 * 4219**2 amplitudes, is
    # above the state cap, so the trace (dense) exits 2; the untraced run
    # holds each data mode as vectors, and each branch R|u>R|u> -+ |u>|u>
    # has the entropy of the two-term closed form in s = <-xi|xi>
    done = run_kerrcat("run", "--protocol", "entanglement", "--r", "3", "--trace")
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "numerical error" in done.stderr and "maximum state dimension" in done.stderr
    branches = json.loads(cli.render_output(["run", "--protocol", "entanglement", "--r", "3"]))["branches"]
    s = 1 / (math.cosh(3) * math.sqrt(1 + math.tanh(3) ** 2))
    gram = np.array([[1, s], [s, 1]])
    for name, sign in (("Db_fires", -1), ("Dc_fires", 1)):
        c = np.array([1, sign])
        p = np.linalg.eigvals(np.outer(c, c) * gram.T @ gram).real
        p = p[p > 0] / p.sum()
        expected = float(-(p * np.log2(p)).sum())
        assert abs(branches[name]["analysis"]["schmidt_entropy"] - expected) < 1e-9, name


@pytest.mark.parametrize("argv", [
    ("run", "--protocol", "entanglement", "--r", "2.0"),
    ("run", "--protocol", "entanglement", "--r", "3.5"),
    ("sweep", "--protocol", "superposition", "--source", "squeezed", "--phi", "0.0",
     "--sweep", "r:0.1:1.5:200", "--sweep", "tau:0:pi:5"),
], ids=["2.0", "3.5", "superposition-sweep"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(argv):
    # every sum that reaches a report is numpy's pairwise sum, not a BLAS
    # reduction, whose bits move with the thread count. At r = 3.5 the data
    # modes have 11,467 photon numbers, enough for OpenBLAS to split a dot
    # product across two threads (at r = 2, 571 are not). The benchmark's
    # superposition sweep runs its splitters as gemms, the one BLAS call left
    # on a protocol report's path, over batches whose data modes are padded
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "kerrcat", *argv], env=env,
                              capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
