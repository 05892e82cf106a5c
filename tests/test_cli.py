"""CLI tests: rendered reports against the report schema, exit codes, the
command-line grammar (a property over whole command lines), and the embedded
``kerrcat check`` suite."""

import contextlib
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrcat
from kerrcat import cli
from kerrcat.checks import CHECKS, CheckFailure

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


def test_import_loads_neither_checks_nor_the_process_pool():
    lazy = ("kerrcat.checks", "concurrent.futures.process")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, kerrcat.cli; print([m for m in {lazy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the process pool by one that maps in this process and
    records its worker count and the chunks it was sent."""
    import concurrent.futures

    seen = {"workers": [], "chunks": []}

    class SerialPool:
        def __init__(self, max_workers):
            seen["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            tasks = list(tasks)
            seen["chunks"].extend(tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


def test_parallel_sweep_sends_contiguous_chunks(serial_pool):
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.4:6",
            "--sweep", "tau:0:pi:4"]
    parallel = cli.render_output(argv + ["--workers", "2"])
    assert parallel == cli.render_output(argv + ["--workers", "1"])
    # 24 points on two workers: eight contiguous chunks, four per worker
    assert serial_pool["workers"] == [2]
    assert [[index for _, index, _ in chunk] for chunk in serial_pool["chunks"]] == [
        list(range(i, i + 3)) for i in range(0, 24, 3)
    ]


def test_parallel_sweep_on_the_process_pool_is_byte_identical():
    # the only test that sends points to real worker processes
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.4:4", "--format", "csv"]
    assert cli.render_output(argv + ["--workers", "2"]) == cli.render_output(argv + ["--workers", "1"])


def test_pool_has_no_more_workers_than_points(serial_pool):
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.3:3"]
    cli.render_output(argv + ["--workers", str(cli.MAX_WORKERS)])
    assert serial_pool["workers"] == [3]
    assert [[index for _, index, _ in chunk] for chunk in serial_pool["chunks"]] == [[0], [1], [2]]


def test_too_many_workers_is_a_usage_error(serial_pool, capsys):
    argv = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.3:3"]
    for workers in (0, cli.MAX_WORKERS + 1, 100_000):
        assert cli.main(argv + ["--workers", str(workers)]) == 1
        assert "kerrcat: error: --workers must lie in" in capsys.readouterr().err
    assert serial_pool["workers"] == []


def test_usage_and_circuit_errors_exit_1(tmp_path, capsys):
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
    # the report cannot be written: a missing directory, and a directory
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["run", "--protocol", "superposition", "--out", str(out)]) == 1
        assert "kerrcat: error: cannot write report: " in capsys.readouterr().err
    # a repeated axis would silently replace the earlier one; "²" passes
    # str.isdigit but not int
    sweep = ["sweep", "--protocol", "superposition", "--sweep", "r:0.1:0.2:2", "--sweep"]
    for axis, message in (("r:0.3:0.4:2", "--sweep names 'r' more than once"),
                          ("tau:0:1:²", "argument --sweep: malformed steps '²': "
                                        "expected an unsigned integer")):
        assert cli.main(sweep + [axis]) == 1
        assert message in capsys.readouterr().err


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
# circuit cutoffs <= 4, sweeps of at most 3 points, and --workers either
# refused or at most 2. Paths are relative to the test's working directory.
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
    "--workers": ["1", "2"],
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
    "--workers": ["0", "65"],
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
    monkeypatch.setattr(cli, "fidelity", lambda *args: math.nan)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._render(cli._run_config(argv))
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
    config = cli._run_config([str(path) if arg == "CIRCUIT" else arg for arg in argv])
    expected = json.dumps(cli._run_report(config), allow_nan=False) + "\n"
    assert cli._render(config) == expected


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check_item(check):
    # a failing item raises CheckFailure with its finding as the message
    check()


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
        target = "run_circuit" if entry == "circuit-run" else "run_superposition"
        monkeypatch.setattr(cli, target, raise_error)

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
