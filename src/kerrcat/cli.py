"""Command-line front end: run circuits or built-in protocols, sweep
parameters in parallel, and check the build against its embedded suite.

Reports are deterministic: the same configuration yields byte-identical
output regardless of worker count (timing goes to stderr, never into the
report). JSON is the primary format: a run's report, like each sweep point,
is one record on one line from ``json.dumps(allow_nan=False)`` (``python -m
json.tool`` indents it). CSV is available for sweeps only.
Exit codes: 0 success, 1 diagnostics (usage, parse or validation errors,
or a failed check), 2 numerical errors (leakage budget exceeded, zero-norm
states, ...). A sweep records a point's numerical or validation error as
that point's ``error`` and goes on, so it exits 1 on usage errors and
otherwise 0. Numbers take the circuit language's grammar (``dsl.read_value``).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import dsl
from .analysis import entanglement_entropy, fidelity, photon_distribution, support_residual
from .errors import FockSpaceError, TruncationWarning
from .protocols import (
    DB,
    DC,
    EntanglementParams,
    ProtocolResult,
    SuperpositionParams,
    entanglement_program,
    entanglement_targets,
    run_circuit,
    run_entanglement,
    run_superposition,
    superposition_program,
    superposition_targets,
)
from .states import DEFAULT_LEAKAGE, CoherentParam, SqueezeParam

SCHEMA_TAG = "kerrcat-report/1"
SWEEPABLE = ("r", "phi", "alpha_re", "alpha_im", "tau", "tau2", "theta")
# Largest sweep grid (the product of the axes' step counts). Every point's
# record is held until the report is written, and a record grows with the
# source cutoff (each branch keeps its photon distribution).
MAX_SWEEP_POINTS = 10_000
# Most --workers a sweep may ask for. The process pool forks all of its
# workers up front, so an unbounded count could exhaust the process table.
MAX_WORKERS = 64

_CSV_COLUMNS = (
    "point", *SWEEPABLE, "branch", "probability", "pre_norm", "fidelity_plus", "fidelity_minus",
    "support_residual", "schmidt_entropy", "error",
)


class _UsageError(Exception):
    pass


class _DiagnosticsError(Exception):
    def __init__(self, path: str, diagnostics):
        super().__init__(f"{len(diagnostics)} diagnostic(s) in {path}")
        self.path = path
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        """Before a ``--`` separator, ``--opt=--`` is refused (argparse would
        drop the ``--`` and store ``[]``), and a token that reads as a number
        is the value of the option before it (argparse takes ``-1e-3`` for one)."""
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            if "--" in tokens:
                tokens.append(token)
            elif token.startswith("--") and token.partition("=")[2] == "--":
                self.error(f"argument {token[:-3]}: expected one argument")
            elif tokens and tokens[-1].startswith("--") and _is_number(token):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def _is_number(text: str) -> bool:
    try:
        dsl.read_value("angle", text, "value")
    except ValueError:
        return False
    return True


def _reader(kind: str, name: str = "value"):
    """The argparse type of one ``kind`` value, read by :func:`dsl.read_value`."""

    def read(text: str):
        try:
            return dsl.read_value(kind, text, name)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return read


def _sweep_spec(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"sweep spec must be param:start:stop:steps, got {text!r}"
        )
    param, start, stop, steps = parts
    if param not in SWEEPABLE:
        raise argparse.ArgumentTypeError(
            f"unknown sweep parameter {param!r}; choose from {', '.join(SWEEPABLE)}"
        )
    kind = {"r": "magnitude", "alpha_re": "float", "alpha_im": "float"}.get(param, "angle")
    start_v, stop_v = _reader(kind, "start")(start), _reader(kind, "stop")(stop)
    # np.linspace steps by stop - start; past the float range the grid is NaN
    if not math.isfinite(stop_v - start_v):
        raise argparse.ArgumentTypeError(f"sweep range {start}:{stop} overflows the float range")
    count = _reader("uint", "steps")(steps)
    if count < 1:
        raise argparse.ArgumentTypeError(f"steps must be a positive integer, got {steps!r}")
    return SweepSpec(param, start_v, stop_v, count)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kerrcat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        angle, real = _reader("angle"), _reader("float")
        p.add_argument("--protocol", choices=("superposition", "entanglement"))
        p.add_argument("--circuit", metavar="PATH", help="circuit file (.qcirc)")
        p.add_argument("--source", choices=("squeezed", "coherent"), default="squeezed")
        p.add_argument("--r", type=_reader("magnitude"), default=0.5, help="squeeze magnitude")
        p.add_argument("--phi", type=angle, default=0.0, help="squeeze phase (angle syntax)")
        p.add_argument("--alpha-re", type=real, default=1.0, dest="alpha_re")
        p.add_argument("--alpha-im", type=real, default=0.0, dest="alpha_im")
        p.add_argument("--tau", type=angle, default=math.pi / 2, help="Kerr phase (angle syntax)")
        p.add_argument("--tau2", type=angle, default=math.pi / 2, help="second Kerr phase")
        p.add_argument("--theta", type=angle, default=0.0, help="phase-shifter angle")
        p.add_argument(
            "--epsilon", type=real, default=DEFAULT_LEAKAGE, help="truncation leakage budget"
        )
        p.add_argument("--trace", action="store_true", help="include the stage-by-stage trace")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--workers", type=_reader("uint"), default=1, help="parallel sweep workers")

    run_p = sub.add_parser("run", help="run one protocol or circuit")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="evaluate a protocol over a parameter grid")
    add_common(sweep_p)
    sweep_p.add_argument(
        "--sweep", type=_sweep_spec, action="append", metavar="PARAM:START:STOP:STEPS",
        help="grid axis; repeat for a cartesian grid", default=[], dest="sweeps",
    )

    sub.add_parser("check", help="run the embedded verification suite")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The checked configuration of a ``run`` or ``sweep`` command line: its
    namespace, with ``sweeps`` as a tuple (empty for ``run``)."""
    config = argparse.Namespace(**{**vars(args), "sweeps": tuple(getattr(args, "sweeps", ()))})
    if not 0.0 < config.epsilon < 1.0:
        raise _UsageError(f"--epsilon must lie in (0, 1), got {config.epsilon!r}")
    if not 1 <= config.workers <= MAX_WORKERS:
        raise _UsageError(f"--workers must lie in 1..{MAX_WORKERS}, got {config.workers}")
    if (config.protocol is None) == (config.circuit is None):
        raise _UsageError("give exactly one input: --protocol or --circuit")
    if config.command == "run" and config.fmt == "csv":
        raise _UsageError("CSV output is only available for sweeps; runs are JSON")
    if config.command == "sweep":
        if config.circuit is not None:
            raise _UsageError("sweeps need --protocol; circuit files have no sweepable parameters")
        if not config.sweeps:
            raise _UsageError("sweep needs at least one --sweep PARAM:START:STOP:STEPS")
        swept = [spec.param for spec in config.sweeps]
        for param in swept:
            if swept.count(param) > 1:
                raise _UsageError(f"--sweep names {param!r} more than once; give each axis once")
        points = math.prod(spec.steps for spec in config.sweeps)
        if points > MAX_SWEEP_POINTS:
            raise _UsageError(
                f"the sweep grid has {points} points, more than the {MAX_SWEEP_POINTS} allowed"
            )
        if config.trace:
            raise _UsageError("--trace is only available for single runs")
    return config


# --- analysis assembly -------------------------------------------------------

# (source kind, branch) -> allowed photon numbers of a superposition branch:
# (label, first, step)
_SUPPORT = {
    ("squeezed", DB): ("2,6,10,...", 2, 4),
    ("squeezed", DC): ("0,4,8,...", 0, 4),
    ("coherent", DB): ("odd", 1, 2),
    ("coherent", DC): ("even", 0, 2),
}


def _analysis(state, targets: dict, support=None) -> dict:
    """The analysis record of one branch.

    It holds the photon distribution of every remaining mode, the Schmidt
    entropy across the first mode when exactly two modes remain, the
    residual outside the ``support`` law ``(label, first, step)`` of a
    single remaining mode when one is given, and the fidelity with each of
    ``targets``. A branch with no state gets the empty record.
    """
    dists, fidelities = {}, {}
    if state is not None:
        dists = {m: photon_distribution(state, m) for m in state.labels}
        fidelities = {t: fidelity(state, target) for t, target in targets.items()}
    label = residual = None
    if support is not None and dists:
        label, first, step = support
        (dist,) = dists.values()
        residual = support_residual(dist, range(first, dist.size, step))
    return {
        "distributions": {m: dist.tolist() for m, dist in dists.items()},
        "support_residual": residual,
        "allowed_support": label,
        "fidelity_targets": fidelities,
        "schmidt_entropy": (
            entanglement_entropy(state, {state.labels[0]}) if len(dists) == 2 else None
        ),
    }


def _branches_dict(result: ProtocolResult, targets: dict, source_kind: str | None = None) -> dict:
    """The report's branches, each analyzed against ``targets``; with a
    ``source_kind``, each branch's support law is checked too."""
    return {
        name: {
            "outcome": {mode: n for mode, n in branch.outcome},
            "probability": branch.probability,
            "pre_norm": branch.pre_norm,
            "analysis": _analysis(branch.state, targets, _SUPPORT.get((source_kind, name))),
        }
        for name, branch in result.branches.items()
    }


def _trace_list(result: ProtocolResult) -> list[dict]:
    return [
        {"stage": stage, "modes": list(state.labels), "shape": list(state.tensor.shape),
         "amplitudes": [[z.real, z.imag] for z in state.tensor.ravel().tolist()]}
        for stage, state in result.trace or ()
    ]


def _protocol_params(config: argparse.Namespace):
    """The configured protocol's parameters."""
    if config.source == "squeezed":
        source = SqueezeParam(config.r, config.phi)
    else:
        source = CoherentParam(complex(config.alpha_re, config.alpha_im))
    if config.protocol == "superposition":
        return SuperpositionParams(source, config.tau, config.theta, config.epsilon)
    # the CLI drives both entanglement arms with the same source parameters;
    # mixed-source pairs are expressed as circuit files or through the API
    return EntanglementParams(
        source, source, config.tau, config.tau2, config.theta, config.epsilon
    )


def _run_protocol(config: argparse.Namespace):
    """Run the configured protocol and analyze its branches.

    The fidelity targets are built once per run, after the protocol, and
    shared by every branch. Returns ``(params, result, branches_dict)``.
    """
    params = _protocol_params(config)
    if config.protocol == "superposition":
        result = run_superposition(params, trace=config.trace)
        branches = _branches_dict(result, superposition_targets(params), config.source)
    else:
        result = run_entanglement(params, trace=config.trace)
        branches = _branches_dict(result, entanglement_targets(params))
    return params, result, branches


def _read_circuit(path: str) -> dsl.CircuitProgram:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _UsageError(f"cannot read circuit file: {err}") from None
    parsed = dsl.parse(data)
    for diag in parsed.diagnostics:
        if diag.severity == "warning":
            print(f"{path}:{diag}", file=sys.stderr)
    if not parsed.ok:
        raise _DiagnosticsError(path, parsed.errors)
    return parsed.program


def _run_report(config: argparse.Namespace) -> dict:
    """The report of one run, of a built-in protocol or of a circuit file."""
    if config.protocol is not None:
        params, result, branches = _run_protocol(config)
        given = {"protocol": config.protocol}
        if config.protocol == "superposition":
            program, taus = superposition_program(params), {"tau": config.tau}
        else:
            program, taus = entanglement_program(params), {"tau": config.tau, "tau2": config.tau2}
        keys = ("r", "phi") if config.source == "squeezed" else ("alpha_re", "alpha_im")
        source = {"kind": config.source, **{key: getattr(config, key) for key in keys}}
        echo = {"source": source, **taus, "theta": config.theta}
    else:
        program = _read_circuit(config.circuit)
        result = run_circuit(program, eps=config.epsilon, trace=config.trace)
        branches = _branches_dict(result, {})
        given, echo = {"circuit": config.circuit}, {}
    report = {
        "schema": SCHEMA_TAG,
        "kind": "run",
        "config": {
            "input": given,
            **echo,
            "epsilon": config.epsilon,
            "cutoffs": dict(program.modes),
            "workers": config.workers,
            "format": config.fmt,
        },
        "branches": branches,
    }
    if config.trace:
        report["trace"] = _trace_list(result)
    return report


# --- sweeps ------------------------------------------------------------------

def _grid_points(sweeps: tuple[SweepSpec, ...]) -> list[dict]:
    points = [{}]
    for spec in sweeps:
        values = [float(v) for v in np.linspace(spec.start, spec.stop, spec.steps)]
        points = [dict(p, **{spec.param: v}) for p in points for v in values]
    return points


def _evaluate_point(task) -> dict:
    config, index, point = task
    overridden = argparse.Namespace(**{**vars(config), **point})
    record = {
        "schema": SCHEMA_TAG,
        "kind": "sweep-point",
        "point": index,
        "params": {name: getattr(overridden, name) for name in SWEEPABLE},
    }
    try:
        return {**record, "branches": _run_protocol(overridden)[2], "error": None}
    except (FockSpaceError, FloatingPointError, ValueError) as err:
        return {**record, "branches": {}, "error": f"{type(err).__name__}: {err}"}


def _sweep_records(config: argparse.Namespace) -> list[dict]:
    tasks = [(config, i, point) for i, point in enumerate(_grid_points(config.sweeps))]
    if config.workers <= 1 or len(tasks) <= 1:
        return [_evaluate_point(t) for t in tasks]
    # imported here, as the checks are in _cmd_check: every CLI process
    # would pay for the import, and only parallel sweeps use it
    from concurrent.futures import ProcessPoolExecutor

    # Contiguous chunks keep neighbouring points, which often share a source,
    # in one process (and its factory memo); four chunks per worker still
    # balance points whose cost grows along the grid.
    workers = min(config.workers, len(tasks))
    chunksize = math.ceil(len(tasks) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_point, tasks, chunksize=chunksize))


def _sweep_csv(records: list[dict]) -> str:
    """One row per branch, or one per failed point; an empty cell is None
    (floats are written as their repr, which is their str)."""
    # imported here, like the process pool: only CSV sweeps use it
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        base = [rec["point"]] + [rec["params"][k] for k in SWEEPABLE]
        if rec["error"] is not None:
            writer.writerow(base + [None] * (len(_CSV_COLUMNS) - len(base) - 1) + [rec["error"]])
            continue
        for name, branch in rec["branches"].items():
            analysis = branch["analysis"]
            targets = analysis["fidelity_targets"]
            plus = targets.get("even_cat", targets.get("pair_plus"))
            minus = targets.get("odd_cat", targets.get("pair_minus"))
            row = base + [
                name,
                branch["probability"],
                branch["pre_norm"],
                plus,
                minus,
                analysis["support_residual"],
                analysis["schmidt_entropy"],
                None,
            ]
            writer.writerow(row)
    return out.getvalue()


def _run_config(argv) -> argparse.Namespace | None:
    """The configuration of a ``run`` or ``sweep`` command line; None for
    ``check``."""
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return None
    return _config_from_args(args)


def _render(config: argparse.Namespace) -> str:
    records = [_run_report(config)] if config.command == "run" else _sweep_records(config)
    if config.fmt == "csv":
        return _sweep_csv(records)
    return "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in records)


def render_output(argv) -> str:
    """Everything ``main`` would print to stdout, as a string.

    Raises instead of printing diagnostics; used by tests.
    """
    config = _run_config(argv)
    if config is None:
        raise _UsageError("render_output does not drive the check command")
    return _render(config)


def _cmd_check() -> int:
    from .checks import run_self_checks

    results = run_self_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        print(f"kerrcat: {res.name} took {res.seconds:.2f}s", file=sys.stderr)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _plain_truncation_warnings(show):
    """A ``warnings.showwarning`` that prints a :class:`TruncationWarning`
    as ``kerrcat: warning: <message>`` and hands other warnings to ``show``.
    Its source location would be a frame of the interpreter's module
    runner, which tells a command-line user nothing."""

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, TruncationWarning):
            print(f"kerrcat: warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)

    return showwarning


def main(argv=None) -> int:
    try:
        config = _run_config(argv)
        if config is None:
            return _cmd_check()
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.showwarning = _plain_truncation_warnings(warnings.showwarning)
            output = _render(config)
        elapsed = time.perf_counter() - started
        if config.out:
            try:
                with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(output)
            except OSError as err:
                raise _UsageError(f"cannot write report: {err}") from None
        else:
            sys.stdout.write(output)
        print(f"kerrcat: {config.command} completed in {elapsed:.3f}s", file=sys.stderr)
        return 0
    except _UsageError as err:
        print(f"kerrcat: error: {err}", file=sys.stderr)
        return 1
    except _DiagnosticsError as err:
        for diag in err.diagnostics:
            print(f"{err.path}:{diag}", file=sys.stderr)
        return 1
    except dsl.CircuitValidationError as err:
        print(f"kerrcat: invalid circuit: {err}", file=sys.stderr)
        return 1
    except (FockSpaceError, FloatingPointError) as err:
        print(f"kerrcat: numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
