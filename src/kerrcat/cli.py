"""Command-line front end: run circuits or built-in protocols, sweep
parameters over a grid, and check the build against its embedded suite.

Reports are deterministic: the same configuration yields byte-identical
output (timing goes to stderr, never into the report). Every sum that
reaches a report is a pairwise sum, not a BLAS dot, so a protocol report
keeps its bits at any BLAS thread count; only the SVD of a large dense
branch (a circuit's, or a traced run's) may move the last bits of its
Schmidt entropy. JSON is the primary format: a run's report,
like each sweep point, is one record on one line from
``json.dumps(allow_nan=False)`` (``python -m json.tool`` indents it). CSV is
available for sweeps only. A sweep runs in one process. It builds each point
as its batch reads it, and writes its records as each batch is analyzed, so
stdout streams; an ``--out`` file is complete or absent.
Exit codes: 0 success, 1 diagnostics (usage, parse or validation errors, a
failed check, or a report that cannot be written, as to a stdout whose reader
left), 2 numerical errors (leakage budget exceeded, zero-norm states, ...).
A sweep records a point's numerical or validation error as that point's
``error`` and goes on, so it exits 1 on usage errors and otherwise 0. A sweep
axis must be one that the run reads: a squeezed source's ``r`` and ``phi``, a
coherent one's ``alpha_re`` and ``alpha_im``, ``tau``, ``theta`` and, for
entanglement, ``tau2``; any other axis would repeat one point, and is a usage error.
Numbers take the circuit language's grammar (``dsl.read_value``).
"""

from __future__ import annotations

import argparse
import collections
import io
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import dsl
from .analysis import _spans, factored_distributions
from .analysis import fidelities, photon_distributions, schmidt_entropies, support_residuals
from .fock import _products
from .errors import FockSpaceError, TruncationWarning
from .protocols import (
    _POINT_ERRORS,
    DB,
    DC,
    EntanglementParams,
    Kept,
    ProtocolResult,
    SuperpositionParams,
    click_branches,
    entanglement_program,
    entanglement_target_stacks,
    run_batches,
    run_circuit,
    superposition_program,
    superposition_target_stacks,
)
from .states import DEFAULT_LEAKAGE, CoherentParam, SqueezeParam

SCHEMA_TAG = "kerrcat-report/1"
SWEEPABLE = ("r", "phi", "alpha_re", "alpha_im", "tau", "tau2", "theta")
_PROGRAMS = {"superposition": superposition_program, "entanglement": entanglement_program}
# Largest sweep grid (the product of the axes' step counts). Points are built as
# they run and records stream, so the cap bounds run time and output, not memory.
MAX_SWEEP_POINTS = 10_000
# Longest circuit file read, in bytes; a longer one (or /dev/zero) is a usage error.
# At the cap, a file of 524,288 one-character error lines took 2.9 s and peaked at
# 156 MB, its diagnostics included (2-vCPU VM); a valid file peaked at 53 MB.
MAX_CIRCUIT_BYTES = 1 << 20
# Most diagnostics of one circuit file printed; one line then counts the rest.
MAX_DIAGNOSTICS = 100

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
        drop the ``--`` and store ``[]``), and a token that starts as a negative
        number is the value of the option before it (argparse takes ``-1e-3``
        and ``-pi/2`` for options)."""
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            if "--" in tokens:
                tokens.append(token)
            elif token.startswith("--") and token.partition("=")[2] == "--":
                self.error(f"argument {token[:-3]}: expected one argument")
            elif tokens and tokens[-1].startswith("--") and _is_negative_number(token):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def _is_negative_number(text: str) -> bool:
    """Whether ``text`` starts as a negative number: a ``-`` then a digit, ``.``, ``pi``,
    ``inf`` or ``nan``. The option's reader reads it, or names it if it is malformed."""
    return text[:1] == "-" and text[1:].startswith((*"0123456789.", "pi", "inf", "nan"))


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
        p.add_argument("--workers", type=_reader("uint"), default=1,
                       help="ignored (a sweep runs in one process); kept for older command lines")

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
    if config.workers < 1:  # a run report echoes it, and the schema asks for at least 1
        raise _UsageError(f"--workers must be at least 1, got {config.workers}")
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
            if param not in _read_params(config):
                raise _UsageError(f"--sweep names {param!r}, which a {config.protocol} run "
                                  f"of a {config.source} source does not read")
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


def _records(results, targets, kind) -> list[dict]:
    """The report branches of each of one batch's results. A branch that is a
    row of the batch's :class:`kerrcat.protocols.Kept` gets, from one pass
    over those rows, each remaining mode's photon distribution, the Schmidt
    entropy across the first of two remaining modes, the residual outside
    its support law ``_SUPPORT[kind, name]`` (label, first, step), and its
    fidelity with each of its point's ``targets`` (a stack and each name's
    row for each point, or None, as ``superposition_target_stacks`` gives).
    Other branches get the empty analysis."""
    records, live = [{} for _ in results], []
    for i, result in enumerate(results):
        for name, b in result.branches.items():
            analysis = {"distributions": {}, "support_residual": None, "allowed_support": None,
                        "fidelity_targets": {}, "schmidt_entropy": None}
            records[i][name] = {"outcome": dict(b.outcome), "probability": b.probability,
                                "pre_norm": b.pre_norm, "analysis": analysis}
            if b.row is not None:
                live.append((i, name, b.row, analysis))
                kept = b.kept
    if not live:
        return records
    dense, two = kept.vectors is None, len(kept.labels) == 2
    spans = None if dense else _spans(kept.vectors, kept.lengths)
    dists = (photon_distributions(kept.rows, kept.labels) if dense
             else factored_distributions(kept.rows, kept.vectors, kept.labels, spans))
    lists = {mode: dist.tolist() for mode, dist in dists.items()}
    for mode, ends in zip(kept.labels, kept.lengths or ()):  # a factored row's own cutoff + 1
        lists[mode] = [row[:end] for row, end in zip(lists[mode], ends.tolist())]
    entropies = two and schmidt_entropies(kept.rows if dense else _products(kept.rows, spans))
    for _, _, row, analysis in live:
        analysis["distributions"] = {mode: rows[row] for mode, rows in lists.items()}
        analysis["schmidt_entropy"] = entropies[row] if two else None
    for name in dict.fromkeys(name for _, name, _, _ in live if (kind, name) in _SUPPORT):
        label, first, step = _SUPPORT[kind, name]
        chosen = [(row, analysis) for _, n, row, analysis in live if n == name]
        (dist,) = dists.values()
        allowed = range(first, dist.shape[1], step)
        residuals = support_residuals(dist[[row for row, _ in chosen]], allowed)
        for (_, analysis), residual in zip(chosen, residuals):
            analysis.update(support_residual=residual, allowed_support=label)
    if targets is not None:
        stack, rows = targets
        pairs = [(row, at[i], analysis["fidelity_targets"], name)
                 for i, _, row, analysis in live for name, at in rows.items() if at[i] is not None]
        states = kept.factored
        if len(stack[1]) != len(states[1]):  # a traced run's pairs: as one term on one flattened mode
            stack = Kept((), _products(*stack[:2])).factored
        values = fidelities(states, stack, [(row, j) for row, j, _, _ in pairs])
        for (_, _, fids, name), value in zip(pairs, values):
            fids[name] = value
    return records


def _trace_list(result: ProtocolResult) -> list[dict]:
    return [
        {"stage": stage, "modes": list(state.labels), "shape": list(state.tensor.shape),
         "amplitudes": [[z.real, z.imag] for z in state.tensor.ravel().tolist()]}
        for stage, state in result.trace or ()
    ]


def _read_params(config: argparse.Namespace) -> tuple[str, ...]:
    """The ``SWEEPABLE`` names that a run of the configured protocol and source
    reads: the source's two, then the angles."""
    source = ("r", "phi") if config.source == "squeezed" else ("alpha_re", "alpha_im")
    taus = ("tau", "tau2") if config.protocol == "entanglement" else ("tau",)
    return (*source, *taus, "theta")


def _protocol_params(config: argparse.Namespace, point):
    """The configured protocol's parameters at ``point`` (a value per ``SWEEPABLE``
    name), read from the names of :func:`_read_params` alone."""
    names = _read_params(config)
    first, second = (point[name] for name in names[:2])
    source = (SqueezeParam(first, second) if config.source == "squeezed"
              else CoherentParam(complex(first, second)))
    angles = {name: point[name] for name in names[2:]}
    if config.protocol == "superposition":
        return SuperpositionParams(source, **angles, eps=config.epsilon)
    # the CLI drives both entanglement arms with the same source parameters;
    # mixed-source pairs are expressed as circuit files or through the API
    return EntanglementParams(source, source, **angles, eps=config.epsilon)


def _analyzed(config: argparse.Namespace, params, batch) -> list[dict]:
    """The report branches of each of one batch's results, against target stacks
    read from the points' ``params`` and the sources each result was built from."""
    superposition = config.protocol == "superposition"
    stacks = superposition_target_stacks if superposition else entanglement_target_stacks
    results = [click_branches(result) for result in batch]
    targets = stacks(params, [result.sources for result in results])
    return _records(results, targets, config.source if superposition else None)


def _read_circuit(path: str) -> dsl.CircuitProgram:
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_CIRCUIT_BYTES + 1)
    except OSError as err:
        raise _UsageError(f"cannot read circuit file: {err}") from None
    if len(data) > MAX_CIRCUIT_BYTES:
        raise _UsageError(f"circuit file {path} is longer than {MAX_CIRCUIT_BYTES} bytes")
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
        params = _protocol_params(config, vars(config))
        program = _PROGRAMS[config.protocol](params)
        result = run_circuit(program, config.epsilon, config.trace)
        (branches,) = _analyzed(config, [params], [result])
        given = {"protocol": config.protocol}
        names = _read_params(config)
        source = {"kind": config.source, **{key: getattr(config, key) for key in names[:2]}}
        echo = {"source": source, **{key: getattr(config, key) for key in names[2:]}}
    else:
        program = _read_circuit(config.circuit)
        result = run_circuit(program, eps=config.epsilon, trace=config.trace)
        (branches,) = _records([result], None, None)
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

def _grid_points(config: argparse.Namespace) -> Iterator[tuple]:
    """The grid's points, each made when asked for, and their indices: a value per
    ``SWEEPABLE`` name, from its axis (the last fastest) or the config."""
    names = [spec.param for spec in config.sweeps]
    columns = [np.linspace(spec.start, spec.stop, spec.steps).tolist() for spec in config.sweeps]
    for index, values in enumerate(itertools.product(*columns)):
        point = {name: getattr(config, name) for name in SWEEPABLE}
        point.update(zip(names, values))
        yield index, point


def _sweep_records(config: argparse.Namespace) -> Iterator[dict]:
    """Each point's record, in point order, a batch at a time. A point is sized
    (through one cutoff table) and built only when ``run_batches`` reads it,
    which takes a point that cannot be built as its error."""
    cutoffs, queue = {}, collections.deque()

    def programs():
        for index, point in _grid_points(config):
            try:
                params = _protocol_params(config, point)
                program = _PROGRAMS[config.protocol](params, cutoffs)
            except _POINT_ERRORS as err:
                params, program = None, err
            queue.append((index, point, params))
            yield program

    def records(batch):  # map holds no batch between calls, so each goes before the next runs
        points = [queue.popleft() for _ in batch]
        if isinstance(batch[0], Exception):
            branches, error = [{}], f"{type(batch[0]).__name__}: {batch[0]}"
        else:
            branches, error = _analyzed(config, [p for _, _, p in points], batch), None
        return [{"schema": SCHEMA_TAG, "kind": "sweep-point", "point": index, "params": point,
                 "branches": point_branches, "error": error}
                for (index, point, _), point_branches in zip(points, branches)]

    for batch in map(records, run_batches(programs(), config.epsilon)):
        batch.reverse()  # popped, so that no record outlives its writing as the next batch runs
        while batch:
            yield batch.pop()


def _sweep_csv(records) -> Iterator[str]:
    """The header, then each record's rows as a chunk: a row per branch, or one
    per failed point; an empty cell is None (a float is written as its repr)."""
    # imported here, as the checks are in _cmd_check: only CSV sweeps use it
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)

    def rows(rec) -> str:  # a record's chunk (the first after the header); map holds no record
        base = [rec["point"]] + [rec["params"][k] for k in SWEEPABLE]
        if rec["error"] is not None:  # a failed point has no branches
            writer.writerow(base + [None] * (len(_CSV_COLUMNS) - len(base) - 1) + [rec["error"]])
        for name, branch in rec["branches"].items():
            analysis = branch["analysis"]
            targets = analysis["fidelity_targets"]
            plus = targets.get("even_cat", targets.get("pair_plus"))
            minus = targets.get("odd_cat", targets.get("pair_minus"))
            writer.writerow([*base, name, branch["probability"], branch["pre_norm"], plus, minus,
                             analysis["support_residual"], analysis["schmidt_entropy"], None])
        chunk = out.getvalue()
        out.seek(0)
        out.truncate()
        return chunk

    yield from map(rows, records)


def _run_config(argv) -> argparse.Namespace | None:
    """The configuration of a ``run`` or ``sweep`` command line; None for
    ``check``."""
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return None
    return _config_from_args(args)


def _chunks(config: argparse.Namespace) -> Iterator[str]:
    """The report, a record at a time, each made when asked for."""
    records = [_run_report(config)] if config.command == "run" else _sweep_records(config)
    if config.fmt == "csv":
        yield from _sweep_csv(records)
    else:
        yield from map(lambda rec: json.dumps(rec, allow_nan=False) + "\n", records)  # holds none


def render_output(argv) -> str:
    """Everything ``main`` would print to stdout, as a string.

    Raises instead of printing diagnostics; used by tests.
    """
    config = _run_config(argv)
    if config is None:
        raise _UsageError("render_output does not drive the check command")
    return "".join(_chunks(config))


def _cmd_check() -> int:
    from .checks import run_self_checks

    results = run_self_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        _write(sys.stdout, [f"[{status}] {res.name}: {res.detail}\n"])
        print(f"kerrcat: {res.name} took {res.seconds:.2f}s", file=sys.stderr)
    failed = [r for r in results if not r.passed]
    _write(sys.stdout, [f"{len(results) - len(failed)}/{len(results)} checks passed\n"])
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


def _write(out, chunks) -> None:
    """Write ``chunks`` to ``out`` as each is made, then flush it. A failed write (not a failed
    chunk) ends the report and points ``out`` at ``os.devnull``, so that no flush fails again."""
    for chunk in itertools.chain(chunks, [None]):
        try:
            out.write(chunk) if chunk is not None else out.flush()
            del chunk  # before the next is made
        except OSError as err:  # a reader that left early, as `| head` does, ends quietly
            with open(os.devnull, "w") as null:  # closed once its descriptor is copied
                os.dup2(null.fileno(), out.fileno())
            raise err if isinstance(err, BrokenPipeError) else _UsageError(f"cannot write report: {err}")


def _write_report(path: str, chunks) -> None:
    """Write ``chunks`` to ``path`` through a partial file beside it, opened
    before the first chunk is made, which replaces it once complete and is
    removed on any error. Special files (``/dev/null``) are written directly.
    An ``OSError`` raised while a chunk is made is not the file's; it propagates."""
    given, path = path, os.path.realpath(path)
    special = os.path.exists(path) and not os.path.isfile(path)
    partial = None if special else f"{path}.{os.getpid()}.partial"
    try:
        with _reported(given, open, partial or path, "x" if partial else "w", encoding="utf-8",
                       newline="\n") as out:
            _write(out, chunks)
            _reported(given, out.close)
        if partial:
            _reported(given, os.replace, partial, path)
    finally:
        if partial and os.path.exists(partial):
            os.remove(partial)


def _reported(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, whose ``OSError`` cannot write the report ``path``.
    An error that names a file names ``path``, not the partial file beside it."""
    try:
        return call(*args, **kwargs)
    except OSError as err:
        named = err if err.filename is None else OSError(err.errno, err.strerror, path)
        raise _UsageError(f"cannot write report: {named}") from None


def main(argv=None) -> int:
    try:
        config = _run_config(argv)
        if config is None:
            return _cmd_check()
        started = time.perf_counter()
        with warnings.catch_warnings():  # the records are made as they are written
            warnings.showwarning = _plain_truncation_warnings(warnings.showwarning)
            if config.out:
                _write_report(config.out, _chunks(config))
            else:
                _write(sys.stdout, _chunks(config))
        elapsed = time.perf_counter() - started
        print(f"kerrcat: {config.command} completed in {elapsed:.3f}s", file=sys.stderr)
        return 0
    except _UsageError as err:
        print(f"kerrcat: error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader left early; _write pointed it at os.devnull
        return 1
    except _DiagnosticsError as err:
        for diag in err.diagnostics[:MAX_DIAGNOSTICS]:
            print(f"{err.path}:{diag}", file=sys.stderr)
        if len(err.diagnostics) > MAX_DIAGNOSTICS:
            print(f"{err.path}: {len(err.diagnostics) - MAX_DIAGNOSTICS} more diagnostics", file=sys.stderr)
        return 1
    except dsl.CircuitValidationError as err:
        print(f"kerrcat: invalid circuit: {err}", file=sys.stderr)
        return 1
    except (FockSpaceError, FloatingPointError) as err:
        print(f"kerrcat: numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
