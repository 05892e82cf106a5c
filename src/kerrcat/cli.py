"""Command-line front end: run circuits or built-in protocols, sweep
parameters in parallel, and check the build against its embedded suite.

Reports are deterministic: the same configuration yields byte-identical
output regardless of worker count (timing goes to stderr, never into the
report). JSON is the primary format; CSV is available for sweeps only.
Exit codes: 0 success, 1 diagnostics (usage, parse or validation errors),
2 numerical errors (leakage budget exceeded, zero-norm states, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dsl
from .analysis import (
    AnalysisReport,
    entanglement_entropy,
    fidelity,
    photon_distribution,
    support_residual,
)
from .checks import run_self_checks
from .errors import FockSpaceError
from .protocols import (
    DB,
    DC,
    Branch,
    EntanglementParams,
    ProtocolResult,
    SourceSpec,
    SuperpositionParams,
    entanglement_targets,
    run_circuit,
    run_entanglement,
    run_superposition,
    superposition_targets,
)

SCHEMA_TAG = "kerrcat-report/1"
WORKERS_ENV = "KERRCAT_WORKERS"
SWEEPABLE = ("r", "phi", "alpha_re", "alpha_im", "tau", "tau2", "theta")

_CSV_COLUMNS = (
    "point", "r", "phi", "alpha_re", "alpha_im", "tau", "tau2", "theta",
    "branch", "probability", "pre_norm", "fidelity_plus", "fidelity_minus",
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    protocol: str | None = None
    circuit: str | None = None
    source: str = "squeezed"
    r: float = 0.5
    phi: float = 0.0
    alpha_re: float = 1.0
    alpha_im: float = 0.0
    tau: float = math.pi / 2
    tau2: float = math.pi / 2
    theta: float = 0.0
    epsilon: float = 1e-10
    trace: bool = False
    fmt: str = "json"
    out: str | None = None
    workers: int = 1
    sweeps: tuple[SweepSpec, ...] = ()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _angle(text: str) -> float:
    try:
        return dsl._parse_angle(text, 1)
    except dsl._LineError as err:
        raise argparse.ArgumentTypeError(err.message) from None


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
    try:
        start_v = _angle(start)
        stop_v = _angle(stop)
    except argparse.ArgumentTypeError:
        raise
    if not steps.isdigit() or int(steps) < 1:
        raise argparse.ArgumentTypeError(f"steps must be a positive integer, got {steps!r}")
    return SweepSpec(param, start_v, stop_v, int(steps))


def _build_parser() -> _Parser:
    parser = _Parser(prog="kerrcat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--protocol", choices=("superposition", "entanglement"))
        p.add_argument("--circuit", metavar="PATH", help="circuit file (.qcirc)")
        p.add_argument("--source", choices=("squeezed", "coherent"), default="squeezed")
        p.add_argument("--r", type=float, default=0.5, help="squeeze magnitude")
        p.add_argument("--phi", type=_angle, default=0.0, help="squeeze phase (angle syntax)")
        p.add_argument("--alpha-re", type=float, default=1.0, dest="alpha_re")
        p.add_argument("--alpha-im", type=float, default=0.0, dest="alpha_im")
        p.add_argument("--tau", type=_angle, default=math.pi / 2, help="Kerr phase (angle syntax)")
        p.add_argument("--tau2", type=_angle, default=math.pi / 2, help="second Kerr phase")
        p.add_argument("--theta", type=_angle, default=0.0, help="phase-shifter angle")
        p.add_argument("--epsilon", type=float, default=1e-10, help="truncation leakage budget")
        p.add_argument("--trace", action="store_true", help="include the stage-by-stage trace")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--workers", type=int, default=None,
                       help=f"parallel sweep workers (default ${WORKERS_ENV} or 1)")

    run_p = sub.add_parser("run", help="run one protocol or circuit")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="evaluate a protocol over a parameter grid")
    add_common(sweep_p)
    sweep_p.add_argument(
        "--sweep", type=_sweep_spec, action="append", metavar="PARAM:START:STOP:STEPS",
        help="grid axis; repeat for a cartesian grid", default=[],
    )

    sub.add_parser("check", help="run the embedded verification suite")
    return parser


def _resolve_workers(value) -> int:
    if value is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        if not raw.isdigit() or int(raw) < 1:
            raise _UsageError(f"${WORKERS_ENV} must be a positive integer, got {raw!r}")
        return int(raw)
    if value < 1:
        raise _UsageError(f"--workers must be >= 1, got {value}")
    return value


def _config_from_args(args) -> RunConfig:
    config = RunConfig(
        command=args.command,
        protocol=args.protocol,
        circuit=args.circuit,
        source=args.source,
        r=args.r,
        phi=args.phi,
        alpha_re=args.alpha_re,
        alpha_im=args.alpha_im,
        tau=args.tau,
        tau2=args.tau2,
        theta=args.theta,
        epsilon=args.epsilon,
        trace=args.trace,
        fmt=args.fmt,
        out=args.out,
        workers=_resolve_workers(args.workers),
        sweeps=tuple(getattr(args, "sweep", ()) or ()),
    )
    if not 0.0 < config.epsilon < 1.0:
        raise _UsageError(f"--epsilon must lie in (0, 1), got {config.epsilon!r}")
    if config.r < 0:
        raise _UsageError(f"--r must be >= 0, got {config.r!r}")
    if (config.protocol is None) == (config.circuit is None):
        raise _UsageError("give exactly one input: --protocol or --circuit")
    if config.command == "run":
        if config.fmt == "csv":
            raise _UsageError("CSV output is only available for sweeps; runs are JSON")
    if config.command == "sweep":
        if config.circuit is not None:
            raise _UsageError("sweeps need --protocol; circuit files have no sweepable parameters")
        if not config.sweeps:
            raise _UsageError("sweep needs at least one --sweep PARAM:START:STOP:STEPS")
        if config.trace:
            raise _UsageError("--trace is only available for single runs")
    return config


# --- analysis assembly -------------------------------------------------------

def _support_for(source_kind: str, branch_name: str, dim: int):
    if source_kind == "squeezed":
        if branch_name == DB:
            return "2,6,10,...", range(2, dim, 4)
        return "0,4,8,...", range(0, dim, 4)
    if branch_name == DB:
        return "odd", range(1, dim, 2)
    return "even", range(0, dim, 2)


def _empty_report() -> AnalysisReport:
    return AnalysisReport({}, None, None, {}, None, 0.0)


def _analyze_superposition(
    name: str, branch: Branch, source_kind: str, targets: dict
) -> AnalysisReport:
    if branch.state is None:
        return _empty_report()
    dist = photon_distribution(branch.state, "a")
    label, allowed = _support_for(source_kind, name, dist.size)
    return AnalysisReport(
        distributions={"a": tuple(dist.tolist())},
        support_residual=support_residual(dist, allowed),
        allowed_support=label,
        fidelity_targets={t: fidelity(branch.state, target) for t, target in targets.items()},
        schmidt_entropy=None,
        pre_norm=branch.pre_norm,
    )


def _analyze_entanglement(branch: Branch, targets: dict) -> AnalysisReport:
    if branch.state is None:
        return _empty_report()
    return AnalysisReport(
        distributions={
            m: tuple(photon_distribution(branch.state, m).tolist()) for m in ("a", "a2")
        },
        support_residual=None,
        allowed_support=None,
        fidelity_targets={t: fidelity(branch.state, target) for t, target in targets.items()},
        schmidt_entropy=entanglement_entropy(branch.state, {"a"}),
        pre_norm=branch.pre_norm,
    )


def _analyze_circuit(branch: Branch) -> AnalysisReport:
    if branch.state is None:
        return _empty_report()
    labels = branch.state.labels
    entropy = entanglement_entropy(branch.state, {labels[0]}) if len(labels) == 2 else None
    return AnalysisReport(
        distributions={m: tuple(photon_distribution(branch.state, m).tolist()) for m in labels},
        support_residual=None,
        allowed_support=None,
        fidelity_targets={},
        schmidt_entropy=entropy,
        pre_norm=branch.pre_norm,
    )


def _branch_dict(branch: Branch, report: AnalysisReport) -> dict:
    return {
        "outcome": {mode: n for mode, n in branch.outcome},
        "probability": branch.probability,
        "pre_norm": branch.pre_norm,
        "analysis": {
            "distributions": {m: list(d) for m, d in report.distributions.items()},
            "support_residual": report.support_residual,
            "allowed_support": report.allowed_support,
            "fidelity_targets": dict(report.fidelity_targets),
            "schmidt_entropy": report.schmidt_entropy,
        },
    }


def _branches_dict(result: ProtocolResult, analyzer) -> dict:
    return {
        name: _branch_dict(branch, analyzer(name, branch))
        for name, branch in result.branches.items()
    }


def _trace_list(result: ProtocolResult) -> list[dict]:
    out = []
    for stage, state in result.trace or ():
        flat = state.tensor.ravel().tolist()
        out.append({
            "stage": stage,
            "modes": list(state.labels),
            "shape": list(state.tensor.shape),
            "amplitudes": [[z.real, z.imag] for z in flat],
        })
    return out


def _source_dict(config: RunConfig) -> dict:
    if config.source == "squeezed":
        return {"kind": "squeezed", "r": config.r, "phi": config.phi}
    return {"kind": "coherent", "alpha_re": config.alpha_re, "alpha_im": config.alpha_im}


def _protocol_params(config: RunConfig):
    if config.source == "squeezed":
        spec = SourceSpec.squeezed(config.r, config.phi, eps=config.epsilon)
    else:
        spec = SourceSpec.coherent(
            complex(config.alpha_re, config.alpha_im), eps=config.epsilon
        )
    if config.protocol == "superposition":
        return SuperpositionParams(spec, config.tau, config.theta)
    # the CLI drives both entanglement arms with the same source parameters;
    # mixed-source pairs are expressed as circuit files or through the API
    return EntanglementParams(spec, spec, config.tau, config.tau2, config.theta)


def _run_protocol(config: RunConfig):
    """Run the configured protocol and analyze its branches.

    The fidelity targets are built once per run, after the protocol, and
    shared by every branch. Returns ``(params, result, branches_dict)``.
    """
    params = _protocol_params(config)
    if config.protocol == "superposition":
        result = run_superposition(params, trace=config.trace)
        targets = superposition_targets(params)
        kind = params.source_a.kind
        analyzer = lambda name, branch: _analyze_superposition(name, branch, kind, targets)
    else:
        result = run_entanglement(params, trace=config.trace)
        targets = entanglement_targets(params)
        analyzer = lambda name, branch: _analyze_entanglement(branch, targets)
    return params, result, _branches_dict(result, analyzer)


def _run_protocol_report(config: RunConfig) -> dict:
    params, result, branches = _run_protocol(config)
    cutoffs = {"a": params.source_a.resolved_cutoff(), "b": 1, "c": 1}
    echo = {"tau": config.tau, "theta": config.theta}
    if config.protocol == "entanglement":
        cutoffs["a2"] = params.source_a2.resolved_cutoff()
        echo = {"tau": config.tau, "tau2": config.tau2, "theta": config.theta}
    report = {
        "schema": SCHEMA_TAG,
        "kind": "run",
        "config": {
            "input": {"protocol": config.protocol},
            "source": _source_dict(config),
            **echo,
            "epsilon": config.epsilon,
            "cutoffs": cutoffs,
            "workers": config.workers,
            "format": config.fmt,
        },
        "branches": branches,
    }
    if config.trace:
        report["trace"] = _trace_list(result)
    return report


def _run_circuit_report(config: RunConfig) -> dict:
    try:
        with open(config.circuit, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise _UsageError(f"cannot read circuit file: {err}") from None
    parsed = dsl.parse(text)
    for diag in parsed.diagnostics:
        if diag.severity == "warning":
            print(f"{config.circuit}:{diag}", file=sys.stderr)
    if not parsed.ok:
        raise _DiagnosticsError(config.circuit, parsed.errors)
    result = run_circuit(parsed.program, eps=config.epsilon, trace=config.trace)
    report = {
        "schema": SCHEMA_TAG,
        "kind": "run",
        "config": {
            "input": {"circuit": config.circuit},
            "epsilon": config.epsilon,
            "cutoffs": dict(parsed.program.modes),
            "workers": config.workers,
            "format": config.fmt,
        },
        "branches": _branches_dict(result, lambda name, branch: _analyze_circuit(branch)),
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
    overridden = dataclasses.replace(config, **point)
    record = {
        "schema": SCHEMA_TAG,
        "kind": "sweep-point",
        "point": index,
        "params": {
            "r": overridden.r,
            "phi": overridden.phi,
            "alpha_re": overridden.alpha_re,
            "alpha_im": overridden.alpha_im,
            "tau": overridden.tau,
            "tau2": overridden.tau2,
            "theta": overridden.theta,
        },
    }
    try:
        record["branches"] = _run_protocol(overridden)[2]
        record["error"] = None
    except (FockSpaceError, ValueError) as err:
        record["branches"] = {}
        record["error"] = f"{type(err).__name__}: {err}"
    return record


def _sweep_records(config: RunConfig) -> list[dict]:
    tasks = [(config, i, point) for i, point in enumerate(_grid_points(config.sweeps))]
    if config.workers <= 1 or len(tasks) <= 1:
        return [_evaluate_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_evaluate_point, tasks, chunksize=1))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sweep_csv(records: list[dict]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for rec in records:
        base = [rec["point"]] + [rec["params"][k] for k in SWEEPABLE]
        if rec["error"] is not None:
            lines.append(",".join(_csv_cell(v) for v in base + ["", None, None, None, None, None, rec["error"]]))
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
                "",
            ]
            lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _serialize(config: RunConfig, payload) -> str:
    if config.command == "run":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if config.fmt == "csv":
        return _sweep_csv(payload)
    return "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in payload)


def render_output(argv) -> str:
    """Everything ``main`` would print to stdout, as a string.

    Raises instead of printing diagnostics; used by tests and the embedded
    determinism check.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        raise _UsageError("render_output does not drive the check command")
    config = _config_from_args(args)
    if config.command == "run":
        if config.protocol is not None:
            return _serialize(config, _run_protocol_report(config))
        return _serialize(config, _run_circuit_report(config))
    return _serialize(config, _sweep_records(config))


def _cmd_check() -> int:
    results = run_self_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        print(f"kerrcat: {res.name} took {res.seconds:.2f}s", file=sys.stderr)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "check":
            return _cmd_check()
        config = _config_from_args(args)
        started = time.perf_counter()
        output = render_output(argv if argv is not None else sys.argv[1:])
        elapsed = time.perf_counter() - started
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(output)
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
