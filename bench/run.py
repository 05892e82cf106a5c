"""kerrcat benchmark: end-to-end CLI runs, or a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload sup-sweep --seed 0 --seconds 22 --trace 0
    python3 bench/run.py --workload all       # every workload, one table

``--trace 0`` measures what a CLI user pays. It times fresh
``python -m kerrcat`` processes back to back (a closed loop with one
client) for ``--seconds`` and reports the medians of their wall time, CPU
time and peak RSS, plus ``setup_s``, the median time a fresh interpreter
takes to ``import kerrcat.cli``. The host's speed drifts by a quarter over
minutes, so every timed sample sits between two runs of ``refjob.py``, a
fixed job that uses nothing from ``kerrcat``, and each time is reported at
reference speed: scaled by ``REF_NOMINAL_S`` over the mean of those two
reference times. The raw medians are printed and recorded beside them.
``--trace 1`` alternates fresh interpreters that run the same CLI call
in-process, untraced and traced (``tracer.py``), and reports per-layer counts and self times and the
tracing overhead. Every output is checked by ``gate.py`` outside the timed
region; the last line of stdout is the JSON result, and the full record
(with machine details) is written under ``.bench_work/results/``.

Every child runs with one BLAS/OpenMP thread, ``KERRCAT_WORKERS`` unset and
``--workers 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE_JOB = BENCH_DIR / "refjob.py"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES = 11
# Seconds one reference job takes at reference speed: its median wall and
# CPU time on the 2-vCPU VM where the benchmark was defined. A time at
# reference speed is t * REF_NOMINAL_S / (mean of the reference jobs just
# before and after t).
REF_NOMINAL_S = 0.2
SETUP_PROBE = "import time, kerrcat.cli; print(repr(time.monotonic()))"

# name -> (unit, better); the end-to-end metrics of a --trace 0 run.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Per-layer metrics of a --trace 1 run. Each span group gives
# "<group>.calls" (spans counted) and "<group>.self_s" (their summed self time).
_FACTORIES = tuple(f"states.{f}" for f in (
    "vacuum", "fock", "coherent", "squeezed_vacuum", "cat_squeezed", "cat_coherent"))
SPAN_GROUPS = {
    "states.suggest_cutoff": ("states.suggest_cutoff",),
    "states.factory": _FACTORIES,
    "fock.tensor_product": ("fock.tensor_product",),
    "fock.project": ("fock.project_mode", "fock.project_modes"),
    "fock.schmidt": ("fock.schmidt_decompose",),
    "elements.bs_apply": ("elements.apply_beam_splitter",),
    "elements.kerr": ("elements.apply_cross_kerr",),
    "elements.phase": ("elements.apply_phase_shift",),
    "protocols.run": ("protocols.run_superposition", "protocols.run_entanglement",
                      "protocols.run_circuit"),
    "protocols.targets": ("protocols.superposition_targets", "protocols.entanglement_targets"),
    "analysis.entropy": ("analysis.entanglement_entropy",),
    "analysis.fidelity": ("analysis.fidelity",),
    "analysis.distribution": ("analysis.photon_distribution",
                              "analysis.joint_photon_distribution"),
    "dsl.parse": ("dsl.parse",),
    "dsl.validate": ("dsl.validate_program",),
    "cli": ("cli.render_output",),
}
# Call counts count one span name per group: project_modes is a loop over
# project_mode, so only the per-slice calls are counted.
_CALL_SPAN = {"fock.project": ("fock.project_mode",)}
PER_LAYER = {
    "states.suggest_cutoff.calls": ("count", "lower"),
    "states.suggest_cutoff.self_s": ("s", "lower"),
    "states.factory.calls": ("count", "lower"),
    "states.factory.self_s": ("s", "lower"),
    "states.rebuild_ratio": ("ratio", "lower"),
    "fock.states_built": ("count", "lower"),
    "fock.tensor_product.self_s": ("s", "lower"),
    "fock.project.calls": ("count", "lower"),
    "fock.project.self_s": ("s", "lower"),
    "fock.schmidt.calls": ("count", "lower"),
    "fock.schmidt.self_s": ("s", "lower"),
    "elements.bs_build_s": ("s", "lower"),
    "elements.bs_apply.calls": ("count", "lower"),
    "elements.bs_apply.self_s": ("s", "lower"),
    "elements.kerr.self_s": ("s", "lower"),
    "elements.phase.self_s": ("s", "lower"),
    "protocols.run.self_s": ("s", "lower"),
    "protocols.targets.self_s": ("s", "lower"),
    "protocols.outcomes_tried": ("count", "lower"),
    "protocols.branches_kept": ("count", "higher"),
    "protocols.branch_yield": ("ratio", "higher"),
    "analysis.entropy.calls": ("count", "lower"),
    "analysis.entropy.self_s": ("s", "lower"),
    "analysis.fidelity.self_s": ("s", "lower"),
    "analysis.distribution.self_s": ("s", "lower"),
    "dsl.parse.self_s": ("s", "lower"),
    "dsl.validate.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.point_errors": ("count", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


# --- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("KERRCAT_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    started: float
    output_path: Path | None = None


def spawn(argv: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> Sample:
    """Run one child to exit; wall time from spawn to exit, usage from wait4."""
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, started)


def cli_argv(work: Workload, out: Path) -> list[str]:
    return [*work.argv, "--workers", "1", "--out", str(out)]


def run_cli(work: Workload, out: Path, stderr_path: Path | None = None) -> Sample:
    argv = [sys.executable, "-m", "kerrcat", *cli_argv(work, out)]
    if stderr_path is None:
        sample = spawn(argv)
    else:
        with open(stderr_path, "wb") as err:
            sample = spawn(argv, stderr=err)
    sample.output_path = out
    return sample


def setup_sample(workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until ``import kerrcat.cli`` returns."""
    probe = workdir / "setup.out"
    with open(probe, "wb") as out:
        sample = spawn([sys.executable, "-c", SETUP_PROBE], stdout=out)
    if sample.returncode != 0:
        raise RuntimeError("importing kerrcat.cli failed")
    return float(probe.read_text().strip()) - sample.started


def reference_sample() -> Sample:
    """One run of the reference job, which gauges the machine's current speed."""
    sample = spawn([sys.executable, str(REFERENCE_JOB)])
    if sample.returncode != 0:
        raise RuntimeError("the reference job failed")
    return sample


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """times[i] scaled by REF_NOMINAL_S over the mean of refs[i] and refs[i + 1]."""
    return [t * 2.0 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


# --- statistics --------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n,
           "min": ordered[0], "max": ordered[-1]}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputGate:
    """Gates each distinct output once; identical outputs share a verdict."""

    def __init__(self, work: Workload):
        self.work = work
        self.kept: dict[str, Path] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.crashed = 0

    def add(self, sample: Sample) -> str | None:
        self.attempted += self.work.points
        if sample.returncode != 0 or not sample.output_path.exists():
            self.crashed += self.work.points
            return None
        digest = _digest(sample.output_path)
        if digest in self.kept:
            sample.output_path.unlink()
        else:
            self.kept[digest] = sample.output_path
        self.counts[digest] = self.counts.get(digest, 0) + 1
        return digest

    def verdict(self) -> tuple[int, list[str]]:
        failed, problems = self.crashed, []
        if self.crashed:
            problems.append(f"{self.crashed} operations in runs that exited non-zero")
        for digest, path in self.kept.items():
            verdict = gate.check(self.work, path.read_text(encoding="utf-8"))
            failed += verdict.failed * self.counts[digest]
            problems += verdict.problems
        return failed, problems[:10]


# --- the two kinds of run ----------------------------------------------------

def measure_end_to_end(work: Workload, seconds: float, workdir: Path) -> dict:
    setup_sample(workdir)  # writes the bytecode caches; not timed
    setup_refs = [reference_sample()]
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(setup_sample(workdir))
        setup_refs.append(reference_sample())
    outputs = OutputGate(work)
    samples, refs = [], [setup_refs[-1]]
    deadline = time.monotonic() + seconds
    while not samples or time.monotonic() < deadline:
        i = len(samples)
        sample = run_cli(work, workdir / f"out-{i}", workdir / f"err-{i}")
        samples.append(sample)
        refs.append(reference_sample())
        outputs.add(sample)
    failed, problems = outputs.verdict()
    walls, cpus = [s.wall_s for s in samples], [s.cpu_s for s in samples]
    ref_walls, ref_cpus = [r.wall_s for r in refs], [r.cpu_s for r in refs]
    setup_ref_walls = [r.wall_s for r in setup_refs]
    stats = {
        "wall_s": summary(at_reference_speed(walls, ref_walls)),
        "cpu_s": summary(at_reference_speed(cpus, ref_cpus)),
        "peak_rss_mb": summary([s.peak_rss_mb for s in samples]),
        "setup_s": summary(at_reference_speed(setups, setup_ref_walls)),
        "raw_wall_s": summary(walls),
        "raw_cpu_s": summary(cpus),
        "raw_setup_s": summary(setups),
        "reference_wall_s": summary(setup_ref_walls + ref_walls[1:]),
    }
    return {"attempted": outputs.attempted, "failed": failed, "problems": problems,
            "stats": stats, "distinct_outputs": len(outputs.kept),
            "metrics": {name: stats[name]["median"] for name in END_TO_END}}


def _self_times(spans: list) -> dict[str, list]:
    """name -> self seconds of each span with that name (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out.setdefault(name, []).append(end - start - child[i])
    return out


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced run (without the output-derived ones)."""
    selfs = _self_times(report["spans"])
    counts = report["counts"]
    metrics = {}
    for group, names in SPAN_GROUPS.items():
        metrics[f"{group}.self_s"] = sum(sum(selfs.get(n, ())) for n in names)
        metrics[f"{group}.calls"] = sum(len(selfs.get(n, ())) for n in _CALL_SPAN.get(group, names))
    factory_calls = metrics["states.factory.calls"]
    metrics["states.rebuild_ratio"] = factory_calls / max(1, counts["factory_distinct"])
    metrics["fock.states_built"] = counts["states_built"]
    metrics["elements.bs_build_s"] = counts["bs_build_s"]
    metrics["protocols.outcomes_tried"] = counts["outcomes_tried"]
    metrics["protocols.branches_kept"] = counts["branches_kept"]
    metrics["protocols.branch_yield"] = counts["branches_kept"] / max(1, counts["outcomes_tried"])
    return metrics


def _point_errors(work: Workload, path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    if work.output == "jsonl":
        return sum(json.loads(line)["error"] is not None for line in text.splitlines())
    if work.output == "csv":
        lines = text.splitlines()[1:]
        return len({line.split(",", 1)[0] for line in lines if not line.endswith(",")})
    return 0


def measure_layers(work: Workload, seconds: float, workdir: Path) -> dict:
    outputs = OutputGate(work)
    walls = {"plain": [], "traced": []}
    traced, digests = [], {"plain": set(), "traced": set()}
    deadline = time.monotonic() + seconds
    rep = 0
    while rep == 0 or time.monotonic() < deadline:
        for mode in ("plain", "traced"):
            out, report_path = workdir / f"out-{rep}-{mode}", workdir / f"trace-{rep}-{mode}.json"
            argv = [sys.executable, str(TRACER), "--mode", mode, "--run-id", str(rep),
                    "--report", str(report_path), "--", *cli_argv(work, out)]
            with open(workdir / f"err-{rep}-{mode}", "wb") as err:
                sample = spawn(argv, stderr=err)
            sample.output_path = out
            if sample.returncode == 0:
                bytes_out = out.stat().st_size if out.exists() else 0
                report = json.loads(report_path.read_text())
                report_path.unlink()
                walls[mode].append(report["wall_s"])
                if mode == "traced":
                    metrics = layer_metrics(report)
                    metrics["cli.output_bytes"] = bytes_out
                    metrics["cli.point_errors"] = _point_errors(work, out) if out.exists() else 0
                    traced.append(metrics)
            digests[mode].add(outputs.add(sample))
        rep += 1
    failed, problems = outputs.verdict()
    if digests["plain"] != digests["traced"] or len(digests["plain"]) != 1:
        failed, problems = outputs.attempted, problems + ["traced and untraced outputs differ"]
    metrics, counts_repeat = {}, True
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace_overhead_s" or not traced:
            continue
        values = [m[name] for m in traced]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    if walls["plain"] and walls["traced"]:
        metrics["trace_overhead_s"] = (statistics.median(walls["traced"])
                                       - statistics.median(walls["plain"]))
    stats = {"in_process_wall_s": {m: summary(w) for m, w in walls.items() if w}}
    return {"attempted": outputs.attempted, "failed": failed, "problems": problems,
            "stats": stats, "counts_repeat": counts_repeat, "traced_runs": len(traced),
            "metrics": metrics}


# --- environment -------------------------------------------------------------

_NUMPY_PROBE = ("import json, sys, numpy; "
                "cfg = numpy.show_config(mode='dicts'); "
                "print(json.dumps({'python': sys.version, 'numpy': numpy.__version__, "
                "'build_dependencies': cfg.get('Build Dependencies'), "
                "'simd': cfg.get('SIMD Extensions')}))")


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            models = [line.split(":", 1)[1].strip() for line in info
                      if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "pinned_env": {**PINNED_ENV, "KERRCAT_WORKERS": None, "--workers": 1},
        **json.loads(probe.stdout),
    }


# --- entry point -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    workdir.mkdir()
    try:
        work = workloads.make(name, seed, workdir)
        measure = measure_layers if trace else measure_end_to_end
        result = measure(work, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=name, seed=seed, trace=int(trace), seconds=seconds,
                  command=["kerrcat", *work.argv, "--workers", "1"])
    return result


def _report_lines(result: dict) -> list[str]:
    table = PER_LAYER if result["trace"] else END_TO_END
    rows = [(name, value, table[name][0]) for name, value in result["metrics"].items()]
    if not result["trace"]:  # the raw times behind the ones at reference speed
        rows += [(name, extra["median"], "s") for name, extra in result["stats"].items()
                 if name.startswith(("raw_", "reference_"))]
    lines = []
    for name, value, unit in rows:
        extra = result["stats"].get(name)
        note = ""
        if extra:
            tail = [f"{k} {v:.6g}" for k, v in extra.items() if k.startswith("p")]
            note = f"  (median of {extra['samples']}{'; ' + tail[0] if tail else ''})"
        lines.append(f"{result['workload']:>14} {name:<30} {value:>14.6g} {unit}{note}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    lines.append(f"{result['workload']:>14} {'failed_frac':<30} {failed_frac:>14.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']} operations)")
    return lines


def _emit(results: list[dict], table: dict) -> None:
    """The result line; with several workloads, metric names get a workload prefix."""
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": table[name][0]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kerrcat" / "__init__.py").is_file():
        print(f"bench: no kerrcat sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        results_dir = WORK_ROOT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8")
        for line in _report_lines(result) + [f"  problem: {p}" for p in result["problems"]]:
            print(line)
        results.append(result)

    _emit(results, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
