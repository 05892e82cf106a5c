"""Seeded inputs for the kerrcat benchmark workloads.

``make(name, seed, workdir)`` returns the CLI arguments of one workload and
the parameters the correctness gate needs to recompute its physics. The
default seed reproduces the reference grids exactly; any other seed jitters
the grid endpoints and the source amplitudes within ranges that keep every
workload's size (sweep point count, mode cutoffs) fixed, and draws the
squeeze and coherent phases uniformly, which changes every amplitude but
none of the photon-number statistics the cost depends on.

Run ``python3 bench/workloads.py --seed N`` to print the generated commands.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("sup-sweep", "ent-sweep", "ent-large", "circuit-3mode")

BENCH_DIR = Path(__file__).resolve().parent
CIRCUIT_TEMPLATE = BENCH_DIR / "circuit-3mode.qcirc"

# Sweep grids as (r_start, r_stop, r_steps); tau runs over 0:pi:5 so that
# tau = pi/2, where squeezed branches are exact parity cats, is a grid point.
_SWEEP_GRID = {"sup-sweep": (0.1, 1.5, 200), "ent-sweep": (0.1, 1.0, 200)}
_TINY_SWEEP_GRID = {"sup-sweep": (0.1, 0.5, 4), "ent-sweep": (0.1, 0.4, 4)}
TAU_STEPS = 5

# circuit-3mode sources: label -> (kind, magnitude, phase); coherent
# magnitudes are |alpha|, squeezed ones r.
_CIRCUIT_SOURCES = {
    "a": ("coherent", 1.5, 0.0),
    "b": ("squeezed", 0.8, 0.0),
    "c": ("coherent", abs(complex(1.0, 0.5)), math.atan2(0.5, 1.0)),
}
_TINY_CIRCUIT_SOURCES = {
    "a": ("coherent", 0.5, 0.0),
    "b": ("squeezed", 0.3, 0.0),
    "c": ("coherent", abs(complex(0.4, 0.2)), math.atan2(0.2, 0.4)),
}
CIRCUIT_CUTOFF = 40
TINY_CIRCUIT_CUTOFF = 12
CIRCUIT_EPSILON = 1e-6
DEFAULT_EPSILON = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    tiny: bool
    argv: tuple[str, ...]  # CLI arguments, without --out and --workers
    output: str            # "jsonl", "csv" or "json"
    points: int            # operations one CLI invocation performs
    params: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _sweep(name: str, seed: int, tiny: bool) -> Workload:
    start, stop, steps = (_TINY_SWEEP_GRID if tiny else _SWEEP_GRID)[name]
    phi = 0.0
    if seed != DEFAULT_SEED:
        rng = _rng(name, seed)
        start += rng.uniform(-0.002, 0.002)
        stop += rng.uniform(-0.005, 0.005)
        phi = rng.uniform(0.0, 2.0 * math.pi)
    protocol = "superposition" if name == "sup-sweep" else "entanglement"
    argv = ["sweep", "--protocol", protocol, "--source", "squeezed", "--phi", repr(phi),
            "--sweep", f"r:{start!r}:{stop!r}:{steps}"]
    params = {"r": (start, stop, steps), "phi": phi, "epsilon": DEFAULT_EPSILON}
    if name == "sup-sweep":
        argv += ["--sweep", f"tau:0:pi:{TAU_STEPS}"]
        params["tau"] = (0.0, math.pi, TAU_STEPS)
        return Workload(name, seed, tiny, tuple(argv), "jsonl", steps * TAU_STEPS, params)
    argv += ["--format", "csv"]
    params["tau"] = params["tau2"] = math.pi / 2
    return Workload(name, seed, tiny, tuple(argv), "csv", steps, params)


def _ent_large(seed: int, tiny: bool) -> Workload:
    r, phi = (0.6 if tiny else 2.0), 0.0
    if seed != DEFAULT_SEED:
        rng = _rng("ent-large", seed)
        r += rng.uniform(-0.002, 0.002)
        phi = rng.uniform(0.0, 2.0 * math.pi)
    argv = ("run", "--protocol", "entanglement", "--source", "squeezed",
            "--r", repr(r), "--phi", repr(phi))
    params = {"r": r, "phi": phi, "tau": math.pi / 2, "tau2": math.pi / 2,
              "epsilon": DEFAULT_EPSILON}
    return Workload("ent-large", seed, tiny, argv, "json", 1, params)


def circuit_sources(seed: int, tiny: bool) -> dict:
    """label -> (kind, magnitude, phase) for the circuit-3mode sources."""
    sources = dict(_TINY_CIRCUIT_SOURCES if tiny else _CIRCUIT_SOURCES)
    if seed != DEFAULT_SEED:
        rng = _rng("circuit-3mode", seed)
        for label, (kind, magnitude, _) in sorted(sources.items()):
            spread = 0.01 if kind == "squeezed" else 0.02
            sources[label] = (kind, magnitude * (1.0 + rng.uniform(-spread, spread)),
                              rng.uniform(0.0, 2.0 * math.pi))
    return sources


def circuit_text(seed: int, tiny: bool) -> str:
    """The committed circuit with its source lines (and cutoffs) substituted."""
    text = CIRCUIT_TEMPLATE.read_text(encoding="utf-8")
    if seed == DEFAULT_SEED and not tiny:
        return text
    if tiny:
        text = re.sub(r"cutoff \d+", f"cutoff {TINY_CIRCUIT_CUTOFF}", text)
    for label, (kind, magnitude, phase) in circuit_sources(seed, tiny).items():
        if kind == "squeezed":
            line = f"source {label} squeezed r={magnitude!r} phi={phase!r}"
        else:
            alpha = magnitude * complex(math.cos(phase), math.sin(phase))
            line = f"source {label} coherent re={alpha.real!r} im={alpha.imag!r}"
        text = re.sub(rf"^source {label} .*$", line, text, flags=re.M)
    return text


def _circuit(seed: int, tiny: bool, workdir: Path) -> Workload:
    if seed == DEFAULT_SEED and not tiny:
        path = CIRCUIT_TEMPLATE
    else:
        path = workdir / "circuit-3mode.qcirc"
        path.write_text(circuit_text(seed, tiny), encoding="utf-8")
    # the CLI runs from the repository root and echoes this path in its report
    argv = ("run", "--circuit", os.path.relpath(path, BENCH_DIR.parent),
            "--epsilon", repr(CIRCUIT_EPSILON))
    params = {
        "sources": circuit_sources(seed, tiny),
        "cutoff": TINY_CIRCUIT_CUTOFF if tiny else CIRCUIT_CUTOFF,
        "detected": ("a", "b"),
        "requested": "a=1 b=0",
        "epsilon": CIRCUIT_EPSILON,
    }
    return Workload("circuit-3mode", seed, tiny, argv, "json", 1, params)


def make(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; files it needs are written to ``workdir``."""
    if name in _SWEEP_GRID:
        return _sweep(name, seed, tiny)
    if name == "ent-large":
        return _ent_large(seed, tiny)
    if name == "circuit-3mode":
        return _circuit(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tiny", action="store_true", help="the smoke-test sizes")
    args = parser.parse_args()
    for name in WORKLOADS:
        if name == "circuit-3mode":
            print(f"# {name}:\n{circuit_text(args.seed, args.tiny)}", end="")
            continue
        work = make(name, args.seed, Path("."), args.tiny)
        print(f"# {name}: kerrcat {' '.join(work.argv)}")


if __name__ == "__main__":
    main()
