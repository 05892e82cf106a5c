"""Run one kerrcat CLI call in-process, optionally tracing its layers.

    python3 bench/tracer.py --mode traced --run-id 0 --report R.json -- run --protocol ...

Both modes import ``kerrcat.cli`` and then time ``cli.main(argv)``. In
``traced`` mode the public functions of each layer (``states``, ``fock``,
``elements``, ``protocols``, ``analysis``, ``dsl``, ``cli``) are first
replaced by wrappers that record a span (name, start, end, parent span,
run id) per call, and counts are taken at the same boundaries. The
package imports functions by name (``from .fock import tensor_product``),
so a wrapper replaces the function under every name any ``kerrcat``
module binds it to. Nothing in the package is edited. Spans stay in memory
and are written to ``--report`` after the call returns.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import sys
import time
import warnings

LAYERS = {
    "states": ("suggest_cutoff", "vacuum", "fock", "coherent", "squeezed_vacuum",
               "cat_squeezed", "cat_coherent"),
    "fock": ("tensor_product", "project_mode", "project_modes", "schmidt_decompose"),
    "elements": ("apply_beam_splitter", "apply_cross_kerr", "apply_phase_shift"),
    "protocols": ("run_superposition", "run_entanglement", "run_circuit",
                  "superposition_targets", "entanglement_targets"),
    "analysis": ("entanglement_entropy", "fidelity", "photon_distribution",
                 "joint_photon_distribution"),
    "dsl": ("parse", "validate_program"),
    "cli": ("main", "render_output"),
}
FACTORIES = LAYERS["states"][1:]
# kerrcat.checks is not on any CLI path and keeps its own references.
UNTRACED_MODULES = ("kerrcat.checks",)


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.factory_calls: list = []
        self.signatures: dict = {}
        self.states_built = 0
        self.bs_cutoffs: set[int] = set()
        self.bs_build_s = 0.0
        self.outcomes_tried = 0
        self.branches_kept = 0

    # -- spans --

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn, after=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(index, name, start, end)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return traced

    # -- counts taken at the boundaries --

    def _factory_hook(self, fname: str):
        def after(args, kwargs, result, seconds):
            self.factory_calls.append((fname, args, kwargs))
        return after

    def _bs_hook(self, fn):
        def after(args, kwargs, result, seconds):
            state, mode_1 = args[0], args[1]
            cutoff = state.tensor.shape[state.axis(mode_1)] - 1
            if cutoff in self.bs_cutoffs:
                return
            self.bs_cutoffs.add(cutoff)
            # The first call at a cutoff builds the cached matrix; repeat it
            # warm, as its own span so no layer's self time includes it.
            index = self._open()
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fn(*args, **kwargs)
            end = time.perf_counter()
            self._close(index, "trace.bs_warm_repeat", start, end)
            self.bs_build_s += seconds - (end - start)
        return after

    def _circuit_hook(self, args, kwargs, result, seconds):
        program = args[0]
        cutoffs = dict(program.modes)
        self.outcomes_tried += math.prod(cutoffs[d.mode] + 1 for d in program.detects)
        self._count_kept(result)

    def _protocol_hook(self, args, kwargs, result, seconds):
        self.outcomes_tried += len(result.branches)
        self._count_kept(result)

    def _count_kept(self, result) -> None:
        self.branches_kept += sum(b.state is not None for b in result.branches.values())

    def _count_constructions(self, cls) -> None:
        original = cls.__post_init__

        def counted(instance):
            self.states_built += 1
            original(instance)

        cls.__post_init__ = counted

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("kerrcat") and name not in UNTRACED_MODULES]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"kerrcat.{layer}")
            for fname in names:
                original = getattr(module, fname)
                after = None
                if fname in FACTORIES:
                    after = self._factory_hook(fname)
                    self.signatures[fname] = inspect.signature(original)
                elif fname == "apply_beam_splitter":
                    after = self._bs_hook(original)
                elif fname == "run_circuit":
                    after = self._circuit_hook
                elif fname in ("run_superposition", "run_entanglement"):
                    after = self._protocol_hook
                wrapper = self.wrap(f"{layer}.{fname}", original, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        fock = importlib.import_module("kerrcat.fock")
        self._count_constructions(fock.FockVector)
        self._count_constructions(fock.MultiModeState)

    def report(self) -> dict:
        distinct = set()
        for fname, args, kwargs in self.factory_calls:
            bound = self.signatures[fname].bind(*args, **kwargs)
            bound.apply_defaults()
            distinct.add((fname, *bound.arguments.values()))
        return {
            "spans": self.spans,
            "counts": {
                "factory_distinct": len(distinct),
                "states_built": self.states_built,
                "bs_build_s": self.bs_build_s,
                "outcomes_tried": self.outcomes_tried,
                "branches_kept": self.branches_kept,
            },
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--report", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import kerrcat.cli

    tracer = Tracer(args.run_id) if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    code = kerrcat.cli.main(argv)
    wall = time.perf_counter() - start
    report = {"mode": args.mode, "code": code, "wall_s": wall}
    if tracer is not None:
        report.update(tracer.report())
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
