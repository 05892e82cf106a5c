"""Conditional-state protocols and the circuit runner.

Both built-in pipelines interfere a single photon with itself across two
50:50 beam splitters. Between the splitters, one arm picks up a cross-Kerr
phase from the data mode(s) and the other a fixed phase shift; detecting
which output port the photon exits then projects the data mode(s) onto a
superposition (one data mode) or an entangled pair (two data modes) of the
original and the Kerr-rotated source states.

Each pipeline is a circuit program (``superposition_program``,
``entanglement_program``) run by :func:`run_circuit`, the only place states
go through elements. ``run_circuit`` joins each declared mode to the state
just before the first element that touches it, so the photon modes are
mixed before any data mode joins them; ``run_superposition`` and
``run_entanglement`` run their program and name the two click outcomes
``Db_fires`` (b=1 c=0) and ``Dc_fires`` (b=0 c=1). Each data mode's cutoff
is ``suggest_cutoff`` of its source at the protocol's one budget ``eps``.

The Kerr rotation acts on the source parameters as ``kerr_rotated`` (in
``kerrcat.states``): alpha -> alpha * exp(-i * tau) and phi -> phi - 2 * tau
per photon in the coupled mode. The targets use it; the circuit elements
themselves are state-agnostic diagonal phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import dsl
from .analysis import joint_photon_distribution
from .elements import (
    BalancedBeamSplitter,
    CrossKerr,
    Detect,
    PhaseShift,
    apply_element,
    element_modes,
)
from .errors import ZeroStateError
from .fock import (
    FockVector,
    MultiModeState,
    _Owned,
    _unit,
    normalize,
    project_modes,
    single,
    tensor_product,
)
from .states import (
    DEFAULT_LEAKAGE,
    TWO_PI,
    CoherentParam,
    FockParam,
    SqueezeParam,
    build_source,
    cat_coherent,
    cat_squeezed,
    suggest_cutoff,
)

# Every branch, detected or unconditional, whose probability falls below this
# is reported with probability zero and no conditional state.
ZERO_BRANCH_THRESHOLD = 1e-12

DB = "Db_fires"
DC = "Dc_fires"


@dataclass(frozen=True)
class SuperpositionParams:
    source_a: SqueezeParam | CoherentParam
    tau: float
    theta: float = 0.0
    eps: float = DEFAULT_LEAKAGE


@dataclass(frozen=True)
class EntanglementParams:
    source_a: SqueezeParam | CoherentParam
    source_a2: SqueezeParam | CoherentParam
    tau: float
    tau2: float
    theta: float = 0.0
    eps: float = DEFAULT_LEAKAGE


@dataclass(frozen=True)
class Branch:
    """One detection outcome: conditional state and its probability."""

    outcome: tuple[tuple[str, int], ...]
    probability: float
    state: MultiModeState | None

    @property
    def pre_norm(self) -> float:  # the branch's norm before normalizing
        return math.sqrt(self.probability)


@dataclass(frozen=True)
class ProtocolResult:
    """All detection branches, plus an optional trace of pipeline stages."""

    branches: Mapping[str, Branch]
    trace: tuple[tuple[str, MultiModeState], ...] | None = None

    def __getitem__(self, name: str) -> Branch:
        return self.branches[name]


def _detection_branch(state: MultiModeState, outcome) -> Branch:
    remaining, prob = project_modes(state, outcome)
    if prob < ZERO_BRANCH_THRESHOLD:
        return Branch(tuple(outcome), 0.0, None)
    return Branch(tuple(outcome), prob, normalize(remaining))


def run_superposition(params: SuperpositionParams, trace: bool = False) -> ProtocolResult:
    """Single-photon interferometer with one Kerr-coupled data mode.

    Detector branches over the (b, c) ports:

    * ``Db_fires`` (1, 0): data mode ~ rotated - e^{i theta} original,
    * ``Dc_fires`` (0, 1): data mode ~ rotated + e^{i theta} original.
    """
    return _click_branches(run_circuit(superposition_program(params), params.eps, trace))


def run_entanglement(params: EntanglementParams, trace: bool = False) -> ProtocolResult:
    """Two Kerr media couple the photon's transmitted arm to two data modes.

    A click projects modes (a, a2) onto rotated (x) rotated -+ e^{i theta}
    original (x) original; ``Db_fires`` carries the minus combination.
    """
    return _click_branches(run_circuit(entanglement_program(params), params.eps, trace))


def _click_branches(result: ProtocolResult) -> ProtocolResult:
    """Name the two single-click outcomes of a protocol circuit; a click the
    circuit dropped below ``ZERO_BRANCH_THRESHOLD`` is a zero branch."""
    branches = {}
    for name, outcome in ((DB, (("b", 1), ("c", 0))), (DC, (("b", 0), ("c", 1)))):
        branch = result.branches.get(_outcome_key(outcome))
        branches[name] = branch or Branch(outcome, 0.0, None)
    return ProtocolResult(branches, result.trace)


def superposition_targets(params: SuperpositionParams) -> dict[str, MultiModeState]:
    """Canonical parity cats of the source on mode ``a``, for branch
    fidelity reporting.

    Keys ``even_cat`` / ``odd_cat``; a key is omitted when the cat vanishes
    identically (zero-amplitude source).
    """
    source, eps = params.source_a, params.eps
    cat = cat_squeezed if isinstance(source, SqueezeParam) else cat_coherent
    cutoff = suggest_cutoff(source, eps)
    targets = {}
    for name, sign in (("even_cat", +1), ("odd_cat", -1)):
        try:
            targets[name] = single("a", cat(source, sign, cutoff, eps))
        except ZeroStateError:
            pass
    return targets


def entanglement_targets(params: EntanglementParams) -> dict[str, MultiModeState]:
    """Analytic two-mode conditional states over labels (a, a2).

    Keys ``pair_plus`` / ``pair_minus``; a key is omitted when that
    combination vanishes identically (e.g. both taus zero for the minus
    branch). Each rotated source is built at the cutoff of its unrotated one.
    """
    a, a2, eps = params.source_a, params.source_a2, params.eps
    cutoff_a, cutoff_a2 = suggest_cutoff(a, eps), suggest_cutoff(a2, eps)
    base = tensor_product(
        single("a", build_source(a, cutoff_a, eps)), single("a2", build_source(a2, cutoff_a2, eps))
    ).tensor
    rotated = tensor_product(
        single("a", build_source(a.kerr_rotated(params.tau), cutoff_a, eps)),
        single("a2", build_source(a2.kerr_rotated(params.tau2), cutoff_a2, eps)),
    ).tensor
    phase = np.exp(1j * math.fmod(params.theta, TWO_PI))
    targets = {}
    for name, sign in (("pair_plus", +1), ("pair_minus", -1)):
        try:
            targets[name] = MultiModeState(("a", "a2"), _unit(rotated + sign * phase * base))
        except ZeroStateError:
            pass
    return targets


def superposition_program(params: SuperpositionParams) -> "dsl.CircuitProgram":
    """The one-data-mode pipeline as a circuit program."""
    return dsl.CircuitProgram(
        modes=(("a", suggest_cutoff(params.source_a, params.eps)), ("b", 1), ("c", 1)),
        sources=(("a", params.source_a), ("b", FockParam(1))),
        elements=(
            BalancedBeamSplitter("b", "c"),
            CrossKerr("a", "b", params.tau),
            PhaseShift("c", params.theta),
            BalancedBeamSplitter("b", "c"),
        ),
        detects=(Detect("b", 1), Detect("c", 0)),
    )


def entanglement_program(params: EntanglementParams) -> "dsl.CircuitProgram":
    """The two-data-mode pipeline as a circuit program."""
    return dsl.CircuitProgram(
        modes=(
            ("a", suggest_cutoff(params.source_a, params.eps)),
            ("b", 1),
            ("c", 1),
            ("a2", suggest_cutoff(params.source_a2, params.eps)),
        ),
        sources=(("a", params.source_a), ("b", FockParam(1)), ("a2", params.source_a2)),
        elements=(
            BalancedBeamSplitter("b", "c"),
            CrossKerr("a", "b", params.tau),
            PhaseShift("c", params.theta),
            CrossKerr("a2", "b", params.tau2),
            BalancedBeamSplitter("b", "c"),
        ),
        detects=(Detect("b", 1), Detect("c", 0)),
    )


UNCONDITIONAL = "unconditional"


def run_circuit(
    program: "dsl.CircuitProgram", eps: float = DEFAULT_LEAKAGE, trace: bool = False
) -> ProtocolResult:
    """Run the program's elements and detections.

    The program is checked by :func:`dsl.validate_program` before any state
    is built, so a state above ``dsl.MAX_STATE_DIMENSION`` amplitudes raises
    :class:`kerrcat.errors.CutoffError` without being allocated. Every
    source is then built (and checked against ``eps``). Each declared mode
    then joins the state just before the first element that touches it, at
    its declared axis position; modes no element touches join after the
    last element. The state's labels therefore always keep the declared
    order, and an element never acts on modes it has not yet met. With
    ``trace`` the result lists the state after each join and each element,
    named by the DSL line behind it: the ``source`` line of the joining
    mode (``mode <label> cutoff <n>`` for a vacuum mode), or the element's
    own line.

    Detection directives are enumerated as joint outcomes over the detected
    modes, in ascending photon numbers with the first detected mode
    slowest. The joint photon-number law of those modes is computed once
    and only outcomes whose law clears half the zero-branch threshold are
    sliced out of the state; each sliced outcome is then kept when its own
    squared norm is at or above the threshold, exactly as if every outcome
    had been sliced (the half is a margin far wider than the rounding
    difference between the two sums). Kept branches are keyed like
    ``"b=1 c=0"``. The outcome combination the program asks for is always
    reported, in its place in that order, with probability zero and no
    state if it falls below the threshold. Without any detection the single
    branch is keyed ``"unconditional"``, under the same zero rule.
    """
    dsl.validate_program(program)

    sources = dict(program.sources)
    declared = [label for label, _ in program.modes]
    unjoined = {
        label: build_source(sources.get(label), cutoff, eps) for label, cutoff in program.modes
    }
    state = MultiModeState((), np.array(1.0 + 0.0j))
    stages = []
    # the trailing None stands for detection, before which every mode joins
    for element in (*program.elements, None):
        touched = unjoined if element is None else element_modes(element)
        for label in [m for m in declared if m in unjoined and m in touched]:
            state = _joined(state, label, unjoined.pop(label), declared)
            if trace:
                param = sources.get(label)
                line = (
                    dsl.format_mode(label, state.cutoff(label))
                    if param is None
                    else dsl.format_source(label, param)
                )
                stages.append((line, state))
        if element is not None:
            state = apply_element(state, element)
            if trace:
                stages.append((dsl.format_element(element), state))

    detected = [(d.mode, d.n) for d in program.detects]
    branches: dict[str, Branch] = {}
    if not detected:
        branches[UNCONDITIONAL] = _detection_branch(state, ())
    else:
        requested = tuple(detected)
        modes = [m for m, _ in detected]
        candidates = joint_photon_distribution(state, modes) >= ZERO_BRANCH_THRESHOLD / 2
        candidates[tuple(n for _, n in detected)] = True
        for counts in np.argwhere(candidates).tolist():
            outcome = tuple(zip(modes, counts))
            branch = _detection_branch(state, outcome)
            if branch.probability >= ZERO_BRANCH_THRESHOLD or outcome == requested:
                branches[_outcome_key(outcome)] = branch
    return ProtocolResult(branches, tuple(stages) if trace else None)


def _joined(state: MultiModeState, label: str, vector: FockVector, declared) -> MultiModeState:
    """``state`` with ``vector`` joined as mode ``label``, its axis placed so
    that the labels keep their ``declared`` order."""
    at = sum(declared.index(m) < declared.index(label) for m in state.labels)
    # one broadcast product, laid out in the joined axis order
    ones = (1,) * (state.tensor.ndim - at)
    column = vector.amplitudes.reshape(vector.amplitudes.shape + ones)
    rest = state.tensor.reshape(state.tensor.shape[:at] + (1,) + state.tensor.shape[at:])
    # complex products round differently with their operands swapped; a mode
    # joining in front multiplies from the left, like tensor_product(mode, rest)
    tensor = column * rest if at == 0 else rest * column
    labels = state.labels[:at] + (label,) + state.labels[at:]
    return MultiModeState(labels, _Owned(tensor))


def _outcome_key(outcome) -> str:
    return " ".join(f"{mode}={n}" for mode, n in outcome)
