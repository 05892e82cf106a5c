"""Conditional-state protocols and the circuit runner.

Both built-in pipelines interfere a single photon with itself across two
50:50 beam splitters. Between the splitters, one arm picks up a cross-Kerr
phase from the data mode(s) and the other a fixed phase shift; detecting
which output port the photon exits then projects the data mode(s) onto a
superposition (one data mode) or an entangled pair (two data modes) of the
original and the Kerr-rotated source states.

Each pipeline is a circuit program (``superposition_program``,
``entanglement_program``) run as a batch (:func:`run_batches`), the only
place states go through elements. It joins each declared mode to the state
just before the first element that touches it, so the photon modes are
mixed before any data mode joins them; ``run_superposition`` and
``run_entanglement`` run their program and name the two click outcomes
``Db_fires`` (b=1 c=0) and ``Dc_fires`` (b=0 c=1). Each data mode's cutoff
is ``suggest_cutoff`` of its source at the protocol's one budget ``eps``.

Nothing is cached. A sweep sizes its points through one cutoff table, each
batch builds each distinct source once (:func:`_source_stacks`), and each
result carries its modes' vectors (``ProtocolResult.sources``) to its targets.

Programs that share their :func:`layout` (their modes and cutoffs, their
detections, the kind and modes of every element and every source, and
their Fock and vacuum sources) run as a batch, one state pass with a
leading member axis. Their squeezed and coherent parameters and their
element angles may differ (a sweep over ``r`` at one cutoff, or over
``tau``, ``tau2`` and ``theta``). Until the first source or angle that
differs, one member stands for them all. A single run is a batch of one,
and each member's result equals it to the bit (:func:`run_batches`).
Detection takes one Born-rule law per batch, with the member axis leading.

The Kerr rotation acts on the source parameters as ``kerr_rotated`` (in
``kerrcat.states``): alpha -> alpha * exp(-i * tau) and phi -> phi - 2 * tau
per photon in the coupled mode. The targets use it; the circuit elements
themselves are state-agnostic diagonal phases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import dsl
from .elements import (
    _CHUNK_AMPLITUDES,
    BalancedBeamSplitter,
    CrossKerr,
    Detect,
    PhaseShift,
    apply_batch,
    element_modes,
)
from .errors import CutoffError, FockSpaceError
from .fock import (
    ZERO_NORM_THRESHOLD,
    FockVector,
    MultiModeState,
    _checked_members,
    _Owned,
    _units,
)
from .states import (
    DEFAULT_LEAKAGE,
    TWO_PI,
    CoherentParam,
    FockParam,
    SqueezeParam,
    _law,
    _parity_cat,
    build_source,
    suggest_cutoff,
)

# Every branch, detected or unconditional, whose probability falls below this
# is reported with probability zero and no conditional state.
ZERO_BRANCH_THRESHOLD = 1e-12
# Most outcomes one run's detection may keep. A kept branch costs about 3.8 KB
# (its row, Branch and record): 16 detected coherent modes at cutoff 1 keep all
# 65,536 outcomes, and their run took 3.4 s and peaked at 279 MB (2-vCPU VM).
MAX_KEPT_BRANCHES = 1 << 16

DB = "Db_fires"
DC = "Dc_fires"
# each click's report name, and its branch's key and outcome in a circuit result
_CLICKS = {DB: ("b=1 c=0", (("b", 1), ("c", 0))), DC: ("b=0 c=1", (("b", 0), ("c", 1)))}


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


class Kept:
    """A batch's kept branches: ``rows[j]``, over the remaining modes ``labels``,
    is a stack member's slice at the detected counts of one branch over the
    root of its probability. ``rows`` is one read-only C-ordered copy, so the
    batch's final stack dies with detection."""

    def __init__(self, labels: tuple[str, ...], rows):
        self.labels, self.rows = labels, rows


@dataclass(frozen=True)
class Branch:
    """One detection outcome and its probability. A kept branch is row ``row``
    of its batch's :class:`Kept`; ``state``, its conditional state, is built
    from (a copy of) that row when first read. A zero branch has neither."""

    outcome: tuple[tuple[str, int], ...]
    probability: float
    row: int | None = None
    kept: Kept | None = field(default=None, repr=False)

    @property
    def pre_norm(self) -> float:  # the branch's norm before normalizing
        return math.sqrt(self.probability)

    @cached_property
    def state(self) -> MultiModeState | None:
        kept = self.kept
        return None if self.row is None else MultiModeState(kept.labels, kept.rows[self.row, ...])


@dataclass(frozen=True)
class ProtocolResult:
    """All detection branches, an optional trace of stages, and each mode's source vector."""

    branches: Mapping[str, Branch]
    trace: tuple[tuple[str, MultiModeState], ...] | None = None
    sources: Mapping[str, FockVector] = field(default_factory=dict, compare=False, repr=False)

    def __getitem__(self, name: str) -> Branch:
        return self.branches[name]


def run_superposition(params: SuperpositionParams, trace: bool = False) -> ProtocolResult:
    """Single-photon interferometer with one Kerr-coupled data mode.

    Detector branches over the (b, c) ports:

    * ``Db_fires`` (1, 0): data mode ~ rotated - e^{i theta} original,
    * ``Dc_fires`` (0, 1): data mode ~ rotated + e^{i theta} original.
    """
    return click_branches(run_circuit(superposition_program(params), params.eps, trace))


def run_entanglement(params: EntanglementParams, trace: bool = False) -> ProtocolResult:
    """Two Kerr media couple the photon's transmitted arm to two data modes.

    A click projects modes (a, a2) onto rotated (x) rotated -+ e^{i theta}
    original (x) original; ``Db_fires`` carries the minus combination.
    """
    return click_branches(run_circuit(entanglement_program(params), params.eps, trace))


def click_branches(result: ProtocolResult) -> ProtocolResult:
    """Name the two single-click outcomes of a protocol circuit; a click the
    circuit dropped below ``ZERO_BRANCH_THRESHOLD`` is a zero branch."""
    branches = {name: result.branches.get(key) or Branch(outcome, 0.0)
                for name, (key, outcome) in _CLICKS.items()}
    return ProtocolResult(branches, result.trace, result.sources)


def superposition_targets(params: SuperpositionParams) -> dict:
    """Canonical parity cats of the source on mode ``a``, for branch
    fidelity reporting: :func:`superposition_target_stacks` of the one point.

    Keys ``even_cat`` / ``odd_cat``; a key is omitted when the cat vanishes
    identically (zero-amplitude source).
    """
    return _point_targets(params, superposition_program, superposition_target_stacks, ("a",))


def superposition_target_stacks(points, sources) -> tuple[np.ndarray, dict]:
    """The targets of :func:`superposition_targets` of each of ``points`` (a
    batch's parameters: one source kind, one cutoff), from the vector that
    each point's run built on mode ``a`` (its ``sources``), as one stack, a
    row per cat of each distinct vector, and each name's row for each point
    (:func:`_target_rows`)."""
    distinct, at = {}, []  # a batch's equal sources are one vector
    for vector in (built["a"] for built in sources):
        at.append(distinct.setdefault(id(vector), (len(distinct), vector.amplitudes))[0])
    vectors = np.stack([amplitudes for _, amplitudes in distinct.values()])
    cats = [_parity_cat(points[0].source_a, vectors, sign) for sign in (+1, -1)]
    return _target_rows(("even_cat", "odd_cat"), np.concatenate(cats), at)


def entanglement_targets(params: EntanglementParams) -> dict:
    """Analytic two-mode conditional states over labels (a, a2):
    :func:`entanglement_target_stacks` of the one point.

    Keys ``pair_plus`` / ``pair_minus``; a key is omitted when that
    combination vanishes identically (e.g. both taus zero for the minus
    branch). A rotated source is the point's own vector if the rotation left
    its parameter as it was, else its own law at the cutoff of that vector,
    with no leakage check: the budget belongs to the circuit's sources.
    """
    return _point_targets(params, entanglement_program, entanglement_target_stacks, ("a", "a2"))


def entanglement_target_stacks(points, sources) -> tuple[np.ndarray, dict]:
    """The targets of :func:`entanglement_targets` of each of ``points`` (a
    batch's parameters: one cutoff per mode), from the vectors that each
    point's run built on modes ``a`` and ``a2`` (its ``sources``), as one
    stack, a row per combination of each point, and each name's row for each
    point (:func:`_target_rows`). Each rotated law is built once a call."""
    vectors, rotated = [], {}  # each point's source and rotated source on a, then on a2
    for p, built in zip(points, sources):
        for label, param, tau in (("a", p.source_a, p.tau), ("a2", p.source_a2, p.tau2)):
            vector, turned = built[label], param.kerr_rotated(tau)
            vectors += [vector, vector if turned == param
                        else _kept(rotated, (turned, vector.cutoff), _unchecked_source)]
    a, rotated_a, a2, rotated_a2 = (np.stack([v.amplitudes for v in vectors[k::4]])
                                    for k in range(4))
    base = a[:, :, None] * a2[:, None, :]
    rotated = rotated_a[:, :, None] * rotated_a2[:, None, :]
    phases = np.array([np.exp(1j * math.fmod(p.theta, TWO_PI)) for p in points]).reshape(-1, 1, 1)
    stack = np.empty((2 * len(points), *base.shape[1:]), dtype=np.complex128)
    for k, sign in enumerate((+1, -1)):  # in place, so that no combination is held twice
        np.add(rotated, sign * phases * base, out=stack[k * len(points):(k + 1) * len(points)])
    del base, rotated
    return _target_rows(("pair_plus", "pair_minus"), stack, range(len(points)))


def _target_rows(names, stack: np.ndarray, at) -> tuple[np.ndarray, dict]:
    """``stack``, one block of rows per name, each row divided by its norm
    (:func:`kerrcat.fock._units`), and each name's row for each point:
    ``at[i]`` in the name's block, None where that row vanishes."""
    stack, norms = _units(stack)
    block = len(stack) // len(names)
    return stack, {name: [k * block + j if norms[k * block + j] > ZERO_NORM_THRESHOLD else None
                          for j in at] for k, name in enumerate(names)}


def _point_targets(params, program, stacks, labels) -> dict:
    """One point's ``stacks`` over ``labels``, from the sources its ``program`` builds."""
    stack, rows = stacks([params], _source_stacks([program(params)], params.eps)[1])
    return {name: MultiModeState(labels, stack[at[0]])
            for name, at in rows.items() if at[0] is not None}


def superposition_program(params: SuperpositionParams, cutoffs=None) -> "dsl.CircuitProgram":
    """The one-data-mode pipeline as a circuit program, sized through ``cutoffs``."""
    return _scheme(params, (("a", params.source_a, params.tau),), cutoffs)


def entanglement_program(params: EntanglementParams, cutoffs=None) -> "dsl.CircuitProgram":
    """The two-data-mode pipeline as a circuit program, sized through ``cutoffs``."""
    arms = (("a", params.source_a, params.tau), ("a2", params.source_a2, params.tau2))
    return _scheme(params, arms, cutoffs)


def _scheme(params, arms, cutoffs) -> "dsl.CircuitProgram":
    """Both pipelines' interferometer: the photon on b, a splitter with c, a Kerr
    medium between b and each data mode of ``arms`` ((label, source, tau); the
    first comes before b, c and the phase on c, the rest after them), a splitter,
    and the b=1 c=0 click. Each data mode is sized at ``params.eps`` through ``cutoffs``."""
    cutoffs = {} if cutoffs is None else cutoffs
    modes = [(label, _kept(cutoffs, (source, params.eps), suggest_cutoff))
             for label, source, _ in arms]
    sources = [(label, source) for label, source, _ in arms]
    kerrs = [CrossKerr(label, "b", tau) for label, _, tau in arms]
    return dsl.CircuitProgram(
        modes=(modes[0], ("b", 1), ("c", 1), *modes[1:]),
        sources=(sources[0], ("b", FockParam(1)), *sources[1:]),
        elements=(BalancedBeamSplitter("b", "c"), kerrs[0], PhaseShift("c", params.theta),
                  *kerrs[1:], BalancedBeamSplitter("b", "c")),
        detects=(Detect("b", 1), Detect("c", 0)),
    )


def _kept(table: dict, key: tuple, build):
    """``table[key]``, made by ``build(*key)`` on a miss; a failed build stores nothing.
    Keys: (parameter, budget) for a cutoff, (parameter, cutoff, budget) for a source,
    and (parameter, cutoff) for a rotated source."""
    value = table.get(key)
    if value is None:
        value = table[key] = build(*key)
    return value


def _unchecked_source(param, cutoff: int) -> FockVector:
    """A checked source has the bits of an unchecked one: one law, one cutoff."""
    return FockVector(_Owned(_law(param, cutoff)[0]))


UNCONDITIONAL = "unconditional"


def run_circuit(
    program: "dsl.CircuitProgram", eps: float = DEFAULT_LEAKAGE, trace: bool = False
) -> ProtocolResult:
    """Run the program's elements and detections as a batch of one, raising its errors.

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

    Detection reads one law, the final state's ``joint_photon_distribution``
    of the detected modes (to the bit), in ascending photon numbers with the
    first detected mode slowest. An outcome whose entry is at or above
    ``ZERO_BRANCH_THRESHOLD`` is kept, keyed like ``"b=1 c=0"``, with the
    entry as its probability and its slice over the entry's root as a row
    of the run's :class:`Kept` array, from which ``Branch.state`` is built
    when read; the requested outcome is always reported, in its place, as a
    zero branch (no row, no state) below it. Without any detection the law
    is the squared norm, and the one branch, ``"unconditional"``, follows
    the same rule. A law that keeps more than ``MAX_KEPT_BRANCHES`` outcomes
    raises :class:`kerrcat.errors.CutoffError` before any row is copied.
    """
    return _run_batch([program], eps, trace)[0]


# the errors that a program of run_batches gives as its own result
_POINT_ERRORS = (FockSpaceError, FloatingPointError, ValueError)


def run_batches(programs: Iterable, eps: float = DEFAULT_LEAKAGE) -> Iterator[list]:
    """Each program's result, a list per batch, in program order; a result
    equals :func:`run_circuit` of its program alone, to the bit.

    ``programs`` is read as the batches run. Neighbours of one :func:`layout`
    run as batches of at most ``_CHUNK_AMPLITUDES`` (a splitter chunk) over
    their members, each one pass of a stack with a leading member axis, whose
    results alone outlive it. A batch validates its first program, builds each
    distinct source once into its source table, checked against ``eps``, and
    checks each member of every stage's stack as a :class:`MultiModeState` is.
    A batch that raises one of ``_POINT_ERRORS`` runs again a program at a
    time; a program that fails alone gives its error, as a batch of one, in
    place of its result, and so does an exception given in place of a program.
    A batch's kept branches are the rows of one :class:`Kept` array, copied
    out of its final stack; no branch builds its state until it is read.
    """
    for key, group in itertools.groupby(programs, _batch_key):
        if isinstance(key, Exception):
            yield [key]
            continue
        amplitudes = math.prod(c + 1 for _, c in key[0])  # the layout's modes
        while batch := list(itertools.islice(group, max(1, _CHUNK_AMPLITUDES // amplitudes))):
            yield from _isolated(batch, eps)


def _batch_key(program):  # an exception equals only itself, so it is a group of its own
    return program if isinstance(program, Exception) else layout(program)


def _isolated(programs, eps: float) -> Iterator[list]:
    """The results of one batch, or, when it fails, of each program alone."""
    try:
        yield _run_batch(programs, eps, False)
    except _POINT_ERRORS as err:
        if len(programs) == 1:
            yield [err]
        else:
            for program in programs:
                yield from _isolated([program], eps)


def _run_batch(programs, eps: float, trace: bool) -> list[ProtocolResult]:
    first = programs[0]
    dsl.validate_program(first)
    params = dict(first.sources)
    declared = [label for label, _ in first.modes]
    unjoined, sources = _source_stacks(programs, eps)
    # until the first source or angle that differs, one member stands for all
    stack, labels = np.ones(1, dtype=np.complex128), ()
    stages = []

    def traced() -> MultiModeState:  # a traced batch has one member
        return MultiModeState(labels, _Owned(stack[0, ...]))

    # the trailing None stands for detection, before which every mode joins;
    # each stack is checked before it is read, by the next stage or, the
    # last, by detection
    for k, element in enumerate((*first.elements, None)):
        touched = unjoined if element is None else element_modes(element)
        for label in [m for m in declared if m in unjoined and m in touched]:
            vectors = unjoined.pop(label)
            stack, labels = _joined(_checked_members(stack), labels, label, vectors, declared)
            if trace:
                param = params.get(label)
                line = (
                    dsl.format_mode(label, vectors.shape[1] - 1)
                    if param is None
                    else dsl.format_source(label, param)
                )
                stages.append((line, traced()))
        if element is not None:
            axes = [1 + labels.index(mode) for mode in touched]
            members = [program.elements[k] for program in programs]
            stack = apply_batch(_checked_members(stack), axes, members)
            if trace:
                stages.append((dsl.format_element(element), traced()))
    stages = tuple(stages) if trace else None
    detected = _branches(_checked_members(stack), labels, first.detects, len(programs))
    return [ProtocolResult(branches, stages, built) for branches, built in zip(detected, sources)]


def _source_stacks(programs, eps: float) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Each declared mode's source amplitudes as a ``(members, cutoff + 1)``
    stack, of one row when every member has the same source, and each
    member's source vector by mode label. Each distinct source is built once,
    into a table that no caller sees."""
    table, sources = {}, []
    for program in programs:  # member by member: a failing member raises its own first error
        params = dict(program.sources)
        sources.append({label: _kept(table, (params.get(label), cutoff, eps), build_source)
                        for label, cutoff in program.modes})
    columns = {label: [built[label].amplitudes for built in sources] for label in sources[0]}
    return {label: rows[0][None] if all(row is rows[0] for row in rows) else np.stack(rows)
            for label, rows in columns.items()}, sources


def layout(p: "dsl.CircuitProgram"):
    """What the programs of one batch share (:func:`run_batches`): all but
    their squeezed and coherent values, which no circuit rule reads (a Fock
    n is read against its cutoff), and their element angles."""
    sources = [(m, s if isinstance(s, FockParam) else type(s)) for m, s in p.sources]
    return p.modes, sources, p.detects, [(type(e), element_modes(e)) for e in p.elements]


def _branches(stack: np.ndarray, labels, detects, count: int) -> list[dict[str, Branch]]:
    """Each of ``count`` members' branches, from one law: ``|stack|^2`` summed
    over the undetected modes, member axis first, detected axes in request
    order. Every kept slice is copied out, divided by the root of its law
    entry, into the rows of one :class:`Kept`, which the branches share."""
    requested = tuple((d.mode, d.n) for d in detects)
    modes = [m for m, _ in requested]
    # a view with the detected axes first, in request order; the rest keep theirs
    remaining = tuple(label for label in labels if label not in modes)
    stack = stack.transpose([0, *(1 + labels.index(m) for m in (*modes, *remaining))])
    law = np.abs(stack)
    np.square(law, out=law)  # in place: one float array beside the state
    if len(modes) < len(labels):
        law = law.sum(axis=tuple(range(1 + len(modes), stack.ndim)))
    kept = law >= ZERO_BRANCH_THRESHOLD
    kept[(slice(None), *(n for _, n in requested))] = True
    most = int(kept.reshape(len(kept), -1).sum(axis=1).max())  # each member's kept outcomes
    if most > MAX_KEPT_BRANCHES:
        raise CutoffError(f"detection would keep {most} branches; the cap is {MAX_KEPT_BRANCHES}")
    found = np.argwhere(kept)  # (member, counts), ascending with the member slowest
    probabilities = law[tuple(found.T)]
    live = probabilities >= ZERO_BRANCH_THRESHOLD  # all but a requested zero outcome
    rows = stack[tuple(found[live].T)]
    rows /= np.sqrt(probabilities[live]).reshape((-1,) + (1,) * (rows.ndim - 1))
    rows.setflags(write=False)
    slices = Kept(remaining, rows)
    members, named, row = [{} for _ in range(len(stack))], {}, 0
    for (member, *counts), prob, alive in zip(found.tolist(), probabilities.tolist(), live.tolist()):
        counts = tuple(counts)
        key, outcome = named.get(counts) or named.setdefault(counts, _named(modes, counts))
        members[member][key] = Branch(outcome, prob, row, slices) if alive else Branch(outcome, 0.0)
        row += alive
    # one member stands for all when none differs
    return [dict(members[m % len(stack)]) for m in range(count)]


def _joined(stack: np.ndarray, labels: tuple[str, ...], label: str, vectors: np.ndarray, declared):
    """``stack`` with row m of the ``vectors`` stack joined to member m as
    mode ``label`` (one row stands for all members), its axis placed so that
    the labels keep their ``declared`` order, and the joined labels."""
    at = sum(declared.index(m) < declared.index(label) for m in labels)
    # one broadcast product, laid out in the joined axis order
    members, size = vectors.shape
    column = vectors.reshape((members,) + (1,) * at + (size,) + (1,) * (len(labels) - at))
    rest = stack.reshape(stack.shape[:1 + at] + (1,) + stack.shape[1 + at:])
    # complex products round differently with their operands swapped; a mode
    # joining in front multiplies from the left, like tensor_product(mode, rest)
    joined = column * rest if at == 0 else rest * column
    return joined, labels[:at] + (label,) + labels[at:]


def _named(modes, counts) -> tuple[str, tuple]:
    """An outcome's key, like ``"b=1 c=0"`` (``"unconditional"`` with no
    detection), and its (mode, count) pairs."""
    outcome = tuple(zip(modes, counts))
    return " ".join(f"{mode}={n}" for mode, n in outcome) or UNCONDITIONAL, outcome
