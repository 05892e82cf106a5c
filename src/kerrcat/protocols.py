"""Conditional-state protocols and the circuit runner.

Both built-in pipelines interfere a single photon with itself across two
50:50 beam splitters. Between them, one arm picks up a cross-Kerr phase from
the data mode(s) and the other a fixed phase shift; the port the photon exits
by projects the data mode(s) onto a superposition (one data mode) or an
entangled pair (two) of the original and the Kerr-rotated sources. Each is a
circuit program (``superposition_program``, ``entanglement_program``);
``run_superposition`` and ``run_entanglement`` run it and name the clicks
``Db_fires`` (b=1 c=0) and ``Dc_fires`` (b=0 c=1). Each data mode's cutoff is
``suggest_cutoff`` of its source at the protocol's one budget ``eps``.

:func:`run_batches` is the only place states go through elements. Programs
that share their :func:`layout` (all but their squeezed and coherent values, element
angles and the cutoffs of the modes a batch zero-pads: factored ones, below, and the
:func:`_free` one, as the superposition scheme's data mode) run as a batch, one pass
of a stack with a leading member axis; until the first source or angle that differs,
one member stands for them all, and each member's result equals its run alone to the
bit (a padded free mode would move only a splitter gemm's, so a splitter runs the
members of one length at a time). Each batch builds each distinct source once, and each
result carries its modes' vectors (``ProtocolResult.sources``) to its targets. Nothing is cached.

Two factored modes (``dsl.factored_modes``, as the entanglement scheme's data
modes) never join the dense product: the state is a sum of terms, a core tensor
over the other modes times each factored mode's source rotated by the term's
angle, ``e^{i phi n}``. The core stack has a row per term of each member (the
kernels see more members), and each factored mode an angle per member and
term: a phase adds to it, and a Kerr medium against core mode m splits every
term not yet fixed on m by m's count j, slicing its core at j and adding
``-tau j``. Before detection the terms are rewritten as differences
(:func:`_differenced`); detection reads the law from them and the modes' Gram
matrices (:func:`_branches`), over each member's own lengths of the vectors,
which a batch zero-pads to its longest. A traced run is dense.

``kerr_rotated`` (in ``kerrcat.states``) is the rotation on the source
parameters, which the targets use: alpha -> alpha * exp(-i * tau) and
phi -> phi - 2 * tau per photon in the coupled mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
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
from .elements import _photon_numbers, _reduced_angle
from .errors import CutoffError, FockSpaceError
from .fock import (
    ZERO_NORM_THRESHOLD,
    FockVector,
    MultiModeState,
    _checked_members,
    _Owned,
    _units,
)
from .fock import _check_norm_bound, _grams, _overlaps, _products
from .states import (
    DEFAULT_LEAKAGE,
    MAX_STATE_DIMENSION,
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
    """A batch's kept branches: ``rows[j]``, over the remaining modes ``labels``, is a stack member's
    slice at the detected counts of one branch over the root of its probability. ``rows`` is one
    read-only C-ordered copy, so the batch's final stack dies with detection. ``factored`` holds them
    as ``kerrcat.fock`` reads a stack: the term coefficients ``rows`` (a dense row is one term), each
    mode's term ``vectors`` and their ``lengths`` of a row, zeros past them (a :func:`_free` mode's too)."""

    def __init__(self, labels: tuple[str, ...], rows, vectors=None, lengths=None):
        self.labels, self.rows, self.vectors, self.lengths = labels, rows, vectors, lengths
        self.factored = (rows, vectors, lengths) if vectors else (
            np.ones((len(rows), 1)), (rows.reshape(len(rows), 1, math.prod(rows.shape[1:])),), lengths)


@dataclass(frozen=True)
class Branch:
    """One detection outcome and its probability. A kept branch is row ``row``
    of its batch's :class:`Kept`; ``state``, its conditional state, is built
    from (a copy of) that row, at its own cutoffs, when first read (a factored
    one's dense tensor above ``MAX_STATE_DIMENSION`` raises :class:`CutoffError`).
    A zero branch has neither."""

    outcome: tuple[tuple[str, int], ...]
    probability: float
    row: int | None = None
    kept: Kept | None = field(default=None, repr=False)

    @property
    def pre_norm(self) -> float:  # the branch's norm before normalizing
        return math.sqrt(self.probability)

    @cached_property
    def state(self) -> MultiModeState | None:
        if self.row is None:
            return None
        kept, row = self.kept, slice(self.row, self.row + 1)
        cut = [slice(n[self.row]) for n in kept.lengths or ()]  # the row's own cutoffs
        own = kept.vectors and [v[row, :, c] for v, c in zip(kept.vectors, cut)]
        return MultiModeState(kept.labels, kept.rows[(self.row, ..., *cut)] if kept.vectors is None
                              else _Owned(_dense(kept.rows[row], own)[0]))


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
    batch's parameters: one source kind), from the vector that each point's
    run built on mode ``a`` (its ``sources``), as one stack, a row per cat of
    each distinct vector, zero-padded to the longest (each row's norm and
    lengths its own), and each name's row for each point (:func:`_target_rows`)."""
    distinct, at = {}, []  # a batch's equal sources are one vector
    for vector in (built["a"] for built in sources):
        at.append(distinct.setdefault(id(vector), (len(distinct), vector.amplitudes))[0])
    rows = [amplitudes for _, amplitudes in distinct.values()]
    lengths, vectors = [len(row) for row in rows] * 2, _padded(rows)
    cats = [_parity_cat(points[0].source_a, vectors, sign) for sign in (+1, -1)]
    stack, norms = _units(np.concatenate(cats), lengths)  # each cat one term
    return _target_rows(("even_cat", "odd_cat"), Kept((), stack, None, (lengths,)).factored, norms, at)


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
    batch's parameters), from the vectors that each point's run built on
    modes ``a`` and ``a2`` (its ``sources``), as one factored stack (three
    terms, below), a row per combination of each point, its vectors
    zero-padded to the longest, and each name's row for each point
    (:func:`_target_rows`). Each rotated law is built once a call."""
    vectors, rotated = [], {}  # each point's source and rotated source on a, then on a2
    for p, built in zip(points, sources):
        for label, param, tau in (("a", p.source_a, p.tau), ("a2", p.source_a2, p.tau2)):
            vector, turned = built[label], param.kerr_rotated(tau)
            vectors += [vector, vector if turned == param
                        else _kept(rotated, (turned, vector.cutoff), _unchecked_source)]
    a, rotated_a, a2, rotated_a2 = (_padded([v.amplitudes for v in vectors[k::4]])
                                    for k in range(4))
    phases, ones = (np.array([np.exp(1j * math.fmod(p.theta, TWO_PI)) for p in points]),
                    np.ones(len(points), dtype=np.complex128))
    # R a (x) R' a2 + s a (x) a2 as (R a - a) (x) R' a2 + a (x) (R' a2 - a2) + (1 + s) a (x) a2,
    # whose terms do not cancel: a near-zero pair keeps the digits of its Gram sums
    coefficients = np.concatenate([np.stack([ones, ones, 1 + sign * phases], 1) for sign in (+1, -1)])
    arms = tuple(np.concatenate([np.stack(terms, 1)] * 2)
                 for terms in ((rotated_a - a, a, a), (rotated_a2, rotated_a2 - a2, a2)))
    stack = (coefficients, arms, [[v.amplitudes.size for v in vectors[k::4]] * 2 for k in (0, 2)])
    norms = np.sqrt(np.maximum(_overlaps(stack, stack).real, 0.0))
    coefficients /= np.where(norms > ZERO_NORM_THRESHOLD, norms, 1.0)[:, None]
    return _target_rows(("pair_plus", "pair_minus"), stack, norms, range(len(points)))


def _target_rows(names, stack, norms, at) -> tuple[tuple, dict]:
    """``stack``, a factored stack of a block of unit rows per name, and each
    name's row for each point: ``at[i]`` in its block, None where ``norms``,
    the rows' norms before division, vanish."""
    block = len(norms) // len(names)
    return stack, {name: [k * block + j if norms[k * block + j] > ZERO_NORM_THRESHOLD else None
                          for j in at] for k, name in enumerate(names)}


def _point_targets(params, program, stacks, labels) -> dict:
    """One point's ``stacks`` over ``labels``, from the sources its ``program`` builds."""
    stack, rows = stacks([params], _source_stacks([program(params)], params.eps)[1])
    dense = _dense(*stack[:2])
    return {name: MultiModeState(labels, dense[at[0]])
            for name, at in rows.items() if at[0] is not None}


def _dense(coefficients, vectors) -> np.ndarray:
    """Each row of a factored stack as a dense tensor; rows above
    ``MAX_STATE_DIMENSION`` amplitudes in all raise :class:`CutoffError` unbuilt."""
    size = len(coefficients) * math.prod(v.shape[-1] for v in vectors)
    if size > MAX_STATE_DIMENSION:
        raise CutoffError(f"a dense state of {size} amplitudes is above the maximum state "
                          f"dimension {MAX_STATE_DIMENSION}")
    return _products(coefficients, vectors)


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
    and the b=1 c=0 click. Each data mode is sized at ``params.eps`` through ``cutoffs``, up to
    the most it holds beside the photon modes' 4 amplitudes (as MAX_TERMS**2 vectors if factored)."""
    cutoffs = {} if cutoffs is None else cutoffs
    size = partial(suggest_cutoff, ceiling=(MAX_STATE_DIMENSION - 4) // dsl.MAX_TERMS**2 - 1
                   if len(arms) == 2 else MAX_STATE_DIMENSION // 4 - 1)
    modes = [(label, _kept(cutoffs, (source, params.eps), size)) for label, source, _ in arms]
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

    :func:`dsl.validate_program` checks the program before any state is
    built, so a state above ``dsl.MAX_STATE_DIMENSION`` amplitudes (a
    factored mode adds ``dsl.MAX_TERMS ** 2`` vectors, unless ``trace``)
    raises :class:`kerrcat.errors.CutoffError` unallocated. Every source is built,
    checked against ``eps``; each other mode joins the state, at its declared
    axis position, just before the first element that touches it, or after
    the last. With ``trace`` the run is dense, and lists the state after
    each join and element, named by its DSL line (a vacuum mode's ``mode``
    line).

    Detection reads one law over the detected modes, in ascending photon
    numbers with the first detected mode slowest: the final state's
    ``joint_photon_distribution`` to the bit, or with factored modes its
    Gram form (:func:`_branches`). An outcome at or above
    ``ZERO_BRANCH_THRESHOLD`` is kept, keyed like ``"b=1 c=0"``, with its
    entry as probability and its slice over the entry's root as a row of the
    run's :class:`Kept`, from which ``Branch.state`` is built when read; the
    requested outcome is always reported, in its place, below it as a zero
    branch (no row, no state). With no detection the law is the squared norm
    and the one branch ``"unconditional"``. A law that keeps more than
    ``MAX_KEPT_BRANCHES`` outcomes raises :class:`kerrcat.errors.CutoffError`.
    """
    return _run_batch([program], eps, () if trace else dsl.factored_modes(program), trace)[0]


# the errors that a program of run_batches gives as its own result
_POINT_ERRORS = (FockSpaceError, FloatingPointError, ValueError)


def run_batches(programs: Iterable, eps: float = DEFAULT_LEAKAGE) -> Iterator[list]:
    """Each program's result, a list per batch, in program order; a result
    equals :func:`run_circuit` of its program alone, to the bit.

    ``programs`` is read as the batches run. Neighbours of one :func:`layout` run as batches
    of at most ``_CHUNK_AMPLITUDES`` (a splitter chunk) over their members at the largest
    member's size, to which it zero-pads them, each one pass of a stack with a leading member
    axis, whose results alone outlive it. A batch validates one member (:func:`_run_batch`),
    builds each distinct source once, checked against ``eps``, and checks each row of every
    stage's stack as a :class:`MultiModeState` is. A batch that raises one of ``_POINT_ERRORS``
    runs again a program at a time; a program that fails alone, or an exception given in place
    of a program, is its result.
    """
    last = [None, None]  # the last program's layout, and its group's key

    def keyed(program):  # an exception equals only itself; factored_modes runs once a layout
        if not isinstance(program, Exception) and (shape := layout(program)) != last[0]:
            factored = dsl.factored_modes(program)
            last[:] = shape, layout(program, factored) if factored else shape
        return program if isinstance(program, Exception) else last[1]

    for key, group in itertools.groupby(programs, keyed):
        if isinstance(key, Exception):
            yield [key]
            continue
        first = next(group)
        factored, batch, largest = dsl.factored_modes(first), [], 0
        for program in itertools.chain([first], group):  # factored modes as vectors, the rest a product
            size = math.prod(c + 1 for m, c in program.modes if m not in factored) + sum(
                dsl.MAX_TERMS**2 * (c + 1) for m, c in program.modes if m in factored)
            if batch and (len(batch) + 1) * max(largest, size) > _CHUNK_AMPLITUDES:
                yield from _isolated(batch, eps, factored)
                batch, largest = [], 0
            batch.append(program)
            largest = max(largest, size)
        yield from _isolated(batch, eps, factored)


def _isolated(programs, eps: float, factored) -> Iterator[list]:
    """The results of one batch, or, when it fails, of each program alone."""
    try:
        yield _run_batch(programs, eps, factored, False)
    except _POINT_ERRORS as err:
        if len(programs) == 1:
            yield [err]
        else:
            for program in programs:
                yield from _isolated([program], eps, factored)


def _run_batch(programs, eps: float, factored, trace: bool) -> list[ProtocolResult]:
    first, count = programs[0], len(programs)
    # a layout's members differ in no rule but their padded sizes: the widest (or first) stands for all
    dsl.validate_program(max(programs, key=lambda p: sum(c for _, c in p.modes)))
    if trace:  # a traced run is dense
        dsl._check(first, dense=True)
    params = dict(first.sources)
    declared = [label for label, _ in first.modes]
    unjoined, sources = _source_stacks(programs, eps)
    # each factored mode's source stack, and its angle of each member's each term
    held = {label: (unjoined.pop(label), np.zeros((count, 1))) for label in factored}
    # each zero-padded mode's lengths: every factored mode's, and the free mode's where they differ
    lengths = {m: np.array([b[m].amplitudes.size for b in sources]) for m in (*factored, _free(first)) if m}
    padded = {m: n for m, n in lengths.items() if m in factored or n.min() < n.max()}
    # until the first source or angle that differs, one member stands for all
    stack, labels = np.ones(count if factored else 1, dtype=np.complex128), ()
    # each term's photon numbers on the core modes that split it, until a splitter mixes them
    fixed, stages = [{}], []

    def traced() -> MultiModeState:  # a traced batch has one member
        return MultiModeState(labels, _Owned(stack[0, ...]))

    # the trailing None stands for detection, before which every core mode
    # joins; each stack is checked before it is read, by the next stage or,
    # the last, by detection
    for k, element in enumerate((*first.elements, None)):
        touched = unjoined if element is None else element_modes(element)
        for label in [m for m in declared if m in unjoined and m in touched]:
            vectors = unjoined.pop(label)
            vectors = np.repeat(vectors, len(fixed), axis=0) if len(vectors) > 1 else vectors
            stack, labels = _joined(_checked_members(stack), labels, label, vectors, declared)
            if trace:
                param = params.get(label)
                line = (
                    dsl.format_mode(label, vectors.shape[1] - 1)
                    if param is None
                    else dsl.format_source(label, param)
                )
                stages.append((line, traced()))
        if element is None:
            break
        members = [program.elements[k] for program in programs]
        mode = next((m for m in touched if m in held), None)
        if mode is None:
            if isinstance(element, BalancedBeamSplitter):
                fixed = [{m: n for m, n in f.items() if m not in touched} for f in fixed]
            axes = [1 + labels.index(m) for m in touched]
            ragged = [(1 + labels.index(m), n) for m, n in padded.items() if m in labels]
            stack = apply_batch(_checked_members(stack), axes, [e for e in members for _ in fixed], *ragged)
            if trace:
                stages.append((dsl.format_element(element), traced()))
        elif isinstance(element, PhaseShift):
            source, angles = held[mode]
            held[mode] = source, angles + [[_reduced_angle(e.theta, "theta")] for e in members]
        else:  # a Kerr medium splits each term not yet fixed on its core mode by its count j
            core = element.mode_1 if element.mode_2 == mode else element.mode_2
            split = [(t, {**f, core: j}) for t, f in enumerate(fixed)
                     for j in ([f[core]] if core in f else range(stack.shape[1 + labels.index(core)]))]
            parents, j = [t for t, _ in split], np.array([f[core] for _, f in split])
            rows = _checked_members(stack).reshape(count, len(fixed), *stack.shape[1:])[:, parents]
            at = j.reshape((1, -1) + (1,) * (rows.ndim - 2)) == _photon_numbers(rows, 2 + labels.index(core))
            stack, fixed = np.where(at, rows, 0).reshape(-1, *stack.shape[1:]), [f for _, f in split]
            taus = np.array([[_reduced_angle(e.tau, "tau")] for e in members])
            held = {m: (source, angles[:, parents] - taus * j * (m == mode))
                    for m, (source, angles) in held.items()}
    stages = tuple(stages) if trace else None
    stack, vectors = _checked_members(stack), None
    if held:
        stack, vectors = _differenced(stack, held, count, len(fixed))
    detected = _branches(stack, labels, first.detects, count, vectors, list(padded.values()) or None)
    return [ProtocolResult(branches, stages, built) for branches, built in zip(detected, sources)]


def _differenced(stack, held, count: int, terms: int):
    """The final stack and each factored mode's term vectors, with the state
    ``sum_k C_k u_k (x) w_k`` written over the first term and the differences
    from it, ``du_k = u_0 expm1(i dphi n)``, so that no Gram sum cancels where
    the terms nearly do (as a branch of small probability's): the terms are
    ``u_0 w_0`` (coefficient ``sum_k C_k``), then ``du_k w_0``, ``u_0 dw_k``
    and ``du_k dw_k`` (coefficient ``C_k`` each, k > 0)."""
    rows = stack.reshape(count, terms, *stack.shape[1:])
    stack = np.concatenate([rows.sum(1, keepdims=True)] + [rows[:, 1:]] * 3, 1)
    vectors = {}
    for mode, picks in zip(held, ((0, 2, 1, 2), (0, 1, 2, 2))):  # u, then w, in that term order
        source, angles = held[mode]
        n = np.arange(source.shape[1])
        base = source[:, None, :] * np.exp(1j * angles[:, :1, None] * n)
        differences = base * np.expm1(1j * (angles[:, 1:] - angles[:, :1])[..., None] * n)
        parts = (base, np.repeat(base, terms - 1, 1), differences)
        vectors[mode] = np.concatenate([parts[k] for k in picks], 1)
    return stack.reshape(-1, *stack.shape[2:]), vectors


def _source_stacks(programs, eps: float) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Each declared mode's source amplitudes as a ``(members, cutoff + 1)``
    stack, zero-padded to the longest, of one row when every member has the same
    source, and each member's source vector by mode label. Each distinct source
    is built once, into a table that no caller sees."""
    table, sources = {}, []
    for program in programs:  # member by member: a failing member raises its own first error
        params = dict(program.sources)
        sources.append({label: _kept(table, (params.get(label), cutoff, eps), build_source)
                        for label, cutoff in program.modes})
    columns = {label: [built[label].amplitudes for built in sources] for label in sources[0]}
    return {label: rows[0][None] if all(row is rows[0] for row in rows) else _padded(rows)
            for label, rows in columns.items()}, sources


def _padded(rows) -> np.ndarray:
    """One stack of the 1-d arrays ``rows``, each zero-padded to the longest."""
    stack = np.zeros((len(rows), max(map(len, rows))), dtype=np.complex128)
    for out, row in zip(stack, rows):
        out[: len(row)] = row
    return stack


def layout(p: "dsl.CircuitProgram", factored=()):
    """What the programs of one batch share (:func:`run_batches`): all but their squeezed and
    coherent values, which no circuit rule reads (a Fock n is read against its cutoff), their
    element angles and the cutoffs that size only vectors that a batch zero-pads: their :func:`_free`
    mode's and, from 3 MAX_TERMS - 3 up, their ``factored`` modes' (below, a member's span,
    ``analysis._spans``, may have fewer columns than its terms)."""
    sources, free = [(m, s if isinstance(s, FockParam) else type(s)) for m, s in p.sources], _free(p)
    modes = tuple((m, min(c, 3 * dsl.MAX_TERMS - 3) if m in factored else c if m != free else None)
                  for m, c in p.modes)
    return modes, sources, p.detects, [(type(e), element_modes(e)) for e in p.elements]


def _free(p: "dsl.CircuitProgram") -> str | None:
    """The one mode that detection leaves, if no splitter touches it and modes of more than one amplitude
    in all follow it (the superposition scheme's data mode): only elementwise kernels read it, and the
    law sums it as an outer axis, a term at a time, so zeros a batch pads it with move no member's bits."""
    detected = [d.mode for d in p.detects]
    left = [i for i, (m, _) in enumerate(p.modes) if m not in detected]
    (mode, _), *after = p.modes[left[0]:] if len(left) == 1 else [(None, 0)]  # it, then the modes after it
    split = any(mode in (e.mode_1, e.mode_2) for e in p.elements if isinstance(e, BalancedBeamSplitter))
    return mode if not split and math.prod(c + 1 for _, c in after) > 1 else None


def _branches(stack, labels, detects, count: int, vectors=None, lengths=None) -> list[dict[str, Branch]]:
    """Each of ``count`` members' branches, from one law: ``|stack|^2`` summed over the undetected
    modes, member axis first, detected axes in request order. Every kept slice is copied out, divided
    by the root of its law entry, into the rows of one :class:`Kept`, which the branches share, with
    each padded mode's ``lengths`` of them by member. With factored modes (``vectors``, each one's
    term vectors by member, zero-padded past its ``lengths``), a member's rows are its terms and every
    core mode is detected: the law is ``sum_{k,l} conj(C_k) C_l prod_d G_d[k, l]``, and a row holds
    coefficients."""
    requested = tuple((d.mode, d.n) for d in detects)
    modes = [m for m, _ in requested]
    # a view with the detected axes first, in request order; the rest keep theirs
    remaining = tuple(label for label in labels if label not in modes)
    stack = stack.transpose([0, *(1 + labels.index(m) for m in (*modes, *remaining))])
    if vectors is not None:  # the term axis last, after the detected axes
        stack = np.moveaxis(stack.reshape(count, -1, *stack.shape[1:]), 1, -1)
        grams = _grams(vectors.values(), vectors.values(), lengths=lengths)[
            (slice(None),) + (None,) * len(modes)]
        terms = np.conj(stack)[..., :, None] * grams * stack[..., None, :]
        law, remaining = terms.reshape(*terms.shape[:-2], -1).sum(-1).real, tuple(vectors)
        for n2 in law.reshape(count, -1).sum(-1).tolist():
            _check_norm_bound(n2, "MultiModeState")
    else:
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
    at = found[live][:, 0]  # each row's member
    slices = Kept(remaining, rows, vectors and tuple(v[at] for v in vectors.values()),
                  lengths and tuple(n[at] for n in lengths))
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
