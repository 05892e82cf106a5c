"""Unitary circuit elements and ideal photon detection.

Phase shifts and cross-Kerr couplings are exact diagonal phase
multiplications, by angles reduced with ``math.fmod(angle, 2 pi)`` as
``kerr_rotated`` and the targets reduce them, so that a huge angle
neither overflows nor parts from its target. The 50:50 beam splitter
mixes two equal-cutoff modes. It
conserves the pair's total photon number N, so it is stored and applied
per N block, never as a dense (d, d, d, d) operator: one cached plan per
cutoff c holds the unitary of each of the 2c + 1 blocks. Block N follows
from block N - 1 by a recurrence in the creation operators (the Fock-basis
idea behind the recurrences for Gaussian gates of Miatto & Quesada,
arXiv:2004.11002), in O(c^3) operations for the whole plan. The blocks of
total photon number N and N + c + 1 share one row of c + 1 slots, so the
c + 1 rows hold every pair exactly once. Applying it gathers the pair
amplitudes into (row, slot) order, multiplies them by the rows'
block-diagonal unitaries in one batched matmul and scatters the products
into the output, at any cutoff. The phase convention is pinned so that a
single photon entering either port leaves as an equal superposition with
an ``i`` on the crossed port:

    |1>|0| -> (|1>|0> + i |0>|1>) / sqrt(2)
    |0>|1| -> (|0>|1> + i |1>|0>) / sqrt(2)

Blocks whose total photon number exceeds the per-mode cutoff cannot be
represented completely; the element then applies the physical unitary
restricted to the representable states, losing the truncated amplitudes,
and emits a :class:`TruncationWarning` if the input actually populates
such a block (the plan also lists those pairs).

The kernels act on a stack whose first axis runs over the members of a
batch of circuits that share their layout (:func:`apply_batch`; see
:func:`kerrcat.protocols.run_batches`); the public ``apply_*`` functions
are a batch of one. The splitter
multiplies the members' gathered pairs as a stack of single-state blocks
in one matmul, so each member keeps a single state's gemm shapes and bits;
laying all members' pairs side by side in one matrix per row changed the
last bits of 625 of a superposition sweep's 1,000 records.

Every kernel writes its output once, into an array it allocates and hands
to the state without a copy (see :mod:`kerrcat.fock`). The phase and Kerr
kernels hold one output-sized array and their small phase table. The
splitter holds its output plus one chunk of at most ``_CHUNK_AMPLITUDES``
amplitudes of each member at a time: the chunk's gathered pairs and their
products (and, before them, its over-cutoff pairs for the truncation
check). Chunks run along the first mode axis outside the pair, never along
the members, so a chunk is never smaller than one slice of that axis.
Plans of the last ``_PLAN_CACHE_SIZE`` cutoffs are cached; each holds
(c + 1)^3 complex entries, at most ``MAX_STATE_DIMENSION`` (cutoff 405).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import CutoffError, ModeLabelError, StateMismatchError, TruncationWarning
from .fock import MultiModeState, _Owned
from .states import MAX_STATE_DIMENSION

# Half-angle of the exponentiated hopping generator. pi/4 realizes the 50:50
# convention above; the plan cache is keyed on it, so tests can build plans
# at other angles.
_BS_HALF_ANGLE = math.pi / 4

# Input probability mass on over-cutoff blocks above which the beam splitter
# warns about truncation loss.
_BOUNDARY_MASS_THRESHOLD = 1e-15

# Amplitudes the splitter gathers and multiplies in one step, at least one
# slice of the first axis outside the mode pair. Chunk boundaries change
# which BLAS kernel multiplies which amplitudes, so changing this moves
# outputs in their last bits. It also caps a batch of circuits (members
# times amplitudes, protocols.run_batches), so a batch is one chunk.
_CHUNK_AMPLITUDES = 65_536

# Splitter plans kept, one per cutoff; a plan holds (c + 1)^3 complex entries
# (131 MB at c = 200).
_PLAN_CACHE_SIZE = 4


@dataclass(frozen=True)
class BalancedBeamSplitter:
    """50:50 beam splitter between two modes of equal cutoff."""

    mode_1: str
    mode_2: str

    def __post_init__(self):
        _require_distinct(self.mode_1, self.mode_2)


@dataclass(frozen=True)
class PhaseShift:
    """Multiplies the n-photon amplitude of ``mode`` by exp(i*n*theta)."""

    mode: str
    theta: float

    def __post_init__(self):
        _reduced_angle(self.theta, "theta")


@dataclass(frozen=True)
class CrossKerr:
    """Multiplies the (n1, n2) amplitude by exp(-i*n1*n2*tau).

    ``tau`` is the accumulated nonlinear phase; the medium's coupling
    strength, length, and light speed enter only through this product.
    """

    mode_1: str
    mode_2: str
    tau: float

    def __post_init__(self):
        _require_distinct(self.mode_1, self.mode_2)
        _reduced_angle(self.tau, "tau")


@dataclass(frozen=True)
class Detect:
    """Ideal photon-number detection of ``n`` photons on ``mode``."""

    mode: str
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"detected photon count must be >= 0, got {self.n}")


Element = Union[BalancedBeamSplitter, PhaseShift, CrossKerr, Detect]


def _require_distinct(m1: str, m2: str) -> None:
    if m1 == m2:
        raise ModeLabelError(f"element needs two distinct modes, got {m1!r} twice")


def _reduced_angle(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return math.fmod(value, 2.0 * math.pi)


def _photon_numbers(stack: np.ndarray, ax: int) -> np.ndarray:
    """The photon numbers of axis ``ax``, shaped to broadcast against ``stack``."""
    shape = [1] * stack.ndim
    shape[ax] = stack.shape[ax]
    return np.arange(shape[ax]).reshape(shape)


def apply_phase_shift(state: MultiModeState, mode: str, theta: float) -> MultiModeState:
    return apply_element(state, PhaseShift(mode, theta))


def apply_cross_kerr(
    state: MultiModeState, mode_1: str, mode_2: str, tau: float
) -> MultiModeState:
    return apply_element(state, CrossKerr(mode_1, mode_2, tau))


@dataclass(frozen=True, eq=False)
class _BeamSplitterPlan:
    """The splitter at one cutoff c as c + 1 rows of c + 1 slots.

    Photon pair ``(n1, n2)`` sits in row ``(n1 + n2) mod (c + 1)``, slot
    ``n1``: row r holds the splits of total photon number r (slots 0..r)
    and of r + c + 1 (slots r + 1..c), every pair exactly once.
    ``gather`` is the ``(n1, n2)`` index pair of each ``(row, slot)``, so
    it both gathers the pairs into rows and scatters the rows back;
    ``unitaries[r]`` is the block-diagonal unitary of row r, and
    ``over_cutoff`` the ``(n1, n2)`` index pair of the pairs with
    ``n1 + n2 > c``.
    """

    gather: tuple[np.ndarray, np.ndarray]
    unitaries: np.ndarray
    over_cutoff: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _beam_splitter_plan(cutoff: int, half_angle: float) -> _BeamSplitterPlan:
    """Build the plan from its 2c + 1 total-photon blocks, block N from
    block N - 1.

    With c, s the cosine and sine of the half-angle, the splitter maps
    a1+ to c a1+ + i s a2+ and a2+ to i s a1+ + c a2+. So column n of block
    N (the image of |n, N-n>) is that of block N - 1 raised by a1+ along one
    route and by a2+ along the other::

        U|n, N-n> = (c a1+ + i s a2+) U|n-1, N-n> / sqrt(n)
                  = (i s a1+ + c a2+) U|n, N-n-1> / sqrt(N-n)

    Either route alone amplifies rounding, to a unitarity error of 5e-6 in
    block 80 and past 1 by block 120; their mean with weights n/N and
    (N-n)/N stays at rounding level (under 1e-14 up to block 400). The
    entries are U_N[m, n] = i^(m+n) R_N[m, n] with R_N real, so the mean
    reads, from R_0 = [[1]] and with R_{N-1} zero outside slots 0..N-1::

        N R_N[m, n] = sqrt(n)   (s sqrt(N-m) R[m, n-1] - c sqrt(m) R[m-1, n-1])
                    + sqrt(N-n) (c sqrt(N-m) R[m, n]   + s sqrt(m) R[m-1, n])

    An entry needs only block N - 1's entries one slot around it, so an
    over-cutoff block (N > c) is built on its kept slots max(0, N - c)..c
    alone, the physical unitary restricted to the representable splits.
    """
    d = cutoff + 1
    if d ** 3 > MAX_STATE_DIMENSION:  # checked before any array of the plan is allocated
        raise CutoffError(f"a beam splitter at cutoff {cutoff} needs a plan of {d ** 3} entries, "
                          f"above the maximum state dimension {MAX_STATE_DIMENSION}")
    c, s = math.cos(half_angle), math.sin(half_angle)
    photons = np.arange(2 * cutoff + 1)
    # roots[i, j] = sqrt(i j); row r of roots[::-1] is row 2c - r of roots
    roots = np.sqrt(np.multiply.outer(photons, photons))
    slot = np.arange(d)
    phases = np.array([1, 1j, -1, -1j])[np.add.outer(slot, slot) % 4]  # i^(m+n)
    unitaries = np.zeros((d, d, d), dtype=np.complex128)
    unitaries[0, 0, 0] = 1.0
    window = np.ones((1, 1))
    for total in range(1, 2 * cutoff + 1):
        lo, hi = max(0, total - cutoff), min(total, cutoff)
        if total <= cutoff:
            # block N - 1 fills slots 0..N-1; add the empty slots -1 and N
            padded = np.zeros((total + 2, total + 2))
            padded[1:-1, 1:-1] = window
            window = padded
        # the kept slots m, and the rows of roots[::-1] that hold N - m
        up = slice(lo, hi + 1)
        down = slice(2 * cutoff - total + lo, 2 * cutoff - total + hi + 1)
        mixed = roots[::-1][down, up]  # sqrt(N - m) sqrt(n)
        cw, sw = window * (c / total), window * (s / total)
        window = (
            cw[1:, 1:] * roots[::-1, ::-1][down, down] - cw[:-1, :-1] * roots[up, up]
            + sw[1:, :-1] * mixed + sw[:-1, 1:] * mixed.T
        )
        unitaries[total % d, up, up] = window * phases[up, up]
    gather = (np.tile(slot, (d, 1)), (slot[:, None] - slot) % d)
    n1, n2 = np.divmod(np.arange(d * d), d)
    over = n1 + n2 > cutoff
    plan = _BeamSplitterPlan(gather, unitaries, (n1[over], n2[over]))
    for arr in (*plan.gather, plan.unitaries, *plan.over_cutoff):
        arr.setflags(write=False)
    return plan


def apply_beam_splitter(state: MultiModeState, mode_1: str, mode_2: str) -> MultiModeState:
    return apply_element(state, BalancedBeamSplitter(mode_1, mode_2))


def _split(stack: np.ndarray, ax1: int, ax2: int, mode_1: str, mode_2: str) -> np.ndarray:
    d1 = stack.shape[ax1]
    d2 = stack.shape[ax2]
    if d1 != d2:
        raise StateMismatchError(
            f"beam splitter needs equal cutoffs, got {d1 - 1} ({mode_1!r}) vs {d2 - 1} ({mode_2!r})"
        )
    cutoff = d1 - 1
    plan = _beam_splitter_plan(cutoff, _BS_HALF_ANGLE)

    # the members and then the (mode_1, mode_2) photon numbers lead in every
    # chunk's views, so indexing them with (n1, n2) arrays copies only the
    # pairs asked for
    rest = [i for i in range(1, stack.ndim) if i not in (ax1, ax2)]
    order = (0, ax1, ax2, *rest)
    chunks = [()]
    if rest:
        first = stack.shape[rest[0]]
        step = max(1, _CHUNK_AMPLITUDES * first * len(stack) // stack.size)
        leading = (slice(None),) * rest[0]
        chunks = [(*leading, slice(lo, lo + step)) for lo in range(0, first, step)]
    out = None
    boundary = [0.0] * len(stack)
    for index in chunks:
        mass, products = _mixed_chunk(plan, stack[index].transpose(order))
        boundary = [b + m for b, m in zip(boundary, mass)]
        if out is None:
            # allocated after the first chunk's temporaries, so that freeing
            # them leaves no free block at the top of the heap, which malloc
            # would hand back to the system and fault in again on every call
            out = np.empty_like(stack)
        out[index].transpose(order)[(slice(None), *plan.gather)] = products
        del products  # before the next chunk's, which would be a third temporary
    for mass in (b for b in boundary if b > _BOUNDARY_MASS_THRESHOLD):
        warnings.warn(
            f"beam splitter on modes ({mode_1!r}, {mode_2!r}): probability "
            f"{mass:.3e} sits on pair photon numbers above the cutoff "
            f"{cutoff}; that mass is partly truncated",
            TruncationWarning,
            stacklevel=_outside_caller_level(),
        )
    return out


def _mixed_chunk(plan: _BeamSplitterPlan, source: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The probability of each member of ``source``, a chunk view with the
    member axis and then the mode pair's axes leading, on over-cutoff pairs,
    and the splitter's image of its pairs in (member, row, slot) order."""
    over = source[(slice(None), *plan.over_cutoff)]
    boundary = [float(np.vdot(member, member).real) for member in over]
    del over  # the gathered pairs and their products are the chunk's two temporaries
    members, d = source.shape[:2]
    # a stack of one (row, slot) block per member: a single state's gemms
    gathered = source[(slice(None), *plan.gather)].reshape(members, d, d, -1)
    products = np.matmul(plan.unitaries, gathered)
    return boundary, products.reshape(source.shape)


def _outside_caller_level() -> int:
    """The ``stacklevel`` of the first frame outside this package, so that a
    warning raised inside it points at the user's call, however many
    package frames (dispatch, circuit runner, protocols) lie in between."""
    package = os.path.dirname(os.path.abspath(__file__)) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def element_modes(element: Element) -> tuple[str, ...]:
    """The modes an element or a :class:`Detect` acts on."""
    if isinstance(element, (BalancedBeamSplitter, CrossKerr)):
        return (element.mode_1, element.mode_2)
    if isinstance(element, (PhaseShift, Detect)):
        return (element.mode,)
    raise TypeError(f"not a circuit element: {element!r}")


def apply_element(state: MultiModeState, element: Element) -> MultiModeState:
    """Apply one unitary element, as a batch of one; a :class:`Detect` is
    not one, and raises :class:`TypeError` like any other non-element."""
    if not isinstance(element, (BalancedBeamSplitter, PhaseShift, CrossKerr)):
        raise TypeError(f"not a circuit element: {element!r}")
    axes = [1 + state.axis(mode) for mode in element_modes(element)]
    return MultiModeState(state.labels, _Owned(apply_batch(state.tensor[None], axes, [element])[0]))


def apply_batch(stack: np.ndarray, axes: list[int], elements, padded=None) -> np.ndarray:
    """A new array: each member m of ``stack`` (its first axis runs over the members of a batch;
    length 1 stands for them all) after ``elements[m]``. The elements act on the axes ``axes`` and
    differ at most in their angles. A member's phase table is built as a single state's, and its
    splitter products have a single state's gemm shapes, so it keeps a lone run's bits: with
    ``padded``, an axis no element mixes and each member's length on it, past which ``stack`` is
    zeros, the splitter runs on the members of one length at a time, sliced to it."""
    element = elements[0]
    if isinstance(element, BalancedBeamSplitter):
        if padded is None:
            return _split(stack, *axes, *element_modes(element))
        (axis, lengths), out = padded, np.zeros_like(stack)
        for n in sorted(set(lengths.tolist())):
            at = (np.flatnonzero(lengths == n), *[slice(None)] * (axis - 1), slice(n))
            out[at] = _split(stack[at], *axes, *element_modes(element))
        return out
    numbers = _photon_numbers(stack, axes[0])
    if isinstance(element, PhaseShift):
        exponents = [1j * _reduced_angle(e.theta, "theta") for e in elements]
    else:
        numbers = numbers * _photon_numbers(stack, axes[1])
        exponents = [-1j * _reduced_angle(e.tau, "tau") for e in elements]
    table = np.array(exponents).reshape((-1,) + (1,) * (stack.ndim - 1)) * numbers
    return stack * np.exp(table, out=table)
