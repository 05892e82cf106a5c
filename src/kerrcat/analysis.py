"""Diagnostics over labelled output states (:class:`MultiModeState`; a
factory's single-mode vector is labelled with :func:`kerrcat.fock.single`).

Photon-number distributions, probability mass outside a declared support
set, state fidelities, and bipartite entanglement entropy (base-2, from the
Schmidt spectrum alone: :func:`kerrcat.fock.schmidt_spectra`, singular
values without vectors, over the occupied support, stacked by its shape;
a large one from a checked sketch that keeps every coefficient above
``SCHMIDT_COEFF_THRESHOLD``, each to within a hundredth of it).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import StateMismatchError
from .fock import SCHMIDT_COEFF_THRESHOLD, MultiModeState, schmidt_spectra

# fidelity() and entanglement_entropy() insist on normalized inputs; this is
# the slack, generous enough for truncation-level norm deficits. Within it
# both are scale-invariant: they divide by the squared norms, so a truncated
# exact state (squared norm 1 - leakage) scores like its normalized copy.
_UNIT_NORM_SLACK = 1e-6


def photon_distribution(state: MultiModeState, mode: str) -> np.ndarray:
    """P(n) for the given mode, other modes summed over.

    Sums to the squared norm of the state (sub-normalized states keep their
    deficit).
    """
    return joint_photon_distribution(state, (mode,))


def joint_photon_distribution(state: MultiModeState, modes: Iterable[str]) -> np.ndarray:
    """Joint P(n_1, ..., n_k) over the given modes, in the given order."""
    keep = tuple(state.axis(m) for m in modes)
    probs = np.abs(state.tensor) ** 2
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    summed = probs.sum(axis=drop) if drop else probs
    # the sum leaves the kept axes in tensor order; permute to request order
    in_tensor_order = sorted(keep)
    return np.transpose(summed, [in_tensor_order.index(a) for a in keep])


def support_residual(distribution: np.ndarray, allowed: Iterable[int]) -> float:
    """Probability mass at photon numbers outside ``allowed`` (integers; any
    outside the distribution's range are ignored), summed in ascending order."""
    distribution = np.asarray(distribution)
    outside = np.ones(len(distribution), dtype=bool)
    for n in allowed:
        if 0 <= n < outside.size:
            outside[n] = False
    return float(distribution[outside].sum())


def _as_unit_array(state, what: str) -> tuple[np.ndarray, float]:
    """The state's amplitude tensor and its squared norm (the one its
    constructor computed), which must lie within ``_UNIT_NORM_SLACK`` of 1."""
    if not isinstance(state, MultiModeState):
        raise TypeError(f"{what} must be a MultiModeState, not {type(state).__name__}")
    n2 = state.squared_norm
    if abs(n2 - 1.0) > _UNIT_NORM_SLACK:
        raise StateMismatchError(f"{what} must be normalized, squared norm is {n2!r}")
    return state.tensor, n2


def fidelity(state: MultiModeState, target: MultiModeState) -> float:
    """|<target|state>|^2 / (<state|state> <target|target>) for normalized
    states of identical shape.

    Both squared norms must lie within ``_UNIT_NORM_SLACK`` of 1; within that
    slack the value is scale-invariant, so a sub-normalized truncated state
    has fidelity 1 with itself. The two states must carry the same labels in
    the same order, and the same cutoff on each mode.
    """
    a, a_n2 = _as_unit_array(state, "state")
    b, b_n2 = _as_unit_array(target, "target")
    if state.labels != target.labels:
        raise StateMismatchError(f"labels differ: {state.labels} vs {target.labels}")
    if a.shape != b.shape:
        raise StateMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    value = abs(complex(np.vdot(b, a))) ** 2 / (a_n2 * b_n2)
    return min(value, 1.0)


def entanglement_entropy(state: MultiModeState, left_modes) -> float:
    """Entropy (bits) of the Schmidt spectrum across the bipartition:
    :func:`entanglement_entropies` of the one state."""
    (entropy,) = entanglement_entropies([state], left_modes)
    return entropy


def entanglement_entropies(states, left_modes) -> list[float]:
    """Entropy (bits) of each state's Schmidt spectrum across the
    bipartition, from :func:`kerrcat.fock.schmidt_spectra`.

    Zero (within numerics) iff the state is a product across the cut, and
    never negative: a sum that rounds to -0.0 or below is 0.0. Each state's
    squared norm must lie within ``_UNIT_NORM_SLACK`` of 1; its Schmidt
    weights are divided by it, so within that slack the entropy is
    scale-invariant.
    """
    norms = [_as_unit_array(state, "state")[1] for state in states]
    entropies = []
    for coeffs, n2 in zip(schmidt_spectra(states, left_modes), norms):
        p = coeffs[coeffs > SCHMIDT_COEFF_THRESHOLD] ** 2 / n2
        entropies.append(max(0.0, float(-(p * np.log2(p)).sum())))
    return entropies
