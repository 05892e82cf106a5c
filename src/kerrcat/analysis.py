"""Diagnostics over output states.

Photon-number distributions, probability mass outside a declared support
set, state fidelities, and bipartite entanglement entropy (base-2, from the
Schmidt spectrum alone: :func:`kerrcat.fock.schmidt_coefficients`, singular
values without vectors, over the occupied support).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import StateMismatchError
from .fock import FockVector, MultiModeState, schmidt_coefficients

# Schmidt coefficients at or below this count as zero (rank and entropy).
SCHMIDT_COEFF_THRESHOLD = 1e-10
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
    ax = state.axis(mode)
    probs = np.abs(state.tensor) ** 2
    axes = tuple(i for i in range(probs.ndim) if i != ax)
    return probs.sum(axis=axes)


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
    """Probability mass at photon numbers outside ``allowed``."""
    allowed = set(allowed)
    mask = np.array([n not in allowed for n in range(len(distribution))])
    return float(np.asarray(distribution)[mask].sum())


def _as_unit_array(state, what: str) -> tuple[np.ndarray, float]:
    """The state's amplitude array and its squared norm, which must lie
    within ``_UNIT_NORM_SLACK`` of 1."""
    if isinstance(state, FockVector):
        arr = state.amplitudes
    elif isinstance(state, MultiModeState):
        arr = state.tensor
    else:
        raise TypeError(f"{what} must be a FockVector or MultiModeState")
    n2 = float(np.vdot(arr, arr).real)
    if abs(n2 - 1.0) > _UNIT_NORM_SLACK:
        raise StateMismatchError(f"{what} must be normalized, squared norm is {n2!r}")
    return arr, n2


def fidelity(state, target) -> float:
    """|<target|state>|^2 / (<state|state> <target|target>) for normalized
    states of identical shape.

    Both squared norms must lie within ``_UNIT_NORM_SLACK`` of 1; within that
    slack the value is scale-invariant, so a sub-normalized truncated state
    has fidelity 1 with itself. FockVector and single-mode MultiModeState
    inputs may be mixed; two multimode states must carry the same labels in
    the same order.
    """
    a, a_n2 = _as_unit_array(state, "state")
    b, b_n2 = _as_unit_array(target, "target")
    if isinstance(state, MultiModeState) and isinstance(target, MultiModeState):
        if state.labels != target.labels:
            raise StateMismatchError(f"labels differ: {state.labels} vs {target.labels}")
    if a.shape != b.shape:
        if a.size == b.size:
            a, b = a.reshape(-1), b.reshape(-1)
        else:
            raise StateMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    value = abs(complex(np.vdot(b, a))) ** 2 / (a_n2 * b_n2)
    return min(value, 1.0)


def entanglement_entropy(state: MultiModeState, left_modes) -> float:
    """Entropy (bits) of the Schmidt spectrum across the bipartition.

    Zero (within numerics) iff the state is a product across the cut. The
    spectrum comes from :func:`kerrcat.fock.schmidt_coefficients`: singular
    values only, of the bipartition matrix with its exactly-zero rows and
    columns dropped. The state's squared norm must lie within
    ``_UNIT_NORM_SLACK`` of 1; the Schmidt weights are divided by it, so
    within that slack the entropy is scale-invariant.
    """
    _, n2 = _as_unit_array(state, "state")
    coeffs = schmidt_coefficients(state, left_modes)
    p = coeffs[coeffs > SCHMIDT_COEFF_THRESHOLD] ** 2 / n2
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class AnalysisReport:
    """Per-branch diagnostics bundle assembled by the CLI layer.

    ``distributions`` maps mode label to its photon-number distribution.
    ``support_residual`` is the mass outside ``allowed_support`` (None when
    no support law applies). ``fidelity_targets`` maps target name to
    fidelity. ``schmidt_entropy`` is in bits, None when no bipartition
    applies. ``pre_norm`` is the branch amplitude norm before conditioning.
    """

    distributions: Mapping[str, tuple[float, ...]]
    support_residual: float | None
    allowed_support: str | None
    fidelity_targets: Mapping[str, float] = field(default_factory=dict)
    schmidt_entropy: float | None = None
    pre_norm: float = 0.0
