"""Diagnostics over labelled output states (:class:`MultiModeState`; a
factory's single-mode vector is labelled with :func:`kerrcat.fock.single`).

Photon-number distributions, probability mass outside a declared support
set, state fidelities, and bipartite entanglement entropy (base-2, from the
Schmidt spectrum alone: ``kerrcat.fock._spectra``, singular values
without vectors, over the occupied support, stacked by its shape).

Each quantity has one implementation, a batch form over the rows of a
stack of states; the single-state functions are one-row calls of it, and a
row gets the bits it would get alone. Fidelities read factored stacks
(``kerrcat.fock``; a dense state is one term on one flattened mode), whose
distributions and entropies (over the modes' :func:`_spans`) come from each
mode's Gram matrix of term vectors, in O(cutoff * terms^2). Every sum is
pairwise, never a BLAS dot.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import StateMismatchError
from .fock import SCHMIDT_COEFF_THRESHOLD, MultiModeState, _bipartition_matrix, _spectra
from .fock import _grams, _overlaps, _products

# fidelity() and entanglement_entropy() insist on normalized inputs; this is
# the slack, generous enough for truncation-level norm deficits. Within it
# both are scale-invariant: they divide by the squared norms, so a truncated
# exact state (squared norm 1 - leakage) scores like its normalized copy.
_UNIT_NORM_SLACK = 1e-6


def photon_distribution(state: MultiModeState, mode: str) -> np.ndarray:
    """P(n) for the given mode, other modes summed over, summing to the
    state's squared norm: :func:`photon_distributions` of the one state."""
    state.axis(mode)  # an unknown mode raises ModeLabelError
    return photon_distributions(state.tensor[None], state.labels)[mode][0]


def photon_distributions(states: np.ndarray, labels) -> dict[str, np.ndarray]:
    """Each mode's P(n) for every row of ``states``, a stack of states on
    ``labels``, from one ``|amplitude|^2`` pass."""
    probs = np.abs(states)
    np.square(probs, out=probs)
    axes = range(1, probs.ndim)
    return {m: probs.sum(axis=tuple(a for a in axes if a != 1 + i)) for i, m in enumerate(labels)}


def factored_distributions(coefficients, vectors, labels, spans) -> dict[str, np.ndarray]:
    """Each mode's P(n) for every row of a factored stack: the photon distribution of the
    row over that mode and the other modes' ``spans`` (:func:`_spans`)."""
    return {label: photon_distributions(_products(coefficients, [*spans[:d], v, *spans[d + 1:]]), labels)[label]
            for d, (label, v) in enumerate(zip(labels, vectors))}


def _spans(vectors, lengths=None) -> list[np.ndarray]:
    """Each mode's term vectors in an orthonormal basis of their span: from their Gram
    matrix ``U w U^H`` (``lengths`` as ``kerrcat.fock._grams`` takes them), term k's are
    row k of ``conj(U) sqrt(w)``, over the largest eigenvalues, at most one per (padded)
    photon number. One within the Gram's rounding of the largest is 0."""
    spans = []
    for d, v in enumerate(vectors):
        w, u = np.linalg.eigh(_grams([v], [v], lengths=lengths and [lengths[d]]))
        w, u = w[:, -v.shape[2]:], u[..., -v.shape[2]:]
        spans.append(np.conj(u) * np.sqrt(np.where(w > 1e-13 * w[:, -1:], w, 0.0))[:, None, :])
    return spans


def joint_photon_distribution(state: MultiModeState, modes: Iterable[str]) -> np.ndarray:
    """Joint P(n_1, ..., n_k) over the given modes, in the given order."""
    keep = tuple(state.axis(m) for m in modes)
    probs = np.abs(state.tensor) ** 2
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    summed = probs.sum(axis=drop) if drop else probs
    # the sum leaves the kept axes in tensor order; permute to request order
    in_tensor_order = sorted(keep)
    return np.transpose(summed, [in_tensor_order.index(a) for a in keep])


def support_residuals(distributions: np.ndarray, allowed: Iterable[int], lengths=None) -> list[float]:
    """Each row's probability mass at photon numbers outside ``allowed`` (integers; any outside the
    rows' range are ignored), from one mask, summed in ascending order over its first ``lengths[i]``
    entries (all if None); each row alone, since a 2-d sum, or one over padding, adds in another order."""
    outside = np.ones(distributions.shape[-1], dtype=bool)
    outside[[n for n in allowed if 0 <= n < outside.size]] = False
    ends = [None] * len(distributions) if lengths is None else np.cumsum(outside)[np.asarray(lengths) - 1]
    return [float(np.add.reduce(row[:end])) for row, end in zip(distributions[:, outside], ends)]


def _typed(state, what: str) -> MultiModeState:
    if not isinstance(state, MultiModeState):
        raise TypeError(f"{what} must be a MultiModeState, not {type(state).__name__}")
    return state


def _unit_norms(squared, what: str = "state") -> list[float]:
    """The squared norms ``squared`` as floats; each must lie within
    ``_UNIT_NORM_SLACK`` of 1."""
    norms = [float(n2) for n2 in squared]
    for n2 in norms:
        if abs(n2 - 1.0) > _UNIT_NORM_SLACK:
            raise StateMismatchError(f"{what} must be normalized, squared norm is {n2!r}")
    return norms


def fidelity(state: MultiModeState, target: MultiModeState) -> float:
    """|<target|state>|^2 / (<state|state> <target|target>) for normalized
    states of identical shape: :func:`fidelities` of the one pair.

    Both squared norms must lie within ``_UNIT_NORM_SLACK`` of 1; within that
    slack the value is scale-invariant, so a sub-normalized truncated state
    has fidelity 1 with itself. The two states must carry the same labels in
    the same order, and the same cutoff on each mode.
    """
    if _typed(state, "state").labels != _typed(target, "target").labels:
        raise StateMismatchError(f"labels differ: {state.labels} vs {target.labels}")
    if state.tensor.shape != target.tensor.shape:
        raise StateMismatchError(f"shapes differ: {state.tensor.shape} vs {target.tensor.shape}")
    one = [(np.ones((1, 1)), (s.tensor.reshape(1, 1, -1),), None) for s in (state, target)]
    return fidelities(*one, [(0, 0)])[0]


def fidelities(states, targets, pairs) -> list[float]:
    """:func:`fidelity` of row i of the factored stack ``states`` with row j of the factored
    stack ``targets``, for each (i, j) of ``pairs``; rows i and j share their lengths."""
    (_, u, _), (_, v, _) = states, targets
    if [x.shape[-1] for x in u] != [x.shape[-1] for x in v]:
        raise StateMismatchError(f"shapes differ: {[x.shape for x in u]} vs {[x.shape for x in v]}")
    i, j = [p[0] for p in pairs], [p[1] for p in pairs]
    n2 = _unit_norms(_overlaps(states, states).real[i])
    t2 = _unit_norms(_overlaps(targets, targets).real[j], "target")
    overlaps = _overlaps(targets, states, j, i).tolist()
    return [min(abs(o) ** 2 / (x * y), 1.0) for o, x, y in zip(overlaps, n2, t2)]


def entanglement_entropy(state: MultiModeState, left_modes) -> float:
    """Entropy (bits) of the Schmidt spectrum across the bipartition:
    :func:`schmidt_entropies` of the state's (left | rest) matrix.

    Zero (within numerics) iff the state is a product across the cut, and
    never negative: a sum that rounds to -0.0 or below is 0.0. The state's
    squared norm must lie within ``_UNIT_NORM_SLACK`` of 1; its Schmidt
    weights are divided by their sum, so the entropy is scale-invariant and
    one weight alone is exactly 0.
    """
    (entropy,) = schmidt_entropies([_bipartition_matrix(_typed(state, "state"), left_modes)[0]])
    return entropy


def schmidt_entropies(matrices) -> list[float]:
    """The entropy of each state of ``matrices``, a stack or a list of its
    (left | rest) matrices, from their spectra (``kerrcat.fock._spectra``)."""
    _unit_norms([np.square(np.abs(m)).sum() for m in matrices])
    weights = (c[c > SCHMIDT_COEFF_THRESHOLD] ** 2 for c in _spectra(matrices))
    return [max(0.0, float(-(p * np.log2(p)).sum())) for p in (w / w.sum() for w in weights)]

