"""Dense truncated-Fock-space states and linear algebra.

A single mode with cutoff N is the span of the photon-number states
|0>, ..., |N>. Multimode states live on the tensor product, stored as a
dense complex array with one axis per mode; the first label is the
slowest-varying (row-major) axis. States are immutable after construction
and may be sub-normalized (e.g. after a projective detection); explicit
:func:`normalize` is the only place a norm is ever divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CutoffError, ModeLabelError, StateMismatchError, ZeroStateError

# Excess over unit squared norm tolerated at construction.
NORM_SLACK = 1e-9
# normalize() refuses states whose norm falls at or below this.
ZERO_NORM_THRESHOLD = 1e-12


def _frozen_complex_array(data, ndim=None) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if ndim is not None and arr.ndim != ndim:
        raise StateMismatchError(f"expected a {ndim}-d amplitude array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StateMismatchError("amplitudes must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _check_norm_bound(arr: np.ndarray, what: str) -> None:
    n2 = float(np.vdot(arr, arr).real)
    if n2 > 1.0 + NORM_SLACK:
        raise StateMismatchError(f"{what} has squared norm {n2!r} > 1 + {NORM_SLACK}")


@dataclass(frozen=True, eq=False)
class FockVector:
    """Single-mode state: ``amplitudes[n]`` is the amplitude of ``n`` photons."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, ndim=1)
        if arr.size == 0:
            raise StateMismatchError("a mode needs at least the vacuum amplitude")
        _check_norm_bound(arr, "FockVector")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    def __repr__(self):
        return f"FockVector(cutoff={self.cutoff}, squared_norm={self.squared_norm:.6g})"


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Ordered tensor product of modes.

    ``tensor`` has shape ``(cutoff_0 + 1, ..., cutoff_{k-1} + 1)`` with axis i
    indexing the photon number of ``labels[i]``. A zero-mode state (scalar
    tensor) is allowed; it is what remains after projecting every mode away.
    """

    labels: tuple[str, ...]
    tensor: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ModeLabelError(f"duplicate mode labels in {labels}")
        arr = _frozen_complex_array(self.tensor)
        if arr.ndim != len(labels):
            raise StateMismatchError(
                f"tensor has {arr.ndim} axes for {len(labels)} mode labels"
            )
        _check_norm_bound(arr, "MultiModeState")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tensor", arr)

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.tensor.shape)

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.tensor, self.tensor).real)

    @property
    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    def axis(self, mode: str) -> int:
        try:
            return self.labels.index(mode)
        except ValueError:
            raise ModeLabelError(f"unknown mode {mode!r}; state has {self.labels}") from None

    def cutoff(self, mode: str) -> int:
        return self.tensor.shape[self.axis(mode)] - 1

    def with_tensor(self, tensor) -> "MultiModeState":
        """Same labels, new amplitudes."""
        return MultiModeState(self.labels, tensor)

    def __repr__(self):
        spec = ", ".join(f"{l}:{c}" for l, c in zip(self.labels, self.cutoffs))
        return f"MultiModeState([{spec}], squared_norm={self.squared_norm:.6g})"


def single(label: str, vector: FockVector) -> MultiModeState:
    """Embed a single-mode vector as a one-mode multimode state."""
    return MultiModeState((label,), vector.amplitudes)


def tensor_product(a: MultiModeState, b: MultiModeState) -> MultiModeState:
    """Composite state on a's modes followed by b's modes."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ModeLabelError(f"mode labels {sorted(shared)} appear on both sides")
    return MultiModeState(a.labels + b.labels, np.multiply.outer(a.tensor, b.tensor))


def product_state(parts: Iterable[tuple[str, FockVector]]) -> MultiModeState:
    """Tensor product of labeled single-mode vectors, in the given order."""
    state = None
    for label, vec in parts:
        state = single(label, vec) if state is None else tensor_product(state, single(label, vec))
    if state is None:
        raise ModeLabelError("product of zero modes is ambiguous; give at least one")
    return state


def inner_product(a: MultiModeState, b: MultiModeState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.labels != b.labels:
        raise StateMismatchError(f"mode labels differ: {a.labels} vs {b.labels}")
    if a.tensor.shape != b.tensor.shape:
        raise StateMismatchError(f"cutoffs differ: {a.cutoffs} vs {b.cutoffs}")
    return complex(np.vdot(a.tensor, b.tensor))


def normalize(state, threshold: float = ZERO_NORM_THRESHOLD):
    """Scale to unit norm; returns ``(unit_state, previous_norm)``.

    Accepts a :class:`MultiModeState`, a :class:`FockVector`, or a raw 1-d
    amplitude array (scratch superpositions may exceed unit norm before they
    are normalized; the typed states may not). Raises :class:`ZeroStateError`
    when the norm is at or below ``threshold``.
    """
    if isinstance(state, np.ndarray):
        arr = np.asarray(state, dtype=np.complex128)
        if arr.ndim != 1:
            raise StateMismatchError("raw amplitude input must be 1-d; label it as a state first")
        n = float(np.linalg.norm(arr))
        if n <= threshold:
            raise ZeroStateError(f"norm {n!r} is at or below the zero threshold {threshold!r}")
        return FockVector(arr / n), n
    n = state.norm
    if n <= threshold:
        raise ZeroStateError(f"norm {n!r} is at or below the zero threshold {threshold!r}")
    if isinstance(state, FockVector):
        return FockVector(state.amplitudes / n), n
    return state.with_tensor(state.tensor / n), n


def project_mode(state: MultiModeState, mode: str, n: int) -> tuple[MultiModeState, float]:
    """Project ``mode`` onto exactly ``n`` photons and drop it.

    Returns the (sub-normalized) remaining state and the outcome probability,
    i.e. the squared norm of the kept slice. Probabilities over all n for a
    fixed mode sum to the squared norm of the input. The result is not
    normalized here; use :func:`normalize` (which rejects numerically-zero
    branches) to condition on the outcome.
    """
    ax = state.axis(mode)
    dim = state.tensor.shape[ax]
    if not 0 <= n < dim:
        raise CutoffError(f"photon count {n} out of range for mode {mode!r} (cutoff {dim - 1})")
    sliced = np.take(state.tensor, n, axis=ax)
    labels = state.labels[:ax] + state.labels[ax + 1:]
    remaining = MultiModeState(labels, sliced)
    return remaining, remaining.squared_norm


def project_modes(
    state: MultiModeState, outcomes: Sequence[tuple[str, int]]
) -> tuple[MultiModeState, float]:
    """Chain of projections; probability is for the joint outcome."""
    current = state
    prob = None
    for mode, n in outcomes:
        current, prob = project_mode(current, mode, n)
    if prob is None:
        return state, state.squared_norm
    return current, prob


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite decomposition sum_k c_k |L_k>|R_k> with orthonormal factors.

    Coefficients are nonnegative and sorted nonincreasing; their squares sum
    to the squared norm of the decomposed state.
    """

    coefficients: np.ndarray
    left_vectors: tuple[MultiModeState, ...]
    right_vectors: tuple[MultiModeState, ...]

    def rank(self, threshold: float = 1e-10) -> int:
        return int(np.count_nonzero(self.coefficients > threshold))


def _bipartition_matrix(state: MultiModeState, left_modes):
    """The state reshaped to a (left | rest) matrix, plus each side's labels
    and shape.

    ``left_modes`` must be a nonempty proper subset of the state's labels;
    each side keeps the mode order of the original state.
    """
    left = set(left_modes)
    unknown = left - set(state.labels)
    if unknown:
        raise ModeLabelError(f"unknown modes in partition: {sorted(unknown)}")
    if not left or left == set(state.labels):
        raise ModeLabelError("left_modes must be a nonempty proper subset of the mode labels")

    left_axes = [i for i, l in enumerate(state.labels) if l in left]
    right_axes = [i for i, l in enumerate(state.labels) if l not in left]
    left_labels = tuple(state.labels[i] for i in left_axes)
    right_labels = tuple(state.labels[i] for i in right_axes)
    left_shape = tuple(state.tensor.shape[i] for i in left_axes)
    right_shape = tuple(state.tensor.shape[i] for i in right_axes)

    matrix = np.transpose(state.tensor, left_axes + right_axes).reshape(
        int(np.prod(left_shape)), int(np.prod(right_shape))
    )
    return matrix, (left_labels, left_shape), (right_labels, right_shape)


def schmidt_decompose(state: MultiModeState, left_modes) -> SchmidtDecomposition:
    """SVD of the state across the (left_modes | rest) bipartition.

    ``left_modes`` must be a nonempty proper subset of the state's labels;
    each side keeps the mode order of the original state. Use
    :func:`schmidt_coefficients` when only the spectrum is needed.
    """
    matrix, (left_labels, left_shape), (right_labels, right_shape) = _bipartition_matrix(
        state, left_modes
    )
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    lefts = tuple(
        MultiModeState(left_labels, u[:, k].reshape(left_shape)) for k in range(s.size)
    )
    rights = tuple(
        MultiModeState(right_labels, vh[k, :].reshape(right_shape)) for k in range(s.size)
    )
    coeffs = s.copy()
    coeffs.setflags(write=False)
    return SchmidtDecomposition(coeffs, lefts, rights)


def schmidt_coefficients(state: MultiModeState, left_modes) -> np.ndarray:
    """Schmidt spectrum across the (left_modes | rest) bipartition, without
    the Schmidt vectors.

    Only the occupied support is decomposed: rows and columns of the
    bipartition matrix that are exactly zero are dropped first, which leaves
    every nonzero singular value unchanged (a squeezed source, occupied on
    even photon numbers only, halves each side). The result is sorted
    nonincreasing and holds every nonzero coefficient of
    :func:`schmidt_decompose`, possibly followed by numerically-zero ones;
    it is shorter than that spectrum by the zero coefficients dropped with
    the empty rows or columns.
    """
    matrix, _, _ = _bipartition_matrix(state, left_modes)
    occupied = matrix[np.ix_(matrix.any(axis=1), matrix.any(axis=0))]
    return np.linalg.svd(occupied, compute_uv=False)
