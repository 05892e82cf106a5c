"""Dense truncated-Fock-space states and linear algebra.

A single mode with cutoff N is the span of the photon-number states
|0>, ..., |N>. Multimode states live on the tensor product, stored as a
dense C-ordered complex array with one axis per mode; the first label is
the slowest-varying (row-major) axis. States are immutable after construction
and may be sub-normalized (e.g. after a projective detection); ``_units``, for
scratch superpositions that become new states, detection's branches and the
coefficients of ``kerrcat.protocols.entanglement_target_stacks`` are the only
places a norm is divided out.

Every :class:`FockVector` and :class:`MultiModeState` is checked when it is
built: its amplitudes must be finite and its squared norm at most
``1 + NORM_SLACK`` (:class:`StateMismatchError` otherwise). The check takes
one pass: the squared norm is computed once, and kept as the state's
``squared_norm``. A finite sum of |a_i|^2 means every a_i is finite, so the
element-wise finiteness scan runs only when that sum is not; finite
amplitudes whose squared norm overflows to infinity fail the norm bound.

A state normally keeps a read-only C-ordered copy of the array it is given,
so no caller can change it later. The package's own kernels instead hand
over an array they have just allocated, wrapped in the private
:class:`_Owned`: the constructor adopts it without the copy, after the same
checks, and marks it read-only. Only an array that owns its whole buffer is
adopted; anything else, such as a slice that is a view of a larger tensor,
is still copied, so a state never pins memory beyond its own amplitudes.
Public ``FockVector(...)`` and ``MultiModeState(...)`` calls always copy.

A factored stack ``(coefficients, vectors, lengths)`` holds row i as the sum
over terms k of ``coefficients[i, k]`` times the product over modes d of
``vectors[d][i, k]`` (see :mod:`kerrcat.protocols`), zero-padded past
``lengths[d][i]`` (``lengths`` is None where nothing is padded). Its inner
products take one Gram matrix per mode (:func:`_overlaps`). No sum that
reaches a report is a BLAS dot, whose bits move with the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CutoffError, ModeLabelError, StateMismatchError

# Excess over unit squared norm tolerated at construction.
NORM_SLACK = 1e-9
# _units() leaves rows whose norm falls at or below this as they are.
ZERO_NORM_THRESHOLD = 1e-12
# Schmidt coefficients at or below this count as zero (rank and entropy).
SCHMIDT_COEFF_THRESHOLD = 1e-10
# _grams forms a mode's products all at once up to this many (1 MiB).
_GRAM_PRODUCTS = 1 << 16


class _Owned:
    """An array the package has just allocated, or the frozen array of
    another state, handed over to a state, which adopts it instead of
    copying it (see the module docstring)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _adoptable(arr: np.ndarray) -> bool:
    """Whether ``arr`` is C-ordered complex128 and spans all of the buffer it
    keeps alive, so adopting it pins no memory beyond its own entries."""
    owner = arr if arr.base is None else arr.base
    return (
        arr.dtype == np.complex128
        and arr.flags.c_contiguous
        and isinstance(owner, np.ndarray)
        and owner.flags.owndata
        and owner.nbytes == arr.nbytes
    )


def _frozen_complex_array(data, ndim=None) -> tuple[np.ndarray, float]:
    """A read-only complex array of ``data`` and its squared norm; raises
    :class:`StateMismatchError` for a wrong ``ndim`` or a non-finite entry.
    An :class:`_Owned` array is adopted when it qualifies, and every other
    input is copied."""
    owned = type(data) is _Owned
    if owned and _adoptable(data.array):
        arr = data.array
    else:
        # A C-ordered copy: a strided view (e.g. a transpose) would otherwise
        # keep its layout, and every later slice of it would gather the whole
        # tensor again; a slice would keep its parent's tensor alive.
        arr = np.array(data.array if owned else data, dtype=np.complex128, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise StateMismatchError(f"expected a {ndim}-d amplitude array, got shape {arr.shape}")
    n2 = _squared_norm(arr)
    arr.setflags(write=False)
    return arr, n2


def _squared_norm(arr: np.ndarray) -> float:
    """The squared norm of ``arr``, whose entries must be finite."""
    n2 = float(np.vdot(arr, arr).real)
    # a NaN or infinite entry always makes the sum NaN or infinite
    if not math.isfinite(n2) and not np.all(np.isfinite(arr)):
        raise StateMismatchError("amplitudes must be finite (no NaN/Inf)")
    return n2


def _check_norm_bound(n2: float, what: str) -> None:
    if n2 > 1.0 + NORM_SLACK:
        raise StateMismatchError(f"{what} has squared norm {n2!r} > 1 + {NORM_SLACK}")


def _checked_members(stack: np.ndarray) -> np.ndarray:
    """``stack`` after the :class:`MultiModeState` check of each member of a
    batch, on views, so the check allocates nothing the size of the stack."""
    for member in stack:
        _check_norm_bound(_squared_norm(member), "MultiModeState")
    return stack


@dataclass(frozen=True, eq=False)
class FockVector:
    """Single-mode state: ``amplitudes[n]`` is the amplitude of ``n`` photons. A
    source's leakage is its law's running-sum tail, not 1 - ``squared_norm``."""

    amplitudes: np.ndarray
    squared_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        arr, n2 = _frozen_complex_array(self.amplitudes, ndim=1)
        if arr.size == 0:
            raise StateMismatchError("a mode needs at least the vacuum amplitude")
        _check_norm_bound(n2, "FockVector")
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "squared_norm", n2)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

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
    squared_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ModeLabelError(f"duplicate mode labels in {labels}")
        arr, n2 = _frozen_complex_array(self.tensor)
        if arr.ndim != len(labels):
            raise StateMismatchError(
                f"tensor has {arr.ndim} axes for {len(labels)} mode labels"
            )
        _check_norm_bound(n2, "MultiModeState")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tensor", arr)
        object.__setattr__(self, "squared_norm", n2)

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.tensor.shape)

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

    def __repr__(self):
        spec = ", ".join(f"{l}:{c}" for l, c in zip(self.labels, self.cutoffs))
        return f"MultiModeState([{spec}], squared_norm={self.squared_norm:.6g})"


def single(label: str, vector: FockVector) -> MultiModeState:
    """Embed a single-mode vector as a one-mode multimode state."""
    return MultiModeState((label,), _Owned(vector.amplitudes))


def tensor_product(a: MultiModeState, b: MultiModeState) -> MultiModeState:
    """Composite state on a's modes followed by b's modes."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ModeLabelError(f"mode labels {sorted(shared)} appear on both sides")
    return MultiModeState(a.labels + b.labels, _Owned(np.multiply.outer(a.tensor, b.tensor)))


def _units(stack: np.ndarray, lengths=None) -> tuple[np.ndarray, list[float]]:
    """Each row of ``stack`` divided by its norm (a pairwise sum, no BLAS, over its first
    ``lengths[i]`` entries, all if None), and the norms; a row whose norm is at or below
    ``ZERO_NORM_THRESHOLD`` is left as it is."""
    norms = [math.sqrt(np.square(np.abs(r[:n])).sum()) for r, n in zip(stack, lengths or [None] * len(stack))]
    divisors = np.array([n if n > ZERO_NORM_THRESHOLD else 1.0 for n in norms])
    return stack / divisors.reshape((-1,) + (1,) * (stack.ndim - 1)), norms


def _grams(left, right, i=slice(None), j=slice(None), lengths=None) -> np.ndarray:
    """The product over modes of the Grams ``[r, k, l] = <left_k|right_l>`` of rows ``i`` (each
    row, by default) and ``j`` of two term vector lists, each mode's over its ``lengths`` of the
    left rows (in full if None), summing the rows of one length at a time (padding moves
    numpy's pairwise-sum blocks). Past ``_GRAM_PRODUCTS`` products a mode, each entry is
    summed alone, with the same bits, so that no vector is held per pair of terms."""
    grams = []
    for d, (u, v) in enumerate(zip(left, right)):
        ri, rj = np.arange(len(u))[i], np.arange(len(v))[j]
        sizes = np.full(len(ri), u.shape[-1]) if lengths is None else np.asarray(lengths[d])[ri]
        gram = np.empty((len(ri), u.shape[1], v.shape[1]), dtype=np.complex128)
        for n in sorted(set(sizes.tolist())):
            at = np.flatnonzero(sizes == n)
            a, b = ri[at], rj[at]
            if gram[at].size * n <= _GRAM_PRODUCTS:
                gram[at] = (np.conj(u[a, :, :n])[:, :, None] * v[b, :, :n][:, None]).sum(-1)
            else:
                for k, l in np.ndindex(gram.shape[1:]):
                    gram[at, k, l] = (np.conj(u[a, k, :n]) * v[b, l, :n]).sum(-1)
        grams.append(gram)
    return math.prod(grams[1:], start=grams[0])


def _overlaps(left, right, i=slice(None), j=slice(None)) -> np.ndarray:
    """<left_i|right_j> for rows ``i`` and ``j`` of two factored stacks, over the left rows'
    lengths, which the right rows they pair with share."""
    (a, u, lengths), (b, v, _) = left, right
    terms = np.conj(a[i])[:, :, None] * _grams(u, v, i, j, lengths) * b[j][:, None, :]
    return terms.reshape(len(terms), -1).sum(-1)


def _products(coefficients, vectors) -> np.ndarray:
    """Each row of a factored stack as a dense tensor, its terms added one at a time."""
    for k in range(coefficients.shape[1]):
        term = coefficients[:, k]
        for v in vectors:
            term = term[..., None] * v[:, k].reshape((len(v),) + (1,) * (term.ndim - 1) + v.shape[2:])
        total = term if k == 0 else np.add(total, term, out=total)
    return total


def project_mode(state: MultiModeState, mode: str, n: int) -> tuple[MultiModeState, float]:
    """Project ``mode`` onto exactly ``n`` photons and drop it.

    Returns the (sub-normalized) remaining state and the outcome probability,
    i.e. the squared norm of the kept slice. Probabilities over all n for a
    fixed mode sum to the squared norm of the input. The result is not
    normalized here; its tensor over the root of the probability is the
    state conditioned on the outcome.
    """
    return project_modes(state, ((mode, n),))


def project_modes(
    state: MultiModeState, outcomes: Sequence[tuple[str, int]]
) -> tuple[MultiModeState, float]:
    """Projections of several modes, in order; probability is for the joint
    outcome.

    Each mode is checked as :func:`project_mode` would check it on the state
    left by the outcomes before it, so a mode named twice is unknown the
    second time. All modes are then sliced with one index, and the kept
    slice is copied once.
    """
    if not outcomes:
        return state, state.squared_norm
    index = [slice(None)] * len(state.labels)
    remaining = state.labels
    for mode, n in outcomes:
        if mode not in remaining:
            raise ModeLabelError(f"unknown mode {mode!r}; state has {remaining}")
        ax = state.labels.index(mode)
        dim = state.tensor.shape[ax]
        if not 0 <= n < dim:
            raise CutoffError(
                f"photon count {n} out of range for mode {mode!r} (cutoff {dim - 1})"
            )
        index[ax] = n
        remaining = tuple(label for label in remaining if label != mode)
    # the trailing Ellipsis keeps a full projection a 0-d view, not a scalar
    remaining_state = MultiModeState(remaining, state.tensor[(*index, Ellipsis)])
    return remaining_state, remaining_state.squared_norm


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite decomposition sum_k c_k |L_k>|R_k> with orthonormal factors.

    Coefficients are nonnegative and sorted nonincreasing; their squares sum
    to the squared norm of the decomposed state.
    """

    coefficients: np.ndarray
    left_vectors: tuple[MultiModeState, ...]
    right_vectors: tuple[MultiModeState, ...]

    def rank(self, threshold: float = SCHMIDT_COEFF_THRESHOLD) -> int:
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
    each side keeps the mode order of the original state.
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


def _spectra(matrices) -> list[np.ndarray]:
    """The spectrum of each bipartition matrix of ``matrices`` (a stack or a
    list), sorted nonincreasing, over its occupied rows and columns: dropping
    an exactly zero row or column leaves every nonzero singular value as it is.
    They are decomposed in one stacked SVD per shape, which gives each matrix
    the bits of its lone decomposition."""
    occupied = [m[np.ix_(m.any(axis=1), m.any(axis=0))] for m in matrices]
    spectra = [None] * len(occupied)
    for shape in dict.fromkeys(m.shape for m in occupied):
        stacked = [i for i, m in enumerate(occupied) if m.shape == shape]
        values = np.linalg.svd(np.stack([occupied[i] for i in stacked]), compute_uv=False)
        for i, spectrum in zip(stacked, values):
            spectra[i] = spectrum
    return spectra
