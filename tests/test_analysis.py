"""Diagnostics tests: distributions, support residuals, fidelity, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat import (
    CoherentParam,
    EntanglementParams,
    MultiModeState,
    SqueezeParam,
    StateMismatchError,
    coherent,
    squeezed_vacuum,
    vacuum,
)
from kerrcat.analysis import _spans
from kerrcat.analysis import (
    entanglement_entropy,
    factored_distributions,
    fidelities,
    fidelity,
    joint_photon_distribution,
    photon_distribution,
    photon_distributions,
    schmidt_entropies,
    support_residuals,
)
from kerrcat.elements import apply_phase_shift
from kerrcat.fock import _products, _spectra, single, tensor_product
from kerrcat.protocols import Kept
from kerrcat.protocols import DC, run_entanglement
from kerrcat.states import cat_coherent, cat_squeezed, fock

OVERLAP_OPPOSITE_R05 = 0.8050181821945921


def random_state(rng, labels, cutoffs):
    shape = tuple(c + 1 for c in cutoffs)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr /= np.linalg.norm(arr)
    return MultiModeState(tuple(labels), arr)


class TestPhotonDistribution:
    def test_vacuum(self):
        dist = photon_distribution(single("a", vacuum(4)), "a")
        assert dist[0] == 1.0
        assert dist[1:].sum() == 0.0

    def test_squeezed_frozen_values(self):
        dist = photon_distribution(single("a", squeezed_vacuum(SqueezeParam(0.5), 40)), "a")
        assert abs(dist[0] - 0.8868188839700739) < 1e-4
        assert abs(dist[2] - 0.0946910915602177) < 1e-4
        assert dist[1::2].sum() == 0.0

    def test_minus_cat_distribution(self):
        cat = cat_squeezed(SqueezeParam(0.5), -1, 40)
        dist = photon_distribution(single("a", cat), "a")
        assert dist[0] == 0.0
        assert dist[4] == 0.0
        # the 2:6 ratio collapses to the squared amplitude ratio of the
        # underlying squeezed state, frozen from the direct formula
        assert abs(dist[2] / dist[6] - 35.084202602889995) < 1e-9

    def test_sums_to_squared_norm(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, ("a", "b"), (6, 3))
        state = MultiModeState(state.labels, state.tensor * 0.6)
        dist = photon_distribution(state, "a")
        assert abs(dist.sum() - state.squared_norm) < 1e-10

    def test_joint_marginal_consistency(self):
        rng = np.random.default_rng(32)
        state = random_state(rng, ("a", "b", "c"), (4, 3, 3))
        joint = joint_photon_distribution(state, ("b", "c"))
        for mode, axis in (("b", 1), ("c", 0)):
            marginal = joint.sum(axis=axis)
            direct = photon_distribution(state, mode)
            assert np.abs(marginal - direct).max() < 1e-12

    def test_joint_respects_requested_order(self):
        rng = np.random.default_rng(33)
        state = random_state(rng, ("a", "b"), (2, 3))
        assert joint_photon_distribution(state, ("b", "a")).shape == (4, 3)


class TestSupportResidual:
    def test_plus_cat_support(self):
        cat = cat_squeezed(SqueezeParam(0.5), +1, 40)
        dist = photon_distribution(single("a", cat), "a")
        assert support_residuals(dist[None], range(0, 41, 4))[0] < 1e-12

    def test_minus_cat_support(self):
        cat = cat_squeezed(SqueezeParam(0.5), -1, 40)
        dist = photon_distribution(single("a", cat), "a")
        assert support_residuals(dist[None], range(2, 41, 4))[0] < 1e-12

    def test_vacuum_on_zero_support(self):
        dist = photon_distribution(single("a", vacuum(3)), "a")
        assert support_residuals(dist[None], {0})[0] == 0.0


def set_support_residual(distribution, allowed):
    """support_residuals of one row as a Python set and a list comprehension
    built its mask, which the numpy mask must reproduce."""
    allowed = set(allowed)
    mask = np.array([n not in allowed for n in range(len(distribution))])
    return float(np.asarray(distribution)[mask].sum())


@given(
    dist=st.lists(st.floats(0, 1), min_size=1, max_size=40),
    entries=st.lists(st.integers(-8, 50)),
    steps=st.tuples(st.integers(-8, 50), st.integers(-8, 50), st.integers(-5, 5).filter(bool)),
    form=st.sampled_from(["list", "set", "generator", "range"]),
)
def test_support_residual_sums_what_a_set_mask_sums(dist, entries, steps, form):
    # negative, out-of-range and repeated entries, as any iterable
    dist = np.array(dist)
    allowed = {
        "list": lambda: list(entries),
        "set": lambda: set(entries),
        "generator": lambda: (n for n in entries),
        "range": lambda: range(*steps),
    }[form]
    (residual,) = support_residuals(dist[None], allowed())
    assert residual.hex() == set_support_residual(dist, allowed()).hex()


class TestFidelity:
    def test_self_fidelity(self):
        state = single("a", coherent(CoherentParam(0.7), 16))
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_opposite_parity_cats_are_orthogonal(self):
        plus = single("a", cat_squeezed(SqueezeParam(0.5), +1, 30))
        minus = single("a", cat_squeezed(SqueezeParam(0.5), -1, 30))
        assert fidelity(plus, minus) == 0.0

    def test_opposite_squeezed_frozen(self):
        xi = single("a", squeezed_vacuum(SqueezeParam(0.5), 40))
        mxi = single("a", squeezed_vacuum(SqueezeParam(0.5, math.pi), 40))
        assert abs(fidelity(xi, mxi) - OVERLAP_OPPOSITE_R05**2) < 1e-4

    def test_symmetry(self):
        rng = np.random.default_rng(34)
        a = random_state(rng, ("a",), (6,))
        b = random_state(rng, ("a",), (6,))
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-14

    def test_unnormalized_rejected(self):
        half = MultiModeState(("a",), np.array([0.5, 0.0], complex))
        with pytest.raises(StateMismatchError):
            fidelity(half, single("a", vacuum(1)))

    def test_shape_mismatch_rejected(self):
        # (a:1, b:2) against (a:2, b:1): the same labels and size, swapped cutoffs
        swapped = [MultiModeState(("a", "b"), np.full(s, 6**-0.5)) for s in ((2, 3), (3, 2))]
        for state, target in ((single("a", vacuum(1)), single("a", vacuum(2))), swapped):
            with pytest.raises(StateMismatchError, match="shapes differ"):
                fidelity(state, target)

    def test_label_mismatch_rejected(self):
        with pytest.raises(StateMismatchError):
            fidelity(single("a", vacuum(1)), single("b", vacuum(1)))

    def test_unlabelled_vector_is_a_type_error(self):
        state = single("a", fock(1, 3))
        for call in (
            lambda: fidelity(state, fock(1, 3)),
            lambda: fidelity(fock(1, 3), state),
            lambda: entanglement_entropy(fock(1, 3), {"a"}),
        ):
            with pytest.raises(TypeError, match="must be a MultiModeState"):
                call()


class TestEntanglementEntropy:
    def test_product_state(self):
        state = tensor_product(
            single("a", coherent(CoherentParam(0.5), 12)), single("b", fock(1, 2))
        )
        assert entanglement_entropy(state, {"a"}) == pytest.approx(0.0, abs=1e-10)

    def test_product_states_are_exactly_zero(self):
        # unclamped, these sums come out as -0.0 and -3.2e-16 (the report
        # schema requires schmidt_entropy >= 0)
        params = EntanglementParams(
            SqueezeParam(0.5), SqueezeParam(0.5), tau=math.pi / 2, tau2=math.pi
        )
        for state in (
            tensor_product(single("a", fock(1, 2)), single("b", fock(0, 2))),
            run_entanglement(params)[DC].state,
        ):
            value = entanglement_entropy(state, {"a"})
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_bell_pair_is_one_bit(self):
        arr = np.zeros((2, 2), complex)
        arr[0, 1] = arr[1, 0] = 1 / math.sqrt(2)
        state = MultiModeState(("b", "c"), arr)
        assert entanglement_entropy(state, {"b"}) == pytest.approx(1.0, abs=1e-10)

    def test_two_term_state_matches_gram_oracle(self):
        # sum of two product terms: entropy from a 2x2 Gram embedding
        s = OVERLAP_OPPOSITE_R05
        xi = squeezed_vacuum(SqueezeParam(0.5), 30).amplitudes
        parity = np.ones(31)
        parity[2::4] = -1
        mxi = xi * parity
        arr = np.multiply.outer(mxi, mxi) - np.multiply.outer(xi, xi)
        arr /= np.linalg.norm(arr)
        state = MultiModeState(("a", "a2"), arr)

        u1, u2 = np.array([1.0, 0]), np.array([s, math.sqrt(1 - s * s)])
        m = np.outer(u1, u1) - np.outer(u2, u2)
        m /= np.linalg.norm(m)
        p = np.linalg.svd(m, compute_uv=False) ** 2
        oracle = float(-(p[p > 1e-30] * np.log2(p[p > 1e-30])).sum())
        assert abs(entanglement_entropy(state, {"a"}) - oracle) < 1e-8

    def test_invariant_under_local_phase(self):
        rng = np.random.default_rng(35)
        state = random_state(rng, ("a", "b"), (4, 4))
        before = entanglement_entropy(state, {"a"})
        shifted = apply_phase_shift(state, "b", 1.234)
        assert abs(entanglement_entropy(shifted, {"a"}) - before) < 1e-10
        shifted = apply_phase_shift(state, "a", -0.77)
        assert abs(entanglement_entropy(shifted, {"a"}) - before) < 1e-10

    def test_occupied_matrices_of_one_shape_share_one_svd(self, monkeypatch):
        rng = np.random.default_rng(37)
        even, odd = np.zeros((5, 5), complex), np.zeros((6, 7), complex)
        even[::2, ::2] = rng.standard_normal((3, 3))
        odd[1::2, 1:6:2] = rng.standard_normal((3, 3))
        states = [MultiModeState(("a", "b"), even / np.linalg.norm(even)),
                  random_state(rng, ("a", "b"), (4, 4)),
                  MultiModeState(("a", "b"), odd / np.linalg.norm(odd))]
        svd, shapes = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        schmidt_entropies([state.tensor for state in states])
        # the first and last have three rows and three columns occupied
        assert shapes == [(2, 3, 3), (1, 5, 5)]

    def test_entropy_bounded_by_subsystem_dimension(self):
        rng = np.random.default_rng(36)
        state = random_state(rng, ("a", "b"), (1, 7))
        ent = entanglement_entropy(state, {"a"})
        assert 0.0 <= ent <= 1.0 + 1e-12


def lone_entropy(state):
    """The entropy across the first of two modes from one 2-d SVD of the
    occupied bipartition matrix: the definition before spectra were stacked."""
    matrix = state.tensor
    occupied = matrix[np.ix_(matrix.any(axis=1), matrix.any(axis=0))]
    coeffs = np.linalg.svd(occupied, compute_uv=False)
    p = coeffs[coeffs > 1e-10] ** 2
    p /= p.sum()
    return max(0.0, float(-(p * np.log2(p)).sum()))


@st.composite
def two_mode_states(draw):
    """A normalized state on (a, b) of one of three shapes, occupied on all
    rows and columns or every other one, sometimes a product state."""
    shape = draw(st.sampled_from([(3, 3), (5, 4), (6, 1)]))
    rows, cols = (draw(st.sampled_from([slice(None), slice(0, None, 2), slice(1, None, 2)]))
                  for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = np.zeros(shape, complex)
    block = arr[rows, cols]
    if block.size == 0:
        rows = cols = slice(None)
        block = arr
    values = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
    if draw(st.booleans()):
        values = np.multiply.outer(values[:, 0], values[0])
    arr[rows, cols] = values
    return MultiModeState(("a", "b"), arr / np.linalg.norm(arr))


@given(states=st.lists(two_mode_states(), min_size=1, max_size=8))
def test_stacked_entropies_equal_each_states_own(states):
    stacked = schmidt_entropies([state.tensor for state in states])
    alone = [entanglement_entropy(state, {"a"}) for state in states]
    assert [v.hex() for v in stacked] == [v.hex() for v in alone]
    assert [v.hex() for v in alone] == [lone_entropy(state).hex() for state in states]


# an occupied matrix at least this large on each side: spectra that a
# truncated SVD would approximate are decomposed in full
LARGE_SIDE = 64


@st.composite
def large_states(draw, sides=st.integers(LARGE_SIDE, LARGE_SIDE + 16)):
    """A normalized state on (a, b) whose occupied matrix is at least
    ``LARGE_SIDE`` on each side, of rank 1 to 4 or of full rank
    (``rank`` None), occupied on every row and column or on every other one."""
    rows, cols = (draw(sides) for _ in range(2))
    rank = draw(st.sampled_from([1, 2, 3, 4, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    block = gaussian(rows, cols) if rank is None else gaussian(rows, rank) @ gaussian(rank, cols)
    step = draw(st.sampled_from([1, 2]))
    arr = np.zeros((step * rows, step * cols), complex)
    arr[::step, ::step] = block
    return rank, MultiModeState(("a", "b"), arr / np.linalg.norm(arr))


def occupied_svd(state):
    matrix = state.tensor
    return np.linalg.svd(matrix[np.ix_(matrix.any(axis=1), matrix.any(axis=0))], compute_uv=False)


@settings(max_examples=60, deadline=None)
@given(drawn=large_states())
def test_large_spectra_are_the_full_svd(drawn):
    # replaces the sketch's test: with no sketch, every spectrum is the full
    # SVD of the occupied matrix, low rank or not
    rank, state = drawn
    (spectrum,), full = _spectra([state.tensor]), occupied_svd(state)
    assert [v.hex() for v in spectrum] == [v.hex() for v in full]
    assert entanglement_entropy(state, {"a"}).hex() == lone_entropy(state).hex()


@settings(max_examples=30, deadline=None)
# two sides, so that members of one shape share a stack
@given(drawn=st.lists(large_states(st.sampled_from([LARGE_SIDE, LARGE_SIDE + 1])),
                      min_size=1, max_size=5))
def test_stacked_large_spectra_equal_each_states_own(drawn):
    states = [state for _, state in drawn]
    stacked = _spectra([state.tensor for state in states])
    alone = [_spectra([state.tensor])[0] for state in states]
    assert [[v.hex() for v in s] for s in stacked] == [[v.hex() for v in s] for s in alone]


@st.composite
def factored_stacks(draw, modes=2):
    """A factored stack of 1-3 rows on ``modes`` modes: each row the sum over
    1-4 terms of a coefficient times each mode's source rotated by the term's
    angle, some of whose angles, and so terms, coincide; normalized."""
    rows, terms = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coefficients = rng.standard_normal((rows, terms)) + 1j * rng.standard_normal((rows, terms))
    vectors = []
    for cutoff in (draw(st.integers(0, 40)) for _ in range(modes)):
        source = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
        angles = np.array([draw(st.sampled_from([0.0, np.pi / 2, np.pi, 0.7])) for _ in range(terms)])
        vectors.append(np.broadcast_to(source * np.exp(1j * angles[:, None] * np.arange(cutoff + 1)),
                                       (rows, terms, cutoff + 1)).copy())
    dense = _products(coefficients, vectors)
    norms = np.sqrt(np.square(np.abs(dense)).reshape(rows, -1).sum(-1))
    assume_nonzero = norms > 1e-6
    coefficients[assume_nonzero] /= norms[assume_nonzero, None]
    return coefficients[assume_nonzero], tuple(v[assume_nonzero] for v in vectors), None


@settings(max_examples=100, deadline=None)
@given(stack=factored_stacks())
def test_factored_analysis_matches_the_dense_rows(stack):
    # the Gram forms of a factored stack (replacing the sketch as the cheap
    # path of large two-mode branches) against the dense rows they stand for
    coefficients, vectors, _ = stack
    if not len(coefficients):
        return
    dense, spans = _products(coefficients, vectors), _spans(vectors)
    for mode, dist in factored_distributions(coefficients, vectors, ("a", "b"), spans).items():
        assert np.abs(dist - photon_distributions(dense, ("a", "b"))[mode]).max() < 1e-12
        assert not np.signbit(dist).any()
    factored = schmidt_entropies(_products(coefficients, spans))  # as a report takes them
    assert np.abs(np.array(factored) - schmidt_entropies(dense)).max() < 1e-9
    pairs = [(i, j) for i in range(len(dense)) for j in range(len(dense))]
    flat = Kept((), dense).factored  # each row one term on one flattened mode
    assert np.abs(np.array(fidelities(stack, stack, pairs)) - fidelities(flat, flat, pairs)).max() < 1e-12
