"""Core state container and linear-algebra tests.

Expected numbers are frozen from independent oracles: explicit
log-factorial amplitude formulas, closed-form overlaps, and exhaustive
amplitude enumeration (see the inline helpers).
"""

import cmath
import math

import numpy as np
import pytest

from kerrcat import (
    FockVector,
    ModeLabelError,
    MultiModeState,
    StateMismatchError,
    ZeroStateError,
    fock,
    inner_product,
    normalize,
    project_mode,
    project_modes,
    schmidt_coefficients,
    schmidt_decompose,
    single,
    squeezed_vacuum,
    tensor_product,
    vacuum,
)
from kerrcat.states import SqueezeParam

# direct evaluation of <xi|-xi> at r=0.5: brute-force amplitude sum agrees
# with 1/(cosh r * sqrt(1 + tanh^2 r)) to 8e-16 (re-derived in the test below)
OVERLAP_OPPOSITE_R05 = 0.8050181821945921


def squeezed_amp_direct(n, r, phi=0.0):
    """Log-factorial formula for <n|xi>; the test-local oracle."""
    if n % 2 == 1:
        return 0.0j
    m = n // 2
    mag = math.exp(0.5 * math.lgamma(2 * m + 1) - m * math.log(2) - math.lgamma(m + 1))
    return (1 / math.sqrt(math.cosh(r))) * mag * (-cmath.exp(1j * phi) * math.tanh(r)) ** m


def random_state(rng, labels, cutoffs):
    shape = tuple(c + 1 for c in cutoffs)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr /= np.linalg.norm(arr)
    return MultiModeState(tuple(labels), arr)


class TestConstruction:
    def test_fock_vector_invariants(self):
        vec = FockVector([1.0, 0.0])
        assert vec.cutoff == 1
        assert vec.squared_norm == 1.0

    def test_rejects_nan(self):
        with pytest.raises(StateMismatchError):
            FockVector([float("nan"), 0.0])

    def test_rejects_overlong_norm(self):
        with pytest.raises(StateMismatchError):
            FockVector([1.0, 1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ModeLabelError):
            MultiModeState(("a", "a"), np.zeros((2, 2), complex))

    def test_rejects_shape_label_mismatch(self):
        with pytest.raises(StateMismatchError):
            MultiModeState(("a",), np.zeros((2, 2), complex))

    def test_tensors_are_immutable(self):
        state = single("a", vacuum(3))
        with pytest.raises(ValueError):
            state.tensor[0] = 0.5

    def test_index_convention_first_label_slowest(self):
        # amplitude of |i>_x |j>_y sits at tensor[i, j]; flattening is
        # row-major so x varies slowest
        arr = np.arange(6, dtype=complex).reshape(2, 3)
        arr = arr / np.linalg.norm(arr)
        state = MultiModeState(("x", "y"), arr)
        for i in range(2):
            for j in range(3):
                reduced, _ = project_modes(state, [("x", i), ("y", j)])
                assert reduced.tensor == pytest.approx(arr[i, j])
        assert state.tensor.ravel()[1 * 3 + 2] == pytest.approx(arr[1, 2])


class TestTensorProduct:
    def test_basis_product(self):
        out = tensor_product(single("a", fock(0, 1)), single("b", fock(1, 1)))
        expected = np.zeros((2, 2), complex)
        expected[0, 1] = 1.0
        assert np.array_equal(out.tensor, expected)
        assert out.labels == ("a", "b")

    def test_source_times_split_photon_is_normalized(self):
        # squeezed source times an equal single-photon superposition over
        # two modes; norm 1 up to truncation leakage
        xi = squeezed_vacuum(SqueezeParam(0.5), 40)
        bc = MultiModeState(("b", "c"), np.array([[0, 1j], [1, 0]], complex) / math.sqrt(2))
        out = tensor_product(single("a", xi), bc)
        assert out.labels == ("a", "b", "c")
        assert abs(out.squared_norm - 1.0) < 1e-10

    def test_norm_multiplies(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = random_state(rng, ("u",), (5,))
            v = random_state(rng, ("v", "w"), (3, 2))
            u = u.with_tensor(u.tensor * 0.7)
            prod = tensor_product(u, v)
            assert abs(prod.norm - u.norm * v.norm) < 1e-12

    def test_duplicate_mode_rejected(self):
        a = single("a", vacuum(1))
        with pytest.raises(ModeLabelError):
            tensor_product(a, single("a", vacuum(1)))


class TestInnerProduct:
    def test_vacuum_self_overlap(self):
        v = single("a", vacuum(3))
        assert inner_product(v, v) == 1.0 + 0j

    def test_opposite_squeezed_overlap_frozen(self):
        # numeric sum over direct amplitudes, cross-checked against the
        # closed form which it re-derives
        brute = sum(
            squeezed_amp_direct(n, 0.5).conjugate() * squeezed_amp_direct(n, 0.5, math.pi)
            for n in range(41)
        )
        closed = 1.0 / (math.cosh(0.5) * math.sqrt(1 + math.tanh(0.5) ** 2))
        assert abs(brute - closed) < 1e-12
        assert abs(closed - OVERLAP_OPPOSITE_R05) < 1e-15

        xi = single("a", squeezed_vacuum(SqueezeParam(0.5), 40))
        mxi = single("a", squeezed_vacuum(SqueezeParam(0.5, math.pi), 40))
        assert abs(inner_product(xi, mxi) - OVERLAP_OPPOSITE_R05) < 1e-4

    def test_two_photon_amplitude_frozen(self):
        # <2|xi> at r=0.5 from the direct formula; note the value, two
        # independent evaluations agree on -0.3077192
        direct = squeezed_amp_direct(2, 0.5)
        assert abs(direct - (-0.3077191764583704)) < 1e-12
        two = single("a", fock(2, 40))
        xi = single("a", squeezed_vacuum(SqueezeParam(0.5), 40))
        assert abs(inner_product(two, xi) - (-0.3077191764583704)) < 1e-5

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_state(rng, ("a", "b"), (3, 4))
            b = random_state(rng, ("a", "b"), (3, 4))
            assert abs(inner_product(a, b) - inner_product(b, a).conjugate()) < 1e-14

    def test_mismatch_rejected(self):
        a = single("a", vacuum(2))
        with pytest.raises(StateMismatchError):
            inner_product(a, single("b", vacuum(2)))
        with pytest.raises(StateMismatchError):
            inner_product(a, single("a", vacuum(3)))


class TestNormalize:
    def test_opposite_sum_at_zero_squeeze(self):
        # |xi> + |-xi> at r=0 is twice the vacuum
        xi = squeezed_vacuum(SqueezeParam(0.0), 4)
        mxi = squeezed_vacuum(SqueezeParam(0.0, math.pi), 4)
        unit, pre = normalize(xi.amplitudes + mxi.amplitudes)
        assert pre == pytest.approx(2.0)
        assert np.allclose(unit.amplitudes, vacuum(4).amplitudes)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroStateError):
            normalize(np.zeros(5, complex))

    def test_difference_prenorm_squared(self):
        xi = squeezed_vacuum(SqueezeParam(0.5), 40)
        mxi = squeezed_vacuum(SqueezeParam(0.5, math.pi), 40)
        unit, pre = normalize(xi.amplitudes - mxi.amplitudes)
        assert abs(unit.squared_norm - 1.0) < 1e-12
        assert abs(pre**2 - (2 - 2 * OVERLAP_OPPOSITE_R05)) < 1e-4

    def test_threshold_configurable(self):
        state = single("a", FockVector([1e-8, 0]))
        normalize(state)  # fine at the default threshold
        with pytest.raises(ZeroStateError):
            normalize(state, threshold=1e-6)


class TestProjection:
    def test_split_photon_projection(self):
        bc = MultiModeState(("b", "c"), np.array([[0, 1j], [1, 0]], complex) / math.sqrt(2))
        remaining, prob = project_mode(bc, "b", 1)
        assert prob == pytest.approx(0.5)
        assert remaining.labels == ("c",)
        unit, _ = normalize(remaining)
        assert np.allclose(unit.tensor, [1.0, 0.0])

    def test_vacuum_has_no_photon(self):
        s = tensor_product(single("a", vacuum(1)), single("b", vacuum(1)))
        _, prob = project_mode(s, "b", 1)
        assert prob == 0.0

    def test_chain_matches_exhaustive_enumeration(self):
        # joint outcome probability vs brute-force |amplitude|^2 sums
        rng = np.random.default_rng(13)
        state = random_state(rng, ("a", "b", "c"), (4, 1, 1))
        for nb in range(2):
            for nc in range(2):
                _, prob = project_modes(state, [("b", nb), ("c", nc)])
                brute = sum(
                    abs(state.tensor[na, nb, nc]) ** 2 for na in range(5)
                )
                assert abs(prob - brute) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            state = random_state(rng, ("a", "b"), (5, 6))
            state = state.with_tensor(state.tensor * 0.9)  # sub-normalized
            total = sum(project_mode(state, "b", n)[1] for n in range(7))
            assert abs(total - state.squared_norm) < 1e-10

    def test_domain_errors(self):
        s = single("a", vacuum(2))
        with pytest.raises(ModeLabelError):
            project_mode(s, "zz", 0)
        from kerrcat import CutoffError
        with pytest.raises(CutoffError):
            project_mode(s, "a", 3)


def assert_spectrum_matches_decomposition(state, left):
    """schmidt_coefficients is the nonzero part of schmidt_decompose's
    spectrum; whatever it leaves out is zero."""
    values = schmidt_coefficients(state, left)
    full = schmidt_decompose(state, left).coefficients
    assert np.abs(values - full[: values.size]).max() < 1e-12
    assert np.all(full[values.size:] < 1e-12)
    return values


class TestSchmidt:
    def test_product_state_rank_one(self):
        u = single("u", FockVector(np.array([0.6, 0.8]) * 0.5))
        v = single("v", fock(1, 2))
        sd = schmidt_decompose(tensor_product(u, v), {"u"})
        assert sd.rank() == 1
        assert sd.coefficients[0] == pytest.approx(u.norm * v.norm)

    def test_bell_pair(self):
        arr = np.zeros((2, 2), complex)
        arr[0, 1] = arr[1, 0] = 1 / math.sqrt(2)
        sd = schmidt_decompose(MultiModeState(("b", "c"), arr), {"b"})
        assert np.allclose(sd.coefficients, [1 / math.sqrt(2)] * 2)

    def test_two_term_state_has_rank_two(self):
        # sum of two product terms can never exceed Schmidt rank 2
        xi = squeezed_vacuum(SqueezeParam(0.5), 26).amplitudes
        mxi = squeezed_vacuum(SqueezeParam(0.5, math.pi), 26).amplitudes
        arr = np.multiply.outer(mxi, mxi) - np.multiply.outer(xi, xi)
        arr /= np.linalg.norm(arr)
        state = MultiModeState(("a", "a2"), arr)
        sd = schmidt_decompose(state, {"a"})
        assert sd.rank(1e-10) == 2
        # odd photon numbers are empty on both sides: 14 of 27 rows and columns
        values = assert_spectrum_matches_decomposition(state, {"a"})
        assert values.size == 14
        assert np.count_nonzero(values > 1e-10) == 2

    def test_spectrum_with_zero_rows_on_one_side(self):
        rng = np.random.default_rng(17)
        arr = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        arr[[1, 3], :] = 0.0
        arr /= np.linalg.norm(arr)
        state = MultiModeState(("l", "r"), arr)
        assert assert_spectrum_matches_decomposition(state, {"l"}).size == 4
        assert assert_spectrum_matches_decomposition(state, {"r"}).size == 4

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(15)
        state = random_state(rng, ("p", "q"), (99, 99))  # total dimension 10^4
        sd = schmidt_decompose(state, {"p"})
        rec = np.zeros_like(state.tensor)
        for c, left, right in zip(sd.coefficients, sd.left_vectors, sd.right_vectors):
            rec += c * np.multiply.outer(left.tensor, right.tensor)
        assert np.abs(rec - state.tensor).max() < 1e-9
        assert abs((sd.coefficients**2).sum() - state.squared_norm) < 1e-10
        gram_left = np.array(
            [[inner_product(a, b) for b in sd.left_vectors[:5]] for a in sd.left_vectors[:5]]
        )
        assert np.abs(gram_left - np.eye(5)).max() < 1e-10
        assert all(
            sd.coefficients[i] >= sd.coefficients[i + 1] for i in range(sd.coefficients.size - 1)
        )
        assert assert_spectrum_matches_decomposition(state, {"p"}).size == 100

    def test_partition_errors(self):
        state = random_state(np.random.default_rng(16), ("a", "b"), (2, 2))
        for split in (schmidt_decompose, schmidt_coefficients):
            with pytest.raises(ModeLabelError):
                split(state, set())
            with pytest.raises(ModeLabelError):
                split(state, {"a", "b"})
            with pytest.raises(ModeLabelError):
                split(state, {"nope"})
