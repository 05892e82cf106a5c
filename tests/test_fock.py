"""Core state container and linear-algebra tests.

Expected numbers are frozen from independent oracles: explicit
log-factorial amplitude formulas, closed-form overlaps, and exhaustive
amplitude enumeration (see the inline helpers).
"""

import cmath
import math
import re

import numpy as np
import pytest

from kerrcat import (
    FockVector,
    ModeLabelError,
    MultiModeState,
    StateMismatchError,
    ZeroStateError,
    squeezed_vacuum,
    vacuum,
)
from kerrcat.analysis import entanglement_entropy
from kerrcat.fock import (
    ZERO_NORM_THRESHOLD,
    _bipartition_matrix,
    _Owned,
    _spectra,
    _units,
    project_mode,
    project_modes,
    schmidt_decompose,
    single,
    tensor_product,
)
from kerrcat import states
from kerrcat.states import CoherentParam, SqueezeParam, fock

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

    def test_rejects_an_empty_vector(self):
        with pytest.raises(StateMismatchError) as raised:
            FockVector(np.zeros(0))
        assert str(raised.value) == "a mode needs at least the vacuum amplitude"

    def test_rejects_overlong_norm(self):
        with pytest.raises(StateMismatchError):
            FockVector([1.0, 1.0])

    @pytest.mark.parametrize("build", [
        lambda arr: FockVector(arr),
        lambda arr: MultiModeState(("a",), arr),
        lambda arr: MultiModeState(("a", "b"), np.reshape(arr, (2, 1))),
    ], ids=["FockVector", "MultiModeState", "MultiModeState-2d"])
    @pytest.mark.parametrize("entries, message", [
        ([float("nan"), 0.0], "amplitudes must be finite (no NaN/Inf)"),
        ([complex(0.0, float("nan")), 0.0], "amplitudes must be finite (no NaN/Inf)"),
        ([float("inf"), 0.0], "amplitudes must be finite (no NaN/Inf)"),
        ([0.0, complex(0.0, float("-inf"))], "amplitudes must be finite (no NaN/Inf)"),
        ([1e200, 1e200j], "has squared norm inf > 1 + 1e-09"),
        ([1.0, 1e-4], "has squared norm 1.00000001 > 1 + 1e-09"),
    ])
    def test_one_pass_check_keeps_errors(self, build, entries, message):
        with pytest.raises(StateMismatchError, match=re.escape(message)):
            build(np.array(entries, dtype=complex))

    def test_squared_norm_is_the_checked_sum(self):
        arr = np.array([0.6, 0.3j, 1e-5 - 2e-5j, 0.0])
        for state in (FockVector(arr), MultiModeState(("a",), arr)):
            assert state.squared_norm == float(np.vdot(arr, arr).real)
        # the bound allows NORM_SLACK, and no more
        assert FockVector([1.0, 3e-5]).squared_norm == 1.0 + 9e-10
        with pytest.raises(StateMismatchError, match="MultiModeState has squared norm"):
            MultiModeState(("a",), [1.0, 4e-5])

    def test_check_order(self):
        # a multimode state is checked for finiteness before its axis count,
        # a single mode for its dimension first
        with pytest.raises(StateMismatchError, match="must be finite"):
            MultiModeState(("a",), [[float("nan")]])
        with pytest.raises(StateMismatchError, match="expected a 1-d amplitude array"):
            FockVector(float("inf"))

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


class TestAdoption:
    def test_public_constructors_copy(self):
        arr = np.array([0.6, 0.8j])
        for state, kept in ((FockVector(arr), "amplitudes"), (MultiModeState(("a",), arr), "tensor")):
            assert not np.shares_memory(getattr(state, kept), arr)
        assert arr.flags.writeable

    def test_fresh_array_is_adopted_read_only(self):
        arr = np.array([[0.6, 0.0], [0.0, 0.8j]])
        state = MultiModeState(("a", "b"), _Owned(arr))
        assert state.tensor is arr and not arr.flags.writeable
        vec = np.array([1.0, 0.0j]).reshape(1, 2)[0]  # a view spanning its whole buffer
        assert FockVector(_Owned(vec)).amplitudes is vec

    def test_single_shares_the_frozen_vector(self):
        for vector in (squeezed_vacuum(SqueezeParam(0.3), 20), FockVector([0.6, 0.8j])):
            state = single("a", vector)
            assert np.shares_memory(state.tensor, vector.amplitudes)
            assert not state.tensor.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda big: big[1],  # a slice of a larger tensor
        lambda big: big.T,  # not C-ordered
        lambda big: big.real.copy(),  # not complex
    ], ids=["slice", "transpose", "float"])
    def test_other_arrays_are_copied(self, make):
        big = np.full((2, 2), 0.5 + 0j)
        data = make(big)
        state = MultiModeState(("a", "b")[: data.ndim], _Owned(data))
        assert state.tensor.base is None and state.tensor.flags.c_contiguous
        assert not np.shares_memory(state.tensor, big)
        assert np.array_equal(state.tensor, data)

    def test_adopted_arrays_keep_every_check(self):
        with pytest.raises(StateMismatchError, match="must be finite"):
            FockVector(_Owned(np.array([np.nan, 0j])))
        with pytest.raises(StateMismatchError, match="squared norm"):
            MultiModeState(("a",), _Owned(np.array([1.0, 1.0 + 0j])))
        with pytest.raises(StateMismatchError, match="2 axes for 1 mode labels"):
            MultiModeState(("a",), _Owned(np.zeros((2, 2), complex)))
        with pytest.raises(ModeLabelError, match="duplicate"):
            MultiModeState(("a", "a"), _Owned(np.zeros((2, 2), complex)))
        with pytest.raises(StateMismatchError, match="expected a 1-d amplitude array"):
            FockVector(_Owned(np.zeros((1, 1), complex)))


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
            u = MultiModeState(u.labels, u.tensor * 0.7)
            prod = tensor_product(u, v)
            assert abs(prod.norm - u.norm * v.norm) < 1e-12

    def test_duplicate_mode_rejected(self):
        a = single("a", vacuum(1))
        with pytest.raises(ModeLabelError):
            tensor_product(a, single("a", vacuum(1)))


class TestInnerProduct:
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

        xi = squeezed_vacuum(SqueezeParam(0.5), 40).amplitudes
        mxi = squeezed_vacuum(SqueezeParam(0.5, math.pi), 40).amplitudes
        assert abs(np.vdot(xi, mxi) - OVERLAP_OPPOSITE_R05) < 1e-4

    def test_two_photon_amplitude_frozen(self):
        # <2|xi> at r=0.5 from the direct formula; note the value, two
        # independent evaluations agree on -0.3077192
        direct = squeezed_amp_direct(2, 0.5)
        assert abs(direct - (-0.3077191764583704)) < 1e-12
        two = fock(2, 40).amplitudes
        xi = squeezed_vacuum(SqueezeParam(0.5), 40).amplitudes
        assert abs(np.vdot(two, xi) - (-0.3077191764583704)) < 1e-5

class TestNormalize:
    # fock._units is the one normalizer; the cats (states._cat) raise
    # ZeroStateError from the norm it returns
    def test_opposite_sum_at_zero_squeeze(self):
        # |xi> + |-xi> at r=0 is twice the vacuum
        xi = squeezed_vacuum(SqueezeParam(0.0), 4)
        mxi = squeezed_vacuum(SqueezeParam(0.0, math.pi), 4)
        (unit,), _ = _units((xi.amplitudes + mxi.amplitudes)[None])
        assert np.allclose(FockVector(unit).amplitudes, vacuum(4).amplitudes)

    def test_zero_row_is_left_as_it_is(self):
        units, norms = _units(np.zeros((2, 5), complex))
        assert norms == [0.0, 0.0] and not units.any()

    def test_difference_divided_by_its_norm(self):
        xi = squeezed_vacuum(SqueezeParam(0.5), 40)
        mxi = squeezed_vacuum(SqueezeParam(0.5, math.pi), 40)
        difference = xi.amplitudes - mxi.amplitudes
        (unit,), _ = _units(difference[None])
        unit = FockVector(unit)
        assert abs(unit.squared_norm - 1.0) < 1e-12
        norm = math.sqrt(2 - 2 * OVERLAP_OPPOSITE_R05)
        assert np.abs(unit.amplitudes * norm - difference).max() < 1e-4

    def test_fixed_zero_threshold(self):
        # a norm at the threshold is zero, twice the threshold is not: the row
        # is left as it is, and a cat of that norm is refused
        for scale, vanishes in ((1.0, True), (2.0, False)):
            amplitudes = np.array([scale * ZERO_NORM_THRESHOLD, 0.0], complex)
            (unit,), _ = _units(amplitudes[None])
            assert np.array_equal(unit, amplitudes) == vanishes
            # an even coherent cat doubles the vacuum amplitude of its source
            half = FockVector(amplitudes / 2)
            cat = lambda: states._cat(lambda *_: half, CoherentParam(0.0), 1, 1, 0.5)
            if vanishes:
                with pytest.raises(ZeroStateError, match="zero threshold 1e-12"):
                    cat()
            else:
                assert abs(cat().squared_norm - 1.0) < 1e-15

    def test_each_row_divided_by_its_own_norm(self):
        stack = np.array([[[0.3, 0.0], [0.0, 0.4j]], [[0.0, 2e-12], [0.0, 0.0]]])
        units, norms = _units(stack)
        assert norms == pytest.approx([0.5, 2e-12], rel=1e-15)
        assert np.allclose(units, [stack[0] / 0.5, stack[1] / 2e-12], rtol=1e-15, atol=0)


class TestProjection:
    def test_split_photon_projection(self):
        bc = MultiModeState(("b", "c"), np.array([[0, 1j], [1, 0]], complex) / math.sqrt(2))
        remaining, prob = project_mode(bc, "b", 1)
        assert prob == pytest.approx(0.5)
        assert remaining.labels == ("c",)
        assert np.allclose(remaining.tensor / math.sqrt(prob), [1.0, 0.0])

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
            state = MultiModeState(state.labels, state.tensor * 0.9)  # sub-normalized
            total = sum(project_mode(state, "b", n)[1] for n in range(7))
            assert abs(total - state.squared_norm) < 1e-10

    def test_domain_errors(self):
        s = single("a", vacuum(2))
        with pytest.raises(ModeLabelError):
            project_mode(s, "zz", 0)
        from kerrcat import CutoffError
        with pytest.raises(CutoffError):
            project_mode(s, "a", 3)

    def test_joint_errors_name_the_state_left_so_far(self):
        from kerrcat import CutoffError
        state = random_state(np.random.default_rng(3), ("a", "b", "c"), (2, 1, 1))
        with pytest.raises(ModeLabelError, match=re.escape("unknown mode 'b'; state has ('a', 'c')")):
            project_modes(state, [("b", 0), ("b", 1)])
        with pytest.raises(CutoffError, match=re.escape("photon count 2 out of range for mode 'c'")):
            project_modes(state, [("b", 0), ("c", 2)])

    def test_joint_projection_matches_one_mode_at_a_time(self):
        state = random_state(np.random.default_rng(4), ("a", "b", "c", "d"), (3, 1, 2, 1))
        for outcomes in ([("c", 1), ("a", 2)], [("d", 0), ("b", 1), ("a", 3), ("c", 0)]):
            joint, prob = project_modes(state, outcomes)
            tensor = state.tensor
            labels = list(state.labels)
            for mode, n in outcomes:
                tensor = np.take(tensor, n, axis=labels.index(mode))
                labels.remove(mode)
            assert joint.labels == tuple(labels)
            assert np.array_equal(joint.tensor, tensor)
            assert prob == float(np.vdot(tensor, tensor).real) == joint.squared_norm

    def test_branch_does_not_pin_its_parent(self):
        import gc
        import weakref

        state = random_state(np.random.default_rng(5), ("a", "b", "c"), (3, 1, 1))
        parent = weakref.ref(state.tensor)
        branches = [project_modes(state, [("b", 1), ("c", 0)])[0], project_mode(state, "a", 2)[0],
                    project_modes(state, [("a", 0), ("b", 0), ("c", 0)])[0]]
        del state
        gc.collect()
        assert parent() is None
        assert all(branch.tensor.base is None for branch in branches)


def assert_spectrum_matches_decomposition(state, left):
    """The occupied spectrum is the nonzero part of schmidt_decompose's
    spectrum; whatever it leaves out is zero."""
    (values,) = _spectra([_bipartition_matrix(state, left)[0]])
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
            [[np.vdot(a.tensor, b.tensor) for b in sd.left_vectors[:5]] for a in sd.left_vectors[:5]]
        )
        assert np.abs(gram_left - np.eye(5)).max() < 1e-10
        assert all(
            sd.coefficients[i] >= sd.coefficients[i + 1] for i in range(sd.coefficients.size - 1)
        )
        assert assert_spectrum_matches_decomposition(state, {"p"}).size == 100

    def test_partition_errors(self):
        state = random_state(np.random.default_rng(16), ("a", "b"), (2, 2))
        for split in (schmidt_decompose, entanglement_entropy):
            with pytest.raises(ModeLabelError):
                split(state, set())
            with pytest.raises(ModeLabelError):
                split(state, {"a", "b"})
            with pytest.raises(ModeLabelError):
                split(state, {"nope"})
