"""Element tests: splitter convention, diagonal phases, unitarity, the
scaling-and-squaring matrix oracle for the general splitter blocks, and a
high-precision binomial-expansion reference for the splitter plan."""

import math
import re
import time
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kerrcat import (
    BalancedBeamSplitter,
    CoherentParam,
    CrossKerr,
    CutoffError,
    Detect,
    ModeLabelError,
    MultiModeState,
    PhaseShift,
    SqueezeParam,
    StateMismatchError,
    TruncationWarning,
    coherent,
    run_circuit,
    squeezed_vacuum,
)
from kerrcat.analysis import fidelity, photon_distribution
from kerrcat.dsl import parse
from kerrcat.fock import single, tensor_product
from kerrcat.states import fock
from kerrcat import elements
from kerrcat.elements import (
    _BS_HALF_ANGLE,
    _PLAN_CACHE_SIZE,
    _beam_splitter_plan,
    apply_beam_splitter,
    apply_cross_kerr,
    apply_element,
    apply_phase_shift,
    element_modes,
)


def random_state(rng, labels, cutoffs):
    shape = tuple(c + 1 for c in cutoffs)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr /= np.linalg.norm(arr)
    return MultiModeState(tuple(labels), arr)


def strip_boundary(state, mode_1, mode_2):
    """Zero pair-photon blocks above the cutoff and renormalize."""
    ax1, ax2 = state.axis(mode_1), state.axis(mode_2)
    cutoff = state.tensor.shape[ax1] - 1
    arr = np.array(state.tensor)
    moved = np.moveaxis(arr, (ax1, ax2), (0, 1))
    n1, n2 = np.indices(moved.shape[:2])
    moved[n1 + n2 > cutoff] = 0.0
    arr = np.moveaxis(moved, (0, 1), (ax1, ax2))
    arr /= np.linalg.norm(arr)
    return MultiModeState(state.labels, arr)


def oracle_bs_operator(cutoff):
    """Scaling-and-squaring exponential of the full hopping generator."""
    d = cutoff + 1
    lower = np.diag(np.sqrt(np.arange(1, d)), 1)
    b = np.kron(lower, np.eye(d))
    c = np.kron(np.eye(d), lower)
    gen = b.T.conj() @ c + c.T.conj() @ b
    return expm(1j * (math.pi / 4) * gen)


def pack_blocks(cutoff, block):
    """The plan's (row, slot, slot) table from ``block(total, kept)``, the
    entries of the unitary of each total photon number on its representable
    slots ``kept``, which go to row N mod (c + 1)."""
    d = cutoff + 1
    unitaries = np.zeros((d, d, d), dtype=np.complex128)
    for total in range(2 * cutoff + 1):
        kept = range(max(0, total - cutoff), min(total, cutoff) + 1)
        unitaries[total % d, kept.start:kept.stop, kept.start:kept.stop] = block(total, kept)
    return unitaries


def eigh_unitaries(cutoff, half_angle=_BS_HALF_ANGLE):
    """The blocks as spectral exponentials of the tridiagonal hopping
    generators, the way the plan was built before its recurrence."""

    def block(total, kept):
        off = np.sqrt(np.arange(1, total + 1) * np.arange(total, 0, -1))
        evals, evecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        full = (evecs * np.exp(1j * half_angle * evals)) @ evecs.T.conj()
        return full[kept.start:kept.stop, kept.start:kept.stop]

    return pack_blocks(cutoff, block)


def mpmath_unitaries(cutoff, half_angle=_BS_HALF_ANGLE, bits=256):
    """The blocks from the binomial expansion of
    U|n, N-n> = (c a1+ + i s a2+)^n (i s a1+ + c a2+)^(N-n) |0> / sqrt(n! (N-n)!).

    Entry (m, n) of block N is i^(m+n) sqrt(n! (N-n)! / (m! (N-m)!)) times
    sum_k (-1)^k C(n, k) C(N-n, m-k) c^(N-n-m+2k) s^(n+m-2k). The powers
    of c and s and the square roots come from 40-digit mpmath as
    ``bits``-bit fixed-point integers, so the alternating sum, which
    cancels up to 11 digits at c = 40, is exact.
    """
    with mpmath.workdps(40):
        h = mpmath.mpf(half_angle)
        c, s = mpmath.cos(h), mpmath.sin(h)

        def fixed(x):
            return int(mpmath.nint(mpmath.ldexp(x, bits)))

        def block(total, kept):
            power = [fixed(c ** (total - b) * s ** b) for b in range(total + 1)]
            # g[m] / g[n] = sqrt(n! (N-n)! / (m! (N-m)!))
            g = [fixed(1 / mpmath.sqrt(mpmath.binomial(total, m))) for m in range(total + 1)]
            out = np.zeros((len(kept), len(kept)), dtype=np.complex128)
            for i, m in enumerate(kept):
                for j, n in enumerate(kept):
                    acc = sum(
                        (-1) ** k * math.comb(n, k) * math.comb(total - n, m - k)
                        * power[n + m - 2 * k]
                        for k in range(max(0, m + n - total), min(m, n) + 1)
                    )
                    out[i, j] = acc * g[m] / g[n] / 2 ** bits * 1j ** ((m + n) % 4)
            return out

        return pack_blocks(cutoff, block)


class TestBeamSplitterPlan:
    def test_cutoff_one_entries_pinned(self):
        # the protocols mix only cutoff-1 modes, so their report bytes
        # depend on exactly these values; row 0 slot 1 is the kept corner of
        # the over-cutoff N = 2 block, cos^2 - sin^2 of the half-angle
        unitaries = _beam_splitter_plan(1, _BS_HALF_ANGLE).unitaries
        assert unitaries.tolist() == [
            [[1, 0], [0, 2.220446049250313e-16]],
            [[0.7071067811865476, 0.7071067811865475j], [0.7071067811865475j, 0.7071067811865476]],
        ]

    def test_unitary_at_cutoff_200(self):
        # unbuffered: the cache would keep the 130 MB table alive
        cutoff = 200
        unitaries = _beam_splitter_plan.__wrapped__(cutoff, _BS_HALF_ANGLE).unitaries
        worst = 0.0
        for total in range(cutoff + 1):
            block = unitaries[total, : total + 1, : total + 1]
            worst = max(worst, np.abs(block @ block.conj().T - np.eye(total + 1)).max())
        assert worst <= 1e-13

    def test_closer_to_the_reference_than_eigh(self):
        cutoff = 40
        reference = mpmath_unitaries(cutoff)
        plan_error = np.abs(_beam_splitter_plan(cutoff, _BS_HALF_ANGLE).unitaries - reference).max()
        eigh_error = np.abs(eigh_unitaries(cutoff) - reference).max()
        assert plan_error < eigh_error
        assert plan_error <= 1e-15

    def test_matches_eigh_at_other_half_angles(self):
        for half_angle in (0.0, 0.3, 1.1, math.pi / 2, -2.0):
            plan = _beam_splitter_plan(6, half_angle)
            assert np.abs(plan.unitaries - eigh_unitaries(6, half_angle)).max() < 1e-13

    def test_plan_cache_is_bounded(self):
        for cutoff in range(2, 2 + 2 * _PLAN_CACHE_SIZE):
            _beam_splitter_plan(cutoff, _BS_HALF_ANGLE)
        info = _beam_splitter_plan.cache_info()
        assert info.maxsize == _PLAN_CACHE_SIZE
        assert info.currsize == _PLAN_CACHE_SIZE

    def test_plan_over_the_state_cap_is_refused_before_it_is_built(self):
        # a cutoff-406 pair holds 165,649 amplitudes, within the state cap,
        # but its plan would hold 407^3 > MAX_STATE_DIMENSION entries (1 GiB)
        state = tensor_product(single("a", fock(1, 406)), single("b", fock(0, 406)))
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="^a beam splitter at cutoff 406 needs a plan "
                                                  "of 67419143 entries, above the maximum"):
                apply_beam_splitter(state, "a", "b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_builds_faster_than_eigh(self):
        def best_of(build, runs=5):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                build()
                times.append(time.perf_counter() - start)
            return min(times)

        recurrence = best_of(lambda: _beam_splitter_plan.__wrapped__(40, _BS_HALF_ANGLE))
        assert recurrence <= 0.3 * best_of(lambda: eigh_unitaries(40))


class TestBeamSplitterConvention:
    def test_single_photon_block_pinned_before_higher_blocks(self):
        # the 2x2 single-photon block must be exact before any use of the
        # higher blocks is trusted
        # the N=1 block sits in row 1, slots 0..1 (slot = n1), beside the
        # N=6 block in slots 2..4
        plan = _beam_splitter_plan(4, _BS_HALF_ANGLE)
        n1, n2 = plan.gather
        assert (n1[1, :2].tolist(), n2[1, :2].tolist()) == ([0, 1], [1, 0])
        row = plan.unitaries[1]
        isq = 1 / math.sqrt(2)
        assert abs(row[1, 1] - isq) < 1e-14
        assert abs(row[0, 1] - 1j * isq) < 1e-14
        assert abs(row[0, 0] - isq) < 1e-14
        assert abs(row[1, 0] - 1j * isq) < 1e-14
        assert np.abs(row[:2, 2:]).max() == 0.0 and np.abs(row[2:, :2]).max() == 0.0

    @pytest.mark.parametrize("cutoff", [1, 5])
    def test_single_photon_action(self, cutoff):
        # a photon on either port splits 50:50 with i on the crossed port,
        # and every other amplitude stays zero
        isq = 1 / math.sqrt(2)
        for nb, nc in ((1, 0), (0, 1)):
            s = tensor_product(single("b", fock(nb, cutoff)), single("c", fock(nc, cutoff)))
            out = apply_beam_splitter(s, "b", "c").tensor
            expected = np.zeros_like(out)
            expected[nb, nc] = isq
            expected[nc, nb] = 1j * isq
            assert np.abs(out - expected).max() <= 1e-12

    def test_vacuum_unchanged(self):
        s = tensor_product(single("b", fock(0, 2)), single("c", fock(0, 2)))
        out = apply_beam_splitter(s, "b", "c")
        assert np.allclose(out.tensor, s.tensor, atol=1e-15)

    def test_matches_expm_oracle_on_random_states(self):
        rng = np.random.default_rng(21)
        for cutoff in (1, 2, 3, 4):
            oracle = oracle_bs_operator(cutoff)
            for _ in range(5):
                state = strip_boundary(
                    random_state(rng, ("b", "c"), (cutoff, cutoff)), "b", "c"
                )
                applied = apply_beam_splitter(state, "b", "c").tensor.ravel()
                expected = oracle @ state.tensor.ravel()
                assert np.abs(applied - expected).max() < 1e-12

    def test_matches_expm_oracle_on_non_adjacent_reversed_modes(self):
        # modes (a, b, c) with the splitter on (c, a): the generator is built
        # on the full three-mode space, so no axis handling is shared
        cutoff, spectator = 2, 1
        d = cutoff + 1
        lower = np.diag(np.sqrt(np.arange(1, d)), 1)
        a_op = np.kron(lower, np.eye((spectator + 1) * d))
        c_op = np.kron(np.eye(d * (spectator + 1)), lower)
        oracle = expm(1j * (math.pi / 4) * (a_op.T.conj() @ c_op + c_op.T.conj() @ a_op))
        rng = np.random.default_rng(27)
        for _ in range(5):
            state = strip_boundary(
                random_state(rng, ("a", "b", "c"), (cutoff, spectator, cutoff)), "c", "a"
            )
            applied = apply_beam_splitter(state, "c", "a").tensor
            assert applied.flags.c_contiguous
            expected = oracle @ state.tensor.ravel()
            assert np.abs(applied.ravel() - expected).max() < 1e-12

    @pytest.mark.parametrize("labels, cutoffs, pair", [
        (("a", "b", "c"), (3, 8, 3), ("c", "a")),  # chunks along the spectator between
        (("a", "b", "c", "d"), (6, 2, 2, 4), ("c", "b")),  # chunks along the leading axis
        (("a", "b"), (5, 5), ("a", "b")),  # no axis outside the pair: one chunk
    ])
    def test_chunks_give_the_unchunked_image(self, labels, cutoffs, pair, monkeypatch):
        # chunks of one slice, and of two with a shorter last one, against
        # one chunk for the whole tensor; the truncated mass is summed over
        # the chunks
        state = random_state(np.random.default_rng(29), labels, cutoffs)
        spectators = [state.tensor.shape[i] for i, l in enumerate(labels) if l not in pair]
        per_slice = state.tensor.size // (spectators or [1])[0]

        def split():
            with pytest.warns(TruncationWarning) as record:
                tensor = apply_beam_splitter(state, *pair).tensor
            (warning,) = record
            return tensor, float(re.search(r"probability (\S+)", str(warning.message))[1])

        whole, mass = split()
        for chunk in (1, 2 * per_slice):
            monkeypatch.setattr(elements, "_CHUNK_AMPLITUDES", chunk)
            chunked, chunked_mass = split()
            assert np.abs(chunked - whole).max() <= 1e-15
            assert chunked_mass == pytest.approx(mass, rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        cutoff=st.integers(0, 6),
        spectator=st.integers(0, 3),
        order=st.permutations(("x", "y", "z")),
        data=st.data(),
    )
    def test_norm_preserved_below_cutoff(self, cutoff, spectator, order, data):
        # the splitter acts on order[0], order[1]; order[2] is a spectator
        cutoffs = {order[0]: cutoff, order[1]: cutoff, order[2]: spectator}
        labels = ("x", "y", "z")
        shape = tuple(cutoffs[l] + 1 for l in labels)
        amplitudes = data.draw(
            hnp.arrays(
                np.complex128,
                shape,
                elements=st.complex_numbers(max_magnitude=1.0, allow_subnormal=False),
            )
        )
        photons = np.indices(shape)
        below = photons[labels.index(order[0])] + photons[labels.index(order[1])] <= cutoff
        amplitudes = np.where(below, amplitudes, 0)
        assume(np.linalg.norm(amplitudes) > 1e-3)
        state = MultiModeState(labels, amplitudes / np.linalg.norm(amplitudes))
        out = apply_beam_splitter(state, order[0], order[1])
        assert abs(out.squared_norm - state.squared_norm) <= 1e-12

    def test_double_application_is_swap_with_phase(self):
        # two passes equal a pi/2 phase on each mode composed with a swap;
        # verified against the brute-force matrix oracle
        cutoff = 4
        d = cutoff + 1
        oracle2 = oracle_bs_operator(cutoff) @ oracle_bs_operator(cutoff)
        swap_phase = np.zeros((d * d, d * d), complex)
        for nb in range(d):
            for nc in range(d):
                swap_phase[nc * d + nb, nb * d + nc] = np.exp(1j * (math.pi / 2) * (nb + nc))
        rng = np.random.default_rng(22)
        for _ in range(5):
            state = strip_boundary(random_state(rng, ("b", "c"), (cutoff, cutoff)), "b", "c")
            twice = apply_beam_splitter(
                apply_beam_splitter(state, "b", "c"), "b", "c"
            ).tensor.ravel()
            assert np.abs(twice - oracle2 @ state.tensor.ravel()).max() < 1e-12
            assert np.abs(twice - swap_phase @ state.tensor.ravel()).max() < 1e-12

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(23)
        state = strip_boundary(random_state(rng, ("b", "c"), (5, 5)), "b", "c")
        before = np.zeros(11)
        after = np.zeros(11)
        probs_b = np.abs(state.tensor) ** 2
        probs_a = np.abs(apply_beam_splitter(state, "b", "c").tensor) ** 2
        for nb in range(6):
            for nc in range(6):
                before[nb + nc] += probs_b[nb, nc]
                after[nb + nc] += probs_a[nb, nc]
        assert np.abs(before - after).max() < 1e-12

    def test_cutoff_mismatch_rejected(self):
        s = tensor_product(single("b", fock(0, 1)), single("c", fock(0, 2)))
        with pytest.raises(StateMismatchError):
            apply_beam_splitter(s, "b", "c")

    def test_boundary_population_warns_and_loses_norm(self):
        s = tensor_product(single("b", fock(1, 1)), single("c", fock(1, 1)))
        with pytest.warns(TruncationWarning):
            out = apply_beam_splitter(s, "b", "c")
        assert out.squared_norm < 0.5

    def test_warning_points_at_the_caller(self):
        # not at the package's own dispatch or circuit-runner lines
        s = tensor_product(single("b", fock(1, 1)), single("c", fock(1, 1)))
        program = parse(
            "mode b cutoff 1\nmode c cutoff 1\nsource b fock n=1\nsource c fock n=1\nbs b c\n"
        ).program
        for call in (
            lambda: apply_beam_splitter(s, "b", "c"),
            lambda: apply_element(s, BalancedBeamSplitter("b", "c")),
            lambda: run_circuit(program),
        ):
            with pytest.warns(TruncationWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_no_warning_below_boundary(self):
        s = tensor_product(single("b", fock(1, 1)), single("c", fock(0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_beam_splitter(s, "b", "c")


class TestPhaseShift:
    def test_zero_angle_identity(self):
        s = single("a", coherent(CoherentParam(0.8), 16))
        out = apply_phase_shift(s, "a", 0.0)
        assert np.array_equal(out.tensor, s.tensor)

    def test_number_state_global_phase(self):
        for n in range(4):
            s = single("a", fock(n, 4))
            theta = 0.813
            out = apply_phase_shift(s, "a", theta)
            assert abs(out.tensor[n] - np.exp(1j * n * theta)) < 1e-14
            assert fidelity(out, s) == pytest.approx(1.0)

    def test_two_pi_periodicity(self):
        s = single("a", coherent(CoherentParam(1.0), 20))
        theta = 1.234
        a = apply_phase_shift(s, "a", theta)
        b = apply_phase_shift(s, "a", theta + 2 * math.pi)
        assert np.abs(a.tensor - b.tensor).max() < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(ModeLabelError):
            apply_phase_shift(single("a", fock(0, 1)), "b", 0.1)


class TestCrossKerr:
    def test_zero_tau_identity(self):
        s = tensor_product(single("a", coherent(CoherentParam(0.7), 14)), single("b", fock(1, 1)))
        out = apply_cross_kerr(s, "a", "b", 0.0)
        assert np.array_equal(out.tensor, s.tensor)

    def test_axis_order_irrelevant(self):
        rng = np.random.default_rng(24)
        state = random_state(rng, ("a", "b"), (3, 4))
        forward = apply_cross_kerr(state, "a", "b", 0.77).tensor
        backward = apply_cross_kerr(state, "b", "a", 0.77).tensor
        assert np.abs(forward - backward).max() < 1e-15

    def test_shared_mode_commutation(self):
        rng = np.random.default_rng(25)
        state = random_state(rng, ("a", "b", "c"), (3, 3, 3))
        one = apply_cross_kerr(apply_cross_kerr(state, "a", "b", 0.5), "c", "b", 1.3)
        two = apply_cross_kerr(apply_cross_kerr(state, "c", "b", 1.3), "a", "b", 0.5)
        assert np.abs(one.tensor - two.tensor).max() < 1e-14

    def test_same_mode_rejected(self):
        s = single("a", fock(0, 1))
        with pytest.raises(ModeLabelError):
            apply_cross_kerr(s, "a", "a", 0.5)


ANGLES = st.floats(-10.0, 10.0)


@st.composite
def diagonal_cases(draw):
    """A normalized state on modes x, y, z (cutoffs 0..5) and two of its
    modes in either order."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=3, max_size=3)))
    amplitudes = draw(
        hnp.arrays(
            np.complex128,
            shape,
            elements=st.complex_numbers(max_magnitude=1.0, allow_subnormal=False),
        )
    )
    assume(np.linalg.norm(amplitudes) > 1e-3)
    state = MultiModeState(("x", "y", "z"), amplitudes / np.linalg.norm(amplitudes))
    return state, draw(st.permutations(("x", "y", "z")))[:2]


def diagonal_oracle(state, exponent):
    """The dense diagonal operator exp(i exponent(n_x, n_y, n_z)) on the
    flattened state, over every basis state."""
    photons = np.indices(state.tensor.shape).reshape(state.tensor.ndim, -1)
    operator = np.diag(np.exp(1j * exponent(*photons)))
    return (operator @ state.tensor.ravel()).reshape(state.tensor.shape)


class TestDiagonalElementProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=diagonal_cases(), theta=ANGLES)
    def test_phase_shift(self, case, theta):
        state, (mode, _) = case
        out = apply_phase_shift(state, mode, theta)
        assert abs(out.squared_norm - state.squared_norm) <= 1e-12
        for m in state.labels:
            assert np.abs(photon_distribution(out, m) - photon_distribution(state, m)).max() <= 1e-12
        axis = state.labels.index(mode)
        expected = diagonal_oracle(state, lambda *n: theta * n[axis])
        assert np.abs(out.tensor - expected).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=diagonal_cases(), theta_1=ANGLES, theta_2=ANGLES)
    def test_phase_shifts_compose(self, case, theta_1, theta_2):
        state, (mode, _) = case
        twice = apply_phase_shift(apply_phase_shift(state, mode, theta_1), mode, theta_2)
        once = apply_phase_shift(state, mode, theta_1 + theta_2)
        assert np.abs(twice.tensor - once.tensor).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=diagonal_cases(), tau=ANGLES)
    def test_cross_kerr(self, case, tau):
        state, (mode_1, mode_2) = case
        out = apply_cross_kerr(state, mode_1, mode_2, tau)
        assert np.array_equal(out.tensor, apply_cross_kerr(state, mode_2, mode_1, tau).tensor)
        assert abs(out.squared_norm - state.squared_norm) <= 1e-12
        for m in state.labels:
            assert np.abs(photon_distribution(out, m) - photon_distribution(state, m)).max() <= 1e-12
        ax1, ax2 = state.labels.index(mode_1), state.labels.index(mode_2)
        expected = diagonal_oracle(state, lambda *n: -tau * n[ax1] * n[ax2])
        assert np.abs(out.tensor - expected).max() <= 1e-12


class TestUnitarity:
    def test_norm_conserved_over_random_applications(self):
        rng = np.random.default_rng(26)
        worst = 0.0
        for i in range(100):
            state = random_state(rng, ("x", "y", "z"), (3, 3, 3))
            pick = [("x", "y", "z")[k] for k in rng.permutation(3)]
            angle = float(rng.uniform(0, 2 * math.pi))
            if i % 3 == 0:
                out = apply_phase_shift(state, pick[0], angle)
            elif i % 3 == 1:
                out = apply_cross_kerr(state, pick[0], pick[1], angle)
            else:
                state = strip_boundary(state, pick[0], pick[1])
                out = apply_beam_splitter(state, pick[0], pick[1])
            worst = max(worst, abs(out.squared_norm - state.squared_norm))
        assert worst <= 1e-12


class TestDispatch:
    def test_phase_dispatch_identity(self):
        s = single("a", fock(1, 2))
        out = apply_element(s, PhaseShift("a", 0.0))
        assert np.array_equal(out.tensor, s.tensor)

    def test_kerr_dispatch_builds_expected_composite(self):
        # after the Kerr phase at tau=pi/2, the transmitted-photon component
        # carries the sign-flipped source while the reflected one is intact
        p = SqueezeParam(0.5)
        cutoff = 26
        xi = squeezed_vacuum(p, cutoff)
        bc = MultiModeState(("b", "c"), np.array([[0, 1j], [1, 0]], complex) / math.sqrt(2))
        state = tensor_product(single("a", xi), bc)
        out = apply_element(state, CrossKerr("a", "b", math.pi / 2))
        flipped = squeezed_vacuum(SqueezeParam(p.r, p.phi + math.pi), cutoff)
        expected = np.zeros_like(state.tensor)
        expected[:, 1, 0] = flipped.amplitudes / math.sqrt(2)
        expected[:, 0, 1] = 1j * xi.amplitudes / math.sqrt(2)
        target = MultiModeState(("a", "b", "c"), expected)
        assert fidelity(out, target) >= 1 - 1e-10

    def test_detect_is_not_an_element(self):
        s = tensor_product(single("b", fock(1, 1)), single("c", fock(0, 1)))
        with pytest.raises(TypeError, match="not a circuit element"):
            apply_element(s, Detect("b", 1))

    def test_element_modes_refuses_other_objects(self):
        thing = object()
        with pytest.raises(TypeError) as raised:
            element_modes(thing)
        assert str(raised.value) == f"not a circuit element: {thing!r}"

    def test_descriptor_validation(self):
        with pytest.raises(ModeLabelError):
            CrossKerr("a", "a", 0.1)
        with pytest.raises(ModeLabelError):
            BalancedBeamSplitter("b", "b")
        with pytest.raises(ValueError):
            PhaseShift("a", float("inf"))
        with pytest.raises(ValueError):
            Detect("a", -1)
