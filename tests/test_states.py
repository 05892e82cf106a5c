"""State-factory tests: analytic amplitudes, leakage budgets, cat supports."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import (
    CoherentParam,
    CutoffError,
    FockParam,
    SqueezeParam,
    ZeroStateError,
    coherent,
    squeezed_vacuum,
    suggest_cutoff,
    vacuum,
)
from kerrcat import states
from kerrcat.states import build_source, cat_coherent, cat_squeezed, fock


def squeezed_amp_direct(n, r, phi=0.0):
    if n % 2 == 1 or (r == 0 and n > 0):
        return 0.0j
    if n == 0:
        return 1 / math.sqrt(math.cosh(r)) + 0j
    m = n // 2
    mag = math.exp(0.5 * math.lgamma(2 * m + 1) - m * math.log(2) - math.lgamma(m + 1))
    return (1 / math.sqrt(math.cosh(r))) * mag * (-cmath.exp(1j * phi) * math.tanh(r)) ** m


class TestBasisStates:
    def test_vacuum_cutoff_zero(self):
        assert np.array_equal(vacuum(0).amplitudes, [1.0])

    def test_vacuum_is_fock_zero(self):
        assert np.array_equal(vacuum(7).amplitudes, fock(0, 7).amplitudes)
        assert vacuum(7).norm == 1.0

    def test_fock_basis(self):
        assert np.array_equal(fock(1, 1).amplitudes, [0.0, 1.0])

    def test_fock_out_of_range(self):
        with pytest.raises(CutoffError):
            fock(2, 1)

    def test_fock_orthonormality(self):
        for n in range(4):
            for m in range(4):
                overlap = np.vdot(fock(n, 4).amplitudes, fock(m, 4).amplitudes)
                assert overlap == (1.0 if n == m else 0.0)


class TestCoherent:
    def test_zero_alpha_is_vacuum(self):
        out = coherent(CoherentParam(0.0), 5)
        assert np.array_equal(out.amplitudes, vacuum(5).amplitudes)

    def test_vacuum_probability_poissonian(self):
        out = coherent(CoherentParam(1.0), 20)
        assert abs(abs(out.amplitudes[0]) ** 2 - math.exp(-1.0)) < 1e-9

    def test_mean_photon_number(self):
        for alpha in (0.5, 1.0, 0.3 + 0.4j):
            cutoff = suggest_cutoff(CoherentParam(alpha), 1e-12)
            out = coherent(CoherentParam(alpha), cutoff, eps=1e-12)
            probs = np.abs(out.amplitudes) ** 2
            mean = float((np.arange(cutoff + 1) * probs).sum())
            assert abs(mean - abs(alpha) ** 2) < 1e-10 * (cutoff + 1)

    def test_leakage_budget_enforced(self):
        with pytest.raises(CutoffError):
            coherent(CoherentParam(1.0), 3, eps=1e-10)

    def test_default_budget_is_checked(self):
        # a pinned cutoff is checked against DEFAULT_LEAKAGE unless eps is given
        out = coherent(CoherentParam(2.0), 5, eps=0.5)
        expected = [math.exp(-2.0) * 2.0**n / math.sqrt(math.factorial(n)) for n in range(6)]
        assert np.allclose(out.amplitudes, expected, rtol=1e-14, atol=0)
        budget = f"budget {states.DEFAULT_LEAKAGE:.3e}"
        for build in (
            lambda: coherent(CoherentParam(2.0), 5),
            lambda: cat_coherent(CoherentParam(2.0), 1, 5),
            lambda: squeezed_vacuum(SqueezeParam(0.9), 8),
            lambda: cat_squeezed(SqueezeParam(0.9), -1, 8),
        ):
            with pytest.raises(CutoffError, match=budget):
                build()
        cutoff = suggest_cutoff(CoherentParam(2.0))
        assert (coherent(CoherentParam(2.0), cutoff).amplitudes.tobytes()
                == coherent(CoherentParam(2.0), cutoff, states.DEFAULT_LEAKAGE).amplitudes.tobytes())

    def test_given_budget_must_lie_in_unit_interval(self):
        # NaN compares false with everything, so a plain `leak >= eps` test
        # would wave it through
        for eps in (float("nan"), 0.0, 1.0, 5.0, -1e-10):
            with pytest.raises(ValueError, match=r"leakage budget must lie in \(0, 1\)"):
                coherent(CoherentParam(2.0), 5, eps=eps)
            with pytest.raises(ValueError, match=r"leakage budget must lie in \(0, 1\)"):
                build_source(SqueezeParam(0.9), 4, eps)
            with pytest.raises(ValueError, match=r"leakage budget must lie in \(0, 1\)"):
                suggest_cutoff(SqueezeParam(0.9), eps)

    def test_truncated_norm_within_budget(self):
        for alpha in (0.2, 1.0, 1.5):
            cutoff = suggest_cutoff(CoherentParam(alpha), 1e-10)
            out = coherent(CoherentParam(alpha), cutoff)
            assert out.squared_norm >= 1 - 1e-10


class TestSqueezedVacuum:
    def test_zero_squeeze_is_vacuum(self):
        out = squeezed_vacuum(SqueezeParam(0.0), 4)
        assert np.array_equal(out.amplitudes, vacuum(4).amplitudes)

    def test_frozen_amplitudes(self):
        out = squeezed_vacuum(SqueezeParam(0.5), 40)
        assert abs(out.amplitudes[0] - 0.9417106158316757) < 1e-5
        assert abs(out.amplitudes[2] - (-0.3077191764583704)) < 1e-5

    def test_matches_direct_formula(self):
        for r, phi in ((0.3, 0.0), (0.8, 1.1), (1.0, 4.5)):
            cutoff = suggest_cutoff(SqueezeParam(r), 1e-12)
            out = squeezed_vacuum(SqueezeParam(r, phi), cutoff, eps=1e-12)
            direct = np.array([squeezed_amp_direct(n, r, phi) for n in range(cutoff + 1)])
            assert np.abs(out.amplitudes - direct).max() < 1e-12

    def test_odd_amplitudes_exactly_zero(self):
        out = squeezed_vacuum(SqueezeParam(0.9), 30, 1e-3)
        assert np.all(out.amplitudes[1::2] == 0.0)

    def test_even_recurrence(self):
        # ratio of consecutive even amplitudes, independent of factorials
        p = SqueezeParam(0.7, 2.1)
        out = squeezed_vacuum(p, 40)
        step = -cmath.exp(1j * p.phi) * math.tanh(p.r)
        for m in range(0, 19):
            expected = step * math.sqrt(2 * m + 1) / math.sqrt(2 * m + 2)
            ratio = out.amplitudes[2 * m + 2] / out.amplitudes[2 * m]
            assert abs(ratio - expected) < 1e-12

    def test_leakage_budget_enforced(self):
        with pytest.raises(CutoffError):
            squeezed_vacuum(SqueezeParam(1.0), 8, eps=1e-10)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParam(-0.5)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 3.0), phi=st.floats(allow_nan=False, allow_infinity=False))
@example(r=0.5, phi=-1e-17)  # phi % 2 pi rounds up to exactly 2 pi
def test_squeeze_phase_wraps_once_into_one_turn(r, phi):
    param = SqueezeParam(r, phi)
    assert 0.0 <= param.phi < 2 * math.pi
    assert SqueezeParam(r, param.phi) == param


class TestSourceParams:
    def test_fock_param_rejects_negative_n(self):
        assert FockParam(0).n == 0
        with pytest.raises(ValueError, match="photon number"):
            FockParam(-1)

    def test_source_types_map_to_their_factories(self):
        cases = (
            (None, vacuum(5)),
            (FockParam(3), fock(3, 5)),
            (SqueezeParam(0.2, 0.4), squeezed_vacuum(SqueezeParam(0.2, 0.4), 5, 1e-3)),
            (CoherentParam(0.1j), coherent(CoherentParam(0.1j), 5, 1e-3)),
        )
        for param, expected in cases:
            built = build_source(param, 5, 1e-3)
            assert built.amplitudes.tobytes() == expected.amplitudes.tobytes()
        with pytest.raises(CutoffError, match="leaks probability"):
            build_source(SqueezeParam(0.9), 4, 1e-10)
        with pytest.raises(TypeError, match="unsupported source parameter"):
            build_source(0.5, 5, 1e-3)


class TestSqueezedCat:
    def test_plus_cat_zero_squeeze_is_vacuum(self):
        out = cat_squeezed(SqueezeParam(0.0), +1, 4)
        assert np.allclose(out.amplitudes, vacuum(4).amplitudes)

    def test_minus_cat_zero_squeeze_vanishes(self):
        with pytest.raises(ZeroStateError):
            cat_squeezed(SqueezeParam(0.0), -1, 4)

    def test_minus_cat_support(self):
        out = cat_squeezed(SqueezeParam(0.5), -1, 26)
        probs = np.abs(out.amplitudes) ** 2
        on_support = probs[2::4].sum()
        assert abs(on_support - 1.0) < 1e-9
        off = [probs[n] for n in range(27) if n % 4 != 2]
        assert all(p == 0.0 for p in off)

    def test_plus_cat_support(self):
        out = cat_squeezed(SqueezeParam(0.5), +1, 26)
        probs = np.abs(out.amplitudes) ** 2
        assert all(probs[n] == 0.0 for n in range(27) if n % 4 != 0)

    def test_parity_symmetry(self):
        p = SqueezeParam(0.6, 0.9)
        negated = SqueezeParam(p.r, p.phi + math.pi)  # |-xi>
        plus = cat_squeezed(p, +1, 30, 1e-6)
        plus_neg = cat_squeezed(negated, +1, 30, 1e-6)
        assert np.abs(plus.amplitudes - plus_neg.amplitudes).max() < 1e-12
        minus = cat_squeezed(p, -1, 30, 1e-6)
        minus_neg = cat_squeezed(negated, -1, 30, 1e-6)
        assert np.abs(minus.amplitudes + minus_neg.amplitudes).max() < 1e-12

    def test_bad_sign_rejected(self):
        # checked before the source, which fails its budget at this cutoff
        with pytest.raises(ValueError, match="sign must be"):
            cat_squeezed(SqueezeParam(0.5), 0, 10)


class TestCoherentCat:
    def test_plus_cat_zero_alpha_is_vacuum(self):
        out = cat_coherent(CoherentParam(0.0), +1, 4)
        assert np.allclose(out.amplitudes, vacuum(4).amplitudes)

    def test_minus_cat_zero_alpha_vanishes(self):
        with pytest.raises(ZeroStateError):
            cat_coherent(CoherentParam(0.0), -1, 4)

    def test_plus_cat_odd_support_exactly_zero(self):
        out = cat_coherent(CoherentParam(1.0), +1, 20)
        assert np.all(out.amplitudes[1::2] == 0.0)

    def test_is_the_normalized_two_source_superposition(self):
        # |-alpha> carries exactly (-1)^n on the n-photon amplitude of |alpha>
        for alpha in (0.7, -1.2 + 0.4j, 2j):
            param = CoherentParam(alpha)
            cutoff = suggest_cutoff(param)
            base = coherent(param, cutoff).amplitudes
            flipped = coherent(CoherentParam(-alpha), cutoff).amplitudes
            for sign in (1, -1):
                direct = base + sign * flipped
                cat = cat_coherent(param, sign, cutoff).amplitudes
                # the norm is a pairwise sum of |amplitude|^2, not a BLAS dot
                assert np.array_equal(cat, direct / math.sqrt(np.square(np.abs(direct)).sum()))

    def test_minus_cat_has_no_vacuum_component(self):
        out = cat_coherent(CoherentParam(1.0), -1, 20)
        assert out.amplitudes[0] == 0.0
        assert np.all(out.amplitudes[0::2] == 0.0)


class TestSuggestCutoff:
    def test_zero_squeeze(self):
        assert suggest_cutoff(SqueezeParam(0.0), 1e-10) == 0

    def test_frozen_values(self):
        assert suggest_cutoff(SqueezeParam(0.5), 1e-10) == 26
        assert suggest_cutoff(SqueezeParam(1.0), 1e-12) == 92
        assert suggest_cutoff(CoherentParam(1.0), 1e-10) == 12
        assert suggest_cutoff(CoherentParam(1.0), 1e-12) == 14

    def test_matches_brute_force_tail(self):
        # independent: cumulative sum of direct-formula probabilities
        eps = 1e-10
        probs = [abs(squeezed_amp_direct(2 * m, 0.7)) ** 2 for m in range(80)]
        acc = 0.0
        expected = None
        for m, p in enumerate(probs):
            acc += p
            if 1 - acc < eps:
                expected = 2 * m
                break
        assert suggest_cutoff(SqueezeParam(0.7), eps) == expected

    def test_monotone_in_eps(self):
        for param in (SqueezeParam(0.8), CoherentParam(1.3)):
            cuts = [suggest_cutoff(param, e) for e in (1e-6, 1e-8, 1e-10, 1e-12)]
            assert cuts == sorted(cuts)

    def test_overflowing_coherent_amplitude(self):
        for alpha in (1e200, complex(1e308, 1e308)):
            with pytest.raises(CutoffError, match="overflows"):
                suggest_cutoff(CoherentParam(alpha), 1e-10)
            # a pinned cutoff, at the default budget or a given one, fails the same way
            for eps in (states.DEFAULT_LEAKAGE, 1e-6):
                with pytest.raises(CutoffError, match="overflows"):
                    coherent(CoherentParam(alpha), 3, eps)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            suggest_cutoff(SqueezeParam(0.5), 0.0)
        with pytest.raises(ValueError):
            suggest_cutoff(SqueezeParam(0.5), 1.0)


def test_factory_outputs_keep_leakage_budget():
    for r in (0.1, 0.5, 1.0):
        cutoff = suggest_cutoff(SqueezeParam(r), 1e-10)
        assert squeezed_vacuum(SqueezeParam(r), cutoff).squared_norm >= 1 - 1e-10


@settings(max_examples=200, deadline=None)
@given(
    source=st.one_of(
        st.builds(
            SqueezeParam,
            st.floats(0.0, 3.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.builds(
            CoherentParam,
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        ),
    ),
    eps=st.floats(1e-14, 1e-2),
)
def test_suggested_cutoff_is_the_smallest_the_factory_accepts(source, eps):
    factory, stride = (
        (squeezed_vacuum, 2) if isinstance(source, SqueezeParam) else (coherent, 1)
    )
    try:
        cutoff = suggest_cutoff(source, eps)
    except CutoffError:
        # |alpha|^2 rounds by up to about 1e-14, so the computed leakage can
        # stay above a budget that small; the factory then agrees
        with pytest.raises(CutoffError, match="leaks probability"):
            factory(source, states._cutoff_bound(source, eps), eps)
        return
    assert cutoff % stride == 0
    factory(source, cutoff, eps)
    if cutoff >= stride:
        with pytest.raises(CutoffError, match="leaks probability"):
            factory(source, cutoff - stride, eps)


def test_large_squeezing_cutoff_is_accepted():
    # the cutoff search and the factory once summed the tail differently,
    # and the factory rejected this cutoff by a hair
    param = SqueezeParam(6.0)
    squeezed_vacuum(param, suggest_cutoff(param), 1e-10)


@pytest.mark.parametrize("r", [7.7, 8.0, 20.0, 40.0, 700.0])
def test_cutoff_bound_past_the_state_cap_is_refused_before_allocating(r, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the law was computed")

    monkeypatch.setattr(states, "_law", forbidden)
    with pytest.raises(CutoffError, match="MAX_STATE_DIMENSION"):
        suggest_cutoff(SqueezeParam(r), 1e-10)


def test_budget_below_float_resolution_is_a_cutoff_error():
    # the computed probabilities of this source sum to 1 - 1.6e-14
    with pytest.raises(CutoffError, match="leakage stays at"):
        suggest_cutoff(CoherentParam(6.25 + 6j), 1e-16)


def test_overflowing_squeeze_magnitude():
    # cosh(r) overflows above r of about 710
    for r in (711.0, 800.0, 1e300):
        param = SqueezeParam(r)
        with pytest.raises(CutoffError, match="cosh"):
            suggest_cutoff(param, 1e-10)
        for eps in (states.DEFAULT_LEAKAGE, 1e-6):
            with pytest.raises(CutoffError, match="cosh"):
                squeezed_vacuum(param, 3, eps)
            with pytest.raises(CutoffError, match="cosh"):
                cat_squeezed(param, 1, 3, eps)
        with pytest.raises(CutoffError, match="cosh"):
            build_source(param, 3, 1e-6)


@pytest.mark.parametrize("build, error, message", [
    (lambda: SqueezeParam(math.nan), ValueError, "squeeze parameters must be finite"),
    (lambda: CoherentParam(math.inf), ValueError, "coherent amplitude must be finite"),
    (lambda: fock(0, -1), CutoffError, "cutoff must be >= 0, got -1"),
    (lambda: coherent(CoherentParam(1), -1), CutoffError, "cutoff must be >= 0, got -1"),
    (lambda: suggest_cutoff(FockParam(1)), TypeError, "unsupported source parameter FockParam"),
    # e^(-|alpha|^2) underflows, so no truncation holds any probability
    (lambda: suggest_cutoff(CoherentParam(38.5)), CutoffError,
     "coherent((38.5+0j)): e^(-|alpha|^2) underflows to 0; no cutoff exists"),
], ids=["squeeze-nan", "coherent-inf", "fock-cutoff", "coherent-cutoff", "fock-source-cutoff",
        "coherent-underflow"])
def test_invalid_source_input_names_its_rule(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


class TestNoCache:
    """The factories keep nothing between calls; the tables that share their
    results (``kerrcat.protocols``) key on the parameters."""

    def test_signed_zeros_build_the_same_bits(self):
        # the parameters store -0.0 as 0.0, so a build at -0.0 is the build
        # at 0.0, bit for bit, and a table keyed on parameters holds one entry
        builds = [
            lambda z: squeezed_vacuum(SqueezeParam(z, 0.5), 4, 0.5),
            lambda z: squeezed_vacuum(SqueezeParam(0.5, z), 4, 0.5),
            lambda z: coherent(CoherentParam(complex(z, z)), 3),
            lambda z: coherent(CoherentParam(complex(0.0, z)), 3),
            lambda z: cat_coherent(CoherentParam(complex(0.6, z)), 1, 3, 0.5),
        ]
        for build in builds:
            assert build(-0.0).amplitudes.tobytes() == build(0.0).amplitudes.tobytes()
        squeeze, alpha = SqueezeParam(-0.0, -0.0), CoherentParam(complex(-0.0, -0.0)).alpha
        for zero in (squeeze.r, squeeze.phi, alpha.real, alpha.imag):
            assert math.copysign(1.0, zero) == 1.0
        assert len({SqueezeParam(-0.0, 0.5): 0, SqueezeParam(0.0, 0.5): 1}) == 1
        assert len({CoherentParam(complex(0.6, -0.0)): 0, CoherentParam(0.6): 1}) == 1

    def test_errors_are_raised_on_every_call(self, monkeypatch):
        built = []
        original = states._cosh

        def counted(param):
            built.append(param)
            return original(param)

        monkeypatch.setattr(states, "_cosh", counted)
        for attempt in range(3):
            with pytest.raises(CutoffError, match="leaks probability"):
                squeezed_vacuum(SqueezeParam(0.9), 4, 1e-10)
            with pytest.raises(CutoffError, match="cosh"):
                squeezed_vacuum(SqueezeParam(800.0), 4)
            with pytest.raises(ZeroStateError):
                cat_squeezed(SqueezeParam(0.0), -1, 4)
        # every call ran its build again
        assert built == [SqueezeParam(0.9), SqueezeParam(800.0), SqueezeParam(0.0)] * 3

    def test_every_spelling_of_a_call_builds_the_same_state(self):
        param = SqueezeParam(0.01)
        first = squeezed_vacuum(param, 4)
        for again in (squeezed_vacuum(param, 4, states.DEFAULT_LEAKAGE),
                      squeezed_vacuum(param, 4, eps=states.DEFAULT_LEAKAGE),
                      squeezed_vacuum(param, cutoff=4),
                      squeezed_vacuum(param, np.int64(4))):
            assert again.amplitudes.tobytes() == first.amplitudes.tobytes()
        with pytest.raises(TypeError):
            squeezed_vacuum(param, 4, cutoff=4)
        with pytest.raises(TypeError):
            squeezed_vacuum(param, 4, budget=0.5)
