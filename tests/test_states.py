"""State-factory tests: analytic amplitudes, leakage budgets, cat supports."""

import cmath
import math

import numpy as np
import pytest

from kerrcat import (
    CoherentParam,
    CutoffError,
    SourceSpec,
    SqueezeParam,
    ZeroStateError,
    cat_coherent,
    cat_squeezed,
    coherent,
    fock,
    squeezed_vacuum,
    suggest_cutoff,
    vacuum,
)


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

    def test_leakage_budget_only_when_given(self):
        # a pinned cutoff with no eps returns the truncated amplitudes as-is
        out = coherent(CoherentParam(2.0), 5)
        expected = [math.exp(-2.0) * 2.0**n / math.sqrt(math.factorial(n)) for n in range(6)]
        assert np.allclose(out.amplitudes, expected, rtol=1e-14, atol=0)
        with pytest.raises(CutoffError):
            coherent(CoherentParam(2.0), 5, eps=1e-10)

    def test_given_budget_must_lie_in_unit_interval(self):
        # NaN compares false with everything, so a plain `leak >= eps` test
        # would wave it through
        for eps in (float("nan"), 0.0, 1.0, 5.0, -1e-10):
            with pytest.raises(ValueError, match=r"leakage budget must lie in \(0, 1\)"):
                coherent(CoherentParam(2.0), 5, eps=eps)
            for cutoff in (4, None):
                with pytest.raises(ValueError, match=r"leakage budget must lie in \(0, 1\)"):
                    SourceSpec.squeezed(0.9, cutoff=cutoff, eps=eps).build()

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
        out = squeezed_vacuum(SqueezeParam(0.9), 30)
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
        plus = cat_squeezed(p, +1, 30)
        plus_neg = cat_squeezed(p.negated(), +1, 30)
        assert np.abs(plus.amplitudes - plus_neg.amplitudes).max() < 1e-12
        minus = cat_squeezed(p, -1, 30)
        minus_neg = cat_squeezed(p.negated(), -1, 30)
        assert np.abs(minus.amplitudes + minus_neg.amplitudes).max() < 1e-12

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
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

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            suggest_cutoff(SqueezeParam(0.5), 0.0)
        with pytest.raises(ValueError):
            suggest_cutoff(SqueezeParam(0.5), 1.0)


def test_factory_outputs_keep_leakage_budget():
    for r in (0.1, 0.5, 1.0):
        cutoff = suggest_cutoff(SqueezeParam(r), 1e-10)
        assert squeezed_vacuum(SqueezeParam(r), cutoff).squared_norm >= 1 - 1e-10
