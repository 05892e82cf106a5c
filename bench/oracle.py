"""Closed-form physics the correctness gate checks kerrcat's reports against.

Nothing here imports kerrcat: amplitudes come from the analytic
photon-number laws (log-gamma, not the package's recurrences) and
overlaps from their generating functions, so a defect in the package
cannot cancel out of the comparison.
"""

from __future__ import annotations

import math

import numpy as np


def squeezed_probs(r: float, cutoff: int) -> np.ndarray:
    """|<n|xi>|^2 for n = 0..cutoff; only even n are occupied."""
    p = np.zeros(cutoff + 1)
    if r == 0.0:
        p[0] = 1.0
        return p
    m = np.arange(cutoff // 2 + 1)
    log_p = (-math.log(math.cosh(r)) + 2 * m * math.log(math.tanh(r))
             + np.array([math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) for k in m])
             - m * math.log(4.0))
    p[0::2] = np.exp(log_p)
    return p


def coherent_probs(mean: float, cutoff: int) -> np.ndarray:
    """Poisson photon-number law of a coherent state with mean photon number ``mean``."""
    n = np.arange(cutoff + 1)
    if mean == 0.0:
        return (n == 0).astype(float)
    lgam = np.array([math.lgamma(k + 1) for k in n])
    return np.exp(-mean + n * math.log(mean) - lgam)


def tail(probs: np.ndarray) -> float:
    """Probability above the cutoff of a law truncated to ``probs``."""
    return max(0.0, 1.0 - float(probs.sum()))


def kerr_overlap(r: float, tau: float) -> complex:
    """<xi|xi'> where xi' is xi after a cross-Kerr phase tau against one photon.

    The Kerr phase multiplies the 2m-photon amplitude by exp(-2im tau), and
    sum_m C(2m, m) (x/4)^m = (1 - x)^(-1/2) with x = exp(-2i tau) tanh^2 r.
    """
    x = complex(math.cos(2 * tau), -math.sin(2 * tau)) * math.tanh(r) ** 2
    return 1.0 / (math.cosh(r) * complex(1.0 - x) ** 0.5)


def branch_probabilities(overlap: complex) -> tuple[float, float]:
    """(P(Db fires), P(Dc fires)) of the interferometer at theta = 0.

    The Db branch carries (rotated - original) / 2 and Dc (rotated +
    original) / 2, so P = (1 -+ Re<original|rotated>) / 2, with the
    overlap of the full (one or two mode) data state.
    """
    return (1.0 - overlap.real) / 2.0, (1.0 + overlap.real) / 2.0


def two_term_entropy(overlap_a: complex, overlap_b: complex, sign: int) -> float:
    """Entropy (bits) across a|b of R_a R_b + sign * O_a O_b.

    R and O are unit vectors with <O|R> = overlap on each side. The reduced
    state on a is sum_kl A_kl |u_k><u_l| over u = (R_a, O_a), whose nonzero
    spectrum equals that of the 2x2 matrix A G with G the Gram matrix of u.
    Like the package, weights at or below 1e-20 (Schmidt coefficients at or
    below 1e-10) count as zero.
    """
    c = np.array([1.0, sign], dtype=complex)
    gram_a = np.array([[1.0, np.conj(overlap_a)], [overlap_a, 1.0]])
    gram_b = np.array([[1.0, np.conj(overlap_b)], [overlap_b, 1.0]])
    a = np.outer(c, np.conj(c)) * gram_b.T
    lam = np.linalg.eigvals(a @ gram_a).real
    lam = lam / lam.sum()
    lam = lam[lam > 1e-20]
    return float(-(lam * np.log2(lam)).sum())


def sweep_branch_distribution(probs: np.ndarray, tau: float, sign: int) -> np.ndarray:
    """Photon law of (rotated + sign * original), truncated to ``probs`` and normalized."""
    n = np.arange(probs.size)
    law = probs * np.abs(np.exp(-1j * n * tau) + sign) ** 2
    return law / law.sum()


def pair_marginal(probs: np.ndarray, tau: float, probs_other: np.ndarray, tau_other: float,
                  sign: int) -> np.ndarray:
    """Marginal law on one mode of R R' + sign * O O' (truncated, normalized).

    With R_n = O_n exp(-i n tau):
    P(n) ~ p_n (|R'|^2 + |O'|^2 + 2 sign Re(exp(i n tau) <R'|O'>)).
    """
    n = np.arange(probs.size)
    m = np.arange(probs_other.size)
    cross = complex((probs_other * np.exp(1j * m * tau_other)).sum())
    norm2 = float(probs_other.sum())
    law = probs * (2 * norm2 + 2 * sign * (np.exp(1j * n * tau) * cross).real)
    return law / law.sum()


def total_photon_law(laws: list[np.ndarray], kmax: int) -> np.ndarray:
    """P(N = k), k = 0..kmax, for N the sum of independent photon numbers."""
    total = np.array([1.0])
    for law in laws:
        total = np.convolve(total, law)[: kmax + 1]
    return np.pad(total, (0, kmax + 1 - total.size))
