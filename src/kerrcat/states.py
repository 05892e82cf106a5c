"""Analytic state factories: vacuum, Fock, coherent, squeezed, parity cats.

Amplitudes are produced from closed-form expressions and truncated at the
caller's cutoff. The truncation-leakage budget is opt-in: ``coherent``,
``squeezed_vacuum``, ``cat_squeezed`` and ``cat_coherent`` take
``eps=None`` by default, which returns the exact truncated amplitudes at a
caller-pinned cutoff with no leakage check (the state then keeps its norm
deficit). A given ``eps`` must lie in (0, 1) (``ValueError`` otherwise,
NaN included), and the probability mass of the exact (infinite-dimensional)
state above the cutoff must stay below it, or the factory raises
:class:`CutoffError`. :class:`kerrcat.protocols.SourceSpec`
always passes its own budget (``DEFAULT_LEAKAGE`` unless set), and so do
``run_circuit`` and the CLI's ``--epsilon``; ``suggest_cutoff`` always
works to a budget, ``DEFAULT_LEAKAGE`` by default.

The squeezed-vacuum amplitudes are generated by a two-term recurrence
rather than explicit factorials, so they stay finite well past n = 170.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, ZeroStateError
from .fock import FockVector, normalize

DEFAULT_LEAKAGE = 1e-10
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezed-vacuum parameter xi = r * exp(i*phi), with r >= 0."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise ValueError("squeeze parameters must be finite")
        if self.r < 0:
            raise ValueError(f"squeeze magnitude must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @property
    def xi(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)

    def negated(self) -> "SqueezeParam":
        """The parameter of |-xi>: phase advanced by pi, magnitude kept."""
        return SqueezeParam(self.r, self.phi + math.pi)

    def phase_shifted(self, delta: float) -> "SqueezeParam":
        return SqueezeParam(self.r, self.phi + delta)


@dataclass(frozen=True)
class CoherentParam:
    """Coherent-state amplitude alpha (dimensionless complex)."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("coherent amplitude must be finite")
        object.__setattr__(self, "alpha", a)

    def negated(self) -> "CoherentParam":
        return CoherentParam(-self.alpha)

    def rotated(self, delta: float) -> "CoherentParam":
        return CoherentParam(self.alpha * cmath.exp(1j * delta))


def vacuum(cutoff: int) -> FockVector:
    """|0> on a mode with the given cutoff."""
    return fock(0, cutoff)


def fock(n: int, cutoff: int) -> FockVector:
    """Photon-number state |n>."""
    if cutoff < 0:
        raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
    if not 0 <= n <= cutoff:
        raise CutoffError(f"photon number {n} exceeds cutoff {cutoff}")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[n] = 1.0
    return FockVector(amps)


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return amps

def _squeezed_amplitudes(r: float, phi: float, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    step = -cmath.exp(1j * phi) * math.tanh(r)
    cur = amps[0]
    for m in range(cutoff // 2):
        cur = cur * step * math.sqrt(2 * m + 1) / math.sqrt(2 * m + 2)
        amps[2 * m + 2] = cur
    return amps


def _leakage(amps: np.ndarray) -> float:
    return max(0.0, 1.0 - float(np.vdot(amps, amps).real))


def _check_budget(eps: float) -> None:
    # written so that NaN fails too
    if not 0.0 < eps < 1.0:
        raise ValueError(f"leakage budget must lie in (0, 1), got {eps!r}")


def _check_leakage(amps: np.ndarray, eps: float | None, what: str) -> None:
    if eps is None:
        return
    _check_budget(eps)
    leak = _leakage(amps)
    if leak >= eps:
        raise CutoffError(
            f"{what}: cutoff {amps.size - 1} leaks probability {leak:.3e} >= budget {eps:.3e}"
        )


def coherent(param: CoherentParam, cutoff: int, eps: float | None = None) -> FockVector:
    """Coherent state |alpha>, amplitudes alpha^n e^{-|alpha|^2/2} / sqrt(n!).

    With ``eps=None`` the truncated amplitudes are returned unchecked; with a
    float, a truncation leakage at or above ``eps`` raises :class:`CutoffError`.
    """
    if cutoff < 0:
        raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
    amps = _coherent_amplitudes(param.alpha, cutoff)
    _check_leakage(amps, eps, f"coherent({param.alpha})")
    return FockVector(amps)


def squeezed_vacuum(param: SqueezeParam, cutoff: int, eps: float | None = None) -> FockVector:
    """Squeezed vacuum |xi>; only even photon numbers are occupied.

    With ``eps=None`` the truncated amplitudes are returned unchecked; with a
    float, a truncation leakage at or above ``eps`` raises :class:`CutoffError`.
    """
    if cutoff < 0:
        raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
    amps = _squeezed_amplitudes(param.r, param.phi, cutoff)
    _check_leakage(amps, eps, f"squeezed(r={param.r}, phi={param.phi})")
    return FockVector(amps)


def cat_squeezed(
    param: SqueezeParam, sign: int, cutoff: int, eps: float | None = None
) -> FockVector:
    """Normalized |xi> + sign * |-xi>.

    The + cat is supported on photon numbers 0, 4, 8, ...; the - cat on
    2, 6, 10, .... sign = -1 with r = 0 vanishes identically and raises
    :class:`ZeroStateError`. ``eps`` is the leakage budget of the underlying
    squeezed vacuum, as in :func:`squeezed_vacuum` (``None``: unchecked).
    """
    _check_sign(sign)
    base = squeezed_vacuum(param, cutoff, eps)
    # |-xi> carries exactly (-1)^m on the 2m-photon amplitude relative to
    # |xi>; flipping signs in place keeps the cancelled amplitudes exactly 0,
    # which a phase rotated by a floating-point pi would not.
    parity = np.ones(cutoff + 1)
    parity[2::4] = -1.0
    unit, _ = normalize(base.amplitudes * (1.0 + sign * parity))
    return unit


def cat_coherent(
    param: CoherentParam, sign: int, cutoff: int, eps: float | None = None
) -> FockVector:
    """Normalized |alpha> + sign * |-alpha> (even/odd photon support).

    ``eps`` is the leakage budget of each coherent component, as in
    :func:`coherent` (``None``: unchecked).
    """
    _check_sign(sign)
    base = coherent(param, cutoff, eps)
    flipped = coherent(param.negated(), cutoff, eps)
    unit, _ = normalize(base.amplitudes + sign * flipped.amplitudes)
    return unit


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def suggest_cutoff(param, eps: float = DEFAULT_LEAKAGE) -> int:
    """Smallest cutoff whose truncation leakage is below ``eps``.

    Found by accumulating the exact photon-number distribution until the
    remaining tail drops under the budget. Accepts a :class:`SqueezeParam`
    or a :class:`CoherentParam`. A coherent amplitude whose mean photon
    number overflows, or whose distribution underflows to zero before the
    tail is under the budget (from |alpha|^2 of about 710 to 745 up,
    depending on ``eps``), raises :class:`CutoffError`.
    """
    _check_budget(eps)
    if isinstance(param, SqueezeParam):
        if param.r == 0.0:
            return 0
        total = 0.0
        p = 1.0 / math.cosh(param.r)  # |<0|xi>|^2
        t2 = math.tanh(param.r) ** 2
        m = 0
        while True:
            total += p
            if 1.0 - total < eps:
                return 2 * m
            p = p * t2 * (2 * m + 1) / (2 * m + 2)
            m += 1
    if isinstance(param, CoherentParam):
        try:
            mean = abs(param.alpha) ** 2
        except OverflowError:
            raise CutoffError(
                f"coherent({param.alpha}): mean photon number overflows; no cutoff exists"
            ) from None
        if mean == 0.0:
            return 0
        total = 0.0
        p = math.exp(-mean)
        n = 0
        while True:
            # once p is 0 the total can no longer grow
            if p == 0.0:
                raise CutoffError(
                    f"coherent({param.alpha}): photon-number probabilities underflow at "
                    f"n={n} before the leakage tail {1.0 - total:.3e} is under {eps:.3e}"
                )
            total += p
            if 1.0 - total < eps:
                return n
            p = p * mean / (n + 1)
            n += 1
    raise TypeError(f"unsupported source parameter {type(param).__name__}")
