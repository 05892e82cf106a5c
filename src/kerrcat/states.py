"""Analytic state factories: vacuum, Fock, coherent, squeezed, parity cats.

Each source kind has one photon-number law, computed in one numpy pass: a
``cumprod`` of the ratios between neighbouring amplitudes, seeded with the
vacuum amplitude. The factories return its amplitudes. Its tail, 1 minus
the running sum of |a_n|^2, is the truncation leakage that the factories'
budget check and :func:`suggest_cutoff` both read. Both runs go in order,
so a cutoff suggested for a budget is accepted at that budget bit for bit.

Every source is built against a budget: ``coherent``, ``squeezed_vacuum``,
``cat_squeezed`` and ``cat_coherent`` check their leakage against ``eps``,
``DEFAULT_LEAKAGE`` unless given, as ``suggest_cutoff`` and ``run_circuit``
do. ``eps`` must lie in (0, 1) (``ValueError`` otherwise, NaN included),
and a leakage at or above it raises :class:`CutoffError`. ``suggest_cutoff``
computes the law only up to a closed-form bound on the cutoff, and raises
:class:`CutoffError` before it allocates when that bound reaches
``MAX_STATE_DIMENSION`` (r of about 7.7 and above at the default budget).
A cosh(r) or |alpha|^2 that overflows raises :class:`CutoffError` at any
cutoff.

A source is described by one parameter type: :class:`SqueezeParam`,
:class:`CoherentParam` or :class:`FockParam` (``None`` is the vacuum).
:func:`build_source` is the one map from a parameter to its factory, and
``kerr_rotated`` is each type's cross-Kerr rule against one photon.

These four factories and ``suggest_cutoff`` share one
``functools.lru_cache`` of the last ``MEMO_SIZE`` results, so a run's
source, cats and targets are built once, and so are a source and its
cutoff that a sweep keeps across neighbouring points. It is keyed on the
factory and the arguments as given, with their types (``typed=True``):
``6`` and ``np.int64(6)`` get two entries, and so do a positional and a
keyword spelling of one call. The parameter types store a zero as +0.0,
so parameters that compare equal have the same bits and build the same
amplitudes. An unhashable argument raises ``TypeError``. Results are
immutable and shared; exceptions are never stored. The memo stays small
because a single source can hold millions of amplitudes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, ZeroStateError
from .fock import FockVector, _Owned, _unit

DEFAULT_LEAKAGE = 1e-10
# Amplitudes above which a state is refused: the running product of a
# circuit's mode dimensions, and a suggested cutoff.
MAX_STATE_DIMENSION = 1 << 26
TWO_PI = 2.0 * math.pi
# Entries the factory memo keeps. A sweep point of either built-in protocol
# uses at most four (its cutoff, source, and two cats or two rotated
# sources), so one point's builds all stay in the memo while the next point
# with the same source reuses them.
MEMO_SIZE = 8
# Entries whose squares _tail adds at a time, so that its temporaries stay
# small beside a source of millions of amplitudes.
_SQUARES_CHUNK = 1 << 16


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
        # + 0.0 stores -0.0 as 0.0, so that equal parameters have equal bits
        object.__setattr__(self, "r", self.r + 0.0)
        # a tiny negative phi rounds up to exactly 2 pi; the second modulo
        # takes it to 0, so that phi lies in [0, 2 pi) and wraps idempotently
        object.__setattr__(self, "phi", self.phi % TWO_PI % TWO_PI)

    def kerr_rotated(self, tau: float) -> "SqueezeParam":
        """The parameter after a cross-Kerr phase tau against one photon:
        xi -> xi * exp(-2i * tau), with tau reduced exactly by ``fmod``."""
        return SqueezeParam(self.r, self.phi + -2.0 * math.fmod(tau, math.pi))


@dataclass(frozen=True)
class CoherentParam:
    """Coherent-state amplitude alpha (dimensionless complex)."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("coherent amplitude must be finite")
        object.__setattr__(self, "alpha", complex(a.real + 0.0, a.imag + 0.0))

    def kerr_rotated(self, tau: float) -> "CoherentParam":
        """The parameter after a cross-Kerr phase tau against one photon:
        alpha -> alpha * exp(-i * tau), with tau reduced exactly by ``fmod``."""
        return CoherentParam(self.alpha * cmath.exp(1j * -math.fmod(tau, TWO_PI)))


@dataclass(frozen=True)
class FockParam:
    """Photon-number state |n>, with n >= 0."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"photon number must be >= 0, got {self.n}")


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def _memo(factory, *args, **kwargs):
    return factory(*args, **kwargs)


def _memoized(factory):
    """``factory`` behind the shared memo (see the module docstring)."""
    return functools.wraps(factory)(lambda *args, **kwargs: _memo(factory, *args, **kwargs))


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
    return FockVector(_Owned(amps))


def _mean_photon_number(param: CoherentParam) -> float:
    try:
        return abs(param.alpha) ** 2
    except OverflowError:
        raise CutoffError(
            f"{_label(param)}: mean photon number overflows; no cutoff exists"
        ) from None


def _cosh(param: SqueezeParam) -> float:
    try:
        return math.cosh(param.r)
    except OverflowError:
        raise CutoffError(f"{_label(param)}: cosh(r) overflows; no cutoff exists") from None


def _label(param) -> str:
    if isinstance(param, SqueezeParam):
        return f"squeezed(r={param.r}, phi={param.phi})"
    return f"coherent({param.alpha})"


def _law(param, cutoff: int) -> tuple[np.ndarray, int]:
    """The source's amplitudes up to ``cutoff``, zero off its support, and
    the stride of that support (2 for a squeezed vacuum, else 1). On the
    support, ``amps[::stride]``, they are the vacuum amplitude times the
    running product of the ratios between neighbouring amplitudes, built in
    place in the returned array. ``cumprod`` multiplies in order, so no entry
    depends on ``cutoff``."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    if isinstance(param, SqueezeParam):
        stride = 2
        law = amps[::2]
        law[0] = 1.0 / math.sqrt(_cosh(param))
        odd = np.arange(1.0, cutoff, 2.0)  # 2m + 1 for the ratio from 2m to 2m + 2
        ratios = np.sqrt(odd)
        np.add(odd, 1.0, out=odd)
        np.divide(ratios, np.sqrt(odd, out=odd), out=ratios)
        np.multiply(-cmath.exp(1j * param.phi) * math.tanh(param.r), ratios, out=law[1:])
    else:
        stride, law = 1, amps
        law[0] = math.exp(-0.5 * _mean_photon_number(param))
        roots = np.arange(1.0, cutoff + 1)
        np.divide(param.alpha, np.sqrt(roots, out=roots), out=law[1:])
    np.cumprod(law, out=law)
    return amps, stride


def _tail(law: np.ndarray) -> np.ndarray:
    """Entry k: the probability beyond the first k + 1 entries of a source's
    support, as 1 minus their running sum of squares (prefix-stable), in one
    float array."""
    tail = np.square(law.real)
    for lo in range(0, tail.size, _SQUARES_CHUNK):
        tail[lo : lo + _SQUARES_CHUNK] += np.square(law.imag[lo : lo + _SQUARES_CHUNK])
    np.cumsum(tail, out=tail)
    return np.subtract(1.0, tail, out=tail)


def _check_budget(eps: float) -> None:
    # written so that NaN fails too
    if not 0.0 < eps < 1.0:
        raise ValueError(f"leakage budget must lie in (0, 1), got {eps!r}")


def _source(param, cutoff: int, eps: float) -> FockVector:
    if cutoff < 0:
        raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
    amps, stride = _law(param, cutoff)
    _check_budget(eps)
    leak = _tail(amps[::stride])[-1]
    if leak >= eps:
        raise CutoffError(
            f"{_label(param)}: cutoff {cutoff} leaks probability {leak:.3e} >= budget {eps:.3e}"
        )
    return FockVector(_Owned(amps))


@_memoized
def coherent(param: CoherentParam, cutoff: int, eps: float = DEFAULT_LEAKAGE) -> FockVector:
    """Coherent state |alpha>, amplitudes alpha^n e^{-|alpha|^2/2} / sqrt(n!),
    checked against the leakage budget ``eps``."""
    return _source(param, cutoff, eps)


@_memoized
def squeezed_vacuum(param: SqueezeParam, cutoff: int, eps: float = DEFAULT_LEAKAGE) -> FockVector:
    """Squeezed vacuum |xi>, on even photon numbers only, checked against
    the leakage budget ``eps``."""
    return _source(param, cutoff, eps)


def _cat(source, param, sign: int, cutoff: int, eps: float, flipped: slice) -> FockVector:
    """Normalized |base> + sign * |base with the signs at ``flipped``
    reversed>, where base is ``source(param, cutoff, eps)``. Flipping signs
    in place keeps the cancelled amplitudes exactly 0, which a phase rotated
    by a floating-point pi would not."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    base = source(param, cutoff, eps).amplitudes
    parity = np.ones(base.size)
    parity[flipped] = -1.0
    return FockVector(_unit(base * (1.0 + sign * parity)))


@_memoized
def cat_squeezed(
    param: SqueezeParam, sign: int, cutoff: int, eps: float = DEFAULT_LEAKAGE
) -> FockVector:
    """Normalized |xi> + sign * |-xi>.

    The + cat is supported on photon numbers 0, 4, 8, ...; the - cat on
    2, 6, 10, .... sign = -1 with r = 0 vanishes identically and raises
    :class:`ZeroStateError`. ``eps`` is the leakage budget of the underlying
    squeezed vacuum, as in :func:`squeezed_vacuum`.
    """
    # |-xi> carries exactly (-1)^m on the 2m-photon amplitude of |xi>
    return _cat(squeezed_vacuum, param, sign, cutoff, eps, slice(2, None, 4))


@_memoized
def cat_coherent(
    param: CoherentParam, sign: int, cutoff: int, eps: float = DEFAULT_LEAKAGE
) -> FockVector:
    """Normalized |alpha> + sign * |-alpha> (even/odd photon support).

    sign = -1 with alpha = 0 vanishes identically and raises
    :class:`ZeroStateError`. ``eps`` is the leakage budget of the coherent
    component, as in :func:`coherent`.
    """
    # |-alpha> carries exactly (-1)^n on the n-photon amplitude of |alpha>
    return _cat(coherent, param, sign, cutoff, eps, slice(1, None, 2))


def build_source(param, cutoff: int, eps: float) -> FockVector:
    """The state of a mode's source: the vacuum for ``None``, else the
    factory of the parameter's type, a :class:`SqueezeParam` or
    :class:`CoherentParam` checked against the leakage budget ``eps``. Each
    factory is looked up by its module-level name at call time, so a
    wrapper installed under that name sees every source built."""
    if param is None:
        return vacuum(cutoff)
    if isinstance(param, FockParam):
        return fock(param.n, cutoff)
    if isinstance(param, SqueezeParam):
        return squeezed_vacuum(param, cutoff, eps)
    if isinstance(param, CoherentParam):
        return coherent(param, cutoff, eps)
    raise TypeError(f"unsupported source parameter {type(param).__name__}")


def _cutoff_bound(param, eps: float) -> int:
    """A cutoff whose exact leakage is under ``eps``, from a closed-form tail
    bound; :class:`CutoffError` when that bound reaches
    ``MAX_STATE_DIMENSION``."""
    log_budget = -math.log(eps)
    if isinstance(param, SqueezeParam):
        log_cosh = math.log(_cosh(param))
        # P(n > 2m) <= cosh(r) tanh(r)^(2m+2), because neighbouring
        # even-photon probabilities fall by a factor below tanh(r)^2
        t2 = math.tanh(param.r) ** 2
        log_t2 = math.log(t2) if t2 > 0.0 else -math.inf
        bound = 2 * math.ceil((log_budget + log_cosh) / -log_t2) if t2 < 1.0 else math.inf
    else:
        mean = _mean_photon_number(param)
        if math.exp(-mean) == 0.0:
            raise CutoffError(f"{_label(param)}: e^(-|alpha|^2) underflows to 0; no cutoff exists")
        # the Poisson Chernoff bound, in Bernstein form:
        # P(n >= mean + x) <= exp(-x^2 / (2 (mean + x/3)))
        x = log_budget / 3 + math.sqrt(log_budget**2 / 9 + 2 * log_budget * mean)
        bound = math.ceil(mean + x)
    if not bound < MAX_STATE_DIMENSION:
        raise CutoffError(
            f"{_label(param)}: the tail bound asks for a cutoff of {bound:.3g} to keep the "
            f"leakage under {eps:.3e}, at or above MAX_STATE_DIMENSION = {MAX_STATE_DIMENSION}"
        )
    return bound


@_memoized
def suggest_cutoff(param, eps: float = DEFAULT_LEAKAGE) -> int:
    """Smallest cutoff whose truncation leakage is below ``eps``.

    Accepts a :class:`SqueezeParam` or a :class:`CoherentParam`. The leakage
    is the one the factories check, so they accept the returned cutoff at
    ``eps`` and reject every smaller one. The law is computed once, up to a
    closed-form bound on the cutoff: the squeezed tail beyond photon number
    2m is at most cosh(r) tanh(r)^(2m+2), and the coherent tail obeys the
    Poisson Chernoff bound. :class:`CutoffError` is raised, before anything
    is allocated, when that bound reaches ``MAX_STATE_DIMENSION`` (r of
    about 7.7 and above at the default budget, and any r whose tanh(r)^2
    rounds to 1), when cosh(r) or |alpha|^2 overflows, and when
    e^(-|alpha|^2) underflows to 0 (|alpha|^2 above about 745). It is also
    raised when ``eps`` is too small for the computed leakage to get under.
    """
    _check_budget(eps)
    if not isinstance(param, (SqueezeParam, CoherentParam)):
        raise TypeError(f"unsupported source parameter {type(param).__name__}")
    amps, stride = _law(param, _cutoff_bound(param, eps))
    tail = _tail(amps[::stride])
    if not tail[-1] < eps:  # the tail never grows, so no entry is under eps
        raise CutoffError(f"{_label(param)}: the leakage stays at {tail[-1]:.3e} >= {eps:.3e}")
    return stride * int(np.argmax(tail < eps))
