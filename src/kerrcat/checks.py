"""Built-in verification suite, runnable via ``kerrcat check`` or pytest.

Every item checks an end-to-end claim against an oracle computed by an
independent route (explicit log-factorial amplitude formulas, small
Gram-matrix diagonalizations, exhaustive enumerations), never against the
code path under test. All randomness is seeded, so repeated runs produce
identical reports.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsl
from .analysis import entanglement_entropy, fidelity, photon_distribution, support_residual
from .elements import apply_beam_splitter, apply_cross_kerr, apply_phase_shift
from .fock import MultiModeState, project_mode, schmidt_coefficients, single, tensor_product
from .protocols import (
    DB,
    DC,
    EntanglementParams,
    SourceSpec,
    SuperpositionParams,
    entanglement_targets,
    run_entanglement,
    run_superposition,
)
from .states import CoherentParam, SqueezeParam, cat_coherent, cat_squeezed, fock


class CheckFailure(AssertionError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- independent oracles ----------------------------------------------------

def _squeezed_amp_direct(n: int, r: float, phi: float) -> complex:
    """<n|xi> from the explicit factorial expression (log-gamma evaluated)."""
    if n % 2 == 1:
        return 0.0j
    if r == 0.0:
        return 1.0 + 0.0j if n == 0 else 0.0j
    m = n // 2
    mag = math.exp(0.5 * math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1))
    return (1.0 / math.sqrt(math.cosh(r))) * mag * (-cmath.exp(1j * phi) * math.tanh(r)) ** m


def _coherent_amp_direct(n: int, alpha: complex) -> complex:
    if alpha == 0:
        return 1.0 + 0.0j if n == 0 else 0.0j
    return cmath.exp(n * cmath.log(alpha) - 0.5 * math.lgamma(n + 1) - 0.5 * abs(alpha) ** 2)


def _opposite_squeezed_overlap(r: float, terms: int = 200) -> float:
    """<xi|-xi> by direct amplitude summation."""
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * abs(_squeezed_amp_direct(2 * m, r, 0.0)) ** 2
    return total


def _opposite_coherent_overlap(alpha: complex, terms: int = 200) -> complex:
    total = 0.0j
    for n in range(terms):
        total += _coherent_amp_direct(n, alpha).conjugate() * _coherent_amp_direct(n, -alpha)
    return total


def _pair_entropy_oracle(su: complex, sv: complex, theta: float) -> float:
    """Entropy (bits) of rotated (x) rotated' - e^{i theta} base (x) base'.

    ``su`` / ``sv`` are the <rotated|base> overlaps on each arm. Works in
    explicit 2-d orthonormal embeddings of the two-element sets, so the only
    linear algebra is a 2x2 SVD.
    """
    wu = math.sqrt(max(0.0, 1.0 - abs(su) ** 2))
    wv = math.sqrt(max(0.0, 1.0 - abs(sv) ** 2))
    u1, u2 = np.array([1.0, 0.0], complex), np.array([su, wu], complex)
    v1, v2 = np.array([1.0, 0.0], complex), np.array([sv, wv], complex)
    m = np.outer(u1, v1) - cmath.exp(1j * theta) * np.outer(u2, v2)
    m /= np.linalg.norm(m)
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > 1e-30]
    return float(-(p * np.log2(p)).sum())


def _random_state(rng, labels, cutoffs) -> MultiModeState:
    shape = tuple(c + 1 for c in cutoffs)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr /= np.linalg.norm(arr)
    return MultiModeState(tuple(labels), arr)


def _strip_boundary(state: MultiModeState, mode_1: str, mode_2: str) -> MultiModeState:
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


# --- check items -------------------------------------------------------------

def check_bs_single_photon() -> str:
    """A single photon on either port splits 50:50 with phase i crossed."""
    worst = 0.0
    isq = 1.0 / math.sqrt(2.0)
    for cutoff in (1, 5):
        s10 = tensor_product(single("b", fock(1, cutoff)), single("c", fock(0, cutoff)))
        s01 = tensor_product(single("b", fock(0, cutoff)), single("c", fock(1, cutoff)))
        out10 = apply_beam_splitter(s10, "b", "c").tensor
        out01 = apply_beam_splitter(s01, "b", "c").tensor
        expect10 = np.zeros_like(out10)
        expect10[1, 0] = isq
        expect10[0, 1] = 1j * isq
        expect01 = np.zeros_like(out01)
        expect01[0, 1] = isq
        expect01[1, 0] = 1j * isq
        worst = max(worst, float(np.abs(out10 - expect10).max()), float(np.abs(out01 - expect01).max()))
    _require(worst <= 1e-12, f"single-photon splitter amplitudes off by {worst:.3e}")
    return f"max amplitude deviation {worst:.3e}"


def check_kerr_phase_rules() -> str:
    """Cross-Kerr against one photon rotates source parameters analytically.

    Squeezed phase shifts by -2*tau, coherent amplitude by e^{-i*tau}; checked
    on 20 random parameter draws for each source kind at leakage 1e-12.
    """
    rng = np.random.default_rng(20250809)
    eps = 1e-12
    worst = 1.0
    for _ in range(20):
        r = float(rng.uniform(0.05, 1.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        tau = float(rng.uniform(0.0, 2.0 * math.pi))

        src = SourceSpec.squeezed(r, phi, eps=eps)
        state = tensor_product(single("a", src.build()), single("b", fock(1, 1)))
        evolved = apply_cross_kerr(state, "a", "b", tau)
        target = tensor_product(single("a", src.kerr_rotated(tau).build()), single("b", fock(1, 1)))
        f_sq = fidelity(evolved, target)

        alpha = float(rng.uniform(0.05, 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        src_c = SourceSpec.coherent(alpha, eps=eps)
        state = tensor_product(single("a", src_c.build()), single("b", fock(1, 1)))
        evolved = apply_cross_kerr(state, "a", "b", tau)
        target = tensor_product(
            single("a", src_c.kerr_rotated(tau).build()), single("b", fock(1, 1))
        )
        f_coh = fidelity(evolved, target)
        worst = min(worst, f_sq, f_coh)
    _require(worst >= 1.0 - 1e-10, f"worst rotated-parameter fidelity {worst!r}")
    return f"worst fidelity {worst!r}"


def check_squeezed_cat_branches() -> str:
    """r=0.5, tau=pi/2, theta=0: branches are the odd/even squeezed cats.

    Click probabilities must match (1 -+ S)/2 with S from the direct
    amplitude-sum overlap oracle.
    """
    r = 0.5
    params = SuperpositionParams(SourceSpec.squeezed(r), tau=math.pi / 2, theta=0.0)
    result = run_superposition(params)
    cutoff = params.source_a.resolved_cutoff()
    eps = params.source_a.eps

    f_odd = fidelity(result[DB].state, cat_squeezed(SqueezeParam(r), -1, cutoff, eps))
    f_even = fidelity(result[DC].state, cat_squeezed(SqueezeParam(r), +1, cutoff, eps))
    _require(f_odd >= 1.0 - 1e-9, f"odd-cat branch fidelity {f_odd!r}")
    _require(f_even >= 1.0 - 1e-9, f"even-cat branch fidelity {f_even!r}")

    s = _opposite_squeezed_overlap(r)
    err_db = abs(result[DB].probability - (1.0 - s) / 2.0)
    err_dc = abs(result[DC].probability - (1.0 + s) / 2.0)
    _require(err_db <= 1e-6, f"minus-branch probability off oracle by {err_db:.3e}")
    _require(err_dc <= 1e-6, f"plus-branch probability off oracle by {err_dc:.3e}")
    return (
        f"fidelities {f_odd:.12f}/{f_even:.12f}, "
        f"probability error {max(err_db, err_dc):.3e} vs S={s:.6f}"
    )


def check_cat_support_laws() -> str:
    """Branch photon distributions live on n=4k (plus) and n=4k+2 (minus)."""
    worst = 0.0
    for r in (0.2, 0.5, 1.0):
        params = SuperpositionParams(SourceSpec.squeezed(r), tau=math.pi / 2, theta=0.0)
        result = run_superposition(params)
        dim = params.source_a.resolved_cutoff() + 1
        dist_db = photon_distribution(result[DB].state, "a")
        dist_dc = photon_distribution(result[DC].state, "a")
        res_db = support_residual(dist_db, range(2, dim, 4))
        res_dc = support_residual(dist_dc, range(0, dim, 4))
        worst = max(worst, res_db, res_dc)
    _require(worst < 1e-12, f"support residual {worst:.3e} >= 1e-12")
    return f"max residual outside allowed support {worst:.3e}"


def check_coherent_cat_branches() -> str:
    """alpha=1, tau=pi, theta=0: odd/even coherent cats, probabilities
    (1 -+ |<alpha|-alpha>|)/2 from the brute-force overlap oracle."""
    alpha = 1.0
    src = SourceSpec.coherent(alpha, eps=1e-12)
    params = SuperpositionParams(src, tau=math.pi, theta=0.0)
    result = run_superposition(params)
    cutoff = src.resolved_cutoff()

    f_odd = fidelity(result[DB].state, cat_coherent(CoherentParam(alpha), -1, cutoff, eps=1e-12))
    f_even = fidelity(result[DC].state, cat_coherent(CoherentParam(alpha), +1, cutoff, eps=1e-12))
    _require(f_odd >= 1.0 - 1e-9, f"odd-cat branch fidelity {f_odd!r}")
    _require(f_even >= 1.0 - 1e-9, f"even-cat branch fidelity {f_even!r}")

    overlap = _opposite_coherent_overlap(alpha).real
    err_db = abs(result[DB].probability - (1.0 - overlap) / 2.0)
    err_dc = abs(result[DC].probability - (1.0 + overlap) / 2.0)
    _require(err_db <= 1e-9, f"minus-branch probability off oracle by {err_db:.3e}")
    _require(err_dc <= 1e-9, f"plus-branch probability off oracle by {err_dc:.3e}")
    return f"fidelities {f_odd:.12f}/{f_even:.12f}, probability error {max(err_db, err_dc):.3e}"


def check_kerr_budget_advantage() -> str:
    """tau=pi/2 suffices for squeezed-input cats but not for coherent cats.

    The squeezed branches hit cat fidelity >= 1 - 1e-9 at tau=pi/2, while the
    coherent branches at the same tau stay below 0.99 fidelity with either
    coherent cat (so the coherent protocol genuinely needs the doubled phase).
    """
    sq_src = SourceSpec.squeezed(0.5)
    sq = run_superposition(SuperpositionParams(sq_src, tau=math.pi / 2))
    cutoff = sq_src.resolved_cutoff()
    f_sq = min(
        fidelity(sq[DB].state, cat_squeezed(SqueezeParam(0.5), -1, cutoff, sq_src.eps)),
        fidelity(sq[DC].state, cat_squeezed(SqueezeParam(0.5), +1, cutoff, sq_src.eps)),
    )
    _require(f_sq >= 1.0 - 1e-9, f"squeezed cat fidelity at half phase {f_sq!r}")

    alpha = 1.0
    src = SourceSpec.coherent(alpha)
    coh = run_superposition(SuperpositionParams(src, tau=math.pi / 2, theta=0.0))
    c = src.resolved_cutoff()
    cats = [cat_coherent(CoherentParam(alpha), s, c, src.eps) for s in (+1, -1)]
    f_coh = max(
        fidelity(branch.state, cat)
        for branch in (coh[DB], coh[DC])
        for cat in cats
    )
    _require(f_coh < 0.99, f"coherent branch at half phase too cat-like: {f_coh!r}")

    # independent bound: same states from the direct amplitude formulas
    dim = 41
    rot = np.array([_coherent_amp_direct(n, alpha * cmath.exp(-1j * math.pi / 2)) for n in range(dim)])
    base = np.array([_coherent_amp_direct(n, alpha) for n in range(dim)])
    f_direct = 0.0
    for sign_b in (+1, -1):
        branch = rot + sign_b * base
        branch /= np.linalg.norm(branch)
        for sign_c in (+1, -1):
            cat = base + sign_c * np.array([_coherent_amp_direct(n, -alpha) for n in range(dim)])
            cat /= np.linalg.norm(cat)
            f_direct = max(f_direct, abs(np.vdot(cat, branch)) ** 2)
    _require(f_direct < 0.99, f"oracle disagrees with the fidelity bound: {f_direct!r}")
    return f"squeezed fidelity {f_sq:.12f}; coherent max fidelity {f_coh:.6f} (oracle {f_direct:.6f})"


def check_entanglement_branches() -> str:
    """r=r'=0.5, tau=tau'=pi/2, theta=0: branch states, rank, and entropy.

    Targets are assembled from factory outputs; the entropy oracle is a 2x2
    Gram-matrix diagonalization over the arm overlaps.
    """
    r = 0.5
    params = EntanglementParams(
        SourceSpec.squeezed(r), SourceSpec.squeezed(r), tau=math.pi / 2, tau2=math.pi / 2
    )
    result = run_entanglement(params)
    targets = entanglement_targets(params)

    f_minus = fidelity(result[DB].state, targets["pair_minus"])
    f_plus = fidelity(result[DC].state, targets["pair_plus"])
    _require(f_minus >= 1.0 - 1e-9, f"minus-branch fidelity {f_minus!r}")
    _require(f_plus >= 1.0 - 1e-9, f"plus-branch fidelity {f_plus!r}")

    ranks = [
        int(np.count_nonzero(schmidt_coefficients(result[k].state, {"a"}) > 1e-10))
        for k in (DB, DC)
    ]
    _require(ranks == [2, 2], f"Schmidt ranks {ranks}, expected [2, 2]")

    su = _opposite_squeezed_overlap(r)  # <rotated|base> on each arm
    ent_minus = entanglement_entropy(result[DB].state, {"a"})
    ent_plus = entanglement_entropy(result[DC].state, {"a"})
    oracle_minus = _pair_entropy_oracle(su, su, 0.0)
    oracle_plus = _pair_entropy_oracle(su, su, math.pi)
    err = max(abs(ent_minus - oracle_minus), abs(ent_plus - oracle_plus))
    _require(err <= 1e-8, f"entropy off the Gram oracle by {err:.3e}")
    return (
        f"fidelities {f_minus:.12f}/{f_plus:.12f}, ranks 2/2, "
        f"entropies {ent_minus:.9f}/{ent_plus:.9f} (oracle err {err:.3e})"
    )


_CORPUS = (
    "",
    "mode a cutoff 0\n",
    "mode a cutoff 8\nsource a squeezed r=0.5 phi=0\n",
    (
        "mode a cutoff 26\nmode b cutoff 1\nmode c cutoff 1\n"
        "source a squeezed r=0.5 phi=0\nsource b fock n=1\n"
        "bs b c\nkerr a b tau=pi/2\nphase c theta=0\nbs b c\n"
        "detect b n=1\ndetect c n=0\n"
    ),
    (
        "mode a cutoff 14\nmode b cutoff 1\nmode c cutoff 1\n"
        "source a coherent re=1.0 im=0.0\nsource b fock n=1\n"
        "bs b c\nkerr a b tau=pi\nphase c theta=0\nbs b c\n"
        "detect b n=1\ndetect c n=0\n"
    ),
    (
        "mode a cutoff 26\nmode b cutoff 1\nmode c cutoff 1\nmode a2 cutoff 26\n"
        "source a squeezed r=0.5 phi=0\nsource b fock n=1\nsource a2 squeezed r=0.5 phi=0\n"
        "bs b c\nkerr a b tau=pi/2\nphase c theta=0\nkerr a2 b tau=pi/2\nbs b c\n"
        "detect b n=1\ndetect c n=0\n"
    ),
    "mode x cutoff 3\nmode y cutoff 3\nsource x fock n=2\nbs x y\n",
    "mode q cutoff 5\nphase q theta=0.25*pi\nphase q theta=-0.5*pi\ndetect q n=0\n",
    "mode m cutoff 2\nmode n_2 cutoff 2\nkerr m n_2 tau=1.25\n",
    (
        "# comment only at the top\nmode a cutoff 4   # trailing comment\n"
        "mode b cutoff 4\nsource a coherent re=0.25 im=-0.5\nbs a b\ndetect a n=2\n"
    ),
)


def check_infrastructure() -> str:
    """Norm conservation, projection completeness, DSL round-trips, parser
    fuzz, and byte-identical parallel sweeps."""
    rng = np.random.default_rng(424242)

    # unitarity over 100 random element applications
    worst_norm = 0.0
    labels = ("x", "y", "z")
    for i in range(100):
        state = _random_state(rng, labels, (3, 3, 3))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        pick = [labels[k] for k in rng.permutation(3)]
        kind = i % 3
        if kind == 0:
            out = apply_phase_shift(state, pick[0], angle)
        elif kind == 1:
            out = apply_cross_kerr(state, pick[0], pick[1], angle)
        else:
            state = _strip_boundary(state, pick[0], pick[1])
            out = apply_beam_splitter(state, pick[0], pick[1])
        worst_norm = max(worst_norm, abs(out.squared_norm - state.squared_norm))
    _require(worst_norm <= 1e-12, f"norm conservation violated by {worst_norm:.3e}")

    # projection completeness
    worst_proj = 0.0
    for _ in range(20):
        state = _random_state(rng, ("u", "v"), (4, 5))
        total = sum(project_mode(state, "v", n)[1] for n in range(6))
        worst_proj = max(worst_proj, abs(total - state.squared_norm))
    _require(worst_proj <= 1e-10, f"projection completeness violated by {worst_proj:.3e}")

    # DSL round-trip corpus
    for text in _CORPUS:
        first = dsl.parse(text)
        _require(first.ok, f"corpus program failed to parse: {first.diagnostics}")
        second = dsl.parse(dsl.format_program(first.program))
        _require(second.ok and second.program == first.program, "round-trip mismatch")

    # parser fuzz: must return diagnostics, never raise
    n_fuzz = 10_000
    vocabulary = (
        b"mode source bs phase kerr detect cutoff squeezed coherent fock pi "
        b"r= phi= re= im= n= tau= theta= a b c 0 1 2.5 -1 # \n \t \r\n \xff\xfe"
    ).split(b" ")
    for i in range(n_fuzz):
        if i % 100 == 0:
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 2048)), dtype=np.uint8))
        else:
            k = int(rng.integers(0, 40))
            picks = rng.integers(0, len(vocabulary), size=k)
            blob = b" ".join(vocabulary[j] for j in picks)
        result = dsl.parse(blob)
        _require(isinstance(result, dsl.ParseResult), "fuzz input broke the parser")
    big = bytes(rng.integers(0, 256, size=65536, dtype=np.uint8))
    _require(isinstance(dsl.parse(big), dsl.ParseResult), "64 KiB input broke the parser")

    # parallel sweep determinism
    from . import cli

    base_args = [
        "sweep", "--protocol", "superposition", "--source", "squeezed",
        "--sweep", "r:0.1:0.4:4", "--format", "csv",
    ]
    outputs = []
    for workers in ("1", "2"):
        outputs.append(cli.render_output(base_args + ["--workers", workers]))
    _require(outputs[0] == outputs[1], "sweep output depends on the worker count")

    return (
        f"norm dev {worst_norm:.3e}, projection dev {worst_proj:.3e}, "
        f"{len(_CORPUS)} round-trips, {n_fuzz + 1} fuzz inputs, sweeps byte-identical"
    )


CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("bs-single-photon", check_bs_single_photon),
    ("kerr-phase-rules", check_kerr_phase_rules),
    ("squeezed-cat-branches", check_squeezed_cat_branches),
    ("cat-support-laws", check_cat_support_laws),
    ("coherent-cat-branches", check_coherent_cat_branches),
    ("kerr-budget-advantage", check_kerr_budget_advantage),
    ("entanglement-branches", check_entanglement_branches),
    ("infrastructure", check_infrastructure),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_self_checks(names=None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect results."""
    selected = set(CHECK_NAMES if names is None else names)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, fn in CHECKS:
        if name not in selected:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except CheckFailure as failure:
            detail = str(failure)
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
