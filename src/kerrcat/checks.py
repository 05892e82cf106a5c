"""The scheme's end-to-end claims, runnable via ``kerrcat check`` or pytest.

An item belongs here when it checks a claim of the scheme as a whole: the
Kerr phase rules it rests on, the squeezed and coherent parity cats with
their click probabilities and photon-number support, the halved Kerr phase
that squeezed inputs need, and the entangled squeezed pairs. Each item is a
command line and an independent oracle: it runs ``kerrcat run`` and asserts
on the report a user gets (and on its ``--trace`` amplitudes where it needs
a state) against numbers that kerrcat does not compute (log-factorial
amplitudes, closed-form overlaps, 2x2 Gram matrices, numpy's SVD). Properties
of single parts (element conventions, unitarity, projection, the circuit
language, sweeps) are tier-1 tests under ``tests/``, so each claim
has exactly one home. All randomness is seeded, so repeated runs produce
identical reports.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cli import render_output


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


def _run(*argv: str) -> dict:
    """The report of ``kerrcat run`` with ``argv``."""
    return json.loads(render_output(["run", *argv]))


def _amplitudes(stage: dict, **fixed: int) -> np.ndarray:
    """A traced stage's amplitudes, with each mode in ``fixed`` at its photon number."""
    pairs = np.array(stage["amplitudes"])
    tensor = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(stage["shape"])
    return tensor[tuple(fixed.get(mode, slice(None)) for mode in stage["modes"])]


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


def _opposite_squeezed_overlap(r: float) -> float:
    """<xi|-xi> in closed form."""
    return 1.0 / math.sqrt(math.cosh(2.0 * r))


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


# --- check items -------------------------------------------------------------

def check_kerr_phase_rules() -> str:
    """Cross-Kerr against one photon rotates source parameters analytically.

    Squeezed phase shifts by -2*tau, coherent amplitude by e^{-i*tau}: the
    traced ``kerr a b`` stage of a superposition run, at b=1 and c=0, matches
    the direct amplitudes at the rotated parameter. Checked on 20 random
    parameter draws for each source kind at leakage 1e-12.
    """
    rng = np.random.default_rng(20250809)
    worst = 1.0
    for _ in range(20):
        r = float(rng.uniform(0.05, 1.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        tau = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = float(rng.uniform(0.05, 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for source, direct, rotated in (
            ([f"--r={r!r}", f"--phi={phi!r}"], _squeezed_amp_direct, (r, phi - 2.0 * tau)),
            (["--source=coherent", f"--alpha-re={alpha.real!r}", f"--alpha-im={alpha.imag!r}"],
             _coherent_amp_direct, (alpha * cmath.exp(-1j * tau),)),
        ):
            report = _run("--protocol=superposition", *source, f"--tau={tau!r}",
                          "--epsilon=1e-12", "--trace")
            (kerr,) = [stage for stage in report["trace"] if stage["stage"].startswith("kerr a b ")]
            got = _amplitudes(kerr, b=1, c=0)
            want = np.array([direct(n, *rotated) for n in range(got.size)])
            overlap = abs(np.vdot(want, got)) ** 2
            worst = min(worst, float(overlap / (np.vdot(want, want).real * np.vdot(got, got).real)))
    _require(worst >= 1.0 - 1e-10, f"worst rotated-parameter fidelity {worst!r}")
    return f"worst fidelity {worst!r}"


def _cat_branches(argv: list[str], overlap: float, tol: float) -> str:
    """The clicks of a superposition run of ``argv`` are the odd/even cats of
    its source, with probabilities (1 -+ overlap)/2 to within ``tol``;
    ``overlap`` is the oracle's <source|-source>."""
    branches = _run("--protocol=superposition", *argv)["branches"]
    fids, errs = [], []
    for key, cat, word, sign in (("Db_fires", "odd", "minus", -1), ("Dc_fires", "even", "plus", +1)):
        fids.append(branches[key]["analysis"]["fidelity_targets"][f"{cat}_cat"])
        _require(fids[-1] >= 1.0 - 1e-9, f"{cat}-cat branch fidelity {fids[-1]!r}")
        errs.append(abs(branches[key]["probability"] - (1.0 + sign * overlap) / 2.0))
        _require(errs[-1] <= tol, f"{word}-branch probability off oracle by {errs[-1]:.3e}")
    return f"fidelities {fids[0]:.12f}/{fids[1]:.12f}, probability error {max(errs):.3e}"


def check_squeezed_cat_branches() -> str:
    """r=0.5, tau=pi/2, theta=0: branches are the odd/even squeezed cats.

    Click probabilities must match (1 -+ S)/2 with S = <xi|-xi> in closed form.
    """
    r = 0.5
    s = _opposite_squeezed_overlap(r)
    return f"{_cat_branches([f'--r={r}', '--tau=pi/2', '--theta=0'], s, 1e-6)} vs S={s:.6f}"


def check_cat_support_laws() -> str:
    """Branch photon distributions live on n=4k (plus) and n=4k+2 (minus)."""
    worst = 0.0
    for r in (0.2, 0.5, 1.0):
        branches = _run("--protocol=superposition", f"--r={r}", "--tau=pi/2", "--theta=0")["branches"]
        for key, first in (("Db_fires", 2), ("Dc_fires", 0)):
            dist = branches[key]["analysis"]["distributions"]["a"]
            worst = max(worst, sum(p for n, p in enumerate(dist) if n % 4 != first))
    _require(worst < 1e-12, f"support residual {worst:.3e} >= 1e-12")
    return f"max residual outside allowed support {worst:.3e}"


def check_coherent_cat_branches() -> str:
    """alpha=1, tau=pi, theta=0: odd/even coherent cats, probabilities
    (1 -+ <alpha|-alpha>)/2 with <alpha|-alpha> = e^{-2|alpha|^2}."""
    alpha = 1.0
    argv = ["--source=coherent", f"--alpha-re={alpha}", "--tau=pi", "--theta=0", "--epsilon=1e-12"]
    return _cat_branches(argv, math.exp(-2.0 * alpha**2), 1e-9)


def check_kerr_budget_advantage() -> str:
    """tau=pi/2 suffices for squeezed-input cats but not for coherent cats.

    The squeezed branches hit cat fidelity >= 1 - 1e-9 at tau=pi/2, while the
    coherent branches at the same tau stay below 0.99 fidelity with either
    coherent cat (so the coherent protocol genuinely needs the doubled phase).
    """
    sq = _run("--protocol=superposition", "--r=0.5", "--tau=pi/2")["branches"]
    f_sq = min(sq["Db_fires"]["analysis"]["fidelity_targets"]["odd_cat"],
               sq["Dc_fires"]["analysis"]["fidelity_targets"]["even_cat"])
    _require(f_sq >= 1.0 - 1e-9, f"squeezed cat fidelity at half phase {f_sq!r}")

    alpha = 1.0
    coh = _run("--protocol=superposition", "--source=coherent", f"--alpha-re={alpha}", "--tau=pi/2")
    f_coh = max(fid for key in ("Db_fires", "Dc_fires")
                for fid in coh["branches"][key]["analysis"]["fidelity_targets"].values())
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
    """r=r'=0.5, tau=tau'=pi/2, theta=0: branch states, probabilities, rank,
    and entropy.

    Each click's rank counts the singular values of its (a | a2) slice of the
    last traced stage. Click probabilities must match (1 -+ S^2)/2 with S the
    closed-form <xi|-xi>; the entropy oracle is a 2x2 Gram-matrix
    diagonalization over the arm overlaps.
    """
    r = 0.5
    report = _run("--protocol=entanglement", f"--r={r}", "--tau=pi/2", "--tau2=pi/2", "--theta=0",
                  "--trace")
    minus, plus = report["branches"]["Db_fires"], report["branches"]["Dc_fires"]

    f_minus = minus["analysis"]["fidelity_targets"]["pair_minus"]
    f_plus = plus["analysis"]["fidelity_targets"]["pair_plus"]
    _require(f_minus >= 1.0 - 1e-9, f"minus-branch fidelity {f_minus!r}")
    _require(f_plus >= 1.0 - 1e-9, f"plus-branch fidelity {f_plus!r}")

    final = report["trace"][-1]
    spectra = [np.linalg.svd(_amplitudes(final, **b["outcome"]), compute_uv=False) for b in (minus, plus)]
    ranks = [int(np.count_nonzero(s > 1e-10 * np.linalg.norm(s))) for s in spectra]
    _require(ranks == [2, 2], f"Schmidt ranks {ranks}, expected [2, 2]")

    su = _opposite_squeezed_overlap(r)  # <rotated|base> on each arm
    err_db = abs(minus["probability"] - (1.0 - su**2) / 2.0)
    err_dc = abs(plus["probability"] - (1.0 + su**2) / 2.0)
    _require(err_db <= 1e-6, f"minus-branch probability off oracle by {err_db:.3e}")
    _require(err_dc <= 1e-6, f"plus-branch probability off oracle by {err_dc:.3e}")
    ent_minus, ent_plus = (branch["analysis"]["schmidt_entropy"] for branch in (minus, plus))
    oracle_minus = _pair_entropy_oracle(su, su, 0.0)
    oracle_plus = _pair_entropy_oracle(su, su, math.pi)
    err = max(abs(ent_minus - oracle_minus), abs(ent_plus - oracle_plus))
    _require(err <= 1e-8, f"entropy off the Gram oracle by {err:.3e}")
    return (
        f"fidelities {f_minus:.12f}/{f_plus:.12f}, ranks 2/2, "
        f"probability error {max(err_db, err_dc):.3e}, "
        f"entropies {ent_minus:.9f}/{ent_plus:.9f} (oracle err {err:.3e})"
    )


CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("kerr-phase-rules", check_kerr_phase_rules),
    ("squeezed-cat-branches", check_squeezed_cat_branches),
    ("cat-support-laws", check_cat_support_laws),
    ("coherent-cat-branches", check_coherent_cat_branches),
    ("kerr-budget-advantage", check_kerr_budget_advantage),
    ("entanglement-branches", check_entanglement_branches),
)


def run_self_checks() -> list[CheckResult]:
    """Run every check and collect results."""
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except CheckFailure as failure:
            detail = str(failure)
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
