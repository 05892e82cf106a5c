"""The headline claim over tau, on the ``sweep`` path, against closed forms.

Squeezed inputs become parity cats at tau = pi/2; coherent ones need tau = pi.
A ``kerrcat sweep`` over tau reports each click's fidelity with the two cats of
its source, and every one of them has a closed form. Write s(p) for the source
at phase p (|xi(r, p)> or |alpha e^{ip}>) and phi for its own phase. The Kerr
rotates a squeezed phase by -2 tau and a coherent one by -tau, so at theta = 0

* ``Db_fires`` ~ s(phi_R) - s(phi) and ``Dc_fires`` ~ s(phi_R) + s(phi),
* ``even_cat`` ~ s(phi) + s(phi + pi) and ``odd_cat`` ~ s(phi) - s(phi + pi),

and each overlap <s(p1)|s(p2)> depends on d = p2 - p1 alone:
(cosh^2 r - e^{id} sinh^2 r)^{-1/2} for squeezed vacua and
exp(-|alpha|^2 (1 - e^{id})) for coherent states. Nothing here runs kerrcat
but ``cli.render_output``.
"""

import cmath
import json
import math

import pytest

from kerrcat import cli

# Largest error measured against the closed forms at --epsilon 1e-12:
# 1.31e-12 (squeezed) and 1.55e-12 (coherent)
TOLERANCE = 5e-12
REACHED = 1 - 1e-9  # a click "is" a cat at this fidelity
STEPS = 13  # tau = k pi / 12
R, PHI, ALPHA = 0.9, 0.7, cmath.rect(1.3, 0.7)
SWEEP = ["sweep", "--protocol", "superposition", "--sweep", f"tau:0:pi:{STEPS}",
         "--epsilon", "1e-12"]
CASES = {
    "squeezed": (["--r", repr(R), "--phi", repr(PHI)], 2,
                 lambda d: (math.cosh(R) ** 2 - cmath.exp(1j * d) * math.sinh(R) ** 2) ** -0.5),
    "coherent": (["--source", "coherent", "--alpha-re", repr(ALPHA.real),
                  "--alpha-im", repr(ALPHA.imag)], 1,
                 lambda d: cmath.exp(-abs(ALPHA) ** 2 * (1 - cmath.exp(1j * d)))),
}
BRANCH_SIGNS = {"Db_fires": -1, "Dc_fires": +1}
CAT_SIGNS = {"even_cat": +1, "odd_cat": -1}


def overlap(overlaps, bra, ket):
    """<bra|ket> of two sums of sources, each a list of (coefficient, phase)."""
    return sum(b.conjugate() * k * overlaps(q - p) for b, p in bra for k, q in ket)


def fidelity(overlaps, target, branch):
    value = abs(overlap(overlaps, target, branch)) ** 2
    return value / (overlap(overlaps, target, target) * overlap(overlaps, branch, branch)).real


@pytest.mark.parametrize("kind", CASES)
def test_every_cat_fidelity_over_tau_matches_its_closed_form(kind):
    options, turn, overlaps = CASES[kind]
    records = [json.loads(line) for line in cli.render_output(SWEEP + options).splitlines()]
    assert len(records) == STEPS
    reached = []
    for record in records:
        tau = record["params"]["tau"]
        rotated, lowest = -turn * tau, 1.0
        for name, sign in BRANCH_SIGNS.items():
            branch = [(1, rotated), (sign, 0.0)]
            fidelities = record["branches"][name]["analysis"]["fidelity_targets"]
            if not fidelities:  # the click never fires: the two terms cancel
                assert abs(overlap(overlaps, branch, branch)) < 1e-12, (tau, name)
                lowest = 0.0
                continue
            assert set(fidelities) == set(CAT_SIGNS), (tau, name)
            for cat, cat_sign in CAT_SIGNS.items():
                expected = fidelity(overlaps, [(1, 0.0), (cat_sign, math.pi)], branch)
                assert abs(fidelities[cat] - expected) <= TOLERANCE, (tau, name, cat)
            lowest = min(lowest, max(fidelities.values()))
        reached.append(lowest >= REACHED)
    # the first tau at which both clicks are cats: pi/2 squeezed, pi coherent
    first = records[reached.index(True)]["params"]["tau"]
    assert first == pytest.approx(math.pi / turn, abs=1e-15)
