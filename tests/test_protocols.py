"""Protocol pipeline tests: branch states, probabilities, traces, and the
generic circuit runner's equivalence with the built-in pipelines. The
scheme's headline claims (parity cats, entangled pairs, Kerr phase rules)
are checked once, by the ``kerrcat check`` items in ``kerrcat.checks``."""

import cmath
import dataclasses
import itertools
import json
import math
import os
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dsl import ANGLES, valid_programs

from kerrcat import (
    CoherentParam,
    CutoffError,
    EntanglementParams,
    FockParam,
    MultiModeState,
    SqueezeParam,
    StateMismatchError,
    SuperpositionParams,
    TruncationWarning,
    ZeroStateError,
    coherent,
    entanglement_program,
    run_circuit,
    squeezed_vacuum,
    suggest_cutoff,
    superposition_program,
    vacuum,
)
from kerrcat import cli, protocols, states
from kerrcat.analysis import fidelity, joint_photon_distribution
from kerrcat.dsl import MAX_STATE_DIMENSION, CircuitProgram, CircuitValidationError, parse
from kerrcat.elements import BalancedBeamSplitter, CrossKerr, Detect, PhaseShift, apply_element
from kerrcat.fock import _overlaps, project_modes, single, tensor_product
from kerrcat.protocols import (
    DB,
    DC,
    ZERO_BRANCH_THRESHOLD,
    entanglement_target_stacks,
    entanglement_targets,
    run_batches,
    run_entanglement,
    run_superposition,
    superposition_target_stacks,
    superposition_targets,
)
from kerrcat.states import fock


def total_probability(result):
    return sum(branch.probability for branch in result.branches.values())


def with_cutoff(program, label, cutoff):
    """``program`` with mode ``label`` declared at ``cutoff``."""
    modes = tuple((m, cutoff if m == label else c) for m, c in program.modes)
    return dataclasses.replace(program, modes=modes)


class TestSuperposition:
    def test_zero_squeeze_click_is_deterministic(self):
        result = run_superposition(SuperpositionParams(SqueezeParam(0.0), tau=1.3))
        assert result[DB].probability == 0.0
        assert result[DB].state is None
        assert result[DC].probability == pytest.approx(1.0, abs=1e-12)
        assert fidelity(result[DC].state, single("a", vacuum(0))) == pytest.approx(1.0)

    def test_branch_probabilities_complete(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            src = SqueezeParam(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0, 2 * math.pi)))
            params = SuperpositionParams(
                src, tau=float(rng.uniform(0, 2 * math.pi)), theta=float(rng.uniform(0, 2 * math.pi))
            )
            result = run_superposition(params)
            assert abs(total_probability(result) - 1.0) <= max(1e-9, params.eps)

    def test_theta_shift_swaps_branches(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            r = float(rng.uniform(0.1, 0.9))
            tau = float(rng.uniform(0.2, 2 * math.pi))
            theta = float(rng.uniform(0, 2 * math.pi))
            base = run_superposition(SuperpositionParams(SqueezeParam(r), tau, theta))
            flipped = run_superposition(
                SuperpositionParams(SqueezeParam(r), tau, theta + math.pi)
            )
            assert abs(base[DB].probability - flipped[DC].probability) < 1e-12
            assert abs(base[DC].probability - flipped[DB].probability) < 1e-12
            assert fidelity(base[DB].state, flipped[DC].state) >= 1 - 1e-10
            assert fidelity(base[DC].state, flipped[DB].state) >= 1 - 1e-10

    def test_trace_matches_analytic_stages(self):
        # each mode joins just before the first element that touches it, so
        # the photon modes are split before the data mode joins them
        params = SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2, theta=0.0)
        result = run_superposition(params, trace=True)
        assert [name for name, _ in result.trace] == [
            "source b fock n=1",
            "mode c cutoff 1",
            "bs b c",
            "source a squeezed r=0.5 phi=0",
            "kerr a b tau=pi/2",
            "phase c theta=0",
            "bs b c",
        ]
        after_first_splitter, with_data_source, after_kerr_and_phase, after_second_splitter = (
            result.trace[i][1] for i in (2, 3, 5, 6)
        )
        cutoff = suggest_cutoff(params.source_a, params.eps)
        xi = squeezed_vacuum(SqueezeParam(0.5), cutoff)
        flipped = squeezed_vacuum(SqueezeParam(0.5, math.pi), cutoff)
        isq = 1 / math.sqrt(2)

        split = np.zeros((2, 2), complex)
        split[1, 0] = isq
        split[0, 1] = 1j * isq
        assert fidelity(after_first_splitter, MultiModeState(("b", "c"), split)) >= 1 - 1e-10

        with_source = np.multiply.outer(xi.amplitudes, split)
        assert (
            fidelity(with_data_source, MultiModeState(("a", "b", "c"), with_source))
            >= 1 - 1e-10
        )

        kicked = np.zeros((cutoff + 1, 2, 2), complex)
        kicked[:, 1, 0] = flipped.amplitudes * isq
        kicked[:, 0, 1] = 1j * xi.amplitudes * isq
        assert (
            fidelity(after_kerr_and_phase, MultiModeState(("a", "b", "c"), kicked))
            >= 1 - 1e-10
        )

        out = np.zeros((cutoff + 1, 2, 2), complex)
        out[:, 1, 0] = 0.5 * (flipped.amplitudes - xi.amplitudes)
        out[:, 0, 1] = 0.5j * (flipped.amplitudes + xi.amplitudes)
        assert (
            fidelity(after_second_splitter, MultiModeState(("a", "b", "c"), out))
            >= 1 - 1e-10
        )

    def test_targets_track_source_kind(self):
        sq = superposition_targets(SuperpositionParams(SqueezeParam(0.5), tau=1.0))
        assert set(sq) == {"even_cat", "odd_cat"}
        assert all(cat.labels == ("a",) for cat in sq.values())
        degenerate = superposition_targets(SuperpositionParams(SqueezeParam(0.0), tau=1.0))
        assert set(degenerate) == {"even_cat"}


class TestEntanglement:
    def test_no_kerr_phase_means_no_entanglement(self):
        params = EntanglementParams(
            SqueezeParam(0.5), SqueezeParam(0.3), tau=0.0, tau2=0.0
        )
        result = run_entanglement(params)
        assert result[DB].probability == 0.0
        assert result[DB].state is None
        product = tensor_product(
            single("a", squeezed_vacuum(params.source_a, suggest_cutoff(params.source_a))),
            single("a2", squeezed_vacuum(params.source_a2, suggest_cutoff(params.source_a2))),
        )
        unit = MultiModeState(product.labels, product.tensor / product.norm)
        assert fidelity(result[DC].state, unit) >= 1 - 1e-10

    def test_mixed_sources_against_brute_force(self):
        # coherent on one arm, squeezed on the other; compare against the
        # element-free analytic construction of both branch states
        alpha = CoherentParam(1.0)
        eta = SqueezeParam(0.5)
        params = EntanglementParams(
            CoherentParam(1.0), SqueezeParam(0.5), tau=math.pi / 2, tau2=math.pi / 2
        )
        result = run_entanglement(params)

        ca = suggest_cutoff(params.source_a, params.eps)
        c2 = suggest_cutoff(params.source_a2, params.eps)
        base = np.multiply.outer(
            coherent(alpha, ca).amplitudes, squeezed_vacuum(eta, c2).amplitudes
        )
        rot = np.multiply.outer(
            coherent(CoherentParam(alpha.alpha * cmath.exp(-1j * math.pi / 2)), ca).amplitudes,
            squeezed_vacuum(SqueezeParam(eta.r, eta.phi - math.pi), c2).amplitudes,
        )
        for key, sign in ((DB, -1), (DC, +1)):
            target = rot + sign * base
            target /= np.linalg.norm(target)
            expected_p = float(np.linalg.norm(rot + sign * base) ** 2) / 4
            assert fidelity(result[key].state, MultiModeState(("a", "a2"), target)) >= 1 - 1e-9
            assert abs(result[key].probability - expected_p) < 1e-9

    def test_sources_share_one_leakage_budget(self):
        # the circuit checks every source against its one eps, so the second
        # source binds too: at cutoff 4 it leaks past the budget
        params = EntanglementParams(SqueezeParam(0.5), SqueezeParam(0.9), tau=1.0, tau2=1.0)
        with pytest.raises(CutoffError, match="leaks probability"):
            run_circuit(with_cutoff(entanglement_program(params), "a2", 4), params.eps)

    def test_completeness_over_random_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            params = EntanglementParams(
                SqueezeParam(float(rng.uniform(0.05, 0.8))),
                CoherentParam(float(rng.uniform(0.1, 1.0))),
                tau=float(rng.uniform(0, 2 * math.pi)),
                tau2=float(rng.uniform(0, 2 * math.pi)),
                theta=float(rng.uniform(0, 2 * math.pi)),
            )
            result = run_entanglement(params)
            assert abs(total_probability(result) - 1.0) <= max(1e-9, 2e-10)


class TestKerrRotationRule:
    # the parameter bookkeeping of kerr_rotated: kind, kept magnitude and
    # wrapped phase, which a fidelity against the rotated state does not see
    def test_squeezed_rotation(self):
        rotated = SqueezeParam(0.5, 0.3).kerr_rotated(0.7)
        assert isinstance(rotated, SqueezeParam)
        assert rotated.r == 0.5
        assert rotated.phi == pytest.approx((0.3 - 1.4) % (2 * math.pi))

    def test_coherent_rotation(self):
        rotated = CoherentParam(1.0 + 0.5j).kerr_rotated(math.pi)
        assert isinstance(rotated, CoherentParam)
        assert rotated.alpha == pytest.approx((1.0 + 0.5j) * cmath.exp(-1j * math.pi))

    @pytest.mark.parametrize("source", [SqueezeParam(0.6), CoherentParam(0.8 - 0.3j)])
    def test_huge_angles_keep_each_click_on_its_target(self, source):
        # the kernels and the targets reduce an angle by one fmod; reduced
        # apart, each click parted from its own target at angles this large
        params = EntanglementParams(source, source, tau=1e15, tau2=3e10, theta=7e12)
        result, targets = run_entanglement(params), entanglement_targets(params)
        assert fidelity(result[DB].state, targets["pair_minus"]) >= 1 - 1e-9
        assert fidelity(result[DC].state, targets["pair_plus"]) >= 1 - 1e-9

    def test_targets_take_their_cutoffs_at_the_given_budget(self):
        # both the source and its rotation on each arm sit at the cutoff of
        # the unrotated source at eps, not at the default budget
        params = EntanglementParams(
            CoherentParam(1.0 + 0.5j), SqueezeParam(0.5, 0.3), tau=math.pi, tau2=0.7, eps=1e-12
        )
        expected = [suggest_cutoff(param, 1e-12) for param in (params.source_a, params.source_a2)]
        assert expected != [suggest_cutoff(params.source_a), suggest_cutoff(params.source_a2)]
        targets = entanglement_targets(params)
        assert set(targets) == {"pair_plus", "pair_minus"}
        for target in targets.values():
            assert [target.cutoff("a"), target.cutoff("a2")] == expected


class TestStateDimensionBudget:
    @pytest.fixture
    def no_oversized_products(self, monkeypatch):
        # a source above the limit fails the test before it is allocated (a
        # source shares the state with two cutoff-1 modes), and so do a cat
        # above it as it is normalized and a dense product of factored modes
        # (a branch's state or a target pair) as it is built
        def guarded_units(stack):
            assert stack[0].size <= MAX_STATE_DIMENSION
            return units(stack)

        def guarded_products(coefficients, vectors):
            # every row's tensor at once; the terms are added into it one at a time
            assert len(coefficients) * math.prod(v.shape[-1] for v in vectors) <= MAX_STATE_DIMENSION
            return products(coefficients, vectors)

        def guarded_source(param, cutoff, eps):
            assert 4 * (cutoff + 1) <= MAX_STATE_DIMENSION
            return squeezed_vacuum(param, cutoff, eps)

        units, products = protocols._units, protocols._products
        monkeypatch.setattr(protocols, "_units", guarded_units)
        monkeypatch.setattr(protocols, "_products", guarded_products)
        monkeypatch.setattr(states, "squeezed_vacuum", guarded_source)

    def test_entanglement_over_the_dense_limit(self, no_oversized_products):
        # r = 3 resolves cutoff 4218: the dense product, 4 * 4219**2 = 71.2M
        # amplitudes, is above the limit, so a traced run (dense) is refused;
        # factored, each click is R|u>R|v> -+ |u>|v>, of probability
        # (1 -+ s^2) / 2 with s = <-xi|xi> = 1 / (cosh r sqrt(1 + tanh^2 r))
        params = EntanglementParams(
            SqueezeParam(3.0), SqueezeParam(3.0), tau=math.pi / 2, tau2=math.pi / 2
        )
        with pytest.raises(CutoffError, match="maximum state dimension"):
            run_entanglement(params, trace=True)
        s = 1 / (math.cosh(3.0) * math.sqrt(1 + math.tanh(3.0) ** 2))
        result = run_entanglement(params)
        for name, sign in ((DB, -1), (DC, 1)):
            assert abs(result[name].probability - (1 + sign * s**2) / 2) < 1e-9

    def test_dense_reads_of_factored_pairs_over_the_limit(self, no_oversized_products):
        # r = 3.5 resolves cutoff 11,466: a branch's dense pair, 11467**2 =
        # 131M amplitudes, and the two target pairs are refused unbuilt
        params = EntanglementParams(
            SqueezeParam(3.5), SqueezeParam(3.5), tau=math.pi / 2, tau2=math.pi / 2
        )
        result = run_entanglement(params)
        with pytest.raises(CutoffError, match="maximum state dimension"):
            result[DB].state
        with pytest.raises(CutoffError, match="maximum state dimension"):
            entanglement_targets(params)

    def test_factored_modes_count_their_term_vectors(self, no_oversized_products, monkeypatch,
                                                      capsys):
        # r = 7 resolves cutoff 12,546,786, and each data mode adds
        # MAX_TERMS**2 = 16 vectors: 401M amplitudes, refused before any
        # source is built (the Gram sums would hold 4 x 4 of its vectors)
        built = []
        monkeypatch.setattr(protocols, "build_source", lambda *args: built.append(args))
        assert cli.main(["run", "--protocol", "entanglement", "--r", "7", "--out", os.devnull]) == 2
        assert "maximum state dimension" in capsys.readouterr().err
        assert built == []

    def test_superposition_over_the_limit(self, no_oversized_products):
        program = superposition_program(SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2))
        with pytest.raises(CutoffError, match="maximum state dimension"):
            run_circuit(with_cutoff(program, "a", MAX_STATE_DIMENSION // 4))

    def test_modes_past_the_maximum_are_refused(self):
        program = CircuitProgram(tuple((f"m{i}", 0) for i in range(40)))
        with pytest.raises(CircuitValidationError, match="past the maximum of 31 modes"):
            run_circuit(program)

    def test_kept_branches_past_the_cap_are_refused(self, monkeypatch):
        # every outcome of n detected coherent modes at cutoff 1 is kept at
        # alpha = 1, and only the requested one at alpha = 0
        def detected(n, alpha=1.0):
            labels = [f"m{i}" for i in range(n)]
            return CircuitProgram(tuple((m, 1) for m in labels),
                                  tuple((m, CoherentParam(alpha)) for m in labels),
                                  detects=tuple(Detect(m, 0) for m in labels))

        monkeypatch.setattr(protocols, "MAX_KEPT_BRANCHES", 8)
        assert len(run_circuit(detected(3), 0.9).branches) == 8
        with pytest.raises(CutoffError, match="^detection would keep 16 branches; the cap is 8$"):
            run_circuit(detected(4), 0.9)
        # the cap counts each member's branches: the batch runs again a
        # program at a time, and only the member above the cap is refused
        (refused,), (alone,) = run_batches([detected(4), detected(4, 0.0)], 0.9)
        assert isinstance(refused, CutoffError)
        assert list(alone.branches) == ["m0=0 m1=0 m2=0 m3=0"]

    def test_a_ragged_batch_refuses_its_oversized_member_alone(self, no_oversized_products,
                                                               monkeypatch, capsys):
        # r = 0.5, the third of five points in one batch, is sized at
        # MAX_STATE_DIMENSION // 4: its two factored modes are above the cap.
        # As the batch's widest member it is validated before any source is
        # built, and it fails alone as its run does; the others run alone too
        size, batches = protocols.suggest_cutoff, []
        monkeypatch.setattr(protocols, "suggest_cutoff", lambda param, eps, ceiling: (
            MAX_STATE_DIMENSION // 4 if param.r == 0.5 else size(param, eps, ceiling)))
        run_batch = protocols._run_batch
        monkeypatch.setattr(protocols, "_run_batch",
                            lambda programs, *rest: batches.append(len(programs)) or run_batch(programs, *rest))
        monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1 << 40)
        argv = ["sweep", "--protocol", "entanglement", "--sweep", "r:0.3:0.7:5"]
        grouped = cli.render_output(argv)
        assert batches == [5, 1, 1, 1, 1, 1]
        monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)  # a batch of one point
        assert cli.render_output(argv) == grouped
        assert cli.main(["run", "--protocol", "entanglement", "--r", "0.5"]) == 2
        message = capsys.readouterr().err.removeprefix("kerrcat: numerical error: ").strip()
        records = [json.loads(line) for line in grouped.splitlines()]
        assert "maximum state dimension" in message
        assert [rec["error"] for rec in records] == [None, None, f"CutoffError: {message}", None, None]

    def test_cli_run_and_sweep(self, no_oversized_products):
        # the traced run is dense, and is refused; untraced, r = 3 runs
        assert cli.main(["run", "--protocol", "entanglement", "--r", "3", "--trace"]) == 2
        assert cli.main(["run", "--protocol", "entanglement", "--r", "3", "--out", os.devnull]) == 0
        argv = ["sweep", "--protocol", "entanglement", "--sweep", "r:0.3:3:2"]
        inside, outside = (json.loads(line) for line in cli.render_output(argv).splitlines())
        for point in (inside, outside):
            assert point["error"] is None and set(point["branches"]) == {DB, DC}


class TestRunCircuit:
    def test_superposition_program_equivalence(self):
        params = SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2, theta=0.0)
        direct = run_superposition(params)
        program = superposition_program(params)
        via_circuit = run_circuit(program)
        mapping = {DB: "b=1 c=0", DC: "b=0 c=1"}
        for det, key in mapping.items():
            assert abs(via_circuit[key].probability - direct[det].probability) < 1e-12
            assert np.abs(via_circuit[key].state.tensor - direct[det].state.tensor).max() < 1e-12

    def test_entanglement_program_equivalence(self):
        params = EntanglementParams(
            SqueezeParam(0.5), CoherentParam(0.8), tau=math.pi / 2, tau2=1.1
        )
        direct = run_entanglement(params)
        via_circuit = run_circuit(entanglement_program(params))
        mapping = {DB: "b=1 c=0", DC: "b=0 c=1"}
        for det, key in mapping.items():
            assert abs(via_circuit[key].probability - direct[det].probability) < 1e-12
            assert np.abs(via_circuit[key].state.tensor - direct[det].state.tensor).max() < 1e-12

    def test_lazy_joins_match_the_eager_product(self):
        # the first element meets the later-declared mode c before a, and d
        # (no source: a vacuum join) is touched by no element
        program = parse(
            "mode a cutoff 2\nmode d cutoff 1\nmode b cutoff 3\nmode c cutoff 2\n"
            "source a fock n=1\nsource b coherent re=0.6 im=0.2\nsource c fock n=1\n"
            "bs c a\nkerr b c tau=pi/3\nphase a theta=0.4\nbs a c\n"
            "detect a n=1\n"
        ).program
        result = run_circuit(program, eps=0.05, trace=True)
        assert [(name, state.labels) for name, state in result.trace] == [
            ("source a fock n=1", ("a",)),
            ("source c fock n=1", ("a", "c")),
            ("bs c a", ("a", "c")),
            ("source b coherent re=0.6 im=0.2", ("a", "b", "c")),
            ("kerr b c tau=pi/3", ("a", "b", "c")),
            ("phase a theta=0.4", ("a", "b", "c")),
            ("bs a c", ("a", "b", "c")),
            ("mode d cutoff 1", ("a", "d", "b", "c")),
        ]

        eager = tensor_product(
            tensor_product(single("a", fock(1, 2)), single("d", vacuum(1))),
            tensor_product(
                single("b", coherent(CoherentParam(0.6 + 0.2j), 3, 0.05)), single("c", fock(1, 2))
            ),
        )
        for element in program.elements:
            eager = apply_element(eager, element)
        assert np.abs(result.trace[-1][1].tensor - eager.tensor).max() < 1e-12
        assert list(result.branches) == ["a=0", "a=1", "a=2"]
        for n in range(3):
            remaining, prob = project_modes(eager, (("a", n),))
            branch = result[f"a={n}"]
            assert branch.state.labels == ("d", "b", "c")
            assert abs(branch.probability - prob) < 1e-12
            assert np.abs(branch.state.tensor - remaining.tensor / math.sqrt(prob)).max() < 1e-12

    def test_program_texts_parse_back(self):
        from kerrcat import format_program

        params = SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2)
        text = format_program(superposition_program(params))
        assert "kerr a b tau=pi/2" in text
        reparsed = parse(text)
        assert reparsed.ok
        assert reparsed.program == superposition_program(params)

    def test_program_texts_are_the_scheme(self):
        # the photon on b, a splitter, the Kerr medium, the phase on c, the
        # second arm's Kerr medium, a splitter, and the b=1 c=0 click
        from kerrcat import format_program

        squeezed = SuperpositionParams(SqueezeParam(0.5, 0.3), tau=math.pi / 2, theta=0.25)
        assert format_program(superposition_program(squeezed)) == (
            "mode a cutoff 26\nmode b cutoff 1\nmode c cutoff 1\n"
            "source a squeezed r=0.5 phi=0.3\nsource b fock n=1\n"
            "bs b c\nkerr a b tau=pi/2\nphase c theta=0.25\nbs b c\n"
            "detect b n=1\ndetect c n=0\n"
        )
        mixed = EntanglementParams(CoherentParam(0.8 + 0.3j), SqueezeParam(0.4, 1.0),
                                   tau=math.pi, tau2=math.pi / 2, theta=math.pi / 4)
        assert format_program(entanglement_program(mixed)) == (
            "mode a cutoff 11\nmode b cutoff 1\nmode c cutoff 1\nmode a2 cutoff 22\n"
            "source a coherent re=0.8 im=0.3\nsource b fock n=1\n"
            "source a2 squeezed r=0.4 phi=1.0\n"
            "bs b c\nkerr a b tau=pi\nphase c theta=pi/4\nkerr a2 b tau=pi/2\nbs b c\n"
            "detect b n=1\ndetect c n=0\n"
        )

    def test_empty_program_without_detection_is_source_product(self):
        program = parse(
            "mode a cutoff 12\nmode b cutoff 2\nsource a coherent re=0.5 im=0.0\nsource b fock n=2\n"
        ).program
        result = run_circuit(program)
        branch = result["unconditional"]
        assert branch.probability == pytest.approx(1.0, abs=1e-9)
        expected = tensor_product(
            single("a", coherent(CoherentParam(0.5), 12)), single("b", fock(2, 2))
        )
        unit = MultiModeState(expected.labels, expected.tensor / expected.norm)
        assert fidelity(branch.state, unit) >= 1 - 1e-12

    def test_unconditional_branch_follows_the_probability_rule(self):
        # probability 1.01e-13 is under ZERO_BRANCH_THRESHOLD, although its
        # norm, 3.2e-7, is far above the fock.ZERO_NORM_THRESHOLD of 1e-12
        program = parse(
            "mode a cutoff 1\nmode b cutoff 1\nsource a fock n=1\n"
            "source b coherent re=5.47 im=0\nbs a b\n"
        ).program
        with pytest.warns(TruncationWarning):
            branch = run_circuit(program, eps=0.999999999999)["unconditional"]
        assert (branch.probability, branch.state, branch.pre_norm) == (0.0, None, 0.0)

    def test_pre_norm_is_the_root_of_the_law_entry(self):
        params = SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2, theta=0.3)
        result = run_circuit(superposition_program(params), trace=True)
        law = joint_photon_distribution(result.trace[-1][1], ["b", "c"])
        for branch in result.branches.values():
            assert 0.0 < branch.probability < 1.0
            assert branch.pre_norm == math.sqrt(law[tuple(n for _, n in branch.outcome)])

    def test_branch_tree_reports_requested_zero_branch(self):
        # photon never in (1,1); the requested combination is still reported
        program = parse(
            "mode b cutoff 1\nmode c cutoff 1\nsource b fock n=1\nbs b c\n"
            "detect b n=1\ndetect c n=1\n"
        ).program
        result = run_circuit(program)
        assert result["b=1 c=1"].probability == 0.0
        assert result["b=1 c=1"].state is None
        assert abs(total_probability(result) - 1.0) < 1e-12

    def test_validation_errors_carry_element_index(self):
        program = CircuitProgram(
            modes=(("a", 2), ("b", 2)),
            sources=(("a", FockParam(1)),),
            elements=(PhaseShift("a", 0.1), CrossKerr("a", "zz", 0.5)),
            detects=(),
        )
        with pytest.raises(CircuitValidationError, match="element 1"):
            run_circuit(program)

    def test_detect_inside_elements_rejected(self):
        program = CircuitProgram(
            modes=(("a", 1),),
            sources=(),
            elements=(Detect("a", 0),),
            detects=(),
        )
        with pytest.raises(CircuitValidationError, match="element 0"):
            run_circuit(program)

    def test_beam_splitter_cutoff_mismatch_rejected(self):
        program = CircuitProgram(
            modes=(("a", 1), ("b", 2)),
            sources=(),
            elements=(BalancedBeamSplitter("a", "b"),),
            detects=(),
        )
        with pytest.raises(CircuitValidationError, match="cutoff mismatch"):
            run_circuit(program)


# Valid programs of at most 3 modes and cutoffs of at most 4, whose sources
# are small enough (|alpha| <= 1, r <= 0.5) that the truncated states keep
# weight on several outcomes, so detections keep several branches.
small_programs = valid_programs(
    max_modes=3, max_cutoff=4, r=st.floats(0, 0.5),
    alpha=st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(program=small_programs)
# s is squeezed, so every odd count on it has probability exactly 0; the
# requested (a=0, s=1) sits second in the ascending order
@example(program=parse(
    "mode s cutoff 3\nmode a cutoff 2\nmode b cutoff 2\nmode c cutoff 2\n"
    "source s squeezed r=0.5 phi=0\nsource a fock n=1\n"
    "bs c a\nkerr s a tau=pi/3\nbs a b\n"
    "detect a n=0\ndetect s n=1\n"
).program)
# 25 of the 60 outcomes fall below ZERO_BRANCH_THRESHOLD and are dropped; they
# sum to 1.4e-12, so the kept branches alone miss the norm by more than 1e-12
@example(program=parse(
    "mode A cutoff 3\nmode B cutoff 2\nmode C cutoff 4\n"
    "source A coherent re=1 im=0\nsource B squeezed r=0.5 phi=0\n"
    "source C coherent re=0.0625 im=0\n"
    "detect A n=0\ndetect B n=0\ndetect C n=0\n"
).program)
def test_branches_match_brute_force_enumeration(program):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        result = run_circuit(program, eps=0.999999, trace=True)
    final = result.trace[-1][1]
    requested = tuple((d.mode, d.n) for d in program.detects)
    modes = [m for m, _ in requested]
    law = joint_photon_distribution(final, modes)
    expected = {}
    for counts in itertools.product(*(range(final.cutoff(m) + 1) for m in modes)):
        outcome = tuple(zip(modes, counts))
        remaining, prob = project_modes(final, outcome)
        if prob >= ZERO_BRANCH_THRESHOLD or outcome == requested:
            key = " ".join(f"{m}={n}" for m, n in outcome) if modes else "unconditional"
            expected[key] = (outcome, remaining, prob)
    assert list(result.branches) == list(expected)
    for key, (outcome, remaining, prob) in expected.items():
        branch = result[key]
        assert branch.outcome == outcome
        if prob >= ZERO_BRANCH_THRESHOLD:
            assert branch.probability == law[tuple(n for _, n in outcome)]
            assert abs(branch.probability - prob) < 1e-12
            assert branch.state.labels == remaining.labels
            assert branch.state.tensor.flags.c_contiguous
            unit = remaining.tensor / math.sqrt(branch.probability)
            assert np.abs(branch.state.tensor - unit).max(initial=0.0) < 1e-12
        else:
            assert branch.probability == 0.0 and branch.state is None
    dropped = law[law < ZERO_BRANCH_THRESHOLD].sum()
    assert abs(total_probability(result) + dropped - final.squared_norm) < 1e-12


SMALL_R = st.floats(0, 0.5)
SMALL_ALPHA = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)


@st.composite
def angle_batches(draw):
    """One of ``small_programs``, with 1-4 sets of element angles and of
    squeezed and coherent parameters at the same cutoffs: the members of one
    batch. A member keeps the program's value of a source or draws its own."""

    def member_source(param):
        if isinstance(param, FockParam) or draw(st.booleans()):
            return param
        if isinstance(param, SqueezeParam):
            return SqueezeParam(draw(SMALL_R), draw(ANGLES))
        return CoherentParam(draw(SMALL_ALPHA))

    program = draw(small_programs)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        elements = tuple(
            dataclasses.replace(e, theta=draw(ANGLES)) if isinstance(e, PhaseShift)
            else dataclasses.replace(e, tau=draw(ANGLES)) if isinstance(e, CrossKerr)
            else e
            for e in program.elements
        )
        sources = tuple((label, member_source(param)) for label, param in program.sources)
        members.append(dataclasses.replace(program, sources=sources, elements=elements))
    return members


def outcome(run):
    """What ``run()`` returns, or the type and text of what it raises: the
    batch and its members are compared, whichever they do."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return run()
    except Exception as err:  # compared, not handled
        return type(err), str(err)


def result_bytes(result):
    """A result's branches as plain values, amplitudes as their bytes."""
    return [
        (key, b.outcome, b.probability, None if b.state is None else
         (b.state.labels, b.state.tensor.tobytes()))
        for key, b in result.branches.items()
    ]


def at_first_cutoffs(programs):
    """``programs`` with every mode declared at the first program's cutoff."""
    return [dataclasses.replace(p, modes=programs[0].modes) for p in programs]


@settings(max_examples=200, deadline=None)
# at eps = 0.999999 every drawn source passes its leakage check, so members
# whose sources differ run as batches; so do the sweep-like examples, whose
# first member has the largest source
@given(programs=angle_batches(), eps=st.sampled_from([1e-10, 0.01, 0.5, 0.999999]))
@example(programs=at_first_cutoffs([
    superposition_program(SuperpositionParams(SqueezeParam(r, phi), tau))
    for r, phi, tau in ((0.5, 0.0, 0.3), (0.45, 1.0, 1.2), (0.3, 2.0, 0.3))
]), eps=1e-10)
@example(programs=at_first_cutoffs([
    entanglement_program(EntanglementParams(CoherentParam(a), CoherentParam(a2), 0.4, 1.1))
    for a, a2 in ((1.0, 1.0), (0.8 + 0.3j, 0.9j), (0.5, 1.0))
]), eps=1e-10)
def test_a_batch_equals_its_members_run_alone(programs, eps):
    alone = [outcome(lambda p=p: run_circuit(p, eps)) for p in programs]
    batch = outcome(lambda: [r for b in run_batches(programs, eps) for r in b])
    assert len(batch) == len(programs)
    for result, single in zip(batch, alone):
        # the circuit rules fail every member, or a source fails some: a
        # member that fails alone gives its own error in place of its result
        if isinstance(result, Exception):
            assert (type(result), str(result)) == single
        else:
            assert result_bytes(result) == result_bytes(single)


def test_programs_of_different_layouts_are_not_a_batch():
    base = superposition_program(SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2))
    others = [
        dataclasses.replace(base, sources=base.sources[1:]),
        dataclasses.replace(base, detects=base.detects[:1]),
        dataclasses.replace(base, elements=base.elements[:1] + (CrossKerr("b", "a", 1.0),)
                            + base.elements[2:]),
        dataclasses.replace(base, elements=base.elements[:2] + (PhaseShift("b", 1.0),)
                            + base.elements[3:]),
        # Fock and vacuum sources, and the kind of every source, are layout
        dataclasses.replace(base, sources=base.sources[:1] + (("b", FockParam(0)),)),
        dataclasses.replace(base, sources=base.sources[:1]),
        dataclasses.replace(base, sources=(("a", CoherentParam(0.5)),) + base.sources[1:]),
    ]
    for other in others:
        assert [len(batch) for batch in run_batches([base, other])] == [1, 1]
    angles = dataclasses.replace(base, elements=base.elements[:1] + (CrossKerr("a", "b", 1.0),)
                                 + (PhaseShift("c", 0.4),) + base.elements[3:])
    # a squeezed source's value is not layout, at the same cutoff
    squeeze = dataclasses.replace(angles, sources=(("a", SqueezeParam(0.45, 1.0)),)
                                  + base.sources[1:])
    # nor is the cutoff of the data mode, which a batch zero-pads (protocols._free)
    wider = with_cutoff(base, "a", 30)
    assert [len(batch) for batch in run_batches([base, angles, squeeze, wider])] == [4]


@pytest.mark.parametrize("last", [False, True])
def test_a_data_mode_declared_last_keeps_its_cutoff_in_the_layout(last):
    # declared last, the data mode is the law's innermost axis, a pairwise sum
    # that zero padding would move (13 probabilities and states here); so such
    # programs batch by cutoff, and the scheme's own order batches across them
    programs = [superposition_program(SuperpositionParams(SqueezeParam(r, 0.3), tau=1.1))
                for r in np.linspace(0.5, 1.6, 12)]
    if last:
        programs = [dataclasses.replace(p, modes=p.modes[1:] + p.modes[:1]) for p in programs]
    batches = list(run_batches(programs))
    assert len(batches) == (12 if last else 1)
    for result, program in zip(itertools.chain(*batches), programs):
        assert result_bytes(result) == result_bytes(run_circuit(program))


@pytest.mark.parametrize("poison", ["nan", "norm"])
def test_each_member_of_a_batch_is_checked(poison, monkeypatch):
    # the second member's Kerr output is made non-finite, or twice as long
    apply, bad = protocols.apply_batch, []

    def poisoned(stack, axes, elements):
        out = apply(stack, axes, elements)
        if isinstance(elements[0], CrossKerr):
            if poison == "nan":
                out[1].flat[3] = np.nan
            else:
                out[1] *= 2
            bad.append(out[1].copy())
        return out

    monkeypatch.setattr(protocols, "apply_batch", poisoned)
    programs = [
        superposition_program(SuperpositionParams(SqueezeParam(0.5), tau=tau)) for tau in (0.5, 1.0)
    ]
    with pytest.raises(StateMismatchError) as batch:
        protocols._run_batch(programs, states.DEFAULT_LEAKAGE, (), False)
    (member,) = bad
    with pytest.raises(StateMismatchError) as alone:
        MultiModeState(("a", "b", "c"), member)
    assert str(batch.value) == str(alone.value)


# --- the sweep's cutoff table and each batch's source table -------------------

# few values, zeros among them, so that members share sources and cutoffs,
# and cats and pairs vanish; or any values
SWEEP_ANGLES = st.one_of(st.sampled_from([-0.0, 0.0, math.pi / 2, math.pi, 7.0]), ANGLES)
SWEEP_SOURCES = {
    "squeezed": st.builds(
        SqueezeParam, st.one_of(st.sampled_from([-0.0, 0.0, 0.3]), st.floats(0.0, 1.2)),
        SWEEP_ANGLES,
    ),
    "coherent": st.builds(
        lambda re, im: CoherentParam(complex(re, im)),
        st.one_of(st.sampled_from([-0.0, 0.0, 0.7]), st.floats(-2.0, 2.0)),
        st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-2.0, 2.0)),
    ),
}


def leakage(source, cutoff):
    """The running-sum tail of ``source`` at ``cutoff``, which its budget
    check compares."""
    stride = 2 if isinstance(source, SqueezeParam) else 1
    return float(states._tail(states._law(source, cutoff)[0][::stride])[-1])


def near_budget(source):
    """A budget one ulp above the leakage of ``source`` at a cutoff it is
    accepted at, where a rotated source's tail may reach the budget."""
    return max(math.nextafter(leakage(source, suggest_cutoff(source, 1e-4)), 1.0), 1e-12)


@st.composite
def sweep_batches(draw):
    """The params of neighbouring sweep points of one protocol and one
    source kind: their sources and angles differ, and their budget is the
    default or one ulp above the first source's leakage."""
    source = SWEEP_SOURCES[draw(st.sampled_from(sorted(SWEEP_SOURCES)))]
    entangled = draw(st.booleans())
    members = []
    for _ in range(draw(st.integers(1, 6))):
        a, tau, theta = draw(source), draw(SWEEP_ANGLES), draw(SWEEP_ANGLES)
        if entangled:
            members.append(EntanglementParams(a, draw(source), tau, draw(SWEEP_ANGLES), theta))
        else:
            members.append(SuperpositionParams(a, tau, theta))
    eps = draw(st.sampled_from([states.DEFAULT_LEAKAGE, near_budget(members[0].source_a)]))
    return [dataclasses.replace(p, eps=eps) for p in members]


def batch_targets(members):
    """Each member's target rows as a sweep takes them: sized through one
    cutoff table, run in batches of one layout, a target stack per batch
    read from the sources its members were built from, each row's vectors
    up to its member's own cutoffs (a batch zero-pads them past those)."""
    entangled = isinstance(members[0], EntanglementParams)
    program = entanglement_program if entangled else superposition_program
    stacks = entanglement_target_stacks if entangled else superposition_target_stacks
    cutoffs, out, params = {}, [], members
    for batch in run_batches([program(p, cutoffs) for p in members], members[0].eps):
        points, params = params[:len(batch)], params[len(batch):]
        (coefficients, vectors, _), rows = stacks(points, [r.sources for r in batch])
        for i, result in enumerate(batch):
            lengths = [result.sources[label].amplitudes.size for label in ("a", "a2")[:len(vectors)]]
            out.append({name: (coefficients[at[i]].tobytes(),
                               *(v[at[i], ..., :n].tobytes() for v, n in zip(vectors, lengths)))
                        for name, at in rows.items() if at[i] is not None})
    return out


def standalone_targets(p):
    """The targets from the factories alone, as factored rows' bytes: the
    cats of ``cat_squeezed`` and ``cat_coherent``, each one term of
    coefficient 1, and the pair of the factory-built sources, each rotated
    source at the cutoff of its unrotated one, beside its coefficients."""
    def build(param, cutoff, eps):
        factory = squeezed_vacuum if isinstance(param, SqueezeParam) else coherent
        return factory(param, cutoff, eps).amplitudes

    targets = {}
    if isinstance(p, SuperpositionParams):
        cat = states.cat_squeezed if isinstance(p.source_a, SqueezeParam) else states.cat_coherent
        for name, sign in (("even_cat", 1), ("odd_cat", -1)):
            try:
                targets[name] = cat(p.source_a, sign, suggest_cutoff(p.source_a, p.eps), p.eps)
            except ZeroStateError:
                pass
        return {name: (np.ones(1).tobytes(), vector.amplitudes[None].tobytes())
                for name, vector in targets.items()}
    # the rotated builds are the same amplitudes at any budget they pass; the
    # pair R a R'a2 + s a a2 is (R a - a) R'a2 + a (R'a2 - a2) + (1 + s) a a2
    (ra, a), (ra2, a2) = ((build(param.kerr_rotated(tau), cutoff, 0.5), build(param, cutoff, p.eps))
                          for param, tau, cutoff in ((p.source_a, p.tau, suggest_cutoff(p.source_a, p.eps)),
                                                     (p.source_a2, p.tau2, suggest_cutoff(p.source_a2, p.eps))))
    arms = (np.stack([ra - a, a, a]), np.stack([ra2, ra2 - a2, a2]))
    phase = np.exp(1j * math.fmod(p.theta, 2 * math.pi))
    for name, sign in (("pair_plus", 1), ("pair_minus", -1)):
        coefficients = np.array([[1.0, 1.0, 1 + sign * phase]])
        norm = np.sqrt(_overlaps((coefficients, [a[None] for a in arms], None),
                                 (coefficients, [a[None] for a in arms], None)).real)
        if norm[0] > 1e-12:
            targets[name] = ((coefficients / norm[:, None])[0].tobytes(), *(a.tobytes() for a in arms))
    return targets


@settings(max_examples=150, deadline=None)
@given(members=sweep_batches())
@example(members=[SuperpositionParams(SqueezeParam(0.0), -0.0), SuperpositionParams(
    SqueezeParam(0.3, -0.0), 1.0, -0.0)])
@example(members=[EntanglementParams(CoherentParam(0j), CoherentParam(0.7), 0.0, 0.0)] * 2)
# one ulp above its source's leakage, this point's first rotated source
# would be sized at a larger cutoff of its own
@example(members=[EntanglementParams(
    CoherentParam(2.7052044141492857 - 0.30913237221825085j),
    CoherentParam(2.7052044141492857 - 0.30913237221825085j),
    0.15387946498917343, 0.0, eps=0.0002634190152933647,
)])
def test_batch_targets_equal_standalone_targets_bit_for_bit(members):
    for p, targets in zip(members, batch_targets(members)):
        assert targets == standalone_targets(p)


@settings(max_examples=150, deadline=None)
@given(source=st.one_of(
    st.builds(SqueezeParam, st.floats(0.05, 1.5), ANGLES),
    st.builds(lambda m, t: CoherentParam(m * cmath.exp(1j * t)), st.floats(0.05, 3.0), ANGLES),
), tau=ANGLES, tau2=ANGLES)
@example(source=SqueezeParam(1.156, 1.705), tau=math.pi / 2, tau2=math.pi / 2)
def test_rotated_targets_take_no_budget_of_their_own(source, tau, tau2):
    # one ulp above the source's leakage, a rotated law's tail, equal to it
    # but for rounding, may reach the budget; the budget is the circuit's
    eps = math.nextafter(leakage(source, suggest_cutoff(source, 1e-4)), 1.0)
    params = EntanglementParams(source, source, tau, tau2, eps=eps)
    run_entanglement(params)
    targets = entanglement_targets(params)
    assert "pair_plus" in targets
    cutoff = suggest_cutoff(source, eps)
    assert all(t.tensor.shape == (cutoff + 1, cutoff + 1) for t in targets.values())


def test_a_padded_members_state_is_its_run_alone():
    # one batch: mode a's cutoffs are 16 and 62, and a2's 17 and 12, so each
    # member's vectors are zero-padded on one mode; each branch's state has
    # its own cutoffs and the bits of its run alone
    pairs = ((SqueezeParam(0.3), CoherentParam(1.5)), (SqueezeParam(0.9), CoherentParam(1.0)))
    programs = [entanglement_program(EntanglementParams(a, a2, tau=1.0, tau2=0.5, theta=0.2))
                for a, a2 in pairs]
    assert [dict(p.modes)["a"] for p in programs] == [16, 62]
    assert [dict(p.modes)["a2"] for p in programs] == [17, 12]
    (batch,) = run_batches(programs)
    for result, program in zip(batch, programs):
        alone = run_circuit(program)
        assert list(result.branches) == list(alone.branches)
        for key, branch in alone.branches.items():
            state = result.branches[key].state
            assert state.tensor.shape == branch.state.tensor.shape == tuple(
                dict(program.modes)[m] + 1 for m in ("a", "a2"))
            assert state.tensor.tobytes() == branch.state.tensor.tobytes()


def test_a_failed_sizing_is_not_stored(monkeypatch):
    cutoffs = {}
    with pytest.raises(CutoffError):
        superposition_program(SuperpositionParams(CoherentParam(1e200), 1.0), cutoffs)
    assert cutoffs == {}
    superposition_program(SuperpositionParams(CoherentParam(1.0), 1.0), cutoffs)
    assert cutoffs == {(CoherentParam(1.0), 1e-10): suggest_cutoff(CoherentParam(1.0))}
    # in a sweep, each point of a source that cannot be sized raises again
    events, _ = record_law_passes(monkeypatch)
    records = [json.loads(line) for line in cli.render_output(
        "sweep --protocol superposition --source coherent --sweep alpha_re:1e200:1e200:1 "
        "--sweep tau:0:pi:3".split()).splitlines()]
    assert [r["error"].split(":")[0] for r in records] == ["CutoffError"] * 3
    assert [e[0] for e in events] == ["size"] * 3


def record_law_passes(monkeypatch):
    """The events of a run, in order: ("batch",) as each batch starts, and
    ("size", param), ("build", param, cutoff) and ("rotated", param, cutoff)
    for each law pass, the three kinds of law pass there are."""
    events, passes = [], []

    def wrap(module, name, event):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            recorded_event = event(*args)
            if recorded_event is not None:
                events.append(recorded_event)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    wrap(protocols, "_run_batch", lambda *args: ("batch",))
    wrap(protocols, "suggest_cutoff", lambda param, eps: ("size", param))
    wrap(states, "_source", lambda param, cutoff, eps: ("build", param, cutoff))
    wrap(protocols, "_unchecked_source", lambda param, cutoff: ("rotated", param, cutoff))
    for module in (states, protocols):
        wrap(module, "_law", lambda *args: passes.append(args))
    return events, passes


@pytest.mark.parametrize("argv, passes", [
    # the benchmark's sweeps at their default seed, and its large run; a source
    # is built once a batch, so each r value whose tau points two of the
    # superposition sweep's six batches share is built twice (three here)
    ("sweep --protocol superposition --source squeezed --phi 0.0 --sweep r:0.1:1.5:200 "
     "--sweep tau:0:pi:5", 403),
    ("sweep --protocol entanglement --source squeezed --phi 0.0 --sweep r:0.1:1.0:200 "
     "--format csv", 600),
    ("run --protocol entanglement --source squeezed --r 2.0 --phi 0.0", 3),
])
def test_law_passes_of_the_benchmark_workloads(argv, passes, monkeypatch):
    # each point's source is sized once and built once, and an entanglement
    # point's one rotated source is built once; its second data mode shares
    # all three
    _, laws = record_law_passes(monkeypatch)
    cli.render_output(argv.split())
    assert len(laws) == passes


@pytest.mark.parametrize("argv, passes", [
    ("--protocol superposition --sweep r:0.1:0.4:4 --sweep tau:0:pi:3 --sweep theta:0:1:2", 8),
    ("--protocol superposition --source coherent --sweep alpha_im:0:1:3 --sweep tau:0:pi:2", 6),
    # six points in one batch: tau = pi/2 rotates the first arm, and
    # tau2 = 0 and pi leave the second as it was, so its checked source
    # stands for its rotated one and no law is built once more
    ("--protocol entanglement --sweep tau2:0:pi:3 --sweep theta:0:1:2", 3),
    # the three sources' cutoffs (12, 13 and 16) share one batch: each source
    # is sized and built once, and rotated once for a and five times for a2
    ("--protocol entanglement --source coherent --sweep tau2:0:pi:7 --sweep alpha_im:0:1:3", 24),
    ("--protocol entanglement --sweep r:0.1:0.6:12 --sweep tau:0:pi:2", 36),
])
def test_each_source_is_sized_once_a_sweep_and_built_once_a_batch(argv, passes, monkeypatch):
    events, laws = record_law_passes(monkeypatch)
    tables = []

    def kept(build):
        def sized(params, cutoffs):
            tables.append(cutoffs)
            return build(params, cutoffs)

        return sized

    for protocol, build in dict(cli._PROGRAMS).items():
        monkeypatch.setitem(cli._PROGRAMS, protocol, kept(build))
    records = cli.render_output(["sweep", *argv.split()]).splitlines()
    sized = [e[1] for e in events if e[0] == "size"]
    assert len(sized) == len(set(sized))
    # one table for the sweep, of ints, one per distinct source
    assert all(table is tables[0] for table in tables) and len(tables) == len(records)
    assert {param for param, _ in tables[0]} == set(sized)
    assert all(type(cutoff) is int for cutoff in tables[0].values())
    batches = [list(group) for is_mark, group in itertools.groupby(
        events, lambda e: e == ("batch",)) if not is_mark]
    for batch in batches:
        built = [e[1:] for e in batch if e[0] == "build"]
        rotated = [e[1:] for e in batch if e[0] == "rotated"]
        assert len(built) == len(set(built)) and len(rotated) == len(set(rotated))
        assert {param for param, _ in built} <= set(sized)
    assert len(laws) == sum(e[0] != "batch" for e in events) == passes


def test_no_source_outlives_the_records_of_its_batch(monkeypatch):
    refs, kept, batch = [], protocols._kept, protocols._run_batch

    def tracked_kept(*args):
        value = kept(*args)
        # a source, or a cat of one; not a cutoff
        for state in value.values() if isinstance(value, dict) else [value]:
            if not isinstance(state, int):
                refs.append(weakref.ref(state))
        return value

    def tracked_batch(*args):
        # the records of every earlier batch are built by now
        assert all(ref() is None for ref in refs), "a source outlived its batch"
        started.append(len(refs))
        return batch(*args)

    started = []
    monkeypatch.setattr(protocols, "_kept", tracked_kept)
    monkeypatch.setattr(protocols, "_run_batch", tracked_batch)
    # padded data modes let points of every cutoff share a batch: a chunk of two
    # superposition points at the largest cutoff (34) keeps batches many
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 2 * 4 * 35)
    for protocol in ("superposition", "entanglement"):
        records = cli.render_output(["sweep", "--protocol", protocol, "--sweep", "r:0.1:0.6:6",
                                     "--sweep", "tau:0:pi:2"])
        assert all(ref() is None for ref in refs)
        assert records.count("\n") == 12
    assert len(started) > 4 and len(refs) > len(started)


def test_a_factored_batch_equals_its_members_run_alone_where_terms_coincide(monkeypatch):
    # at tau = 0 (or tau2 = 0) a Kerr split leaves equal rotated vectors on
    # its data mode, so two terms coincide; the points share one cutoff per
    # mode and run as one batch, whose results, states and records must be
    # those of each point alone, to the bit
    taus = (0.0, math.pi / 4, math.pi / 2)
    programs = [entanglement_program(EntanglementParams(SqueezeParam(0.7), CoherentParam(0.8j),
                                                        tau, tau2, theta))
                for tau in taus for tau2 in taus for theta in (0.0, 1.0)]
    assert all(protocols.dsl.factored_modes(p) == ("a", "a2") for p in programs)
    (batch,) = run_batches(programs)
    assert len(batch) == len(programs)
    for result, program in zip(batch, programs):
        assert result_bytes(result) == result_bytes(run_circuit(program))
    argv = ["sweep", "--protocol", "entanglement", "--r", "0.7", "--sweep", "tau:0:pi/2:3",
            "--sweep", "tau2:0:pi/2:3", "--sweep", "theta:0:1:2"]
    grouped = cli.render_output(argv)
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)  # a batch of one point
    assert cli.render_output(argv) == grouped


@pytest.mark.parametrize("protocol", ["superposition", "entanglement"])
def test_gram_entries_summed_alone_keep_their_bits(protocol, monkeypatch):
    # past fock._GRAM_PRODUCTS products a mode, each Gram entry is summed on
    # its own, so that a batch and its member alone may take different paths
    argv = ["sweep", "--protocol", protocol, "--sweep", "r:0.3:1.5:4", "--sweep", "tau:0:pi:3"]
    at_once = cli.render_output(argv)
    monkeypatch.setattr("kerrcat.fock._GRAM_PRODUCTS", 0)
    assert cli.render_output(argv) == at_once
