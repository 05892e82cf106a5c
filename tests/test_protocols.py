"""Protocol pipeline tests: branch states, probabilities, traces, and the
generic circuit runner's equivalence with the built-in pipelines. The
scheme's headline claims (parity cats, entangled pairs, Kerr phase rules)
are checked once, by the ``kerrcat check`` items in ``kerrcat.checks``."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from kerrcat import (
    CoherentParam,
    CutoffError,
    EntanglementParams,
    FockParam,
    MultiModeState,
    SqueezeParam,
    SuperpositionParams,
    TruncationWarning,
    coherent,
    entanglement_program,
    entanglement_targets,
    fidelity,
    fock,
    project_modes,
    run_circuit,
    run_entanglement,
    run_superposition,
    single,
    squeezed_vacuum,
    suggest_cutoff,
    superposition_program,
    superposition_targets,
    tensor_product,
    vacuum,
)
from kerrcat import cli, protocols, states
from kerrcat.dsl import MAX_STATE_DIMENSION, CircuitProgram, CircuitValidationError, parse
from kerrcat.elements import BalancedBeamSplitter, CrossKerr, Detect, PhaseShift, apply_element
from kerrcat.protocols import DB, DC, ZERO_BRANCH_THRESHOLD


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
        # a source or product above the limit fails the test before it is
        # allocated (a source shares the state with two cutoff-1 modes)
        def guarded_product(a, b):
            assert a.tensor.size * b.tensor.size <= MAX_STATE_DIMENSION
            return tensor_product(a, b)

        def guarded_source(param, cutoff, eps):
            assert 4 * (cutoff + 1) <= MAX_STATE_DIMENSION
            return squeezed_vacuum(param, cutoff, eps)

        monkeypatch.setattr(protocols, "tensor_product", guarded_product)
        monkeypatch.setattr(states, "squeezed_vacuum", guarded_source)

    def test_entanglement_over_the_limit(self, no_oversized_products):
        # r = 3 resolves cutoff 4218: 4 * 4219**2 = 71.2M amplitudes
        params = EntanglementParams(
            SqueezeParam(3.0), SqueezeParam(3.0), tau=math.pi / 2, tau2=math.pi / 2
        )
        with pytest.raises(CutoffError, match="maximum state dimension"):
            run_entanglement(params)

    def test_superposition_over_the_limit(self, no_oversized_products):
        program = superposition_program(SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2))
        with pytest.raises(CutoffError, match="maximum state dimension"):
            run_circuit(with_cutoff(program, "a", MAX_STATE_DIMENSION // 4))

    def test_cli_run_and_sweep(self, no_oversized_products):
        assert cli.main(["run", "--protocol", "entanglement", "--r", "3"]) == 2
        argv = ["sweep", "--protocol", "entanglement", "--sweep", "r:0.3:3:2"]
        inside, outside = (json.loads(line) for line in cli.render_output(argv).splitlines())
        assert inside["error"] is None and inside["branches"]
        assert outside["branches"] == {}
        assert outside["error"].startswith("CutoffError: ")
        assert "maximum state dimension" in outside["error"]


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
        # norm, 3.2e-7, is far above the zero norm threshold of normalize()
        program = parse(
            "mode a cutoff 1\nmode b cutoff 1\nsource a fock n=1\n"
            "source b coherent re=5.47 im=0\nbs a b\n"
        ).program
        with pytest.warns(TruncationWarning):
            branch = run_circuit(program, eps=0.999999999999)["unconditional"]
        assert (branch.probability, branch.state, branch.pre_norm) == (0.0, None, 0.0)

    def test_pre_norm_is_the_norm_of_the_projected_state(self):
        params = SuperpositionParams(SqueezeParam(0.5), tau=math.pi / 2, theta=0.3)
        result = run_circuit(superposition_program(params), trace=True)
        detected = result.trace[-1][1]
        for branch in result.branches.values():
            remaining, _ = project_modes(detected, branch.outcome)
            assert 0.0 < branch.probability < 1.0
            assert branch.pre_norm == remaining.norm

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

    def test_branches_match_brute_force_enumeration(self):
        # s is squeezed, so every odd count on it has probability exactly 0;
        # the requested (a=0, s=1) sits second in the ascending order
        program = parse(
            "mode s cutoff 3\nmode a cutoff 2\nmode b cutoff 2\nmode c cutoff 2\n"
            "source s squeezed r=0.5 phi=0\nsource a fock n=1\n"
            "bs c a\nkerr s a tau=pi/3\nbs a b\n"
            "detect a n=0\ndetect s n=1\n"
        ).program
        result = run_circuit(program, eps=0.05, trace=True)
        final = result.trace[-1][1]
        requested = (("a", 0), ("s", 1))
        expected = {}
        for na in range(3):
            for ns in range(4):
                outcome = (("a", na), ("s", ns))
                _, prob = project_modes(final, outcome)
                if prob >= ZERO_BRANCH_THRESHOLD or outcome == requested:
                    expected[f"a={na} s={ns}"] = (outcome, prob)
        assert list(result.branches) == list(expected)
        assert list(result.branches).index("a=0 s=1") == 1
        for key, (outcome, prob) in expected.items():
            branch = result[key]
            assert branch.outcome == outcome
            if prob >= ZERO_BRANCH_THRESHOLD:
                assert branch.probability == prob
                assert branch.state.labels == ("b", "c")
                assert branch.state.tensor.flags.c_contiguous
            else:
                assert branch.probability == 0.0 and branch.state is None
        assert abs(total_probability(result) - final.squared_norm) < 1e-12

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
