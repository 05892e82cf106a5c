"""Memory contract of the state kernels, measured with ``tracemalloc``.

Each kernel writes its output once, into an array the state adopts without
a copy. On a state of about a million amplitudes (16 MiB), the bytes a
kernel allocates beyond its input peak at one output, plus, for the beam
splitter, one chunk's gathered pairs and their products. The kernels are
measured as the circuit runner calls them, on a batch of one member; a
batch of larger states runs one member at a time. Every returned state
still goes through the state constructor and its checks.
"""

import dataclasses
import gc
import itertools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrcat import cli, elements, protocols
from kerrcat.dsl import CircuitProgram
from kerrcat.elements import (
    BalancedBeamSplitter,
    CrossKerr,
    Detect,
    PhaseShift,
    apply_batch,
    apply_beam_splitter,
    apply_cross_kerr,
    apply_phase_shift,
)
from kerrcat.fock import (
    FockVector,
    MultiModeState,
    project_mode,
    project_modes,
    single,
    tensor_product,
)
from kerrcat.protocols import _joined, run_batches, run_circuit
from kerrcat.states import (
    CoherentParam,
    FockParam,
    SqueezeParam,
    cat_coherent,
    coherent,
    squeezed_vacuum,
)

AMPLITUDE_BYTES = np.dtype(np.complex128).itemsize
# phase tables, index arrays, numpy's broadcasting buffers (about 256 KiB
# for a join) and Python objects: 3 % of the output
SLACK_BYTES = 512 * 1024
CHUNK_BYTES = 2 * elements._CHUNK_AMPLITUDES * AMPLITUDE_BYTES
LABELS = ("a", "b", "c", "a2")


def random_tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr /= np.linalg.norm(arr)
    return arr


@pytest.fixture(scope="module")
def large():
    """The entanglement protocol's layout at 2^20 amplitudes."""
    return MultiModeState(LABELS, random_tensor((512, 2, 2, 512)))


def allocated(kernel, *args):
    """``kernel(*args)`` and the peak of the bytes it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the splitter's truncation warning
            result = kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def kernel_calls(large):
    """Each kernel as the circuit runner calls it, on a one-member stack."""
    stack = large.tensor[None]
    three = random_tensor((1, 512, 2, 2), seed=1)
    rest = random_tensor((1, 2, 2, 512), seed=2)
    vector = FockVector(np.full(512, 1 / math.sqrt(512))).amplitudes[None]  # a one-row source stack
    return {
        "splitter": (apply_batch, stack, [2, 3], [BalancedBeamSplitter("b", "c")]),
        "kerr": (apply_batch, stack, [4, 2], [CrossKerr("a2", "b", 0.7)]),
        "phase": (apply_batch, stack, [3], [PhaseShift("c", 0.3)]),
        "join-last": (_joined, three, LABELS[:3], "a2", vector, LABELS),
        "join-first": (_joined, rest, LABELS[1:], "a", vector, LABELS),
        # the public kernels are the same kernels on a batch of one
        "splitter-state": (apply_beam_splitter, large, "b", "c"),
        "kerr-state": (apply_cross_kerr, large, "a2", "b", 0.7),
        "phase-state": (apply_phase_shift, large, "c", 0.3),
    }


KERNELS = ("splitter", "kerr", "phase", "join-last", "join-first",
           "splitter-state", "kerr-state", "phase-state")


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_peaks_at_one_output(large, name):
    kernel, *args = kernel_calls(large)[name]
    elements._beam_splitter_plan(1, elements._BS_HALF_ANGLE)  # not the kernel's
    result, peak = allocated(kernel, *args)
    output = result[0] if isinstance(result, tuple) else result
    if isinstance(output, MultiModeState):
        assert not output.tensor.flags.writeable
        output = output.tensor
    budget = output.nbytes + SLACK_BYTES
    if name.startswith("splitter"):
        budget += CHUNK_BYTES
    assert output.nbytes == large.tensor.nbytes
    assert peak <= budget, f"{name}: {peak} bytes allocated, budget {budget}"


def test_splitter_on_wide_pair_peaks_at_one_output_and_a_chunk():
    # the pair is (c, a), on either side of a spectator: chunks run along b
    stack = random_tensor((1, 64, 256, 64), seed=3)
    elements._beam_splitter_plan(63, elements._BS_HALF_ANGLE)
    result, peak = allocated(apply_batch, stack, [3, 1], [BalancedBeamSplitter("c", "a")])
    assert peak <= result.nbytes + CHUNK_BYTES + SLACK_BYTES


def test_batch_of_large_states_peaks_like_one_member():
    # 2 * 65 * 65 * 8 = 67,600 amplitudes a member, above one splitter chunk,
    # so the eight members run one at a time and peak like one run alone (d
    # is detected, so that a2 alone would factor, and the program runs dense)
    cutoff = 64
    program = CircuitProgram(
        modes=(("a", cutoff), ("b", 1), ("c", 1), ("a2", cutoff), ("d", 7)),
        sources=(("a", CoherentParam(1.5)), ("b", FockParam(1)), ("a2", SqueezeParam(0.3))),
        elements=(BalancedBeamSplitter("b", "c"), CrossKerr("a", "b", 0.0),
                  PhaseShift("c", 0.0), BalancedBeamSplitter("b", "c")),
        detects=(Detect("b", 1), Detect("c", 0), Detect("a", 0), Detect("d", 0)),
    )
    assert math.prod(c + 1 for _, c in program.modes) > elements._CHUNK_AMPLITUDES
    assert protocols.dsl.factored_modes(program) == ()
    programs = [
        dataclasses.replace(program, elements=(
            program.elements[0], CrossKerr("a", "b", 0.3 * k), PhaseShift("c", 0.1 * k),
            program.elements[3],
        ))
        for k in range(8)
    ]
    elements._beam_splitter_plan(1, elements._BS_HALF_ANGLE)
    run_circuit(programs[0])  # warms what a run sets up once
    _, alone = allocated(run_circuit, programs[0])
    _, batch = allocated(lambda: [len(r.branches) for b in run_batches(programs) for r in b])
    assert batch <= alone + SLACK_BYTES, f"batch peak {batch}, one member alone {alone}"


def test_group_of_large_sweep_points_peaks_like_one_point(monkeypatch):
    # points above one splitter chunk run one at a time (r = 1.3 gives cutoff
    # 140, whose two factored modes a batch counts as 286 amplitudes a point,
    # so the chunk is shrunk to one point), and each point's result and
    # fidelity targets must go before the next point runs
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)
    config = cli._run_config(["sweep", "--protocol", "entanglement", "--r", "1.3",
                              "--sweep", "tau:0.5:1.5:4"])

    def records(stop):  # _sweep_records is a generator, which runs only as it is consumed
        return list(itertools.islice(cli._sweep_records(config), stop))

    records(1)  # warms the splitter plan
    _, one = allocated(records, 1)
    _, four = allocated(records, 4)
    assert four <= one + SLACK_BYTES, f"four points peak at {four} bytes, one at {one}"


def test_sweep_peak_does_not_grow_with_its_point_count(tmp_path, monkeypatch):
    # r = 2 gives cutoff 570, so each record holds two 571-entry photon
    # distributions; the tau points share a layout, run in batches of two.
    # Each record is written once its batch is analyzed
    argv = ["sweep", "--protocol", "superposition", "--r", "2",
            "--out", str(tmp_path / "sweep.jsonl"), "--sweep"]
    program = protocols.superposition_program(protocols.SuperpositionParams(SqueezeParam(2), 0.0))
    size = math.prod(c + 1 for _, c in program.modes)  # a point's amplitudes
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 2 * size)
    cli.main(argv + ["tau:0:pi:2"])  # warms what a run sets up once
    _, four = allocated(cli.main, argv + ["tau:0:pi:4"])
    _, many = allocated(cli.main, argv + ["tau:0:pi:32"])
    assert many <= four + SLACK_BYTES, f"32 points peak at {many} bytes, four at {four}"


def test_sweep_peak_is_flat_in_its_point_count(monkeypatch):
    # batches of one point: a point is built as its batch reads it and goes
    # with its record. What grows is the grid's axis (32 bytes a point) and
    # the interpreter's free lists, which fill up to a fixed size (about
    # 250 KiB); a sweep that listed its points grew by about 1 MiB here
    monkeypatch.setattr(protocols, "_CHUNK_AMPLITUDES", 1)
    argv = ["sweep", "--protocol", "superposition", "--r", "0.5", "--out", os.devnull,
            "--sweep"]
    cli.main(argv + ["tau:0:pi:2"])  # warms what a run sets up once
    _, few = allocated(cli.main, argv + ["tau:0:pi:8"])
    _, many = allocated(cli.main, argv + ["tau:0:pi:512"])
    assert many <= few + 384 * 1024, f"512 points peak at {many} bytes, 8 at {few}"


@pytest.mark.parametrize("protocol, largest_batch", [
    ("entanglement", ["r:3:3:1"]),  # alone above a chunk
    ("superposition", ["r:3:3:1", "--sweep", "tau:0:pi:3"]),  # three of them fill one
])
def test_sweep_across_cutoffs_peaks_like_its_largest_point(protocol, largest_batch):
    # r from 1 to 3 spans cutoffs 76 to 4,218. The smaller points share
    # batches with larger ones, their data modes zero-padded to the longest
    # member's (the entanglement scheme's factored vectors, the superposition
    # scheme's dense mode); a chunk is sized from its largest member, so no
    # batch holds more than the most points of r = 3 that one chunk holds
    argv = ["sweep", "--protocol", protocol, "--out", os.devnull, "--sweep"]
    cli.main(argv + ["r:3:3:1"])  # warms what a run sets up once
    _, largest = allocated(cli.main, argv + largest_batch)
    _, sweep = allocated(cli.main, argv + ["r:1:3:12"])
    assert sweep <= 1.1 * largest, f"the sweep peaks at {sweep} bytes, r = 3's batch at {largest}"


@pytest.mark.parametrize("outcomes", [(("b", 1), ("c", 0)), (("b", 0),), (("c", 1), ("b", 0))])
def test_branch_costs_one_copy(large, outcomes):
    (branch, prob), peak = allocated(project_modes, large, outcomes)
    assert peak <= branch.tensor.nbytes + SLACK_BYTES
    assert branch.tensor.base is None and not branch.tensor.flags.writeable
    assert prob == branch.squared_norm


@pytest.mark.parametrize("clicks", ["every", "one"])
def test_detection_peaks_at_one_law_and_its_branches(large, clicks):
    # with every (b, c) outcome occupied, the branches together are the size
    # of the state; with one, only that branch is kept
    tensor = large.tensor.copy()
    if clicks == "one":
        tensor[:, (0, 0, 1), (0, 1, 1), :] = 0
        tensor /= np.linalg.norm(tensor)
    stack = tensor[None]
    detects = (Detect("b", 1), Detect("c", 0))
    (branches,), peak = allocated(protocols._branches, stack, LABELS, detects, 1)
    states = [branch.state for branch in branches.values()]
    assert len(states) == (4 if clicks == "every" else 1)
    law = stack.size * np.dtype(np.float64).itemsize
    budget = law + sum(state.tensor.nbytes for state in states) + SLACK_BYTES
    assert peak <= budget, f"{peak} bytes allocated, budget {budget}"


@pytest.mark.parametrize("build, param", [
    (squeezed_vacuum, SqueezeParam(4.0)),
    (coherent, CoherentParam(1.0)),
])
def test_source_build_peaks_at_twice_its_result(build, param):
    vector, peak = allocated(build, param, 1_000_000, 1e-10)
    assert peak <= 2 * vector.amplitudes.nbytes
    assert not vector.amplitudes.flags.writeable


def test_every_returned_state_is_constructed(monkeypatch):
    """Each kernel's result went through ``__post_init__`` (and its checks),
    the hook that counts built states; inside the circuit runner, every
    stack a join or an element returns went through the state check of
    each of its members, the last one before detection included."""
    built = []
    for cls in (FockVector, MultiModeState):
        original = cls.__post_init__

        def counted(instance, original=original):
            built.append(instance)
            original(instance)

        monkeypatch.setattr(cls, "__post_init__", counted)
    small = MultiModeState(LABELS, random_tensor((3, 2, 2, 3), seed=4))
    vector = FockVector(np.array([0.6, 0.8, 0.0]))
    three = MultiModeState(LABELS[:3], random_tensor((3, 2, 2), seed=5))
    program = CircuitProgram(
        modes=(("a", 2), ("b", 1), ("c", 1)),
        sources=(("a", SqueezeParam(0.3)), ("b", FockParam(1))),
        elements=(BalancedBeamSplitter("b", "c"), CrossKerr("a", "b", 0.4)),
        detects=(Detect("b", 1),),
    )
    calls = [
        lambda: apply_beam_splitter(small, "b", "c"),
        lambda: apply_cross_kerr(small, "a", "b", 0.4),
        lambda: apply_phase_shift(small, "a2", 0.2),
        lambda: run_circuit(program, eps=0.05)["b=1"].state,
        lambda: project_modes(small, (("b", 1), ("a", 2)))[0],
        lambda: project_mode(small, "c", 0)[0],
        lambda: cat_coherent(CoherentParam(0.3), -1, 8, 1e-3),
        lambda: tensor_product(three, single("a2", vector)),
        lambda: squeezed_vacuum(SqueezeParam(0.3), 8, 1e-3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in calls:
            built.clear()
            state = call()
            assert any(b is state for b in built)

    made, checked = [], []
    join, apply, check = protocols._joined, protocols.apply_batch, protocols._checked_members

    def joined(*args):
        stack, labels = join(*args)
        made.append(stack)
        return stack, labels

    def applied(*args):
        made.append(apply(*args))
        return made[-1]

    def checked_members(stack):
        checked.append(stack)
        return check(stack)

    monkeypatch.setattr(protocols, "_joined", joined)
    monkeypatch.setattr(protocols, "apply_batch", applied)
    monkeypatch.setattr(protocols, "_checked_members", checked_members)
    angles = [dataclasses.replace(program, elements=(program.elements[0], CrossKerr("a", "b", t)))
              for t in (0.1, 0.2, 0.3)]
    built.clear()
    results = [r for batch in run_batches(angles, eps=0.05) for r in batch]
    # each stack is checked once, before the next stage or detection reads
    # it, from the empty start on
    assert len(made) == 5
    assert [id(s) for s in checked[1:]] == [id(s) for s in made]
    states = [b.state for result in results for b in result.branches.values()]
    assert len(states) == 6 and all(any(b is state for b in built) for state in states)


def test_large_entanglement_report_holds_no_dense_pair():
    # r = 2 gives two 571-photon data modes: their dense product held 21 MB a
    # copy, and the report's traced peak was 41.8 MiB; held as vectors, it
    # peaks at 1.3 MiB: four terms of 571 entries a mode, the targets' terms,
    # their Gram products over the photon numbers, and the distributions and
    # their text
    argv = ["run", "--protocol", "entanglement", "--r", "2.0"]
    cli.render_output(argv)  # warms what a run sets up once
    _, peak = allocated(cli.render_output, argv)
    assert peak <= 4 * 1024 * 1024, f"{peak} bytes"


def test_factored_report_holds_no_vector_per_pair_of_terms():
    # r = 4 gives two 31,167-photon data modes, 0.48 MiB a vector. At this
    # size each Gram entry is its own sum, so the report peaks at 22.7 MiB,
    # about 24 vectors a mode; Gram matrices built over the photon numbers
    # first, a vector per pair of terms (4 x 4 a branch, and 4 x 3 a branch
    # and target pair), peaked at 83.3 MiB
    argv = ["run", "--protocol", "entanglement", "--r", "4.0"]
    cli.render_output(argv)
    _, peak = allocated(cli.render_output, argv)
    assert peak <= 32 * 1024 * 1024, f"{peak} bytes"
