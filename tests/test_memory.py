"""Memory contract of the state kernels, measured with ``tracemalloc``.

Each kernel writes its output once, into an array the state adopts without
a copy. On a state of about a million amplitudes (16 MiB), the bytes a
kernel allocates beyond its input peak at one output, plus, for the beam
splitter, one chunk's gathered pairs and their products. Every returned
state still goes through the state constructor and its checks.
"""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrcat import elements
from kerrcat.elements import apply_beam_splitter, apply_cross_kerr, apply_phase_shift
from kerrcat.fock import (
    FockVector,
    MultiModeState,
    normalize,
    project_mode,
    project_modes,
    single,
    tensor_product,
)
from kerrcat.protocols import _joined
from kerrcat.states import CoherentParam, SqueezeParam, cat_coherent, coherent, squeezed_vacuum

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
    three = MultiModeState(LABELS[:3], random_tensor((512, 2, 2), seed=1))
    rest = MultiModeState(LABELS[1:], random_tensor((2, 2, 512), seed=2))
    vector = FockVector(np.full(512, 1 / math.sqrt(512)))
    return {
        "splitter": (apply_beam_splitter, large, "b", "c"),
        "kerr": (apply_cross_kerr, large, "a2", "b", 0.7),
        "phase": (apply_phase_shift, large, "c", 0.3),
        "join-last": (_joined, three, "a2", vector, LABELS),
        "join-first": (_joined, rest, "a", vector, LABELS),
        "normalize": (normalize, large),
    }


KERNELS = ("splitter", "kerr", "phase", "join-last", "join-first", "normalize")


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_peaks_at_one_output(large, name):
    kernel, *args = kernel_calls(large)[name]
    elements._beam_splitter_plan(1, elements._BS_HALF_ANGLE)  # not the kernel's
    result, peak = allocated(kernel, *args)
    state = result[0] if isinstance(result, tuple) else result
    budget = state.tensor.nbytes + SLACK_BYTES
    if name == "splitter":
        budget += CHUNK_BYTES
    assert state.tensor.nbytes == large.tensor.nbytes
    assert peak <= budget, f"{name}: {peak} bytes allocated, budget {budget}"
    assert not state.tensor.flags.writeable


def test_splitter_on_wide_pair_peaks_at_one_output_and_a_chunk():
    # the pair is (c, a), on either side of a spectator: chunks run along b
    state = MultiModeState(("a", "b", "c"), random_tensor((64, 256, 64), seed=3))
    elements._beam_splitter_plan(63, elements._BS_HALF_ANGLE)
    result, peak = allocated(apply_beam_splitter, state, "c", "a")
    assert peak <= result.tensor.nbytes + CHUNK_BYTES + SLACK_BYTES


@pytest.mark.parametrize("outcomes", [(("b", 1), ("c", 0)), (("b", 0),), (("c", 1), ("b", 0))])
def test_branch_costs_one_copy(large, outcomes):
    (branch, prob), peak = allocated(project_modes, large, outcomes)
    assert peak <= branch.tensor.nbytes + SLACK_BYTES
    assert branch.tensor.base is None and not branch.tensor.flags.writeable
    assert prob == branch.squared_norm


@pytest.mark.parametrize("build, param", [
    (squeezed_vacuum, SqueezeParam(4.0)),
    (coherent, CoherentParam(1.0)),
])
def test_source_build_peaks_at_twice_its_result(build, param):
    # unmemoized, so the test keeps no large source alive
    vector, peak = allocated(build.__wrapped__, param, 1_000_000, 1e-10)
    assert peak <= 2 * vector.amplitudes.nbytes
    assert not vector.amplitudes.flags.writeable


def test_every_returned_state_is_constructed(monkeypatch):
    """Each kernel's result went through ``__post_init__`` (and its checks),
    the hook that counts built states."""
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
    calls = [
        lambda: apply_beam_splitter(small, "b", "c"),
        lambda: apply_cross_kerr(small, "a", "b", 0.4),
        lambda: apply_phase_shift(small, "a2", 0.2),
        lambda: _joined(three, "a2", vector, LABELS),
        lambda: project_modes(small, (("b", 1), ("a", 2)))[0],
        lambda: project_mode(small, "c", 0)[0],
        lambda: normalize(MultiModeState(small.labels, small.tensor * 0.5)),
        lambda: cat_coherent.__wrapped__(CoherentParam(0.3), -1, 8, 1e-3),
        lambda: tensor_product(three, single("a2", vector)),
        lambda: squeezed_vacuum.__wrapped__(SqueezeParam(0.3), 8, 1e-3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in calls:
            built.clear()
            state = call()
            assert any(b is state for b in built)
