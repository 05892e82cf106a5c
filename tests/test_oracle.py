"""An oracle for whole circuit programs that owns its arithmetic.

The oracle builds each source from its closed form, each element from its
own ladder and number matrices (``np.kron`` embeddings, ``scipy.linalg.expm``
of the splitter's generator, dense diagonal phases), and each detection law
by summing squared magnitudes. It uses no splitter plan, no join and no
detection code of the package. A truncated splitter is exactly P U P, with P
the projector onto the cutoff box, so every traced stage of a run must equal
the oracle applied to the stage before it, and every branch must be the
oracle's slice of the final stage, with its law entry as probability. The
untraced run, which holds a program's two factored modes (if it has them) as
rotated source vectors, must give the same branches.
"""

import functools
import math
import warnings

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from test_dsl import ANGLES, valid_programs

from kerrcat import TruncationWarning, run_circuit
from kerrcat.dsl import CircuitProgram, factored_modes, format_element, format_mode, format_source, parse
from kerrcat.elements import BalancedBeamSplitter, CrossKerr, Detect, PhaseShift
from kerrcat.states import CoherentParam, FockParam, SqueezeParam

TOLERANCE = 1e-12
THRESHOLD = 1e-12  # a branch below this probability is reported without a state


def source_amplitudes(param, cutoff):
    """<n|source> for n = 0..cutoff, from the closed forms."""
    amplitudes = np.zeros(cutoff + 1, dtype=complex)
    for n in range(cutoff + 1):
        if param is None:
            amplitudes[n] = n == 0
        elif isinstance(param, FockParam):
            amplitudes[n] = n == param.n
        elif isinstance(param, CoherentParam):
            alpha = param.alpha
            amplitudes[n] = math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        elif n % 2 == 0:  # <2m|xi> = (-e^{i phi} tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r))
            m, r = n // 2, param.r
            coefficient = math.sqrt(math.factorial(n)) / (2**m * math.factorial(m))
            ratio = -np.exp(1j * param.phi) * math.tanh(r)
            amplitudes[n] = ratio**m * coefficient / math.sqrt(math.cosh(r))
    return amplitudes


@functools.lru_cache(maxsize=None)
def splitter(dimension):
    """expm(i pi/4 (a1+ a2 + a1 a2+)) on two modes of ``dimension`` levels."""
    lower = np.diag(np.sqrt(np.arange(1.0, dimension)), k=1)
    one = np.eye(dimension)
    a1, a2 = np.kron(lower, one), np.kron(one, lower)
    generator = a1.conj().T @ a2 + a1 @ a2.conj().T
    return expm(1j * math.pi / 4 * generator)


def on_axes(tensor, axes, apply):
    """``tensor`` after ``apply`` acted on its ``axes``, moved first."""
    moved = np.moveaxis(tensor, axes, range(len(axes)))
    return np.moveaxis(apply(moved), range(len(axes)), axes)


def applied(e, labels, tensor):
    """The element ``e`` on a state over ``labels``: P U P for a splitter.
    Angles are reduced by the same fmod as the package's, so that a huge
    angle keeps its digits."""
    if isinstance(e, PhaseShift):
        axis = labels.index(e.mode)
        phases = np.exp(1j * math.fmod(e.theta, 2 * math.pi) * np.arange(tensor.shape[axis]))
        return on_axes(tensor, [axis], lambda t: np.einsum("n,n...->n...", phases, t))
    axes = [labels.index(e.mode_1), labels.index(e.mode_2)]
    d1, d2 = (tensor.shape[axis] for axis in axes)
    if isinstance(e, CrossKerr):
        numbers = np.diag(np.kron(np.diag(np.arange(d1)), np.diag(np.arange(d2))))
        phases = np.exp(-1j * math.fmod(e.tau, 2 * math.pi) * numbers).reshape(d1, d2)
        return on_axes(tensor, axes, lambda t: np.einsum("mn,mn...->mn...", phases, t))
    assert isinstance(e, BalancedBeamSplitter) and d1 == d2
    # in 2c + 1 levels a mode holds every photon of a pair of cutoff c
    big = 2 * d1 - 1

    def split(pair):
        padded = np.zeros((big, big) + pair.shape[2:], dtype=complex)
        padded[:d1, :d1] = pair
        flat = padded.reshape(big * big, -1)
        mixed = (splitter(big) @ flat).reshape(padded.shape)
        return mixed[:d1, :d1]  # P: the cutoff box

    return on_axes(tensor, axes, split)


def expected_stages(program):
    """The oracle's (line, joined mode or element) schedule: a mode joins just
    before the first element that touches it, the others after the last."""
    declared, sources = dict(program.modes), dict(program.sources)
    joined, schedule = [], []

    def join(labels):
        for label in declared:
            if label in labels and label not in joined:
                joined.append(label)
                param = sources.get(label)
                line = format_mode(label, declared[label]) if param is None else format_source(
                    label, param)
                schedule.append((line, label))

    for e in program.elements:
        modes = [e.mode] if isinstance(e, PhaseShift) else [e.mode_1, e.mode_2]
        join(modes)
        schedule.append((format_element(e), e))
    join(declared)
    return schedule


def check_against_oracle(program):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        result = run_circuit(program, eps=0.999999, trace=True)
        untraced = run_circuit(program, eps=0.999999)
    declared, sources = dict(program.modes), dict(program.sources)
    schedule = expected_stages(program)
    assert [line for line, _ in result.trace] == [line for line, _ in schedule]
    labels, tensor = (), np.ones(())
    for (_, step), (_, stage) in zip(schedule, result.trace):
        if isinstance(step, str):  # the mode joins at its declared place
            vector = source_amplitudes(sources.get(step), declared[step])
            labels = tuple(m for m in declared if m in labels or m == step)
            expected = np.moveaxis(np.multiply.outer(tensor, vector), -1, labels.index(step))
        else:
            expected = applied(step, labels, tensor)
        assert stage.labels == labels
        assert np.abs(stage.tensor - expected).max(initial=0.0) < TOLERANCE
        tensor = stage.tensor  # the next stage is checked against this one

    requested = tuple((d.mode, d.n) for d in program.detects)
    modes = [m for m, _ in requested]
    axes = [labels.index(m) for m in modes]
    rest = tuple(m for m in labels if m not in modes)
    final = np.moveaxis(tensor, axes, range(len(axes)))
    law = (np.abs(final) ** 2).reshape(final.shape[:len(axes)] + (-1,)).sum(axis=-1)
    expected = {}
    for counts in np.ndindex(law.shape):
        if law[counts] >= THRESHOLD or counts == tuple(n for _, n in requested):
            outcome = tuple(zip(modes, counts))
            key = " ".join(f"{m}={n}" for m, n in outcome) or "unconditional"
            expected[key] = (outcome, law[counts], final[counts])
    assert list(result.branches) == list(expected) == list(untraced.branches)
    for key, (outcome, probability, amplitudes) in expected.items():
        for run in (result, untraced):
            check_branch(run[key], outcome, probability, amplitudes, rest)
    event("factored" if factored_modes(program) else "dense")


def check_branch(branch, outcome, probability, amplitudes, rest):
    """A branch, traced or not, against the oracle's."""
    assert branch.outcome == outcome
    if probability < THRESHOLD:
        assert branch.probability == 0.0 and branch.state is None
        return
    assert abs(branch.probability - probability) < TOLERANCE
    kept = branch.kept
    if kept.vectors is None:  # a dense branch is a row of the run's kept slices
        assert np.array_equal(kept.rows[branch.row], branch.state.tensor)
    assert branch.state.labels == kept.labels == rest
    unnormalized = branch.state.tensor * math.sqrt(branch.probability)
    assert np.abs(unnormalized - amplitudes).max(initial=0.0) < TOLERANCE


# The event of each example says whether its program factors: in three runs
# of 150 examples, 3, 8 and 7 did (see pytest's --hypothesis-show-statistics),
# besides the two explicit factored examples; factored_programs() below draws
# programs that factor, and each of its 100 examples does.
@settings(max_examples=150, deadline=None)
@given(program=valid_programs(
    max_modes=3, max_cutoff=4, r=st.floats(0, 0.5),
    alpha=st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
))
# a mode joining behind one already joined; a Kerr phase on two occupied
# modes; a splitter whose pair holds photons above the cutoff; and a
# requested outcome that has probability 0
@example(program=parse("mode a cutoff 1\nmode b cutoff 1\nsource b fock n=1\n"
                       "phase a theta=0.1\nphase b theta=0.2\n").program)
@example(program=parse("mode a cutoff 2\nmode b cutoff 2\nsource a coherent re=0.8 im=0\n"
                       "source b coherent re=0.6 im=0.2\nkerr a b tau=0.7\n").program)
@example(program=parse("mode a cutoff 2\nmode b cutoff 2\nsource a fock n=2\n"
                       "source b fock n=1\nbs a b\n").program)
@example(program=parse("mode a cutoff 1\nmode b cutoff 1\nsource b fock n=1\n"
                       "detect a n=1\n").program)
# two factored modes, a and c: Kerr media against the detected core mode b,
# four terms, one of them zero after the splitter; and the same with a
# splitter between the two Kerr media
@example(program=parse("mode a cutoff 2\nmode b cutoff 1\nmode c cutoff 3\n"
                       "source a coherent re=0.5 im=0.2\nsource b coherent re=0.6 im=0\n"
                       "source c squeezed r=0.4 phi=1\nkerr a b tau=0.7\nphase c theta=0.3\n"
                       "kerr c b tau=1.1\ndetect b n=1\n").program)
@example(program=parse("mode a cutoff 3\nmode b cutoff 1\nmode c cutoff 2\nmode d cutoff 1\n"
                       "source a squeezed r=0.5 phi=0\nsource b fock n=1\nsource c coherent re=0.7 im=0\n"
                       "bs b d\nkerr a b tau=pi/2\nbs d b\nkerr b c tau=0.4\n"
                       "detect b n=1\ndetect d n=0\n").program)
def test_every_stage_and_branch_match_the_oracle(program):
    check_against_oracle(program)


@st.composite
def factored_programs(draw):
    """A program whose data modes a and d meet only phase shifts and Kerr
    media against the detected core modes (b, or b and c), in a drawn
    declaration order; it factors unless its Kerr media make too many terms."""
    core = draw(st.lists(st.sampled_from("bc"), min_size=1, max_size=2, unique=True))
    core_cutoff = draw(st.integers(1, 2))
    cutoffs = {m: core_cutoff for m in core} | {m: draw(st.integers(0, 4)) for m in "ad"}
    labels = draw(st.permutations(sorted(cutoffs)))
    sources = []
    for label in labels:
        kind = draw(st.sampled_from(("vacuum", "squeezed", "coherent", "fock")))
        if kind == "squeezed":
            sources.append((label, SqueezeParam(draw(st.floats(0, 0.5)), draw(ANGLES))))
        elif kind == "coherent":
            sources.append((label, CoherentParam(draw(st.complex_numbers(
                max_magnitude=1, allow_nan=False, allow_infinity=False)))))
        elif kind == "fock":
            sources.append((label, FockParam(draw(st.integers(0, cutoffs[label])))))
    elements = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("bs", "phase", "kerr")))
        if kind == "bs" and len(core) == 2:
            elements.append(BalancedBeamSplitter(*draw(st.permutations(core))))
        elif kind == "kerr":
            pair = [draw(st.sampled_from("ad")), draw(st.sampled_from(core))]
            elements.append(CrossKerr(*draw(st.permutations(pair)), draw(ANGLES)))
        else:
            elements.append(PhaseShift(draw(st.sampled_from(labels)), draw(ANGLES)))
    detects = tuple(Detect(m, draw(st.integers(0, core_cutoff))) for m in draw(st.permutations(core)))
    return CircuitProgram(tuple((m, cutoffs[m]) for m in labels), tuple(sources),
                          tuple(elements), detects)


@settings(max_examples=100, deadline=None)
@given(program=factored_programs())
def test_every_factored_run_matches_the_oracle(program):
    # the untraced run holds a and d as rotated source vectors, the traced one is dense
    assume(factored_modes(program))
    check_against_oracle(program)
