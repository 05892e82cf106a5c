"""Circuit DSL tests: one case per parser rule (syntax, statement order and
circuit semantics), each pinning severity, line, column and a message
substring; the one number reader; plus round-trip, parser/validator and
command-line/circuit agreement and any-bytes properties."""

import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import cli
from kerrcat.dsl import (
    MAX_MODES,
    CircuitProgram,
    CircuitValidationError,
    ParseDiagnostic,
    ParseResult,
    format_element,
    format_program,
    format_source,
    parse,
    read_value,
    validate_program,
)
from kerrcat.elements import BalancedBeamSplitter, CrossKerr, Detect, PhaseShift
from kerrcat.errors import CutoffError
from kerrcat.states import CoherentParam, FockParam, SqueezeParam

AB = "mode a cutoff 2\nmode b cutoff 2\n"

# (case id, text, line, column, message substring) of the first error
SYNTAX = [
    ("unknown-keyword", "  beam a b\n", 1, 3, "unknown keyword 'beam'"),
    ("missing-token", "mode a\n", 1, 7, "missing 'cutoff'"),
    ("invalid-label", "mode 1a cutoff 2\n", 1, 6, "invalid mode label '1a'"),
    ("cutoff-keyword", "mode a size 2\n", 1, 8, "expected 'cutoff', got 'size'"),
    ("malformed-cutoff", "mode a cutoff -1\n", 1, 15, "malformed cutoff"),
    ("non-ascii-cutoff", "mode a cutoff \u0663\n", 1, 15, "malformed cutoff"),
    ("trailing-token", "mode a cutoff 2 x\n", 1, 17, "unexpected trailing token 'x'"),
    ("key-value", AB + "source a squeezed s=0.5 phi=0\n", 3, 19, "expected r=<value>"),
    ("malformed-float", AB + "source a coherent re=abc im=0\n", 3, 22, "malformed re value 'abc'"),
    ("non-finite-float", AB + "source a squeezed r=1e999 phi=0\n", 3, 21, "is not finite"),
    ("negative-r", AB + "source a squeezed r=-0.5 phi=0\n", 3, 21, "r value '-0.5' must be >= 0"),
    ("malformed-uint", AB + "detect a n=x\n", 3, 12, "malformed n value 'x'"),
    ("unknown-source-kind", AB + "source a thermal\n", 3, 10, "unknown source kind 'thermal'"),
    ("angle-denominator", AB + "phase a theta=pi/x\n", 3, 15, "expected pi/<uint>"),
    ("angle-pi-over-zero", AB + "phase a theta=pi/0\n", 3, 15, "theta value 'pi/0' is undefined"),
    ("angle-multiple", AB + "phase a theta=x*pi\n", 3, 15, "expected <float>*pi"),
    ("angle-malformed", AB + "phase a theta=abc\n", 3, 15, "malformed theta value 'abc'"),
    ("angle-non-finite", AB + "kerr a b tau=1e308*pi\n", 3, 14, "is not finite"),
    ("bs-distinct-modes", AB + "bs a a\n", 3, 6, "modes must be distinct"),
    ("kerr-distinct-modes", AB + "kerr b b tau=1\n", 3, 8, "modes must be distinct"),
]

ORDER = [
    ("mode-after-element", AB + "phase a theta=0\nmode c cutoff 1\n", 4, 1,
     "mode declarations must precede circuit elements"),
    ("source-after-element", AB + "bs a b\nsource a fock n=1\n", 4, 1,
     "sources must precede circuit elements"),
    ("element-after-detect", AB + "detect a n=0\nbs a b\n", 4, 1,
     "circuit elements must precede detection directives"),
    ("undeclared-mode", AB + "phase z theta=0\n", 3, 7, "mode 'z' is not declared"),
    ("declared-after-use", "mode a cutoff 1\nsource b fock n=0\nmode b cutoff 1\n", 2, 8,
     "mode 'b' is not declared"),
]

# circuit-rule violations point at the statement's first token
SEMANTIC = [
    ("duplicate-mode", "mode a cutoff 1\nmode a cutoff 2\n", 2, 1, "'a' is already declared"),
    ("state-dimension", "mode a cutoff 67108863\nmode b cutoff 1\n", 2, 1,
     "maximum state dimension"),
    ("second-source", AB + "source a fock n=0\nsource a fock n=1\n", 4, 1,
     "'a' already has a source"),
    ("fock-over-cutoff", AB + "source a fock n=3\n", 3, 1, "n=3 exceeds cutoff 2 of mode 'a'"),
    ("bs-cutoffs", "mode a cutoff 2\nmode b cutoff 3\nbs a b\n", 3, 1,
     "beam splitter cutoff mismatch 2 vs 3"),
    ("detected-twice", AB + "detect a n=0\ndetect a n=1\n", 4, 1, "'a' is already detected"),
    ("detect-over-cutoff", AB + "detect b n=3\n", 3, 1, "n=3 exceeds cutoff 2 of mode 'b'"),
    ("indented-statement", AB + "  detect b n=3\n", 3, 3, "exceeds cutoff"),
]


@pytest.mark.parametrize(
    "text, line, column, message",
    [case[1:] for case in SYNTAX + ORDER + SEMANTIC],
    ids=[case[0] for case in SYNTAX + ORDER + SEMANTIC],
)
def test_first_error(text, line, column, message):
    result = parse(text)
    assert not result.ok and result.program is None
    first = result.errors[0]
    assert (first.severity, first.line, first.column) == ("error", line, column)
    assert message in first.message


# (case id, text, line, column, exact message) of the one error of a line that
# stops at a statement kind's label, kind, field or end
STATEMENT_ERRORS = [
    ("mode-missing-label", "mode\n", 1, 5, "missing mode label"),
    ("mode-missing-cutoff-value", "mode a cutoff\n", 1, 14, "missing cutoff value"),
    ("source-missing-label", AB + "source\n", 3, 7, "missing mode label"),
    ("source-missing-kind", AB + "source a\n", 3, 9, "missing source kind"),
    ("squeezed-missing-r", AB + "source a squeezed\n", 3, 18, "missing r=<magnitude>"),
    ("squeezed-expected-r", AB + "source a squeezed phi=0\n", 3, 19,
     "expected r=<value>, got 'phi=0'"),
    ("squeezed-missing-phi", AB + "source a squeezed r=0.5\n", 3, 24, "missing phi=<angle>"),
    ("squeezed-expected-phi", AB + "source a squeezed r=0.5 theta=0\n", 3, 25,
     "expected phi=<value>, got 'theta=0'"),
    ("squeezed-trailing", AB + "source a squeezed r=0.5 phi=0 x\n", 3, 31,
     "unexpected trailing token 'x'"),
    ("coherent-missing-re", AB + "source a coherent\n", 3, 18, "missing re=<float>"),
    ("coherent-expected-re", AB + "source a coherent im=0\n", 3, 19,
     "expected re=<value>, got 'im=0'"),
    ("coherent-missing-im", AB + "source a coherent re=1\n", 3, 23, "missing im=<float>"),
    ("coherent-expected-im", AB + "source a coherent re=1 re=1\n", 3, 24,
     "expected im=<value>, got 're=1'"),
    ("coherent-trailing", AB + "source a coherent re=1 im=0 im=0\n", 3, 29,
     "unexpected trailing token 'im=0'"),
    ("fock-missing-n", AB + "source a fock\n", 3, 14, "missing n=<uint>"),
    ("fock-expected-n", AB + "source a fock m=1\n", 3, 15, "expected n=<value>, got 'm=1'"),
    ("fock-trailing", AB + "source a fock n=1 n=1\n", 3, 19, "unexpected trailing token 'n=1'"),
    ("bs-missing-first-label", AB + "bs\n", 3, 3, "missing first mode label"),
    ("bs-missing-second-label", AB + "bs a\n", 3, 5, "missing second mode label"),
    ("bs-undeclared-second-label", AB + "bs a z\n", 3, 6, "mode 'z' is not declared"),
    ("bs-trailing", AB + "bs a b c\n", 3, 8, "unexpected trailing token 'c'"),
    ("phase-missing-label", AB + "phase\n", 3, 6, "missing mode label"),
    ("phase-missing-theta", AB + "phase a\n", 3, 8, "missing theta=<angle>"),
    ("phase-expected-theta", AB + "phase a tau=0\n", 3, 9, "expected theta=<value>, got 'tau=0'"),
    ("phase-trailing", AB + "phase a theta=0 pi\n", 3, 17, "unexpected trailing token 'pi'"),
    ("kerr-missing-first-label", AB + "kerr\n", 3, 5, "missing first mode label"),
    ("kerr-missing-second-label", AB + "kerr a\n", 3, 7, "missing second mode label"),
    ("kerr-undeclared-second-label", AB + "kerr a z tau=1\n", 3, 8, "mode 'z' is not declared"),
    ("kerr-missing-tau", AB + "kerr a b\n", 3, 9, "missing tau=<angle>"),
    ("kerr-expected-tau", AB + "kerr a b theta=1\n", 3, 10, "expected tau=<value>, got 'theta=1'"),
    ("kerr-trailing", AB + "kerr a b tau=1 tau=1\n", 3, 16, "unexpected trailing token 'tau=1'"),
    ("detect-missing-label", AB + "detect\n", 3, 7, "missing mode label"),
    ("detect-missing-n", AB + "detect a\n", 3, 9, "missing n=<uint>"),
    ("detect-expected-n", AB + "detect a N=0\n", 3, 10, "expected n=<value>, got 'N=0'"),
    ("detect-trailing", AB + "detect a n=0 b\n", 3, 14, "unexpected trailing token 'b'"),
]


@pytest.mark.parametrize(
    "text, line, column, message",
    [case[1:] for case in STATEMENT_ERRORS],
    ids=[case[0] for case in STATEMENT_ERRORS],
)
def test_statement_error(text, line, column, message):
    assert parse(text).errors == (ParseDiagnostic("error", line, column, message),)


HUGE = "9" * 5000  # past CPython's int-string conversion limit


@pytest.mark.parametrize(
    "text, line, column",
    [
        (f"mode a cutoff {HUGE}\n", 1, 15),
        (AB + f"detect a n={HUGE}\n", 3, 12),
        (AB + f"source a fock n={HUGE}\n", 3, 17),
        (AB + f"phase a theta=pi/{HUGE}\n", 3, 15),
        (AB + f"phase a theta=pi/{HUGE[:400]}\n", 3, 15),  # past the float range
    ],
    ids=["cutoff", "detect", "fock", "angle", "angle-float-range"],
)
def test_huge_integer_literal(text, line, column):
    (first,) = parse(text).errors
    assert (first.line, first.column) == (line, column)
    assert "too many digits" in first.message


# (kind, text, the value or a substring of the error) of the one number reader
READS = [
    ("uint", "007", 7),
    ("uint", "\u0663", "malformed x '\u0663': expected an unsigned integer"),
    ("uint", HUGE, "x has too many digits (5000)"),
    ("float", "-1e308", -1e308),
    ("float", "0_3", "malformed x '0_3': expected a float"),
    ("float", "1e999", "x '1e999' is not finite"),
    ("float", "nan", "malformed x 'nan': expected a float"),
    ("magnitude", "-0.0", -0.0),
    ("magnitude", "-1", "x '-1' must be >= 0"),
    ("magnitude", "-1e999", "x '-1e999' is not finite"),
    ("angle", "pi", math.pi),
    ("angle", "pi/4", math.pi / 4),
    ("angle", "-0.25*pi", -0.25 * math.pi),
    ("angle", "pi/0", "x 'pi/0' is undefined"),
    ("angle", "pi/" + HUGE, "x has too many digits (5000)"),
    ("angle", "pi/" + HUGE[:400], "x has too many digits (400)"),  # past the float range
    ("angle", "pi/-1", "malformed x 'pi/-1': expected pi/<uint>"),
    ("angle", "1e308*pi", "x '1e308*pi' is not finite"),
    ("angle", "2*pi*pi", "malformed x '2*pi*pi': expected <float>*pi"),
    ("angle", "tau", "malformed x 'tau': expected <float>, pi, pi/<uint> or <float>*pi"),
]


@pytest.mark.parametrize("kind, text, expected", READS)
def test_read_value(kind, text, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match="^" + re.escape(expected)):
            read_value(kind, text, "x")
    else:  # repr tells -0.0 from 0.0 and an int from a float
        assert repr(read_value(kind, text, "x")) == repr(expected)


NUMBER_TEXTS = st.lists(
    st.sampled_from(list("0123456789.eE+-_/*\u0663\u00b2") + ["pi", "pi/", "inf", "nan"]),
    max_size=8,
).map("".join) | st.floats().map(repr) | st.sampled_from(["pi/0", "pi/" + HUGE, "1e308*pi"])


@settings(max_examples=300, deadline=None)
@given(text=NUMBER_TEXTS)
@example(text="--")  # argparse drops a "--" value before the option's type sees it
def test_command_line_and_circuit_read_the_same_angles(text):
    try:
        option = repr(cli._build_parser().parse_args(["run", f"--tau={text}"]).tau)
    except cli._UsageError:
        option = None
    parsed = parse(AB + f"phase a theta={text}\n")
    statement = repr(parsed.program.elements[0].theta) if parsed.ok else None
    assert option == statement


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_bytes(newline):
    result = parse(b"mode a cutoff 1\n# \n\xff\n".replace(b"\n", newline))
    assert not result.ok
    (first,) = result.errors
    assert (first.line, first.column) == (3, 1)
    assert "not valid UTF-8" in first.message


def test_one_leading_byte_order_mark_is_dropped():
    # an editor's "UTF-8 with BOM" puts U+FEFF before the first keyword;
    # diagnostics keep the lines and columns of the text without it
    bom = b"\xef\xbb\xbf"
    for text in (b"mode a cutoff 1\nsource a fock n=1\n", b"mode a cutoff 1 x\n", b"mode a\n# \n\xff\n"):
        assert parse(bom + text) == parse(text)
    (error,) = parse(bom + b"mode a cutoff 1\n# \n\xff\n").errors
    assert (error.line, error.column, error.message) == (3, 1, "input is not valid UTF-8")
    (error,) = parse(bom + bom + b"mode a cutoff 1\n").errors
    assert (error.line, error.column, error.message) == (1, 1, "unknown keyword '\\ufeffmode'")


def test_unused_mode_warning():
    result = parse(AB + "mode c cutoff 1\nsource b fock n=1\nphase a theta=0\n")
    assert result.ok
    (warning,) = result.diagnostics
    assert (warning.severity, warning.line, warning.column) == ("warning", 3, 1)
    assert "mode 'c' is declared but never used" in warning.message


def test_every_line_reports_its_own_error():
    text = "mode a cutoff 1\nmode a cutoff 1\nbogus\nphase z theta=0\ndetect a n=9\n"
    assert [d.line for d in parse(text).errors] == [2, 3, 4, 5]


def many_modes(count: int) -> str:
    return "".join(f"mode m{i} cutoff 0\n" for i in range(count))


def test_modes_past_the_maximum_are_diagnostics():
    # a batch's stack has an axis per mode besides its member axis
    assert parse(many_modes(MAX_MODES)).ok
    result = parse(many_modes(40) + "detect m0 n=0\n")
    assert [(d.line, d.column, d.message) for d in result.errors] == [
        (line, 1, f"mode 'm{line - 1}' is past the maximum of {MAX_MODES} modes")
        for line in range(MAX_MODES + 1, 41)
    ]
    with pytest.raises(CircuitValidationError) as raised:
        validate_program(CircuitProgram(tuple((f"m{i}", 0) for i in range(40))))
    message = f"mode 'm{MAX_MODES}' is past the maximum of {MAX_MODES} modes"
    assert str(raised.value) == f"mode {MAX_MODES}: {message}"


@pytest.mark.parametrize("program, message", [
    (CircuitProgram((("a", -1),)), "mode 0: mode 'a' has negative cutoff -1"),
    (CircuitProgram((("a", 1),), detects=("a",)), "detect 0: not a detection directive"),
], ids=["negative-cutoff", "detect-not-a-detection"])
def test_program_built_in_code_names_its_violation(program, message):
    with pytest.raises(CircuitValidationError) as raised:
        validate_program(program)
    assert str(raised.value) == message


def test_squeezed_phase_prints_wrapped_into_one_turn():
    # a source holds its phase in [0, 2 pi), so the canonical text (and the
    # trace stage that names the source) shows the wrapped angle
    text = AB + "source a squeezed r=0.5 phi=-0.25*pi\nbs a b\n"
    assert "source a squeezed r=0.5 phi=1.75*pi\n" in format_program(parse(text).program)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_comments_crlf_cr_and_blank_lines(newline):
    text = "# header\n\nmode a cutoff 1   # one mode\nphase a theta=pi/4\n".replace("\n", newline)
    for given in (text, text.encode("utf-8")):
        result = parse(given)
        assert result.ok and result.diagnostics == ()
        assert result.program == CircuitProgram(
            modes=(("a", 1),), elements=(PhaseShift("a", math.pi / 4),)
        )


# --- properties ----------------------------------------------------------------

LABELS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANGLES = st.one_of(
    FINITE,
    st.integers(-256, 256).map(lambda k: k / 4 * math.pi),
    st.integers(1, 64).map(lambda k: math.pi / k),
)


@st.composite
def valid_programs(draw, max_modes=4, max_cutoff=6, r=FINITE.map(abs),
                   alpha=st.builds(complex, FINITE, FINITE)):
    """A program that passes the circuit rules; ``r`` and ``alpha`` draw the
    squeezed and coherent source parameters."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=max_modes, unique=True))
    modes = tuple((label, draw(st.integers(0, max_cutoff))) for label in labels)
    cutoff = dict(modes)

    sources = []
    for label in draw(st.lists(st.sampled_from(labels), unique=True)):
        kind = draw(st.sampled_from(("squeezed", "coherent", "fock")))
        if kind == "squeezed":
            param = SqueezeParam(draw(r), draw(ANGLES))
        elif kind == "coherent":
            param = CoherentParam(draw(alpha))
        else:
            param = FockParam(draw(st.integers(0, cutoff[label])))
        sources.append((label, param))

    elements = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("bs", "phase", "kerr")))
        if kind == "phase" or len(labels) < 2:
            elements.append(PhaseShift(draw(st.sampled_from(labels)), draw(ANGLES)))
            continue
        m1, m2 = draw(st.permutations(labels))[:2]
        if kind == "kerr":
            elements.append(CrossKerr(m1, m2, draw(ANGLES)))
        elif cutoff[m1] == cutoff[m2]:
            elements.append(BalancedBeamSplitter(m1, m2))

    detects = tuple(
        Detect(label, draw(st.integers(0, cutoff[label])))
        for label in draw(st.lists(st.sampled_from(labels), unique=True))
    )
    return CircuitProgram(modes, tuple(sources), tuple(elements), detects)


# texts outside what valid_programs() draws: no modes at all, comments, the
# two-arm entanglement circuit, k*pi angles, and so on
CORPUS = (
    "",
    "mode a cutoff 0\n",
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


def corpus_examples(test):
    """The round trip of every ``CORPUS`` text, as explicit examples; a text
    that fails to parse gives the example ``None``, which fails the test."""
    for text in CORPUS:
        test = example(program=parse(text).program)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(program=valid_programs())
@corpus_examples
# a tiny negative phase wraps to exactly 2 pi unless wrapped a second time
@example(program=CircuitProgram((("a", 2),), (("a", SqueezeParam(0.5, -1e-17)),)))
def test_format_parse_round_trip(program):
    validate_program(program)
    result = parse(format_program(program))
    assert result.errors == ()
    assert result.program == program


# every CORPUS text but the 0.25*pi angles (printed as pi/4) and the comments
@pytest.mark.parametrize("text", [CORPUS[i] for i in (0, 1, 2, 3, 4, 6)])
def test_canonical_text_formats_back(text):
    assert format_program(parse(text).program) == text


def test_formatter_refuses_other_objects():
    with pytest.raises(TypeError, match="not a circuit element"):
        format_element(object())
    with pytest.raises(TypeError, match="not a source parameter"):
        format_source("a", object())


POOL = ("a", "b", "c")


@st.composite
def statement_programs(draw):
    """Programs whose every statement is well formed on its own, but which
    may break any circuit rule: repeated modes, sources or detections,
    undeclared labels, counts over the cutoff, unequal beam-splitter
    cutoffs."""
    modes = tuple(
        (draw(st.sampled_from(POOL)), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 4)))
    )
    sources = []
    for _ in range(draw(st.integers(0, 3))):
        label = draw(st.sampled_from(POOL))
        if draw(st.booleans()):
            sources.append((label, FockParam(draw(st.integers(0, 4)))))
        else:
            sources.append((label, SqueezeParam(draw(st.sampled_from((0.0, 0.5))))))
    elements = []
    for _ in range(draw(st.integers(0, 3))):
        m1, m2 = draw(st.permutations(POOL))[:2]
        elements.append(
            BalancedBeamSplitter(m1, m2) if draw(st.booleans()) else PhaseShift(m1, 0.5)
        )
    detects = tuple(
        Detect(draw(st.sampled_from(POOL)), draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return CircuitProgram(modes, tuple(sources), tuple(elements), detects)


@settings(max_examples=300, deadline=None)
@given(program=statement_programs())
def test_parser_and_validator_agree(program):
    try:
        validate_program(program)
        valid = True
    except (CircuitValidationError, CutoffError):
        valid = False
    result = parse(format_program(program))
    assert result.ok == valid
    if valid:
        assert result.program == program


FUZZ_TOKENS = (
    b"mode source bs phase kerr detect cutoff squeezed coherent fock pi "
    b"r= phi= re= im= n= tau= theta= a b c 0 1 2.5 -1 # \n \t \r\n \xff\xfe "
    b"r=-1 phi=-1e-17 re=1e999 im=nan n=-1 tau=pi/0 theta=-0.0 cutoff=2"
).split(b" ")
# Every statement kind after two declared modes, each value field hostile:
# glued tokens alone almost never declare the mode a value line needs.
HOSTILE_STATEMENTS = AB + (
    "mode c cutoff {}\nsource a squeezed r={} phi={}\nsource a coherent re={} im={}\n"
    "source a fock n={}\nbs a b\nphase a theta={}\nkerr a b tau={}\ndetect a n={}\n"
)
HOSTILE_PROGRAMS = st.lists(
    st.sampled_from(["-1", "-0.0", "1e999", "nan", "-1e-17", "pi/0", "pi/" + HUGE, HUGE]),
    min_size=HOSTILE_STATEMENTS.count("{}"), max_size=HOSTILE_STATEMENTS.count("{}"),
).map(lambda values: HOSTILE_STATEMENTS.format(*values).encode())


@settings(max_examples=300, deadline=None)
@given(
    blob=st.binary()
    | st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map(b" ".join)
    | HOSTILE_PROGRAMS
)
@example(blob=random.Random(0).randbytes(65536))
def test_parse_returns_a_result_for_any_bytes(blob):
    # diagnostics for any input, never an exception
    assert isinstance(parse(blob), ParseResult)
