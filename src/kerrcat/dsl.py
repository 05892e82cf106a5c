"""Line-oriented circuit description language.

One statement per line, ``#`` starts a comment, keywords are
case-sensitive::

    mode <label> cutoff <uint>
    source <label> squeezed r=<magnitude> phi=<angle>
    source <label> coherent re=<float> im=<float>
    source <label> fock n=<uint>
    bs <label> <label>
    phase <label> theta=<angle>
    kerr <label> <label> tau=<angle>
    detect <label> n=<uint>

    <angle> := <float> | pi | pi/<uint> | <float>*pi

Each rule lives in one place:

* The grammar: besides the ``mode`` line, each statement kind is one row of
  ``_ELEMENTS`` (an element keyword's class, mode count and ``key=<kind>``
  fields) or ``_SOURCES`` (a source kind's parameter class and fields).
  :func:`parse` walks a line through its row, every number through the one
  reader :func:`read_value` (a ``<magnitude>`` is a float >= 0), and
  :func:`format_element` and :func:`format_source` print from the same row.
* The text-only rules, in :func:`parse`: tokens and their positions, the
  numbers' ASCII syntax and finite values, statement order (declarations
  and sources, then elements, then detections) and a mode declared on an
  earlier line than any statement that names it. A line that breaks one is
  an error diagnostic at the offending token, and is dropped.
* The circuit rules, in :func:`validate_program`, shared by parsed files
  and programs built in code (``kerrcat.protocols``): no mode declared
  twice, at most ``MAX_MODES`` modes, at most ``MAX_STATE_DIMENSION``
  amplitudes in the running product of the declared mode dimensions (a mode
  of :func:`factored_modes` adds ``MAX_TERMS ** 2`` vectors to it), fock
  and detected photon numbers within the mode's cutoff, one source and one
  detection per mode, equal cutoffs on both beam-splitter ports, and every
  named mode declared. It raises :class:`kerrcat.errors.CutoffError` for
  the state dimension and :class:`CircuitValidationError` for every other
  rule; ``parse`` reports the same violations, and warns about declared
  modes that nothing names, as diagnostics at the statement's line and column.

Angles are evaluated to radians at parse time; the formatter prints them
back in the shortest symbolic form (``pi/2`` rather than a decimal). A
source is held as its ``kerrcat.states`` parameter, which wraps a squeezed
phase into [0, 2 pi): ``phi=-0.25*pi`` prints back as ``phi=1.75*pi``.
``parse(format_program(p))`` is structurally equal to ``p``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields

from .elements import BalancedBeamSplitter, CrossKerr, Detect, Element, PhaseShift, element_modes
from .errors import CutoffError
from .states import MAX_STATE_DIMENSION, CoherentParam, FockParam, SqueezeParam

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# ASCII digits only: Python's \d also matches every other script's digits
_UINT_RE = re.compile(r"\d+\Z", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)
_TOKEN_RE = re.compile(r"\S+")
_ANGLE = "<float>, pi, pi/<uint> or <float>*pi"
# A batch's stack has a member axis and one per mode, and numpy 1.x allows 32
# axes. Past 26 modes, MAX_STATE_DIMENSION leaves only vacuum modes anyway.
MAX_MODES = 31
# Most terms the Kerr media of a factored program may make (factored_modes): the
# entanglement scheme's 4. A factored mode counts MAX_TERMS**2 vectors toward
# MAX_STATE_DIMENSION; the scheme's r = 4 report peaked at 24 vectors a mode.
MAX_TERMS = 4

# The statement sections, in the order of CircuitProgram's fields: each one's
# rank in the text, which never falls, and the error of a line that lowers it.
_SECTIONS = {
    "mode": (0, "mode declarations must precede circuit elements"),
    "source": (0, "sources must precede circuit elements"),
    "element": (1, "circuit elements must precede detection directives"),
    "detect": (2, ""),
}

# The statement grammar, which parse reads and the formatter prints: each
# element class's keyword, mode count and key=<kind> fields, and each source
# parameter class's kind and fields. A statement's labels and values are its
# item's dataclass fields in order, except a coherent amplitude's two parts.
_ELEMENTS = {
    BalancedBeamSplitter: ("bs", 2, ()),
    PhaseShift: ("phase", 1, (("theta", "angle"),)),
    CrossKerr: ("kerr", 2, (("tau", "angle"),)),
    Detect: ("detect", 1, (("n", "uint"),)),
}
_SOURCES = {
    SqueezeParam: ("squeezed", 0, (("r", "magnitude"), ("phi", "angle"))),
    CoherentParam: ("coherent", 0, (("re", "float"), ("im", "float"))),
    FockParam: ("fock", 0, (("n", "uint"),)),
}
# each table's classes by keyword, for the parser, and their field names, for the formatter
_ELEMENT_OF = {keyword: cls for cls, (keyword, _, _) in _ELEMENTS.items()}
_SOURCE_OF = {kind: cls for cls, (kind, _, _) in _SOURCES.items()}
_FIELD_NAMES = {cls: [f.name for f in dataclass_fields(cls)] for cls in (*_ELEMENTS, *_SOURCES)}


@dataclass(frozen=True)
class CircuitProgram:
    """Parsed circuit: declarations, sources, unitary elements, detections."""

    modes: tuple[tuple[str, int], ...] = ()
    sources: tuple[tuple[str, SqueezeParam | CoherentParam | FockParam], ...] = ()
    elements: tuple[Element, ...] = ()
    detects: tuple[Detect, ...] = ()


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int      # 1-based
    column: int    # 1-based
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    program: CircuitProgram | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.program is not None

    @property
    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


class CircuitValidationError(ValueError):
    """A programmatically built program violates the circuit invariants."""


class _LineError(Exception):
    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column


def read_value(kind: str, text: str, name: str) -> int | float:
    """``text`` as one number of the circuit language, whose grammar the
    command line shares: ``kind`` is ``"uint"`` (ASCII digits), ``"float"``,
    ``"magnitude"`` (a float >= 0) or ``"angle"`` (in radians). Floats and
    angles must be finite. Raises ``ValueError``, its message naming the
    value ``name``."""
    if kind == "uint" or (kind == "angle" and text.startswith("pi/")):
        digits = text if kind == "uint" else text[3:]
        if not _UINT_RE.match(digits):
            expected = "an unsigned integer" if kind == "uint" else "pi/<uint>"
            raise ValueError(f"malformed {name} {text!r}: expected {expected}")
        try:
            value = int(digits) if kind == "uint" else math.pi / int(digits)
        except ZeroDivisionError:
            raise ValueError(f"{name} {text!r} is undefined") from None
        except (ValueError, OverflowError):  # past CPython's int-string limit or float range
            raise ValueError(f"{name} has too many digits ({len(digits)})") from None
    elif kind == "angle" and text == "pi":
        value = math.pi
    else:
        multiple = kind == "angle" and text.endswith("*pi")
        factor = text[:-3] if multiple else text
        if not _FLOAT_RE.match(factor):
            expected = ("<float>*pi" if multiple else _ANGLE) if kind == "angle" else "a float"
            raise ValueError(f"malformed {name} {text!r}: expected {expected}")
        value = float(factor) * math.pi if multiple else float(factor)
    if kind != "uint" and not math.isfinite(value):
        raise ValueError(f"{name} {text!r} is not finite")
    if kind == "magnitude" and value < 0:
        raise ValueError(f"{name} {text!r} must be >= 0")
    return value


def _read(kind: str, token: tuple[str, int], key: str):
    """The value of a ``(text, column)`` token, read by :func:`read_value`."""
    text, col = token
    try:
        return read_value(kind, text, f"{key} value")
    except ValueError as err:
        raise _LineError(col, str(err)) from None


def _angle_text(value: float) -> str:
    """Shortest symbolic spelling that parses back to exactly ``value``."""
    v = float(value)
    if v == 0.0:
        return "0"
    if v == math.pi:
        return "pi"
    for k in range(2, 65):
        if math.pi / k == v:
            return f"pi/{k}"
    m = v / math.pi
    if m * math.pi == v and abs(m) <= 64 and m == round(4 * m) / 4:
        return f"{m!r}*pi"
    return repr(v)


def _float_text(value: float) -> str:
    return repr(float(value))


# the canonical text of a value of each read_value kind
_VALUE_TEXT = {"uint": str, "float": _float_text, "magnitude": _float_text, "angle": _angle_text}


class _Parser:
    """Statement syntax, section order and declared-before-use: ``read``
    takes one line's tokens and returns ``(section, item)`` or raises
    :class:`_LineError`. The circuit rules are left to :func:`_violations`."""

    def __init__(self):
        self.declared: set[str] = set()
        # labels named by any line, rejected ones too: only the parser sees
        # those, and a mode named on a broken line is not "never used"
        self.named: set[str] = set()
        self.rank = 0  # of the last section entered, which no line may lower
        self.tokens: list[tuple[str, int]] = []  # the line being read
        self.at = 0  # the index of its next token

    def read(self, tokens):
        self.tokens, self.at = tokens, 1
        keyword, col = tokens[0]
        cls = _ELEMENT_OF.get(keyword)
        if cls is None and keyword not in ("mode", "source"):
            raise _LineError(col, f"unknown keyword {keyword!r}")
        section = keyword if cls is None else "detect" if cls is Detect else "element"
        rank, message = _SECTIONS[section]
        if rank < self.rank:
            raise _LineError(col, message)
        self.rank = rank
        if keyword == "mode":
            label, _ = self._label("mode label")
            word, col = self._next("'cutoff'")
            if word != "cutoff":
                raise _LineError(col, f"expected 'cutoff', got {word!r}")
            cutoff = _read("uint", self._next("cutoff value"), "cutoff")
            self._values(())
            self.declared.add(label)
            return section, (label, cutoff)
        if cls is not None:
            _, modes, fields = _ELEMENTS[cls]
            return section, cls(*self._labels(modes), *self._values(fields))
        (label,) = self._labels(1)
        kind, col = self._next("source kind")
        if kind not in _SOURCE_OF:
            raise _LineError(col, f"unknown source kind {kind!r}")
        cls = _SOURCE_OF[kind]
        values = self._values(_SOURCES[cls][2])
        return section, (label, cls(complex(*values)) if cls is CoherentParam else cls(*values))

    def _next(self, what: str) -> tuple[str, int]:
        """The next token; past the last one, a missing ``what`` error."""
        if self.at == len(self.tokens):
            text, col = self.tokens[-1]
            raise _LineError(col + len(text), f"missing {what}")
        self.at += 1
        return self.tokens[self.at - 1]

    def _label(self, what: str) -> tuple[str, int]:
        text, col = self._next(what)
        if not _LABEL_RE.match(text):
            raise _LineError(col, f"invalid mode label {text!r}")
        return text, col

    def _labels(self, count: int) -> list[str]:
        """``count`` distinct declared mode labels, each one named."""
        labels = []
        for what in ("mode label",) if count == 1 else ("first mode label", "second mode label"):
            label, col = self._label(what)
            if label not in self.declared:
                raise _LineError(col, f"mode {label!r} is not declared")
            self.named.add(label)
            if label in labels:
                raise _LineError(col, "modes must be distinct")
            labels.append(label)
        return labels

    def _values(self, fields) -> list:
        """The values of the ``key=<kind>`` tokens of ``fields``, which end the line."""
        values = []
        for key, kind in fields:
            text, col = self._next(f"{key}=<{kind}>")
            if not text.startswith(key + "="):
                raise _LineError(col, f"expected {key}=<value>, got {text!r}")
            values.append(_read(kind, (text[len(key) + 1:], col + len(key) + 1), key))
        if self.at < len(self.tokens):
            text, col = self.tokens[self.at]
            raise _LineError(col, f"unexpected trailing token {text!r}")
        return values


def parse(text: str | bytes) -> ParseResult:
    """Parse circuit source into a program, collecting all diagnostics.

    Syntax and order errors point at the offending token; circuit-rule
    violations (see :func:`validate_program`) and the unused-mode warnings
    point at the statement's first token. Errors come in line order, then
    the warnings. On any error diagnostic, no program is returned. Accepts
    str or UTF-8 bytes, whose one leading byte-order mark is dropped; LF,
    CRLF and CR line endings are all fine.
    """
    if isinstance(text, (bytes, bytearray)):
        data = bytes(text).removeprefix(b"\xef\xbb\xbf")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(re.split(rb"\r\n|\r|\n", data[: exc.start]))
            diag = ParseDiagnostic("error", line, 1, "input is not valid UTF-8")
            return ParseResult(None, (diag,))

    p = _Parser()
    errors: list[ParseDiagnostic] = []
    items: dict[str, list] = {section: [] for section in _SECTIONS}
    # (line, column) of each statement, by section and index
    where: dict[str, list] = {section: [] for section in _SECTIONS}
    for line_no, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        hash_pos = line.find("#")
        body = line if hash_pos < 0 else line[:hash_pos]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not tokens:
            continue
        try:
            section, item = p.read(tokens)
        except _LineError as err:
            errors.append(ParseDiagnostic("error", line_no, err.column, str(err)))
            continue
        items[section].append(item)
        where[section].append((line_no, tokens[0][1]))

    def at(severity, section, index, message):
        return ParseDiagnostic(severity, *where[section][index], message)

    program = CircuitProgram(*(tuple(items[section]) for section in _SECTIONS))
    violations, declared_at = _violations(program)
    errors += [at("error", *statement, str(err)) for statement, err in violations]
    errors.sort(key=lambda d: d.line)
    warnings = [
        at("warning", "mode", index, f"mode {label!r} is declared but never used")
        for label, index in declared_at.items()
        if label not in p.named
    ]
    return ParseResult(None if errors else program, tuple(errors + warnings))


def format_mode(label: str, cutoff: int) -> str:
    return f"mode {label} cutoff {cutoff}"


def _text(table: dict, item, *head: str) -> str:
    """The line of ``item``, a key of ``table``: ``head``, its row's keyword, labels, fields."""
    keyword, modes, fields = table[type(item)]
    parts = ([item.alpha.real, item.alpha.imag] if type(item) is CoherentParam
             else [getattr(item, name) for name in _FIELD_NAMES[type(item)]])
    values = [f"{key}={_VALUE_TEXT[kind](v)}" for (key, kind), v in zip(fields, parts[modes:])]
    return " ".join((*head, keyword, *parts[:modes], *values))


def format_element(element: Element) -> str:
    if type(element) not in _ELEMENTS:
        raise TypeError(f"not a circuit element: {element!r}")
    return _text(_ELEMENTS, element)


def format_source(label: str, param) -> str:
    if type(param) not in _SOURCES:
        raise TypeError(f"not a source parameter: {param!r}")
    return _text(_SOURCES, param, "source", label)


def format_program(program: CircuitProgram) -> str:
    """Canonical text; ``parse`` of the result is structurally equal."""
    lines = [format_mode(label, cutoff) for label, cutoff in program.modes]
    lines += [format_source(label, param) for label, param in program.sources]
    lines += [format_element(e) for e in program.elements]
    lines += [format_element(d) for d in program.detects]
    return "\n".join(lines) + ("\n" if lines else "")


def validate_program(program: CircuitProgram) -> None:
    """Check a program, parsed or built in code, against the circuit rules
    of the module docstring; ``parse`` reports the same violations.

    Raises :class:`kerrcat.errors.CutoffError` when the declared modes
    exceed ``MAX_STATE_DIMENSION`` amplitudes and
    :class:`CircuitValidationError` for any other rule, on the first
    violation in statement order, named like ``element 1: ...``.
    """
    _check(program)


def _check(program: CircuitProgram, dense: bool = False) -> None:
    """:func:`validate_program`, with every mode in the product if ``dense``."""
    violations, _ = _violations(program, dense)
    if violations:
        (section, index), err = violations[0]
        raise type(err)(f"{section} {index}: {err}")


def factored_modes(program: CircuitProgram) -> tuple[str, ...]:
    """The modes a run holds as rotated source vectors: those that only phase
    shifts and Kerr media against core modes (those that a splitter or a
    detection touches) touch. None factor unless there are core modes, every
    Kerr medium touches one, all are detected, exactly two modes factor (one
    mode's dense product is no larger), and their Kerr media make at most
    ``MAX_TERMS`` terms (the product of the core counts they read)."""
    core = {m for e in (*program.elements, *program.detects)
            if isinstance(e, (BalancedBeamSplitter, Detect)) for m in element_modes(e)}
    factored = [m for m, _ in program.modes if m not in core]
    detected = {d.mode for d in program.detects if isinstance(d, Detect)}
    if len(factored) != 2 or not core or core - detected:
        return ()
    kerrs = [{e.mode_1, e.mode_2} for e in program.elements if isinstance(e, CrossKerr)]
    cutoffs = dict(program.modes)
    terms = math.prod(cutoffs.get(m, 0) + 1 for pair in kerrs if pair - core for m in pair & core)
    return tuple(factored) if all(core & pair for pair in kerrs) and terms <= MAX_TERMS else ()


def _violations(program: CircuitProgram, dense: bool = False):
    """Every circuit-rule violation of ``program``, at most one per
    statement and in statement order, as ``((section, index), error)``;
    and, per declared label, the index of the mode declaration that counts.
    Unless ``dense``, a mode of :func:`factored_modes` adds ``MAX_TERMS ** 2``
    vectors to the state's size, not a factor to its product.

    A rejected statement counts as absent for the rules of later ones.
    """
    violations, factored = [], () if dense else factored_modes(program)

    def reject(section, index, message, kind=CircuitValidationError):
        violations.append(((section, index), kind(message)))

    cutoffs: dict[str, int] = {}
    declared_at: dict[str, int] = {}  # the mode statement that counts
    dimension, vectors = 1, 0  # the dense modes' product; the factored modes' vectors
    for index, (label, cutoff) in enumerate(program.modes):
        held = ((dimension, vectors + MAX_TERMS**2 * (cutoff + 1)) if label in factored
                else (dimension * (cutoff + 1), vectors))
        size = sum(held)
        if label in cutoffs:
            reject("mode", index, f"mode {label!r} is already declared")
        elif cutoff < 0:
            reject("mode", index, f"mode {label!r} has negative cutoff {cutoff}")
        elif len(cutoffs) == MAX_MODES:
            reject("mode", index, f"mode {label!r} is past the maximum of {MAX_MODES} modes")
        elif size > MAX_STATE_DIMENSION:
            reject("mode", index, f"mode {label!r} (cutoff {cutoff}) brings the state to {size} "
                   f"amplitudes, above the maximum state dimension {MAX_STATE_DIMENSION}",
                   CutoffError)
        else:
            dimension, vectors = held
            cutoffs[label] = cutoff
            declared_at[label] = index

    sourced = set()
    for index, (label, param) in enumerate(program.sources):
        if label not in cutoffs:
            reject("source", index, f"mode {label!r} is not declared")
        elif label in sourced:
            reject("source", index, f"mode {label!r} already has a source")
        elif isinstance(param, FockParam) and param.n > cutoffs[label]:
            reject("source", index,
                   f"fock source n={param.n} exceeds cutoff {cutoffs[label]} of mode {label!r}")
        else:
            sourced.add(label)

    for index, element in enumerate(program.elements):
        if isinstance(element, Detect):
            reject("element", index, "detection must come after all circuit elements")
            continue
        for mode in element_modes(element):
            if mode not in cutoffs:
                reject("element", index, f"mode {mode!r} is not declared")
                break
        else:
            if isinstance(element, BalancedBeamSplitter):
                c1, c2 = cutoffs[element.mode_1], cutoffs[element.mode_2]
                if c1 != c2:
                    reject("element", index, f"beam splitter cutoff mismatch {c1} vs {c2}")

    detected = set()
    for index, det in enumerate(program.detects):
        if not isinstance(det, Detect):
            reject("detect", index, "not a detection directive")
            continue
        if det.mode not in cutoffs:
            reject("detect", index, f"mode {det.mode!r} is not declared")
        elif det.mode in detected:
            reject("detect", index, f"mode {det.mode!r} is already detected")
        elif det.n > cutoffs[det.mode]:
            reject("detect", index,
                   f"detected n={det.n} exceeds cutoff {cutoffs[det.mode]} of mode {det.mode!r}")
        else:
            detected.add(det.mode)

    return violations, declared_at

