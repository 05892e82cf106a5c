"""Line-oriented circuit description language.

One statement per line, ``#`` starts a comment, keywords are
case-sensitive::

    mode <label> cutoff <uint>
    source <label> squeezed r=<float> phi=<angle>
    source <label> coherent re=<float> im=<float>
    source <label> fock n=<uint>
    bs <label> <label>
    phase <label> theta=<angle>
    kerr <label> <label> tau=<angle>
    detect <label> n=<uint>

    <angle> := <float> | pi | pi/<uint> | <float>*pi

The rules are checked in two places:

* :func:`parse` handles what only the text shows: tokens and their
  positions, every number through the one reader :func:`read_value` (its
  ASCII syntax, a finite value, ``r >= 0``), statement order (mode
  declarations and sources before circuit elements, detection directives
  last) and that a mode is declared on an earlier line than any statement
  that names it. A line that breaks one of these rules is an error
  diagnostic at the offending token, and the line is dropped.
* :func:`validate_program` owns the circuit rules, shared by parsed files
  and programs built in code (``kerrcat.protocols``): no mode declared
  twice, at most ``MAX_STATE_DIMENSION`` amplitudes in the running product
  of the declared mode dimensions, fock and detected photon numbers within
  the mode's cutoff, one source and one detection per mode, equal cutoffs
  on both beam-splitter ports, and every named mode declared.
  It raises :class:`kerrcat.errors.CutoffError` for the state dimension and
  :class:`CircuitValidationError` for every other rule; ``parse`` reports
  the same violations, and warns about declared modes that nothing names,
  as diagnostics at the statement's line and column.

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

from .elements import BalancedBeamSplitter, CrossKerr, Detect, Element, PhaseShift, element_modes
from .errors import CutoffError
from .states import MAX_STATE_DIMENSION, CoherentParam, FockParam, SqueezeParam

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# ASCII digits only: Python's \d also matches every other script's digits
_UINT_RE = re.compile(r"\d+\Z", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)
_TOKEN_RE = re.compile(r"\S+")
_ANGLE = "<float>, pi, pi/<uint> or <float>*pi"

# The statement kinds, in the order of CircuitProgram's fields.
_SECTIONS = ("mode", "source", "element", "detect")
# The order of the text: declarations and sources, elements, detections.
_ORDER = ("decl", "elements", "detects")
_ELEMENTS_FIRST = "circuit elements must precede detection directives"


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


class _Parser:
    """Statement syntax, section order and declared-before-use.

    ``read`` takes one line's tokens and returns ``(section, item)`` or
    raises :class:`_LineError`; the circuit rules are left to
    :func:`_violations`.
    """

    def __init__(self):
        self.declared: set[str] = set()
        # labels named by any line, rejected ones too: only the parser sees
        # those, and a mode named on a broken line is not "never used"
        self.named: set[str] = set()
        self.section = "decl"
        self.tokens: list[tuple[str, int]] = []  # the line being read

    def read(self, tokens):
        self.tokens = tokens
        keyword, col = tokens[0]
        if keyword not in _HANDLERS:
            raise _LineError(col, f"unknown keyword {keyword!r}")
        return _HANDLERS[keyword](self)

    # --- token helpers -----------------------------------------------------

    def _take(self, idx, what):
        if idx >= len(self.tokens):
            text, col = self.tokens[-1]
            raise _LineError(col + len(text), f"missing {what}")
        return self.tokens[idx]

    def _label(self, idx, what="mode label") -> str:
        text, col = self._take(idx, what)
        if not _LABEL_RE.match(text):
            raise _LineError(col, f"invalid mode label {text!r}")
        return text

    def _declared(self, idx, what="mode label") -> str:
        label = self._label(idx, what)
        if label not in self.declared:
            raise _LineError(self.tokens[idx][1], f"mode {label!r} is not declared")
        self.named.add(label)
        return label

    def _distinct(self) -> tuple[str, str]:
        m1 = self._declared(1, "first mode label")
        m2 = self._declared(2, "second mode label")
        if m1 == m2:
            raise _LineError(self.tokens[2][1], "modes must be distinct")
        return m1, m2

    def _value(self, idx, key: str, kind: str = "float"):
        """The value of the ``key=<kind>`` token at ``idx``."""
        text, col = self._take(idx, f"{key}=<{kind}>")
        prefix = key + "="
        if not text.startswith(prefix):
            raise _LineError(col, f"expected {key}=<value>, got {text!r}")
        return _read(kind, (text[len(prefix):], col + len(prefix)), key)

    def _end(self, idx):
        if len(self.tokens) > idx:
            text, col = self.tokens[idx]
            raise _LineError(col, f"unexpected trailing token {text!r}")

    def _enter(self, section: str, message: str = ""):
        if _ORDER.index(section) < _ORDER.index(self.section):
            raise _LineError(self.tokens[0][1], message)
        self.section = section

    # --- statement handlers ------------------------------------------------

    def stmt_mode(self):
        self._enter("decl", "mode declarations must precede circuit elements")
        label = self._label(1)
        kw, col = self._take(2, "'cutoff'")
        if kw != "cutoff":
            raise _LineError(col, f"expected 'cutoff', got {kw!r}")
        cutoff = _read("uint", self._take(3, "cutoff value"), "cutoff")
        self._end(4)
        self.declared.add(label)
        return "mode", (label, cutoff)

    def stmt_source(self):
        self._enter("decl", "sources must precede circuit elements")
        label = self._declared(1)
        kind, col = self._take(2, "source kind")
        if kind == "squeezed":
            param = SqueezeParam(self._value(3, "r", "magnitude"), self._value(4, "phi", "angle"))
        elif kind == "coherent":
            param = CoherentParam(complex(self._value(3, "re"), self._value(4, "im")))
        elif kind == "fock":
            param = FockParam(self._value(3, "n", "uint"))
        else:
            raise _LineError(col, f"unknown source kind {kind!r}")
        self._end(4 if kind == "fock" else 5)
        return "source", (label, param)

    def stmt_bs(self):
        self._enter("elements", _ELEMENTS_FIRST)
        m1, m2 = self._distinct()
        self._end(3)
        return "element", BalancedBeamSplitter(m1, m2)

    def stmt_phase(self):
        self._enter("elements", _ELEMENTS_FIRST)
        mode = self._declared(1)
        theta = self._value(2, "theta", "angle")
        self._end(3)
        return "element", PhaseShift(mode, theta)

    def stmt_kerr(self):
        self._enter("elements", _ELEMENTS_FIRST)
        m1, m2 = self._distinct()
        tau = self._value(3, "tau", "angle")
        self._end(4)
        return "element", CrossKerr(m1, m2, tau)

    def stmt_detect(self):
        self._enter("detects")
        mode = self._declared(1)
        n = self._value(2, "n", "uint")
        self._end(3)
        return "detect", Detect(mode, n)


_HANDLERS = {
    "mode": _Parser.stmt_mode,
    "source": _Parser.stmt_source,
    "bs": _Parser.stmt_bs,
    "phase": _Parser.stmt_phase,
    "kerr": _Parser.stmt_kerr,
    "detect": _Parser.stmt_detect,
}


def parse(text: str | bytes) -> ParseResult:
    """Parse circuit source into a program, collecting all diagnostics.

    Syntax and order errors point at the offending token; circuit-rule
    violations (see :func:`validate_program`) and the unused-mode warnings
    point at the statement's first token. Errors come in line order, then
    the warnings. On any error diagnostic, no program is returned. Accepts
    str or UTF-8 bytes; LF, CRLF and CR line endings are all fine.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(re.split(rb"\r\n|\r|\n", text[: exc.start]))
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


def format_element(element: Element) -> str:
    match element:
        case BalancedBeamSplitter(mode_1=m1, mode_2=m2):
            return f"bs {m1} {m2}"
        case PhaseShift(mode=m, theta=theta):
            return f"phase {m} theta={_angle_text(theta)}"
        case CrossKerr(mode_1=m1, mode_2=m2, tau=tau):
            return f"kerr {m1} {m2} tau={_angle_text(tau)}"
        case Detect(mode=m, n=n):
            return f"detect {m} n={n}"
    raise TypeError(f"not a circuit element: {element!r}")


def format_source(label: str, param) -> str:
    match param:
        case SqueezeParam(r=r, phi=phi):
            return f"source {label} squeezed r={_float_text(r)} phi={_angle_text(phi)}"
        case CoherentParam(alpha=alpha):
            re_part, im_part = _float_text(alpha.real), _float_text(alpha.imag)
            return f"source {label} coherent re={re_part} im={im_part}"
        case FockParam(n=n):
            return f"source {label} fock n={n}"
    raise TypeError(f"not a source parameter: {param!r}")


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
    violations, _ = _violations(program)
    if violations:
        (section, index), err = violations[0]
        raise type(err)(f"{section} {index}: {err}")


def _violations(program: CircuitProgram):
    """Every circuit-rule violation of ``program``, at most one per
    statement and in statement order, as ``((section, index), error)``;
    and, per declared label, the index of the mode declaration that counts.

    A rejected statement counts as absent for the rules of later ones.
    """
    violations = []

    def reject(section, index, message, kind=CircuitValidationError):
        violations.append(((section, index), kind(message)))

    cutoffs: dict[str, int] = {}
    declared_at: dict[str, int] = {}  # the mode statement that counts
    dimension = 1
    for index, (label, cutoff) in enumerate(program.modes):
        size = dimension * (cutoff + 1)
        if label in cutoffs:
            reject("mode", index, f"mode {label!r} is already declared")
        elif cutoff < 0:
            reject("mode", index, f"mode {label!r} has negative cutoff {cutoff}")
        elif size > MAX_STATE_DIMENSION:
            reject("mode", index, f"mode {label!r} (cutoff {cutoff}) brings the state to {size} "
                   f"amplitudes, above the maximum state dimension {MAX_STATE_DIMENSION}",
                   CutoffError)
        else:
            dimension = size
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

