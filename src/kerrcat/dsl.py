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

Modes must be declared before use; sources must precede circuit elements;
detection directives come last. Angles are evaluated to radians at parse
time; the formatter prints them back in the shortest symbolic form
(``pi/2`` rather than a decimal). ``parse(format_program(p))`` is
structurally equal to ``p``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

from .elements import BalancedBeamSplitter, CrossKerr, Detect, Element, PhaseShift

# Running product of mode dimensions above which a program is rejected.
MAX_STATE_DIMENSION = 1 << 26

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_UINT_RE = re.compile(r"\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class SqueezedSourceDecl:
    r: float
    phi: float


@dataclass(frozen=True)
class CoherentSourceDecl:
    re: float
    im: float


@dataclass(frozen=True)
class FockSourceDecl:
    n: int


SourceDecl = Union[SqueezedSourceDecl, CoherentSourceDecl, FockSourceDecl]


@dataclass(frozen=True)
class CircuitProgram:
    """Parsed circuit: declarations, sources, unitary elements, detections."""

    modes: tuple[tuple[str, int], ...] = ()
    sources: tuple[tuple[str, SourceDecl], ...] = ()
    elements: tuple[Element, ...] = ()
    detects: tuple[Detect, ...] = ()

    @property
    def mode_cutoffs(self) -> dict[str, int]:
        return dict(self.modes)


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int      # 1-based
    column: int    # 1-based
    message: str
    excerpt: str

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
        self.message = message


def _parse_angle(text: str, column: int) -> float:
    if text == "pi":
        return math.pi
    if text.startswith("pi/"):
        denom = text[3:]
        if not _UINT_RE.match(denom):
            raise _LineError(column, f"malformed angle {text!r}: expected pi/<uint>")
        d = int(denom)
        if d == 0:
            raise _LineError(column, "angle pi/0 is undefined")
        return math.pi / d
    if text.endswith("*pi"):
        factor = text[:-3]
        if not _FLOAT_RE.match(factor):
            raise _LineError(column, f"malformed angle {text!r}: expected <float>*pi")
        return float(factor) * math.pi
    if not _FLOAT_RE.match(text):
        raise _LineError(
            column, f"malformed angle {text!r}: expected <float>, pi, pi/<uint> or <float>*pi"
        )
    return float(text)


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
    def __init__(self):
        self.diagnostics: list[ParseDiagnostic] = []
        self.modes: list[tuple[str, int]] = []
        self.mode_index: dict[str, int] = {}
        self.sources: list[tuple[str, SourceDecl]] = []
        self.sourced: set[str] = set()
        self.elements: list[Element] = []
        self.detects: list[Detect] = []
        self.detected: set[str] = set()
        self.used: set[str] = set()
        self.section = "decl"  # decl -> elements -> detects
        self.dimension = 1

    def error(self, line_no: int, column: int, message: str, excerpt: str):
        self.diagnostics.append(ParseDiagnostic("error", line_no, column, message, excerpt))

    def warning(self, line_no: int, column: int, message: str, excerpt: str):
        self.diagnostics.append(ParseDiagnostic("warning", line_no, column, message, excerpt))

    # --- token helpers -----------------------------------------------------

    def _take(self, tokens, idx, what, end_col):
        if idx >= len(tokens):
            raise _LineError(end_col, f"missing {what}")
        return tokens[idx]

    def _label(self, tok) -> str:
        text, col = tok
        if not _LABEL_RE.match(text):
            raise _LineError(col, f"invalid mode label {text!r}")
        return text

    def _declared(self, tok) -> str:
        label = self._label(tok)
        if label not in self.mode_index:
            raise _LineError(tok[1], f"mode {label!r} is not declared")
        self.used.add(label)
        return label

    def _uint(self, tok, what) -> int:
        text, col = tok
        if not _UINT_RE.match(text):
            raise _LineError(col, f"malformed {what}: expected an unsigned integer, got {text!r}")
        return int(text)

    def _kv(self, tok, key: str) -> tuple[str, int]:
        text, col = tok
        prefix = key + "="
        if not text.startswith(prefix):
            raise _LineError(col, f"expected {key}=<value>, got {text!r}")
        return text[len(prefix):], col + len(prefix)

    def _kv_float(self, tok, key: str) -> float:
        text, col = self._kv(tok, key)
        if not _FLOAT_RE.match(text):
            raise _LineError(col, f"malformed {key} value {text!r}: expected a float")
        value = float(text)
        if not math.isfinite(value):
            raise _LineError(col, f"{key} value {text!r} is not finite")
        return value

    def _kv_angle(self, tok, key: str) -> float:
        text, col = self._kv(tok, key)
        value = _parse_angle(text, col)
        if not math.isfinite(value):
            raise _LineError(col, f"{key} value {text!r} is not finite")
        return value

    def _kv_uint(self, tok, key: str) -> int:
        text, col = self._kv(tok, key)
        if not _UINT_RE.match(text):
            raise _LineError(col, f"malformed {key} value {text!r}: expected an unsigned integer")
        return int(text)

    def _cutoff_of(self, label: str) -> int:
        return self.modes[self.mode_index[label]][1]

    def _no_extra(self, tokens, idx):
        if len(tokens) > idx:
            raise _LineError(tokens[idx][1], f"unexpected trailing token {tokens[idx][0]!r}")

    def _need_section(self, target: str, tok):
        text, col = tok
        if target == "elements":
            if self.section == "detects":
                raise _LineError(col, "circuit elements must precede detection directives")
            self.section = "elements"
        elif target == "detects":
            self.section = "detects"

    # --- statement handlers ------------------------------------------------

    def stmt_mode(self, tokens, end_col):
        if self.section != "decl":
            raise _LineError(tokens[0][1], "mode declarations must precede circuit elements")
        label = self._label(self._take(tokens, 1, "mode label", end_col))
        if label in self.mode_index:
            raise _LineError(tokens[1][1], f"mode {label!r} is already declared")
        kw = self._take(tokens, 2, "'cutoff'", end_col)
        if kw[0] != "cutoff":
            raise _LineError(kw[1], f"expected 'cutoff', got {kw[0]!r}")
        cutoff = self._uint(self._take(tokens, 3, "cutoff value", end_col), "cutoff")
        self._no_extra(tokens, 4)
        if self.dimension * (cutoff + 1) > MAX_STATE_DIMENSION:
            raise _LineError(
                tokens[3][1],
                f"declared modes exceed the maximum state dimension {MAX_STATE_DIMENSION}",
            )
        self.dimension *= cutoff + 1
        self.mode_index[label] = len(self.modes)
        self.modes.append((label, cutoff))

    def stmt_source(self, tokens, end_col):
        if self.section != "decl":
            raise _LineError(tokens[0][1], "sources must precede circuit elements")
        label = self._declared(self._take(tokens, 1, "mode label", end_col))
        if label in self.sourced:
            raise _LineError(tokens[1][1], f"mode {label!r} already has a source")
        kind = self._take(tokens, 2, "source kind", end_col)
        if kind[0] == "squeezed":
            r = self._kv_float(self._take(tokens, 3, "r=<float>", end_col), "r")
            if r < 0:
                raise _LineError(tokens[3][1], "squeeze magnitude r must be >= 0")
            phi = self._kv_angle(self._take(tokens, 4, "phi=<angle>", end_col), "phi")
            self._no_extra(tokens, 5)
            decl: SourceDecl = SqueezedSourceDecl(r, phi)
        elif kind[0] == "coherent":
            re_part = self._kv_float(self._take(tokens, 3, "re=<float>", end_col), "re")
            im_part = self._kv_float(self._take(tokens, 4, "im=<float>", end_col), "im")
            self._no_extra(tokens, 5)
            decl = CoherentSourceDecl(re_part, im_part)
        elif kind[0] == "fock":
            n = self._kv_uint(self._take(tokens, 3, "n=<uint>", end_col), "n")
            if n > self._cutoff_of(label):
                raise _LineError(
                    tokens[3][1],
                    f"fock source n={n} exceeds cutoff {self._cutoff_of(label)} of mode {label!r}",
                )
            self._no_extra(tokens, 4)
            decl = FockSourceDecl(n)
        else:
            raise _LineError(kind[1], f"unknown source kind {kind[0]!r}")
        self.sourced.add(label)
        self.sources.append((label, decl))

    def stmt_bs(self, tokens, end_col):
        self._need_section("elements", tokens[0])
        m1 = self._declared(self._take(tokens, 1, "first mode label", end_col))
        tok2 = self._take(tokens, 2, "second mode label", end_col)
        m2 = self._declared(tok2)
        if m1 == m2:
            raise _LineError(tok2[1], "modes must be distinct")
        if self._cutoff_of(m1) != self._cutoff_of(m2):
            raise _LineError(
                tok2[1],
                f"beam splitter needs equal cutoffs, got {self._cutoff_of(m1)} vs {self._cutoff_of(m2)}",
            )
        self._no_extra(tokens, 3)
        self.elements.append(BalancedBeamSplitter(m1, m2))

    def stmt_phase(self, tokens, end_col):
        self._need_section("elements", tokens[0])
        mode = self._declared(self._take(tokens, 1, "mode label", end_col))
        theta = self._kv_angle(self._take(tokens, 2, "theta=<angle>", end_col), "theta")
        self._no_extra(tokens, 3)
        self.elements.append(PhaseShift(mode, theta))

    def stmt_kerr(self, tokens, end_col):
        self._need_section("elements", tokens[0])
        m1 = self._declared(self._take(tokens, 1, "first mode label", end_col))
        tok2 = self._take(tokens, 2, "second mode label", end_col)
        m2 = self._declared(tok2)
        if m1 == m2:
            raise _LineError(tok2[1], "modes must be distinct")
        tau = self._kv_angle(self._take(tokens, 3, "tau=<angle>", end_col), "tau")
        self._no_extra(tokens, 4)
        self.elements.append(CrossKerr(m1, m2, tau))

    def stmt_detect(self, tokens, end_col):
        self._need_section("detects", tokens[0])
        tok1 = self._take(tokens, 1, "mode label", end_col)
        mode = self._declared(tok1)
        if mode in self.detected:
            raise _LineError(tok1[1], f"mode {mode!r} is already detected")
        n = self._kv_uint(self._take(tokens, 2, "n=<uint>", end_col), "n")
        if n > self._cutoff_of(mode):
            raise _LineError(
                tokens[2][1], f"detected n={n} exceeds cutoff {self._cutoff_of(mode)} of mode {mode!r}"
            )
        self._no_extra(tokens, 3)
        self.detected.add(mode)
        self.detects.append(Detect(mode, n))


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

    On any error diagnostic, no program is returned. Accepts str or UTF-8
    bytes; LF and CRLF line endings are both fine.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text[: exc.start].count(b"\n") + 1
            diag = ParseDiagnostic("error", line, 1, "input is not valid UTF-8", "")
            return ParseResult(None, (diag,))

    p = _Parser()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        hash_pos = line.find("#")
        body = line if hash_pos < 0 else line[:hash_pos]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        handler = _HANDLERS.get(keyword)
        end_col = tokens[-1][1] + len(tokens[-1][0])
        try:
            if handler is None:
                raise _LineError(col, f"unknown keyword {keyword!r}")
            handler(p, tokens, end_col)
        except _LineError as err:
            p.error(line_no, err.column, err.message, line)

    for label, cutoff in p.modes:
        if label not in p.used and label not in p.sourced:
            decl_line = _find_decl_line(text, label)
            p.warning(decl_line, 1, f"mode {label!r} is declared but never used", "")

    if any(d.severity == "error" for d in p.diagnostics):
        return ParseResult(None, tuple(p.diagnostics))
    program = CircuitProgram(
        tuple(p.modes), tuple(p.sources), tuple(p.elements), tuple(p.detects)
    )
    return ParseResult(program, tuple(p.diagnostics))


def _find_decl_line(text: str, label: str) -> int:
    for i, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if len(tokens) >= 2 and tokens[0] == "mode" and tokens[1] == label:
            return i
    return 1


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


def format_source(label: str, decl: SourceDecl) -> str:
    match decl:
        case SqueezedSourceDecl(r=r, phi=phi):
            return f"source {label} squeezed r={_float_text(r)} phi={_angle_text(phi)}"
        case CoherentSourceDecl(re=re_part, im=im_part):
            return f"source {label} coherent re={_float_text(re_part)} im={_float_text(im_part)}"
        case FockSourceDecl(n=n):
            return f"source {label} fock n={n}"
    raise TypeError(f"not a source declaration: {decl!r}")


def format_program(program: CircuitProgram) -> str:
    """Canonical text; ``parse`` of the result is structurally equal."""
    lines = [format_mode(label, cutoff) for label, cutoff in program.modes]
    lines += [format_source(label, decl) for label, decl in program.sources]
    lines += [format_element(e) for e in program.elements]
    lines += [format_element(d) for d in program.detects]
    return "\n".join(lines) + ("\n" if lines else "")


def validate_program(program: CircuitProgram) -> None:
    """Check a (possibly hand-built) program; raises CircuitValidationError.

    Parsed programs always pass; this guards programs assembled in code.
    """
    cutoffs: dict[str, int] = {}
    dimension = 1
    for label, cutoff in program.modes:
        if label in cutoffs:
            raise CircuitValidationError(f"mode {label!r} declared twice")
        if cutoff < 0:
            raise CircuitValidationError(f"mode {label!r} has negative cutoff {cutoff}")
        dimension *= cutoff + 1
        if dimension > MAX_STATE_DIMENSION:
            raise CircuitValidationError(
                f"total state dimension exceeds {MAX_STATE_DIMENSION}"
            )
        cutoffs[label] = cutoff

    seen_sources = set()
    for label, decl in program.sources:
        if label not in cutoffs:
            raise CircuitValidationError(f"source on undeclared mode {label!r}")
        if label in seen_sources:
            raise CircuitValidationError(f"mode {label!r} has two sources")
        seen_sources.add(label)
        if isinstance(decl, FockSourceDecl) and decl.n > cutoffs[label]:
            raise CircuitValidationError(
                f"fock source n={decl.n} exceeds cutoff {cutoffs[label]} of mode {label!r}"
            )
        if isinstance(decl, SqueezedSourceDecl) and decl.r < 0:
            raise CircuitValidationError(f"source on mode {label!r} has negative r")

    for index, element in enumerate(program.elements):
        if isinstance(element, Detect):
            raise CircuitValidationError(
                f"element {index}: detection must come after all circuit elements"
            )
        refs = _element_modes(element)
        for mode in refs:
            if mode not in cutoffs:
                raise CircuitValidationError(f"element {index}: undeclared mode {mode!r}")
        if isinstance(element, BalancedBeamSplitter):
            c1, c2 = cutoffs[element.mode_1], cutoffs[element.mode_2]
            if c1 != c2:
                raise CircuitValidationError(
                    f"element {index}: beam splitter cutoff mismatch {c1} vs {c2}"
                )

    detected = set()
    for index, det in enumerate(program.detects):
        if not isinstance(det, Detect):
            raise CircuitValidationError(f"detect {index}: not a detection directive")
        if det.mode not in cutoffs:
            raise CircuitValidationError(f"detect {index}: undeclared mode {det.mode!r}")
        if det.mode in detected:
            raise CircuitValidationError(f"detect {index}: mode {det.mode!r} detected twice")
        if det.n > cutoffs[det.mode]:
            raise CircuitValidationError(
                f"detect {index}: n={det.n} exceeds cutoff {cutoffs[det.mode]}"
            )
        detected.add(det.mode)


def _element_modes(element: Element) -> tuple[str, ...]:
    match element:
        case BalancedBeamSplitter(mode_1=m1, mode_2=m2):
            return (m1, m2)
        case PhaseShift(mode=m):
            return (m,)
        case CrossKerr(mode_1=m1, mode_2=m2):
            return (m1, m2)
        case Detect(mode=m):
            return (m,)
    raise TypeError(f"not a circuit element: {element!r}")
