"""Truncated-Fock-space simulation of cross-Kerr photonic circuits.

The package builds squeezed/coherent sources, propagates them through
50:50 beam splitters, phase shifters, and cross-Kerr media in a dense
truncated Fock representation, and post-selects on ideal photon detection
to produce parity-cat superpositions and entangled pairs, together with
the diagnostics (distributions, fidelities, Schmidt data) to verify them.

The public surface is the command line, its report schema and the names
exported here: the circuit language, the four element types, the errors,
``FockVector`` and ``MultiModeState``, the batch runner (``run_circuit``,
``run_batches``, their results, and each protocol's parameters and program
builder), and the source factories with their parameter types. Single-state
functions that no command-line path calls (``kerrcat.analysis.fidelity``,
``kerrcat.protocols.run_superposition``, ...) stay in their own modules.
"""

from .dsl import (
    CircuitProgram,
    CircuitValidationError,
    ParseResult,
    format_program,
    parse,
    validate_program,
)
from .elements import BalancedBeamSplitter, CrossKerr, Detect, PhaseShift
from .errors import (
    CutoffError,
    FockSpaceError,
    ModeLabelError,
    StateMismatchError,
    TruncationWarning,
    ZeroStateError,
)
from .fock import FockVector, MultiModeState
from .protocols import (
    Branch,
    EntanglementParams,
    ProtocolResult,
    SuperpositionParams,
    entanglement_program,
    run_batches,
    run_circuit,
    superposition_program,
)
from .states import (
    CoherentParam,
    FockParam,
    SqueezeParam,
    coherent,
    squeezed_vacuum,
    suggest_cutoff,
    vacuum,
)

__version__ = "0.1.0"
