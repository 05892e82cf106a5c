"""Truncated-Fock-space simulation of cross-Kerr photonic circuits.

The package builds squeezed/coherent sources, propagates them through
50:50 beam splitters, phase shifters, and cross-Kerr media in a dense
truncated Fock representation, and post-selects on ideal photon detection
to produce parity-cat superpositions and entangled pairs, together with
the diagnostics (distributions, fidelities, Schmidt data) to verify them.
"""

from .analysis import (
    entanglement_entropy,
    fidelity,
    joint_photon_distribution,
    photon_distribution,
)
from .dsl import (
    CircuitProgram,
    CircuitValidationError,
    ParseResult,
    format_program,
    parse,
    validate_program,
)
from .elements import (
    BalancedBeamSplitter,
    CrossKerr,
    Detect,
    PhaseShift,
    apply_beam_splitter,
    apply_cross_kerr,
    apply_element,
    apply_phase_shift,
)
from .errors import (
    CutoffError,
    FockSpaceError,
    ModeLabelError,
    StateMismatchError,
    TruncationWarning,
    ZeroStateError,
)
from .fock import (
    FockVector,
    MultiModeState,
    SchmidtDecomposition,
    project_mode,
    project_modes,
    schmidt_decompose,
    single,
    tensor_product,
)
from .protocols import (
    Branch,
    EntanglementParams,
    ProtocolResult,
    SuperpositionParams,
    entanglement_program,
    entanglement_targets,
    run_batches,
    run_circuit,
    run_entanglement,
    run_superposition,
    superposition_program,
    superposition_targets,
)
from .states import (
    CoherentParam,
    FockParam,
    SqueezeParam,
    cat_coherent,
    cat_squeezed,
    coherent,
    squeezed_vacuum,
    suggest_cutoff,
    vacuum,
)

__version__ = "0.1.0"
