"""zetachain: tridiagonal quantum chains whose autocorrelation traces the Hurwitz zeta function.

Workflow: pick (N, a, sigma), synthesize the chain, evolve the bare edge
state, compare the autocorrelation against the zeta oracle, and export
the chain to spin-chain or curved waveguide-array hardware parameters.
"""

from .core import (
    AmplitudeVector,
    SimulationParams,
    log_spectrum,
    riemann_amplitudes,
)
from .design import (
    FabricationConstants,
    SpinChainParams,
    WaveguideDesign,
    spin_chain_params,
    waveguide_design_json,
    waveguide_layout,
)
from .errors import (
    ConvergenceFailure,
    CouplingTooStrong,
    DegenerateInput,
    DimensionMismatch,
    DisconnectedChain,
    InfeasibleDesign,
    NumericalBreakdown,
    OutOfDomain,
    StepTooLarge,
    TiltInfeasible,
    ValidationError,
    ZetachainError,
)
from .evolution import (
    AutocorrelationSeries,
    StateTrajectory,
    TimeGrid,
    evolve_ode,
    evolve_spectral,
)
from .synthesis import (
    SymmetricTridiagonal,
    householder_tridiagonalize,
    lanczos_synthesis,
    orthogonal_completion,
    similarity_transform,
    synthesize,
)
from .verification import (
    EigenDecomposition,
    SynthesisReport,
    eigh_tridiagonal,
    verify_synthesis,
)
from .zetaref import (
    hurwitz_zeta,
    n_min,
    tail_bound,
)

__version__ = "0.1.0"
