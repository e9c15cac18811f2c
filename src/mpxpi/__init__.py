"""Multiplex proportional-integral consensus control.

Heterogeneous linear agents with constant biases, coupled through separate
proportional and integral graph layers: stability certificates, gain tuning,
closed-loop simulation, gain-plane stability maps, and the grid-frequency
specialisation.
"""

from .design import TuningResult, tune
from .errors import (
    DimensionError,
    InvalidGraphError,
    InvalidLaplacianError,
    NoEquilibriumError,
    NotApplicableError,
    SpecFormatError,
    TuningInfeasibleError,
)
from .graph import (
    LayerGraph,
    algebraic_connectivity,
    binary_tree_graph,
    complete_graph,
    empty_graph,
    is_connected,
    laplacian,
    path_graph,
    projection,
    ring_graph,
    spanning_tree,
    star_graph,
)
from .kernels import integrate_lti
from .netspec import (
    parse_power_spec,
    parse_spec,
    parse_spec_dict,
    serialize_power_spec,
    serialize_spec,
)
from .power import (
    PowerNetwork,
    PowerReport,
    PowerTrace,
    as_multiplex,
    check_power,
    equilibrium_frequency,
    simulate_power,
)
from .sim import (
    ClosedLoopSystem,
    ErrorSystem,
    SimTrace,
    SweepResult,
    assemble,
    certified_cells,
    consensus_index,
    equilibrium,
    error_pencil,
    error_system,
    simulate,
    spectral_abscissa,
    sweep,
)
from .spectral import (
    PropertyReport,
    PsiBlocks,
    SpectralBlocks,
    block_decompose,
    psi_blocks,
    similarity_transform,
    verify_block_properties,
)
from .stability import (
    MultiplexSystem,
    NodeDynamics,
    StabilityReport,
    best_anchor,
    certificates,
    check_projection,
    check_theorem,
    consensusability_fold,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
