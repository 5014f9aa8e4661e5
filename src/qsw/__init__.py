"""Quantum stochastic walks on graphs.

A single mixing parameter interpolates a density-matrix evolution between
a purely coherent walk (omega = 0) and a purely dissipative classical one
(omega = 1). The package builds the generators from graph connectivity,
propagates states in continuous or discrete time, and ships independent
analytic oracles plus an exhaustive audit of the neighborhood transition
rates against the full tensor.
"""

__version__ = "0.1.0"

from .discrete import (
    KrausSet,
    StochasticMatrix,
    apply_map,
    iterate_map,
    kraus_from_stochastic,
    lazy_walk_matrix,
    map_tensor_element,
)
from .evolution import (
    DensityMatrix,
    Liouvillian,
    PropagationError,
    PropagationInfo,
    QuantumWalk,
    StateInvariantError,
    build_liouvillian,
    coherence_l1,
    lindblad_rhs,
    populations,
    populations_detailed,
    propagate,
    propagate_detailed,
)
from .graph import (
    GeneratorMatrix,
    Graph,
    LineIndexMap,
    build_line,
    classical_generator,
    from_edge_list,
    parse_edge_list,
    read_edge_list,
    validate_generator,
)
from .operators import (
    AxiomAuditReport,
    Hamiltonian,
    JumpOperatorSet,
    TensorElement,
    audit_axioms,
    axiom_rate,
    edge_jump_operators,
    empty_jump_operators,
    global_jump_operator,
    hamiltonian_from_generator,
    tensor_element,
)
from .oracles import (
    LineDistribution,
    LineWalkSpec,
    bessel_j_sequence,
    classical_master_solve,
    crw_line_analytic,
    qw_line_analytic,
    scaled_bessel_i_sequence,
    schrodinger_solve,
    total_variation,
)

__all__ = [
    "__version__",
    "AxiomAuditReport",
    "DensityMatrix",
    "GeneratorMatrix",
    "Graph",
    "Hamiltonian",
    "JumpOperatorSet",
    "KrausSet",
    "LineDistribution",
    "LineIndexMap",
    "LineWalkSpec",
    "Liouvillian",
    "PropagationError",
    "PropagationInfo",
    "QuantumWalk",
    "StateInvariantError",
    "StochasticMatrix",
    "TensorElement",
    "apply_map",
    "audit_axioms",
    "axiom_rate",
    "bessel_j_sequence",
    "build_line",
    "build_liouvillian",
    "classical_generator",
    "classical_master_solve",
    "coherence_l1",
    "crw_line_analytic",
    "edge_jump_operators",
    "empty_jump_operators",
    "from_edge_list",
    "global_jump_operator",
    "hamiltonian_from_generator",
    "iterate_map",
    "kraus_from_stochastic",
    "lazy_walk_matrix",
    "lindblad_rhs",
    "map_tensor_element",
    "parse_edge_list",
    "populations",
    "populations_detailed",
    "propagate",
    "propagate_detailed",
    "qw_line_analytic",
    "read_edge_list",
    "scaled_bessel_i_sequence",
    "schrodinger_solve",
    "tensor_element",
    "total_variation",
    "validate_generator",
]
