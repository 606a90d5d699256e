"""erlab: construction, certification, and measurement of clique-free
colorings, sparsified incidence graphs, and s-independence exponents."""

from .alpha import (
    AlphaResult,
    ExtractionResult,
    alpha_exact,
    alteration_set,
    count_free_subsets,
    greedy_free_subset,
    lay3_free_subset,
    recursive_free_subset,
)
from .bounds import (
    ExponentResult,
    GTable,
    OrderingResult,
    default_g_table,
    exponent_lower,
    exponent_upper,
    half_sequence,
    order_vertices,
    sudakov_exponent,
)
from .construct import (
    ConstructionParams,
    DensityProfile,
    InstanceBundle,
    OverlayRecord,
    SPartition,
    SparsifiedIncidence,
    blow_up,
    build_linear_tf_hypergraph,
    construct_upper_bound_instance,
    overlay_and_retain,
    sparsify,
)
from .density import (
    WitnessSubgraph,
    blow_up_transfer_report,
    check_uniform_density,
    density_witness,
    hypergraph_blow_up,
)
from .experiment import ExperimentConfig, RunReport, fit_exponent, run_experiment, verify_suite
from .freeness import (
    RamseyEntry,
    RamseyTable,
    UnresolvedRamseyError,
    default_table,
    find_mono_clique,
    mono_free_pattern,
    ramsey_oracle,
    search_free_coloring,
)
from .graphs import (
    CliqueCover,
    EdgeColoring,
    Graph,
    LinearHypergraph,
    enumerate_cliques,
    incidence_graph,
    validate_hypergraph,
)

__version__ = "0.1.0"
