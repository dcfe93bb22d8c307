"""mwgraph: spectral analysis and expander search for matrix-weighted graphs.

A matrix-weighted graph assigns a k x k positive semidefinite matrix to each
edge of an undirected graph.  This package builds the blockwise adjacency
and Laplacian operators, realizes the Laplacian as a cellular-sheaf Gram
matrix, verifies expander-mixing and Cheeger-type inequalities, and
constructs and searches projection-weighted expanders from tight fusion
frames.
"""

from .errors import (
    DegenerateEdgeError,
    DimMismatchError,
    DomainError,
    EmptyOrFullSubsetError,
    IndexOutOfRangeError,
    MwgError,
    NonFiniteError,
    NotColorableError,
    NotProjectionError,
    NotProjectionWeightsError,
    NotProperlyColoredError,
    NotPsdError,
    NotScalarRegularError,
    NotSymmetricError,
    NotTightError,
    ParseError,
    SampleShortfallError,
    SingularVolumeError,
    TooLargeError,
)
from .expansion import (
    CheegerReport,
    CounterexampleCertificate,
    EmlReport,
    cheeger_analysis,
    cheeger_ratios,
    edge_count,
    eml_irregular,
    eml_irregular_exhaustive,
    eml_regular,
    eml_regular_exhaustive,
)
from .frames import (
    ExpanderReport,
    FusionFrame,
    SearchResult,
    alon_boppana_compare,
    augment_with_identity,
    build_expander,
    equiangular_frame_2d,
    eta,
    load_frame,
    named_frame,
    proper_edge_coloring,
    ratio_inequality_holds,
    sample_expanders,
    search_expanders,
    verify_tight,
)
from .graphgen import canonical_code, enumerate_regular_graphs, graph6_like
from .graphs import (
    BaseGraph,
    MatrixWeightedGraph,
    Regularity,
    lift_identity,
    load,
    save,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    is_psd,
    pseudo_sqrt_inv,
)
from .operators import (
    BoundReport,
    OperatorBundle,
    assemble,
    check_adjacency_trace_bounds,
    check_laplacian_trace_bounds,
    check_normalized_bound,
)
from .sheaf import (
    Truss,
    global_sections,
    load_truss,
    rigid_motions,
    sheaf_analysis,
    truss_to_mwg,
)

__version__ = "0.1.0"
