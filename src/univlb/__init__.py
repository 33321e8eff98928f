"""Universal Steiner tree / TSP algorithms, expander lower-bound certificates,
exact small-instance oracles, and differential-privacy transfer auditing."""

from .adversary import (
    CertificateResult,
    SteinerAdversaryConfig,
    TspAdversaryConfig,
    block_alternation,
    check_separation,
    is_good_walk,
    steiner_certificate,
    tsp_certificate,
)
from .expanders import (
    ExpanderCertificate,
    lps_graph,
    second_eigenvalue,
)
from .frt import HST, frt_sample, hst_dominates, hst_to_spanning_tree, stretch_stats
from .graphs import Graph, girth, read_graph, write_graph
from .metric import (
    MetricSpace,
    read_metric,
    shortest_path_metric,
    validate_metric,
    write_metric,
)
from .oracles import (
    OracleBudget,
    OracleRefusal,
    opt_surrogates,
    steiner_exact,
    tsp_exact,
)
from .privacy import (
    LowerBoundWitness,
    MechanismTable,
    dp_audit,
    empty_support_check,
    exponential_mechanism,
    transfer_check,
    transfer_lower_bound,
)
from .solutions import (
    PathCollection,
    SpanningTree,
    TourOrder,
    bfs_tree,
    project_paths,
    project_tour,
    project_tree,
    tree_to_path_collection,
    tree_to_tour,
)
from .walks import confinement_probability, random_walk, walk_operator

__version__ = "0.1.0"
