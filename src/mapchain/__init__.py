"""District-plan ensembles over precinct adjacency graphs.

Spanning-tree recombination chains and ab-initio random-tree partitioning,
partisan fairness metrics under per-election and vote-index tallying, split
constraints (hard caps and Gibbs weighting), and chain mixing diagnostics.
"""

from .graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    Plan,
    PrecinctGraph,
    PrecinctNode,
    build_graph,
    canonical_form,
    district_perimeter_area,
    district_populations,
    is_contiguous,
)
from .trees import (
    SpanningTree,
    bipartition_region,
    find_balanced_cut,
    random_spanning_tree,
)
from .constraints import (
    ConstraintGate,
    SplitReport,
    gate_accept,
    split_report,
)
from .metrics import (
    MetricsConfig,
    MetricsReport,
    district_shares,
    efficiency_gap,
    mean_median,
    polsby_popper,
    score_plan,
    seats_fractional,
    seats_won,
    vote_index,
)
from .chain import (
    ChainState,
    ChainTrace,
    adjacent_district_pairs,
    random_tree_plan,
    recom_step,
    run_chain,
    tree_ensemble,
)
from .diagnostics import (
    AcfSeries,
    SweepResult,
    autocorrelation,
    burn_thin,
    constraint_sweep,
    correlation_length,
    summarize,
)
from .oracle import PartitionCatalog, enumerate_partitions, naive_score

__version__ = "0.1.0"
