"""Toolkit for extracting large nearly regular subgraphs from arbitrary
graphs: degree peeling, density boosting, matching cascades, exact
small-instance oracles, Monte Carlo estimators, and instance generators."""

from .edge_regular import (
    Bipartition,
    CascadeState,
    bipartite_half,
    matching_cascade,
    matching_lower_bound,
    theorem41,
)
from .errors import (
    BoundViolationError,
    CapExceededError,
    EdgeListError,
    NearRegError,
    PreconditionError,
    SizeCapError,
)
from .graph import (
    BoundCheck,
    DegreeStats,
    ExtractionResult,
    Graph,
    degree_stats,
    induced,
    parse_edge_list,
    serialize_edge_list,
)
from .instances import (
    blocks,
    blocks_padded,
    complete_bipartite,
    sample_gnp_bar,
    sample_gnp_uniform,
    star,
)
from .oracle import (
    OracleResult,
    estimate_point_prob,
    estimate_regular_prob,
    exact_f,
    exact_f_n,
    point_prob_distribution,
)
from .peeling import (
    PeelStep,
    PeelTrace,
    prop21_refine,
    prop22_reduce,
    proposition11_pipeline,
)
from .regularize import (
    BoostOutcome,
    density_boost,
    find_dense_subset,
    lemma25_extract,
    theorem12_pipeline,
    theorem13_pipeline,
    turan_independent_set,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BoostOutcome",
    "BoundCheck",
    "BoundViolationError",
    "CapExceededError",
    "CascadeState",
    "DegreeStats",
    "EdgeListError",
    "ExtractionResult",
    "Graph",
    "NearRegError",
    "OracleResult",
    "PeelStep",
    "PeelTrace",
    "PreconditionError",
    "SizeCapError",
    "bipartite_half",
    "blocks",
    "blocks_padded",
    "complete_bipartite",
    "degree_stats",
    "density_boost",
    "estimate_point_prob",
    "estimate_regular_prob",
    "exact_f",
    "exact_f_n",
    "find_dense_subset",
    "induced",
    "lemma25_extract",
    "matching_cascade",
    "matching_lower_bound",
    "parse_edge_list",
    "point_prob_distribution",
    "prop21_refine",
    "prop22_reduce",
    "proposition11_pipeline",
    "sample_gnp_bar",
    "sample_gnp_uniform",
    "serialize_edge_list",
    "star",
    "theorem12_pipeline",
    "theorem13_pipeline",
    "theorem41",
    "turan_independent_set",
]
