"""Group ruin probabilities on random bipartite insurance networks.

Simulation and approximation toolkit: Monte-Carlo estimation of the
summative ruin probability of an agent group under a stochastic-blockmodel
bipartite network, the mixture-of-normals approximation of the tail
probability with its explicit error bound, a compound-Poisson path
simulator as brute-force oracle, and a CLI reproducing the table and
phase-transition sweep experiments.
"""

from .approx import (
    ApproxResult,
    MixtureStats,
    PhaseVerdict,
    mixture_probability,
    mixture_stats,
    normal_positive_prob,
    p_of_config,
    phase_classify,
)
from .model import (
    AgentSubset,
    LoadingVector,
    RiskParams,
    WeightMatrix,
    build_weights,
    classical_ruin,
    compute_loadings,
    proportional_r,
)
from .netgen import (
    BipartiteGraph,
    BlockModel,
    TypeAssignment,
    connect_prob,
    group_indicators,
    sample_graph,
    sample_types,
)
from .pathsim import PathConfig, oracle_psi, ruin_frequency, simulate_ruin_path
from .ruin import (
    EstimateWithCI,
    PKSample,
    RuinEstimate,
    estimate,
    estimate_psi,
    estimate_tail,
    pk_sample,
    pk_value,
    psi_summand,
)
from .streams import StreamKey, stream

__version__ = "0.1.0"

__all__ = [
    "AgentSubset",
    "ApproxResult",
    "BipartiteGraph",
    "BlockModel",
    "EstimateWithCI",
    "LoadingVector",
    "MixtureStats",
    "PKSample",
    "PathConfig",
    "PhaseVerdict",
    "RiskParams",
    "RuinEstimate",
    "StreamKey",
    "TypeAssignment",
    "WeightMatrix",
    "build_weights",
    "classical_ruin",
    "compute_loadings",
    "connect_prob",
    "estimate",
    "estimate_psi",
    "estimate_tail",
    "group_indicators",
    "mixture_probability",
    "mixture_stats",
    "normal_positive_prob",
    "oracle_psi",
    "p_of_config",
    "phase_classify",
    "pk_sample",
    "pk_value",
    "proportional_r",
    "psi_summand",
    "ruin_frequency",
    "sample_graph",
    "sample_types",
    "simulate_ruin_path",
    "stream",
    "__version__",
]
