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
    PhaseVerdict,
    mixture_probability,
    normal_positive_prob,
    phase_classify,
)
from .model import AgentSubset, RiskParams, proportional_r
from .netgen import BlockModel
from .pathsim import oracle_psi
from .ruin import EstimateWithCI, RuinEstimate, estimate, estimate_psi, psi_summand
from .streams import StreamKey, stream

__version__ = "0.1.0"

__all__ = [
    "AgentSubset",
    "ApproxResult",
    "BlockModel",
    "EstimateWithCI",
    "PhaseVerdict",
    "RiskParams",
    "RuinEstimate",
    "StreamKey",
    "estimate",
    "estimate_psi",
    "mixture_probability",
    "normal_positive_prob",
    "oracle_psi",
    "phase_classify",
    "proportional_r",
    "psi_summand",
    "stream",
    "__version__",
]
