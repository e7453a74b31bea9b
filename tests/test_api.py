"""The public API of the package: exactly these names, and each resolves.

Reference implementations that only tests call live in ``tests/``; adding
one back to the package, or dropping a public name, fails here.
"""

import ruinnet

PUBLIC = {
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
}


def test_all_is_pinned():
    assert len(ruinnet.__all__) == len(set(ruinnet.__all__))
    assert set(ruinnet.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ruinnet.__all__:
        assert getattr(ruinnet, name) is not None, name

