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
    "estimate",
    "mixture_probability",
    "oracle_psi",
    "phase_classify",
    "proportional_r",
    "stream",
    "__version__",
}


def test_all_is_pinned():
    assert len(ruinnet.__all__) == len(set(ruinnet.__all__))
    assert set(ruinnet.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ruinnet.__all__:
        assert getattr(ruinnet, name) is not None, name

