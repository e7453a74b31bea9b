"""Every weighted per-class or per-type total of the package is one
left-to-right loop: the bits of the same loop in Python floats, for any
shape, memory layout or BLAS kernel."""

import numpy as np
import pytest

from ruinnet import pathsim, ruin
from ruinnet.approx import _stats_from_counts
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel, connect_given_counts, sample_prefix_counts
from ruinnet.ruin import _pk_from_counts, estimate
from ruinnet.streams import stream, weighted_sum

CLASSES = (1, 2, 3, 40)
TYPES = (1, 3)


def left_to_right(x, w) -> float:
    """``sum_i x_i * w_i`` in Python floats: the first product, then each
    later one added in index order."""
    total = float(x[0]) * float(w[0])
    for a, b in zip(x[1:], w[1:]):
        total += float(a) * float(b)
    return total


class TestWeightedSum:
    @pytest.mark.parametrize("n", CLASSES)
    def test_rows_match_the_python_loop(self, n):
        rng = np.random.default_rng(n)
        x, w = rng.normal(size=(300, n)), rng.normal(size=n)
        want = [left_to_right(row, w) for row in x]
        assert weighted_sum(x, w).tolist() == want
        # an unaligned slice and a strided copy give the same bits
        assert weighted_sum(x[1:], w).tolist() == want[1:]
        assert weighted_sum(np.asfortranarray(x), w).tolist() == want

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(4, 1, 5, 3)), rng.normal(size=(4, 2, 1, 3))
        got = weighted_sum(x, w)
        assert got.shape == (4, 2, 5)
        for i, j, k in np.ndindex(*got.shape):
            assert got[i, j, k] == left_to_right(x[i, 0, k], w[i, j, 0])

    def test_integer_counts_give_floats(self):
        got = weighted_sum(np.array([[2, 3]]), np.array([0.1, 0.7]))
        assert got.dtype == np.float64
        assert got.tolist() == [2 * 0.1 + 3 * 0.7]


@pytest.mark.parametrize("G", CLASSES)
def test_pk_from_counts(G):
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 5000, size=(4096, G))
    counts[0] = 0  # a disconnected group: PK = 0/0 := 0
    ratio = np.sort(rng.uniform(0.5, 2.0, G))
    lam = 1.3
    want = []
    for row in counts:
        premium = left_to_right(row, ratio)
        want.append(lam * int(row.sum()) / premium if premium else 0.0)
    assert _pk_from_counts(lam, counts, ratio).tolist() == want
    assert _pk_from_counts(lam, counts[1:], ratio).tolist() == want[1:]


class Recorder:
    """A generator that records each multinomial draw: its probabilities
    and its counts."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def multinomial(self, n, pvals, size=None):
        out = self.rng.multinomial(n, pvals, size=size)
        self.calls.append((np.array(pvals), out))
        return out


@pytest.mark.parametrize("K", (1, 2))
@pytest.mark.parametrize("L", TYPES)
@pytest.mark.parametrize("G", CLASSES)
def test_pbar_of_prefix_counts(G, L, K):
    rng = np.random.default_rng(100 * G + 10 * L + K)
    model = BlockModel(
        w=rng.dirichlet(np.ones(K)), v=rng.dirichlet(np.ones(L)), p=rng.uniform(0, 1, (K, L))
    )
    recorder = Recorder(stream(5, G, L, K))
    sample_prefix_counts(model, [4], rng.integers(1, 9, G), recorder, 500)
    *agents, (cells, _) = recorder.calls
    m = agents[0][1][:, 0] if agents else np.array([[4]])  # one layer's counts are its group's
    want = [min(left_to_right(row, model.v), 1.0) for row in connect_given_counts(model, m)]
    got = cells[:, 0, 0]  # the first cell of one group is its pbar
    assert np.broadcast_to(got, (len(want),)).tolist() == want


@pytest.mark.parametrize("L", TYPES)
@pytest.mark.parametrize("G", CLASSES)
def test_stats_from_counts(G, L):
    rng = np.random.default_rng(10 * G + L)
    xi_vals = rng.uniform(0.5, 1.5, G)
    counts = rng.integers(0, 5000, size=(200, G, L))
    p_l = rng.uniform(0, 1, size=(200, L))
    p_l[0] = 0.0  # a disconnected group
    mean, var, raw3, connected = _stats_from_counts(xi_vals, counts, p_l)
    # the elementwise factors as the package forms them; only the sums are redone
    xm = xi_vals - 1.0
    q_l = 1.0 - p_l
    s2, h = p_l * q_l, p_l * q_l**3 + q_l * p_l**3
    for r in range(200):
        per_p = [left_to_right(row, p_l[r]) for row in counts[r]]
        per_s2 = [left_to_right(row, s2[r]) for row in counts[r]]
        per_h = [left_to_right(row, h[r]) for row in counts[r]]
        assert mean[r] == left_to_right(per_p, xm)
        assert var[r] == left_to_right(per_s2, xm * xm)
        assert raw3[r] == left_to_right(per_h, np.abs(xm) ** 3)
        assert connected[r] == pytest.approx(sum(per_p), rel=1e-12)
    assert connected[0] == 0.0 and (connected[1:] > 0).all()


def test_oracle_and_estimator_share_rate_and_premium(monkeypatch):
    """Both read a realisation's ``(rate, premium)`` from
    ``ruin.rate_and_premium``; the oracle's paths run on what it returns."""
    assert pathsim.rate_and_premium is ruin.rate_and_premium
    returned, kernel_calls = [], []
    real_rates, real_kernel = ruin.rate_and_premium, pathsim.simulate_ruin_batch

    def rates(lam, counts, ratio):
        out = real_rates(lam, counts, ratio)
        returned.append(out)
        return out

    def kernel(rate, premium, *args):
        kernel_calls.append((rate, premium))
        return real_kernel(rate, premium, *args)

    monkeypatch.setattr(ruin, "rate_and_premium", rates)
    monkeypatch.setattr(pathsim, "rate_and_premium", rates)
    monkeypatch.setattr(pathsim, "simulate_ruin_batch", kernel)
    params = RiskParams(lam=1.0, c=[0.95, 1.05, 1.2], mu=np.ones(3), u=np.ones(2))
    model, group = BlockModel.bernoulli(0.6), AgentSubset.prefix(2)
    estimate(params, model, group, 100, base_seed=1)
    assert len(returned) == 1 and returned[0][0].shape == (100,)
    pathsim.oracle_psi(params, model, group, 50.0, 6, 2, base_seed=1)
    assert len(returned) == 2
    rate, premium = returned[1]
    (path_rate, path_premium), = kernel_calls
    network = np.arange(12) // 2
    assert path_rate.tolist() == rate[network].tolist()
    assert path_premium.tolist() == premium[network].tolist()
