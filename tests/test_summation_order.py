"""Every weighted per-class or per-type total of the package is one
left-to-right loop: the bits of the same loop in Python floats, for any
shape, memory layout or BLAS kernel."""

import numpy as np
import pytest

from approx_reference import stats_from_counts_trailing
from ruinnet import pathsim, ruin
from ruinnet.approx import _stats_from_counts
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import (
    BlockModel,
    connect_given_counts,
    sample_configurations,
    sample_prefix_counts,
)
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
    # (rows, groups, G) counts, as the estimator's per-replicate path passes
    # them: each group's column has the bits of its own 2-D call
    nested = counts[:4095].reshape(1365, 3, G)
    got = _pk_from_counts(lam, nested, ratio)
    assert got.shape == (1365, 3)
    for j in range(3):
        assert got[:, j].tolist() == _pk_from_counts(lam, nested[:, j], ratio).tolist()
    assert got.ravel().tolist() == want[:4095]


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
    s2 = p_l * q_l
    h = s2 * (q_l * q_l + p_l * p_l)
    for r in range(200):
        per_p = [left_to_right(row, p_l[r]) for row in counts[r]]
        per_s2 = [left_to_right(row, s2[r]) for row in counts[r]]
        per_h = [left_to_right(row, h[r]) for row in counts[r]]
        assert mean[r] == left_to_right(per_p, xm)
        assert var[r] == left_to_right(per_s2, xm * xm)
        assert raw3[r] == left_to_right(per_h, np.abs(xm) * (xm * xm))
        assert connected[r] == pytest.approx(sum(per_p), rel=1e-12)
    assert connected[0] == 0.0 and (connected[1:] > 0).all()


def assert_same_stats(got, want):
    """The moments bit for bit; the expected connected count, whose only
    use is its test for 0, within rounding of a sum in another order."""
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    np.testing.assert_array_equal(got[3] == 0.0, want[3] == 0.0)
    np.testing.assert_allclose(got[3], want[3], rtol=1e-14)


@pytest.mark.parametrize("L", TYPES)
@pytest.mark.parametrize("G", CLASSES)
def test_stats_from_counts_keeps_the_trailing_axis_bits(G, L):
    # the package's replicate-innermost layouts against C-order copies:
    # sampled mode's (n, 1, G, L) x (n, J, L) and an exact-mode chunk
    # (n, G, L) x (n, L), with edge probabilities of exactly 0 and 1
    rng = np.random.default_rng(30 * G + L)
    p = rng.uniform(0, 1, (3, L))
    p[0, 0], p[2, -1] = 0.0, 1.0
    model = BlockModel(w=[0.5, 0.3, 0.2], v=rng.dirichlet(np.ones(L)), p=p)
    xi_vals = rng.uniform(0.5, 1.5, G)
    class_sizes = rng.integers(0, 60, G)
    connect, counts = sample_configurations(model, [1, 2, 5], class_sizes, stream(9, G, L), 700)
    got = _stats_from_counts(xi_vals, counts[:, None], connect)
    assert_same_stats(got, stats_from_counts_trailing(xi_vals, counts[:, None], connect))
    agents = rng.integers(0, 4, (20, 3))
    agents[0] = 0  # no agent: every connection probability is 0
    connect = connect_given_counts(model, agents)
    a = rng.integers(0, 20, 900)
    chunk = np.empty((L, G, a.size))  # (type, class, configuration), as exact mode lays it out
    chunk[:] = rng.integers(0, 40, chunk.shape)
    got = _stats_from_counts(xi_vals, chunk.T, connect.T[:, a].T)
    assert_same_stats(got, stats_from_counts_trailing(xi_vals, chunk.T, connect[a]))


def test_oracle_and_estimator_share_rate_and_premium(monkeypatch):
    """Both read a realisation's ``(rate, premium)`` from
    ``ruin.rate_and_premium``; the oracle's paths run on what it returns."""
    assert pathsim.rate_and_premium is ruin.rate_and_premium
    returned, seen, kernel_calls = [], [], []
    real_rates, real_kernel = ruin.rate_and_premium, pathsim.simulate_ruin_batch

    def rates(lam, counts, ratio):
        out = real_rates(lam, counts, ratio)
        returned.append(out)
        seen.append(counts)
        return out

    def kernel(rate, premium, *args):
        kernel_calls.append((rate, premium))
        return real_kernel(rate, premium, *args)

    monkeypatch.setattr(ruin, "rate_and_premium", rates)
    monkeypatch.setattr(pathsim, "rate_and_premium", rates)
    monkeypatch.setattr(pathsim, "simulate_ruin_batch", kernel)
    params = RiskParams(lam=1.0, c=[0.95, 1.05, 1.2], mu=np.ones(3), u=np.ones(2))
    model, group = BlockModel.bernoulli(0.6), AgentSubset.prefix(2)
    estimate(params, model, group, [group.size], 100, base_seed=1)
    # three classes of one object: the 8-point lattice is histogrammed, and
    # each visited count vector is evaluated once
    assert len(returned) == 1 and returned[0][0].shape == (len(seen[0]),)
    assert len(np.unique(seen[0], axis=0)) == len(seen[0]) <= 8
    pathsim.oracle_psi(params, model, group, 50.0, 6, 2, base_seed=1)
    assert len(returned) == 2
    rate, premium = returned[1]
    (path_rate, path_premium), = kernel_calls
    network = np.arange(12) // 2
    assert path_rate.tolist() == rate[network].tolist()
    assert path_premium.tolist() == premium[network].tolist()
