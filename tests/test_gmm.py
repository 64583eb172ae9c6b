import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from zslkit.embedding import _kmeanspp_indices
from zslkit.encoders import VectorBag, fisher_encode
from zslkit.gmm import (
    DiagGmm,
    _logsumexp,
    fit_diag_gmm,
    gmm_posteriors,
    log_likelihood,
    weighted_log_densities,
)


def naive_posteriors(weights, means, variances, v):
    """Direct density-ratio evaluation, no log-space tricks."""
    joint = []
    for pi, mu, var in zip(weights, means, variances):
        dens = 1.0
        for d in range(len(v)):
            dens *= math.exp(-0.5 * (v[d] - mu[d]) ** 2 / var[d]) / math.sqrt(
                2 * math.pi * var[d]
            )
        joint.append(pi * dens)
    total = sum(joint)
    return np.array([j / total for j in joint])


def explicit_log_densities(weights, means, variances, X):
    """log(pi_k) + log N(x_i; mu_k, var_k) from explicit differences."""
    diff2 = (X[:, None, :] - means[None, :, :]) ** 2
    return np.log(weights) - 0.5 * np.sum(
        np.log(2 * np.pi * variances) + diff2 / variances, axis=2
    )


def mixture_and_points(offset, n=300, d=128, k=5, seed=0):
    """A K-component mixture and points drawn near it, all shifted by offset."""
    rng = np.random.default_rng(seed)
    means = offset + 3.0 * rng.normal(size=(k, d))
    variances = rng.uniform(0.5, 2.0, size=(k, d))
    weights = rng.dirichlet(np.ones(k))
    comp = rng.integers(k, size=n)
    X = means[comp] + np.sqrt(variances[comp]) * rng.normal(size=(n, d))
    return DiagGmm(weights=weights, means=means, variances=variances), X


def best_two_cluster_split(points):
    """Exhaustive oracle: the hard 2-partition of a 1-D pool whose induced
    mixture (per-cluster mean/biased variance, proportional weights)
    maximizes the data log-likelihood."""
    pts = np.asarray(points, dtype=float)
    best = None
    for mask_bits in range(1, 2 ** len(pts) - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(len(pts))], dtype=bool)
        a, b = pts[mask], pts[~mask]
        if a.var() == 0 or b.var() == 0:
            continue
        gmm = DiagGmm(
            weights=np.array([len(a), len(b)]) / len(pts),
            means=np.array([[a.mean()], [b.mean()]]),
            variances=np.array([[a.var()], [b.var()]]),
        )
        ll = log_likelihood(gmm, pts[:, None])
        if best is None or ll > best[0]:
            best = (ll, sorted([a.mean(), b.mean()]))
    return best


class TestClosedFormK1:
    def test_two_point_pool(self):
        gmm = fit_diag_gmm(np.array([[0.0], [2.0]]), k=1)
        assert gmm.weights.tolist() == [1.0]
        assert gmm.means.tolist() == [[1.0]]
        assert gmm.variances.tolist() == [[1.0]]  # biased 1/n variance

    def test_biased_variance(self):
        pool = np.array([[1.0], [2.0], [6.0]])
        gmm = fit_diag_gmm(pool, k=1)
        assert gmm.variances[0, 0] == pytest.approx(pool.var(), abs=1e-12)

    def test_posteriors_all_one(self):
        gmm = fit_diag_gmm(np.random.default_rng(0).normal(size=(20, 3)), k=1)
        post = gmm_posteriors(gmm, np.zeros(3))
        assert post.tolist() == [1.0]


class TestPosteriors:
    def test_symmetric_midpoint(self):
        gmm = DiagGmm(
            weights=[0.5, 0.5],
            means=[[-1.0], [1.0]],
            variances=[[1.0], [1.0]],
        )
        post = gmm_posteriors(gmm, np.array([0.0]))
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-15)

    def test_matches_naive_density_ratio(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k, d = 3, int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(k))
            means = rng.normal(size=(k, d))
            variances = rng.uniform(0.2, 2.0, size=(k, d))
            gmm = DiagGmm(weights=w, means=means, variances=variances)
            v = rng.normal(size=d)
            np.testing.assert_allclose(
                gmm_posteriors(gmm, v),
                naive_posteriors(w, means, variances, v),
                rtol=1e-10,
            )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        gmm = DiagGmm(
            weights=rng.dirichlet(np.ones(4)),
            means=rng.normal(size=(4, 2)) * 50,  # far apart: exercises log-space
            variances=rng.uniform(0.01, 1.0, size=(4, 2)),
        )
        post = gmm_posteriors(gmm, rng.normal(size=(100, 2)) * 50)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)


INF = np.inf
LOGSUMEXP_CASES = {
    "repeated-maxima": [[1.0, 1.0, 0.0], [2.0, 2.0, 2.0], [-3.0, 5.0, 5.0]],
    "minus-inf-entries": [[-INF, 0.0, 1.0], [-INF, -INF, 3.0], [0.5, -INF, 0.5]],
    "all-minus-inf-row": [[-INF, -INF, -INF], [0.0, 1.0, 2.0]],
    "plus-minus-1e300": [[1e300, 1e300, -1e300], [-1e300, -1e300, -1e300], [1e300, 0.0, -1e300]],
    "single-column": [[3.0], [-INF], [1e300], [-1e300], [-2.0]],
    "inf-and-nan": [[INF, 0.0], [INF, INF], [np.nan, 0.0]],
}


class TestLogsumexp:
    """The numpy logsumexp against scipy's, byte for byte, so that Fisher
    encodings keep the bits they had when EM called scipy."""

    @pytest.mark.parametrize("name", sorted(LOGSUMEXP_CASES))
    def test_edge_rows_match_scipy(self, name):
        a = np.array(LOGSUMEXP_CASES[name])
        with np.errstate(all="ignore"):
            ref = logsumexp(a, axis=1)
        assert _logsumexp(a).tobytes() == ref.tobytes()

    def test_em_shaped_rows_match_scipy(self):
        rng = np.random.default_rng(8)
        gmm = DiagGmm(weights=rng.dirichlet(np.ones(5)), means=rng.normal(size=(5, 16)),
                      variances=rng.uniform(0.05, 2.0, size=(5, 16)))
        a = weighted_log_densities(gmm, rng.normal(size=(400, 16)) * 3)
        top = a[::7].max(axis=1)
        a[::7, 0], a[::7, 1] = top, top  # repeated maxima in every 7th row
        assert _logsumexp(a).tobytes() == logsumexp(a, axis=1).tobytes()


class TestEmFit:
    def test_separated_clusters_match_exhaustive_split(self):
        pts = np.array([0.0, 0.1, 10.0, 10.1])
        _, oracle_means = best_two_cluster_split(pts)
        assert oracle_means == pytest.approx([0.05, 10.05])
        best = None
        for seed in range(5):
            gmm = fit_diag_gmm(pts[:, None], k=2, seed=seed)
            ll = gmm.loglik_trace[-1]
            if best is None or ll > best[0]:
                best = (ll, gmm)
        means = sorted(best[1].means.ravel().tolist())
        np.testing.assert_allclose(means, oracle_means, atol=1e-3)

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(7)
        for run in range(10):
            n = int(rng.integers(20, 200))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            pool = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1))
            gmm = fit_diag_gmm(pool, k=k, seed=run)
            diffs = np.diff(gmm.loglik_trace)
            assert np.all(diffs >= -1e-9), f"run {run}: decrease {diffs.min()}"

    def test_deterministic_for_seed(self):
        pool = np.random.default_rng(5).normal(size=(60, 4))
        a = fit_diag_gmm(pool, k=3, seed=11)
        b = fit_diag_gmm(pool, k=3, seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.weights, b.weights)

    def test_pool_smaller_than_k(self):
        with pytest.raises(ValueError):
            fit_diag_gmm(np.zeros((2, 3)) + np.arange(2)[:, None], k=3)

    def test_zero_variance_dimension_with_floor(self):
        pool = np.column_stack([np.arange(5.0), np.ones(5)])
        gmm = fit_diag_gmm(pool, k=1)
        assert gmm.variances[0, 1] == pytest.approx(1e-6)

    def test_weights_sum_to_one(self):
        pool = np.random.default_rng(2).normal(size=(100, 2))
        gmm = fit_diag_gmm(pool, k=4, seed=0)
        assert abs(gmm.weights.sum() - 1.0) <= 1e-12
        assert np.all(gmm.weights > 0)


class TestValidation:
    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=[0.5, 0.6], means=[[0.0], [1.0]], variances=[[1.0], [1.0]])

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=[1.0], means=[[0.0]], variances=[[0.0]])


class TestMatmulForms:
    """The matmul forms of the E-step, M-step and Fisher encoding against
    explicit (n, K, D) difference references, on data far from the origin."""

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_log_densities_match_explicit_differences(self, offset):
        gmm, X = mixture_and_points(offset)
        ref = explicit_log_densities(gmm.weights, gmm.means, gmm.variances, X)
        got = weighted_log_densities(gmm, X)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    def test_one_m_step_matches_explicit_differences(self):
        _, X = mixture_and_points(1e3)
        k, seed = 5, 4
        # the state EM starts from: k-means++ means on the uncentred pool
        means = X[_kmeanspp_indices(X, k, np.random.default_rng(seed))]
        variances = np.tile(X.var(axis=0), (k, 1))
        log_joint = explicit_log_densities(np.full(k, 1.0 / k), means, variances, X)
        resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
        nk = resp.sum(axis=0)
        ref_means = (resp.T @ X) / nk[:, None]
        diff2 = (X[:, None, :] - ref_means[None, :, :]) ** 2
        ref_var = np.einsum("nk,nkd->kd", resp, diff2) / nk[:, None]

        gmm = fit_diag_gmm(X, k, max_iter=1, seed=seed)
        np.testing.assert_allclose(gmm.weights, nk / nk.sum(), rtol=0, atol=1e-12)
        assert np.max(np.abs(gmm.means - ref_means)) <= 1e-12 * np.max(np.abs(ref_means))
        assert np.max(np.abs(gmm.variances - ref_var)) <= 1e-12 * np.max(ref_var)

    def test_fisher_encoding_matches_explicit_differences(self):
        gmm, X = mixture_and_points(1e3)
        gamma = gmm_posteriors(gmm, X)
        diff = X[:, None, :] - gmm.means[None, :, :]
        g_mu = np.einsum("nk,nkd->kd", gamma, diff / np.sqrt(gmm.variances))
        g_sigma = np.einsum("nk,nkd->kd", gamma, diff**2 / gmm.variances - 1.0)
        ref = np.concatenate([
            (g_mu / np.sqrt(gmm.weights)[:, None]).ravel(),
            (g_sigma / np.sqrt(2.0 * gmm.weights)[:, None]).ravel(),
        ])
        got = fisher_encode(gmm, VectorBag(class_id=0, vectors=X))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_em_at_d4096_within_memory_bound(self):
        # a deep-feature pool; one (n, K, D) difference tensor would be
        # 5x the pool's own bytes, and the parent's EM peaked near 20x
        rng = np.random.default_rng(12)
        pool = rng.normal(size=(2000, 4096)) + rng.integers(0, 3, size=(2000, 1))
        tracemalloc.start()
        try:
            gmm = fit_diag_gmm(pool, 5, max_iter=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * pool.nbytes
        assert gmm.loglik_trace.shape == (3,)
