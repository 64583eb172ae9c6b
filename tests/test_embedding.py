import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from zslkit import embedding
from zslkit.embedding import (
    _choice,
    _kmeanspp_indices,
    _pairwise_sq_dists,
    class_landmarks,
    knn_affinity,
    lsm_embed,
    median_pairwise_distance,
    project,
    semantic_distance_matrix,
    slpp_fit,
)
from zslkit.encoders import SemanticSpace
from zslkit.errors import DataError, NumericalError


def make_blobs(rng, n_classes=3, per_class=20, d=10, spread=0.3, sep=5.0):
    centers = rng.normal(size=(n_classes, d)) * sep
    X = np.vstack([centers[c] + spread * rng.normal(size=(per_class, d)) for c in range(n_classes)])
    labels = np.repeat(np.arange(n_classes), per_class)
    return X, labels


def slpp_matrices(X, labels, n_neighbors, width, reg=1e-8):
    """Test-side reconstruction of the eigenproblem matrices."""
    W = knn_affinity(X, labels, n_neighbors, width).weights
    row = W.sum(axis=1)
    A = X.T @ (X * row[:, None] - W @ X)
    B = X.T @ (X * row[:, None])
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    B[np.diag_indices(B.shape[0])] += reg * np.trace(B) / B.shape[0]
    return A, B


def explicit_sq_dists(X, Y):
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def distinct_rank_affinity(X, labels, k, width):
    """Test-side kNN graph by an explicit-difference scan that ranks each
    row's distinct positive distances, with the same-class fallback."""
    d2 = explicit_sq_dists(X, X)
    n = X.shape[0]
    W = np.zeros((n, n))
    for i in range(n):
        others = np.flatnonzero((np.arange(n) != i) & (d2[i] > 0))
        if others.size == 0:
            continue
        ranks = np.unique(d2[i, others])
        cutoff = ranks[min(k, ranks.size) - 1]
        for j in others[d2[i, others] <= cutoff]:
            if labels[i] == labels[j]:
                W[i, j] = np.exp(-d2[i, j] / (2.0 * width**2))
    W = np.maximum(W, W.T)
    for i in np.flatnonzero(W.sum(axis=1) == 0):
        mates = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
        W[i, mates] = W[mates, i] = np.exp(-d2[i, mates] / (2.0 * width**2))
    return W


def grid_points(rng, n, d, offset):
    """Points of a 0.1-spaced grid: many distances equal up to rounding,
    some exactly, and some duplicated points."""
    X = rng.integers(-3, 4, size=(n, d)) * 0.1 + offset
    X[: n // 5] = X[n // 5 : 2 * (n // 5)]
    return X


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_slpp_reference(X, labels, n_neighbors, width_scale, d_latent):
    """SLPP on dense n x n weights, as embedding fitted it before its graphs
    became (rows, cols, weights) pairs: one full distance matrix, the median
    of its strict upper triangle, every row's kNN pairs, W = max(W, W^T) with
    the empty-row fallback, then D = W.sum(axis=1) and a dense W @ X.
    Returns (eigenvalues, projection, number of rows the fallback filled)."""
    n, d = X.shape
    d2 = _pairwise_sq_dists(X, X)
    upper = d2[np.triu(d2 > 0, 1)]
    scale = 2.0 * (width_scale * float(np.sqrt(np.median(upper)))) ** 2
    norms = embedding._sq_norms(X)
    slack = embedding._slack(norms[1], norms[1], d)
    i, j, dist = embedding._knn_exact(X, d2, slack, 0, n_neighbors)
    keep = labels[i] == labels[j]
    W = np.zeros((n, n))
    W[i[keep], j[keep]] = np.exp(-dist[keep] / scale)
    W = np.maximum(W, W.T)
    empty = np.flatnonzero(W.sum(axis=1) == 0)
    for r in empty:
        mates = np.flatnonzero(labels == labels[r])
        mates = mates[mates != r]
        W[r, mates] = np.exp(-embedding._exact_sq_dists(X, X, np.full(mates.size, r), mates) / scale)
        W[mates, r] = W[r, mates]
    row_sums = W.sum(axis=1)
    XD = X * row_sums[:, None]
    A = X.T @ (XD - W @ X)
    B = X.T @ XD
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    B[np.diag_indices(d)] += embedding._SLPP_REG * np.trace(B) / d
    vals, vecs = embedding._generalized_eigh(A, B)
    kept = []
    for idx in range(d):
        y = X @ vecs[:, idx]
        if y.std() > 1e-9 * max(1.0, float(np.abs(y).max())):
            kept.append(idx)
        if len(kept) == d_latent:
            break
    return vals[kept], vecs[:, kept], empty.size


def principal_angles(P, Q):
    """Principal angles (radians) between the column spaces of P and Q."""
    sv = np.linalg.svd(np.linalg.qr(P)[0].T @ np.linalg.qr(Q)[0], compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


class TestDistanceKernel:
    @pytest.mark.parametrize("d", [1, 3, 20, 128])
    def test_matches_explicit_differences(self, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(70, d)) * rng.uniform(0.5, 20.0)
        Y = np.vstack([rng.normal(size=(30, d)), X[:5]])
        got = _pairwise_sq_dists(X, Y)
        want = explicit_sq_dists(X, Y)
        off = want > 0
        assert np.max(np.abs(got[off] - want[off]) / want[off]) <= 1e-12
        assert np.all(got[~off] == 0.0)

    def test_coincident_rows_exactly_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 16)) * 1e3 + 1e4
        X = np.vstack([X, X[::3]])
        got = _pairwise_sq_dists(X, X)
        want = explicit_sq_dists(X, X)
        assert np.all(np.diag(got) == 0.0)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.all(got >= 0.0)

    def test_coincident_rows_in_later_blocks(self, monkeypatch):
        # four rows of X per block: the rows shared with Y sit in blocks 6
        # and 7, so their refinement must index X from the block's start
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(12, 5)) * 2.0 + 3.0
        X = np.vstack([rng.normal(size=(25, 5)) * 2.0 + 3.0, Y[[7, 2, 7, 11, 0]]])
        monkeypatch.setattr(embedding, "_BLOCK_BYTES", 9 * Y.shape[0] * 4)
        got = _pairwise_sq_dists(X, Y)
        want = explicit_sq_dists(X, Y)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.count_nonzero(got == 0.0) == 5
        off = want > 0
        assert np.max(np.abs(got[off] - want[off]) / want[off]) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_known_zero_pairs_match_the_plain_kernel(self, monkeypatch, offset):
        # four rows of X per block: the known pairs sit in blocks 6 and 7.
        # Y repeats rows (grid_points copies Y[2:4] to Y[:2]) and rows 3, 10
        # and 17 of X copy rows of Y, so entries within slack besides the
        # known pairs must still be recomputed by explicit differences
        rng = np.random.default_rng(3)
        Y = grid_points(rng, 12, 8, offset)
        picked = np.array([7, 2, 7, 11, 0])
        X = np.vstack([grid_points(rng, 25, 8, offset), Y[picked]])
        X[[3, 10, 17]] = Y[[5, 9, 1]]
        zero = (np.arange(25, 30), picked)
        monkeypatch.setattr(embedding, "_BLOCK_BYTES", 9 * Y.shape[0] * 4)
        got = _pairwise_sq_dists(X, Y, y_norms=embedding._sq_norms(Y), zero=zero)
        np.testing.assert_array_equal(got, _pairwise_sq_dists(X, Y))
        want = explicit_sq_dists(X, Y)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.count_nonzero(got == 0.0) >= picked.size + 3

    # rows per block of one item: all 12 in one block, 4 per block, or 24,
    # which puts two whole items in each block
    @pytest.mark.parametrize("block_rows", [None, 4, 24])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_stacked_items_match_their_2d_calls(self, monkeypatch, block_rows, offset):
        # five items with their own scales, norms and slack. Rows 9-11 of
        # each X are the known zero pairs; rows 1 and 4 copy rows of Y that
        # differ from item to item without being named, so the exact
        # recomputation must find them in the right item
        rng = np.random.default_rng(4)
        Y = np.stack([grid_points(rng, 12, 8, offset * b) * (b + 1) for b in range(5)])
        picked = np.array([7, 2, 11])
        X = np.concatenate(
            [np.stack([grid_points(rng, 9, 8, offset * b) * (b + 1) for b in range(5)]),
             Y[:, picked]], axis=1,
        )
        items, copied = np.arange(5), np.array([[5, 9], [6, 0], [8, 3], [10, 4], [1, 5]])
        X[items[:, None], [1, 4]] = Y[items[:, None], copied]
        zero = (np.arange(9, 12), picked)
        if block_rows:
            monkeypatch.setattr(embedding, "_BLOCK_BYTES", 9 * Y.shape[1] * block_rows)
        got = _pairwise_sq_dists(X, Y, embedding._sq_norms(X), embedding._sq_norms(Y), zero)
        assert got.shape == (5, 12, 12)
        for b in range(5):
            np.testing.assert_array_equal(got[b], _pairwise_sq_dists(X[b], Y[b], zero=zero))
            np.testing.assert_array_equal(got[b], _pairwise_sq_dists(X[b], Y[b]))
        assert np.all(got[items[:, None], [1, 4], copied] == 0.0)
        assert np.all(got[:, 9:][:, [0, 1, 2], picked] == 0.0)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_distances_to_one_row_match_the_plain_kernel(self, d, offset):
        # the one-row form k-means++ uses must keep the kernel's bytes
        rng = np.random.default_rng(d)
        X = grid_points(rng, 300, d, offset)
        norms = embedding._sq_norms(X)
        for i in (0, 7, 299):
            want = _pairwise_sq_dists(X, X[[i]])[:, 0]
            np.testing.assert_array_equal(embedding._sq_dists_to_row(X, norms, i), want)


def kmeanspp_reference(X, k, rng):
    """Test-side k-means++ seeding by explicit differences."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1))
    return np.array(chosen)


class TestKmeansppSeeding:
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_matches_explicit_reference_and_rng_state(self, k, offset):
        X = grid_points(np.random.default_rng(20), 60, 3, offset)
        for seed in range(10):
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _kmeanspp_indices(X, k, rng_got)
            want = kmeanspp_reference(X, k, rng_want)
            np.testing.assert_array_equal(got, want)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("kind", ["tie-rich", "zero-heavy", "one-nonzero"])
    def test_draw_matches_rng_choice(self, kind):
        # _choice relies on how numpy implements Generator.choice with p
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 400))
            if kind == "tie-rich":
                w = rng.integers(1, 4, size=n).astype(float)
            elif kind == "zero-heavy":
                w = rng.random(n) * (rng.random(n) < 0.05)
                w[rng.integers(n)] = 1.0
            else:
                w = np.zeros(n)
                w[rng.integers(n)] = 0.5
            p = w / w.sum()
            seed = int(rng.integers(2**32))
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert _choice(got, p) == want.choice(n, p=p)
                assert got.bit_generator.state == want.bit_generator.state

    def test_all_coincident_rows_draw_uniformly(self):
        X = np.full((7, 3), 2.5)
        rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
        got = _kmeanspp_indices(X, 5, rng_got)
        np.testing.assert_array_equal(got, kmeanspp_reference(X, 5, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestKnnAffinity:
    def test_two_points_same_label(self):
        g = knn_affinity(np.array([[0.0], [1.0]]), [1, 1], n_neighbors=1, width=1.0)
        assert g.weights[0, 1] == pytest.approx(np.exp(-0.5))
        assert g.weights[0, 1] == g.weights[1, 0] > 0
        assert g.weights[0, 0] == g.weights[1, 1] == 0

    def test_two_points_different_labels_error(self):
        # singleton classes can never satisfy the positive-row invariant
        with pytest.raises(DataError, match="class 0 has a single example"):
            knn_affinity(np.array([[0.0], [1.0]]), [0, 1], n_neighbors=1, width=1.0)

    def test_blobs_within_class_edges_only(self):
        rng = np.random.default_rng(0)
        X, labels = make_blobs(rng)
        g = knn_affinity(X, labels, n_neighbors=5, width=1.0)
        rows, cols = np.nonzero(g.weights)
        assert np.all(labels[rows] == labels[cols])
        assert np.all(g.weights.sum(axis=1) > 0)
        np.testing.assert_allclose(g.weights, g.weights.T, atol=0)

    def test_neighbor_check_matches_direct_scan(self):
        rng = np.random.default_rng(1)
        X, labels = make_blobs(rng, n_classes=2, per_class=8, d=3)
        k = 3
        g = knn_affinity(X, labels, n_neighbors=k, width=2.0)
        n = X.shape[0]
        expect = np.zeros((n, n))
        for i in range(n):
            d2 = np.sum((X - X[i]) ** 2, axis=1)
            d2[i] = np.inf
            for j in np.argsort(d2, kind="stable")[:k]:
                if labels[i] == labels[j]:
                    expect[i, j] = np.exp(-d2[j] / (2 * 4.0))
        expect = np.maximum(expect, expect.T)
        np.testing.assert_allclose(g.weights, expect, atol=1e-15)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_grid_ties_match_distinct_rank_scan(self, k, offset):
        rng = np.random.default_rng(k)
        X = grid_points(rng, 60, 3, offset)
        labels = rng.integers(0, 3, size=60)
        g = knn_affinity(X, labels, n_neighbors=k, width=1.5)
        np.testing.assert_array_equal(g.weights, distinct_rank_affinity(X, labels, k, 1.5))

    @pytest.mark.parametrize("k", [1, 2])
    def test_candidate_window_widens_to_the_full_sort(self, k):
        # d=1 on a 0.1 grid, half the values once and half 2-59 times: a
        # row's first k + 1 merged groups close inside the first window, the
        # widened one or only the full row, and windows end inside runs of
        # equal values
        rng = np.random.default_rng(31 + k)
        mult = np.where(rng.random(24) < 0.5, 1, rng.integers(2, 60, size=24))
        X = np.repeat(np.arange(24) * 0.1, mult)[:, None]
        labels = rng.integers(0, 2, size=X.shape[0])
        d2 = _pairwise_sq_dists(X, X)
        norms = embedding._sq_norms(X)
        slack = embedding._slack(norms[1], norms[1], 1)

        order = np.argsort(d2, axis=1, kind="stable")
        ranked = np.take_along_axis(d2, order, axis=1)
        group = np.zeros(ranked.shape, dtype=np.int64)
        np.cumsum(np.diff(ranked, axis=1) > 2.0 * slack, axis=1, out=group[:, 1:])
        want_count = (group <= k).sum(axis=1)
        w = 4 * (k + 1)
        assert np.any(want_count < w) and np.any(want_count >= 4 * w)
        assert np.any((want_count >= w) & (want_count < 4 * w))
        assert np.any(ranked[:, w - 1] == ranked[:, w])

        got_order, got_count = embedding._knn_candidates(d2, slack, k)
        np.testing.assert_array_equal(got_count, want_count)
        for r, count in enumerate(want_count):
            np.testing.assert_array_equal(got_order[r, :count], order[r, :count])
        g = knn_affinity(X, labels, n_neighbors=k, width=0.3)
        np.testing.assert_array_equal(g.weights, distinct_rank_affinity(X, labels, k, 0.3))

    def test_memory_at_n2000(self):
        # the dense weights knn_affinity returns are the one n x n float64
        # array (30.5 MB); the graph itself is built from streamed row blocks,
        # candidate windows and kNN pairs, so a distance matrix or a
        # symmetrized copy of the weights breaks the bound
        rng = np.random.default_rng(23)
        X = rng.normal(size=(2000, 64))
        labels = np.repeat(np.arange(20), 100)
        peak = traced_peak(lambda: knn_affinity(X, labels, n_neighbors=10, width=8.0))
        assert peak < 1.5 * 2000 * 2000 * 8

    def test_empty_row_fallback_connects_class(self):
        # class 1's points sit between class-0 points, so their nearest
        # neighbour is from the wrong class; the fallback joins them.
        X = np.array([[0.0], [0.4], [0.6], [1.0]])
        labels = np.array([0, 1, 1, 0])
        g = knn_affinity(X, labels, n_neighbors=1, width=1.0)
        assert g.weights[1, 2] > 0 and g.weights[2, 1] > 0
        assert np.all(g.weights.sum(axis=1) > 0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            knn_affinity(np.zeros((3, 1)), [0, 0, 0], n_neighbors=1, width=0.0)

    @pytest.mark.parametrize("width", [None, 1.0])
    def test_one_point_is_rejected_before_any_distance(self, monkeypatch, width):
        def no_distances(*args, **kwargs):
            raise AssertionError("distance pass started")

        monkeypatch.setattr(embedding, "_pairwise_sq_dists", no_distances)
        with pytest.raises(ValueError, match="need at least two points"):
            slpp_fit(np.ones((1, 3)), [0], d_latent=1, n_neighbors=1, width=width)
        with pytest.raises(ValueError, match="need at least two points"):
            knn_affinity(np.ones((1, 3)), [0], n_neighbors=1, width=1.0)

    def test_every_neighbour_count_is_checked_before_any_distance(self, monkeypatch):
        def no_distances(*args, **kwargs):
            raise AssertionError("distance pass started")

        monkeypatch.setattr(embedding, "_pairwise_sq_dists", no_distances)
        X, labels = make_blobs(np.random.default_rng(9), per_class=4, d=3)
        with pytest.raises(ValueError, match=r"n_neighbors must be in \[1, 11\], got 12"):
            embedding.slpp_fit_many(X, labels, d_latent=1, graphs=[(3, 1.0), (12, 1.0)])
        with pytest.raises(ValueError, match=r"got 0"):
            knn_affinity(X, labels, n_neighbors=0, width=1.0)


class TestSlpp:
    def test_eigen_residuals(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            X, labels = make_blobs(rng, d=8)
            width = median_pairwise_distance(X)
            model = slpp_fit(X, labels, d_latent=3, n_neighbors=5, width=width)
            A, B = slpp_matrices(X, labels, 5, width)
            for col, lam in zip(model.projection.T, model.eigenvalues):
                residual = np.linalg.norm(A @ col - lam * (B @ col)) / np.linalg.norm(col)
                assert residual < 1e-8, f"trial {trial}: residual {residual}"

    def test_constraint_orthonormality(self):
        rng = np.random.default_rng(3)
        X, labels = make_blobs(rng, d=6)
        width = median_pairwise_distance(X)
        model = slpp_fit(X, labels, d_latent=3, n_neighbors=5, width=width)
        _, B = slpp_matrices(X, labels, 5, width)
        gram = model.projection.T @ B @ model.projection
        assert np.abs(gram - np.eye(3)).max() < 1e-6

    def test_separates_blobs(self):
        rng = np.random.default_rng(4)
        X, labels = make_blobs(rng, n_classes=2, d=10)
        model = slpp_fit(X, labels, d_latent=2, n_neighbors=5)
        Y = project(model, X)
        within, between = [], []
        for i in range(len(Y)):
            for j in range(i + 1, len(Y)):
                d = np.linalg.norm(Y[i] - Y[j])
                (within if labels[i] == labels[j] else between).append(d)
        assert np.mean(within) < np.mean(between)

    def test_duplication_leaves_subspace(self):
        rng = np.random.default_rng(5)
        X, labels = make_blobs(rng, n_classes=2, per_class=10, d=6)
        width = median_pairwise_distance(X)
        m1 = slpp_fit(X, labels, d_latent=2, n_neighbors=3, width=width)
        m2 = slpp_fit(
            np.vstack([X, X]), np.concatenate([labels, labels]),
            d_latent=2, n_neighbors=3, width=width,
        )
        # principal angles between the two 2-D subspaces
        q1, _ = np.linalg.qr(m1.projection)
        q2, _ = np.linalg.qr(m2.projection)
        sv = np.linalg.svd(q1.T @ q2, compute_uv=False)
        angles = np.arccos(np.clip(sv, -1, 1))
        assert np.max(angles) < 1e-6

    def test_objective_beats_random_feasible_projections(self):
        rng = np.random.default_rng(6)
        X, labels = make_blobs(rng, d=6)
        width = median_pairwise_distance(X)
        model = slpp_fit(X, labels, d_latent=2, n_neighbors=5, width=width)
        A, B = slpp_matrices(X, labels, 5, width)
        fitted = np.trace(model.projection.T @ A @ model.projection)
        R = np.linalg.cholesky(B).T
        Rinv = np.linalg.inv(R)
        for _ in range(200):
            raw = rng.normal(size=(6, 2))
            Q, _ = np.linalg.qr(raw)
            P = Rinv @ Q
            value = np.trace(P.T @ A @ P)
            assert fitted <= value + 1e-9

    @pytest.mark.parametrize("n_neighbors,width_scale", [(3, 1.0), (8, 0.5)])
    def test_smaller_fit_is_the_leading_directions_of_a_larger_one(
        self, n_neighbors, width_scale
    ):
        X, labels = make_blobs(np.random.default_rng(11), n_classes=4, d=12)
        kw = dict(n_neighbors=n_neighbors, width_scale=width_scale)
        big = slpp_fit(X, labels, d_latent=9, **kw)
        for d in (1, 4, 9):
            small = slpp_fit(X, labels, d_latent=d, **kw)
            assert np.array_equal(big.projection[:, :d], small.projection)
            assert np.array_equal(big.eigenvalues[:d], small.eigenvalues)
            lead = embedding.leading_directions(big, d)
            assert lead.d_latent == d
            assert lead.projection.tobytes("A") == small.projection.tobytes("A")
            for order in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
                assert lead.projection.flags[order] == small.projection.flags[order]
            assert lead.eigenvalues.tobytes() == small.eigenvalues.tobytes()
        with pytest.raises(ValueError):
            embedding.leading_directions(big, 10)

    def test_too_many_dimensions_requested(self):
        rng = np.random.default_rng(7)
        X, labels = make_blobs(rng, n_classes=2, per_class=5, d=3)
        with pytest.raises(NumericalError):
            slpp_fit(X, labels, d_latent=10, n_neighbors=3)

    def test_all_weights_underflowing_names_the_width(self, monkeypatch):
        # exp(-d^2 / (2 w^2)) is 0 for every pair at these widths; the error
        # comes before the eigenproblem and names the width it came from
        def no_eigenproblem(*args):
            raise AssertionError("eigenproblem reached")

        monkeypatch.setattr(embedding, "_generalized_eigh", no_eigenproblem)
        X, labels = make_blobs(np.random.default_rng(7), d=3)
        median = median_pairwise_distance(X)
        with pytest.raises(NumericalError, match=(
            rf"^width_scale 1e-06 gives kernel width {1e-6 * median:.6g} "
            rf"\(median distance {median:.6g}\), which underflows every heat-kernel weight"
        )):
            slpp_fit(X, labels, d_latent=2, n_neighbors=3, width_scale=1e-6)
        with pytest.raises(NumericalError, match=r"^kernel width 1e-06 underflows"):
            slpp_fit(X, labels, d_latent=2, n_neighbors=3, width=1e-6)
        with pytest.raises(NumericalError, match=r"^kernel width 1e-06 underflows"):
            knn_affinity(X, labels, n_neighbors=3, width=1e-6)

    @pytest.mark.parametrize("blobs,scale,width", [
        pytest.param({}, 1e160, None, id="None"),
        pytest.param({}, 1e160, 1.0, id="1.0"),
        pytest.param(dict(d=8, spread=1.0, sep=0.0), 5e152, None, id="matrices-overflow"),
    ])
    def test_overflowing_features_are_data_error(self, blobs, scale, width):
        # at 1e160 the squared norms stop the fit before any distance is
        # formed (with an explicit width every heat-kernel weight would
        # underflow to 0 and the constraint matrix be singular); unit-normal
        # points at 5e152 pass that check, but X^T D X overflows, and the
        # DataError comes without a RuntimeWarning
        X, labels = make_blobs(np.random.default_rng(8), **blobs)
        with pytest.raises(DataError, match="features overflow"):
            slpp_fit(X * scale, labels, d_latent=2, n_neighbors=3, width=width)


class TestSlppFitMany:
    GRAPHS = [(k, s) for k in (1, 3, 6) for s in (0.5, 1.0, 2.0)]

    @pytest.mark.parametrize("width", [None, 0.7])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_each_model_is_its_own_slpp_fit(self, offset, width):
        # tie-rich grid points, a fifth of them duplicated, with the graph
        # settings repeated out of order
        rng = np.random.default_rng(17)
        X = grid_points(rng, 90, 4, offset)
        labels = rng.integers(0, 3, size=90)
        graphs = self.GRAPHS + self.GRAPHS[::-2]
        many = embedding.slpp_fit_many(X, labels, d_latent=3, graphs=graphs, width=width)
        assert len(many) == len(graphs)
        for (k, s), model in zip(graphs, many):
            one = slpp_fit(X, labels, d_latent=3, n_neighbors=k, width_scale=s, width=width)
            assert model.d_latent == one.d_latent == 3
            assert model.projection.tobytes("A") == one.projection.tobytes("A")
            assert model.eigenvalues.tobytes() == one.eigenvalues.tobytes()

    def test_memory_at_n1000(self):
        # the (n, n) float64 matrix is 8 MB. No n x n array is built: the
        # median's strict upper triangle is 0.5 of it, and the distances are
        # streamed in row blocks of about 1 MB beside it. A dense distance
        # matrix or dense weights would break the one-graph bound
        rng = np.random.default_rng(24)
        X = rng.normal(size=(1000, 64))
        labels = np.repeat(np.arange(10), 100)
        matrix = 1000 * 1000 * 8
        one = traced_peak(lambda: slpp_fit(X, labels, d_latent=10, n_neighbors=10))
        graphs = [(k, s) for k in (5, 10) for s in (0.5, 1.0, 2.0)]
        many = traced_peak(lambda: embedding.slpp_fit_many(X, labels, d_latent=10, graphs=graphs))
        assert one <= 1.2 * matrix
        # beyond one graph's peak, each further n_neighbors k keeps its kNN
        # pairs, (row, col, exact distance) in 24 bytes for each of about n k
        # pairs; a fit that kept a graph's weights after its solve, or built
        # them as an n x n array, would not fit
        assert many <= one + 24 * 1000 * sum({5, 10})

    def test_memory_at_n5000(self):
        # one UCF-sized training set at d=256: the triangle buffer alone is
        # 0.5 of the (n, n) float64 matrix (200 MB), so 0.6 leaves 20 MB for
        # the streamed blocks, the pairs and the solve
        rng = np.random.default_rng(25)
        X = rng.normal(size=(5000, 256))
        labels = np.repeat(np.arange(50), 100)
        peak = traced_peak(lambda: slpp_fit(X, labels, d_latent=10, n_neighbors=10))
        assert peak <= 0.6 * 5000 * 5000 * 8


class TestPairGraphAgainstDense:
    """SLPP on the (rows, cols, weights) graph against dense_slpp_reference:
    the row sums and W X are added up in another order, so A and B may move in
    their last bits, and the fit stays within rounding of the dense one."""

    @staticmethod
    def inputs(case):
        rng = np.random.default_rng(31)
        if case == "integer-grid":  # many exactly tied distances, some duplicate points
            return rng.integers(-3, 4, size=(120, 6)).astype(float), rng.integers(0, 4, size=120)
        if case == "duplicated-rows":
            X, labels = make_blobs(rng, n_classes=3, per_class=25, d=6)
            return np.vstack([X, X[::3]]), np.concatenate([labels, labels[::3]])
        # interleaved classes: many rows have no same-class neighbour
        return rng.normal(size=(90, 6)), rng.integers(0, 3, size=90)

    @pytest.mark.parametrize("n_neighbors,width_scale", [(1, 1.0), (5, 0.5)])
    @pytest.mark.parametrize("case", ["integer-grid", "duplicated-rows", "empty-rows"])
    def test_fit_matches_dense_weights(self, case, n_neighbors, width_scale):
        X, labels = self.inputs(case)
        vals, P, filled = dense_slpp_reference(X, labels, n_neighbors, width_scale, 4)
        if case == "empty-rows":
            assert filled > 0
        model = slpp_fit(X, labels, d_latent=4, n_neighbors=n_neighbors, width_scale=width_scale)
        assert np.abs(model.eigenvalues - vals).max() <= 1e-12 * np.abs(vals).max()
        assert principal_angles(model.projection, P).max() < 1e-6


class TestGeneralizedEigh:
    """The numpy.linalg reduction against scipy.linalg.eigh(A, B), kept here
    only as a reference."""

    @pytest.mark.parametrize("d", [3, 8, 64, 256])
    def test_matches_scipy_reference(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            G = rng.normal(size=(d, 2 * d))
            H = rng.normal(size=(d, 2 * d))
            A = G @ G.T - d * np.eye(d)  # symmetric, indefinite
            B = H @ H.T + 0.1 * np.eye(d)  # symmetric positive definite
            ref_vals, ref_vecs = scipy.linalg.eigh(A, B)
            vals, vecs = embedding._generalized_eigh(A, B)
            assert np.abs(vals - ref_vals).max() <= 1e-12 * np.abs(ref_vals).max()
            # same sign on every column: B-inner products near +1, not -1
            assert (np.sum(ref_vecs * (B @ vecs), axis=0) > 0).all()
            assert np.abs(vecs.T @ B @ vecs - np.eye(d)).max() <= 1e-10

    def test_indefinite_constraint_is_numerical_error(self):
        A = np.eye(3)
        B = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NumericalError, match="singular beyond regularization"):
            embedding._generalized_eigh(A, B)


class TestMedianPairwiseDistance:
    @staticmethod
    def triu_reference(X):
        d2 = _pairwise_sq_dists(X, X)
        upper = d2[np.triu_indices(X.shape[0], k=1)]
        return float(np.sqrt(np.median(upper[upper > 0])))

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("n", [2, 9, 60, 201])
    def test_matches_upper_triangle_reference(self, n, offset):
        # tie-rich grid points, a fifth of them duplicated
        X = grid_points(np.random.default_rng(n), n, 3, offset)
        if np.all(X == X[0]):
            X[-1] += 0.1
        assert median_pairwise_distance(X) == self.triu_reference(X)

    def test_duplicating_every_point_matches_reference(self):
        X = make_blobs(np.random.default_rng(21), per_class=15, d=4)[0]
        X = np.vstack([X, X])
        assert median_pairwise_distance(X) == self.triu_reference(X)

    def test_all_coincident_is_data_error(self):
        with pytest.raises(DataError, match="coincide"):
            median_pairwise_distance(np.ones((5, 3)))

    @pytest.mark.parametrize("values", [
        pytest.param([3.0, 1.0, 2.0], id="odd"),
        pytest.param([0.4, 0.1, 0.3, 0.2], id="even"),
        pytest.param([0.0, 0.0, 0.7, 0.0, 0.1, 0.3], id="leading-zeros-odd"),
        pytest.param([0.0, 0.1, 0.0, 0.2, 0.0, 0.0, 0.4, 0.3], id="leading-zeros-even"),
        pytest.param([0.2, 0.2, 0.0, 0.2, 0.1, 0.1], id="repeated"),
        pytest.param([0.0, 5.0], id="one-positive"),
    ])
    def test_in_place_median_is_np_median(self, values):
        values = np.array(values)
        want = np.median(values[values > 0])
        assert embedding._positive_median(values.copy()) == want

    @pytest.mark.parametrize("size", [1, 2, 7, 50, 51])
    def test_in_place_median_random_buffers(self, size):
        # random sums like 0.1 + 0.2 make the even-count average round
        rng = np.random.default_rng(size)
        for _ in range(50):
            values = rng.integers(0, 4, size=size) * 0.1 + rng.integers(0, 2, size=size) * 0.2
            if not values.any():
                continue
            want = np.median(values[values > 0])
            assert embedding._positive_median(values) == want

    def test_in_place_median_of_no_positive_entry_is_data_error(self):
        with pytest.raises(DataError, match="coincide"):
            embedding._positive_median(np.zeros(6))

    def test_memory_at_n2000(self):
        # the strict upper triangle of the distances is 15.3 MB, half the
        # (n, n) matrix; holding the matrix, or upper-triangle index arrays
        # (two int64 arrays of n(n-1)/2 entries, 32 MB), breaks the bound
        X = np.random.default_rng(22).normal(size=(2000, 16))
        assert traced_peak(lambda: median_pairwise_distance(X)) < 0.75 * 2000 * 2000 * 8


class TestPaperScaleMemory:
    def test_graph_stage_at_d4096_within_memory_bound(self):
        # the distance stages of slpp_fit at a 4,096-d CNN feature; an
        # explicit difference tensor would take 300 * 300 * 4096 * 8 B = 2.9 GB
        rng = np.random.default_rng(16)
        X = rng.normal(size=(300, 4096))
        labels = np.repeat(np.arange(10), 30)
        tracemalloc.start()
        try:
            width = median_pairwise_distance(X)
            graph = knn_affinity(X, labels, n_neighbors=10, width=width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(graph.weights.sum(axis=1) > 0)


class TestProject:
    def model(self):
        return slpp_fit(*make_blobs(np.random.default_rng(8), d=5), d_latent=2, n_neighbors=5)

    def test_zero_maps_to_zero(self):
        assert np.all(project(self.model(), np.zeros(5)) == 0)

    def test_linearity(self):
        m = self.model()
        rng = np.random.default_rng(9)
        x1, x2 = rng.normal(size=5), rng.normal(size=5)
        lhs = project(m, 2.0 * x1 - 3.0 * x2)
        rhs = 2.0 * project(m, x1) - 3.0 * project(m, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batch_equals_rowwise(self):
        m = self.model()
        X = np.random.default_rng(10).normal(size=(4, 5))
        batch = project(m, X)
        rows = np.vstack([project(m, x) for x in X])
        np.testing.assert_allclose(batch, rows, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(self.model(), np.zeros(7))


class TestLandmarks:
    def test_single_example_per_class(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        ids, lm = class_landmarks(Y, [5, 9])
        assert ids.tolist() == [5, 9]
        np.testing.assert_array_equal(lm, Y)

    def test_midpoint(self):
        Y = np.array([[0.0, 0.0], [2.0, 2.0]])
        _, lm = class_landmarks(Y, [0, 0])
        np.testing.assert_array_equal(lm, [[1.0, 1.0]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        Y = rng.normal(size=(10, 3))
        labels = np.array([0, 1] * 5)
        perm = rng.permutation(10)
        _, a = class_landmarks(Y, labels)
        _, b = class_landmarks(Y[perm], labels[perm])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_missing_class_error(self):
        with pytest.raises(DataError):
            class_landmarks(np.zeros((2, 2)), [0, 0], class_ids=[0, 1])


class TestSemanticDistances:
    def test_identical_reps_distance_zero(self):
        space = SemanticSpace((0, 1), [[1.0, 2.0], [1.0, 2.0]], "cosine")
        D = semantic_distance_matrix(space)
        assert D[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_reps_cosine(self):
        space = SemanticSpace((0, 1), [[1.0, 0.0], [0.0, 1.0]], "cosine")
        assert semantic_distance_matrix(space)[0, 1] == pytest.approx(1.0)

    def test_euclidean_1d(self):
        space = SemanticSpace((0, 1), [[0.0], [3.0]], "euclidean")
        assert semantic_distance_matrix(space)[0, 1] == pytest.approx(3.0)

    def test_zero_vector_cosine_error_names_class(self):
        space = SemanticSpace((4, 7), [[0.0, 0.0], [1.0, 0.0]], "cosine")
        with pytest.raises(DataError, match="4"):
            semantic_distance_matrix(space)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(12)
        space = SemanticSpace(tuple(range(5)), rng.normal(size=(5, 4)), "euclidean")
        D = semantic_distance_matrix(space)
        np.testing.assert_allclose(D, D.T, atol=0)
        assert np.all(np.diag(D) == 0)


def two_landmark_instance():
    """Feasible placement: landmarks at (0,0) and (2,0), one unseen class at
    semantic distance 1 from both. The seen-seen semantic distance of 2
    makes the latent/semantic scale exactly 1, so the analytic optimum is
    (1, 0) with zero stress."""
    landmarks = np.array([[0.0, 0.0], [2.0, 0.0]])
    dist = np.array(
        [
            [0.0, 2.0, 1.0],
            [2.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    return landmarks, [0, 1], dist, [0, 1, 2], [2]


class TestLsmEmbed:
    def test_two_landmark_analytic_optimum(self):
        landmarks, seen, dist, order, unseen = two_landmark_instance()
        Y, trace = lsm_embed(landmarks, seen, dist, order, unseen, seed=0)
        assert trace.final_stress < 1e-6
        assert abs(Y[0, 0] - 1.0) < 1e-3
        assert abs(Y[0, 1]) < 1e-3

    def test_zero_unseen_classes(self):
        landmarks, seen, dist, order, _ = two_landmark_instance()
        Y, trace = lsm_embed(landmarks, seen, dist[:2, :2], [0, 1], [], seed=0)
        assert Y.shape == (0, 2)
        assert trace.stresses.size == 0

    def test_stationary_start(self):
        landmarks, seen, dist, order, unseen = two_landmark_instance()
        Y, trace = lsm_embed(
            landmarks, seen, dist, order, unseen, init=np.array([[1.0, 0.0]])
        )
        assert trace.final_stress == pytest.approx(trace.stresses[0], abs=1e-10)

    def test_traces_non_increasing_random_instances(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            n_s = int(rng.integers(2, 6))
            n_u = int(rng.integers(1, 4))
            d = int(rng.integers(2, 4))
            landmarks = rng.normal(size=(n_s, d)) * 2
            pts = rng.normal(size=(n_s + n_u, d)) * 2
            dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            order = list(range(n_s + n_u))
            _, trace = lsm_embed(
                landmarks, order[:n_s], dist, order, order[n_s:],
                max_iter=200, seed=trial,
            )
            assert np.all(np.diff(trace.stresses) <= 0)
            assert trace.final_stress <= trace.stresses[0]

    @staticmethod
    def planted_instance(instance):
        """4 landmarks and 2 unseen classes at planted points in 8-D, so
        d_latent >= landmarks and the targets can be fitted exactly."""
        pts = np.random.default_rng(instance).normal(size=(6, 8))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        return pts[:4], [0, 1, 2, 3], dist, list(range(6)), [4, 5]

    @pytest.mark.parametrize("instance,seed", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_exact_fit_restarts_tie_to_the_first(self, instance, seed):
        # every exact fit is optimal; restarts end at stresses below 1e-12
        # that differ only by where each descent stopped
        _, trace = lsm_embed(
            *self.planted_instance(instance), seed=seed, restarts=3, max_iter=500
        )
        assert trace.final_stress < 1e-12
        assert trace.restart_index == 0

    def test_clearly_lower_later_restart_wins(self, monkeypatch):
        # every restart of a placement descends in one stack: record each
        # start's final stress as the stacked descent returns it
        finals = []
        descend = embedding._descend_many

        def recording(*args, **kwargs):
            Y, traces = descend(*args, **kwargs)
            finals.extend(trace[-1] for trace in traces)
            return Y, traces

        monkeypatch.setattr(embedding, "_descend_many", recording)
        chosen = []
        for seed in range(4):
            finals.clear()
            _, trace = lsm_embed(
                *self.planted_instance(2), seed=seed, restarts=3, max_iter=500
            )
            best = int(np.argmin(finals))
            assert min(finals) < finals[0] - 1e-12 or best == 0
            assert trace.restart_index == best
            assert trace.final_stress == finals[best]
            chosen.append(best)
        assert any(chosen)

    @staticmethod
    def coincident_instance(case):
        """4 landmarks and 2 unseen classes in 20-D, and a start Y0 whose two
        unseen rows coincide ("unseen") or whose first sits on landmark 2
        ("landmark"). The offset and seed make the Gram form round those
        coincident pairs away from 0 (on OpenBLAS), so only the exact pass
        brings them back. The seen-seen targets are the kernel's own
        landmark distances, so the target scale is exactly 1."""
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(6, 20)) * 2.0 + 50.0
        landmarks = pts[:4]
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        dist[:4, :4] = np.sqrt(_pairwise_sq_dists(landmarks, landmarks))
        Y0 = rng.normal(size=(2, 20)) * 2.0 + 50.0
        if case == "unseen":
            Y0[1] = Y0[0]
        else:
            Y0[0] = landmarks[2]
        return landmarks, dist, Y0

    @pytest.mark.parametrize("case", ["unseen", "landmark"])
    def test_stress_equals_the_plain_kernel_expression(self, case):
        landmarks, dist, Y0 = self.coincident_instance(case)
        order = list(range(6))
        _, trace = lsm_embed(landmarks, order[:4], dist, order, [4, 5], init=Y0, max_iter=0)
        d = np.sqrt(_pairwise_sq_dists(Y0, np.concatenate([landmarks, Y0])))
        d_us, d_uu = d[:, :4], d[:, 4:]
        assert (d_uu[0, 1] if case == "unseen" else d_us[0, 2]) == 0.0
        delta_us, delta_upper = dist[4:, :4], dist[4, 5]
        stress = np.sum((delta_us - d_us) ** 2 / delta_us)
        stress += np.sum((delta_upper - d_uu[[0], [1]]) ** 2 / delta_upper)
        stress /= delta_us.sum() + delta_upper
        assert trace.stresses.tolist() == [stress]

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(14)
        landmarks = rng.normal(size=(4, 2))
        pts = rng.normal(size=(6, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        order = list(range(6))
        init = rng.normal(size=(2, 2))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        t = np.array([3.0, -1.0])
        Y1, tr1 = lsm_embed(landmarks, order[:4], dist, order, order[4:], init=init, max_iter=300)
        Y2, tr2 = lsm_embed(
            landmarks @ R.T + t, order[:4], dist, order, order[4:],
            init=init @ R.T + t, max_iter=300,
        )
        np.testing.assert_allclose(Y2, Y1 @ R.T + t, atol=1e-8)
        np.testing.assert_allclose(tr1.final_stress, tr2.final_stress, atol=1e-12)

    def test_nearest_landmark_tracks_semantic_proximity(self):
        rng = np.random.default_rng(15)
        landmarks = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        # seen-seen distances from the landmark geometry keep scale = 1
        dist = np.zeros((4, 4))
        pts3 = landmarks
        for i in range(3):
            for j in range(3):
                dist[i, j] = np.linalg.norm(pts3[i] - pts3[j])
        eps = 0.05
        dist[3, 0] = dist[0, 3] = eps
        dist[3, 1] = dist[1, 3] = 10.0
        dist[3, 2] = dist[2, 3] = 10.0
        Y, _ = lsm_embed(landmarks, [0, 1, 2], dist, [0, 1, 2, 3], [3], seed=0)
        d_to_landmarks = np.linalg.norm(landmarks - Y[0], axis=1)
        assert np.argmin(d_to_landmarks) == 0

    def test_zero_semantic_distance_clamped_with_warning(self):
        landmarks, seen, dist, order, unseen = two_landmark_instance()
        dist = dist.copy()
        dist[2, 0] = dist[0, 2] = 0.0
        with pytest.warns(UserWarning, match="clamped"):
            Y, trace = lsm_embed(landmarks, seen, dist, order, unseen, max_iter=50, seed=0)
        assert np.all(np.isfinite(Y))

    def test_overlapping_seen_unseen_ids(self):
        landmarks, seen, dist, order, _ = two_landmark_instance()
        with pytest.raises(ValueError):
            lsm_embed(landmarks, seen, dist, order, [1])


def reference_descents(problem, max_iter, tol):
    """lsm_embed's restarts one at a time, as they ran before they descended
    as one stack: the 2-D stress and gradient and Python-scalar step
    halving. Returns (Y, stresses, why it stopped) per restart."""
    pl = embedding._placement(**problem)
    landmarks, delta_us, delta_uu = pl.landmarks, pl.delta_us, pl.delta_uu
    n_u, n_s = delta_us.shape
    iu = np.triu_indices(n_u, k=1)
    delta_upper = delta_uu[iu]
    delta_uu_floor = np.maximum(delta_uu, 1e-12)
    points = np.empty((n_s + n_u, landmarks.shape[1]))
    points[:n_s] = landmarks
    points2 = np.empty(n_s + n_u)
    points2[:n_s], lm2_max = embedding._sq_norms(landmarks)
    own = np.arange(n_u)

    def evaluate(Y):
        points[n_s:] = Y
        y_norms = embedding._sq_norms(Y)
        points2[n_s:] = y_norms[0]
        p_norms = (points2, max(lm2_max, y_norms[1]))
        dist = np.sqrt(_pairwise_sq_dists(Y, points, y_norms, p_norms, (own, own + n_s)))
        d_us, d_uu = dist[:, :n_s], dist[:, n_s:]
        stress = ((delta_us - d_us) ** 2 / delta_us).sum()
        if n_u > 1:
            stress += ((delta_upper - d_uu[iu]) ** 2 / delta_upper).sum()
        return stress / pl.sum_delta, (d_us, d_uu)

    def gradient(Y, dists):
        d_us, d_uu = dists
        coef = (delta_us - d_us) / (delta_us * np.maximum(d_us, 1e-12))
        coef_uu = (delta_uu - d_uu) / (delta_uu_floor * np.maximum(d_uu, 1e-12))
        coef_uu[own, own] = 0.0
        weight = coef.sum(axis=1) + coef_uu.sum(axis=1)
        grad = weight[:, None] * Y - coef @ landmarks - coef_uu @ Y
        return -2.0 * grad / pl.sum_delta

    runs = []
    for Y in pl.starts:
        stress, dists = evaluate(Y)
        trace = [stress]
        step = embedding._FIRST_STEP
        why = "max_iter"
        for _ in range(max_iter):
            grad = gradient(Y, dists)
            while step >= embedding._MIN_STEP:
                Y_new = Y - step * grad
                s_new, d_new = evaluate(Y_new)
                if s_new <= stress:
                    break
                step *= 0.5
            else:
                why = "min_step"
                break
            Y, dists = Y_new, d_new
            change = stress - s_new
            stress = s_new
            trace.append(stress)
            step = min(step * 2.0, 1e12)
            if stress == 0.0 or change <= tol * max(stress, 1e-300):
                why = "zero" if stress == 0.0 else "tol"
                break
        runs.append((Y, np.asarray(trace), why))
    return runs


def random_problem(rng, n_u, restarts, seed):
    n_s = int(rng.integers(1, 8))
    d = int(rng.integers(1, 13))
    pts = rng.normal(size=(n_s + n_u, int(rng.integers(2, 9)))) * rng.choice([0.01, 1.0, 100.0])
    order = [int(c) for c in rng.permutation(n_s + n_u)]
    return dict(
        landmarks=rng.normal(size=(n_s, d)) * rng.choice([0.1, 1.0, 30.0]) + rng.choice([0.0, 50.0]),
        seen_ids=order[:n_s], dist_semantic=np.linalg.norm(pts[:, None] - pts[None, :], axis=2),
        class_order=order, unseen_ids=order[n_s:], restarts=restarts, seed=seed,
    )


class TestStackedDescent:
    """Every start of a stack follows the per-restart descent bit for bit."""

    @staticmethod
    def assert_every_start_matches(problems, max_iter, tol):
        group = [embedding._placement(**p) for p in problems]
        Y, traces = embedding._descend_many(group, max_iter, tol)
        runs = [run for p in problems for run in reference_descents(p, max_iter, tol)]
        assert len(traces) == len(runs) == Y.shape[0]
        for b, (Y_ref, trace_ref, _) in enumerate(runs):
            assert Y[b].tobytes() == Y_ref.tobytes()
            assert traces[b].tobytes() == trace_ref.tobytes()
        return runs

    @staticmethod
    def assert_placement_matches(problem, result, max_iter, tol):
        runs = reference_descents(problem, max_iter, tol)
        best = 0
        for r in range(1, len(runs)):
            if runs[r][1][-1] < runs[best][1][-1] - embedding._STRESS_TIE:
                best = r
        Y, trace = result
        assert Y.tobytes() == runs[best][0].tobytes()
        assert trace.stresses.tobytes() == runs[best][1].tobytes()
        assert trace.final_stress == runs[best][1][-1]
        assert trace.restart_index == best

    @pytest.mark.parametrize("n_u", [1, 2, 3, 4, 5, 6])
    def test_random_instances(self, n_u):
        # n_u >= 3 runs the upper-triangle stress sum over several pairs
        rng = np.random.default_rng(30 + n_u)
        for trial in range(6):
            problem = random_problem(rng, n_u, int(rng.integers(1, 5)), trial)
            max_iter = int(rng.integers(0, 120))
            tol = float(rng.choice([0.0, 1e-9, 1e-4]))
            self.assert_every_start_matches([problem], max_iter, tol)
            result = lsm_embed(**problem, max_iter=max_iter, tol=tol)
            self.assert_placement_matches(problem, result, max_iter, tol)

    @pytest.mark.parametrize("case", ["unseen", "landmark"])
    def test_coincident_starts(self, case):
        landmarks, dist, Y0 = TestLsmEmbed.coincident_instance(case)
        order = list(range(6))
        problem = dict(
            landmarks=landmarks, seen_ids=order[:4], dist_semantic=dist,
            class_order=order, unseen_ids=[4, 5], init=Y0,
        )
        self.assert_every_start_matches([problem], 60, 1e-9)

    def test_exact_fit_stops_at_zero_stress(self):
        landmarks, seen, dist, order, unseen = two_landmark_instance()
        problem = dict(
            landmarks=landmarks, seen_ids=seen, dist_semantic=dist, class_order=order,
            unseen_ids=unseen, init=np.array([[1.0, 0.0]]),
        )
        (run,) = self.assert_every_start_matches([problem], 100, 0.0)
        assert run[2] == "zero"
        assert run[1].tolist() == [0.0, 0.0]

    def test_tol_stopped_descents_of_unequal_length(self):
        problem = random_problem(np.random.default_rng(53), 3, 5, 3)
        runs = self.assert_every_start_matches([problem], 500, 1e-4)
        assert {why for _, _, why in runs} == {"tol"}
        assert len({trace.size for _, trace, _ in runs}) > 1

    def test_start_that_runs_out_of_steps(self):
        # a non-finite start rejects every trial: its step halves below
        # _MIN_STEP, and it stops where it started
        landmarks, seen, dist, order, unseen = two_landmark_instance()
        problem = dict(
            landmarks=landmarks, seen_ids=seen, dist_semantic=dist, class_order=order,
            unseen_ids=unseen, init=np.array([[np.nan, 0.0]]),
        )
        with np.errstate(invalid="ignore"):
            (run,) = self.assert_every_start_matches([problem], 100, 0.0)
        assert run[2] == "min_step"
        assert run[1].size == 1

    def test_starts_of_several_placements_stop_in_different_rounds(self):
        # starts leave a stack of several placements one by one, so the
        # stack is compacted while others still search
        base = random_problem(np.random.default_rng(61), 3, 3, 0)
        problems = [dict(base, seed=seed, dist_semantic=base["dist_semantic"] * (1.0 + seed / 10))
                    for seed in range(3)]
        problems.append(dict(base, init=np.full((3, base["landmarks"].shape[1]), np.nan)))
        with np.errstate(invalid="ignore"):
            runs = self.assert_every_start_matches(problems, 400, 1e-4)
        assert [why for _, _, why in runs] == ["tol"] * 9 + ["min_step"]
        assert len({trace.size for _, trace, _ in runs[:9]}) > 1

    def test_mixed_shapes_in_one_call(self, monkeypatch):
        rng = np.random.default_rng(40)
        problems = [random_problem(rng, n_u, restarts, seed)
                    for seed, (n_u, restarts) in enumerate([(3, 2), (1, 3), (4, 1), (2, 2)])]
        # two more placements of the first problem's shape, one of them from
        # a given start, and one with no unseen class to place
        for seed, init in ((7, None), (8, rng.normal(size=(3, problems[0]["landmarks"].shape[1])))):
            other = dict(problems[0], seed=seed, init=init)
            other["dist_semantic"] = other["dist_semantic"] * (1.0 + seed / 10)
            problems.append(other)
        problems.append(dict(problems[1], unseen_ids=[]))

        descend, groups = embedding._descend_many, []

        def recording(group, max_iter, tol):
            groups.append([p.starts.shape for p in group])
            return descend(group, max_iter, tol)

        monkeypatch.setattr(embedding, "_descend_many", recording)
        results = embedding.lsm_embed_many(problems, max_iter=80, tol=1e-9)
        assert len(results) == len(problems)
        # one stack per shape, its placements in call order
        shape = problems[0]["landmarks"].shape[1]
        assert groups[0] == [(2, 3, shape), (2, 3, shape), (1, 3, shape)]
        assert len(groups) == 4
        for problem, result in zip(problems[:-1], results[:-1]):
            self.assert_placement_matches(problem, result, 80, 1e-9)
            alone = lsm_embed(**problem, max_iter=80, tol=1e-9)
            assert alone[0].tobytes() == result[0].tobytes()
            assert alone[1].stresses.tobytes() == result[1].stresses.tobytes()
        Y, trace = results[-1]
        assert Y.shape == (0, problems[1]["landmarks"].shape[1])
        assert trace.stresses.size == 0
