import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zslkit import zsl_eval
from zslkit.embedding import _exact_argmin, _nearest, _pairwise_sq_dists
from zslkit.errors import DataError
from zslkit.zsl_eval import (
    SearchSpace,
    aggregate_metrics,
    build_report,
    classify_nn,
    gzsl_scores,
    harmonic_mean,
    kmeans,
    load_report,
    optimal_assignment,
    per_class_accuracy,
    reports_to_csv,
    save_report,
    transductive_predict,
)

REPO = Path(__file__).resolve().parents[1]


def brute_force_nn(points, ids, embeddings, transform=lambda d: d):
    """Per-point scan over classes, smallest id wins ties."""
    preds = []
    for p in points:
        best = None
        for cid, e in sorted(zip(ids, embeddings), key=lambda t: t[0]):
            d = transform(float(np.linalg.norm(p - e)))
            if best is None or d < best[0]:
                best = (d, cid)
        preds.append(best[1])
    return np.array(preds)


def explicit_argmin(points, embeddings):
    """Nearest row of embeddings by explicit differences, first on ties."""
    diff = points[:, None, :] - embeddings[None, :, :]
    return np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)


def gzsl_nn(unseen_points, unseen_truth, seen_points, seen_truth, space):
    """Generalised scores of nearest-neighbour predictions over one space."""
    return gzsl_scores(
        classify_nn(unseen_points, space), unseen_truth, classify_nn(seen_points, space), seen_truth
    )


def grid_points(rng, n, offset):
    """Points of a 0.1-spaced grid: distances tie up to rounding or exactly."""
    return rng.integers(-3, 4, size=(n, 3)) * 0.1 + offset


def exhaustive_two_partition_wcss(points):
    """Minimum within-cluster sum of squares over all 2-partitions."""
    pts = np.asarray(points, dtype=float)
    best = np.inf
    for bits in range(1, 2 ** len(pts) - 1):
        mask = np.array([(bits >> i) & 1 for i in range(len(pts))], dtype=bool)
        a, b = pts[mask], pts[~mask]
        wcss = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
        best = min(best, wcss)
    return best


class TestClassifyNn:
    def test_exact_embedding_match(self):
        space = SearchSpace([3, 8], [[0.0, 0.0], [5.0, 5.0]])
        pred = classify_nn([[5.0, 5.0]], space)
        assert pred.tolist() == [8]

    def test_tie_breaks_to_smallest_id(self):
        space = SearchSpace([7, 3], [[1.0, 0.0], [-1.0, 0.0]])
        pred = classify_nn([[0.0, 0.0]], space)
        assert pred.tolist() == [3]

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_grid_ties_match_explicit_argmin(self, offset):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            space = SearchSpace(rng.permutation(50)[:20], grid_points(rng, 20, offset))
            points = grid_points(rng, 80, offset)
            want = np.asarray(space.class_ids)[explicit_argmin(points, space.embeddings)]
            np.testing.assert_array_equal(classify_nn(points, space), want)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_prediction_does_not_depend_on_batch(self, offset):
        # the far-out row widens the rounding slack of any batch holding it,
        # so the stacked call decides more rows on exact values than the
        # call on `a` alone; each row must still get the same class
        for seed in range(6):
            rng = np.random.default_rng(seed)
            space = SearchSpace(rng.permutation(50)[:20], grid_points(rng, 20, offset))
            a = grid_points(rng, 80, offset)
            b = np.vstack([grid_points(rng, 40, offset), np.full((1, 3), 1e4)])
            np.testing.assert_array_equal(
                classify_nn(np.vstack([a, b]), space),
                np.concatenate([classify_nn(a, space), classify_nn(b, space)]),
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        ids = [4, 1, 9, 2, 6]
        emb = rng.normal(size=(5, 3))
        points = rng.normal(size=(50, 3))
        space = SearchSpace(ids, emb)
        pred = classify_nn(points, space)
        np.testing.assert_array_equal(pred, brute_force_nn(points, ids, emb))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        ids = [0, 1, 2]
        emb = rng.normal(size=(3, 4))
        points = rng.normal(size=(20, 4))
        space = SearchSpace(ids, emb)
        pred = classify_nn(points, space)
        for transform in (lambda d: d**2, np.exp, lambda d: 3 * d + 1):
            np.testing.assert_array_equal(
                pred, brute_force_nn(points, ids, emb, transform)
            )

    def test_empty_search_space(self):
        with pytest.raises(ValueError):
            SearchSpace([], np.zeros((0, 2)))
            classify_nn([[0.0, 0.0]], SearchSpace([], np.zeros((0, 2))))


class TestPerClassAccuracy:
    def test_all_correct(self):
        assert per_class_accuracy([0, 1], [0, 1], [0, 1]) == 1.0

    def test_forced_by_definition(self):
        pred = [0, 0, 1, 2]
        truth = [0, 0, 1, 1]
        assert per_class_accuracy(pred, truth, [0, 1]) == 0.75

    def test_per_class_not_per_example(self):
        truth = [0] * 98 + [1] * 2
        pred = [2] * 98 + [1] * 2  # class 0: 0/98, class 1: 2/2
        assert per_class_accuracy(pred, truth, [0, 1]) == 0.5

    def test_duplication_invariance(self):
        rng = np.random.default_rng(3)
        truth = np.array([0] * 5 + [1] * 7)
        pred = rng.integers(0, 2, size=12)
        base = per_class_accuracy(pred, truth, [0, 1])
        mask = truth == 1
        pred2 = np.concatenate([pred, pred[mask]])
        truth2 = np.concatenate([truth, truth[mask]])
        assert per_class_accuracy(pred2, truth2, [0, 1]) == pytest.approx(base)

    def test_empty_class_error(self):
        with pytest.raises(DataError):
            per_class_accuracy([0], [0], [0, 1])


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4)

    def test_zero_side(self):
        assert harmonic_mean(0.0, 0.8) == 0.0

    def test_direct_formula(self):
        assert harmonic_mean(0.20, 0.80) == pytest.approx(0.32)

    def test_both_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0


class TestCzsl:
    def test_separated_classes(self):
        emb = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        rng = np.random.default_rng(4)
        points, truth = [], []
        for c in range(3):
            points.append(emb[c] + 0.1 * rng.normal(size=(20, 2)))
            truth += [c] * 20
        space = SearchSpace(range(3), emb)
        pred = classify_nn(np.vstack(points), space)
        assert per_class_accuracy(pred, truth, space.class_ids) == 1.0

    def test_chance_level_with_random_embeddings(self):
        rng = np.random.default_rng(5)
        n_u = 5
        emb = rng.normal(size=(n_u, 8))
        points = rng.normal(size=(1000, 8)) * 10  # unrelated to embeddings
        truth = rng.integers(0, n_u, size=1000)
        # guarantee every class appears
        truth[:n_u] = np.arange(n_u)
        space = SearchSpace(range(n_u), emb)
        acc = per_class_accuracy(classify_nn(points, space), truth, space.class_ids)
        assert abs(acc - 1.0 / n_u) < 0.05

    def test_single_unseen_class(self):
        space = SearchSpace([3], [[1.0, 1.0]])
        pred = classify_nn(np.random.default_rng(6).normal(size=(10, 2)), space)
        acc = per_class_accuracy(pred, [3] * 10, space.class_ids)
        assert acc == 1.0


class TestGzsl:
    def setup_instance(self, far_unseen=False):
        rng = np.random.default_rng(7)
        seen_ids, unseen_ids = [0, 1], [2, 3]
        seen_emb = np.array([[0.0, 0.0], [8.0, 0.0]])
        unseen_emb = np.array([[0.0, 8.0], [8.0, 8.0]])
        if far_unseen:
            unseen_emb = unseen_emb + 1e6
        space = SearchSpace(seen_ids + unseen_ids, np.vstack([seen_emb, unseen_emb]))
        seen_pts = np.vstack(
            [seen_emb[i] + 0.3 * rng.normal(size=(10, 2)) for i in range(2)]
        )
        seen_truth = np.repeat(seen_ids, 10)
        unseen_pts = np.vstack(
            [[0.0, 8.0] + 0.3 * rng.normal(size=(10, 2)),
             [8.0, 8.0] + 0.3 * rng.normal(size=(10, 2))]
        )
        unseen_truth = np.repeat(unseen_ids, 10)
        return unseen_pts, unseen_truth, seen_pts, seen_truth, space

    def test_points_on_embeddings_score_ones(self):
        space = SearchSpace([0, 1], [[0.0, 0.0], [5.0, 5.0]])
        scores = gzsl_nn([[5.0, 5.0]], [1], [[0.0, 0.0]], [0], space)
        assert scores == {"A_UT": 1.0, "A_ST": 1.0, "H": 1.0}

    def test_unseen_embeddings_at_infinity(self):
        u_pts, u_truth, s_pts, s_truth, space = self.setup_instance(far_unseen=True)
        scores = gzsl_nn(u_pts, u_truth, s_pts, s_truth, space)
        assert scores["A_UT"] == 0.0
        assert scores["H"] == 0.0
        seen_only = SearchSpace([0, 1], space.embeddings[:2])
        pred = classify_nn(s_pts, seen_only)
        assert scores["A_ST"] == per_class_accuracy(pred, s_truth, [0, 1])

    def test_matches_brute_force(self):
        u_pts, u_truth, s_pts, s_truth, space = self.setup_instance()
        scores = gzsl_nn(u_pts, u_truth, s_pts, s_truth, space)
        ids = list(space.class_ids)
        emb = space.embeddings
        for pts, truth, got in ((u_pts, u_truth, scores["A_UT"]), (s_pts, s_truth, scores["A_ST"])):
            pred = brute_force_nn(pts, ids, emb)
            accs = []
            for c in np.unique(truth):
                mask = truth == c
                accs.append(np.mean(pred[mask] == c))
            assert got == pytest.approx(np.mean(accs))
        assert scores["H"] == pytest.approx(
            harmonic_mean(scores["A_UT"], scores["A_ST"])
        )

    def test_empty_unseen_reduces_to_seen_only(self):
        _, _, s_pts, s_truth, space = self.setup_instance()
        scores = gzsl_nn(np.zeros((0, 2)), [], s_pts, s_truth, space)
        assert scores["A_UT"] == 0.0
        assert scores["H"] == 0.0
        assert scores["A_ST"] > 0.9


class TestKmeans:
    def test_points_at_k_locations(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.repeat(locs, 5, axis=0)
        result = kmeans(points, 3, seed=0)
        assert result.inertia == 0.0

    def test_deterministic(self):
        pts = np.random.default_rng(8).normal(size=(40, 2))
        a = kmeans(pts, 4, seed=123, n_init=3)
        b = kmeans(pts, 4, seed=123, n_init=3)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_1d_matches_exhaustive_partition(self):
        rng = np.random.default_rng(9)
        hits = 0
        for trial in range(20):
            pts = rng.normal(size=(6, 1)) * rng.uniform(0.5, 3)
            result = kmeans(pts, 2, seed=trial, n_init=5)
            best = exhaustive_two_partition_wcss(pts)
            if result.inertia <= best * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 18

    def test_fewer_points_than_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3)

    def test_fewer_distinct_rows_than_k_is_data_error(self):
        # twelve points, but only three distinct ones, cannot form four clusters
        with pytest.raises(DataError, match="3 distinct points cannot form 4 clusters"):
            kmeans(np.repeat(np.eye(3), 4, axis=0), 4)
        # the first coordinate alone has too few values, the rows do not
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0]])
        assert kmeans(pts, 4, seed=0).inertia == 0.0

    @pytest.mark.parametrize("max_iter", [0, 1, 100])
    def test_grid_assignment_matches_explicit_argmin(self, max_iter):
        # max_iter=0 keeps the k-means++ centres, which are grid points;
        # max_iter=1 stops before converging, so the final assignment is
        # made after the loop, to centroids that are the means of the
        # assignment to those centres
        for seed in range(6):
            rng = np.random.default_rng(seed)
            pts = grid_points(rng, 80, 1e3)
            result = kmeans(pts, 8, seed=seed, max_iter=max_iter)
            assign = explicit_argmin(pts, result.centroids)
            np.testing.assert_array_equal(result.assignments, assign)
            diff = pts - result.centroids[assign]
            assert result.inertia == float(np.einsum("ij,ij->i", diff, diff).sum())
            if max_iter:
                members = assign
                if max_iter == 1:
                    seeding = kmeans(pts, 8, seed=seed, max_iter=0).centroids
                    members = explicit_argmin(pts, seeding)
                means = [pts[members == c].mean(axis=0) for c in range(8)]
                np.testing.assert_array_equal(result.centroids, means)


def lloyd_cases():
    """Inputs whose squared distances tie exactly or up to rounding."""
    rng = np.random.default_rng(30)
    grid = rng.integers(-2, 3, size=(60, 3)).astype(float)
    repeated = rng.normal(size=(12, 4))[rng.integers(12, size=70)]
    cloud = 1e4 + rng.normal(size=(40, 3))
    offset_grid = 1e4 + grid_points(rng, 80, 0.0)
    return [
        pytest.param(grid, 1, id="grid-k1"),
        pytest.param(grid, 9, id="grid"),
        pytest.param(repeated, 12, id="repeated-rows-k-distinct"),
        pytest.param(repeated, 7, id="repeated-rows"),
        pytest.param(cloud, 40, id="offset-cloud-k-n"),
        pytest.param(offset_grid, 8, id="offset-grid"),
    ]


class TestLloydAssignment:
    """Lloyd keeps ||c||^2 - 2 c.x per centroid across passes and recomputes
    only the rows of centroids that moved. Every assignment it makes must be
    the one a fresh full pass over the current centroids makes."""

    @pytest.mark.parametrize("max_iter", [1, 3, 100])
    @pytest.mark.parametrize("X, k", lloyd_cases())
    def test_every_pass_equals_a_fresh_full_pass(self, monkeypatch, X, k, max_iter):
        passes = []

        def checked(points, centers, scores, slack):
            got = _exact_argmin(points, centers, scores, slack)
            fresh = _nearest(points, centers, _pairwise_sq_dists(points, centers))
            np.testing.assert_array_equal(got, fresh)
            np.testing.assert_array_equal(got, explicit_argmin(points, centers))
            # no stale row: each entry is the current centroid's, within slack
            diff = points[None, :, :] - centers[:, None, :]
            want = np.einsum("ijk,ijk->ij", diff, diff) - np.einsum("ij,ij->i", points, points)
            assert np.all(np.abs(scores - want) <= slack)
            passes.append(got)
            return got

        monkeypatch.setattr(zsl_eval, "_exact_argmin", checked)
        result = kmeans(X, k, seed=k, max_iter=max_iter, n_init=2)
        assert len(passes) >= 2
        np.testing.assert_array_equal(result.assignments, explicit_argmin(X, result.centroids))

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the paper-51-50 and slpp-dense shapes of the transductive k-means
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from zslkit.zsl_eval import kmeans\n"
            "h = hashlib.sha256()\n"
            "for n, k, seed in ((953, 101, 1), (1500, 10, 2)):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    X = rng.normal(size=(k, 20))[rng.integers(k, size=n)] + rng.normal(size=(n, 20))\n"
            "    r = kmeans(X, k, seed=seed, n_init=5)\n"
            "    h.update(r.centroids.tobytes() + r.assignments.tobytes() + repr(r.inertia).encode())\n"
            "print(h.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestOptimalAssignment:
    def test_zero_diagonal_identity(self):
        cost = np.full((4, 4), 9.0)
        np.fill_diagonal(cost, 0.0)
        assert optimal_assignment(cost).tolist() == [0, 1, 2, 3]

    def test_two_by_two(self):
        assert optimal_assignment([[1.0, 2.0], [2.0, 1.0]]).tolist() == [0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            cost = rng.uniform(size=(k, k))
            perm = optimal_assignment(cost)
            got = cost[np.arange(k), perm].sum()
            best = min(
                cost[np.arange(k), list(p)].sum()
                for p in itertools.permutations(range(k))
            )
            assert got == pytest.approx(best, abs=1e-12)

    def test_beats_identity_and_random_permutations(self):
        rng = np.random.default_rng(11)
        cost = rng.uniform(size=(8, 8))
        perm = optimal_assignment(cost)
        total = cost[np.arange(8), perm].sum()
        assert total <= cost.trace() + 1e-12
        for _ in range(100):
            p = rng.permutation(8)
            assert total <= cost[np.arange(8), p].sum() + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.array([[np.nan, 1.0], [1.0, 0.0]]))


class TestTransductive:
    def test_degenerate_agreement_with_inductive(self):
        rng = np.random.default_rng(12)
        emb = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        pts = np.vstack([emb[c] + 0.2 * rng.normal(size=(15, 2)) for c in range(3)])
        space = SearchSpace(range(3), emb)
        inductive = classify_nn(pts, space)
        trans = transductive_predict(pts, space, seed=0)
        np.testing.assert_array_equal(inductive, trans)

    def test_boundary_points_inherit_cluster_label(self):
        # two tight clusters, class embeddings offset toward each other so
        # boundary points flip under per-example NN but not under clustering
        rng = np.random.default_rng(13)
        cluster_a = rng.normal(size=(30, 1)) * 0.2
        cluster_b = 10.0 + rng.normal(size=(30, 1)) * 0.2
        boundary = np.array([[4.2]])  # nearer to embedding B, belongs to cluster A
        pts = np.vstack([cluster_a, boundary, cluster_b])
        emb = np.array([[0.0], [7.0]])
        space = SearchSpace([0, 1], emb)
        inductive = classify_nn(pts, space)
        trans = transductive_predict(pts, space, seed=0, n_init=5)
        assert inductive[30] == 1  # |4.2-7| < |4.2-0|
        assert trans[30] == 0  # clustered with A, cluster mapped to class 0
        assert not np.array_equal(inductive, trans)

    def test_input_permutation_invariance(self):
        rng = np.random.default_rng(14)
        emb = rng.normal(size=(3, 2)) * 5
        pts = np.vstack([emb[c] + 0.3 * rng.normal(size=(12, 2)) for c in range(3)])
        perm = rng.permutation(len(pts))
        space = SearchSpace(range(3), emb)
        a = transductive_predict(pts, space, seed=7)
        b = transductive_predict(pts[perm], space, seed=7)
        np.testing.assert_array_equal(a[perm], b)

    def test_fewer_points_than_classes(self):
        with pytest.raises(ValueError):
            transductive_predict(np.zeros((1, 2)), SearchSpace([0, 1], np.zeros((2, 2))))

    def test_fewer_distinct_points_than_classes_is_data_error(self):
        space = SearchSpace(range(4), np.vstack([np.eye(3), np.ones(3)]))
        with pytest.raises(DataError, match="3 distinct points cannot form 4 clusters"):
            transductive_predict(np.repeat(np.eye(3), 4, axis=0), space)

    def test_cluster_assignment_is_bijective_partition(self):
        rng = np.random.default_rng(15)
        emb = rng.normal(size=(4, 3)) * 6
        pts = np.vstack([emb[c] + 0.3 * rng.normal(size=(9, 3)) for c in range(4)])
        pred = transductive_predict(pts, SearchSpace([5, 2, 9, 0], emb), seed=1)
        # every point gets a class, every class gets exactly one cluster, and
        # each embedding row stays paired with its own (unsorted) class id
        np.testing.assert_array_equal(pred, np.repeat([5, 2, 9, 0], 9))


class TestReports:
    def split_metrics(self):
        return [
            {"split_index": 0, "A_UU": 0.5, "A_UT": 0.2, "A_ST": 0.8, "H": harmonic_mean(0.2, 0.8)},
            {"split_index": 1, "A_UU": 0.7, "A_UT": 0.4, "A_ST": 0.6, "H": harmonic_mean(0.4, 0.6)},
        ]

    def test_mean_and_stderr(self):
        mean, stderr = aggregate_metrics(self.split_metrics())
        assert mean["A_UU"] == pytest.approx(0.6)
        values = np.array([0.5, 0.7])
        assert stderr["A_UU"] == pytest.approx(values.std(ddof=1) / np.sqrt(2))

    def test_h_is_averaged_per_split_not_recomputed(self):
        mean, _ = aggregate_metrics(self.split_metrics())
        per_split_mean = np.mean([harmonic_mean(0.2, 0.8), harmonic_mean(0.4, 0.6)])
        assert mean["H"] == pytest.approx(per_split_mean)
        assert mean["H"] != pytest.approx(harmonic_mean(mean["A_UT"], mean["A_ST"]))

    def test_single_split_stderr_zero(self):
        mean, stderr = aggregate_metrics([{"A_UU": 0.5}])
        assert stderr["A_UU"] == 0.0

    def test_round_trip_and_csv(self, tmp_path):
        report = build_report(
            "toy", "afv", "inductive", self.split_metrics(), config={"d_latent": 4},
            seeds={"master": 1},
        )
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.mean == report.mean
        assert loaded.config == {"d_latent": 4}
        csv_text = reports_to_csv([loaded])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "dataset,method,setting,metric,mean,stderr"
        assert len(lines) == 1 + 4  # four metrics present
