"""Zero-shot recognition protocols and metrics.

Conventional evaluation searches labels among unseen classes only;
generalised evaluation searches seen and unseen classes jointly and
reports per-class accuracies for both groups plus their harmonic mean.
The transductive variant replaces per-example nearest-neighbour decisions
with structured prediction: k-means clustering of the whole test set
followed by a minimum-cost one-to-one map from clusters to classes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data_io import _atomic_write
from .embedding import (
    _exact_sq_dists,
    _kmeanspp_indices,
    _nearest,
    _pairwise_sq_dists,
    _sq_dists_to_row,
    _sq_norms,
)
from .errors import DataError

METRIC_KEYS = ("A_UU", "A_UT", "A_ST", "H")


@dataclass(frozen=True)
class SearchSpace:
    """Class embeddings a test point is matched against.

    Rows are kept sorted by class id so that distance ties resolve to the
    smallest id.
    """

    class_ids: tuple[int, ...]
    embeddings: np.ndarray  # (C, d)

    def __post_init__(self):
        ids = [int(c) for c in self.class_ids]
        emb = np.atleast_2d(np.asarray(self.embeddings, dtype=np.float64))
        if len(ids) != emb.shape[0]:
            raise ValueError(f"{len(ids)} class ids but {emb.shape[0]} embedding rows")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class ids in search space")
        order = np.argsort(ids, kind="stable")
        object.__setattr__(self, "class_ids", tuple(ids[i] for i in order))
        object.__setattr__(self, "embeddings", emb[order])


def classify_nn(points, space: SearchSpace) -> np.ndarray:
    """Assign every point the id of its Euclidean-nearest class embedding.

    Exact distance ties resolve to the smallest class id.
    """
    if len(space.class_ids) == 0:
        raise ValueError("empty search space")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d2 = _pairwise_sq_dists(points, space.embeddings)
    return np.asarray(space.class_ids)[_nearest(points, space.embeddings, d2)]


def per_class_accuracy(pred, truth, class_set) -> float:
    """Mean over classes of the within-class accuracy.

    Robust to class imbalance: every class contributes equally regardless
    of its test-set size. Every class in class_set must have at least one
    test example.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"{pred.shape[0]} predictions for {truth.shape[0]} labels")
    classes = sorted(int(c) for c in class_set)
    if not classes:
        raise ValueError("empty class set")
    extra = set(truth.tolist()) - set(classes)
    if extra:
        raise ValueError(f"truth labels {sorted(extra)} outside the class set")
    acc = 0.0
    for c in classes:
        mask = truth == c
        if not mask.any():
            raise DataError(f"class {c} has no test examples")
        acc += float(np.mean(pred[mask] == c))
    return acc / len(classes)


def harmonic_mean(a_u: float, a_s: float) -> float:
    """2ab / (a + b), defined as 0 when both accuracies are 0."""
    if a_u + a_s == 0:
        return 0.0
    return 2.0 * a_u * a_s / (a_u + a_s)


def gzsl_scores(pred_unseen, truth_unseen, pred_seen, truth_seen) -> dict:
    """Generalised metrics of predictions made over seen + unseen classes:
    A_UT and A_ST are the per-class accuracies of the unseen and the seen
    test group, H their harmonic mean.

    An empty test group scores 0 for its accuracy, which forces H to 0.
    """

    def accuracy(pred, truth):
        truth = np.asarray(truth)
        return per_class_accuracy(pred, truth, np.unique(truth)) if truth.size else 0.0

    a_u, a_s = accuracy(pred_unseen, truth_unseen), accuracy(pred_seen, truth_seen)
    return {"A_UT": a_u, "A_ST": a_s, "H": harmonic_mean(a_u, a_s)}


@dataclass(frozen=True)
class KmeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int) -> KmeansResult:
    k, d = centers.shape
    points, columns = np.arange(X.shape[0]), np.arange(d)
    norms = _sq_norms(X)

    def assign(centers):
        c_norms = _sq_norms(centers)
        d2 = _pairwise_sq_dists(X, centers, norms, c_norms)
        return d2, _nearest(X, centers, d2, norms, c_norms)

    assignments = None
    for _ in range(max_iter):
        d2, new_assign = assign(centers)
        # empty-cluster repair, in cluster order: move the centroid to the
        # point farthest from the centroid it is currently assigned to
        c = 0
        while True:
            empty = np.flatnonzero(np.bincount(new_assign, minlength=k)[c:] == 0)
            if empty.size == 0:
                break
            c += int(empty[0])
            worst = int(np.argmax(_exact_sq_dists(X, centers, points, new_assign)))
            centers[c] = X[worst]
            d2[:, c] = _sq_dists_to_row(X, norms, worst)
            new_assign = _nearest(X, centers, d2, norms)
            c += 1
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        # a weighted bincount adds each cluster's rows in row order; one
        # call over the flattened (cluster, column) bins does every column
        sums = np.bincount(
            (assignments[:, None] * d + columns).ravel(), weights=X.ravel(), minlength=k * d
        )
        centers = sums.reshape(k, d) / np.bincount(assignments, minlength=k)[:, None]
    else:
        # out of iterations: the centroids moved after the last assignment.
        # A converged run breaks with the assignment of its final centroids.
        assignments = assign(centers)[1]
    inertia = float(_exact_sq_dists(X, centers, points, assignments).sum())
    return KmeansResult(centroids=centers, assignments=assignments, inertia=inertia)


def kmeans(points, k: int, *, seed: int = 0, max_iter: int = 100, n_init: int = 1) -> KmeansResult:
    """Lloyd's algorithm from k-means++ seeding.

    Runs n_init seeded restarts and keeps the lowest inertia (ties break
    toward the earlier restart). Deterministic for a fixed seed.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if X.shape[0] < k:
        raise ValueError(f"{X.shape[0]} points cannot form {k} clusters")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, n_init)):
        result = _lloyd(X, X[_kmeanspp_indices(X, k, rng)], max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def optimal_assignment(cost) -> np.ndarray:
    """Minimum-total-cost bijection rows -> columns of a square cost matrix.

    Returns perm with perm[i] the column matched to row i.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def transductive_predict(
    points, space: SearchSpace, *, seed: int = 0, n_init: int = 5
) -> np.ndarray:
    """Structured prediction over the whole test collection.

    The points form one k-means cluster per candidate class; clusters are
    matched to classes by the minimum-cost one-to-one assignment of squared
    centroid-to-embedding distances, and every member of a cluster receives
    its matched class.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = len(space.class_ids)
    if X.shape[0] < k:
        raise ValueError(f"{X.shape[0]} test points cannot cover {k} classes")
    clusters = kmeans(X, k, seed=seed, n_init=n_init)
    perm = optimal_assignment(_pairwise_sq_dists(clusters.centroids, space.embeddings))
    return np.asarray(space.class_ids)[perm][clusters.assignments]


@dataclass
class EvalReport:
    """Aggregated per-split metrics for one method under one setting."""

    dataset: str
    method: str
    setting: str  # "inductive" | "transductive"
    splits: list  # [{"split_index": int, metric: value, ...}]
    mean: dict = field(default_factory=dict)
    stderr: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)


def aggregate_metrics(split_metrics) -> tuple[dict, dict]:
    """Mean and standard error (sample stddev / sqrt(n)) per metric key.

    The harmonic mean is averaged per split, not recomputed from the
    averaged accuracies; the two disagree in general.
    """
    keys = [k for k in METRIC_KEYS if any(k_present(m, k) for m in split_metrics)]
    mean, stderr = {}, {}
    for key in keys:
        values = np.array([m[key] for m in split_metrics if k_present(m, key)])
        mean[key] = float(values.mean())
        if values.size > 1:
            stderr[key] = float(values.std(ddof=1) / np.sqrt(values.size))
        else:
            stderr[key] = 0.0
    return mean, stderr


def k_present(metrics: dict, key: str) -> bool:
    return key in metrics and metrics[key] is not None


def build_report(dataset, method, setting, split_metrics, config=None, seeds=None) -> EvalReport:
    mean, stderr = aggregate_metrics(split_metrics)
    return EvalReport(
        dataset=dataset,
        method=method,
        setting=setting,
        splits=list(split_metrics),
        mean=mean,
        stderr=stderr,
        config=dict(config or {}),
        seeds=dict(seeds or {}),
    )


def report_to_json(report: EvalReport) -> str:
    payload = {
        "dataset": report.dataset,
        "method": report.method,
        "setting": report.setting,
        "splits": report.splits,
        "mean": report.mean,
        "stderr": report.stderr,
        "config": report.config,
        "seeds": report.seeds,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_report(report: EvalReport, path) -> None:
    _atomic_write(path, report_to_json(report).encode("utf-8"))


def load_report(path) -> EvalReport:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return EvalReport(
        dataset=payload["dataset"],
        method=payload["method"],
        setting=payload["setting"],
        splits=payload["splits"],
        mean=payload["mean"],
        stderr=payload["stderr"],
        config=payload.get("config", {}),
        seeds=payload.get("seeds", {}),
    )


def reports_to_csv(reports) -> str:
    """One row per (method, setting, metric) with mean and standard error."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "method", "setting", "metric", "mean", "stderr"])
    for report in reports:
        for key in METRIC_KEYS:
            if key in report.mean:
                writer.writerow(
                    [
                        report.dataset,
                        report.method,
                        report.setting,
                        key,
                        repr(report.mean[key]),
                        repr(report.stderr[key]),
                    ]
                )
    return buf.getvalue()
