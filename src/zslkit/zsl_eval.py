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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data_io import _atomic_write
from .embedding import (
    _exact_argmin,
    _exact_sq_dists,
    _kmeanspp_indices,
    _nearest,
    _pairwise_sq_dists,
    _slack,
    _sq_norms,
)
from .errors import DataError

METRIC_KEYS = ("A_UU", "A_UT", "A_ST", "H")
# k-means restarts of the transductive clustering.
_TRANSDUCTIVE_N_INIT = 5


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
    n, d = X.shape
    k = centers.shape[0]
    points, columns = np.arange(n), np.arange(d)
    x2_max = _sq_norms(X)[1]
    # scores[j, i] = ||c_j||^2 - 2 c_j.x_i, the squared distance less ||x_i||^2,
    # as one product of the rows [-2 c_j, ||c_j||^2] and [x_i, 1]. A pass
    # recomputes only the rows of centroids that moved.
    x_ones = np.vstack([X.T, np.ones(n)])
    c_aug = np.empty((k, d + 1))
    scores = np.empty((k, n))

    def move(rows):
        c = centers[rows]
        c_aug[rows, :d] = -2.0 * c
        c_aug[rows, d] = _sq_norms(c)[0]
        scores[rows] = c_aug[rows] @ x_ones

    def assign():
        return _exact_argmin(X, centers, scores, _slack(x2_max, c_aug[:, d].max(), d))

    move(np.arange(k))
    # a weighted bincount adds each cluster's rows in row order; one call
    # over the flat (cluster, column) bins does every column. The bins are
    # kept from pass to pass and rewritten only for points that changed
    # cluster
    weights = X.ravel()
    bins = np.empty((n, d), dtype=np.intp)
    assignments = None
    for _ in range(max_iter):
        new_assign = assign()
        # empty-cluster repair, in cluster order: move the centroid to the
        # point farthest from the centroid it is currently assigned to
        c = 0
        while True:
            counts = np.bincount(new_assign, minlength=k)
            empty = np.flatnonzero(counts[c:] == 0)
            if empty.size == 0:
                break
            c += int(empty[0])
            worst = int(np.argmax(_exact_sq_dists(X, centers, points, new_assign)))
            centers[c] = X[worst]
            move([c])
            new_assign = assign()
            c += 1
        changed = points if assignments is None else np.flatnonzero(new_assign != assignments)
        if changed.size == 0:
            break
        assignments = new_assign
        bins[changed] = assignments[changed, None] * d + columns
        sums = np.bincount(bins.ravel(), weights=weights, minlength=k * d)
        updated = sums.reshape(k, d) / counts[:, None]
        moved = np.flatnonzero((updated != centers).any(axis=1))
        centers = updated
        move(moved)
    else:
        # out of iterations: the centroids moved after the last assignment.
        # A converged run breaks with the assignment of its final centroids.
        assignments = assign()
    inertia = float(_exact_sq_dists(X, centers, points, assignments).sum())
    return KmeansResult(centroids=centers, assignments=assignments, inertia=inertia)


def kmeans(points, k: int, *, seed: int = 0, max_iter: int = 100, n_init: int = 1) -> KmeansResult:
    """Lloyd's algorithm from k-means++ seeding.

    Runs n_init seeded restarts and keeps the lowest inertia (ties break
    toward the earlier restart). Deterministic for a fixed seed. Raises
    DataError when the points hold fewer than k distinct rows.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if X.shape[0] < k:
        raise ValueError(f"{X.shape[0]} points cannot form {k} clusters")
    # distinct first coordinates bound the distinct rows from below, and
    # are far cheaper to count
    if np.unique(X[:, :1]).size < k:
        distinct = np.unique(X, axis=0).shape[0]
        if distinct < k:
            raise DataError(f"{distinct} distinct points cannot form {k} clusters")
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

    The shortest augmenting path method (Crouse 2016, IEEE TAES; Jonker &
    Volgenant 1987). The result is always a minimum-cost matching. Each path
    step scans the unscanned column of least path cost, the lowest index
    among equal ones; wherever the optimum is unique, the result is scipy's
    linear_sum_assignment permutation.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    n = cost.shape[0]
    # duals u (a list: only read one at a time) and v; the matching both ways
    u, v = [0.0] * n, np.zeros(n)
    col4row, row4col = [-1] * n, [-1] * n
    path = np.empty(n, dtype=np.int64)
    # path costs of the unscanned columns; a scanned column holds +inf here
    # and -inf in v_open, so its reduced cost is +inf and never improves
    spc, v_open = np.empty(n), np.empty(n)
    r, better = np.empty(n), np.empty(n, dtype=bool)
    for cur in range(n):
        spc.fill(np.inf)
        np.copyto(v_open, v)
        rows, cols, lows = [cur], [], []
        i, min_val = cur, 0.0
        while True:
            # r = ((min_val + cost[i, j]) - u[i]) - v[j], as scipy adds it up
            np.add(cost[i], min_val, out=r)
            np.subtract(r, u[i], out=r)
            np.subtract(r, v_open, out=r)
            np.less(r, spc, out=better)
            np.copyto(spc, r, where=better)
            np.copyto(path, i, where=better)
            j = int(spc.argmin())
            min_val = spc.item(j)
            cols.append(j)
            lows.append(min_val)
            spc[j], v_open[j] = np.inf, -np.inf
            i = row4col[j]
            if i == -1:
                break
            rows.append(i)
        # dual update: a row reached through column cols[k] gains min_val
        # less that column's path cost, and the column loses as much
        u[cur] += min_val
        for k in range(1, len(rows)):
            u[rows[k]] += min_val - lows[k - 1]
        v[cols] -= min_val - np.array(lows)
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def transductive_predict(points, space: SearchSpace, *, seed: int = 0) -> np.ndarray:
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
    clusters = kmeans(X, k, seed=seed, n_init=_TRANSDUCTIVE_N_INIT)
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
    keys = [k for k in METRIC_KEYS if any(k in m for m in split_metrics)]
    mean, stderr = {}, {}
    for key in keys:
        values = np.array([m[key] for m in split_metrics if key in m])
        mean[key] = float(values.mean())
        if values.size > 1:
            stderr[key] = float(values.std(ddof=1) / np.sqrt(values.size))
        else:
            stderr[key] = 0.0
    return mean, stderr


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
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def save_report(report: EvalReport, path) -> None:
    _atomic_write(path, report_to_json(report).encode("utf-8"))


def load_report(path) -> EvalReport:
    """Read a report JSON file; DataError names the file and what it lacks,
    including a metric that only one of "mean" and "stderr" has."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise DataError(f"report {path} is not a JSON object")
    for key in ("dataset", "method", "setting", "splits", "mean", "stderr"):
        if key not in payload:
            raise DataError(f"report {path} lacks key {key!r}")
    for key in ("mean", "stderr"):
        if not isinstance(payload[key], dict):
            raise DataError(f"report {path}: {key!r} is not a JSON object")
    unpaired = sorted(payload["mean"].keys() ^ payload["stderr"].keys())
    if unpaired:
        lacking = "stderr" if unpaired[0] in payload["mean"] else "mean"
        raise DataError(f"report {path}: {lacking!r} lacks key {unpaired[0]!r}")
    return EvalReport(**{f.name: payload[f.name] for f in fields(EvalReport) if f.name in payload})


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
