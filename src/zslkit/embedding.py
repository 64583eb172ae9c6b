"""Two-stage latent embedding for zero-shot recognition.

Bottom-up: a supervised locality-preserving projection (SLPP) maps visual
features into a latent space where same-class neighbours stay close. Each
seen class then gets a landmark: the mean of its projected training
examples.

Top-down: unseen classes are placed in the same latent space by Sammon
mapping against the fixed landmarks, so that scaled semantic distances
between classes are preserved by latent Euclidean distances.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, NumericalError

if TYPE_CHECKING:  # encoders imports gmm, which imports this module
    from .encoders import SemanticSpace

# Sammon descent: the first trial step, and the step below which it stops.
_FIRST_STEP = 0.1
_MIN_STEP = 1e-30
# Trials a start makes per round of the stacked descent: its step and
# halved retries of it. Accepted steps on the benchmark placements come
# after 0, 1 or 2 rejections, so three trials settle almost every step in
# one round.
_TRIALS = 3
# Ridge on the SLPP constraint matrix, relative to its mean diagonal.
_SLPP_REG = 1e-8
# Largest triangular block _lower_inverse hands to np.linalg.inv whole.
_TRIANGULAR_LEAF = 128
# Final Sammon stresses closer than this are tied, and the earlier restart
# wins. The stress is normalised by the summed target distances, so one
# absolute bound serves every scale. When d_latent >= the landmark count,
# exact fits form a continuum and restarts end anywhere below about 1e-12,
# depending on where each descent stopped; inexact placements on the
# benchmark workloads end at 1e-4..1e-3, far above the bound.
_STRESS_TIE = 1e-12
_EPS = np.finfo(np.float64).eps
# Bytes of temporaries one block of a distance computation may allocate.
_BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric non-negative within-class neighbourhood weights."""

    weights: np.ndarray  # (n, n), zero diagonal


@dataclass(frozen=True)
class LatentModel:
    """Visual-to-latent projection fitted by slpp_fit."""

    projection: np.ndarray  # (d_visual, d_latent)
    d_latent: int
    eigenvalues: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class StressTrace:
    """Sammon stress after the initial placement and each accepted step."""

    stresses: np.ndarray
    final_stress: float
    restart_index: int


def _sq_norms(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared row norms of X and their maximum (0 when X has no rows); for a
    stack X of shape (B, n, d), norms (B, n) and one maximum per item."""
    x2 = np.einsum("...j,...j->...", X, X)
    return x2, x2.max(axis=-1, initial=0.0)


def _slack(x2_max: float, y2_max: float, d: int) -> float:
    """Bound on how far a Gram-form squared distance can lie from the
    explicit-difference value: d * eps * (max ||x||^2 + max ||y||^2) with a
    safety factor. Outcomes decided within it are recomputed exactly."""
    return 8.0 * (d + 2) * _EPS * (x2_max + y2_max)


def _pairwise_sq_dists(
    X: np.ndarray, Y: np.ndarray, x_norms=None, y_norms=None, zero=None
) -> np.ndarray:
    """Squared Euclidean distances in Gram form, ||x||^2 + ||y||^2 - 2 x.y,
    blocked over rows of X within _BLOCK_BYTES, so the memory beyond the
    (n, m) result is O(block * m) rather than O(n * m * d).

    Entries within rounding slack of zero are recomputed by explicit
    differences, so coincident rows are exactly 0; every other entry is
    within _slack of the explicit-difference value. Callers whose outcome
    hangs on ties (kNN cutoffs, argmins) refine those with _exact_sq_dists.
    Callers that reuse an operand pass its _sq_norms as x_norms or y_norms.
    zero = (rows, cols) names pairs known to coincide (X[rows] == Y[cols]):
    they are set to 0 without being recomputed.

    Stacks X (B, n, d) and Y (B, m, d), with stacked norms, give (B, n, m):
    item b is X[b] against Y[b] with its own slack and the same zero pairs,
    bit for bit the 2-D call on that item. Each block spans the rows a 2-D
    call's block spans, of as many whole items as fit, and matmul runs one
    gemm per item; every other step is elementwise or per row.
    """
    x2, x2_max = _sq_norms(X) if x_norms is None else x_norms
    y2, y2_max = _sq_norms(Y) if y_norms is None else y_norms
    stacked = X.ndim == 3
    if not stacked:
        X, Y, x2, y2 = X[None], Y[None], x2[None], y2[None]
    (B, n, d), m = X.shape, Y.shape[1]
    slack = np.asarray(_slack(x2_max, y2_max, d)).reshape(-1, 1, 1)
    out = np.empty((B, n, m))
    Yt, y2 = Y.transpose(0, 2, 1), y2[:, None]
    step = max(1, _BLOCK_BYTES // (9 * max(1, m)))  # rows per block of one item
    chunk = max(1, step // max(1, n))  # items per block
    for first in range(0, B, chunk):
        items = slice(first, first + chunk)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            block = out[items, rows]
            np.matmul(X[items, rows], Yt[items], out=block)
            block *= -2.0
            block += x2[items, rows, None]
            block += y2[items]
            near = block <= slack[items]  # includes every negative entry
            if zero is not None:
                zr, zc = zero
                if block.shape[1] < n:  # this block's pairs only
                    mine = (zr >= start) & (zr < start + step)
                    zr, zc = zr[mine] - start, zc[mine]
                near[:, zr, zc] = False
            # a flat nonzero is far cheaper than an n-D one, and divmod gives
            # the same pairs in the same order
            flat = near.ravel().nonzero()[0]
            if flat.size:
                b, ij = np.divmod(flat, block.shape[1] * m)
                i, j = np.divmod(ij, m)
                block[b, i, j] = _exact_sq_dists(
                    X.reshape(-1, d), Y.reshape(-1, d),
                    (b + first) * n + i + start, (b + first) * m + j,
                )
    if zero is not None:
        out[:, zero[0], zero[1]] = 0.0
    return out if stacked else out[0]


def _exact_sq_dists(X: np.ndarray, Y: np.ndarray, rows, cols) -> np.ndarray:
    """Explicit-difference squared distances ||X[rows] - Y[cols]||^2 of the
    given index pairs, in chunks whose temporaries stay within _BLOCK_BYTES."""
    out = np.empty(len(rows))
    step = max(1, _BLOCK_BYTES // (16 * max(1, X.shape[1])))
    for start in range(0, len(rows), step):
        pairs = slice(start, start + step)
        diff = X[rows[pairs]]
        diff -= Y[cols[pairs]]
        out[pairs] = np.einsum("ij,ij->i", diff, diff)
    return out


def _nearest(X: np.ndarray, Y: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Row-wise argmin of d2 = _pairwise_sq_dists(X, Y), decided as
    _exact_argmin decides it."""
    slack = _slack(_sq_norms(X)[1], _sq_norms(Y)[1], X.shape[1])
    return _exact_argmin(X, Y, d2.T, slack)


def _exact_argmin(X: np.ndarray, Y: np.ndarray, scores: np.ndarray, slack: float) -> np.ndarray:
    """For every row of X, the index of its nearest row of Y by explicit
    differences, the smallest index on exact ties.

    scores is (len(Y), len(X)): column i holds ||X[i] - Y[j]||^2 up to a
    constant per column, each entry within slack of its explicit-difference
    value. A column's minimum decides it unless its runner-up lies within
    2 * slack; those columns are decided on _exact_sq_dists of the rows
    within 2 * slack of the minimum. scores is left as it was passed.
    """
    points = np.arange(scores.shape[1])
    best = np.argmin(scores, axis=0)
    low = scores[best, points]
    scores[best, points] = np.inf
    runner_up = np.min(scores, axis=0)
    scores[best, points] = low
    tied = np.flatnonzero(runner_up <= low + 2.0 * slack)
    if tied.size:
        near = scores[:, tied] <= low[tied] + 2.0 * slack
        rows, cols = np.divmod(np.flatnonzero(near), tied.size)
        exact = np.full((tied.size, scores.shape[0]), np.inf)
        exact[cols, rows] = _exact_sq_dists(X, Y, tied[cols], rows)
        best[tied] = np.argmin(exact, axis=1)
    return best


def _sq_dists_to_row(X: np.ndarray, norms, i) -> np.ndarray:
    """Squared distances of every row of X to row i, where norms is
    _sq_norms(X): _pairwise_sq_dists(X, X[[i]]) in one block, with row i's
    norm reused and its own entry exactly 0."""
    x2, x2_max = norms
    out = X @ X[i]
    out *= -2.0
    out += x2
    out += x2[i]
    near = out <= _slack(x2_max, x2[i], X.shape[1])
    near[i] = False
    rows = np.flatnonzero(near)
    if rows.size:
        out[rows] = _exact_sq_dists(X, X, rows, np.full_like(rows, i))
    out[i] = 0.0
    return out


def _kmeanspp_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): the first row is drawn
    uniformly, each further row with probability proportional to its squared
    distance from the nearest row already drawn. Returns the k row indices."""
    n = X.shape[0]
    norms = _sq_norms(X)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = _sq_dists_to_row(X, norms, chosen[0])
    for j in range(1, k):
        total = d2.sum()
        # a zero total means every row coincides with a row already drawn
        chosen[j] = _choice(rng, d2 / total) if total > 0 else rng.integers(n)
        np.minimum(d2, _sq_dists_to_row(X, norms, chosen[j]), out=d2)
    return chosen


def _choice(rng: np.random.Generator, p: np.ndarray) -> int:
    """rng.choice(len(p), p=p) without its checks on p: numpy's own inverse-cdf
    search of one uniform draw, so the index and the generator state after
    it are the same, at about half the cost."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _knn_candidates(d2, slack, k):
    """Per row of d2, the columns of its first k + 1 merged groups (Gram
    values chaining within 2*slack), in the order of a stable sort of the
    full row. Returns (order, n_cand): row r's candidates are
    order[r, :n_cand[r]].

    Each row is sorted only within a window of its smallest values, taken by
    argpartition and put in column order, so the stable sort breaks ties by
    column as a full-row sort does. Values below the window's largest are
    all inside it, so once a later group starts within the window, the
    first k + 1 groups match the full sort exactly. Rows where it does not
    start are retried with a window four times wider, then the full row.
    """
    n_rows, n = d2.shape
    pending = np.arange(n_rows)
    found = []
    for w in (4 * (k + 1), 16 * (k + 1), n):
        w = min(w, n)
        vals = d2 if pending.size == n_rows else d2[pending]
        cols = None
        if w < n:
            cols = np.argpartition(vals, w - 1, axis=1)[:, :w]
            cols.sort(axis=1)
            vals = np.take_along_axis(vals, cols, axis=1)
        perm = np.argsort(vals, axis=1, kind="stable")
        ranked = np.take_along_axis(vals, perm, axis=1)
        group = np.zeros(ranked.shape, dtype=np.int64)
        np.cumsum(np.diff(ranked, axis=1) > 2.0 * slack, axis=1, out=group[:, 1:])
        closed = group[:, -1] > k if w < n else np.ones(pending.size, dtype=bool)
        if closed.any():
            n_cand = (group[closed] <= k).sum(axis=1)
            perm = perm[closed, : n_cand.max()]
            order = perm if cols is None else np.take_along_axis(cols[closed], perm, axis=1)
            found.append((pending[closed], n_cand, order))
        pending = pending[~closed]
        if pending.size == 0:
            break
    order = np.zeros((n_rows, max(o.shape[1] for _, _, o in found)), dtype=np.intp)
    n_cand = np.empty(n_rows, dtype=np.int64)
    for rows, counts, cols in found:
        order[rows, : cols.shape[1]] = cols
        n_cand[rows] = counts
    return order, n_cand


def _knn_exact(X, d2, slack, start, k):
    """Neighbours of the rows start, start+1, ... of X whose Gram-form
    squared distances are d2: every j at a positive exact distance within
    the k smallest distinct positive exact distances of its row (ties all
    included). Returns (rows, cols, exact squared distances).

    Gram values that chain within 2*slack are merged before distinct values
    are counted. Every neighbour lies in the first k + 1 merged groups (the
    first may hold only zeros), so only those entries are recomputed by
    explicit differences and ranked.
    """
    order, n_cand = _knn_candidates(d2, slack, k)
    width = order.shape[1]
    r, pos = np.divmod(np.flatnonzero(np.arange(width) < n_cand[:, None]), width)
    exact = np.full((d2.shape[0], width), np.inf)
    exact[r, pos] = _exact_sq_dists(X, X, r + start, order[r, pos])
    exact[exact == 0] = np.inf  # coincident pairs carry no geometry
    ranked = np.sort(exact, axis=1)
    distinct = np.isfinite(ranked)
    distinct[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
    within = np.isfinite(ranked) & (np.cumsum(distinct, axis=1) <= k)
    cutoff = np.where(within, ranked, -np.inf).max(axis=1)
    r, pos = np.divmod(np.flatnonzero(exact <= cutoff[:, None]), width)
    return r + start, order[r, pos], exact[r, pos]


def knn_affinity(X, labels, n_neighbors: int, width: float) -> AffinityGraph:
    """Heat-kernel weights between kNN pairs of the same class.

    W_ij = exp(-||x_i - x_j||^2 / (2 width^2)) when x_j lies within the
    n_neighbors smallest distinct positive distances from x_i (ties all
    included) and the labels agree, then symmetrized by max(W, W^T).
    Coincident pairs carry no geometry and are excluded from the
    neighbourhoods; counting distinct distances keeps the graph, and hence
    the projection, exactly invariant under duplicating every point.

    A row left empty falls back to connecting its point to every same-class
    point (coincident ones only as a last resort). A class with a single
    example can never satisfy the positive-row invariant while the diagonal
    stays zero, so it is an error.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return AffinityGraph(next(_affinities(X, np.asarray(labels), [(n_neighbors, 1.0)], width)))


def median_pairwise_distance(X) -> float:
    """Median of the positive pairwise Euclidean distances."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _median_width(_pairwise_sq_dists(X, X))


def _median_width(d2) -> float:
    """Square root of the median positive entry of d2's strict upper triangle."""
    positive = d2[np.triu(d2 > 0, 1)]
    if positive.size == 0:
        raise DataError("all points coincide; no positive pairwise distance")
    return float(np.sqrt(np.median(positive, overwrite_input=True)))


def _affinities(X, labels, graphs, width):
    """knn_affinity's weights for each (n_neighbors, width_scale) of graphs, in
    order, from one distance pass over X that takes the median (a graph's width
    is width, or width_scale times the median) and every n_neighbors' kNN pairs.
    Only the pairs outlive the pass; the weights are built as each is asked for."""
    n = X.shape[0]
    norms = _sq_norms(X)
    if not norms[1] <= np.finfo(np.float64).max / 4:  # no squared distance exceeds 4 max ||x||^2
        raise DataError("features overflow: squared norms beyond float64; rescale the features")
    d2 = _pairwise_sq_dists(X, X, norms)
    median = _median_width(d2) if width is None else None
    widths = [width_scale * median if width is None else width for _, width_scale in graphs]
    if n < 2:
        raise ValueError("need at least two points to build an affinity graph")
    for (n_neighbors, _), w in zip(graphs, widths):
        if not 0 < n_neighbors < n:
            raise ValueError(f"n_neighbors must be in [1, {n - 1}], got {n_neighbors}")
        if w <= 0:
            raise ValueError(f"kernel width must be positive, got {w}")

    slack = _slack(norms[1], norms[1], X.shape[1])
    pairs = {n_neighbors: [] for n_neighbors, _ in graphs}
    step = max(1, _BLOCK_BYTES // (40 * n))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        for n_neighbors, found in pairs.items():
            i, j, dist = _knn_exact(X, d2[rows], slack, start, n_neighbors)
            keep = labels[i] == labels[j]
            found.append((i[keep], j[keep], dist[keep]))
    del d2

    for (n_neighbors, _), w in zip(graphs, widths):
        scale = 2.0 * w**2
        W = np.zeros((n, n))
        for i, j, dist in pairs[n_neighbors]:
            W[i, j] = np.exp(-dist / scale)
        W = np.maximum(W, W.T)
        for i in np.flatnonzero(W.sum(axis=1) == 0):
            mates = np.flatnonzero(labels == labels[i])
            mates = mates[mates != i]
            if mates.size == 0:
                raise DataError(
                    f"class {labels[i]} has a single example; its graph row cannot "
                    "be populated"
                )
            W[i, mates] = np.exp(-_exact_sq_dists(X, X, np.full(mates.size, i), mates) / scale)
            W[mates, i] = W[i, mates]
        yield W
        del W


def _lower_inverse(L):
    """Inverse of a lower-triangular matrix, by 2 x 2 blocks. numpy has no
    triangular inverse, and np.linalg.inv's LU does about four times the
    flops of these block products on a large L."""
    n = L.shape[0]
    if n <= _TRIANGULAR_LEAF:
        return np.linalg.inv(L)
    h = n // 2
    top, bottom = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = top, bottom
    out[h:, :h] = -bottom @ (L[h:, :h] @ top)
    return out


def _generalized_eigh(A, B):
    """Eigenvalues (ascending) and B-orthonormal eigenvectors of A p = λ B p,
    for symmetric A and symmetric positive definite B.

    B = L L^T reduces the problem to C q = λ q with C = L^-1 A L^-T and
    p = L^-T q, all in numpy.linalg: scipy's LAPACK would wake a second
    OpenBLAS thread pool (see README). Every column is mapped back, so a
    column does not depend on how many a caller keeps.
    """
    try:
        L_inv = _lower_inverse(np.linalg.cholesky(B))
        eigvals, Q = np.linalg.eigh(L_inv @ A @ L_inv.T)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"constraint matrix is singular beyond regularization: {e}"
        ) from e
    return eigvals, L_inv.T @ Q


def slpp_fit(
    X,
    labels,
    *,
    d_latent: int,
    n_neighbors: int = 10,
    width: float | None = None,
    width_scale: float = 1.0,
) -> LatentModel:
    """Supervised locality-preserving projection.

    Solves the generalized eigenproblem

        (X^T L X) p = lambda (X^T D X) p

    where W is the supervised heat-kernel affinity graph, D its row-sum
    diagonal and L = D - W, keeping the eigenvectors of smallest eigenvalue.
    Columns whose projected coordinates are (near-)constant across the
    training examples carry no structure and are skipped. The constraint
    matrix X^T D X is regularized by _SLPP_REG * mean(trace) * I before the
    Cholesky-based reduction.

    If `width` is None it defaults to width_scale times the median pairwise
    distance of X.
    """
    return slpp_fit_many(X, labels, d_latent=d_latent, graphs=[(n_neighbors, width_scale)],
                         width=width)[0]


def slpp_fit_many(X, labels, *, d_latent: int, graphs, width: float | None = None) -> list:
    """slpp_fit at every (n_neighbors, width_scale) of graphs, from one
    distance pass over X: one LatentModel per graph, in order, each equal
    bit for bit to that graph's own slpp_fit."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels)
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} points but {labels.shape[0]} labels")
    if d_latent < 1:
        raise ValueError(f"d_latent must be >= 1, got {d_latent}")
    models = []
    for W in _affinities(X, labels, graphs, width):
        models.append(_slpp_solve(X, W, d_latent))
        del W  # freed before the next graph's weights are built
    return models


def _slpp_solve(X, W, d_latent: int) -> LatentModel:
    """slpp_fit's eigenproblem and column selection on the graph weights W."""
    d = X.shape[1]
    row_sums = W.sum(axis=1)
    XD = X * row_sums[:, None]
    A = X.T @ (XD - W @ X)  # X^T (D - W) X
    B = X.T @ XD
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    B[np.diag_indices(d)] += _SLPP_REG * np.trace(B) / d
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DataError(
            "features overflow: the SLPP matrices X^T L X and X^T D X are not "
            "finite; rescale the features"
        )

    eigvals, eigvecs = _generalized_eigh(A, B)

    kept = []
    for idx in range(eigvecs.shape[1]):
        y = X @ eigvecs[:, idx]
        if y.std() > 1e-9 * max(1.0, float(np.abs(y).max())):
            kept.append(idx)
        if len(kept) == d_latent:
            break
    if len(kept) < d_latent:
        raise NumericalError(
            f"only {len(kept)} informative latent directions available, "
            f"{d_latent} requested"
        )
    P = eigvecs[:, kept]
    return LatentModel(projection=P, d_latent=d_latent, eigenvalues=eigvals[kept])


def leading_directions(model: LatentModel, d_latent: int) -> LatentModel:
    """The first d_latent directions of a slpp_fit model, as a model of its own.

    slpp_fit keeps informative columns in eigenvalue order and stops at
    d_latent, so the leading columns of a larger fit on the same data are
    the columns a fit at d_latent keeps: the result equals that fit bit for
    bit, in the same memory order.
    """
    if not 1 <= d_latent <= model.d_latent:
        raise ValueError(f"d_latent must be in [1, {model.d_latent}], got {d_latent}")
    return LatentModel(
        projection=model.projection[:, :d_latent].copy(order="K"),
        d_latent=d_latent,
        eigenvalues=model.eigenvalues[:d_latent].copy(),
    )


def project(model: LatentModel, X) -> np.ndarray:
    """Map visual features into the latent space (row-wise linear map)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != model.projection.shape[0]:
        raise ValueError(
            f"features have dimension {X.shape[-1]}, projection expects "
            f"{model.projection.shape[0]}"
        )
    return X @ model.projection


def class_landmarks(latent_points, labels, class_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-class means of latent points.

    Returns (class_ids, landmarks) with classes sorted ascending. When an
    explicit class_ids sequence is given, every listed class must have at
    least one point.
    """
    Y = np.atleast_2d(np.asarray(latent_points, dtype=np.float64))
    labels = np.asarray(labels)
    if class_ids is None:
        ids = np.unique(labels)
    else:
        ids = np.asarray(sorted(int(c) for c in class_ids))
    landmarks = np.empty((ids.shape[0], Y.shape[1]))
    for row, c in enumerate(ids):
        mask = labels == c
        if not mask.any():
            raise DataError(f"class {c} has no examples to average")
        landmarks[row] = Y[mask].mean(axis=0)
    return ids, landmarks


def semantic_distance_matrix(space: SemanticSpace) -> np.ndarray:
    """Pairwise distances between class representations under the space's
    metric. Cosine distance is 1 - cos(a, b) and rejects zero vectors."""
    reps = space.reps
    if reps.shape[0] < 2:
        raise ValueError("need at least two classes for a distance matrix")
    if space.metric == "euclidean":
        D = np.sqrt(_pairwise_sq_dists(reps, reps))
    else:
        norms = np.linalg.norm(reps, axis=1)
        if np.any(norms == 0):
            bad = space.class_ids[int(np.flatnonzero(norms == 0)[0])]
            raise DataError(
                f"class {bad} has a zero representation; cosine distance undefined"
            )
        D = 1.0 - (reps @ reps.T) / np.outer(norms, norms)
        D = np.maximum(D, 0.0)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D




@dataclass(frozen=True)
class _Placement:
    """One lsm_embed problem made ready to descend: the fixed landmarks, the
    scaled semantic targets and the starts of its restarts."""

    landmarks: np.ndarray  # (n_seen, d_latent)
    delta_us: np.ndarray  # (n_unseen, n_seen)
    delta_uu: np.ndarray  # (n_unseen, n_unseen), zero diagonal
    sum_delta: float
    starts: np.ndarray  # (restarts, n_unseen, d_latent)


def _placement(
    landmarks, seen_ids, dist_semantic, class_order, unseen_ids, *,
    restarts: int = 5, seed: int = 0, init=None,
) -> _Placement | None:
    """lsm_embed's checks, target scaling and starts for one problem; None
    when there is no unseen class to place."""
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=np.float64))
    dist_semantic = np.asarray(dist_semantic, dtype=np.float64)
    class_pos = {int(c): i for i, c in enumerate(class_order)}
    seen_ids = [int(c) for c in seen_ids]
    unseen_ids = sorted(int(c) for c in unseen_ids)
    if landmarks.shape[0] != len(seen_ids):
        raise ValueError(f"{len(seen_ids)} seen ids but {landmarks.shape[0]} landmarks")
    if set(seen_ids) & set(unseen_ids):
        raise ValueError("seen and unseen class sets overlap")
    missing = [c for c in seen_ids + unseen_ids if c not in class_pos]
    if missing:
        raise ValueError(f"classes {missing} missing from the semantic distance matrix")
    if init is None and restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")

    n_u, d_latent = len(unseen_ids), landmarks.shape[1]
    if n_u == 0:
        return None

    s_idx = np.array([class_pos[c] for c in seen_ids])
    u_idx = np.array([class_pos[c] for c in unseen_ids])

    # commensurate scale between the semantic and latent spaces
    if len(seen_ids) >= 2:
        iu = np.triu_indices(len(seen_ids), k=1)
        lm_mean = np.sqrt(_pairwise_sq_dists(landmarks, landmarks))[iu].mean()
        sem_mean = dist_semantic[np.ix_(s_idx, s_idx)][iu].mean()
        if sem_mean > 0 and lm_mean > 0:
            scale = lm_mean / sem_mean
        else:
            warnings.warn("degenerate seen-class distances; target scale set to 1")
            scale = 1.0
    else:
        scale = 1.0

    delta_us = dist_semantic[np.ix_(u_idx, s_idx)] * scale
    delta_uu = dist_semantic[np.ix_(u_idx, u_idx)] * scale

    off_uu = ~np.eye(n_u, dtype=bool)
    targets = np.concatenate([delta_us.ravel(), delta_uu[off_uu]])
    positive = targets[targets > 0]
    if positive.size == 0:
        raise DataError("all semantic target distances are zero")
    if np.any(targets == 0):
        clamp = 1e-6 * positive.mean()
        warnings.warn(
            f"zero semantic distance between distinct classes; clamped to {clamp:g}"
        )
        delta_us = np.maximum(delta_us, clamp)
        delta_uu = np.maximum(delta_uu, clamp)
    np.fill_diagonal(delta_uu, 0.0)

    delta_upper = delta_uu[np.triu_indices(n_u, k=1)]
    sum_delta = delta_us.sum() + (delta_upper.sum() if n_u > 1 else 0.0)

    if init is not None:
        starts = np.asarray(init, dtype=np.float64).reshape(1, n_u, d_latent)
    else:
        inv = 1.0 / delta_us
        base = (inv / inv.sum(axis=1, keepdims=True)) @ landmarks
        seeds = np.random.SeedSequence(seed).spawn(restarts)
        starts = np.stack([
            base + np.random.default_rng(s).normal(0.0, 1e-3, size=(n_u, d_latent))
            for s in seeds
        ])
    return _Placement(landmarks, delta_us, delta_uu, sum_delta, starts)


def _descend_many(group: list[_Placement], max_iter: int, tol: float):
    """Gradient descent with step halving on the Sammon stress, from every
    start of the placements in group, which share one shape, as one stack.

    A start's trial step that would increase its stress is rejected and its
    step halved; one that does not is accepted, its step doubled (up to
    1e12) and its gradient recomputed. A start stops when its step falls
    below _MIN_STEP, after max_iter accepted steps, at stress 0, or when an
    accepted step lowers its stress by at most tol times the new stress.

    Each round evaluates, for every start still searching, its next
    _TRIALS trials: its step and the halved retries it makes while they are
    rejected. So a step and the rejections before it take one round, not
    one round per trial; trials after the one a start accepts are
    discarded. The stack computes each trial alone (one gemm per item,
    per-row sums of C-ordered arrays), and each start keeps its own step,
    stress trace, accept rule and stop rule as Python floats, so every
    start follows, bit for bit, the trajectory it would follow by itself.
    Starts that stop leave the stack.

    Returns (Y, traces): each start's final iterate, stacked, and its
    stress after the start and each accepted step, in the order of the
    placements and their starts.
    """
    first = group[0]
    (n_u, n_s), d = first.delta_us.shape, first.landmarks.shape[1]
    m = n_s + n_u
    owner = np.repeat(np.arange(len(group)), [p.starts.shape[0] for p in group])
    B = owner.size

    def per_start(values):
        # one placement's targets broadcast over its starts
        stacked = np.stack(values)
        return stacked if len(group) == 1 else stacked[owner]

    def per_trial(a):
        # a start's trials share its targets
        return a if len(a) == 1 else np.repeat(a, _TRIALS, axis=0)

    # the stress sums (delta - d)^2 / delta over the seen-unseen pairs and
    # then over the upper triangle of the unseen-unseen pairs, each in
    # row-major order: pairs indexes them in a flattened row of Y's
    # distances to [landmarks; Y], and take returns them C-ordered
    iu = np.triu_indices(n_u, k=1)
    us = np.arange(n_u * n_s)
    pairs = np.concatenate([us // n_s * m + us % n_s, iu[0] * m + n_s + iu[1]])
    landmarks = per_start([p.landmarks for p in group])
    delta_us = per_start([p.delta_us for p in group])
    delta_uu = per_start([p.delta_uu for p in group])
    row_targets = np.concatenate([delta_us, delta_uu], axis=2)  # (., u, m)
    sum_delta = per_start([p.sum_delta for p in group])
    stress_targets = (
        per_trial(row_targets.reshape(len(row_targets), -1).take(pairs, axis=1)),
        per_trial(sum_delta),
    )
    # the gradient's coefficients (delta - d) / (delta * max(d, 1e-12)) over
    # a whole row, with delta floored at 1e-12 among the unseen classes;
    # delta_uu's zero diagonal makes each class's own coefficient 0
    floors = np.concatenate([delta_us, np.maximum(delta_uu, 1e-12)], axis=2)
    grad_targets = (landmarks, row_targets, floors, sum_delta[:, None, None])
    own = np.arange(n_u)
    diagonal = (own, own + n_s)

    # each trial measures its iterate Y against [landmarks; Y]: that array
    # and its squared norms are kept in buffers whose landmark rows are
    # filled once
    points = np.empty((_TRIALS * B, m, d))
    points[:, :n_s] = per_trial(landmarks)
    norms = np.empty((_TRIALS * B, m))
    norms[:, :n_s], lm_max = _sq_norms(points[:, :n_s])

    def stress(Y, points, norms, lm_max, targets, sum_delta):
        points[:, n_s:] = Y
        y_norms = _sq_norms(Y)
        norms[:, n_s:] = y_norms[0]
        p_norms = (norms, np.maximum(lm_max, y_norms[1]))
        dist = _pairwise_sq_dists(Y, points, y_norms, p_norms, diagonal)
        np.sqrt(dist, out=dist)
        term = targets - dist.reshape(len(Y), -1).take(pairs, axis=1)
        term **= 2
        term /= targets
        out = np.add.reduce(term[:, : n_u * n_s], axis=1)
        if n_u > 1:
            out += np.add.reduce(term[:, n_u * n_s :], axis=1)
        out /= sum_delta
        return out, dist

    def gradient(Y, dist, landmarks, targets, floors, sum_delta):
        scale = np.maximum(dist, 1e-12)
        scale *= floors
        coef = targets - dist  # (B, u, m)
        coef /= scale
        coef_us, coef_uu = coef[:, :, :n_s], coef[:, :, n_s:]
        weight = np.add.reduce(coef_us, axis=2) + np.add.reduce(coef_uu, axis=2)
        grad = weight[:, :, None] * Y
        grad -= coef_us @ landmarks
        grad -= coef_uu @ Y
        grad *= -2.0
        grad /= sum_delta
        return grad

    Y = np.concatenate([p.starts for p in group])
    # the starts fill every trial slot of the first evaluation
    s, dist = stress(np.repeat(Y, _TRIALS, axis=0), points, norms, lm_max, *stress_targets)
    dist = dist[::_TRIALS].copy()
    traces = [array("d", [v]) for v in s[::_TRIALS].tolist()]
    final = Y.copy()
    # the starts still searching: their ids, stresses and steps
    ids = list(range(B)) if max_iter > 0 else []
    s = [trace[0] for trace in traces]
    step = [_FIRST_STEP] * B
    if ids:
        grad = gradient(Y, dist, *grad_targets)
    halvings = 0.5 ** np.arange(_TRIALS)
    while ids:
        steps = np.array(step)[:, None] * halvings
        trials = (Y[:, None] - steps[:, :, None, None] * grad[:, None]).reshape(-1, n_u, d)
        s_try, d_try = stress(trials, points, norms, lm_max, *stress_targets)
        s_try = s_try.tolist()
        took, picks, stopped = [], [], []
        for r, b in enumerate(ids):
            trial_step, pick = step[r], None
            for k in range(_TRIALS):
                if s_try[_TRIALS * r + k] <= s[r]:
                    pick = _TRIALS * r + k
                    break
                trial_step *= 0.5
                if trial_step < _MIN_STEP:  # the next trial is never made
                    break
            if pick is None:
                step[r] = trial_step
                if trial_step < _MIN_STEP:
                    stopped.append(r)
                continue
            change = s[r] - s_try[pick]
            s[r], step[r] = s_try[pick], min(trial_step * 2.0, 1e12)
            traces[b].append(s[r])
            took.append(r)
            picks.append(pick)
            if s[r] == 0.0 or change <= tol * max(s[r], 1e-300) or len(traces[b]) > max_iter:
                stopped.append(r)
        if len(took) == len(ids):
            Y, dist = trials[picks], d_try[picks]
        elif took:
            Y[took], dist[took] = trials[picks], d_try[picks]
        if stopped:
            final[[ids[r] for r in stopped]] = Y[stopped]
            gone = set(stopped)
            took = [r for r in took if r not in gone]
        if len(took) == len(ids):
            grad = gradient(Y, dist, *grad_targets)
        elif took:
            picked = grad_targets if len(group) == 1 else tuple(t[took] for t in grad_targets)
            grad[took] = gradient(Y[took], dist[took], *picked)
        if stopped:
            keep = [r for r in range(len(ids)) if r not in gone]
            ids, s, step = ([a[r] for r in keep] for a in (ids, s, step))
            Y, dist, grad = Y[keep], dist[keep], grad[keep]
            slots = [_TRIALS * r + k for r in keep for k in range(_TRIALS)]
            points, norms, lm_max = points[slots], norms[slots], lm_max[slots]
            if len(group) > 1:
                stress_targets = tuple(t[slots] for t in stress_targets)
                grad_targets = tuple(t[keep] for t in grad_targets)
    return final, [np.asarray(trace) for trace in traces]


def lsm_embed_many(problems, *, max_iter: int = 2000, tol: float = 1e-9) -> list:
    """lsm_embed of every problem, each a mapping of lsm_embed's arguments
    other than max_iter and tol; returns one (Y, StressTrace) per problem,
    in order, each equal bit for bit to that problem's own lsm_embed.

    The placements are grouped by shape (seen classes, unseen classes,
    d_latent), and every restart of every placement of a group descends in
    one stack, so the per-call cost of each array operation is paid once
    per group rather than once per restart.
    """
    placements = [_placement(**problem) for problem in problems]
    results = [None] * len(placements)
    groups = {}
    for k, pl in enumerate(placements):
        if pl is None:
            d_latent = np.atleast_2d(np.asarray(problems[k]["landmarks"])).shape[1]
            empty = StressTrace(stresses=np.zeros(0), final_stress=0.0, restart_index=0)
            results[k] = (np.zeros((0, d_latent)), empty)
        else:
            groups.setdefault(pl.starts.shape[1:] + pl.landmarks.shape[:1], []).append(k)
    for keys in groups.values():
        Y, traces = _descend_many([placements[k] for k in keys], max_iter, tol)
        first = 0
        for k in keys:
            best = 0
            for r in range(1, placements[k].starts.shape[0]):
                if traces[first + r][-1] < traces[first + best][-1] - _STRESS_TIE:
                    best = r
            trace = traces[first + best]
            results[k] = (
                Y[first + best].copy(),
                StressTrace(stresses=trace, final_stress=float(trace[-1]), restart_index=best),
            )
            first += placements[k].starts.shape[0]
    return results


def lsm_embed(
    landmarks,
    seen_ids,
    dist_semantic,
    class_order,
    unseen_ids,
    *,
    max_iter: int = 2000,
    tol: float = 1e-9,
    restarts: int = 5,
    seed: int = 0,
    init=None,
) -> tuple[np.ndarray, StressTrace]:
    """Place unseen classes in the latent space by landmark Sammon mapping.

    Minimizes the Sammon stress

        E = (1/sum delta) * sum_pairs (delta_pq - d_pq)^2 / delta_pq

    over all seen-unseen and unseen-unseen class pairs, where d is latent
    Euclidean distance and delta is the semantic distance rescaled so the
    semantic and latent scales are commensurate (times mean pairwise
    landmark distance over mean seen-seen semantic distance). Landmarks
    never move.

    Each restart initializes an unseen class at the inverse-distance
    weighted average of the landmarks plus seeded jitter of width 1e-3 and
    descends with step halving (_descend_many); the restarts descend as one
    stack. A later restart replaces the best one only when its final stress
    is lower by more than _STRESS_TIE, so ties go to the earliest restart.
    Passing `init` (an (n_unseen, d_latent) array) replaces the seeded
    initialization and runs a single descent.

    Returns (unseen_embeddings, StressTrace) with rows ordered by ascending
    unseen class id.
    """
    problem = dict(
        landmarks=landmarks, seen_ids=seen_ids, dist_semantic=dist_semantic,
        class_order=class_order, unseen_ids=unseen_ids, restarts=restarts, seed=seed,
        init=init,
    )
    return lsm_embed_many([problem], max_iter=max_iter, tol=tol)[0]
