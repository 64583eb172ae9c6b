"""End-to-end evaluation over class splits.

Per split: hold out seen-class test examples if the generalised protocol is
requested, fit the supervised projection on the training examples, average
per-class landmarks, place unseen classes by landmark Sammon mapping
against the semantic distances, then score every requested setting.

Every split, and every cross-validation fold, is scored by one batched
path (_evaluate_many) on the calling thread; each split derives its own
seeds from the master seed and the split index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import data_io, embedding, zsl_eval
from .encoders import SemanticSpace
from .errors import ConfigError, DataError
from .zsl_eval import SearchSpace

DEFAULT_CV_GRID = {
    "d_latent": (20, 50, 100),
    "n_neighbors": (5, 10, 20),
    "width_scale": (0.5, 1.0, 2.0),
}
# The range of each numeric EvalConfig field, and of its cv_grid values.
RANGES = {
    "d_latent": (lambda x: x >= 1, ">= 1"),
    "n_neighbors": (lambda x: x >= 1, ">= 1"),
    "width_scale": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "holdout_fraction": (lambda x: 0 < x < 1, "in (0, 1)"),
    "lsm_max_iter": (lambda x: x >= 0, ">= 0"),
    "lsm_restarts": (lambda x: x >= 1, ">= 1"),
    "lsm_tol": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
}


@dataclass
class EvalConfig:
    """Resolved hyperparameters and protocol flags for one evaluation run."""

    d_latent: int = 20
    n_neighbors: int = 10
    width_scale: float = 1.0
    holdout_fraction: float = 0.2
    lsm_max_iter: int = 2000
    lsm_restarts: int = 5
    lsm_tol: float = 1e-9
    czsl: bool = True
    gzsl: bool = True
    transductive: bool = True
    cv: bool = False
    cv_n_folds: int = 5
    cv_grid: dict = field(default_factory=lambda: dict(DEFAULT_CV_GRID))
    seed: int = 0

    def __post_init__(self):
        """Raise a ConfigError naming the first field out of range; replace() runs it too."""
        if not (self.czsl or self.gzsl):
            raise ConfigError("at least one of czsl, gzsl must be True")
        for key, axis in self.cv_grid.items():
            if key not in DEFAULT_CV_GRID or len(axis) == 0:
                raise ConfigError(f"cv_grid may vary only {sorted(DEFAULT_CV_GRID)}, each over "
                                  f"at least one value; got {key}: {axis}")
        checks = [(name, name, getattr(self, name)) for name in RANGES]
        checks += [(f"cv_grid {k}", k, v) for k, axis in self.cv_grid.items() for v in axis]
        for label, name, value in checks:
            in_range, requirement = RANGES[name]
            if not in_range(value):
                raise ConfigError(f"{label} must be {requirement}, got {value}")

    def settings(self) -> list:
        out = ["inductive"]
        if self.transductive:
            out.append("transductive")
        return out

    def echo(self) -> dict:
        """Every field as plain JSON values, for config echoes and reports."""
        out = asdict(self)
        out["cv_grid"] = {k: list(v) for k, v in self.cv_grid.items()}
        return out


def derive_seed(master: int, *path) -> int:
    """Stable integer sub-seed for a labelled position in the run tree."""
    seq = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(seq.generate_state(1)[0])


# What each split seeds, in derivation order: role n of split i draws from
# derive_seed(master, i, n). "cv" is the master seed of the split's
# cross-validation: its folds and, through this same table, their LSM starts.
SPLIT_SEED_ROLES = ("holdout", "lsm", "kmeans", "kmeans_gzsl", "cv")


def split_seeds(master: int, split_index: int) -> dict:
    """The seeds of one split, by role; reports echo this table as is."""
    return {
        role: derive_seed(master, split_index, n) for n, role in enumerate(SPLIT_SEED_ROLES)
    }


def _clip_hyperparameters(cfg: EvalConfig, n_train: int, d_visual: int) -> EvalConfig:
    return replace(cfg, d_latent=min(cfg.d_latent, d_visual, n_train - 1),
                   n_neighbors=min(cfg.n_neighbors, n_train - 1))


def _check_classes(space: SemanticSpace, classes) -> None:
    missing = set(classes) - set(space.class_ids)
    if missing:
        raise DataError(f"semantic space lacks classes {sorted(missing)}")


def _visual_stage(features, labels, split, cfg: EvalConfig):
    """Holdout, train/test indices and the hyperparameters clipped to the
    training set: (partition, clipped cfg). The SLPP fit on partition.train
    completes the visual stage."""
    if cfg.gzsl:
        seed = split_seeds(cfg.seed, split.split_index)["holdout"]
        part = data_io.gzsl_holdout(labels, split, cfg.holdout_fraction, seed)
        classes, counts = np.unique(labels[part.train], return_counts=True)
        if (counts == 1).any():
            raise DataError(
                f"the GZSL holdout (holdout_fraction {cfg.holdout_fraction}) leaves "
                f"seen class {int(classes[counts == 1][0])} of split {split.split_index} "
                "with a single training example; SLPP needs two per class"
            )
    else:  # no holdout: the seen classes train in full
        part = data_io.GzslPartition(
            train=np.flatnonzero(np.isin(labels, list(split.seen))),
            seen_test=np.zeros(0, dtype=np.int64),
            unseen_test=np.flatnonzero(np.isin(labels, list(split.unseen))),
        )
    if part.train.size < 2:
        raise DataError(f"split {split.split_index} has {part.train.size} training "
                        "example(s); SLPP needs at least two")
    return part, _clip_hyperparameters(cfg, part.train.size, features.shape[1])


def _latent_stage(features, labels, space, dist_sem, split, cfg, part, model):
    """What the scoring stage needs from the SLPP model: the split's LSM
    problem (lsm_embed's arguments other than max_iter and tol, with the
    seen-class landmarks) and its (unseen, seen) test points in latent
    space. The model itself is not kept."""
    ids, landmarks = embedding.class_landmarks(
        embedding.project(model, features[part.train]), labels[part.train],
        class_ids=sorted(split.seen),
    )
    problem = dict(
        landmarks=landmarks, seen_ids=ids.tolist(), dist_semantic=dist_sem,
        class_order=list(space.class_ids), unseen_ids=sorted(int(c) for c in split.unseen),
        restarts=cfg.lsm_restarts, seed=split_seeds(cfg.seed, split.split_index)["lsm"],
    )
    points = (
        embedding.project(model, features[part.unseen_test]),
        embedding.project(model, features[part.seen_test]),
    )
    return problem, points


def _scoring_stage(labels, split, cfg, part, problem, points, unseen_emb) -> dict:
    """Every requested setting's predictions and scores, from the latent
    stage's outputs (_latent_stage) and the LSM embedding of the unseen
    classes."""
    seeds = split_seeds(cfg.seed, split.split_index)
    seen_ids, unseen_ids = problem["seen_ids"], problem["unseen_ids"]
    unseen_pts, seen_pts = points
    unseen_truth = labels[part.unseen_test]
    seen_truth = labels[part.seen_test]
    space_u = SearchSpace(unseen_ids, unseen_emb)
    space_t = SearchSpace([*seen_ids, *unseen_ids], np.vstack([problem["landmarks"], unseen_emb]))

    def predict(setting, points, space, seed_role):
        if setting == "inductive":
            return zsl_eval.classify_nn(points, space)
        return zsl_eval.transductive_predict(points, space, seed=seeds[seed_role])

    out = {}
    for setting in cfg.settings():
        metrics = out[setting] = {"split_index": split.split_index}
        if cfg.czsl:
            pred = predict(setting, unseen_pts, space_u, "kmeans")
            metrics["A_UU"] = zsl_eval.per_class_accuracy(pred, unseen_truth, unseen_ids)
        if cfg.gzsl:
            # one prediction over both test groups: the transductive clusters
            # span them, and a nearest-neighbour row does not see its batch
            pred = predict(setting, np.vstack([unseen_pts, seen_pts]), space_t, "kmeans_gzsl")
            n_u = unseen_pts.shape[0]
            metrics.update(
                zsl_eval.gzsl_scores(pred[:n_u], unseen_truth, pred[n_u:], seen_truth)
            )
    return out


def _evaluate_many(features, labels, space: SemanticSpace, jobs) -> list:
    """evaluate_split of every (split, cfg) of jobs, in job order.

    Every job's classes are checked and its visual stage run before any fit.
    Jobs whose clipped training sets are equal share one slpp_fit_many call
    over their distinct (n_neighbors, width_scale) at their largest d_latent,
    and each takes its leading directions (bit for bit a fit at its own
    d_latent). One lsm_embed_many call places every job, at the first job's
    lsm_max_iter and lsm_tol, which all jobs share.
    """
    if not jobs:
        return []
    labels = np.asarray(labels)
    for split, _ in jobs:
        _check_classes(space, [*split.seen, *split.unseen])
    dist_sem = embedding.semantic_distance_matrix(space)
    stages = [_visual_stage(features, labels, split, cfg) for split, cfg in jobs]
    by_train = {}  # clipped training set -> its jobs
    for k, (part, _) in enumerate(stages):
        by_train.setdefault(part.train.tobytes(), []).append(k)
    latent = [None] * len(jobs)  # per job: _latent_stage's (problem, points)
    for members in by_train.values():
        trials = [stages[k][1] for k in members]
        graphs = list(dict.fromkeys((t.n_neighbors, t.width_scale) for t in trials))
        train = stages[members[0]][0].train
        fits = embedding.slpp_fit_many(features[train], labels[train], graphs=graphs,
                                       d_latent=max(t.d_latent for t in trials))
        for k, trial in zip(members, trials):
            fit = fits[graphs.index((trial.n_neighbors, trial.width_scale))]
            model = embedding.leading_directions(fit, trial.d_latent)
            latent[k] = _latent_stage(features, labels, space, dist_sem, jobs[k][0], trial,
                                      stages[k][0], model)
    budget = jobs[0][1]
    placed = embedding.lsm_embed_many([problem for problem, _ in latent],
                                      max_iter=budget.lsm_max_iter, tol=budget.lsm_tol)
    return [
        _scoring_stage(labels, split, cfg, part, problem, points, unseen_emb)
        for (split, _), (part, cfg), (problem, points), (unseen_emb, _)
        in zip(jobs, stages, latent, placed)
    ]


def evaluate_split(features, labels, space: SemanticSpace, split, cfg: EvalConfig) -> dict:
    """All requested metrics for one seen/unseen split.

    Returns {"inductive": {...}, "transductive": {...}} with metric keys
    A_UU (conventional) and A_UT/A_ST/H (generalised) as requested.
    """
    return _evaluate_many(features, labels, space, [(split, cfg)])[0]


def select_hyperparameters(features, labels, space, split, cfg: EvalConfig) -> dict:
    """Class-wise cross-validation over the configured grid on the split's
    seen classes.

    The grid may vary d_latent, n_neighbors and width_scale (the keys of
    DEFAULT_CV_GRID), as EvalConfig checks. The folds are drawn
    from the split's "cv" seed, and each fold is scored in the conventional
    setting with that seed as master, so every combination meets the same
    folds and the same LSM starts. The grid is scanned in its declared
    order; the first combination attaining the best mean conventional
    accuracy over the folds wins.

    One _evaluate_many call scores every (grid point, fold), so each fold's
    grid points share one SLPP fit and all placements descend together.
    """
    cv_seed = split_seeds(cfg.seed, split.split_index)["cv"]
    folds = data_io.cv_folds(split.seen, cfg.cv_n_folds, cv_seed)
    grid = [dict(zip(cfg.cv_grid, combo)) for combo in itertools.product(*cfg.cv_grid.values())]
    jobs = [(fold, replace(cfg, czsl=True, gzsl=False, transductive=False, seed=cv_seed, **chosen))
            for chosen in grid for fold in folds]
    scores = [m["inductive"]["A_UU"] for m in _evaluate_many(features, labels, space, jobs)]
    means = [float(np.mean(scores[i:i + len(folds)])) for i in range(0, len(scores), len(folds))]
    return grid[means.index(max(means))]


def run_evaluation(
    dataset_name: str,
    features,
    labels,
    space: SemanticSpace,
    splits,
    cfg: EvalConfig,
    method: str = "unknown",
    workers: int | None = None,
) -> dict:
    """Evaluate every split and aggregate into one report per setting.

    With cfg.cv enabled, hyperparameters are re-selected per split by
    class-wise cross-validation on that split's seen classes; then every
    split is scored by one _evaluate_many call. workers is accepted and
    ignored: the benchmark harness (bench/workloads.py) still passes it.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)

    chosen = [
        select_hyperparameters(features, labels, space, split, cfg) if cfg.cv else {}
        for split in splits
    ]
    jobs = [(split, replace(cfg, **c)) for split, c in zip(splits, chosen)]
    results = _evaluate_many(features, labels, space, jobs)
    for metrics, c in zip(results, chosen):
        if c:
            for setting in metrics:
                metrics[setting]["cv_selected"] = c

    config_echo = cfg.echo()
    seeds = {
        "master": cfg.seed,
        "per_split": {str(s.split_index): split_seeds(cfg.seed, s.split_index) for s in splits},
    }
    reports = {}
    for setting in cfg.settings():
        reports[setting] = zsl_eval.build_report(
            dataset_name,
            method,
            setting,
            [r[setting] for r in results],
            config=config_echo,
            seeds=seeds,
        )
    return reports
