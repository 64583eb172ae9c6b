"""End-to-end evaluation over class splits.

Per split: hold out seen-class test examples if the generalised protocol is
requested, fit the supervised projection on the training examples, average
per-class landmarks, place unseen classes by landmark Sammon mapping
against the semantic distances, then score every requested setting.

Splits run one after another, in split order, on the calling thread; each
split derives its own seeds from the master seed and the split index.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import data_io, embedding, zsl_eval
from .encoders import SemanticSpace
from .errors import DataError
from .zsl_eval import SearchSpace

DEFAULT_CV_GRID = {
    "d_latent": (20, 50, 100),
    "n_neighbors": (5, 10, 20),
    "width_scale": (0.5, 1.0, 2.0),
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
    d_latent = min(cfg.d_latent, d_visual, n_train - 1)
    n_neighbors = min(cfg.n_neighbors, n_train - 1)
    if d_latent != cfg.d_latent or n_neighbors != cfg.n_neighbors:
        return replace(cfg, d_latent=d_latent, n_neighbors=n_neighbors)
    return cfg


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


def evaluate_split(features, labels, space: SemanticSpace, split, cfg: EvalConfig) -> dict:
    """All requested metrics for one seen/unseen split.

    Returns {"inductive": {...}, "transductive": {...}} with metric keys
    A_UU (conventional) and A_UT/A_ST/H (generalised) as requested.
    """
    _check_classes(space, [*split.seen, *split.unseen])
    dist_sem = embedding.semantic_distance_matrix(space)
    labels = np.asarray(labels)
    part, cfg = _visual_stage(features, labels, split, cfg)
    model = embedding.slpp_fit(
        features[part.train], labels[part.train], d_latent=cfg.d_latent,
        n_neighbors=cfg.n_neighbors, width_scale=cfg.width_scale,
    )
    problem, points = _latent_stage(features, labels, space, dist_sem, split, cfg, part, model)
    unseen_emb, _ = embedding.lsm_embed(**problem, max_iter=cfg.lsm_max_iter, tol=cfg.lsm_tol)
    return _scoring_stage(labels, split, cfg, part, problem, points, unseen_emb)


def select_hyperparameters(features, labels, space, split, cfg: EvalConfig) -> dict:
    """Class-wise cross-validation over the configured grid on the split's
    seen classes.

    The grid may vary d_latent, n_neighbors and width_scale (the keys of
    DEFAULT_CV_GRID); any other key is a ValueError. The folds are drawn
    from the split's "cv" seed, and each fold is scored in the conventional
    setting with that seed as master, so every combination meets the same
    folds and the same LSM starts. The grid is scanned in its declared
    order; the first combination attaining the best mean conventional
    accuracy over the folds wins.

    Each fold is scored as evaluate_split scores it, with two savings. One
    slpp_fit_many call per fold fits its distinct (clipped) n_neighbors,
    width_scale at the grid's largest clipped d_latent, and every d_latent
    takes its leading directions, which equal a fit at that d_latent bit
    for bit. And every (grid point, fold) placement is built first, and
    one lsm_embed_many call places them all, descending the restarts of
    all placements of one shape as one stack.
    """
    unknown = sorted(set(cfg.cv_grid) - set(DEFAULT_CV_GRID))
    if unknown:
        raise ValueError(f"cv_grid may vary only {sorted(DEFAULT_CV_GRID)}, not {unknown}")
    cv_seed = split_seeds(cfg.seed, split.split_index)["cv"]
    folds = data_io.cv_folds(split.seen, cfg.cv_n_folds, cv_seed)
    _check_classes(space, split.seen)
    dist_sem = embedding.semantic_distance_matrix(space)
    labels = np.asarray(labels)
    fold_cfg = replace(cfg, czsl=True, gzsl=False, transductive=False, seed=cv_seed)
    grid = [dict(zip(cfg.cv_grid, combo)) for combo in itertools.product(*cfg.cv_grid.values())]
    jobs = [[] for _ in grid]  # per grid point and fold: (fold, trial, part, problem, points)
    for fold in folds:
        stages = [_visual_stage(features, labels, fold, replace(fold_cfg, **c)) for c in grid]
        train = stages[0][0].train  # without a holdout, the grid point does not change it
        keys = [(trial.n_neighbors, trial.width_scale) for _, trial in stages]
        graphs = list(dict.fromkeys(keys))
        fits = embedding.slpp_fit_many(features[train], labels[train], graphs=graphs,
                                       d_latent=max(trial.d_latent for _, trial in stages))
        for row, (part, trial), key in zip(jobs, stages, keys):
            model = embedding.leading_directions(fits[graphs.index(key)], trial.d_latent)
            row.append((fold, trial, part, *_latent_stage(
                features, labels, space, dist_sem, fold, trial, part, model
            )))
    jobs = [job for row in jobs for job in row]
    placed = embedding.lsm_embed_many(
        [job[3] for job in jobs], max_iter=cfg.lsm_max_iter, tol=cfg.lsm_tol
    )

    best = None
    for g, chosen in enumerate(grid):
        scores = []
        for k in range(g * len(folds), (g + 1) * len(folds)):
            fold, trial, part, problem, points = jobs[k]
            metrics = _scoring_stage(labels, fold, trial, part, problem, points, placed[k][0])
            scores.append(metrics["inductive"]["A_UU"])
        mean = float(np.mean(scores))
        if best is None or mean > best[0]:
            best = (mean, chosen)
    return best[1]


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
    class-wise cross-validation on that split's seen classes before the
    split is scored. Splits run serially; workers is accepted and ignored.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)

    results = []
    for split in splits:
        split_cfg = cfg
        chosen = None
        if cfg.cv:
            chosen = select_hyperparameters(features, labels, space, split, cfg)
            split_cfg = replace(cfg, **chosen)
        metrics = evaluate_split(features, labels, space, split, split_cfg)
        if chosen:
            for setting in metrics:
                metrics[setting]["cv_selected"] = chosen
        results.append(metrics)

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
