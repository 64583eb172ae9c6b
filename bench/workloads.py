"""Workload shapes, their set-up from a seed, one operation each, and its checks.

Each workload plants a synthetic dataset with `zslkit.synth` from the
benchmark seed, writes it under a work directory, loads it back through
`zslkit.data_io`, and hands the program only those loaded inputs.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zslkit import data_io, embedding, encoders, gmm, pipeline, synth, zsl_eval

from spans import Target, Tracer

# Metric key in a report, per protocol flag.
CZSL_KEYS = ("A_UU",)
GZSL_KEYS = ("A_UT", "A_ST", "H")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields
    config: dict = field(default_factory=dict)  # EvalConfig fields (eval workloads)
    fisher_k: int = 0  # > 0: the operation is one Fisher encode_class_set
    fisher_max_iter: int = 300

    @property
    def is_encode(self) -> bool:
        return self.fisher_k > 0


# lsm_tol=0 and lsm_max_iter fix the Sammon descent at its iteration budget,
# and fisher_max_iter fixes EM, so the work per run does not depend on how
# fast a given seed's data converges.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-51-50",
            spec=dict(
                n_classes=101, n_seen=51, d_visual=64, d_latent_true=16, d_semantic=16,
                examples_per_class=16, images_per_class=1, noise_visual=0.35,
                noise_semantic=0.1, n_splits=2,
            ),
            config=dict(lsm_restarts=2, lsm_max_iter=150, lsm_tol=0.0),
        ),
        Workload(
            name="cv-small",
            spec=dict(
                n_classes=12, n_seen=6, d_visual=64, d_latent_true=4, d_semantic=8,
                examples_per_class=30, images_per_class=1, noise_visual=0.3,
                noise_semantic=0.1, n_splits=1,
            ),
            config=dict(
                lsm_restarts=2, lsm_max_iter=150, lsm_tol=0.0, cv=True, cv_n_folds=3,
                cv_grid={"d_latent": (20, 50, 100), "n_neighbors": (5, 10), "width_scale": (1.0,)},
            ),
        ),
        Workload(
            name="slpp-dense",
            spec=dict(
                n_classes=10, n_seen=5, d_visual=64, d_latent_true=4, d_semantic=8,
                examples_per_class=250, images_per_class=1, noise_visual=0.1,
                noise_semantic=0.1, n_splits=2,
            ),
            config=dict(lsm_restarts=1, lsm_max_iter=150, lsm_tol=0.0),
        ),
        Workload(
            name="encode-ffv",
            spec=dict(
                n_classes=101, n_seen=51, d_visual=8, d_latent_true=8, d_semantic=128,
                examples_per_class=2, images_per_class=50, noise_bag=1.0, n_splits=1,
            ),
            fisher_k=5,
            fisher_max_iter=30,
        ),
    )
}

# The accuracy metrics of every workload come from this workload's
# operation on the same seed: a 5- or 6-class split gives accuracies that
# swing by a third between seeds, too much for a bounded metric.
ACCURACY_WORKLOAD = "paper-51-50"

# Tiny inputs that run every code path once before timing.
WARM_UP = (
    Workload(
        name="warm-up",
        spec=dict(n_classes=6, n_seen=3, examples_per_class=6, images_per_class=6, n_splits=2),
        config=dict(lsm_restarts=1, lsm_max_iter=5),
    ),
    Workload(
        name="warm-up-fisher",
        spec=dict(n_classes=6, n_seen=3, examples_per_class=2, images_per_class=6, n_splits=1),
        fisher_k=2,
        fisher_max_iter=5,
    ),
)


@dataclass
class Inputs:
    name: str
    features: np.ndarray
    labels: np.ndarray
    space: object  # SemanticSpace
    splits: list
    bags: list


def make_inputs(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Plant the workload's dataset for `seed` and load it back from disk."""
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        manifest = synth.make_synthetic(synth.SynthSpec(name=w.name, **w.spec), seed, tmp)
        ds = data_io.load_dataset(manifest)
        bags = [ds.load_image_bag(c) for c in ds.class_ids] if w.is_encode else []
        return Inputs(
            name=ds.name,
            features=ds.features,
            labels=ds.labels,
            space=data_io.load_semantic_space(Path(tmp) / "space.json"),
            splits=data_io.load_splits(Path(tmp) / "splits.json"),
            bags=bags,
        )


def eval_config(w: Workload, seed: int) -> pipeline.EvalConfig:
    return pipeline.EvalConfig(seed=seed, **w.config)


def run_op(w: Workload, inputs: Inputs, seed: int, workers=None):
    """The workload's one timed operation."""
    if w.is_encode:
        return encoders.encode_class_set(
            inputs.bags, "fisher", k=w.fisher_k, seed=seed, max_iter=w.fisher_max_iter
        )
    return pipeline.run_evaluation(
        inputs.name, inputs.features, inputs.labels, inputs.space, inputs.splits,
        eval_config(w, seed), method="bench", workers=workers,
    )


def output_bytes(w: Workload, result) -> bytes:
    """Canonical bytes of an operation's output, for the determinism check."""
    if w.is_encode:
        return np.ascontiguousarray(result.reps).tobytes()
    return "".join(zsl_eval.report_to_json(result[s]) for s in sorted(result)).encode()


def report_problems(cfg, reports: dict) -> list[str]:
    """Requested metrics that are missing, non-finite or outside [0, 1]."""
    keys = (CZSL_KEYS if cfg.czsl else ()) + (GZSL_KEYS if cfg.gzsl else ())
    problems = []
    for setting in cfg.settings():
        report = reports.get(setting)
        if report is None:
            problems.append(f"no {setting} report")
            continue
        rows = [("mean", report.mean)] + [(f"split {i}", m) for i, m in enumerate(report.splits)]
        for where, values in rows:
            for key in keys:
                v = values.get(key)
                if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                    problems.append(f"{setting} {where} {key}={v!r}")
    return problems


def check_output(w: Workload, inputs: Inputs, seed: int, result) -> list[str]:
    if w.is_encode:
        dim = 2 * inputs.bags[0].dim * w.fisher_k
        want = (len(inputs.bags), dim)
        reps = np.asarray(result.reps)
        problems = [] if reps.shape == want else [f"Fisher space shape {reps.shape}, want {want}"]
        if not np.all(np.isfinite(reps)):
            problems.append("Fisher space has non-finite entries")
        return problems
    return report_problems(eval_config(w, seed), result)


def accuracies(reports: dict) -> dict:
    """End-to-end accuracy metrics: split means of the returned reports."""
    out = {}
    for key in ("A_UU", "H"):
        out[f"{key}.ind"] = reports["inductive"].mean[key]
        out[f"{key}.trans"] = reports["transductive"].mean[key]
    return out


def largest_array_bytes(w: Workload) -> int:
    """Bytes of the largest temporary the workload builds, from its shape.

    Eval workloads: the block x n x d difference tensor of the pairwise
    distance kernel over one split's training points. Fisher workloads: the
    n x K x D difference tensor of an EM step over the pooled bag vectors.
    """
    s = w.spec
    if w.is_encode:
        return s["n_classes"] * s["images_per_class"] * w.fisher_k * s["d_semantic"] * 8
    per_class = s["examples_per_class"]
    held_out = max(1, math.floor(eval_config(w, 0).holdout_fraction * per_class + 0.5))
    n = s["n_seen"] * (per_class - held_out)
    return min(n, 2048) * n * s["d_visual"] * 8


# ---- per-layer tracing ---------------------------------------------------

def _lsm_info(result, args, kwargs):
    _, trace = result
    return {"steps": len(trace.stresses) - 1, "final_stress": trace.final_stress}


def _pairwise_info(result, args, kwargs):
    n, d = np.shape(args[0] if args else kwargs["X"])
    return {"gb": n * n * d * 8 / 1e9}


def _points_info(result, args, kwargs):
    return {"points": int(np.shape(args[0] if args else kwargs["points"])[0])}


def _gmm_info(result, args, kwargs):
    trace = result.loglik_trace
    pool = args[0] if args else kwargs["pool"]
    return {"em_iters": len(trace), "loglik_per_vec": float(trace[-1]) / np.shape(pool)[0]}


def targets() -> list[Target]:
    """Public functions to trace, each in the namespace its caller uses."""
    return [
        Target(pipeline, "evaluate_split", "pipeline.evaluate_split"),
        Target(pipeline, "select_hyperparameters", "pipeline.select_hyperparameters"),
        Target(pipeline, "pseudo_czsl_accuracy", "pipeline.pseudo_czsl_accuracy"),
        Target(embedding, "slpp_fit", "embedding.slpp_fit"),
        Target(embedding, "knn_affinity", "embedding.knn_affinity", _pairwise_info),
        Target(embedding, "median_pairwise_distance", "embedding.median_pairwise_distance",
               _pairwise_info),
        Target(embedding, "lsm_embed", "embedding.lsm_embed", _lsm_info),
        Target(zsl_eval, "kmeans", "zsl_eval.kmeans", lambda r, a, k: {"inertia": r.inertia}),
        Target(zsl_eval, "optimal_assignment", "zsl_eval.optimal_assignment"),
        Target(zsl_eval, "classify_nn", "zsl_eval.classify_nn", _points_info),
        Target(encoders, "fit_diag_gmm", "gmm.fit_diag_gmm", _gmm_info),
        Target(encoders, "fisher_encode", "encoders.fisher_encode"),
        Target(gmm, "weighted_log_densities", "gmm.weighted_log_densities"),
    ]


# name -> (unit, better); the order is the print order.
PER_LAYER = {
    "embedding.lsm_embed.s": ("s", "lower"),
    "embedding.lsm_embed.calls": ("count", "lower"),
    "embedding.lsm.steps": ("count", "lower"),
    "embedding.lsm.final_stress": ("1", "lower"),
    "embedding.slpp_fit.s": ("s", "lower"),
    "embedding.slpp_fit.self_s": ("s", "lower"),
    "embedding.slpp_fit.calls": ("count", "lower"),
    "embedding.knn_affinity.s": ("s", "lower"),
    "embedding.median_pairwise_distance.s": ("s", "lower"),
    "embedding.pairwise.gb_computed": ("GB", "lower"),
    "zsl_eval.kmeans.s": ("s", "lower"),
    "zsl_eval.kmeans.calls": ("count", "lower"),
    "zsl_eval.kmeans.inertia": ("1", "lower"),
    "zsl_eval.optimal_assignment.s": ("s", "lower"),
    "zsl_eval.classify_nn.s": ("s", "lower"),
    "zsl_eval.classify_nn.points": ("count", "lower"),
    "gmm.fit_diag_gmm.s": ("s", "lower"),
    "gmm.em_iters": ("count", "lower"),
    "gmm.weighted_log_densities.s": ("s", "lower"),
    "gmm.weighted_log_densities.calls": ("count", "lower"),
    "gmm.loglik_per_vec": ("nat", "higher"),
    "encoders.fisher_encode.s": ("s", "lower"),
    "pipeline.evaluate_split.s": ("s", "lower"),
    "pipeline.evaluate_split.self_s": ("s", "lower"),
    "pipeline.split_overlap": ("ratio", "higher"),
    "pipeline.select_hyperparameters.s": ("s", "lower"),
    "pipeline.cv_fits": ("count", "lower"),
    "pipeline.serial_run_s": ("s", "lower"),
    "pipeline.pool_speedup": ("ratio", "higher"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.missing_names": ("count", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation (the root span)."""
    (root,) = [s for s in tracer.spans if s.parent is None]
    run_s = root.duration
    m = {
        "trace.run_s": run_s,
        "trace.uncovered_s": tracer.self_time(root),
        "trace.missing_names": len(tracer.missing),
    }
    for name in ("embedding.lsm_embed", "embedding.slpp_fit", "zsl_eval.kmeans",
                 "gmm.weighted_log_densities"):
        m[f"{name}.s"] = tracer.busy(name)
        m[f"{name}.calls"] = len(tracer.named(name))
    for name in ("embedding.knn_affinity", "embedding.median_pairwise_distance",
                 "zsl_eval.optimal_assignment", "zsl_eval.classify_nn", "gmm.fit_diag_gmm",
                 "encoders.fisher_encode", "pipeline.evaluate_split",
                 "pipeline.select_hyperparameters"):
        m[f"{name}.s"] = tracer.busy(name)
    for name in ("embedding.slpp_fit", "pipeline.evaluate_split"):
        m[f"{name}.self_s"] = sum(tracer.self_time(s) for s in tracer.named(name))
    stresses = tracer.info_values("embedding.lsm_embed", "final_stress")
    m["embedding.lsm.steps"] = sum(tracer.info_values("embedding.lsm_embed", "steps"))
    m["embedding.lsm.final_stress"] = float(np.mean(stresses)) if stresses else 0.0
    m["embedding.pairwise.gb_computed"] = sum(
        tracer.info_values("embedding.knn_affinity", "gb")
        + tracer.info_values("embedding.median_pairwise_distance", "gb")
    )
    m["zsl_eval.kmeans.inertia"] = sum(tracer.info_values("zsl_eval.kmeans", "inertia"))
    m["zsl_eval.classify_nn.points"] = sum(tracer.info_values("zsl_eval.classify_nn", "points"))
    m["gmm.em_iters"] = sum(tracer.info_values("gmm.fit_diag_gmm", "em_iters"))
    loglik = tracer.info_values("gmm.fit_diag_gmm", "loglik_per_vec")
    m["gmm.loglik_per_vec"] = float(np.mean(loglik)) if loglik else 0.0
    m["pipeline.split_overlap"] = m["pipeline.evaluate_split.s"] / run_s
    m["pipeline.cv_fits"] = len(tracer.named("pipeline.pseudo_czsl_accuracy"))
    return m
