"""Desk-scale synthetic datasets with a planted latent structure.

Ground-truth class points live in a low-dimensional latent space. Video
features are an orthonormal linear lift of the class points into visual
space plus Gaussian noise; the emitted semantic representations are an
orthonormal lift into semantic space plus noise; per-class image bags are
repeated noisy samples around the semantic class points. Orthonormal lifts
preserve pairwise distances, so semantic distances genuinely predict the
visual class structure and a correct pipeline recovers the classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import data_io
from .encoders import SemanticSpace
from .errors import ConfigError


@dataclass(frozen=True)
class SynthSpec:
    """Shape and noise parameters of a planted dataset."""

    name: str = "synth"
    n_classes: int = 12
    n_seen: int = 6
    d_visual: int = 20
    d_latent_true: int = 4
    d_semantic: int = 8
    examples_per_class: int = 40
    images_per_class: int = 30
    noise_visual: float = 0.05
    noise_semantic: float = 0.05
    noise_bag: float = 0.05
    n_splits: int = 5

    def __post_init__(self):
        for key in ("n_classes", "n_seen", "d_visual", "d_latent_true", "d_semantic",
                    "examples_per_class", "images_per_class", "n_splits"):
            if getattr(self, key) < 1:
                raise ConfigError(f"synth spec field {key} must be >= 1")
        if self.n_seen >= self.n_classes:
            raise ConfigError("n_seen must be smaller than n_classes")
        if self.n_classes <= self.d_latent_true:
            raise ConfigError("n_classes must exceed d_latent_true")
        if self.d_visual < self.d_latent_true:
            raise ConfigError("d_visual must be >= d_latent_true for an isometric lift")
        if self.d_semantic < self.d_latent_true:
            raise ConfigError("d_semantic must be >= d_latent_true for an isometric lift")
        for key in ("noise_visual", "noise_semantic", "noise_bag"):
            if getattr(self, key) < 0:
                raise ConfigError(f"synth spec field {key} must be >= 0")


# The JSON types each SynthSpec field type takes; a bool is never a number.
_TYPES = {"str": str, "int": int, "float": (int, float)}


def _checked(key: str, value, kind: str):
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        raise ConfigError(f"synth spec key {key!r} takes {kind}, got {value!r}")
    return value


def spec_from_json(payload: dict) -> SynthSpec:
    """Build a spec from a JSON object; "noise" sets all three noise levels.
    Each value must have its field's type, where an int is also a float."""
    payload = dict(payload)
    noise = payload.pop("noise", None)
    if noise is not None:
        if isinstance(noise, dict):
            for part in noise:
                if part not in ("visual", "semantic", "bag"):
                    raise ConfigError(f"unknown part {part!r} of synth spec key 'noise'")
            for part in ("visual", "semantic", "bag"):
                if part in noise:
                    payload[f"noise_{part}"] = float(_checked("noise", noise[part], "float"))
        else:
            for part in ("visual", "semantic", "bag"):
                payload.setdefault(f"noise_{part}", float(_checked("noise", noise, "float")))
    kinds = {f.name: f.type for f in fields(SynthSpec)}
    for key, value in payload.items():
        if key not in kinds:
            raise ConfigError(f"unknown synth spec key {key!r}")
        _checked(key, value, kinds[key])
    return SynthSpec(**payload)


def _orthonormal_lift(rng: np.random.Generator, d_out: int, d_in: int) -> np.ndarray:
    """Columns form an orthonormal basis: the lift preserves distances."""
    Q, _ = np.linalg.qr(rng.normal(size=(d_out, d_in)))
    return Q[:, :d_in]


def _class_points(rng: np.random.Generator, n_classes: int, dim: int) -> np.ndarray:
    """Well-spread class points: a random configuration, whitened so it is
    exactly isotropic, then normalized to a common radius of 2.

    Equal norms and isotropy keep every seen-class subset well conditioned,
    so the inter-class distances carry identity information rather than
    accidents of the draw."""
    Z = rng.normal(size=(n_classes, dim))
    Z -= Z.mean(axis=0)
    U, _, _ = np.linalg.svd(Z, full_matrices=False)
    W = U * np.sqrt(n_classes)
    return 2.0 * W / np.linalg.norm(W, axis=1, keepdims=True)


def make_synthetic(spec: SynthSpec, seed: int, out_dir) -> Path:
    """Generate and write a synthetic dataset; returns the manifest path.

    Emits video features and labels, one image bag per class, a ready-made
    semantic space (the noisy class points, Euclidean metric), seen/unseen
    splits, and a config echo. Byte-identical for a fixed (spec, seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bags").mkdir(exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2024]))

    C = spec.n_classes
    Z = _class_points(rng, C, spec.d_latent_true)
    lift_visual = _orthonormal_lift(rng, spec.d_visual, spec.d_latent_true)
    lift_semantic = _orthonormal_lift(rng, spec.d_semantic, spec.d_latent_true)

    labels = np.repeat(np.arange(C), spec.examples_per_class)
    features = Z[labels] @ lift_visual.T + spec.noise_visual * rng.normal(
        size=(labels.shape[0], spec.d_visual)
    )
    reps = Z @ lift_semantic.T + spec.noise_semantic * rng.normal(size=(C, spec.d_semantic))

    data_io.save_matrix(features, out_dir / "features.zmat")
    data_io.save_labels(labels, out_dir / "labels.txt")

    classes = []
    for c in range(C):
        bag = Z[c] @ lift_semantic.T + spec.noise_bag * rng.normal(
            size=(spec.images_per_class, spec.d_semantic)
        )
        bag_rel = f"bags/class_{c:03d}.zmat"
        data_io.save_matrix(bag, out_dir / bag_rel)
        classes.append({"id": c, "name": f"class_{c:03d}", "image_bag": bag_rel})

    space = SemanticSpace(class_ids=tuple(range(C)), reps=reps, metric="euclidean")
    data_io.save_semantic_space(space, out_dir, extra={"method": "planted"})

    splits = data_io.generate_class_splits(C, spec.n_seen, spec.n_splits, seed)
    data_io.save_splits(splits, out_dir / "splits.json", dataset=spec.name)

    manifest = {
        "name": spec.name,
        "classes": classes,
        "video_features": "features.zmat",
        "video_labels": "labels.txt",
    }
    manifest_path = out_dir / "manifest.json"
    data_io.write_json(manifest, manifest_path)

    echo = {"spec": spec.__dict__, "seed": int(seed)}
    data_io.write_json(echo, out_dir / "synth_config.json")
    return manifest_path


def load_spec(path) -> SynthSpec:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read synth spec {path}: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError("synth spec must be a JSON object")
    return spec_from_json(payload)
