import json
from pathlib import Path

import numpy as np
import pytest

from zslkit import data_io, pipeline, synth
from zslkit.errors import ConfigError


def read_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestSpec:
    def test_noise_shorthand(self):
        spec = synth.spec_from_json({"noise": 0.1, "n_classes": 8, "n_seen": 4})
        assert spec.noise_visual == spec.noise_semantic == spec.noise_bag == 0.1

    def test_noise_per_channel(self):
        spec = synth.spec_from_json({"noise": {"visual": 0.2, "bag": 0.3}})
        assert spec.noise_visual == 0.2
        assert spec.noise_semantic == synth.SynthSpec().noise_semantic
        assert spec.noise_bag == 0.3

    def test_rejects_inconsistent_dimensions(self):
        with pytest.raises(ConfigError):
            synth.spec_from_json({"d_visual": 2, "d_latent_true": 5, "d_semantic": 8})

    def test_int_serves_as_float(self):
        spec = synth.spec_from_json({"noise_visual": 1, "noise": 0})
        assert (spec.noise_visual, spec.noise_semantic, spec.noise_bag) == (1, 0.0, 0.0)

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            synth.spec_from_json({"what": 1})

    def test_rejects_unknown_noise_part(self):
        with pytest.raises(ConfigError, match="'semantc'"):
            synth.spec_from_json({"noise": {"visual": 0.1, "semantc": 9}})

    def test_rejects_seen_not_below_classes(self):
        with pytest.raises(ConfigError):
            synth.spec_from_json({"n_classes": 5, "n_seen": 5})

    def test_spec_checks_itself_when_built(self):
        with pytest.raises(ConfigError, match="n_seen must be smaller than n_classes"):
            synth.SynthSpec(n_seen=99)


class TestGeneration:
    def test_deterministic_files(self, tmp_path):
        spec = synth.SynthSpec(n_classes=6, n_seen=3, examples_per_class=10,
                               images_per_class=5, n_splits=2)
        synth.make_synthetic(spec, seed=4, out_dir=tmp_path / "a")
        synth.make_synthetic(spec, seed=4, out_dir=tmp_path / "b")
        a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"

    def test_manifest_loads_and_shapes(self, tmp_path):
        spec = synth.SynthSpec(n_classes=6, n_seen=3, examples_per_class=10,
                               images_per_class=5, n_splits=2)
        manifest = synth.make_synthetic(spec, seed=4, out_dir=tmp_path)
        ds = data_io.load_dataset(manifest)
        assert ds.features.shape == (60, spec.d_visual)
        assert ds.n_classes == 6
        space = data_io.load_semantic_space(tmp_path / "space.json")
        assert space.reps.shape == (6, spec.d_semantic)
        assert space.metric == "euclidean"
        bag = ds.load_image_bag(0)
        assert bag.vectors.shape == (5, spec.d_semantic)
        splits = data_io.load_splits(tmp_path / "splits.json")
        assert len(splits) == 2

    def test_noiseless_dataset_is_perfectly_recoverable(self, tmp_path):
        spec = synth.SynthSpec(
            n_classes=12, n_seen=6, examples_per_class=12, images_per_class=4,
            noise_visual=0.0, noise_semantic=0.0, noise_bag=0.0, n_splits=2,
        )
        manifest = synth.make_synthetic(spec, seed=3, out_dir=tmp_path)
        ds = data_io.load_dataset(manifest)
        space = data_io.load_semantic_space(tmp_path / "space.json")
        splits = data_io.load_splits(tmp_path / "splits.json")
        cfg = pipeline.EvalConfig(d_latent=4, n_neighbors=5, gzsl=False, transductive=False, seed=0)
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits, cfg, method="planted"
        )
        assert reports["inductive"].mean["A_UU"] == 1.0

    def test_semantic_distances_reflect_visual_structure(self, tmp_path):
        spec = synth.SynthSpec(n_classes=6, n_seen=3, examples_per_class=8,
                               images_per_class=4, n_splits=1)
        manifest = synth.make_synthetic(spec, seed=2, out_dir=tmp_path)
        ds = data_io.load_dataset(manifest)
        space = data_io.load_semantic_space(tmp_path / "space.json")
        # per-class mean features and semantic reps should order distances alike
        centers = np.vstack([ds.features[ds.labels == c].mean(0) for c in range(6)])
        d_vis = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        d_sem = np.linalg.norm(space.reps[:, None] - space.reps[None, :], axis=2)
        iu = np.triu_indices(6, k=1)
        corr = np.corrcoef(d_vis[iu], d_sem[iu])[0, 1]
        assert corr > 0.97
