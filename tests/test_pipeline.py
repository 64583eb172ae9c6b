import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from zslkit import data_io, embedding, pipeline, synth, zsl_eval


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    spec = synth.SynthSpec(n_classes=8, n_seen=4, d_visual=12, d_latent_true=3,
                           d_semantic=6, examples_per_class=15, images_per_class=5,
                           n_splits=3)
    manifest = synth.make_synthetic(spec, seed=3, out_dir=out)
    ds = data_io.load_dataset(manifest)
    space = data_io.load_semantic_space(out / "space.json")
    splits = data_io.load_splits(out / "splits.json")
    return ds, space, splits


class TestDeriveSeed:
    def test_stable(self):
        assert pipeline.derive_seed(3, 1, 0) == pipeline.derive_seed(3, 1, 0)

    def test_distinct_paths(self):
        seeds = {pipeline.derive_seed(3, i, j) for i in range(5) for j in range(3)}
        assert len(seeds) == 15


class TestEvaluateSplit:
    def test_metric_keys_per_setting(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=True, seed=0)
        out = pipeline.evaluate_split(ds.features, ds.labels, space, splits[0], cfg)
        for setting in ("inductive", "transductive"):
            assert {"A_UU", "A_UT", "A_ST", "H"} <= set(out[setting])

    def test_settings_flags_prune_metrics(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, gzsl=False,
                                  transductive=False, seed=0)
        out = pipeline.evaluate_split(ds.features, ds.labels, space, splits[0], cfg)
        assert list(out) == ["inductive"]
        assert "A_UT" not in out["inductive"]
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, czsl=False,
                                  transductive=False, seed=0)
        out = pipeline.evaluate_split(ds.features, ds.labels, space, splits[0], cfg)
        assert "A_UU" not in out["inductive"]
        assert "H" in out["inductive"]

    def test_deterministic(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=True, seed=5)
        a = pipeline.evaluate_split(ds.features, ds.labels, space, splits[1], cfg)
        b = pipeline.evaluate_split(ds.features, ds.labels, space, splits[1], cfg)
        assert a == b


class TestRunEvaluation:
    def test_reports_aggregate_all_splits(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=True, seed=0)
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits, cfg, method="planted"
        )
        assert set(reports) == {"inductive", "transductive"}
        for report in reports.values():
            assert len(report.splits) == len(splits)
            assert set(report.mean) == {"A_UU", "A_UT", "A_ST", "H"}
            assert report.seeds["master"] == 0

    def test_worker_count_does_not_change_results(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=True, seed=2)
        a = pipeline.run_evaluation(ds.name, ds.features, ds.labels, space, splits,
                                    cfg, method="m", workers=1)
        b = pipeline.run_evaluation(ds.name, ds.features, ds.labels, space, splits,
                                    cfg, method="m", workers=3)
        for setting in a:
            assert a[setting].splits == b[setting].splits

    def test_splits_run_serially_on_calling_thread(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=False, seed=1)
        evaluate = pipeline.evaluate_split
        calls = []

        def recording(features, labels, space, split, cfg):
            calls.append((split.split_index, threading.get_ident()))
            return evaluate(features, labels, space, split, cfg)

        monkeypatch.setattr(pipeline, "evaluate_split", recording)
        pipeline.run_evaluation(ds.name, ds.features, ds.labels, space, splits[:2],
                                cfg, method="m", workers=4)
        me = threading.get_ident()
        assert calls == [(s.split_index, me) for s in splits[:2]]

    def test_seeds_echo_lists_every_derived_seed(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=True, seed=4)
        derive = pipeline.derive_seed
        used = {}

        def recording(master, split_index, *path):
            seed = derive(master, split_index, *path)
            used.setdefault(split_index, set()).add(seed)
            return seed

        monkeypatch.setattr(pipeline, "derive_seed", recording)
        for split in splits:
            pipeline.evaluate_split(ds.features, ds.labels, space, split, cfg)
        monkeypatch.undo()
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits, cfg, method="m"
        )
        for report in reports.values():
            for split in splits:
                echoed = set(report.seeds["per_split"][str(split.split_index)].values())
                assert used[split.split_index] <= echoed

    def test_h_equals_per_split_average(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(d_latent=3, n_neighbors=5, transductive=False, seed=0)
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits, cfg, method="m"
        )
        rep = reports["inductive"]
        assert rep.mean["H"] == pytest.approx(np.mean([s["H"] for s in rep.splits]))


class TestCrossValidation:
    def test_selects_from_grid_deterministically(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(
            seed=1,
            cv=True,
            cv_n_folds=2,
            cv_grid={"d_latent": (2, 3), "n_neighbors": (5,)},
            transductive=False,
            gzsl=False,
            lsm_max_iter=200,
        )
        chosen = pipeline.select_hyperparameters(
            ds.features, ds.labels, space, splits[0], cfg
        )
        assert chosen["d_latent"] in (2, 3)
        assert chosen["n_neighbors"] == 5
        again = pipeline.select_hyperparameters(
            ds.features, ds.labels, space, splits[0], cfg
        )
        assert chosen == again

    def test_cv_grid_varies_only_the_documented_keys(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(
            seed=2, cv=True, cv_n_folds=2,
            cv_grid={"d_latent": (2,), "lsm_max_iter": (10, 30)},
            transductive=False, gzsl=False, lsm_restarts=1, lsm_max_iter=20,
        )
        with pytest.raises(ValueError, match="lsm_max_iter"):
            pipeline.select_hyperparameters(ds.features, ds.labels, space, splits[0], cfg)

        # every (grid point, fold) placement is placed by one stacked call
        lsm_embed_many, calls = embedding.lsm_embed_many, []

        def recording(problems, *, max_iter, tol):
            calls.append((max_iter, len(problems)))
            return lsm_embed_many(problems, max_iter=max_iter, tol=tol)

        monkeypatch.setattr(embedding, "lsm_embed_many", recording)
        cfg.cv_grid = {"d_latent": (2, 3), "n_neighbors": (5,), "width_scale": (1.0, 2.0)}
        pipeline.select_hyperparameters(ds.features, ds.labels, space, splits[0], cfg)
        assert calls == [(20, 2 * 2 * 2)]

    def test_cv_run_records_selection(self, planted):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(
            seed=1, cv=True, cv_n_folds=2,
            cv_grid={"d_latent": (2, 3), "n_neighbors": (5,)},
            transductive=False, gzsl=False, lsm_max_iter=200,
        )
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits[:1], cfg, method="m"
        )
        assert "cv_selected" in reports["inductive"].splits[0]

    def test_cv_seeds_rederive_from_report(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = pipeline.EvalConfig(
            seed=6, cv=True, cv_n_folds=2,
            cv_grid={"d_latent": (2, 3), "n_neighbors": (5,)},
            transductive=False, gzsl=False, lsm_max_iter=50,
        )
        cv_folds, lsm_embed_many = data_io.cv_folds, embedding.lsm_embed_many
        fold_seeds, lsm_seeds = [], []

        def recording_folds(seen, n_folds, seed):
            fold_seeds.append(seed)
            return cv_folds(seen, n_folds, seed)

        # every placement, the CV's stacked ones and the split's own through
        # lsm_embed, goes through lsm_embed_many in order
        def recording_lsm(problems, **kwargs):
            lsm_seeds.extend(problem["seed"] for problem in problems)
            return lsm_embed_many(problems, **kwargs)

        monkeypatch.setattr(data_io, "cv_folds", recording_folds)
        monkeypatch.setattr(embedding, "lsm_embed_many", recording_lsm)
        reports = pipeline.run_evaluation(
            ds.name, ds.features, ds.labels, space, splits[:2], cfg, method="m"
        )
        per_split = reports["inductive"].seeds["per_split"]
        echoed = [per_split[str(s.split_index)] for s in splits[:2]]
        assert fold_seeds == [e["cv"] for e in echoed]
        assert echoed[0]["cv"] != echoed[1]["cv"]
        # per split: each grid combination's folds, in fold order, then the split itself
        expected = []
        for e in echoed:
            folds = [pipeline.split_seeds(e["cv"], f)["lsm"] for f in range(cfg.cv_n_folds)]
            expected += folds * len(cfg.cv_grid["d_latent"]) + [e["lsm"]]
        assert lsm_seeds == expected

    # n_neighbors 40 and 50 both clip to 29 on a fold's 30 training points,
    # and d_latent 50 clips to the 12 visual dimensions
    WIDE_GRID = {"d_latent": (2, 3, 50), "n_neighbors": (5, 40, 50), "width_scale": (1.0, 2.0)}

    def wide_cfg(self):
        return pipeline.EvalConfig(
            seed=8, cv=True, cv_n_folds=2, cv_grid=self.WIDE_GRID,
            transductive=False, gzsl=False, lsm_max_iter=30, lsm_restarts=1,
        )

    def test_one_slpp_fit_per_fold_and_graph_setting(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = self.wide_cfg()
        slpp_fit_many, calls = embedding.slpp_fit_many, []

        def recording(X, labels, *, d_latent, graphs, **kw):
            classes = tuple(np.unique(labels).tolist())  # names the fold
            calls.append((classes, X.shape[0], d_latent, graphs))
            return slpp_fit_many(X, labels, d_latent=d_latent, graphs=graphs, **kw)

        monkeypatch.setattr(embedding, "slpp_fit_many", recording)
        pipeline.select_hyperparameters(ds.features, ds.labels, space, splits[0], cfg)
        # one call per fold, at the largest clipped d_latent, over the fold's
        # distinct clipped (n_neighbors, width_scale) in grid order
        assert len(calls) == 2
        assert len({classes for classes, *_ in calls}) == 2
        for _, n, d, graphs in calls:
            assert (n, d) == (30, 12)
            assert graphs == [(5, 1.0), (5, 2.0), (29, 1.0), (29, 2.0)]

    def test_selection_matches_evaluate_split_per_fold(self, planted, monkeypatch):
        ds, space, splits = planted
        cfg = self.wide_cfg()
        split = splits[1]
        cv_seed = pipeline.split_seeds(cfg.seed, split.split_index)["cv"]
        folds = data_io.cv_folds(split.seen, cfg.cv_n_folds, cv_seed)
        fold_cfg = replace(cfg, czsl=True, gzsl=False, transductive=False, seed=cv_seed)
        combos = [dict(zip(cfg.cv_grid, c)) for c in itertools.product(*cfg.cv_grid.values())]
        reference = [
            pipeline.evaluate_split(ds.features, ds.labels, space, fold,
                                    replace(fold_cfg, **chosen))["inductive"]["A_UU"]
            for chosen in combos
            for fold in folds
        ]
        means = [float(np.mean(reference[i:i + len(folds)]))
                 for i in range(0, len(reference), len(folds))]
        assert len(set(means)) > 1  # the grid does separate the combinations

        accuracy, scores = zsl_eval.per_class_accuracy, []

        def recording(*args, **kwargs):
            scores.append(accuracy(*args, **kwargs))
            return scores[-1]

        monkeypatch.setattr(zsl_eval, "per_class_accuracy", recording)
        chosen = pipeline.select_hyperparameters(ds.features, ds.labels, space, split, cfg)
        assert scores == reference
        assert chosen == combos[means.index(max(means))]
