import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zslkit import cli, data_io, embedding, synth
from zslkit.cli import build_parser

REPO = Path(__file__).resolve().parents[1]


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "zslkit", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO,
    )


def main_error(capsys, *argv):
    """Run cli.main in process: (exit code, its one JSON error line)."""
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return code, json.loads(lines[0])


def read_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    spec = {
        "n_classes": 8,
        "n_seen": 4,
        "d_visual": 12,
        "d_latent_true": 3,
        "d_semantic": 6,
        "examples_per_class": 15,
        "images_per_class": 6,
        "noise": 0.05,
        "n_splits": 2,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result = run_cli("synth", "--spec", spec_path, "--seed", 5, "--out", out / "data")
    assert result.returncode == 0, result.stderr
    return out / "data"


class TestParser:
    # Each subcommand's flags, pinned so that the shared option helpers in
    # build_parser can neither add nor drop one.
    FLAGS = {
        "encode": {"--config", "--embeddings", "--k", "--manifest", "--method",
                   "--normalize", "--out", "--seed", "--stopwords"},
        "evaluate": {"--config", "--cv", "--d-latent", "--manifest", "--n-seen",
                     "--n-splits", "--neighbors", "--out", "--seed", "--settings",
                     "--space", "--splits", "--transductive", "--width-scale",
                     "--workers"},
        "sweep": {"--axis", "--config", "--d-latent", "--embeddings", "--k",
                  "--manifest", "--method", "--n-seen", "--n-splits", "--neighbors",
                  "--normalize", "--out", "--seed", "--settings", "--splits",
                  "--stopwords", "--transductive", "--values", "--width-scale",
                  "--workers"},
        "synth": {"--config", "--out", "--seed", "--spec"},
        "report": {"--config", "--inputs", "--out", "--seed"},
    }

    @staticmethod
    def subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "command")
        return action.choices

    def test_flags_pinned(self):
        subs = self.subparsers()
        assert set(subs) == set(self.FLAGS)
        for name, sub in subs.items():
            flags = {o for a in sub._actions if a.dest != "help" for o in a.option_strings}
            assert flags == self.FLAGS[name], name

    def test_eval_dests_pinned(self):
        subs = self.subparsers()
        for name in ("evaluate", "sweep"):
            dests = {a.dest for a in subs[name]._actions if a.dest != "help"}
            want = {f.lstrip("-").replace("-", "_") for f in self.FLAGS[name]}
            assert dests == want, name

    def test_out_help_names_what_each_command_writes(self):
        subs = self.subparsers()
        helps = {name: next(a.help for a in sub._actions if a.dest == "out")
                 for name, sub in subs.items()}
        assert helps.pop("report").startswith("CSV file")
        assert set(helps.values()) == {"output directory"}


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        for name in ("manifest.json", "features.zmat", "labels.txt", "space.json",
                     "splits.json", "synth_config.json"):
            assert (synth_dir / name).exists()

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        spec_path = synth_dir.parent / "spec.json"
        result = run_cli("synth", "--spec", spec_path, "--seed", 5, "--out", tmp_path / "again")
        assert result.returncode == 0
        assert read_tree(tmp_path / "again") == read_tree(synth_dir)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"n_classes": "12"}, "'n_classes'"),
            ({"n_classes": 12.5}, "'n_classes'"),
            ({"n_seen": True}, "'n_seen'"),
            ({"noise_bag": "0.1"}, "'noise_bag'"),
            ({"noise_visual": False}, "'noise_visual'"),
            ({"name": 5}, "'name'"),
            ({"noise": "abc"}, "'noise'"),
            ({"noise": [0.1]}, "'noise'"),
            ({"noise": {"visual": "abc"}}, "'noise'"),
            ({"noise": {"visual": 0.1, "semantc": 9}}, "'semantc'"),
        ],
        ids=["int-as-string", "int-as-float", "int-as-bool", "float-as-string",
             "float-as-bool", "name-as-int", "noise-string", "noise-list", "noise-part-string",
             "noise-unknown-part"],
    )
    def test_wrongly_typed_spec_is_config_error(self, tmp_path, capsys, spec, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, err = main_error(capsys, "synth", "--spec", spec_path, "--out", tmp_path / "out")
        assert code == 2
        assert err["error"] == "ConfigError"
        assert named in err["message"]
        assert not (tmp_path / "out").exists()


class TestEncodeCommand:
    def test_afv(self, synth_dir, tmp_path):
        result = run_cli("encode", "--manifest", synth_dir / "manifest.json",
                         "--method", "afv", "--out", tmp_path)
        assert result.returncode == 0, result.stderr
        sidecar = json.loads((tmp_path / "space.json").read_text())
        assert sidecar["metric"] == "euclidean"
        assert sidecar["dim"] == 6
        assert sidecar["method"] == "afv"

    def test_ffv_dimension_contract(self, synth_dir, tmp_path):
        result = run_cli("encode", "--manifest", synth_dir / "manifest.json",
                         "--method", "ffv", "--k", 2, "--seed", 1, "--out", tmp_path)
        assert result.returncode == 0, result.stderr
        sidecar = json.loads((tmp_path / "space.json").read_text())
        assert sidecar["dim"] == 2 * 6 * 2
        assert sidecar["metric"] == "cosine"

    def test_text_methods_on_toy_corpus(self, tmp_path):
        docs = {
            0: "jump high and spin fast",
            1: "kick the ball hard",
            2: "swim across cold water",
        }
        for cid, text in docs.items():
            (tmp_path / f"doc{cid}.txt").write_text(text)
        rng = np.random.default_rng(0)
        vocab = sorted({w for t in docs.values() for w in t.split()})
        table_lines = [f"{len(vocab)} 4"]
        for w in vocab:
            table_lines.append(w + " " + " ".join(repr(float(x)) for x in rng.normal(size=4)))
        (tmp_path / "vectors.txt").write_text("\n".join(table_lines) + "\n")

        from zslkit import data_io

        features = rng.normal(size=(6, 5))
        data_io.save_matrix(features, tmp_path / "features.zmat")
        data_io.save_labels(np.array([0, 0, 1, 1, 2, 2]), tmp_path / "labels.txt")
        manifest = {
            "name": "toy",
            "classes": [
                {"id": c, "name": f"c{c}", "doc": f"doc{c}.txt"} for c in docs
            ],
            "video_features": "features.zmat",
            "video_labels": "labels.txt",
            "word_vectors": "vectors.txt",
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

        for method, dim, metric in (("td", None, "cosine"), ("awv", 4, "euclidean"),
                                    ("fwv", 8, "cosine")):
            out = tmp_path / f"out_{method}"
            result = run_cli("encode", "--manifest", tmp_path / "manifest.json",
                             "--method", method, "--k", 1, "--out", out)
            assert result.returncode == 0, result.stderr
            sidecar = json.loads((out / "space.json").read_text())
            assert sidecar["metric"] == metric
            if dim:
                assert sidecar["dim"] == dim

    def test_k_out_of_range_is_config_error(self, synth_dir, tmp_path):
        result = run_cli("encode", "--manifest", synth_dir / "manifest.json",
                         "--method", "ffv", "--k", 6, "--out", tmp_path)
        assert result.returncode == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    def test_missing_manifest_is_data_error(self, tmp_path):
        result = run_cli("encode", "--manifest", tmp_path / "nope.json",
                         "--method", "afv", "--out", tmp_path)
        assert result.returncode == 3
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DataError"


class TestEvaluateCommand:
    def evaluate(self, synth_dir, out, *extra, env_extra=None):
        return run_cli(
            "evaluate",
            "--manifest", synth_dir / "manifest.json",
            "--space", synth_dir / "space.json",
            "--splits", synth_dir / "splits.json",
            "--d-latent", 3,
            "--neighbors", 5,
            "--seed", 11,
            "--out", out,
            *extra,
            env_extra=env_extra,
        )

    def test_reports_written(self, synth_dir, tmp_path):
        result = self.evaluate(synth_dir, tmp_path, "--transductive")
        assert result.returncode == 0, result.stderr
        inductive = json.loads((tmp_path / "report_inductive.json").read_text())
        assert set(inductive["mean"]) == {"A_UU", "A_UT", "A_ST", "H"}
        assert len(inductive["splits"]) == 2
        assert (tmp_path / "report_transductive.json").exists()
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 8  # 4 metrics x 2 settings

    def test_transductive_flag_off_omits_block(self, synth_dir, tmp_path):
        result = self.evaluate(synth_dir, tmp_path)
        assert result.returncode == 0, result.stderr
        assert not (tmp_path / "report_transductive.json").exists()

    def test_settings_subset(self, synth_dir, tmp_path):
        result = self.evaluate(synth_dir, tmp_path, "--settings", "czsl")
        assert result.returncode == 0, result.stderr
        inductive = json.loads((tmp_path / "report_inductive.json").read_text())
        assert set(inductive["mean"]) == {"A_UU"}

    def test_byte_identical_across_worker_counts(self, synth_dir, tmp_path):
        r1 = self.evaluate(synth_dir, tmp_path / "w1", "--transductive",
                           env_extra={"ZSLKIT_THREADS": "1"})
        r2 = self.evaluate(synth_dir, tmp_path / "w2", "--transductive",
                           env_extra={"ZSLKIT_THREADS": "4"})
        assert r1.returncode == r2.returncode == 0
        assert read_tree(tmp_path / "w1") == read_tree(tmp_path / "w2")

    def test_generates_splits_when_absent(self, synth_dir, tmp_path):
        result = run_cli(
            "evaluate",
            "--manifest", synth_dir / "manifest.json",
            "--space", synth_dir / "space.json",
            "--n-splits", 2, "--n-seen", 4,
            "--d-latent", 3, "--neighbors", 5,
            "--seed", 2, "--out", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        splits = json.loads((tmp_path / "splits.json").read_text())
        assert len(splits["splits"]) == 2

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        config = {
            "manifest": str(synth_dir / "manifest.json"),
            "space": str(synth_dir / "space.json"),
            "splits": str(synth_dir / "splits.json"),
            "d_latent": 3,
            "neighbors": 5,
            "seed": 11,
            "out": str(tmp_path / "from_config"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        result = run_cli("evaluate", "--config", cfg_path, "--seed", 12)
        assert result.returncode == 0, result.stderr
        echo = json.loads((tmp_path / "from_config" / "evaluate_config.json").read_text())
        assert echo["config"]["seed"] == 12  # flag wins over config file

    @staticmethod
    def evaluate_error(tmp_path, capsys, per_class=15, scale=1.0):
        """main_error of an evaluate on a small synthetic dataset whose
        features are multiplied by scale."""
        spec = synth.SynthSpec(
            n_classes=8, n_seen=4, d_visual=12, d_latent_true=3, d_semantic=6,
            examples_per_class=per_class, images_per_class=6, n_splits=2,
        )
        manifest = synth.make_synthetic(spec, 5, tmp_path / "data")
        features = tmp_path / "data" / "features.zmat"
        data_io.save_matrix(data_io.load_matrix(features) * scale, features)
        return main_error(
            capsys, "evaluate",
            "--manifest", manifest,
            "--space", tmp_path / "data" / "space.json",
            "--splits", tmp_path / "data" / "splits.json",
            "--d-latent", 3, "--neighbors", 5, "--out", tmp_path / "eval",
        )

    @pytest.mark.parametrize(
        "per_class,scale,named",
        [
            (15, 1e160, "features overflow"),
            (2, 1.0, "GZSL holdout"),
        ],
        ids=["features-overflow", "holdout-leaves-one-example"],
    )
    def test_bad_input_is_data_error(self, tmp_path, capsys, per_class, scale, named):
        code, err = self.evaluate_error(tmp_path, capsys, per_class, scale)
        assert code == 3
        assert err["error"] == "DataError"
        assert named in err["message"]

    def test_out_of_memory_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # numpy's message names the array that could not be allocated
        message = "Unable to allocate 107. MiB for an array with shape (3750, 3750)"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(embedding, "_pairwise_sq_dists", out_of_memory)
        code, err = self.evaluate_error(tmp_path, capsys)
        assert code == 4
        assert err == {"error": "MemoryError", "message": message}


class TestSweepCommand:
    def test_images_axis(self, synth_dir, tmp_path):
        result = run_cli(
            "sweep",
            "--manifest", synth_dir / "manifest.json",
            "--splits", synth_dir / "splits.json",
            "--axis", "images", "--values", "2,4,10",
            "--method", "afv",
            "--d-latent", 3, "--neighbors", 5,
            "--settings", "czsl",
            "--seed", 11, "--out", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis_value,metric,mean,stderr"
        values = {int(ln.split(",")[0]) for ln in lines[1:]}
        assert values == {2, 4, 10}
        assert "full bags used" in result.stderr  # 10 > 6 images per class
        echo = json.loads((tmp_path / "sweep_config.json").read_text())
        assert echo["k"] is None  # afv reads no k, as encode echoes it

    def test_k_axis_rows(self, synth_dir, tmp_path):
        result = run_cli(
            "sweep",
            "--manifest", synth_dir / "manifest.json",
            "--splits", synth_dir / "splits.json",
            "--axis", "k", "--values", "1,2",
            "--method", "ffv",
            "--d-latent", 3, "--neighbors", 5,
            "--settings", "czsl",
            "--seed", 11, "--out", tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # one czsl metric per k value
        echo = json.loads((tmp_path / "sweep_config.json").read_text())
        assert echo["k"] is None and echo["values"] == [1, 2]  # k is the swept axis

    def test_rerun_reproduces_curve(self, synth_dir, tmp_path):
        def go(out):
            return run_cli(
                "sweep",
                "--manifest", synth_dir / "manifest.json",
                "--splits", synth_dir / "splits.json",
                "--axis", "images", "--values", "2,4",
                "--method", "afv",
                "--d-latent", 3, "--neighbors", 5,
                "--settings", "czsl",
                "--seed", 11, "--out", out,
            )
        assert go(tmp_path / "a").returncode == 0
        assert go(tmp_path / "b").returncode == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_bad_axis_is_config_error(self, synth_dir, tmp_path):
        result = run_cli("sweep", "--manifest", synth_dir / "manifest.json",
                         "--axis", "k", "--values", "1", "--method", "afv",
                         "--out", tmp_path)
        assert result.returncode == 2


class TestReportCommand:
    def test_merges_reports(self, synth_dir, tmp_path):
        eval_out = tmp_path / "eval"
        result = TestEvaluateCommand().evaluate(synth_dir, eval_out, "--transductive")
        assert result.returncode == 0
        merged = tmp_path / "merged.csv"
        result = run_cli(
            "report",
            "--inputs",
            eval_out / "report_inductive.json",
            eval_out / "report_transductive.json",
            "--out", merged,
        )
        assert result.returncode == 0, result.stderr
        lines = merged.read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        settings = {ln.split(",")[2] for ln in lines[1:]}
        assert settings == {"inductive", "transductive"}

    def test_no_inputs_is_config_error(self):
        result = run_cli("report")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"method": "m", "setting": "inductive", "splits": [], "mean": {}, "stderr": {}},
             "'dataset'"),
            ({"dataset": "d", "method": "m", "setting": "inductive", "splits": [], "mean": {}},
             "'stderr'"),
            ([{"dataset": "d"}], "not a JSON object"),
            ({"dataset": "d", "method": "m", "setting": "inductive", "splits": [],
              "mean": {"A_UU": 0.5, "H": 0.4}, "stderr": {"H": 0.1}}, "'A_UU'"),
            ({"dataset": "d", "method": "m", "setting": "inductive", "splits": [],
              "mean": {}, "stderr": {"H": 0.1}}, "'H'"),
            ({"dataset": "d", "method": "m", "setting": "inductive", "splits": [],
              "mean": [0.5], "stderr": {}}, "'mean'"),
        ],
        ids=["no-dataset", "no-stderr", "list", "stderr-lacks-metric", "mean-lacks-metric",
             "mean-not-object"],
    )
    def test_malformed_report_is_data_error(self, tmp_path, capsys, payload, named):
        path = tmp_path / "bad_report.json"
        path.write_text(json.dumps(payload))
        code, err = main_error(capsys, "report", "--inputs", path)
        assert code == 3
        assert err["error"] == "DataError"
        assert str(path) in err["message"]
        assert named in err["message"]


class TestConfigFile:
    def run_config(self, synth_dir, tmp_path, command, **keys):
        base = {
            "manifest": str(synth_dir / "manifest.json"),
            "splits": str(synth_dir / "splits.json"),
            "d_latent": 3,
            "neighbors": 5,
            "seed": 11,
            "out": str(tmp_path / "out"),
        }
        if command == "evaluate":
            base["space"] = str(synth_dir / "space.json")
        else:
            base.update(axis="images", values="2,4", method="afv", settings="czsl")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({**base, **keys}))
        return run_cli(command, "--config", cfg_path)

    @pytest.mark.parametrize(
        "command, keys, named",
        [
            ("evaluate", {"n_neighbors": 3}, "n_neighbors"),
            ("evaluate", {"transductive": "false"}, "transductive"),
            ("evaluate", {"d_latent": "abc"}, "d_latent"),
            ("evaluate", {"settings": 5}, "settings"),
            ("sweep", {"values": 5}, "values"),
            ("sweep", {"axis": "k", "method": "ffv", "values": "1,7"}, "got 7"),
            ("sweep", {"values": "0"}, "got 0"),
        ],
        ids=["unknown-key", "string-bool", "bad-int", "settings-number",
             "values-number", "k-axis-7", "images-axis-0"],
    )
    def test_bad_value_is_config_error(self, synth_dir, tmp_path, command, keys, named):
        result = self.run_config(synth_dir, tmp_path, command, **keys)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert named in err["message"]
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_typed_and_config_only_keys_reach_the_echo(self, synth_dir, tmp_path):
        result = self.run_config(
            synth_dir, tmp_path, "evaluate",
            d_latent="3", lsm_max_iter=50, lsm_restarts=1, holdout_fraction=0.3,
            settings=["czsl"],
        )
        assert result.returncode == 0, result.stderr
        echo = json.loads((tmp_path / "out" / "evaluate_config.json").read_text())["config"]
        assert (echo["d_latent"], echo["lsm_max_iter"], echo["lsm_restarts"]) == (3, 50, 1)
        assert echo["holdout_fraction"] == 0.3
        assert (echo["czsl"], echo["gzsl"], echo["transductive"]) == (True, False, False)
        inductive = json.loads((tmp_path / "out" / "report_inductive.json").read_text())
        assert set(inductive["mean"]) == {"A_UU"}
