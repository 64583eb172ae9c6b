import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
                     "--space", "--splits", "--transductive", "--width-scale"},
        "sweep": {"--axis", "--config", "--d-latent", "--embeddings", "--k",
                  "--manifest", "--method", "--n-seen", "--n-splits", "--neighbors",
                  "--normalize", "--out", "--seed", "--settings", "--splits",
                  "--stopwords", "--transductive", "--values", "--width-scale"},
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

    def test_byte_identical_across_blas_thread_counts(self, synth_dir, tmp_path):
        # two threads are enough for OpenBLAS to split a product; start no more
        r1 = self.evaluate(synth_dir, tmp_path / "w1", "--transductive",
                           env_extra={"OPENBLAS_NUM_THREADS": "1"})
        r2 = self.evaluate(synth_dir, tmp_path / "w2", "--transductive",
                           env_extra={"OPENBLAS_NUM_THREADS": "2"})
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
    def evaluate_error(tmp_path, capsys, per_class=15, scale=1.0, edit=None):
        """main_error of an evaluate on a small synthetic dataset whose
        features are multiplied by scale and, when edit is given, whose
        split list is edit(splits); a warning on the way fails the test."""
        spec = synth.SynthSpec(
            n_classes=8, n_seen=4, d_visual=12, d_latent_true=3, d_semantic=6,
            examples_per_class=per_class, images_per_class=6, n_splits=2,
        )
        manifest = synth.make_synthetic(spec, 5, tmp_path / "data")
        features = tmp_path / "data" / "features.zmat"
        data_io.save_matrix(data_io.load_matrix(features) * scale, features)
        if edit:
            splits = tmp_path / "data" / "splits.json"
            payload = json.loads(splits.read_text())
            payload["splits"] = edit(payload["splits"])
            splits.write_text(json.dumps(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = main_error(
                capsys, "evaluate",
                "--manifest", manifest,
                "--space", tmp_path / "data" / "space.json",
                "--splits", tmp_path / "data" / "splits.json",
                "--d-latent", 3, "--neighbors", 5, "--out", tmp_path / "eval",
            )
        assert [str(w.message) for w in caught] == []
        return result

    @pytest.mark.parametrize(
        "per_class,scale,edit,named",
        [
            (15, 1e160, None, "features overflow"),
            (15, 1e153, None, "features overflow"),
            (2, 1.0, None, "GZSL holdout"),
            (15, 1.0, lambda s: [s[0], {**s[1], "seen": []}], "split 1 has no seen classes"),
            (15, 1.0, lambda s: [s[0], {**s[1], "unseen": []}], "split 1 has no unseen classes"),
            (15, 1.0, lambda s: [s[0], {**s[1], "unseen": s[1]["unseen"] + s[1]["unseen"][:1]}],
             "split 1 lists unseen class"),
            (15, 1.0, lambda s: [], "splits.json lists no split"),
            (15, 1.0, lambda s: [s[0], {**s[1], "split_index": 0}],
             "splits.json: split_index 0 is listed twice"),
        ],
        ids=[
            "features-overflow", "matrices-overflow", "holdout-leaves-one-example",
            "split-without-seen-classes", "split-without-unseen-classes",
            "split-with-repeated-class", "no-split", "repeated-split-index",
        ],
    )
    def test_bad_input_is_data_error(self, tmp_path, capsys, per_class, scale, edit, named):
        code, err = self.evaluate_error(tmp_path, capsys, per_class, scale, edit)
        assert code == 3
        assert err["error"] == "DataError"
        assert named in err["message"]

    def test_one_training_example_is_data_error(self, tmp_path, capsys):
        # one seen class of one example, no holdout: nothing to fit SLPP on
        spec = synth.SynthSpec(n_classes=4, n_seen=1, d_visual=4, d_latent_true=2,
                               d_semantic=3, examples_per_class=1, n_splits=1)
        manifest = synth.make_synthetic(spec, 1, tmp_path / "data")
        code, err = main_error(
            capsys, "evaluate", "--manifest", manifest,
            "--space", tmp_path / "data" / "space.json",
            "--splits", tmp_path / "data" / "splits.json",
            "--settings", "czsl", "--out", tmp_path / "eval",
        )
        assert code == 3
        assert err == {"error": "DataError", "message": "split 0 has 1 training example(s); "
                       "SLPP needs at least two"}

    def test_warnings_print_one_line_each(self, tmp_path, capsys):
        # two classes with one semantic vector: every Sammon placement that
        # holds both clamps their zero distance and warns
        data = tmp_path / "data"
        manifest = synth.make_synthetic(synth.SynthSpec(), 1, data)
        reps = data_io.load_matrix(data / "space.zmat")
        reps[1] = reps[0]
        data_io.save_matrix(reps, data / "space.zmat")
        code = cli.main([
            "evaluate", "--manifest", str(manifest), "--space", str(data / "space.json"),
            "--splits", str(data / "splits.json"), "--out", str(tmp_path / "eval"),
        ])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert any("clamped" in line for line in lines)
        assert all(line.startswith("warning: ") for line in lines), lines

    def test_out_of_memory_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # numpy's message names the array that could not be allocated
        message = "Unable to allocate 107. MiB for an array with shape (3750, 3750)"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(embedding, "_pairwise_sq_dists", out_of_memory)
        code, err = self.evaluate_error(tmp_path, capsys)
        assert code == 4
        assert err == {"error": "MemoryError", "message": message}


class TestUsageErrors:
    """A command line argparse rejects leaves as every failure does: exit 2
    and one JSON line on stderr, with no usage block and no traceback."""

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--d-latent", "abc"], "argument --d-latent: invalid int value: 'abc'"),
            (["--width-scale", "-inf"], "argument --width-scale: expected one argument"),
            (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        ],
        ids=["bad-int", "negative-infinity-reads-as-a-flag", "unknown-flag"],
    )
    def test_argparse_error_is_one_json_line(self, synth_dir, tmp_path, capsys, extra, named):
        code = cli.main([
            "evaluate", "--manifest", str(synth_dir / "manifest.json"),
            "--space", str(synth_dir / "space.json"), *extra, "--out", str(tmp_path / "eval"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage:" not in err and "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert named in payload["message"]
        assert not (tmp_path / "eval").exists()

    def test_missing_command_is_one_json_line(self, capsys):
        code, err = main_error(capsys)
        assert code == 2
        assert err == {"error": "ConfigError",
                       "message": "zslkit: the following arguments are required: command"}

    def test_help_still_prints_usage_and_exits_0(self, capsys):
        assert cli.main(["evaluate", "--help"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: zslkit evaluate")
        assert out.err == ""

    def test_underflowing_width_scale_is_named(self, synth_dir, tmp_path, capsys):
        # at 1e-3 times the median distance every heat-kernel weight of this
        # data underflows to 0; the error names width_scale and the width
        code, err = main_error(
            capsys, "evaluate", "--manifest", synth_dir / "manifest.json",
            "--space", synth_dir / "space.json", "--splits", synth_dir / "splits.json",
            "--width-scale", "0.001", "--out", tmp_path / "eval",
        )
        assert code == 4
        assert err["error"] == "NumericalError"
        assert err["message"].startswith("width_scale 0.001 gives kernel width ")
        assert "underflows every heat-kernel weight to 0" in err["message"]


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
        # a key given as None is left out
        config = {k: v for k, v in {**base, **keys}.items() if v is not None}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
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
            ("evaluate", {"lsm_max_iter": -5}, "lsm_max_iter"),
            ("evaluate", {"seed": -1}, "seed"),
            ("evaluate", {"d_latent": 0}, "d_latent must be >= 1, got 0"),
            ("sweep", {"d_latent": 0}, "d_latent must be >= 1, got 0"),
            ("evaluate", {"neighbors": 0}, "neighbors must be >= 1, got 0"),
            ("evaluate", {"width_scale": -1}, "width_scale must be finite and > 0, got -1.0"),
            ("evaluate", {"width_scale": "nan"}, "width_scale must be finite and > 0, got nan"),
            ("evaluate", {"width_scale": "inf"}, "width_scale must be finite and > 0, got inf"),
            ("evaluate", {"lsm_restarts": 0}, "lsm_restarts must be >= 1, got 0"),
            ("evaluate", {"holdout_fraction": 0.0}, "holdout_fraction must be in (0, 1), got 0.0"),
            ("evaluate", {"holdout_fraction": 1.5}, "holdout_fraction must be in (0, 1), got 1.5"),
            ("evaluate", {"splits": None, "n_splits": 0}, "n_splits must be >= 1, got 0"),
            ("evaluate", {"splits": None, "n_seen": 0}, "n_seen must be in 1..7 for 8 classes"),
            ("evaluate", {"splits": None, "n_seen": 8}, "n_seen must be in 1..7 for 8 classes"),
        ],
        ids=["unknown-key", "string-bool", "bad-int", "settings-number",
             "values-number", "k-axis-7", "images-axis-0", "negative-lsm-max-iter",
             "negative-seed", "zero-d-latent", "sweep-zero-d-latent", "zero-neighbors",
             "negative-width-scale", "nan-width-scale", "infinite-width-scale",
             "zero-lsm-restarts", "zero-holdout-fraction", "holdout-fraction-above-one",
             "zero-n-splits", "zero-n-seen", "n-seen-all-classes"],
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


# Every evaluate option that sets a run value: (its flag or None for a
# config-only key, values in range, values out of range, what an error for
# an out-of-range value names). Values in range stay small, so that each
# drawn run is cheap.
OPTIONS = {
    "d_latent": ("--d-latent", st.integers(1, 50), st.integers(-3, 0), "d_latent"),
    "neighbors": ("--neighbors", st.integers(1, 50), st.integers(-3, 0), "neighbors"),
    "width_scale": ("--width-scale", st.floats(1e-3, 1e3),
                    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), "width_scale"),
    "holdout_fraction": (None, st.floats(0.05, 0.5),
                         st.sampled_from([0.0, 1.0, 1.5, -0.2, math.nan]), "holdout_fraction"),
    "lsm_max_iter": (None, st.integers(0, 40), st.integers(-5, -1), "lsm_max_iter"),
    "lsm_restarts": (None, st.integers(1, 2), st.integers(-2, 0), "lsm_restarts"),
    "n_splits": ("--n-splits", st.integers(1, 2), st.integers(-2, 0), "n_splits"),
    "n_seen": ("--n-seen", st.integers(1, 7), st.sampled_from([-1, 0, 8, 9]), "n_seen"),
    "seed": ("--seed", st.integers(0, 2**31 - 1), st.integers(-5, -1), "seed"),
    # both "unknown settings ..." and "at least one of czsl, gzsl ..." name czsl
    "settings": ("--settings", st.sampled_from(["czsl", "gzsl", "gzsl, czsl"]),
                 st.sampled_from(["zsl", "czsl,foo", ""]), "czsl"),
}


@st.composite
def drawn_options(draw):
    """(key, value, valid, form): one option, a value for it, and how it is
    given: "config" (a config-file key), "--flag=value" or "--flag value"."""
    key = draw(st.sampled_from(sorted(OPTIONS)))
    flag, valid_values, invalid_values, _ = OPTIONS[key]
    valid = draw(st.booleans())
    value = draw(valid_values if valid else invalid_values)
    forms = ["config"] + (["--flag=value", "--flag value"] if flag else [])
    return key, value, valid, draw(st.sampled_from(forms))


class TestOptionProperty:
    @settings(max_examples=30, deadline=None)
    @given(option=drawn_options())
    def test_every_option_value_exits_cleanly(self, synth_dir, option):
        key, value, valid, form = option
        flag = OPTIONS[key][0]
        config = {
            "manifest": str(synth_dir / "manifest.json"),
            "space": str(synth_dir / "space.json"),
            "d_latent": 3, "neighbors": 5, "lsm_max_iter": 30, "lsm_restarts": 1,
        }
        if key not in ("n_splits", "n_seen"):  # these draw the splits themselves
            config["splits"] = str(synth_dir / "splits.json")
        argv = ["evaluate"]
        if form == "config":
            config[key] = value
        else:
            config.pop(key, None)
            argv += [f"{flag}={value}"] if form == "--flag=value" else [flag, str(value)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            config["out"] = str(out)
            (Path(tmp) / "run.json").write_text(json.dumps(config))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--config", str(Path(tmp) / "run.json")])
            wrote = out.exists() and any(out.iterdir())
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 0:
            assert valid
            return
        # a value in range may still fail on the data (3) or numerically (4):
        # width_scale 1e-3 exits 4 on this data
        assert code in ((3, 4) if valid else (2,)), err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        payload = json.loads(lines[0])
        if not valid:
            assert payload["error"] == "ConfigError"
            # argparse names the flag: "--width-scale -inf" reads as a second
            # option, so --width-scale lacks its argument
            named = (OPTIONS[key][3],) + ((flag,) if form == "--flag value" else ())
            assert any(name in payload["message"] for name in named), payload
            assert not wrote
