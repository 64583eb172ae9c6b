"""Command-line front end.

Subcommands: encode, evaluate, sweep, synth, report. Flags override values
from an optional JSON config file (--config); every run writes a config
echo with all resolved values and seeds, sufficient to reproduce its
outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Failures emit one JSON object {"error", "message"} on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus, data_io, encoders, pipeline, synth, zsl_eval
from .errors import ConfigError, DataError, NumericalError

METHODS = ("td", "awv", "fwv", "afv", "ffv")
FISHER_METHODS = ("fwv", "ffv")


def _resolve(args, config: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


def _token_docs(dataset, stopword_path):
    stop = corpus.load_stopwords(stopword_path) if stopword_path else corpus.default_stopwords()
    docs = []
    for info in dataset.classes:
        if info.doc is None:
            raise DataError(f"class {info.id} ({info.name}) has no document")
        text = dataset.resolve(info.doc).read_text(encoding="utf-8")
        docs.append(corpus.tokenize(text, stop, class_id=info.id))
    return docs


def _load_sources(dataset, method, stopwords, embeddings):
    """Read what a method encodes: token docs (td), word-vector bags (awv,
    fwv) or image bags (afv, ffv); returns (sources, notes)."""
    notes = {}
    if method == "td":
        return _token_docs(dataset, stopwords), notes
    if method in ("awv", "fwv"):
        if embeddings:
            table_path = embeddings
        elif dataset.word_vectors:
            table_path = dataset.resolve(dataset.word_vectors)
        else:
            raise ConfigError(
                f"method {method!r} needs a word-vector table (--embeddings or the "
                "manifest's word_vectors field)"
            )
        table = encoders.load_word_vectors(table_path)
        bags, skipped = [], {}
        for doc in _token_docs(dataset, stopwords):
            bag, n_skipped = encoders.lookup_word_vectors(doc, table)
            bags.append(bag)
            if n_skipped:
                skipped[str(doc.class_id)] = n_skipped
        if skipped:
            notes["skipped_tokens"] = skipped
        return bags, notes
    if method in ("afv", "ffv"):
        return [dataset.load_image_bag(info.id) for info in dataset.classes], notes
    raise ConfigError(f"unknown method {method!r}")


def _encode_space(sources, method, k, seed, normalize, images_per_class=None):
    """Build the semantic space from loaded sources, first subsampling each
    image bag to images_per_class if given; returns (space, notes)."""
    notes = {}
    if method == "td":
        td = corpus.term_document_matrix(sources, corpus.build_vocabulary(sources))
        return encoders.encode_class_set(td, "td"), notes
    if images_per_class is not None:
        clipped = [bag.class_id for bag in sources if bag.size < images_per_class]
        if clipped:
            notes["clipped_classes"] = clipped
        sources = [
            data_io.subsample_bag(
                bag, images_per_class, seed=pipeline.derive_seed(seed, bag.class_id)
            )
            for bag in sources
        ]
    if method in ("awv", "afv"):
        return encoders.encode_class_set(sources, "average"), notes
    return encoders.encode_class_set(sources, "fisher", k=k, seed=seed, normalize=normalize), notes


def _validate_method(method, k):
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if method in FISHER_METHODS and not 1 <= k <= 5:
        raise ConfigError(f"Fisher methods take k in 1..5, got {k}")


def cmd_encode(args) -> int:
    config = _load_config_file(args)
    method = _resolve(args, config, "method", None)
    k = int(_resolve(args, config, "k", 1))
    seed = int(_resolve(args, config, "seed", 0))
    normalize = bool(_resolve(args, config, "normalize", False))
    out_dir = Path(_resolve(args, config, "out", "encode_out"))
    if method is None:
        raise ConfigError("encode needs --method")
    _validate_method(method, k)

    dataset = data_io.load_dataset(_resolve(args, config, "manifest", None) or _missing("manifest"))
    sources, notes = _load_sources(
        dataset, method,
        _resolve(args, config, "stopwords", None),
        _resolve(args, config, "embeddings", None),
    )
    space, _ = _encode_space(sources, method, k, seed, normalize)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = {"method": method, "dataset": dataset.name}
    if method in FISHER_METHODS:
        extra["k"] = k
    sidecar = data_io.save_semantic_space(space, out_dir, stem="space", extra=extra)
    echo = {
        "command": "encode",
        "dataset": dataset.name,
        "method": method,
        "k": k if method in FISHER_METHODS else None,
        "normalize": normalize,
        "seed": seed,
        "notes": notes,
    }
    data_io.write_json(echo, out_dir / "encode_config.json")
    print(sidecar)
    return 0


def _missing(name):
    raise ConfigError(f"missing required option --{name}")


def _eval_config_from(args, config) -> pipeline.EvalConfig:
    settings = _resolve(args, config, "settings", "czsl,gzsl")
    if isinstance(settings, str):
        settings = [s.strip() for s in settings.split(",") if s.strip()]
    unknown = set(settings) - {"czsl", "gzsl"}
    if unknown:
        raise ConfigError(f"unknown settings {sorted(unknown)}; use czsl,gzsl")
    if not settings:
        raise ConfigError("at least one of czsl,gzsl must be requested")
    default = pipeline.EvalConfig()
    return pipeline.EvalConfig(
        d_latent=int(_resolve(args, config, "d_latent", default.d_latent)),
        n_neighbors=int(_resolve(args, config, "neighbors", default.n_neighbors)),
        width_scale=float(_resolve(args, config, "width_scale", default.width_scale)),
        holdout_fraction=float(
            _resolve(args, config, "holdout_fraction", default.holdout_fraction)
        ),
        lsm_max_iter=int(_resolve(args, config, "lsm_max_iter", default.lsm_max_iter)),
        lsm_restarts=int(_resolve(args, config, "lsm_restarts", default.lsm_restarts)),
        czsl="czsl" in settings,
        gzsl="gzsl" in settings,
        transductive=bool(_resolve(args, config, "transductive", False)),
        cv=bool(_resolve(args, config, "cv", default.cv)),
        seed=int(_resolve(args, config, "seed", default.seed)),
    )


def _load_splits(args, config, dataset):
    """The --splits file if given, else seeded splits over the dataset."""
    splits_path = _resolve(args, config, "splits", None)
    if splits_path:
        return data_io.load_splits(splits_path)
    n_splits = int(_resolve(args, config, "n_splits", 5))
    n_seen = int(_resolve(args, config, "n_seen", (dataset.n_classes + 1) // 2))
    seed = int(_resolve(args, config, "seed", 0))
    return data_io.generate_class_splits(dataset.class_ids, n_seen, n_splits, seed)


def _load_eval_inputs(args, config):
    manifest = _resolve(args, config, "manifest", None) or _missing("manifest")
    space_path = _resolve(args, config, "space", None) or _missing("space")
    dataset = data_io.load_dataset(manifest)
    space = data_io.load_semantic_space(space_path)
    splits = _load_splits(args, config, dataset)
    missing = set(dataset.class_ids) - set(space.class_ids)
    if missing:
        raise DataError(f"semantic space lacks dataset classes {sorted(missing)}")
    try:
        method = json.loads(Path(space_path).read_text())["method"]
    except (KeyError, json.JSONDecodeError, OSError):
        method = "unknown"
    return dataset, space, splits, method


def _run_and_write_reports(dataset, space, splits, cfg, method, out_dir,
                           splits_path_written=None):
    reports = pipeline.run_evaluation(
        dataset.name, dataset.features, dataset.labels, space, splits, cfg, method=method,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for setting, report in reports.items():
        path = out_dir / f"report_{setting}.json"
        zsl_eval.save_report(report, path)
        written.append(path)
    csv_path = out_dir / "report.csv"
    data_io._atomic_write(csv_path, zsl_eval.reports_to_csv(reports.values()).encode("utf-8"))
    written.append(csv_path)
    if splits_path_written:
        data_io.save_splits(splits, splits_path_written, dataset=dataset.name)
        written.append(splits_path_written)
    return reports, written


def cmd_evaluate(args) -> int:
    config = _load_config_file(args)
    dataset, space, splits, method = _load_eval_inputs(args, config)
    cfg = _eval_config_from(args, config)
    out_dir = Path(_resolve(args, config, "out", "eval_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    splits_written = None if _resolve(args, config, "splits", None) else out_dir / "splits.json"
    reports, written = _run_and_write_reports(
        dataset, space, splits, cfg, method, out_dir,
        splits_path_written=splits_written,
    )
    echo = {"command": "evaluate", "dataset": dataset.name, "method": method,
            "config": cfg.echo()}
    data_io.write_json(echo, out_dir / "evaluate_config.json")
    for path in written:
        print(path)
    return 0


def cmd_sweep(args) -> int:
    config = _load_config_file(args)
    axis = _resolve(args, config, "axis", None)
    if axis not in ("k", "images"):
        raise ConfigError(f"--axis must be k or images, got {axis!r}")
    values_raw = _resolve(args, config, "values", None) or _missing("values")
    if isinstance(values_raw, str):
        try:
            values = [int(v) for v in values_raw.split(",") if v.strip()]
        except ValueError as e:
            raise ConfigError(f"bad --values list {values_raw!r}: {e}") from e
    else:
        values = [int(v) for v in values_raw]
    if not values:
        raise ConfigError("empty --values list")

    method = _resolve(args, config, "method", "ffv" if axis == "k" else "afv")
    k = int(_resolve(args, config, "k", 1))
    seed = int(_resolve(args, config, "seed", 0))
    normalize = bool(_resolve(args, config, "normalize", False))
    _validate_method(method, k)
    if axis == "k" and method not in FISHER_METHODS:
        raise ConfigError("axis=k sweeps need a Fisher method (fwv or ffv)")
    if axis == "images" and method not in ("afv", "ffv"):
        raise ConfigError("axis=images sweeps need an image method (afv or ffv)")

    manifest = _resolve(args, config, "manifest", None) or _missing("manifest")
    dataset = data_io.load_dataset(manifest)
    splits = _load_splits(args, config, dataset)
    cfg = _eval_config_from(args, config)
    out_dir = Path(_resolve(args, config, "out", "sweep_out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    sources, load_notes = _load_sources(
        dataset, method,
        _resolve(args, config, "stopwords", None),
        _resolve(args, config, "embeddings", None),
    )
    rows = []
    notes = {}
    for value in values:
        space, note = _encode_space(
            sources, method, value if axis == "k" else k, seed, normalize,
            images_per_class=value if axis == "images" else None,
        )
        note = {**load_notes, **note}
        if note.get("clipped_classes"):
            print(
                f"note: axis value {value} exceeds some bags; full bags used "
                f"for classes {note['clipped_classes']}",
                file=sys.stderr,
            )
        if note:
            notes[str(value)] = note
        reports = pipeline.run_evaluation(
            dataset.name, dataset.features, dataset.labels, space, splits, cfg,
            method=method,
        )
        for setting, report in reports.items():
            for metric, mean in report.mean.items():
                rows.append((value, f"{setting}.{metric}", mean, report.stderr[metric]))

    lines = ["axis_value,metric,mean,stderr"]
    lines += [f"{v},{m},{mean!r},{se!r}" for v, m, mean, se in rows]
    csv_path = out_dir / "sweep.csv"
    data_io._atomic_write(csv_path, ("\n".join(lines) + "\n").encode("utf-8"))
    echo = {
        "command": "sweep",
        "axis": axis,
        "values": values,
        "method": method,
        "k": k,
        "dataset": dataset.name,
        "config": cfg.echo(),
        "notes": notes,
        "seed": seed,
    }
    data_io.write_json(echo, out_dir / "sweep_config.json")
    print(csv_path)
    return 0


def cmd_synth(args) -> int:
    config = _load_config_file(args)
    spec_path = _resolve(args, config, "spec", None)
    if spec_path:
        spec = synth.load_spec(spec_path)
    else:
        spec = synth.SynthSpec()
    seed = int(_resolve(args, config, "seed", 0))
    out_dir = Path(_resolve(args, config, "out", "synth_out"))
    manifest = synth.make_synthetic(spec, seed, out_dir)
    print(manifest)
    return 0


def cmd_report(args) -> int:
    config = _load_config_file(args)
    inputs = getattr(args, "inputs", None) or config.get("inputs") or []
    if not inputs:
        raise ConfigError("report needs at least one report JSON file")
    reports = [zsl_eval.load_report(p) for p in inputs]
    out = _resolve(args, config, "out", None)
    text = zsl_eval.reports_to_csv(reports)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        data_io._atomic_write(out, text.encode("utf-8"))
        print(out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslkit",
        description="Zero-shot action recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output directory")

    def add_encoder_options(p, k_help):
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--k", type=int, help=k_help)
        p.add_argument("--normalize", action="store_const", const=True,
                       help="signed-sqrt + L2 normalization of Fisher encodings")
        p.add_argument("--stopwords", help="stop-word file, one term per line")
        p.add_argument("--embeddings", help="word-vector table file")

    def add_eval_options(p):
        p.add_argument("--manifest", help="dataset manifest JSON")
        p.add_argument("--splits", help="splits file; generated when omitted")
        p.add_argument("--n-splits", dest="n_splits", type=int)
        p.add_argument("--n-seen", dest="n_seen", type=int)
        p.add_argument("--settings", help="comma list from {czsl,gzsl} (default both)")
        p.add_argument("--transductive", action="store_const", const=True,
                       help="also run the clustering-based joint prediction")
        p.add_argument("--d-latent", dest="d_latent", type=int)
        p.add_argument("--neighbors", type=int, help="graph neighbour count")
        p.add_argument("--width-scale", dest="width_scale", type=float,
                       help="kernel width as a multiple of the median distance")
        p.add_argument("--workers", type=int,
                       help="accepted and ignored; splits run serially")

    p = sub.add_parser("encode", help="encode a semantic space from class sources")
    add_common(p)
    p.add_argument("--manifest", help="dataset manifest JSON")
    add_encoder_options(p, "Fisher component count (1..5)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("evaluate", help="run the recognition protocols over splits")
    add_common(p)
    p.add_argument("--space", help="semantic-space sidecar JSON")
    p.add_argument("--cv", action="store_const", const=True,
                   help="select hyperparameters by class-wise cross-validation")
    add_eval_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate along an axis of encoder settings")
    add_common(p)
    p.add_argument("--axis", choices=("k", "images"))
    p.add_argument("--values", help="comma list of axis values")
    add_encoder_options(p, "Fisher component count for axis=images")
    add_eval_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    add_common(p)
    p.add_argument("--spec", help="synth spec JSON file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="merge report JSON files into one CSV")
    add_common(p)
    p.add_argument("--inputs", nargs="+", help="report JSON files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as e:
        return _fail(2, e)
    except (DataError, OSError, ValueError) as e:
        return _fail(3, e)
    except (NumericalError, np.linalg.LinAlgError) as e:
        return _fail(4, e)


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
