"""Command-line front end.

Subcommands: encode, evaluate, sweep, synth, report. Every run writes a
config echo with all resolved values and seeds, sufficient to reproduce its
outputs byte for byte.

Options are merged once, in main, before dispatch: a flag on the command
line wins over a --config file's value, which wins over the parser's
default. Config keys are the flags' dest names; the file's values become
the subcommand's parser defaults, converted as the flags convert them, and
each cmd_* reads one namespace.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Failures emit one JSON object {"error", "message"} on stderr, and
each warning one line "warning: <message>".
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import corpus, data_io, encoders, pipeline, synth, zsl_eval
from .errors import ConfigError, DataError, NumericalError

METHODS = ("td", "awv", "fwv", "afv", "ffv")
FISHER_METHODS = ("fwv", "ffv")

# Dests that set EvalConfig fields, which give their defaults. A config file
# may set holdout_fraction, lsm_max_iter and lsm_restarts (and, for sweep,
# cv), which have no flag.
EVAL_FIELDS = {
    "d_latent": "d_latent", "neighbors": "n_neighbors", "width_scale": "width_scale",
    "holdout_fraction": "holdout_fraction", "lsm_max_iter": "lsm_max_iter",
    "lsm_restarts": "lsm_restarts", "cv": "cv",
}
# Config keys that take a JSON list or a string: a comma list for settings
# and values, one path for inputs.
LIST_KEYS = ("settings", "values", "inputs")
# Options each subcommand cannot run without, by dest.
REQUIRED = {
    "encode": ("manifest", "method"),
    "evaluate": ("manifest", "space"),
    "sweep": ("axis", "values", "manifest"),
    "report": ("inputs",),
}


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
    return [dataset.load_image_bag(info.id) for info in dataset.classes], notes


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
    method, k = args.method, args.k
    _validate_method(method, k)
    dataset = data_io.load_dataset(args.manifest)
    sources, notes = _load_sources(dataset, method, args.stopwords, args.embeddings)
    space, _ = _encode_space(sources, method, k, args.seed, args.normalize)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = {"method": method, "dataset": dataset.name}
    if method in FISHER_METHODS:
        extra["k"] = k
    sidecar = data_io.save_semantic_space(space, out_dir, extra=extra)
    echo = {
        "command": "encode",
        "dataset": dataset.name,
        "method": method,
        "k": k if method in FISHER_METHODS else None,
        "normalize": args.normalize,
        "seed": args.seed,
        "notes": notes,
    }
    data_io.write_json(echo, out_dir / "encode_config.json")
    print(sidecar)
    return 0


def _eval_config(args) -> pipeline.EvalConfig:
    settings = {s.strip() for s in args.settings.split(",") if s.strip()}
    unknown = settings - {"czsl", "gzsl"}
    if unknown:
        raise ConfigError(f"unknown settings {sorted(unknown)}; use czsl,gzsl")
    return pipeline.EvalConfig(
        **{field: getattr(args, dest) for dest, field in EVAL_FIELDS.items()},
        czsl="czsl" in settings,
        gzsl="gzsl" in settings,
        transductive=args.transductive,
        seed=args.seed,
    )


def _load_splits(args, dataset):
    """The --splits file if given, else seeded splits over the dataset."""
    if args.splits:
        return data_io.load_splits(args.splits)
    n_seen = (dataset.n_classes + 1) // 2 if args.n_seen is None else args.n_seen
    return data_io.generate_class_splits(dataset.class_ids, n_seen, args.n_splits, args.seed)


def cmd_evaluate(args) -> int:
    cfg = _eval_config(args)
    dataset = data_io.load_dataset(args.manifest)
    space = data_io.load_semantic_space(args.space)
    splits = _load_splits(args, dataset)
    missing = set(dataset.class_ids) - set(space.class_ids)
    if missing:
        raise DataError(f"semantic space lacks dataset classes {sorted(missing)}")
    try:
        method = json.loads(Path(args.space).read_text())["method"]
    except (KeyError, json.JSONDecodeError, OSError):
        method = "unknown"
    reports = pipeline.run_evaluation(
        dataset.name, dataset.features, dataset.labels, space, splits, cfg, method=method,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for setting, report in reports.items():
        path = out_dir / f"report_{setting}.json"
        zsl_eval.save_report(report, path)
        written.append(path)
    csv_path = out_dir / "report.csv"
    data_io._atomic_write(csv_path, zsl_eval.reports_to_csv(reports.values()).encode("utf-8"))
    written.append(csv_path)
    if not args.splits:
        splits_path = out_dir / "splits.json"
        data_io.save_splits(splits, splits_path, dataset=dataset.name)
        written.append(splits_path)
    echo = {"command": "evaluate", "dataset": dataset.name, "method": method,
            "config": cfg.echo()}
    data_io.write_json(echo, out_dir / "evaluate_config.json")
    for path in written:
        print(path)
    return 0


def cmd_sweep(args) -> int:
    axis = args.axis
    if axis not in ("k", "images"):
        raise ConfigError(f"--axis must be k or images, got {axis!r}")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"bad --values list {args.values!r}: {e}") from e
    if not values:
        raise ConfigError("empty --values list")

    method = args.method or ("ffv" if axis == "k" else "afv")
    k, seed = args.k, args.seed
    _validate_method(method, k)
    if axis == "k" and method not in FISHER_METHODS:
        raise ConfigError("axis=k sweeps need a Fisher method (fwv or ffv)")
    if axis == "images" and method not in ("afv", "ffv"):
        raise ConfigError("axis=images sweeps need an image method (afv or ffv)")
    for value in values:
        if axis == "k":
            _validate_method(method, value)
        elif value < 1:
            raise ConfigError(f"axis=images values must be >= 1, got {value}")
    cfg = _eval_config(args)

    dataset = data_io.load_dataset(args.manifest)
    splits = _load_splits(args, dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sources, load_notes = _load_sources(dataset, method, args.stopwords, args.embeddings)
    rows = []
    notes = {}
    for value in values:
        space, note = _encode_space(
            sources, method, value if axis == "k" else k, seed, args.normalize,
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
        "k": k if axis == "images" and method in FISHER_METHODS else None,
        "dataset": dataset.name,
        "config": cfg.echo(),
        "notes": notes,
        "seed": seed,
    }
    data_io.write_json(echo, out_dir / "sweep_config.json")
    print(csv_path)
    return 0


def cmd_synth(args) -> int:
    spec = synth.load_spec(args.spec) if args.spec else synth.SynthSpec()
    print(synth.make_synthetic(spec, args.seed, Path(args.out)))
    return 0


def cmd_report(args) -> int:
    reports = [zsl_eval.load_report(p) for p in args.inputs]
    text = zsl_eval.reports_to_csv(reports)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        data_io._atomic_write(args.out, text.encode("utf-8"))
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so that they
    leave as every failure does: exit 2 and one JSON line, with no usage
    block. Subparsers share the class; --help still prints and exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zslkit",
        description="Zero-shot action recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help="output directory"):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
        p.add_argument("--out", help=out_help)

    def add_encoder_options(p, k_help):
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--k", type=int, default=1, help=k_help)
        p.add_argument("--normalize", action="store_true",
                       help="signed-sqrt + L2 normalization of Fisher encodings")
        p.add_argument("--stopwords", help="stop-word file, one term per line")
        p.add_argument("--embeddings", help="word-vector table file")

    def add_eval_options(p):
        p.add_argument("--manifest", help="dataset manifest JSON")
        p.add_argument("--splits", help="splits file; generated when omitted")
        p.add_argument("--n-splits", dest="n_splits", type=int, default=5)
        p.add_argument("--n-seen", dest="n_seen", type=int)
        p.add_argument("--settings", default="czsl,gzsl",
                       help="comma list from {czsl,gzsl} (default %(default)s)")
        p.add_argument("--transductive", action="store_true",
                       help="also run the clustering-based joint prediction")
        p.add_argument("--d-latent", dest="d_latent", type=int)
        p.add_argument("--neighbors", type=int, help="graph neighbour count")
        p.add_argument("--width-scale", dest="width_scale", type=float,
                       help="kernel width as a multiple of the median distance")
        defaults = pipeline.EvalConfig()
        p.set_defaults(**{dest: getattr(defaults, f) for dest, f in EVAL_FIELDS.items()})

    p = sub.add_parser("encode", help="encode a semantic space from class sources")
    add_common(p)
    p.add_argument("--manifest", help="dataset manifest JSON")
    add_encoder_options(p, "Fisher component count (1..5)")
    p.set_defaults(func=cmd_encode, out="encode_out")

    p = sub.add_parser("evaluate", help="run the recognition protocols over splits")
    add_common(p)
    p.add_argument("--space", help="semantic-space sidecar JSON")
    p.add_argument("--cv", action="store_true",
                   help="select hyperparameters by class-wise cross-validation")
    add_eval_options(p)
    p.set_defaults(func=cmd_evaluate, out="eval_out")

    p = sub.add_parser("sweep", help="evaluate along an axis of encoder settings")
    add_common(p)
    p.add_argument("--axis", choices=("k", "images"))
    p.add_argument("--values", help="comma list of axis values")
    add_encoder_options(p, "Fisher component count for axis=images")
    add_eval_options(p)
    p.set_defaults(func=cmd_sweep, out="sweep_out")

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    add_common(p)
    p.add_argument("--spec", help="synth spec JSON file")
    p.set_defaults(func=cmd_synth, out="synth_out")

    p = sub.add_parser("report", help="merge report JSON files into one CSV")
    add_common(p, out_help="CSV file to write; stdout when omitted")
    p.add_argument("--inputs", nargs="+", help="report JSON files")
    p.set_defaults(func=cmd_report)

    return parser


def _config_value(key, value, action, default):
    """A config-file value as its option would hold it from the command line."""
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        kind = "true or false"
    elif key in LIST_KEYS:
        if isinstance(value, list):
            words = [str(v) for v in value]
            return words if key == "inputs" else ",".join(words)
        if isinstance(value, str):
            return [value] if key == "inputs" else value
        kind = "a list or a string"
    else:
        convert = (action.type if action else type(default)) or str
        kind = convert.__name__
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                return convert(str(value))
            except ValueError:
                pass
    raise ConfigError(f"config key {key!r} takes {kind}, got {value!r}")


def _config_defaults(sub, path) -> dict:
    """The JSON object in the config file at path, checked against the dests
    of subcommand parser sub and converted into defaults for it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    known = (set(actions) | set(sub._defaults)) - {"help", "config", "func"}
    for key in payload:
        if key not in known:
            raise ConfigError(
                f"unknown config key {key!r}; {sub.prog} takes {', '.join(sorted(known))}"
            )
    return {
        key: _config_value(key, value, actions.get(key), sub.get_default(key))
        for key, value in payload.items()
    }


def _parse_args(argv):
    """Merge flag > config file > default into one namespace: the config
    file's values become the subcommand's defaults and argv is parsed again."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = next(a for a in parser._actions if a.dest == "command")
        sub = command.choices[args.command]
        sub.set_defaults(**_config_defaults(sub, args.config))
        args = parser.parse_args(argv)
    for dest in REQUIRED.get(args.command, ()):
        if not getattr(args, dest):
            raise ConfigError(f"missing required option --{dest}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    return args


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warn
        try:
            args = _parse_args(argv)
            return args.func(args)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
        except ConfigError as e:
            return _fail(2, e)
        except (DataError, OSError, ValueError) as e:
            return _fail(3, e)
        except (NumericalError, np.linalg.LinAlgError, MemoryError) as e:
            return _fail(4, e)


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one stderr line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
