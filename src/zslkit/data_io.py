"""Dataset model, file formats, and protocol sampling.

Matrix container: an ASCII header line "ZMAT rows cols" followed by
rows*cols little-endian float64 values in row-major order. Writes are
atomic (temp file in the target directory, then rename).

All sampling here is a pure function of (input, seed). Seeds drive numpy's
default PCG64 generator, which is stable across platforms, so splits and
holdouts reproduce exactly everywhere.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import SemanticSpace, VectorBag
from .errors import ConfigError, DataError

_MAGIC = "ZMAT"


def _atomic_write(path, data: bytes) -> None:
    """Write data to path through a temp file in the same directory and a
    rename, so readers see the old file or the new one, never a part."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(matrix, path) -> None:
    """Write a 2-D float64 matrix in the ZMAT container, atomically."""
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    rows, cols = M.shape
    if rows < 1 or cols < 1:
        raise DataError(f"refusing to write a degenerate {rows}x{cols} matrix")
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"non-finite value at row {i}, col {j}")
    header = f"{_MAGIC} {rows} {cols}\n".encode("ascii")
    _atomic_write(path, header + M.astype("<f8").tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    """Read a ZMAT matrix, validating header, payload length, finiteness."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.readline()
        payload = f.read()
    parts = header.split()
    if len(parts) != 3 or parts[0] != _MAGIC.encode("ascii"):
        raise DataError(f"malformed matrix header in {path}: {header!r}")
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError as e:
        raise DataError(f"malformed matrix header in {path}: {header!r}") from e
    if rows < 1 or cols < 1:
        raise DataError(f"{path} declares a degenerate {rows}x{cols} matrix")
    expected = rows * cols * 8
    if len(payload) != expected:
        raise DataError(
            f"{path}: payload has {len(payload)} bytes, header implies {expected}"
        )
    M = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"{path}: non-finite value at row {i}, col {j}")
    return M


def save_labels(labels, path) -> None:
    text = "".join(f"{int(value)}\n" for value in np.asarray(labels))
    _atomic_write(path, text.encode("ascii"))


def load_labels(path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: not an integer label: {line!r}") from e
    return np.asarray(values, dtype=np.int64)


def write_json(payload, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text.encode("utf-8"))


@dataclass(frozen=True)
class ClassInfo:
    id: int
    name: str
    doc: str | None = None
    image_bag: str | None = None


@dataclass
class Dataset:
    """Video features with labels plus per-class semantic sources."""

    name: str
    classes: list
    features: np.ndarray  # (n, d_visual)
    labels: np.ndarray  # (n,)
    word_vectors: str | None = None
    root: Path | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_ids(self) -> list:
        return [c.id for c in self.classes]

    def class_by_id(self, class_id: int) -> ClassInfo:
        for c in self.classes:
            if c.id == class_id:
                return c
        raise KeyError(class_id)

    def resolve(self, rel_path: str) -> Path:
        return (self.root / rel_path) if self.root else Path(rel_path)

    def load_image_bag(self, class_id: int) -> VectorBag:
        info = self.class_by_id(class_id)
        if info.image_bag is None:
            raise DataError(f"class {class_id} ({info.name}) has no image bag")
        return VectorBag(class_id=class_id, vectors=load_matrix(self.resolve(info.image_bag)))


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset manifest and its feature/label files.

    Manifest schema: {name, classes: [{id, name, doc?, image_bag?}],
    video_features, video_labels, word_vectors?}. Paths are relative to the
    manifest. Class ids must be exactly 0..C-1, every class must own at
    least one video, and labels must index the class list.
    """
    manifest_path = Path(manifest_path)
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read dataset manifest {manifest_path}: {e}") from e
    try:
        classes = [
            ClassInfo(
                id=int(c["id"]),
                name=str(c["name"]),
                doc=c.get("doc"),
                image_bag=c.get("image_bag"),
            )
            for c in payload["classes"]
        ]
        features_rel = payload["video_features"]
        labels_rel = payload["video_labels"]
        name = str(payload["name"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"bad dataset manifest {manifest_path}: {e}") from e

    classes.sort(key=lambda c: c.id)
    ids = [c.id for c in classes]
    if ids != list(range(len(ids))):
        raise DataError(f"class ids must be exactly 0..{len(ids) - 1}, got {ids}")

    root = manifest_path.parent
    features = load_matrix(root / features_rel)
    labels = load_labels(root / labels_rel)
    if labels.shape[0] != features.shape[0]:
        raise DataError(
            f"{labels.shape[0]} labels for {features.shape[0]} feature rows"
        )
    present = set(labels.tolist())
    if not present <= set(ids):
        raise DataError(f"labels {sorted(present - set(ids))} reference unknown classes")
    missing = sorted(set(ids) - present)
    if missing:
        raise DataError(f"classes {missing} have no videos")
    return Dataset(
        name=name,
        classes=classes,
        features=features,
        labels=labels,
        word_vectors=payload.get("word_vectors"),
        root=root,
    )


@dataclass(frozen=True)
class ClassSplit:
    """A disjoint seen/unseen partition of the class set."""

    seen: tuple[int, ...]
    unseen: tuple[int, ...]
    split_index: int
    seed: int


def generate_class_splits(class_ids, n_seen: int, n_splits: int, seed: int) -> list:
    """Draw seeded random seen/unseen class partitions.

    class_ids may be an int C (meaning ids 0..C-1) or an explicit id
    sequence. Splits are mutually distinct whenever the class count makes
    that possible; redraws are bounded so tiny class sets still terminate.
    """
    if isinstance(class_ids, (int, np.integer)):
        ids = list(range(int(class_ids)))
    else:
        ids = sorted(int(c) for c in class_ids)
    if not 0 < n_seen < len(ids):
        raise ConfigError(f"n_seen must be in 1..{len(ids) - 1} for {len(ids)} classes, "
                          f"got {n_seen}")
    if n_splits < 1:
        raise ConfigError(f"n_splits must be >= 1, got {n_splits}")

    rng = np.random.default_rng(seed)
    ids_arr = np.asarray(ids)
    splits, taken = [], set()
    for index in range(n_splits):
        for _ in range(200):
            perm = rng.permutation(len(ids))
            seen = tuple(sorted(ids_arr[perm[:n_seen]].tolist()))
            if seen not in taken:
                break
        taken.add(seen)
        unseen = tuple(sorted(set(ids) - set(seen)))
        splits.append(ClassSplit(seen=seen, unseen=unseen, split_index=index, seed=seed))
    return splits


def save_splits(splits, path, dataset: str | None = None) -> None:
    payload = {
        "dataset": dataset,
        "splits": [
            {
                "split_index": s.split_index,
                "seed": s.seed,
                "seen": list(s.seen),
                "unseen": list(s.unseen),
            }
            for s in splits
        ],
    }
    write_json(payload, path)


def load_splits(path) -> list:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        splits = [
            ClassSplit(
                seen=tuple(int(c) for c in s["seen"]),
                unseen=tuple(int(c) for c in s["unseen"]),
                split_index=int(s["split_index"]),
                seed=int(s["seed"]),
            )
            for s in payload["splits"]
        ]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"cannot read splits file {path}: {e}") from e
    if not splits:
        raise DataError(f"splits file {path} lists no split")
    for k, s in enumerate(splits):
        if s.split_index in [t.split_index for t in splits[:k]]:
            raise DataError(f"splits file {path}: split_index {s.split_index} is listed twice")
        for name, ids in (("seen", s.seen), ("unseen", s.unseen)):
            if not ids:
                raise DataError(f"splits file {path}: split {s.split_index} has no {name} classes")
            repeated = next((c for k, c in enumerate(ids) if c in ids[:k]), None)
            if repeated is not None:
                raise DataError(
                    f"splits file {path}: split {s.split_index} lists {name} class "
                    f"{repeated} more than once"
                )
        if set(s.seen) & set(s.unseen):
            raise DataError(f"splits file {path}: split {s.split_index} has overlapping class sets")
    return splits


@dataclass(frozen=True)
class GzslPartition:
    """Example-level partition for the generalised protocol."""

    train: np.ndarray  # indices, 80% of each seen class
    seen_test: np.ndarray  # indices, 20% of each seen class
    unseen_test: np.ndarray  # all examples of unseen classes


def gzsl_holdout(labels, split: ClassSplit, fraction: float = 0.2, seed: int = 0) -> GzslPartition:
    """Reserve a per-class test fraction of every seen class.

    The per-class test count is round-half-up(fraction * count) with a
    floor of one example; a seen class must keep at least one training
    example. Sampling is without replacement from one seeded stream over
    classes in ascending id order.
    """
    labels = np.asarray(labels)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train, seen_test = [], []
    for c in sorted(split.seen):
        idx = np.flatnonzero(labels == c)
        count = idx.shape[0]
        n_test = max(1, int(math.floor(fraction * count + 0.5)))
        if n_test >= count:
            raise DataError(
                f"seen class {c} has {count} examples; cannot hold out {n_test} "
                "and still train"
            )
        test_pick = rng.choice(count, size=n_test, replace=False)
        mask = np.zeros(count, dtype=bool)
        mask[test_pick] = True
        seen_test.append(idx[mask])
        train.append(idx[~mask])
    unseen_test = np.flatnonzero(np.isin(labels, list(split.unseen)))
    return GzslPartition(
        train=np.sort(np.concatenate(train)),
        seen_test=np.sort(np.concatenate(seen_test)),
        unseen_test=np.sort(unseen_test),
    )


def cv_folds(seen_classes, n_folds: int, seed: int) -> list:
    """Partition the seen classes into balanced disjoint held-out groups.

    Fold i is a ClassSplit with split_index i: the held-out group is its
    unseen set and the remaining classes are its seen set. Both must be
    non-empty, so n_folds runs from 2 to the number of classes.
    """
    classes = sorted(int(c) for c in seen_classes)
    if n_folds < 2 or n_folds > len(classes):
        raise ValueError(f"n_folds must be in [2, {len(classes)}], got {n_folds}")
    rng = np.random.default_rng(seed)
    shuffled = [classes[i] for i in rng.permutation(len(classes))]
    base, extra = divmod(len(classes), n_folds)
    folds, start = [], 0
    for fold_index in range(n_folds):
        size = base + (1 if fold_index < extra else 0)
        group = tuple(sorted(shuffled[start : start + size]))
        start += size
        rest = tuple(sorted(set(classes) - set(group)))
        folds.append(ClassSplit(seen=rest, unseen=group, split_index=fold_index, seed=seed))
    return folds


def average_segments(segment_features) -> np.ndarray:
    """Column-wise mean of per-segment features: one vector per video."""
    M = np.atleast_2d(np.asarray(segment_features, dtype=np.float64))
    if M.shape[0] < 1 or M.size == 0:
        raise ValueError("cannot average zero segments")
    return M.mean(axis=0)


def subsample_bag(bag: VectorBag, n: int, seed: int = 0) -> VectorBag:
    """Seeded sample without replacement of min(n, bag size) vectors.

    A request covering the whole bag returns the bag unchanged.
    """
    if n < 1:
        raise ValueError(f"subsample size must be >= 1, got {n}")
    if n >= bag.size:
        return bag
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(bag.size, size=n, replace=False))
    return VectorBag(class_id=bag.class_id, vectors=bag.vectors[idx])


def save_semantic_space(space: SemanticSpace, out_dir, extra=None):
    """Write a SemanticSpace as space.zmat plus a space.json sidecar.

    Returns the sidecar path; load_semantic_space takes that path back.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_name = "space.zmat"
    save_matrix(space.reps, out_dir / matrix_name)
    sidecar = {
        "class_ids": list(space.class_ids),
        "metric": space.metric,
        "dim": space.dim,
        "matrix": matrix_name,
    }
    if extra:
        sidecar.update(extra)
    write_json(sidecar, out_dir / "space.json")
    return out_dir / "space.json"


def load_semantic_space(sidecar_path) -> SemanticSpace:
    sidecar_path = Path(sidecar_path)
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        class_ids = tuple(int(c) for c in sidecar["class_ids"])
        metric = sidecar["metric"]
        matrix_name = sidecar["matrix"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"cannot read semantic-space sidecar {sidecar_path}: {e}") from e
    reps = load_matrix(sidecar_path.parent / matrix_name)
    return SemanticSpace(class_ids=class_ids, reps=reps, metric=metric)
