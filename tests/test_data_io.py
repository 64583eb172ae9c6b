import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zslkit.data_io import (
    ClassSplit,
    cv_folds,
    average_segments,
    generate_class_splits,
    gzsl_holdout,
    load_dataset,
    load_labels,
    load_matrix,
    load_semantic_space,
    load_splits,
    save_labels,
    save_matrix,
    save_semantic_space,
    save_splits,
    subsample_bag,
    write_json,
)
from zslkit.encoders import SemanticSpace, VectorBag
from zslkit.errors import ConfigError, DataError
from zslkit.zsl_eval import build_report, save_report


class TestMatrixFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(7, 3)) * 1e6
        path = tmp_path / "m.zmat"
        save_matrix(M, path)
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, M)

    @settings(max_examples=25)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        M = np.random.default_rng(seed).normal(size=(rows, cols))
        path = tmp_path_factory.mktemp("zmat") / "m.zmat"
        save_matrix(M, path)
        assert np.array_equal(load_matrix(path), M)

    def test_header_payload_mismatch(self, tmp_path):
        path = tmp_path / "bad.zmat"
        path.write_bytes(b"ZMAT 2 3\n" + b"\x00" * (2 * 3 * 8 - 4))
        with pytest.raises(DataError, match="payload"):
            load_matrix(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.zmat"
        path.write_bytes(b"NOPE 2 2\n" + b"\x00" * 32)
        with pytest.raises(DataError, match="header"):
            load_matrix(path)

    def test_degenerate_shape_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_matrix(np.zeros((0, 0)), tmp_path / "m.zmat")
        path = tmp_path / "bad.zmat"
        path.write_bytes(b"ZMAT 0 0\n")
        with pytest.raises(DataError):
            load_matrix(path)

    def test_non_finite_reported_with_location(self, tmp_path):
        M = np.zeros((3, 2))
        M[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, col 1"):
            save_matrix(M, tmp_path / "m.zmat")

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 3, 1, 1, 2])
        path = tmp_path / "labels.txt"
        save_labels(labels, path)
        assert np.array_equal(load_labels(path), labels)


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: save_matrix(np.ones((2, 3)), path),
            lambda path: save_labels(np.array([1, 2]), path),
            lambda path: write_json({"a": 1}, path),
            lambda path: save_report(
                build_report("d", "m", "inductive", [{"split_index": 0, "A_UU": 0.5}]), path
            ),
        ],
        ids=["save_matrix", "save_labels", "write_json", "save_report"],
    )
    def test_failed_rename_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch, write):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous contents")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            write(target)
        assert target.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


class TestClassSplits:
    def test_51_50_partition(self):
        splits = generate_class_splits(101, n_seen=51, n_splits=5, seed=0)
        assert len(splits) == 5
        for s in splits:
            assert len(s.seen) == 51
            assert len(s.unseen) == 50
            assert not set(s.seen) & set(s.unseen)
            assert sorted(s.seen + s.unseen) == list(range(101))

    def test_26_25_partition(self):
        splits = generate_class_splits(51, n_seen=26, n_splits=5, seed=0)
        assert all(len(s.seen) == 26 and len(s.unseen) == 25 for s in splits)

    def test_deterministic(self):
        a = generate_class_splits(20, 10, 4, seed=9)
        b = generate_class_splits(20, 10, 4, seed=9)
        assert [(s.seen, s.unseen) for s in a] == [(s.seen, s.unseen) for s in b]

    def test_mutually_distinct(self):
        splits = generate_class_splits(12, 6, 8, seed=4)
        assert len({s.seen for s in splits}) == 8

    def test_explicit_class_ids(self):
        splits = generate_class_splits([5, 9, 11, 20], 2, 1, seed=0)
        assert set(splits[0].seen) | set(splits[0].unseen) == {5, 9, 11, 20}

    def test_invalid_n_seen(self):
        with pytest.raises(ValueError):
            generate_class_splits(10, 10, 1, seed=0)

    @pytest.mark.parametrize(
        "n_seen,n_splits,message",
        [
            (0, 1, "n_seen must be in 1..9 for 10 classes, got 0"),
            (10, 1, "n_seen must be in 1..9 for 10 classes, got 10"),
            (4, 0, "n_splits must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_is_config_error(self, n_seen, n_splits, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            generate_class_splits(10, n_seen, n_splits, seed=0)

    @settings(max_examples=40)
    @given(
        n_classes=st.integers(2, 30),
        n_splits=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_invariants_hold(self, n_classes, n_splits, seed, data):
        n_seen = data.draw(st.integers(1, n_classes - 1))
        splits = generate_class_splits(n_classes, n_seen, n_splits, seed)
        assert len(splits) == n_splits
        for s in splits:
            assert len(s.seen) == n_seen
            assert not set(s.seen) & set(s.unseen)
            assert sorted(s.seen + s.unseen) == list(range(n_classes))

    def test_file_round_trip(self, tmp_path):
        splits = generate_class_splits(10, 4, 3, seed=2)
        path = tmp_path / "splits.json"
        save_splits(splits, path, dataset="toy")
        loaded = load_splits(path)
        assert [(s.seen, s.unseen, s.split_index) for s in loaded] == [
            (s.seen, s.unseen, s.split_index) for s in splits
        ]

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda s: replace(s, seen=()), "has no seen classes"),
            (lambda s: replace(s, unseen=()), "has no unseen classes"),
            (lambda s: replace(s, unseen=s.unseen + s.seen[:1]), "has overlapping class sets"),
            (lambda s: replace(s, seen=s.seen + s.seen[-1:]), "lists seen class"),
        ],
        ids=["no-seen", "no-unseen", "overlap", "repeated-class"],
    )
    def test_bad_class_sets_are_data_errors(self, tmp_path, edit, problem):
        splits = generate_class_splits(10, 4, 3, seed=2)
        splits[1] = edit(splits[1])
        path = tmp_path / "splits.json"
        save_splits(splits, path)
        with pytest.raises(DataError, match=re.escape(f"{path}: split 1 {problem}")):
            load_splits(path)

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda splits: [], " lists no split"),
            (lambda splits: [splits[0], replace(splits[1], split_index=0)],
             ": split_index 0 is listed twice"),
        ],
        ids=["no-split", "repeated-split-index"],
    )
    def test_bad_split_lists_are_data_errors(self, tmp_path, edit, problem):
        path = tmp_path / "splits.json"
        save_splits(edit(generate_class_splits(10, 4, 3, seed=2)), path)
        with pytest.raises(DataError, match=re.escape(f"splits file {path}{problem}")):
            load_splits(path)


class TestGzslHoldout:
    def labels_for(self, counts):
        return np.concatenate([[c] * n for c, n in enumerate(counts)])

    def test_ten_examples_hold_out_two(self):
        labels = self.labels_for([10, 10, 4])
        split = ClassSplit(seen=(0, 1), unseen=(2,), split_index=0, seed=0)
        part = gzsl_holdout(labels, split, 0.2, seed=1)
        for c in (0, 1):
            assert (labels[part.seen_test] == c).sum() == 2
            assert (labels[part.train] == c).sum() == 8

    def test_five_examples_hold_out_one(self):
        labels = self.labels_for([5, 10])
        split = ClassSplit(seen=(0,), unseen=(1,), split_index=0, seed=0)
        part = gzsl_holdout(labels, split, 0.2, seed=1)
        assert part.seen_test.size == 1
        assert part.train.size == 4

    def test_round_half_up(self):
        labels = self.labels_for([8, 10])  # 0.2*8 = 1.6 -> 2
        split = ClassSplit(seen=(0,), unseen=(1,), split_index=0, seed=0)
        part = gzsl_holdout(labels, split, 0.2, seed=1)
        assert part.seen_test.size == 2

    def test_union_covers_seen_classes(self):
        labels = self.labels_for([7, 9, 6, 10])
        split = ClassSplit(seen=(0, 2, 3), unseen=(1,), split_index=0, seed=0)
        part = gzsl_holdout(labels, split, 0.2, seed=3)
        seen_all = np.flatnonzero(np.isin(labels, [0, 2, 3]))
        combined = np.sort(np.concatenate([part.train, part.seen_test]))
        assert np.array_equal(combined, seen_all)
        assert not set(part.train) & set(part.seen_test)
        assert np.array_equal(part.unseen_test, np.flatnonzero(labels == 1))

    def test_class_too_small(self):
        labels = self.labels_for([1, 10])
        split = ClassSplit(seen=(0,), unseen=(1,), split_index=0, seed=0)
        with pytest.raises(DataError):
            gzsl_holdout(labels, split, 0.2, seed=0)

    def test_deterministic(self):
        labels = self.labels_for([10, 12, 9])
        split = ClassSplit(seen=(0, 1, 2), unseen=(), split_index=0, seed=0)
        a = gzsl_holdout(labels, split, 0.2, seed=5)
        b = gzsl_holdout(labels, split, 0.2, seed=5)
        assert np.array_equal(a.seen_test, b.seen_test)

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(2, 20), min_size=2, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    def test_invariants_hold(self, counts, seed):
        labels = self.labels_for(counts)
        seen = tuple(range(len(counts) - 1))
        split = ClassSplit(seen=seen, unseen=(len(counts) - 1,), split_index=0, seed=0)
        part = gzsl_holdout(labels, split, 0.2, seed=seed)
        for c in seen:
            count = counts[c]
            expect = max(1, int(np.floor(0.2 * count + 0.5)))
            assert (labels[part.seen_test] == c).sum() == expect
        assert not set(part.train.tolist()) & set(part.seen_test.tolist())


class TestCvFolds:
    def test_balanced_sizes_51_classes(self):
        folds = cv_folds(range(51), 5, seed=0)
        sizes = sorted((len(f.unseen) for f in folds), reverse=True)
        assert sizes == [11, 10, 10, 10, 10]

    def test_each_class_in_exactly_one_fold(self):
        folds = cv_folds(range(17), 4, seed=1)
        seen_once = sorted(c for f in folds for c in f.unseen)
        assert seen_once == list(range(17))
        for f in folds:
            assert sorted(f.unseen + f.seen) == list(range(17))

    def test_deterministic(self):
        assert cv_folds(range(10), 3, seed=7) == cv_folds(range(10), 3, seed=7)

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            cv_folds(range(3), 4, seed=0)

    @pytest.mark.parametrize("n_folds", [0, 1])
    def test_fewer_than_two_folds(self, n_folds):
        # one fold would hold out every class and keep no seen class
        with pytest.raises(ValueError, match=r"n_folds must be in \[2, 3\]"):
            cv_folds(range(3), n_folds, seed=0)


class TestSegmentAveraging:
    def test_single_segment_identity(self):
        assert average_segments([[1.0, 2.0]]).tolist() == [1.0, 2.0]

    def test_mean(self):
        assert average_segments([[0.0, 2.0], [2.0, 0.0]]).tolist() == [1.0, 1.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            average_segments(M), average_segments(M[rng.permutation(6)]), atol=1e-12
        )

    def test_empty(self):
        with pytest.raises(ValueError):
            average_segments(np.zeros((0, 3)))


class TestSubsampleBag:
    def bag(self, n=20):
        return VectorBag(3, np.arange(n * 2, dtype=float).reshape(n, 2))

    def test_request_covering_bag_returns_unchanged(self):
        bag = self.bag(5)
        assert subsample_bag(bag, 10, seed=0) is bag

    def test_exact_subset(self):
        bag = self.bag(200)
        sub = subsample_bag(bag, 5, seed=0)
        assert sub.size == 5
        rows = {tuple(r) for r in bag.vectors.tolist()}
        assert all(tuple(r) in rows for r in sub.vectors.tolist())

    def test_deterministic(self):
        bag = self.bag()
        a = subsample_bag(bag, 7, seed=42)
        b = subsample_bag(bag, 7, seed=42)
        assert np.array_equal(a.vectors, b.vectors)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            subsample_bag(self.bag(), 0)


class TestSemanticSpaceFiles:
    def test_round_trip(self, tmp_path):
        space = SemanticSpace((0, 1, 2), np.random.default_rng(2).normal(size=(3, 4)), "cosine")
        sidecar = save_semantic_space(space, tmp_path, extra={"method": "ffv"})
        loaded = load_semantic_space(sidecar)
        assert loaded.class_ids == space.class_ids
        assert loaded.metric == "cosine"
        assert np.array_equal(loaded.reps, space.reps)
        meta = json.loads(sidecar.read_text())
        assert meta["method"] == "ffv"


class TestDatasetManifest:
    def write_dataset(self, tmp_path, labels=(0, 0, 1, 1, 2)):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(len(labels), 3))
        save_matrix(features, tmp_path / "features.zmat")
        save_labels(np.array(labels), tmp_path / "labels.txt")
        manifest = {
            "name": "toy",
            "classes": [
                {"id": 0, "name": "a"},
                {"id": 1, "name": "b"},
                {"id": 2, "name": "c"},
            ],
            "video_features": "features.zmat",
            "video_labels": "labels.txt",
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path, features

    def test_load(self, tmp_path):
        path, features = self.write_dataset(tmp_path)
        ds = load_dataset(path)
        assert ds.name == "toy"
        assert ds.n_classes == 3
        assert np.array_equal(ds.features, features)
        assert ds.labels.tolist() == [0, 0, 1, 1, 2]

    def test_class_without_videos(self, tmp_path):
        path, _ = self.write_dataset(tmp_path, labels=(0, 0, 1, 1, 1))
        with pytest.raises(DataError, match="no videos"):
            load_dataset(path)

    def test_non_contiguous_ids(self, tmp_path):
        path, _ = self.write_dataset(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["classes"][2]["id"] = 9
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataError, match="ids"):
            load_dataset(path)
