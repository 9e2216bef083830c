from dataclasses import replace

import numpy as np
import pytest

from tsadv.cli import DELIMITERS
from tsadv.data import (
    Dataset,
    UCRParseError,
    load_ucr,
    preprocess,
    preprocess_dataset,
    remap_labels,
    save_ucr,
    stratified_split,
)
from tsadv.synthetic import make_bump_dataset


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDataset:
    def test_compares_and_hashes_by_identity(self):
        a, b = make_bump_dataset(seed=0), make_bump_dataset(seed=0)
        assert a == a and not a != a
        assert a != b and not a == b  # equal arrays, but two datasets
        assert hash(a) == hash(a) and len({a, b}) == 2
        flipped = replace(a, labels=1 - a.labels)
        assert flipped.name == a.name and flipped.label_map == a.label_map
        assert np.array_equal(flipped.labels, 1 - a.labels)
        assert not flipped.labels.flags.writeable and flipped != a


class TestLoadUCR:
    def test_basic_row(self, tmp_path):
        labels, rows = load_ucr(write(tmp_path, "1\t0.5\t-0.3\n"))
        assert labels == [1]
        assert np.array_equal(rows[0], [0.5, -0.3])

    def test_negative_label_single_value(self, tmp_path):
        labels, rows = load_ucr(write(tmp_path, "-1\t0.0\n"))
        assert labels == [-1]
        assert np.array_equal(rows[0], [0.0])

    def test_bad_value_reports_line(self, tmp_path):
        path = write(tmp_path, "1\t0.5\n2\tabc\n")
        with pytest.raises(UCRParseError, match=r":2.*'abc'"):
            load_ucr(path)

    def test_bad_label_reports_line(self, tmp_path):
        with pytest.raises(UCRParseError, match=":1"):
            load_ucr(write(tmp_path, "x\t0.5\n"))

    def test_too_few_fields(self, tmp_path):
        with pytest.raises(UCRParseError, match="field"):
            load_ucr(write(tmp_path, "1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(UCRParseError, match="no data rows"):
            load_ucr(write(tmp_path, "\n\n"))

    def test_nan_markers_kept(self, tmp_path):
        _, rows = load_ucr(write(tmp_path, "1\tNaN\t2.0\n"))
        assert np.isnan(rows[0][0])

    def test_comma_delimiter(self, tmp_path):
        labels, _ = load_ucr(write(tmp_path, "2,1.0,2.0\n"), delimiter=",")
        assert labels == [2]

    @pytest.mark.parametrize("row", ["  1.0000000e+00  -1.5  2.25", "1  -1.5    2.25",
                                     "1 -1.5 2.25 "], ids=["leading", "repeated", "trailing"])
    def test_space_delimiter_takes_runs_of_whitespace(self, tmp_path, row):
        labels, rows = load_ucr(write(tmp_path, row + "\n"), delimiter=DELIMITERS["space"])
        assert labels == [1]
        assert np.array_equal(rows[0], [-1.5, 2.25])


class TestRemapLabels:
    def test_negative_positive(self, tmp_path):
        labels, _ = load_ucr(write(tmp_path, "-1\t0.0\t1.0\n1\t1.0\t2.0\n"))
        remapped, label_map = remap_labels(labels, "pm")
        assert label_map == {-1: 0, 1: 1}
        assert remapped.tolist() == [0, 1]

    def test_one_based(self, tmp_path):
        labels, rows = load_ucr(write(tmp_path, "1\t0.0\n2\t1.0\n3\t2.0\n"))
        out = Dataset("one-based", rows, *remap_labels(labels, "one-based"))
        assert out.label_map == {1: 0, 2: 1, 3: 2}
        assert out.num_classes == 3

    def test_single_class_rejected(self, tmp_path):
        labels, _ = load_ucr(write(tmp_path, "5\t0.0\n5\t1.0\n"))
        with pytest.raises(ValueError, match=r"'five' has a single class \[5\]"):
            remap_labels(labels, "five")


class TestPreprocess:
    def test_interior_nan_interpolated(self):
        s = np.array([1.0, np.nan, 3.0])
        out = preprocess(s, target_len=3)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_resample_midpoint(self):
        s = np.array([0.0, 2.0])
        out = preprocess(s, target_len=3)
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_constant_znorm_is_zeros(self):
        s = np.array([5.0, 5.0, 5.0])
        out = preprocess(s, target_len=3, znorm=True)
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_edge_nans_take_nearest(self):
        s = np.array([np.nan, 2.0, 4.0, np.nan])
        out = preprocess(s, target_len=4)
        assert np.allclose(out, [2.0, 2.0, 4.0, 4.0])

    def test_all_missing_rejected(self):
        s = np.array([np.nan, np.nan])
        with pytest.raises(ValueError, match="finite"):
            preprocess(s, target_len=2)

    def test_znorm_moments(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(2, 40)
            s = rng.normal(3.0, 2.0, n)
            target = int(rng.integers(2, 50))
            out = preprocess(s, target_len=target, znorm=True)
            assert len(out) == target
            assert abs(out.mean()) < 1e-9
            assert abs(out.std() - 1.0) < 1e-9

    def test_length_always_target(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            target = int(rng.integers(1, 40))
            s = rng.normal(size=n)
            assert len(preprocess(s, target_len=target)) == target


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        ds = Dataset("rt", rng.normal(size=(20, 16)), np.arange(20) % 3,
                     {10: 0, 20: 1, 30: 2})
        path = tmp_path / "rt.tsv"
        save_ucr(ds, path)
        labels, rows = load_ucr(path)
        back = Dataset("rt", rows, *remap_labels(labels, "rt"))
        assert back.labels.tolist() == ds.labels.tolist()
        assert back.label_map == ds.label_map
        assert np.array_equal(back.values, ds.values)

    def test_raw_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.choice([-1, 1], size=10)
        ds = Dataset("raw", rng.normal(size=(10, 8)), (raw + 1) // 2, {-1: 0, 1: 1})
        path = tmp_path / "raw.tsv"
        save_ucr(ds, path)
        labels, rows = load_ucr(path)
        assert labels == raw.tolist()
        assert np.array_equal(np.array(rows), ds.values)


def random_dataset(rng, n_classes=None, length=8):
    n_classes = n_classes or int(rng.integers(2, 5))
    labels = np.concatenate([np.full(int(rng.integers(2, 9)), c) for c in range(n_classes)])
    rng.shuffle(labels)
    values = rng.normal(size=(labels.shape[0], length))
    return Dataset("rnd", values, labels, {c: c for c in range(n_classes)})


def row_indices(half, ds):
    """The row of ``ds`` that each row of a split half is (rows of ``ds`` are distinct)."""
    matches = (half.values[:, None, :] == ds.values[None, :, :]).all(axis=2)
    assert (matches.sum(axis=1) == 1).all()
    return matches.argmax(axis=1).tolist()


class TestStratifiedSplit:
    def test_even_counts(self):
        rng = np.random.default_rng(0)
        ds = Dataset("even", rng.normal(size=(8, 4)), np.arange(8) % 2, {0: 0, 1: 1})
        for half in stratified_split(ds, seed=1):
            counts = np.bincount(half.labels, minlength=2)
            assert counts.tolist() == [2, 2]

    def test_odd_extra_goes_to_eval(self):
        rng = np.random.default_rng(0)
        ds = Dataset("odd", rng.normal(size=(9, 4)), [0] * 5 + [1] * 4, {0: 0, 1: 1})
        d_eval, d_test = stratified_split(ds, seed=0)
        assert np.bincount(d_eval.labels).tolist() == [3, 2]
        assert np.bincount(d_test.labels).tolist() == [2, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        a = stratified_split(ds, seed=9)
        b = stratified_split(ds, seed=9)
        for half_a, half_b in zip(a, b):
            assert row_indices(half_a, ds) == row_indices(half_b, ds)
            assert np.array_equal(half_a.values, half_b.values)

    def test_single_sample_class_rejected(self):
        rng = np.random.default_rng(0)
        ds = Dataset("thin", rng.normal(size=(3, 4)), [0, 0, 1], {7: 0, 9: 1})
        with pytest.raises(ValueError, match=r"class 1 \(raw label 9\)"):
            stratified_split(ds, seed=0)

    def test_balance_property_randomized(self):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            ds = random_dataset(rng)
            d_eval, d_test = stratified_split(ds, seed=trial)
            eval_ids, test_ids = row_indices(d_eval, ds), row_indices(d_test, ds)
            assert eval_ids == sorted(eval_ids) and test_ids == sorted(test_ids)
            assert sorted(eval_ids + test_ids) == list(range(len(ds)))
            assert d_eval.labels.tolist() == ds.labels[eval_ids].tolist()
            ce = np.bincount(d_eval.labels, minlength=ds.num_classes)
            ct = np.bincount(d_test.labels, minlength=ds.num_classes)
            assert (np.abs(ce - ct) <= 1).all()


def test_preprocess_dataset_defaults_to_max_length(tmp_path):
    path = write(tmp_path, "1\t1.0\t2.0\n2\t1.0\t2.0\t3.0\t4.0\n")
    labels, rows = load_ucr(path)
    ds = preprocess_dataset("ragged", labels, rows, max(len(row) for row in rows))
    assert ds.length == 4
    assert np.allclose(ds.values[0], [1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0])
