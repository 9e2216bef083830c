import numpy as np
import pytest

from tsadv.cli import DELIMITERS
from tsadv.data import (
    Dataset,
    TimeSeries,
    UCRParseError,
    load_ucr,
    preprocess,
    preprocess_dataset,
    remap_labels,
    save_ucr,
    stratified_split,
)


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadUCR:
    def test_basic_row(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1\t0.5\t-0.3\n"))
        assert ds.series[0].label == 1
        assert np.array_equal(ds.series[0].values, [0.5, -0.3])

    def test_negative_label_single_value(self, tmp_path):
        ds = load_ucr(write(tmp_path, "-1\t0.0\n"))
        assert ds.series[0].label == -1
        assert np.array_equal(ds.series[0].values, [0.0])

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
        ds = load_ucr(write(tmp_path, "1\tNaN\t2.0\n"))
        assert np.isnan(ds.series[0].values[0])

    def test_comma_delimiter(self, tmp_path):
        ds = load_ucr(write(tmp_path, "2,1.0,2.0\n"), delimiter=",")
        assert ds.series[0].label == 2

    @pytest.mark.parametrize("row", ["  1.0000000e+00  -1.5  2.25", "1  -1.5    2.25",
                                     "1 -1.5 2.25 "], ids=["leading", "repeated", "trailing"])
    def test_space_delimiter_takes_runs_of_whitespace(self, tmp_path, row):
        ds = load_ucr(write(tmp_path, row + "\n"), delimiter=DELIMITERS["space"])
        assert ds.series[0].label == 1
        assert np.array_equal(ds.series[0].values, [-1.5, 2.25])

    def test_source_ids_are_row_indices(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1\t0.0\t1.0\n2\t1.0\t2.0\n"))
        assert [s.source_id for s in ds.series] == [0, 1]


class TestRemapLabels:
    def test_negative_positive(self, tmp_path):
        ds = load_ucr(write(tmp_path, "-1\t0.0\t1.0\n1\t1.0\t2.0\n"))
        out = remap_labels(ds)
        assert out.label_map == {-1: 0, 1: 1}
        assert out.labels.tolist() == [0, 1]

    def test_one_based(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1\t0.0\n2\t1.0\n3\t2.0\n"))
        out = remap_labels(ds)
        assert out.label_map == {1: 0, 2: 1, 3: 2}
        assert out.num_classes == 3

    def test_single_class_rejected(self, tmp_path):
        ds = load_ucr(write(tmp_path, "5\t0.0\n5\t1.0\n"))
        with pytest.raises(ValueError, match="single class"):
            remap_labels(ds)


class TestPreprocess:
    def test_interior_nan_interpolated(self):
        s = TimeSeries(values=np.array([1.0, np.nan, 3.0]), label=0, source_id=0)
        out = preprocess(s, target_len=3)
        assert np.allclose(out.values, [1.0, 2.0, 3.0])

    def test_resample_midpoint(self):
        s = TimeSeries(values=np.array([0.0, 2.0]), label=0, source_id=0)
        out = preprocess(s, target_len=3)
        assert np.allclose(out.values, [0.0, 1.0, 2.0])

    def test_constant_znorm_is_zeros(self):
        s = TimeSeries(values=np.array([5.0, 5.0, 5.0]), label=0, source_id=0)
        out = preprocess(s, target_len=3, znorm=True)
        assert np.array_equal(out.values, [0.0, 0.0, 0.0])

    def test_edge_nans_take_nearest(self):
        s = TimeSeries(values=np.array([np.nan, 2.0, 4.0, np.nan]), label=0, source_id=0)
        out = preprocess(s, target_len=4)
        assert np.allclose(out.values, [2.0, 2.0, 4.0, 4.0])

    def test_all_missing_rejected(self):
        s = TimeSeries(values=np.array([np.nan, np.nan]), label=0, source_id=0)
        with pytest.raises(ValueError, match="finite"):
            preprocess(s, target_len=2)

    def test_znorm_moments(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(2, 40)
            s = TimeSeries(values=rng.normal(3.0, 2.0, n), label=0, source_id=0)
            target = int(rng.integers(2, 50))
            out = preprocess(s, target_len=target, znorm=True)
            assert len(out) == target
            assert abs(out.values.mean()) < 1e-9
            assert abs(out.values.std() - 1.0) < 1e-9

    def test_length_always_target(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            target = int(rng.integers(1, 40))
            s = TimeSeries(values=rng.normal(size=n), label=0, source_id=0)
            assert len(preprocess(s, target_len=target)) == target


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        series = tuple(
            TimeSeries(values=rng.normal(size=16), label=int(rng.integers(0, 3)), source_id=i)
            for i in range(20)
        )
        ds = Dataset(name="rt", series=series, label_map={10: 0, 20: 1, 30: 2})
        path = tmp_path / "rt.tsv"
        save_ucr(ds, path)
        back = remap_labels(load_ucr(path))
        assert back.labels.tolist() == ds.labels.tolist()
        for a, b in zip(ds.series, back.series):
            assert np.array_equal(a.values, b.values)

    def test_raw_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        series = tuple(
            TimeSeries(values=rng.normal(size=8), label=int(rng.choice([-1, 1])), source_id=i)
            for i in range(10)
        )
        ds = Dataset(name="raw", series=series, label_map=None)
        path = tmp_path / "raw.tsv"
        save_ucr(ds, path)
        back = load_ucr(path)
        for a, b in zip(ds.series, back.series):
            assert a.label == b.label
            assert np.array_equal(a.values, b.values)


def random_dataset(rng, n_classes=None, length=8):
    n_classes = n_classes or int(rng.integers(2, 5))
    series = []
    labels = np.concatenate([np.full(int(rng.integers(2, 9)), c) for c in range(n_classes)])
    rng.shuffle(labels)
    for i, c in enumerate(labels):
        series.append(TimeSeries(values=rng.normal(size=length), label=int(c), source_id=i))
    return Dataset(name="rnd", series=tuple(series), label_map={c: c for c in range(n_classes)})


class TestStratifiedSplit:
    def test_even_counts(self):
        rng = np.random.default_rng(0)
        ds = Dataset(
            name="even",
            series=tuple(TimeSeries(values=rng.normal(size=4), label=i % 2, source_id=i)
                         for i in range(8)),
            label_map={0: 0, 1: 1},
        )
        split = stratified_split(ds, seed=1)
        for half in (split.d_eval, split.d_test):
            counts = np.bincount(half.labels, minlength=2)
            assert counts.tolist() == [2, 2]

    def test_odd_extra_goes_to_eval(self):
        rng = np.random.default_rng(0)
        labels = [0] * 5 + [1] * 4
        ds = Dataset(
            name="odd",
            series=tuple(TimeSeries(values=rng.normal(size=4), label=l, source_id=i)
                         for i, l in enumerate(labels)),
            label_map={0: 0, 1: 1},
        )
        split = stratified_split(ds, seed=0)
        assert np.bincount(split.d_eval.labels).tolist() == [3, 2]
        assert np.bincount(split.d_test.labels).tolist() == [2, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        a = stratified_split(ds, seed=9)
        b = stratified_split(ds, seed=9)
        assert [s.source_id for s in a.d_eval.series] == [s.source_id for s in b.d_eval.series]
        assert [s.source_id for s in a.d_test.series] == [s.source_id for s in b.d_test.series]

    def test_single_sample_class_rejected(self):
        rng = np.random.default_rng(0)
        series = (
            TimeSeries(values=rng.normal(size=4), label=0, source_id=0),
            TimeSeries(values=rng.normal(size=4), label=0, source_id=1),
            TimeSeries(values=rng.normal(size=4), label=1, source_id=2),
        )
        ds = Dataset(name="thin", series=series, label_map={7: 0, 9: 1})
        with pytest.raises(ValueError, match=r"class 1 \(raw label 9\)"):
            stratified_split(ds, seed=0)

    def test_balance_property_randomized(self):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            ds = random_dataset(rng)
            split = stratified_split(ds, seed=trial)
            eval_ids = {s.source_id for s in split.d_eval.series}
            test_ids = {s.source_id for s in split.d_test.series}
            assert not eval_ids & test_ids
            assert eval_ids | test_ids == {s.source_id for s in ds.series}
            ce = np.bincount(split.d_eval.labels, minlength=ds.num_classes)
            ct = np.bincount(split.d_test.labels, minlength=ds.num_classes)
            assert (np.abs(ce - ct) <= 1).all()


def test_preprocess_dataset_defaults_to_max_length(tmp_path):
    path = write(tmp_path, "1\t1.0\t2.0\n2\t1.0\t2.0\t3.0\t4.0\n")
    raw = remap_labels(load_ucr(path))
    ds = preprocess_dataset(raw, max(len(s) for s in raw.series))
    assert ds.length == 4
    assert np.allclose(ds.series[0].values, [1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0])
