import importlib.util
import os
import warnings

import numpy as np
import pytest

from tsadv.dtw import dtw_pairwise, nn1_classify
from tsadv.models import ArchitectureConfig, build_fcn
from tsadv.synthetic import make_bump_dataset, make_power_profile_rows
from tsadv.teachers import DTW1NNTeacher, FCNTeacher


class TestFCNTeacher:
    def test_labels_match_proba_argmax_and_calls_counted(self):
        net = build_fcn(ArchitectureConfig(input_length=20, num_classes=3, architecture="fcn"))
        teacher = FCNTeacher(net)
        x = np.random.default_rng(0).normal(size=(4, 20))
        labels = teacher.predict_labels(x)
        probs = teacher.predict_proba(x)
        assert np.array_equal(labels, np.argmax(probs, axis=1))
        assert teacher.calls == {"predict_labels": 1, "predict_proba": 1}
        assert teacher.num_classes == 3


class TestDTW1NNTeacher:
    def test_predicts_nearest_reference(self):
        ds = make_bump_dataset(n_per_class=6, length=16, seed=1)
        teacher = DTW1NNTeacher.from_dataset(ds)
        preds = teacher.predict_labels(ds.values)
        assert np.array_equal(preds, ds.labels)  # each series is its own nearest neighbor

    def test_soft_probs_sum_to_one(self):
        ds = make_bump_dataset(n_per_class=4, length=12, seed=3)
        teacher = DTW1NNTeacher.from_dataset(ds)
        probs = teacher.predict_proba(ds.values[:5])
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="one label per row"):
            DTW1NNTeacher(np.zeros((3, 4)), np.zeros(2, dtype=int))


def _power_values(n, length, seed):
    return np.array([[float(v) for v in row.split("\t")[1:]]
                     for row in make_power_profile_rows(n, length, seed)])


def _fixtures():
    bumps = make_bump_dataset(n_per_class=6, length=16, seed=1)
    yield "bumps", bumps.values, bumps.labels, bumps.values
    for length in (24, 64):
        refs = _power_values(67, length, 7)
        refs[5] = refs[40]  # an exact duplicate reference, under another label
        labels = np.arange(67) % 2
        queries = _power_values(120, length, 8)
        yield f"power-{length}", refs, labels, queries
        noisy = queries + np.random.default_rng(length).normal(0.0, 0.3, queries.shape)
        yield f"power-{length}-noisy", refs, labels, noisy
        yield f"power-{length}-refs", refs, labels, refs


class TestHardLabelFilter:
    """predict_labels filters in float32 and refines in float64; its labels
    must be those of the float64 matrix, ties to the lowest index included."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["d_eval", "x_hat"])
    def test_labels_equal_float64_matrix_on_every_fixture(self, dtype):
        for name, refs, labels, queries in _fixtures():
            x = queries.astype(dtype)
            expected = nn1_classify(dtw_pairwise(x, refs), labels)
            assert np.array_equal(DTW1NNTeacher(refs, labels).predict_labels(x), expected), name

    def test_float32_order_reversal_is_refined(self):
        # q is a float32 grid point. r_near rounds up by 0.9 of its distance to
        # q, r_far rounds down by 0.2: nearest in float64, farthest in float32
        q = np.ones(4)
        r_near = q + 0.55 * 2.0 ** -23
        r_far = q - 1.2 * 2.0 ** -24
        refs, labels = np.stack([r_far, r_near]), np.array([0, 1])
        exact = dtw_pairwise(q[None], refs)[0]
        rounded = dtw_pairwise(q[None].astype(np.float32), refs.astype(np.float32))[0]
        assert exact[1] < exact[0] and rounded[0] < rounded[1]
        assert DTW1NNTeacher(refs, labels).predict_labels(q).tolist() == [1]

    def test_exact_tie_goes_to_the_lowest_index(self):
        rng = np.random.default_rng(3)
        x = np.stack([rng.normal(size=10), np.zeros(10)])
        v = rng.normal(size=10)
        # x[0]: a duplicated reference; x[1] = 0: two mirrored ones
        refs = np.stack([x[0] + 5.0, x[0] + v / 4, x[0] + 5.0, x[0] + v / 4, v, -v])
        labels = np.array([0, 1, 0, 2, 3, 4])
        exact = dtw_pairwise(x, refs)
        assert exact[0, 1] == exact[0, 3] and exact[1, 4] == exact[1, 5]
        assert DTW1NNTeacher(refs, labels).predict_labels(x).tolist() == [1, 3]

    @pytest.mark.parametrize("scale", [1e39, 1e19], ids=["cast-overflows", "costs-overflow"])
    def test_values_beyond_float32_fall_back_to_float64(self, scale):
        ds = make_bump_dataset(n_per_class=4, length=12, seed=5)
        refs, x = ds.values * scale, ds.values[::-1] * scale * 0.9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = DTW1NNTeacher(refs, ds.labels).predict_labels(x)
            expected = ds.labels[np.argmin(dtw_pairwise(x, refs), axis=1)]
        assert np.array_equal(labels, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_still_refused(self, bad):
        ds = make_bump_dataset(n_per_class=4, length=12, seed=6)
        x = ds.values[:2].copy()
        x[1, 3] = bad
        with pytest.raises(ValueError, match="eval set contains non-finite values"):
            DTW1NNTeacher.from_dataset(ds).predict_labels(x)


def test_benchmark_tracer_wraps_dtw_teacher():
    """The benchmark's tracer still finds every name it wraps, with the signature it calls."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    ds = make_bump_dataset(n_per_class=4, length=12, seed=4)
    tracer = tracer_mod.Tracer()
    patcher = tracer_mod.install(tracer)
    try:
        DTW1NNTeacher.from_dataset(ds).predict_labels(ds.values[:3])
    finally:
        patcher.restore()
    assert tracer_mod.leftover_wrappers() == []
    assert tracer.spans["dtw.pairwise"][0] == 1


def test_power_profile_rows_are_parseable_and_balanced():
    rows = make_power_profile_rows(10, length=24, seed=0)
    labels = [int(r.split("\t")[0]) for r in rows]
    assert sorted(set(labels)) == [1, 2]
    values = np.array([[float(v) for v in r.split("\t")[1:]] for r in rows])
    assert values.shape == (10, 24)
    assert np.isfinite(values).all()
