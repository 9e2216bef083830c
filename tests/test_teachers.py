import importlib.util
import os

import numpy as np
import pytest

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
