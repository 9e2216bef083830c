"""Tests of the benchmark itself: span arithmetic, wrapper removal, and that
tracing never changes results.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

import run
import tracer

sys.path.insert(0, run.SRC)

from tsadv import autodiff as ad  # noqa: E402
from tsadv.autodiff import Tensor  # noqa: E402
from tsadv.models import ArchitectureConfig, build_fcn  # noqa: E402
from tsadv.nn import cross_entropy  # noqa: E402
from tsadv.synthetic import write_power_profile_archive  # noqa: E402

TINY = {
    "fcn": run.Workload("tiny-fcn", "test", teacher="fcn", box="white", n_train=12, n_test=24,
                        length=24, probe=(1, 1), teacher_epochs=2, attack_epochs=1),
    "dtw": run.Workload("tiny-dtw", "test", teacher="dtw1nn", box="white", n_train=8, n_test=16,
                        length=20, probe=(1, 1), student_epochs=2, attack_epochs=1),
}


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_only_direct_children():
    #        a: 0 ........................ 10
    #        b:    1 ....... 5
    #        d:       2 . 3            (inside b)
    #        c:                 6 . 8
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6, 8, 10]))
    t.enter("a")
    t.enter("b")
    t.enter("d")
    t.exit()
    t.exit()
    t.enter("c")
    t.exit()
    t.exit()
    assert t.spans["d"] == [1, 1, 1]
    assert t.spans["b"] == [1, 4, 3]
    assert t.spans["c"] == [1, 2, 2]
    assert t.spans["a"] == [1, 10, 4]
    assert t.edges == {"a>b": 4, "b>d": 1, "a>c": 2}


def test_repeated_spans_accumulate_calls_and_times():
    t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 9]))
    t.enter("outer")
    for _ in range(2):
        t.enter("leaf")
        t.exit()
    t.exit()
    assert t.spans["leaf"] == [2, 5, 5]
    assert t.spans["outer"] == [1, 9, 4]


def _fcn_gradients():
    model = build_fcn(ArchitectureConfig(input_length=16, num_classes=2, architecture="fcn",
                                         seed=3))
    x = np.random.default_rng(0).normal(size=(4, 1, 16)).astype(np.float32)
    y = np.eye(2, dtype=np.float32)[[0, 1, 1, 0]]
    loss = cross_entropy(y, ad.softmax(model.forward(Tensor(x), training=True), axis=1))
    loss.backward()
    return [p.grad.copy() for p in model.parameters()]


def _snapshot():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "tsadv" or name.startswith("tsadv.")
            for attr, value in vars(module).items()}


def test_wrappers_time_the_layers_and_are_all_removed():
    plain = _fcn_gradients()
    before = _snapshot()
    t = tracer.Tracer()
    patcher = tracer.install(t)
    try:
        assert tracer.leftover_wrappers()
        traced = _fcn_gradients()
    finally:
        patcher.restore()
    assert tracer.leftover_wrappers() == []
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    assert t.spans["autodiff.conv1d"][0] == 3
    assert t.spans["autodiff.conv1d.bwd"][0] == 3
    assert t.spans["nn.batchnorm"][0] == 3
    assert t.counters["nn.batchnorm.bwd_s"] > 0
    assert t.spans["autodiff.backward"][0] == 1


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    out = {}
    for key, workload in TINY.items():
        directory = tmp_path_factory.mktemp(key)
        write_power_profile_archive(directory / "Power_TRAIN.tsv", directory / "Power_TEST.tsv",
                                    n_train=workload.n_train, n_test=workload.n_test,
                                    length=workload.length, seed=5)
        out[key] = str(directory)
    return out


@pytest.mark.parametrize("key", sorted(TINY))
def test_traced_run_gives_the_same_artifacts(key, archives, tmp_path):
    workload = TINY[key]
    env = run.stage_env()
    plain = run.run_iteration(0, workload, str(tmp_path), archives[key], 5, env,
                              traced=False, rerun=True)
    traced = run.run_iteration(1, workload, str(tmp_path), archives[key], 5, env,
                               traced=True, rerun=False)
    assert plain.ok, plain.problems
    assert traced.ok, traced.problems
    assert plain.artifacts == traced.artifacts
    assert all(plain.artifacts.values())
    merged = run.merge_traces(traced.traces)
    metrics = run.per_layer_metrics(merged, traced.pipeline_s / plain.pipeline_s)
    assert metrics["nn.input_gradient.rows"][0] > 0
    assert 0 < metrics["attack.surrogate_grad.useful_ratio"][0] <= 1
    if key == "dtw":
        assert metrics["dtw.cells"][0] > 0
        assert metrics["teachers.predict_proba.calls"][0] > 0
        assert metrics["nn.batchnorm.fwd_s"][0] == 0
    else:
        assert metrics["models.train_classifier.epochs"][0] == workload.teacher_epochs
        assert metrics["nn.batchnorm.bwd_s"][0] > 0
        assert metrics["dtw.cells"][0] == 0


def test_a_failed_check_marks_the_stage_failed(archives, tmp_path):
    workload = TINY["fcn"]
    it = run.run_iteration(0, workload, str(tmp_path), archives["fcn"], 5, run.stage_env(),
                           traced=False, rerun=False)
    assert it.ok, it.problems
    run_dir = tmp_path / "iter0" / "run"
    path = run_dir / "reports" / "reports.json"
    blob = json.loads(path.read_text())
    blob["reports"][1]["num_adversaries"] = blob["reports"][1]["n_evaluated"] + 1
    path.write_text(json.dumps(blob))
    again = run.Iteration(index=1, traced=False)
    run.check_outputs(again, workload, str(run_dir), str(tmp_path / "iter0" / "summary"))
    assert "evaluate" in again.failed_stages


def test_a_stage_is_paused_probed_scaled_and_reaped(monkeypatch, tmp_path):
    probes = []

    def slow_host(mix):
        probes.append(mix)
        return 2 * run.PROBE_REF_S

    monkeypatch.setattr(run, "probe", slow_host)
    busy = "import time\nend = time.process_time() + 1.2\nwhile time.process_time() < end: pass\nraise SystemExit(3)"
    wall, scaled, rss, code = run.run_process([sys.executable, "-c", busy], str(tmp_path / "log"),
                                              run.stage_env(), (1, 1))
    assert code == 3
    assert wall >= 1.2  # 1.2 s of its own CPU time, across the pauses
    assert len(probes) >= 3  # before, at least one pause, after
    assert scaled == pytest.approx(wall / 2)
    assert rss > 0


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    empty = {"spans": {}, "edges": {}, "counters": {}, "distinct": {}, "import_s": [0.1]}
    per_layer = run.per_layer_metrics(empty, 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()}
