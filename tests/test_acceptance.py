"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The two attack pipelines (synthetic bumps and a power-demand style archive
pair sized 67/1029 x 24) are shared module fixtures so their cost is paid
once; criterion 10 re-runs both from scratch to prove bitwise determinism.
"""

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest

import tsadv.autodiff as ad
from tsadv.attack import (
    AttackConfig,
    beta_grid_search,
    clean_labels,
    make_attack_run,
    select_surrogate,
    rerank,
    surrogate_signal,
    train_gatn,
)
from tsadv.autodiff import Tensor
from tsadv.data import Dataset, load_ucr, remap_labels, stratified_split
from tsadv.distill import DistillConfig, teacher_outputs, train_student
from tsadv.dtw import dtw_distance, nn1_classify, soft_1nn
from tsadv.evaluate import generalization_eval, wilcoxon_signed_rank
from tsadv.models import (
    ArchitectureConfig,
    TrainConfig,
    as_conv_input,
    build_fcn,
    build_lenet5_1d,
    train_classifier,
)
from tsadv.nn import BatchNorm1d, cross_entropy, l2, predict
from tsadv.synthetic import make_bump_dataset, write_power_profile_archive
from tsadv.teachers import FCNTeacher
from tsadv.util import rankdata_average


@contextmanager
def criterion(number: int, title: str):
    """Prints the per-criterion verdict; run with -s to see the lines live."""
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {title} ({time.time() - start:.1f}s)")
        raise
    print(f"\n[criterion {number:2d}] PASS  {title} ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# shared attack pipelines (criteria 5, 6, 10)


@dataclass
class PipelineResult:
    train: Dataset
    d_eval: Dataset
    d_test: Dataset
    teacher_net: object
    teacher: FCNTeacher
    grid_counts: list
    grid_hashes: list
    best_beta: float
    best_count: int
    test_report: object
    teacher_seconds: float
    attack_seconds: float

    @property
    def artifact_hashes(self):
        return (self.teacher_net.state_hash(), tuple(self.grid_hashes))


def run_white_box_fcn_pipeline(train: Dataset, pool: Dataset, gatn_epochs: int) -> PipelineResult:
    """Criterion 6 recipe: teacher, 5-point beta grid, Fig.-7 style d_test pass."""
    d_eval, d_test = stratified_split(pool, seed=0)
    t0 = time.time()
    teacher_net = build_fcn(ArchitectureConfig(input_length=train.length, num_classes=2,
                                               architecture="fcn", seed=0))
    train_classifier(teacher_net, train, TrainConfig(epochs=200, seed=0, early_stop_acc=1.0))
    teacher_seconds = time.time() - t0
    assert teacher_net.training_log[-1]["accuracy"] >= 0.95
    teacher = FCNTeacher(teacher_net)
    base = AttackConfig(box_mode="white", teacher_kind="fcn", alpha=1.5, beta=1e-1,
                        target_class=1, seed=0, epochs=gatn_epochs)
    t0 = time.time()
    surrogate = select_surrogate(base, teacher, None)
    runs, reports, best, _ = beta_grid_search(base, d_eval, teacher, surrogate)
    signal = surrogate_signal(surrogate, d_test.values, base.target_class)
    test_report = generalization_eval(runs[best], teacher, d_test, "labeled", signal,
                                      clean_labels(teacher, surrogate, d_test.values, signal))
    attack_seconds = time.time() - t0
    return PipelineResult(
        train=train, d_eval=d_eval, d_test=d_test,
        teacher_net=teacher_net, teacher=teacher,
        grid_counts=[r.num_adversaries for r in reports],
        grid_hashes=[run.gatn.state_hash() for run in runs],
        best_beta=runs[best].config.beta, best_count=reports[best].num_adversaries,
        test_report=test_report, teacher_seconds=teacher_seconds,
        attack_seconds=attack_seconds)


def synthetic_inputs():
    train = make_bump_dataset(n_per_class=32, length=32, seed=100, name="bumps-train")
    pool = make_bump_dataset(n_per_class=64, length=32, seed=200, name="bumps")
    return train, pool


def power_inputs(directory) -> tuple[Dataset, Dataset]:
    train_path = os.path.join(directory, "PowerProfile_TRAIN.tsv")
    test_path = os.path.join(directory, "PowerProfile_TEST.tsv")
    write_power_profile_archive(train_path, test_path, n_train=67, n_test=1029,
                                length=24, seed=7)

    def load(path):
        labels, rows = load_ucr(path)
        return Dataset(path, rows, *remap_labels(labels, path))

    return load(train_path), load(test_path)


@pytest.fixture(scope="module")
def synthetic_pipeline():
    return run_white_box_fcn_pipeline(*synthetic_inputs(), gatn_epochs=40)


@pytest.fixture(scope="module")
def power_pipeline(tmp_path_factory):
    train, pool = power_inputs(tmp_path_factory.mktemp("power"))
    return run_white_box_fcn_pipeline(train, pool, gatn_epochs=25)


# ---------------------------------------------------------------------------
# criterion 1: DTW dynamic program vs exhaustive path enumeration


def enumerate_paths_min_cost(q, c):
    n, m = len(q), len(c)
    best = [np.inf]

    def walk(i, j, cost):
        cost += (q[i] - c[j]) ** 2
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], cost)
            return
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)

    walk(0, 0, 0.0)
    return np.sqrt(best[0])


def test_criterion_01_dtw_oracle_equivalence():
    with criterion(1, "DTW equals exhaustive warping-path enumeration"):
        start = time.time()
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = rng.uniform(-2.0, 2.0, int(rng.integers(1, 6)))
            c = rng.uniform(-2.0, 2.0, int(rng.integers(1, 6)))
            assert abs(dtw_distance(q, c) - enumerate_paths_min_cost(q, c)) < 1e-9
            assert dtw_distance(q, q) == 0.0
        assert abs(dtw_distance([0.0, 0.0], [1.0, 1.0]) - np.sqrt(2.0)) < 1e-12
        assert abs(dtw_distance([1.0, 2.0, 3.0], [2.0, 2.0, 3.0]) - 1.0) < 1e-12
        assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2: Soft-1NN argmax identical to 1-NN


def test_criterion_02_soft_1nn_equivalence():
    with criterion(2, "Soft-1NN argmax == 1-NN on 1000 random matrices"):
        start = time.time()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            c = int(rng.integers(2, 6))
            n_train = int(rng.integers(c, 31))
            n_test = int(rng.integers(1, 21))
            labels = np.concatenate([np.arange(c), rng.integers(0, c, n_train - c)])
            rng.shuffle(labels)
            values = rng.uniform(1.0, 10.0, size=(n_test, n_train))
            for row in values:
                row[rng.integers(0, n_train)] = rng.uniform(0.0, 0.5)
            probs, soft_labels = soft_1nn(values, labels)
            assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.array_equal(soft_labels, nn1_classify(values, labels))
        assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 3: gradient checks for every layer kind and both losses


def _numeric_grad(f, x, eps=1e-4):
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def _gradcheck(make_output, tensors, tol=1e-4):
    proj = np.random.default_rng(99).normal(size=make_output().data.shape)

    def scalar():
        return ad.tsum(make_output() * Tensor(proj))

    loss = scalar()
    for t in tensors:
        t.grad = None
    loss.backward()
    for t in tensors:
        numeric = _numeric_grad(lambda: float(scalar().data), t.data)
        denom = np.maximum(1.0, np.maximum(np.abs(t.grad), np.abs(numeric)))
        assert (np.abs(t.grad - numeric) / denom).max() < tol


def test_criterion_03_gradient_checks():
    with criterion(3, "finite-difference gradient checks, all layers and losses"):
        start = time.time()
        rng = np.random.default_rng(3)

        def tracked(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        for _ in range(20):
            for padding in ("same", "valid"):
                k = int(rng.integers(1, 5))
                x = tracked(2, 2, int(rng.integers(k, k + 5)))
                w, b = tracked(3, 2, k), tracked(3)
                _gradcheck(lambda: ad.conv1d(x, w, b, padding), [x, w, b])
            bn = BatchNorm1d(2, dtype=np.float64)
            bn.gamma.data = rng.uniform(0.5, 1.5, 2)
            bn.beta.data = rng.normal(size=2)
            xb = tracked(3, 2, 4)

            def bn_out():
                bn.running_mean = np.zeros(2)
                bn.running_var = np.ones(2)
                return bn.forward(xb, training=True)

            _gradcheck(bn_out, [xb, bn.gamma, bn.beta])
            xp = tracked(2, 2, int(rng.integers(2, 9)))
            _gradcheck(lambda: ad.maxpool1d(xp, 2), [xp])
            xg = tracked(2, 3, 5)
            _gradcheck(lambda: ad.tmean(xg, axis=2), [xg])
            xd, wd, bd = tracked(3, 4), tracked(4, 3), tracked(3)
            _gradcheck(lambda: ad.matmul(xd, wd) + bd, [xd, wd, bd])
            xr = Tensor(rng.choice([-1.0, 1.0], (3, 3)) * rng.uniform(0.5, 2, (3, 3)),
                        requires_grad=True)
            _gradcheck(lambda: ad.relu(xr), [xr])
            xf = tracked(2, 2, 3)
            _gradcheck(lambda: ad.reshape(xf, (2, 6)), [xf])
            xc1, xc2 = tracked(2, 3), tracked(2, 4)
            _gradcheck(lambda: ad.concat([xc1, xc2], axis=1), [xc1, xc2])
            # distributions bounded away from 0: the log singularity would
            # dominate the central-difference truncation error otherwise
            q = Tensor((rng.dirichlet(np.ones(4), size=2) + 0.25) / 2.0, requires_grad=True)
            p = rng.dirichlet(np.ones(4), size=2)
            _gradcheck(lambda: cross_entropy(p, q), [q])
            la, lb = tracked(2, 5), tracked(2, 5)
            _gradcheck(lambda: l2(la, lb), [la, lb])
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 4: reranking guarantee


def test_criterion_04_reranking_guarantee():
    with criterion(4, "rerank puts argmax on the target class and renormalizes"):
        fixed = rerank(np.array([0.7, 0.3]), target_class=1, alpha=1.5)
        assert np.abs(fixed - np.array([0.4, 0.6])).max() <= 1e-12
        rng = np.random.default_rng(4)
        for _ in range(1000):
            c = int(rng.integers(2, 9))
            y = rng.dirichlet(np.ones(c))
            t = int(rng.integers(0, c))
            alpha = max(float(rng.uniform(1.0, 3.0)), np.nextafter(1.0, 2.0))
            out = rerank(y, t, alpha)
            assert np.argmax(out) == t
            assert abs(out.sum() - 1.0) <= 1e-9
            assert (out >= 0).all()


# ---------------------------------------------------------------------------
# criterion 5: distillation fidelity on the bump dataset, both presets


def test_criterion_05_distillation_fidelity(synthetic_pipeline):
    with criterion(5, "students reach 90% teacher fidelity (soft and hard presets)"):
        start = time.time()
        p = synthetic_pipeline
        assert len(p.train) == 64 and len(p.d_eval) == 64
        assert p.teacher_net.training_log[-1]["accuracy"] >= 0.95
        for mode, gamma in (("soft", 0.5), ("hard", 1.0)):
            outputs = teacher_outputs(p.teacher, p.d_eval.values, mode=mode)
            student = build_lenet5_1d(ArchitectureConfig(input_length=32, num_classes=2,
                                                         architecture="lenet5", seed=5))
            train_student(student, p.d_eval.values, outputs,
                          DistillConfig(gamma=gamma, epochs=60, seed=5))
            x_all = as_conv_input(p.d_eval.values, student.parameters()[0].dtype)
            _, probs = predict(student, x_all)
            fidelity = float((np.argmax(probs, axis=1) == outputs.hard_labels).mean())
            assert fidelity >= 0.9, f"gamma={gamma} fidelity {fidelity}"
        assert time.time() - start + p.teacher_seconds < 300.0


# ---------------------------------------------------------------------------
# criterion 6: end-to-end white-box FCN attack on both datasets


def test_criterion_06_end_to_end_attack(synthetic_pipeline, power_pipeline):
    with criterion(6, "white-box FCN attack finds adversaries on d_eval and unseen d_test"):
        total = 0.0
        for p, tag in ((synthetic_pipeline, "bumps"), (power_pipeline, "power")):
            assert len(p.grid_counts) == 5
            assert p.best_count >= 1, f"{tag}: no d_eval adversaries"
            assert p.test_report.num_adversaries >= 1, f"{tag}: no d_test adversaries"
            assert p.test_report.split == "d_test"
            total += p.teacher_seconds + p.attack_seconds
            print(f"    {tag}: grid counts {p.grid_counts} best beta {p.best_beta:.0e} "
                  f"d_test {p.test_report.num_adversaries}/{p.test_report.n_evaluated}")
        assert total < 1200.0


# ---------------------------------------------------------------------------
# criterion 7: surrogate routing rule


def test_criterion_07_surrogate_routing():
    with criterion(7, "teacher attacked directly only for (white, fcn)"):
        teacher_net = build_fcn(ArchitectureConfig(input_length=16, num_classes=2,
                                                   architecture="fcn"))
        student = build_lenet5_1d(ArchitectureConfig(input_length=16, num_classes=2,
                                                     architecture="lenet5"))
        teacher = FCNTeacher(teacher_net)
        for box, kind in itertools.product(("white", "black"), ("fcn", "dtw1nn")):
            config = AttackConfig(box_mode=box, teacher_kind=kind)
            surrogate = select_surrogate(config, teacher, student)
            if (box, kind) == ("white", "fcn"):
                assert surrogate is teacher_net
                with pytest.raises(ValueError, match="teacher network"):
                    select_surrogate(config, None, student)
            else:
                assert surrogate is student
                with pytest.raises(ValueError, match="student"):
                    select_surrogate(config, teacher, None)


# ---------------------------------------------------------------------------
# criterion 8: black-box information hygiene


def test_criterion_08_black_box_hygiene(synthetic_pipeline):
    with criterion(8, "black-box training reads neither probabilities nor ground truth"):
        p = synthetic_pipeline
        teacher = FCNTeacher(p.teacher_net)  # fresh wrapper, fresh call counters
        outputs = teacher_outputs(teacher, p.d_eval.values, mode="hard")
        assert outputs.soft_probs is None
        flipped = replace(p.d_eval, name="flipped", labels=1 - p.d_eval.labels)
        artifacts = []
        for split in (p.d_eval, flipped):
            student = build_lenet5_1d(ArchitectureConfig(input_length=32, num_classes=2,
                                                         architecture="lenet5", seed=8))
            train_student(student, split.values, outputs,
                          DistillConfig(gamma=1.0, epochs=10, seed=8))
            run = make_attack_run(AttackConfig(box_mode="black", teacher_kind="fcn",
                                               epochs=5, seed=8), 32, student)
            train_gatn(run, split.values, surrogate_signal(
                student, split.values, run.config.target_class, run.gatn.parameters()[0].dtype))
            artifacts.append((student.state_hash(), run.gatn.state_hash()))
        assert artifacts[0] == artifacts[1], "ground-truth labels leaked into training"
        assert teacher.calls["predict_proba"] == 0, "teacher probabilities were read"
        assert teacher.calls["predict_labels"] == 1  # the single allowed hard-label query


# ---------------------------------------------------------------------------
# criterion 9: Wilcoxon signed-rank vs enumeration oracle


def _wilcoxon_oracle(diff):
    ranks = rankdata_average(np.abs(diff))
    w_obs = ranks[diff > 0].sum()
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=len(diff)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        le += w <= w_obs + 1e-12
        ge += w >= w_obs - 1e-12
    total = 2 ** len(diff)
    return min(1.0, 2.0 * min(le / total, ge / total))


def test_criterion_09_wilcoxon_exactness():
    with criterion(9, "Wilcoxon p-values match exact sign-assignment enumeration"):
        stat, p = wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros(5))
        assert abs(p - 0.0625) < 1e-15
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 100:
            n = int(rng.integers(5, 11))
            diff = rng.normal(size=n)
            if len(np.unique(np.abs(diff))) != n:
                continue
            result = wilcoxon_signed_rank(diff, np.zeros(n))
            assert abs(result.p_value - _wilcoxon_oracle(diff)) <= 1e-12
            checked += 1


# ---------------------------------------------------------------------------
# criterion 10: determinism of the end-to-end attack


def test_criterion_10_determinism(synthetic_pipeline, power_pipeline, tmp_path):
    with criterion(10, "same seeds give identical counts and bit-identical artifacts"):
        for first, inputs, epochs in (
            (synthetic_pipeline, synthetic_inputs(), 40),
            (power_pipeline, power_inputs(tmp_path), 25),
        ):
            repeat = run_white_box_fcn_pipeline(*inputs, gatn_epochs=epochs)
            assert repeat.grid_counts == first.grid_counts
            assert repeat.best_count == first.best_count
            assert repeat.test_report.num_adversaries == first.test_report.num_adversaries
            assert repeat.artifact_hashes == first.artifact_hashes
