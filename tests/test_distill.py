import numpy as np
import pytest

from tsadv.autodiff import Tensor
from tsadv.distill import (
    DistillConfig,
    TeacherOutputs,
    distill_loss,
    distill_target,
    teacher_outputs,
    train_student,
)
from tsadv.models import (ArchitectureConfig, TrainConfig, as_conv_input, build_fcn, build_lenet5_1d,
                          train_classifier)
from tsadv.nn import predict
from tsadv.synthetic import make_bump_dataset
from tsadv.teachers import DTW1NNTeacher, FCNTeacher
from tsadv.util import one_hot, softmax_np


def student_fidelity(student, x, teacher_labels) -> float:
    """Fraction of the rows of ``x`` whose student argmax is the teacher's label."""
    _, probs = predict(student, as_conv_input(x, student.parameters()[0].dtype))
    return float((np.argmax(probs, axis=1) == teacher_labels).mean())


@pytest.fixture(scope="module")
def bump_teacher():
    """FCN trained to 100% on a bump train set, plus a disjoint eval split."""
    train = make_bump_dataset(n_per_class=24, length=32, seed=10, name="bumps-train")
    d_eval = make_bump_dataset(n_per_class=24, length=32, seed=11, name="bumps-eval")
    net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2, architecture="fcn", seed=2))
    train_classifier(net, train, TrainConfig(epochs=100, seed=2, early_stop_acc=1.0))
    assert net.training_log[-1]["accuracy"] >= 0.95
    return FCNTeacher(net), d_eval


class TestTeacherOutputs:
    def test_dtw_soft_mode_matches_algorithm(self):
        ref = np.array([[0.0, 0.0], [1.0, 1.0]])
        teacher = DTW1NNTeacher(ref, np.array([0, 1]))
        x = np.array([[0.0, 0.0]])  # distances [0, sqrt(2)] -> not the spec row, so craft one
        out = teacher_outputs(teacher, x, mode="soft")
        assert out.soft_probs.shape == (1, 2)
        # distance row is [0, sqrt(2)]; check against direct softmax of per-class maxima
        expected = softmax_np(np.array([[0.0, -np.sqrt(2.0)]]))
        assert out.soft_probs[0] == pytest.approx(expected[0], abs=1e-12)

    def test_dtw_soft_unit_distance_row(self):
        # engineered so the distance row is exactly [0, 1]
        ref = np.array([[0.0, 0.0], [0.0, 1.0]])
        teacher = DTW1NNTeacher(ref, np.array([0, 1]))
        out = teacher_outputs(teacher, np.array([[0.0, 0.0]]), mode="soft")
        assert out.soft_probs[0] == pytest.approx([0.7310585786300049, 0.2689414213699951], abs=1e-12)

    def test_hard_mode_has_no_probs(self, bump_teacher):
        teacher, d_eval = bump_teacher
        out = teacher_outputs(teacher, d_eval.values, mode="hard")
        assert out.soft_probs is None
        assert out.hard_labels.shape == (len(d_eval),)

    def test_soft_argmax_equals_hard(self, bump_teacher):
        teacher, d_eval = bump_teacher
        soft = teacher_outputs(teacher, d_eval.values, mode="soft")
        hard = teacher_outputs(teacher, d_eval.values, mode="hard")
        assert np.array_equal(soft.hard_labels, hard.hard_labels)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TeacherOutputs(mode="soft", hard_labels=np.array([0]), teacher_kind="fcn",
                           num_classes=2, soft_probs=np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError, match="argmax"):
            TeacherOutputs(mode="soft", hard_labels=np.array([1]), teacher_kind="fcn",
                           num_classes=2, soft_probs=np.array([[0.9, 0.1]]))
        with pytest.raises(ValueError, match="hard mode"):
            TeacherOutputs(mode="hard", hard_labels=np.array([0]), teacher_kind="fcn",
                           num_classes=2, soft_probs=np.array([[0.9, 0.1]]))


class TestDistillConfig:
    def test_presets(self):
        assert DistillConfig.for_box_mode("white").gamma == 0.5
        assert DistillConfig.for_box_mode("black").gamma == 1.0

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError, match="gamma"):
            DistillConfig(gamma=1.5)
        with pytest.raises(ValueError, match="gamma"):
            DistillConfig(gamma=-0.1)

    def test_default_tau(self):
        assert DistillConfig(gamma=1.0).tau == 10.0


class TestDistillTarget:
    def test_hard_is_one_hot(self):
        out = TeacherOutputs(mode="hard", hard_labels=np.array([1, 0]), teacher_kind="fcn",
                             num_classes=2)
        assert np.array_equal(distill_target(out, tau=10.0), [[0.0, 1.0], [1.0, 0.0]])

    def test_fcn_probs_are_retempered_exactly(self):
        # softmax(log p / tau) must equal the tau-scaled softmax of the original logits
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4)) * 3
        probs = softmax_np(z)
        out = TeacherOutputs(mode="soft", hard_labels=np.argmax(probs, axis=1),
                             teacher_kind="fcn", num_classes=4, soft_probs=probs)
        target = distill_target(out, tau=10.0)
        assert np.abs(target - softmax_np(z, temperature=10.0)).max() < 1e-12

    def test_dtw_probs_used_directly(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        out = TeacherOutputs(mode="soft", hard_labels=np.array([0, 1]), teacher_kind="dtw1nn",
                             num_classes=2, soft_probs=probs)
        assert np.array_equal(distill_target(out, tau=10.0), probs)


class TestDistillLoss:
    def test_gamma_one_is_distillation_only(self):
        config = DistillConfig(gamma=1.0, tau=2.0)
        z = np.array([1.0, -1.0])
        target = np.array([0.6, 0.4])
        loss = float(distill_loss(Tensor(z[None, :]), target[None, :], one_hot(np.array([0]), 2),
                                  config).data)
        student = softmax_np(z[None, :], temperature=2.0)
        expected = -(target * np.log(student[0])).sum()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_gamma_zero_hand_value(self):
        config = DistillConfig(gamma=0.0, tau=10.0)
        z = np.array([np.log(9.0), 0.0])
        y = np.array([1.0, 0.0])
        loss = float(distill_loss(Tensor(z[None, :]), np.array([[0.5, 0.5]]), y[None, :],
                                  config).data)
        assert loss == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_matching_logits_gamma_one_gives_target_entropy(self):
        config = DistillConfig(gamma=1.0, tau=10.0)
        z = np.array([2.0, -1.0, 0.5])
        target = softmax_np(z[None, :], temperature=10.0)[0]
        loss = float(distill_loss(Tensor(z[None, :]), target[None, :], one_hot(np.array([0]), 3),
                                  config).data)
        entropy = -(target * np.log(target)).sum()
        assert loss == pytest.approx(entropy, rel=1e-9)

    def test_half_gamma_is_mean_of_terms(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        target = softmax_np(rng.normal(size=(4, 3)))
        y = one_hot(rng.integers(0, 3, 4), 3)
        mid = float(distill_loss(Tensor(z), target, y, DistillConfig(gamma=0.5)).data)
        lo = float(distill_loss(Tensor(z), target, y, DistillConfig(gamma=0.0)).data)
        hi = float(distill_loss(Tensor(z), target, y, DistillConfig(gamma=1.0)).data)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_distillation_term_shift_invariant(self):
        rng = np.random.default_rng(2)
        z_teacher = rng.normal(size=(1, 4))
        config = DistillConfig(gamma=1.0, tau=10.0)
        z_s = rng.normal(size=(1, 4))
        y = one_hot(np.array([0]), 4)
        t1 = distill_target(TeacherOutputs(mode="soft", hard_labels=np.argmax(z_teacher, 1),
                                           teacher_kind="fcn", num_classes=4,
                                           soft_probs=softmax_np(z_teacher)), config.tau)
        t2 = distill_target(TeacherOutputs(mode="soft", hard_labels=np.argmax(z_teacher, 1),
                                           teacher_kind="fcn", num_classes=4,
                                           soft_probs=softmax_np(z_teacher + 5.0)), config.tau)
        l1 = float(distill_loss(Tensor(z_s), t1, y, config).data)
        l2 = float(distill_loss(Tensor(z_s), t2, y, config).data)
        assert l1 == pytest.approx(l2, rel=1e-9)


class TestTrainStudent:
    def _student(self, seed=5):
        return build_lenet5_1d(ArchitectureConfig(input_length=32, num_classes=2,
                                                  architecture="lenet5", seed=seed))

    @pytest.mark.parametrize("mode,gamma", [("soft", 0.5), ("hard", 1.0)])
    def test_fidelity_reaches_90_percent(self, bump_teacher, mode, gamma):
        teacher, d_eval = bump_teacher
        outputs = teacher_outputs(teacher, d_eval.values, mode=mode)
        student = self._student()
        config = DistillConfig(gamma=gamma, epochs=60, seed=5)
        train_student(student, d_eval.values, outputs, config)
        assert student_fidelity(student, d_eval.values, outputs.hard_labels) >= 0.9

    def test_black_box_ignores_ground_truth_labels(self, bump_teacher):
        teacher, d_eval = bump_teacher
        outputs = teacher_outputs(teacher, d_eval.values, mode="hard")
        config = DistillConfig(gamma=1.0, epochs=5, seed=6)
        hashes = []
        for _ in range(2):
            student = self._student(seed=6)
            train_student(student, d_eval.values, outputs, config)
            hashes.append(student.state_hash())
        # same values, no labels anywhere in the call: bitwise identical runs
        assert hashes[0] == hashes[1]

    def test_same_seed_identical_parameters(self, bump_teacher):
        teacher, d_eval = bump_teacher
        outputs = teacher_outputs(teacher, d_eval.values, mode="soft")
        config = DistillConfig(gamma=0.5, epochs=8, seed=7)
        hashes = []
        for _ in range(2):
            student = self._student(seed=7)
            train_student(student, d_eval.values, outputs, config)
            hashes.append(student.state_hash())
        assert hashes[0] == hashes[1]

    def test_best_fidelity_log_is_monotone(self, bump_teacher):
        teacher, d_eval = bump_teacher
        outputs = teacher_outputs(teacher, d_eval.values, mode="soft")
        student = self._student(seed=8)
        train_student(student, d_eval.values, outputs, DistillConfig(gamma=0.5, epochs=15, seed=8))
        best = [entry["best_fidelity"] for entry in student.training_log]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        # restored parameters achieve the best recorded fidelity
        assert student_fidelity(student, d_eval.values, outputs.hard_labels) == best[-1]

    def test_non_lenet_student_rejected(self, bump_teacher):
        teacher, d_eval = bump_teacher
        outputs = teacher_outputs(teacher, d_eval.values, mode="hard")
        fcn = build_fcn(ArchitectureConfig(input_length=32, num_classes=2, architecture="fcn"))
        with pytest.raises(ValueError, match="lenet5"):
            train_student(fcn, d_eval.values, outputs, DistillConfig(gamma=1.0, epochs=1))


class TestDTWStudentPath:
    def test_dtw_teacher_distills(self):
        train = make_bump_dataset(n_per_class=12, length=20, seed=20, name="ref")
        d_eval = make_bump_dataset(n_per_class=16, length=20, seed=21, name="eval")
        teacher = DTW1NNTeacher.from_dataset(train)
        outputs = teacher_outputs(teacher, d_eval.values, mode="soft")
        assert np.abs(outputs.soft_probs.sum(axis=1) - 1.0).max() < 1e-9
        student = build_lenet5_1d(ArchitectureConfig(input_length=20, num_classes=2,
                                                     architecture="lenet5", seed=9))
        train_student(student, d_eval.values, outputs, DistillConfig(gamma=0.5, epochs=40, seed=9))
        assert student_fidelity(student, d_eval.values, outputs.hard_labels) >= 0.9
