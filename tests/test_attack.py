import numpy as np
import pytest

from tsadv.attack import (
    BETA_GRID,
    AttackConfig,
    AttackRun,
    beta_grid_search,
    clean_labels,
    gatn_loss,
    generate,
    make_attack_run,
    rerank,
    select_surrogate,
    surrogate_signal,
    train_gatn,
)
from tsadv.autodiff import Tensor
from tsadv.distill import DistillConfig, teacher_outputs, train_student
from tsadv.models import (ArchitectureConfig, TrainConfig, build_fcn, build_gatn, build_lenet5_1d,
                          train_classifier)
from tsadv.nn import predict
from tsadv.synthetic import make_bump_dataset
from tsadv.teachers import DTW1NNTeacher, FCNTeacher


def attack_config(**kwargs):
    defaults = dict(box_mode="white", teacher_kind="fcn", alpha=1.5, beta=1e-2,
                    target_class=1, seed=0, epochs=5, batch_size=64)
    defaults.update(kwargs)
    return AttackConfig(**defaults)


def signal_of(run, x):
    """``surrogate_signal`` of ``x`` for ``run``, in the generator's dtype."""
    return surrogate_signal(run.surrogate, x, run.config.target_class,
                            run.gatn.parameters()[0].dtype)


@pytest.fixture(scope="module")
def trained_teacher():
    train = make_bump_dataset(n_per_class=24, length=32, seed=30, name="bumps-train")
    net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2, architecture="fcn", seed=3))
    train_classifier(net, train, TrainConfig(epochs=100, seed=3, early_stop_acc=1.0))
    return net


@pytest.fixture(scope="module")
def eval_split():
    return make_bump_dataset(n_per_class=32, length=32, seed=31, name="bumps-eval")


class TestRerank:
    def test_two_class_fixed_case(self):
        out = rerank(np.array([0.7, 0.3]), target_class=1, alpha=1.5)
        assert out == pytest.approx([0.4, 0.6], abs=1e-12)

    def test_three_class_fixed_case(self):
        out = rerank(np.array([0.5, 0.25, 0.25]), target_class=0, alpha=2.0)
        assert out == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-12)

    def test_argmax_guarantee_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            y = rng.dirichlet(np.ones(c))
            t = int(rng.integers(0, c))
            alpha = float(rng.uniform(1.0, 3.0))
            if alpha == 1.0:
                alpha = 1.0001
            out = rerank(y, t, alpha)
            assert np.argmax(out) == t
            assert abs(out.sum() - 1.0) < 1e-9
            assert (out >= 0).all()

    def test_batch_rows(self):
        y = np.array([[0.7, 0.3], [0.2, 0.8]])
        out = rerank(y, 1, 1.5)
        assert out.shape == (2, 2)
        assert np.argmax(out, axis=1).tolist() == [1, 1]

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            rerank(np.array([0.5, 0.5]), 0, 1.0)


class TestGATNLoss:
    def test_zero_when_perfect(self):
        config = attack_config(beta=0.1)
        x = np.array([[0.3, -0.2]])
        y_clean = np.array([[0.7, 0.3]])
        target = rerank(y_clean, config.target_class, config.alpha)
        loss = gatn_loss(x, Tensor(x), y_clean, Tensor(target), config)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        config = attack_config(beta=0.1)
        x = np.array([[0.0, 0.0]])
        x_hat = np.array([[1.0, 1.0]])
        y_clean = np.array([[0.7, 0.3]])
        y_adv = np.array([[0.5, 0.5]])
        loss = float(gatn_loss(x, Tensor(x_hat), y_clean, Tensor(y_adv), config).data)
        assert loss == pytest.approx(0.11, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=(2, 6))
            x_hat = rng.normal(size=(2, 6))
            y = rng.dirichlet(np.ones(3), size=2)
            y_adv = rng.dirichlet(np.ones(3), size=2)
            cfg3 = attack_config(beta=1e-3, target_class=2)
            assert float(gatn_loss(x, Tensor(x_hat), y, Tensor(y_adv), cfg3).data) >= 0.0

    def test_zero_beta_kills_reconstruction_term(self):
        # AttackConfig forbids beta=0, but the loss itself must satisfy the
        # limit: with y_adv equal to the reranked target, only beta*L_x remains
        from types import SimpleNamespace

        weights = SimpleNamespace(beta=0.0, target_class=1, alpha=1.5)
        x = np.array([[0.0, 0.0]])
        x_hat = np.array([[5.0, -5.0]])
        y_clean = np.array([[0.7, 0.3]])
        y_adv = rerank(y_clean, 1, 1.5)
        assert float(gatn_loss(x, Tensor(x_hat), y_clean, Tensor(y_adv), weights).data) == 0.0

    def test_config_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta"):
            attack_config(beta=0.0)

    def test_loss_gradient_wrt_generator_params(self):
        """Full attack loss through a frozen surrogate vs central differences."""
        import tsadv.autodiff as ad
        from tsadv.autodiff import Tensor
        from tsadv.models import build_gatn

        rng = np.random.default_rng(77)
        surrogate = build_lenet5_1d(ArchitectureConfig(
            input_length=16, num_classes=2, architecture="lenet5", seed=1, dtype=np.float64))
        surrogate.set_requires_grad(False)
        gatn = build_gatn(ArchitectureConfig(
            input_length=16, num_classes=2, architecture="gatn",
            gatn_hidden_units=(6,), seed=2, dtype=np.float64))
        config = attack_config(beta=0.1)
        x = rng.normal(size=(2, 16))
        x_tilde = rng.normal(size=(2, 16))
        y_clean = rng.dirichlet(np.ones(2), size=2)
        joined = np.concatenate([x, x_tilde], axis=1)

        def loss_value():
            x_hat = gatn.forward(Tensor(joined), training=True)
            y_adv = ad.softmax(surrogate.forward(
                ad.reshape(x_hat, (2, 1, 16)), training=False), axis=1)
            return gatn_loss(x, x_hat, y_clean, y_adv, config)

        loss_value().backward()
        eps = 1e-5
        for p in gatn.parameters():
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in range(0, flat.shape[0], max(1, flat.shape[0] // 5)):
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(loss_value().data)
                flat[i] = orig - eps
                lo = float(loss_value().data)
                flat[i] = orig
                numeric = (hi - lo) / (2 * eps)
                assert abs(gflat[i] - numeric) / max(1.0, abs(numeric)) < 1e-4


class TestSurrogateRouting:
    def test_all_four_combinations(self):
        teacher_net = build_fcn(ArchitectureConfig(input_length=16, num_classes=2,
                                                   architecture="fcn"))
        student = build_lenet5_1d(ArchitectureConfig(input_length=16, num_classes=2,
                                                     architecture="lenet5"))
        teacher = FCNTeacher(teacher_net)
        for box in ("white", "black"):
            for kind in ("fcn", "dtw1nn"):
                surrogate = select_surrogate(attack_config(box_mode=box, teacher_kind=kind),
                                             teacher, student)
                if box == "white" and kind == "fcn":
                    assert surrogate is teacher_net
                else:
                    assert surrogate is student

    def test_missing_student_rejected(self):
        teacher_net = build_fcn(ArchitectureConfig(input_length=16, num_classes=2,
                                                   architecture="fcn"))
        with pytest.raises(ValueError, match="student"):
            select_surrogate(attack_config(box_mode="black"), FCNTeacher(teacher_net), None)

    def test_missing_teacher_network_rejected(self):
        student = build_lenet5_1d(ArchitectureConfig(input_length=16, num_classes=2,
                                                     architecture="lenet5"))
        dtw_teacher = DTW1NNTeacher(np.zeros((2, 16)), np.array([0, 1]))
        for teacher in (None, dtw_teacher):
            with pytest.raises(ValueError, match="teacher network"):
                select_surrogate(attack_config(), teacher, student)

    def test_run_freezes_its_surrogate(self):
        """Also a run built from a saved generator, as evaluate builds one."""
        surrogate = build_fcn(ArchitectureConfig(input_length=16, num_classes=2,
                                                 architecture="fcn"))
        gatn = build_gatn(ArchitectureConfig(input_length=16, num_classes=2,
                                             architecture="gatn"))
        assert all(p.requires_grad for p in surrogate.parameters())
        AttackRun(attack_config(), surrogate, gatn)
        assert not any(p.requires_grad for p in surrogate.parameters())
        assert all(p.requires_grad for p in gatn.parameters())

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            attack_config(alpha=1.0)

    def test_beta_grid_values(self):
        assert BETA_GRID == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


class TestGenerate:
    def test_deterministic_and_shape(self, trained_teacher, eval_split):
        run = make_attack_run(attack_config(), 32, trained_teacher)
        x = eval_split.values[:5]
        a1 = generate(run, x, signal_of(run, x))
        a2 = generate(run, x, signal_of(run, x))
        assert a1.shape == (5, 32)
        assert np.array_equal(a1, a2)
        x_tilde, y_clean, _ = surrogate_signal(run.surrogate, x, 1)
        assert x_tilde.shape == (5, 32) and y_clean.shape == (5, 2)
        assert np.abs(y_clean.sum(axis=1) - 1).max() < 1e-6

    def test_length_mismatch_rejected(self, trained_teacher):
        run = make_attack_run(attack_config(), 32, trained_teacher)
        x = np.zeros((2, 16))
        with pytest.raises(ValueError):
            generate(run, x, signal_of(run, x))


class TestTrainGATN:
    def test_surrogate_frozen_bitwise(self, trained_teacher, eval_split):
        run = make_attack_run(attack_config(epochs=3), 32, trained_teacher)
        before = run.surrogate.state_hash()
        train_gatn(run, eval_split.values, signal_of(run, eval_split.values))
        assert run.surrogate.state_hash() == before

    def test_loss_decreases_on_toy_set(self, trained_teacher, eval_split):
        run = make_attack_run(attack_config(epochs=30, beta=1e-3), 32, trained_teacher)
        train_gatn(run, eval_split.values, signal_of(run, eval_split.values))
        log = run.gatn.training_log
        assert log[-1]["loss"] <= log[0]["loss"]

    def test_training_is_deterministic(self, trained_teacher, eval_split):
        hashes = []
        for _ in range(2):
            run = make_attack_run(attack_config(epochs=3), 32, trained_teacher)
            train_gatn(run, eval_split.values, signal_of(run, eval_split.values))
            hashes.append(run.gatn.state_hash())
        assert hashes[0] == hashes[1]

    def test_beta_controls_perturbation_size(self, trained_teacher, eval_split):
        """Median reconstruction error across seeds grows as beta shrinks."""
        mse = {1e-1: [], 1e-5: []}
        x = eval_split.values
        for seed in range(5):
            for beta in (1e-1, 1e-5):
                run = make_attack_run(attack_config(epochs=25, beta=beta, seed=seed),
                                      32, trained_teacher)
                signal = signal_of(run, x)
                train_gatn(run, x, signal)
                x_hat = generate(run, x, signal)
                mse[beta].append(float(((x_hat - x) ** 2).mean()))
        assert np.median(mse[1e-5]) >= np.median(mse[1e-1])


class TestBetaGridSearch:
    def test_grid_produces_five_runs_and_reports(self, trained_teacher, eval_split):
        teacher = FCNTeacher(trained_teacher)
        base = attack_config(epochs=8)
        runs, reports, best, outputs = beta_grid_search(base, eval_split, teacher,
                                                        trained_teacher)
        assert len(runs) == 5 and len(reports) == 5
        n, t = eval_split.values.shape
        assert outputs["clean_labels"].shape == (n,)
        assert outputs["x_hat"].shape == (5, n, t)
        assert outputs["x_hat"].dtype == runs[0].gatn.parameters()[0].dtype
        assert outputs["adv_labels"].shape == (5, n)
        assert {r.config.beta for r in runs} == set(BETA_GRID)
        for report, beta in zip(reports, BETA_GRID):
            assert report.beta == beta
            assert report.split == "d_eval"
        counts = [r.num_adversaries for r in reports]
        assert counts[best] == max(counts)

    def test_surrogate_signal_computed_once_per_grid(self, trained_teacher, eval_split,
                                                     monkeypatch):
        import tsadv.attack as attack_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return surrogate_signal(*args, **kwargs)

        monkeypatch.setattr(attack_module, "surrogate_signal", counting)
        runs, _, _, _ = beta_grid_search(attack_config(epochs=1), eval_split,
                                         FCNTeacher(trained_teacher), trained_teacher)
        assert len(runs) == len(BETA_GRID)
        assert calls == [eval_split.values.shape]

    def test_tie_break_prefers_smaller_mse(self, eval_split, monkeypatch):
        """beta_grid_search's own key: most adversaries, then smaller MSE, then smaller beta."""
        from types import SimpleNamespace

        import tsadv.attack as attack_module
        import tsadv.evaluate as evaluate_module
        from tsadv.reports import AttackReport

        # beta -> (count, MSE): the 1e-5 run has the smallest MSE but fewer
        # adversaries; among the rest, 1e-3 has the smallest MSE, 1e-1 the
        # largest, and 1e-4 is the smallest beta
        outcome = {1e-1: (3, 0.5), 1e-2: (3, 0.4), 1e-3: (3, 0.1), 1e-4: (3, 0.3),
                   1e-5: (2, 0.01)}

        def fake_count(x, x_hat, y_true, pred_clean, pred_adv, *, beta, **kwargs):
            count, mse = outcome[beta]
            return AttackReport(dataset="d", box_mode="white", teacher_kind="fcn", beta=beta,
                                num_adversaries=count, mse_adversaries=mse, mse_all=mse,
                                split="d_eval", criterion="labeled", n_evaluated=10)

        monkeypatch.setattr(attack_module, "train_gatn", lambda run, x, signal=None: run)
        monkeypatch.setattr(attack_module, "generate", lambda run, x, signal=None: x)
        monkeypatch.setattr(evaluate_module, "count_adversaries_labeled", fake_count)
        teacher = SimpleNamespace(predict_labels=lambda x: np.zeros(len(x), dtype=np.int64))
        teacher_net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2,
                                                   architecture="fcn"))
        _, reports, best, _ = beta_grid_search(attack_config(epochs=1), eval_split, teacher,
                                               teacher_net)
        assert [(r.num_adversaries, r.mse_adversaries) for r in reports] == [
            outcome[b] for b in BETA_GRID]
        assert BETA_GRID[best] == 1e-3


class TestCleanLabels:
    """White-box FCN clean labels come off the surrogate pass, with the teacher's bits."""

    def test_read_off_the_teachers_own_pass(self, trained_teacher, eval_split):
        x = eval_split.values
        signal = surrogate_signal(trained_teacher, x, 1)
        teacher = FCNTeacher(trained_teacher)
        labels = clean_labels(teacher, trained_teacher, x, signal)
        assert teacher.calls == {"predict_labels": 1, "predict_proba": 0}
        expected = FCNTeacher(trained_teacher).predict_labels(x)
        assert labels.dtype == expected.dtype and np.array_equal(labels, expected)
        logits, _ = predict(trained_teacher, x[:, None, :].astype(np.float32))
        assert np.array_equal(signal[2], logits)

    def test_teacher_not_backed_by_the_surrogate_is_queried(self, trained_teacher,
                                                            eval_split):
        from types import SimpleNamespace

        x = eval_split.values
        signal = surrogate_signal(trained_teacher, x, 1)
        float64_signal = surrogate_signal(trained_teacher, x, 1, np.float64)
        other_net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2,
                                                 architecture="fcn", seed=3))
        namespace = SimpleNamespace(model=trained_teacher,
                                    predict_labels=FCNTeacher(trained_teacher).predict_labels)
        # not an FCNTeacher; an FCN teacher on another network; a pass fed another dtype
        for teacher, sig in ((namespace, signal), (FCNTeacher(other_net), signal),
                             (FCNTeacher(trained_teacher), float64_signal)):
            queried = []
            predict_labels = teacher.predict_labels
            teacher.predict_labels = lambda v: queried.append(v) or predict_labels(v)
            labels = clean_labels(teacher, trained_teacher, x, sig)
            assert len(queried) == 1 and queried[0] is x
            assert np.array_equal(labels, FCNTeacher(teacher.model).predict_labels(x))

    def test_grid_queries_a_teacher_not_backed_by_the_surrogate(self, trained_teacher,
                                                                eval_split):
        from types import SimpleNamespace

        calls = []

        def predict_labels(x):
            calls.append(len(x))
            return FCNTeacher(trained_teacher).predict_labels(x)

        teacher = SimpleNamespace(predict_labels=predict_labels)
        _, _, _, outputs = beta_grid_search(attack_config(epochs=1), eval_split, teacher,
                                            trained_teacher, betas=(1e-2,))
        assert calls == [len(eval_split), len(eval_split)]  # clean, then x_hat
        assert np.array_equal(outputs["clean_labels"],
                              FCNTeacher(trained_teacher).predict_labels(eval_split.values))


class TestBlackBoxHygiene:
    def test_grid_queries_clean_labels_once(self, trained_teacher, eval_split):
        teacher = FCNTeacher(trained_teacher)
        student = build_lenet5_1d(ArchitectureConfig(input_length=32, num_classes=2,
                                                     architecture="lenet5", seed=13))
        beta_grid_search(attack_config(box_mode="black", epochs=1), eval_split, teacher,
                         student)
        assert teacher.calls == {"predict_labels": 1 + len(BETA_GRID), "predict_proba": 0}

    def test_black_box_pipeline_reads_no_probabilities_or_labels(self, trained_teacher):
        """Instrumented run: hard labels only, and ground truth never matters.

        The same black-box pipeline runs once on the true split and once on a
        copy whose ground-truth labels are all flipped; if any training code
        path consumed labels or teacher probabilities the artifacts would
        diverge or the probe counter would move.
        """
        from tsadv.data import Dataset, TimeSeries

        d_eval = make_bump_dataset(n_per_class=16, length=32, seed=32, name="bb-eval")
        flipped = Dataset(
            name="bb-eval-flipped",
            series=tuple(TimeSeries(values=s.values, label=1 - s.label, source_id=s.source_id)
                         for s in d_eval.series),
            label_map=d_eval.label_map)
        teacher = FCNTeacher(trained_teacher)
        outputs = teacher_outputs(teacher, d_eval.values, mode="hard")
        assert teacher.calls["predict_proba"] == 0
        results = []
        for split in (d_eval, flipped):
            student = build_lenet5_1d(ArchitectureConfig(input_length=32, num_classes=2,
                                                         architecture="lenet5", seed=12))
            train_student(student, split.values, outputs,
                          DistillConfig(gamma=1.0, epochs=6, seed=12))
            run = make_attack_run(attack_config(box_mode="black", epochs=3), 32, student)
            train_gatn(run, split.values, signal_of(run, split.values))
            results.append((student.state_hash(), run.gatn.state_hash()))
        assert results[0] == results[1]
        assert teacher.calls["predict_proba"] == 0
