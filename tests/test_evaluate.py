import csv
import itertools
import json
import re

import numpy as np
import pytest

from tsadv.evaluate import (
    count_adversaries_labeled,
    count_adversaries_unlabeled,
    generalization_eval,
    pairwise_wilcoxon,
    wilcoxon_signed_rank,
)
from tsadv.reports import AttackReport, load_reports_json, save_reports_csv, save_reports_json
from tsadv.util import rankdata_average


def load_reports_csv(path):
    """Read back what save_reports_csv wrote, one AttackReport per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [AttackReport(
            dataset=row["dataset"], box_mode=row["box_mode"], teacher_kind=row["teacher_kind"],
            beta=float(row["beta"]), num_adversaries=int(row["num_adversaries"]),
            mse_adversaries=None if row["mse_adversaries"] == "" else float(row["mse_adversaries"]),
            mse_all=float(row["mse_all"]), split=row["split"], criterion=row["criterion"],
            n_evaluated=int(row["n_evaluated"])) for row in csv.DictReader(fh)]


def stub_labels(x):
    """A stub teacher's labels: the sign of each row's first element."""
    return (np.asarray(x)[:, 0] > 0).astype(np.int64)


class TestLabeledCounting:
    def test_three_cases_of_the_two_fold_rule(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        x_hat = np.array([
            [-1.0, 0.0],  # flipped but clean prediction (1) != y_true (0): not counted
            [1.0, 0.5],   # clean correct, prediction unchanged: not counted
            [-1.0, 0.0],  # clean correct, flipped: counted
        ])
        y_true = np.array([0, 1, 1])
        report = count_adversaries_labeled(x, x_hat, y_true, stub_labels(x), stub_labels(x_hat))
        assert report.num_adversaries == 1
        assert report.n_evaluated == 3

    def test_mse_fields(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        x_hat = np.array([[-1.0, 0.0], [1.0, 0.0]])
        report = count_adversaries_labeled(x, x_hat, np.array([1, 1]), stub_labels(x),
                                           stub_labels(x_hat))
        assert report.num_adversaries == 1
        assert report.mse_adversaries == pytest.approx(2.0)  # (2^2 + 0)/2 on the counted row
        assert report.mse_all == pytest.approx(1.0)

    def test_zero_count_mse_is_none(self):
        x = np.array([[1.0, 0.0]])
        report = count_adversaries_labeled(x, x, np.array([1]), stub_labels(x), stub_labels(x))
        assert report.num_adversaries == 0
        assert report.mse_adversaries is None
        assert report.mse_all == 0.0

    def test_empty_rejected(self):
        empty = np.zeros((0, 3))
        with pytest.raises(ValueError, match="no samples"):
            count_adversaries_labeled(empty, empty, np.zeros(0, dtype=int), stub_labels(empty),
                                      stub_labels(empty))


class TestUnlabeledCounting:
    def test_no_flips_counts_zero(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        report = count_adversaries_unlabeled(x, x, stub_labels(x), stub_labels(x))
        assert report.num_adversaries == 0

    def test_single_flip_counts_one(self):
        x = np.array([[1.0, 0.0]])
        x_hat = np.array([[-1.0, 0.0]])
        report = count_adversaries_unlabeled(x, x_hat, stub_labels(x), stub_labels(x_hat))
        assert report.num_adversaries == 1
        assert report.criterion == "unlabeled"

    def test_unlabeled_superset_of_labeled(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            x = rng.normal(size=(n, 4))
            x_hat = x + rng.normal(0, 1.0, size=(n, 4))
            y = rng.integers(0, 2, n)
            labeled = count_adversaries_labeled(x, x_hat, y, stub_labels(x), stub_labels(x_hat))
            unlabeled = count_adversaries_unlabeled(x, x_hat, stub_labels(x), stub_labels(x_hat))
            assert labeled.num_adversaries <= unlabeled.num_adversaries


class TestReportValidationAndIO:
    def report(self, **kwargs):
        defaults = dict(dataset="toy", box_mode="white", teacher_kind="fcn", beta=1e-3,
                        num_adversaries=2, mse_adversaries=0.125, mse_all=0.5,
                        split="d_eval", criterion="labeled", n_evaluated=10)
        defaults.update(kwargs)
        return AttackReport(**defaults)

    def test_count_cannot_exceed_evaluated(self):
        with pytest.raises(ValueError, match="more adversaries"):
            self.report(num_adversaries=11)

    def test_zero_count_requires_none_mse(self):
        with pytest.raises(ValueError, match="undefined"):
            self.report(num_adversaries=0, mse_adversaries=0.1)

    def test_csv_roundtrip(self, tmp_path):
        reports = [self.report(), self.report(num_adversaries=0, mse_adversaries=None,
                                               beta=1e-5, split="d_test")]
        path = tmp_path / "r.csv"
        save_reports_csv(reports, path)
        assert load_reports_csv(path) == reports

    def test_json_roundtrip(self, tmp_path):
        reports = [self.report(beta=0.1), self.report(criterion="unlabeled")]
        path = tmp_path / "r.json"
        save_reports_json(reports, path, provenance={"seed": 1})
        back, prov = load_reports_json(path)
        assert back == reports
        assert prov == {"seed": 1}

    @pytest.mark.parametrize("damage", ["extra field", "no reports key", "not JSON",
                                        "not an object"])
    def test_damaged_json_is_a_value_error_naming_it(self, damage, tmp_path):
        path = tmp_path / "r.json"
        save_reports_json([self.report()], path)
        blob = json.loads(path.read_text())
        if damage == "extra field":
            blob["reports"][0]["seed"] = 1
        elif damage == "no reports key":
            del blob["reports"]
        elif damage == "not an object":
            blob = blob["reports"]
        path.write_text("{'reports': []}" if damage == "not JSON" else json.dumps(blob))
        with pytest.raises(ValueError, match=re.escape(f"{path} is not a reports file")):
            load_reports_json(path)

    def test_json_write_failing_midway_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "r.json"
        save_reports_json([self.report()], path, provenance={"seed": 1})
        before = path.read_bytes()
        # json.dump streams: the provenance block is written before object() fails it
        with pytest.raises(TypeError):
            save_reports_json([self.report(beta=0.1)], path, provenance={"seed": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def wilcoxon_oracle(diff):
    """Exact two-sided p by brute-force enumeration of all sign assignments.

    Independent of the production DP: literally walks all 2^n assignments of
    signs to the ranked absolute differences and accumulates both tails.
    """
    ranks = rankdata_average(np.abs(diff))
    w_obs = ranks[np.asarray(diff) > 0].sum()
    n = len(diff)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        le += w <= w_obs + 1e-12
        ge += w >= w_obs - 1e-12
    total = 2**n
    return min(1.0, 2.0 * min(le / total, ge / total))


class TestWilcoxon:
    def test_all_positive_n5(self):
        stat, p = wilcoxon_signed_rank(np.array([1.0, 2, 3, 4, 5]), np.zeros(5))
        assert p == pytest.approx(0.0625, abs=1e-15)
        assert stat == 0.0  # min(W+, W-) with W- = 0

    def test_degenerate_all_zero(self):
        a = np.arange(5.0)
        with pytest.warns(UserWarning, match="degenerate"):
            result = wilcoxon_signed_rank(a, a)
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        assert result.degenerate

    def test_too_few_nonzero_differences(self):
        a = np.array([1.0, 1, 1, 1, 2, 3])
        b = np.array([1.0, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match=">= 5"):
            wilcoxon_signed_rank(a, b)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(5, 11))
            diff = rng.normal(size=n)
            diff = diff[diff != 0]
            if len(np.unique(np.abs(diff))) != len(diff) or len(diff) < 5:
                continue  # the oracle batch is tie-free by construction
            result = wilcoxon_signed_rank(diff, np.zeros_like(diff))
            assert result.method == "exact"
            assert result.p_value == pytest.approx(wilcoxon_oracle(diff), abs=1e-12)

    def test_exact_handles_ties(self):
        diff = np.array([1.0, 1.0, -2.0, 3.0, 3.0, 4.0])
        result = wilcoxon_signed_rank(diff, np.zeros_like(diff))
        assert result.p_value == pytest.approx(wilcoxon_oracle(diff), abs=1e-12)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)
            r1 = wilcoxon_signed_rank(a, b)
            r2 = wilcoxon_signed_rank(b, a)
            assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)
            assert 0.0 < r1.p_value <= 1.0

    def test_normal_approximation_route(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=40)
        b = a + rng.normal(0.8, 1.0, size=40)
        result = wilcoxon_signed_rank(a, b)
        assert result.method == "normal"
        assert 0.0 < result.p_value < 0.05

    def test_normal_close_to_exact_at_boundary(self):
        # n = 25 exact vs the same data pushed through the normal path
        rng = np.random.default_rng(10)
        diff = rng.normal(0.4, 1.0, size=25)
        exact = wilcoxon_signed_rank(diff, np.zeros(25))
        from tsadv.evaluate import _normal_tails

        ranks = rankdata_average(np.abs(diff))
        p_le, p_ge = _normal_tails(diff, ranks, float(ranks[diff > 0].sum()))
        approx = min(1.0, 2.0 * min(p_le, p_ge))
        assert exact.method == "exact"
        assert approx == pytest.approx(exact.p_value, abs=0.02)

    def test_result_unpacks_as_pair(self):
        stat, p = wilcoxon_signed_rank(np.array([1.0, 2, 3, 4, 5]), np.zeros(5))
        assert isinstance(stat, float) and isinstance(p, float)


class TestPairwiseWilcoxon:
    def test_upper_triangle_count(self):
        rng = np.random.default_rng(11)
        vectors = {f"v{i}": rng.normal(size=8) for i in range(4)}
        rows = pairwise_wilcoxon(vectors)
        assert len(rows) == 6
        pairs = {(r["a"], r["b"]) for r in rows}
        assert all(a < b for a, b in pairs)

    def test_skips_degenerate_pairs_gracefully(self):
        vectors = {"a": np.array([1.0, 2, 3]), "b": np.array([1.0, 2, 4])}
        rows = pairwise_wilcoxon(vectors)
        assert rows[0]["p_value"] is None
        assert "skipped" in rows[0]["method"]

    def test_nan_values_are_dropped_not_ranked(self):
        nan = float("nan")
        y = [0.2, 0.1, 0.3, 0.1, 0.9, 0.2, 0.1]
        [row] = pairwise_wilcoxon({"x": [nan] * 7, "y": y})
        assert row["n_dropped"] == 7 and row["p_value"] is None and row["n_effective"] is None
        assert row["method"] == "skipped: no paired values"
        x = [nan, 1.0, 2.0, 3.0, 4.0, nan, 6.0, 7.0, 8.0]
        z = [0.5, 0.25, 0.5, nan, 0.75, 0.5, 1.0, 0.5, 0.25]
        [row] = pairwise_wilcoxon({"x": x, "z": z})
        kept = [1, 2, 4, 6, 7, 8]
        expected = wilcoxon_signed_rank(np.array(x)[kept], np.array(z)[kept])
        assert row["n_dropped"] == 3 and row["n_effective"] == 6
        assert (row["statistic"], row["p_value"], row["method"]) == (
            expected.statistic, expected.p_value, "exact")

    def test_defined_pairs_record_no_drop(self):
        rows = pairwise_wilcoxon({"a": np.arange(1.0, 7.0), "b": np.zeros(6)})
        assert rows[0]["n_dropped"] == 0 and rows[0]["method"] == "exact"

    def test_signed_rank_refuses_nan_and_empty_input(self):
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(np.array([1.0, 2, np.nan, 4, 5, 6]), np.zeros(6))
        with pytest.raises(ValueError, match="no paired values"):
            wilcoxon_signed_rank(np.zeros(0), np.zeros(0))


class TestGeneralizationEval:
    def test_reports_d_test_without_updates(self):
        from tsadv.attack import clean_labels, make_attack_run, surrogate_signal
        from tsadv.models import ArchitectureConfig, TrainConfig, build_fcn, train_classifier
        from tsadv.synthetic import make_bump_dataset
        from tsadv.teachers import FCNTeacher
        from tsadv.attack import AttackConfig

        train = make_bump_dataset(n_per_class=16, length=32, seed=40, name="gen-train")
        d_test = make_bump_dataset(n_per_class=16, length=32, seed=41, name="gen-test")
        net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2,
                                           architecture="fcn", seed=4))
        train_classifier(net, train, TrainConfig(epochs=60, seed=4, early_stop_acc=1.0))
        config = AttackConfig(box_mode="white", teacher_kind="fcn", epochs=2, seed=0)
        run = make_attack_run(config, 32, net)
        teacher = FCNTeacher(net)
        signal = surrogate_signal(run.surrogate, d_test.values, config.target_class)
        pred_clean = clean_labels(teacher, run.surrogate, d_test.values, signal)
        before = (run.gatn.state_hash(), run.surrogate.state_hash())
        report = generalization_eval(run, teacher, d_test, "labeled", signal, pred_clean)
        assert report.split == "d_test"
        assert report.criterion == "labeled"
        assert (run.gatn.state_hash(), run.surrogate.state_hash()) == before

    def test_shared_signal_and_clean_labels_give_the_same_report(self):
        from tsadv.attack import AttackConfig, clean_labels, make_attack_run, surrogate_signal
        from tsadv.models import ArchitectureConfig, build_fcn
        from tsadv.synthetic import make_bump_dataset
        from tsadv.teachers import FCNTeacher

        d_test = make_bump_dataset(n_per_class=8, length=32, seed=41, name="gen-test")
        net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2,
                                           architecture="fcn", seed=4))
        run = make_attack_run(AttackConfig(box_mode="white", teacher_kind="fcn"), 32, net)
        target = run.config.target_class
        signal = surrogate_signal(run.surrogate, d_test.values, target)
        shared_clean = clean_labels(FCNTeacher(net), run.surrogate, d_test.values, signal)
        for criterion in ("labeled", "unlabeled"):
            fresh = generalization_eval(run, FCNTeacher(net), d_test, criterion,
                                        surrogate_signal(run.surrogate, d_test.values, target),
                                        FCNTeacher(net).predict_labels(d_test.values))
            teacher = FCNTeacher(net)
            shared = generalization_eval(run, teacher, d_test, criterion, signal, shared_clean)
            assert shared == fresh and shared.criterion == criterion
            assert teacher.calls == {"predict_labels": 1, "predict_proba": 0}
        with pytest.raises(ValueError, match="criterion"):
            generalization_eval(run, FCNTeacher(net), d_test, "both", signal, shared_clean)
