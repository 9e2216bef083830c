import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from tsadv.cli import main
from tsadv.reports import load_reports_json
from tsadv.synthetic import write_power_profile_archive


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def white_fcn_run(tmp_path_factory):
    """Full white-box FCN pipeline on the synthetic set, small budgets."""
    out = str(tmp_path_factory.mktemp("wb_fcn"))
    assert run("prepare", "--out", out, "--synthetic", "--seed-split", "0") == 0
    assert run("train-teacher", "--out", out, "--teacher", "fcn", "--epochs", "80",
               "--early-stop-acc", "1.0") == 0
    assert run("attack", "--out", out, "--box", "white", "--teacher", "fcn",
               "--beta", "1e-3", "--epochs", "15") == 0
    assert run("evaluate", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def black_dtw_run(tmp_path_factory):
    """Black-box dtw1nn pipeline over the whole beta grid on the synthetic set, one epoch each."""
    out = str(tmp_path_factory.mktemp("bb_dtw"))
    assert run("prepare", "--out", out, "--synthetic") == 0
    assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
    assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0
    assert run(*BLACK_DTW_ATTACK, "--out", out) == 0
    assert run("evaluate", "--out", out) == 0
    return out


BLACK_DTW_ATTACK = ("attack", "--box", "black", "--teacher", "dtw1nn", "--beta-grid",
                    "--epochs", "1")


def copy_run(src, tmp_path):
    """A private copy of a module-scoped run directory, free to change."""
    out = str(tmp_path / "run")
    shutil.copytree(src, out)
    return out


def read_manifest(out, stage):
    with open(os.path.join(out, stage, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestPipeline:
    def test_reports_have_adversaries(self, white_fcn_run):
        reports, _ = load_reports_json(os.path.join(white_fcn_run, "reports", "reports.json"))
        by_split = {r.split: r for r in reports}
        assert set(by_split) == {"d_eval", "d_test"}
        assert by_split["d_eval"].num_adversaries >= 1
        assert by_split["d_eval"].criterion == "labeled"

    def test_manifests_record_balanced_split(self, white_fcn_run):
        manifest = json.load(open(os.path.join(white_fcn_run, "prepare", "manifest.json")))
        ce = manifest["class_counts"]["d_eval"]
        ct = manifest["class_counts"]["d_test"]
        for c in ce:
            assert abs(ce[c] - ct[c]) <= 1

    def test_rerun_is_noop(self, white_fcn_run, capsys):
        before = json.load(open(os.path.join(white_fcn_run, "attack", "manifest.json")))
        assert run("attack", "--out", white_fcn_run, "--box", "white", "--teacher", "fcn",
                   "--beta", "1e-3", "--epochs", "15") == 0
        captured = capsys.readouterr()
        assert "up to date" in captured.out
        after = json.load(open(os.path.join(white_fcn_run, "attack", "manifest.json")))
        assert before == after

    def test_evaluate_rerun_is_noop(self, white_fcn_run, capsys):
        path = os.path.join(white_fcn_run, "reports", "reports.json")
        before = open(path, "rb").read()
        capsys.readouterr()
        assert run("evaluate", "--out", white_fcn_run) == 0
        assert "up to date" in capsys.readouterr().out
        assert open(path, "rb").read() == before

    def test_evaluate_rewrites_deleted_reports(self, white_fcn_run, capsys):
        """A stage whose manifest matches but whose files are gone is not up to date."""
        path = os.path.join(white_fcn_run, "reports", "reports.json")
        before = open(path, "rb").read()
        os.remove(path)
        capsys.readouterr()
        assert run("evaluate", "--out", white_fcn_run) == 0
        assert "up to date" not in capsys.readouterr().out
        assert open(path, "rb").read() == before

    def test_changed_config_retrains(self, white_fcn_run, capsys):
        assert run("attack", "--out", white_fcn_run, "--box", "white", "--teacher", "fcn",
                   "--beta", "1e-2", "--epochs", "2") == 0
        assert "up to date" not in capsys.readouterr().out
        # restore the original stage for the other tests
        assert run("attack", "--out", white_fcn_run, "--box", "white", "--teacher", "fcn",
                   "--beta", "1e-3", "--epochs", "15") == 0

    def test_resolved_config_echoed(self, white_fcn_run):
        config = json.load(open(os.path.join(white_fcn_run, "config.json")))
        assert config["attack"]["box"] == "white"
        assert config["prepare"]["synthetic"] is True

    def test_fresh_directory_reproduces_artifacts_bit_exactly(self, tmp_path):
        hashes = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run("prepare", "--out", out, "--synthetic") == 0
            assert run("train-teacher", "--out", out, "--teacher", "fcn", "--epochs", "20",
                       "--early-stop-acc", "1.0") == 0
            assert run("attack", "--out", out, "--box", "white", "--teacher", "fcn",
                       "--beta", "1e-3", "--epochs", "3") == 0
            teacher = json.load(open(os.path.join(out, "teacher", "manifest.json")))
            attack = json.load(open(os.path.join(out, "attack", "manifest.json")))
            hashes.append((teacher["state_hash"], attack["gatn_state_hashes"]))
        assert hashes[0] == hashes[1]


def recounted_reports(out, criterion, all_betas):
    """evaluate's reports by generating and counting anew on both splits.

    This is the formula evaluate used before it read d_eval's counts from the
    attack stage: each saved generator is run on d_eval and d_test and every
    label is queried from the teacher.
    """
    from tsadv.attack import AttackConfig, AttackRun, generate, surrogate_signal
    from tsadv.data import Dataset, load_ucr, remap_labels
    from tsadv.evaluate import count_adversaries_labeled, count_adversaries_unlabeled
    from tsadv.nn import load_model
    from tsadv.teachers import DTW1NNTeacher, FCNTeacher

    name = read_manifest(out, "prepare")["config"]["dataset"]

    def split(which):
        loaded = remap_labels(load_ucr(os.path.join(out, "prepare", f"{which}.tsv")))
        return Dataset(name=name, series=loaded.series, label_map=loaded.label_map)

    attack = read_manifest(out, "attack")
    acfg = attack["config"]
    if acfg["teacher"] == "fcn":
        teacher_model = load_model(os.path.join(out, "teacher", "fcn.npz"))
        teacher = FCNTeacher(teacher_model)
    else:
        teacher_model = None
        teacher = DTW1NNTeacher.from_dataset(split("teacher_train"))
    student = (None if (acfg["box"], acfg["teacher"]) == ("white", "fcn")
               else load_model(os.path.join(out, "student", "student.npz")))
    d_eval, d_test = split("d_eval"), split("d_test")
    indices = range(len(attack["betas"])) if all_betas else [attack["best_index"]]
    reports = []
    for i in indices:
        beta = attack["betas"][i]
        config = AttackConfig(box_mode=acfg["box"], teacher_kind=acfg["teacher"],
                              alpha=acfg["alpha"], beta=beta, target_class=acfg["target_class"],
                              seed=acfg["seed_gatn"])
        attack_run = AttackRun(config, teacher_model if student is None else student,
                               load_model(os.path.join(out, "attack", attack["gatn_files"][i])))
        kwargs = dict(dataset=name, box_mode=acfg["box"], teacher_kind=acfg["teacher"], beta=beta)
        for split_name, ds in (("d_eval", d_eval), ("d_test", d_test)):
            x = ds.values
            x_hat = generate(attack_run, x, surrogate_signal(
                attack_run.surrogate, x, config.target_class,
                attack_run.gatn.parameters()[0].dtype))
            pred_clean, pred_adv = teacher.predict_labels(x), teacher.predict_labels(x_hat)
            if criterion == "labeled":
                reports.append(count_adversaries_labeled(x, x_hat, ds.labels, pred_clean,
                                                         pred_adv, split=split_name, **kwargs))
            else:
                reports.append(count_adversaries_unlabeled(x, x_hat, pred_clean, pred_adv,
                                                           split=split_name, **kwargs))
    return [asdict(r) for r in reports]


class TestEvaluateParity:
    """evaluate's d_eval counts come from what attack saved, with the same bits."""

    @pytest.mark.parametrize("all_betas", [False, True], ids=["best", "all-betas"])
    @pytest.mark.parametrize("criterion", ["labeled", "unlabeled"])
    @pytest.mark.parametrize("pipeline", ["white_fcn_run", "black_dtw_run"])
    def test_reports_match_recounting(self, pipeline, criterion, all_betas, request, tmp_path):
        out = copy_run(request.getfixturevalue(pipeline), tmp_path)
        flags = ["--criterion", criterion] + (["--all-betas"] if all_betas else [])
        assert run("evaluate", "--out", out, *flags) == 0
        reports, _ = load_reports_json(os.path.join(out, "reports", "reports.json"))
        assert [asdict(r) for r in reports] == recounted_reports(out, criterion, all_betas)
        if criterion == "labeled" and all_betas:
            grid, _ = load_reports_json(os.path.join(out, "attack", "grid_reports.json"))
            assert [r for r in reports if r.split == "d_eval"] == grid

    def test_attack_saves_what_the_teacher_saw(self, black_dtw_run):
        attack = read_manifest(black_dtw_run, "attack")
        n = read_manifest(black_dtw_run, "prepare")["counts"]["d_eval"]
        with np.load(os.path.join(black_dtw_run, "student", "teacher_outputs.npz")) as distilled, \
                np.load(os.path.join(black_dtw_run, "attack", "d_eval_outputs.npz")) as saved:
            assert np.array_equal(saved["clean_labels"], distilled["hard_labels"])
            assert saved["x_hat"].shape[:2] == (len(attack["betas"]), n)
            assert saved["x_hat"].dtype == np.float32
            assert saved["adv_labels"].shape == (len(attack["betas"]), n)


class TestEvaluateTeacherCalls:
    """evaluate records its teacher queries: d_test's clean labels once, then one per beta."""

    def test_best_beta(self, black_dtw_run):
        assert read_manifest(black_dtw_run, "reports")["teacher_calls"] == {
            "predict_labels": 2, "predict_proba": 0}

    def test_all_betas(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        assert run("evaluate", "--out", out, "--all-betas") == 0
        n_betas = len(read_manifest(out, "attack")["betas"])
        assert read_manifest(out, "reports")["teacher_calls"] == {
            "predict_labels": 1 + n_betas, "predict_proba": 0}


def fcn_teacher_labels(out, which):
    """The FCN teacher's labels of one prepared split, by a query of its own."""
    from tsadv.data import load_ucr
    from tsadv.nn import load_model
    from tsadv.teachers import FCNTeacher

    teacher = FCNTeacher(load_model(os.path.join(out, "teacher", "fcn.npz")))
    return teacher.predict_labels(load_ucr(os.path.join(out, "prepare", f"{which}.tsv")).values)


class TestWhiteFcnCleanLabels:
    """A white-box FCN run reads the teacher's clean labels off the surrogate
    pass it runs anyway: the bits of a teacher query, one FCN pass fewer."""

    def test_attack_saves_the_teachers_d_eval_labels(self, white_fcn_run):
        with np.load(os.path.join(white_fcn_run, "attack", "d_eval_outputs.npz")) as saved:
            clean = saved["clean_labels"]
        expected = fcn_teacher_labels(white_fcn_run, "d_eval")
        assert clean.dtype == expected.dtype and np.array_equal(clean, expected)

    @pytest.mark.parametrize("all_betas", [False, True], ids=["best", "all-betas"])
    @pytest.mark.parametrize("criterion", ["labeled", "unlabeled"])
    def test_evaluate_counts_from_the_teachers_d_test_labels(self, white_fcn_run, criterion,
                                                            all_betas, tmp_path, monkeypatch):
        import tsadv.evaluate as evaluate_module

        generalization_eval = evaluate_module.generalization_eval
        seen = []

        def spy(run, teacher, d_test, criterion="labeled", signal=None, pred_clean=None):
            seen.append(pred_clean)
            return generalization_eval(run, teacher, d_test, criterion, signal, pred_clean)

        monkeypatch.setattr(evaluate_module, "generalization_eval", spy)
        out = copy_run(white_fcn_run, tmp_path)
        shutil.rmtree(os.path.join(out, "reports"))
        flags = ["--criterion", criterion] + (["--all-betas"] if all_betas else [])
        assert run("evaluate", "--out", out, *flags) == 0
        expected = fcn_teacher_labels(out, "d_test")
        assert len(seen) == len(read_manifest(out, "attack")["betas"])
        for clean in seen:
            assert clean.dtype == expected.dtype and np.array_equal(clean, expected)

    def test_evaluate_runs_the_teacher_network_twice(self, white_fcn_run, tmp_path,
                                                     monkeypatch):
        from tsadv.nn import Network

        forward = Network.forward
        architectures = []

        def counting(self, x, training=False):
            architectures.append(self.architecture)
            return forward(self, x, training)

        monkeypatch.setattr(Network, "forward", counting)
        out = copy_run(white_fcn_run, tmp_path)
        shutil.rmtree(os.path.join(out, "reports"))
        assert run("evaluate", "--out", out) == 0
        # the surrogate pass over d_test, which also gives its clean labels,
        # and the labels of x_hat
        assert architectures.count("fcn") == 2
        assert read_manifest(out, "reports")["teacher_calls"] == {
            "predict_labels": 2, "predict_proba": 0}


def make_pre_d_eval_outputs_attack_stage(out):
    """Turn out/attack into an attack stage as written before d_eval_outputs.npz existed.

    Such a stage has no d_eval_outputs.npz and lists none, and its
    configuration has no clean_labels_sha256 entry.
    """
    from tsadv.config import config_hash

    os.remove(os.path.join(out, "attack", "d_eval_outputs.npz"))
    manifest = read_manifest(out, "attack")
    manifest["files"].remove("d_eval_outputs.npz")
    del manifest["config"]["clean_labels_sha256"]
    manifest["config_hash"] = config_hash(manifest["config"])
    with open(os.path.join(out, "attack", "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


class TestAttackOutputsUpToDate:
    def test_evaluate_names_attack_for_an_old_attack_stage(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        make_pre_d_eval_outputs_attack_stage(out)
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tsadv attack" in err

    def test_old_attack_stage_reruns(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        hashes = read_manifest(out, "attack")["gatn_state_hashes"]
        make_pre_d_eval_outputs_attack_stage(out)
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 0
        assert "up to date" not in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "attack", "d_eval_outputs.npz"))
        assert read_manifest(out, "attack")["gatn_state_hashes"] == hashes
        assert run("evaluate", "--out", out) == 0

    def test_deleted_d_eval_outputs_reruns_attack(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        path = os.path.join(out, "attack", "d_eval_outputs.npz")
        before = open(path, "rb").read()
        os.remove(path)
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 0
        assert "up to date" not in capsys.readouterr().out
        assert open(path, "rb").read() == before

    def test_changed_teacher_outputs_rerun_attack(self, black_dtw_run, tmp_path, capsys):
        """The black-box attack reads its clean labels from the student stage and hashes them."""
        out = copy_run(black_dtw_run, tmp_path)
        path = os.path.join(out, "student", "teacher_outputs.npz")
        with np.load(path) as saved:
            outputs = dict(saved)
        outputs["hard_labels"] = 1 - outputs["hard_labels"]
        np.savez(path, **outputs)
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 0
        assert "up to date" not in capsys.readouterr().out
        with np.load(os.path.join(out, "attack", "d_eval_outputs.npz")) as saved:
            assert np.array_equal(saved["clean_labels"], outputs["hard_labels"])

    def test_student_from_another_teacher_stage_is_refused(self, black_dtw_run, tmp_path,
                                                           capsys):
        out = copy_run(black_dtw_run, tmp_path)
        teacher_hash = read_manifest(out, "teacher")["config_hash"]
        # the 1-NN teacher stage hashes only its kind and the prepare stage
        assert run("prepare", "--out", out, "--synthetic", "--seed-split", "3") == 0
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        assert read_manifest(out, "teacher")["config_hash"] != teacher_hash
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 1
        assert "tsadv distill" in capsys.readouterr().err

    def test_dtw_teacher_ignores_the_training_flags(self, black_dtw_run, tmp_path, capsys):
        """The 1-NN teacher reads no training flag, so none of them makes its
        stage, or the student distilled from it, stale."""
        out = copy_run(black_dtw_run, tmp_path)
        capsys.readouterr()
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn",
                   "--seed-teacher", "9", "--epochs", "3") == 0
        assert "[teacher] up to date" in capsys.readouterr().out
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0
        assert "[student] up to date" in capsys.readouterr().out


class TestStaleAttackStage:
    """evaluate refuses an attack stage run against another teacher or student stage."""

    def refused(self, out, capsys):
        reports = read_manifest(out, "reports")
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rerun `tsadv attack`" in err
        assert read_manifest(out, "reports") == reports
        return err

    def test_retrained_teacher(self, white_fcn_run, tmp_path, capsys):
        out = copy_run(white_fcn_run, tmp_path)
        assert run("train-teacher", "--out", out, "--teacher", "fcn", "--epochs", "80",
                   "--early-stop-acc", "1.0", "--seed-teacher", "5") == 0
        assert "current teacher stage" in self.refused(out, capsys)

    def test_redistilled_student(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        first_student = read_manifest(out, "student")["state_hash"]
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1",
                   "--seed-student", "7") == 0
        assert read_manifest(out, "student")["state_hash"] != first_student
        assert "current student stage" in self.refused(out, capsys)

    def test_teacher_switched_to_dtw1nn(self, white_fcn_run, tmp_path, capsys):
        out = copy_run(white_fcn_run, tmp_path)
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        assert "current teacher stage" in self.refused(out, capsys)

    def test_attack_with_a_student_the_route_has_not(self, white_fcn_run, tmp_path, capsys):
        out = copy_run(white_fcn_run, tmp_path)
        manifest = read_manifest(out, "attack")
        manifest["config"]["student_hash"] = "0" * 16
        with open(os.path.join(out, "attack", "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert "current student stage" in self.refused(out, capsys)

    def test_manifest_records_the_route(self, white_fcn_run, black_dtw_run):
        assert read_manifest(white_fcn_run, "attack")["surrogate_is_teacher"] is True
        assert read_manifest(black_dtw_run, "attack")["surrogate_is_teacher"] is False


class TestMissingListedFile:
    """An upstream stage missing a file its manifest lists is refused with an error line."""

    def test_attack_refuses_student_without_teacher_outputs(self, black_dtw_run, tmp_path,
                                                             capsys):
        out = copy_run(black_dtw_run, tmp_path)
        os.remove(os.path.join(out, "student", "teacher_outputs.npz"))
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "teacher_outputs.npz" in err and "tsadv distill" in err

    def test_evaluate_refuses_student_without_its_network(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        os.remove(os.path.join(out, "student", "student.npz"))
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "student.npz" in err and "tsadv distill" in err


class TestErrors:
    def test_evaluate_without_attack_names_command(self, tmp_path, capsys):
        out = str(tmp_path / "empty")
        os.makedirs(out)
        assert run("evaluate", "--out", out) == 1
        assert "tsadv attack" in capsys.readouterr().err

    def test_distill_without_teacher(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 1
        assert "tsadv train-teacher" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        assert run("prepare", "--out", str(tmp_path / "x"), "--train-file", "/nope_TRAIN.tsv",
                   "--test-file", "/nope_TEST.tsv") == 1
        assert "/nope_TRAIN.tsv" in capsys.readouterr().err

    def test_teacher_kind_mismatch(self, white_fcn_run, capsys):
        assert run("attack", "--out", white_fcn_run, "--box", "white",
                   "--teacher", "dtw1nn") == 1
        assert "train-teacher" in capsys.readouterr().err

    def test_white_box_distill_on_fcn_teacher_is_refused(self, white_fcn_run, tmp_path, capsys):
        """A white-box fcn attack differentiates through the teacher, so no stage reads
        that student."""
        out = copy_run(white_fcn_run, tmp_path)
        capsys.readouterr()
        assert run("distill", "--out", out, "--box", "white", "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "teacher itself" in err
        assert not os.path.exists(os.path.join(out, "student"))
        assert not os.path.exists(os.path.join(out, ".student.partial"))
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0


class TestBlackBoxProvenance:
    def test_redistilled_student_retrains_generators(self, tmp_path, capsys):
        out = str(tmp_path / "bb")
        attack = ("attack", "--out", out, "--box", "black", "--teacher", "dtw1nn",
                  "--beta-grid", "--epochs", "1")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        assert run("distill", "--out", out, "--box", "black", "--epochs", "2") == 0
        assert run(*attack) == 0
        manifest = json.load(open(os.path.join(out, "attack", "manifest.json")))
        # the clean d_eval labels come from the distill stage's hard-label
        # query, so one query per beta; never probabilities
        assert manifest["teacher_calls"] == {"predict_labels": len(manifest["betas"]),
                                             "predict_proba": 0}
        capsys.readouterr()
        assert run(*attack) == 0
        assert "up to date" in capsys.readouterr().out
        student_path = os.path.join(out, "student", "manifest.json")
        first_student = json.load(open(student_path))["state_hash"]
        # a new initialization, since the best-fidelity restore can make a
        # longer run return the same parameters
        assert run("distill", "--out", out, "--box", "black", "--epochs", "2",
                   "--seed-student", "1") == 0
        assert json.load(open(student_path))["state_hash"] != first_student
        capsys.readouterr()
        assert run(*attack) == 0
        assert "up to date" not in capsys.readouterr().out


    def test_black_box_stages_reject_soft_student(self, tmp_path, capsys):
        """attack and evaluate --box black refuse a student distilled from probabilities."""
        out = str(tmp_path / "bb")
        attack = ("attack", "--out", out, "--box", "black", "--teacher", "dtw1nn",
                  "--beta", "1e-3", "--epochs", "1")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        assert run("distill", "--out", out, "--box", "white", "--epochs", "1") == 0
        capsys.readouterr()
        assert run(*attack) == 1
        assert "distill --box black" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "attack", "manifest.json"))
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0
        assert run(*attack) == 0
        assert run("distill", "--out", out, "--box", "white", "--epochs", "1") == 0
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        assert "distill --box black" in capsys.readouterr().err


class TestInvalidTrainingFlags:
    """Zero epochs or batch size is refused with an error line, before any work."""

    @pytest.fixture
    def dtw_run(self, tmp_path):
        out = str(tmp_path / "bb")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        return out

    def test_distill_zero_epochs(self, dtw_run, capsys):
        capsys.readouterr()
        assert run("distill", "--out", dtw_run, "--box", "black", "--epochs", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epochs and batch_size must be >= 1" in err
        assert not os.path.exists(os.path.join(dtw_run, "student", "manifest.json"))

    def test_attack_zero_batch_size(self, dtw_run, capsys):
        assert run("distill", "--out", dtw_run, "--box", "black", "--epochs", "1") == 0
        capsys.readouterr()
        assert run("attack", "--out", dtw_run, "--box", "black", "--teacher", "dtw1nn",
                   "--beta", "1e-3", "--epochs", "1", "--batch-size", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epochs and batch_size must be >= 1" in err
        assert not os.path.exists(os.path.join(dtw_run, "attack"))

    def test_black_box_distill_records_teacher_calls(self, dtw_run):
        assert run("distill", "--out", dtw_run, "--box", "black", "--epochs", "1") == 0
        manifest = json.load(open(os.path.join(dtw_run, "student", "manifest.json")))
        # one hard-label query over d_eval; never probabilities
        assert manifest["teacher_calls"] == {"predict_labels": 1, "predict_proba": 0}


class TestInterruptedStage:
    def test_interrupted_attack_leaves_completed_stage(self, tmp_path, monkeypatch, capsys):
        """A stage that dies after writing some artifacts leaves the previous stage whole."""
        import tsadv.cli as cli_module
        from tsadv.nn import load_model

        out = str(tmp_path / "run")
        attack = ("attack", "--out", out, "--box", "white", "--teacher", "fcn", "--beta", "1e-3")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("train-teacher", "--out", out, "--teacher", "fcn", "--epochs", "2") == 0
        assert run(*attack, "--epochs", "2") == 0

        def crash(*args, **kwargs):
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "save_reports_json", crash)
            with pytest.raises(RuntimeError, match="interrupted"):
                run(*attack, "--epochs", "3")
        capsys.readouterr()
        assert run(*attack, "--epochs", "2") == 0
        assert "up to date" in capsys.readouterr().out
        manifest = json.load(open(os.path.join(out, "attack", "manifest.json")))
        for fname, state_hash in zip(manifest["gatn_files"], manifest["gatn_state_hashes"]):
            assert load_model(os.path.join(out, "attack", fname)).state_hash() == state_hash
        assert not os.path.exists(os.path.join(out, ".attack.partial"))


class TestConfigFile:
    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": {"synthetic": True, "seed-split": 3}}))
        out = str(tmp_path / "run")
        assert run("--config", str(cfg), "prepare", "--out", out) == 0
        echoed = json.load(open(os.path.join(out, "config.json")))
        assert echoed["prepare"]["seed_split"] == 3

    def test_abbreviated_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": {"synthetic": True, "seed-split": 3}}))
        out = str(tmp_path / "run")
        assert run("--config", str(cfg), "prepare", "--out", out, "--seed", "7") == 0
        echoed = json.load(open(os.path.join(out, "config.json")))
        assert echoed["prepare"]["seed_split"] == 7

    def test_command_without_section_takes_no_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": {"synthetic": True}, "attack": {"epochs": 1}}))
        out = str(tmp_path / "run")
        assert run("--config", str(cfg), "prepare", "--out", out) == 0
        assert run("--config", str(cfg), "train-teacher", "--out", out, "--teacher", "dtw1nn") == 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": {"bogus-flag": 1}}))
        assert run("--config", str(cfg), "prepare", "--out", str(tmp_path / "o")) == 1
        assert "bogus-flag" in capsys.readouterr().err

    def test_missing_config_file_is_an_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert run("--config", missing, "prepare", "--out", str(tmp_path / "o"), "--synthetic") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    def test_config_file_holding_a_list_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"synthetic": True}]))
        assert run("--config", str(cfg), "prepare", "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("error: config file")

    def test_config_section_not_an_object_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": 3}))
        assert run("--config", str(cfg), "prepare", "--out", str(tmp_path / "o"),
                   "--synthetic") == 1
        assert capsys.readouterr().err.startswith("error: config section 'prepare'")


class TestArchiveLayout:
    def test_env_root_resolution(self, tmp_path, monkeypatch):
        root = tmp_path / "archive"
        ds_dir = root / "PowerLike"
        ds_dir.mkdir(parents=True)
        write_power_profile_archive(ds_dir / "PowerLike_TRAIN.tsv", ds_dir / "PowerLike_TEST.tsv",
                                    n_train=12, n_test=24, length=24, seed=5)
        monkeypatch.setenv("TSADV_UCR_ROOT", str(root))
        out = str(tmp_path / "run")
        assert run("prepare", "--out", out, "--dataset", "PowerLike") == 0
        manifest = json.load(open(os.path.join(out, "prepare", "manifest.json")))
        assert manifest["counts"]["d_eval"] + manifest["counts"]["d_test"] == 24
        assert manifest["label_map"] == {"1": 0, "2": 1}

    def test_rewritten_data_reruns_prepare(self, tmp_path, capsys):
        train, test = tmp_path / "Power_TRAIN.tsv", tmp_path / "Power_TEST.tsv"
        out = str(tmp_path / "run")
        prepare = ("prepare", "--out", out, "--train-file", str(train), "--test-file", str(test))
        write_power_profile_archive(train, test, n_train=12, n_test=24, length=24, seed=5)
        assert run(*prepare) == 0
        d_eval = os.path.join(out, "prepare", "d_eval.tsv")
        before = open(d_eval).read()
        # new rows at the same paths
        write_power_profile_archive(train, test, n_train=12, n_test=24, length=24, seed=6)
        capsys.readouterr()
        assert run(*prepare) == 0
        assert "up to date" not in capsys.readouterr().out
        assert open(d_eval).read() != before

    def test_train_and_test_label_sets_must_match(self, tmp_path, capsys):
        """Each file is remapped alone, so a class missing from one would shift the other's."""
        rng = np.random.default_rng(0)
        train, test = tmp_path / "Odd_TRAIN.tsv", tmp_path / "Odd_TEST.tsv"
        for path, labels in ((train, (1, 2, 3)), (test, (1, 3))):
            rows = ["\t".join([str(label)] + [f"{v:.6f}" for v in rng.normal(size=8)])
                    for label in labels for _ in range(4)]
            path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("prepare", "--out", str(out), "--train-file", str(train),
                   "--test-file", str(test)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[1, 2, 3]" in err and "[1, 3]" in err
        assert not (out / "prepare").exists()
        assert not (out / ".prepare.partial").exists()

    def test_space_delimiter_takes_runs_of_whitespace(self, tmp_path):
        """Space-aligned columns with leading and trailing spaces prepare the same splits
        as the tab-separated file."""
        stages = []
        for delimiter in ("tab", "space"):
            train, test = tmp_path / f"{delimiter}_TRAIN.tsv", tmp_path / f"{delimiter}_TEST.tsv"
            write_power_profile_archive(train, test, n_train=12, n_test=24, length=24, seed=5)
            if delimiter == "space":
                for path in (train, test):
                    rows = path.read_text().splitlines()
                    path.write_text("".join("  " + row.replace("\t", "   ") + " \n"
                                            for row in rows))
            out = tmp_path / f"run_{delimiter}"
            assert run("prepare", "--out", str(out), "--train-file", str(train),
                       "--test-file", str(test), "--delimiter", delimiter) == 0
            stages.append([(out / "prepare" / f"{which}.tsv").read_text()
                           for which in ("teacher_train", "d_eval", "d_test")])
        assert stages[0] == stages[1]

    def test_missing_env_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TSADV_UCR_ROOT", raising=False)
        assert run("prepare", "--out", str(tmp_path / "o"), "--dataset", "Foo") == 1
        assert "TSADV_UCR_ROOT" in capsys.readouterr().err


@pytest.fixture(scope="module")
def four_runs(tmp_path_factory):
    """White/black x fcn/dtw1nn pipelines on the synthetic set; tiny budgets."""
    base = tmp_path_factory.mktemp("variants")
    outs = {}
    for teacher in ("fcn", "dtw1nn"):
        for box in ("white", "black"):
            out = str(base / f"{box}_{teacher}")
            assert run("prepare", "--out", out, "--synthetic") == 0
            teacher_flags = ["--epochs", "60", "--early-stop-acc", "1.0"] \
                if teacher == "fcn" else []
            assert run("train-teacher", "--out", out, "--teacher", teacher,
                       *teacher_flags) == 0
            if not (box == "white" and teacher == "fcn"):
                assert run("distill", "--out", out, "--box", box, "--epochs", "25") == 0
            assert run("attack", "--out", out, "--box", box, "--teacher", teacher,
                       "--beta", "1e-4", "--epochs", "10") == 0
            assert run("evaluate", "--out", out) == 0
            outs[(box, teacher)] = out
    return outs


def write_two_power_datasets(tmp_path, monkeypatch):
    """Archive root with small PowerA and PowerB datasets, set as the env root."""
    root = tmp_path / "archive"
    for name, seed in (("PowerA", 3), ("PowerB", 4)):
        ds_dir = root / name
        ds_dir.mkdir(parents=True)
        write_power_profile_archive(ds_dir / f"{name}_TRAIN.tsv", ds_dir / f"{name}_TEST.tsv",
                                    n_train=12, n_test=24, length=24, seed=seed)
    monkeypatch.setenv("TSADV_UCR_ROOT", str(root))


def write_reports(out, dataset, d_eval_count=3, box_mode="white", teacher_kind="fcn",
                  criterion="labeled"):
    """A run directory holding only reports/reports.json: one report per split,
    white-box FCN under the labeled criterion unless told otherwise."""
    from tsadv.reports import AttackReport, save_reports_json

    os.makedirs(out / "reports")
    reports = [AttackReport(dataset=dataset, box_mode=box_mode, teacher_kind=teacher_kind,
                            beta=0.01, num_adversaries=k, mse_adversaries=0.25 if k else None,
                            mse_all=0.125, split=split, criterion=criterion, n_evaluated=10)
               for split, k in (("d_eval", d_eval_count), ("d_test", 0))]
    save_reports_json(reports, out / "reports" / "reports.json")
    return str(out)


class TestReportPlotCsv:
    def test_dataset_name_with_a_comma_keeps_its_columns(self, tmp_path):
        runs = [write_reports(tmp_path / name, name) for name in ("a,b", "Power")]
        report_dir = tmp_path / "summary"
        assert run("report", "--out", str(report_dir), "--runs", *runs) == 0
        for tag, k, mse_adv in (("counts", "3", "0.25"), ("generalization", "0", "")):
            path = report_dir / f"plot_{tag}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[1] == ["a,b", "white-fcn", "0.01", k, mse_adv, "0.125"]
            # an ordinary name is written as before, unquoted
            assert path.read_bytes().decode().splitlines()[2] == \
                f"Power,white-fcn,0.01,{k},{mse_adv},0.125"


class TestReportWrites:
    def test_failing_write_leaves_the_previous_report_json(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        import tsadv.reports as reports_module

        runs = [write_reports(tmp_path / name, name) for name in ("PowerA", "PowerB")]
        report_dir = tmp_path / "summary"
        assert run("report", "--out", str(report_dir), "--runs", runs[0]) == 0
        before = (report_dir / "report.json").read_bytes()

        def dump_half(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:20])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(reports_module, "json", SimpleNamespace(dump=dump_half, load=json.load))
        with pytest.raises(OSError, match="No space left"):
            run("report", "--out", str(report_dir), "--runs", *runs)
        assert (report_dir / "report.json").read_bytes() == before
        assert not [p for p in os.listdir(report_dir) if p.endswith(".partial")]


class TestReportDuplicates:
    """A Wilcoxon vector holds one d_eval count per dataset and variant; report
    refuses a second one before it writes anything."""

    def test_two_seeds_of_one_dataset(self, tmp_path, capsys):
        runs = [write_reports(tmp_path / f"seed{seed}", "P", d_eval_count=k)
                for seed, k in ((1, 3), (2, 5))]
        report_dir = tmp_path / "summary"
        assert run("report", "--out", str(report_dir), "--runs", *runs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "white-fcn on 'P'" in err
        assert all(out in err for out in runs)
        assert not report_dir.exists()

    def test_all_betas_run_directory(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        assert run("evaluate", "--out", out, "--all-betas") == 0
        report_dir = tmp_path / "summary"
        capsys.readouterr()
        assert run("report", "--out", str(report_dir), "--runs", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "black-dtw1nn on 'bumps'" in err and out in err
        assert not report_dir.exists()


class TestConfigEcho:
    def test_damaged_echo_is_rebuilt_from_the_manifests(self, tmp_path):
        out = str(tmp_path / "run")
        assert run("prepare", "--out", out, "--synthetic") == 0
        path = os.path.join(out, "config.json")
        with open(path, "r+b") as fh:
            fh.truncate(len(fh.read()) // 2)
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {stage: read_manifest(out, stage)["config"]
                                     for stage in ("prepare", "teacher")}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_interpreter(*args):
    """Run ``python -X importtime *args`` in a new process.

    Returns the exit code, stdout, stderr without the import-time lines, and
    the names of every module the process imported.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=300)
    imported, err = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "\n".join(err), imported


def imports_numpy(imported):
    return any(name == "numpy" or name.startswith("numpy.") for name in imported)


class TestEntryPoint:
    """`python -m tsadv.cli` as a user runs it: a stage imports only what it runs."""

    def test_import_leaves_numpy_out(self):
        code, _, _, imported = fresh_interpreter("-c", "import tsadv.cli")
        assert code == 0 and "tsadv.config" in imported
        assert not imports_numpy(imported)

    def test_up_to_date_stages_leave_numpy_out(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        for argv in (("prepare", "--synthetic"), ("train-teacher", "--teacher", "dtw1nn"),
                     ("distill", "--box", "black", "--epochs", "1"), BLACK_DTW_ATTACK,
                     ("evaluate",)):
            code, stdout, _, imported = fresh_interpreter("-m", "tsadv.cli", *argv, "--out", out)
            assert code == 0 and "up to date" in stdout, argv
            assert "tsadv.config" in imported and not imports_numpy(imported), argv
            assert "ctypes" not in imported, argv

    def test_dtw_teacher_stage_leaves_numpy_out(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        shutil.rmtree(os.path.join(out, "teacher"))
        code, stdout, _, imported = fresh_interpreter(
            "-m", "tsadv.cli", "train-teacher", "--out", out, "--teacher", "dtw1nn")
        assert code == 0 and "up to date" not in stdout
        assert read_manifest(out, "teacher")["teacher_kind"] == "dtw1nn"
        assert not imports_numpy(imported) and "ctypes" not in imported

    def test_evaluate_stage_leaves_multiprocessing_out(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        code, stdout, _, imported = fresh_interpreter("-m", "tsadv.cli", "evaluate", "--out", out,
                                                      "--criterion", "unlabeled")
        assert code == 0 and "up to date" not in stdout
        assert "tsadv.dtw" in imported and "multiprocessing" not in imported

    def test_one_variant_report_leaves_numpy_out(self, tmp_path):
        out = write_reports(tmp_path / "run", "Power")
        report_dir = tmp_path / "summary"
        code, _, _, imported = fresh_interpreter("-m", "tsadv.cli", "report",
                                                 "--out", str(report_dir), "--runs", out)
        assert code == 0 and "tsadv.reports" in imported
        assert not imports_numpy(imported) and "ctypes" not in imported
        assert sorted(os.listdir(report_dir)) == [
            "plot_counts.csv", "plot_generalization.csv", "report.csv", "report.json",
            "wilcoxon_counts.json", "wilcoxon_mse.json"]
        for name in ("wilcoxon_counts", "wilcoxon_mse"):
            assert (report_dir / f"{name}.json").read_text() == "[]"

    def test_two_variant_report_writes_its_wilcoxon_entries(self, tmp_path):
        from tsadv.evaluate import pairwise_wilcoxon

        counts = {("white", "fcn"): [3, 5, 2, 7, 4, 6], ("black", "dtw1nn"): [1, 2, 2, 3, 1, 0]}
        runs = [write_reports(tmp_path / f"{box}-{teacher}-{i}", f"D{i}", k, box, teacher)
                for (box, teacher), ks in counts.items() for i, k in enumerate(ks)]
        report_dir = tmp_path / "summary"
        code, _, _, imported = fresh_interpreter("-m", "tsadv.cli", "report",
                                                 "--out", str(report_dir), "--runs", *runs)
        assert code == 0 and imports_numpy(imported)
        for name, value in (("wilcoxon_counts", lambda k: k),
                            ("wilcoxon_mse", lambda k: 0.25 if k else float("nan"))):
            rows = pairwise_wilcoxon({f"{box}-{teacher}": [value(k) for k in ks]
                                      for (box, teacher), ks in counts.items()})
            assert rows[0]["a"] == "white-fcn" and rows[0]["b"] == "black-dtw1nn"
            assert (report_dir / f"{name}.json").read_text() == json.dumps(
                rows, indent=2, sort_keys=True)
        assert json.loads((report_dir / "wilcoxon_counts.json").read_text())[0]["method"] == "exact"

    def test_report_refuses_runs_of_different_criteria(self, tmp_path):
        runs = [write_reports(tmp_path / f"{box}-{i}", f"D{i}", 3, box, teacher, criterion)
                for box, teacher, criterion in (("white", "fcn", "labeled"),
                                                ("black", "dtw1nn", "unlabeled"))
                for i in range(6)]
        report_dir = tmp_path / "summary"
        code, _, err, _ = fresh_interpreter("-m", "tsadv.cli", "report",
                                            "--out", str(report_dir), "--runs", *runs)
        assert code == 1 and err.startswith("error:")
        assert "labeled in " + ", ".join(runs[:6]) in err
        assert "unlabeled in " + ", ".join(runs[6:]) in err
        assert not report_dir.exists()

    def test_stale_attack_stage_is_an_error_line(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1",
                   "--seed-student", "7") == 0
        code, _, err, imported = fresh_interpreter("-m", "tsadv.cli", "evaluate", "--out", out)
        assert code == 1
        assert err.startswith("error:") and "rerun `tsadv attack`" in err
        assert not imports_numpy(imported) and "ctypes" not in imported

    def test_missing_stage_is_an_error_line(self, tmp_path):
        out = str(tmp_path / "empty")
        os.makedirs(out)
        code, _, err, _ = fresh_interpreter("-m", "tsadv.cli", "evaluate", "--out", out)
        assert code == 1
        assert err.startswith("error:") and "tsadv attack" in err


class TestKeepFreedMemory:
    """`_keep_freed_memory`, which network stages call before their first pass."""

    def test_each_network_stage_calls_it_once(self, tmp_path, monkeypatch):
        import tsadv.cli as cli_module

        calls = []
        monkeypatch.setattr(cli_module, "_keep_freed_memory", lambda: calls.append(1))
        out = str(tmp_path / "run")
        per_stage = []
        for argv in (("prepare", "--synthetic"),
                     ("train-teacher", "--teacher", "fcn", "--epochs", "1"),
                     ("distill", "--box", "black", "--epochs", "1"),
                     ("attack", "--box", "black", "--teacher", "fcn", "--epochs", "1"),
                     ("evaluate",), ("evaluate",)):
            calls.clear()
            assert run(*argv, "--out", out) == 0
            per_stage.append(len(calls))
        assert per_stage == [0, 1, 1, 1, 1, 0]  # the second evaluate is up to date

    @staticmethod
    def keep_with(monkeypatch, libc):
        """Call the helper with ``libc`` standing in for the process's C library."""
        import ctypes

        import tsadv.cli as cli_module

        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        cli_module._keep_freed_memory()

    @staticmethod
    def recording_mallopt(calls, result):
        def mallopt(param, value):
            calls.append((param, value))
            return result
        return mallopt

    def test_sets_the_mmap_threshold_before_the_trim_threshold(self, monkeypatch):
        from types import SimpleNamespace

        calls = []
        self.keep_with(monkeypatch, SimpleNamespace(mallopt=self.recording_mallopt(calls, 1)))
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_refusing_mallopt_gets_no_trim_threshold(self, monkeypatch):
        """musl's stub returns 0; a trim threshold alone would pin glibc's mmap threshold."""
        from types import SimpleNamespace

        calls = []
        self.keep_with(monkeypatch, SimpleNamespace(mallopt=self.recording_mallopt(calls, 0)))
        assert calls == [(-3, 32 << 20)]

    def test_libc_without_mallopt_is_left_alone(self, monkeypatch):
        from types import SimpleNamespace

        self.keep_with(monkeypatch, SimpleNamespace())


class TestBatch:
    def test_two_dataset_batch_produces_report(self, tmp_path, monkeypatch):
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        assert run("batch", "--out-root", out_root, "--box", "white", "--teacher", "fcn",
                   "--datasets", "PowerA,PowerB", "--teacher-epochs", "30", "--epochs", "3") == 0
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        datasets = {r["dataset"] for r in report["reports"]}
        assert datasets == {"PowerA", "PowerB"}
        splits = {r["split"] for r in report["reports"]}
        assert splits == {"d_eval", "d_test"}

    def test_diverged_training_fails_one_dataset_only(self, tmp_path, monkeypatch, capsys):
        import tsadv.models as models
        from tsadv.nn import TrainingDivergedError

        train_classifier = models.train_classifier

        def diverge_on_power_b(model, dataset, hyper):
            if dataset.name == "PowerB":
                raise TrainingDivergedError("non-finite loss nan in epoch 0")
            return train_classifier(model, dataset, hyper)

        monkeypatch.setattr(models, "train_classifier", diverge_on_power_b)
        write_two_power_datasets(tmp_path, monkeypatch)
        single = str(tmp_path / "single")
        assert run("prepare", "--out", single, "--dataset", "PowerB") == 0
        assert run("train-teacher", "--out", single, "--teacher", "fcn", "--epochs", "1") == 1
        assert "error: non-finite loss" in capsys.readouterr().err
        out_root = str(tmp_path / "runs")
        assert run("batch", "--out-root", out_root, "--box", "white", "--teacher", "fcn",
                   "--datasets", "PowerA,PowerB", "--teacher-epochs", "5", "--epochs", "1",
                   "--processes", "2") == 1
        assert "PowerB" in capsys.readouterr().err
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["dataset"] for r in report["reports"]} == {"PowerA"}

    def test_unexpected_error_fails_one_dataset_only(self, tmp_path, monkeypatch, capsys):
        import tsadv.models as models

        train_classifier = models.train_classifier

        def crash_on_power_a(model, dataset, hyper):
            if dataset.name == "PowerA":
                raise RuntimeError("disk on fire")
            return train_classifier(model, dataset, hyper)

        monkeypatch.setattr(models, "train_classifier", crash_on_power_a)
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        assert run("batch", "--out-root", out_root, "--box", "white", "--teacher", "fcn",
                   "--datasets", "PowerA,PowerB", "--teacher-epochs", "5", "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert "error: PowerA: disk on fire" in err
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["dataset"] for r in report["reports"]} == {"PowerB"}

    def test_failed_dataset_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TSADV_UCR_ROOT", str(tmp_path / "nowhere"))
        assert run("batch", "--out-root", str(tmp_path / "runs"), "--box", "white",
                   "--teacher", "fcn", "--datasets", "Missing") == 1
        assert "Missing" in capsys.readouterr().err


class TestFourVariantReport:
    def test_report_aggregates_six_pairs(self, four_runs, tmp_path):
        report_dir = str(tmp_path / "report")
        assert run("report", "--out", report_dir, "--runs", *four_runs.values()) == 0
        counts = json.load(open(os.path.join(report_dir, "wilcoxon_counts.json")))
        assert len(counts) == 6
        variants = {row["a"] for row in counts} | {row["b"] for row in counts}
        assert variants == {"white-fcn", "black-fcn", "white-dtw1nn", "black-dtw1nn"}
        assert os.path.exists(os.path.join(report_dir, "plot_counts.csv"))
        assert os.path.exists(os.path.join(report_dir, "plot_generalization.csv"))
        assert os.path.exists(os.path.join(report_dir, "report.csv"))

    def test_black_box_runs_found_adversaries_somewhere(self, four_runs):
        total = 0
        for out in four_runs.values():
            reports, _ = load_reports_json(os.path.join(out, "reports", "reports.json"))
            total += sum(r.num_adversaries for r in reports)
        assert total >= 1
