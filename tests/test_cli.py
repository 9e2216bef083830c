import csv
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
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


# the stage files that record the run directory, whose digests move in a copy_run copy
RUN_DIR_FILES = ("grid_reports.json", "reports.json")


def relocated(manifest):
    """``manifest`` with the digests of RUN_DIR_FILES blanked, their names kept."""
    return {**manifest, "files": {name: None if name in RUN_DIR_FILES else digest
                                  for name, digest in manifest["files"].items()}}


SPLITS = ("teacher_train", "d_eval", "d_test")


def prepared_split(out, which):
    """The ``values`` and ``labels`` arrays of one split that prepare wrote."""
    with np.load(os.path.join(out, "prepare", f"{which}.npz")) as saved:
        return saved["values"], saved["labels"]


def prepared_label_map(out):
    return {int(k): v for k, v in read_manifest(out, "prepare")["label_map"].items()}


def write_config(tmp_path, sections):
    """A ``--config`` file holding ``sections``, one per command; returns its path."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(sections))
    return str(path)


class TestPipeline:
    def test_reports_have_adversaries(self, white_fcn_run):
        reports, _ = load_reports_json(os.path.join(white_fcn_run, "reports", "reports.json"))
        by_split = {r.split: r for r in reports}
        assert set(by_split) == {"d_eval", "d_test"}
        assert by_split["d_eval"].num_adversaries >= 1
        assert by_split["d_eval"].criterion == "labeled"

    def test_reports_record_the_attack_settings(self, white_fcn_run):
        _, provenance = load_reports_json(os.path.join(white_fcn_run, "reports", "reports.json"))
        attack = read_manifest(white_fcn_run, "attack")["config"]
        assert provenance == {"out": white_fcn_run, "criterion": "labeled", "attack": {
            k: attack[k] for k in ("alpha", "target_class", "epochs", "batch_size", "lr", "betas")}}
        assert provenance["attack"]["betas"] == [1e-3] and provenance["attack"]["epochs"] == 15

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
    from tsadv.data import Dataset
    from tsadv.evaluate import count_adversaries_labeled, count_adversaries_unlabeled
    from tsadv.nn import load_model
    from tsadv.teachers import DTW1NNTeacher, FCNTeacher

    name = read_manifest(out, "prepare")["config"]["dataset"]

    def split(which):
        return Dataset(name, *prepared_split(out, which), prepared_label_map(out))

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
    from tsadv.nn import load_model
    from tsadv.teachers import FCNTeacher

    teacher = FCNTeacher(load_model(os.path.join(out, "teacher", "fcn.npz")))
    values, _ = prepared_split(out, which)
    return teacher.predict_labels(values)


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

    Such a stage has no d_eval_outputs.npz, lists its files by name alone, with
    no digest, and, older still than upstream records, has no upstream entry.
    """
    from tsadv.config import config_hash

    os.remove(os.path.join(out, "attack", "d_eval_outputs.npz"))
    manifest = read_manifest(out, "attack")
    manifest["files"] = sorted(name for name in manifest["files"] if name != "d_eval_outputs.npz")
    del manifest["config"]["upstream"]
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
        """The black-box attack reads its clean labels from the student stage, whose
        digests cover them: rewritten labels are refused, naming distill, and once
        distill has rebuilt them the attack stage is up to date again."""
        out = copy_run(black_dtw_run, tmp_path)
        path = os.path.join(out, "student", "teacher_outputs.npz")
        before = open(path, "rb").read()
        with np.load(path) as saved:
            outputs = dict(saved)
        outputs["hard_labels"] = 1 - outputs["hard_labels"]
        np.savez(path, **outputs)
        capsys.readouterr()
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}") and "rerun `tsadv distill`" in err
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0
        assert "up to date" not in capsys.readouterr().out
        assert open(path, "rb").read() == before
        assert run(*BLACK_DTW_ATTACK, "--out", out) == 0
        assert "[attack] up to date" in capsys.readouterr().out

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
        manifest["config"]["upstream"]["student"] = "0" * 16
        with open(os.path.join(out, "attack", "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert "current student stage" in self.refused(out, capsys)

    def test_manifest_records_the_route(self, white_fcn_run, black_dtw_run):
        assert read_manifest(white_fcn_run, "attack")["surrogate_is_teacher"] is True
        assert read_manifest(black_dtw_run, "attack")["surrogate_is_teacher"] is False


class TestUpstreamRule:
    """A stage records the config hash of each stage it read, and is refused once one moved."""

    def test_new_split_refuses_every_stage_built_from_the_old_one(self, tmp_path, capsys):
        from tsadv.data import Dataset
        from tsadv.teachers import DTW1NNTeacher

        train, test = tmp_path / "Power_TRAIN.tsv", tmp_path / "Power_TEST.tsv"
        write_power_profile_archive(train, test, n_train=30, n_test=120, length=24)
        out = str(tmp_path / "run")
        prepare = ("prepare", "--out", out, "--train-file", str(train), "--test-file", str(test))
        stages = [("train-teacher", "--out", out, "--teacher", "dtw1nn"),
                  ("distill", "--out", out, "--box", "black", "--epochs", "1"),
                  ("attack", "--out", out, "--box", "black", "--teacher", "dtw1nn",
                   "--epochs", "1"),
                  ("evaluate", "--out", out)]
        for argv in (prepare, *stages):
            assert run(*argv) == 0
        assert run(*prepare, "--seed-split", "2") == 0
        capsys.readouterr()
        for argv in stages[1:]:
            assert run(*argv) == 1, argv
            captured = capsys.readouterr()
            assert "up to date" not in captured.out
            assert captured.err.startswith("error:"), argv
            assert "rerun `tsadv train-teacher`" in captured.err, argv
        for argv in stages:
            assert run(*argv) == 0

        def split(which):
            return Dataset("Power", *prepared_split(out, which), prepared_label_map(out))

        teacher = DTW1NNTeacher.from_dataset(split("teacher_train"))
        with np.load(os.path.join(out, "attack", "d_eval_outputs.npz")) as saved:
            assert np.array_equal(saved["clean_labels"],
                                  teacher.predict_labels(split("d_eval").values))

    def test_text_splits_rerun_prepare(self, tmp_path, capsys):
        """A prepare stage that wrote its splits as text listed its files by name alone:
        its readers refuse it in one error line naming prepare, and prepare rebuilds
        it, although its config hash is the current one; no traceback."""
        from tsadv.data import Dataset, save_ucr

        out = str(tmp_path / "run")
        prepare = ("prepare", "--out", out, "--synthetic")
        teacher = ("train-teacher", "--out", out, "--teacher", "dtw1nn")
        distill = ("distill", "--out", out, "--box", "black", "--epochs", "1")
        assert run(*prepare) == 0 and run(*teacher) == 0
        manifest = read_manifest(out, "prepare")
        for which in SPLITS:  # the layout of a stage written before the .npz splits
            path = os.path.join(out, "prepare", which)
            save_ucr(Dataset("bumps", *prepared_split(out, which), prepared_label_map(out)),
                     f"{path}.tsv")
            os.remove(f"{path}.npz")
        manifest["files"] = [f"{which}.tsv" for which in sorted(SPLITS)]
        with open(os.path.join(out, "prepare", "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        for reader in (teacher, distill):
            assert run(*reader) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "rerun `tsadv prepare`" in err
            assert len(err.splitlines()) == 1
        assert run(*prepare) == 0
        assert "up to date" not in capsys.readouterr().out
        assert sorted(read_manifest(out, "prepare")["files"]) == [
            f"{w}.npz" for w in sorted(SPLITS)]
        assert run(*teacher) == 0 and "[teacher] up to date" in capsys.readouterr().out
        assert run(*distill) == 0

    @pytest.mark.parametrize("stage, reader, command", [
        ("teacher", ("distill", "--box", "black", "--epochs", "1"),
         ("train-teacher", "--teacher", "dtw1nn")),
        ("attack", ("evaluate",), BLACK_DTW_ATTACK),
    ], ids=["teacher", "attack"])
    def test_stage_without_upstream_is_stale(self, black_dtw_run, tmp_path, capsys, stage,
                                             reader, command):
        """A manifest written before stages recorded their upstream stages is refused,
        and its own command rebuilds it."""
        from tsadv.config import config_hash

        out = copy_run(black_dtw_run, tmp_path)
        manifest = read_manifest(out, stage)
        manifest["config"].pop("upstream", None)
        manifest["config_hash"] = config_hash(manifest["config"])
        with open(os.path.join(out, stage, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert run(*reader, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"rerun `tsadv {command[0]}`" in err
        assert run(*command, "--out", out) == 0
        assert "up to date" not in capsys.readouterr().out
        assert run(*reader, "--out", out) == 0
        assert "up to date" in capsys.readouterr().out


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


class TestDamagedFiles:
    """A damaged model, reports, manifest or saved-outputs file ends in an error line naming it."""

    @pytest.mark.parametrize("damage", ["missing array", "truncated"])
    def test_evaluate_with_a_damaged_student(self, black_dtw_run, tmp_path, capsys, damage):
        out = copy_run(black_dtw_run, tmp_path)
        shutil.rmtree(os.path.join(out, "reports"))
        path = os.path.join(out, "student", "student.npz")
        if damage == "missing array":
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files if name != "layer0.b"}
            np.savez(path, **arrays)
        else:
            with open(path, "rb") as fh:
                whole = fh.read()
            with open(path, "wb") as fh:
                fh.write(whole[:len(whole) // 2])
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}") and "rerun `tsadv distill`" in err

    @pytest.mark.parametrize("damage", ["extra field", "no reports key", "not JSON"])
    def test_report_on_a_damaged_reports_file(self, tmp_path, capsys, damage):
        runs = [write_reports(tmp_path / name, name) for name in ("A", "B")]
        path = os.path.join(runs[1], "reports", "reports.json")
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        if damage == "extra field":
            blob["reports"][0]["seed"] = 1
        elif damage == "no reports key":
            del blob["reports"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{'reports': []}" if damage == "not JSON" else json.dumps(blob))
        report_dir = tmp_path / "summary"
        assert run("report", "--out", str(report_dir), "--runs", *runs) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not a reports file")
        assert not report_dir.exists()

    def test_damaged_manifest(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        path = os.path.join(out, "attack", "manifest.json")
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(len(fh.read()) // 2)
        shutil.rmtree(os.path.join(out, "reports"))
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read JSON file {path}")

    def test_upstream_manifest_without_its_fields(self, black_dtw_run, tmp_path, capsys):
        out = copy_run(black_dtw_run, tmp_path)
        path = os.path.join(out, "teacher", "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{}")
        capsys.readouterr()
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a stage manifest")
        assert "rerun `tsadv train-teacher`" in err

    @pytest.mark.parametrize("stage, field, reader, command", [
        ("prepare", "label_map", ("distill", "--box", "black", "--epochs", "1"),
         ("prepare", "--synthetic")),
        ("teacher", "teacher_kind", ("distill", "--box", "black", "--epochs", "1"),
         ("train-teacher", "--teacher", "dtw1nn")),
        ("student", "mode", BLACK_DTW_ATTACK, ("distill", "--box", "black", "--epochs", "1")),
        ("attack", "betas", ("evaluate",), BLACK_DTW_ATTACK),
        ("attack", "best_index", ("evaluate",), BLACK_DTW_ATTACK),
        ("attack", "gatn_files", ("evaluate",), BLACK_DTW_ATTACK),
    ], ids=["label_map", "teacher_kind", "mode", "betas", "best_index", "gatn_files"])
    def test_manifest_without_a_field_its_readers_index(self, black_dtw_run, tmp_path, capsys,
                                                        stage, field, reader, command):
        """The reader refuses the stage in one error line, and the command it names
        rebuilds the stage, with the same config hash, so the reader runs again."""
        out = copy_run(black_dtw_run, tmp_path)
        before = read_manifest(out, stage)
        path = os.path.join(out, stage, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in before.items() if k != field}, fh)
        capsys.readouterr()
        assert run(*reader, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a stage manifest") and field in err
        assert f"rerun `tsadv {command[0]}`" in err and len(err.splitlines()) == 1
        assert run(*command, "--out", out) == 0
        assert "up to date" not in capsys.readouterr().out
        assert relocated(read_manifest(out, stage)) == relocated(before)
        assert run(*reader, "--out", out) == 0

    def test_own_manifest_not_an_object_is_rebuilt(self, black_dtw_run, tmp_path, capsys):
        """A stage's own command rebuilds it, with the same config hash, so the
        stages built from it stay current."""
        out = copy_run(black_dtw_run, tmp_path)
        before = read_manifest(out, "teacher")
        with open(os.path.join(out, "teacher", "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write("[]")
        capsys.readouterr()
        assert run("train-teacher", "--out", out, "--teacher", "dtw1nn") == 0
        assert "up to date" not in capsys.readouterr().out
        assert read_manifest(out, "teacher") == before
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1") == 0
        assert "[student] up to date" in capsys.readouterr().out

    def test_echo_leaves_out_a_damaged_manifest(self, black_dtw_run, tmp_path):
        out = copy_run(black_dtw_run, tmp_path)
        with open(os.path.join(out, "reports", "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write("{}")
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1",
                   "--seed-student", "3") == 0
        with open(os.path.join(out, "config.json"), encoding="utf-8") as fh:
            echoed = json.load(fh)
        assert echoed == {stage: read_manifest(out, stage)["config"]
                          for stage in ("prepare", "teacher", "student", "attack")}
        assert echoed["student"]["seed_student"] == 3

    @pytest.mark.parametrize("stage, name, reader, command", [
        ("student", "teacher_outputs.npz", BLACK_DTW_ATTACK,
         ("distill", "--box", "black", "--epochs", "1")),
        ("attack", "d_eval_outputs.npz", ("evaluate",), BLACK_DTW_ATTACK),
        ("prepare", "d_eval.npz", ("evaluate",), ("prepare", "--synthetic")),
    ], ids=["teacher_outputs", "d_eval_outputs", "d_eval_split"])
    def test_truncated_saved_outputs(self, black_dtw_run, tmp_path, capsys, stage, name, reader,
                                     command):
        """A truncated file, and then one rewritten in place as a valid .npz with the
        same keys and shapes, is refused by its reader in one error line naming the
        command that wrote it; that command rebuilds the stage as it was, and the
        reader then runs."""
        out = copy_run(black_dtw_run, tmp_path)
        shutil.rmtree(os.path.join(out, "reports"))
        path = os.path.join(out, stage, name)
        before = relocated(read_manifest(out, stage))
        with np.load(path) as saved:
            rewritten = {key: saved[key] + 1 if saved[key].dtype.kind in "fiu" else saved[key]
                         for key in saved.files}
        for damage in ("truncated", "rewritten"):
            if damage == "truncated":
                with open(path, "r+b") as fh:
                    fh.truncate(100)
            else:
                np.savez(path, **rewritten)
            capsys.readouterr()
            assert run(*reader, "--out", out) == 1, damage
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot load {path}"), damage
            assert f"rerun `tsadv {command[0]}`" in err and len(err.splitlines()) == 1
            assert run(*command, "--out", out) == 0
            assert "up to date" not in capsys.readouterr().out, damage
            assert relocated(read_manifest(out, stage)) == before
            assert run(*reader, "--out", out) == 0


class TestErrors:
    @pytest.mark.parametrize("sources", [
        ("--synthetic", "--dataset", "PowerA"),
        ("--synthetic", "--train-file", "a.tsv", "--test-file", "b.tsv"),
        ("--dataset", "PowerA", "--train-file", "a.tsv", "--test-file", "b.tsv"),
        ("--dataset", "PowerA", "--test-file", "b.tsv"),
        ("--dataset", "PowerA", "config train-file"),
    ], ids=["synthetic-dataset", "synthetic-files", "dataset-files", "dataset-test-file",
            "dataset-config-file"])
    def test_prepare_refuses_two_data_sources(self, tmp_path, monkeypatch, capsys, sources):
        """A config section's files never stand in for batch's --dataset, nor the reverse."""
        write_two_power_datasets(tmp_path, monkeypatch)
        config = []
        if sources[-1] == "config train-file":
            sources = sources[:-1]
            config = ["--config", write_config(tmp_path, {"prepare": {"train-file": "a.tsv"}})]
        out = tmp_path / "run"
        assert run(*config, "prepare", "--out", str(out), *sources) == 1
        assert capsys.readouterr().err.startswith("error: prepare reads one data source:")
        assert not out.exists()

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
        """attack --box black refuses a student distilled from probabilities, and evaluate an
        attack stage run against a student other than the current one."""
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
        # that attack ran against the student the white-box distill replaced
        assert run("evaluate", "--out", out) == 1
        assert "rerun `tsadv attack`" in capsys.readouterr().err


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

    def test_distill_gamma_above_one(self, dtw_run, capsys):
        before = sorted(os.listdir(dtw_run))
        capsys.readouterr()
        assert run("distill", "--out", dtw_run, "--box", "black", "--gamma", "1.5",
                   "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gamma must be in [0, 1], got 1.5" in err
        assert sorted(os.listdir(dtw_run)) == before

    def test_attack_alpha_one(self, dtw_run, capsys):
        assert run("distill", "--out", dtw_run, "--box", "black", "--epochs", "1") == 0
        before = sorted(os.listdir(dtw_run))
        capsys.readouterr()
        assert run("attack", "--out", dtw_run, "--box", "black", "--teacher", "dtw1nn",
                   "--alpha", "1.0", "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha must be > 1" in err
        assert sorted(os.listdir(dtw_run)) == before

    def test_distill_without_gamma_takes_the_box_preset(self, dtw_run):
        for box, gamma in (("white", 0.5), ("black", 1.0)):
            assert run("distill", "--out", dtw_run, "--box", box, "--epochs", "1") == 0
            assert read_manifest(dtw_run, "student")["config"]["gamma"] == gamma, box

    def test_black_box_distill_records_teacher_calls(self, dtw_run):
        assert run("distill", "--out", dtw_run, "--box", "black", "--epochs", "1") == 0
        manifest = json.load(open(os.path.join(dtw_run, "student", "manifest.json")))
        # one hard-label query over d_eval; never probabilities
        assert manifest["teacher_calls"] == {"predict_labels": 1, "predict_proba": 0}


class TestInterruptedStage:
    def test_interrupted_attack_leaves_completed_stage(self, tmp_path, monkeypatch, capsys):
        """A stage that dies after writing some artifacts leaves the previous stage whole."""
        import tsadv.reports as reports_module
        from tsadv.nn import load_model

        out = str(tmp_path / "run")
        attack = ("attack", "--out", out, "--box", "white", "--teacher", "fcn", "--beta", "1e-3")
        assert run("prepare", "--out", out, "--synthetic") == 0
        assert run("train-teacher", "--out", out, "--teacher", "fcn", "--epochs", "2") == 0
        assert run(*attack, "--epochs", "2") == 0

        def crash(*args, **kwargs):
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(reports_module, "save_reports_json", crash)
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

    @pytest.mark.parametrize("command", [("prepare", "--out"), ("batch", "--box", "white",
                                          "--teacher", "fcn", "--out-root")],
                             ids=["prepare", "batch"])
    def test_non_command_top_level_key_is_an_error_line(self, tmp_path, capsys, command):
        """The one layout: a file of flag defaults for no command is refused, and nothing runs."""
        cfg = write_config(tmp_path, {"prepare": {"synthetic": True}, "epochs": 3})
        out = tmp_path / "run"
        assert run("--config", cfg, *command, str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: keys ['epochs'] name no command")
        assert not out.exists()

    def test_config_key_is_not_a_section_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"prepare": {"config": str(tmp_path / "other.json")}})
        assert run("--config", cfg, "prepare", "--out", str(tmp_path / "o"), "--synthetic") == 1
        assert capsys.readouterr().err.startswith("error: config key 'config'")

    def test_config_file_that_is_not_json_is_an_error_line_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{'prepare': {}}")
        assert run("--config", str(cfg), "prepare", "--out", str(tmp_path / "o"),
                   "--synthetic") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read JSON file {cfg}")

    @pytest.mark.parametrize("command, key, value, takes", [
        ("prepare", "seed_split", 1.5, "an integer"),
        ("prepare", "seed-split", True, "an integer"),
        ("prepare", "seed-split", None, "an integer"),
        ("prepare", "delimiter", "pipe", 'one of ["comma", "space", "tab"]'),
        ("prepare", "znorm", "no", "true or false"),
        ("prepare", "znorm", 1, "true or false"),
        ("prepare", "dataset", 3, "a string or null"),
        ("train-teacher", "early-stop-acc", "0.9", "a number or null"),
        ("train-teacher", "lr", False, "a number"),
    ], ids=["int-float", "int-bool", "int-null", "choices", "store-true-string",
            "store-true-int", "string-int", "float-string", "float-bool"])
    def test_config_value_a_flag_does_not_take_is_an_error_line(self, tmp_path, capsys, command,
                                                                key, value, takes):
        """A store_true flag takes a JSON boolean, an int flag an integer, a choices
        flag one of its choices, and a flag whose default is null also null; any
        other value ends, before any stage work, in one error line naming the key
        and the file."""
        cfg = write_config(tmp_path, {"prepare": {"synthetic": True}, command: {key: value}})
        out = tmp_path / "run"
        flags = ("--teacher", "fcn") if command == "train-teacher" else ()
        assert run("--config", cfg, command, "--out", str(out), *flags) == 1
        assert capsys.readouterr().err == (f"error: config key {key!r} in {cfg} takes {takes}, "
                                           f"not {json.dumps(value)}\n")
        assert not out.exists()

    def test_config_values_the_flags_take(self, tmp_path):
        """Null for a flag whose default is null, an integer for a float flag, and
        values of each flag's own type are taken."""
        from tsadv.cli import _parse_args

        cfg = write_config(tmp_path, {
            "prepare": {"synthetic": False, "seed-split": 2, "delimiter": "comma",
                        "dataset": None},
            "train-teacher": {"early-stop-acc": None, "lr": 1, "epochs": 3}})
        args = _parse_args(["--config", cfg, "prepare", "--out", "o"])
        assert (args.synthetic, args.seed_split, args.delimiter, args.dataset) == (
            False, 2, "comma", None)
        args = _parse_args(["--config", cfg, "train-teacher", "--out", "o", "--teacher", "fcn"])
        assert (args.early_stop_acc, args.lr, args.epochs) == (None, 1.0, 3)
        # an integer for a float flag is the float the flag would give, so both hash alike
        assert isinstance(args.lr, float) and isinstance(args.epochs, int)

    def test_config_section_not_an_object_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prepare": 3}))
        assert run("--config", str(cfg), "prepare", "--out", str(tmp_path / "o"),
                   "--synthetic") == 1
        assert capsys.readouterr().err.startswith("error: config section 'prepare'")


def write_gappy_archive(tmp_path):
    """Train and test files of rows of differing lengths, with leading, interior
    and trailing NaNs and raw labels {3, 7, 9}; returns the files by "TRAIN" and
    "TEST", their row counts and the longest row's length."""
    rng = np.random.default_rng(11)
    files, n_rows, longest = {}, {}, 0
    for which, per_class in (("TRAIN", 3), ("TEST", 5)):
        rows = []
        for label in (3, 7, 9) * per_class:
            values = [f"{v:.6f}" for v in rng.normal(size=int(rng.integers(6, 15)))]
            gaps = {0, len(values) // 2, len(values) - 1} if len(rows) % 2 else {2}
            values = ["NaN" if i in gaps else v for i, v in enumerate(values)]
            longest = max(longest, len(values))
            rows.append("\t".join([str(label)] + values))
        files[which] = tmp_path / f"Gappy_{which}.tsv"
        files[which].write_text("\n".join(rows) + "\n")
        n_rows[which] = len(rows)
    return files, n_rows, longest


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
        d_eval = os.path.join(out, "prepare", "d_eval.npz")
        before = open(d_eval, "rb").read()
        # new rows at the same paths
        write_power_profile_archive(train, test, n_train=12, n_test=24, length=24, seed=6)
        capsys.readouterr()
        assert run(*prepare) == 0
        assert "up to date" not in capsys.readouterr().out
        assert open(d_eval, "rb").read() != before

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
        assert str(train) in err and str(test) in err
        assert not (out / "prepare").exists()
        assert not (out / ".prepare.partial").exists()

    @pytest.mark.parametrize("odd_one", ["train", "test"])
    def test_single_class_file_is_an_error_line_naming_it(self, tmp_path, capsys, odd_one):
        paths = {which: tmp_path / f"Odd_{which.upper()}.tsv" for which in ("train", "test")}
        for which, path in paths.items():
            labels = (1, 1) if which == odd_one else (1, 2)
            path.write_text("".join(f"{label}\t0.5\t1.5\n" for label in labels * 2))
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("prepare", "--out", str(out), "--train-file", str(paths["train"]),
                   "--test-file", str(paths["test"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "single class [1]" in err
        assert f"Odd_{odd_one.upper()}" in err and len(err.splitlines()) == 1
        assert not (out / "prepare").exists()

    @pytest.mark.parametrize("znorm", [False, True], ids=["raw", "znorm"])
    def test_ragged_nan_gapped_files_prepare_full_length_finite_splits(self, tmp_path, znorm):
        """Rows of differing lengths with leading, interior and trailing NaNs, raw labels
        {3, 7, 9}: every prepared row has the longest row's length and no NaN."""
        files, n_rows, longest = write_gappy_archive(tmp_path)
        out = tmp_path / "run"
        assert run("prepare", "--out", str(out), "--train-file", str(files["TRAIN"]),
                   "--test-file", str(files["TEST"]), *(["--znorm"] if znorm else [])) == 0
        manifest = read_manifest(out, "prepare")
        assert manifest["label_map"] == {"3": 0, "7": 1, "9": 2}
        assert manifest["length"] == longest
        counts = manifest["counts"]
        assert counts["teacher_train"] == n_rows["TRAIN"]
        assert counts["d_eval"] + counts["d_test"] == n_rows["TEST"]
        raw_label = {v: k for k, v in prepared_label_map(out).items()}
        for which, count in counts.items():
            rows, labels = prepared_split(out, which)
            assert len(rows) == len(labels) == count
            for values, label in zip(rows, labels.tolist()):
                assert raw_label[label] in (3, 7, 9) and len(values) == longest
                assert np.isfinite(values).all()
                if znorm:
                    assert abs(values.mean()) < 1e-9 and abs(values.std() - 1.0) < 1e-9

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
            stages.append([(out / "prepare" / f"{which}.npz").read_bytes() for which in SPLITS])
        assert stages[0] == stages[1]

    def test_missing_env_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TSADV_UCR_ROOT", raising=False)
        assert run("prepare", "--out", str(tmp_path / "o"), "--dataset", "Foo") == 1
        assert "TSADV_UCR_ROOT" in capsys.readouterr().err


class TestPreparedSplits:
    """prepare writes each split as float64 ``values`` and int64 ``labels`` arrays,
    which every later stage reads as they are; only prepare parses text."""

    @pytest.mark.parametrize("source", ["power", "gappy-raw", "gappy-znorm", "synthetic"])
    def test_arrays_match_the_text_round_trip(self, tmp_path, source):
        """The arrays are what the stages read when prepare wrote text and each
        stage parsed it: save_ucr, then load_ucr and remap_labels per split."""
        from tsadv.cli import _load_chain, _load_split
        from tsadv.data import load_ucr, remap_labels, save_ucr

        if source == "synthetic":
            flags = ["--synthetic"]
        else:
            if source == "power":
                train, test = tmp_path / "Power_TRAIN.tsv", tmp_path / "Power_TEST.tsv"
                write_power_profile_archive(train, test, n_train=12, n_test=24, length=24, seed=5)
            else:
                files, _, _ = write_gappy_archive(tmp_path)
                train, test = files["TRAIN"], files["TEST"]
            flags = ["--train-file", str(train), "--test-file", str(test),
                     *(["--znorm"] if source == "gappy-znorm" else [])]
        out = str(tmp_path / "run")
        assert run("prepare", "--out", out, *flags) == 0
        for which in SPLITS:
            values, labels = prepared_split(out, which)
            split = _load_split(out, which, _load_chain(out, "prepare", "test"))
            text = tmp_path / f"{which}.tsv"
            save_ucr(split, text)
            raw_labels, rows = load_ucr(text)
            text_labels, label_map = remap_labels(raw_labels, split.name)
            text_values = np.array(rows)
            assert values.dtype == text_values.dtype == np.float64
            assert labels.dtype == text_labels.dtype == np.int64
            assert np.array_equal(values, text_values) and np.array_equal(labels, text_labels)
            assert split.label_map == label_map

    def test_only_prepare_parses_text(self, tmp_path, monkeypatch):
        """A black-box dtw1nn pipeline reads the two archive files once each, in
        prepare, and writes no text split."""
        import tsadv.data as data

        calls, command = [], [None]
        for name in ("load_ucr", "save_ucr"):
            def counting(*args, _name=name, _original=getattr(data, name), **kwargs):
                calls.append((_name, command[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(data, name, counting)
        train, test = tmp_path / "Power_TRAIN.tsv", tmp_path / "Power_TEST.tsv"
        write_power_profile_archive(train, test, n_train=30, n_test=120, length=24)
        out = str(tmp_path / "run")
        for argv in (("prepare", "--train-file", str(train), "--test-file", str(test)),
                     ("train-teacher", "--teacher", "dtw1nn"),
                     ("distill", "--box", "black", "--epochs", "1"),
                     (*BLACK_DTW_ATTACK,),
                     ("evaluate",)):
            command[0] = argv[0]
            assert run(*argv, "--out", out) == 0
        assert calls == [("load_ucr", "prepare"), ("load_ucr", "prepare")]


class TestLoadOnce:
    def test_each_stage_reads_each_manifest_and_hashes_each_file_once(self, tmp_path,
                                                                       monkeypatch):
        """Each command of a black-box dtw1nn pipeline, and of its rerun, reads each
        manifest at most once and hashes each file at most once, the config.json
        echo after its commit included; the first evaluate reads all five manifests
        and hashes every file of its four upstream stages and of its own, and a
        stage whose config changed hashes none of its old files."""
        import tsadv.cli as cli

        calls, command = [], [None]  # command: the running command
        for name in ("_read_manifest", "_file_sha256"):
            def counting(path, *args, _name=name, _original=getattr(cli, name)):
                calls.append((command[0], _name, os.path.relpath(path, out)))
                return _original(path, *args)

            monkeypatch.setattr(cli, name, counting)
        train, test = tmp_path / "Power_TRAIN.tsv", tmp_path / "Power_TEST.tsv"
        write_power_profile_archive(train, test, n_train=30, n_test=120, length=24)
        out = str(tmp_path / "run")
        for run_index in (1, 2):
            for argv in (("prepare", "--train-file", str(train), "--test-file", str(test)),
                         ("train-teacher", "--teacher", "dtw1nn"),
                         ("distill", "--box", "black", "--epochs", "1"),
                         (*BLACK_DTW_ATTACK,),
                         ("evaluate",)):
                command[0] = (run_index, argv[0])
                assert run(*argv, "--out", out) == 0
        command[0] = (3, "evaluate")
        assert run("evaluate", "--out", out, "--criterion", "unlabeled") == 0
        assert Counter(calls).most_common(1)[0][1] == 1
        assert not [path for stage, name, path in calls
                    if stage == (3, "evaluate") and name == "_file_sha256"
                    and path.startswith("reports" + os.sep)]
        evaluate = [(name, path) for stage, name, path in calls if stage == (1, "evaluate")]
        upstream = ("prepare", "teacher", "student", "attack")
        assert sorted(path for name, path in evaluate if name == "_read_manifest") == sorted(
            os.path.join(stage, "manifest.json") for stage in (*upstream, "reports"))
        # and, to record their digests, the files it wrote
        files = {stage: read_manifest(out, stage)["files"] for stage in (*upstream, "reports")}
        files[".reports.partial"] = files.pop("reports")
        assert sorted(path for name, path in evaluate if name == "_file_sha256") == sorted(
            os.path.join(stage, f) for stage, names in files.items() for f in names)


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
                  criterion="labeled", attack=None):
    """A run directory holding only reports/reports.json: one report per split,
    white-box FCN under the labeled criterion unless told otherwise; ``attack``,
    if given, is the provenance's block of attack settings."""
    from tsadv.reports import AttackReport, save_reports_json

    os.makedirs(out / "reports")
    reports = [AttackReport(dataset=dataset, box_mode=box_mode, teacher_kind=teacher_kind,
                            beta=0.01, num_adversaries=k, mse_adversaries=0.25 if k else None,
                            mse_all=0.125, split=split, criterion=criterion, n_evaluated=10)
               for split, k in (("d_eval", d_eval_count), ("d_test", 0))]
    save_reports_json(reports, out / "reports" / "reports.json",
                      provenance=None if attack is None else {"attack": attack})
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


# what a stage loads only to run: none of it belongs on the path to the up-to-date check
STAGE_ONLY_MODULES = ("numpy", "ctypes", "dataclasses", "inspect", "traceback", "csv",
                      "tsadv.reports")

# each is up to date in a finished black_dtw_run
UP_TO_DATE_STAGES = (("prepare", "--synthetic"), ("train-teacher", "--teacher", "dtw1nn"),
                     ("distill", "--box", "black", "--epochs", "1"), BLACK_DTW_ATTACK,
                     ("evaluate",))


class TestEntryPoint:
    """`python -m tsadv.cli` as a user runs it: a stage imports only what it runs."""

    @pytest.fixture(scope="class")
    def start_up(self, black_dtw_run, tmp_path_factory):
        """One fresh interpreter for each start-up path, run once for the class.

        Records (exit code, stdout, stderr, imported modules) for a bare
        interpreter, importing the CLI, every up-to-date stage, a rebuilt dtw1nn
        teacher stage, evaluate's refusal of a stale attack stage and distill's
        refusal of a teacher stage built from an older prepare stage, plus the
        rebuilt teacher's manifest.
        """
        out = copy_run(black_dtw_run, tmp_path_factory.mktemp("start_up"))
        runs = {"bare": fresh_interpreter("-c", "pass"),
                "import": fresh_interpreter("-c", "import tsadv.cli")}
        for argv in UP_TO_DATE_STAGES:
            runs[f"up-to-date {argv[0]}"] = fresh_interpreter("-m", "tsadv.cli", *argv,
                                                              "--out", out)
        shutil.rmtree(os.path.join(out, "teacher"))
        runs["dtw1nn train-teacher"] = fresh_interpreter(
            "-m", "tsadv.cli", "train-teacher", "--out", out, "--teacher", "dtw1nn")
        teacher_manifest = read_manifest(out, "teacher")
        assert run("distill", "--out", out, "--box", "black", "--epochs", "1",
                   "--seed-student", "7") == 0
        runs["stale attack refusal"] = fresh_interpreter("-m", "tsadv.cli", "evaluate",
                                                         "--out", out)
        assert run("prepare", "--out", out, "--synthetic", "--seed-split", "5") == 0
        runs["stale teacher refusal"] = fresh_interpreter(
            "-m", "tsadv.cli", "distill", "--out", out, "--box", "black", "--epochs", "1")
        return runs, teacher_manifest

    def test_import_leaves_numpy_out(self, start_up):
        code, _, _, imported = start_up[0]["import"]
        assert code == 0 and "tsadv.config" in imported
        assert not imports_numpy(imported)

    def test_up_to_date_stages_leave_numpy_out(self, start_up):
        for argv in UP_TO_DATE_STAGES:
            code, stdout, _, imported = start_up[0][f"up-to-date {argv[0]}"]
            assert code == 0 and "up to date" in stdout, argv
            assert "tsadv.config" in imported and not imports_numpy(imported), argv
            assert "ctypes" not in imported, argv

    def test_dtw_teacher_stage_leaves_numpy_out(self, start_up):
        runs, teacher_manifest = start_up
        code, stdout, _, imported = runs["dtw1nn train-teacher"]
        assert code == 0 and "up to date" not in stdout
        assert teacher_manifest["teacher_kind"] == "dtw1nn"
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

    def test_report_refuses_runs_of_different_attack_settings(self, tmp_path):
        settings = [{"alpha": alpha, "target_class": 1, "epochs": 100, "batch_size": 128,
                     "lr": 0.001, "betas": [0.01]} for alpha in (1.5, 3)]
        runs = [write_reports(tmp_path / f"alpha{j}-{i}", f"D{j}{i}", attack=attack)
                for j, attack in enumerate(settings) for i in range(3)]
        report_dir = tmp_path / "summary"
        code, _, err, _ = fresh_interpreter("-m", "tsadv.cli", "report",
                                            "--out", str(report_dir), "--runs", *runs)
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        setting = "alpha={} target_class=1 epochs=100 batch_size=128 lr=0.001 betas=[0.01] in "
        assert setting.format(1.5) + ", ".join(runs[:3]) in err
        assert setting.format(3) + ", ".join(runs[3:]) in err
        assert not report_dir.exists()
        # a run whose reports carry no attack settings is not checked
        unchecked = write_reports(tmp_path / "unchecked", "E")
        code, _, _, imported = fresh_interpreter("-m", "tsadv.cli", "report", "--out",
                                                 str(report_dir), "--runs", *runs[:3], unchecked)
        assert code == 0 and not imports_numpy(imported)
        assert json.loads((report_dir / "report.json").read_text())["provenance"] == {
            "runs": [*runs[:3], unchecked]}

    def test_stale_attack_stage_is_an_error_line(self, start_up):
        code, _, err, imported = start_up[0]["stale attack refusal"]
        assert code == 1
        assert err.startswith("error:") and "rerun `tsadv attack`" in err
        assert not imports_numpy(imported) and "ctypes" not in imported

    def test_stale_teacher_stage_is_an_error_line(self, start_up):
        code, stdout, err, imported = start_up[0]["stale teacher refusal"]
        assert code == 1 and "up to date" not in stdout
        assert err.startswith("error:") and "rerun `tsadv train-teacher`" in err
        assert not imports_numpy(imported) and "ctypes" not in imported

    def test_start_up_path_loads_no_stage_only_module(self, start_up):
        """Importing the CLI, every up-to-date stage, the dtw1nn teacher stage,
        evaluate's refusal of a stale attack stage and distill's refusal of a
        stale teacher stage load none of STAGE_ONLY_MODULES beyond what a bare
        interpreter has loaded already."""
        runs, teacher_manifest = start_up
        bare = runs["bare"][3]
        loaded = {}
        for name, (code, stdout, err, imported) in runs.items():
            if name == "bare":
                continue
            if name == "stale attack refusal":
                assert code == 1 and err.startswith("error:") and "rerun `tsadv attack`" in err
            elif name == "stale teacher refusal":
                assert code == 1 and err.startswith("error:")
                assert "rerun `tsadv train-teacher`" in err
            elif name == "dtw1nn train-teacher":
                assert code == 0 and "up to date" not in stdout
            else:
                assert code == 0 and (name == "import" or "up to date" in stdout), name
            loaded[name] = imported - bare
        assert "tsadv.config" in loaded["import"]
        assert teacher_manifest["teacher_kind"] == "dtw1nn"
        offending = {name: sorted(m for m in imported if m.split(".")[0] in STAGE_ONLY_MODULES
                                  or m in STAGE_ONLY_MODULES)
                     for name, imported in loaded.items()}
        assert offending == {name: [] for name in loaded}

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


# `python -c` program: `tsadv` with a teacher training that kills its own process on PowerB
KILLED_ON_POWER_B = """
import os, signal, sys
import tsadv.models as models
from tsadv.cli import main

train_classifier = models.train_classifier

def killed_on_power_b(model, dataset, hyper):
    if dataset.name == "PowerB":
        os.kill(os.getpid(), signal.SIGKILL)
    return train_classifier(model, dataset, hyper)

models.train_classifier = killed_on_power_b
sys.exit(main(sys.argv[1:]))
"""


def epochs_config(tmp_path, teacher_epochs, epochs):
    """A ``--config`` file giving batch's teacher and generator their epochs."""
    return write_config(tmp_path, {"train-teacher": {"epochs": teacher_epochs},
                                   "attack": {"epochs": epochs}})


class TestBatch:
    def test_two_dataset_batch_produces_report(self, tmp_path, monkeypatch):
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        assert run("--config", epochs_config(tmp_path, 30, 3), "batch", "--out-root", out_root,
                   "--box", "white", "--teacher", "fcn", "--datasets", "PowerA,PowerB") == 0
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        datasets = {r["dataset"] for r in report["reports"]}
        assert datasets == {"PowerA", "PowerB"}
        splits = {r["split"] for r in report["reports"]}
        assert splits == {"d_eval", "d_test"}

    def test_diverged_training_fails_one_dataset_only(self, tmp_path, monkeypatch, capfd):
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
        assert "error: non-finite loss" in capfd.readouterr().err
        out_root = str(tmp_path / "runs")
        assert run("--config", epochs_config(tmp_path, 5, 1), "batch", "--out-root", out_root,
                   "--box", "white", "--teacher", "fcn", "--datasets", "PowerA,PowerB",
                   "--processes", "2") == 1
        assert "PowerB" in capfd.readouterr().err
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["dataset"] for r in report["reports"]} == {"PowerA"}

    def test_unexpected_error_fails_one_dataset_only(self, tmp_path, monkeypatch, capfd):
        import tsadv.models as models

        train_classifier = models.train_classifier

        def crash_on_power_a(model, dataset, hyper):
            if dataset.name == "PowerA":
                raise RuntimeError("disk on fire")
            return train_classifier(model, dataset, hyper)

        monkeypatch.setattr(models, "train_classifier", crash_on_power_a)
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        assert run("--config", epochs_config(tmp_path, 5, 1), "batch", "--out-root", out_root,
                   "--box", "white", "--teacher", "fcn", "--datasets", "PowerA,PowerB") == 1
        err = capfd.readouterr().err
        assert "error: PowerA: disk on fire" in err
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["dataset"] for r in report["reports"]} == {"PowerB"}

    @pytest.mark.parametrize("processes", [[], ["--processes", "2"]],
                             ids=["one-at-a-time", "two-processes"])
    def test_killed_dataset_fails_alone(self, tmp_path, monkeypatch, processes):
        """A dataset whose process is killed fails alone; the batch neither hangs nor dies.

        Run from a process group of its own, so that a batch which hangs is
        ended, with every process it started, once the timeout passes.
        """
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_ON_POWER_B, "--config", epochs_config(tmp_path, 5, 1),
             "batch", "--out-root", out_root, "--box", "white", "--teacher", "fcn",
             "--datasets", "PowerA,PowerB", *processes],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        try:
            _, err = proc.communicate(timeout=90)
            with pytest.raises(ProcessLookupError):  # the batch left no process running
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == 1, err
        assert f"error: PowerB: killed by signal {int(signal.SIGKILL)}" in err
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["dataset"] for r in report["reports"]} == {"PowerA"}

    def test_failed_dataset_reported(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setenv("TSADV_UCR_ROOT", str(tmp_path / "nowhere"))
        assert run("batch", "--out-root", str(tmp_path / "runs"), "--box", "white",
                   "--teacher", "fcn", "--datasets", "Missing") == 1
        assert "Missing" in capfd.readouterr().err

    def test_config_sections_set_the_stages(self, tmp_path, monkeypatch):
        write_two_power_datasets(tmp_path, monkeypatch)
        out_root = str(tmp_path / "runs")
        cfg = write_config(tmp_path, {
            "prepare": {"seed-split": 2}, "train-teacher": {"epochs": 2, "seed-teacher": 4},
            "attack": {"alpha": 3.0, "epochs": 1}, "evaluate": {"criterion": "unlabeled"}})
        assert run("--config", cfg, "batch", "--out-root", out_root, "--box", "white",
                   "--teacher", "fcn", "--datasets", "PowerA") == 0
        with open(os.path.join(out_root, "PowerA", "config.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        assert config["prepare"]["seed_split"] == 2
        assert (config["teacher"]["epochs"], config["teacher"]["seed_teacher"]) == (2, 4)
        assert (config["attack"]["alpha"], config["attack"]["epochs"]) == (3.0, 1)
        assert config["reports"]["criterion"] == "unlabeled"
        report = json.load(open(os.path.join(out_root, "report", "report.json")))
        assert {r["criterion"] for r in report["reports"]} == {"unlabeled"}

    def test_every_command_gets_the_config_file_and_only_per_dataset_flags(
            self, tmp_path, monkeypatch):
        import tsadv.cli as cli

        started = []
        monkeypatch.setattr(cli, "_run_batch_jobs",
                            lambda jobs, processes: started.extend(jobs) or [0] * len(jobs))
        monkeypatch.setattr(cli, "main", lambda argv: started.append(("report", [argv])) or 0)
        cfg = write_config(tmp_path, {})
        root = str(tmp_path / "runs")
        assert run("--config", cfg, "batch", "--out-root", root, "--box", "black",
                   "--teacher", "dtw1nn", "--datasets", "A,B") == 0
        out = {name: os.path.join(root, name) for name in ("A", "B")}
        assert started == [
            *((name, [["--config", cfg, *argv, "--out", out[name]] for argv in (
                ["prepare", "--dataset", name], ["train-teacher", "--teacher", "dtw1nn"],
                ["distill", "--box", "black"],
                ["attack", "--box", "black", "--teacher", "dtw1nn", "--beta-grid"],
                ["evaluate"])]) for name in ("A", "B")),
            ("report", [["--config", cfg, "report", "--out", os.path.join(root, "report"),
                         "--runs", out["A"], out["B"]]])]

    def test_batch_takes_only_the_flags_it_sets_per_dataset(self):
        from tsadv.cli import build_parser

        batch = build_parser()[1]["batch"]
        assert [action.dest for action in batch._actions] == [
            "help", "out_root", "box", "teacher", "datasets", "processes"]
        assert batch.get_default("processes") == 1

    @pytest.mark.parametrize("processes", [["--processes", "0"], ["--processes", "-2"],
                                           "config section"],
                             ids=["zero", "negative", "config-section"])
    def test_processes_below_one_is_an_error_line(self, tmp_path, monkeypatch, capsys,
                                                  processes):
        write_two_power_datasets(tmp_path, monkeypatch)
        config = []
        if processes == "config section":
            processes = []
            config = ["--config", write_config(tmp_path, {"batch": {"processes": 0}})]
        out_root = tmp_path / "runs"
        assert run(*config, "batch", "--out-root", str(out_root), "--box", "white",
                   "--teacher", "fcn", "--datasets", "PowerA", *processes) == 1
        assert capsys.readouterr().err.startswith("error: --processes must be >= 1")
        assert not out_root.exists()


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
