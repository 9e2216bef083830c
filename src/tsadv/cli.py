"""Command-line pipeline: prepare -> train-teacher -> distill -> attack ->
evaluate -> report.

Every stage is run by :func:`_run_stage`: it is built beside its final
directory and swapped in whole once its manifest is written. The manifest
carries the hash of the stage's resolved configuration and lists the stage's
files; rerunning a stage with an unchanged configuration and all its files
present is a no-op. Stages written before manifests listed their files rerun
once. Flags override config-file values, and the fully resolved
configuration is echoed into the output directory.

The module imports only the stdlib and the numpy-free :mod:`tsadv.config` and
:mod:`tsadv.reports`; each stage imports the library it runs inside its
``write``, so an up-to-date stage never loads numpy, and neither does a
``report`` with no pair of variants to test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import replace

from .config import (BETA_GRID, AttackConfig, DistillConfig, TrainingDivergedError,
                     attacks_teacher, config_hash)
from .reports import load_reports_json, replacing, save_reports_csv, save_reports_json

UCR_ROOT_ENV = "TSADV_UCR_ROOT"
# what the attack stage showed the teacher on d_eval, kept for evaluate
D_EVAL_OUTPUTS = "d_eval_outputs.npz"
DELIMITERS = {"tab": "\t", "comma": ",", "space": None}  # None: runs of whitespace

# sensor / ECG / EOG / hemodynamics datasets of the 2018 archive, the slice
# where an adversarial attack is a plausible security concern
DEFAULT_BATCH_DATASETS = (
    "Car", "ChlorineConcentration", "CinCECGTorso", "Earthquakes", "ECG200",
    "ECG5000", "ECGFiveDays", "FordA", "FordB", "InsectWingbeatSound",
    "ItalyPowerDemand", "Lightning2", "Lightning7", "MoteStrain",
    "NonInvasiveFetalECGThorax1", "NonInvasiveFetalECGThorax2", "Phoneme",
    "Plane", "SonyAIBORobotSurface1", "SonyAIBORobotSurface2",
    "StarLightCurves", "Trace", "TwoLeadECG", "Wafer", "AllGestureWiimoteX",
    "AllGestureWiimoteY", "AllGestureWiimoteZ", "DodgerLoopDay",
    "DodgerLoopGame", "DodgerLoopWeekend", "EOGHorizontalSignal",
    "EOGVerticalSignal", "FreezerRegularTrain", "FreezerSmallTrain", "Fungi",
    "GesturePebbleZ1", "GesturePebbleZ2", "PickupGestureWiimoteZ",
    "PigAirwayPressure", "PigArtPressure", "PigCVP", "ShakeGestureWiimoteZ",
)


class MissingArtifactError(FileNotFoundError):
    pass


def _write_json(path: str, obj) -> None:
    """Write through a temporary file, so that ``path`` is never left half written."""
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_STAGE_COMMANDS = {"prepare": "prepare", "teacher": "train-teacher", "student": "distill",
                   "attack": "attack", "reports": "evaluate"}


def _load_manifest(out: str, stage: str, needed_by: str) -> dict:
    path = os.path.join(out, stage, "manifest.json")
    command = _STAGE_COMMANDS[stage]
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"{needed_by} needs the {stage} stage; run `tsadv {command}` first (missing {path})")
    manifest = _read_json(path)
    for name in manifest.get("files", []):
        if not os.path.exists(os.path.join(out, stage, name)):
            raise MissingArtifactError(
                f"{needed_by} needs {os.path.join(out, stage, name)}, which the {stage} stage "
                f"lists but lacks; rerun `tsadv {command}` first")
    return manifest


def _run_stage(out: str, stage: str, cfg: dict, write: Callable[[str], dict]) -> None:
    """Run one stage into ``out/<stage>`` unless it is up to date for ``cfg``.

    ``write(path)`` writes the stage's files into ``path`` and returns the
    stage's own manifest fields. The stage is built in ``out/.<stage>.partial``
    and replaces ``out/<stage>`` only once its manifest is written.
    """
    cfg_hash = config_hash(cfg)
    final = os.path.join(out, stage)
    manifest_path = os.path.join(final, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = _read_json(manifest_path)
        if (manifest.get("config_hash") == cfg_hash and "files" in manifest
                and all(os.path.exists(os.path.join(final, f)) for f in manifest["files"])):
            print(f"[{stage}] up to date (config {cfg_hash}), skipping")
            return
    partial = os.path.join(out, f".{stage}.partial")
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    try:
        fields = write(partial)
        _write_json(os.path.join(partial, "manifest.json"),
                    {**fields, "config_hash": cfg_hash, "config": cfg,
                     "files": sorted(os.listdir(partial))})
        shutil.rmtree(final, ignore_errors=True)
        os.rename(partial, final)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    # rebuilt from the committed manifests, so a damaged echo never fails a later stage
    echoed = {}
    for name in _STAGE_COMMANDS:
        path = os.path.join(out, name, "manifest.json")
        if os.path.exists(path):
            echoed[name] = _read_json(path)["config"]
    _write_json(os.path.join(out, "config.json"), echoed)


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory in the process, for a stage that runs a network.

    By default glibc unmaps a freed buffer above its mmap threshold and trims
    the heap's free top, so each whole-split pass faults its 1-16 MB buffers
    back in 4 KiB at a time. M_MMAP_THRESHOLD (-3) is set first, to glibc's
    64-bit maximum of 32 MiB, since setting M_TRIM_THRESHOLD (-1) alone would
    freeze it at 128 KiB. A libc without ``mallopt``, or whose ``mallopt``
    refuses (returns 0), is left as it is.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):
        mallopt(-1, 1 << 30)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _resolve_files(args) -> tuple[str, str]:
    if args.train_file and args.test_file:
        return args.train_file, args.test_file
    if args.dataset:
        root = os.environ.get(UCR_ROOT_ENV)
        if not root:
            raise MissingArtifactError(
                f"--dataset needs the archive root; set {UCR_ROOT_ENV} or pass --train-file/--test-file")
        base = os.path.join(root, args.dataset, args.dataset)
        return base + "_TRAIN.tsv", base + "_TEST.tsv"
    raise MissingArtifactError("pass --train-file and --test-file, or --dataset with the archive root set")


def cmd_prepare(args) -> int:
    if args.synthetic:
        dataset_name, files = "bumps", None
    else:
        train_file, test_file = _resolve_files(args)
        for path in (train_file, test_file):
            if not os.path.exists(path):
                raise MissingArtifactError(f"data file not found: {path}")
        dataset_name = os.path.basename(args.dataset or os.path.dirname(train_file) or "dataset")
        # the files' bytes too: data rewritten in place must not look current
        files = [{"path": os.path.abspath(path), "sha256": _file_sha256(path)}
                 for path in (train_file, test_file)]
    cfg = {"dataset": dataset_name, "seed_split": args.seed_split, "znorm": args.znorm,
           "synthetic": args.synthetic, "files": files}

    def write(stage: str) -> dict:
        from .data import load_ucr, preprocess_dataset, remap_labels, save_ucr, stratified_split
        from .synthetic import make_bump_dataset

        if args.synthetic:
            teacher_train = make_bump_dataset(n_per_class=32, length=32,
                                              seed=args.seed_split + 100, name="bumps-train")
            pool = make_bump_dataset(n_per_class=64, length=32, seed=args.seed_split + 200,
                                     name="bumps")
        else:
            delimiter = DELIMITERS[args.delimiter]
            teacher_train = remap_labels(load_ucr(train_file, delimiter))
            pool = remap_labels(load_ucr(test_file, delimiter))
            if teacher_train.label_map != pool.label_map:  # each file was remapped alone
                raise ValueError(f"train file labels {sorted(teacher_train.label_map)} differ "
                                 f"from test file labels {sorted(pool.label_map)}")
            target_len = max(max(len(s) for s in teacher_train.series),
                             max(len(s) for s in pool.series))
            teacher_train = preprocess_dataset(teacher_train, target_len, znorm=args.znorm)
            pool = preprocess_dataset(pool, target_len, znorm=args.znorm)
        split = stratified_split(pool, seed=args.seed_split)
        save_ucr(teacher_train, os.path.join(stage, "teacher_train.tsv"))
        save_ucr(split.d_eval, os.path.join(stage, "d_eval.tsv"))
        save_ucr(split.d_test, os.path.join(stage, "d_test.tsv"))
        print(f"[prepare] {dataset_name}: train={len(teacher_train)} "
              f"d_eval={len(split.d_eval)} d_test={len(split.d_test)}")
        return {
            "length": teacher_train.length,
            "num_classes": pool.num_classes,
            "label_map": {str(k): v for k, v in pool.label_map.items()},
            "counts": {"teacher_train": len(teacher_train), "d_eval": len(split.d_eval),
                       "d_test": len(split.d_test)},
            "class_counts": {"d_eval": dict(Counter(split.d_eval.labels.tolist())),
                             "d_test": dict(Counter(split.d_test.labels.tolist()))},
        }

    _run_stage(args.out, "prepare", cfg, write)
    return 0


def _load_split(out: str, which: str, needed_by: str):
    from .data import Dataset, load_ucr, remap_labels

    manifest = _load_manifest(out, "prepare", needed_by)
    loaded = remap_labels(load_ucr(os.path.join(out, "prepare", f"{which}.tsv")))
    # file basenames are stage-local; reports must carry the dataset's name
    return Dataset(name=manifest["config"]["dataset"], series=loaded.series,
                   label_map=loaded.label_map)


def cmd_train_teacher(args) -> int:
    out = args.out
    prep = _load_manifest(out, "prepare", "train-teacher")
    cfg = {"teacher": args.teacher, "prepare": prep["config_hash"]}
    if args.teacher == "fcn":  # the 1-NN DTW teacher reads none of the training flags
        cfg.update(seed_teacher=args.seed_teacher, epochs=args.epochs, batch_size=args.batch_size,
                   lr=args.lr, early_stop_acc=args.early_stop_acc)

    def write(stage: str) -> dict:
        if args.teacher != "fcn":
            print(f"[train-teacher] {args.teacher} ready")
            # the 1-NN DTW teacher *is* its reference set
            return {"teacher_kind": args.teacher, "reference": "prepare/teacher_train.tsv"}
        from .models import ArchitectureConfig, TrainConfig, build_fcn, train_classifier
        from .nn import save_model

        _keep_freed_memory()
        train_set = _load_split(out, "teacher_train", "train-teacher")
        model = build_fcn(ArchitectureConfig(input_length=train_set.length,
                                             num_classes=train_set.num_classes,
                                             architecture="fcn", seed=args.seed_teacher))
        train_classifier(model, train_set, TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
            seed=args.seed_teacher, early_stop_acc=args.early_stop_acc))
        save_model(model, os.path.join(stage, "fcn.npz"))
        accuracy = model.training_log[-1]["accuracy"]
        print(f"[train-teacher] {args.teacher} ready, train acc {accuracy:.3f}")
        return {"teacher_kind": args.teacher, "train_accuracy": accuracy,
                "epochs_run": len(model.training_log), "state_hash": model.state_hash()}

    _run_stage(out, "teacher", cfg, write)
    return 0


def _load_teacher(out: str, needed_by: str):
    from .nn import load_model
    from .teachers import DTW1NNTeacher, FCNTeacher

    if _load_manifest(out, "teacher", needed_by)["teacher_kind"] == "fcn":
        return FCNTeacher(load_model(os.path.join(out, "teacher", "fcn.npz")))
    return DTW1NNTeacher.from_dataset(_load_split(out, "teacher_train", needed_by))


def cmd_distill(args) -> int:
    out = args.out
    teacher_manifest = _load_manifest(out, "teacher", "distill")
    if attacks_teacher(args.box, teacher_manifest["teacher_kind"]):
        raise ValueError(f"a {args.box}-box attack on the {teacher_manifest['teacher_kind']} "
                         f"teacher differentiates through the teacher itself and reads no student")
    kwargs = dict(tau=args.tau, epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                  seed=args.seed_student)
    config = (DistillConfig.for_box_mode(args.box, **kwargs) if args.gamma is None
              else DistillConfig(gamma=args.gamma, **kwargs))
    cfg = {"box": args.box, "gamma": config.gamma, "tau": args.tau, "epochs": args.epochs,
           "seed_student": args.seed_student, "batch_size": args.batch_size, "lr": args.lr,
           "teacher": teacher_manifest["config_hash"]}

    def write(stage: str) -> dict:
        import numpy as np
        from .distill import teacher_outputs, train_student
        from .models import ArchitectureConfig, build_lenet5_1d
        from .nn import save_model

        _keep_freed_memory()
        teacher = _load_teacher(out, "distill")
        d_eval = _load_split(out, "d_eval", "distill")
        mode = "soft" if args.box == "white" else "hard"
        outputs = teacher_outputs(teacher, d_eval.values, mode=mode)
        np.savez(os.path.join(stage, "teacher_outputs.npz"),
                 mode=np.array(mode), hard_labels=outputs.hard_labels,
                 **({"soft_probs": outputs.soft_probs} if outputs.soft_probs is not None else {}))
        student = build_lenet5_1d(ArchitectureConfig(
            input_length=d_eval.length, num_classes=teacher.num_classes,
            architecture="lenet5", seed=args.seed_student))
        train_student(student, d_eval.values, outputs, config)
        save_model(student, os.path.join(stage, "student.npz"))
        fidelity = student.training_log[-1]["best_fidelity"]
        print(f"[distill] student fidelity {fidelity:.3f} ({mode} targets)")
        return {"mode": mode, "fidelity": fidelity, "state_hash": student.state_hash(),
                "teacher_calls": dict(teacher.calls)}

    _run_stage(out, "student", cfg, write)
    return 0


def _student_manifest(out: str, box: str, teacher_kind: str, teacher_hash: str,
                      needed_by: str, attack: dict | None = None) -> dict | None:
    """Manifest of the distilled student an attack of this kind goes after, if any.

    This is the numpy-free check `attack` and `evaluate` make before they load
    a network. The student must have been distilled from the teacher stage
    whose config hash is ``teacher_hash``, and a black-box attack accepts only
    a student distilled from hard labels. ``attack``, the config of an attack
    stage, must have been run against that teacher stage and this student.
    """
    student = None
    if not attacks_teacher(box, teacher_kind):
        student = _load_manifest(out, "student", needed_by)
        if student["config"]["teacher"] != teacher_hash:
            raise MissingArtifactError(
                f"{needed_by} needs a student distilled from the current teacher stage; "
                f"rerun `tsadv distill` first")
        if box == "black" and student["mode"] != "hard":
            raise MissingArtifactError(
                f"black-box {needed_by} needs a student distilled from hard labels, but the "
                f"student stage used {student['mode']} targets; rerun `tsadv distill --box black` "
                f"first")
    if attack is not None:
        for stage, used, current in (
                ("teacher", attack.get("teacher_hash"), teacher_hash),
                ("student", attack.get("student_hash"),
                 None if student is None else student["state_hash"])):
            if used != current:
                raise MissingArtifactError(
                    f"{needed_by} needs an attack stage run against the current {stage} stage; "
                    f"rerun `tsadv attack` first")
    return student


def cmd_attack(args) -> int:
    out = args.out
    teacher_manifest = _load_manifest(out, "teacher", "attack")
    if teacher_manifest["teacher_kind"] != args.teacher:
        raise MissingArtifactError(
            f"teacher stage trained {teacher_manifest['teacher_kind']!r}; rerun train-teacher "
            f"for {args.teacher!r}")
    betas = list(BETA_GRID) if args.beta_grid else [args.beta]
    base = AttackConfig(box_mode=args.box, teacher_kind=args.teacher, alpha=args.alpha,
                        beta=betas[0], target_class=args.target_class, seed=args.seed_gatn,
                        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr)
    student = _student_manifest(out, args.box, args.teacher, teacher_manifest["config_hash"],
                                "attack")
    # a student distilled from hard labels kept the teacher's clean d_eval
    # labels; soft targets are not reused, since argmax(soft_1nn) may break a
    # distance tie differently from nn1_classify
    labels_path = os.path.join(out, "student", "teacher_outputs.npz")
    reuse_labels = student is not None and student["mode"] == "hard"
    cfg = {"box": args.box, "teacher": args.teacher, "alpha": args.alpha, "betas": betas,
           "target_class": args.target_class, "seed_gatn": args.seed_gatn,
           "epochs": args.epochs, "batch_size": args.batch_size, "lr": args.lr,
           "teacher_hash": teacher_manifest["config_hash"],
           "student_hash": student["state_hash"] if student else None,
           "clean_labels_sha256": _file_sha256(labels_path) if reuse_labels else None}

    def write(stage: str) -> dict:
        import numpy as np
        from .attack import beta_grid_search, select_surrogate
        from .nn import load_model, save_model

        _keep_freed_memory()
        teacher = _load_teacher(out, "attack")
        surrogate = select_surrogate(base, teacher, None if student is None else load_model(
            os.path.join(out, "student", "student.npz")))
        d_eval = _load_split(out, "d_eval", "attack")
        pred_clean = None
        if reuse_labels:
            with np.load(labels_path) as saved:
                pred_clean = saved["hard_labels"]
        runs, reports, best, outputs = beta_grid_search(
            base, d_eval, teacher, surrogate, betas=tuple(betas), pred_clean=pred_clean)
        gatn_files = [f"gatn_beta_{beta:.0e}.npz" for beta in betas]
        for run, fname in zip(runs, gatn_files):
            save_model(run.gatn, os.path.join(stage, fname))
        np.savez(os.path.join(stage, D_EVAL_OUTPUTS), **outputs)
        save_reports_json(reports, os.path.join(stage, "grid_reports.json"),
                          provenance={"dataset": d_eval.name, "out": out})
        print(f"[attack] best beta {betas[best]:.0e}: "
              f"{reports[best].num_adversaries}/{reports[best].n_evaluated} d_eval adversaries")
        return {"betas": betas, "gatn_files": gatn_files, "best_index": best,
                "best_beta": betas[best],
                "surrogate_is_teacher": attacks_teacher(args.box, args.teacher),
                "gatn_state_hashes": [run.gatn.state_hash() for run in runs],
                "teacher_calls": dict(teacher.calls)}

    _run_stage(out, "attack", cfg, write)
    return 0


def cmd_evaluate(args) -> int:
    """Count adversaries on both splits.

    d_eval's counts are made again from the teacher labels and series the
    attack stage saved, with no model run; only d_test is shown to the
    surrogate and the teacher, each once for its clean series (one pass for
    both when the surrogate is the FCN teacher, see ``attack.clean_labels``).
    """
    out = args.out
    attack_manifest = _load_manifest(out, "attack", "evaluate")
    acfg = attack_manifest["config"]
    teacher_hash = _load_manifest(out, "teacher", "evaluate")["config_hash"]
    student = _student_manifest(out, acfg["box"], acfg["teacher"], teacher_hash, "evaluate",
                                attack=acfg)
    cfg = {"attack": attack_manifest["config_hash"],
           "gatn_state_hashes": attack_manifest["gatn_state_hashes"],
           "teacher_hash": teacher_hash,
           "student_hash": student["state_hash"] if student else None,
           "criterion": args.criterion, "all_betas": args.all_betas}

    def write(stage: str) -> dict:
        import numpy as np
        from .attack import AttackRun, clean_labels, select_surrogate, surrogate_signal
        from .evaluate import count_adversaries, generalization_eval
        from .nn import load_model

        _keep_freed_memory()
        outputs_path = os.path.join(out, "attack", D_EVAL_OUTPUTS)
        if not os.path.exists(outputs_path):
            raise MissingArtifactError(
                f"evaluate needs {outputs_path}, which this attack stage does not have; "
                f"rerun `tsadv attack` first")
        base = AttackConfig(box_mode=acfg["box"], teacher_kind=acfg["teacher"],
                            alpha=acfg["alpha"], target_class=acfg["target_class"],
                            seed=acfg["seed_gatn"])
        teacher = _load_teacher(out, "evaluate")
        surrogate = select_surrogate(base, teacher, None if student is None else load_model(
            os.path.join(out, "student", "student.npz")))
        d_eval = _load_split(out, "d_eval", "evaluate")
        d_test = _load_split(out, "d_test", "evaluate")
        with np.load(outputs_path) as saved:
            eval_clean, eval_x_hat, eval_adv = (saved["clean_labels"], saved["x_hat"],
                                                saved["adv_labels"])
        betas = attack_manifest["betas"]
        indices = range(len(betas)) if args.all_betas else [attack_manifest["best_index"]]
        runs = [AttackRun(replace(base, beta=betas[i]), surrogate, load_model(
            os.path.join(out, "attack", attack_manifest["gatn_files"][i]))) for i in indices]
        test_signal = surrogate_signal(surrogate, d_test.values, base.target_class,
                                       runs[0].gatn.parameters()[0].dtype)
        test_clean = clean_labels(teacher, surrogate, d_test.values, test_signal)
        reports = []
        for i, run in zip(indices, runs):
            reports.append(count_adversaries(args.criterion, d_eval.values, eval_x_hat[i],
                                             d_eval.labels, eval_clean, eval_adv[i], run.config,
                                             d_eval.name, "d_eval"))
            reports.append(generalization_eval(run, teacher, d_test, args.criterion,
                                               test_signal, test_clean))
        save_reports_csv(reports, os.path.join(stage, "reports.csv"))
        save_reports_json(reports, os.path.join(stage, "reports.json"),
                          provenance={"out": out, "criterion": args.criterion})
        for r in reports:
            print(f"[evaluate] {r.split:7s} beta={r.beta:.0e} criterion={r.criterion}: "
                  f"{r.num_adversaries}/{r.n_evaluated} adversaries, mse_all={r.mse_all:.4f}")
        return {"n_reports": len(reports), "teacher_calls": dict(teacher.calls)}

    _run_stage(out, "reports", cfg, write)
    return 0


def cmd_report(args) -> int:
    def variant(r) -> str:
        return f"{r.box_mode}-{r.teacher_kind}"

    all_reports = []
    eval_reports = {}  # (variant, dataset) -> (run directory, d_eval report)
    runs_by_criterion = {}
    for run_dir in args.runs:
        path = os.path.join(run_dir, "reports", "reports.json")
        if not os.path.exists(path):
            raise MissingArtifactError(f"no reports in {run_dir}; run `tsadv evaluate` first")
        reports, _ = load_reports_json(path)
        all_reports.extend(reports)
        for criterion in dict.fromkeys(r.criterion for r in reports):
            runs_by_criterion.setdefault(criterion, []).append(run_dir)
        for r in [r for r in reports if r.split == "d_eval"]:
            key = (variant(r), r.dataset)
            if key in eval_reports:  # a Wilcoxon vector holds one count per dataset
                raise ValueError(
                    f"two d_eval reports of {key[0]} on {r.dataset!r}, in {eval_reports[key][0]} "
                    f"and in {run_dir}; report takes one per variant and dataset (one seed per "
                    f"dataset, evaluated without --all-betas)")
            eval_reports[key] = run_dir, r
    if len(runs_by_criterion) > 1:  # an unlabeled count is never below the labeled one
        mix = "; ".join(f"{c} in {', '.join(runs)}" for c, runs in runs_by_criterion.items())
        raise ValueError(f"runs evaluated under different criteria ({mix}); report compares "
                         f"runs of one --criterion only")
    os.makedirs(args.out, exist_ok=True)
    save_reports_csv(all_reports, os.path.join(args.out, "report.csv"))
    save_reports_json(all_reports, os.path.join(args.out, "report.json"),
                      provenance={"runs": list(args.runs)})

    for split, tag in (("d_eval", "counts"), ("d_test", "generalization")):
        rows = [r for r in all_reports if r.split == split]
        with replacing(os.path.join(args.out, f"plot_{tag}.csv"), newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["dataset", "variant", "beta", "num_adversaries", "mse_adversaries",
                             "mse_all"])
            for r in rows:
                mse_adv = "" if r.mse_adversaries is None else repr(r.mse_adversaries)
                writer.writerow([r.dataset, variant(r), repr(r.beta), r.num_adversaries, mse_adv,
                                 repr(r.mse_all)])
    datasets = sorted({dataset for _, dataset in eval_reports})
    # the variants with a d_eval report on every dataset; fewer than two make no pair
    variants = [v for v in dict.fromkeys(v for v, _ in eval_reports)
                if all((v, d) in eval_reports for d in datasets)]
    for name, value in (("wilcoxon_counts", lambda r: r.num_adversaries),
                        ("wilcoxon_mse", lambda r: float("nan") if r.mse_adversaries is None
                         else r.mse_adversaries)):
        rows = []
        if len(variants) > 1:
            from .evaluate import pairwise_wilcoxon

            rows = pairwise_wilcoxon({v: [value(eval_reports[v, d][1]) for d in datasets]
                                      for v in variants})
        _write_json(os.path.join(args.out, f"{name}.json"), rows)
        print(f"[report] {name}: {len(rows)} pairwise entries over {len(datasets)} datasets")
    print(f"[report] aggregated {len(all_reports)} reports from {len(args.runs)} run(s)")
    return 0


def _batch_worker(job) -> tuple[str, int]:
    """Run one dataset's stages; any error fails that dataset alone."""
    dataset, argv_per_stage = job
    try:
        for argv in argv_per_stage:
            code = main(argv)
            if code != 0:
                return dataset, code
    except Exception as exc:
        traceback.print_exc()
        print(f"error: {dataset}: {exc}", file=sys.stderr)
        return dataset, 1
    return dataset, 0


def cmd_batch(args) -> int:
    """Run the whole pipeline per dataset under one root, then aggregate."""
    datasets = args.datasets.split(",") if args.datasets else list(DEFAULT_BATCH_DATASETS)
    jobs = []
    for name in datasets:
        out = os.path.join(args.out_root, name)
        stages = [
            ["prepare", "--out", out, "--dataset", name, "--delimiter", args.delimiter,
             "--seed-split", str(args.seed_split)] + (["--znorm"] if args.znorm else []),
            ["train-teacher", "--out", out, "--teacher", args.teacher,
             "--epochs", str(args.teacher_epochs)],
            ["attack", "--out", out, "--box", args.box, "--teacher", args.teacher,
             "--alpha", str(args.alpha), "--target-class", str(args.target_class),
             "--epochs", str(args.epochs), "--beta-grid"],
            ["evaluate", "--out", out],
        ]
        if not attacks_teacher(args.box, args.teacher):
            stages.insert(2, ["distill", "--out", out, "--box", args.box,
                              "--epochs", str(args.student_epochs)])
        jobs.append((name, stages))
    if args.processes and args.processes > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(args.processes) as pool:
            results = pool.map(_batch_worker, jobs)
    else:
        results = [_batch_worker(job) for job in jobs]
    failed = [name for name, code in results if code != 0]
    done = [os.path.join(args.out_root, name) for name, code in results if code == 0]
    report_code = 0
    if done:
        report_code = main(["report", "--out", os.path.join(args.out_root, "report"),
                            "--runs", *done])
    if failed:
        print(f"error: {len(failed)} dataset(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return report_code


def _add_common_train_flags(p, default_epochs: int):
    p.add_argument("--epochs", type=int, default=default_epochs)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `tsadv` parser, and its subparsers by command name."""
    parser = argparse.ArgumentParser(prog="tsadv",
                                     description="Adversarial attacks on time series classifiers")
    parser.add_argument("--config", help="JSON file of flag defaults (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load, preprocess and split a dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", help=f"archive dataset name under ${UCR_ROOT_ENV}")
    p.add_argument("--train-file")
    p.add_argument("--test-file")
    p.add_argument("--synthetic", action="store_true", help="use the built-in bump dataset")
    p.add_argument("--delimiter", choices=sorted(DELIMITERS), default="tab")
    p.add_argument("--znorm", action="store_true")
    p.add_argument("--seed-split", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-teacher", help="train the attacked model")
    p.add_argument("--out", required=True)
    p.add_argument("--teacher", choices=["fcn", "dtw1nn"], required=True)
    p.add_argument("--seed-teacher", type=int, default=0)
    p.add_argument("--early-stop-acc", type=float, default=None)
    _add_common_train_flags(p, default_epochs=200)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="train the student surrogate")
    p.add_argument("--out", required=True)
    p.add_argument("--box", choices=["white", "black"], required=True)
    p.add_argument("--gamma", type=float, default=None,
                   help="defaults to 0.5 (white) or 1.0 (black)")
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--seed-student", type=int, default=0)
    _add_common_train_flags(p, default_epochs=200)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("attack", help="train the adversarial generator(s)")
    p.add_argument("--out", required=True)
    p.add_argument("--box", choices=["white", "black"], required=True)
    p.add_argument("--teacher", choices=["fcn", "dtw1nn"], required=True)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--beta", type=float, default=1e-2)
    p.add_argument("--beta-grid", action="store_true",
                   help="train one generator per beta in {1e-1..1e-5}")
    p.add_argument("--target-class", type=int, default=1)
    p.add_argument("--seed-gatn", type=int, default=0)
    _add_common_train_flags(p, default_epochs=100)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="count adversaries on both splits")
    p.add_argument("--out", required=True)
    p.add_argument("--criterion", choices=["labeled", "unlabeled"], default="labeled")
    p.add_argument("--all-betas", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate run directories into comparison tables")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("batch", help="whole pipeline over many archive datasets")
    p.add_argument("--out-root", required=True)
    p.add_argument("--box", choices=["white", "black"], required=True)
    p.add_argument("--teacher", choices=["fcn", "dtw1nn"], required=True)
    p.add_argument("--datasets", help="comma-separated names; defaults to the sensor/ECG/EOG/"
                                      "hemodynamics list")
    p.add_argument("--delimiter", choices=sorted(DELIMITERS), default="tab")
    p.add_argument("--znorm", action="store_true")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--target-class", type=int, default=1)
    p.add_argument("--seed-split", type=int, default=0)
    p.add_argument("--teacher-epochs", type=int, default=200)
    p.add_argument("--student-epochs", type=int, default=200)
    p.add_argument("--epochs", type=int, default=100, help="generator epochs")
    p.add_argument("--processes", type=int, default=None,
                   help="datasets run in parallel worker processes")
    p.set_defaults(func=cmd_batch)
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, with the ``--config`` file's values as the command's flag defaults.

    A file with a top-level key that names a command holds one section per
    command, and a command without a section takes no defaults; any other
    file is the defaults of every command. Flags on the command line win.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            defaults = _read_json(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc.strerror}") from None
        if not isinstance(defaults, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        if not commands.keys().isdisjoint(defaults):
            defaults = defaults.get(args.command, {})
            if not isinstance(defaults, dict):
                raise ValueError(f"config section {args.command!r} must be a JSON object")
        for key, value in defaults.items():
            dest = key.replace("-", "_")
            if dest not in vars(args) or dest in ("command", "func"):
                raise ValueError(f"config key {key!r} is not a flag of `tsadv {args.command}`")
            commands[args.command].set_defaults(**{dest: value})
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (MissingArtifactError, ValueError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
