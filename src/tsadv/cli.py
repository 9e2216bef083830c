"""Command-line pipeline: prepare -> train-teacher -> distill -> attack ->
evaluate -> report.

Every stage is run by :func:`_run_stage`: it is built beside its final
directory and swapped in whole once its manifest is written. The manifest
holds the hash of the stage's resolved configuration, whose ``upstream`` maps
each stage the stage read to that stage's config hash, and the sha256 digest
of each of its files. A stage is up to date while both match; a reader loads
the stages it reads once, through :func:`_load_chain`, which refuses one that
does not match, naming the command to rerun.
Flags override the ``--config`` file's section for the command, and
the fully resolved configuration is echoed into the output directory.

The module imports only :mod:`tsadv.config` and stdlib modules that an
up-to-date check needs; each stage imports the library it runs, and builds
its ``AttackConfig`` or ``DistillConfig``, inside its ``write``, so an
up-to-date stage loads neither numpy nor ``dataclasses``, ``traceback``,
``csv`` or :mod:`tsadv.reports`, and a ``report`` with no pair of variants
to test loads no numpy. ``batch`` runs each dataset in a forked process of
its own, so a dataset whose process dies fails alone, and passes its
``--config`` file, the one source of stage settings, to every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from collections import Counter
from collections.abc import Callable

from .config import (BETA_GRID, DISTILL_GAMMA, TrainingDivergedError, attacks_teacher,
                     config_hash, replacing)

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
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ValueError(f"cannot read JSON file {path}: {exc}") from None


_STAGE_COMMANDS = {"prepare": "prepare", "teacher": "train-teacher", "student": "distill",
                   "attack": "attack", "reports": "evaluate"}
_MANIFEST_FIELDS = {"config_hash": str, "config": dict, "files": dict}
# the fields of a stage's own that the stages reading it index
_STAGE_FIELDS = {"prepare": {"label_map": dict}, "teacher": {"teacher_kind": str},
                 "student": {"mode": str},
                 "attack": {"betas": list, "best_index": int, "gatn_files": list}}


def _read_manifest(path: str, stage: str) -> dict:
    """The manifest at ``path``; a ValueError naming the file unless it holds
    _MANIFEST_FIELDS and the stage's _STAGE_FIELDS."""
    manifest = _read_json(path)
    fields = {**_MANIFEST_FIELDS, **_STAGE_FIELDS.get(stage, {})}
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), t) for k, t in fields.items())):
        raise ValueError(f"{path} is not a stage manifest, a JSON object holding "
                         f"{', '.join(fields)}")
    return manifest


def _changed_file(out: str, stage: str, manifest: dict) -> str | None:
    """The first file ``manifest`` lists that is missing from ``out/<stage>`` or
    lacks the sha256 digest it records, or None if there is none."""
    for name, digest in manifest["files"].items():
        path = os.path.join(out, stage, name)
        if not os.path.isfile(path) or _file_sha256(path) != digest:
            return path
    return None


def _committed_manifest(out: str, stage: str) -> dict | None:
    """The manifest of ``out/<stage>``, or None if there is none or it is damaged."""
    try:
        return _read_manifest(os.path.join(out, stage, "manifest.json"), stage)
    except ValueError:
        return None


def _load_chain(out: str, stage: str, needed_by: str, chain: dict | None = None) -> dict:
    """``chain`` with the manifests of ``out/<stage>`` and of each stage it recorded
    added by name, none read twice; a stage is refused unless _read_manifest takes
    its manifest, every file it lists is unchanged, and each stage its config's
    ``upstream`` records loads too and still has the config hash recorded there."""
    chain = {} if chain is None else chain
    path = os.path.join(out, stage, "manifest.json")
    command = _STAGE_COMMANDS[stage]
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"{needed_by} needs the {stage} stage; run `tsadv {command}` first (missing {path})")
    try:
        manifest = _read_manifest(path, stage)
    except ValueError as exc:
        raise ValueError(f"{exc}; rerun `tsadv {command}` first") from None
    upstream = manifest["config"].get("upstream", {} if stage == "prepare" else None)
    if not isinstance(upstream, dict):
        raise MissingArtifactError(
            f"{needed_by} needs the {stage} stage rebuilt, since {path} records no upstream "
            f"stages; rerun `tsadv {command}` first")
    # every recorded stage is checked before any is compared, so the error
    # names the first command of the chain that needs to run again
    for name in upstream:
        if name not in chain and os.path.exists(os.path.join(out, name, "manifest.json")):
            _load_chain(out, name, needed_by, chain)
    changed = _changed_file(out, stage, manifest)
    if changed is not None:
        raise ValueError(f"cannot load {changed}: missing or changed since the {stage} stage "
                         f"wrote it; rerun `tsadv {command}` first")
    for name, used in upstream.items():
        if name not in chain or chain[name]["config_hash"] != used:
            raise MissingArtifactError(
                f"{needed_by} needs the {stage} stage built from the current {name} stage; "
                f"rerun `tsadv {command}` first")
    chain[stage] = manifest
    return chain


def _run_stage(out: str, stage: str, cfg: dict, write: Callable[[str], dict],
               chain: dict | None = None) -> None:
    """Run one stage into ``out/<stage>`` unless it is up to date for ``cfg``, whose
    ``upstream`` is the config hashes of ``chain``, the stages it reads.

    ``write(path)`` writes the stage's files into ``path`` and returns the
    stage's own manifest fields. The stage is built in ``out/.<stage>.partial``
    and replaces ``out/<stage>`` only once its manifest is written.
    """
    if chain is not None:
        cfg = {**cfg, "upstream": {name: m["config_hash"] for name, m in chain.items()}}
    cfg_hash = config_hash(cfg)
    final = os.path.join(out, stage)
    manifest = _committed_manifest(out, stage)  # a damaged or changed stage is rebuilt
    if (manifest is not None and manifest["config_hash"] == cfg_hash
            and _changed_file(out, stage, manifest) is None):
        print(f"[{stage}] up to date (config {cfg_hash}), skipping")
        return
    partial = os.path.join(out, f".{stage}.partial")
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    try:
        fields = write(partial)
        files = {name: _file_sha256(os.path.join(partial, name)) for name in os.listdir(partial)}
        _write_json(os.path.join(partial, "manifest.json"),
                    {**fields, "config_hash": cfg_hash, "config": cfg, "files": files})
        shutil.rmtree(final, ignore_errors=True)
        os.rename(partial, final)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    # rebuilt from the loaded and committed manifests, so a damaged echo never fails a
    # later stage; a damaged stage is left out, since this stage has committed already
    loaded = {**(chain or {}), stage: {"config": cfg}}
    manifests = {name: loaded.get(name) or _committed_manifest(out, name)
                 for name in _STAGE_COMMANDS}
    _write_json(os.path.join(out, "config.json"),
                {name: m["config"] for name, m in manifests.items() if m is not None})


def _load_arrays(out: str, stage: str, name: str, *keys: str) -> list:
    """The arrays ``keys`` of ``out/<stage>/<name>``; a damaged or missing file is a
    ValueError naming it, should it change after its stage's digests were checked."""
    import numpy as np
    from .nn import DAMAGED_FILE_ERRORS

    path = os.path.join(out, stage, name)
    try:
        with np.load(path) as saved:
            return [saved[key] for key in keys]
    except (*DAMAGED_FILE_ERRORS, OSError) as exc:
        raise ValueError(f"cannot load {path}: {exc!r}; rerun `tsadv {_STAGE_COMMANDS[stage]}` "
                         f"first") from None


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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):  # a split may be tens of MB
            digest.update(chunk)
    return digest.hexdigest()


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
    if sum(map(bool, (args.synthetic, args.dataset, args.train_file or args.test_file))) > 1:
        raise ValueError("prepare reads one data source: --synthetic, --dataset or "
                         "--train-file/--test-file")
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
        import numpy as np
        from .data import load_ucr, preprocess_dataset, stratified_split
        from .synthetic import make_bump_dataset

        if args.synthetic:
            teacher_train = make_bump_dataset(n_per_class=32, length=32,
                                              seed=args.seed_split + 100, name="bumps-train")
            pool = make_bump_dataset(n_per_class=64, length=32, seed=args.seed_split + 200,
                                     name="bumps")
        else:
            # the raw rows, ragged and NaN-gapped, live only until preprocess_dataset
            raw = [(path, *load_ucr(path, DELIMITERS[args.delimiter]))
                   for path in (train_file, test_file)]
            target_len = max(len(row) for _, _, rows in raw for row in rows)
            teacher_train, pool = (preprocess_dataset(path, labels, rows, target_len, args.znorm)
                                   for path, labels, rows in raw)
            if teacher_train.label_map != pool.label_map:  # each file was remapped alone
                raise ValueError(f"train file {train_file} labels {sorted(teacher_train.label_map)}"
                                 f" differ from test file {test_file} labels "
                                 f"{sorted(pool.label_map)}")
        d_eval, d_test = stratified_split(pool, seed=args.seed_split)
        for which, split in (("teacher_train", teacher_train), ("d_eval", d_eval),
                             ("d_test", d_test)):
            np.savez(os.path.join(stage, f"{which}.npz"), values=split.values, labels=split.labels)
        print(f"[prepare] {dataset_name}: train={len(teacher_train)} "
              f"d_eval={len(d_eval)} d_test={len(d_test)}")
        return {
            "length": teacher_train.length,
            "num_classes": pool.num_classes,
            "label_map": {str(k): v for k, v in pool.label_map.items()},
            "counts": {"teacher_train": len(teacher_train), "d_eval": len(d_eval),
                       "d_test": len(d_test)},
            "class_counts": {"d_eval": dict(Counter(d_eval.labels.tolist())),
                             "d_test": dict(Counter(d_test.labels.tolist()))},
        }

    _run_stage(args.out, "prepare", cfg, write)
    return 0


def _load_split(out: str, which: str, chain: dict):
    """The ``Dataset`` of one split: the arrays prepare wrote and its manifest's ``label_map``."""
    from .data import Dataset

    prep = chain["prepare"]
    values, labels = _load_arrays(out, "prepare", f"{which}.npz", "values", "labels")
    # file basenames are stage-local; reports must carry the dataset's name
    return Dataset(prep["config"]["dataset"], values, labels,
                   {int(k): v for k, v in prep["label_map"].items()})


def cmd_train_teacher(args) -> int:
    out = args.out
    chain = _load_chain(out, "prepare", "train-teacher")
    cfg = {"teacher": args.teacher}
    if args.teacher == "fcn":  # the 1-NN DTW teacher reads none of the training flags
        cfg.update(seed_teacher=args.seed_teacher, epochs=args.epochs, batch_size=args.batch_size,
                   lr=args.lr, early_stop_acc=args.early_stop_acc)

    def write(stage: str) -> dict:
        if args.teacher != "fcn":
            print(f"[train-teacher] {args.teacher} ready")
            # the 1-NN DTW teacher *is* its reference set
            return {"teacher_kind": args.teacher, "reference": "prepare/teacher_train.npz"}
        from .models import ArchitectureConfig, TrainConfig, build_fcn, train_classifier
        from .nn import save_model

        _keep_freed_memory()
        train_set = _load_split(out, "teacher_train", chain)
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

    _run_stage(out, "teacher", cfg, write, chain)
    return 0


def _load_teacher(out: str, chain: dict):
    from .nn import load_model
    from .teachers import DTW1NNTeacher, FCNTeacher

    if chain["teacher"]["teacher_kind"] == "fcn":
        return FCNTeacher(load_model(os.path.join(out, "teacher", "fcn.npz")))
    return DTW1NNTeacher.from_dataset(_load_split(out, "teacher_train", chain))


def cmd_distill(args) -> int:
    out = args.out
    chain = _load_chain(out, "teacher", "distill")
    teacher_kind = chain["teacher"]["teacher_kind"]
    if attacks_teacher(args.box, teacher_kind):
        raise ValueError(f"a {args.box}-box attack on the {teacher_kind} teacher differentiates "
                         f"through the teacher itself and reads no student")
    gamma = DISTILL_GAMMA[args.box] if args.gamma is None else args.gamma
    cfg = {"box": args.box, "gamma": gamma, "tau": args.tau, "epochs": args.epochs,
           "seed_student": args.seed_student, "batch_size": args.batch_size, "lr": args.lr}

    def write(stage: str) -> dict:
        import numpy as np
        from .distill import DistillConfig, teacher_outputs, train_student
        from .models import ArchitectureConfig, build_lenet5_1d
        from .nn import save_model

        config = DistillConfig(gamma=gamma, tau=args.tau, epochs=args.epochs,
                               batch_size=args.batch_size, lr=args.lr, seed=args.seed_student)
        _keep_freed_memory()
        teacher = _load_teacher(out, chain)
        d_eval = _load_split(out, "d_eval", chain)
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

    _run_stage(out, "student", cfg, write, chain)
    return 0


def cmd_attack(args) -> int:
    out = args.out
    chain = _load_chain(out, "teacher", "attack")
    if chain["teacher"]["teacher_kind"] != args.teacher:
        raise MissingArtifactError(
            f"teacher stage trained {chain['teacher']['teacher_kind']!r}; rerun train-teacher "
            f"for {args.teacher!r}")
    if not attacks_teacher(args.box, args.teacher):
        _load_chain(out, "student", "attack", chain)
    student = chain.get("student")
    if args.box == "black" and student is not None and student["mode"] != "hard":
        raise MissingArtifactError(
            f"black-box attack needs a student distilled from hard labels, but the student "
            f"stage used {student['mode']} targets; rerun `tsadv distill --box black` first")
    betas = list(BETA_GRID) if args.beta_grid else [args.beta]
    # a student distilled from hard labels kept the teacher's clean d_eval
    # labels; soft targets are not reused, since argmax(soft_1nn) may break a
    # distance tie differently from nn1_classify
    reuse_labels = student is not None and student["mode"] == "hard"
    cfg = {"box": args.box, "teacher": args.teacher, "alpha": args.alpha, "betas": betas,
           "target_class": args.target_class, "seed_gatn": args.seed_gatn,
           "epochs": args.epochs, "batch_size": args.batch_size, "lr": args.lr}

    def write(stage: str) -> dict:
        import numpy as np
        from .attack import AttackConfig, beta_grid_search, select_surrogate
        from .nn import load_model, save_model
        from .reports import save_reports_json

        base = AttackConfig(box_mode=args.box, teacher_kind=args.teacher, alpha=args.alpha,
                            beta=betas[0], target_class=args.target_class, seed=args.seed_gatn,
                            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr)
        _keep_freed_memory()
        teacher = _load_teacher(out, chain)
        surrogate = select_surrogate(base, teacher, None if student is None else load_model(
            os.path.join(out, "student", "student.npz")))
        d_eval = _load_split(out, "d_eval", chain)
        pred_clean = (_load_arrays(out, "student", "teacher_outputs.npz", "hard_labels")[0]
                      if reuse_labels else None)
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

    _run_stage(out, "attack", cfg, write, chain)
    return 0


def cmd_evaluate(args) -> int:
    """Count adversaries on both splits.

    d_eval's counts are made again from the teacher labels and series the
    attack stage saved, with no model run; only d_test is shown to the
    surrogate and the teacher, each once for its clean series (one pass for
    both when the surrogate is the FCN teacher, see ``attack.clean_labels``).
    """
    out = args.out
    chain = _load_chain(out, "attack", "evaluate")
    acfg = chain["attack"]["config"]
    cfg = {"criterion": args.criterion, "all_betas": args.all_betas}

    def write(stage: str) -> dict:
        from dataclasses import replace

        from .attack import (AttackConfig, AttackRun, clean_labels, select_surrogate,
                             surrogate_signal)
        from .evaluate import count_adversaries, generalization_eval
        from .nn import load_model
        from .reports import save_reports_csv, save_reports_json

        _keep_freed_memory()
        base = AttackConfig(box_mode=acfg["box"], teacher_kind=acfg["teacher"],
                            alpha=acfg["alpha"], target_class=acfg["target_class"],
                            seed=acfg["seed_gatn"])
        teacher = _load_teacher(out, chain)
        surrogate = select_surrogate(base, teacher, load_model(
            os.path.join(out, "student", "student.npz")) if "student" in chain else None)
        d_eval = _load_split(out, "d_eval", chain)
        d_test = _load_split(out, "d_test", chain)
        eval_clean, eval_x_hat, eval_adv = _load_arrays(out, "attack", D_EVAL_OUTPUTS,
                                                        "clean_labels", "x_hat", "adv_labels")
        betas = chain["attack"]["betas"]
        indices = range(len(betas)) if args.all_betas else [chain["attack"]["best_index"]]
        runs = [AttackRun(replace(base, beta=betas[i]), surrogate, load_model(
            os.path.join(out, "attack", chain["attack"]["gatn_files"][i]))) for i in indices]
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
        # report pools only runs attacked with the same settings
        attack = {k: acfg[k] for k in ("alpha", "target_class", "epochs", "batch_size", "lr",
                                       "betas")}
        save_reports_json(reports, os.path.join(stage, "reports.json"),
                          provenance={"out": out, "criterion": args.criterion, "attack": attack})
        for r in reports:
            print(f"[evaluate] {r.split:7s} beta={r.beta:.0e} criterion={r.criterion}: "
                  f"{r.num_adversaries}/{r.n_evaluated} adversaries, mse_all={r.mse_all:.4f}")
        return {"n_reports": len(reports), "teacher_calls": dict(teacher.calls)}

    _run_stage(out, "reports", cfg, write, chain)
    return 0


def cmd_report(args) -> int:
    import csv

    from .reports import load_reports_json, save_reports_csv, save_reports_json

    def variant(r) -> str:
        return f"{r.box_mode}-{r.teacher_kind}"

    all_reports = []
    eval_reports = {}  # (variant, dataset) -> (run directory, d_eval report)
    runs_by_criterion = {}
    runs_by_attack = {}  # a reports file without attack settings is not checked
    for run_dir in args.runs:
        path = os.path.join(run_dir, "reports", "reports.json")
        if not os.path.exists(path):
            raise MissingArtifactError(f"no reports in {run_dir}; run `tsadv evaluate` first")
        reports, provenance = load_reports_json(path)
        all_reports.extend(reports)
        for criterion in dict.fromkeys(r.criterion for r in reports):
            runs_by_criterion.setdefault(criterion, []).append(run_dir)
        if "attack" in provenance:
            setting = " ".join(f"{k}={v}" for k, v in provenance["attack"].items())
            runs_by_attack.setdefault(setting, []).append(run_dir)
        for r in [r for r in reports if r.split == "d_eval"]:
            key = (variant(r), r.dataset)
            if key in eval_reports:  # a Wilcoxon vector holds one count per dataset
                raise ValueError(
                    f"two d_eval reports of {key[0]} on {r.dataset!r}, in {eval_reports[key][0]} "
                    f"and in {run_dir}; report takes one per variant and dataset (one seed per "
                    f"dataset, evaluated without --all-betas)")
            eval_reports[key] = run_dir, r
    # runs under different criteria or attack settings count different things
    # (an unlabeled count is never below the labeled one), so none are pooled
    for runs_by, made, one in ((runs_by_criterion, "evaluated under different criteria",
                                "one --criterion"),
                               (runs_by_attack, "attacked with different settings",
                                "one attack setting")):
        if len(runs_by) > 1:
            mix = "; ".join(f"{key} in {', '.join(runs)}" for key, runs in runs_by.items())
            raise ValueError(f"runs {made} ({mix}); report compares runs of {one} only")
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


def _batch_worker(dataset: str, argv_per_stage: list[list[str]]) -> None:
    """Run one dataset's stages in a child process, which exits with the first
    failing stage's code; any error fails that dataset alone, with exit code 1."""
    try:
        for argv in argv_per_stage:
            code = main(argv)
            if code != 0:
                sys.exit(code)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"error: {dataset}: {exc}", file=sys.stderr)
        sys.exit(1)


def _run_batch_jobs(jobs: list, processes: int) -> list[int]:
    """Run each ``(dataset, stages)`` job in a forked process of its own, at
    most ``processes`` at once; returns their exit codes in job order.

    A dataset whose process dies, as an out-of-memory kill ends it, fails
    alone, with a negative exit code and an error line naming the signal.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    codes = [0] * len(jobs)
    pending, running = list(enumerate(jobs)), {}  # running: process -> job index
    while pending or running:
        while pending and len(running) < processes:
            i, job = pending.pop(0)
            proc = ctx.Process(target=_batch_worker, args=job)
            proc.start()
            running[proc] = i
        wait([proc.sentinel for proc in running])
        for proc in [proc for proc in running if proc.exitcode is not None]:
            i = running.pop(proc)
            codes[i] = proc.exitcode
            if codes[i] < 0:
                print(f"error: {jobs[i][0]}: killed by signal {-codes[i]}", file=sys.stderr)
    return codes


def cmd_batch(args) -> int:
    """Run the whole pipeline per dataset under one root, then aggregate."""
    if args.processes < 1:
        raise ValueError(f"--processes must be >= 1, not {args.processes}")
    datasets = args.datasets.split(",") if args.datasets else list(DEFAULT_BATCH_DATASETS)
    config = ["--config", args.config] if args.config else []
    jobs = []
    for name in datasets:
        out = os.path.join(args.out_root, name)
        stages = [["prepare", "--dataset", name], ["train-teacher", "--teacher", args.teacher],
                  ["distill", "--box", args.box],
                  ["attack", "--box", args.box, "--teacher", args.teacher, "--beta-grid"],
                  ["evaluate"]]
        if attacks_teacher(args.box, args.teacher):  # the attack reads no student
            del stages[2]
        jobs.append((name, [[*config, *argv, "--out", out] for argv in stages]))
    codes = _run_batch_jobs(jobs, args.processes)
    failed = [name for (name, _), code in zip(jobs, codes) if code != 0]
    done = [os.path.join(args.out_root, name) for (name, _), code in zip(jobs, codes) if code == 0]
    report_code = main([*config, "report", "--out", os.path.join(args.out_root, "report"),
                        "--runs", *done]) if done else 0
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
    parser.add_argument("--config", help="JSON file of flag defaults per command (flags win)")
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
    p.add_argument("--processes", type=int, default=1,
                   help="datasets run at once, each in its own process")
    p.set_defaults(func=cmd_batch)
    return parser, sub.choices


def _flag_takes(action: argparse.Action, value) -> str | None:
    """What the flag ``action`` takes, when a ``--config`` file's ``value`` is not
    one it takes on the command line; None when it is."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # store_true
        takes, ok = "true or false", isinstance(value, bool)
    elif action.choices is not None:
        takes, ok = f"one of {json.dumps(action.choices)}", value in action.choices
    else:
        takes, kind = {int: ("an integer", int),
                       float: ("a number", (int, float))}.get(action.type, ("a string", str))
        ok = isinstance(value, kind) and not isinstance(value, bool)
    return None if ok else f"{takes}{' or null' if action.default is None else ''}"


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, with the ``--config`` file's section for the command as its flag defaults.

    Every top-level key of the file names a command, and its value holds
    that command's flag defaults, each of a JSON type the flag takes; a command
    without a section takes none. Flags on the command line win.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sections = _read_json(args.config)
        if not isinstance(sections, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sections.keys() - commands.keys()
        if unknown:
            raise ValueError(f"config file {args.config}: keys {sorted(unknown)} name no command")
        defaults = sections.get(args.command, {})
        if not isinstance(defaults, dict):
            raise ValueError(f"config section {args.command!r} must be a JSON object")
        actions = {action.dest: action for action in commands[args.command]._actions}
        for key, value in defaults.items():
            dest = key.replace("-", "_")
            if dest not in vars(args) or dest in ("command", "func", "config"):
                raise ValueError(f"config key {key!r} is not a flag of `tsadv {args.command}`")
            takes = _flag_takes(actions[dest], value)
            if takes is not None:
                raise ValueError(f"config key {key!r} in {args.config} takes {takes}, "
                                 f"not {json.dumps(value)}")
            if actions[dest].type is float and value is not None:
                value = float(value)  # as the flag gives it, so `"tau": 10` hashes as 10.0
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
