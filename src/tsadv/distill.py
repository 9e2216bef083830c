"""Teacher-output extraction and student training under the two information
regimes.

White-box students may imitate the teacher's probability distribution;
black-box students see nothing but the predicted class labels, which also
stand in for ground truth (the evaluation split is treated as unlabeled).
The transfer loss gates a temperature-scaled distillation term against a
plain hard-label term with the mixing weight gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import DistillConfig
from .models import as_conv_input
from .nn import Network, cross_entropy, fit, predict
from .teachers import Teacher
from .util import one_hot, softmax_np


@dataclass(frozen=True)
class TeacherOutputs:
    """The attacked model's predictions on a dataset, computed once.

    ``soft_probs`` is present only in soft mode; its per-row argmax always
    equals ``hard_labels``.
    """

    mode: str  # hard | soft
    hard_labels: np.ndarray
    teacher_kind: str
    num_classes: int
    soft_probs: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "soft":
            if self.soft_probs is None:
                raise ValueError("soft mode requires soft_probs")
            sums = self.soft_probs.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise ValueError("soft_probs rows must sum to 1")
            if not np.array_equal(np.argmax(self.soft_probs, axis=1), self.hard_labels):
                raise ValueError("soft_probs argmax must equal hard_labels")
        elif self.soft_probs is not None:
            raise ValueError("hard mode must not carry probabilities")


def teacher_outputs(teacher: Teacher, x: np.ndarray, mode: str) -> TeacherOutputs:
    """Query the teacher once over the series ``x`` [N, T], in hard or soft mode."""
    if mode == "hard":
        labels = teacher.predict_labels(x)
        return TeacherOutputs(mode="hard", hard_labels=labels,
                              teacher_kind=teacher.kind, num_classes=teacher.num_classes)
    if mode == "soft":
        probs = teacher.predict_proba(x)
        return TeacherOutputs(mode="soft", hard_labels=np.argmax(probs, axis=1),
                              teacher_kind=teacher.kind, num_classes=teacher.num_classes,
                              soft_probs=probs)
    raise ValueError(f"unknown mode {mode!r}")


def distill_target(outputs: TeacherOutputs, tau: float) -> np.ndarray:
    """The distribution the distillation term pulls the student toward.

    Hard labels become one-hot rows. An FCN teacher's probabilities are
    re-softened to temperature tau (softmax(log p / tau) recovers the
    tau-scaled softmax of the original logits exactly). Soft 1-NN rows are
    already the defined distribution and are used as-is.
    """
    if outputs.mode == "hard":
        return one_hot(outputs.hard_labels, outputs.num_classes)
    if outputs.teacher_kind == "fcn":
        return softmax_np(np.log(np.clip(outputs.soft_probs, 1e-300, None)), temperature=tau, axis=1)
    return outputs.soft_probs.astype(np.float64)


def distill_loss(z_s: Tensor, teacher_target: np.ndarray, y_hard: np.ndarray,
                 config: DistillConfig):
    """gamma * H(target, softmax(z_s/tau)) + (1-gamma) * H(y, softmax(z_s)).

    ``z_s`` is the student's logits [B, C]. ``teacher_target`` [B, C] comes
    from :func:`distill_target`; ``y_hard`` [B, C] is the one-hot encoding of
    the teacher's predicted labels, which stand in for ground truth. Each
    disabled term is skipped entirely, not multiplied by zero, so a gamma=1
    run never touches the hard-label path.
    """
    loss = None
    if config.gamma > 0.0:
        soft_student = ad.softmax(z_s, axis=1, temperature=config.tau)
        loss = config.gamma * cross_entropy(teacher_target, soft_student)
    if config.gamma < 1.0:
        hard_student = ad.softmax(z_s, axis=1, temperature=1.0)
        term = (1.0 - config.gamma) * cross_entropy(y_hard, hard_student)
        loss = term if loss is None else loss + term
    return loss


def train_student(student: Network, x: np.ndarray, outputs: TeacherOutputs,
                  config: DistillConfig) -> Network:
    """Distill the teacher's recorded outputs into the student on d_eval's series ``x`` [N, T].

    Consumes series values and TeacherOutputs only; the split's own labels
    are never read. Keeps the parameters of the epoch with the highest
    teacher fidelity. The per-epoch log records loss, fidelity and the
    running best fidelity.
    """
    if student.architecture != "lenet5":
        raise ValueError(f"student must be the lenet5 architecture, got {student.architecture!r}")
    dtype = student.parameters()[0].dtype
    x_all = as_conv_input(x, dtype=dtype)
    targets = distill_target(outputs, config.tau).astype(dtype)
    y_hard = one_hot(outputs.hard_labels, outputs.num_classes, dtype=dtype)
    best_fidelity, best_state = -1.0, None

    def batch_loss(idx):
        logits = student.forward(Tensor(x_all[idx]), training=True)
        return distill_loss(logits, targets[idx], y_hard[idx], config)

    def end_epoch(entry):
        nonlocal best_fidelity, best_state
        _, probs = predict(student, x_all)
        fidelity = float((np.argmax(probs, axis=1) == outputs.hard_labels).mean())
        if fidelity > best_fidelity:
            best_fidelity = fidelity
            best_state = [p.data.copy() for p in student.parameters()]
        entry.update(fidelity=fidelity, best_fidelity=best_fidelity)

    fit(student, x_all.shape[0], batch_loss, config, end_epoch)
    if best_state is not None:
        for p, data in zip(student.parameters(), best_state):
            p.data = data
    return student
