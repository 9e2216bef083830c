"""Stage configurations, the configuration hash and the training error: all
the CLI needs before a stage's up-to-date check. Nothing here imports numpy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

BETA_GRID = tuple(10.0**-b for b in range(1, 6))


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss turns non-finite."""


def config_hash(obj) -> str:
    """Stable short hash of a JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def attacks_teacher(box_mode: str, teacher_kind: str) -> bool:
    """Whether the generator differentiates through the teacher itself.

    Only a white-box attack on the neural teacher does; every other
    combination attacks a distilled student.
    """
    return box_mode == "white" and teacher_kind == "fcn"


@dataclass(frozen=True)
class AttackConfig:
    box_mode: str  # white | black
    teacher_kind: str  # fcn | dtw1nn
    alpha: float = 1.5
    beta: float = 1e-2
    target_class: int = 1
    seed: int = 0
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    gatn_hidden_units: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        if self.box_mode not in ("white", "black"):
            raise ValueError(f"unknown box_mode {self.box_mode!r}")
        if self.teacher_kind not in ("fcn", "dtw1nn"):
            raise ValueError(f"unknown teacher_kind {self.teacher_kind!r}")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must be > 1 for the reranking argmax guarantee, got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.target_class < 0:
            raise ValueError("target_class must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class DistillConfig:
    """gamma gates distillation vs hard-label loss; tau softens both logits."""

    gamma: float
    tau: float = 10.0
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    @classmethod
    def for_box_mode(cls, box_mode: str, **kwargs) -> "DistillConfig":
        """Presets: white-box gamma=0.5, black-box gamma=1."""
        if box_mode == "white":
            return cls(gamma=0.5, **kwargs)
        if box_mode == "black":
            return cls(gamma=1.0, **kwargs)
        raise ValueError(f"unknown box_mode {box_mode!r}")
