"""What the CLI needs before a stage's up-to-date check: the beta grid, the
distillation presets, the configuration hash, the training error and the
whole-file writer. It imports only hashlib, json, os and contextlib, which
the CLI loads anyway: no numpy, and no dataclasses.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

BETA_GRID = tuple(10.0**-b for b in range(1, 6))
# distillation's gamma by box mode: white-box mixes in the hard-label term
DISTILL_GAMMA = {"white": 0.5, "black": 1.0}


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


@contextmanager
def replacing(path: str | os.PathLike, newline: str | None = None):
    """Open ``<path>.partial`` for writing text; it replaces ``path`` when the block ends.

    A block that raises removes the partial file and leaves ``path`` as it was.
    """
    partial = f"{os.fspath(path)}.partial"
    fh = open(partial, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)
