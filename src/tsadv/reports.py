"""The attack report record and its CSV and JSON files.

Nothing here imports numpy, so ``tsadv report`` reads and writes reports
without loading the model stack. Every file is written through a temporary
file that replaces the target only once it is complete.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass

from .config import replacing

CSV_COLUMNS = ["dataset", "box_mode", "teacher_kind", "beta", "split", "criterion",
               "n_evaluated", "num_adversaries", "mse_adversaries", "mse_all"]


@dataclass(frozen=True)
class AttackReport:
    """Per-dataset attack outcome in the appendix-table schema."""

    dataset: str
    box_mode: str
    teacher_kind: str
    beta: float
    num_adversaries: int
    mse_adversaries: float | None  # mean over counted adversaries; None when count is 0
    mse_all: float  # mean over every evaluated sample
    split: str  # d_eval | d_test
    criterion: str  # labeled | unlabeled
    n_evaluated: int

    def __post_init__(self):
        if self.num_adversaries > self.n_evaluated:
            raise ValueError("cannot count more adversaries than evaluated samples")
        if self.mse_all < 0 or (self.mse_adversaries is not None and self.mse_adversaries < 0):
            raise ValueError("MSE fields must be >= 0")
        if self.num_adversaries == 0 and self.mse_adversaries is not None:
            raise ValueError("mse_adversaries is undefined when no adversary was counted")


def save_reports_csv(reports: list[AttackReport], path: str | os.PathLike) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            row = asdict(r)
            row["mse_adversaries"] = "" if row["mse_adversaries"] is None else repr(row["mse_adversaries"])
            row["mse_all"] = repr(row["mse_all"])
            row["beta"] = repr(row["beta"])
            writer.writerow(row)


def save_reports_json(reports: list[AttackReport], path: str | os.PathLike,
                      provenance: dict | None = None) -> None:
    blob = {"provenance": provenance or {}, "reports": [asdict(r) for r in reports]}
    with replacing(path) as fh:
        json.dump(blob, fh, indent=2)


def load_reports_json(path: str | os.PathLike) -> tuple[list[AttackReport], dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
            return [AttackReport(**d) for d in blob["reports"]], blob["provenance"]
        except (KeyError, TypeError, ValueError) as exc:  # not JSON, or not a reports blob
            raise ValueError(f"{path} is not a reports file: {exc!r}") from None
