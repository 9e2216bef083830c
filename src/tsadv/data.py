"""Dataset ingestion, preprocessing, label remapping and the class-balanced
evaluation split.

File format: delimiter-separated text, one series per row, first field is the
class label. Missing values are NaN tokens, and rows may differ in length.
Such raw rows exist only between :func:`load_ucr` and
:func:`preprocess_dataset`, which fills, resamples and stacks them into a
:class:`Dataset`: one ``[N, T]`` matrix and its 0-based labels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .util import readonly


class UCRParseError(ValueError):
    """A data file row that cannot be parsed; message carries the line number."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named read-only ``[N, T]`` float64 matrix of series and their labels.

    ``labels`` holds contiguous 0-based class indices; ``label_map`` maps the
    original file labels to them, in ascending original order. Datasets
    compare and hash by identity, since their fields are arrays.
    """

    name: str
    values: np.ndarray
    labels: np.ndarray
    label_map: dict[int, int]

    def __post_init__(self):
        values, labels = readonly(self.values, np.float64), readonly(self.labels, np.int64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError(f"dataset {self.name!r} is not a nonempty [N, T] matrix")
        if labels.shape != values.shape[:1]:
            raise ValueError(f"dataset {self.name!r} needs one label per row")
        if set(self.label_map.values()) != set(range(len(self.label_map))):
            raise ValueError("label_map is not a bijection onto 0..C-1")
        if labels.min() < 0 or labels.max() >= len(self.label_map):
            raise ValueError(f"dataset {self.name!r} has a label outside [0, C)")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.label_map)

    @property
    def length(self) -> int:
        return self.values.shape[1]


def load_ucr(path: str | os.PathLike,
             delimiter: str | None = "\t") -> tuple[list[int], list[np.ndarray]]:
    """Load a delimiter-separated archive file as its raw labels and rows.

    Each row is ``label, v1, v2, ...``. A ``None`` delimiter splits on runs of
    whitespace, as :meth:`str.split` does. Rows keep their own lengths and
    their NaN tokens, for :func:`preprocess_dataset`. Fully blank lines are
    skipped.
    """
    path = os.fspath(path)
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip("\r\n")
            if not line.strip():
                continue
            fields = line.split(delimiter)
            if len(fields) < 2:
                raise UCRParseError(f"{path}:{lineno}: row has {len(fields)} field(s), need >= 2")
            try:
                raw_label = float(fields[0])
            except ValueError:
                raise UCRParseError(f"{path}:{lineno}: label field {fields[0]!r} is not a number") from None
            if not math.isfinite(raw_label) or raw_label != int(raw_label):
                raise UCRParseError(f"{path}:{lineno}: label {fields[0]!r} is not an integer")
            try:
                rows.append(np.array([float(tok) for tok in fields[1:]], dtype=np.float64))
            except ValueError:
                bad = next(tok for tok in fields[1:] if not _parses_as_float(tok))
                raise UCRParseError(f"{path}:{lineno}: value field {bad!r} is not a number") from None
            labels.append(int(raw_label))
    if not rows:
        raise UCRParseError(f"{path}: file contains no data rows")
    return labels, rows


def _parses_as_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_ucr(dataset: Dataset, path: str | os.PathLike, delimiter: str = "\t") -> None:
    """Write a dataset in delimiter format with its original labels, so that
    :func:`load_ucr` plus :func:`remap_labels` reproduces it bit for bit."""
    inverse = {v: k for k, v in dataset.label_map.items()}
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels.tolist(), dataset.values):
            fields = [str(inverse[label])] + [repr(float(v)) for v in row]
            fh.write(delimiter.join(fields) + "\n")


def remap_labels(raw_labels: list[int], name: str) -> tuple[np.ndarray, dict[int, int]]:
    """Contiguous 0-based class indices for raw labels, numbered in ascending
    raw order, and the map from raw label to index; ``name`` is the dataset's,
    for the error a single class raises."""
    raw = sorted(set(raw_labels))
    if len(raw) < 2:
        raise ValueError(f"dataset {name!r} has a single class {raw}; need >= 2")
    label_map = {r: i for i, r in enumerate(raw)}
    return np.array([label_map[r] for r in raw_labels], dtype=np.int64), label_map


def preprocess(values: np.ndarray, target_len: int, znorm: bool = False) -> np.ndarray:
    """Fill missing values, resample to ``target_len``, optionally z-normalize.

    Interior NaNs are linearly interpolated; leading/trailing NaNs take the
    nearest finite value. Resampling is linear over a common [0, 1] grid.
    Constant series under znorm become all zeros rather than erroring.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    if finite.sum() < 2:
        raise ValueError(f"a series has {int(finite.sum())} finite value(s); need >= 2")
    if not finite.all():
        idx = np.arange(v.shape[0], dtype=np.float64)
        v = np.interp(idx, idx[finite], v[finite])
    if v.shape[0] != target_len:
        src = np.linspace(0.0, 1.0, v.shape[0])
        dst = np.linspace(0.0, 1.0, target_len)
        v = np.interp(dst, src, v)
    if znorm:
        mu = v.mean()
        sigma = v.std()
        if sigma == 0.0:
            v = np.zeros_like(v)
        else:
            v = (v - mu) / sigma
    return v


def preprocess_dataset(name: str, raw_labels: list[int], rows: list[np.ndarray],
                       target_len: int, znorm: bool = False) -> Dataset:
    """The :class:`Dataset` of raw rows, each run through :func:`preprocess`,
    with their labels remapped by :func:`remap_labels`."""
    labels, label_map = remap_labels(raw_labels, name)
    return Dataset(name, [preprocess(row, target_len, znorm) for row in rows], labels, label_map)


def stratified_split(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split into class-balanced halves ``(d_eval, d_test)``, the extra odd
    sample going to d_eval.

    Membership is a seeded permutation per class; within each half the
    original row order is preserved. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    eval_idx: list[int] = []
    test_idx: list[int] = []
    inverse = {v: k for k, v in dataset.label_map.items()}
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.shape[0] < 2:
            raise ValueError(f"class {c} (raw label {inverse[c]}) has {members.shape[0]} "
                             f"sample(s); need >= 2 to split")
        perm = rng.permutation(members)
        n_eval = (members.shape[0] + 1) // 2
        eval_idx.extend(perm[:n_eval].tolist())
        test_idx.extend(perm[n_eval:].tolist())
    d_eval, d_test = (Dataset(f"{dataset.name}/{half}", dataset.values[idx], dataset.labels[idx],
                              dataset.label_map)
                      for half, idx in (("eval", sorted(eval_idx)), ("test", sorted(test_idx))))
    return d_eval, d_test
