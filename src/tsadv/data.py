"""Dataset ingestion, preprocessing, label remapping and the class-balanced
evaluation split.

File format: delimiter-separated text, one series per row, first field is the
class label. Missing values are NaN tokens; variable-length rows are allowed
and resolved by :func:`preprocess_dataset`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .util import readonly


class UCRParseError(ValueError):
    """A data file row that cannot be parsed; message carries the line number."""


@dataclass(frozen=True)
class TimeSeries:
    """One labeled univariate series.

    ``label`` is a raw file label before remapping and a contiguous 0-based
    class index afterwards. ``source_id`` is the row index in the originating
    file and survives preprocessing and splitting.
    """

    values: np.ndarray
    label: int | None
    source_id: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("a time series needs at least one value")
        object.__setattr__(self, "values", readonly(v))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Dataset:
    """A named collection of series plus label-remapping metadata.

    ``label_map`` maps original file labels to contiguous 0-based indices in
    ascending original order; it is ``None`` until :func:`remap_labels` runs.
    """

    name: str
    series: tuple[TimeSeries, ...]
    label_map: dict[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise ValueError(f"dataset {self.name!r} is empty")
        if self.label_map is not None:
            remapped = set(self.label_map.values())
            if remapped != set(range(len(self.label_map))):
                raise ValueError("label_map is not a bijection onto 0..C-1")
            for s in self.series:
                if s.label is None or not 0 <= s.label < len(self.label_map):
                    raise ValueError(f"series {s.source_id} label outside [0, C)")

    def __len__(self) -> int:
        return len(self.series)

    @property
    def num_classes(self) -> int:
        if self.label_map is None:
            raise ValueError("dataset labels have not been remapped yet")
        return len(self.label_map)

    @property
    def length(self) -> int:
        """Common series length; raises if lengths are still ragged."""
        lengths = {len(s) for s in self.series}
        if len(lengths) != 1:
            raise ValueError(f"dataset {self.name!r} has ragged lengths {sorted(lengths)}")
        return lengths.pop()

    @property
    def values(self) -> np.ndarray:
        """All series stacked as a [N, T] float64 matrix."""
        self.length
        return np.stack([s.values for s in self.series])

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.series], dtype=np.int64)


@dataclass(frozen=True)
class SplitPair:
    """Class-balanced halves of an evaluation dataset."""

    d_eval: Dataset
    d_test: Dataset
    seed: int


def load_ucr(path: str | os.PathLike, delimiter: str | None = "\t") -> Dataset:
    """Load a delimiter-separated archive file into a raw (unremapped) Dataset.

    Each row is ``label, v1, v2, ...``. A ``None`` delimiter splits on runs of
    whitespace, as :meth:`str.split` does. NaN tokens are kept as missing-value
    markers for :func:`preprocess`. Fully blank lines are skipped.
    """
    path = os.fspath(path)
    series = []
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
                values = np.array([float(tok) for tok in fields[1:]], dtype=np.float64)
            except ValueError:
                bad = next(tok for tok in fields[1:] if not _parses_as_float(tok))
                raise UCRParseError(f"{path}:{lineno}: value field {bad!r} is not a number") from None
            series.append(TimeSeries(values=values, label=int(raw_label), source_id=len(series)))
    if not series:
        raise UCRParseError(f"{path}: file contains no data rows")
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(name=name, series=tuple(series), label_map=None)


def _parses_as_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_ucr(dataset: Dataset, path: str | os.PathLike, delimiter: str = "\t") -> None:
    """Write a dataset back to delimiter format, bit-for-bit reloadable.

    Remapped datasets are written with their original labels so a reload plus
    :func:`remap_labels` reproduces the input exactly.
    """
    inverse = None
    if dataset.label_map is not None:
        inverse = {v: k for k, v in dataset.label_map.items()}
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.series:
            label = s.label if inverse is None else inverse[s.label]
            fields = [str(label)] + [repr(float(v)) for v in s.values]
            fh.write(delimiter.join(fields) + "\n")


def remap_labels(dataset: Dataset) -> Dataset:
    """Replace raw labels with contiguous 0-based indices in ascending raw order."""
    raw = sorted({s.label for s in dataset.series})
    if len(raw) < 2:
        raise ValueError(f"dataset {dataset.name!r} has a single class {raw}; need >= 2")
    label_map = {r: i for i, r in enumerate(raw)}
    series = tuple(
        TimeSeries(values=s.values, label=label_map[s.label], source_id=s.source_id)
        for s in dataset.series
    )
    return Dataset(name=dataset.name, series=series, label_map=label_map)


def preprocess(series: TimeSeries, target_len: int, znorm: bool = False) -> TimeSeries:
    """Fill missing values, resample to ``target_len``, optionally z-normalize.

    Interior NaNs are linearly interpolated; leading/trailing NaNs take the
    nearest finite value. Resampling is linear over a common [0, 1] grid.
    Constant series under znorm become all zeros rather than erroring.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    v = series.values
    finite = np.isfinite(v)
    if finite.sum() < 2:
        raise ValueError(f"series {series.source_id} has {int(finite.sum())} finite value(s); need >= 2")
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
    return TimeSeries(values=v, label=series.label, source_id=series.source_id)


def preprocess_dataset(dataset: Dataset, target_len: int, znorm: bool = False) -> Dataset:
    """Apply :func:`preprocess` to every series."""
    series = tuple(preprocess(s, target_len, znorm) for s in dataset.series)
    return Dataset(name=dataset.name, series=series, label_map=dataset.label_map)


def stratified_split(dataset: Dataset, seed: int) -> SplitPair:
    """Split into class-balanced halves, the extra odd sample going to d_eval.

    Membership is a seeded permutation per class; within each half the
    original file order is preserved. Deterministic for a fixed seed.
    """
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    eval_idx: list[int] = []
    test_idx: list[int] = []
    inverse = {v: k for k, v in dataset.label_map.items()} if dataset.label_map else {}
    for c in range(dataset.num_classes):
        members = np.flatnonzero(labels == c)
        if members.shape[0] < 2:
            raw = inverse.get(c, c)
            raise ValueError(
                f"class {c} (raw label {raw}) has {members.shape[0]} sample(s); need >= 2 to split"
            )
        perm = rng.permutation(members)
        n_eval = (members.shape[0] + 1) // 2
        eval_idx.extend(perm[:n_eval].tolist())
        test_idx.extend(perm[n_eval:].tolist())
    eval_idx.sort()
    test_idx.sort()
    d_eval = Dataset(
        name=f"{dataset.name}/eval",
        series=tuple(dataset.series[i] for i in eval_idx),
        label_map=dataset.label_map,
    )
    d_test = Dataset(
        name=f"{dataset.name}/test",
        series=tuple(dataset.series[i] for i in test_idx),
        label_map=dataset.label_map,
    )
    return SplitPair(d_eval=d_eval, d_test=d_test, seed=seed)
