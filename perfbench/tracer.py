"""Outside-in span tracer for one `tsadv` CLI stage process.

The tracer wraps public functions and methods of the `tsadv` modules from
outside the package: nothing under `src/` knows it exists. Each wrapped call
is a span; a span's self time is its duration minus the time covered by the
spans it encloses. Spans are aggregated in memory by name (calls, total,
self) and by caller edge, and written out once when the stage ends.

Run a traced stage as

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json <tsadv CLI args...>

which imports `tsadv.cli`, installs the wrappers, runs the stage, removes
every wrapper again and writes TRACE.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

WRAPPED_MARK = "__perfbench_wrapped__"

# autodiff primitives that create graph nodes; none of them calls another, so
# their spans are leaves. tmean is composite (tsum + mul) and stays unwrapped.
AUTODIFF_OPS = ("add", "mul", "matmul", "relu", "log", "pow_const", "clamp_min", "tsum",
                "reshape", "concat", "softmax", "conv1d", "maxpool1d")

# (module, function) -> span name, for plain spans with no extra counters
FUNCTION_SPANS = {
    ("tsadv.data", "load_ucr"): "data.load_ucr",
    ("tsadv.data", "save_ucr"): "data.save_ucr",
    ("tsadv.data", "preprocess_dataset"): "data.preprocess",
    ("tsadv.nn", "save_model"): "nn.save_model",
    ("tsadv.nn", "load_model"): "nn.load_model",
    ("tsadv.distill", "teacher_outputs"): "distill.teacher_outputs",
    ("tsadv.attack", "train_gatn"): "attack.train_gatn",
    ("tsadv.attack", "generate"): "attack.generate",
    ("tsadv.attack", "beta_grid_search"): "attack.beta_grid_search",
    ("tsadv.evaluate", "count_adversaries_labeled"): "evaluate.count",
    ("tsadv.evaluate", "count_adversaries_unlabeled"): "evaluate.count",
    ("tsadv.evaluate", "generalization_eval"): "evaluate.generalization",
    ("tsadv.evaluate", "pairwise_wilcoxon"): "evaluate.wilcoxon",
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("tsadv.nn", "Network", "forward"): "nn.forward",
    ("tsadv.nn", "BatchNorm1d", "forward"): "nn.batchnorm",
    ("tsadv.nn", "Adam", "step"): "nn.adam.step",
    ("tsadv.autodiff", "Tensor", "backward"): "autodiff.backward",
    ("tsadv.teachers", "FCNTeacher", "predict_labels"): "teachers.predict_labels",
    ("tsadv.teachers", "FCNTeacher", "predict_proba"): "teachers.predict_proba",
    ("tsadv.teachers", "DTW1NNTeacher", "predict_labels"): "teachers.predict_labels",
    ("tsadv.teachers", "DTW1NNTeacher", "predict_proba"): "teachers.predict_proba",
}


def row_digests(rows) -> list[str]:
    """Short content digest of each row of a 2-D or [N, 1, T] array."""
    import numpy as np

    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    return [hashlib.blake2b(r.tobytes(), digest_size=8).hexdigest() for r in flat]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[str, float] = defaultdict(float)  # "parent>child" -> total_s
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - covered
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.edges[f"{parent[0]}>{name}"] += duration
        return duration

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "edges": dict(self.edges),
                "counters": dict(self.counters),
                "distinct": {k: sorted(v) for k, v in self.distinct.items()}}


def _mark(wrapper, original):
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper


class Patcher:
    """Replaces attributes and remembers the originals so all can be restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_everywhere(self, module_name: str, attr: str, value) -> None:
        """Rebind a module function in its module and in every `tsadv` module
        that imported it by name, so callers that hold the name see the wrapper."""
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if (name == "tsadv" or name.startswith("tsadv.")) and getattr(module, attr, None) is original:
                self.set(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _plain_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)
    return _mark(wrapper, fn)


def _op_wrapper(tracer: Tracer, op: str, fn):
    fwd_name = f"autodiff.{op}"
    bwd_name = f"autodiff.{op}.bwd"

    def wrapper(*args, **kwargs):
        out = tracer.span(fwd_name, fn, *args, **kwargs)
        backward = out._backward
        if backward is not None:
            in_batchnorm = tracer.active("nn.batchnorm")

            def timed_backward(g):
                tracer.enter(bwd_name)
                try:
                    backward(g)
                finally:
                    duration = tracer.exit()
                    if in_batchnorm:
                        tracer.counters["nn.batchnorm.bwd_s"] += duration

            out._backward = timed_backward
        return out
    return _mark(wrapper, fn)


def _epochs_wrapper(tracer: Tracer, name: str, fn):
    """Span whose first argument is a Network; counts the epochs it logged."""
    def wrapper(model, *args, **kwargs):
        before = len(model.training_log)
        try:
            return tracer.span(name, fn, model, *args, **kwargs)
        finally:
            tracer.counters[f"{name}.epochs"] += len(model.training_log) - before
    return _mark(wrapper, fn)


def _input_gradient_wrapper(tracer: Tracer, fn):
    def wrapper(model, x, target_class):
        tracer.counters["nn.input_gradient.rows"] += len(x)
        tracer.distinct["nn.input_gradient.rows"].update(row_digests(x))
        return tracer.span("nn.input_gradient", fn, model, x, target_class)
    return _mark(wrapper, fn)


def _pairwise_wrapper(tracer: Tracer, fn):
    def wrapper(eval_values, ref_values, processes=None):
        out = tracer.span("dtw.pairwise", fn, eval_values, ref_values, processes=processes)
        (n, t), (m, u) = eval_values.shape, ref_values.shape
        tracer.counters["dtw.cells"] += n * m * t * u
        tracer.counters["dtw.rows"] += n
        tracer.distinct["dtw.rows"].update(row_digests(eval_values))
        return out
    return _mark(wrapper, fn)


def _distance_matrix_wrapper(tracer: Tracer, fn):
    def wrapper(self, x):
        before = tracer.spans.get("dtw.pairwise", [0])[0]
        out = tracer.span("teachers.distance_matrix", fn, self, x)
        if tracer.spans.get("dtw.pairwise", [0])[0] == before:
            tracer.counters["teachers.distance_matrix.hits"] += 1
        return out
    return _mark(wrapper, fn)


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced `tsadv` function and method; returns the undo record."""
    for module in ("tsadv.autodiff", "tsadv.data", "tsadv.nn", "tsadv.models", "tsadv.distill",
                   "tsadv.attack", "tsadv.dtw", "tsadv.teachers", "tsadv.evaluate", "tsadv.cli"):
        importlib.import_module(module)
    mods = sys.modules
    patcher = Patcher()
    for op in AUTODIFF_OPS:
        patcher.set_everywhere("tsadv.autodiff", op,
                               _op_wrapper(tracer, op, getattr(mods["tsadv.autodiff"], op)))
    for (module, attr), name in FUNCTION_SPANS.items():
        patcher.set_everywhere(module, attr, _plain_wrapper(tracer, name, getattr(mods[module], attr)))
    for (module, cls_name, attr), name in METHOD_SPANS.items():
        cls = getattr(mods[module], cls_name)
        patcher.set(cls, attr, _plain_wrapper(tracer, name, cls.__dict__[attr]))
    patcher.set_everywhere("tsadv.models", "train_classifier", _epochs_wrapper(
        tracer, "models.train_classifier", mods["tsadv.models"].train_classifier))
    patcher.set_everywhere("tsadv.distill", "train_student", _epochs_wrapper(
        tracer, "distill.train_student", mods["tsadv.distill"].train_student))
    patcher.set_everywhere("tsadv.nn", "input_gradient_with_probs", _input_gradient_wrapper(
        tracer, mods["tsadv.nn"].input_gradient_with_probs))
    patcher.set_everywhere("tsadv.dtw", "dtw_pairwise", _pairwise_wrapper(
        tracer, mods["tsadv.dtw"].dtw_pairwise))
    teacher_cls = mods["tsadv.teachers"].DTW1NNTeacher
    patcher.set(teacher_cls, "distance_matrix",
                _distance_matrix_wrapper(tracer, teacher_cls.__dict__["distance_matrix"]))
    return patcher


def leftover_wrappers() -> list[str]:
    """Names of wrapped callables still reachable from loaded `tsadv` modules."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "tsadv" or mod_name.startswith("tsadv.")):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                found.extend(f"{mod_name}.{attr}.{meth}" for meth, fn in vars(value).items()
                             if getattr(fn, WRAPPED_MARK, False))
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json <tsadv CLI args...>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("tsadv.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    patcher = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        patcher.restore()
    blob = tracer.to_dict()
    blob.update(import_s=import_s, exit_code=code, leftover_wrappers=leftover_wrappers())
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
