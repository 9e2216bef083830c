"""End-to-end benchmark of the `tsadv` CLI pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wb-fcn-power --seed 1 --seconds 50 --trace 0

Each workload is a closed loop: one harness process runs the pipeline's stages
one after another, one `python3 -m tsadv.cli` process per stage, exactly as a
user would type them, on an archive generated from the seed. The pipeline is
repeated at least twice, and then while another repetition fits in the run
length; every timing is the median over the repetitions. `setup_s` is the
median over every repetition's `prepare` and three more timed `prepare` runs
before each repetition. Every repetition's outputs are checked, and
a stage that exits non-zero or fails a check counts as failed, never as a
fast run.

The harness and every stage it starts run on one CPU, and every timing is
scaled to a reference host speed. A fixed probe, numpy work shaped like the
program's hot loops and independent of the program, is timed on that CPU
before a stage starts, every `SLICE_S` while the stage is stopped, and after
it exits; each slice of the stage's wall time is multiplied by `PROBE_REF_S`
over the mean of the probes at its two ends. On a shared host whose CPU speed
moves by half from one minute to the next, this removes most of the drift
that a stage's own wall time cannot tell apart from a change to the program.
The raw wall times are printed beside the scaled ones and kept in the record.

With `--trace 1` the run makes one untraced pass and one traced pass, in
which every stage process runs under `perfbench/tracer.py`, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; everything above it is for people. The
full record, environment included, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One BLAS thread per stage process: stages run one at a time, so this never
# starts more threads than cores, and it keeps the figures steady on a shared
# host. Set before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TRACER = os.path.join(BENCH_DIR, "tracer.py")

MIN_ITERATIONS = 2
# the probe's time on the reference host, a fast period of the 2-vCPU VM the
# benchmark was sized on; a slice's scaled time is its wall time times
# PROBE_REF_S over the probe time measured at its ends
PROBE_REF_S = 0.010
PROBE_REPS = 3  # probe runs per measurement; their median is taken
SLICE_S = 0.5  # a running stage is paused and the CPU probed this often
# extra timed `prepare` and `train-teacher` runs before each repetition, so
# that setup_s and teacher_s are medians over samples spread across the whole
# run rather than over the two or three repetitions alone
SETUP_SAMPLES = 2
PROCESS_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0  # no new repetition once it would end past this

STAGE_MANIFESTS = {
    "prepare": "prepare/manifest.json",
    "teacher": "teacher/manifest.json",
    "distill": "student/manifest.json",
    "attack": "attack/manifest.json",
    "evaluate": "reports/manifest.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    teacher: str  # fcn | dtw1nn
    box: str  # white | black
    n_train: int
    n_test: int
    length: int
    attack_epochs: int
    # the probe's work, (DTW queries against 67 rows of 24 points, conv1d
    # forward and weight-gradient pairs), in about the proportions of the
    # stages' own work, so that a slower host slows the probe about as much
    # as it slows the stages
    probe: tuple[int, int]
    teacher_epochs: int = 0  # fcn only
    student_epochs: int = 0  # dtw1nn only

    @property
    def distills(self) -> bool:
        return self.teacher == "dtw1nn"

    def stages(self, run_dir: str, summary_dir: str, archive_dir: str,
               seed: int) -> list[tuple[str, list[str]]]:
        s = str(seed)
        out = ["--out", run_dir]
        stages = [("prepare", ["prepare", *out,
                               "--train-file", os.path.join(archive_dir, "Power_TRAIN.tsv"),
                               "--test-file", os.path.join(archive_dir, "Power_TEST.tsv"),
                               "--seed-split", s])]
        if self.teacher == "fcn":
            stages.append(("teacher", ["train-teacher", *out, "--teacher", "fcn",
                                       "--epochs", str(self.teacher_epochs), "--seed-teacher", s]))
        else:
            stages.append(("teacher", ["train-teacher", *out, "--teacher", "dtw1nn",
                                       "--seed-teacher", s]))
            stages.append(("distill", ["distill", *out, "--box", self.box,
                                       "--epochs", str(self.student_epochs), "--seed-student", s]))
        stages.append(("attack", ["attack", *out, "--box", self.box, "--teacher", self.teacher,
                                  "--beta-grid", "--epochs", str(self.attack_epochs),
                                  "--seed-gatn", s]))
        stages.append(("evaluate", ["evaluate", *out]))
        stages.append(("report", ["report", "--out", summary_dir, "--runs", run_dir]))
        return stages


WORKLOADS = {w.name: w for w in (
    Workload("wb-fcn-power",
             "white-box FCN acceptance pipeline: conv1d and composite batchnorm dominate, no DTW",
             teacher="fcn", box="white", n_train=67, n_test=1029, length=24,
             probe=(2, 12), teacher_epochs=20, attack_epochs=1),
    Workload("bb-dtw-power",
             "black-box dtw1nn pipeline: hard-label DTW queries at T=24 plus LeNet-5, no batchnorm",
             teacher="dtw1nn", box="black", n_train=67, n_test=1029, length=24,
             probe=(4, 6), student_epochs=20, attack_epochs=5),
)}

END_TO_END = {  # name -> unit, the metrics of the result line
    "setup_s": "s", "teacher_s": "s", "attack_s": "s", "evaluate_s": "s",
    "pipeline_s": "s", "rerun_s": "s", "peak_rss_mb": "MB",
}
# printed and recorded, but not bounded: distill_s and report_s read 0 on a
# workload without that stage, and the adversary figures are results that
# vary with the seed by more than any bound allows
INFORMATIONAL = {"distill_s": "s", "report_s": "s", "adv_rate_test": "ratio",
                 "adv_mse_test": "mse"}
STAGE_METRICS = {"prepare": "setup_s", "teacher": "teacher_s", "distill": "distill_s",
                 "attack": "attack_s", "evaluate": "evaluate_s", "report": "report_s"}


@dataclass
class StageRun:
    name: str
    wall_s: float
    scaled_s: float  # wall time scaled to the reference host speed
    rss_mb: float
    code: int


@dataclass
class Iteration:
    index: int
    traced: bool
    stages: list[StageRun] = field(default_factory=list)
    rerun: list[StageRun] = field(default_factory=list)
    pipeline_s: float = 0.0
    rerun_s: float = 0.0
    artifacts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    failed_stages: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed_stages

    def fail(self, stage: str, message: str) -> None:
        self.failed_stages.add(stage)
        self.problems.append(f"{stage}: {message}")


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _terminate(signum, frame):
    # unwinds through run_process, which kills and reaps the running stage
    raise SystemExit(128 + signum)


_PROBE_INPUTS: tuple = ()


def probe_once(mix: tuple[int, int]) -> float:
    """Wall seconds of one fixed slice of work shaped like the program's hot
    loops: the DTW recurrence over small numpy rows, and a conv1d forward and
    weight gradient through einsum. It uses numpy only, never the program."""
    global _PROBE_INPUTS
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    if not _PROBE_INPUTS:
        rng = np.random.default_rng(0)
        _PROBE_INPUTS = (rng.standard_normal((67, 24)), rng.standard_normal((8, 24)),
                         rng.standard_normal((16, 32, 31)), rng.standard_normal((64, 32, 8)))
    refs, queries, x, w = _PROBE_INPUTS
    n_queries, n_convs = mix
    start = time.perf_counter()
    for q in queries[:n_queries]:
        prev = np.cumsum((q[0] - refs) ** 2, axis=1)
        cur = np.empty_like(prev)
        for i in range(1, q.shape[0]):
            cost = (q[i] - refs) ** 2
            cur[:, 0] = prev[:, 0] + cost[:, 0]
            for j in range(1, refs.shape[1]):
                cur[:, j] = cost[:, j] + np.minimum(np.minimum(prev[:, j], prev[:, j - 1]), cur[:, j - 1])
            prev, cur = cur, prev
    for _ in range(n_convs):
        windows = sliding_window_view(x, w.shape[2], axis=2)
        y = np.einsum("bclk,ock->bol", windows, w, optimize=True)
        np.einsum("bol,bclk->ock", y, windows, optimize=True)
    return time.perf_counter() - start


def probe(mix: tuple[int, int]) -> float:
    """Median of `PROBE_REPS` probe runs, in seconds."""
    return statistics.median(probe_once(mix) for _ in range(PROBE_REPS))


def _signal_group(pid: int, sig: int) -> None:
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:  # already exited; wait4 reports it
        pass


def run_process(cmd: list[str], log_path: str, env: dict, probe_mix: tuple[int, int],
                pause: bool = True) -> tuple[float, float, float, int]:
    """Run one process to completion; returns wall and scaled seconds, peak RSS in MB
    and exit code.

    Every `SLICE_S` the process's group is stopped while the probe runs on
    the CPU it shares with this process, and each slice's wall time is scaled
    by the mean of the probes at its two ends, so that a change of host speed
    in the middle of a long stage is caught. Time spent stopped is counted in
    neither figure. With `pause` false the process is probed only before it
    starts and after it exits, for a traced stage, whose spans would
    otherwise include the pauses. The child is reaped with wait4, which
    returns its own resource usage, so the peak RSS belongs to this process
    alone.
    """
    timeout_ms = (SLICE_S if pause else PROCESS_TIMEOUT_S) * 1000
    wall = scaled = 0.0
    probe_start = probe(probe_mix)
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                process_group=0)
        slice_start = time.perf_counter()
        pidfd = None
        try:
            pidfd = os.pidfd_open(proc.pid)  # readable once the process has exited
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                if poller.poll(timeout_ms):
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    _signal_group(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                elapsed = time.perf_counter() - slice_start
                probe_end = probe(probe_mix)
                wall += elapsed
                scaled += elapsed * PROBE_REF_S / ((probe_start + probe_end) / 2)
                probe_start = probe_end
                if not os.WIFSTOPPED(status):
                    break
                if wall > PROCESS_TIMEOUT_S:
                    raise TimeoutError(f"stage process ran longer than {PROCESS_TIMEOUT_S:.0f} s")
                _signal_group(proc.pid, signal.SIGCONT)
                slice_start = time.perf_counter()
        except BaseException:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            if pidfd is not None:
                os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, scaled, usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss is in KiB on Linux


def run_stage(name: str, argv: list[str], log_dir: str, env: dict, probe_mix: tuple[int, int],
              trace_path: str | None = None) -> StageRun:
    log_path = os.path.join(log_dir, f"{name}.log")
    if trace_path is None:
        cmd = [sys.executable, "-m", "tsadv.cli", *argv]
    else:
        cmd = [sys.executable, TRACER, trace_path, *argv]
    wall, scaled, rss, code = run_process(cmd, log_path, env, probe_mix, pause=trace_path is None)
    return StageRun(name, wall, scaled, rss, code)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(it: Iteration, workload: Workload, run_dir: str, summary_dir: str) -> None:
    """Output checks of a completed pipeline; records artifacts and quality."""
    manifests = {}
    for stage, rel in STAGE_MANIFESTS.items():
        if stage == "distill" and not workload.distills:
            continue
        path = os.path.join(run_dir, rel)
        if not os.path.exists(path):
            it.fail(stage, f"missing {rel}")
            continue
        manifests[stage] = read_json(path)
    if not os.path.exists(os.path.join(summary_dir, "report.json")):
        it.fail("report", "missing report.json")
    if it.failed_stages:
        return

    prep = manifests["prepare"]
    teacher = manifests["teacher"]
    if workload.teacher == "fcn":
        acc = teacher.get("train_accuracy")
        if not isinstance(acc, float) or not 0.0 <= acc <= 1.0:
            it.fail("teacher", f"train_accuracy {acc!r} not recorded in [0, 1]")
        if teacher.get("epochs_run") != workload.teacher_epochs:
            it.fail("teacher", f"ran {teacher.get('epochs_run')} epochs, "
                               f"expected {workload.teacher_epochs}")
        it.artifacts["teacher_state_hash"] = teacher.get("state_hash")
        it.quality["teacher_train_accuracy"] = acc
    else:
        student = manifests["distill"]
        fid = student.get("fidelity")
        if not isinstance(fid, float) or not 0.0 <= fid <= 1.0:
            it.fail("distill", f"fidelity {fid!r} not recorded in [0, 1]")
        it.artifacts["student_state_hash"] = student.get("state_hash")
        it.quality["student_fidelity"] = fid

    attack = manifests["attack"]
    hashes = attack.get("gatn_state_hashes")
    if not isinstance(hashes, list) or len(hashes) != len(attack.get("betas", [])) or not all(hashes):
        it.fail("attack", "gatn_state_hashes missing or incomplete")
    it.artifacts["gatn_state_hashes"] = hashes
    grid = read_json(os.path.join(run_dir, "attack", "grid_reports.json"))["reports"]
    best = grid[attack["best_index"]]

    reports = {r["split"]: r for r in read_json(os.path.join(run_dir, "reports", "reports.json"))["reports"]}
    if set(reports) != {"d_eval", "d_test"}:
        it.fail("evaluate", f"expected one d_eval and one d_test report, got {sorted(reports)}")
        return
    for split, report in reports.items():
        n, k = report["n_evaluated"], report["num_adversaries"]
        if n != prep["counts"][split]:
            it.fail("evaluate", f"{split}: evaluated {n} rows, split has {prep['counts'][split]}")
        if not 0 <= k <= n:
            it.fail("evaluate", f"{split}: num_adversaries {k} outside [0, {n}]")
        if report["beta"] != attack["best_beta"]:
            it.fail("evaluate", f"{split}: beta {report['beta']} is not the best beta")
    if reports["d_eval"]["num_adversaries"] != best["num_adversaries"]:
        it.fail("evaluate", f"d_eval count {reports['d_eval']['num_adversaries']} differs from the "
                            f"attack stage's {best['num_adversaries']} for the same generator")
    aggregated = read_json(os.path.join(summary_dir, "report.json"))["reports"]
    if sorted(aggregated, key=lambda r: r["split"]) != sorted(reports.values(), key=lambda r: r["split"]):
        it.fail("report", "aggregated report differs from the evaluate stage's reports")

    test = reports["d_test"]
    it.artifacts["adversaries"] = [reports["d_eval"]["num_adversaries"], test["num_adversaries"]]
    it.quality["adv_rate_test"] = test["num_adversaries"] / test["n_evaluated"]
    it.quality["adv_mse_test"] = test["mse_adversaries"]


def checked(it: Iteration, workload: Workload, run_dir: str, summary_dir: str) -> None:
    """check_outputs, with unreadable or malformed outputs counted as a failure."""
    try:
        check_outputs(it, workload, run_dir, summary_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        it.fail("outputs", f"unreadable or malformed output: {exc!r}")


def run_iteration(index: int, workload: Workload, work_dir: str, archive_dir: str, seed: int,
                  env: dict, traced: bool, rerun: bool) -> Iteration:
    it = Iteration(index=index, traced=traced)
    it_dir = os.path.join(work_dir, f"iter{index}{'-traced' if traced else ''}")
    run_dir = os.path.join(it_dir, "run")
    summary_dir = os.path.join(it_dir, "summary")
    log_dir = os.path.join(it_dir, "logs")
    os.makedirs(log_dir)
    stages = workload.stages(run_dir, summary_dir, archive_dir, seed)

    for name, argv in stages:
        trace_path = os.path.join(log_dir, f"{name}.trace.json") if traced else None
        result = run_stage(name, argv, log_dir, env, workload.probe, trace_path)
        it.stages.append(result)
        if result.code != 0:
            it.fail(name, f"exit code {result.code} (see {os.path.relpath(log_dir, ROOT)})")
            return it
    it.pipeline_s = sum(s.scaled_s for s in it.stages)
    checked(it, workload, run_dir, summary_dir)
    if traced and it.ok:
        for name, _ in stages:
            trace = read_json(os.path.join(log_dir, f"{name}.trace.json"))
            if trace["leftover_wrappers"]:
                it.fail(name, f"wrappers left installed: {trace['leftover_wrappers']}")
            it.traces.append(trace)
    if not rerun or not it.ok:
        return it

    # rerun every stage with the configuration unchanged
    before = dict(it.artifacts)
    for name, argv in stages:
        result = run_stage(f"rerun-{name}", argv, log_dir, env, workload.probe)
        it.rerun.append(result)
        if result.code != 0:
            it.fail(name, f"rerun exit code {result.code}")
            return it
    it.rerun_s = sum(s.scaled_s for s in it.rerun)
    checked(it, workload, run_dir, summary_dir)
    if it.ok and it.artifacts != before:
        it.fail("attack", "artifacts changed on a rerun with an unchanged configuration")
    return it


def time_setup_stages(workload: Workload, work_dir: str, archive_dir: str, seed: int,
                      env: dict, tag: str, count: int) -> tuple[dict, int, int, set]:
    """Run `prepare` then `train-teacher` `count` times into fresh directories.

    Returns the scaled times by metric, the stages attempted and failed, and
    the teacher state hashes seen (None for the DTW teacher, which has none).
    """
    times: dict[str, list[float]] = {"setup_s": [], "teacher_s": []}
    attempted = failed = 0
    hashes = set()
    for rep in range(count):
        rep_dir = os.path.join(work_dir, f"setup-{tag}-{rep}")
        run_dir = os.path.join(rep_dir, "run")
        os.makedirs(rep_dir)
        for name, argv in workload.stages(run_dir, "", archive_dir, seed)[:2]:
            attempted += 1
            result = run_stage(name, argv, rep_dir, env, workload.probe)
            manifest = os.path.join(run_dir, STAGE_MANIFESTS[name])
            if result.code != 0 or not os.path.exists(manifest):
                failed += 1
                break
            times[STAGE_METRICS[name]].append(result.scaled_s)
        else:
            hashes.add(read_json(manifest).get("state_hash"))
    return times, attempted, failed, hashes


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, seconds: int, cpus: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "nproc": len(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cpu": sorted(os.sched_getaffinity(0)),  # the one the run is pinned to
        "probe_ref_s": PROBE_REF_S,
        "seed": seed,
        "run_seconds": seconds,
        "machine": platform.machine(),
    }


def median(values: list[float]) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(iterations: list[Iteration], setup_times: dict[str, list[float]]) -> dict:
    good = [it for it in iterations if it.ok and not it.traced]
    per_stage = {m: [] for m in STAGE_METRICS.values()}
    for it in good:
        for stage in it.stages:
            per_stage[STAGE_METRICS[stage.name]].append(stage.scaled_s)
    metrics = {
        "setup_s": median(setup_times["setup_s"] + per_stage["setup_s"]),
        "teacher_s": median(setup_times["teacher_s"] + per_stage["teacher_s"]),
        "distill_s": median(per_stage["distill_s"]),
        "attack_s": median(per_stage["attack_s"]),
        "evaluate_s": median(per_stage["evaluate_s"]),
        "report_s": median(per_stage["report_s"]),
        "pipeline_s": median([it.pipeline_s for it in good]),
        "rerun_s": median([it.rerun_s for it in good]),
        "peak_rss_mb": median([max(s.rss_mb for s in it.stages + it.rerun) for it in good]),
        "adv_rate_test": median([it.quality.get("adv_rate_test") for it in good]),
        "adv_mse_test": median([it.quality.get("adv_mse_test") for it in good]),
    }
    return metrics


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    edges: dict[str, float] = {}
    counters: dict[str, float] = {}
    distinct: dict[str, set] = {}
    for trace in traces:
        for name, (calls, total, self_s) in trace["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, value in trace["edges"].items():
            edges[key] = edges.get(key, 0.0) + value
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, values in trace["distinct"].items():
            distinct.setdefault(key, set()).update(values)
    return {"spans": spans, "edges": edges, "counters": counters,
            "distinct": {k: len(v) for k, v in distinct.items()},
            "import_s": [t["import_s"] for t in traces]}


OPS = ("conv1d", "matmul", "maxpool1d", "softmax", "relu", "mul", "add")


def per_layer_metrics(merged: dict, overhead: float) -> dict:
    spans, counters, distinct = merged["spans"], merged["counters"], merged["distinct"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in OPS:
        m[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}"), "count")
        m[f"autodiff.{op}.fwd_s"] = (total(f"autodiff.{op}"), "s")
        m[f"autodiff.{op}.bwd_s"] = (total(f"autodiff.{op}.bwd"), "s")
    m["autodiff.backward.calls"] = (calls("autodiff.backward"), "count")
    m["autodiff.backward.s"] = (total("autodiff.backward"), "s")
    m["autodiff.backward.self_s"] = (self_s("autodiff.backward"), "s")
    m["nn.batchnorm.fwd_s"] = (total("nn.batchnorm"), "s")
    m["nn.batchnorm.bwd_s"] = (counters.get("nn.batchnorm.bwd_s", 0.0), "s")
    m["nn.forward.calls"] = (calls("nn.forward"), "count")
    m["nn.forward.s"] = (total("nn.forward"), "s")
    m["nn.forward.self_s"] = (self_s("nn.forward"), "s")
    m["nn.input_gradient.calls"] = (calls("nn.input_gradient"), "count")
    m["nn.input_gradient.rows"] = (int(counters.get("nn.input_gradient.rows", 0)), "count")
    m["nn.input_gradient.s"] = (total("nn.input_gradient"), "s")
    m["nn.adam.step_s"] = (total("nn.adam.step"), "s")
    m["nn.model_io_s"] = (total("nn.save_model") + total("nn.load_model"), "s")
    epochs = counters.get("models.train_classifier.epochs", 0.0)
    m["models.train_classifier.s"] = (total("models.train_classifier"), "s")
    m["models.train_classifier.epochs"] = (int(epochs), "count")
    m["models.epoch_s"] = (ratio(total("models.train_classifier"), epochs), "s")
    m["distill.teacher_outputs_s"] = (total("distill.teacher_outputs"), "s")
    m["distill.train_student_s"] = (total("distill.train_student"), "s")
    m["distill.epoch_s"] = (ratio(total("distill.train_student"),
                                  counters.get("distill.train_student.epochs", 0.0)), "s")
    m["attack.train_gatn_s"] = (total("attack.train_gatn"), "s")
    m["attack.generate_s"] = (total("attack.generate"), "s")
    m["attack.grid_count_s"] = (merged["edges"].get("attack.beta_grid_search>evaluate.count", 0.0), "s")
    m["attack.surrogate_grad.useful_ratio"] = (
        ratio(distinct.get("nn.input_gradient.rows", 0), counters.get("nn.input_gradient.rows", 0.0)),
        "ratio")
    cells = counters.get("dtw.cells", 0.0)
    m["dtw.pairwise.calls"] = (calls("dtw.pairwise"), "count")
    m["dtw.pairwise.s"] = (total("dtw.pairwise"), "s")
    m["dtw.cells"] = (int(cells), "count")
    m["dtw.cells_per_s"] = (ratio(cells, total("dtw.pairwise")), "1/s")
    m["dtw.useful_ratio"] = (ratio(distinct.get("dtw.rows", 0), counters.get("dtw.rows", 0.0)), "ratio")
    m["teachers.predict_labels.calls"] = (calls("teachers.predict_labels"), "count")
    m["teachers.predict_proba.calls"] = (calls("teachers.predict_proba"), "count")
    m["teachers.distance_matrix.calls"] = (calls("teachers.distance_matrix"), "count")
    m["teachers.distance_matrix.hit_ratio"] = (
        ratio(counters.get("teachers.distance_matrix.hits", 0.0), calls("teachers.distance_matrix")),
        "ratio")
    m["evaluate.count_s"] = (total("evaluate.count"), "s")
    m["evaluate.generalization_s"] = (total("evaluate.generalization"), "s")
    m["evaluate.wilcoxon_s"] = (total("evaluate.wilcoxon"), "s")
    m["data.load_ucr_s"] = (total("data.load_ucr"), "s")
    m["data.save_ucr_s"] = (total("data.save_ucr"), "s")
    m["data.preprocess_s"] = (total("data.preprocess"), "s")
    m["cli.import_s"] = (statistics.median(merged["import_s"]), "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def print_span_table(merged: dict, limit: int = 40) -> None:
    rows = sorted(merged["spans"].items(), key=lambda kv: -kv[1][1])[:limit]
    print(f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, self_s) in rows:
        print(f"{name:40s} {calls:9d} {total:10.4f} {self_s:10.4f}")


def describe(it: Iteration) -> str:
    """One line per repetition: each stage's scaled time, with its wall time."""
    stages = " ".join(f"{s.name}={s.scaled_s:.2f}s({s.wall_s:.2f})" for s in it.stages)
    status = "ok" if it.ok else "FAILED: " + "; ".join(it.problems)
    extra = "" if it.traced else f" rerun={it.rerun_s:.2f}s"
    rss = max((s.rss_mb for s in it.stages), default=float("nan"))
    return (f"{'traced ' if it.traced else ''}iteration {it.index}: {stages} "
            f"pipeline={it.pipeline_s:.2f}s{extra} peak_rss={rss:.0f}MB [{status}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # one CPU for the harness and, by inheritance, every stage, so the probe
    # measures the CPU the stages run on; the last one, since the first
    # usually takes most of the host's interrupts
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    if not os.path.exists(os.path.join(SRC, "tsadv", "cli.py")):
        print(f"error: no tsadv sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tsadv.synthetic import write_power_profile_archive

    workload = WORKLOADS[args.workload]
    env_record = environment(args.seed, args.seconds, cpus)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"workload {workload.name}: {workload.why}")

    work_dir = os.path.join(OUT_DIR, f"work-{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    archive_dir = os.path.join(work_dir, "archive", "PowerDemand")
    os.makedirs(archive_dir)
    write_power_profile_archive(os.path.join(archive_dir, "Power_TRAIN.tsv"),
                                os.path.join(archive_dir, "Power_TEST.tsv"),
                                n_train=workload.n_train, n_test=workload.n_test,
                                length=workload.length, seed=args.seed)
    env = stage_env()

    # one untimed prepare and teacher first: they warm the page and bytecode caches
    _, attempted, failed, teacher_hashes = time_setup_stages(
        workload, work_dir, archive_dir, args.seed, env, "warmup", 1)
    setup_times: dict[str, list[float]] = {"setup_s": [], "teacher_s": []}
    iterations: list[Iteration] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        it_start = time.perf_counter()
        traced = bool(args.trace) and len(iterations) == 1
        if not args.trace:
            times, tried, bad, hashes = time_setup_stages(
                workload, work_dir, archive_dir, args.seed, env, str(len(iterations)), SETUP_SAMPLES)
            for metric, values in times.items():
                setup_times[metric] += values
            attempted += tried
            failed += bad
            teacher_hashes |= hashes
        it = run_iteration(len(iterations), workload, work_dir, archive_dir, args.seed, env,
                           traced=traced, rerun=not args.trace)
        if iterations and iterations[0].ok and it.ok and it.artifacts != iterations[0].artifacts:
            it.fail("attack", "artifact hashes differ from the first iteration of this run")
        iterations.append(it)
        durations.append(time.perf_counter() - it_start)
        attempted += len(it.stages) + len(it.rerun)
        failed += len(it.failed_stages)
        print(describe(it), flush=True)
        if args.trace:
            if len(iterations) == 2:
                break
            continue
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations)
        if elapsed + typical > RUN_LIMIT_S or (
                len(iterations) >= MIN_ITERATIONS and elapsed + typical > args.seconds):
            break

    problems = [p for it in iterations for p in it.problems]
    expected = iterations[0].artifacts.get("teacher_state_hash")
    if iterations[0].ok and teacher_hashes - {expected}:
        failed += 1
        problems.append(f"teacher: set-up runs gave state hashes {sorted(map(str, teacher_hashes))}, "
                        f"the pipeline {expected}")
        print(problems[-1])

    record = {"workload": workload.name, "why": workload.why, "config": vars(args),
              "environment": env_record, "setup_times": setup_times,
              "setup_stage_times": [s.scaled_s for it in iterations if it.ok and not it.traced
                                    for s in it.stages if s.name == "prepare"],
              "iterations": [describe(it) for it in iterations],
              "stage_runs": [[(s.name, s.wall_s, s.scaled_s) for s in it.stages + it.rerun]
                             for it in iterations],
              "problems": problems,
              "artifacts": iterations[0].artifacts, "quality": iterations[0].quality}
    if args.trace:
        base, traced_it = iterations
        merged = merge_traces(traced_it.traces) if traced_it.ok else None
        overhead = traced_it.pipeline_s / base.pipeline_s if base.ok and traced_it.ok else None
        metrics = per_layer_metrics(merged, overhead) if merged else {}
        if merged:
            print_span_table(merged)
        record["trace"] = merged
    else:
        values = end_to_end_metrics(iterations, setup_times)
        units = {**END_TO_END, **INFORMATIONAL}
        print(f"{'metric':16s} {'value':>12s}  unit")
        for name, value in values.items():
            shown = f"{value:12.4f}" if value is not None else f"{'-':>12s}"
            print(f"{name:16s} {shown}  {units[name]}")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"stage_fail_rate  {failed / attempted:12.4f}  ratio ({failed} of {attempted} stages failed)")

    correct = failed == 0 and all(it.ok for it in iterations) and all(
        value is not None for value, _ in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if correct:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
