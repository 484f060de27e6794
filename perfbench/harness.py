"""Runs one workload: set-up, the timed closed loop, the CLI calls, metrics.

The untraced run (``trace=False``) gives the end-to-end metrics.  The
traced run gives the per-layer metrics: it alternates traced and untraced
cycles, so the difference between them is the tracing overhead.

End-to-end times are reported at a reference machine speed.  On a shared
host the speed of the same code drifts by up to 30% within a minute, which
no length of run averages out.  Before each request and set-up the harness
therefore times a fixed LAPACK kernel like the workload's own work (the
workload's ``calibration``, never through pcattack), and before each CLI
call a fresh interpreter importing numpy.  It scales the measured time by
the kernel's reference time over its time around the measurement.
The kernel drifts with the machine, so the scaled time holds steadier;
raw times are printed beside it.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 120
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(nproc: int) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):      # numpy < 1.26 has no dict mode
        deps = {}

    def library(key):
        info = deps.get(key, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {"numpy": np.__version__, "blas": library("blas"), "lapack": library("lapack"),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)),
            "nproc": nproc, "python": platform.python_version(), "git_commit": git_commit()}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    With too few samples for such a percentile at or above the median, the
    median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter running ``import pcattack``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pcattack"], env=env, check=True,
                   capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class Calibration:
    """A fixed kernel, timed again and again, tracks the machine's speed."""

    def __init__(self, kernel: Callable[[], object], reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.times: list[float] = []

    @classmethod
    def svds(cls, shapes: tuple, reference_s: float) -> "Calibration":
        """SVDs of fixed matrices: tracks the speed of in-process numerical work."""
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        return cls(lambda: [np.linalg.svd(a) for a in arrays], reference_s)

    @classmethod
    def interpreter(cls, env: dict) -> "Calibration":
        """A fresh interpreter importing numpy: tracks the speed of CLI calls.

        Starting a process and parsing text slowed by twice as much as
        numerical work when the host was busy, so CLI calls get their own
        kernel.  The reference is the median on the host of workloads.py.
        """
        return cls(lambda: subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                                          check=True, capture_output=True,
                                          timeout=CLI_TIMEOUT_S), 0.16)

    def sample(self) -> int:
        """Time the kernel once; returns the index of this sample."""
        start = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def scaled(self, seconds: float, index: int) -> float:
        """``seconds`` measured right after sample ``index``, at reference speed.

        The kernel time is the median of the two samples before and the two
        after the measurement, so that one disturbed sample does not skew it
        and a drift is met from both sides.
        """
        window = self.times[max(0, index - 1): index + 3]
        return seconds * self.reference_s / statistics.median(window)


@dataclass
class Loop:
    """Raw times of the requests and calls, each with its calibration sample."""

    requests: list[tuple[float, int, int, bool]] = field(default_factory=list)
    work_calls: list[tuple[float, int, int]] = field(default_factory=list)
    roots: list[dict] = field(default_factory=list)


def _run_request(request: Request, tracer: Tracer | None, mark: int, loop: Loop,
                 tally: Tally) -> None:
    elapsed = 0.0
    units = 0
    for call in request:
        try:
            if tracer is not None:
                with tracer.span(call.kind, units=call.units, trials=call.trials) as root:
                    start = time.perf_counter()
                    out = call.fn()
                    seconds = time.perf_counter() - start
                loop.roots.append(root)
            else:
                start = time.perf_counter()
                out = call.fn()
                seconds = time.perf_counter() - start
            problems = call.check(out)
        except Exception:       # a failing call is counted, and the loop goes on
            tally.record(call.kind, [traceback.format_exc(limit=4)])
            continue
        tally.record(call.kind, problems)
        elapsed += seconds
        units += call.units
        if call.work:
            loop.work_calls.append((seconds, call.work, mark))
    if units:
        loop.requests.append((elapsed / units, units, mark, tracer is not None))


def _run_cli(argv: list[str], check, env: dict, cwd: Path, tally: Tally) -> float:
    """Raw wall time of one CLI call; its outputs are checked."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pcattack", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(f"cli {argv[0]}", [f"timed out after {CLI_TIMEOUT_S} s"])
        return time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    else:
        try:
            problems = check(proc.stdout)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
    tally.record(f"cli {argv[0]}", problems)
    return seconds


def run(name: str, seed: int, seconds: float, trace: bool, nproc: int,
        toy: bool = False) -> dict:
    """Run one workload and return its result, metrics and details."""
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    env = child_env()
    tracer = Tracer() if trace else None
    tally = Tally()
    try:
        workload = WORKLOADS[name](seed, work_dir, toy)
        calibration = Calibration.svds(*workload.calibration)
        cli_calibration = Calibration.interpreter(env)

        setups, import_s = [], []
        for _ in range(SETUP_REPEATS):
            mark = calibration.sample()
            imported = time_import(env)
            start = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                workload.setup()
            setups.append((imported + time.perf_counter() - start, mark))
            import_s.append(imported)

        loop = Loop()
        deadline = time.perf_counter() + seconds
        index = 0
        # Whole cycles keep the mix of operations fixed; a traced run needs
        # at least one traced and one untraced cycle.
        while time.perf_counter() < deadline or (trace and index < 2):
            traced = tracer if trace and index % 2 == 0 else None
            with traced.installed() if traced else nullcontext():
                for request in workload.cycle(index):
                    _run_request(request, traced, calibration.sample(), loop, tally)
            index += 1

        clis = []
        with tracer.installed() if tracer else nullcontext():
            for call in workload.cli_calls():
                mark = cli_calibration.sample()
                clis.append((_run_cli(call.argv, call.check, env, work_dir, tally), mark))
        for _ in range(2):
            calibration.sample()
            cli_calibration.sample()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def per_unit_ms(traced: bool, scale: bool = True) -> list[float]:
        return [1e3 * (calibration.scaled(s, mark) if scale else s)
                for s, _, mark, t in loop.requests if t == traced]

    work = sum(w for _, w, _ in loop.work_calls)
    if trace:
        metrics = layer_metrics(tracer.spans, loop.roots)
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics["trace.overhead_frac"] = (statistics.fmean(per_unit_ms(True))
                                          / statistics.fmean(per_unit_ms(False)) - 1.0)
        samples = per_unit_ms(True)
        tail_pct = None
        raw = {}
    else:
        samples = per_unit_ms(False)
        op_tail, tail_pct = tail(samples)
        metrics = {
            "op_p50_ms": statistics.median(samples),
            "op_tail_ms": op_tail,
            "work_per_s": work / sum(calibration.scaled(s, m) for s, _, m in loop.work_calls),
            "cli_s": statistics.median(cli_calibration.scaled(s, m) for s, m in clis),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(calibration.scaled(s, m) for s, m in setups),
        }
        raw = {
            "op_p50_ms": statistics.median(per_unit_ms(False, scale=False)),
            "work_per_s": work / sum(s for s, _, _ in loop.work_calls),
            "cli_s": statistics.median(s for s, _ in clis),
            "setup_s": statistics.median(s for s, _ in setups),
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(nproc),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems[:20],
        "metrics": metrics,
        "aliases": {alias: metrics[m] for alias, m in workload.aliases.items()
                    if m in metrics},
        "raw": raw,
        "cli_calls_s": [cli_calibration.scaled(s, m) for s, m in clis],
        "samples": len(samples), "cycles": index, "tail_percentile": tail_pct,
        "absent": tracer.absent if tracer else [],
        "tracer": tracer,
    }
