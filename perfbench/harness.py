"""Run context shared by the workloads: child processes, checks, statistics."""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from worker import PEAK_TAG

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUN_LIMIT_S = 170  # the whole run, children included, ends within this


class BenchError(RuntimeError):
    """The run could not measure: a child failed to start, hung or died."""


@dataclass
class Proc:
    wall: float
    code: int
    stdout: str
    stderr: str
    peak_mb: float


@dataclass
class Checks:
    """Counts of operations attempted and of wrong or missing outcomes."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Named:
    """A workload-specific end-to-end figure, printed by name before the result."""

    name: str
    value: float
    unit: str
    samples: str


class Context:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 cli_workers: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.cli_workers = cli_workers
        self.tracer = None  # set by a traced run; its spans are written out at the end
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.checks = Checks()
        self.named: list[Named] = []
        self.peaks_mb: list[float] = []
        self.samples: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left

    def child(self, *args) -> Proc:
        """Run worker.py with ``args``; wall time includes process start."""
        cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[:2]} did not finish in time") from None
        wall = time.perf_counter() - start
        tail = done.stderr.rstrip().rsplit("\n", 1)[-1].split()
        if len(tail) != 2 or tail[0] != PEAK_TAG:
            raise BenchError(f"{args[:2]} exited {done.returncode}: {done.stderr[-2000:]}")
        peak = int(tail[1]) / 1024
        self.peaks_mb.append(peak)
        return Proc(wall, done.returncode, done.stdout, done.stderr, peak)

    def cli(self, *args) -> Proc:
        return self.child("cli", *args)

    def note(self, name: str, values, unit: str, samples: str) -> float:
        value = median(values)
        self.named.append(Named(name, value, unit, samples))
        return value


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def run_cli_in_process(args) -> tuple[int, str, float]:
    """``sfcaudio.cli.main`` in this process (standalone_mode=False).

    Returns exit code, captured stdout and wall seconds.
    """
    from sfcaudio import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args=[str(a) for a in args], prog_name="sfcaudio", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), time.perf_counter() - start
