"""sfcaudio benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing needs installing). Inputs are generated from ``--seed``;
generation time is outside every metric. The workloads are described in
``workloads.py`` and in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with nothing instrumented:

    produce_per_s  work units per second through the workload's first stage:
                   speech-batch files/s of CLI encode (process start
                   included), long-roundtrip 10^6 samples/s of
                   encode + export_raw, curve-analysis 10^6 table points/s
                   of the eight order-11 build_curve calls
    consume_per_s  the second stage: speech-batch pairs/s of CLI mixup,
                   long-roundtrip 10^6 samples/s of import_raw + decode +
                   save_wav, curve-analysis 10^6 rows/s of CLI curve-table
    job_s          seconds for the workload's job once: one encode plus one
                   mixup, one pass over the 128 clips, or on curve-analysis
                   the tools run on the tables (CLI curve-table, CLI
                   verify-lemma, compare_curves), whose builds are
                   produce_per_s already
    peak_rss_mb    largest peak resident set (MiB) of any child process
    setup_s        median set-up time: a one-clip CLI encode, the first
                   get_curve of both order-10 tables, or CLI --help

Lines before the result also print each workload's figures under the
names the project uses (encode_files_per_s, table_build_s, ...), with
failed_ops_ratio. ``--trace 1`` runs the job in this process, once plain
and once with every layer function wrapped, and reports the per-layer
metrics of BENCHMARK.json (0 where a workload never calls a layer) plus
the tracing overhead; ``layers.json`` says which end-to-end metric each
should move. The last line of standard output is the JSON result; a
fuller record goes to ``.perfbench_out/``.

Every output is checked (see the workloads); a wrong or missing outcome
makes the run fail with exit code 1 after printing the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cli_worker_count() -> int:
    """The encode pool size the CLI picks by default (1 if it has no pool)."""
    from sfcaudio import cli

    count = getattr(cli, "_worker_count", None)
    return count() if count else 1


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in [k for k in os.environ if k.startswith("SFCAUDIO_")]:
        del os.environ[name]  # the CLI runs with its defaults, here and in every child

    import numpy as np
    import sfcaudio
    from harness import BenchError, Context, Named

    if Path(sfcaudio.__file__).resolve().parent != ROOT / "src" / "sfcaudio":
        print(f"sfcaudio was imported from {sfcaudio.__file__}, not from src/", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work, cli_worker_count())
    try:
        values = workloads.WORKLOADS[args.workload](ctx)
    except BenchError as exc:
        print(f"benchmark could not measure: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        values["peak_rss_mb"] = max(ctx.peaks_mb, default=0.0)
        ctx.named.append(Named("peak_rss_mb", values["peak_rss_mb"], "MB",
                               f"max over {len(ctx.peaks_mb)} child processes"))
    missing = sorted(units.keys() - values.keys())
    if missing:
        ctx.checks.expect(False, f"no value for {', '.join(missing)}")

    checks = ctx.checks
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(), "src_sha256": source_digest(),
        "cli_workers": ctx.cli_workers, "samples": ctx.samples,
    }
    print(f"# meta {json.dumps(meta)}")
    for n in ctx.named:
        print(f"{args.workload} {n.name} = {n.value:.6g} {n.unit}  ({n.samples})")
    print(f"{args.workload} failed_ops_ratio = {ratio:.6g}  ({checks.failed} of {checks.attempted})")
    for problem in checks.problems:
        print(f"# check failed: {problem}")

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": checks.failed == 0 and checks.attempted > 0,
              "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "named": [vars(n) for n in ctx.named], "problems": checks.problems,
              "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if ctx.tracer is not None:
        ctx.tracer.dump(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "sfcaudio" / "__init__.py").is_file():
        print(f"no sfcaudio sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
