"""Child-process entry points of the benchmark.

    python3 perfbench/worker.py cli ARGS...        run the sfcaudio CLI
    python3 perfbench/worker.py build CURVE ORDER  time one build_curve call
    python3 perfbench/worker.py compare ORDER GAPS time compare_curves
    python3 perfbench/worker.py roundtrip SEED SECONDS WORKDIR

``cli`` behaves as ``python -m sfcaudio.cli ARGS`` does. Every task ends by
writing its peak resident set to stderr as ``perfbench-peak-kb N``, taken
from VmHWM: ru_maxrss of a child can carry its parent's peak across exec,
so the parent cannot read it. The library tasks print one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

PEAK_TAG = "perfbench-peak-kb"


def peak_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def table_digest(cm) -> str:
    """SHA-256 of a curve table's (xs, ys), independent of their integer dtype."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cm.xs, dtype="<u4").tobytes())
    h.update(np.ascontiguousarray(cm.ys, dtype="<u4").tobytes())
    return h.hexdigest()


def _build(curve: str, order: str) -> dict:
    from sfcaudio.curves import CurveKind, build_curve

    kind = CurveKind.from_name(curve)
    start = time.perf_counter()
    cm = build_curve(kind, int(order))
    end = time.perf_counter()
    return {"start": start, "end": end, "build_s": end - start, "digest": table_digest(cm)}


def _compare(order: str, gaps: str) -> dict:
    import hashlib

    from sfcaudio.locality import compare_curves, reports_to_csv

    start = time.perf_counter()
    reports = compare_curves(int(order), [int(g) for g in gaps.split(",")])
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(reports_to_csv(reports).encode()).hexdigest()
    return {"compare_s": seconds, "digest": digest}


def _roundtrip(seed: str, seconds: str, workdir: str) -> dict:
    from pathlib import Path

    import workloads

    return workloads.roundtrip(Path(workdir), int(seed), float(seconds))


def main(argv: list[str]) -> int:
    task, args = argv[0], argv[1:]
    try:
        if task == "cli":
            from sfcaudio.cli import main as cli_main

            cli_main(args=args, prog_name="sfcaudio")
            return 0
        tasks = {"build": _build, "compare": _compare, "roundtrip": _roundtrip}
        print(json.dumps(tasks[task](*args)))
        return 0
    except SystemExit as exc:  # click exits through SystemExit
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    except Exception:  # the caller counts the failure; keep the peak line last
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        print(f"\n{PEAK_TAG} {peak_kb()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
