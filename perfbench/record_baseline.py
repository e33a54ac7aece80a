"""Run the benchmark many times and record a baseline with its spread.

    python3 perfbench/record_baseline.py

For each workload of BENCHMARK.json: two sets of ten untraced runs, seeds
1-10 and then 11-20, then one traced run with seed 1. For every end-to-end
metric it reports each set's median and quartile spread (q3 - q1) / median,
as statistics.quantiles(values, n=4) gives them, against the bound in
BENCHMARK.json, and in ``repeat_check`` how far the second set's median is
worse than the first's. It flags every number that differs by more than
15% from the single-run baseline table in ROADMAP.md, and writes
perfbench/baseline.json. Takes about an hour on 2 vCPUs. Exits 1 if a run
failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS_PER_SET = 10

# (workload, source, metric, ROADMAP value, ROADMAP row). "named" figures come
# from the untraced runs' medians, "trace" ones from the traced run.
ROADMAP_TOLERANCE = 0.15
ROADMAP = [
    ("speech-batch", "named", "encode_files_per_s", 2000 / 10.3,
     "CLI encode on 2000 clips, hilbert k=7, center and shift: 10.3 s with 2 workers"),
    ("speech-batch", "trace", "signal.center_us.p50", 2200, "per 1-s clip, hilbert k=7: center 2200 us"),
    ("speech-batch", "trace", "signal.load_wav_us.p50", 59, "per 1-s clip: load_wav 59 us"),
    ("speech-batch", "trace", "signal.random_shift_us.p50", 34, "per 1-s clip: random_shift 34 us"),
    ("speech-batch", "trace", "imaging.encode_us.p50", 132, "per 1-s clip: encode 132 us"),
    ("speech-batch", "trace", "imaging.export_raw_us.p50", 393, "per 1-s clip: export_raw 393 us"),
    ("speech-batch", "trace", "imaging.import_raw_us.p50", 186, "per 1-s clip: import_raw 186 us"),
    ("curve-analysis", "named", "curve_table_s", 2.2, "CLI curve-table hilbert k=10 (1M rows): 2.2 s"),
    ("curve-analysis", "named", "setup_s", 0.21, "--help startup: 0.21 s"),
    ("curve-analysis", "trace", "cli.startup_s", 0.21, "--help startup: 0.21 s"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    named = json.loads(record.read_text())["named"] if result else []
    print(f"{workload} seed={seed} trace={trace} exit={done.returncode} {took:.1f} s", flush=True)
    return {"seed": seed, "exit": done.returncode, "wall_s": took, "result": result,
            "named": {n["name"]: n["value"] for n in named}}


def quartile_spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "runs_per_set": RUNS_PER_SET, "sets": SETS, "workloads": {}}
    repeat_check = {}
    failed = False
    for workload in names:
        sets = [[run_once(workload, s, seconds, 0)
                 for s in range(1 + k * RUNS_PER_SET, 1 + (k + 1) * RUNS_PER_SET)]
                for k in range(SETS)]
        traced = run_once(workload, 1, seconds, 1)
        runs = [r for s in sets for r in s] + [traced]
        failed |= any(r["exit"] != 0 or not (r["result"] or {}).get("correct") for r in runs)
        summary, repeats = {}, {}
        for metric, m in metrics.items():
            per_set = [[r["result"]["metrics"][metric]["value"] for r in s if r["result"]] for s in sets]
            entry = {"bound": m["bound"], "sets": [quartile_spread(v) for v in per_set]}
            entry["spread_below_third_of_bound"] = all(s["spread"] < m["bound"] / 3 for s in entry["sets"])
            summary[metric] = entry
            first, second = (s["median"] for s in entry["sets"])
            worse = (first - second) / first if m["better"] == "higher" else (second - first) / first
            repeats[metric] = {"first_median": first, "second_median": second,
                               "second_worse_by": worse, "within_bound": worse <= m["bound"]}
        repeat_check[workload] = repeats
        named = {}
        for name in sets[0][0]["named"]:
            values = [r["named"][name] for s in sets for r in s if name in r["named"]]
            named[name] = quartile_spread(values)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "named": named,
            "per_layer": {k: v["value"] for k, v in (traced["result"] or {}).get("metrics", {}).items()},
            "runs": [{"seed": r["seed"], "exit": r["exit"], "wall_s": round(r["wall_s"], 1),
                      "attempted": (r["result"] or {}).get("attempted"),
                      "failed": (r["result"] or {}).get("failed"),
                      "metrics": {k: v["value"] for k, v in (r["result"] or {}).get("metrics", {}).items()},
                      "named": r["named"]} for r in runs],
        }
    report["repeat_check"] = {
        "about": "second_worse_by: how far the median of the second set of runs (seeds 11-20) is worse "
                 "than that of the first (seeds 1-10), as a share of the first; within_bound compares "
                 "it with the metric's bound in BENCHMARK.json.",
        "workloads": repeat_check,
    }

    flags = []
    for workload, source, metric, theirs, row in ROADMAP:
        w = report["workloads"].get(workload)
        if w is None:
            continue
        ours = w["named"][metric]["median"] if source == "named" else w["per_layer"].get(metric)
        if ours is None:
            continue
        off = ours / theirs - 1.0
        flags.append({"workload": workload, "metric": metric, "ours": ours, "roadmap": theirs,
                      "off_by": off, "flagged": abs(off) > ROADMAP_TOLERANCE, "roadmap_row": row})
    report["roadmap_comparison"] = flags
    meta_path = ROOT / ".perfbench_out" / f"{names[0]}-seed1-trace0.json"
    report["machine"] = {k: v for k, v in json.loads(meta_path.read_text())["meta"].items()
                         if k in ("nproc", "python", "numpy", "commit", "src_sha256", "cli_workers")}
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")

    for workload, w in report["workloads"].items():
        for name, e in w["named"].items():
            print(f"{workload:15s} {name:20s} median {e['median']:.5g} spread {e['spread']:.3f}")
        for metric, e in w["end_to_end"].items():
            spreads = ", ".join(f"{s['spread']:.3f}" for s in e["sets"])
            worse = repeat_check[workload][metric]["second_worse_by"]
            mark = "" if e["spread_below_third_of_bound"] else "  <-- spread above bound/3"
            print(f"{workload:15s} {metric:14s} median {e['sets'][0]['median']:.5g} "
                  f"spread {spreads} (bound {e['bound']}), set 2 worse by {worse:+.3f}{mark}")
    for f in flags:
        print(f"{'FLAG' if f['flagged'] else 'ok  '} {f['workload']} {f['metric']}: {f['ours']:.4g} vs "
              f"ROADMAP {f['roadmap']:.4g} ({f['off_by']:+.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
