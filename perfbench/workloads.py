"""The three workloads, each a closed loop driven from one process.

speech-batch    CLI ``encode`` (hilbert, order 7, center and shift) over a
                2000-clip corpus of 1-s clips, then CLI ``mixup`` on its
                manifest, repeated because one mixup run is short and its
                time noisy. ``center`` dominates; the 128 KB grid fits in L2.
long-roundtrip  The library path on 128 clips of 49-65 s at order 10,
                alternating hilbert and z: encode + export_raw, then
                import_raw + decode + save_wav. Scatter, gather and .sfci
                I/O on an 8 MB grid dominate; nothing is centered.
curve-analysis  The measurement tools: the eight order-11 tables, each
                built in its own process, CLI ``curve-table`` (hilbert,
                order 10), CLI ``verify-lemma`` and ``compare_curves(8)``.
                The only workload that reaches the equivariance module;
                its job_s leaves the builds out, so that verify-lemma is a
                large share of it.

Each workload returns its end-to-end metrics (untraced run) or its
per-layer metrics (traced run) and records every check in the context.
The CLI runs as a child process with its default worker pool; the traced
run calls ``sfcaudio.cli.main`` in this process instead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import re
import shutil
import time
from pathlib import Path

import numpy as np

import inputs
import reference
from harness import HERE, Checks, Context, median, pct, run_cli_in_process
from tracer import LAYER_FUNCTIONS, Tracer, self_times
from worker import table_digest

CURVES = tuple(reference.CURVE_IDS)
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
MIXUP_REPEATS = 4

ENCODE_ORDER = 7
CENTER = (100, 25.0, 0.0001)

TABLE_ORDER = 11
CURVE_TABLE_ARGS = ("curve-table", "--curve", "hilbert", "--order", "10")
CURVE_TABLE_ROWS = 1 << 20
LEMMA_ARGS = ("verify-lemma", "--curves", "z,hilbert", "--k-range", "2:5", "--l-range", "1:2",
              "--trials", "20")
COMPARE_ORDER = 8
COMPARE_GAPS = "1,4,16,64,256"


def repeat(seconds: float, iteration) -> list[dict]:
    """Call ``iteration(i) -> (values, measured_s)`` for about ``seconds`` of measured time."""
    results, spent = [], 0.0
    while True:
        values, took = iteration(len(results))
        results.append(values)
        spent += took
        if spent + took > seconds:
            return results


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def tree_digests(*dirs: Path) -> dict[str, str]:
    return {
        f"{d.name}/{p.relative_to(d)}": sha256_file(p)
        for d in dirs for p in sorted(d.rglob("*")) if p.is_file()
    }


def read_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def startup_s(ctx: Context, repeats: int) -> list[float]:
    """Wall times of CLI ``--help``: interpreter start plus package import."""
    walls = []
    for _ in range(repeats):
        p = ctx.cli("--help")
        ctx.checks.expect(p.code == 0 and "Usage" in p.stdout, f"--help exited {p.code}")
        walls.append(p.wall)
    return walls


class TracedRun:
    """Runs a job untraced and then traced, in this process, and keeps the spans."""

    def __init__(self):
        self.tracer = Tracer()
        self.walls = {False: 0.0, True: 0.0}
        self.cache_hits = 0
        self.cache_calls = 0

    def run(self, job, traced: bool) -> None:
        from sfcaudio import curves

        get_curve = curves.get_curve
        if hasattr(get_curve, "cache_clear"):
            get_curve.cache_clear()  # start as a fresh CLI process would
        with self.tracer.installed() if traced else contextlib.nullcontext():
            self.walls[traced] += job(traced)
        if traced and hasattr(get_curve, "cache_info"):
            info = get_curve.cache_info()
            self.cache_hits += info.hits
            self.cache_calls += info.hits + info.misses

    def root(self, name: str, traced: bool):
        return self.tracer.span(name, root=True) if traced else contextlib.nullcontext()

    def layer_metrics(self, ctx: Context, *, table_order: int, roots: tuple[str, ...],
                      startup: list[float], build_rss: dict[str, float] | None = None) -> dict:
        ctx.tracer = self.tracer
        spans = self.tracer.spans
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def us(name):
            return [s.duration * 1e6 for s in by_name.get(name, ())]

        m = {}
        builds = by_name.get("curves.build_curve", ())
        for curve in CURVES:
            m[f"curves.build_s.{curve}"] = median(
                [s.duration for s in builds if s.detail == f"{curve}/{table_order}"])
            m[f"curves.build_rss_mb.{curve}"] = (build_rss or {}).get(curve, 0.0)
        m["curves.cache_hit_ratio"] = self.cache_hits / self.cache_calls if self.cache_calls else 0.0
        ctx.samples["curves.cache_hit_ratio"] = f"base: {self.cache_calls} get_curve calls"
        for layer in ("signal", "imaging"):
            for fn in LAYER_FUNCTIONS[layer]:
                values = us(f"{layer}.{fn}")
                m[f"{layer}.{fn}_us.p50"] = pct(values, 50)
                m[f"{layer}.{fn}_us.p90"] = pct(values, 90)
                if values:
                    ctx.samples[f"{layer}.{fn}_us"] = f"{len(values)} calls"
        for cls in inputs.INVALID_CLASSES.values():
            m[f"signal.rejects.{cls}"] = sum(s.error == cls for s in by_name.get("signal.load_wav", ()))
        m["imaging.sfci_bytes_written"] = sum(s.nbytes or 0 for s in by_name.get("imaging.export_raw", ()))
        m["imaging.sfci_bytes_read"] = sum(s.nbytes or 0 for s in by_name.get("imaging.import_raw", ()))
        for curve in ("z", "hilbert"):
            m[f"equivariance.sweep_s.{curve}"] = sum(
                s.duration for s in by_name.get("equivariance.sweep_lemma", ()) if s.detail == curve)
        checks = us("equivariance.check_equivariance")
        m["equivariance.checks"] = len(checks)
        m["equivariance.check_us"] = median(checks)
        m["locality.compare_curves_ms"] = sum(us("locality.compare_curves")) / 1e3

        own = self_times(spans)
        root_spans = [s for s in spans if s.name in roots]
        total = sum(s.duration for s in root_spans)
        m["cli.untraced_share"] = sum(own[s.id] for s in root_spans) / total if total else 0.0
        m["cli.curve_table_format_s"] = sum(own[s.id] for s in by_name.get("cli.curve-table", ()))
        m["cli.startup_s"] = median(startup)
        m["cli.encode_workers"] = ctx.cli_workers
        m["trace.overhead_share"] = self.walls[True] / self.walls[False] - 1.0
        ctx.samples["trace.overhead_share"] = (
            f"traced {self.walls[True]:.3f} s vs untraced {self.walls[False]:.3f} s in process")
        return m


# ---------------------------------------------------------------------------
# speech-batch

def encode_args(seed: int, source: Path, out: Path) -> list:
    return ["encode", source, "--curve", "hilbert", "--order", ENCODE_ORDER,
            "--center", *CENTER, "--shift", -1, seed, "--format", "sfci", "--out", out]


def encoded_matches(out: Path, row: dict, entry: dict) -> bool:
    """The .sfci of an ok row holds load_wav -> center -> random_shift, bit-exact."""
    from sfcaudio import imaging

    samples = inputs.expected_samples(entry)
    n = samples.size
    if (row["curve"], row["order"], row["length"], row["shift_max"]) != (
            "hilbert", str(ENCODE_ORDER), str(n), str(n // 4)):
        return False
    expected = reference.random_shift(reference.center(samples, *CENTER), n // 4, int(row["shift_seed"]))
    path = out / row["output"]
    kind, order, length, payload = reference.read_sfci(path.read_bytes())
    decoded = imaging.decode(imaging.import_raw(path)).samples
    return ((kind, order, length) == (reference.CURVE_IDS["hilbert"], ENCODE_ORDER, n)
            and np.array_equal(payload[:n], expected) and not payload[n:].any()
            and np.array_equal(decoded, expected))


def check_encode(checks: Checks, entries, corpus: Path, out: Path, code: int, stdout: str) -> None:
    from sfcaudio import signal

    rows = {Path(r["input"]).name: r for r in read_rows(out / "manifest.csv")}
    valid = sum(e["data"] is not None for e in entries)
    checks.expect(code == 1 and f"converted {valid}/{len(entries)}" in stdout,
                  f"encode exited {code}: {stdout.strip()!r}")
    for e in entries:
        row = rows.get(e["name"], {})
        if e["data"] is None:
            try:
                signal.load_wav(corpus / e["name"])
                raised = None
            except signal.WavError as exc:
                raised = type(exc).__name__
            checks.expect(row.get("status") == "error" and raised == inputs.INVALID_CLASSES[e["kind"]],
                          f"{e['name']} ({e['kind']}): row {row.get('status')!r}, load_wav raised {raised}")
            continue
        try:
            good = row.get("status") == "ok" and encoded_matches(out, row, e)
        except (KeyError, ValueError, OSError):
            good = False
        checks.expect(good, f"{e['name']}: output is not load_wav -> center -> random_shift")


def check_mixup(checks: Checks, out: Path, mix: Path, code: int) -> None:
    usable = [r for r in read_rows(out / "manifest.csv") if r["status"] == "ok"]
    rows = read_rows(mix / "manifest.csv")
    checks.expect(code == 0 and len(rows) == len(usable) // 2,
                  f"mixup exited {code} with {len(rows)} rows for {len(usable)} inputs")
    seen = set()
    for row in rows:
        try:
            a, b = (mix / row["input"]).resolve(), (mix / row["mixup_partner"]).resolve()
            ka, oa, la, pa = reference.read_sfci(a.read_bytes())
            kb, ob, lb, pb = reference.read_sfci(b.read_bytes())
            km, om, lm, pm = reference.read_sfci((mix / row["output"]).read_bytes())
            lam = float(row["mixup_lambda"])
            blend = (lam * pa.astype(np.float64) + (1.0 - lam) * pb.astype(np.float64)).astype("<f4")
            good = (row["status"] == "ok" and (ka, oa, la) == (kb, ob, lb) == (km, om, lm)
                    and 0.0 <= lam <= 1.0 and a != b and not {a, b} & seen
                    and np.array_equal(pm, blend))
            seen.update((a, b))
        except (KeyError, ValueError, OSError):
            good = False
        checks.expect(good, f"mixup row {row.get('output')!r} is not lam*a + (1-lam)*b")


def check_same_outputs(checks: Checks, reference_digests: dict, got: dict) -> None:
    for name in sorted(reference_digests.keys() | got.keys()):
        checks.expect(reference_digests.get(name) == got.get(name), f"{name} differs between repeats")


def ok_count(manifest: Path) -> int:
    return sum(r["status"] == "ok" for r in read_rows(manifest))


def speech_batch(ctx: Context) -> dict:
    corpus = ctx.work / "corpus"
    entries = inputs.write_speech_corpus(corpus, ctx.seed)
    out, mix = ctx.work / "enc", ctx.work / "mix"
    if ctx.trace:
        return speech_batch_traced(ctx, entries, corpus, out, mix)

    one = ctx.work / "one"
    inputs.write_speech_corpus(one, ctx.seed, count=1, invalid=False)
    setup = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(ctx.work / "one_out", ignore_errors=True)
        p = ctx.cli(*encode_args(ctx.seed, one, ctx.work / "one_out"))
        ctx.checks.expect(p.code == 0, f"one-clip encode exited {p.code}")
        setup.append(p.wall)

    first: dict = {}

    def iteration(i):
        shutil.rmtree(out, ignore_errors=True)
        enc = ctx.cli(*encode_args(ctx.seed, corpus, out))
        if i == 0:
            check_encode(ctx.checks, entries, corpus, out, enc.code, enc.stdout)
            first["enc"] = tree_digests(out)
        else:
            ctx.checks.expect(enc.code == 1, f"repeated encode exited {enc.code}")
            check_same_outputs(ctx.checks, first["enc"], tree_digests(out))
        files = ok_count(out / "manifest.csv")
        mix_walls = []
        for r in range(MIXUP_REPEATS):
            shutil.rmtree(mix, ignore_errors=True)
            mixed = ctx.cli("mixup", out / "manifest.csv", "--seed", ctx.seed, "--out", mix)
            mix_walls.append(mixed.wall)
            if i == r == 0:
                check_mixup(ctx.checks, out, mix, mixed.code)
                first["mix"] = tree_digests(mix)
            else:
                ctx.checks.expect(mixed.code == 0, f"repeated mixup exited {mixed.code}")
                check_same_outputs(ctx.checks, first["mix"], tree_digests(mix))
        pairs = ok_count(mix / "manifest.csv")
        ctx.samples["encode"] = f"{files} valid of {len(entries)} files per CLI run"
        ctx.samples["mixup"] = f"{pairs} pairs per CLI run"
        return {"files": files / enc.wall, "pairs": [pairs / w for w in mix_walls],
                "job": enc.wall + median(mix_walls)}, enc.wall + sum(mix_walls)

    runs = repeat(ctx.seconds, iteration)
    ctx.samples["iterations"] = (f"{len(runs)} encode runs, {len(runs) * MIXUP_REPEATS} mixup runs, "
                                 f"{SETUP_REPEATS} set-up runs")
    return {
        "produce_per_s": ctx.note("encode_files_per_s", [r["files"] for r in runs], "files/s",
                                  ctx.samples["encode"]),
        "consume_per_s": ctx.note("mixup_pairs_per_s", [p for r in runs for p in r["pairs"]],
                                  "pairs/s", ctx.samples["mixup"]),
        "job_s": median([r["job"] for r in runs]),
        "setup_s": ctx.note("setup_s", setup, "s", "one-clip CLI encode"),
    }


def speech_batch_traced(ctx: Context, entries, corpus: Path, out: Path, mix: Path) -> dict:
    tr = TracedRun()
    startup = startup_s(ctx, STARTUP_REPEATS)
    codes = {}

    def job(traced):
        for d in (out, mix):
            shutil.rmtree(d, ignore_errors=True)
        with tr.root("cli.encode", traced):
            code_e, text_e, wall_e = run_cli_in_process(encode_args(ctx.seed, corpus, out))
        with tr.root("cli.mixup", traced):
            code_m, _, wall_m = run_cli_in_process(["mixup", out / "manifest.csv", "--seed", ctx.seed,
                                                    "--out", mix])
        codes[traced] = (code_e, text_e, code_m)
        return wall_e + wall_m

    tr.run(job, traced=False)
    code_e, text_e, code_m = codes[False]
    check_encode(ctx.checks, entries, corpus, out, code_e, text_e)
    check_mixup(ctx.checks, out, mix, code_m)
    untraced = tree_digests(out, mix)
    tr.run(job, traced=True)
    check_same_outputs(ctx.checks, untraced, tree_digests(out, mix))
    return tr.layer_metrics(ctx, table_order=ENCODE_ORDER, roots=("cli.encode",), startup=startup)


# ---------------------------------------------------------------------------
# long-roundtrip

def roundtrip_matches(sfci: Path, wav: Path, decoded, samples: np.ndarray, curve: str) -> bool:
    try:
        kind, order, length, payload = reference.read_sfci(sfci.read_bytes())
        reloaded = reference.read_pcm16_wav(wav.read_bytes())
    except (ValueError, OSError):
        return False
    n = samples.size
    return ((kind, order, length) == (reference.CURVE_IDS[curve], inputs.LONG_ORDER, n)
            and np.array_equal(payload[:n], samples) and not payload[n:].any()
            and np.array_equal(decoded, samples) and np.array_equal(reloaded, samples))


def layout_matches(clip, kind, samples: np.ndarray, pinned: str) -> bool:
    """encode puts sample t at pixels[ys[t], xs[t]] of the pinned curve table.

    The .sfci payload is in curve order, so the round-trip checks cannot see
    how the image itself is laid out; the pixels are the CNN's input.
    """
    from sfcaudio import curves, imaging

    cm = curves.get_curve(kind, inputs.LONG_ORDER)
    if table_digest(cm) != pinned:
        return False
    pixels = imaging.encode(clip, kind, inputs.LONG_ORDER).pixels
    seq = pixels[cm.ys, cm.xs]
    n = samples.size
    return (pixels.shape == (cm.n, cm.n) and np.array_equal(seq[:n], samples)
            and not seq[n:].any())


def roundtrip(work: Path, seed: int, seconds: float, tracer: Tracer | None = None) -> dict:
    """The long-roundtrip loop; runs in a worker process, or here when traced."""
    from sfcaudio import curves, imaging, signal

    kinds = (curves.CurveKind.HILBERT, curves.CurveKind.Z)
    pins = load_pins()["tables_order10"]
    checks = Checks()
    setup = []
    for _ in range(SETUP_REPEATS):
        if hasattr(curves.get_curve, "cache_clear"):
            curves.get_curve.cache_clear()
        start = time.perf_counter()
        for kind in kinds:
            curves.get_curve(kind, inputs.LONG_ORDER)
        setup.append(time.perf_counter() - start)

    sfci, wav = work / "long.sfci", work / "long.wav"
    writes, reads, jobs = [], [], []
    while True:
        job = 0.0
        for i in range(inputs.LONG_CLIPS):
            samples = inputs.long_clip(seed, i)
            kind = kinds[i % 2]
            clip = signal.AudioClip(samples)
            with tracer.span("roundtrip.clip", new_group=True) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                imaging.export_raw(imaging.encode(clip, kind, inputs.LONG_ORDER), sfci)
                t1 = time.perf_counter()
                back = imaging.decode(imaging.import_raw(sfci))
                signal.save_wav(back, wav)
                t2 = time.perf_counter()
            writes.append(samples.size / (t1 - t0) / 1e6)
            reads.append(samples.size / (t2 - t1) / 1e6)
            job += t2 - t0
            curve = kind.name.lower()
            checks.expect(roundtrip_matches(sfci, wav, back.samples, samples, curve),
                          f"clip {i} ({curve}): round trip is not exact")
            if not jobs and i < len(kinds) and tracer is None:
                checks.expect(layout_matches(clip, kind, samples, pins[curve]),
                              f"clip {i} ({curve}): image is not laid out along the pinned table")
        jobs.append(job)
        if sum(jobs) + job > seconds:
            break
    return {"setup_s": setup, "write": writes, "read": reads, "job_s": jobs,
            "attempted": checks.attempted, "failed": checks.failed, "problems": checks.problems}


def merge_checks(ctx: Context, result: dict) -> None:
    ctx.checks.attempted += result["attempted"]
    ctx.checks.failed += result["failed"]
    ctx.checks.problems.extend(result["problems"])


def long_roundtrip(ctx: Context) -> dict:
    if ctx.trace:
        return long_roundtrip_traced(ctx)
    p = ctx.child("roundtrip", ctx.seed, ctx.seconds, ctx.work)
    if not ctx.checks.expect(p.code == 0, f"roundtrip worker exited {p.code}: {p.stderr[-2000:]}"):
        return {}
    r = json.loads(p.stdout.strip().splitlines()[-1])
    merge_checks(ctx, r)
    clips = f"{len(r['write'])} clips in {len(r['job_s'])} job(s) of {inputs.LONG_CLIPS}"
    ctx.samples["clips"] = clips
    return {
        "produce_per_s": ctx.note("write_msamples_per_s", r["write"], "Msamples/s", clips),
        "consume_per_s": ctx.note("read_msamples_per_s", r["read"], "Msamples/s", clips),
        "job_s": median(r["job_s"]),
        "setup_s": ctx.note("setup_s", r["setup_s"], "s", f"first get_curve of both order-10 tables, {SETUP_REPEATS} times"),
    }


def long_roundtrip_traced(ctx: Context) -> dict:
    tr = TracedRun()
    startup = startup_s(ctx, STARTUP_REPEATS)

    def job(traced):
        r = roundtrip(ctx.work, ctx.seed, 0.0, tr.tracer if traced else None)
        merge_checks(ctx, r)
        return sum(r["job_s"])

    tr.run(job, traced=False)
    tr.run(job, traced=True)
    return tr.layer_metrics(ctx, table_order=inputs.LONG_ORDER, roots=("roundtrip.clip",),
                            startup=startup)


# ---------------------------------------------------------------------------
# curve-analysis

def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def lemma_ok(code: int, text: str) -> bool:
    """Exit 0 (z holds) with the z sweep clean and the hilbert sweep failing."""
    blocks = {m.group(1): m.group(2) for m in re.finditer(r"curve=(\w+)(.*?)(?=curve=|\Z)", text, re.S)}
    return (code == 0 and "FAILED" not in blocks.get("z", "FAILED")
            and re.search(r"FAILED|failures=[1-9]", blocks.get("hilbert", "")) is not None)


def build_tables(ctx: Context, pins: dict, order: list[str]) -> dict[str, dict]:
    """Build each order-11 table in its own worker process; check its digest."""
    builds = {}
    for curve in order:
        p = ctx.child("build", curve, TABLE_ORDER)
        r = json.loads(p.stdout.strip().splitlines()[-1]) if p.code == 0 else {}
        if ctx.checks.expect(r.get("digest") == pins["tables_order11"][curve],
                             f"{curve} order-{TABLE_ORDER} table differs from its pinned digest"):
            builds[curve] = {**r, "rss_mb": p.peak_mb}
    return builds


def curve_analysis(ctx: Context) -> dict:
    pins = load_pins()
    order = [str(c) for c in np.random.default_rng([ctx.seed, 3]).permutation(CURVES)]
    table = ctx.work / "table.csv"
    if ctx.trace:
        return curve_analysis_traced(ctx, pins, order, table)
    setup = startup_s(ctx, SETUP_REPEATS)
    # The tables are built once: they take about 7 s, and the shorter tools
    # below get the rest of the run, so that their medians rest on several runs.
    start = time.perf_counter()
    builds = build_tables(ctx, pins, order)
    build_wall = time.perf_counter() - start

    def iteration(i):
        start = time.perf_counter()
        ct = ctx.cli(*CURVE_TABLE_ARGS, "--out", table)
        ctx.checks.expect(ct.code == 0 and sha256_file(table) == pins["curve_table_csv"],
                          "curve-table CSV differs from its pinned digest")
        table.unlink(missing_ok=True)
        vl = ctx.cli(*LEMMA_ARGS, "--seed", ctx.seed)
        ctx.checks.expect(lemma_ok(vl.code, vl.stdout), f"verify-lemma exited {vl.code}: {vl.stdout[-500:]!r}")
        cc = ctx.child("compare", COMPARE_ORDER, COMPARE_GAPS)
        r = json.loads(cc.stdout.strip().splitlines()[-1]) if cc.code == 0 else {}
        ctx.checks.expect(r.get("digest") == pins["compare_curves_csv"],
                          "compare_curves report differs from its pinned digest")
        return {"table": ct.wall, "lemma": vl.wall,
                "job": ct.wall + vl.wall + r.get("compare_s", 0.0)}, time.perf_counter() - start

    runs = repeat(ctx.seconds - build_wall, iteration)
    ctx.samples["iterations"] = f"1 set of builds, {len(runs)} runs of the tools, {SETUP_REPEATS} --help runs"
    build_s = ctx.note("table_build_s", [sum(b["build_s"] for b in builds.values())], "s",
                       "sum of 8 order-11 builds")
    table_s = ctx.note("curve_table_s", [r["table"] for r in runs], "s", "CLI wall, 2^20 rows")
    ctx.note("lemma_verdict_s", [r["lemma"] for r in runs], "s", "CLI wall to exit code")
    return {
        "produce_per_s": len(CURVES) * 4**TABLE_ORDER / 1e6 / build_s,
        "consume_per_s": CURVE_TABLE_ROWS / 1e6 / table_s,
        "job_s": median([r["job"] for r in runs]),
        "setup_s": ctx.note("setup_s", setup, "s", "CLI --help wall"),
    }


def curve_analysis_traced(ctx: Context, pins: dict, order: list[str], table: Path) -> dict:
    from sfcaudio import locality

    tr = TracedRun()
    startup = startup_s(ctx, STARTUP_REPEATS)
    builds = build_tables(ctx, pins, order)
    for curve, b in builds.items():
        tr.tracer.add("curves.build_curve", b["start"], b["end"], detail=f"{curve}/{TABLE_ORDER}")

    def job(traced):
        with tr.root("cli.curve-table", traced):
            code, _, table_wall = run_cli_in_process([*CURVE_TABLE_ARGS, "--out", table])
        ctx.checks.expect(code == 0 and sha256_file(table) == pins["curve_table_csv"],
                          "curve-table CSV differs from its pinned digest")
        table.unlink(missing_ok=True)
        with tr.root("cli.verify-lemma", traced):
            code, text, lemma_wall = run_cli_in_process([*LEMMA_ARGS, "--seed", ctx.seed])
        ctx.checks.expect(lemma_ok(code, text), f"verify-lemma exited {code}")
        start = time.perf_counter()
        reports = locality.compare_curves(COMPARE_ORDER, [int(g) for g in COMPARE_GAPS.split(",")])
        compare_wall = time.perf_counter() - start
        digest = hashlib.sha256(locality.reports_to_csv(reports).encode()).hexdigest()
        ctx.checks.expect(digest == pins["compare_curves_csv"], "compare_curves report differs from its pin")
        return table_wall + lemma_wall + compare_wall

    tr.run(job, traced=False)
    tr.run(job, traced=True)
    return tr.layer_metrics(ctx, table_order=TABLE_ORDER, roots=("cli.curve-table", "cli.verify-lemma"),
                            startup=startup, build_rss={c: b["rss_mb"] for c, b in builds.items()})


WORKLOADS = {
    "speech-batch": speech_batch,
    "long-roundtrip": long_roundtrip,
    "curve-analysis": curve_analysis,
}
