"""Command-line surface: batch conversion plus verification reports.

Exit codes: 0 success, 1 input/processing failure (a path that cannot be
read or written prints ``path: reason`` through ``_failing``), 2 usage error
(click parses every option value through ``_params``, before any file is
touched; a check spanning two options is raised by the command body), 3
verification failure in ``verify-lemma``.

``encode`` and ``mixup`` run their items in one process per CPU of the
affinity mask (``taskset`` limits it), or fewer where MemAvailable cannot
hold one item per process, and write the same files, manifest, stdout and
stderr as a single process does. Each failed item prints one stderr line,
``label: reason``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import sys
from pathlib import Path

import click
import numpy as np

from .curves import MAX_ORDER, CurveKind, build_curve
from .equivariance import sweep_lemma, sweep_to_text, witnesses_to_csv
from .imaging import (
    MixupParams,
    decode as decode_image,
    draw_mixup_lambdas,
    encode as encode_clip,
    export_pgm,
    export_raw,
    import_raw,
    mixup as mix_images,
)
from .locality import compare_curves, reports_to_csv, reports_to_text
from .signal import CenterParams, ShiftParams, center, load_wav, random_shift, save_wav

EXIT_INPUT = 1
EXIT_VERIFY = 3

_CSV_BLOCK = 1 << 12  # rows formatted per write by curve-table
_DIED_ROW = {"status": "error", "error": "worker process died"}

MANIFEST_FIELDS = [
    "input", "output", "curve", "order", "length",
    "center_w", "center_sigma", "center_th",
    "shift_max", "shift_seed",
    "mixup_partner", "mixup_lambda",
    "status", "error",
]

_CURVE_NAMES = [k.name.lower() for k in CurveKind]


def _parse_span(text: str, least: int | None = None, most: int | None = None) -> list[int]:
    # "2:4" -> [2, 3, 4]; "3" -> [3]; a malformed span or values outside [least, most] raise ValueError
    lo, colon, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if colon else lo)
    except ValueError:
        raise ValueError(f"{text!r} is not N or LO:HI") from None
    if hi < lo:
        raise ValueError(f"{text!r}: upper bound below lower")
    if least is not None and lo < least:
        raise ValueError(f"{text!r}: values must be >= {least}")
    if most is not None and hi > most:
        raise ValueError(f"{text!r}: values must be <= {most}")
    return list(range(lo, hi + 1))


def _params(build):
    """A click callback that turns an option value into ``build(value)``.

    A ValueError from ``build`` becomes a usage error, so a bad value exits
    2 before any file is touched. An unset option stays None.
    """

    def callback(ctx, param, value):
        try:
            return None if value is None else build(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None

    return callback


def _worker_count() -> int:
    """The CPUs this process may run on: the process count of ``encode`` and ``mixup``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where the file or the line is missing."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _pool_size(cpus: int, items: int, per_item: int, available: int | None) -> int:
    """The process count of a batch: ``min(cpus, items, available // per_item)``, at least 1.

    ``per_item`` is the bytes one process holds for one item; with no
    ``available`` reading, memory caps nothing.
    """
    workers = min(cpus, items)
    if available is not None:
        workers = min(workers, available // per_item)
    return max(workers, 1)


def _run_batch(out: Path, job, items: list, verb: str, noun: str, per_item: int) -> None:
    """Run each ``(label, fields, dest, *args)`` item of a batch through ``_run_items``, then write the manifest.

    The items run in ``_pool_size`` processes: one per CPU, capped at the
    item count and at the items of ``per_item`` bytes that MemAvailable
    holds (a cap below the other two prints one stderr line). They run in
    about 8 chunks per process; with one process the chunks run
    here, with no pool. The rows come back in input order. Here each error
    row prints ``label: message`` on stderr, then the manifest, the summary
    line and the exit status (1 if any item failed) are written. The items of
    a chunk that a dead worker left without rows get error rows with their ``fields``.
    """
    with _failing(out):
        out.mkdir(parents=True, exist_ok=True)
    cpus, available = _worker_count(), _mem_available()
    workers = _pool_size(cpus, len(items), per_item, available)
    if workers < min(cpus, len(items)):
        click.echo(f"memory caps the pool at {workers} of {min(cpus, len(items))} processes: "
                   f"MemAvailable {available >> 10} KiB, about {per_item >> 10} KiB per item", err=True)
    size = -(-len(items) // (8 * workers))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    rows, lost = [], 0
    run = functools.partial(_run_items, job, out)
    with _chunk_map(workers) as run_all:
        for chunk, chunk_rows in zip(chunks, run_all(run, chunks), strict=True):
            if chunk_rows is None:
                lost += len(chunk)
                rows += [dict.fromkeys(MANIFEST_FIELDS, "") | fields | _DIED_ROW for _, fields, *_ in chunk]
                continue
            for (label, *_), row in zip(chunk, chunk_rows, strict=True):
                if row["status"] == "error":
                    message = row["error"]  # a WavError message already starts with the file's path
                    click.echo(message if message.startswith(f"{label}: ") else f"{label}: {message}", err=True)
                rows.append(row)
    manifest = out / "manifest.csv"
    with _failing(manifest), open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    failed = sum(row["status"] != "ok" for row in rows)
    click.echo(f"{verb} {len(rows) - failed}/{len(rows)} {noun} -> {out}")
    if failed:
        died = f", {lost} because a worker process died" if lost else ""
        click.echo(f"{failed} {noun} failed{died}; see manifest.csv error rows", err=True)
        sys.exit(EXIT_INPUT)


@contextlib.contextmanager
def _chunk_map(workers: int):
    """Yield ``map``, or for more than one worker a map over a pool of that many processes.

    The pool's map gives None for each chunk unfinished when a worker died.
    The pool uses the platform's default start method. Under fork (Linux)
    it starts every worker before its own threads, so a single-threaded
    caller forks safely. It is shut down on exit, dropping the chunks no
    worker has taken yet.
    """
    if workers == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor  # about 15 ms to import, so only for a pool
    from concurrent.futures.process import BrokenProcessPool

    def run_all(fn, chunks):
        for future in [pool.submit(fn, chunk) for chunk in chunks]:
            yield None if isinstance(future.exception(), BrokenProcessPool) else future.result()

    pool = ProcessPoolExecutor(workers)
    try:
        yield run_all
    finally:
        pool.shutdown(cancel_futures=True)


def _run_items(job, out: Path, chunk: list) -> list[dict]:
    """Run a chunk of ``(label, fields, dest, *args)`` batch items in order, in a pool worker or here: their rows.

    Each row starts blank but for ``fields``, the fields that name the item's
    inputs; ``job(row, *args)`` fills the rest and returns the image, written
    to ``dest`` as .sfci or, for any other suffix, .pgm. A ValueError
    (WavError and RawFormatError are ones) or an OSError makes the row an
    error row and does not stop the chunk.
    """
    rows = []
    for _, fields, dest, *args in chunk:
        row = dict.fromkeys(MANIFEST_FIELDS, "") | fields
        try:
            # The last image is freed only once the next one is built: freeing it
            # first lets glibc trim the heap top and fault it back in for every
            # order-7 item (110k against 15k minor faults over 990 mixup pairs).
            image = job(row, *args)
            dest.parent.mkdir(parents=True, exist_ok=True)
            (export_raw if dest.suffix == ".sfci" else export_pgm)(image, dest)
            row.update(output=os.path.relpath(dest, out), status="ok")
        except (ValueError, OSError) as exc:
            row.update(status="error", error=str(exc))
        rows.append(row)
    return rows


def _convert(kind: CurveKind, order: int, cparams: CenterParams | None,
             shift_args: tuple[int, int] | None, row: dict, index: int, path: Path):
    """Load, center and shift the file at ``path``, fill its row and return its image."""
    row.update(curve=kind.name.lower(), order=order)
    clip = load_wav(path)
    row["length"] = clip.length
    if cparams is not None:
        clip = center(clip, cparams)
        row.update(center_w=cparams.w, center_sigma=f"{cparams.sigma:g}", center_th=f"{cparams.th:g}")
    if shift_args is not None:
        max_shift, master_seed = shift_args
        if max_shift < 0:
            max_shift = clip.length // 4
        file_seed = int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])
        clip = random_shift(clip, ShiftParams(max_shift=max_shift, rng_seed=file_seed))
        row.update(shift_max=max_shift, shift_seed=file_seed)
    return encode_clip(clip, kind, order)


def _blend(params: MixupParams, row: dict, lam: float, path_a: Path, path_b: Path):
    """Blend two .sfci files with weight ``lam``, fill the pair's row and return the blend."""
    mixed, lam = mix_images(import_raw(path_a), import_raw(path_b), params, lam=lam)
    row.update(curve=mixed.kind.name.lower(), order=mixed.order, length=mixed.length,
               mixup_lambda=f"{lam:.17g}")
    return mixed


@contextlib.contextmanager
def _failing(path):
    """Turn a ValueError or OSError raised inside the block into ``path: reason`` on stderr and exit 1."""
    try:
        yield
    except BrokenPipeError:
        raise  # click ends a closed stdout with exit 1 and nothing on stderr
    except (ValueError, OSError) as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(EXIT_INPUT)


@click.group()
def main():
    """Map audio clips to space-filling-curve images and verify curve properties."""


@main.command("encode")
@click.argument("source", type=click.Path(exists=True, path_type=Path))
@click.option("--curve", type=click.Choice(_CURVE_NAMES), default="z", show_default=True)
@click.option("--order", type=click.IntRange(1, MAX_ORDER), default=7, show_default=True)
@click.option(
    "--center", "cparams", type=(int, float, float), default=None, metavar="W SIGMA TH",
    callback=_params(lambda args: CenterParams(*args)),
    help="Center the active span before encoding (typical: 100 25 0.0001).",
)
@click.option(
    "--shift", "shift_args", type=(int, click.IntRange(min=0)), default=None, metavar="MAX SEED",
    help="Random time shift drawn from [-MAX, +MAX] after centering, seeded "
    "per file from SEED. MAX < 0 means a quarter of the clip length.",
)
@click.option("--format", "fmt", type=click.Choice(["sfci", "pgm"]), default="sfci", show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def encode_cmd(source: Path, curve, order, cparams, shift_args, fmt, out: Path):
    """Convert a wav file or a directory tree of wav files to images.

    Writes one image per input plus manifest.csv describing every row
    (paths relative to the manifest, parameters, per-file seeds). Keeps
    going on per-file errors; they become error rows and a nonzero exit.
    """
    kind = CurveKind.from_name(curve)
    if source.is_dir():
        inputs = sorted(p for p in source.rglob("*.wav") if p.is_file())
        root = source
    else:
        inputs = [source]
        root = source.parent
    if not inputs:
        click.echo(f"no .wav files under {source}", err=True)
        sys.exit(EXIT_INPUT)

    items = [(path, {"input": os.path.relpath(path, out)},
              out / Path(os.path.relpath(path, root)).with_suffix("." + fmt), index, path)
             for index, path in enumerate(inputs)]
    job = functools.partial(_convert, kind, order, cparams, shift_args)
    _run_batch(out, job, items, "converted", "file(s)", per_item=16 * 4**order)  # clip and padded image


@main.command("decode")
@click.argument("source", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def decode_cmd(source: Path, out: Path):
    """Reconstruct a wav file from a .sfci image."""
    with _failing(source):
        clip = decode_image(import_raw(source))
    with _failing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        save_wav(clip, out)
    click.echo(f"wrote {out} ({clip.length} samples)")


@main.command("mixup")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--alpha", "params", type=float, default=0.2, show_default=True,
              callback=_params(lambda alpha: MixupParams(alpha=alpha)))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def mixup_cmd(manifest: Path, params, seed, out: Path):
    """Blend random pairs from an encode manifest into new .sfci images.

    Pairing and weights are drawn from SEED; each output row records the
    two source files and the weight, so blends can be reproduced.
    """
    with _failing(manifest), open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    base = manifest.parent
    usable = [r for r in rows if r.get("status") == "ok" and (r.get("output") or "").endswith(".sfci")]
    if len(usable) < 2:
        click.echo("need at least two ok .sfci rows to mix", err=True)
        sys.exit(EXIT_INPUT)

    perm = np.random.default_rng(seed).permutation(len(usable))
    pair_count = len(usable) // 2
    # every weight comes from SEED and is passed to mix_images, so params.rng_seed is not read
    lams = draw_mixup_lambdas(params.alpha, seed, pair_count)

    items = []
    for j in range(pair_count):
        path_a = base / usable[perm[2 * j]]["output"]
        path_b = base / usable[perm[2 * j + 1]]["output"]
        fields = {"input": os.path.relpath(path_a, out), "mixup_partner": os.path.relpath(path_b, out)}
        dest = out / f"mix{j:04d}_{path_a.stem}__{path_b.stem}.sfci"
        items.append((f"pair {j}", fields, dest, float(lams[j]), path_a, path_b))
    # a process holds two images and their blend, of the largest order the rows name (MAX_ORDER if none does)
    orders = [int(r["order"]) for r in usable if (r.get("order") or "").isdecimal()]
    order = min(max(orders, default=MAX_ORDER), MAX_ORDER)
    _run_batch(out, functools.partial(_blend, params), items, "mixed", "pair(s)", per_item=24 * 4**order)


@main.command("curve-table")
@click.option("--curve", type=click.Choice(_CURVE_NAMES), required=True)
@click.option("--order", type=click.IntRange(1, MAX_ORDER), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def curve_table_cmd(curve, order, out):
    """Dump the index -> (x, y) mapping of one curve as CSV.

    Writes a t,x,y header and 4^ORDER rows of t,x,y: about 1.2 GB at order 13.
    """
    cm = build_curve(CurveKind.from_name(curve), order)
    with _failing(out or "stdout"), (open(out, "wb") if out else
                                    contextlib.nullcontext(click.get_binary_stream("stdout"))) as target:
        target.write(b"t,x,y\n")
        for start in range(0, cm.size, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, cm.size)
            target.write(_csv_rows(start, cm.xs[start:stop], cm.ys[start:stop]))


@functools.cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """The 8-byte words ``_csv_rows`` gathers for each 4-digit group v = 0..9999, built on first use.

    A word's bytes are the group's ASCII digits in reading order, with NUL
    bytes where its leading zeros would be (0 is ``"0"``). ``high`` holds
    t's upper group in its first half, all NUL for 0. ``low`` holds t's
    lower group in its second half, unpadded at v and zero-padded at
    10^4 + v. ``x`` is ``",dddd"`` and ``y`` is ``",dddd\\n"``.
    """
    v = np.arange(10**4, dtype=np.uint16)
    low = np.zeros((2, 10**4, 8), dtype=np.uint8)
    for byte, place in enumerate((1000, 100, 10, 1), start=4):
        low[:, :, byte] = v // place % 10 + ord("0")
    digits = low[0, :, 4:]
    digits[:, :3][v[:, None] < [1000, 100, 10]] = 0
    high = np.zeros((10**4, 8), dtype=np.uint8)
    high[1:, :4] = digits[1:]
    x = np.zeros((10**4, 8), dtype=np.uint8)
    x[:, 0], x[:, 1:5] = ord(","), digits
    y = x.copy()
    y[:, 5] = ord("\n")
    return tuple(w.view(np.uint64).reshape(-1) for w in (high, low, x, y))


def _csv_rows(start: int, xs: np.ndarray, ys: np.ndarray) -> bytes:
    """The ASCII rows ``f"{t},{x},{y}\\n"`` for t = start, start + 1, ...

    Each row is three table words: t split into two 4-digit groups (t <
    4^MAX_ORDER <= 10^8), then x and y with their separators (both < 2^MAX_ORDER
    <= 10^4). Digits and separators are never NUL, so deleting the NUL
    bytes leaves the rows.
    """
    high, low, x_words, y_words = _digit_words()
    n = len(xs)
    rows = np.empty((n, 3), dtype=np.uint64)
    t = start
    while t < start + n:  # each run of t with one upper group reads a slice of the lower groups
        h, l = divmod(t, 10**4)
        run = min(start + n - t, 10**4 - l)
        l += 10**4 * (h > 0)  # the lower group is zero-padded below a non-zero upper one
        np.bitwise_or(low[l : l + run], high[h], out=rows[t - start : t - start + run, 0])
        t += run
    np.take(x_words, xs, out=rows[:, 1])
    np.take(y_words, ys, out=rows[:, 2])
    data = rows.tobytes()
    del rows  # so that a block's heap peaks at its bytes and their copy
    return data.translate(None, b"\0")


@main.command("locality")
@click.option("--order", type=click.IntRange(1, MAX_ORDER), default=6, show_default=True)
@click.option("--gaps", default="1,4,16,64,256", show_default=True, help="comma-separated index gaps",
              callback=_params(lambda text: [int(g) for g in text.split(",")]))
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def locality_cmd(order, gaps, fmt, out):
    """Worst/mean grid-distance profile of every curve at one order."""
    for g in gaps:  # the bound depends on --order
        if not 1 <= g < 4**order:
            raise click.BadParameter(f"gap {g} outside [1, {4**order}) at order {order}", param_hint="'--gaps'")
    reports = compare_curves(order, gaps)
    text = reports_to_csv(reports) if fmt == "csv" else reports_to_text(reports)
    if out:
        with _failing(out):
            Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("verify-lemma")
@click.option("--curves", "kinds", default="z", show_default=True, help="comma-separated curve names",
              callback=_params(lambda text: [CurveKind.from_name(s) for s in text.split(",")]))
@click.option("--k-range", "k_list", default="2:4", show_default=True, metavar="LO:HI",
              callback=_params(lambda text: _parse_span(text, most=MAX_ORDER)))
@click.option("--l-range", "l_list", default="1:2", show_default=True, metavar="LO:HI",
              callback=_params(lambda text: _parse_span(text, least=1)))
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--real", "real_valued", is_flag=True, help="draw real-valued inputs instead of integers")
@click.option("--witness-out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="write the worst witness per (curve, k, l) as CSV")
def verify_lemma_cmd(kinds, k_list, l_list, trials, seed, real_valued, witness_out):
    """Check shift equivariance of strided convolution through each curve.

    The z curve is expected to hold exactly; the exit status reports it.
    Other curves are informational, witnesses of failure being the
    expected outcome there.
    """
    if not any(l < k for k in k_list for l in l_list):
        raise click.UsageError("no (k, l) pair with l < k in the given ranges")

    sweeps = []
    for kind in kinds:
        sweeps.append(sweep_lemma(kind, k_list, l_list, trials=trials, seed=seed, real_valued=real_valued))
        click.echo(sweep_to_text(sweeps[-1]), nl=False)

    if witness_out:
        with _failing(witness_out):
            Path(witness_out).write_text(witnesses_to_csv(c.worst for s in sweeps for c in s.cells))
    if CurveKind.Z in kinds:
        if not all(s.all_hold for s in sweeps if s.kind is CurveKind.Z):
            click.echo("z-curve equivariance FAILED", err=True)
            sys.exit(EXIT_VERIFY)
        click.echo("z-curve equivariance holds for all swept checks")
    else:
        click.echo("note: z curve not in sweep; exit status asserts nothing")


if __name__ == "__main__":
    main()
