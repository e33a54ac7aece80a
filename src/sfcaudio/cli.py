"""Command-line surface: batch conversion plus verification reports.

Exit codes: 0 success, 1 input/processing failure, 2 usage error (from
argument parsing), 3 verification failure in ``verify-lemma``.

Environment overrides: SFCAUDIO_WORKERS (thread count for directory
conversion) and SFCAUDIO_LOG_LEVEL.
"""

from __future__ import annotations

import csv
import logging
import os
import sys
from concurrent import futures
from pathlib import Path

import click
import numpy as np

from .curves import MAX_ORDER, CurveKind, build_curve, get_curve
from .equivariance import sweep_lemma, sweep_to_text, witnesses_to_csv
from .imaging import (
    MixupParams,
    RawFormatError,
    decode as decode_image,
    encode as encode_clip,
    export_pgm,
    export_raw,
    import_raw,
    mixup as mix_images,
)
from .locality import compare_curves, reports_to_csv, reports_to_text
from .signal import CenterParams, ShiftParams, WavError, center, load_wav, random_shift, save_wav

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 3

MANIFEST_FIELDS = [
    "input", "output", "curve", "order", "length",
    "center_w", "center_sigma", "center_th",
    "shift_max", "shift_seed",
    "mixup_partner", "mixup_lambda",
    "status", "error",
]

logger = logging.getLogger("sfcaudio")

_CURVE_NAMES = [k.name.lower() for k in CurveKind]


def _worker_count() -> int:
    env = os.environ.get("SFCAUDIO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning("ignoring non-integer SFCAUDIO_WORKERS=%r", env)
    return min(8, os.cpu_count() or 1)


def _parse_span(text: str, what: str) -> list[int]:
    # "2:4" -> [2, 3, 4]; "3" -> [3]
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.UsageError(f"bad {what} {text!r}; expected N or LO:HI") from None
    if hi < lo:
        raise click.UsageError(f"bad {what} {text!r}; upper bound below lower")
    return list(range(lo, hi + 1))


def _blank_row() -> dict:
    return {f: "" for f in MANIFEST_FIELDS}


def _write_manifest(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@click.group()
def main():
    """Map audio clips to space-filling-curve images and verify curve properties."""
    level = os.environ.get("SFCAUDIO_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command("encode")
@click.argument("source", type=click.Path(exists=True, path_type=Path))
@click.option("--curve", type=click.Choice(_CURVE_NAMES), default="z", show_default=True)
@click.option("--order", type=click.IntRange(1, MAX_ORDER), default=7, show_default=True)
@click.option(
    "--center", "center_args", nargs=3, type=float, default=None, metavar="W SIGMA TH",
    help="Center the active span before encoding (typical: 100 25 0.0001).",
)
@click.option(
    "--shift", "shift_args", nargs=2, type=int, default=None, metavar="MAX SEED",
    help="Random time shift drawn from [-MAX, +MAX] after centering, seeded "
    "per file from SEED. MAX < 0 means a quarter of the clip length.",
)
@click.option("--format", "fmt", type=click.Choice(["sfci", "pgm"]), default="sfci", show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def encode_cmd(source: Path, curve, order, center_args, shift_args, fmt, out: Path):
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
    out.mkdir(parents=True, exist_ok=True)

    cparams = None
    if center_args is not None:
        cparams = CenterParams(w=int(center_args[0]), sigma=center_args[1], th=center_args[2])
    get_curve(kind, order)  # build the shared table before the pool starts

    def convert(item):
        index, path = item
        row = _blank_row()
        row["input"] = os.path.relpath(path, out)
        row["curve"] = kind.name.lower()
        row["order"] = order
        try:
            clip = load_wav(path)
            row["length"] = clip.length
            if cparams is not None:
                clip = center(clip, cparams)
                row["center_w"] = cparams.w
                row["center_sigma"] = f"{cparams.sigma:g}"
                row["center_th"] = f"{cparams.th:g}"
            if shift_args is not None:
                max_shift, master_seed = shift_args
                if max_shift < 0:
                    max_shift = clip.length // 4
                file_seed = int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])
                clip = random_shift(clip, ShiftParams(max_shift=max_shift, rng_seed=file_seed))
                row["shift_max"] = max_shift
                row["shift_seed"] = file_seed
            image = encode_clip(clip, kind, order)
            dest = out / Path(os.path.relpath(path, root)).with_suffix("." + fmt)
            dest.parent.mkdir(parents=True, exist_ok=True)
            if fmt == "sfci":
                export_raw(image, dest)
            else:
                export_pgm(image, dest)
            row["output"] = os.path.relpath(dest, out)
            row["status"] = "ok"
        except (WavError, ValueError, OSError) as exc:
            logger.error("%s: %s", path, exc)
            row["status"] = "error"
            row["error"] = str(exc)
        return row

    with futures.ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        rows = list(pool.map(convert, enumerate(inputs)))

    _write_manifest(out / "manifest.csv", rows)
    failed = sum(1 for r in rows if r["status"] != "ok")
    click.echo(f"converted {len(rows) - failed}/{len(rows)} file(s) -> {out}")
    if failed:
        click.echo(f"{failed} file(s) failed; see manifest.csv error rows", err=True)
        sys.exit(EXIT_INPUT)


@main.command("decode")
@click.argument("source", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def decode_cmd(source: Path, out: Path):
    """Reconstruct a wav file from a .sfci image."""
    try:
        clip = decode_image(import_raw(source))
    except (RawFormatError, OSError) as exc:
        click.echo(f"{source}: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_wav(clip, out)
    click.echo(f"wrote {out} ({clip.length} samples)")


@main.command("mixup")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--alpha", type=float, default=0.2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def mixup_cmd(manifest: Path, alpha, seed, out: Path):
    """Blend random pairs from an encode manifest into new .sfci images.

    Pairing and weights are drawn from SEED; each output row records the
    two source files and the weight, so blends can be reproduced.
    """
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    base = manifest.parent
    usable = [r for r in rows if r.get("status") == "ok" and r.get("output", "").endswith(".sfci")]
    if len(usable) < 2:
        click.echo("need at least two ok .sfci rows to mix", err=True)
        sys.exit(EXIT_INPUT)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(usable))
    pair_count = len(usable) // 2
    lams = rng.beta(alpha, alpha, size=pair_count)
    if len(usable) % 2:
        logger.info("odd row count; leaving one file unmixed")
    out.mkdir(parents=True, exist_ok=True)

    out_rows = []
    failed = 0
    for j in range(pair_count):
        row_a = usable[perm[2 * j]]
        row_b = usable[perm[2 * j + 1]]
        row = _blank_row()
        path_a = base / row_a["output"]
        path_b = base / row_b["output"]
        row["input"] = os.path.relpath(path_a, out)
        row["mixup_partner"] = os.path.relpath(path_b, out)
        try:
            mixed, lam = mix_images(
                import_raw(path_a), import_raw(path_b),
                MixupParams(alpha=alpha, rng_seed=seed), lam=float(lams[j]),
            )
            dest = out / f"mix{j:04d}_{path_a.stem}__{path_b.stem}.sfci"
            export_raw(mixed, dest)
            row.update(
                output=dest.name, curve=mixed.kind.name.lower(), order=mixed.order,
                length=mixed.length, mixup_lambda=f"{lam:.17g}", status="ok",
            )
        except (RawFormatError, ValueError, OSError) as exc:
            logger.error("pair %d: %s", j, exc)
            failed += 1
            row["status"] = "error"
            row["error"] = str(exc)
        out_rows.append(row)

    _write_manifest(out / "manifest.csv", out_rows)
    click.echo(f"mixed {pair_count - failed}/{pair_count} pair(s) -> {out}")
    if failed:
        sys.exit(EXIT_INPUT)


@main.command("curve-table")
@click.option("--curve", type=click.Choice(_CURVE_NAMES), required=True)
@click.option("--order", type=click.IntRange(1, MAX_ORDER), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def curve_table_cmd(curve, order, out):
    """Dump the index -> (x, y) mapping of one curve as CSV."""
    cm = build_curve(CurveKind.from_name(curve), order)
    target = open(out, "w") if out else click.get_text_stream("stdout")
    try:
        target.write("t,x,y\n")
        chunk = 1 << 20
        for start in range(0, cm.size, chunk):
            stop = min(start + chunk, cm.size)
            rows = zip(range(start, stop), cm.xs[start:stop].tolist(), cm.ys[start:stop].tolist())
            target.write("\n".join(f"{t},{x},{y}" for t, x, y in rows) + "\n")
    finally:
        if out:
            target.close()


@main.command("locality")
@click.option("--order", type=click.IntRange(1, 8), default=6, show_default=True)
@click.option("--gaps", default="1,4,16,64,256", show_default=True, help="comma-separated index gaps")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def locality_cmd(order, gaps, fmt, out):
    """Worst/mean grid-distance profile of every curve at one order."""
    try:
        gap_list = [int(g) for g in gaps.split(",") if g.strip()]
        reports = compare_curves(order, gap_list)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_INPUT)
    text = reports_to_csv(reports) if fmt == "csv" else reports_to_text(reports)
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("verify-lemma")
@click.option("--curves", default="z", show_default=True, help="comma-separated curve names")
@click.option("--k-range", default="2:4", show_default=True, metavar="LO:HI")
@click.option("--l-range", default="1:2", show_default=True, metavar="LO:HI")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--real", "real_valued", is_flag=True, help="draw real-valued inputs instead of integers")
@click.option("--witness-out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="write the worst witness per (curve, k, l) as CSV")
def verify_lemma_cmd(curves, k_range, l_range, trials, seed, real_valued, witness_out):
    """Check shift equivariance of strided convolution through each curve.

    The z curve is expected to hold exactly; the exit status reports it.
    Other curves are informational, witnesses of failure being the
    expected outcome there.
    """
    kinds = [CurveKind.from_name(s) for s in curves.split(",") if s.strip()]
    if not kinds:
        raise click.UsageError("no curves given")
    k_list = _parse_span(k_range, "k range")
    l_list = _parse_span(l_range, "l range")
    if not any(l < k for k in k_list for l in l_list):
        raise click.UsageError("no (k, l) pair with l < k in the given ranges")

    z_failed = False
    worst_witnesses = []
    for kind in kinds:
        sweep = sweep_lemma(kind, k_list, l_list, trials=trials, seed=seed, real_valued=real_valued)
        click.echo(sweep_to_text(sweep), nl=False)
        worst_witnesses.extend(c.worst for c in sweep.cells)
        if kind is CurveKind.Z and not sweep.all_hold:
            z_failed = True

    if witness_out:
        Path(witness_out).write_text(witnesses_to_csv(worst_witnesses))
    if CurveKind.Z in kinds:
        if z_failed:
            click.echo("z-curve equivariance FAILED", err=True)
            sys.exit(EXIT_VERIFY)
        click.echo("z-curve equivariance holds for all swept checks")
    else:
        click.echo("note: z curve not in sweep; exit status asserts nothing")


if __name__ == "__main__":
    main()
