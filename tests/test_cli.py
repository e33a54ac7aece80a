"""End-to-end coverage of the sfcaudio command line."""

import contextlib
import csv
import hashlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sfcaudio import cli, curves
from sfcaudio.cli import MANIFEST_FIELDS, _parse_span, main
from sfcaudio.curves import MAX_ORDER, CurveKind, build_curve, get_curve
from sfcaudio.imaging import RAW_HEADER, RAW_MAGIC, MixupParams, draw_mixup_lambdas, encode, export_raw, import_raw
from sfcaudio.signal import AudioClip, ShiftParams, load_wav, random_shift, save_wav


@pytest.fixture
def runner():
    return CliRunner()


def all_output(result):
    text = result.output
    try:
        text += result.stderr
    except (AttributeError, ValueError):
        pass
    return text


def write_clip(path, length=400, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-32768, 32768, size=length).astype(np.float64) / 32768.0
    path.parent.mkdir(parents=True, exist_ok=True)
    save_wav(AudioClip(samples), path)
    return samples


def write_raw(path, kind, order, length, samples):
    """A .sfci file written byte by byte, so it can hold values SfcImage rejects."""
    header = RAW_HEADER.pack(RAW_MAGIC, 1, int(kind), order, 0, length)
    path.write_bytes(header + np.asarray(samples, dtype="<f4").tobytes())


def read_manifest(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == MANIFEST_FIELDS
    return rows


# --- encode ----------------------------------------------------------------------

def test_encode_single_file(tmp_path, runner):
    samples = write_clip(tmp_path / "src" / "clip.wav")
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "encode", str(tmp_path / "src" / "clip.wav"),
        "--curve", "hilbert", "--order", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, all_output(result)
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    assert row["curve"] == "hilbert" and row["order"] == "5"
    assert row["length"] == "400"
    assert row["output"] == "clip.sfci"
    image = import_raw(out / "clip.sfci")
    assert (image.kind, image.order, image.length) == (CurveKind.HILBERT, 5, 400)
    cm = get_curve(CurveKind.HILBERT, 5)
    assert np.array_equal(image.pixels[cm.ys, cm.xs][:400], samples)


def test_encode_directory_tree(tmp_path, runner):
    src = tmp_path / "corpus"
    write_clip(src / "b.wav", seed=1)
    write_clip(src / "sub" / "a.wav", seed=2)
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(src), "--order", "5", "--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    rows = read_manifest(out / "manifest.csv")
    assert [r["output"] for r in rows] == ["b.sfci", "sub/a.sfci"]  # sorted walk
    assert (out / "sub" / "a.sfci").is_file()
    assert all(r["curve"] == "z" for r in rows)  # default curve


def test_encode_center_and_shift_recorded(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "a.wav", length=400, seed=3)
    write_clip(src / "b.wav", length=400, seed=4)
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "encode", str(src), "--order", "5", "--out", str(out),
        "--center", "100", "25", "0.0001",
        "--shift", "-1", "5",
    ])
    assert result.exit_code == 0, all_output(result)
    rows = read_manifest(out / "manifest.csv")
    for index, row in enumerate(rows):
        assert (row["center_w"], row["center_sigma"], row["center_th"]) == ("100", "25", "0.0001")
        assert row["shift_max"] == "100"  # MAX < 0 resolves to length // 4
        expected_seed = int(np.random.SeedSequence([5, index]).generate_state(1)[0])
        assert int(row["shift_seed"]) == expected_seed


def test_encode_shift_replayable(tmp_path, runner):
    src = tmp_path / "src"
    samples = write_clip(src / "a.wav", length=400, seed=6)
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "encode", str(src), "--order", "5", "--out", str(out), "--shift", "30", "9",
    ])
    assert result.exit_code == 0, all_output(result)
    row = read_manifest(out / "manifest.csv")[0]
    shifted = random_shift(
        AudioClip(samples), ShiftParams(max_shift=30, rng_seed=int(row["shift_seed"]))
    )
    image = import_raw(out / "a.sfci")
    cm = get_curve(CurveKind.Z, 5)
    assert np.array_equal(image.pixels[cm.ys, cm.xs][:400], shifted.samples)


def test_encode_defaults_silent_clip(tmp_path, runner):
    # default curve/order: a silent 1 s clip becomes an all-zero 128x128 image
    src = tmp_path / "quiet.wav"
    src.parent.mkdir(parents=True, exist_ok=True)
    save_wav(AudioClip(np.zeros(16000)), src)
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(src), "--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    dest = out / "quiet.sfci"
    assert dest.stat().st_size == 12 + 4 * 16384
    image = import_raw(dest)
    assert image.order == 7 and image.kind == CurveKind.Z
    assert not image.pixels.any()


def test_encode_rerun_is_byte_identical(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "a.wav", length=300, seed=8)
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "encode", str(src), "--order", "5", "--out", str(out), "--shift", "20", "4",
        ])
        assert result.exit_code == 0, all_output(result)
        blobs.append((out / "a.sfci").read_bytes())
    assert blobs[0] == blobs[1]


def test_encode_pgm_format(tmp_path, runner):
    write_clip(tmp_path / "c.wav", length=50)
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "encode", str(tmp_path / "c.wav"), "--order", "3", "--format", "pgm", "--out", str(out),
    ])
    assert result.exit_code == 0, all_output(result)
    assert (out / "c.pgm").read_bytes().startswith(b"P5\n8 8\n65535\n")


def test_encode_keeps_going_on_bad_file(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "good.wav", length=50)
    (src / "bad.wav").write_bytes(b"junk")
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(src), "--order", "3", "--out", str(out)])
    assert result.exit_code == 1
    rows = {r["input"].split("/")[-1]: r for r in read_manifest(out / "manifest.csv")}
    assert rows["good.wav"]["status"] == "ok"
    assert rows["bad.wav"]["status"] == "error" and rows["bad.wav"]["error"]
    assert (out / "good.sfci").is_file()
    assert not (out / "bad.sfci").exists()


def test_encode_non_finite_file_is_error_row(tmp_path, runner, wav_factory):
    src = tmp_path / "src"
    write_clip(src / "good.wav", length=50)
    values = np.zeros(50, dtype="<f4")
    values[7] = np.nan
    wav_factory("src/nan.wav", audio_format=3, bits=32, payload=values.tobytes())
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(src), "--order", "3", "--out", str(out)])
    assert result.exit_code == 1
    rows = {r["input"].split("/")[-1]: r for r in read_manifest(out / "manifest.csv")}
    assert rows["good.wav"]["status"] == "ok"
    assert rows["nan.wav"]["status"] == "error" and "index 7" in rows["nan.wav"]["error"]
    assert not (out / "nan.sfci").exists()


def test_encode_rejects_oversized_clip(tmp_path, runner):
    write_clip(tmp_path / "long.wav", length=20)
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "encode", str(tmp_path / "long.wav"), "--order", "2", "--out", str(out),
    ])
    assert result.exit_code == 1
    row = read_manifest(out / "manifest.csv")[0]
    assert row["status"] == "error" and "exceeds" in row["error"]


def test_encode_empty_dir(tmp_path, runner):
    src = tmp_path / "empty"
    src.mkdir()
    result = runner.invoke(main, ["encode", str(src), "--out", str(tmp_path / "img")])
    assert result.exit_code == 1
    assert "no .wav files" in all_output(result)


def test_encode_usage_errors(tmp_path, runner):
    write_clip(tmp_path / "c.wav")
    bad_order = runner.invoke(main, [
        "encode", str(tmp_path / "c.wav"), "--order", "14", "--out", str(tmp_path / "o"),
    ])
    assert bad_order.exit_code == 2
    bad_curve = runner.invoke(main, [
        "encode", str(tmp_path / "c.wav"), "--curve", "peano", "--out", str(tmp_path / "o"),
    ])
    assert bad_curve.exit_code == 2


# --- decode ----------------------------------------------------------------------

def test_decode_roundtrip(tmp_path, runner):
    samples = write_clip(tmp_path / "c.wav", length=300, seed=7)
    out = tmp_path / "img"
    assert runner.invoke(main, [
        "encode", str(tmp_path / "c.wav"), "--order", "5", "--out", str(out),
    ]).exit_code == 0
    wav_out = tmp_path / "back" / "c.wav"
    result = runner.invoke(main, ["decode", str(out / "c.sfci"), "--out", str(wav_out)])
    assert result.exit_code == 0, all_output(result)
    assert "300 samples" in result.output
    assert np.array_equal(load_wav(wav_out).samples, samples)


def test_sfci_commands_never_build_a_curve_table(tmp_path, runner, monkeypatch):
    originals = [write_clip(tmp_path / "src" / f"c{i}.wav", length=300, seed=i) for i in (0, 1)]

    def no_tables(kind, order):
        raise AssertionError(f"built a {kind.name} table at order {order}")

    get_curve.cache_clear()
    monkeypatch.setattr(curves, "build_curve", no_tables)
    img, mix = tmp_path / "img", tmp_path / "mix"
    for args in (
        ["encode", str(tmp_path / "src"), "--curve", "optr", "--order", "5", "--out", str(img)],
        ["decode", str(img / "c1.sfci"), "--out", str(tmp_path / "c1.wav")],
        ["mixup", str(img / "manifest.csv"), "--out", str(mix)],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, all_output(result)
    assert np.array_equal(load_wav(tmp_path / "c1.wav").samples, originals[1])
    assert [r["status"] for r in read_manifest(mix / "manifest.csv")] == ["ok"]


def test_decode_rejects_garbage(tmp_path, runner):
    bad = tmp_path / "bad.sfci"
    bad.write_bytes(b"nope")
    result = runner.invoke(main, ["decode", str(bad), "--out", str(tmp_path / "o.wav")])
    assert result.exit_code == 1
    assert "byte offset" in all_output(result)


def test_decode_reports_a_non_finite_sfci(tmp_path, runner):
    samples = np.zeros(16)
    samples[3] = np.nan
    write_raw(tmp_path / "bad.sfci", CurveKind.Z, 2, 10, samples)
    result = runner.invoke(main, ["decode", str(tmp_path / "bad.sfci"), "--out", str(tmp_path / "bad.wav")])
    assert result.exit_code == 1
    assert "non-finite sample nan at index 3" in all_output(result)
    assert not (tmp_path / "bad.wav").exists()


def test_encode_of_a_clip_beyond_float32_is_error_row(tmp_path, runner, monkeypatch):
    write_clip(tmp_path / "src" / "big.wav", length=50)
    monkeypatch.setattr(cli, "load_wav", lambda path: AudioClip(np.array([0.5, -2e39, 1.0])))
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(tmp_path / "src"), "--order", "3", "--out", str(out)])
    assert result.exit_code == 1
    row = read_manifest(out / "manifest.csv")[0]
    assert row["status"] == "error" and row["output"] == ""
    assert row["error"] == "sample -2e+39 at index 1 is outside the float32 range"
    assert not (out / "big.sfci").exists()


def test_largest_float32_samples_encode_and_mix(tmp_path, runner, wav_factory):
    top = np.finfo(np.float32).max
    (tmp_path / "src").mkdir()
    for i, sign in enumerate((1.0, -1.0)):
        values = np.full(50, sign * top, dtype="<f4")
        values[::7] = 0.25
        wav_factory(f"src/c{i}.wav", audio_format=3, bits=32, payload=values.tobytes())
    img = tmp_path / "img"
    assert runner.invoke(main, ["encode", str(tmp_path / "src"), "--order", "3", "--out", str(img)]).exit_code == 0
    out = tmp_path / "mix"
    result = runner.invoke(main, ["mixup", str(img / "manifest.csv"), "--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    mixed = import_raw(out / rows[0]["output"]).samples
    assert np.isfinite(mixed).all() and np.abs(mixed).max() <= top


# --- mixup -----------------------------------------------------------------------

def encode_corpus(tmp_path, runner, count=4, length=256):
    src = tmp_path / "src"
    for i in range(count):
        write_clip(src / f"c{i}.wav", length=length, seed=20 + i)
    out = tmp_path / "img"
    result = runner.invoke(main, ["encode", str(src), "--order", "4", "--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    return out


def test_mixup_blends_are_replayable(tmp_path, runner):
    img_dir = encode_corpus(tmp_path, runner)
    out = tmp_path / "mix"
    result = runner.invoke(main, [
        "mixup", str(img_dir / "manifest.csv"), "--seed", "11", "--out", str(out),
    ])
    assert result.exit_code == 0, all_output(result)
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok"
        lam = float(row["mixup_lambda"])
        assert 0.0 <= lam <= 1.0
        a = import_raw(out / row["input"])
        b = import_raw(out / row["mixup_partner"])
        mixed = import_raw(out / row["output"])
        want = lam * a.pixels + (1.0 - lam) * b.pixels
        assert np.max(np.abs(mixed.pixels - want)) <= 1e-7  # float32 file storage
        assert row["output"].startswith(f"mix{rows.index(row):04d}_")


def test_mixup_deterministic_pairing(tmp_path, runner):
    img_dir = encode_corpus(tmp_path, runner)
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert runner.invoke(main, [
            "mixup", str(img_dir / "manifest.csv"), "--seed", "3", "--out", str(out),
        ]).exit_code == 0
        rows = read_manifest(out / "manifest.csv")
        outs.append([(r["input"], r["mixup_partner"], r["mixup_lambda"]) for r in rows])
    assert outs[0] == outs[1]


def test_mixup_weights_come_from_the_shared_sampler(tmp_path, runner):
    img_dir = encode_corpus(tmp_path, runner, count=6)
    out = tmp_path / "mix"
    assert runner.invoke(main, [
        "mixup", str(img_dir / "manifest.csv"), "--alpha", "0.4", "--seed", "5", "--out", str(out),
    ]).exit_code == 0
    rows = read_manifest(out / "manifest.csv")
    want = draw_mixup_lambdas(0.4, 5, 3)
    assert [float(r["mixup_lambda"]) for r in rows] == want.tolist()


def test_mixup_needs_two_rows(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "only.wav", length=50)
    img_dir = tmp_path / "img"
    assert runner.invoke(main, [
        "encode", str(src), "--order", "3", "--out", str(img_dir),
    ]).exit_code == 0
    result = runner.invoke(main, [
        "mixup", str(img_dir / "manifest.csv"), "--out", str(tmp_path / "mix"),
    ])
    assert result.exit_code == 1
    assert "at least two" in all_output(result)


def test_mixup_skips_a_row_shorter_than_its_header(tmp_path, runner):
    img_dir = encode_corpus(tmp_path, runner, count=2)
    manifest = img_dir / "short.csv"
    manifest.write_text("status,output\nok\nok,c0.sfci\nok,c1.sfci\n")
    out = tmp_path / "mix"
    result = runner.invoke(main, ["mixup", str(manifest), "--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    (row,) = read_manifest(out / "manifest.csv")
    assert row["status"] == "ok"


def test_mixup_length_mismatch_is_error_row(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "a.wav", length=100)
    write_clip(src / "b.wav", length=101)
    img_dir = tmp_path / "img"
    assert runner.invoke(main, [
        "encode", str(src), "--order", "4", "--out", str(img_dir),
    ]).exit_code == 0
    result = runner.invoke(main, [
        "mixup", str(img_dir / "manifest.csv"), "--out", str(tmp_path / "mix"),
    ])
    assert result.exit_code == 1
    rows = read_manifest(tmp_path / "mix" / "manifest.csv")
    assert rows[0]["status"] == "error" and "disagree" in rows[0]["error"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mixup_non_finite_sfci_is_error_row(tmp_path, runner, value):
    img_dir = encode_corpus(tmp_path, runner, count=2)
    bad = import_raw(img_dir / "c1.sfci")
    samples = bad.samples.copy()
    samples[5] = value
    write_raw(img_dir / "c1.sfci", bad.kind, bad.order, bad.length, samples)
    out = tmp_path / "mix"
    result = runner.invoke(main, ["mixup", str(img_dir / "manifest.csv"), "--out", str(out)])
    assert result.exit_code == 1
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 1 and rows[0]["status"] == "error"
    assert "non-finite sample" in rows[0]["error"] and "index 5" in rows[0]["error"]
    assert not list(out.glob("mix*.sfci"))


def test_mixup_write_failure_is_error_row(tmp_path, runner, monkeypatch):
    img_dir = encode_corpus(tmp_path, runner, count=4)

    def refuse(image, path):
        raise OSError(f"cannot write {path.name}")

    monkeypatch.setattr(cli, "export_raw", refuse)
    out = tmp_path / "mix"
    result = runner.invoke(main, ["mixup", str(img_dir / "manifest.csv"), "--out", str(out)])
    assert result.exit_code == 1
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 2
    for j, row in enumerate(rows):
        assert row["status"] == "error" and row["output"] == ""
        assert row["error"].startswith(f"cannot write mix{j:04d}_")
        assert row["input"] and row["mixup_partner"]
    assert not list(out.glob("mix*.sfci"))


def test_failing_item_logs_its_label_once(tmp_path, runner):
    src = tmp_path / "src"
    write_clip(src / "a.wav", length=100)
    write_clip(src / "b.wav", length=101)
    (src / "bad.wav").write_bytes(b"junk")
    img_dir = tmp_path / "img"
    summary = "1 file(s) failed; see manifest.csv error rows"
    result = runner.invoke(main, ["encode", str(src), "--order", "4", "--out", str(img_dir)])
    assert result.exit_code == 1
    line, last = result.stderr.splitlines()
    assert (line, last) == (f"{src / 'bad.wav'}: not a RIFF/WAVE file", summary)
    assert line.count(str(src / "bad.wav")) == 1
    row = [r for r in read_manifest(img_dir / "manifest.csv") if r["status"] == "error"][0]
    assert row["error"] == line  # the manifest text is unchanged
    # a second run in the same process prints its own line
    result = runner.invoke(main, ["encode", str(src / "bad.wav"), "--out", str(tmp_path / "img2")])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [line, summary]
    result = runner.invoke(main, ["mixup", str(img_dir / "manifest.csv"), "--out", str(tmp_path / "mix")])
    assert result.exit_code == 1
    line, last = result.stderr.splitlines()
    assert line.startswith("pair 0: mixup inputs disagree") and last.startswith("1 pair(s) failed")


# --- unwritable output paths ---------------------------------------------------------

UNWRITABLE_OUTPUTS = [
    ["encode", "{wav}", "--out", "{out}"],
    ["mixup", "{manifest}", "--out", "{out}"],
    ["decode", "{sfci}", "--out", "{out}.wav"],
    ["curve-table", "--curve", "z", "--order", "2", "--out", "{out}.csv"],
    ["locality", "--order", "2", "--gaps", "1,4", "--out", "{out}.txt"],
    ["verify-lemma", "--k-range", "2", "--l-range", "1", "--trials", "1", "--witness-out", "{out}.csv"],
]


@pytest.mark.parametrize("args", UNWRITABLE_OUTPUTS, ids=lambda args: args[0])
def test_unwritable_output_exits_cleanly(tmp_path, runner, args):
    img_dir = encode_corpus(tmp_path, runner, count=2)  # mixup needs a pair
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")  # a regular file where a directory is needed
    fields = {
        "wav": str(tmp_path / "src" / "c0.wav"), "manifest": str(img_dir / "manifest.csv"),
        "sfci": str(img_dir / "c0.sfci"), "out": str(blocker / "sub" / "o"),
    }
    argv = [a.format(**fields) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, all_output(result)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in all_output(result)
    assert f"{argv[-1]}: " in result.stderr


@pytest.mark.parametrize("side", ["read", "write"])
def test_unusable_manifest_exits_cleanly(tmp_path, runner, side):
    img_dir = encode_corpus(tmp_path, runner, count=2)
    if side == "read":  # a manifest that is not UTF-8
        manifest = img_dir / "manifest.csv"
        manifest.write_bytes(b"status,output\nok,\xff.sfci\n")
        argv = ["mixup", str(manifest), "--out", str(tmp_path / "mix")]
    else:  # a directory where encode writes its manifest
        manifest = tmp_path / "enc" / "manifest.csv"
        manifest.mkdir(parents=True)
        argv = ["encode", str(tmp_path / "src"), "--order", "4", "--out", str(manifest.parent)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, all_output(result)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in all_output(result)
    assert result.stderr.startswith(f"{manifest}: ")


# --- bad option values -----------------------------------------------------------

BAD_OPTION_VALUES = [
    ["encode", "{wav}", "--center", "100", "nan", "nan"],
    ["encode", "{wav}", "--center", "0", "25", "0.0001"],
    ["encode", "{wav}", "--center", "100.5", "25", "0.0001"],
    ["encode", "{wav}", "--shift", "5", "-1"],
    ["mixup", "{manifest}", "--alpha", "nan"],
    ["mixup", "{manifest}", "--alpha", "inf"],
    ["mixup", "{manifest}", "--alpha", "0"],
    ["mixup", "{manifest}", "--seed", "-1"],
    ["locality", "--gaps", "abc"],
    ["locality", "--gaps", "0"],
    ["locality", "--gaps", ","],
    ["locality", "--order", "3", "--gaps", "64"],
]


@pytest.mark.parametrize("args", BAD_OPTION_VALUES, ids=" ".join)
def test_bad_option_values_are_usage_errors(tmp_path, runner, args):
    img_dir = encode_corpus(tmp_path, runner, count=2)
    out = tmp_path / "out"
    fields = {"wav": str(tmp_path / "src" / "c0.wav"), "manifest": str(img_dir / "manifest.csv")}
    result = runner.invoke(main, [a.format(**fields) for a in args] + ["--out", str(out)])
    assert result.exit_code == 2, all_output(result)
    assert isinstance(result.exception, SystemExit)  # click's usage exit, not a crash
    assert result.output.startswith("Usage:") and "Traceback" not in result.output
    assert not out.exists()


# --- byte pin of the batch commands ----------------------------------------------

def tree_digest(root, tmp_path):
    """One SHA-256 over every file under root; tmp_path is masked in manifests."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.csv":
            data = data.replace(str(tmp_path).encode(), b"<tmp>")
        h.update(f"{path.relative_to(root).as_posix()}\0{hashlib.sha256(data).hexdigest()}\n".encode())
    return h.hexdigest()


PINNED_TREES = {
    "sfci": "f849e5b17ee298f409430c17e550ccb664d1c24124c9428239917258b5d33da6",
    "pgm": "783bb3b58033dccc444eb46fa6410eb1db3228d409b6295a7b975b6b852ccc69",
    "mix": "c10589bbeaadbba9dd6d7218fdb7a9cf2834a197a992f89fea497ab92a9af625",
}


def write_pinned_corpus(src):
    """Five seeded 600-sample clips in two directories, plus one bad file."""
    rng = np.random.default_rng(12)
    for i, name in enumerate(("a.wav", "sub/b.wav", "sub/c.wav", "d.wav", "e.wav")):
        samples = np.zeros(600)
        samples[40 * i : 40 * i + 150] = rng.integers(-20000, 20000, 150) / 32768.0
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        save_wav(AudioClip(samples), src / name)
    (src / "sub" / "bad.wav").write_bytes(b"RIFF junk")


def test_encode_and_mixup_outputs_are_pinned(tmp_path, runner):
    """Manifests, images and summaries of a seeded run, with centering, shifts and a bad file."""
    src = tmp_path / "src"
    write_pinned_corpus(src)
    stdout = {}
    for fmt in ("sfci", "pgm"):
        result = runner.invoke(main, [
            "encode", str(src), "--curve", "hilbert", "--order", "5", "--format", fmt,
            "--center", "100", "25", "0.0001", "--shift", "-1", "7", "--out", str(tmp_path / fmt),
        ])
        assert result.exit_code == 1, all_output(result)
        stdout[fmt] = result.stdout.replace(str(tmp_path), "<tmp>")
    result = runner.invoke(main, [
        "mixup", str(tmp_path / "sfci" / "manifest.csv"), "--alpha", "0.4", "--seed", "3",
        "--out", str(tmp_path / "mix"),
    ])
    assert result.exit_code == 0, all_output(result)
    stdout["mix"] = result.stdout.replace(str(tmp_path), "<tmp>")
    assert stdout == {
        "sfci": "converted 5/6 file(s) -> <tmp>/sfci\n",
        "pgm": "converted 5/6 file(s) -> <tmp>/pgm\n",
        "mix": "mixed 2/2 pair(s) -> <tmp>/mix\n",
    }
    assert {name: tree_digest(tmp_path / name, tmp_path) for name in PINNED_TREES} == PINNED_TREES


# --- the process pool of encode and mixup ------------------------------------------

def batch_outcomes(runner, src, base):
    """Tree digest, stdout, stderr and exit code of encode .sfci, encode .pgm and mixup."""
    commands = {
        fmt: ["encode", str(src), "--curve", "hilbert", "--order", "5", "--format", fmt,
              "--center", "100", "25", "0.0001", "--shift", "-1", "7"] for fmt in ("sfci", "pgm")
    }
    commands["mix"] = ["mixup", str(base / "sfci" / "manifest.csv"), "--alpha", "0.4", "--seed", "3"]
    outcomes = {}
    for name, argv in commands.items():
        result = runner.invoke(main, argv + ["--out", str(base / name)])
        outcomes[name] = (tree_digest(base / name, base), result.stdout.replace(str(base), "<out>"),
                          result.stderr, result.exit_code)
    return outcomes


@pytest.mark.parametrize("more_good, more_bad, bad_spots", [
    (0, (), {(0, 1)}),
    (0, ("a0.wav", "c.wav", "sub/b0.wav", "sub/z.wav"), {(0, 1)}),
    # 48 items make chunks of 3 on 2 workers: n04b.wav and n21b.wav end one, sub/bad.wav sits mid-chunk;
    # the 400-sample clips cannot blend with the 600-sample ones, so mixup writes error rows as well
    (40, ("n04b.wav", "n21b.wav"), {(1, 3), (2, 3)}),
], ids=["pinned-corpus", "more-bad-files", "chunks-of-three"])
def test_pool_writes_what_one_process_writes(tmp_path, runner, monkeypatch, more_good, more_bad, bad_spots):
    """Two workers give the files, manifests, output, error lines (in input order) and exit codes of one."""
    import concurrent.futures

    src = tmp_path / "src"
    write_pinned_corpus(src)
    for i in range(more_good):
        write_clip(src / f"n{i:02d}.wav", seed=i)
    for name in more_bad:  # interleaved with the good files, so a worker meets one early
        (src / name).write_bytes(b"junk")
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    chunk_labels = []  # the labels of each chunk, per batch run
    real_chunk_map = cli._chunk_map

    @contextlib.contextmanager
    def recording_chunk_map(workers):
        with real_chunk_map(workers) as run_all:
            def record(run, chunks):
                chunk_labels.append([[label for label, *_ in chunk] for chunk in chunks])
                return run_all(run, chunks)
            yield record

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(cli, "_chunk_map", recording_chunk_map)
    outcomes = {}
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda n=workers: n)
        outcomes[workers] = batch_outcomes(runner, src, tmp_path / f"w{workers}")
    assert pools == [2, 2, 2]  # encode twice and mixup, each in one pool
    assert outcomes[2] == outcomes[1]
    bad = sorted(src / name for name in ("sub/bad.wav", *more_bad))
    # (place, size) of each bad file's chunk in the 2-worker .sfci encode
    spots = {(i, len(chunk)) for chunk in chunk_labels[3] for i, label in enumerate(chunk) if label in bad}
    assert spots == bad_spots
    *lines, summary = outcomes[1]["sfci"][2].splitlines()  # the error lines, then the summary
    assert [line.split(": ", 1)[0] for line in lines] == [str(p) for p in bad]
    assert summary == f"{len(bad)} file(s) failed; see manifest.csv error rows"
    assert outcomes[1]["sfci"][3] == outcomes[1]["pgm"][3] == 1 and outcomes[1]["mix"][3] == int(more_good > 0)


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert cli._worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # as on a platform without it
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cli._worker_count() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count() == 1


TEST_PID = os.getpid()


def dies_on(path):
    """Kill the calling process if it is a pool worker and ``path`` is named die.*."""
    if path.stem == "die" and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)


def convert_or_die(row, index, path):
    """The encode job, except that a pool worker given die.wav kills itself."""
    dies_on(path)
    return cli._convert(CurveKind.Z, 4, None, None, row, index, path)


def blend_or_die(row, lam, path_a, path_b):
    """The mixup job, except that a pool worker given a pair starting at die.sfci kills itself."""
    dies_on(path_a)
    return cli._blend(MixupParams(alpha=0.2), row, lam, path_a, path_b)


@pytest.mark.parametrize("command", ["encode", "mixup"])
def test_a_dead_worker_ends_the_batch_cleanly(tmp_path, monkeypatch, capsys, command):
    """Every item gets a row; a died row names its input (and, for mixup, its partner)."""
    import multiprocessing

    src, out = tmp_path / "src", tmp_path / "out"
    paths = [src / name for name in ("a.wav", "b.wav", "die.wav", "d.wav", "e.wav")]
    for seed, path in enumerate(paths):
        write_clip(path, length=100, seed=seed)
    if command == "encode":
        items = [(path, {"input": os.path.relpath(path, out)}, out / path.with_suffix(".sfci").name, index, path)
                 for index, path in enumerate(paths)]
        job, verb, noun, per_item = convert_or_die, "converted", "file(s)", 16 * 4**4
    else:
        images = [path.with_suffix(".sfci") for path in paths]
        for path, image in zip(paths, images):
            export_raw(encode(load_wav(path), CurveKind.Z, 4), image)
        pairs = list(zip(images, images[1:] + images[:1]))  # pair 2 starts at die.sfci
        items = [(f"pair {j}", {"input": os.path.relpath(a, out), "mixup_partner": os.path.relpath(b, out)},
                  out / f"mix{j}.sfci", 0.5, a, b) for j, (a, b) in enumerate(pairs)]
        job, verb, noun, per_item = blend_or_die, "mixed", "pair(s)", 24 * 4**4
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    with pytest.raises(SystemExit) as exc:
        cli._run_batch(out, job, items, verb, noun, per_item)
    assert exc.value.code == 1
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == len(items)
    died = [row["status"] == "error" for row in rows]
    assert died[2]  # the other workers' items may have finished or not
    for (_, fields, dest, *_), row, lost in zip(items, rows, died):
        assert {name: row[name] for name in fields} == fields
        if lost:
            assert row == dict.fromkeys(MANIFEST_FIELDS, "") | fields | {"status": "error",
                                                                        "error": "worker process died"}
        else:
            assert row["status"] == "ok" and dest.exists()
    captured = capsys.readouterr()
    assert captured.out == f"{verb} {5 - sum(died)}/5 {noun} -> {out}\n"
    assert captured.err == (f"{sum(died)} {noun} failed, {sum(died)} because a worker process died; "
                            "see manifest.csv error rows\n")
    assert multiprocessing.active_children() == []


def test_pool_size_is_capped_by_memory():
    assert cli._pool_size(2, 40, 1 << 20, None) == 2  # no MemAvailable reading: no cap
    assert cli._pool_size(2, 40, 1 << 20, 64 << 20) == 2
    assert cli._pool_size(8, 3, 1 << 20, 64 << 20) == 3
    assert cli._pool_size(32, 40, 16 * 4**13, 7 << 30) == 7  # order-13 encode on a 7 GiB host
    assert cli._pool_size(32, 40, 24 * 4**13, 7 << 30) == 4  # order-13 mixup
    assert cli._pool_size(4, 40, 1 << 20, (1 << 20) - 1) == 1  # never below one process
    assert cli._pool_size(4, 40, 1 << 20, 0) == 1
    # 256 KiB per order-7 encode item: 64 processes fit in 16 MiB
    assert cli._pool_size(64, 2000, 16 * 4**7, 16 << 20) == 64


@pytest.mark.parametrize("text, want", [
    (b"MemTotal:  8000000 kB\nMemFree:  100 kB\nMemAvailable:  7000000 kB\n", 7000000 * 1024),
    (b"MemTotal:  8000000 kB\nMemFree:  100 kB\n", None),  # a kernel without the line
    (None, None),  # no /proc/meminfo
])
def test_mem_available_reads_proc_meminfo(monkeypatch, text, want):
    def fake_open(path, mode):
        assert (path, mode) == ("/proc/meminfo", "rb")
        if text is None:
            raise FileNotFoundError(path)
        return io.BytesIO(text)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    assert cli._mem_available() == want


def test_a_memory_cap_of_one_runs_the_batch_here(tmp_path, runner, monkeypatch):
    """Two CPUs but memory for one order-5 item: no pool, one stderr line, the files of one process."""
    import concurrent.futures

    src = tmp_path / "src"
    write_pinned_corpus(src)
    monkeypatch.setattr(cli, "_worker_count", lambda: 1)
    one = batch_outcomes(runner, src, tmp_path / "one")

    def no_pool(*args, **kwargs):
        raise AssertionError("a batch capped at one process started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    monkeypatch.setattr(cli, "_mem_available", lambda: 30 << 10)  # one 16 KiB encode item, one 24 KiB mixup item
    capped = batch_outcomes(runner, src, tmp_path / "capped")
    for name, per_item in (("sfci", 16), ("pgm", 16), ("mix", 24)):
        line = f"memory caps the pool at 1 of 2 processes: MemAvailable 30 KiB, about {per_item} KiB per item\n"
        digest, stdout, stderr, code = capped[name]
        assert (digest, stdout, stderr.removeprefix(line), code) == one[name], name
        assert stderr.startswith(line), name


def test_one_item_starts_no_pool(tmp_path, runner, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-item batch started a process pool")

    write_clip(tmp_path / "src" / "one.wav", length=100)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_worker_count", lambda: 4)
    argv = ["encode", str(tmp_path / "src" / "one.wav"), "--order", "4", "--out", str(tmp_path / "img")]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, all_output(result)
    # nor is the pool's module imported by a one-file encode in a fresh process
    code = ("import sys\nfrom sfcaudio.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n    assert not exc.code, exc.code\n"
            "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv[:-1], str(tmp_path / "img2")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "False False"), done.stderr


# --- curve-table -----------------------------------------------------------------

def test_curve_table_stdout(runner):
    result = runner.invoke(main, ["curve-table", "--curve", "z", "--order", "1"])
    assert result.exit_code == 0
    assert result.output == "t,x,y\n0,0,0\n1,0,1\n2,1,0\n3,1,1\n"


def test_curve_table_file(tmp_path, runner):
    out = tmp_path / "h2.csv"
    result = runner.invoke(main, [
        "curve-table", "--curve", "hilbert", "--order", "2", "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 17
    cm = get_curve(CurveKind.HILBERT, 2)
    for t, line in enumerate(lines[1:]):
        assert line == f"{t},{cm.xs[t]},{cm.ys[t]}"


def fstring_rows(cm):
    """The per-row f-string writer that ``_csv_rows`` replaced, as reference bytes."""
    rows = zip(range(cm.size), cm.xs.tolist(), cm.ys.tolist())
    return "".join(f"{t},{x},{y}\n" for t, x, y in rows).encode()


@pytest.mark.parametrize("kind", list(CurveKind))
def test_curve_table_matches_the_fstring_writer(tmp_path, runner, monkeypatch, kind):
    out = tmp_path / "table.csv"
    for block in (cli._CSV_BLOCK, 7):
        # 7-row blocks split the file mid-run of every field width and put
        # t's 9 -> 10, 99 -> 100 and 999 -> 1000 steps inside a block
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        for order in range(1, 8):
            result = runner.invoke(main, [
                "curve-table", "--curve", kind.name.lower(), "--order", str(order), "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == b"t,x,y\n" + fstring_rows(build_curve(kind, order)), (block, order)


def test_curve_table_file_leaves_stdout_alone(tmp_path):
    # an in-process caller may capture stdout in a text-only stream
    out = tmp_path / "z2.csv"
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        main(["curve-table", "--curve", "z", "--order", "2", "--out", str(out)], standalone_mode=False)
    assert captured.getvalue() == ""
    assert out.read_bytes() == b"t,x,y\n" + fstring_rows(build_curve(CurveKind.Z, 2))


def test_curve_table_stdout_bytes(runner, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    result = runner.invoke(main, ["curve-table", "--curve", "optr", "--order", "3"])
    assert result.exit_code == 0
    assert result.stdout_bytes == b"t,x,y\n" + fstring_rows(build_curve(CurveKind.OPTR, 3))


def test_curve_table_into_a_closed_pipe_exits_1_silently():
    # the reader keeps one line and closes; the 3 MB table cannot fit in the pipe buffer
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "sfcaudio.cli", "curve-table", "--curve", "z", "--order", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"t,x,y\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def fstring_block(start, xs, ys):
    """The f-string rows of t = start, start + 1, ... with the given x and y."""
    rows = zip(range(start, start + len(xs)), xs.tolist(), ys.tolist())
    return "".join(f"{t},{x},{y}\n" for t, x, y in rows).encode()


def test_csv_rows_cover_every_order_up_to_max_order():
    # one 4-digit group for x and y, two for t: a larger MAX_ORDER needs wider words
    assert 4**MAX_ORDER <= 10**8 and 2**MAX_ORDER <= 10**4


def test_csv_rows_match_the_fstring_writer_at_every_width():
    """Values that orders 1..7 never reach: 4-digit x and y, 5- to 8-digit t, the order-13 tail."""
    side = np.arange(2**MAX_ORDER, dtype=np.uint16)  # x and y of every width from 1 to 4 digits
    assert cli._csv_rows(0, side, side[::-1]) == fstring_block(0, side, side[::-1])
    rng = np.random.default_rng(25)
    starts = [10**p - 2048 for p in range(4, 8)]  # blocks across 10^4 .. 10^7
    starts += [3 * 10**4 - 7, 10**7 + 10**4 - 100, 4**MAX_ORDER - cli._CSV_BLOCK]
    for start in starts:
        for n in (cli._CSV_BLOCK, 777):  # a full block and an odd one
            n = min(n, 4**MAX_ORDER - start)
            xs, ys = rng.integers(0, 2**MAX_ORDER, size=(2, n), dtype=np.uint16)
            assert cli._csv_rows(start, xs, ys) == fstring_block(start, xs, ys), (start, n)
    xs, ys = rng.integers(0, 2**MAX_ORDER, size=(2, 25_000), dtype=np.uint16)  # four upper groups in one call
    assert cli._csv_rows(10**4 - 5, xs, ys) == fstring_block(10**4 - 5, xs, ys)


def test_curve_table_builds_its_digit_tables_once_and_only_for_itself(tmp_path):
    """Importing the CLI, --help and encode leave the tables unbuilt; curve-table builds them once."""
    write_clip(tmp_path / "one.wav", length=100)
    code = """if True:
        import sys
        from sfcaudio import cli
        def run(*argv):
            try:
                cli.main(list(argv))
            except SystemExit as exc:
                assert not exc.code, exc.code
            info = cli._digit_words.cache_info()
            print("tables", info.misses, info.currsize)
        run("--help")
        run("encode", sys.argv[1], "--order", "4", "--out", sys.argv[2])
        run("curve-table", "--curve", "z", "--order", "7", "--out", sys.argv[3])
        run("curve-table", "--curve", "h", "--order", "3", "--out", sys.argv[3])
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "one.wav"), str(tmp_path / "img"),
                           str(tmp_path / "table.csv")], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    tables = [line for line in done.stdout.splitlines() if line.startswith("tables ")]
    assert tables == ["tables 0 0", "tables 0 0", "tables 1 1", "tables 1 1"]


# --- locality --------------------------------------------------------------------

def test_locality_text(runner):
    result = runner.invoke(main, ["locality", "--order", "3", "--gaps", "1,4"])
    assert result.exit_code == 0
    for name in ("hilbert", "z", "gray", "h", "optr", "sweep", "scan", "diagonal"):
        assert name in result.output


def test_locality_csv_file(tmp_path, runner):
    out = tmp_path / "loc.csv"
    result = runner.invoke(main, [
        "locality", "--order", "3", "--gaps", "1,4", "--format", "csv", "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kind,order,gap,worst_inf,worst_l1,worst_l2,mean_inf,ratio_sqrt,ratio_lin,jump_count"
    assert len(lines) == 1 + 8 * 2


def test_locality_bad_inputs(runner):
    assert runner.invoke(main, ["locality", "--order", str(MAX_ORDER + 1)]).exit_code == 2
    assert runner.invoke(main, ["locality", "--order", "3", "--gaps", "0"]).exit_code == 2
    assert runner.invoke(main, ["locality", "--order", "3", "--gaps", "64"]).exit_code == 2


# --- verify-lemma ----------------------------------------------------------------

def test_verify_lemma_z_passes(tmp_path, runner):
    witness = tmp_path / "w.csv"
    result = runner.invoke(main, [
        "verify-lemma", "--curves", "z", "--k-range", "2:3", "--l-range", "1:1",
        "--trials", "3", "--witness-out", str(witness),
    ])
    assert result.exit_code == 0, all_output(result)
    assert "z-curve equivariance holds" in result.output
    lines = witness.read_text().strip().split("\n")
    assert lines[0] == "kind,k,l,d,seed,max_abs_difference,holds"
    assert len(lines) == 3  # cells (2,1) and (3,1)


def test_verify_lemma_real_inputs(runner):
    result = runner.invoke(main, [
        "verify-lemma", "--curves", "z", "--k-range", "2:2", "--l-range", "1:1",
        "--trials", "2", "--real",
    ])
    assert result.exit_code == 0, all_output(result)
    assert "inputs=real" in result.output


def test_verify_lemma_other_curves_informational(runner):
    result = runner.invoke(main, [
        "verify-lemma", "--curves", "hilbert", "--k-range", "3:3", "--l-range", "1:1",
        "--trials", "2",
    ])
    assert result.exit_code == 0, all_output(result)
    assert "FAILED" in result.output
    assert "asserts nothing" in result.output


def test_verify_lemma_exit_code_tracks_z(monkeypatch, runner):
    import sfcaudio.cli as cli_mod
    real_sweep = cli_mod.sweep_lemma

    def sabotaged(kind, *args, **kwargs):
        sweep = real_sweep(CurveKind.HILBERT, *args, **kwargs)  # known-failing results
        object.__setattr__(sweep, "kind", CurveKind(kind))
        return sweep

    monkeypatch.setattr(cli_mod, "sweep_lemma", sabotaged)
    result = runner.invoke(main, [
        "verify-lemma", "--curves", "z", "--k-range", "3:3", "--l-range", "1:1", "--trials", "2",
    ])
    assert result.exit_code == 3
    assert "FAILED" in all_output(result)


# sha256 of stdout and --witness-out for small runs: z and hilbert at
# l <= 2, then all eight curves at l <= 3. The --real digests record the
# summation order of the sweep's einsum under numpy 2.4: a change that
# moves them changes the digits of real-valued witnesses and must say so
# in CHANGES.md.
LEMMA_PIN_ARGS = ("--curves", "z,hilbert", "--k-range", "2:4", "--l-range", "1:2", "--trials", "3", "--seed", "5")
LEMMA_ALL_CURVES_ARGS = ("--curves", "hilbert,z,gray,h,optr,sweep,scan,diagonal", "--k-range", "2:5",
                         "--l-range", "1:3", "--trials", "3", "--seed", "5")
LEMMA_PINS = {
    LEMMA_PIN_ARGS: ("2fd671d5c9f17272d754a10eeb50aee3862ca7736dcd0a8211c9a1dd722af4e0",
                     "fd5f1873f141ecd280faa15d32d31f2e972f04a6413f433ac8f284e67f14969c"),
    (*LEMMA_PIN_ARGS, "--real"): ("5695c5b93b53754c75205620898461a9ff9d050d80d4371bfa66c7e8c32a6507",
                                  "99fe1ee48a6e27a84a762a5b323ed1470acce7aea69e3fba7915db9986029e14"),
    LEMMA_ALL_CURVES_ARGS: ("62f906f253a53521922a5bcf5a7e4b7cb5abdeb9afa10193bb31a28d6a7e7e31",
                            "b6c137407f43bad19f827ee56bab97ac12f13c92f34a10d734313ceb03b32293"),
    (*LEMMA_ALL_CURVES_ARGS, "--real"): ("b3f313d62a73c80fdc1aeb8c32005614c88ecd82fade9a66c21cf32f4120dd5e",
                                         "b0002daea5028c6b3e574041392b1c7ea895d29e6e4f3a42d250f00ca381eaf0"),
}


@pytest.mark.parametrize("args", list(LEMMA_PINS),
                         ids=["integer", "real", "all-curves-integer", "all-curves-real"])
def test_verify_lemma_bytes_are_pinned(tmp_path, runner, args):
    witness = tmp_path / "w.csv"
    result = runner.invoke(main, ["verify-lemma", *args, "--witness-out", str(witness)])
    assert result.exit_code == 0, all_output(result)
    digests = (hashlib.sha256(result.stdout_bytes).hexdigest(), hashlib.sha256(witness.read_bytes()).hexdigest())
    assert digests == LEMMA_PINS[args]


def test_verify_lemma_usage_errors(runner):
    assert runner.invoke(main, ["verify-lemma", "--k-range", "4:2"]).exit_code == 2
    assert runner.invoke(main, ["verify-lemma", "--k-range", "x"]).exit_code == 2
    assert runner.invoke(main, ["verify-lemma", "--curves", ","]).exit_code == 2
    assert runner.invoke(main, [
        "verify-lemma", "--k-range", "2:2", "--l-range", "2:3",
    ]).exit_code == 2
    for args in (["--curves", "z,bogus"], ["--curves", "z,"], ["--k-range", "14:14"], ["--l-range", "0:1"],
                 ["--seed", "-1"]):
        result = runner.invoke(main, ["verify-lemma", *args])
        assert result.exit_code == 2, all_output(result)
        assert result.output.startswith("Usage:")  # no sweep output before the error


# --- helpers ---------------------------------------------------------------------

def test_parse_span():
    assert _parse_span("3") == [3]
    assert _parse_span("2:4") == [2, 3, 4]
    with pytest.raises(ValueError):
        _parse_span("4:2")
    with pytest.raises(ValueError):
        _parse_span("a:b")
    assert _parse_span("1:13", least=1, most=13) == list(range(1, 14))
    for text, bounds in (("0:2", dict(least=1)), ("12:14", dict(most=13)), ("5", dict(least=6, most=9))):
        with pytest.raises(ValueError):
            _parse_span(text, **bounds)
