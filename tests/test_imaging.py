"""Image encoding, mixup, and the PGM/.sfci serializers."""

import os
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sfcaudio import curves, signal
from sfcaudio.curves import CurveKind, get_curve
from sfcaudio.equivariance import Kernel
from sfcaudio.imaging import (
    RAW_HEADER,
    RAW_HEADER_SIZE,
    RAW_MAGIC,
    MixupParams,
    RawFormatError,
    SfcImage,
    decode,
    draw_mixup_lambdas,
    encode,
    export_pgm,
    export_raw,
    import_raw,
    mixup,
)
from sfcaudio.signal import AudioClip, ShiftParams, center, load_wav, random_shift, save_wav

ALL_KINDS = list(CurveKind)


def make_image(kind=CurveKind.Z, order=3, length=None, seed=0):
    rng = np.random.default_rng(seed)
    size = 1 << (2 * order)
    if length is None:
        length = size - 7
    samples = rng.integers(-32768, 32768, size=length) / 32768.0
    return encode(AudioClip(samples), kind, order), samples


# --- encode / decode ------------------------------------------------------------

def test_encode_layout_z_order1():
    image = encode(AudioClip(np.array([1.0, 2.0, 3.0, 4.0])), CurveKind.Z, 1)
    # curve visits (0,0),(0,1),(1,0),(1,1); pixels indexed [y, x]
    assert image.pixels.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_encode_places_samples_in_curve_order():
    for kind in ALL_KINDS:
        cm = get_curve(kind, 3)
        samples = np.arange(cm.size, dtype=np.float64)
        image = encode(AudioClip(samples), kind, 3)
        assert np.array_equal(image.pixels[cm.ys, cm.xs], samples)


def test_encode_pads_tail_with_zeros():
    image = encode(AudioClip(np.ones(5)), CurveKind.HILBERT, 2)
    cm = get_curve(CurveKind.HILBERT, 2)
    seq = image.pixels[cm.ys, cm.xs]
    assert seq[:5].tolist() == [1.0] * 5
    assert not seq[5:].any()
    assert image.length == 5


def test_encode_rejects_oversized_clip():
    with pytest.raises(ValueError, match="exceeds"):
        encode(AudioClip(np.zeros(17)), CurveKind.Z, 2)


def test_decode_inverts_encode_every_kind(pcm16_grid_rng):
    rng = np.random.default_rng(11)
    for kind in ALL_KINDS:
        samples = pcm16_grid_rng(rng, 60)
        clip = AudioClip(samples)
        back = decode(encode(clip, kind, 3))
        assert np.array_equal(back.samples, samples)
        assert back.sample_rate == clip.sample_rate


def test_decode_empty_clip():
    image = encode(AudioClip(np.zeros(0)), CurveKind.SWEEP, 1)
    assert decode(image).length == 0


def test_full_grid_roundtrip():
    samples = np.linspace(-1, 1, 4096)
    back = decode(encode(AudioClip(samples), CurveKind.GRAY, 6))
    assert np.array_equal(back.samples, samples)


def test_decode_is_a_frozen_view_of_the_image():
    image = encode(AudioClip(np.random.default_rng(9).uniform(-1, 1, 1 << 20)), CurveKind.Z, 10)
    tracemalloc.start()
    try:
        clip = decode(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no copy and no scan of the samples; a copy took 8 MiB
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert np.shares_memory(clip.samples, image.samples)
    assert not clip.samples.flags.writeable and not image.samples.flags.writeable


@pytest.mark.parametrize("length", [0, 256])
def test_file_roundtrip_of_an_empty_and_a_full_clip(tmp_path, pcm16_grid_rng, length):
    samples = pcm16_grid_rng(np.random.default_rng(length), length)
    export_raw(encode(AudioClip(samples), CurveKind.HILBERT, 4), tmp_path / "c.sfci")
    save_wav(decode(import_raw(tmp_path / "c.sfci")), tmp_path / "c.wav")
    back = load_wav(tmp_path / "c.wav")
    assert back.length == length and np.array_equal(back.samples, samples)


# --- image type -----------------------------------------------------------------

def test_image_validation():
    good = np.zeros(16)
    with pytest.raises(ValueError, match="order"):
        SfcImage(CurveKind.Z, 0, 0, np.zeros(1))
    with pytest.raises(ValueError, match="order"):
        SfcImage(CurveKind.Z, 14, 0, good)
    with pytest.raises(ValueError, match="1-D"):  # a grid is not a curve-order sequence
        SfcImage(CurveKind.Z, 2, 0, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        SfcImage(CurveKind.Z, 2, 0, np.zeros(17))
    with pytest.raises(ValueError, match="length"):
        SfcImage(CurveKind.Z, 2, 17, good)
    with pytest.raises(ValueError, match="length"):
        SfcImage(CurveKind.Z, 2, -1, good)
    with pytest.raises(ValueError, match=r"length 10 outside \[0, 3\]"):  # past the samples given
        SfcImage(CurveKind.Z, 2, 10, np.zeros(3))


def test_image_fields_are_python_ints():
    with pytest.raises(TypeError):
        SfcImage(CurveKind.Z, 2, 3.7, np.zeros(3))
    with pytest.raises(TypeError):
        SfcImage(CurveKind.Z, 2.0, 3, np.zeros(3))
    image = SfcImage(CurveKind.Z, np.int64(2), np.int64(3), np.zeros(3))
    assert type(image.order) is int and type(image.length) is int
    assert image.length == 3 and decode(image).length == 3


def test_image_pixels_immutable():
    image, _ = make_image()
    with pytest.raises(ValueError):
        image.pixels[0, 0] = 9.0
    with pytest.raises(ValueError):
        image.samples[0] = 9.0


def test_image_order_is_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order"):
            SfcImage(CurveKind.Z, 14, 0, np.zeros(16))  # 4^14 cells would be 2 GiB
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_private_constructors_check_and_freeze_without_copying():
    full = np.zeros(16)
    image = SfcImage._own(CurveKind.Z, 2, 5, full)
    assert image.samples is full and not full.flags.writeable and image.kind is CurveKind.Z
    for kind, order, length, seq in [
        (CurveKind.Z, 2, 5, np.zeros(15)),                    # not padded to 4^k
        (CurveKind.Z, 2, 5, np.zeros(16, dtype=np.float32)),
        (CurveKind.Z, 2, 17, np.zeros(16)),
        (CurveKind.Z, 0, 0, np.zeros(1)),
        (99, 2, 0, np.zeros(16)),
    ]:
        with pytest.raises(ValueError):
            SfcImage._own(kind, order, length, seq)
    arr = np.arange(4.0)
    clip = AudioClip._own(arr, 8000)
    assert clip.samples is arr and not arr.flags.writeable and clip.sample_rate == 8000
    for seq, rate in [(np.zeros(4, dtype=np.float32), 16000), (np.zeros((2, 2)), 16000),
                      (np.zeros(4), 0)]:
        with pytest.raises(ValueError):
            AudioClip._own(seq, rate)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_public_image_rejects_non_finite_samples(value):
    seq = np.zeros(10)
    seq[[6, 8]] = value
    with pytest.raises(ValueError, match=f"non-finite sample {value} at index 6"):
        SfcImage(CurveKind.Z, 2, 10, seq)


def test_samples_derived_inside_the_package_are_not_rescanned(tmp_path, monkeypatch):
    burst = np.zeros(4000)
    burst[100:200] = 0.5
    clip = AudioClip(burst)
    save_wav(clip, tmp_path / "c.wav")
    other = encode(AudioClip(-burst), CurveKind.HILBERT, 6)

    def no_scan(samples):
        raise AssertionError("finite samples were scanned again")

    monkeypatch.setattr(signal, "_first_non_finite", no_scan)
    centered = center(clip)
    shifted = random_shift(centered, ShiftParams(max_shift=1000, rng_seed=3))
    assert not np.array_equal(centered.samples, burst)
    assert not np.array_equal(shifted.samples, centered.samples)
    image = encode(shifted, CurveKind.HILBERT, 6)
    assert np.array_equal(decode(image).samples, shifted.samples)
    mixed, _ = mixup(image, other, MixupParams(), lam=0.25)
    assert mixed.length == 4000
    assert np.array_equal(load_wav(tmp_path / "c.wav").samples, burst)  # PCM16


def test_image_owns_a_zero_padded_copy_of_short_samples():
    seq = np.array([0.5, -0.25, 1.0])
    image = SfcImage(CurveKind.HILBERT, 2, 3, seq)
    seq[0] = 9.0  # the caller's array does not alias the image
    assert image.samples.dtype == np.float64
    assert image.samples.tolist() == [0.5, -0.25, 1.0] + [0.0] * 13


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pixels_are_scattered_on_first_read(kind, tmp_path):
    image, samples = make_image(kind, order=4, seed=int(kind))
    export_raw(image, tmp_path / "i.sfci")
    back = import_raw(tmp_path / "i.sfci")
    cm = get_curve(kind, 4)
    for img in (image, back):
        assert "pixels" not in img.__dict__
        want = np.zeros((cm.n, cm.n))
        want[cm.ys, cm.xs] = img.samples
        assert np.array_equal(img.pixels, want)
        assert np.array_equal(img.pixels[cm.ys, cm.xs][: samples.size], samples)
        assert not img.pixels.flags.writeable
        assert img.pixels is img.pixels


def test_sfci_path_never_builds_a_curve_table(tmp_path, monkeypatch):
    def run(tag):
        clips = [AudioClip(np.random.default_rng(s).uniform(-1, 1, 1000)) for s in (1, 2)]
        images = [encode(clip, CurveKind.OPTR, 5) for clip in clips]
        paths = [tmp_path / f"{tag}{i}.sfci" for i in range(2)]
        for image, path in zip(images, paths):
            export_raw(image, path)
        back = [import_raw(path) for path in paths]
        mixed, _ = mixup(back[0], back[1], MixupParams(), lam=0.375)
        export_raw(mixed, tmp_path / f"{tag}m.sfci")
        decoded = [decode(image).samples.tobytes() for image in back + [mixed]]
        written = [p.read_bytes() for p in paths + [tmp_path / f"{tag}m.sfci"]]
        return decoded, written

    want = run("with_tables")

    def no_tables(kind, order):
        raise AssertionError(f"built a {kind.name} table at order {order}")

    get_curve.cache_clear()
    monkeypatch.setattr(curves, "build_curve", no_tables)
    assert run("without_tables") == want


@pytest.mark.parametrize("make", [
    lambda: AudioClip(np.zeros(4)),
    lambda: SfcImage(CurveKind.Z, 1, 4, np.zeros(4)),
    lambda: Kernel(order=1, weights=np.zeros((2, 2))),
    lambda: curves.build_curve(CurveKind.Z, 2),
], ids=["AudioClip", "SfcImage", "Kernel", "CurveMap"])
def test_array_holders_compare_and_hash_by_identity(make):
    """Equal arrays have no single truth value, so these types are equal only to themselves."""
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


# --- mixup ----------------------------------------------------------------------

def test_mixup_explicit_lambda_is_linear():
    a, _ = make_image(seed=1)
    b, _ = make_image(seed=2)
    mixed, lam = mixup(a, b, MixupParams(), lam=0.25)
    assert lam == 0.25
    assert np.array_equal(mixed.pixels, 0.25 * a.pixels + 0.75 * b.pixels)
    assert (mixed.kind, mixed.order, mixed.length) == (a.kind, a.order, a.length)


def test_mixup_bytes_match_the_formula():
    a, _ = make_image(seed=5)
    b, _ = make_image(seed=6)
    for lam in [0.0, 1.0, 0.5, 1 / 3, *np.random.default_rng(7).uniform(0, 1, 20)]:
        mixed, _ = mixup(a, b, MixupParams(), lam=lam)
        want = lam * a.samples + (1 - lam) * b.samples
        assert mixed.samples.tobytes() == want.tobytes()
        assert not mixed.samples.flags.writeable


def test_mixup_endpoint_lambdas():
    a, _ = make_image(seed=3)
    b, _ = make_image(seed=4)
    assert np.array_equal(mixup(a, b, MixupParams(), lam=1.0)[0].pixels, a.pixels)
    assert np.array_equal(mixup(a, b, MixupParams(), lam=0.0)[0].pixels, b.pixels)


def test_mixup_of_opposites_cancels():
    samples = np.random.default_rng(8).uniform(-1, 1, 40)
    a = encode(AudioClip(samples), CurveKind.H, 3)
    b = encode(AudioClip(-samples), CurveKind.H, 3)
    mixed, _ = mixup(a, b, MixupParams(), lam=0.5)
    assert not mixed.pixels.any()


def test_mixup_lambda_distribution_is_u_shaped():
    draws = draw_mixup_lambdas(0.2, rng_seed=0, count=20_000)
    ends = float(np.mean((draws < 0.1) | (draws > 0.9)))
    middle = float(np.mean((draws > 0.4) & (draws < 0.6)))
    assert ends > 0.5 > middle


def test_mixup_seeded_draw_is_deterministic():
    a, _ = make_image(seed=5)
    b, _ = make_image(seed=6)
    params = MixupParams(alpha=0.2, rng_seed=123)
    m1, l1 = mixup(a, b, params)
    m2, l2 = mixup(a, b, params)
    assert l1 == l2 and 0.0 <= l1 <= 1.0
    assert np.array_equal(m1.pixels, m2.pixels)
    assert l1 == draw_mixup_lambdas(0.2, 123)[0]


def test_mixup_rejects_mismatched_inputs():
    a, _ = make_image(kind=CurveKind.Z, order=3)
    for other in (
        make_image(kind=CurveKind.HILBERT, order=3)[0],
        make_image(kind=CurveKind.Z, order=4)[0],
        make_image(kind=CurveKind.Z, order=3, length=10)[0],
    ):
        with pytest.raises(ValueError, match="disagree"):
            mixup(a, other, MixupParams())


def test_mixup_params_validation():
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            MixupParams(alpha=alpha)


@pytest.mark.parametrize("lam", [np.nan, -0.25, 1.5, np.inf])
def test_mixup_rejects_a_weight_outside_the_unit_interval(lam):
    a, _ = make_image(seed=1)
    b, _ = make_image(seed=2)
    with pytest.raises(ValueError, match="lam"):
        mixup(a, b, MixupParams(), lam=lam)


def test_draw_mixup_lambdas_batch():
    draws = draw_mixup_lambdas(0.2, 7, count=1000)
    assert draws.shape == (1000,)
    assert ((draws >= 0) & (draws <= 1)).all()
    assert np.array_equal(draws, draw_mixup_lambdas(0.2, 7, count=1000))


# --- pgm export -----------------------------------------------------------------

def test_pgm_header_and_size(tmp_path):
    image, _ = make_image(order=3)
    path = tmp_path / "i.pgm"
    export_pgm(image, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n65535\n")
    assert len(data) == len(b"P5\n8 8\n65535\n") + 2 * 64


def test_pgm_value_mapping(tmp_path):
    # Z at order 1 visits pixels [0, 0], [1, 0], [0, 1], [1, 1] (indexed [y, x])
    samples = np.zeros(4)
    samples[0] = -1.0   # pixel [0, 0]: floor of the range
    samples[2] = 1.0    # pixel [0, 1]: ceiling
    samples[1] = 1.5    # pixel [1, 0]: out of range, clamps
    image = SfcImage(CurveKind.Z, 1, 4, samples)
    path = tmp_path / "v.pgm"
    export_pgm(image, path)
    gray = np.frombuffer(path.read_bytes()[-8:], dtype=">u2").reshape(2, 2)
    assert gray[0, 0] == 0
    assert gray[0, 1] == 65535
    assert gray[1, 0] == 65535
    assert gray[1, 1] == 32768  # midpoint of an even-sized range rounds up


# --- writers ---------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", range(1, 7))
def test_writers_match_a_joined_write(tmp_path, kind, order):
    a, b = (make_image(kind, order, length=4**order - 1, seed=s)[0] for s in (order, order + 9))
    image = mixup(a, b, MixupParams(), lam=0.3)[0]  # real values in the float32 payload
    export_raw(image, tmp_path / "i.sfci")
    export_pgm(image, tmp_path / "i.pgm")
    raw = RAW_HEADER.pack(RAW_MAGIC, 1, int(kind), order, 0, image.length)
    raw += image.samples.astype("<f4").tobytes()
    gray = np.clip(np.rint((image.pixels + 1.0) / 2.0 * 65535.0), 0, 65535).astype(">u2")
    pgm = f"P5\n{image.n} {image.n}\n65535\n".encode("ascii") + gray.tobytes()
    assert (tmp_path / "i.sfci").read_bytes() == raw
    assert (tmp_path / "i.pgm").read_bytes() == pgm


def test_export_pgm_memory_is_bounded_by_the_grid(tmp_path):
    image = encode(AudioClip(np.random.default_rng(6).uniform(-1.1, 1.1, 1 << 20)), CurveKind.HILBERT, 10)
    grid = image.pixels.nbytes  # scattered outside the trace
    tracemalloc.start()
    try:
        export_pgm(image, tmp_path / "m.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 copy and the uint16 output; two grid-sized temporaries took 2.25x
    assert peak < 1.5 * grid, f"peak {peak / 2**20:.1f} MiB"
    gray = np.clip(np.rint((image.pixels + 1.0) / 2.0 * 65535.0), 0, 65535).astype(">u2")
    assert (tmp_path / "m.pgm").read_bytes() == b"P5\n1024 1024\n65535\n" + gray.tobytes()


def test_export_raw_memory_is_bounded_by_the_payload(tmp_path):
    image = encode(AudioClip(np.random.default_rng(4).uniform(-1, 1, 1 << 20)), CurveKind.Z, 10)
    payload = 4 * image.samples.size
    tracemalloc.start()
    try:
        export_raw(image, tmp_path / "m.sfci")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 payload once; tobytes() and a joined header + payload took 3x
    assert peak < 1.5 * payload, f"peak {peak / 2**20:.1f} MiB"


# --- raw export / import ---------------------------------------------------------

def test_import_raw_memory_is_one_float64_array(tmp_path):
    image = encode(AudioClip(np.random.default_rng(5).uniform(-1, 1, 1 << 20)), CurveKind.Z, 10)
    export_raw(image, tmp_path / "m.sfci")
    tracemalloc.start()
    try:
        back = import_raw(tmp_path / "m.sfci")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 samples and one block buffer; the file's bytes, a full mask and the
    # widened copy took about 13 MiB
    limit = back.samples.nbytes + (1 << 20)
    assert peak < limit, f"peak {peak / 2**20:.1f} MiB"
    assert np.array_equal(back.samples, image.samples.astype(np.float32))


@pytest.mark.parametrize("value", [1e39, -1e39, 1e300])
def test_export_raw_rejects_samples_beyond_float32(tmp_path, value):
    image = encode(AudioClip(np.array([0.5, 3e38, value, value])), CurveKind.Z, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "overflow encountered in cast"
        with pytest.raises(ValueError, match=re.escape(f"sample {value} at index 2 is outside the float32 range")):
            export_raw(image, tmp_path / "big.sfci")
    assert not (tmp_path / "big.sfci").exists()


def test_export_raw_keeps_the_largest_float32(tmp_path):
    top = float(np.finfo(np.float32).max)
    image = encode(AudioClip(np.array([top, -top, 0.5])), CurveKind.Z, 2)
    export_raw(image, tmp_path / "top.sfci")
    assert np.array_equal(import_raw(tmp_path / "top.sfci").samples, image.samples)


def test_raw_roundtrip_every_kind(tmp_path, pcm16_grid_rng):
    rng = np.random.default_rng(21)
    for kind in ALL_KINDS:
        image = encode(AudioClip(pcm16_grid_rng(rng, 50)), kind, 3)
        path = tmp_path / f"{kind.name}.sfci"
        export_raw(image, path)
        back = import_raw(path)
        assert (back.kind, back.order, back.length) == (image.kind, image.order, image.length)
        assert np.array_equal(back.pixels, image.pixels)


def test_raw_file_layout(tmp_path):
    image = encode(AudioClip(np.array([0.5, -0.5])), CurveKind.GRAY, 2)
    path = tmp_path / "l.sfci"
    export_raw(image, path)
    data = path.read_bytes()
    assert len(data) == RAW_HEADER_SIZE + 4 * 16
    assert data[:4] == RAW_MAGIC
    assert data[4] == 1                      # version
    assert data[5] == int(CurveKind.GRAY)    # curve id
    assert data[6] == 2                      # order
    assert data[7] == 0                      # reserved
    assert int.from_bytes(data[8:12], "little") == 2
    seq = np.frombuffer(data, dtype="<f4", offset=RAW_HEADER_SIZE)
    assert seq[0] == 0.5 and seq[1] == -0.5 and not seq[2:].any()


def test_raw_size_formula(tmp_path):
    for order in (1, 3, 5):
        image = encode(AudioClip(np.zeros(1)), CurveKind.Z, order)
        path = tmp_path / f"s{order}.sfci"
        export_raw(image, path)
        assert path.stat().st_size == 12 + 4 * (4**order)


def _valid_raw_bytes(order=2):
    image = encode(AudioClip(np.arange(5) / 10.0), CurveKind.HILBERT, order)
    import io, tempfile, os
    fd, path = tempfile.mkstemp(suffix=".sfci")
    os.close(fd)
    try:
        export_raw(image, path)
        with open(path, "rb") as fh:
            return bytearray(fh.read())
    finally:
        os.unlink(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_raw_rejects_non_finite_samples(tmp_path, value):
    data = _valid_raw_bytes()
    data[RAW_HEADER_SIZE + 4 * 9 : RAW_HEADER_SIZE + 4 * 10] = np.array([value], "<f4").tobytes()
    path = tmp_path / "bad.sfci"
    path.write_bytes(bytes(data))
    with pytest.raises(RawFormatError, match=f"non-finite sample {np.float32(value)} at index 9") as info:
        import_raw(path)
    assert info.value.offset == RAW_HEADER_SIZE + 4 * 9


@pytest.mark.parametrize("mutate,offset,match", [
    (lambda d: d[:6], 0, "header"),
    (lambda d: d[:0] + b"JUNK" + d[4:], 0, "magic"),
    (lambda d: d[:4] + b"\x09" + d[5:], 4, "version"),
    (lambda d: d[:5] + b"\xff" + d[6:], 5, "curve id"),
    (lambda d: d[:6] + b"\x00" + d[7:], 6, "order"),
    (lambda d: d[:6] + b"\x0e" + d[7:], 6, "order"),
    (lambda d: d[:7] + b"\x01" + d[8:], 7, "reserved"),
    (lambda d: d[:8] + (999).to_bytes(4, "little") + d[12:], 8, "length"),
    (lambda d: d[:-4], 12, "payload"),
    (lambda d: d + b"\x00\x00\x00\x00", 12, "payload"),
    # the exact size messages; an order-2 file has 16 cells, 64 payload bytes
    (lambda d: d[:0], 0, "header needs 12 bytes, file has 0"),
    (lambda d: d[:11], 0, "header needs 12 bytes, file has 11"),
    (lambda d: d[:12], 12, "payload of 64 bytes expected, got 0"),  # header only
    (lambda d: d[:-1], 12, "payload of 64 bytes expected, got 63"),
    (lambda d: d + b"\x00", 12, "payload of 64 bytes expected, got 65"),
    (lambda d: d + b"\x00" * 4, 12, "payload of 64 bytes expected, got 68"),
])
def test_raw_rejects_malformed(tmp_path, mutate, offset, match):
    data = mutate(_valid_raw_bytes())
    path = tmp_path / "bad.sfci"
    path.write_bytes(bytes(data))
    with pytest.raises(RawFormatError, match=match) as info:
        import_raw(path)
    assert info.value.offset == offset
    assert f"byte offset {offset}" in str(info.value)


def test_raw_file_that_shrinks_while_read_is_rejected(tmp_path, monkeypatch):
    path = tmp_path / "short.sfci"
    path.write_bytes(bytes(_valid_raw_bytes())[:-1])
    real_fstat = os.fstat
    # the size seen before the payload is read is the full one
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 1))
    with pytest.raises(RawFormatError, match="payload of 64 bytes expected, got 63") as info:
        import_raw(path)
    assert info.value.offset == RAW_HEADER_SIZE
