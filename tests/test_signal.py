"""Clip loading, quantization, centering, and random shifting."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcaudio.signal import (
    AudioClip,
    CenterParams,
    ShiftParams,
    WavChannelError,
    WavEncodingError,
    WavError,
    WavFormatError,
    WavSampleRateError,
    WavTruncatedError,
    _window_energies,
    center,
    load_wav,
    random_shift,
    save_wav,
    translate,
)


def energy_midpoint(samples):
    e = samples * samples
    total = e.sum()
    return float((np.arange(len(samples)) * e).sum() / total) if total else None


# --- wav loading ---------------------------------------------------------------

def test_pcm16_scaling(wav_factory):
    payload = struct.pack("<3h", -32768, 16384, 0)
    clip = load_wav(wav_factory(payload=payload))
    assert clip.samples.tolist() == [-1.0, 0.5, 0.0]
    assert clip.sample_rate == 16000


def test_silence_second(wav_factory):
    clip = load_wav(wav_factory(payload=b"\x00" * 32000))
    assert clip.length == 16000
    assert not clip.samples.any()


def test_short_clip_accepted(wav_factory):
    clip = load_wav(wav_factory(payload=b"\x00" * (15872 * 2)))
    assert clip.length == 15872


def test_float32_passthrough(wav_factory):
    values = np.array([0.25, -0.75, 1.5], dtype="<f4")  # no clamping on float data
    clip = load_wav(wav_factory(audio_format=3, bits=32, payload=values.tobytes()))
    assert clip.samples.tolist() == values.astype(np.float64).tolist()


def test_wrong_rate_rejected(wav_factory):
    with pytest.raises(WavSampleRateError, match="8000"):
        load_wav(wav_factory(rate=8000, payload=b"\x00\x00"))


def test_stereo_rejected(wav_factory):
    with pytest.raises(WavChannelError, match="2 channels"):
        load_wav(wav_factory(channels=2, payload=b"\x00" * 4))


@pytest.mark.parametrize("kwargs", [
    dict(audio_format=6, bits=8),    # a-law
    dict(audio_format=1, bits=8),    # PCM8
    dict(audio_format=3, bits=64),   # double float
    dict(sub_format=6, bits=8),      # extensible, a-law
    dict(sub_format=1, bits=24),     # extensible, PCM24
    dict(sub_format=3, bits=64),     # extensible, double float
    dict(sub_format=bytes(range(16)), bits=16),  # not a KSDATAFORMAT GUID
])
def test_unsupported_encoding_rejected(wav_factory, kwargs):
    with pytest.raises(WavEncodingError):
        load_wav(wav_factory(payload=b"\x00" * 8, **kwargs))


@pytest.mark.parametrize("sub_format, bits, dtype", [
    (1, 16, "<i2"),   # KSDATAFORMAT_SUBTYPE_PCM
    (3, 32, "<f4"),   # KSDATAFORMAT_SUBTYPE_IEEE_FLOAT
])
def test_extensible_accepted(wav_factory, sub_format, bits, dtype):
    payload = np.array([-16384, 0, 8192], dtype=dtype).tobytes()
    plain = load_wav(wav_factory("plain.wav", audio_format=sub_format, bits=bits, payload=payload))
    ext = load_wav(wav_factory("ext.wav", sub_format=sub_format, bits=bits, payload=payload))
    assert np.array_equal(ext.samples, plain.samples)
    assert ext.samples.any()


def test_extensible_short_fmt_rejected(wav_factory):
    # tag 0xFFFE with a plain 16-byte fmt chunk has no sub-format to read
    with pytest.raises(WavFormatError, match="extensible"):
        load_wav(wav_factory(audio_format=0xFFFE, payload=b"\x00" * 8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_float_rejected(wav_factory, bad):
    values = np.array([0.25, -0.5, 0.0, bad, bad], dtype="<f4")
    with pytest.raises(WavEncodingError, match="index 3"):
        load_wav(wav_factory(audio_format=3, bits=32, payload=values.tobytes()))


def test_truncated_data_rejected(wav_factory):
    # data chunk declares more bytes than the file holds
    with pytest.raises(WavTruncatedError, match="declares"):
        load_wav(wav_factory(payload=b"\x00\x00", data_size=4096))


def test_odd_pcm_payload_rejected(wav_factory):
    with pytest.raises(WavTruncatedError, match="odd"):
        load_wav(wav_factory(payload=b"\x00" * 3))


def test_float32_payload_not_a_multiple_of_4_rejected(wav_factory):
    with pytest.raises(WavTruncatedError, match="not a multiple of 4"):
        load_wav(wav_factory(audio_format=3, bits=32, payload=bytes(6)))


def test_short_fmt_chunk_rejected(tmp_path):
    # a 14-byte fmt chunk lacks the bits-per-sample field
    chunks = b"fmt " + struct.pack("<I", 14) + bytes(14) + b"data" + struct.pack("<I", 2) + bytes(2)
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    with pytest.raises(WavFormatError, match="fmt chunk too short"):
        load_wav(path)


def test_non_riff_rejected(wav_factory, tmp_path):
    with pytest.raises(WavFormatError, match="RIFF"):
        load_wav(wav_factory(magic=b"FORM"))
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"\x01\x02")
    with pytest.raises(WavFormatError):
        load_wav(junk)


def test_missing_chunks_rejected(wav_factory):
    with pytest.raises(WavFormatError, match="fmt"):
        load_wav(wav_factory(drop_fmt=True, payload=b"\x00\x00"))
    with pytest.raises(WavFormatError, match="data"):
        load_wav(wav_factory(drop_data=True))


def test_error_hierarchy():
    for exc in (WavFormatError, WavTruncatedError, WavSampleRateError,
                WavChannelError, WavEncodingError):
        assert issubclass(exc, WavError)
        assert issubclass(exc, ValueError)


# --- wav saving ----------------------------------------------------------------

def test_save_rounds_half_away_from_zero(tmp_path):
    clip = AudioClip(np.array([0.0, 1.0, -1.0, 100.5 / 32768.0, -100.5 / 32768.0]))
    path = tmp_path / "q.wav"
    save_wav(clip, path)
    raw = np.frombuffer(path.read_bytes()[-10:], dtype="<i2")
    assert raw.tolist() == [0, 32767, -32768, 101, -101]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_quantization_bound(seed):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=200)
    clip = AudioClip(samples)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".wav")
    os.close(fd)
    try:
        save_wav(clip, path)
        back = load_wav(path)
    finally:
        os.unlink(path)
    assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768.0


def test_exact_roundtrip_on_pcm_grid(tmp_path, pcm16_grid_rng):
    samples = pcm16_grid_rng(np.random.default_rng(3), 500)
    path = tmp_path / "g.wav"
    save_wav(AudioClip(samples), path)
    assert np.array_equal(load_wav(path).samples, samples)


def reference_wav_bytes(clip):
    """The whole file as the earlier quantiser and single joined write made it."""
    v = clip.samples * 32768.0
    q = np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5))
    body = np.clip(q, -32768, 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16,
        b"data", len(body),
    )
    return header + body


def quantiser_edge_cases():
    k = np.array([0, 1, 2, 3, 100, 1000, 16383, 32766, 32767, 32768], dtype=np.float64)
    ties = np.concatenate([(k + 0.5) / 32768.0, -(k + 0.5) / 32768.0])
    near = np.concatenate([np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
                        32767.5 / 32768, -32767.5 / 32768, 32768.5 / 32768, -32768.5 / 32768,
                        1.0000001, -1.0000001, 1.5, -1.5, 7.0, -7.0, 1e300, -1e300])
    return np.concatenate([ties, near, special])


@pytest.mark.parametrize("case", ["edges", "uniform"])
def test_save_matches_reference_quantiser_byte_for_byte(tmp_path, case):
    if case == "edges":
        samples = quantiser_edge_cases()
    else:
        samples = np.random.default_rng(11).uniform(-1.2, 1.2, size=10**6)
    clip = AudioClip(samples)
    path = tmp_path / "q.wav"
    save_wav(clip, path)
    assert path.read_bytes() == reference_wav_bytes(clip)


def test_save_memory_is_bounded_by_the_clip(tmp_path):
    clip = AudioClip(np.random.default_rng(5).uniform(-1.0, 1.0, size=1 << 20))
    tracemalloc.start()
    try:
        save_wav(clip, tmp_path / "m.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int16 output and block-sized temporaries; a whole-clip scaled copy took 2x
    assert peak < 0.5 * clip.samples.nbytes + (2 << 20), f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("fmt, dtype, ext", [
    (1, "<i2", False), (3, "<f4", False), (1, "<i2", True), (3, "<f4", True),
])
def test_load_values_match_a_copying_reader(wav_factory, fmt, dtype, ext):
    rng = np.random.default_rng(fmt)
    if dtype == "<i2":
        payload = rng.integers(-32768, 32768, size=4099).astype(dtype).tobytes()
        want = np.frombuffer(bytes(payload), dtype=dtype).astype(np.float64) / 32768.0
    else:
        payload = rng.uniform(-1.0, 1.0, size=4099).astype(dtype).tobytes()
        want = np.frombuffer(bytes(payload), dtype=dtype).astype(np.float64)
    bits = 8 * np.dtype(dtype).itemsize
    kwargs = {"sub_format": fmt} if ext else {"audio_format": fmt}
    clip = load_wav(wav_factory(bits=bits, payload=payload, **kwargs))
    assert clip.samples.dtype == np.float64
    assert np.array_equal(clip.samples, want)
    assert np.signbit(clip.samples).tolist() == np.signbit(want).tolist()


# --- clip type ------------------------------------------------------------------

def test_clip_validation():
    with pytest.raises(ValueError, match="1-D"):
        AudioClip(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="rate"):
        AudioClip(np.zeros(4), sample_rate=0)
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros(10)
        samples[[6, 8]] = bad
        with pytest.raises(ValueError, match=f"non-finite sample {bad} at index 6"):
            AudioClip(samples)


def test_clip_samples_immutable():
    clip = AudioClip(np.zeros(4))
    with pytest.raises(ValueError):
        clip.samples[0] = 1.0
    # the public constructor copies: changing the caller's array leaves the clip alone
    arr = np.arange(4.0)
    clip = AudioClip(arr)
    arr[0] = 9.0
    assert clip.samples[0] == 0.0 and not np.shares_memory(clip.samples, arr)


def test_load_memory_is_one_float64_array(tmp_path):
    n = 1 << 20
    path = tmp_path / "m.wav"
    save_wav(AudioClip(np.random.default_rng(6).uniform(-1.0, 1.0, size=n)), path)
    tracemalloc.start()
    try:
        clip = load_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes and the scaled float64 samples, which are not scanned; a copy into
    # the clip took one more float64 array
    limit = path.stat().st_size + n * 8 + (1 << 20)
    assert clip.length == n and peak < limit, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_loaded_clip_is_read_only(wav_factory, fmt):
    values = np.random.default_rng(8).uniform(-0.5, 0.5, size=4000)
    if fmt == "pcm16":
        path = wav_factory(payload=np.round(values * 32768).astype("<i2").tobytes())
    else:
        path = wav_factory(audio_format=3, bits=32, payload=values.astype("<f4").tobytes())
    clip = load_wav(path)
    with pytest.raises(ValueError):
        clip.samples[0] = 1.0


@pytest.mark.parametrize("step", ["center", "random_shift"])
def test_translated_clip_is_frozen_not_copied(monkeypatch, step):
    made = []

    def recording_translate(samples, offset):
        made.append(translate(samples, offset))
        return made[-1]

    monkeypatch.setattr("sfcaudio.signal.translate", recording_translate)
    s = np.zeros(4000)
    s[100:200] = 0.5
    if step == "center":
        out = center(AudioClip(s))
    else:
        out = random_shift(AudioClip(s), ShiftParams(max_shift=1000, rng_seed=3))
    assert len(made) == 1 and np.shares_memory(out.samples, made[0])
    assert not out.samples.flags.writeable and not made[0].flags.writeable


# --- translation -----------------------------------------------------------------

def test_translate_moves_and_zero_fills():
    s = np.zeros(10)
    s[4] = 1.0
    assert translate(s, 3)[7] == 1.0
    assert translate(s, -4)[0] == 1.0
    assert translate(s, 3).sum() == 1.0
    assert not translate(s, 7).any()       # pushed off the end
    assert not translate(s, 100).any()     # shift beyond length


# --- centering -------------------------------------------------------------------

def loop_window_energies(samples, params):
    """Reference: one Gaussian-weighted energy per window, window by window."""
    n = samples.shape[0]
    energies = []
    spans = []
    for a in range(0, n, params.w):
        b = min(a + params.w, n)
        t = np.arange(a, b, dtype=np.float64)
        c = (a + b - 1) / 2.0
        g = np.exp(-((t - c) ** 2) / (2.0 * params.sigma**2))
        seg = samples[a:b]
        energies.append(float(np.sum(g * seg * seg) / np.sum(g)))
        spans.append((a, b))
    return np.array(energies), spans


def loop_center(samples, params):
    """Reference :func:`center` built on :func:`loop_window_energies`."""
    energies, spans = loop_window_energies(samples, params)
    active = np.flatnonzero(energies >= params.th)
    if active.size == 0:
        return samples
    start, end = spans[active[0]][0], spans[active[-1]][1]
    return translate(samples, round(len(samples) / 2 - (start + end) / 2))


@pytest.mark.parametrize("n, w, sigma, source", [
    (16000, 100, 25.0, "pcm"),      # the CLI defaults on a 1-s clip
    (16000, 100, 25.0, "nan"),
    (350, 100, 25.0, "pcm"),        # 50-sample tail window
    (16001, 100, 25.0, "normal"),   # 1-sample tail window
    (4097, 600, 200.0, "nan"),      # NaN in the tail window
    (777, 777, 3.0, "pcm"),         # w == n: one window
    (500, 1, 0.5, "normal"),        # w == 1: one sample per window
    (1, 1, 25.0, "pcm"),
    (39999, 333, 0.5, "pcm"),       # narrow weights, many underflow to 0
    (12345, 7, 80.0, "normal"),     # w below numpy's 8-way unrolled sum
    (20000, 257, 64.0, "normal"),   # w above numpy's 128-element sum blocks
])
def test_center_matches_loop_reference(n, w, sigma, source):
    # a quiet floor with one loud burst in the first half, so centering moves it
    rng = np.random.default_rng([n, w])
    a = n // 5
    b = a + max(1, n // 4)
    if source == "normal":
        samples = rng.normal(0.0, 0.003, n)
        samples[a:b] = rng.normal(0.0, 0.5, b - a)
    else:  # on the int16/32768 grid
        samples = rng.integers(-32, 33, n) / 32768.0
        samples[a:b] = rng.integers(-32768, 32768, b - a) / 32768.0
    if source == "nan":
        samples[[n // 3, n - 1]] = np.nan  # the last sample sits in the last window
    params = CenterParams(w=w, sigma=sigma)
    expected, _ = loop_window_energies(samples, params)
    # exact: the windows are summed in the same order, so no tolerance
    assert np.array_equal(_window_energies(samples, params), expected, equal_nan=True)
    if source == "nan":  # no clip can carry them to center
        with pytest.raises(ValueError, match=f"non-finite sample nan at index {n // 3}"):
            AudioClip(samples)
        return
    assert np.array_equal(center(AudioClip(samples), params).samples, loop_center(samples, params))


def test_center_impulse_burst():
    s = np.zeros(16000)
    s[:2000] = 1.0
    out = center(AudioClip(s))
    mid = energy_midpoint(out.samples)
    assert abs(mid - 8000) <= 100
    # the burst moved as a block: 2000 ones now sitting around the middle
    nz = np.flatnonzero(out.samples)
    assert nz.size == 2000 and nz[0] == 7000 and nz[-1] == 8999
    assert out.length == 16000


def test_center_all_zero_is_fixed_point():
    clip = AudioClip(np.zeros(16000))
    assert np.array_equal(center(clip).samples, clip.samples)


def test_center_centered_input_is_fixed_point():
    s = np.zeros(16000)
    s[7000:9000] = 0.5
    clip = AudioClip(s)
    assert np.array_equal(center(clip).samples, clip.samples)


def test_center_quiet_clip_below_threshold_unchanged():
    s = np.full(16000, 1e-4)  # energy 1e-8, far below the 1e-4 threshold
    clip = AudioClip(s)
    assert np.array_equal(center(clip).samples, clip.samples)


def test_center_idempotent_within_window():
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = np.zeros(16000)
        a = int(rng.integers(0, 12000))
        s[a : a + 3000] = rng.uniform(-1, 1, 3000)
        once = center(AudioClip(s))
        twice = center(once)
        assert abs(energy_midpoint(twice.samples) - energy_midpoint(once.samples)) < 100


def test_center_never_increases_energy():
    rng = np.random.default_rng(10)
    for _ in range(5):
        s = np.zeros(4000)
        a = int(rng.integers(0, 3500))
        s[a : a + 400] = rng.uniform(-1, 1, 400)
        clip = AudioClip(s)
        assert (center(clip).samples ** 2).sum() <= (s**2).sum() + 1e-12


def test_center_partial_last_window():
    # 350 samples with w=100 leaves a 50-sample final window; must not crash
    s = np.zeros(350)
    s[300:] = 1.0
    out = center(AudioClip(s), CenterParams())
    assert out.length == 350 and out.samples.any()


def test_center_window_longer_than_clip_rejected():
    with pytest.raises(ValueError, match="window"):
        center(AudioClip(np.zeros(50)), CenterParams(w=100))


def test_center_params_validation():
    for kwargs in (dict(w=0), dict(sigma=0), dict(th=-1e-9), dict(sigma=np.nan), dict(sigma=np.inf),
                   dict(th=np.nan), dict(th=np.inf)):
        with pytest.raises(ValueError):
            CenterParams(**kwargs)


# --- random shifting ----------------------------------------------------------------

def test_random_shift_deterministic():
    clip = AudioClip(np.sin(np.linspace(0, 20, 4000)))
    p = ShiftParams(max_shift=1000, rng_seed=77)
    assert np.array_equal(random_shift(clip, p).samples, random_shift(clip, p).samples)


def test_random_shift_zero_is_identity():
    clip = AudioClip(np.arange(10.0))
    assert np.array_equal(random_shift(clip, ShiftParams(0, 1)).samples, clip.samples)


def test_random_shift_moves_impulse_within_bound():
    s = np.zeros(8000)
    s[4000] = 1.0
    seen = set()
    for seed in range(40):
        out = random_shift(AudioClip(s), ShiftParams(max_shift=500, rng_seed=seed))
        pos = int(np.flatnonzero(out.samples)[0])
        assert abs(pos - 4000) <= 500
        seen.add(pos)
    assert len(seen) > 10  # different seeds produce different draws


def test_random_shift_validation():
    with pytest.raises(ValueError):
        ShiftParams(max_shift=-1)
    with pytest.raises(ValueError, match="half"):
        random_shift(AudioClip(np.zeros(10)), ShiftParams(max_shift=6))
