"""Seeded benchmark inputs. The same seed always gives the same bytes.

Only the generated files (or sample arrays) reach the program under test;
generation time is kept out of every metric by the callers.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000

SPEECH_CLIPS = 2000
FLOAT32_SHARE = 0.1
# Invalid-file classes whose handling is settled, with the WavError subclass
# each must raise. NaN samples and WAVE_FORMAT_EXTENSIBLE headers are left
# out on purpose: their handling is due to change.
INVALID_CLASSES = {
    "rate_8k": "WavSampleRateError",
    "stereo": "WavChannelError",
    "pcm8": "WavEncodingError",
    "truncated": "WavTruncatedError",
    "not_riff": "WavFormatError",
}
INVALID_PER_CLASS = 4  # 20 of 2000 files, a fixed 1%

LONG_CLIPS = 128
LONG_ORDER = 10
LONG_MAX = 1 << (2 * LONG_ORDER)  # 4^10 samples, about 65.5 s at 16 kHz
LONG_MIN = 3 * LONG_MAX // 4


def wav_bytes(payload: bytes, *, fmt_tag=1, channels=1, rate=SAMPLE_RATE, bits=16,
              data_size=None) -> bytes:
    """A canonical 44-byte RIFF/WAVE header followed by ``payload``."""
    block = channels * bits // 8
    declared = len(payload) if data_size is None else data_size
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_tag, channels, rate, rate * block, block, bits,
        b"data", declared,
    )
    return header + payload


def speech_samples(rng: np.random.Generator, n: int = SAMPLE_RATE) -> np.ndarray:
    """A 1-s clip: a low noise floor plus one enveloped harmonic burst."""
    x = rng.normal(0.0, rng.uniform(0.0005, 0.003), n)
    burst = int(rng.integers(n // 10, n // 2))
    start = int(rng.integers(0, n - burst))
    t = np.arange(burst) / SAMPLE_RATE
    f0 = rng.uniform(90.0, 250.0)
    tone = np.zeros(burst)
    for h in range(1, 7):
        tone += rng.uniform(0.2, 1.0) / h * np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi))
    tone *= rng.uniform(0.1, 0.6) / np.max(np.abs(tone))
    x[start : start + burst] += np.hanning(burst) * tone
    return np.clip(x, -1.0, 32767 / 32768)


def pcm16(samples: np.ndarray) -> np.ndarray:
    """Quantize to the int16 grid (the values load_wav returns for PCM16)."""
    return np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")


def _invalid_file(kind: str, rng: np.random.Generator) -> bytes:
    if kind == "rate_8k":
        return wav_bytes(pcm16(speech_samples(rng, 8000)).tobytes(), rate=8000)
    if kind == "stereo":
        both = np.stack([speech_samples(rng), speech_samples(rng)], axis=1)
        return wav_bytes(pcm16(both).tobytes(), channels=2)
    if kind == "pcm8":
        u8 = np.clip(np.round(speech_samples(rng) * 127.0) + 128, 0, 255).astype(np.uint8)
        return wav_bytes(u8.tobytes(), bits=8)
    if kind == "truncated":
        body = pcm16(speech_samples(rng)).tobytes()
        return wav_bytes(body[: len(body) // 2], data_size=len(body))
    if kind == "not_riff":
        return b"OggS" + rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    raise ValueError(kind)


def write_speech_corpus(directory: Path, seed: int, count: int = SPEECH_CLIPS,
                        invalid: bool = True) -> list[dict]:
    """Write ``count`` WAV files; return one entry per file, in CLI order.

    Each entry holds ``name``, ``kind`` ("pcm16", "float32" or an invalid
    class) and, for valid files, the stored ``data`` (int16 or float32);
    :func:`expected_samples` turns it into what load_wav must return.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    bad = rng.choice(count, size=len(INVALID_CLASSES) * INVALID_PER_CLASS, replace=False) if invalid else []
    kinds = ["float32" if f else "pcm16" for f in rng.random(count) < FLOAT32_SHARE]
    for j, index in enumerate(bad):
        kinds[index] = list(INVALID_CLASSES)[j % len(INVALID_CLASSES)]

    entries = []
    for i, kind in enumerate(kinds):
        clip_rng = np.random.default_rng([seed, 1, i])
        name = f"clip_{i:04d}.wav"
        stored = None
        if kind == "pcm16":
            stored = pcm16(speech_samples(clip_rng))
            data = wav_bytes(stored.tobytes())
        elif kind == "float32":
            stored = speech_samples(clip_rng).astype("<f4")
            data = wav_bytes(stored.tobytes(), fmt_tag=3, bits=32)
        else:
            data = _invalid_file(kind, clip_rng)
        (directory / name).write_bytes(data)
        entries.append({"name": name, "kind": kind, "data": stored})
    return entries


def expected_samples(entry: dict) -> np.ndarray:
    """The float64 samples load_wav must return for a valid corpus entry."""
    if entry["kind"] == "pcm16":
        return entry["data"].astype(np.float64) / 32768.0
    return entry["data"].astype(np.float64)


def long_clip(seed: int, index: int) -> np.ndarray:
    """Clip ``index`` of the long-roundtrip set: 49-65 s on the int16/32768 grid."""
    rng = np.random.default_rng([seed, 2, index])
    n = int(rng.integers(LONG_MIN, LONG_MAX + 1))
    # scatter, gather and file I/O cost the same for any values, so plain
    # int16-grid noise stands in for audio here
    return rng.integers(-12000, 12001, n).astype(np.float64) / 32768.0
