"""Reference implementations the correctness checks compare against.

They restate the documented behaviour in plain loops and read the file
formats byte by byte, independently of sfcaudio, so a faster program
that changes an output fails the benchmark instead of scoring a gain.
"""

from __future__ import annotations

import struct

import numpy as np

SFCI_HEADER = struct.Struct("<4sBBBBI")
CURVE_IDS = {"hilbert": 0, "z": 1, "gray": 2, "h": 3, "optr": 4, "sweep": 5, "scan": 6, "diagonal": 7}


def translate(samples: np.ndarray, offset: int) -> np.ndarray:
    out = np.zeros_like(samples)
    n = samples.shape[0]
    if abs(offset) >= n:
        return out
    if offset >= 0:
        out[offset:] = samples[: n - offset]
    else:
        out[: n + offset] = samples[-offset:]
    return out


def center(samples: np.ndarray, w: int, sigma: float, th: float) -> np.ndarray:
    """Gaussian-weighted window energies, active span moved to the middle."""
    n = samples.shape[0]
    active = []
    for a in range(0, n, w):
        b = min(a + w, n)
        t = np.arange(a, b, dtype=np.float64)
        c = (a + b - 1) / 2.0
        g = np.exp(-((t - c) ** 2) / (2.0 * sigma**2))
        seg = samples[a:b]
        if float(np.sum(g * seg * seg) / np.sum(g)) >= th:
            active.append((a, b))
    if not active:
        return samples
    offset = round(n / 2 - (active[0][0] + active[-1][1]) / 2)
    return translate(samples, offset) if offset else samples


def random_shift(samples: np.ndarray, max_shift: int, seed: int) -> np.ndarray:
    if max_shift == 0:
        return samples
    offset = int(np.random.default_rng(seed).integers(-max_shift, max_shift + 1))
    return translate(samples, offset)


def read_sfci(data: bytes):
    """(curve id, order, length, float32 payload in curve order)."""
    magic, version, kind, order, reserved, length = SFCI_HEADER.unpack_from(data)
    if (magic, version, reserved) != (b"SFCI", 1, 0):
        raise ValueError("bad .sfci header")
    payload = np.frombuffer(data, dtype="<f4", offset=SFCI_HEADER.size)
    if payload.size != 1 << (2 * order):
        raise ValueError("bad .sfci payload size")
    return kind, order, length, payload


def read_pcm16_wav(data: bytes) -> np.ndarray:
    """Samples of a canonical 44-byte-header mono 16 kHz PCM16 file, as k/32768."""
    fields = struct.unpack_from("<4sI4s4sIHHIIHH4sI", data)
    if fields[0] != b"RIFF" or fields[5:8] != (1, 1, 16000) or fields[10] != 16 or fields[11] != b"data":
        raise ValueError("not a canonical mono 16 kHz PCM16 file")
    if fields[12] != len(data) - 44:
        raise ValueError("data chunk size disagrees with file size")
    return np.frombuffer(data, dtype="<i2", offset=44).astype(np.float64) / 32768.0
