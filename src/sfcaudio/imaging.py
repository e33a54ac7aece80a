"""Waveform-to-image mapping and image serialization.

An image keeps a clip in space-filling-curve order, zero-padded to 4^k
samples, with its original length so decoding is exact; its 2^k x 2^k grid
is scattered only when first read. Mixup blends images with a Beta weight.
Images serialize as 16-bit PGM (lossy) or ".sfci" (lossless, curve order).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import MAX_ORDER, CurveKind, get_curve
from .signal import DEFAULT_SAMPLE_RATE, AudioClip

RAW_MAGIC = b"SFCI"
RAW_VERSION = 1
RAW_HEADER_SIZE = 12
RAW_HEADER = struct.Struct("<4sBBBBI")


class RawFormatError(ValueError):
    """Malformed .sfci input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SfcImage:
    """A clip laid out on a 2^k x 2^k grid, plus the metadata needed to invert it.

    ``samples`` holds 4^k values in curve order, zero-padded past the first
    ``length``; ``pixels[y, x]`` holds the sample whose curve index maps to (x, y).
    """

    kind: CurveKind
    order: int
    length: int
    samples: np.ndarray

    def __post_init__(self):
        seq = np.asarray(self.samples)
        samples = np.zeros(self._check(seq), dtype=np.float64)
        samples[: seq.size] = seq  # the one owned copy; callers cannot alias it
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _own(cls, kind: CurveKind, order: int, length: int, samples: np.ndarray) -> SfcImage:
        """An image over exactly 4^order float64 values the package has just built.

        Checked like a public construction, then frozen, not copied or padded;
        the caller must keep no writeable view of ``samples``.
        """
        image = object.__new__(cls)
        for name, value in (("kind", kind), ("order", order), ("length", length)):
            object.__setattr__(image, name, value)
        if samples.size != image._check(samples) or samples.dtype != np.float64:
            raise ValueError(f"expected {1 << (2 * order)} float64 samples, got "
                             f"{samples.size} of {samples.dtype}")
        samples.flags.writeable = False
        object.__setattr__(image, "samples", samples)
        return image

    def _check(self, seq: np.ndarray) -> int:
        """Check the fields against a 1-D sequence ``seq``, store ``kind`` as a CurveKind; returns 4^order."""
        object.__setattr__(self, "kind", CurveKind(self.kind))
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {self.order}")
        cells = 1 << (2 * self.order)
        if seq.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {seq.shape}")
        if seq.size > cells:
            raise ValueError(f"sequence of {seq.size} values exceeds {cells} cells "
                             f"at order {self.order}")
        if not 0 <= self.length <= cells:
            raise ValueError(f"length {self.length} outside [0, {cells}]")
        return cells

    @functools.cached_property
    def pixels(self) -> np.ndarray:
        """float64 n x n grid, scattered along the curve on first read."""
        pixels = get_curve(self.kind, self.order).scatter(self.samples)
        pixels.flags.writeable = False
        return pixels

    @property
    def n(self) -> int:
        return 1 << self.order


@dataclass(frozen=True)
class MixupParams:
    alpha: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


def encode(clip: AudioClip, kind: CurveKind, order: int) -> SfcImage:
    """Lay a clip out along the curve; pads the tail with zeros."""
    return SfcImage(kind, order, clip.length, clip.samples)


def decode(image: SfcImage, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
    """The image's samples without the padding.

    The clip's samples are a read-only view of the image's samples, not a
    copy, so the clip keeps the image's whole 4^k buffer alive.
    """
    return AudioClip._own(image.samples[: image.length], sample_rate)


def draw_mixup_lambdas(alpha: float, rng_seed: int, count: int = 1) -> np.ndarray:
    """Seeded Beta(alpha, alpha) draws, shared by mixup and batch drivers."""
    return np.random.default_rng(rng_seed).beta(alpha, alpha, size=count)


def mixup(a: SfcImage, b: SfcImage, params: MixupParams, lam: float | None = None):
    """Convex combination lam*a + (1-lam)*b of two matching images.

    ``lam`` is drawn from Beta(alpha, alpha) unless given explicitly
    (explicit values make recorded blends replayable). Returns the mixed
    image together with the weight so callers can blend labels the same
    way.
    """
    if (a.kind, a.order, a.length) != (b.kind, b.order, b.length):
        raise ValueError(
            f"mixup inputs disagree: ({a.kind.name}, k={a.order}, L={a.length}) vs "
            f"({b.kind.name}, k={b.order}, L={b.length})"
        )
    if lam is None:
        lam = draw_mixup_lambdas(params.alpha, params.rng_seed)[0]
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:  # NaN fails too
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    mixed = a.samples * lam  # lam*a + (1-lam)*b, the same IEEE operations, one temporary
    mixed += b.samples * (1.0 - lam)
    return SfcImage._own(a.kind, a.order, a.length, mixed), lam


def export_pgm(image: SfcImage, path) -> None:
    """16-bit binary graymap; [-1, 1] maps linearly onto [0, 65535]."""
    scaled = image.pixels + 1.0  # the one float64 copy; the steps below run in place
    scaled /= 2.0
    scaled *= 65535.0
    np.rint(scaled, out=scaled)
    gray = np.clip(scaled, 0, 65535, out=scaled).astype(">u2")
    header = f"P5\n{image.n} {image.n}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.writelines((header, gray.data))


def export_raw(image: SfcImage, path) -> None:
    """Lossless .sfci file: 12-byte header, then float32 samples in curve order."""
    header = RAW_HEADER.pack(
        RAW_MAGIC, RAW_VERSION, int(image.kind), image.order, 0, image.length
    )
    with open(path, "wb") as fh:  # two writes, no joined copy of the payload
        fh.writelines((header, image.samples.astype("<f4").data))


def import_raw(path) -> SfcImage:
    """Parse a .sfci file back into an image, validating the header and every sample."""
    data = Path(path).read_bytes()
    if len(data) < RAW_HEADER_SIZE:
        raise RawFormatError(f"header needs {RAW_HEADER_SIZE} bytes, file has {len(data)}", 0)
    magic, version, kind_id, order, reserved, length = RAW_HEADER.unpack_from(data)
    if magic != RAW_MAGIC:
        raise RawFormatError(f"bad magic {magic!r}, expected {RAW_MAGIC!r}", 0)
    if version != RAW_VERSION:
        raise RawFormatError(f"unsupported version {version}", 4)
    try:
        kind = CurveKind(kind_id)
    except ValueError:
        raise RawFormatError(f"unknown curve id {kind_id}", 5) from None
    if not 1 <= order <= MAX_ORDER:
        raise RawFormatError(f"order {order} outside [1, {MAX_ORDER}]", 6)
    if reserved != 0:
        raise RawFormatError(f"reserved byte must be 0, got {reserved}", 7)
    cells = 1 << (2 * order)
    if length > cells:
        raise RawFormatError(f"length {length} exceeds {cells} cells at order {order}", 8)
    expected = 4 * cells
    got = len(data) - RAW_HEADER_SIZE
    if got != expected:
        raise RawFormatError(f"payload of {expected} bytes expected, got {got}", RAW_HEADER_SIZE)
    seq = np.frombuffer(data, dtype="<f4", offset=RAW_HEADER_SIZE)
    if not np.isfinite(seq).all():
        i = int(np.flatnonzero(~np.isfinite(seq))[0])
        raise RawFormatError(f"non-finite sample {seq[i]} at index {i}", RAW_HEADER_SIZE + 4 * i)
    # float32 -> float64 is exact, and the payload already fills all 4^k cells
    return SfcImage._own(kind, order, length, seq.astype(np.float64))
