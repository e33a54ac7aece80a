"""Waveform-to-image mapping and image serialization.

An image keeps a clip in space-filling-curve order, zero-padded to 4^k
samples, with its original length so decoding is exact; its 2^k x 2^k grid
is gathered through the curve's ``inverse`` only when first read. Mixup
blends images with a Beta weight.
Images serialize as 16-bit PGM (lossy) or ".sfci" (lossless, curve order).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .curves import MAX_ORDER, CurveKind, _check_kind, _check_order, get_curve
from .signal import _BLOCK, DEFAULT_SAMPLE_RATE, AudioClip, _check_finite, _first_non_finite

__all__ = [
    "SfcImage", "MixupParams", "RawFormatError", "encode", "decode", "mixup",
    "draw_mixup_lambdas", "export_pgm", "export_raw", "import_raw",
]

RAW_MAGIC = b"SFCI"
RAW_VERSION = 1
RAW_HEADER = struct.Struct("<4sBBBBI")
RAW_HEADER_SIZE = RAW_HEADER.size


class RawFormatError(ValueError):
    """Malformed .sfci input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_fields(kind, order: int, length: int, seq: np.ndarray) -> tuple[CurveKind, int, int, int]:
    """Check an image's fields against the 1-D sequence ``seq``; returns them, ints as int, and 4^order."""
    kind, order, length = _check_kind(kind), _check_order(order), operator.index(length)
    cells = 1 << (2 * order)
    if seq.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {seq.shape}")
    if seq.size > cells:
        raise ValueError(f"sequence of {seq.size} values exceeds {cells} cells at order {order}")
    if not 0 <= length <= seq.size:  # a length past the given samples would decode padding
        raise ValueError(f"length {length} outside [0, {seq.size}]")
    return kind, order, length, cells


@dataclass(frozen=True, eq=False)
class SfcImage:
    """A clip laid out on a 2^k x 2^k grid, plus the metadata needed to invert it.

    ``samples`` holds 4^k finite values in curve order, zero-padded past the
    first ``length``; ``pixels[y, x]`` holds the sample whose curve index maps
    to (x, y). The constructor copies and checks what it is given; a NaN or
    infinite value raises ValueError naming its index.
    """

    kind: CurveKind
    order: int
    length: int
    samples: np.ndarray

    def __post_init__(self):
        seq = np.asarray(self.samples)
        kind, order, length, cells = _check_fields(self.kind, self.order, self.length, seq)
        samples = np.zeros(cells, dtype=np.float64)
        samples[: seq.size] = seq  # the one owned copy; callers cannot alias it
        _check_finite(samples)
        samples.flags.writeable = False
        for name, value in (("kind", kind), ("order", order), ("length", length), ("samples", samples)):
            object.__setattr__(self, name, value)

    @classmethod
    def _own(cls, kind: CurveKind, order: int, length: int, samples: np.ndarray) -> SfcImage:
        """An image over exactly 4^order finite float64 values the package has just built.

        The fields are checked like a public construction; the samples are
        frozen, not copied, padded or scanned. The caller must keep no
        writeable view of ``samples``.
        """
        kind, order, length, cells = _check_fields(kind, order, length, samples)
        if samples.size != cells or samples.dtype != np.float64:
            raise ValueError(f"expected {cells} float64 samples, got "
                             f"{samples.size} of {samples.dtype}")
        samples.flags.writeable = False
        image = object.__new__(cls)
        for name, value in (("kind", kind), ("order", order), ("length", length), ("samples", samples)):
            object.__setattr__(image, name, value)
        return image

    @functools.cached_property
    def pixels(self) -> np.ndarray:
        """float64 n x n grid, gathered through the curve's ``inverse`` on first read."""
        pixels = self.samples[get_curve(self.kind, self.order).inverse]
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
        object.__setattr__(self, "rng_seed", operator.index(self.rng_seed))
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


def encode(clip: AudioClip, kind: CurveKind, order: int) -> SfcImage:
    """Lay a clip out along the curve; pads the tail with zeros."""
    *_, cells = _check_fields(kind, order, clip.length, clip.samples)  # before the 4^k allocation
    samples = np.zeros(cells, dtype=np.float64)
    samples[: clip.length] = clip.samples  # a clip's samples are finite
    return SfcImage._own(kind, order, clip.length, samples)


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
    try:  # finite inputs and lam in [0, 1] can leave the finite range only by overflow
        with np.errstate(over="raise"):
            mixed = a.samples * lam  # lam*a + (1-lam)*b, the same IEEE operations, one temporary
            mixed += b.samples * (1.0 - lam)
    except FloatingPointError:
        raise ValueError(f"mixup at lam {lam} overflows float64") from None
    return SfcImage._own(a.kind, a.order, a.length, mixed), lam


def export_pgm(image: SfcImage, path) -> None:
    """16-bit binary graymap; [-1, 1] maps linearly onto [0, 65535].

    The samples are quantised in curve order, then gathered onto the grid as
    16-bit values, so no float64 grid is built.
    """
    scaled = image.samples + 1.0  # the one float64 copy; the steps below run in place
    scaled /= 2.0
    scaled *= 65535.0
    np.rint(scaled, out=scaled)
    quantised = np.clip(scaled, 0, 65535, out=scaled).astype(">u2")
    del scaled
    gray = quantised[get_curve(image.kind, image.order).inverse]
    header = f"P5\n{image.n} {image.n}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.writelines((header, gray.data))


def export_raw(image: SfcImage, path) -> None:
    """Lossless .sfci file: 12-byte header, then float32 samples in curve order.

    A sample beyond the float32 range raises ValueError naming its index,
    before the file is opened.
    """
    try:
        with np.errstate(over="raise"):
            payload = image.samples.astype("<f4")
    except FloatingPointError:
        with np.errstate(over="ignore"):
            i = int(np.argmax(np.isinf(image.samples.astype("<f4"))))
        raise ValueError(f"sample {image.samples[i]} at index {i} is outside the float32 range") from None
    header = RAW_HEADER.pack(
        RAW_MAGIC, RAW_VERSION, int(image.kind), image.order, 0, image.length
    )
    with open(path, "wb") as fh:  # two writes, no joined copy of the payload
        fh.writelines((header, payload.data))


def import_raw(path) -> SfcImage:
    """Parse a .sfci file back into an image, validating the header and every sample.

    The payload streams through one reused float32 buffer of 2^16 samples:
    each block is checked for NaN and infinity, then widened into the
    image's float64 array (exactly), so the file is never held whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(RAW_HEADER_SIZE)
        if len(header) < RAW_HEADER_SIZE:
            raise RawFormatError(f"header needs {RAW_HEADER_SIZE} bytes, file has {len(header)}", 0)
        magic, version, kind_id, order, reserved, length = RAW_HEADER.unpack(header)
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
        if size - RAW_HEADER_SIZE != expected:
            raise RawFormatError(f"payload of {expected} bytes expected, "
                                 f"got {size - RAW_HEADER_SIZE}", RAW_HEADER_SIZE)
        samples = np.empty(cells, dtype=np.float64)
        buf = np.empty(min(cells, _BLOCK), dtype="<f4")
        for start in range(0, cells, buf.size):
            block = buf[: cells - start]
            got = fh.readinto(block)
            if got != block.nbytes:  # the file shrank while being read
                raise RawFormatError(f"payload of {expected} bytes expected, "
                                     f"got {4 * start + got}", RAW_HEADER_SIZE)
            bad = _first_non_finite(block)
            if bad is not None:
                i = start + bad
                raise RawFormatError(f"non-finite sample {block[bad]} at index {i}",
                                     RAW_HEADER_SIZE + 4 * i)
            samples[start : start + block.size] = block  # float32 -> float64 is exact
    return SfcImage._own(kind, order, length, samples)
