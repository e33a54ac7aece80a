"""Audio clip loading and time-domain preprocessing.

Clips are mono float sequences in [-1, 1]. Two preprocessing steps are
provided: energy-based centering (align the loud part of the clip with
the frame middle) and seeded random time shifting. Both translate with
zero fill: content pushed past a frame edge is dropped, nothing wraps
around.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_SAMPLE_RATE", "AudioClip", "CenterParams", "ShiftParams", "WavError",
    "WavFormatError", "WavTruncatedError", "WavSampleRateError", "WavChannelError",
    "WavEncodingError", "load_wav", "save_wav", "center", "random_shift", "translate",
]

DEFAULT_SAMPLE_RATE = 16000
_BLOCK = 1 << 16  # samples per step of save_wav's quantiser, the finite scan and import_raw

_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 4..15 shared by every KSDATAFORMAT_SUBTYPE_* GUID; bytes 0..3 hold
# the plain format tag as a little-endian uint32
_KSDATAFORMAT_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa 0038 9b71")


class WavError(ValueError):
    """Base class for WAV loading failures."""


class WavFormatError(WavError):
    """Not a parseable RIFF/WAVE container."""


class WavTruncatedError(WavError):
    """File ends before its declared chunk sizes are satisfied."""


class WavSampleRateError(WavError):
    """Sample rate other than 16000 Hz."""


class WavChannelError(WavError):
    """More than one channel."""


class WavEncodingError(WavError):
    """Codec other than 16-bit PCM or 32-bit float, or a non-finite float sample."""


def _first_non_finite(samples: np.ndarray) -> int | None:
    """Index of the first NaN or infinite sample, or None; scanned in blocks, so no full-size mask."""
    for start in range(0, samples.shape[0], _BLOCK):
        finite = np.isfinite(samples[start : start + _BLOCK])
        if not finite.all():
            return start + int(np.argmin(finite))
    return None


def _check_finite(samples: np.ndarray) -> None:
    """Raise ValueError naming the first NaN or infinite sample of a 1-D array."""
    bad = _first_non_finite(samples)
    if bad is not None:
        raise ValueError(f"non-finite sample {samples[bad]} at index {bad}")


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Mono waveform. ``samples`` is an immutable vector of finite float64 values.

    Samples are checked where they enter: here, in ``load_wav`` and in
    ``import_raw``. Arrays the package derives from checked samples (a
    translate, PCM16 / 32768, a view of an image) are finite by construction
    and are handed over through ``_own`` without a rescan.
    """

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self._adopt(np.array(self.samples, dtype=np.float64), self.sample_rate)
        _check_finite(self.samples)

    @classmethod
    def _own(cls, samples: np.ndarray, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
        """A clip over finite float64 samples the package has just built: frozen, not copied or scanned.

        The caller must keep no writeable view of ``samples``.
        """
        if samples.dtype != np.float64:
            raise ValueError(f"expected float64 samples, got {samples.dtype}")
        clip = object.__new__(cls)
        clip._adopt(samples, sample_rate)
        return clip

    def _adopt(self, samples: np.ndarray, sample_rate) -> None:
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        sample_rate = operator.index(sample_rate)
        if sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {sample_rate}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", sample_rate)

    @property
    def length(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class CenterParams:
    """Energy-window parameters for :func:`center`."""

    w: int = 100
    sigma: float = 25.0
    th: float = 0.0001

    def __post_init__(self):
        object.__setattr__(self, "w", operator.index(self.w))
        if self.w <= 0:
            raise ValueError("window size w must be positive")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.th >= 0 and math.isfinite(self.th)):
            raise ValueError(f"threshold must be nonnegative and finite, got {self.th}")


@dataclass(frozen=True)
class ShiftParams:
    max_shift: int
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_shift", operator.index(self.max_shift))
        object.__setattr__(self, "rng_seed", operator.index(self.rng_seed))
        if self.max_shift < 0:
            raise ValueError("max_shift must be nonnegative")


def load_wav(path) -> AudioClip:
    """Read a mono 16 kHz WAV file (16-bit PCM or 32-bit float).

    PCM samples are scaled by 1/32768 so the int16 range maps into
    [-1, 1); float samples pass through unchanged but must be finite. A
    ``WAVE_FORMAT_EXTENSIBLE`` header is read as its sub-format when that
    is the PCM or IEEE-float KSDATAFORMAT GUID. Anything else raises a
    specific :class:`WavError` subclass; a NaN or infinite float sample
    raises :class:`WavEncodingError` naming its index.
    """
    data = memoryview(Path(path).read_bytes())  # chunk bodies are views, not copies
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if pos + size > len(data):
            raise WavTruncatedError(
                f"{path}: chunk {cid!r} declares {size} bytes but only {len(data) - pos} remain"
            )
        body = data[pos : pos + size]
        pos += size + (size & 1)  # chunks are word aligned
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = body
        elif cid == b"data":
            payload = body

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt
    )
    if channels != 1:
        raise WavChannelError(f"{path}: expected mono, got {channels} channels")
    if rate != DEFAULT_SAMPLE_RATE:
        raise WavSampleRateError(f"{path}: expected {DEFAULT_SAMPLE_RATE} Hz, got {rate}")

    if audio_format == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40:
            raise WavFormatError(f"{path}: extensible fmt chunk too short ({len(fmt)} bytes)")
        guid = fmt[24:40]
        if guid[4:] != _KSDATAFORMAT_GUID_TAIL:
            raise WavEncodingError(f"{path}: unsupported extensible sub-format {guid.hex()}")
        (audio_format,) = struct.unpack_from("<I", guid)

    if audio_format == 1 and bits == 16:
        if len(payload) % 2:
            raise WavTruncatedError(f"{path}: PCM16 data length {len(payload)} is odd")
        samples = np.frombuffer(payload, dtype="<i2") / 32768.0  # one float64 array, exact
    elif audio_format == 3 and bits == 32:
        if len(payload) % 4:
            raise WavTruncatedError(f"{path}: float32 data length {len(payload)} not a multiple of 4")
        values = np.frombuffer(payload, dtype="<f4")
        try:
            _check_finite(values)
        except ValueError as exc:
            raise WavEncodingError(f"{path}: {exc}") from None
        samples = values.astype(np.float64)
    else:
        raise WavEncodingError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "only 16-bit PCM and 32-bit float are accepted"
        )
    return AudioClip._own(samples, rate)  # int16 / 32768 is always finite


def save_wav(clip: AudioClip, path) -> None:
    """Write 16-bit PCM, rounding half away from zero and clamping to int16."""
    # In place, equal to where(v >= 0, floor(v + 0.5), ceil(v - 0.5)) then clip: v >= +0
    # has v + 0.5 > 0, so floor is trunc; v < 0 gets v + (-0.5), the IEEE v - 0.5, whose
    # ceil is trunc; -0.0 gives 0 both ways; trunc (the int16 cast) commutes with the clamp.
    # Block by block, so the float64 temporaries stay small beside the int16 output.
    q = np.empty(clip.length, dtype="<i2")
    for start in range(0, clip.length, _BLOCK):
        v = clip.samples[start : start + _BLOCK] * 32768.0
        v += np.copysign(0.5, v)
        q[start : start + _BLOCK] = np.clip(v, -32768.0, 32767.0, out=v)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + q.nbytes, b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16,
        b"data", q.nbytes,
    )
    with open(path, "wb") as fh:
        fh.writelines((header, q.data))  # two writes, no joined copy of the payload


def translate(samples: np.ndarray, offset: int) -> np.ndarray:
    """Shift a sequence by ``offset`` positions (positive = later), zero fill."""
    out = np.zeros_like(samples)
    n = samples.shape[0]
    if abs(offset) >= n:
        return out
    if offset >= 0:
        out[offset:] = samples[: n - offset]
    else:
        out[: n + offset] = samples[-offset:]
    return out


def _window_energies(samples: np.ndarray, params: CenterParams) -> np.ndarray:
    """Gaussian-weighted mean energy of each ``w``-sample window.

    Window i covers ``[i*w, min((i+1)*w, n))`` and its weights peak at the
    window's own midpoint, so every full window shares one weight vector;
    a shorter tail window gets its own. Each row is summed on its own, in
    the same order a per-window loop would use, so the energies do not
    depend on how the windows are batched.
    """
    n = samples.shape[0]
    w = params.w
    full, tail = divmod(n, w)
    two_var = 2.0 * params.sigma**2

    def weights(length: int) -> np.ndarray:
        t = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
        return np.exp(-(t**2) / two_var)

    g = weights(w)
    seg = samples[: full * w].reshape(full, w)
    energies = np.sum(g * seg * seg, axis=1) / np.sum(g)
    if tail:
        g = weights(tail)
        seg = samples[full * w :]
        energies = np.append(energies, np.sum(g * seg * seg) / np.sum(g))
    return energies


def center(clip: AudioClip, params: CenterParams | None = None) -> AudioClip:
    """Translate the clip so its active span is centered in the frame.

    Windows of ``w`` samples get a Gaussian-weighted mean energy; the span
    runs from the first to the last window at or above the threshold, and
    the whole signal is translated so the span midpoint lands at L/2. A
    clip with no window above threshold is returned unchanged.
    """
    if params is None:
        params = CenterParams()
    n = clip.length
    if params.w > n:
        raise ValueError(f"window size {params.w} exceeds clip length {n}")
    active = np.flatnonzero(_window_energies(clip.samples, params) >= params.th)
    if active.size == 0:
        return clip
    span_start = int(active[0]) * params.w
    span_end = min((int(active[-1]) + 1) * params.w, n)
    offset = round(n / 2 - (span_start + span_end) / 2)
    if offset == 0:
        return clip
    return AudioClip._own(translate(clip.samples, offset), clip.sample_rate)


def random_shift(clip: AudioClip, params: ShiftParams) -> AudioClip:
    """Translate by an integer drawn uniformly from [-max_shift, +max_shift].

    Deterministic for a fixed ``rng_seed``. Meant to run on centered clips
    so a span shorter than half the frame cannot be pushed off the edge.
    """
    if params.max_shift > clip.length // 2:
        raise ValueError(
            f"max_shift {params.max_shift} exceeds half the clip length {clip.length}"
        )
    if params.max_shift == 0:
        return clip
    rng = np.random.default_rng(params.rng_seed)
    offset = int(rng.integers(-params.max_shift, params.max_shift + 1))
    return AudioClip._own(translate(clip.samples, offset), clip.sample_rate)
