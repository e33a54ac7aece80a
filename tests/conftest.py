"""Shared fixtures and the acceptance-summary terminal hook."""

import struct

import numpy as np
import pytest

# populated by test_acceptance.py; echoed after the run so the per-criterion
# verdicts are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion():
    """Append one pass/fail summary line per acceptance criterion."""

    def record(label, description, ok, detail=""):
        mark = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        ACCEPTANCE_LINES.append(f"criterion {label:>3}: {mark}  {description}{suffix}")
        return ok

    return record


# bytes 4..15 of every KSDATAFORMAT_SUBTYPE_* GUID (PCM, IEEE_FLOAT, ...)
KSDATAFORMAT_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa 0038 9b71")


@pytest.fixture
def wav_factory(tmp_path):
    """Craft arbitrary (including malformed) RIFF/WAVE files.

    ``sub_format`` writes a 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk (tag
    0xFFFE, ``audio_format`` is then ignored): an int is wrapped in the
    KSDATAFORMAT GUID of that format tag, bytes are used as the GUID as is.
    """

    def make(
        name="clip.wav",
        *,
        audio_format=1,
        channels=1,
        rate=16000,
        bits=16,
        payload=b"",
        data_size=None,
        magic=b"RIFF",
        wave=b"WAVE",
        drop_fmt=False,
        drop_data=False,
        sub_format=None,
    ):
        chunks = b""
        if not drop_fmt:
            fmt_body = struct.pack(
                "<HHIIHH",
                audio_format if sub_format is None else 0xFFFE,
                channels,
                rate,
                rate * channels * (bits // 8),
                channels * (bits // 8),
                bits,
            )
            if sub_format is not None:
                if isinstance(sub_format, int):
                    sub_format = struct.pack("<I", sub_format) + KSDATAFORMAT_GUID_TAIL
                # cbSize, valid bits per sample, channel mask, sub-format GUID
                fmt_body += struct.pack("<HHI", 22, bits, 0x4) + sub_format
            chunks += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
        if not drop_data:
            declared = len(payload) if data_size is None else data_size
            chunks += b"data" + struct.pack("<I", declared) + payload
        blob = magic + struct.pack("<I", 4 + len(chunks)) + wave + chunks
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    return make


@pytest.fixture
def pcm16_grid_rng():
    """Generator of float64 clips whose values sit on the int16/32768 grid.

    These survive the float32 file format without rounding, which keeps
    round-trip assertions exact.
    """

    def draw(rng, length):
        return rng.integers(-32768, 32768, size=length).astype(np.float64) / 32768.0

    return draw
