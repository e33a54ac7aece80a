"""Span recorder for the traced run.

The recorder patches sfcaudio's public functions from outside: every
module attribute bound to one of the functions in ``LAYER_FUNCTIONS`` is
replaced by a wrapper that records a span, so the aliases the CLI imports
(``cli.center``, ``cli.encode_clip``, ...) are covered as well as calls
between library modules. Nothing under ``src/`` is changed. A listed name
that the package no longer has is skipped and later reads as 0 calls.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass

LAYER_FUNCTIONS = {
    "curves": ("build_curve",),
    "signal": ("load_wav", "save_wav", "center", "random_shift"),
    "imaging": ("encode", "decode", "export_raw", "import_raw", "mixup"),
    "equivariance": ("sweep_lemma", "check_equivariance"),
    "locality": ("compare_curves",),
}
# The modules whose attributes are patched (aliases live in cli).
PATCHED_MODULES = ("curves", "signal", "imaging", "equivariance", "locality", "cli")

# One input file's spans share a group id. A thread-top-level call to an
# opener starts a group when none is open; a closer ends it, as does any
# exception escaping a thread-top-level span.
GROUP_OPENERS = {"signal.load_wav", "imaging.import_raw"}
GROUP_CLOSERS = {"imaging.export_raw"}
# Functions whose file argument (by position) is sized after the call.
FILE_ARG = {"imaging.export_raw": 1, "imaging.import_raw": 0}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    group: int | None
    thread: int
    detail: str | None = None
    error: str | None = None
    nbytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.group = None
        return local

    @contextlib.contextmanager
    def span(self, name: str, *, detail=None, new_group=False, root=False):
        """Record one span around the ``with`` body.

        ``new_group`` gives the span (and everything under it) a fresh group
        id. ``root`` makes the span the fallback parent of spans opened on
        threads with an empty stack, such as the CLI's pool workers.
        """
        local = self._state()
        top = not local.stack
        if new_group or (top and name in GROUP_OPENERS and local.group is None):
            local.group = next(self._groups)
        span = Span(
            id=next(self._ids),
            parent=local.stack[-1] if local.stack else self._root,
            name=name, start=0.0, end=0.0, group=local.group,
            thread=threading.get_ident(), detail=detail,
        )
        local.stack.append(span.id)
        if root:
            self._root = span.id
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            if top:
                local.group = None
            raise
        finally:
            span.end = time.perf_counter()
            local.stack.pop()
            if root:
                self._root = None
            if new_group or (top and name in GROUP_CLOSERS):
                local.group = None
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, detail=None) -> None:
        """Record a span timed elsewhere, such as in a worker process.

        perf_counter is the system-wide monotonic clock on Linux, so times
        from another process line up with this one's.
        """
        self.spans.append(Span(next(self._ids), None, name, start, end, None, 0, detail))

    def _wrap(self, fn, name: str):
        file_arg = FILE_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = _detail(args)
            with self.span(name, detail=detail) as span:
                result = fn(*args, **kwargs)
            if file_arg is not None and len(args) > file_arg:
                span.nbytes = os.stat(args[file_arg]).st_size
            return result

        return traced

    def install(self):
        """Patch every binding of the layer functions; ``uninstall`` undoes it."""
        package = importlib.import_module("sfcaudio")
        modules = [importlib.import_module(f"sfcaudio.{m}") for m in PATCHED_MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            layer_module = importlib.import_module(f"sfcaudio.{layer}")
            for fname in names:
                original = getattr(layer_module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for module in [package, *modules]:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _detail(args) -> str | None:
    """"hilbert" for (CurveKind.HILBERT, ...), "hilbert/7" for (CurveKind.HILBERT, 7, ...)."""
    if not args or not isinstance(args[0], enum.Enum):
        return None
    name = args[0].name.lower()
    if len(args) > 1 and type(args[1]) is int:
        return f"{name}/{args[1]}"
    return name


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may run on other threads (the CLI's pool); overlapping
    children count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }
