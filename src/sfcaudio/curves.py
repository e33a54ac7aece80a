"""Space-filling curve tables on 2^k x 2^k grids.

Eight curve families are supported, each realized as an exact bijection
between linear indices [0, 4^k) and grid points. :func:`build_curve`
builds the forward tables ``xs``/``ys``; ``inverse`` is derived from them
on first use, so index/point lookups are plain array reads. This module
alone computes how an index maps to a pixel; other modules only read its
tables: image grids gather samples through ``inverse``, and the
equivariance checks gather from ``inverse`` at the points ``xs``/``ys``
of a coarser order.

Coordinates follow image conventions: ``x`` is the column, ``y`` is the
row, origin at the top-left corner.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ORDER", "CurveKind", "CurveMap", "build_curve", "get_curve", "index_to_point",
    "point_to_index", "jump_positions",
]

MAX_ORDER = 13
_INVERSE_BLOCK = 1 << 20  # indices per step of the CurveMap.inverse fill


class CurveKind(enum.IntEnum):
    """Curve families. The numeric values are stable and used on disk."""

    HILBERT = 0
    Z = 1
    GRAY = 2
    H = 3
    OPTR = 4
    SWEEP = 5
    SCAN = 6
    DIAGONAL = 7

    @classmethod
    def from_name(cls, name: str) -> "CurveKind":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            known = ", ".join(m.name.lower() for m in cls)
            raise ValueError(f"unknown curve kind {name!r}; expected one of: {known}") from None


@dataclass(frozen=True, eq=False)
class CurveMap:
    """Precomputed bijection for one (kind, order) pair.

    ``xs[t]``/``ys[t]`` give the grid point visited at linear index t;
    ``inverse[y, x]`` gives the linear index of a grid point and is derived
    from ``xs``/``ys`` on first use. Arrays are read-only.
    """

    kind: CurveKind
    order: int
    xs: np.ndarray
    ys: np.ndarray

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """uint32 ``inverse[y, x]``: the index visiting (x, y); built on first use."""
        inverse = np.empty((self.n, self.n), dtype=np.uint32)
        for start in range(0, self.size, _INVERSE_BLOCK):
            stop = min(start + _INVERSE_BLOCK, self.size)
            inverse[self.ys[start:stop], self.xs[start:stop]] = np.arange(start, stop, dtype=np.uint32)
        inverse.flags.writeable = False
        return inverse

    @property
    def n(self) -> int:
        """Grid side length 2^order."""
        return 1 << self.order

    @property
    def size(self) -> int:
        """Cell count 4^order."""
        return 1 << (2 * self.order)

    def __len__(self) -> int:
        return self.size


def _check_kind(kind: CurveKind) -> CurveKind:
    # operator.index first: CurveKind(1.0) would be CurveKind.Z
    return CurveKind(operator.index(kind))


def _check_order(order: int) -> int:
    order = operator.index(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"curve order must be in [1, {MAX_ORDER}], got {order}")
    return order


# ---------------------------------------------------------------------------
# self-similar curves: quadrant grammars
#
# Hilbert, Z, Gray and OptR are quadrant grammars (M. Bader, Space-Filling
# Curves, Springer 2013). A square in state s is traversed as its quadrants
# (qdx[s, i], qdy[s, i]), i = 0..3, each in state child[s, i]. Hilbert's
# states are its orientations: identity, transpose, anti-transpose, half
# turn. Z's one state puts x on the odd and y on the even bits of the index.
# Gray reads Z at t ^ (t >> 1): state c is the low bit of the previous
# base-4 digit, digit (b1, b0) goes to Z quadrant (b1 ^ c, b0 ^ b1) and the
# next state is b0. OptR's table is compiled from its rules below.

def _grammar(qdx, qdy, child, start=0):
    """(qdx, qdy, child, start) in the dtypes :func:`_grammar_points` reads."""
    return np.array(qdx, np.uint16), np.array(qdy, np.uint16), np.array(child, np.uint8), start


_GRAMMARS = {
    CurveKind.HILBERT: _grammar(((0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)),
                                ((0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)),
                                ((1, 0, 0, 2), (0, 1, 1, 3), (3, 2, 2, 0), (2, 3, 3, 1))),
    CurveKind.Z: _grammar(((0, 0, 1, 1),), ((0, 1, 0, 1),), ((0, 0, 0, 0),)),
    CurveKind.GRAY: _grammar(((0, 0, 1, 1), (1, 1, 0, 0)), ((0, 1, 1, 0),) * 2, ((0, 1, 0, 1),) * 2),
}


def _expand(levels: int, qdx, qdy, child, g, state):
    """Corners and states ``levels`` levels below squares at (g, g) in ``state``."""
    gx = gy = g
    for _ in range(levels):
        # np.take on a uint8 state runs about 4x faster here than fancy indexing
        gx = (gx[:, None] * 2 + np.take(qdx, state, axis=0)).ravel()
        gy = (gy[:, None] * 2 + np.take(qdy, state, axis=0)).ravel()
        state = np.take(child, state, axis=0).ravel()
    return gx, gy, state


def _grammar_points(order: int, qdx, qdy, child, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of a quadrant grammar, written straight into ``xs``/``ys``.

    The top order - j levels (j = order // 2) give the coarse cells and
    their states; j levels from every state give per-state fine tables.
    Row r of 4^j outputs is the fine table of coarse cell r's state plus
    the cell's corner, so the build holds little more than its output.
    """
    j = order // 2
    states = len(child)
    cx, cy, cstate = _expand(order - j, qdx, qdy, child, np.zeros(1, np.uint16), np.array([start], np.uint8))
    fx, fy, _ = _expand(j, qdx, qdy, child, np.zeros(states, np.uint16), np.arange(states, dtype=np.uint8))
    xs, ys = (np.empty((cstate.size, 1 << (2 * j)), dtype=np.uint16) for _ in range(2))
    for rows, coarse, fine in ((xs, cx, fx), (ys, cy, fy)):
        # mode="clip" writes into rows directly; the default "raise" buffers it
        np.take(fine.reshape(states, -1), cstate, axis=0, mode="clip", out=rows)
        rows += (coarse << j)[:, None]
    return xs.ravel(), ys.ravel()


# The H curve is a closed king-move tour. Its first part, the triangle y <= x,
# grows in place: at level L (s = 2^L) the m cells in [0, m) are the first of
# four copies, each mapped by a square symmetry and shifted by s times its
# quadrant: (x, y), (s + y, s - 1 - x), (2s - 1 - y, x), (x + s, y + s). The
# third copy skips the images of the s diagonal cells x == y, which the second
# copy has already visited.
_H_BLOCK = 1 << 16  # triangle cells per step of _h_off_diagonal


def _h_off_diagonal(xs, ys, stop: int, at: int, top: int, swap: bool) -> None:
    """Write the cells x != y of ``xs[:stop]``/``ys[:stop]`` from index ``at`` on, blockwise.

    A cell becomes (top - y, x) with ``swap``, else (top - x, top - y).
    """
    for start in range(0, stop, _H_BLOCK):
        end = min(start + _H_BLOCK, stop)
        off = xs[start:end] != ys[start:end]
        x, y = xs[start:end][off], ys[start:end][off]
        if swap:
            x, y = y, top - x
        np.subtract(top, x, out=xs[at:at + x.size])
        np.subtract(top, y, out=ys[at:at + y.size])
        at += x.size


def _h_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The triangle y <= x, then the 180-degree rotation of its cells y < x."""
    n = 1 << order
    # zeros, for the level-0 triangle: the one cell (0, 0); the rest is written over
    xs, ys = (np.zeros(n * n, dtype=np.uint16) for _ in range(2))
    for level in range(order):
        s = 1 << level
        m = s * (s + 1) // 2
        np.add(ys[:m], s, out=xs[m:2 * m])
        np.subtract(s - 1, xs[:m], out=ys[m:2 * m])
        _h_off_diagonal(xs, ys, m, 2 * m, 2 * s - 1, swap=True)
        np.add(xs[:m], s, out=xs[3 * m - s:4 * m - s])
        np.add(ys[:m], s, out=ys[3 * m - s:4 * m - s])
    _h_off_diagonal(xs, ys, n * (n + 1) // 2, n * (n + 1) // 2, n - 1, swap=False)
    return xs, ys


# ---------------------------------------------------------------------------
# row-based and diagonal layouts

def _sweep_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << order
    ramp = np.arange(n, dtype=np.uint16)
    return np.tile(ramp, n), np.repeat(ramp, n)


def _scan_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    # like sweep but every odd row runs right-to-left
    n = 1 << order
    ramp = np.arange(n, dtype=np.uint16)
    return np.tile(np.concatenate([ramp, ramp[::-1]]), n // 2), np.repeat(ramp, n)


def _diagonal_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Anti-diagonal zigzag: diagonal d = x + y, direction alternating."""
    n = 1 << order
    ramp = np.arange(n, dtype=np.uint16)
    xs, ys = (np.empty(n * n, dtype=np.uint16) for _ in range(2))
    for d in range(n):
        up, down, t = ramp[:d + 1], ramp[d::-1], d * (d + 1) // 2
        xs[t:t + d + 1], ys[t:t + d + 1] = (up, down) if d % 2 == 0 else (down, up)
    # the diagonals d >= n: those before d = n - 1, turned 180 degrees and read backwards
    half, rest = n * (n + 1) // 2, n * (n - 1) // 2
    np.subtract(n - 1, xs[rest - 1::-1], out=xs[half:])
    np.subtract(n - 1, ys[rest - 1::-1], out=ys[half:])
    return xs, ys


# ---------------------------------------------------------------------------
# OptR curve: quadrant grammar with corner/edge-midpoint anchors
#
# Every subsquare is traversed from an entry anchor to an exit anchor,
# both lying on corners or edge midpoints. Expanding one level replaces a
# square by its four quadrants with derived anchors. The rules below are
# stated on a [0, 4]^2 coordinate frame per square (so midpoints stay
# integral); children are (quadrant offset, entry, exit) triples.

_OPTR_BASE_RULES: dict[tuple, list] = {
    # corner -> adjacent corner
    ((0, 0), (4, 0)): [
        ((0, 0), (0, 0), (1, 2)),
        ((0, 2), (1, 2), (2, 3)),
        ((2, 2), (2, 3), (3, 2)),
        ((2, 0), (3, 2), (4, 0)),
    ],
    # corner -> opposite corner
    ((0, 0), (4, 4)): [
        ((0, 0), (0, 0), (2, 1)),
        ((2, 0), (2, 1), (2, 2)),
        ((0, 2), (2, 2), (2, 3)),
        ((2, 2), (2, 3), (4, 4)),
    ],
    # corner -> midpoint of an incident side
    ((0, 0), (2, 0)): [
        ((0, 0), (0, 0), (1, 2)),
        ((0, 2), (1, 2), (2, 3)),
        ((2, 2), (2, 3), (2, 2)),
        ((2, 0), (2, 2), (2, 0)),
    ],
    # corner -> midpoint of a far side
    ((0, 0), (4, 2)): [
        ((0, 0), (0, 0), (1, 2)),
        ((0, 2), (1, 2), (2, 3)),
        ((2, 2), (2, 3), (3, 2)),
        ((2, 0), (3, 2), (4, 2)),
    ],
    # side midpoint -> midpoint of an adjacent side
    ((2, 0), (4, 2)): [
        ((0, 0), (2, 0), (1, 2)),
        ((0, 2), (1, 2), (2, 3)),
        ((2, 2), (2, 3), (3, 2)),
        ((2, 0), (3, 2), (4, 2)),
    ],
}


def _optr_reversed(children):
    return [(q, ext, ent) for (q, ent, ext) in reversed(children)]


# midpoint -> corner runs are not square-symmetry images of corner -> midpoint,
# so they get explicit reversed rules
_OPTR_BASE_RULES[((2, 0), (0, 0))] = _optr_reversed(_OPTR_BASE_RULES[((0, 0), (2, 0))])
_OPTR_BASE_RULES[((4, 2), (0, 0))] = _optr_reversed(_OPTR_BASE_RULES[((0, 0), (4, 2))])

# square symmetries on the [0,4]^2 frame, in fixed priority order; the first
# (transform, rule) match wins, which pins down the otherwise ambiguous
# diagonal rule orientation
_OPTR_TRANSFORMS = (
    lambda x, y: (x, y),
    lambda x, y: (4 - y, x),
    lambda x, y: (4 - x, 4 - y),
    lambda x, y: (y, 4 - x),
    lambda x, y: (y, x),
    lambda x, y: (4 - x, y),
    lambda x, y: (4 - y, 4 - x),
    lambda x, y: (x, 4 - y),
)

# the eight legal anchors of a square frame
_OPTR_ANCHORS = ((0, 0), (2, 0), (4, 0), (0, 2), (4, 2), (0, 4), (2, 4), (4, 4))
_OPTR_ANCHOR_ID = {p: i for i, p in enumerate(_OPTR_ANCHORS)}


def _optr_compile() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the rule grammar into lookup tables indexed by anchor pair.

    A square's state is entry_id * 8 + exit_id. Returns (qdx, qdy, child),
    each of shape (64, 4): row ``state`` holds the quadrant offsets and the
    states of the square's four children in traversal order.
    """
    qdx = np.zeros((64, 4), dtype=np.uint16)
    qdy = np.zeros((64, 4), dtype=np.uint16)
    child = np.zeros((64, 4), dtype=np.uint8)
    known = np.zeros(64, dtype=bool)
    for g in _OPTR_TRANSFORMS:
        for (ent, ext), children in _OPTR_BASE_RULES.items():
            state = _OPTR_ANCHOR_ID[g(*ent)] * 8 + _OPTR_ANCHOR_ID[g(*ext)]
            if known[state]:
                continue
            known[state] = True
            for i, (qoff, ce, cx) in enumerate(children):
                g1 = g(*qoff)
                g2 = g(qoff[0] + 2, qoff[1] + 2)
                qx, qy = min(g1[0], g2[0]), min(g1[1], g2[1])
                ge, gx_ = g(*ce), g(*cx)
                qdx[state, i] = qx // 2
                qdy[state, i] = qy // 2
                child[state, i] = (_OPTR_ANCHOR_ID[(ge[0] - qx) * 2, (ge[1] - qy) * 2] * 8
                                   + _OPTR_ANCHOR_ID[(gx_[0] - qx) * 2, (gx_[1] - qy) * 2])
    if not known[child[known]].all():  # the grammar must be closed
        raise AssertionError("no rule for some child anchor pair")
    return qdx, qdy, child


_GRAMMARS[CurveKind.OPTR] = _grammar(*_optr_compile(), _OPTR_ANCHOR_ID[(0, 0)] * 8 + _OPTR_ANCHOR_ID[(4, 4)])


# ---------------------------------------------------------------------------

_BUILDERS = {
    CurveKind.H: _h_points,
    CurveKind.SWEEP: _sweep_points,
    CurveKind.SCAN: _scan_points,
    CurveKind.DIAGONAL: _diagonal_points,
}


def build_curve(kind: CurveKind, order: int) -> CurveMap:
    """Construct the forward tables ``xs``/``ys`` for one curve.

    Deterministic: repeated builds return identical tables. Time and memory
    are O(4^order). At the top order 13 the tables hold 67M cells each
    (0.27 GB of uint16 together). On a 2-core x86-64 host with numpy 2.4, a
    fresh process building any one of the eight peaked at 283-286 MiB
    resident (VmHWM) in 0.05-0.18 s. ``inverse`` is not built here.
    """
    kind = _check_kind(kind)
    order = _check_order(order)
    grammar = _GRAMMARS.get(kind)
    xs, ys = _grammar_points(order, *grammar) if grammar else _BUILDERS[kind](order)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return CurveMap(kind=kind, order=order, xs=xs, ys=ys)


def get_curve(kind: CurveKind, order: int) -> CurveMap:
    """Memoized :func:`build_curve`; maps are immutable so sharing is safe.

    The arguments are checked before the cache is read: it keys on equality,
    and 1.0 == CurveKind.Z.
    """
    return _cached_curve(_check_kind(kind), _check_order(order))


@functools.lru_cache(maxsize=16)
def _cached_curve(kind: CurveKind, order: int) -> CurveMap:
    return build_curve(kind, order)


# the cache is still read and reset through get_curve
get_curve.cache_info = _cached_curve.cache_info
get_curve.cache_clear = _cached_curve.cache_clear


def index_to_point(cmap: CurveMap, t: int) -> tuple[int, int]:
    """Grid point visited at linear index ``t``."""
    t = operator.index(t)
    if not 0 <= t < cmap.size:
        raise IndexError(f"index {t} outside [0, {cmap.size})")
    return int(cmap.xs[t]), int(cmap.ys[t])


def point_to_index(cmap: CurveMap, x: int, y: int) -> int:
    """Linear index of grid point ``(x, y)``."""
    x, y = operator.index(x), operator.index(y)
    if not (0 <= x < cmap.n and 0 <= y < cmap.n):
        raise IndexError(f"point ({x}, {y}) outside the {cmap.n}x{cmap.n} grid")
    return int(cmap.inverse[y, x])


def jump_positions(cmap: CurveMap) -> np.ndarray:
    """Indices t where the step to t+1 moves more than one cell (any axis).

    Returned sorted ascending; no jumps means continuous in the king-move
    sense. Coordinates stay below 2^13, so int16 differences are exact.
    """
    dx = np.abs(np.diff(cmap.xs.view(np.int16)))
    dy = np.abs(np.diff(cmap.ys.view(np.int16)))
    return np.flatnonzero(np.maximum(dx, dy) > 1)
