"""Locality analysis: how index gaps stretch into grid distance.

For a curve map and a gap g, the profile scans every pair (i, i+g) and
records the worst and mean grid distances. Continuous curves keep worst-case
growth near sqrt(g); row-based layouts stretch linearly with g. The
``ratio_sqrt`` and ``ratio_lin`` columns make those two regimes directly
comparable.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from .curves import CurveKind, CurveMap, build_curve, jump_positions

__all__ = [
    "GapStats", "LocalityReport", "grid_distance", "worst_case_profile",
    "compare_curves", "reports_to_csv", "reports_to_text",
]

# start indices scanned per block: pair scans are O(4^k) per gap, and the
# block keeps their int32 temporaries small at the top order
_CHUNK = 1 << 20

CSV_HEADER = "kind,order,gap,worst_inf,worst_l1,worst_l2,mean_inf,ratio_sqrt,ratio_lin,jump_count"


@dataclass(frozen=True)
class GapStats:
    gap: int
    worst_inf: int
    worst_l1: int
    worst_l2: float
    mean_inf: float
    ratio_sqrt: float
    ratio_lin: float


@dataclass(frozen=True)
class LocalityReport:
    kind: CurveKind
    order: int
    rows: tuple[GapStats, ...]
    jump_count: int


def grid_distance(cmap: CurveMap, i: int, j: int, p) -> float:
    """p-norm (p in {1, 2, inf}) of the grid displacement between indices."""
    i, j = operator.index(i), operator.index(j)
    for t in (i, j):
        if not 0 <= t < cmap.size:
            raise IndexError(f"index {t} outside [0, {cmap.size})")
    dx = abs(int(cmap.xs[i]) - int(cmap.xs[j]))
    dy = abs(int(cmap.ys[i]) - int(cmap.ys[j]))
    if p == 1:
        return float(dx + dy)
    if p == 2:
        return math.hypot(dx, dy)
    if p == math.inf:
        return float(max(dx, dy))
    raise ValueError(f"norm selector must be 1, 2 or inf, got {p!r}")


def _gap_stats(cmap: CurveMap, gap: int) -> GapStats:
    pairs = cmap.size - gap
    worst_inf = worst_l1 = worst_sq = sum_inf = 0
    for start in range(0, pairs, _CHUNK):
        stop = min(start + _CHUNK, pairs)
        # int32 holds dx*dx + dy*dy up to 2 * 8191^2 at the top order
        dx = np.abs(cmap.xs[start + gap:stop + gap].astype(np.int32) - cmap.xs[start:stop])
        dy = np.abs(cmap.ys[start + gap:stop + gap].astype(np.int32) - cmap.ys[start:stop])
        inf = np.maximum(dx, dy)
        worst_inf = max(worst_inf, int(inf.max()))
        worst_l1 = max(worst_l1, int((dx + dy).max()))
        worst_sq = max(worst_sq, int((dx * dx + dy * dy).max()))
        sum_inf += int(inf.sum(dtype=np.int64))
    return GapStats(
        gap=gap,
        worst_inf=worst_inf,
        worst_l1=worst_l1,
        worst_l2=math.sqrt(worst_sq),
        mean_inf=sum_inf / pairs,
        ratio_sqrt=worst_inf / math.sqrt(gap),
        ratio_lin=worst_inf / gap,
    )


def worst_case_profile(cmap: CurveMap, gaps) -> LocalityReport:
    """Distance statistics for each gap, exact over all start indices."""
    gaps = [operator.index(g) for g in gaps]
    if not gaps:
        raise ValueError("gap list must not be empty")
    for g in gaps:
        if not 1 <= g < cmap.size:
            raise ValueError(f"gap {g} outside [1, {cmap.size})")
    return LocalityReport(
        kind=cmap.kind,
        order=cmap.order,
        rows=tuple(_gap_stats(cmap, g) for g in gaps),
        jump_count=int(jump_positions(cmap).size),
    )


def compare_curves(order: int, gaps) -> list[LocalityReport]:
    """One profile per curve kind, identical gap set."""
    return [worst_case_profile(build_curve(kind, order), gaps) for kind in CurveKind]


def reports_to_csv(reports) -> str:
    """One row per (kind, gap), fixed column order, header included."""
    out = [CSV_HEADER]
    for rep in reports:
        for row in rep.rows:
            out.append(
                f"{rep.kind.name.lower()},{rep.order},{row.gap},{row.worst_inf},"
                f"{row.worst_l1},{row.worst_l2:.9g},{row.mean_inf:.9g},"
                f"{row.ratio_sqrt:.9g},{row.ratio_lin:.9g},{rep.jump_count}"
            )
    return "\n".join(out) + "\n"


def reports_to_text(reports) -> str:
    """Aligned plain-text table of the same rows as the CSV form."""
    cols = CSV_HEADER.split(",")
    table = [cols]
    for rep in reports:
        for row in rep.rows:
            table.append([
                rep.kind.name.lower(), str(rep.order), str(row.gap), str(row.worst_inf),
                str(row.worst_l1), f"{row.worst_l2:.3f}", f"{row.mean_inf:.3f}",
                f"{row.ratio_sqrt:.3f}", f"{row.ratio_lin:.3f}", str(rep.jump_count),
            ])
    widths = [max(len(r[c]) for r in table) for c in range(len(cols))]
    buf = io.StringIO()
    for r in table:
        buf.write("  ".join(v.rjust(w) for v, w in zip(r, widths)).rstrip() + "\n")
    return buf.getvalue()
