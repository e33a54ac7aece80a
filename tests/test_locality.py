"""Distance-vs-gap profiles and their serialization."""

import math

import numpy as np
import pytest

from sfcaudio import locality
from sfcaudio.curves import MAX_ORDER, CurveKind, build_curve
from sfcaudio.locality import (
    CSV_HEADER,
    GapStats,
    compare_curves,
    grid_distance,
    reports_to_csv,
    reports_to_text,
    worst_case_profile,
)

# measured once over the exhaustive order-6 scan and frozen; the
# continuous hierarchical curves stay under a constant times sqrt(gap)
H_RATIO_SQRT_MAX_K6 = 1.9375
Z_RATIO_SQRT_MAX_K6 = 63.0
GAPS = [1, 4, 16, 64, 256]


def test_distance_is_zero_on_equal_indices():
    cm = build_curve(CurveKind.GRAY, 3)
    for p in (1, 2, math.inf):
        assert grid_distance(cm, 17, 17, p) == 0.0


def test_hilbert_consecutive_l1_is_one():
    cm = build_curve(CurveKind.HILBERT, 4)
    assert all(grid_distance(cm, i, i + 1, 1) == 1.0 for i in range(len(cm) - 1))


def test_sweep_row_boundary_distance():
    cm = build_curve(CurveKind.SWEEP, 3)
    assert grid_distance(cm, 7, 8, math.inf) == 7.0


def test_distance_validation():
    cm = build_curve(CurveKind.Z, 2)
    with pytest.raises(IndexError):
        grid_distance(cm, 0, 16, 2)
    with pytest.raises(ValueError, match="norm"):
        grid_distance(cm, 0, 1, 3)


def test_distance_symmetry_and_triangle():
    cm = build_curve(CurveKind.Z, 4)
    rng = np.random.default_rng(11)
    for _ in range(200):
        i, j, k = rng.integers(0, len(cm), size=3)
        for p in (1, 2, math.inf):
            assert grid_distance(cm, i, j, p) == grid_distance(cm, j, i, p)
            assert grid_distance(cm, i, k, p) <= (
                grid_distance(cm, i, j, p) + grid_distance(cm, j, k, p) + 1e-12
            )


def test_order1_profile_matches_hand_enumeration():
    # z order 1 visits (0,0),(0,1),(1,0),(1,1); small enough to check by hand
    rep = worst_case_profile(build_curve(CurveKind.Z, 1), [1, 2, 3])
    by_gap = {r.gap: r for r in rep.rows}
    assert (by_gap[1].worst_inf, by_gap[1].worst_l1) == (1, 2)
    assert by_gap[1].worst_l2 == pytest.approx(math.sqrt(2))
    assert by_gap[1].mean_inf == 1.0
    assert (by_gap[2].worst_inf, by_gap[2].worst_l1) == (1, 1)
    assert (by_gap[3].worst_inf, by_gap[3].worst_l1) == (1, 2)
    assert rep.jump_count == 0


def test_profile_worst_inf_examples_k6():
    assert worst_case_profile(build_curve(CurveKind.H, 6), [1]).rows[0].worst_inf == 1
    assert worst_case_profile(build_curve(CurveKind.SWEEP, 6), [1]).rows[0].worst_inf == 63


def test_frozen_ratio_fixtures_k6():
    h = worst_case_profile(build_curve(CurveKind.H, 6), GAPS)
    z = worst_case_profile(build_curve(CurveKind.Z, 6), GAPS)
    assert [r.worst_inf for r in h.rows] == [1, 3, 7, 15, 31]
    assert max(r.ratio_sqrt for r in h.rows) == pytest.approx(H_RATIO_SQRT_MAX_K6, abs=1e-12)
    assert max(r.ratio_sqrt for r in z.rows) == pytest.approx(Z_RATIO_SQRT_MAX_K6, abs=1e-12)
    # with the worst case growing like sqrt(gap), worst/gap must shrink
    for rep in (h, z):
        lins = [r.ratio_lin for r in rep.rows]
        assert all(a > b for a, b in zip(lins, lins[1:]))


def test_scan_stretches_linearly():
    rep = worst_case_profile(build_curve(CurveKind.SCAN, 6), GAPS)
    for row in rep.rows:
        if row.gap < 64:
            assert row.worst_inf >= row.gap


@pytest.mark.parametrize("kind", list(CurveKind))
def test_worst_inf_bounds(kind):
    cm = build_curve(kind, 4)
    rep = worst_case_profile(cm, [1, 5, 17])
    for row in rep.rows:
        assert 1 <= row.worst_inf <= cm.n - 1


def test_profile_validation():
    cm = build_curve(CurveKind.Z, 2)
    with pytest.raises(ValueError, match="empty"):
        worst_case_profile(cm, [])
    with pytest.raises(ValueError, match="gap"):
        worst_case_profile(cm, [16])
    with pytest.raises(ValueError, match="gap"):
        worst_case_profile(cm, [0])


def one_shot_stats(cm, gap):
    """Every pair (i, i+gap) at once, in int64 and float64."""
    xs = cm.xs.astype(np.int64)
    ys = cm.ys.astype(np.int64)
    dx = np.abs(xs[gap:] - xs[:-gap])
    dy = np.abs(ys[gap:] - ys[:-gap])
    inf = np.maximum(dx, dy)
    worst_inf = int(inf.max())
    return GapStats(
        gap=gap,
        worst_inf=worst_inf,
        worst_l1=int((dx + dy).max()),
        worst_l2=float(np.sqrt(float((dx * dx + dy * dy).max()))),
        mean_inf=float(inf.mean()),
        ratio_sqrt=worst_inf / math.sqrt(gap),
        ratio_lin=worst_inf / gap,
    )


@pytest.mark.parametrize("kind", list(CurveKind))
def test_chunked_scan_matches_one_shot(kind, monkeypatch):
    cm = build_curve(kind, 5)
    gaps = [1, 3, 100, 1000, 1023]
    want = [one_shot_stats(cm, g) for g in gaps]
    assert list(worst_case_profile(cm, gaps).rows) == want
    monkeypatch.setattr(locality, "_CHUNK", 37)  # blocks that split every gap
    assert list(worst_case_profile(cm, gaps).rows) == want


def test_compare_curves_covers_all_kinds():
    reports = compare_curves(3, [1])
    assert [r.kind for r in reports] == list(CurveKind)
    jumps = {r.kind: r.jump_count for r in reports}
    assert jumps[CurveKind.HILBERT] == 0
    assert jumps[CurveKind.SCAN] == 0
    assert jumps[CurveKind.DIAGONAL] == 0
    assert jumps[CurveKind.SWEEP] == 7


def test_compare_curves_order_cap():
    with pytest.raises(ValueError, match="order"):
        compare_curves(MAX_ORDER + 1, [1])


def test_csv_serialization():
    reports = compare_curves(2, [1, 3])
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 8 * 2
    first = lines[1].split(",")
    assert first[0] == "hilbert" and first[1] == "2" and first[2] == "1"
    assert first[3] == "1"  # hilbert worst_inf at gap 1


def test_text_serialization_alignment():
    text = reports_to_text(compare_curves(2, [1]))
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 8
    assert lines[0].split() == CSV_HEADER.split(",")
