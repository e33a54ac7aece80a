"""Fold/convolve/unfold pipeline and the shift-equivariance sweep."""

import itertools
import tracemalloc

import numpy as np
import pytest

from sfcaudio import equivariance
from sfcaudio.curves import CurveKind, get_curve, index_to_point
from sfcaudio.equivariance import (
    WITNESS_CSV_HEADER,
    EquivarianceWitness,
    Kernel,
    _draw_inputs,
    check_equivariance,
    circular_shift,
    fold,
    replay_witness,
    strided_conv,
    sweep_lemma,
    sweep_to_text,
    unfold,
    witnesses_to_csv,
)


def naive_pipeline(seq, kind, k, weights, d):
    """Loop-built reference for one arm-A run: rotate, fold, convolve, unfold."""
    b = weights.shape[0]
    l = b.bit_length() - 1
    n = 1 << k
    seq = np.roll(seq, -(d << (2 * l)))
    grid = np.zeros((n, n))
    cm = get_curve(kind, k)
    for t in range(n * n):
        x, y = index_to_point(cm, t)
        grid[y, x] = seq[t]
    m = n // b
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            for u in range(b):
                for v in range(b):
                    out[i, j] += weights[u, v] * grid[i * b + u, j * b + v]
    cm2 = get_curve(kind, k - l)
    res = np.empty(m * m)
    for t in range(m * m):
        x, y = index_to_point(cm2, t)
        res[t] = out[y, x]
    return res


# --- primitives ------------------------------------------------------------------

def test_circular_shift_semantics():
    s = np.array([10, 11, 12, 13])
    assert circular_shift(s, 1).tolist() == [11, 12, 13, 10]
    assert circular_shift(s, 0).tolist() == s.tolist()
    assert circular_shift(s, 4).tolist() == s.tolist()
    assert circular_shift(s, -1).tolist() == [13, 10, 11, 12]
    # output[i] = input[(i + r) mod n]
    for r in range(8):
        out = circular_shift(s, r)
        assert all(out[i] == s[(i + r) % 4] for i in range(4))


def test_fold_unfold_inverse_every_kind():
    rng = np.random.default_rng(0)
    for kind in CurveKind:
        seq = rng.uniform(-1, 1, 64)
        assert np.array_equal(unfold(fold(seq, kind, 3)), seq)


def test_fold_rejects_partial_sequences():
    with pytest.raises(ValueError, match="exactly"):
        fold(np.zeros(63), CurveKind.Z, 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fold_rejects_non_finite_samples(value):
    seq = np.zeros(64)
    seq[[41, 50]] = value
    with pytest.raises(ValueError, match=f"non-finite sample {value} at index 41"):
        fold(seq, CurveKind.Z, 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_equivariance_inputs_must_be_finite(value):
    seq = np.arange(16.0)
    seq[3] = value
    with pytest.raises(ValueError, match=f"non-finite sample {value} at index 3"):
        check_equivariance(CurveKind.Z, 2, Kernel(1, np.ones((2, 2))), seq, 1)
    weights = np.ones((2, 2))
    weights[1, 0] = value
    with pytest.raises(ValueError, match=f"non-finite weight {value} at flat index 2"):
        Kernel(1, weights)


def test_kernel_validation():
    with pytest.raises(ValueError, match="order"):
        Kernel(order=0, weights=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="2x2"):
        Kernel(order=1, weights=np.zeros((3, 3)))
    kernel = Kernel(order=1, weights=np.ones((2, 2)))
    with pytest.raises(ValueError):
        kernel.weights[0, 0] = 5.0
    assert kernel.side == 2


def test_strided_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    image = fold(rng.uniform(-1, 1, 256), CurveKind.HILBERT, 4)
    weights = rng.uniform(-1, 1, (4, 4))
    got = strided_conv(image, Kernel(order=2, weights=weights))
    want = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            want[i, j] = np.sum(image.pixels[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] * weights)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert got.shape == (4, 4)


def test_strided_conv_ones_kernel_sums_blocks():
    image = fold(np.arange(16.0), CurveKind.SWEEP, 2)
    out = strided_conv(image, Kernel(order=1, weights=np.ones((2, 2))))
    # sweep fold is row-major, so block sums are exact small integers
    assert out.tolist() == [[0 + 1 + 4 + 5, 2 + 3 + 6 + 7], [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]]


def test_strided_conv_requires_smaller_kernel():
    image = fold(np.zeros(16), CurveKind.Z, 2)
    with pytest.raises(ValueError, match="kernel order"):
        strided_conv(image, Kernel(order=2, weights=np.zeros((4, 4))))


# --- the read-index table ----------------------------------------------------------

@pytest.mark.parametrize("kind", list(CurveKind), ids=lambda kind: kind.name.lower())
def test_read_index_is_the_folded_index_grid_read_at_the_coarse_curve(kind):
    """reads[b, u, c] is the index that fold lays at row b, column c of output u's block."""
    for k in range(2, 6):
        pixels = fold(np.arange(1 << (2 * k)), kind, k).pixels
        for l in range(1, k):
            m, side = 1 << (k - l), 1 << l
            coarse = get_curve(kind, k - l)
            want = pixels.reshape(m, side, m, side)[coarse.ys, :, coarse.xs, :]  # [u, b, c]
            reads = equivariance._read_index(kind, k, l)
            assert reads.dtype == np.intp and reads.shape == (side, m * m, side)
            assert np.array_equal(reads, want.transpose(1, 0, 2)), (k, l)


def read_offsets(kind, k, l):
    """D(u) = reads[:, u, :] - u*4^l mod 4^k: where output u reads, relative to its own stride."""
    reads = equivariance._read_index(kind, k, l)
    return (reads - (np.arange(reads.shape[1]) << (2 * l))[:, None]) % (1 << (2 * k))


def closed_form_period_log2(kind, m):
    """j at m = k - l: D(u) = D(u + 2^j) for all u, and no smaller power of two is a period."""
    return {CurveKind.Z: 0, CurveKind.GRAY: 1, CurveKind.SWEEP: m, CurveKind.SCAN: m + 1}.get(kind, 2 * m)


def offset_period_log2(offsets):
    """The least j with offsets[:, u] == offsets[:, u + 2^j mod outputs] for every u."""
    return next(j for j in itertools.count() if (np.roll(offsets, -(1 << j), axis=1) == offsets).all())


def test_z_reads_every_output_at_the_same_offsets():
    """z reads every output at the same offsets (j = 0); each curve's offsets repeat every 2^j outputs.

    j at m = k - l is 1 for gray, m for sweep and m + 1 for scan; hilbert, h,
    optr and diagonal have j = 2m, so only the whole 4^m outputs are a period.
    """
    for kind, k in itertools.product(CurveKind, range(2, 9)):
        for l in range(1, k):
            got = offset_period_log2(read_offsets(kind, k, l))
            assert got == closed_form_period_log2(kind, k - l), (kind, k, l)


@pytest.mark.parametrize("kind", list(CurveKind), ids=lambda kind: kind.name.lower())
def test_a_shift_holds_exactly_on_the_multiples_of_the_period(kind):
    """A real-valued check is exact (0.0) for every d that 2^j divides and misses every other d."""
    rng = np.random.default_rng(20)
    for k in range(2, 6):
        for l in range(1, k):
            seq, kernel = _draw_inputs(rng, k, l, real_valued=True)
            reads = equivariance._read_index(kind, k, l)
            diffs = equivariance._shift_differences(reads, kernel, seq, range(reads.shape[1]))
            period = 1 << closed_form_period_log2(kind, k - l)
            assert np.array_equal(diffs == 0.0, np.arange(diffs.size) % period == 0), (k, l)


# --- single checks ----------------------------------------------------------------

def test_check_matches_naive_pipeline():
    rng = np.random.default_rng(2)
    for real_valued, kind in itertools.product(
        (False, True), (CurveKind.Z, CurveKind.HILBERT, CurveKind.DIAGONAL)
    ):
        seq, kernel = _draw_inputs(rng, 3, 1, real_valued)
        weights = kernel.weights
        base = naive_pipeline(seq, kind, 3, weights, 0)
        for d in range(16):
            w = check_equivariance(kind, 3, kernel, seq, d)
            diff = float(np.max(np.abs(naive_pipeline(seq, kind, 3, weights, d) - np.roll(base, -d))))
            if real_valued:  # the loop reference sums in another order than einsum
                assert w.max_abs_difference == pytest.approx(diff, rel=1e-12, abs=1e-12)
            else:
                assert w.max_abs_difference == diff
            assert w.holds == (diff == 0.0) == (w.max_abs_difference == 0.0)


def test_z_holds_exhaustively_small_orders():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        for l in range(1, k):
            seq = rng.integers(-8, 9, 1 << (2 * k)).astype(np.float64)
            weights = rng.integers(-8, 9, (1 << l, 1 << l)).astype(np.float64)
            kernel = Kernel(order=l, weights=weights)
            for d in range(1 << (2 * (k - l))):
                w = check_equivariance(CurveKind.Z, k, kernel, seq, d)
                assert w.holds and w.max_abs_difference == 0.0


def test_z_holds_with_real_inputs():
    rng = np.random.default_rng(4)
    seq = rng.uniform(-1, 1, 256)
    kernel = Kernel(order=1, weights=rng.uniform(-1, 1, (2, 2)))
    for d in range(0, 64, 7):
        assert check_equivariance(CurveKind.Z, 4, kernel, seq, d).holds


def test_zero_shift_holds_for_every_kind():
    rng = np.random.default_rng(5)
    seq = rng.integers(-8, 9, 64).astype(np.float64)
    kernel = Kernel(order=1, weights=rng.integers(-8, 9, (2, 2)).astype(np.float64))
    for kind in CurveKind:
        w = check_equivariance(kind, 3, kernel, seq, 0)
        assert w.holds and w.max_abs_difference == 0.0


def test_hilbert_breaks_for_some_shift():
    rng = np.random.default_rng(6)
    seq = rng.integers(-8, 9, 64).astype(np.float64)
    kernel = Kernel(order=1, weights=rng.integers(-8, 9, (2, 2)).astype(np.float64))
    failures = [d for d in range(16)
                if not check_equivariance(CurveKind.HILBERT, 3, kernel, seq, d).holds]
    assert failures, "expected at least one failing shift multiplier"


def test_tiny_differences_are_failures():
    """Equality is exact: a difference far below any float tolerance still fails."""
    rng = np.random.default_rng(6)
    seq = rng.uniform(-1, 1, 64) * 1e-12
    kernel = Kernel(order=1, weights=rng.uniform(-1, 1, (2, 2)))
    witnesses = [check_equivariance(CurveKind.HILBERT, 3, kernel, seq, d) for d in range(16)]
    tiny = [w for w in witnesses if 0.0 < w.max_abs_difference < 1e-9]
    assert tiny and not any(w.holds for w in tiny)


def test_check_validation():
    kernel = Kernel(order=1, weights=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="kernel order"):
        check_equivariance(CurveKind.Z, 1, kernel, np.zeros(4), 0)
    with pytest.raises(ValueError, match="outside"):
        check_equivariance(CurveKind.Z, 2, kernel, np.zeros(16), 4)
    with pytest.raises(ValueError, match="outside"):
        check_equivariance(CurveKind.Z, 2, kernel, np.zeros(16), -1)


# --- sweeps -----------------------------------------------------------------------

def test_sweep_z_all_hold():
    sweep = sweep_lemma(CurveKind.Z, range(2, 4), range(1, 3), trials=5, seed=0)
    assert sweep.all_hold
    assert [(c.k, c.l) for c in sweep.cells] == [(2, 1), (3, 1), (3, 2)]
    for c in sweep.cells:
        assert c.checks == 5 * (1 << (2 * (c.k - c.l)))
        assert c.failures == 0
        assert c.max_abs_difference == 0.0
        assert c.first_failure is None
    assert sweep.total_checks == 5 * (4 + 16 + 4)


def test_sweep_z_real_valued():
    sweep = sweep_lemma(CurveKind.Z, [3], [1], trials=3, seed=1, real_valued=True)
    assert sweep.all_hold and sweep.real_valued


def test_sweep_hilbert_finds_failures():
    sweep = sweep_lemma(CurveKind.HILBERT, [3], [1], trials=3, seed=0)
    assert not sweep.all_hold
    cell = sweep.cells[0]
    assert cell.failures > 0
    assert cell.first_failure is not None and not cell.first_failure.holds
    assert cell.max_abs_difference > 0


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("kind", [CurveKind.Z, CurveKind.HILBERT, CurveKind.GRAY])
@pytest.mark.parametrize("k,l", [(3, 1), (4, 2)])
def test_sweep_matches_check_loop(kind, k, l, real_valued, monkeypatch):
    """The blocked sweep gives the verdicts of one check per (trial, d), at any block size."""
    trials, seed = 3, 12
    sweep = sweep_lemma(kind, [k], [l], trials=trials, seed=seed, real_valued=real_valued)
    monkeypatch.setattr(equivariance, "_SWEEP_BLOCK", 1)  # every shift is its own block
    assert sweep_lemma(kind, [k], [l], trials=trials, seed=seed, real_valued=real_valued) == sweep
    cell = sweep.cells[0]
    witnesses = []
    for trial_seed in np.random.SeedSequence(seed).generate_state(trials):
        seq, kernel = _draw_inputs(np.random.default_rng(int(trial_seed)), k, l, real_valued)
        witnesses += [check_equivariance(kind, k, kernel, seq, d, seed=int(trial_seed))
                      for d in range(1 << (2 * (k - l)))]
    failures = [w for w in witnesses if not w.holds]
    assert cell.checks == len(witnesses)
    assert cell.failures == len(failures)
    assert cell.first_failure == (failures[0] if failures else None)
    # the first witness of greatest difference, as the sweep keeps it
    assert cell.worst == max(witnesses, key=lambda w: w.max_abs_difference)
    assert all(w.holds == (w.max_abs_difference == 0.0) for w in witnesses)


def test_sweep_memory_is_bounded_by_the_block():
    """One trial at k=7, l=1 runs 4096 arms of 16384 cells; blocks keep it to a few MiB."""
    # the sweep reads the order-7 inverse and the order-6 xs/ys; build them outside the trace
    get_curve(CurveKind.Z, 7).inverse, get_curve(CurveKind.Z, 6)
    tracemalloc.start()
    try:
        sweep = sweep_lemma(CurveKind.Z, [7], [1], trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.all_hold and sweep.total_checks == 4096
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"  # one unblocked batch is 512 MiB


def test_sweep_deterministic():
    a = sweep_lemma(CurveKind.GRAY, [3], [1], trials=4, seed=9)
    b = sweep_lemma(CurveKind.GRAY, [3], [1], trials=4, seed=9)
    assert a == b


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least one"):
        sweep_lemma(CurveKind.Z, [2], [2], trials=5)
    with pytest.raises(ValueError, match="trials"):
        sweep_lemma(CurveKind.Z, [2], [1], trials=0)


def test_replay_reproduces_witness():
    sweep = sweep_lemma(CurveKind.HILBERT, [3], [1], trials=3, seed=0)
    w = sweep.cells[0].first_failure
    again = replay_witness(w)
    assert again == w
    with pytest.raises(ValueError, match="seed"):
        replay_witness(EquivarianceWitness(CurveKind.Z, 2, 1, 0, None, 0.0, True))


def test_replay_reproduces_real_valued_witnesses():
    cell = sweep_lemma(CurveKind.HILBERT, [3], [1], trials=2, seed=0, real_valued=True).cells[0]
    for w in (cell.first_failure, cell.worst):
        assert replay_witness(w, real_valued=True) == w
    # the witness does not record its input kind: a default replay redraws integer inputs
    assert replay_witness(cell.first_failure) != cell.first_failure


# --- serialization ----------------------------------------------------------------

def test_witness_csv():
    w = EquivarianceWitness(CurveKind.HILBERT, 3, 1, 5, 42, 12.0, False)
    text = witnesses_to_csv([w])
    lines = text.strip().split("\n")
    assert lines[0] == WITNESS_CSV_HEADER
    assert lines[1] == "hilbert,3,1,5,42,12,false"


def test_witness_csv_roundtrips_float():
    w = EquivarianceWitness(CurveKind.Z, 3, 1, 0, 1, 0.1 + 0.2, False)
    value = w.csv_row().split(",")[5]
    assert float(value) == 0.1 + 0.2


def test_sweep_text_verdicts():
    ok = sweep_to_text(sweep_lemma(CurveKind.Z, [2], [1], trials=2, seed=0))
    assert "not a proof" in ok and "curve=z" in ok
    bad = sweep_to_text(sweep_lemma(CurveKind.HILBERT, [3], [1], trials=2, seed=0))
    assert "FAILED" in bad
