"""Shift-equivariance checks for strided block convolution over curve images.

The question under test: if a sequence is rotated by d*4^l positions,
folded onto a curve of order k, convolved with a non-overlapping
2^l x 2^l kernel, and read back along the same curve at order k-l, is
the result exactly the unrotated pipeline output rotated by d?

For the Z curve the answer is yes for every d; the bit-interleaved
layout makes block structure commute with such rotations. For curves
that rotate or reflect their sub-blocks (Hilbert, and most others) it
fails, and a seeded randomized search produces concrete witnesses.

A check holds only when the two arms are exactly equal, for integer and
real inputs alike. No tolerance is needed: when the layout commutes with
the shift, both arms apply the same weights to the same samples in the
same block cells, through the same einsum, so they agree bit for bit.

The arms for many shifts are computed together, in blocks of shifts,
with no image built: a block is one gather through the read table of
:func:`_read_index` and one einsum over the kernel taps, and its size is
capped by ``_SWEEP_BLOCK`` so that memory stays bounded at any order. A
single check is a block of the shifts 0 and d. A sweep keeps one float64
per check of a (k, l) cell: 3.3 MB at k=7, l=1 with 100 trials, 52 MB
at k=9.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .curves import CurveKind, _check_kind, get_curve
from .imaging import SfcImage
from .signal import _check_finite, _first_non_finite

WITNESS_CSV_HEADER = "kind,k,l,d,seed,max_abs_difference,holds"
_SWEEP_BLOCK = 1 << 16  # samples read per block of pipeline arms


@dataclass(frozen=True, eq=False)
class Kernel:
    """Square convolution weight block of side 2^order applied with equal stride."""

    order: int
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"kernel order must be >= 1, got {self.order}")
        side = 1 << self.order
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (side, side):
            raise ValueError(f"weights must be {side}x{side}, got shape {weights.shape}")
        bad = _first_non_finite(weights.reshape(-1))
        if bad is not None:
            raise ValueError(f"non-finite weight {weights.flat[bad]} at flat index {bad}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def side(self) -> int:
        return 1 << self.order


@dataclass(frozen=True)
class EquivarianceWitness:
    """Outcome of one shifted-vs-unshifted comparison."""

    kind: CurveKind
    k: int
    l: int
    d: int
    seed: int | None
    max_abs_difference: float
    holds: bool

    def csv_row(self) -> str:
        seed = "" if self.seed is None else str(self.seed)
        return (
            f"{self.kind.name.lower()},{self.k},{self.l},{self.d},{seed},"
            f"{self.max_abs_difference:.17g},{str(self.holds).lower()}"
        )


@dataclass(frozen=True)
class LemmaCell:
    """Aggregate over all trials and shifts at one (k, l)."""

    k: int
    l: int
    checks: int
    failures: int
    worst: EquivarianceWitness
    first_failure: EquivarianceWitness | None

    @property
    def max_abs_difference(self) -> float:
        return self.worst.max_abs_difference


@dataclass(frozen=True)
class LemmaSweep:
    kind: CurveKind
    seed: int
    trials: int
    real_valued: bool
    cells: tuple[LemmaCell, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.failures == 0 for c in self.cells)

    @property
    def total_checks(self) -> int:
        return sum(c.checks for c in self.cells)

    @property
    def total_failures(self) -> int:
        return sum(c.failures for c in self.cells)


def circular_shift(seq: np.ndarray, r: int) -> np.ndarray:
    """Rotate so output[i] = input[(i + r) mod len]; r is reduced mod len."""
    return np.roll(np.asarray(seq), -operator.index(r))


def _check_full_length(seq, k: int) -> None:
    cells = 1 << (2 * k)
    if np.shape(seq) != (cells,):
        raise ValueError(f"sequence must have exactly {cells} values, got shape {np.shape(seq)}")


def fold(seq, kind: CurveKind, k: int) -> SfcImage:
    """Lay a full-length sequence (exactly 4^k values) out on the curve."""
    _check_full_length(seq, k)
    return SfcImage(kind, k, 1 << (2 * k), seq)


def unfold(image: SfcImage) -> np.ndarray:
    """The image's full sample sequence in curve order."""
    return image.samples


def strided_conv(image: SfcImage, kernel: Kernel) -> np.ndarray:
    """Non-overlapping block dot products; output side is 2^(k-l).

    Output cell (i, j) is the weighted sum of the pixel block whose top
    left corner sits at (j*2^l, i*2^l). einsum keeps the per-cell
    summation order fixed, so equal blocks give bit-equal outputs.
    """
    if kernel.order >= image.order:
        raise ValueError(f"kernel order {kernel.order} must be < image order {image.order}")
    m = 1 << (image.order - kernel.order)
    return np.einsum("ibjc,bc->ij", image.pixels.reshape(m, kernel.side, m, kernel.side), kernel.weights)


def _read_index(kind: CurveKind, k: int, l: int) -> np.ndarray:
    """intp ``reads[b, u, c]``: the sample that kernel tap (b, c) of output u reads.

    The tap is row b, column c of the 2^l x 2^l block at the order-(k-l) point u:
    ``reads[b, u, c] = inverse_k[ys_{k-l}[u]*2^l + b, xs_{k-l}[u]*2^l + c]``.
    """
    coarse = get_curve(kind, k - l)
    taps = np.arange(1 << l)
    rows = (coarse.ys.astype(np.intp) << l) + taps[:, None]
    cols = (coarse.xs.astype(np.intp) << l)[:, None] + taps
    return get_curve(kind, k).inverse[rows[:, :, None], cols].astype(np.intp)


def _shift_differences(reads: np.ndarray, kernel: Kernel, seq: np.ndarray, shifts) -> np.ndarray:
    """max |arm A - arm B| for each rotation multiplier in ``shifts``; ``shifts[0]`` must be 0.

    Arm A for shift d rotates ``seq`` by d*4^l and runs the pipeline, so
    its output u is the sum over taps (b, c) of ``weights[b, c] *
    seq[(reads[b, u, c] + d*4^l) mod 4^k]``: one gather through
    :func:`_read_index` and one einsum per block of shifts. Arm B rotates
    the arm of ``shifts[0] = 0`` by d. Blocks read at most ``_SWEEP_BLOCK``
    samples, at least one shift each, which bounds memory at any order.
    """
    shifts = np.asarray(shifts, dtype=np.intp)
    rotated_seq = _rotations(seq, 1 << (2 * kernel.order))
    step = max(1, _SWEEP_BLOCK // reads.size)
    diffs = np.empty(shifts.size)
    rotated_base = None
    for start in range(0, shifts.size, step):
        ds = shifts[start:start + step]
        arms = np.einsum("...buc,bc->...u", np.take(rotated_seq[ds], reads, axis=1), kernel.weights)
        if rotated_base is None:  # arms[0] is the unshifted pipeline output
            rotated_base = _rotations(arms[0], 1)
        diffs[start:start + step] = np.abs(arms - rotated_base[ds]).max(axis=1)
    return diffs


def _rotations(seq: np.ndarray, step: int) -> np.ndarray:
    """Read-only view whose row d is ``circular_shift(seq, d * step)``, for d < len / step."""
    doubled = np.concatenate([seq, seq])
    item = doubled.strides[0]
    return as_strided(doubled, (seq.size // step, seq.size), (item * step, item), writeable=False)


def check_equivariance(
    kind: CurveKind,
    k: int,
    kernel: Kernel,
    seq,
    d: int,
    seed: int | None = None,
) -> EquivarianceWitness:
    """Compare the two pipeline arms for one rotation multiplier d.

    Arm A rotates the input by d*4^l before fold/convolve/unfold; arm B
    rotates the unshifted pipeline output by d; the check holds only if
    they are equal. ``seed`` is carried into the witness untouched.
    """
    kind = _check_kind(kind)
    d = operator.index(d)
    seq = np.asarray(seq, dtype=np.float64)
    l = kernel.order
    if l >= k:
        raise ValueError(f"kernel order {l} must be < image order {k}")
    out_len = 1 << (2 * (k - l))
    if not 0 <= d < out_len:
        raise ValueError(f"shift multiplier d={d} outside [0, {out_len})")
    _check_full_length(seq, k)
    _check_finite(seq)
    return _witness(kind, k, l, d, seed, _shift_differences(_read_index(kind, k, l), kernel, seq, [0, d])[1])


def _witness(kind, k, l, d, seed, diff) -> EquivarianceWitness:
    """The witness for shift d whose arms differ by at most ``diff``; holds iff that is 0."""
    diff = float(diff)
    return EquivarianceWitness(kind, k, l, int(d), seed, diff, holds=diff == 0.0)


def _draw_inputs(rng: np.random.Generator, k: int, l: int, real_valued: bool):
    cells = 1 << (2 * k)
    side = 1 << l
    if real_valued:
        seq = rng.uniform(-1.0, 1.0, size=cells)
        weights = rng.uniform(-1.0, 1.0, size=(side, side))
    else:
        seq = rng.integers(-8, 9, size=cells).astype(np.float64)
        weights = rng.integers(-8, 9, size=(side, side)).astype(np.float64)
    return seq, Kernel(order=l, weights=weights)


def replay_witness(witness: EquivarianceWitness, real_valued: bool = False) -> EquivarianceWitness:
    """Regenerate a sweep trial's inputs from its seed and rerun the check.

    A witness does not record its input kind, so one from a real-valued
    sweep replays only with ``real_valued=True``; the default redraws
    integer inputs from the same seed and checks those instead.
    """
    if witness.seed is None:
        raise ValueError("witness has no recorded seed")
    rng = np.random.default_rng(witness.seed)
    seq, kernel = _draw_inputs(rng, witness.k, witness.l, real_valued)
    return check_equivariance(witness.kind, witness.k, kernel, seq, witness.d, seed=witness.seed)


def sweep_lemma(
    kind: CurveKind,
    k_range,
    l_range,
    trials: int = 100,
    seed: int = 0,
    real_valued: bool = False,
) -> LemmaSweep:
    """Randomized verification sweep over (k, l) pairs with l < k.

    Every trial draws a fresh sequence and kernel from a per-trial seed
    derived from the master seed, then checks every rotation multiplier
    d, computing the pipeline arms in blocks of ``_SWEEP_BLOCK`` cells.
    Each (k, l) cell is read off one float64 array whose row t holds trial
    t's difference for every d (3.3 MB at k=7, l=1 with 100 trials, 52 MB
    at k=9): the counts, the worst witness (the first of the greatest
    difference) and the first failing one. Any witness can be replayed
    from its recorded seed.
    """
    kind = _check_kind(kind)
    pairs = [(k, l) for k in map(operator.index, k_range) for l in map(operator.index, l_range) if l < k]
    if not pairs or trials < 1:
        raise ValueError("need at least one (k, l) pair with l < k and trials >= 1")
    trial_seeds = np.random.SeedSequence(seed).generate_state(len(pairs) * trials).reshape(len(pairs), trials)

    cells = []
    for (k, l), seeds in zip(pairs, trial_seeds.tolist()):
        reads = _read_index(kind, k, l)
        diffs = np.empty((trials, 1 << (2 * (k - l))))
        for row, trial_seed in zip(diffs, seeds):
            seq, kernel = _draw_inputs(np.random.default_rng(trial_seed), k, l, real_valued)
            row[:] = _shift_differences(reads, kernel, seq, np.arange(row.size))
        failed = np.flatnonzero(diffs)

        def witness(flat):  # flat indexes diffs in row-major order: trial t, shift d
            t, d = divmod(flat, diffs.shape[1])
            return _witness(kind, k, l, d, seeds[t], diffs.flat[flat])

        cells.append(LemmaCell(
            k=k, l=l, checks=diffs.size, failures=failed.size,
            worst=witness(diffs.argmax()),  # numpy's argmax is the first of the greatest
            first_failure=witness(failed[0]) if failed.size else None,
        ))
    return LemmaSweep(
        kind=kind, seed=seed, trials=trials,
        real_valued=real_valued, cells=tuple(cells),
    )


def witnesses_to_csv(witnesses) -> str:
    lines = [WITNESS_CSV_HEADER]
    lines.extend(w.csv_row() for w in witnesses)
    return "\n".join(lines) + "\n"


def sweep_to_text(sweep: LemmaSweep) -> str:
    """Human-readable summary, one line per (k, l) plus a verdict line."""
    lines = [
        f"curve={sweep.kind.name.lower()} trials={sweep.trials} seed={sweep.seed} "
        f"inputs={'real' if sweep.real_valued else 'integer'}"
    ]
    for c in sweep.cells:
        lines.append(
            f"  k={c.k} l={c.l}: checks={c.checks} failures={c.failures} "
            f"max_abs_difference={c.max_abs_difference:.3g}"
        )
    if sweep.all_hold:
        lines.append(
            f"  all {sweep.total_checks} checks hold "
            f"(no witness found in {sweep.trials} trials per pair; not a proof)"
        )
    else:
        lines.append(f"  {sweep.total_failures} of {sweep.total_checks} checks FAILED")
    return "\n".join(lines) + "\n"
