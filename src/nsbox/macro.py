"""Batch sampling and macroscopic observables.

A batch draws N i.i.d. triples (i, j, j') from one coupling and averages
them into A, B, B'.  Bob's weak measurement is modeled as independent
additive Gaussian noise on B and B' (the batch means, not the pairs).

Randomness is counter-based: batch b of stream s under seed k reads its
uniforms from a fixed window of the Philox stream keyed (k, s, b // 4096),
so any execution order, serial or parallel, reproduces the same values.
A draw is cut into cache-sized units of rows; each unit reads its own
window, counts its cells and writes its own rows, and large draws spread
the units over the available cores with the same bits on any core count.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Sequence, TextIO

import numpy as np

from .coupling import CORR_TOL, I_VALUES, J_VALUES, JP_VALUES, TripleCoupling

CHUNK = 4096
#: A unit of a draw holds at most this many uniforms: 2 MB, cache-sized.
_UNIT_UNIFORMS = 2**18
#: Draws of fewer uniforms than this stay on the calling thread.
_PARALLEL_UNIFORMS = 2**20
#: Row r marks the cells where i, j, j' (r = 0, 1, 2) take the outcome +1.
_PLUS_ONE = (np.stack([I_VALUES, J_VALUES, JP_VALUES]) > 0).astype(np.int64)
_MAX_SEED = 2**64


class Strategy(enum.Enum):
    ALWAYS_A = "always_a"
    ALWAYS_APRIME = "always_aprime"


#: Stream identifiers keep the two strategies on disjoint Philox keys.
STRATEGY_STREAM = {Strategy.ALWAYS_A: 0, Strategy.ALWAYS_APRIME: 1}


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviation of the additive Gaussian read-out noise on B and B'."""

    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be a nonnegative real, got {self.sigma!r}")


@dataclass(frozen=True)
class MeanSquareReport:
    """Estimates of <B^2> and <B'^2> against the 1/N law for uncorrelated pairs."""

    expected: float
    estimate_b2: float
    estimate_bp2: float
    se_b2: float
    se_bp2: float
    z_b2: float
    z_bp2: float
    count: int


@dataclass(frozen=True)
class BatchArrays:
    """Column view of many batches; rows align across all five arrays."""

    a_mean: np.ndarray
    b_mean: np.ndarray
    bp_mean: np.ndarray
    noisy_b: np.ndarray
    noisy_bp: np.ndarray

    def __len__(self) -> int:
        return len(self.a_mean)


def _chunk_key(seed: int, stream: int, chunk_index: int) -> list[int]:
    if chunk_index >= 2**32:
        raise ValueError("batch index out of range for the stream layout")
    return [seed, (stream << 32) | chunk_index]


def _chunk_uniforms(
    seed: int, stream: int, chunk_index: int, n_cols: int, offset: int = 0, rows: int = CHUNK
) -> np.ndarray:
    """Rows offset..offset+rows-1 of the chunk, skipping 4-uniform Philox blocks whole."""
    bit_generator = np.random.Philox(key=_chunk_key(seed, stream, chunk_index))
    blocks, rest = divmod(offset * n_cols, 4)
    bit_generator.advance(blocks)
    u = np.random.Generator(bit_generator).random(rest + rows * n_cols)
    return u[rest:].reshape(rows, n_cols)


def _units(start: int, n_batches: int, n_cols: int):
    """(first output row, chunk index, row offset, rows) of each unit of a draw."""
    max_rows = max(1, _UNIT_UNIFORMS // n_cols)
    filled = 0
    while filled < n_batches:
        chunk_index, offset = divmod(start + filled, CHUNK)
        take = min(CHUNK - offset, n_batches - filled, max_rows)
        yield filled, chunk_index, offset, take
        filled += take


def _fill_unit(out, bounds, slot, n_pairs, sigma, ndtri, seed, stream, unit) -> None:
    """Draw one unit's uniforms and write its rows of `out`."""
    first, chunk_index, offset, take = unit
    u = _chunk_uniforms(seed, stream, chunk_index, n_pairs + 2, offset, take)
    pairs = u[:, :n_pairs]
    below = [np.count_nonzero(pairs < bound, axis=1) for bound in bounds]
    # pairs per batch in cells 0..k (the cdf is nondecreasing), then per cell
    at_most = np.stack(below)[slot]
    counts = np.diff(at_most, axis=0, prepend=0, append=n_pairs)
    # a +/-1 mean is (2n - N) / N exactly, as the summed mean was
    a, b, bp = (2 * (_PLUS_ONE @ counts) - n_pairs) / n_pairs
    rows = slice(first, first + take)
    out.a_mean[rows], out.b_mean[rows], out.bp_mean[rows] = a, b, bp
    if sigma > 0:
        z = ndtri(np.clip(u[:, n_pairs:], 1e-300, None))
        b, bp = b + sigma * z[:, 0], bp + sigma * z[:, 1]
    out.noisy_b[rows], out.noisy_bp[rows] = b, bp


def sample_batches(
    coupling: TripleCoupling,
    n_pairs: int,
    n_batches: int,
    noise: NoiseModel,
    seed: int,
    stream: int = 0,
    start: int = 0,
) -> BatchArrays:
    """Draw many batches from one coupling; batch index fixes its randomness.

    Batches start..start+n_batches-1 of the given stream are returned, each a
    pure function of (seed, stream, index, coupling, n_pairs, sigma).  The
    draw is cut into units of rows within one chunk, at most `_UNIT_UNIFORMS`
    uniforms each, and a unit's cells are counted while its uniforms are in
    cache: one comparison pass per distinct cdf bound.  Draws of at least
    `_PARALLEL_UNIFORMS` uniforms spread their units over the available cores.
    Each unit writes only its own rows, so the outputs are bit for bit those
    of assigning each pair its cell, on any number of cores.  A pmf that is
    negative, not finite or off 1 by more than `CORR_TOL` is rejected.
    """
    if n_batches < 0:
        raise ValueError("n_batches must be nonnegative")
    if not isinstance(n_pairs, int) or n_pairs < 1:
        raise ValueError(f"n_pairs must be a positive integer, got {n_pairs!r}")
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    pmf = coupling.flat
    if not (np.all(np.isfinite(pmf)) and np.all(pmf >= 0)):
        raise ValueError(f"coupling pmf must be finite and nonnegative, got {pmf.tolist()}")
    total = float(pmf.sum())
    if abs(total - 1.0) > CORR_TOL:
        raise ValueError(f"coupling pmf must sum to 1 within {CORR_TOL}, got {total!r}")
    # cdf[k] bounds cell k; pairs past cdf[6] (a rounding-level deficit) land
    # in cell 7.  Zero-mass cells repeat a bound, which is compared only once.
    bounds, slot = np.unique(np.cumsum(pmf)[:7], return_inverse=True)
    out = BatchArrays(*(np.empty(n_batches) for _ in range(5)))
    ndtri = None
    if noise.sigma > 0 and n_batches:
        from scipy.special import ndtri  # imported here: it slows every CLI start
    fill = partial(_fill_unit, out, bounds, slot, n_pairs, noise.sigma, ndtri, seed, stream)
    units = list(_units(start, n_batches, n_pairs + 2))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(units), cores or 1)
    if workers < 2 or n_batches * (n_pairs + 2) < _PARALLEL_UNIFORMS:
        for unit in units:
            fill(unit)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only draws that repay it

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, units))
    return out


def batch_lattice(n_pairs: int) -> np.ndarray:
    """The N+1 possible values (2k - N)/N of a batch mean, ascending in k
    (the count of +1 outcomes), in the same float rounding as the sample
    means (integer sum divided by N)."""
    return np.array([(2 * k - n_pairs) / n_pairs for k in range(n_pairs + 1)])


def parallelogram_residuals(b_mean: np.ndarray, bp_mean: np.ndarray) -> np.ndarray:
    """(B+B')^2 + (B-B')^2 - 2B^2 - 2B'^2, zero up to rounding for any reals."""
    b = np.asarray(b_mean, dtype=float)
    bp = np.asarray(bp_mean, dtype=float)
    return (b + bp) ** 2 + (b - bp) ** 2 - 2.0 * b**2 - 2.0 * bp**2


def mean_square_check(arrays: BatchArrays, n_pairs: int) -> MeanSquareReport:
    """Compare the estimated <B^2>, <B'^2> of the batches' noiseless means
    with 1/N (i.i.d. pairs make the cross-terms vanish).  Needs at least 100
    batches for the z-score to mean anything."""
    count = len(arrays)
    if count < 100:
        raise ValueError(f"need at least 100 batches, got {count}")
    b2 = arrays.b_mean**2
    bp2 = arrays.bp_mean**2
    expected = 1.0 / n_pairs
    se_b2 = float(b2.std(ddof=1) / math.sqrt(count))
    se_bp2 = float(bp2.std(ddof=1) / math.sqrt(count))
    est_b2 = float(b2.mean())
    est_bp2 = float(bp2.mean())

    def z_score(estimate: float, se: float) -> float:
        diff = estimate - expected
        if se > 0:
            return diff / se
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)

    return MeanSquareReport(
        expected=expected,
        estimate_b2=est_b2,
        estimate_bp2=est_bp2,
        se_b2=se_b2,
        se_bp2=se_bp2,
        z_b2=z_score(est_b2, se_b2),
        z_bp2=z_score(est_bp2, se_bp2),
        count=count,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

BATCH_CSV_HEADER = "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"


def csv_rows(template: str, columns: Sequence[np.ndarray]) -> str:
    """``template % row`` for each row of the columns, for fields csv.writer never quotes."""
    return "".join(template % row for row in zip(*(column.tolist() for column in columns)))


def write_batches_csv(
    stream: TextIO,
    arrays: BatchArrays,
    strategy: Strategy,
    n_pairs: int,
    seed: int,
    start_index: int = 0,
) -> None:
    """Batch dump with floating-point fields at 17 significant digits."""
    index = np.arange(start_index, start_index + len(arrays))
    means = (arrays.a_mean, arrays.b_mean, arrays.bp_mean, arrays.noisy_b, arrays.noisy_bp)
    template = f"%d,{strategy.value},{n_pairs},{'%.17g,' * 5}{seed}\n"
    stream.writelines((BATCH_CSV_HEADER + "\n", csv_rows(template, (index, *means))))
