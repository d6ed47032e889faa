"""Batch sampling and macroscopic observables.

A batch draws N i.i.d. triples (i, j, j') from one coupling and averages
them into A, B, B'.  Bob's weak measurement is modeled as independent
additive Gaussian noise on B and B' (the batch means, not the pairs).

Randomness is counter-based: batch b of stream s under seed k reads its
uniforms from a fixed window of the Philox stream keyed (k, s, b // 4096),
so any execution order, serial or parallel, reproduces the same values.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy.special import ndtri

from .coupling import I_VALUES, J_VALUES, JP_VALUES, TripleCoupling

CHUNK = 4096
#: Row r marks the cells where i, j, j' (r = 0, 1, 2) take the outcome +1.
_PLUS_ONE = (np.stack([I_VALUES, J_VALUES, JP_VALUES]) > 0).astype(np.int64)
_MAX_SEED = 2**64


class Strategy(enum.Enum):
    ALWAYS_A = "always_a"
    ALWAYS_APRIME = "always_aprime"


#: Stream identifiers keep the two strategies on disjoint Philox keys.
STRATEGY_STREAM = {Strategy.ALWAYS_A: 0, Strategy.ALWAYS_APRIME: 1}


@dataclass(frozen=True)
class BatchConfig:
    n_pairs: int
    alice_strategy: Strategy
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_pairs, int) or self.n_pairs < 1:
            raise ValueError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviation of the additive Gaussian read-out noise on B and B'."""

    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be a nonnegative real, got {self.sigma!r}")


@dataclass(frozen=True)
class MacroObservation:
    a_mean: float
    b_mean: float
    bp_mean: float
    noisy_b: float
    noisy_bp: float


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: tuple[float, ...]
    mean: float
    variance: float  # unbiased; NaN when only one sample
    count: int

    @property
    def variance_defined(self) -> bool:
        return self.count >= 2


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

    def observation(self, row: int) -> MacroObservation:
        return MacroObservation(
            a_mean=float(self.a_mean[row]),
            b_mean=float(self.b_mean[row]),
            bp_mean=float(self.bp_mean[row]),
            noisy_b=float(self.noisy_b[row]),
            noisy_bp=float(self.noisy_bp[row]),
        )

    def observations(self) -> list[MacroObservation]:
        return [self.observation(r) for r in range(len(self))]


def _chunk_key(seed: int, stream: int, chunk_index: int) -> list[int]:
    if chunk_index >= 2**32:
        raise ValueError("batch index out of range for the stream layout")
    return [seed, (stream << 32) | chunk_index]


def _chunk_uniforms(seed: int, stream: int, chunk_index: int, n_cols: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=_chunk_key(seed, stream, chunk_index)))
    return rng.random((CHUNK, n_cols))


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
    pure function of (seed, stream, index, coupling, n_pairs, sigma).
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
    # cdf[k] bounds cell k; pairs past cdf[6] (mass-deficit rounding) land in cell 7
    cdf = np.cumsum(pmf)[:7]
    n_cols = n_pairs + 2
    out = {name: np.empty(n_batches) for name in ("a", "b", "bp", "nb", "nbp")}
    filled = 0
    index = start
    while filled < n_batches:
        chunk_index, offset = divmod(index, CHUNK)
        take = min(CHUNK - offset, n_batches - filled)
        u = _chunk_uniforms(seed, stream, chunk_index, n_cols)[offset : offset + take]
        pairs = u[:, :n_pairs]
        # pairs per batch in cells 0..k (the cdf is nondecreasing), then per cell
        at_most = [np.count_nonzero(pairs < bound, axis=1) for bound in cdf]
        counts = np.diff(np.stack(at_most + [np.full(take, n_pairs)]), axis=0, prepend=0)
        # a +/-1 mean is (2n - N) / N exactly, as the summed mean was
        a, b, bp = (2 * (_PLUS_ONE @ counts) - n_pairs) / n_pairs
        out["a"][filled : filled + take] = a
        out["b"][filled : filled + take] = b
        out["bp"][filled : filled + take] = bp
        if noise.sigma > 0:
            z = ndtri(np.clip(u[:, n_pairs:], 1e-300, None))
            out["nb"][filled : filled + take] = (
                out["b"][filled : filled + take] + noise.sigma * z[:, 0]
            )
            out["nbp"][filled : filled + take] = (
                out["bp"][filled : filled + take] + noise.sigma * z[:, 1]
            )
        else:
            out["nb"][filled : filled + take] = out["b"][filled : filled + take]
            out["nbp"][filled : filled + take] = out["bp"][filled : filled + take]
        filled += take
        index += take
    return BatchArrays(
        a_mean=out["a"], b_mean=out["b"], bp_mean=out["bp"], noisy_b=out["nb"], noisy_bp=out["nbp"]
    )


def sample_batch(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    cfg: BatchConfig,
    noise: NoiseModel,
) -> MacroObservation:
    """One batch under the configured strategy (batch index 0 of its stream)."""
    coupling = k_a if cfg.alice_strategy is Strategy.ALWAYS_A else k_ap
    arrays = sample_batches(
        coupling,
        cfg.n_pairs,
        1,
        noise,
        cfg.seed,
        stream=STRATEGY_STREAM[cfg.alice_strategy],
    )
    return arrays.observation(0)


def batch_lattice(n_pairs: int) -> np.ndarray:
    """The N+1 possible values of a batch mean, in the same float rounding
    as the sample means (integer sum divided by N)."""
    return np.array([(n_pairs - 2 * n) / n_pairs for n in range(n_pairs + 1)])


def a_distribution(n_pairs: int) -> dict[float, float]:
    """Exact binomial law of A: P(A = (N-2n)/N) = C(N,n) / 2^N."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    scale = 2.0**-n_pairs
    return {
        (n_pairs - 2 * n) / n_pairs: math.comb(n_pairs, n) * scale
        for n in range(n_pairs + 1)
    }


def parallelogram_residuals(b_mean: np.ndarray, bp_mean: np.ndarray) -> np.ndarray:
    """(B+B')^2 + (B-B')^2 - 2B^2 - 2B'^2, zero up to rounding for any reals."""
    b = np.asarray(b_mean, dtype=float)
    bp = np.asarray(bp_mean, dtype=float)
    return (b + bp) ** 2 + (b - bp) ** 2 - 2.0 * b**2 - 2.0 * bp**2


def parallelogram_check(obs: MacroObservation) -> float:
    """Residual of the parallelogram identity on the noiseless means."""
    return float(parallelogram_residuals(np.array([obs.b_mean]), np.array([obs.bp_mean]))[0])


def mean_square_check(observations: Sequence[MacroObservation], n_pairs: int) -> MeanSquareReport:
    """Compare the estimated <B^2>, <B'^2> with 1/N (i.i.d. pairs make the
    cross-terms vanish).  Needs at least 100 observations for the z-score
    to mean anything."""
    if len(observations) < 100:
        raise ValueError(f"need at least 100 observations, got {len(observations)}")
    b2 = np.array([o.b_mean for o in observations]) ** 2
    bp2 = np.array([o.bp_mean for o in observations]) ** 2
    expected = 1.0 / n_pairs
    count = len(observations)
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


def empirical(samples: Iterable[float]) -> EmpiricalDistribution:
    values = tuple(float(s) for s in samples)
    if not values:
        raise ValueError("need at least one sample")
    arr = np.array(values)
    variance = float(arr.var(ddof=1)) if len(values) >= 2 else math.nan
    return EmpiricalDistribution(
        samples=values, mean=float(arr.mean()), variance=variance, count=len(values)
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

BATCH_CSV_HEADER = "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"


def write_batches_csv(
    stream: TextIO,
    arrays: BatchArrays,
    strategy: Strategy,
    n_pairs: int,
    seed: int,
    start_index: int = 0,
) -> None:
    """Batch dump with floating-point fields at 17 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BATCH_CSV_HEADER.split(","))
    for row in range(len(arrays)):
        obs = arrays.observation(row)
        writer.writerow(
            [
                start_index + row,
                strategy.value,
                n_pairs,
                f"{obs.a_mean:.17g}",
                f"{obs.b_mean:.17g}",
                f"{obs.bp_mean:.17g}",
                f"{obs.noisy_b:.17g}",
                f"{obs.noisy_bp:.17g}",
                seed,
            ]
        )
