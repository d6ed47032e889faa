"""The operational protocol: Alice fixes a measurement strategy, Bob reads
noisy batch means and guesses which one.

Bob decides per group of batches (all sharing Alice's strategy); the
advantage is the fraction of correct group decisions with both strategies
equally represented.  An exact small-N total-variation oracle bounds what
any detector can achieve: a single group of g batches can never beat
(1 + min(1, g * TV)) / 2, TV being the one-batch total variation between
the two observation laws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .boxes import (A, A_PRIME, CorrelationTable, _checked_instance, _checked_int,
                    _checked_real)
from .coupling import TripleCoupling, couplings_for_table
from .macro import BatchArrays, NoiseModel, _parallel_map, batch_lattice, sample_batches
from .records import Detector, SignallingReport, SweepRow, Verdict

MAX_EXACT_PAIRS = 12
TV_BLOCK, TV_TILE = 512, 256  # Simpson grid rows x columns per product
#: N sigma at or below which the noisy TV is the noise-free lattice sum to the last
#: bit: it lies in [TV_free (1 - 2 P_out), TV_free] with P_out <= 4 Phi_c(1/(N sigma)),
#: and the gap 8 Phi_c(40) is 0.0 in double precision.
TV_SEPARATED = 1.0 / 40.0
_PARALLEL_BLOCKS = 12  # fewer Simpson row blocks than this stay on the calling thread
#: Power of two by which `_simpson_grid` scales the kernel and `inner`, so that the
#: density products stay in the normal range: subnormal operands run several times
#: slower.  Where the oracle integrates (sigma > 1/480) the kernel is below
#: 1 / (sigma sqrt(2 pi)) < 192 and sum |diff| <= 2, so a scaled density stays below
#: 192**2 * 2 * 2**(2 * _TV_SCALE), about 8e305 at 500, under the largest double 1.8e308.
_TV_SCALE = 500
WILSON_Z = 1.959963984540054  # two-sided 95%
SIGNALLING_TAIL = 0.025  # largest chance tail that reads SIGNALLING
NO_SIGNALLING_WIDTH = 0.02  # CI width needed to call NO_SIGNALLING


@dataclass(frozen=True)
class ProtocolConfig:
    n_pairs: int
    repetitions: int  # batches per strategy
    noise: NoiseModel
    detector: Detector = Detector.COVARIANCE_SIGN
    postselect_threshold: float = 1.0
    group_size: int = 32  # batches per decision

    def __post_init__(self) -> None:
        # the counts are stored as Python ints, numpy integers included
        for name in ("n_pairs", "repetitions", "group_size"):
            count = _checked_int(getattr(self, name), name, "a positive integer", 1)
            object.__setattr__(self, name, count)
        _checked_instance(self.noise, "noise", NoiseModel)
        _checked_instance(self.detector, "detector", Detector)
        threshold = _checked_real(self.postselect_threshold, "postselect_threshold",
                                  "a real in (0, 1]", 0.0, 1.0, low_open=True)
        object.__setattr__(self, "postselect_threshold", threshold)
        if self.detector is Detector.COVARIANCE_SIGN and self.group_size < 2:
            raise ValueError("the covariance detector needs groups of at least 2 batches")
        if self.repetitions < self.group_size:
            raise ValueError("repetitions must cover at least one group")
        if self.detector is Detector.LIKELIHOOD and self.n_pairs > MAX_EXACT_PAIRS:
            raise ValueError(
                f"likelihood detector enumerates exact laws, needs n_pairs <= {MAX_EXACT_PAIRS}"
            )


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p, z = successes / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # rounding guard: the interval must contain the point estimate
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


def chance_tail(successes: int, trials: int) -> float:
    """P(X >= successes) for X ~ Binomial(trials, 1/2): the chance of at least
    this many correct guesses when the two laws are identical.

    Past the mode the terms fall monotonically, so they are summed from the
    first, whose log comes from `math.lgamma`, until one no longer moves the
    sum; at or below the mode the tail is one minus the mirrored upper tail.
    """
    if successes > trials:
        return 0.0
    if 2 * successes <= trials:
        return 1.0 - chance_tail(trials - successes + 1, trials)
    log_first = (math.lgamma(trials + 1) - math.lgamma(successes + 1)
                 - math.lgamma(trials - successes + 1) - trials * math.log(2.0))
    total = term = 1.0  # in units of the first term
    for k in range(successes, trials):
        term *= (trials - k) / (k + 1)
        if total + term == total:
            break
        total += term
    return math.exp(log_first) * total


def suggested_repetitions(advantage: float) -> float | None:
    """Hoeffding-style trial count to resolve the bit at 95% confidence (delta = 0.05)."""
    if advantage <= 0.5:
        return None
    return math.log(1.0 / 0.05) / (2.0 * (advantage - 0.5) ** 2)


def advantage_ceiling(tv_single: float, group_size: int) -> float:
    """Upper bound on the per-group advantage: TV is subadditive over i.i.d.
    batches, so a group of g batches carries at most tv = min(1, g*TV), and
    the best guess between two equiprobable laws at that distance is right
    with probability (1 + tv) / 2."""
    tv_single = _checked_real(tv_single, "tv_single", "a nonnegative total variation", 0.0)
    tv = min(1.0, _checked_int(group_size, "group_size", "a positive integer", 1) * tv_single)
    return (1.0 + tv) / 2.0


# ---------------------------------------------------------------------------
# Exact observation laws and total variation
# ---------------------------------------------------------------------------

def _require_valid(coupling: TripleCoupling) -> None:
    """ValueError unless the coupling is a pmf with uniform marginals within `CORR_TOL`."""
    check = coupling.validation
    if not check.ok:
        label = coupling.alice_setting.value
        raise ValueError(f"coupling under {label} is defective: {check.residuals}")


def _checked_pairs(n_pairs) -> int:
    """N as an int in [1, `MAX_EXACT_PAIRS`], the range of the exact laws."""
    return _checked_int(n_pairs, "n_pairs", f"an integer in [1, {MAX_EXACT_PAIRS}]", 1,
                        MAX_EXACT_PAIRS + 1)


@functools.lru_cache(maxsize=MAX_EXACT_PAIRS)
def _law_terms(n: int) -> tuple[np.ndarray, ...]:
    """The coupling-free terms of N's batch law, read-only: for every triple
    n1 + n2 + n3 <= N in lexicographic order, its int64 multinomial as a
    float, the flat indices of q1**n1 .. q4**n4 in the 4 x (N + 1) power
    table, and its flat lattice cell (n1 + n2)(N + 1) + (n1 + n3); then
    `batch_lattice(N)`."""
    counts = np.indices((n + 1,) * 3).reshape(3, -1)
    n1, n2, n3 = counts[:, counts.sum(axis=0) <= n]  # lexicographic order
    n4 = n - n1 - n2 - n3
    factorial = np.cumprod(np.arange(n + 1, dtype=np.int64).clip(1))  # exact to N = 20
    multinomial = factorial[n] // (factorial[n1] * factorial[n2] * factorial[n3] * factorial[n4])
    power_index = np.stack([n1, n2, n3, n4]) + (n + 1) * np.arange(4).reshape(4, 1)
    cell = (n1 + n2) * (n + 1) + (n1 + n3)
    terms = (multinomial.astype(float), power_index, cell, batch_lattice(n))
    for array in terms:
        array.flags.writeable = False
    return terms


def batch_law(coupling: TripleCoupling, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint law of (B, B') for one batch from the coupling.

    Returns (batch_lattice(N), P): lattice[k] = (2k - N)/N and P[k, k'] is the
    probability that B and B' sit at lattice indices k and k' (k counts +1
    outcomes); the lattice is shared and read-only.  The multinomial law of
    the four (j, j') cell counts n1..n4 is summed in one array pass: each
    weight is the int64 multinomial coefficient times q1**n1 q2**n2 q3**n3
    q4**n4, in that order, and the weights add into P[n1 + n2, n1 + n3] in
    lexicographic (n1, n2, n3) order.  q and its powers are Python floats
    (float ** calls C pow, as a numpy scalar does).  All else depends on N
    alone and comes from `_law_terms`, built at the first call for each N.
    N must be an integer in [1, `MAX_EXACT_PAIRS`], and a defective
    coupling (`_require_valid`) is rejected.
    """
    n = _checked_pairs(n_pairs)
    _require_valid(coupling)
    multinomial, power_index, cell, lattice = _law_terms(n)
    factors = np.array([p**e for p in coupling.pair_cells for e in range(n + 1)])[power_index]
    weight = multinomial * factors[0]
    for factor in factors[1:]:
        weight *= factor
    # bincount adds repeated cells in index order, as a loop would
    law = np.bincount(cell, weights=weight, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    return lattice, law


def exact_tv_distance(
    k_a: TripleCoupling, k_ap: TripleCoupling, n_pairs: int, noise: NoiseModel
) -> float:
    """Total variation between Bob's observation laws under the two strategies.

    Noise-free laws live on the (N+1)^2 lattice and the distance is exact.
    Noise is a Markov kernel, so the noisy distance lies in
    [TV_free (1 - 2 P_out), TV_free], where P_out <= 4 Phi_c(1 / (N sigma))
    is the chance that a noisy mean leaves its lattice cell.  While
    N * sigma <= `TV_SEPARATED` (1/40) the gap 8 Phi_c(40) is 0.0 in double
    precision, so the noise-free lattice sum is returned.  Above that, both
    laws are convolved with the Gaussian read-out kernel and the distance is
    integrated on Richardson-extrapolated Simpson grids (steps sigma/20 and
    sigma/40), accurate to about 1e-6.  Any NoiseModel is taken.
    N, both couplings and the noise are checked first, with `batch_law`'s
    checks, which it repeats on purpose when it builds the laws.  Couplings
    whose pair marginals (`pair_cells`) are equal as floats return 0.0 with
    no law built: a law reads its coupling only through them, so every
    difference would be 0.  Each grid is summed in 512-row blocks, each in
    512 x 256 tiles with one tile of scratch memory.  The kernel and its
    product with the law difference are scaled in place by the power of two
    2**`_TV_SCALE`, which each grid's total divides out, so that no density
    product goes subnormal (several times slower); each block multiplies
    only its band of kernel columns that are not exactly 0.  Both steps are
    exact for every normal term, so the result has the bits of the
    unscaled, unbanded sum.
    The grids are built in turn, each freed before the next, so one grid's
    kernel and tiles are alive at a time.  When numpy's BLAS runs one thread
    and the two grids hold at least 12 blocks together, each grid's blocks
    spread over the available cores; otherwise they run on the calling
    thread.  Block sums are added in block order, grid by grid, so the
    result has the same bits on any core count and any BLAS thread count.
    """
    n_pairs = _checked_pairs(n_pairs)
    _require_valid(k_a)
    _require_valid(k_ap)
    _checked_instance(noise, "noise", NoiseModel)
    if k_a.pair_cells == k_ap.pair_cells:
        return 0.0
    lattice, law_a = batch_law(k_a, n_pairs)
    diff = law_a - batch_law(k_ap, n_pairs)[1]
    if n_pairs * noise.sigma <= TV_SEPARATED:
        return 0.5 * float(np.abs(diff).sum())

    # the |.| kinks reduce Simpson to O(h^2); one Richardson step restores
    # the accuracy target
    coarse, fine = _tv_simpsons(diff, lattice, noise.sigma, step_divisors=(20, 40))
    return fine + (fine - coarse) / 3.0


def _tv_simpsons(
    diff: np.ndarray, lattice: np.ndarray, sigma: float, step_divisors: Sequence[int]
) -> list[float]:
    """The Simpson TV integral on one grid per step divisor.  Each grid is
    built, summed and freed before the next; its row blocks go to the pool
    when all the grids hold enough blocks together and BLAS runs one thread."""
    sizes = [_grid_points(sigma, d) for d in step_divisors]
    parallel = sum(-(-m // TV_BLOCK) for m in sizes) >= _PARALLEL_BLOCKS and _blas_threads() == 1
    totals = []
    for m in sizes:
        grid = _simpson_grid(diff, lattice, sigma, m)
        blocks = [(grid, lo) for lo in range(0, m, TV_BLOCK)]
        sums = _parallel_map(_simpson_block, blocks, parallel)
        del grid, blocks  # before the next grid is built
        # one += per block in block order: sum() compensates floats from Python 3.12
        total = 0.0
        for block_sum in sums:
            total += block_sum
        totals.append(0.5 * math.ldexp(total, -2 * _TV_SCALE))
    return totals


def _grid_points(sigma: float, step_divisor: int) -> int:
    """The odd Simpson point count m of step sigma / step_divisor."""
    return int(math.ceil(2.0 * (1.0 + 7.0 * sigma) / (sigma / step_divisor))) + 1 | 1


def _simpson_grid(diff: np.ndarray, lattice: np.ndarray, sigma: float, m: int):
    """(kernel, weights, column tiles, bands) of the m-point Simpson grid:
    the m x (N+1) read-out Gaussians, the m Simpson weights, the (N+1) x m
    product diff @ kernel.T cut into contiguous `TV_TILE`-column tiles, and
    for each `TV_BLOCK`-row block the slice from its first to its last
    kernel column that is not all 0 (None when there is none).  The product
    is formed from the unscaled kernel; then it and the kernel are
    multiplied in place by 2**`_TV_SCALE`, which is exact."""
    span = 1.0 + 7.0 * sigma
    grid = np.linspace(-span, span, m)
    h = grid[1] - grid[0]
    weights = np.ones(m)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    kernel = np.exp(-0.5 * ((grid[:, None] - lattice[None, :]) / sigma) ** 2) / (
        sigma * math.sqrt(2 * math.pi)
    )  # m x (N+1)
    inner = diff @ kernel.T  # (N+1) x m
    inner *= 2.0**_TV_SCALE
    kernel *= 2.0**_TV_SCALE
    # contiguous column tiles keep each block's |rows| in cache; every column
    # still sums its block rows in one gemv, so the bits match an untiled pass
    tiles = [(c, np.ascontiguousarray(inner[:, c : c + TV_TILE])) for c in range(0, m, TV_TILE)]
    # kernel entries are >= 0, so a row block's column sums to 0.0 exactly when each is 0
    sums = np.add.reduceat(kernel, range(0, m, TV_BLOCK))
    bands = [slice(j[0], j[-1] + 1) if len(j) else None for j in map(np.flatnonzero, sums)]
    return kernel, weights, tiles, bands


def _simpson_block(block) -> float:
    """Weighted sum of |density| over the grid rows lo..lo+TV_BLOCK-1 and
    every column, times 2**(2 `_TV_SCALE`), with its own one-tile scratch
    buffer.  Only the block's band of kernel columns that are not exactly 0
    enters the products, since an exact-zero term leaves each sum as it is;
    a block with no such column sums to 0.0.  The bands come with the grid,
    so the pool's workers allocate nothing beyond their buffers."""
    (kernel, weights, tiles, bands), lo = block
    band = bands[lo // TV_BLOCK]
    if band is None:
        return 0.0
    k_rows, w_rows = kernel[lo : lo + TV_BLOCK, band], weights[lo : lo + TV_BLOCK]
    buf = np.empty(TV_BLOCK * TV_TILE)
    col = np.empty(len(weights))
    for c, tile in tiles:
        rows = buf[: len(k_rows) * tile.shape[1]].reshape(len(k_rows), -1)
        np.matmul(k_rows, tile[band], out=rows)
        np.abs(rows, out=rows)
        np.matmul(w_rows, rows, out=col[c : c + tile.shape[1]])
    return float(col @ weights)


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs now, asked at each call through its own
    entry point as the dynamic linker finds it from numpy's linalg module;
    None for another BLAS.

    A thread pool gains only over a one-thread BLAS: OpenBLAS's own spinning
    threads compete with the pool's workers for the same cores."""
    import ctypes  # only calls large enough for the pool ask

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        query = getattr(lib, symbol, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return int(query())
    return None


# ---------------------------------------------------------------------------
# Detectors: each kernel takes (groups, g) arrays u, v of noisy B and B', one
# row per group, and returns per group whether it guesses ALWAYS_A
# ---------------------------------------------------------------------------

def covariance_guess_a(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sign of each row's sample covariance; an exact zero guesses a.

    The steps are those of `np.cov`: centre by the row mean, then one
    matrix-times-transpose product (the BLAS syrk that `np.cov` reaches),
    so every sign, ties included, is the one `np.cov` gives.  Integer
    rows are read as floats, as `np.cov` reads them.
    """
    if u.shape[1] < 2:
        raise ValueError("covariance needs at least 2 batches per group")
    x = np.stack([u, v], axis=1).astype(float, copy=False)  # (G, 2, g)
    x -= x.mean(axis=2, keepdims=True)
    return (x @ x.transpose(0, 2, 1))[:, 0, 1] * (1.0 / (u.shape[1] - 1)) >= 0.0


def postselect_guess_a(
    u: np.ndarray, v: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: keep batches with |noisy B| and |noisy B'| at or above
    threshold; a sign-agreement majority among survivors (ties included)
    guesses a.  Returns (guess a, survivors); a row without survivors
    makes no guess."""
    threshold = _checked_real(threshold, "threshold", "a real in (0, 1]", 0.0, 1.0, low_open=True)
    keep = (np.abs(u) >= threshold) & (np.abs(v) >= threshold)
    survivors = keep.sum(axis=1)
    agree = (keep & ((u >= 0) == (v >= 0))).sum(axis=1)
    return 2 * agree >= survivors, survivors


def likelihood_guess_a(
    u: np.ndarray, v: np.ndarray, laws: tuple[np.ndarray, ...], sigma: float
) -> np.ndarray:
    """Per row: guess a when the log-likelihood under a is at least that
    under a', from the exact batch laws: (lattice, law under a, law under
    a'), as `batch_law` gives them."""
    lattice, *by_strategy = laws
    ll = []
    if sigma == 0.0:
        # noiseless means sit on the lattice; each row's log terms are
        # summed in order from 0.0, with math.log, as a scalar loop would
        n = len(lattice) - 1
        k = np.rint((u + 1.0) * n / 2.0).astype(np.intp)
        kp = np.rint((v + 1.0) * n / 2.0).astype(np.intp)
        for law in by_strategy:
            logs = [math.log(p) if p > 0 else -math.inf for p in law.ravel().tolist()]
            terms = np.array(logs).reshape(law.shape)[k, kp]
            ll.append(np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)[:, -1])
    else:
        ku = np.exp(-0.5 * ((u.reshape(-1, 1) - lattice[None, :]) / sigma) ** 2)
        kv = np.exp(-0.5 * ((v.reshape(-1, 1) - lattice[None, :]) / sigma) ** 2)
        for law in by_strategy:
            dens = np.einsum("gi,ij,gj->g", ku, law, kv)
            with np.errstate(divide="ignore"):
                ll.append(np.log(dens).reshape(u.shape).sum(axis=1))
    return ll[0] >= ll[1]


def make_likelihood_detector(
    k_a: TripleCoupling, k_ap: TripleCoupling, n_pairs: int, noise: NoiseModel
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The `likelihood_guess_a` kernel bound to the exact batch laws, which
    are enumerated once, here."""
    _checked_instance(noise, "noise", NoiseModel)
    lattice, law_a = batch_law(k_a, n_pairs)
    laws = (lattice, law_a, batch_law(k_ap, n_pairs)[1])
    return lambda u, v: likelihood_guess_a(u, v, laws, noise.sigma)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

#: Alice's setting on every pair of each arm, in the order `draw_arms`
#: returns the arms; arm k is drawn from Philox stream k.
ARMS = (A, A_PRIME)


def run_protocol(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    cfg: ProtocolConfig,
    seed: int,
) -> SignallingReport:
    """Simulate both strategy arms and score Bob's per-group guesses.

    The couplings must realize the same correlation table (one per Alice
    setting).  Fully deterministic in (cfg, seed).
    """
    arms = draw_arms(k_a, k_ap, cfg.n_pairs, protocol_batches(cfg), cfg.noise, seed)
    return score_arms(k_a, k_ap, arms, cfg)


def protocol_batches(cfg: ProtocolConfig) -> int:
    """Batches per arm that the protocol scores: whole groups only."""
    return (cfg.repetitions // cfg.group_size) * cfg.group_size


def draw_arms(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    n_pairs: int,
    n_batches: int,
    noise: NoiseModel,
    seed: int,
) -> tuple[BatchArrays, BatchArrays]:
    """Batches 0..n_batches-1 of both arms, in `ARMS` order: arm k draws
    from `k_a` or `k_ap` on Philox stream k.

    The couplings must be under a and a', in that order, and each must be a
    pmf with uniform marginals within `CORR_TOL`; otherwise ValueError.
    """
    for setting, coupling in zip(ARMS, (k_a, k_ap)):
        if coupling.alice_setting != setting:
            raise ValueError(
                "arm couplings must be under a then a', got "
                f"{k_a.alice_setting.value} then {k_ap.alice_setting.value}"
            )
        _require_valid(coupling)
    return tuple(
        sample_batches(coupling, n_pairs, n_batches, noise, seed, stream=stream)
        for stream, coupling in enumerate((k_a, k_ap))
    )


def score_arms(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    arms: tuple[BatchArrays, BatchArrays],
    cfg: ProtocolConfig,
) -> SignallingReport:
    """Score the first `protocol_batches(cfg)` rows of each arm; longer arms
    are fine, since batch b of a draw does not depend on the draw's length.

    Each arm is scored whole, as (groups, g) arrays, by one detector kernel.
    The verdict is SIGNALLING when the exact `chance_tail` of the correct
    count is at most `SIGNALLING_TAIL`, and NO_SIGNALLING when the Wilson
    interval holds 1/2 and is narrower than `NO_SIGNALLING_WIDTH`.
    """
    if cfg.detector is Detector.LIKELIHOOD:
        likelihood = make_likelihood_detector(k_a, k_ap, cfg.n_pairs, cfg.noise)
    n_batches = protocol_batches(cfg)
    shape = (n_batches // cfg.group_size, cfg.group_size)
    trials = correct = n_used = 0
    for expected_a, arrays in zip((True, False), arms):  # the ARMS order
        u = arrays.noisy_b[:n_batches].reshape(shape)
        v = arrays.noisy_bp[:n_batches].reshape(shape)
        survivors = np.full(shape[0], cfg.group_size)
        if cfg.detector is Detector.COVARIANCE_SIGN:
            guess_a = covariance_guess_a(u, v)
        elif cfg.detector is Detector.POSTSELECT_EXTREMES:
            guess_a, survivors = postselect_guess_a(u, v, cfg.postselect_threshold)
        else:
            guess_a = likelihood(u, v)
        guessed = survivors > 0
        n_used += int(survivors.sum())
        trials += int(np.count_nonzero(guessed))
        correct += int(np.count_nonzero(guessed & (guess_a == expected_a)))

    # no trials: the interval is [0, 1], too wide for any verdict but INCONCLUSIVE
    advantage = correct / trials if trials else 0.5
    ci_low, ci_high = wilson_interval(correct, trials)
    if chance_tail(correct, trials) <= SIGNALLING_TAIL:
        verdict = Verdict.SIGNALLING
    elif ci_low <= 0.5 <= ci_high and (ci_high - ci_low) < NO_SIGNALLING_WIDTH:
        verdict = Verdict.NO_SIGNALLING
    else:
        verdict = Verdict.INCONCLUSIVE
    return SignallingReport(
        advantage=advantage,
        ci_low=ci_low,
        ci_high=ci_high,
        n_used=n_used,
        verdict=verdict,
        n_trials=trials,
        suggested_repetitions=suggested_repetitions(advantage),
    )


# ---------------------------------------------------------------------------
# Resource sweep
# ---------------------------------------------------------------------------

def resource_sweep(
    table: CorrelationTable,
    n_list: Sequence[int],
    r_list: Sequence[int],
    sigma_list: Sequence[float],
    seed: int,
    detectors: Sequence[Detector] = (Detector.COVARIANCE_SIGN,),
    base_config: ProtocolConfig | None = None,
) -> list[SweepRow]:
    """Run the protocol across a (N, R, sigma, detector) grid for one table.

    Couplings are the variance-extremal pair for the table; the C column of
    the emitted CSV reports C(a,b).  Each (N, sigma) is drawn once, at the
    largest R, and every (R, detector) row scores a prefix of that draw;
    batch b does not depend on the draw's length, so each row equals a
    direct `run_protocol` call.  Sampling cost thus grows with the number
    of distinct (N, sigma), not with |R| x |detectors|.
    """
    if not all(len(values) for values in (n_list, r_list, sigma_list, detectors)):
        raise ValueError("sweep lists must be nonempty")
    k_a, k_ap = couplings_for_table(table)
    template = base_config or ProtocolConfig(
        n_pairs=n_list[0], repetitions=r_list[0], noise=NoiseModel(0.0)
    )
    # every config of every N is checked before anything is drawn
    grid = [
        [
            replace(
                template,
                n_pairs=n_pairs,
                repetitions=repetitions,
                noise=NoiseModel(sigma),
                detector=detector,
            )
            for repetitions in r_list
            for sigma in sigma_list
            for detector in detectors
        ]
        for n_pairs in n_list
    ]
    rows = []
    for n_pairs, configs in zip(n_list, grid):
        n_batches = max(protocol_batches(cfg) for cfg in configs)
        arms = {
            sigma: draw_arms(k_a, k_ap, n_pairs, n_batches, NoiseModel(sigma), seed)
            for sigma in sigma_list
        }
        for cfg in configs:
            rows.append(
                SweepRow(
                    c=table.c_ab,
                    n_pairs=n_pairs,
                    repetitions=cfg.repetitions,
                    sigma=cfg.noise.sigma,
                    detector=cfg.detector,
                    report=score_arms(k_a, k_ap, arms[cfg.noise.sigma], cfg),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_json(report: SignallingReport) -> dict:
    """The report as JSON fields; `records.report_from_json` reads it back."""
    return {**asdict(report), "verdict": report.verdict.value}
