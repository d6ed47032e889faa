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

import csv
import enum
import math
from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Sequence, TextIO

import numpy as np

from .boxes import CorrelationTable
from .coupling import (
    CouplingObjective,
    TripleCoupling,
    extremal_coupling,
)
from .boxes import A, A_PRIME
from .macro import (
    BatchArrays,
    MacroObservation,
    NoiseModel,
    STRATEGY_STREAM,
    Strategy,
    sample_batches,
)

MAX_EXACT_PAIRS = 12
WILSON_Z = 1.959963984540054  # two-sided 95%


class Detector(enum.Enum):
    COVARIANCE_SIGN = "cov"
    POSTSELECT_EXTREMES = "postselect"
    LIKELIHOOD = "lr"


class Verdict(enum.Enum):
    SIGNALLING = "signalling"
    NO_SIGNALLING = "no_signalling"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProtocolConfig:
    n_pairs: int
    repetitions: int  # batches per strategy
    noise: NoiseModel
    detector: Detector = Detector.COVARIANCE_SIGN
    postselect_threshold: float = 1.0
    group_size: int = 32  # batches per decision
    no_signalling_width: float = 0.02  # CI width needed to call NO_SIGNALLING

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if not 0.0 < self.postselect_threshold <= 1.0:
            raise ValueError(
                f"postselect_threshold must lie in (0, 1], got {self.postselect_threshold}"
            )
        if self.group_size < 1:
            raise ValueError("group_size must be positive")
        if self.detector is Detector.COVARIANCE_SIGN and self.group_size < 2:
            raise ValueError("the covariance detector needs groups of at least 2 batches")
        if self.repetitions < self.group_size:
            raise ValueError("repetitions must cover at least one group")
        if self.detector is Detector.LIKELIHOOD and self.n_pairs > MAX_EXACT_PAIRS:
            raise ValueError(
                f"likelihood detector enumerates exact laws, needs n_pairs <= {MAX_EXACT_PAIRS}"
            )
        if self.no_signalling_width <= 0:
            raise ValueError("no_signalling_width must be positive")


@dataclass(frozen=True)
class SignallingReport:
    advantage: float
    ci_low: float
    ci_high: float
    n_used: int
    verdict: Verdict
    n_trials: int
    suggested_repetitions: float | None

    def __post_init__(self) -> None:
        if not self.ci_low <= self.advantage <= self.ci_high:
            raise ValueError("confidence interval must contain the advantage")


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # rounding guard: the interval must contain the point estimate
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


def suggested_repetitions(advantage: float, delta: float = 0.05) -> float | None:
    """Hoeffding-style trial count to resolve the bit at confidence 1 - delta."""
    if advantage <= 0.5:
        return None
    return math.log(1.0 / delta) / (2.0 * (advantage - 0.5) ** 2)


def optimal_advantage(tv: float) -> float:
    """Best single-shot guessing probability for equiprobable hypotheses."""
    if not 0.0 <= tv <= 1.0 + 1e-12:
        raise ValueError(f"total variation must lie in [0, 1], got {tv}")
    return (1.0 + min(tv, 1.0)) / 2.0


def advantage_ceiling(tv_single: float, group_size: int) -> float:
    """Upper bound on the per-group advantage: TV is subadditive over i.i.d.
    batches, so a group of g batches carries at most min(1, g*TV)."""
    return optimal_advantage(min(1.0, group_size * tv_single))


# ---------------------------------------------------------------------------
# Exact observation laws and total variation
# ---------------------------------------------------------------------------

def _require_small_n(n_pairs: int) -> None:
    if n_pairs > MAX_EXACT_PAIRS:
        raise ValueError(
            f"exact enumeration supports n_pairs <= {MAX_EXACT_PAIRS}, got {n_pairs}"
        )
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")


def batch_law(coupling: TripleCoupling, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint law of (B, B') for one batch from the coupling.

    Returns (lattice, P) where lattice[k] = (2k - N)/N and P[k, k'] is the
    probability that B and B' sit at lattice indices k and k' (k counts +1
    outcomes).  Works by summing the multinomial law of the four (j, j')
    cell counts.
    """
    n = n_pairs
    q = coupling.pair_marginal().reshape(4)  # cells (+,+), (+,-), (-,+), (-,-)
    law = np.zeros((n + 1, n + 1))
    for n1 in range(n + 1):
        c1 = comb(n, n1)
        for n2 in range(n - n1 + 1):
            c2 = comb(n - n1, n2)
            for n3 in range(n - n1 - n2 + 1):
                n4 = n - n1 - n2 - n3
                weight = (
                    c1
                    * c2
                    * comb(n - n1 - n2, n3)
                    * q[0] ** n1
                    * q[1] ** n2
                    * q[2] ** n3
                    * q[3] ** n4
                )
                law[n1 + n2, n1 + n3] += weight
    lattice = np.array([(2 * k - n) / n for k in range(n + 1)])
    return lattice, law


def exact_tv_distance(
    k_a: TripleCoupling, k_ap: TripleCoupling, n_pairs: int, noise: NoiseModel
) -> float:
    """Total variation between Bob's observation laws under the two strategies.

    Noise-free laws live on the (N+1)^2 lattice and the distance is exact;
    with noise both laws are convolved with the Gaussian read-out kernel and
    the distance is integrated on Richardson-extrapolated Simpson grids
    (steps sigma/20 and sigma/40, capped), accurate to about 1e-6 for
    sigma >= 0.01.
    """
    _require_small_n(n_pairs)
    lattice, law_a = batch_law(k_a, n_pairs)
    _, law_ap = batch_law(k_ap, n_pairs)
    diff = law_a - law_ap
    if noise.sigma == 0.0:
        return 0.5 * float(np.abs(diff).sum())

    # the |.| kinks reduce Simpson to O(h^2); one Richardson step restores
    # the accuracy target
    coarse = _tv_simpson(diff, lattice, noise.sigma, step_divisor=20)
    fine = _tv_simpson(diff, lattice, noise.sigma, step_divisor=40)
    return fine + (fine - coarse) / 3.0


def _tv_simpson(diff: np.ndarray, lattice: np.ndarray, sigma: float, step_divisor: int) -> float:
    span = 1.0 + 7.0 * sigma
    step = sigma / step_divisor
    m = int(math.ceil(2.0 * span / step)) + 1
    m = min(m | 1, 40001)  # odd point count for Simpson
    grid = np.linspace(-span, span, m)
    h = grid[1] - grid[0]
    weights = np.ones(m)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    kernel = np.exp(-0.5 * ((grid[:, None] - lattice[None, :]) / sigma) ** 2) / (
        sigma * math.sqrt(2 * math.pi)
    )  # m x (N+1)
    total = 0.0
    block = 512
    inner = diff @ kernel.T  # (N+1) x m
    for lo in range(0, m, block):
        rows = kernel[lo : lo + block] @ inner  # block x m
        total += float((weights[lo : lo + block] @ np.abs(rows)) @ weights)
    return 0.5 * total


# ---------------------------------------------------------------------------
# Detectors (one guess per group of observations)
# ---------------------------------------------------------------------------

def detector_covariance_sign(observations: Sequence[MacroObservation]) -> Strategy:
    """Guess from the sign of the sample covariance of the noisy pair.

    Positive covariance reads as the correlated strategy; an exact zero
    (degenerate group) breaks toward ALWAYS_A.
    """
    if len(observations) < 2:
        raise ValueError("covariance needs at least 2 observations")
    u = np.array([o.noisy_b for o in observations])
    v = np.array([o.noisy_bp for o in observations])
    cov = float(np.cov(u, v, ddof=1)[0, 1])
    return Strategy.ALWAYS_A if cov >= 0.0 else Strategy.ALWAYS_APRIME


def detector_postselect(
    observations: Sequence[MacroObservation], threshold: float
) -> tuple[Strategy | None, int]:
    """Keep batches with both |noisy B| and |noisy B'| at or above threshold;
    majority sign agreement among survivors reads as ALWAYS_A (ties included).
    Returns (guess, surviving count); guess is None with no survivors."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    survivors = [
        o
        for o in observations
        if abs(o.noisy_b) >= threshold and abs(o.noisy_bp) >= threshold
    ]
    if not survivors:
        return None, 0
    agree = sum(1 for o in survivors if (o.noisy_b >= 0) == (o.noisy_bp >= 0))
    guess = Strategy.ALWAYS_A if 2 * agree >= len(survivors) else Strategy.ALWAYS_APRIME
    return guess, len(survivors)


def make_likelihood_detector(
    k_a: TripleCoupling, k_ap: TripleCoupling, n_pairs: int, noise: NoiseModel
) -> Callable[[Sequence[MacroObservation]], Strategy]:
    """Exact likelihood-ratio detector against the enumerated batch laws."""
    _require_small_n(n_pairs)
    lattice, law_a = batch_law(k_a, n_pairs)
    _, law_ap = batch_law(k_ap, n_pairs)
    sigma = noise.sigma

    def lattice_index(value: float) -> int:
        return int(round((value + 1.0) * n_pairs / 2.0))

    def log_likelihoods(observations: Sequence[MacroObservation]) -> tuple[float, float]:
        if sigma == 0.0:
            ll_a = ll_ap = 0.0
            for o in observations:
                k, kp = lattice_index(o.noisy_b), lattice_index(o.noisy_bp)
                p_a, p_ap = law_a[k, kp], law_ap[k, kp]
                ll_a += math.log(p_a) if p_a > 0 else -math.inf
                ll_ap += math.log(p_ap) if p_ap > 0 else -math.inf
            return ll_a, ll_ap
        u = np.array([o.noisy_b for o in observations])
        v = np.array([o.noisy_bp for o in observations])
        ku = np.exp(-0.5 * ((u[:, None] - lattice[None, :]) / sigma) ** 2)
        kv = np.exp(-0.5 * ((v[:, None] - lattice[None, :]) / sigma) ** 2)
        dens_a = np.einsum("gi,ij,gj->g", ku, law_a, kv)
        dens_ap = np.einsum("gi,ij,gj->g", ku, law_ap, kv)
        with np.errstate(divide="ignore"):
            return float(np.log(dens_a).sum()), float(np.log(dens_ap).sum())

    def guess(observations: Sequence[MacroObservation]) -> Strategy:
        ll_a, ll_ap = log_likelihoods(observations)
        return Strategy.ALWAYS_A if ll_a >= ll_ap else Strategy.ALWAYS_APRIME

    return guess


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

def couplings_for_table(table: CorrelationTable) -> tuple[TripleCoupling, TripleCoupling]:
    """Variance-extremal couplings for a correlation table: minimal B+B'
    spread under a, maximal under a' (the most signalling-hostile pair)."""
    k_a = extremal_coupling(
        table.c_ab, table.c_abp, CouplingObjective.MAX_DISAGREE, alice_setting=A
    )
    k_ap = extremal_coupling(
        table.c_apb, table.c_apbp, CouplingObjective.MIN_DISAGREE, alice_setting=A_PRIME
    )
    return k_a, k_ap


def _group_guesses(
    arrays: BatchArrays, cfg: ProtocolConfig, guess_fn, collect_survivors: bool
) -> tuple[list[Strategy | None], int]:
    guesses: list[Strategy | None] = []
    survivors_total = 0
    n_groups = cfg.repetitions // cfg.group_size
    for g in range(n_groups):
        lo, hi = g * cfg.group_size, (g + 1) * cfg.group_size
        observations = [arrays.observation(r) for r in range(lo, hi)]
        if collect_survivors:
            guess, n_surv = guess_fn(observations)
            survivors_total += n_surv
        else:
            guess = guess_fn(observations)
        guesses.append(guess)
    return guesses, survivors_total


_ARMS = (Strategy.ALWAYS_A, Strategy.ALWAYS_APRIME)


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
    arms = _draw_arms(k_a, k_ap, cfg.n_pairs, _protocol_batches(cfg), cfg.noise, seed)
    return _score_arms(k_a, k_ap, arms, cfg)


def _protocol_batches(cfg: ProtocolConfig) -> int:
    """Batches per arm that the protocol scores: whole groups only."""
    return (cfg.repetitions // cfg.group_size) * cfg.group_size


def _draw_arms(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    n_pairs: int,
    n_batches: int,
    noise: NoiseModel,
    seed: int,
) -> tuple[BatchArrays, BatchArrays]:
    """Batches 0..n_batches-1 of both strategy arms, in `_ARMS` order."""
    return tuple(
        sample_batches(coupling, n_pairs, n_batches, noise, seed, stream=STRATEGY_STREAM[strategy])
        for strategy, coupling in zip(_ARMS, (k_a, k_ap))
    )


def _score_arms(
    k_a: TripleCoupling,
    k_ap: TripleCoupling,
    arms: tuple[BatchArrays, BatchArrays],
    cfg: ProtocolConfig,
) -> SignallingReport:
    """Score the first `_protocol_batches(cfg)` rows of each arm; longer arms
    are fine, since batch b of a draw does not depend on the draw's length."""
    if cfg.detector is Detector.COVARIANCE_SIGN:
        guess_fn = detector_covariance_sign
        collect = False
    elif cfg.detector is Detector.POSTSELECT_EXTREMES:
        guess_fn = lambda obs: detector_postselect(obs, cfg.postselect_threshold)  # noqa: E731
        collect = True
    else:
        guess_fn = make_likelihood_detector(k_a, k_ap, cfg.n_pairs, cfg.noise)
        collect = False

    n_batches = _protocol_batches(cfg)
    trials = 0
    correct = 0
    n_used = 0
    for strategy, arrays in zip(_ARMS, arms):
        guesses, survivors = _group_guesses(arrays, cfg, guess_fn, collect)
        n_used += survivors if collect else n_batches
        for guess in guesses:
            if guess is None:
                continue
            trials += 1
            correct += guess is strategy

    if trials == 0:
        return SignallingReport(
            advantage=0.5,
            ci_low=0.0,
            ci_high=1.0,
            n_used=0,
            verdict=Verdict.INCONCLUSIVE,
            n_trials=0,
            suggested_repetitions=None,
        )

    advantage = correct / trials
    ci_low, ci_high = wilson_interval(correct, trials)
    if ci_low > 0.5:
        verdict = Verdict.SIGNALLING
    elif ci_low <= 0.5 <= ci_high and (ci_high - ci_low) < cfg.no_signalling_width:
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

SWEEP_CSV_HEADER = "C,N,R,sigma,detector,advantage,ci_low,ci_high,n_used,verdict"


@dataclass(frozen=True)
class SweepRow:
    c: float
    n_pairs: int
    repetitions: int
    sigma: float
    detector: Detector
    report: SignallingReport

    def csv_fields(self) -> list[str]:
        r = self.report
        return [
            f"{self.c:.17g}",
            str(self.n_pairs),
            str(self.repetitions),
            f"{self.sigma:.17g}",
            self.detector.value,
            f"{r.advantage:.17g}",
            f"{r.ci_low:.17g}",
            f"{r.ci_high:.17g}",
            str(r.n_used),
            r.verdict.value,
        ]


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
    if not (n_list and r_list and sigma_list and detectors):
        raise ValueError("sweep lists must be nonempty")
    k_a, k_ap = couplings_for_table(table)
    template = base_config or ProtocolConfig(
        n_pairs=max(n_list), repetitions=max(r_list), noise=NoiseModel(0.0)
    )
    rows = []
    for n_pairs in n_list:
        # every config of this N is checked before anything is drawn
        configs = [
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
        n_batches = max(_protocol_batches(cfg) for cfg in configs)
        arms = {
            sigma: _draw_arms(k_a, k_ap, n_pairs, n_batches, NoiseModel(sigma), seed)
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
                    report=_score_arms(k_a, k_ap, arms[cfg.noise.sigma], cfg),
                )
            )
    return rows


def write_sweep_csv(stream: TextIO, rows: Sequence[SweepRow]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(row.csv_fields())


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_json(report: SignallingReport) -> dict:
    return {
        "advantage": report.advantage,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "n_used": report.n_used,
        "verdict": report.verdict.value,
        "n_trials": report.n_trials,
        "suggested_repetitions": report.suggested_repetitions,
    }


def report_from_json(data: dict) -> SignallingReport:
    return SignallingReport(
        advantage=float(data["advantage"]),
        ci_low=float(data["ci_low"]),
        ci_high=float(data["ci_high"]),
        n_used=int(data["n_used"]),
        verdict=Verdict(data["verdict"]),
        n_trials=int(data["n_trials"]),
        suggested_repetitions=(
            None
            if data.get("suggested_repetitions") is None
            else float(data["suggested_repetitions"])
        ),
    )
