"""Counterfactual couplings of (Alice outcome, b, b') for one Alice setting.

A coupling is an 8-point pmf over (i, j, j') in {+1,-1}^3 with uniform
one-variable marginals and prescribed correlations E[ij] and E[ij'].  The
correlation between j and j' is not fixed by the table; its feasible range,
and hence the feasible range of Var(b +/- b'), follows in closed form.  Given
i, the pair (j, j') is two Bernoulli variables with fixed marginals, whose
joint law is extremal at a Frechet bound.  The extremal couplings are built
from that bound in rational arithmetic, so no solver tolerance enters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import A, A_PRIME, AliceSetting, CorrelationTable

CORR_TOL = 1e-9

# Flat cell order: index = 4*bi + 2*bj + bk with bit 0 meaning outcome +1,
# i.e. (i, j, j') runs lexicographically with +1 before -1.
I_VALUES = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
J_VALUES = np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=float)
JP_VALUES = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=float)


class CouplingObjective(enum.Enum):
    MIN_DISAGREE = "min_disagree"
    MAX_DISAGREE = "max_disagree"


class Combination(enum.Enum):
    SUM = "sum"
    DIFFERENCE = "difference"


class TripleCoupling:
    """Joint pmf over (i, j, j') as a (2, 2, 2) array; index 0 is outcome +1.

    Construction only fixes shape and finiteness so that defective couplings
    can be built and fed to `validate_coupling`.
    """

    __slots__ = ("alice_setting", "pmf")

    def __init__(self, alice_setting: AliceSetting, pmf: np.ndarray) -> None:
        alice_setting = AliceSetting(alice_setting)
        arr = np.asarray(pmf, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValueError(f"pmf must have shape (2, 2, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "alice_setting", alice_setting)
        object.__setattr__(self, "pmf", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TripleCoupling is immutable")

    @property
    def flat(self) -> np.ndarray:
        return self.pmf.reshape(8)

    def expectation(self, values: np.ndarray) -> float:
        return float(self.flat @ values)

    def pair_marginal(self) -> np.ndarray:
        """The (j, j') marginal as a (2, 2) array (index 0 is +1)."""
        return self.pmf.sum(axis=0)


@dataclass(frozen=True)
class CouplingBounds:
    """Feasible extremes of P(b != b') and Var(b + b') for given targets."""

    min_disagree: float
    max_disagree: float
    min_var_sum: float
    max_var_sum: float


@dataclass(frozen=True)
class CouplingValidation:
    ok: bool
    residuals: dict[str, float]


def _check_targets(c_xb: float, c_xbp: float) -> None:
    for name, c in (("c_xb", c_xb), ("c_xbp", c_xbp)):
        if not math.isfinite(c) or abs(c) > 1.0:
            raise ValueError(f"target correlation {name} must lie in [-1, 1], got {c!r}")


def extremal_coupling(
    c_xb: float,
    c_xbp: float,
    objective: CouplingObjective,
    alice_setting: AliceSetting = A,
) -> TripleCoupling:
    """The coupling achieving the exact optimum of P(b != b') for the targets.

    Given Alice's outcome i = s, b and b' are +1 with probabilities
    p = (1 + s c_xb)/2 and q = (1 + s c_xbp)/2, and r = P(b = b' = +1 | i)
    ranges over the Frechet segment [max(0, p + q - 1), min(p, q)].  As
    P(b != b' | i) = p + q - 2r falls strictly in r, each objective takes one
    end, so the optimum is unique.  Cells are exact rationals rounded once.
    """
    _check_targets(c_xb, c_xbp)
    cells = []
    for s in (1, -1):
        p, q = (1 + s * Fraction(c_xb)) / 2, (1 + s * Fraction(c_xbp)) / 2
        if objective is CouplingObjective.MIN_DISAGREE:
            r = min(p, q)
        else:
            r = max(Fraction(0), p + q - 1)
        cells += [r, p - r, q - r, 1 - p - q + r]
    return TripleCoupling(alice_setting, np.array([float(v / 2) for v in cells]).reshape(2, 2, 2))


def coupling_bounds(c_xb: float, c_xbp: float) -> CouplingBounds:
    """Closed-form extremes of P(b != b') and Var(b + b') for the targets.

    With uniform marginals, conditioning on i reduces the question to two
    Bernoulli pairs whose Frechet bounds (see `extremal_coupling`) give
    P(b != b') in [|c1 - c2|/2, 1 - |c1 + c2|/2]; Var(b + b') = 4 P(b = b')
    then maps the same interval.
    """
    _check_targets(c_xb, c_xbp)
    min_disagree = abs(c_xb - c_xbp) / 2.0
    max_disagree = 1.0 - abs(c_xb + c_xbp) / 2.0
    return CouplingBounds(
        min_disagree=min_disagree,
        max_disagree=max_disagree,
        min_var_sum=4.0 * (1.0 - max_disagree),
        max_var_sum=4.0 * (1.0 - min_disagree),
    )


def make_scalar_extremal_couplings(c: float) -> tuple[TripleCoupling, TripleCoupling]:
    """The coupling pair of the scalar-addition argument for the tilted family.

    Under a (targets C, C): maximal disagreement, so Var(b + b') is minimal;
    under a' (targets C, -C): maximal agreement, so Var(b + b') is maximal.
    For C >= 1/2 these extremes come closest to matching the two variances,
    and above 1/2 they cannot, so the strategies remain statistically
    distinguishable.  Below 1/2 the extremes cross and signal although
    couplings that match exist (see `couplings_for_table`).
    """
    if not math.isfinite(c) or not 0.0 <= c <= 1.0:
        raise ValueError(f"correlation strength must lie in [0, 1], got {c!r}")
    return couplings_for_table(CorrelationTable(c, c, c, -c))


def couplings_for_table(table: CorrelationTable) -> tuple[TripleCoupling, TripleCoupling]:
    """Variance-extremal couplings for a correlation table: minimal B+B'
    spread under a, maximal under a', so E[jj'] takes the bottom of its range
    under a and the top of its range under a'.  That is the least-signalling
    pair only when |C(a,b) + C(a,b')| + |C(a',b) - C(a',b')| >= 2, as on the
    tilted family from C = 1/2 up, where the a range sits above the a' one.
    Otherwise the pair signals more than it must; where the ranges overlap,
    as below C = 1/2, one common E[jj'] would not signal at all (the
    least-signalling couplings item of ROADMAP.md).
    Entries the table allows up to `NORM_TOL` past +/-1 count as +/-1."""
    c_ab, c_abp, c_apb, c_apbp = (min(1.0, max(-1.0, c)) for c in table.as_tuple())
    k_a = extremal_coupling(c_ab, c_abp, CouplingObjective.MAX_DISAGREE, alice_setting=A)
    k_ap = extremal_coupling(c_apb, c_apbp, CouplingObjective.MIN_DISAGREE, alice_setting=A_PRIME)
    return k_a, k_ap


def validate_coupling(
    coupling: TripleCoupling, targets: tuple[float, float] | None = None
) -> CouplingValidation:
    """Check normalization, nonnegativity, uniform marginals and target correlations.

    Every constraint's absolute residual is reported; ok means all within
    `CORR_TOL`.  Without targets, the correlations are not checked.
    """
    flat = coupling.flat
    residuals = {
        "normalization": abs(float(flat.sum()) - 1.0),
        "nonnegativity": max(0.0, float(-flat.min())),
        "marginal_i": abs(coupling.expectation(I_VALUES)) / 2.0,
        "marginal_j": abs(coupling.expectation(J_VALUES)) / 2.0,
        "marginal_jp": abs(coupling.expectation(JP_VALUES)) / 2.0,
    }
    if targets is not None:
        residuals["corr_ij"] = abs(coupling.expectation(I_VALUES * J_VALUES) - targets[0])
        residuals["corr_ijp"] = abs(coupling.expectation(I_VALUES * JP_VALUES) - targets[1])
    ok = all(r <= CORR_TOL for r in residuals.values())
    return CouplingValidation(ok=ok, residuals=residuals)


def per_pair_variance(coupling: TripleCoupling, combination: Combination) -> float:
    """Var(b + b') or Var(b - b') under the coupling, with scalar +/-1 values."""
    sign = 1.0 if combination is Combination.SUM else -1.0
    values = J_VALUES + sign * JP_VALUES
    mean = coupling.expectation(values)
    return coupling.expectation(values**2) - mean**2


def coupling_to_json(coupling: TripleCoupling) -> dict:
    """JSON form: Alice setting label plus the 8 probabilities in cell order
    (i, j, j') lexicographic with +1 before -1."""
    return {
        "alice_setting": coupling.alice_setting.value,
        "pmf": coupling.flat.tolist(),
    }


def pr_limit_couplings() -> tuple[TripleCoupling, TripleCoupling]:
    """Scalar extremal couplings at C = 1: b = b' = a under a, b = -b' = a' under a'."""
    return make_scalar_extremal_couplings(1.0)
