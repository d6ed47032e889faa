"""The variance-bound chain from no-signalling to the CHSH maximum.

For batch means B, B' of N pairs the pointwise parallelogram identity plus
<B^2> = <B'^2> = 1/N give a fixed budget

    Var(B + B') + Var(B - B') = 4/N

under either of Alice's strategies.  No-signalling forces the B + B'
spread to be strategy-independent, and binomial lower bounds tie the two
variances to the correlations, yielding the quadratic constraint

    [C(a,b) + C(a,b')]^2 + [C(a',b) - C(a',b')]^2 <= 4

from which |CHSH| <= 2 sqrt(2) follows via |x + y| <= sqrt(2x^2 + 2y^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import CorrelationTable, chsh
from .coupling import Combination, TripleCoupling, per_pair_variance

CAUSALITY_TOL = 1e-12
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class CausalityCheck:
    ok: bool
    lhs: float
    margin: float  # 4 - lhs


@dataclass(frozen=True)
class VarianceBudget:
    """The two strategy-extremal variances against the 4/N total."""

    n_pairs: int
    delta_a_sum_sq: float  # [Delta_a(B+B')]^2
    delta_ap_diff_sq: float  # [Delta_a'(B-B')]^2

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be positive")

    @property
    def total(self) -> float:
        return 4.0 / self.n_pairs

    @property
    def residual(self) -> float:
        return self.total - (self.delta_a_sum_sq + self.delta_ap_diff_sq)

    def within(self, tol: float = BUDGET_TOL) -> bool:
        return self.residual >= -tol


@dataclass(frozen=True)
class VectorAdditionModel:
    """Composite per-pair observables c and c' taking two symmetric values.

    c is perfectly correlated with a and takes values +/-|C(a,b)+C(a,b')|;
    c' likewise with a' and +/-|C(a',b)-C(a',b')|.  With these, the binomial
    lower bounds on the B +/- B' spreads are met with equality.
    """

    c_values: tuple[float, float]
    cp_values: tuple[float, float]

    @property
    def c_magnitude(self) -> float:
        return self.c_values[0]

    @property
    def cp_magnitude(self) -> float:
        return self.cp_values[0]

    def implied_delta_a_sum(self, n_pairs: int) -> float:
        return self.c_magnitude / math.sqrt(n_pairs)

    def implied_delta_ap_diff(self, n_pairs: int) -> float:
        return self.cp_magnitude / math.sqrt(n_pairs)


@dataclass(frozen=True)
class FrontierReport:
    max_chsh: float
    argmax_table: CorrelationTable
    mode: str
    rhs: float
    resolution: int
    critical_c: float | None = None


# ---------------------------------------------------------------------------
# Bounds and conditions
# ---------------------------------------------------------------------------

def variance_lower_bound_a(table: CorrelationTable, n_pairs: int) -> float:
    """Lower bound [C(a,b) + C(a,b')] / sqrt(N) on the B+B' spread under a.

    Callers arrange signs so the sum is nonnegative (see flip_bob_labels).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    return (table.c_ab + table.c_abp) / math.sqrt(n_pairs)


def variance_lower_bound_ap(table: CorrelationTable, n_pairs: int) -> float:
    """Lower bound [C(a',b) - C(a',b')] / sqrt(N) on the B-B' spread under a'."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    return (table.c_apb - table.c_apbp) / math.sqrt(n_pairs)


def causality_lhs(table: CorrelationTable) -> float:
    x = table.c_ab + table.c_abp
    y = table.c_apb - table.c_apbp
    return x * x + y * y


def causality_condition(table: CorrelationTable) -> CausalityCheck:
    """The quadratic no-signalling constraint on the correlations."""
    lhs = causality_lhs(table)
    return CausalityCheck(ok=lhs <= 4.0 + CAUSALITY_TOL, lhs=lhs, margin=4.0 - lhs)


def tsirelson_check(table: CorrelationTable) -> bool:
    """|CHSH| within 2 sqrt(2); implied whenever the causality condition holds."""
    value = abs(chsh(table))
    ok = value <= TSIRELSON_BOUND + CAUSALITY_TOL
    if causality_condition(table).ok and not ok:
        # |x+y| <= sqrt(2(x^2+y^2)) makes this unreachable
        raise AssertionError(f"causality holds but |CHSH| = {value} exceeds the bound")
    return ok


def flip_bob_labels(table: CorrelationTable) -> CorrelationTable:
    """Interchange b and b' so both causality terms can share a sign.

    The swap negates C(a',b) - C(a',b') while leaving C(a,b) + C(a,b')
    alone, so the causality left side is unchanged.
    """
    return CorrelationTable(
        c_ab=table.c_abp, c_abp=table.c_ab, c_apb=table.c_apbp, c_apbp=table.c_apb
    )


def orient_for_bounds(table: CorrelationTable) -> CorrelationTable:
    """Relabel Bob's side so both lower-bound numerators are nonnegative.

    Swapping b and b' negates the difference term only; negating Bob's
    outcomes negates both terms.  Neither touches the causality left side.
    """
    x = table.c_ab + table.c_abp
    y = table.c_apb - table.c_apbp
    if (x < 0 < y) or (y < 0 < x):  # sign test, not x*y: the product can underflow
        table = flip_bob_labels(table)
        y = -y
    if x < 0 or y < 0:
        table = CorrelationTable(*(-v for v in table.as_tuple()))
    return table


def critical_c_scalar() -> float:
    """Critical strength for scalar-addition couplings: 4C = 4(1-C) gives 1/2.

    Below the quantum point sqrt(2)/2: confining b + b' to {0, +/-2} cannot
    reach the full causality frontier.
    """
    return 0.5


def vector_addition_model(table: CorrelationTable) -> VectorAdditionModel:
    """Composite observables meeting both binomial bounds with equality.

    Requires the causality terms to be nonnegative; use flip_bob_labels (or
    orient_for_bounds) first when they disagree in sign.
    """
    x = table.c_ab + table.c_abp
    y = table.c_apb - table.c_apbp
    if x < 0 or y < 0:
        raise ValueError(
            "causality terms must be nonnegative; apply flip_bob_labels first "
            f"(got {x} and {y})"
        )
    model = VectorAdditionModel(c_values=(x, -x), cp_values=(y, -y))
    # equality check against the binomial bounds (any N; use N = 1)
    if not math.isclose(model.implied_delta_a_sum(1), variance_lower_bound_a(table, 1), abs_tol=1e-12):
        raise AssertionError("vector model fails the B+B' equality case")
    if not math.isclose(model.implied_delta_ap_diff(1), variance_lower_bound_ap(table, 1), abs_tol=1e-12):
        raise AssertionError("vector model fails the B-B' equality case")
    return model


# ---------------------------------------------------------------------------
# Variance budgets
# ---------------------------------------------------------------------------

def budget_from_couplings(
    k_a: TripleCoupling, k_ap: TripleCoupling, n_pairs: int
) -> VarianceBudget:
    """Budget realized by concrete couplings: per-pair variances over N."""
    return VarianceBudget(
        n_pairs=n_pairs,
        delta_a_sum_sq=per_pair_variance(k_a, Combination.SUM) / n_pairs,
        delta_ap_diff_sq=per_pair_variance(k_ap, Combination.DIFFERENCE) / n_pairs,
    )


def budget_from_table(table: CorrelationTable, n_pairs: int) -> VarianceBudget:
    """The saturating budget of the vector-addition model (both bounds squared)."""
    return VarianceBudget(
        n_pairs=n_pairs,
        delta_a_sum_sq=variance_lower_bound_a(table, n_pairs) ** 2,
        delta_ap_diff_sq=variance_lower_bound_ap(table, n_pairs) ** 2,
    )


def budget_identity_residual(coupling: TripleCoupling, n_pairs: int) -> float:
    """|Var(B+B') + Var(B-B') - 4/N| for one coupling (the substitution step).

    The per-pair parallelogram identity makes this vanish for every coupling
    with +/-1 outcomes and uniform marginals.
    """
    total = (
        per_pair_variance(coupling, Combination.SUM)
        + per_pair_variance(coupling, Combination.DIFFERENCE)
    ) / n_pairs
    return abs(total - 4.0 / n_pairs)


# ---------------------------------------------------------------------------
# Frontier scan
# ---------------------------------------------------------------------------

def _golden_max(f, lo: float, hi: float, iterations: int = 200):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    x = (a + b) / 2.0
    return x, f(x)


def _best_y(x, rhs: float):
    """Largest feasible y = C(a',b)-C(a',b') beside x (scalar or array)."""
    return np.minimum(2.0, np.sqrt(np.maximum(rhs - x * x, 0.0)))


def frontier_grid(
    resolution: int, symmetric: bool = False, rhs: float = 4.0
) -> dict[str, np.ndarray]:
    """The grid `frontier_scan` searches, as named columns.

    General mode: x = C(a,b)+C(a,b') over [-x_max, x_max], the best feasible
    y, their CHSH x + y and the margin rhs - x^2 - y^2.  Symmetric mode:
    C over [0, 1] for tables (C, C, C, -C), their CHSH 4C, the causality
    left side 8C^2 and whether it is at most rhs.
    """
    if resolution < 10:
        raise ValueError(f"resolution must be at least 10, got {resolution}")
    if rhs <= 0:
        raise ValueError("rhs must be positive")
    if symmetric:
        c = np.linspace(0.0, 1.0, resolution)
        lhs = 8.0 * c * c
        return {"C": c, "chsh": 4 * c, "causality_lhs": lhs, "feasible": lhs <= rhs}
    x_max = min(2.0, math.sqrt(rhs))
    x = np.linspace(-x_max, x_max, resolution)
    y = _best_y(x, rhs)
    return {"x": x, "y": y, "chsh": x + y, "causality_margin": rhs - x * x - y * y}


def frontier_scan(
    resolution: int, symmetric: bool = False, rhs: float = 4.0
) -> FrontierReport:
    """Maximize |CHSH| over tables obeying the quadratic constraint x^2+y^2 <= rhs.

    General mode scans x = C(a,b)+C(a,b') with the best feasible
    y = C(a',b)-C(a',b'), then refines by golden section; symmetric mode
    restricts to tables (C, C, C, -C) and reports the largest feasible C.
    """
    grid = frontier_grid(resolution, symmetric, rhs)
    if symmetric:
        # feasibility: 8 C^2 <= rhs, C in [0, 1]; refine the boundary by bisection
        limit = min(1.0, math.sqrt(rhs / 8.0))
        feasible = grid["C"][grid["feasible"]]
        lo = float(feasible.max()) if feasible.size else 0.0
        hi = min(1.0, lo + (1.0 / (resolution - 1)))
        for _ in range(100):
            mid = (lo + hi) / 2.0
            if 8.0 * mid**2 <= rhs:
                lo = mid
            else:
                hi = mid
        critical = min(lo, limit)
        table = CorrelationTable(critical, critical, critical, -critical)
        return FrontierReport(
            max_chsh=chsh(table),
            argmax_table=table,
            mode="symmetric",
            rhs=rhs,
            resolution=resolution,
            critical_c=critical,
        )

    k = int(np.argmax(grid["chsh"]))
    lo = grid["x"][max(0, k - 1)]
    hi = grid["x"][min(resolution - 1, k + 1)]
    x_star, value = _golden_max(lambda x: x + _best_y(x, rhs), float(lo), float(hi))
    y_star = float(_best_y(x_star, rhs))
    table = CorrelationTable(x_star / 2.0, x_star / 2.0, y_star / 2.0, -y_star / 2.0)
    return FrontierReport(
        max_chsh=float(value),
        argmax_table=table,
        mode="general",
        rhs=rhs,
        resolution=resolution,
    )
