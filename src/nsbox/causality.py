"""The variance-bound chain from no-signalling to the CHSH maximum.

For batch means B, B' of N pairs the pointwise parallelogram identity plus
<B^2> = <B'^2> = 1/N give a fixed budget

    Var(B + B') + Var(B - B') = 4/N

under either of Alice's strategies.  No-signalling forces the B + B'
spread to be strategy-independent, and binomial lower bounds tie the two
variances to the correlations, yielding the quadratic constraint

    [C(a,b) + C(a,b')]^2 + [C(a',b) - C(a',b')]^2 <= 4

from which |CHSH| <= 2 sqrt(2) follows via |x + y| <= sqrt(2x^2 + 2y^2).

This module holds the condition, its two lower bounds, the Tsirelson check
and the frontier scan.  The rest of the chain runs in no command and lives
with the test oracles (`tests/oracles.py`): the parallelogram residuals,
the per-pair variances, the scalar-addition critical point C = 1/2, and
the vector-addition model that meets both bounds with equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .boxes import CorrelationTable, chsh, chsh_variants

CAUSALITY_TOL = 1e-12
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CausalityCheck:
    ok: bool
    lhs: float
    margin: float  # 4 - lhs


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

def _binding_terms(table: CorrelationTable) -> tuple[float, float]:
    """(|x|, |y|) of the causality terms under the binding labelling.

    Relabelling outcomes or settings only swaps or negates the terms of
    x, y = C(a,b)+C(a,b'), C(a',b)-C(a',b') or of the pair with b' negated,
    C(a,b)-C(a,b'), C(a',b)+C(a',b'); the larger x^2 + y^2 binds (the first
    on a tie).
    """
    x, y = table.c_ab + table.c_abp, table.c_apb - table.c_apbp
    u, v = table.c_ab - table.c_abp, table.c_apb + table.c_apbp
    if u * u + v * v > x * x + y * y:
        x, y = u, v
    return abs(x), abs(y)


def variance_lower_bound_a(table: CorrelationTable, n_pairs: int) -> float:
    """Lower bound |C(a,b) + C(a,b')| / sqrt(N) on the B+B' spread under a."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    return _binding_terms(table)[0] / math.sqrt(n_pairs)


def variance_lower_bound_ap(table: CorrelationTable, n_pairs: int) -> float:
    """Lower bound |C(a',b) - C(a',b')| / sqrt(N) on the B-B' spread under a'."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    return _binding_terms(table)[1] / math.sqrt(n_pairs)


def causality_lhs(table: CorrelationTable) -> float:
    x, y = _binding_terms(table)
    return x * x + y * y


def causality_condition(table: CorrelationTable) -> CausalityCheck:
    """The quadratic no-signalling constraint on the correlations."""
    lhs = causality_lhs(table)
    return CausalityCheck(ok=lhs <= 4.0 + CAUSALITY_TOL, lhs=lhs, margin=4.0 - lhs)


def tsirelson_check(table: CorrelationTable) -> bool:
    """Every |CHSH| within 2 sqrt(2); implied whenever the causality condition holds."""
    return max(map(abs, chsh_variants(table))) <= TSIRELSON_BOUND + CAUSALITY_TOL


# ---------------------------------------------------------------------------
# Frontier scan
# ---------------------------------------------------------------------------

def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a unimodal f on [lo, hi], at most 200 steps."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
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


def _best_y(x: float, rhs: float) -> float:
    """Largest feasible y = C(a',b)-C(a',b') beside x."""
    return min(2.0, math.sqrt(max(rhs - x * x, 0.0)))


def _check_frontier_args(resolution: int, rhs: float) -> None:
    if resolution < 10:
        raise ValueError(f"resolution must be at least 10, got {resolution}")
    if not math.isfinite(rhs):
        raise ValueError(f"rhs must be finite, got {rhs!r}")
    if rhs <= 0:
        raise ValueError("rhs must be positive")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """`numpy.linspace(lo, hi, n)` in floats: i * step + lo, the last point hi."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


@functools.lru_cache(maxsize=1)
def _grid(resolution: int, symmetric: bool, rhs: float) -> tuple[tuple[str, tuple], ...]:
    """`frontier_grid`'s (name, column) pairs, built once for the last arguments."""
    if symmetric:
        c = _linspace(0.0, 1.0, resolution)
        lhs = [8.0 * v * v for v in c]
        columns = {"C": c, "chsh": [4 * v for v in c], "causality_lhs": lhs,
                   "feasible": [v <= rhs for v in lhs]}
    else:
        x_max = min(2.0, math.sqrt(rhs))
        x = _linspace(-x_max, x_max, resolution)
        y = [_best_y(v, rhs) for v in x]
        columns = {"x": x, "y": y, "chsh": [u + v for u, v in zip(x, y)],
                   "causality_margin": [rhs - u * u - v * v for u, v in zip(x, y)]}
    return tuple((name, tuple(column)) for name, column in columns.items())


def frontier_grid(
    resolution: int, symmetric: bool = False, rhs: float = 4.0
) -> dict[str, list]:
    """The grid `frontier_scan` searches, as named lists of floats.

    General mode: x = C(a,b)+C(a,b') over [-x_max, x_max], the best feasible
    y, their CHSH x + y and the margin rhs - x^2 - y^2.  Symmetric mode:
    C over [0, 1] for tables (C, C, C, -C), their CHSH 4C, the causality
    left side 8C^2 and whether it is at most rhs (bools).  The values are
    bit for bit those of the same expressions over `numpy.linspace`.
    """
    _check_frontier_args(resolution, rhs)
    return {name: list(column) for name, column in _grid(resolution, symmetric, rhs)}


def frontier_scan(
    resolution: int, symmetric: bool = False, rhs: float = 4.0
) -> FrontierReport:
    """Maximize |CHSH| over tables obeying the quadratic constraint x^2+y^2 <= rhs.

    General mode scans x = C(a,b)+C(a,b') with the best feasible
    y = C(a',b)-C(a',b'), then refines by golden section; symmetric mode
    restricts to tables (C, C, C, -C) and reports the largest feasible C.
    """
    _check_frontier_args(resolution, rhs)
    if symmetric:
        # largest C in [0, 1] with 8 C^2 <= rhs, by the grid's `feasible`
        # predicate: the rounded root, or one ulp below
        critical = min(1.0, math.sqrt(rhs / 8.0))
        if 8.0 * critical * critical > rhs:
            critical = math.nextafter(critical, 0.0)
        table = CorrelationTable(critical, critical, critical, -critical)
        return FrontierReport(
            max_chsh=chsh(table),
            argmax_table=table,
            mode="symmetric",
            rhs=rhs,
            resolution=resolution,
            critical_c=critical,
        )

    grid = dict(_grid(resolution, False, rhs))
    k = grid["chsh"].index(max(grid["chsh"]))  # the first maximum, as numpy.argmax
    lo, hi = grid["x"][max(0, k - 1)], grid["x"][min(resolution - 1, k + 1)]
    x_star, value = _golden_max(lambda x: x + _best_y(x, rhs), lo, hi)
    y_star = _best_y(x_star, rhs)
    table = CorrelationTable(x_star / 2.0, x_star / 2.0, y_star / 2.0, -y_star / 2.0)
    return FrontierReport(
        max_chsh=value,
        argmax_table=table,
        mode="general",
        rhs=rhs,
        resolution=resolution,
    )
