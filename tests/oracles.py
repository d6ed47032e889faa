"""Slow independent checks, and the analytic half of the argument, that the
tests compare the library against.  None of them runs outside the tests, so
scipy is a test dependency only.

Independent checks:
- `local_hull_membership` decides locality by a linear program over the 16
  `deterministic_tables`, against `classify_locality`'s eight CHSH
  inequalities;
- `chsh_variants` sums the four CHSH combinations term by term, against the
  two term sums that `classify_locality` and `tsirelson_check` read;
- `mean_square_check` tests the sampler's batch means against the 1/N law
  of <B^2>;
- `reference_batch_law` sums the exact batch law one cell-count triple at a
  time, against `batch_law`'s array sum;
- `reference_histogram` counts export's B + B' histogram one row at a time,
  against its per-text parse;
- `reference_frontier_scan` scans the general frontier in numpy arrays and
  scalars, against `frontier_scan`'s float arithmetic;
- `RELABELLINGS`, the six generators of the relabelling group, under which
  the causality condition and a nonlocal table's signal must not change.

The analytic half, which no command runs:
- `parallelogram_residuals`, the pointwise identity behind the 4/N budget;
- `per_pair_variance` of b + b' or b - b' (`Combination`) under a coupling;
- `pr_limit_couplings`, the scalar extremal couplings at C = 1;
- `critical_c_scalar`, the scalar-addition critical point C = 1/2;
- `vector_addition_model` (`VectorAdditionModel`), the composite
  observables that meet both binomial lower bounds with equality, and
  `budget_from_table` (`VarianceBudget`), the 4/N budget they saturate.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from nsbox.boxes import CorrelationTable
from nsbox.causality import _binding_terms, variance_lower_bound_a, variance_lower_bound_ap
from nsbox.coupling import J_VALUES, JP_VALUES, TripleCoupling, make_scalar_extremal_couplings
from nsbox.macro import BatchArrays, batch_lattice


@dataclass(frozen=True)
class HullMembership:
    """Result of the LP test for membership in the local (deterministic) hull."""

    inside: bool
    distance: float  # minimal sup-norm distance to a convex combination


def deterministic_tables() -> list[CorrelationTable]:
    """Correlation tables of the 16 deterministic boxes."""
    tables = []
    for i_a, i_ap, j_b, j_bp in product((1, -1), repeat=4):
        tables.append(
            CorrelationTable(i_a * j_b, i_a * j_bp, i_ap * j_b, i_ap * j_bp)
        )
    return tables


def local_hull_membership(table: CorrelationTable) -> HullMembership:
    """LP test: distance from the table to the hull of the 16 deterministic tables.

    Solves min eps s.t. |V @ lam - t|_inf <= eps, lam >= 0, sum lam = 1,
    where V's columns are the deterministic correlation tables.  The table is
    a local-box correlation table iff the optimum is zero, within 1e-9.
    """
    vertices = np.array([t.as_tuple() for t in deterministic_tables()]).T  # 4 x 16
    target = np.array(table.as_tuple())
    n = vertices.shape[1]
    # variables: lam (16), eps (1)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((8, n + 1))
    a_ub[:4, :n] = vertices
    a_ub[:4, -1] = -1.0
    a_ub[4:, :n] = -vertices
    a_ub[4:, -1] = -1.0
    b_ub = np.concatenate([target, -target])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    bounds = [(0.0, None)] * n + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"hull membership LP failed: {res.message}")
    dist = float(res.fun)
    return HullMembership(inside=dist <= 1e-9, distance=dist)


def chsh_variants(table: CorrelationTable) -> tuple[float, float, float, float]:
    """The four CHSH combinations (one minus sign each); their ±abs give all eight."""
    t = table.as_tuple()
    signs = (
        (1, 1, 1, -1),
        (1, 1, -1, 1),
        (1, -1, 1, 1),
        (-1, 1, 1, 1),
    )
    return tuple(sum(s * v for s, v in zip(sg, t)) for sg in signs)


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


def reference_batch_law(coupling: TripleCoupling, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(batch_lattice(N), P) as `batch_law` returns them, by a scalar loop over
    the (n1, n2, n3) cell counts in lexicographic order, each weight a product
    of binomials and powers of the four (j, j') cell probabilities.  The
    coupling is not validated."""
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
    return batch_lattice(n), law


def reference_histogram(batch_file: Path) -> tuple[str | None, str]:
    """export's B + B' histogram of one batch CSV through csv.DictReader,
    parsing every row's floats: the histogram CSV text, or None when the
    file is skipped, and stderr."""
    counts: dict[tuple[str, float], int] = {}
    try:
        with open(batch_file) as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                if row["strategy"] is None:
                    raise ValueError(f"line {reader.line_num} has no field 'strategy'")
                key = (row["strategy"], round(float(row["B"]) + float(row["Bprime"]), 12))
                counts[key] = counts.get(key, 0) + 1
    except KeyError as exc:
        return None, f"warning: skipped {batch_file}: missing column {exc}\n"
    except (OSError, ValueError, TypeError, csv.Error) as exc:
        return None, f"warning: skipped {batch_file}: {exc}\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["strategy", "value", "count"])
    writer.writerows([s, f"{value:.17g}", n] for (s, value), n in sorted(counts.items()))
    return buffer.getvalue(), ""


def reference_frontier_scan(resolution: int, rhs: float) -> tuple[float, tuple[float, ...]]:
    """(max CHSH, argmax table) of the general frontier scan in numpy: the
    `np.linspace` grid of x, its best feasible y, the first argmax of x + y,
    then a golden section over the argmax's two neighbours with every value a
    numpy scalar."""

    def best_y(x):
        return np.minimum(2.0, np.sqrt(np.maximum(rhs - x * x, 0.0)))

    def f(x):
        return x + best_y(x)

    x_max = min(2.0, math.sqrt(rhs))
    grid = np.linspace(-x_max, x_max, resolution)
    k = int(np.argmax(f(grid)))
    a, b = float(grid[max(0, k - 1)]), float(grid[min(resolution - 1, k + 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
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
    y = float(best_y(x))
    return float(f(x)), (x / 2.0, x / 2.0, y / 2.0, -y / 2.0)


#: The relabelling group acts on (C(a,b), C(a,b'), C(a',b), C(a',b')); these
#: six moves, each keeping Alice as the party who chooses, generate it.
RELABELLINGS = (
    lambda t: (t[2], t[3], t[0], t[1]),  # a <-> a'
    lambda t: (t[1], t[0], t[3], t[2]),  # b <-> b'
    lambda t: (-t[0], -t[1], t[2], t[3]),  # a's outcomes negated
    lambda t: (t[0], t[1], -t[2], -t[3]),  # a''s outcomes negated
    lambda t: (-t[0], t[1], -t[2], t[3]),  # b's outcomes negated
    lambda t: (t[0], -t[1], t[2], -t[3]),  # b''s outcomes negated
)


# ---------------------------------------------------------------------------
# The analytic half of the argument
# ---------------------------------------------------------------------------

def parallelogram_residuals(b_mean: np.ndarray, bp_mean: np.ndarray) -> np.ndarray:
    """(B+B')^2 + (B-B')^2 - 2B^2 - 2B'^2, zero up to rounding for any reals."""
    b = np.asarray(b_mean, dtype=float)
    bp = np.asarray(bp_mean, dtype=float)
    return (b + bp) ** 2 + (b - bp) ** 2 - 2.0 * b**2 - 2.0 * bp**2


class Combination(enum.Enum):
    SUM = "sum"
    DIFFERENCE = "difference"


def per_pair_variance(coupling: TripleCoupling, combination: Combination) -> float:
    """Var(b + b') or Var(b - b') under the coupling, with scalar +/-1 values."""
    sign = 1.0 if combination is Combination.SUM else -1.0
    values = [j + sign * jp for j, jp in zip(J_VALUES, JP_VALUES)]
    mean = coupling.expectation(values)
    return coupling.expectation([v * v for v in values]) - mean**2


def pr_limit_couplings() -> tuple[TripleCoupling, TripleCoupling]:
    """Scalar extremal couplings at C = 1: b = b' = a under a, b = -b' = a' under a'."""
    return make_scalar_extremal_couplings(1.0)


def critical_c_scalar() -> float:
    """Critical strength for scalar-addition couplings: 4C = 4(1-C) gives 1/2.

    Below the quantum point sqrt(2)/2: confining b + b' to {0, +/-2} cannot
    reach the full causality frontier.
    """
    return 0.5


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


def vector_addition_model(table: CorrelationTable) -> VectorAdditionModel:
    """Composite observables meeting both binomial bounds with equality."""
    x, y = _binding_terms(table)
    return VectorAdditionModel(c_values=(x, -x), cp_values=(y, -y))


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


def budget_from_table(table: CorrelationTable, n_pairs: int) -> VarianceBudget:
    """The saturating budget of the vector-addition model (both bounds squared)."""
    return VarianceBudget(
        n_pairs=n_pairs,
        delta_a_sum_sq=variance_lower_bound_a(table, n_pairs) ** 2,
        delta_ap_diff_sq=variance_lower_bound_ap(table, n_pairs) ** 2,
    )
