"""Counterfactual couplings of (Alice outcome, b, b') for one Alice setting.

A coupling is an 8-point pmf over (i, j, j') in {+1,-1}^3 with uniform
one-variable marginals and prescribed correlations E[ij] and E[ij'].  The
correlation between j and j' is not fixed by the table; its feasible range,
and hence the feasible range of Var(b +/- b'), follows in closed form.  Given
i, the pair (j, j') is two Bernoulli variables with fixed marginals, whose
joint law is extremal at a Frechet bound.  The extremal couplings are built
from that bound in rational arithmetic, so no solver tolerance enters.  The
cells are Python floats: building and checking a coupling loads no numpy.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .boxes import A, A_PRIME, AliceSetting, CorrelationTable, _checked_real, _term_pairs

CORR_TOL = 1e-9

# Flat cell order: index = 4*bi + 2*bj + bk with bit 0 meaning outcome +1,
# i.e. (i, j, j') runs lexicographically with +1 before -1.
I_VALUES = (1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0)
J_VALUES = (1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0)
JP_VALUES = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


class CouplingObjective(enum.Enum):
    MIN_DISAGREE = "min_disagree"
    MAX_DISAGREE = "max_disagree"


@dataclass(frozen=True)
class TripleCoupling:
    """Joint pmf over (i, j, j'): `cells` holds 8 Python floats in flat cell
    order, the order of `coupling_to_json`'s "pmf" list.  `flat` (a read-only
    array), `pair_cells` (the (j, j') marginal) and `validation` are computed
    at first use and kept: the cells cannot change.  Construction takes 8
    numbers (a list, tuple or 1-D ndarray), each a finite real by
    `_checked_real` (bools, strings and nestings are rejected), so that
    defective couplings can be built and fed to `validate_coupling`.
    """

    alice_setting: AliceSetting
    cells: tuple[float, ...]

    def __post_init__(self) -> None:
        cells = self.cells.tolist() if hasattr(self.cells, "tolist") else self.cells
        if not isinstance(cells, (list, tuple)) or len(cells) != 8:
            raise ValueError(f"cells must be 8 numbers in flat cell order, got {cells!r}")
        object.__setattr__(self, "alice_setting", AliceSetting(self.alice_setting))
        object.__setattr__(self, "cells", tuple(
            _checked_real(x, "cell", "a finite real", -math.inf) for x in cells))

    @functools.cached_property
    def flat(self):
        import numpy as np

        flat = np.array(self.cells)
        flat.flags.writeable = False
        return flat

    @functools.cached_property
    def pair_cells(self) -> tuple[float, float, float, float]:
        """The (j, j') probabilities q, (+,+) .. (-,-): a batch law reads only q."""
        return tuple(map(operator.add, self.cells[:4], self.cells[4:]))

    @functools.cached_property
    def validation(self) -> CouplingValidation:
        return validate_coupling(self)

    def expectation(self, values) -> float:
        return math.fsum(map(operator.mul, self.cells, values))

    def pair_marginal(self):
        """The (j, j') marginal `pair_cells` as a (2, 2) array (index 0 is +1)."""
        import numpy as np

        return np.array(self.pair_cells).reshape(2, 2)


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


def _check_targets(c_xb: float, c_xbp: float) -> tuple[float, float]:
    return (_checked_real(c_xb, "c_xb", "a target correlation in [-1, 1]", -1.0, 1.0),
            _checked_real(c_xbp, "c_xbp", "a target correlation in [-1, 1]", -1.0, 1.0))


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
    c_xb, c_xbp = _check_targets(c_xb, c_xbp)
    cells = []
    for s in (1, -1):
        p, q = (1 + s * Fraction(c_xb)) / 2, (1 + s * Fraction(c_xbp)) / 2
        if objective is CouplingObjective.MIN_DISAGREE:
            r = min(p, q)
        else:
            r = max(Fraction(0), p + q - 1)
        cells += [float(v / 2) for v in (r, p - r, q - r, 1 - p - q + r)]
    return TripleCoupling(alice_setting, cells)


def coupling_bounds(c_xb: float, c_xbp: float) -> CouplingBounds:
    """Closed-form extremes of P(b != b') and Var(b + b') for the targets.

    With uniform marginals, conditioning on i reduces the question to two
    Bernoulli pairs whose Frechet bounds (see `extremal_coupling`) give
    P(b != b') in [|c1 - c2|/2, 1 - |c1 + c2|/2]; Var(b + b') = 4 P(b = b')
    then maps the same interval.
    """
    c_xb, c_xbp = _check_targets(c_xb, c_xbp)
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
    c = _checked_real(c, "c", "a correlation strength in [0, 1]", 0.0, 1.0)
    return couplings_for_table(CorrelationTable(c, c, c, -c))


def couplings_for_table(table: CorrelationTable) -> tuple[TripleCoupling, TripleCoupling]:
    """Variance-extremal couplings for a correlation table: E[jj'] takes one
    end of its feasible range under each Alice setting.  When
    |C(a,b) + C(a,b')| + |C(a',b) - C(a',b')| >= 2, as on the tilted family
    from C = 1/2 up, the a range sits above the a' one, and the closest ends
    are a's bottom (minimal B+B' spread) and a''s top.  When
    |C(a,b) - C(a,b')| + |C(a',b) + C(a',b')| >= 2 the a range sits below
    and the two swap, so relabelling b' flips the j' axis of both couplings.
    Where the ranges overlap, as below C = 1/2, a takes its bottom and a' its
    top, and the pair signals more than it must: one common E[jj'] would not
    signal at all (the least-signalling couplings item of ROADMAP.md).
    Entries the table allows up to `NORM_TOL` past +/-1 count as +/-1."""
    entries = [min(1.0, max(-1.0, c)) for c in table.as_tuple()]
    objectives = [CouplingObjective.MAX_DISAGREE, CouplingObjective.MIN_DISAGREE]
    u, v = _term_pairs(*entries)[1]
    if u + v >= 2.0:
        objectives.reverse()
    return (extremal_coupling(*entries[:2], objectives[0], alice_setting=A),
            extremal_coupling(*entries[2:], objectives[1], alice_setting=A_PRIME))


def validate_coupling(
    coupling: TripleCoupling, targets: tuple[float, float] | None = None
) -> CouplingValidation:
    """Check normalization, nonnegativity, uniform marginals and target correlations.

    Every constraint's absolute residual is reported; ok means all within
    `CORR_TOL`.  Without targets, the correlations are not checked.
    """
    cells = coupling.cells
    residuals = {
        "normalization": abs(math.fsum(cells) - 1.0),
        "nonnegativity": max(0.0, -min(cells)),
        "marginal_i": abs(coupling.expectation(I_VALUES)) / 2.0,
        "marginal_j": abs(coupling.expectation(J_VALUES)) / 2.0,
        "marginal_jp": abs(coupling.expectation(JP_VALUES)) / 2.0,
    }
    if targets is not None:
        ij, ijp = map(operator.mul, I_VALUES, J_VALUES), map(operator.mul, I_VALUES, JP_VALUES)
        residuals["corr_ij"] = abs(coupling.expectation(ij) - targets[0])
        residuals["corr_ijp"] = abs(coupling.expectation(ijp) - targets[1])
    ok = all(r <= CORR_TOL for r in residuals.values())
    return CouplingValidation(ok=ok, residuals=residuals)


def coupling_to_json(coupling: TripleCoupling) -> dict:
    """JSON form: Alice setting label plus the 8 probabilities in cell order
    (i, j, j') lexicographic with +1 before -1."""
    return {
        "alice_setting": coupling.alice_setting.value,
        "pmf": list(coupling.cells),
    }
