import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsbox.boxes import A, A_PRIME, AliceSetting, CorrelationTable
from nsbox.cli import main
from nsbox.coupling import (
    CORR_TOL,
    CouplingObjective,
    I_VALUES,
    J_VALUES,
    JP_VALUES,
    TripleCoupling,
    coupling_bounds,
    coupling_to_json,
    couplings_for_table,
    extremal_coupling,
    make_scalar_extremal_couplings,
    validate_coupling,
)
from oracles import Combination, per_pair_variance, pr_limit_couplings

I_VALUES, J_VALUES, JP_VALUES = map(np.array, (I_VALUES, J_VALUES, JP_VALUES))  # tuples in nsbox

MIN_D = CouplingObjective.MIN_DISAGREE
MAX_D = CouplingObjective.MAX_DISAGREE


def disagree_probability(k: TripleCoupling) -> float:
    marg = k.pair_marginal()
    return float(marg[0, 1] + marg[1, 0])


def feasible_family_pmf(c1, c2, t, m):
    """Full parameterization of the constraint set: the two free coordinates
    are the (j,j') correlation t and the three-way coefficient m."""
    cells = np.empty(8)
    for idx in range(8):
        i, j, k = I_VALUES[idx], J_VALUES[idx], JP_VALUES[idx]
        cells[idx] = (1 + c1 * i * j + c2 * i * k + t * j * k + m * i * j * k) / 8
    return cells


def brute_force_disagree_range(c1, c2, step=1e-3):
    """Grid scan of the feasible 2-face of the 8-simplex at the given step."""
    ts = np.arange(-1.0, 1.0 + step / 2, step)
    ms = np.arange(-1.0, 1.0 + step / 2, step)
    tg, mg = np.meshgrid(ts, ms, indexing="ij")
    min_cell = np.full(tg.shape, np.inf)
    for idx in range(8):
        i, j, k = I_VALUES[idx], J_VALUES[idx], JP_VALUES[idx]
        cell = (1 + c1 * i * j + c2 * i * k + tg * j * k + mg * i * j * k) / 8
        np.minimum(min_cell, cell, out=min_cell)
    feasible_t = tg[min_cell >= -1e-12]
    assert feasible_t.size > 0
    return float((1 - feasible_t.max()) / 2), float((1 - feasible_t.min()) / 2)


# ---------------------------------------------------------------------------
# Reference: the exact LP over basic feasible solutions, which `extremal_coupling`
# solved before its closed form.  The feasible set is a 2-dimensional polytope,
# so enumerating the bases of the 6x8 system in rational arithmetic finds the
# exact optimum; each cell is rounded to float once.
# ---------------------------------------------------------------------------

# Constraint rows (all coefficients are +/-1 or 1): total mass, three uniform
# marginals, two target correlations.
_CONSTRAINT_ROWS = (
    np.ones(8),
    I_VALUES,
    J_VALUES,
    JP_VALUES,
    I_VALUES * J_VALUES,
    I_VALUES * JP_VALUES,
)
DISAGREE = (J_VALUES != JP_VALUES).astype(float)
_CONSTRAINT_NAMES = (
    "normalization",
    "marginal_i",
    "marginal_j",
    "marginal_jp",
    "corr_ij",
    "corr_ijp",
)


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None for a singular system."""
    n = len(rhs)
    aug = [row[:] + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _enumerate_optima(c_xb: float, c_xbp: float) -> tuple[
    tuple[Fraction, tuple[Fraction, ...]], tuple[Fraction, tuple[Fraction, ...]]
]:
    """Exact (min, max) of P(j != j') with the achieving basic solutions."""
    rhs_full = [
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(c_xb),
        Fraction(c_xbp),
    ]
    rows = [[Fraction(int(v)) for v in row] for row in _CONSTRAINT_ROWS]
    objective = [Fraction(int(v)) for v in DISAGREE]

    best_min = best_max = None
    for basis in combinations(range(8), 6):
        matrix = [[rows[r][c] for c in basis] for r in range(6)]
        solution = _solve_exact(matrix, rhs_full)
        if solution is None or any(v < 0 for v in solution):
            continue
        full = [Fraction(0)] * 8
        for c, v in zip(basis, solution):
            full[c] = v
        value = sum(o * v for o, v in zip(objective, full))
        if best_min is None or value < best_min[0]:
            best_min = (value, tuple(full))
        if best_max is None or value > best_max[0]:
            best_max = (value, tuple(full))
    if best_min is None:
        raise ValueError(
            "no pmf satisfies "
            + ", ".join(f"{n}={float(v)}" for n, v in zip(_CONSTRAINT_NAMES, rhs_full))
        )
    return best_min, best_max


def reference_extremal_coupling(c_xb, c_xbp, objective, alice_setting=A) -> TripleCoupling:
    """The LP's optimal coupling, with each exact cell rounded once."""
    best_min, best_max = _enumerate_optima(c_xb, c_xbp)
    chosen = best_min if objective is CouplingObjective.MIN_DISAGREE else best_max
    return TripleCoupling(alice_setting, [float(v) for v in chosen[1]])


#: Targets where rounding or a degenerate Frechet segment could go wrong.
EDGE_TARGETS = (
    (0.0, 0.0),
    (0.0, -0.0),
    (-0.0, -0.0),
    (1.0, 1.0),
    (1.0, -1.0),
    (-1.0, -1.0),
    (-1.0, 0.0),
    (5e-324, 0.0),
    (5e-324, -5e-324),
    (1 - 2**-53, 1 - 2**-53),
    (1 - 2**-53, -(1 - 2**-53)),
    (1 - 2**-53, 5e-324),
    (0.7071, -0.7071),
    (-0.7071, 0.7071),
    (0.7071, 0.7071),
)

unit_floats = st.floats(min_value=-1, max_value=1, allow_nan=False, allow_subnormal=True)


class TestClosedFormMatchesLP:
    @pytest.mark.parametrize("targets", EDGE_TARGETS)
    @pytest.mark.parametrize("objective", [MIN_D, MAX_D])
    def test_edge_targets(self, targets, objective):
        reference = reference_extremal_coupling(*targets, objective)
        assert extremal_coupling(*targets, objective).flat.tobytes() == reference.flat.tobytes()

    @given(unit_floats, unit_floats, st.sampled_from([MIN_D, MAX_D]))
    @example(0.5, 0.5 + 2**-53, MIN_D)
    @example(1e-20, -1e-20, MAX_D)
    def test_bytes_equal_anywhere(self, c1, c2, objective):
        reference = reference_extremal_coupling(c1, c2, objective)
        assert extremal_coupling(c1, c2, objective).flat.tobytes() == reference.flat.tobytes()


class TestExtremalCoupling:
    def test_equal_targets_can_agree_perfectly(self):
        k = extremal_coupling(0.8, 0.8, MIN_D)
        assert disagree_probability(k) == pytest.approx(0.0, abs=1e-15)

    def test_equal_targets_max_disagree_is_one_minus_c(self):
        k = extremal_coupling(0.8, 0.8, MAX_D)
        assert disagree_probability(k) == pytest.approx(0.2, abs=1e-12)

    def test_opposite_targets_allow_perfect_anticorrelation(self):
        k = extremal_coupling(0.8, -0.8, MAX_D)
        assert disagree_probability(k) == pytest.approx(1.0, abs=1e-15)

    def test_output_validates(self):
        for c1, c2 in [(0.3, -0.6), (0.0, 0.0), (1.0, 1.0), (-0.5, 0.5)]:
            for obj in (MIN_D, MAX_D):
                k = extremal_coupling(c1, c2, obj)
                assert validate_coupling(k, (c1, c2)).ok

    def test_domain_error(self):
        with pytest.raises(ValueError):
            extremal_coupling(1.2, 0.0, MIN_D)
        with pytest.raises(ValueError):
            extremal_coupling(0.0, -1.0001, MAX_D)

    def test_lp_matches_closed_forms_on_grid(self):
        for c in np.linspace(0.0, 1.0, 11):
            c = float(c)
            for c1, c2 in [(c, c), (c, -c)]:
                bounds = coupling_bounds(c1, c2)
                lo = disagree_probability(extremal_coupling(c1, c2, MIN_D))
                hi = disagree_probability(extremal_coupling(c1, c2, MAX_D))
                assert lo == pytest.approx(bounds.min_disagree, abs=1e-9)
                assert hi == pytest.approx(bounds.max_disagree, abs=1e-9)

    @given(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    )
    def test_lp_matches_closed_forms_anywhere(self, c1, c2):
        bounds = coupling_bounds(c1, c2)
        lo = disagree_probability(extremal_coupling(c1, c2, MIN_D))
        hi = disagree_probability(extremal_coupling(c1, c2, MAX_D))
        assert lo == pytest.approx(bounds.min_disagree, abs=1e-9)
        assert hi == pytest.approx(bounds.max_disagree, abs=1e-9)

    def test_brute_force_grid_oracle(self):
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            lo_bf, hi_bf = brute_force_disagree_range(c, c)
            assert disagree_probability(extremal_coupling(c, c, MIN_D)) == pytest.approx(
                lo_bf, abs=2e-3
            )
            assert disagree_probability(extremal_coupling(c, c, MAX_D)) == pytest.approx(
                hi_bf, abs=2e-3
            )

    def test_max_disagree_monotone_in_c(self):
        values = [
            disagree_probability(extremal_coupling(c, c, MAX_D))
            for c in np.linspace(0.0, 1.0, 21)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestCouplingsForTable:
    @pytest.mark.parametrize("past", [
        (1 + 1e-13, 1, 1, -1), (1, 1, 1, -1 - 1e-13), (-1 - 1e-12, 1 + 1e-12, 1, -1),
    ])
    def test_entries_past_one_count_as_one(self, past):
        # a table holds entries up to NORM_TOL past +/-1, so box correlations survive rounding
        clamped = [max(-1, min(1, c)) for c in past]
        for got, want in zip(couplings_for_table(CorrelationTable(*past)),
                             couplings_for_table(CorrelationTable(*clamped))):
            assert got.alice_setting == want.alice_setting
            assert got.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("c", [0.5, 0.55, 0.8, 1.0])
    def test_relabelling_b_prime_flips_the_jp_axis(self, c):
        """(C, -C, C, C) is the tilted table with b' relabelled: each of its
        couplings is the tilted one with the j' axis reversed, bit for bit."""
        tilted = couplings_for_table(CorrelationTable(c, c, c, -c))
        relabelled = couplings_for_table(CorrelationTable(c, -c, c, c))
        for got, want in zip(relabelled, tilted):
            assert got.alice_setting == want.alice_setting
            assert got.flat.tobytes() == want.flat.reshape(2, 2, 2)[:, :, ::-1].tobytes()

    def test_extremal_coupling_stays_strict(self):
        with pytest.raises(ValueError, match="must be a target correlation in"):
            extremal_coupling(1 + 1e-13, 1, MAX_D)


class TestCouplingBounds:
    def test_variance_bounds_equal_targets(self):
        bounds = coupling_bounds(0.5, 0.5)
        assert bounds.min_var_sum == pytest.approx(2.0, abs=1e-12)
        assert bounds.max_var_sum == pytest.approx(4.0, abs=1e-12)
        # per-pair spread of b + b' is at least 2 sqrt(C)
        assert math.sqrt(bounds.min_var_sum) == pytest.approx(2 * math.sqrt(0.5), abs=1e-12)

    def test_variance_bounds_opposite_targets(self):
        bounds = coupling_bounds(0.5, -0.5)
        assert bounds.min_var_sum == pytest.approx(0.0, abs=1e-12)
        assert bounds.max_var_sum == pytest.approx(2.0, abs=1e-12)
        assert math.sqrt(bounds.max_var_sum) == pytest.approx(2 * math.sqrt(0.5), abs=1e-12)

    def test_perfect_correlations_pin_everything(self):
        bounds = coupling_bounds(1.0, 1.0)
        assert bounds.min_disagree == bounds.max_disagree == 0.0
        assert bounds.min_var_sum == bounds.max_var_sum == 4.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c1, c2 = rng.uniform(-1, 1, 2)
            bounds = coupling_bounds(c1, c2)
            assert 0.0 <= bounds.min_disagree <= bounds.max_disagree <= 1.0

    def test_variance_is_four_times_agreement(self):
        k = extremal_coupling(0.6, 0.2, MAX_D)
        agree = 1.0 - disagree_probability(k)
        assert per_pair_variance(k, Combination.SUM) == pytest.approx(4 * agree, abs=1e-12)


class TestScalarExtremalCouplings:
    def test_pr_limit(self):
        under_a, under_ap = pr_limit_couplings()
        pmf_a, pmf_ap = (k.flat.reshape(2, 2, 2) for k in (under_a, under_ap))
        # b = b' = a: only the all-equal cells carry mass
        assert pmf_a[0, 0, 0] == 0.5
        assert pmf_a[1, 1, 1] == 0.5
        assert under_a.flat.sum() == 1.0
        # b = a', b' = -a'
        assert pmf_ap[0, 0, 1] == 0.5
        assert pmf_ap[1, 1, 0] == 0.5

    def test_half(self):
        under_a, under_ap = make_scalar_extremal_couplings(0.5)
        assert disagree_probability(under_a) == pytest.approx(0.5, abs=1e-12)
        assert 1 - disagree_probability(under_ap) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        under_a, under_ap = make_scalar_extremal_couplings(0.0)
        assert disagree_probability(under_a) == pytest.approx(1.0, abs=1e-12)
        assert disagree_probability(under_ap) == pytest.approx(0.0, abs=1e-12)

    def test_settings_attached(self):
        under_a, under_ap = make_scalar_extremal_couplings(0.3)
        assert under_a.alice_setting == A
        assert under_ap.alice_setting == A_PRIME

    def test_domain(self):
        with pytest.raises(ValueError):
            make_scalar_extremal_couplings(-0.1)


class TestValidateCoupling:
    def test_constructor_output_passes(self):
        k = extremal_coupling(0.4, 0.1, MAX_D)
        assert validate_coupling(k, (0.4, 0.1)).ok

    def test_unnormalized_fails_with_residual(self):
        pmf = np.full(8, 0.99 / 8)
        report = validate_coupling(TripleCoupling(A, pmf), (0.0, 0.0))
        assert not report.ok
        assert report.residuals["normalization"] == pytest.approx(0.01, abs=1e-15)

    def test_moved_mass_breaks_marginal(self):
        # shift 0.05 between agreeing cells that differ in j: correlations with i
        # survive only partially but the j marginal must break
        k = extremal_coupling(0.0, 0.0, MIN_D)
        pmf = k.flat.reshape(2, 2, 2).copy()
        pmf[0, 0, 0] += 0.05
        pmf[0, 1, 1] -= 0.05
        report = validate_coupling(TripleCoupling(A, pmf.ravel()), (0.0, 0.0))
        assert not report.ok
        assert report.residuals["marginal_j"] > 1e-3

    def test_wrong_party_rejected(self):
        with pytest.raises(ValueError):
            TripleCoupling("b", np.full(8, 0.125))

    def test_label_gives_the_member(self):
        assert TripleCoupling("a'", np.full(8, 0.125)).alice_setting is A_PRIME


def numpy_validation_ok(k: TripleCoupling, targets=None) -> bool:
    """`validate_coupling(k, targets).ok` as numpy computes it: a pairwise
    sum, an array minimum and dot products over the flat pmf."""
    flat = k.flat
    residuals = [abs(float(flat.sum()) - 1.0), max(0.0, float(-flat.min()))]
    residuals += [abs(float(flat @ values)) / 2.0 for values in (I_VALUES, J_VALUES, JP_VALUES)]
    if targets is not None:
        residuals += [abs(float(flat @ (I_VALUES * values)) - target)
                      for values, target in zip((J_VALUES, JP_VALUES), targets)]
    return all(r <= CORR_TOL for r in residuals)


#: The defective pmfs `run_protocol` must reject (test_signalling.py).
DEFECTIVE_PMFS = {
    "mass deficit 0.3": 0.7 * extremal_coupling(1.0, -1.0, MIN_D).flat,
    "negative cells": (1 + 1.5 * I_VALUES * J_VALUES * JP_VALUES) / 8,
    "non-uniform marginal": np.array([0.55, 0, 0, 0, 0, 0, 0, 0.45]),
}


class TestTripleCoupling:
    """The cells are eight Python floats in flat cell order; `flat` and
    `pair_cells` are views built on demand."""

    PMF = extremal_coupling(0.3, -0.7, MAX_D).flat

    def test_arrays_lists_and_tuples_give_the_same_cells(self):
        for form in (self.PMF, self.PMF.copy(), self.PMF.tolist(), tuple(self.PMF.tolist()),
                     np.full(8, 0.125)):
            k = TripleCoupling(A, form)
            assert k.flat.tobytes() == np.asarray(form, dtype=float).tobytes()
            assert k.cells == tuple(np.asarray(form).tolist())
            assert all(type(p) is float for p in k.cells)

    def test_input_array_is_copied(self):
        source = np.full(8, 0.125)
        k = TripleCoupling(A, source)
        source[0] = 0.5
        assert k.cells == (0.125,) * 8

    @pytest.mark.parametrize("pmf", [
        np.full((2, 2, 2), 0.125),
        np.full((2, 2, 2), 0.125).tolist(),
        np.full(7, 0.125),
        [0.125] * 9,
        np.full((2, 2, 2, 1), 0.125),
        np.full((2, 4), 0.25),
        np.full((4, 2, 1), 0.125),
        [[[0.125, 0.125], [0.125]], [[0.125, 0.125], [0.125, 0.125]]],
        [[[0.125, 0.125], [0.125, 0.125]], [[0.125, 0.125]]],
        [[[0.125, 0.125, 0.0], [0.125, 0.125]], [[0.125, 0.125], [0.125, 0.125]]],
        [[[0.125, [0.125]], [0.125, 0.125]], [[0.125, 0.125], [0.125, 0.125]]],
        [[[np.full(2, 0.0625)] * 2] * 2] * 2,
        [[[np.full(1, 0.125)] * 2] * 2] * 2,
        [[0.25, 0.25], [0.25, 0.25]],
        0.125,
        None,
    ], ids=["2x2x2", "2x2x2-list", "7-cells", "9-cells", "4-d", "2x4", "4x2x1", "short-row",
            "short-plane", "long-row", "deep-cell", "array-cells", "size-1-array-cells", "2x2",
            "scalar", "none"])
    def test_wrong_shape_rejected(self, pmf):
        with pytest.raises(ValueError, match="^cells must be 8 numbers in flat cell order, got "):
            TripleCoupling(A, pmf)

    @pytest.mark.parametrize("cell", [[0.125], (0.125,), np.full(1, 0.125), np.full(2, 0.0625)],
                             ids=["list", "tuple", "size-1-array", "array"])
    def test_nested_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="^cell must be a finite real, got "):
            TripleCoupling(A, [0.125] * 7 + [cell])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        pmf = np.full(8, 0.125)
        pmf[5] = bad
        for form in (pmf, pmf.tolist()):
            with pytest.raises(ValueError, match="finite"):
                TripleCoupling(A, form)

    def test_arrays_are_read_only(self):
        k = TripleCoupling(A, self.PMF)
        with pytest.raises(ValueError, match="read-only"):
            k.flat[0] = 1.0
        with pytest.raises(AttributeError, match="^cannot assign to field 'cells'$"):
            k.cells = (0.125,) * 8
        assert k.flat is k.flat

    @pytest.mark.parametrize("name", ["cells", "flat", "pair_cells", "validation"])
    @pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
    def test_attributes_cannot_be_deleted(self, name, used):
        k = make_scalar_extremal_couplings(0.8)[0]
        cells = k.cells
        if used:
            k.flat, k.pair_cells, k.validation
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(k, name)
        assert k.cells == cells
        assert k.validation.ok
        assert k.flat.tobytes() == np.array(cells).tobytes()

    def test_repr_shows_the_setting_and_cells(self):
        k = TripleCoupling(A_PRIME, [0.5, 0, 0, 0, 0, 0, 0, 0.5])
        assert repr(k) == ("TripleCoupling(alice_setting=<AliceSetting.A_PRIME: \"a'\">, "
                           "cells=(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5))")

    @pytest.mark.parametrize("argv", [["--C", "0.8"], ["--targets", "-0.2", "0.6"]],
                             ids=["scalar-pair", "targets"])
    def test_json_rebuilds_the_coupling(self, tmp_path, capsys, argv):
        """The constructor takes what `coupling_to_json` writes: the setting
        label and the "pmf" list of cells."""
        out = tmp_path / "couplings.json"
        assert main(["couplings", *argv, "--out", str(out)]) == 0
        written = json.loads(out.read_text())["couplings"]
        if argv[0] == "--C":
            built = dict(zip(["under_a", "under_aprime"], make_scalar_extremal_couplings(0.8)))
        else:
            built = {o.value: extremal_coupling(-0.2, 0.6, o) for o in (MIN_D, MAX_D)}
        assert sorted(written) == sorted(built)
        for arm, k in built.items():
            d = coupling_to_json(k)
            assert d == written[arm]
            rebuilt = TripleCoupling(AliceSetting(d["alice_setting"]), d["pmf"])
            assert rebuilt.cells == k.cells
            assert rebuilt == k

    @settings(max_examples=30, deadline=None)
    @given(st.lists(unit_floats, min_size=4, max_size=4))
    def test_pair_marginal_is_the_planes_summed(self, entries):
        """`pair_marginal` holds `pair_cells` with the bits numpy's sum of the two i planes gives."""
        for k in couplings_for_table(CorrelationTable(*entries)):
            summed = k.flat.reshape(2, 2, 2).sum(axis=0)
            assert k.pair_marginal().tobytes() == summed.tobytes()
            assert k.pair_marginal().ravel().tolist() == list(k.pair_cells)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(unit_floats, min_size=4, max_size=4),
        st.integers(0, 7),
        st.sampled_from([0.0, 5e-10, -5e-10, 1.5e-9, -3e-9]),
    )
    def test_validation_agrees_with_numpy_on_tables(self, entries, cell, shift):
        """Shifts of a cell straddle `CORR_TOL` without landing on it."""
        table = CorrelationTable(*entries)
        targets = (table.as_tuple()[:2], table.as_tuple()[2:])
        for k, t in zip(couplings_for_table(table), targets):
            cells = list(k.cells)
            cells[cell] += shift
            shifted = TripleCoupling(k.alice_setting, np.array(cells))
            for coupling in (k, shifted):
                assert validate_coupling(coupling).ok == numpy_validation_ok(coupling)
                assert validate_coupling(coupling, t).ok == numpy_validation_ok(coupling, t)

    @pytest.mark.parametrize("defect", sorted(DEFECTIVE_PMFS))
    def test_validation_agrees_with_numpy_on_defects(self, defect):
        k = TripleCoupling(A, DEFECTIVE_PMFS[defect])
        assert not numpy_validation_ok(k)
        assert not validate_coupling(k).ok


class TestPerPairVariance:
    def test_pr_limit_sum(self):
        under_a, under_ap = pr_limit_couplings()
        assert per_pair_variance(under_a, Combination.SUM) == pytest.approx(4.0, abs=1e-12)
        assert per_pair_variance(under_ap, Combination.SUM) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.booleans(),
    )
    def test_parallelogram_identity(self, c1, c2, use_max):
        k = extremal_coupling(c1, c2, MAX_D if use_max else MIN_D)
        total = per_pair_variance(k, Combination.SUM) + per_pair_variance(
            k, Combination.DIFFERENCE
        )
        assert total == pytest.approx(4.0, abs=1e-12)


class TestSerialization:
    def test_lexicographic_order(self):
        under_a, under_ap = pr_limit_couplings()
        data = coupling_to_json(under_a)
        assert data["alice_setting"] == "a"
        assert coupling_to_json(under_ap)["alice_setting"] == "a'"
        # cells (+1,+1,+1) and (-1,-1,-1) are first and last
        assert data["pmf"][0] == 0.5
        assert data["pmf"][7] == 0.5
