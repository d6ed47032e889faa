import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsbox.causality
from nsbox.boxes import CorrelationTable, chsh, chsh_variants
from nsbox.causality import (
    TSIRELSON_BOUND,
    causality_condition,
    frontier_grid,
    frontier_scan,
    tsirelson_check,
    variance_lower_bound_a,
    variance_lower_bound_ap,
)
from nsbox.coupling import coupling_bounds, make_scalar_extremal_couplings
from nsbox.macro import NoiseModel, sample_batches
from oracles import (
    Combination,
    VarianceBudget,
    budget_from_table,
    critical_c_scalar,
    per_pair_variance,
    reference_frontier_scan,
    vector_addition_model,
)

Q = math.sqrt(2.0) / 2.0
PR_TABLE = CorrelationTable(1, 1, 1, -1)
QUANTUM_TABLE = CorrelationTable(Q, Q, Q, -Q)
ZERO_TABLE = CorrelationTable(0, 0, 0, 0)


def corr_values():
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def tables():
    return st.builds(CorrelationTable, corr_values(), corr_values(), corr_values(), corr_values())


def onto_frontier(table):
    """The table scaled down onto the causality frontier when it lies outside."""
    lhs = causality_condition(table).lhs
    if lhs <= 4.0:
        return table
    return CorrelationTable(*(v * 2.0 / math.sqrt(lhs) for v in table.as_tuple()))


def frontier_tables():
    return st.one_of(tables(), tables().map(onto_frontier))


# the relabelling group acts on (C(a,b), C(a,b'), C(a',b), C(a',b'))
RELABELLINGS = (
    lambda t: (t[2], t[3], t[0], t[1]),  # a <-> a'
    lambda t: (t[1], t[0], t[3], t[2]),  # b <-> b'
    lambda t: (-t[0], -t[1], t[2], t[3]),  # a's outcomes negated
    lambda t: (t[0], t[1], -t[2], -t[3]),  # a''s outcomes negated
    lambda t: (-t[0], t[1], -t[2], t[3]),  # b's outcomes negated
    lambda t: (t[0], -t[1], t[2], -t[3]),  # b''s outcomes negated
)


def relabelled(table):
    """Every table the relabelling group reaches from `table`."""
    orbit = {table.as_tuple()}
    pending = list(orbit)
    while pending:
        t = pending.pop()
        for move in RELABELLINGS:
            image = move(t)
            if image not in orbit:
                orbit.add(image)
                pending.append(image)
    return [CorrelationTable(*t) for t in orbit]


class TestLowerBounds:
    def test_pr_examples(self):
        assert variance_lower_bound_a(PR_TABLE, 4) == 1.0
        assert variance_lower_bound_ap(PR_TABLE, 4) == 1.0

    def test_zero_table(self):
        assert variance_lower_bound_a(ZERO_TABLE, 7) == 0.0
        assert variance_lower_bound_ap(ZERO_TABLE, 7) == 0.0

    def test_quantum_table(self):
        assert variance_lower_bound_a(QUANTUM_TABLE, 1) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert variance_lower_bound_ap(QUANTUM_TABLE, 1) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            variance_lower_bound_a(PR_TABLE, 0)


class TestCausalityCondition:
    def test_pr_violates(self):
        check = causality_condition(PR_TABLE)
        assert not check.ok
        assert check.lhs == 8.0
        assert check.margin == -4.0

    def test_quantum_saturates(self):
        check = causality_condition(QUANTUM_TABLE)
        assert check.ok
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_tilted_half(self):
        check = causality_condition(CorrelationTable(0.5, 0.5, 0.5, -0.5))
        assert check.ok
        assert check.margin == pytest.approx(2.0, abs=1e-12)


class TestTsirelson:
    def test_quantum_inside_with_equality(self):
        assert tsirelson_check(QUANTUM_TABLE)
        assert abs(chsh(QUANTUM_TABLE)) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_pr_outside(self):
        assert not tsirelson_check(PR_TABLE)

    def test_tilted_seventy(self):
        assert tsirelson_check(CorrelationTable(0.7, 0.7, 0.7, -0.7))

    @given(tables())
    def test_causality_implies_tsirelson(self, table):
        if causality_condition(table).ok:
            assert tsirelson_check(table)

    @given(frontier_tables())
    def test_causality_bounds_every_chsh_variant(self, table):
        for t in relabelled(table):
            if causality_condition(t).ok:
                assert max(map(abs, chsh_variants(t))) <= TSIRELSON_BOUND + 1e-12

    def test_witness_tsirelson_without_causality(self):
        witness = CorrelationTable(1.0, 1.0, 0.2, -0.2)
        assert tsirelson_check(witness)
        assert not causality_condition(witness).ok

    def test_random_scan_finds_witness(self):
        rng = np.random.default_rng(8)
        tables_ = rng.uniform(-1, 1, size=(100_000, 4))
        x = tables_[:, 0] + tables_[:, 1]
        y = tables_[:, 2] - tables_[:, 3]
        lhs = x**2 + y**2
        s = np.abs(x + y)
        causal = lhs <= 4.0 + 1e-12
        within = s <= TSIRELSON_BOUND + 1e-12
        assert not np.any(causal & ~within)
        assert np.any(within & ~causal)


class TestLabelling:
    @given(tables())
    def test_lhs_bit_identical_under_relabelling(self, table):
        lhs = causality_condition(table).lhs
        assert {causality_condition(t).lhs for t in relabelled(table)} == {lhs}

    def test_relabelled_pr_boxes_fail(self):
        boxes = relabelled(PR_TABLE)
        assert len(boxes) == 8 and CorrelationTable(1, -1, 1, 1) in boxes
        for table in boxes:
            check = causality_condition(table)
            assert not check.ok
            assert check.lhs == 8.0
            assert not tsirelson_check(table)

    @given(tables())
    def test_bounds_are_magnitudes(self, table):
        for n in (1, 7):
            assert variance_lower_bound_a(table, n) >= 0
            assert variance_lower_bound_ap(table, n) >= 0
        budget = budget_from_table(table, 1)
        assert budget.delta_a_sum_sq + budget.delta_ap_diff_sq == pytest.approx(
            causality_condition(table).lhs, rel=1e-15, abs=1e-300
        )


class TestScalarCritical:
    def test_exact_half(self):
        assert critical_c_scalar() == 0.5

    def test_variances_match_at_half(self):
        c = critical_c_scalar()
        assert coupling_bounds(c, c).min_var_sum == pytest.approx(2.0, abs=1e-12)
        assert coupling_bounds(c, -c).max_var_sum == pytest.approx(2.0, abs=1e-12)

    def test_below_quantum_value(self):
        assert critical_c_scalar() < Q


class TestVectorModel:
    def test_quantum_saturation(self):
        model = vector_addition_model(QUANTUM_TABLE)
        assert model.c_magnitude == pytest.approx(math.sqrt(2), abs=1e-12)
        assert model.cp_magnitude == pytest.approx(math.sqrt(2), abs=1e-12)
        budget = budget_from_table(QUANTUM_TABLE, 5)
        assert budget.residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_table(self):
        model = vector_addition_model(ZERO_TABLE)
        assert model.c_values == (0.0, 0.0)
        assert model.cp_values == (0.0, 0.0)

    def test_equality_with_bounds(self):
        table = CorrelationTable(0.6, 0.3, 0.8, -0.1)
        model = vector_addition_model(table)
        for n in (1, 4, 100):
            assert model.c_magnitude / math.sqrt(n) == pytest.approx(
                variance_lower_bound_a(table, n), abs=1e-12
            )
            assert model.cp_magnitude / math.sqrt(n) == pytest.approx(
                variance_lower_bound_ap(table, n), abs=1e-12
            )

    def test_misoriented_accepted(self):
        model = vector_addition_model(CorrelationTable(1.0, 1.0, -1.0, 1.0))
        assert model.c_values == (2.0, -2.0)
        assert model.cp_values == (2.0, -2.0)
        negated = vector_addition_model(CorrelationTable(-0.6, -0.3, -0.8, 0.1))
        assert negated == vector_addition_model(CorrelationTable(0.6, 0.3, 0.8, -0.1))

    def test_scalar_values_force_local_correlations(self):
        # if c and c' are confined to {0, +/-2}, the causality disc admits
        # only (x, y) with x + y <= 2: equality in both bounds means locality
        feasible = [
            (x, y)
            for x in (0.0, 2.0)
            for y in (0.0, 2.0)
            if causality_condition(
                CorrelationTable(x / 2, x / 2, y / 2, -y / 2)
            ).ok
        ]
        assert max(x + y for x, y in feasible) == 2.0


def coupling_budget(c: float, n_pairs: int) -> VarianceBudget:
    """Budget realized by the scalar couplings at C: per-pair variances over N."""
    k_a, k_ap = make_scalar_extremal_couplings(c)
    return VarianceBudget(
        n_pairs,
        per_pair_variance(k_a, Combination.SUM) / n_pairs,
        per_pair_variance(k_ap, Combination.DIFFERENCE) / n_pairs,
    )


class TestBudgets:
    def test_scalar_budget_within_iff_below_half(self):
        for c, expected in [(0.25, True), (0.5, True), (0.75, False), (1.0, False)]:
            assert (coupling_budget(c, 8).residual >= -1e-9) is expected

    def test_pr_budget_composition(self):
        budget = coupling_budget(1.0, 4)
        assert budget.delta_a_sum_sq == pytest.approx(1.0, abs=1e-12)  # 4/N
        assert budget.delta_ap_diff_sq == pytest.approx(1.0, abs=1e-12)
        assert budget.total == 1.0

    def test_monte_carlo_spread_respects_lower_bound(self):
        # simulated Delta_a(B+B') >= [C(a,b)+C(a,b')]/sqrt(N) - 3 SE
        n_pairs, reps = 16, 100_000
        for c in (0.25, 0.5, Q, 1.0):
            k_a, _ = make_scalar_extremal_couplings(c)
            arrays = sample_batches(k_a, n_pairs, reps, NoiseModel(0.0), seed=31)
            total = arrays.b_mean + arrays.bp_mean
            sample_var = float(np.var(total, ddof=1))
            m = total - total.mean()
            se_var = math.sqrt((np.mean(m**4) - np.mean(m**2) ** 2) / reps)
            table = CorrelationTable(c, c, c, -c)
            bound_sq = variance_lower_bound_a(table, n_pairs) ** 2
            assert sample_var >= bound_sq - 3 * se_var
            # and the realized value matches the coupling's own prediction
            predicted = per_pair_variance(k_a, Combination.SUM) / n_pairs
            assert sample_var == pytest.approx(predicted, abs=5 * se_var)


class TestFrontier:
    def test_general_scan_reaches_tsirelson(self):
        report = frontier_scan(10_001)
        assert report.max_chsh == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
        assert report.argmax_table.c_ab == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
        assert report.argmax_table.c_apb == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_symmetric_scan_finds_quantum_point(self):
        report = frontier_scan(10_001, symmetric=True)
        assert report.critical_c == pytest.approx(Q, abs=1e-6)
        assert report.max_chsh == pytest.approx(TSIRELSON_BOUND, abs=1e-6)

    def test_relaxed_constraint_reaches_pr(self):
        report = frontier_scan(10_001, rhs=8.0)
        assert report.max_chsh == pytest.approx(4.0, abs=1e-6)

    def test_scan_respects_constraint(self):
        report = frontier_scan(2_001)
        assert causality_condition(report.argmax_table).lhs <= 4.0 + 1e-9

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            frontier_scan(5)
        with pytest.raises(ValueError):
            frontier_grid(5)


def reference_critical_c(resolution, rhs):
    """The symmetric scan's former answer: the largest feasible grid C, then
    bisection up to the next grid C, which is infeasible."""
    c = np.linspace(0.0, 1.0, resolution)
    feasible = c[8.0 * c * c <= rhs]
    infeasible = c[8.0 * c * c > rhs]
    lo = float(feasible.max()) if feasible.size else 0.0
    hi = float(infeasible.min()) if infeasible.size else 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if 8.0 * mid * mid <= rhs:
            lo = mid
        else:
            hi = mid
    return min(lo, min(1.0, math.sqrt(rhs / 8.0)))


class TestSymmetricClosedForm:
    @given(
        st.floats(min_value=1e-12, max_value=1e3),
        st.integers(min_value=10, max_value=200_000),
    )
    @settings(max_examples=300, deadline=None)
    # lo + 1/(resolution - 1) rounds to a feasible C here, below the next grid C
    @example(rhs=0.02, resolution=26361)
    def test_matches_bisection(self, rhs, resolution):
        report = frontier_scan(resolution, symmetric=True, rhs=rhs)
        assert report.critical_c == reference_critical_c(resolution, rhs)
        assert report.argmax_table.as_tuple() == (report.critical_c,) * 3 + (-report.critical_c,)

    @given(st.floats(min_value=1e-12, max_value=1e3))
    @settings(max_examples=300, deadline=None)
    @example(1.1346686745057649e-4)  # C**2 and C * C differ by an ulp here
    def test_largest_feasible_c(self, rhs):
        # the grid's `feasible` predicate holds at C and fails one double above
        c = frontier_scan(10, symmetric=True, rhs=rhs).critical_c
        assert 8.0 * c * c <= rhs
        above = math.nextafter(c, 2.0)
        assert c == 1.0 or 8.0 * above * above > rhs

    @pytest.mark.parametrize("rhs", [4.0, 8.0, 1e3, 1e-12])
    def test_edges(self, rhs):
        report = frontier_scan(11, symmetric=True, rhs=rhs)
        assert report.critical_c == reference_critical_c(11, rhs)
        assert report.critical_c <= 1.0

    def test_checks_kept(self):
        with pytest.raises(ValueError):
            frontier_scan(9, symmetric=True)
        with pytest.raises(ValueError):
            frontier_scan(10, symmetric=True, rhs=0.0)

    @pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda rhs: frontier_scan(101, symmetric=True, rhs=rhs),
            lambda rhs: frontier_scan(101, rhs=rhs),
            lambda rhs: frontier_grid(11, rhs=rhs),
            lambda rhs: frontier_grid(11, symmetric=True, rhs=rhs),
        ],
        ids=["scan-symmetric", "scan-general", "grid-general", "grid-symmetric"],
    )
    def test_non_finite_rhs_rejected(self, call, rhs):
        # a NaN rhs once called the PR box feasible in symmetric mode
        with pytest.raises(ValueError, match="rhs must be finite"):
            call(rhs)


def numpy_grid(resolution, symmetric, rhs):
    """`frontier_grid`'s columns as numpy computes them over `np.linspace`."""
    if symmetric:
        c = np.linspace(0.0, 1.0, resolution)
        lhs = 8.0 * c * c
        return {"C": c, "chsh": 4 * c, "causality_lhs": lhs, "feasible": lhs <= rhs}
    x_max = min(2.0, math.sqrt(rhs))
    x = np.linspace(-x_max, x_max, resolution)
    y = np.minimum(2.0, np.sqrt(np.maximum(rhs - x * x, 0.0)))
    return {"x": x, "y": y, "chsh": x + y, "causality_margin": rhs - x * x - y * y}


def bits(column):
    """Each value of a column through `float.hex` (bools as they are), so
    that -0.0 and the last bit count."""
    return [v if isinstance(v, bool) else float(v).hex() for v in column]


def reference_best_y(x, rhs):
    """The scalar y of the row-by-row scan that `frontier_grid` vectorises."""
    return min(2.0, math.sqrt(max(rhs - x * x, 0.0)))


class TestFrontierGrid:
    @pytest.mark.parametrize("resolution", [10, 101, 10_001])
    @pytest.mark.parametrize("rhs", [4.0, 2.5, 9.0, 0.3])
    def test_general_columns_match_scalar_rows(self, rhs, resolution):
        grid = frontier_grid(resolution, rhs=rhs)
        x_max = min(2.0, math.sqrt(rhs))
        rows = []
        for x in np.linspace(-x_max, x_max, resolution).tolist():
            y = reference_best_y(x, rhs)
            rows.append((x, y, x + y, rhs - x * x - y * y))
        assert list(grid) == ["x", "y", "chsh", "causality_margin"]
        assert list(zip(*(list(column) for column in grid.values()))) == rows

    @pytest.mark.parametrize("resolution", [10, 101, 10_001])
    @pytest.mark.parametrize("rhs", [4.0, 2.5, 9.0, 0.3])
    def test_symmetric_columns_match_scalar_rows(self, rhs, resolution):
        grid = frontier_grid(resolution, symmetric=True, rhs=rhs)
        rows = []
        for c in np.linspace(0.0, 1.0, resolution).tolist():
            lhs = 8.0 * c * c
            rows.append((c, 4 * c, lhs, lhs <= rhs))
        assert list(grid) == ["C", "chsh", "causality_lhs", "feasible"]
        assert list(zip(*(list(column) for column in grid.values()))) == rows

    @pytest.mark.parametrize("resolution", [10, 101, 10_001])
    @pytest.mark.parametrize("rhs", [4.0, 2.5, 9.0, 0.3])
    def test_scan_refines_the_grid_maximum(self, rhs, resolution):
        # the golden section starts from the grid's argmax and its two
        # neighbours, as the scalar scan did
        report = frontier_scan(resolution, rhs=rhs)
        x = np.linspace(-min(2.0, math.sqrt(rhs)), min(2.0, math.sqrt(rhs)), resolution)
        values = [xi + reference_best_y(xi, rhs) for xi in x.tolist()]
        k = values.index(max(values))
        lo, hi = x[max(0, k - 1)], x[min(resolution - 1, k + 1)]
        x_star = 2.0 * report.argmax_table.c_ab
        assert lo <= x_star <= hi
        assert report.max_chsh == x_star + reference_best_y(x_star, rhs)

    @given(
        st.integers(min_value=10, max_value=20_001),
        st.floats(min_value=0.0, max_value=16.0, exclude_min=True),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    @example(resolution=10_001, rhs=4.0, symmetric=False)
    @example(resolution=57, rhs=0.3, symmetric=True)
    @example(resolution=10, rhs=5e-324, symmetric=False)
    def test_columns_match_numpy_bit_for_bit(self, resolution, rhs, symmetric):
        grid = frontier_grid(resolution, symmetric, rhs)
        expected = numpy_grid(resolution, symmetric, rhs)
        assert list(grid) == list(expected)
        for name, column in grid.items():
            assert all(type(v) is (bool if name == "feasible" else float) for v in column)
            assert bits(column) == bits(expected[name].tolist()), name

    @given(
        st.integers(min_value=10, max_value=20_001),
        st.floats(min_value=0.0, max_value=16.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    @example(resolution=10_001, rhs=4.0)
    @example(resolution=10_001, rhs=8.0)
    @example(resolution=10, rhs=9.0)
    def test_scan_matches_numpy_reference(self, resolution, rhs):
        report = frontier_scan(resolution, rhs=rhs)
        max_chsh, table = reference_frontier_scan(resolution, rhs)
        assert type(report.max_chsh) is float
        assert report.max_chsh.hex() == max_chsh.hex()
        assert bits(report.argmax_table.as_tuple()) == bits(table)

    def test_grid_built_once_for_scan_and_csv(self, monkeypatch):
        nsbox.causality._grid.cache_clear()
        builds = []
        linspace = nsbox.causality._linspace
        monkeypatch.setattr(
            nsbox.causality, "_linspace", lambda *args: builds.append(args) or linspace(*args)
        )
        frontier_scan(101, rhs=2.5)
        first = frontier_grid(101, rhs=2.5)
        first["x"].clear()  # the caller's lists are its own
        assert frontier_grid(101, rhs=2.5)["x"] == linspace(-math.sqrt(2.5), math.sqrt(2.5), 101)
        assert len(builds) == 1
        frontier_grid(101, symmetric=True, rhs=2.5)
        assert len(builds) == 2
