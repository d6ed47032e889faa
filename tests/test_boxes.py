import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsbox.boxes import (
    A,
    A_PRIME,
    B,
    B_PRIME,
    BipartiteBox,
    CorrelationTable,
    Locality,
    box_correlations,
    box_from_correlations,
    check_no_signalling,
    chsh,
    chsh_variants,
    classify_locality,
    correlation,
    make_pr_box,
    make_tilted_box,
)
from oracles import deterministic_tables, local_hull_membership

SQRT2 = math.sqrt(2.0)


def corr_values(**kw):
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, **kw)


def tables():
    return st.builds(CorrelationTable, corr_values(), corr_values(), corr_values(), corr_values())


def deterministic_box(i_a: int, i_ap: int, j_b: int, j_bp: int) -> BipartiteBox:
    """Box that gives outcome i_x for Alice's setting x and j_y for Bob's y."""
    pmf = np.zeros((2, 2, 2, 2))
    for x, i in enumerate((i_a, i_ap)):
        for y, j in enumerate((j_b, j_bp)):
            pmf[x, y, (1 - i) // 2, (1 - j) // 2] = 1.0  # index 0 is +1, 1 is -1
    return BipartiteBox(pmf)


class TestPRBox:
    def test_correlations(self):
        box = make_pr_box()
        assert box_correlations(box).as_tuple() == (1.0, 1.0, 1.0, -1.0)

    def test_agreeing_cells_carry_half(self):
        box = make_pr_box()
        for y in (B, B_PRIME):
            # rows and columns: outcome +1, then -1
            assert box.setting_block(A, y).tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_chsh_is_four(self):
        assert chsh(box_correlations(make_pr_box())) == 4.0

    def test_uniform_marginals_for_both_bob_settings(self):
        box = make_pr_box()
        assert box.alice_marginal(A, B) == 0.5
        assert box.alice_marginal(A, B_PRIME) == 0.5

    def test_no_signalling_exactly(self):
        report = check_no_signalling(make_pr_box())
        assert report.ok
        assert report.max_deviation == 0.0


class TestTiltedBox:
    def test_c_one_is_pr(self):
        assert np.array_equal(make_tilted_box(1.0).pmf, make_pr_box().pmf)

    def test_c_zero_is_uniform(self):
        assert np.all(make_tilted_box(0.0).pmf == 0.25)

    def test_quantum_point_hits_tsirelson(self):
        value = chsh(box_correlations(make_tilted_box(SQRT2 / 2)))
        assert value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_tilted_box(1.000001)
        with pytest.raises(ValueError):
            make_tilted_box(float("nan"))

    def test_correlation_pattern_on_grid(self):
        for c in np.linspace(-1.0, 1.0, 101):
            table = box_correlations(make_tilted_box(float(c)))
            for got, want in zip(table.as_tuple(), (c, c, c, -c)):
                assert got == pytest.approx(want, abs=1e-12)

    @given(corr_values())
    def test_no_signalling_any_c(self, c):
        report = check_no_signalling(make_tilted_box(c))
        assert report.ok

    @given(corr_values(), corr_values(), corr_values(), corr_values())
    def test_isotropic_box_reproduces_any_table(self, w, x, y, z):
        table = CorrelationTable(w, x, y, z)
        got = box_correlations(box_from_correlations(table))
        for g, t in zip(got.as_tuple(), table.as_tuple()):
            assert g == pytest.approx(t, abs=1e-12)


class TestDeterministicBoxes:
    @pytest.mark.parametrize(
        "outcomes,expected_chsh",
        [((1, 1, 1, 1), 2.0), ((1, -1, 1, 1), 2.0), ((1, 1, 1, -1), 2.0)],
    )
    def test_chsh_examples(self, outcomes, expected_chsh):
        box = deterministic_box(*outcomes)
        assert chsh(box_correlations(box)) == expected_chsh

    def test_all_sixteen_are_local_and_no_signalling(self):
        for table in deterministic_tables():
            assert classify_locality(table) is Locality.LOCAL
        for i_a in (1, -1):
            for i_ap in (1, -1):
                report = check_no_signalling(deterministic_box(i_a, i_ap, 1, -1))
                assert report.max_deviation == 0.0


class TestCorrelation:
    def test_pr_ab(self):
        assert correlation(make_pr_box(), A, B) == 1.0

    def test_tilted_apbp(self):
        assert correlation(make_tilted_box(0.5), A_PRIME, B_PRIME) == pytest.approx(-0.5, abs=1e-15)

    def test_uniform_box(self):
        box = make_tilted_box(0.0)
        for x in (A, A_PRIME):
            for y in (B, B_PRIME):
                assert correlation(box, x, y) == 0.0

    def test_party_mixup_rejected(self):
        with pytest.raises(ValueError):
            correlation(make_pr_box(), B, A)


class TestChsh:
    def test_zero_table(self):
        assert chsh(CorrelationTable(0, 0, 0, 0)) == 0.0

    def test_quantum_table(self):
        q = SQRT2 / 2
        assert chsh(CorrelationTable(q, q, q, -q)) == pytest.approx(2 * SQRT2, abs=1e-12)

    @given(tables(), tables(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_linearity_under_mixing(self, t1, t2, alpha):
        mixed = CorrelationTable(
            *(alpha * u + (1 - alpha) * v for u, v in zip(t1.as_tuple(), t2.as_tuple()))
        )
        expected = alpha * chsh(t1) + (1 - alpha) * chsh(t2)
        assert chsh(mixed) == pytest.approx(expected, abs=1e-12)


class TestNoSignallingCheck:
    def test_constructed_violation_reports_deviation(self):
        # P(i=+1 | a, b) = 0.6 but P(i=+1 | a, b') = 0.4; Bob's side kept uniform
        pmf = np.empty((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                p_plus = 0.5
                if x == 0:
                    p_plus = 0.6 if y == 0 else 0.4
                pmf[x, y] = [[p_plus / 2, p_plus / 2], [(1 - p_plus) / 2, (1 - p_plus) / 2]]
        report = check_no_signalling(BipartiteBox(pmf))
        assert not report.ok
        assert report.max_deviation == pytest.approx(0.2, abs=1e-15)
        assert "a" in report.worst_case


class TestLocalityClassifier:
    def test_tilted_boundary(self):
        assert classify_locality(box_correlations(make_tilted_box(0.5))) is Locality.LOCAL
        assert classify_locality(box_correlations(make_tilted_box(0.51))) is Locality.NONLOCAL

    def test_pr_table_nonlocal(self):
        assert classify_locality(CorrelationTable(1, 1, 1, -1)) is Locality.NONLOCAL

    def test_all_plus_table_local(self):
        assert classify_locality(CorrelationTable(1, 1, 1, 1)) is Locality.LOCAL

    def test_lp_membership_matches_classifier_on_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            table = CorrelationTable(*rng.uniform(-1, 1, size=4))
            by_inequalities = classify_locality(table) is Locality.LOCAL
            by_lp = local_hull_membership(table).inside
            assert by_inequalities == by_lp, table

    def test_lp_membership_boundary(self):
        assert local_hull_membership(CorrelationTable(0.5, 0.5, 0.5, -0.5)).inside
        assert not local_hull_membership(CorrelationTable(0.51, 0.51, 0.51, -0.51)).inside

    def test_variants_cover_eight_expressions(self):
        table = CorrelationTable(0.3, -0.2, 0.9, 0.1)
        variants = chsh_variants(table)
        assert len(variants) == 4
        assert chsh(table) == variants[0]


class TestBoxValidation:
    def test_negative_probability_rejected(self):
        pmf = np.full((2, 2, 2, 2), 0.25)
        pmf[0, 0, 0, 0] = -0.01
        pmf[0, 0, 1, 1] = 0.51
        with pytest.raises(ValueError):
            BipartiteBox(pmf)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            BipartiteBox(np.full((2, 2, 2, 2), 0.3))

    def test_immutable(self):
        box = make_pr_box()
        with pytest.raises(AttributeError):
            box.pmf = None
        with pytest.raises(ValueError):
            box.pmf[0, 0, 0, 0] = 0.9
