import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsbox.boxes import (
    A,
    A_PRIME,
    AliceSetting,
    CorrelationTable,
    Locality,
    chsh,
    chsh_variants,
    classify_locality,
)
from oracles import deterministic_tables, local_hull_membership

SQRT2 = math.sqrt(2.0)


def corr_values(**kw):
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, **kw)


def tables():
    return st.builds(CorrelationTable, corr_values(), corr_values(), corr_values(), corr_values())


class TestAliceSetting:
    def test_members_spell_the_labels(self):
        assert [setting.value for setting in AliceSetting] == ["a", "a'"]
        assert (AliceSetting("a"), AliceSetting("a'")) == (A, A_PRIME)

    @pytest.mark.parametrize("label", ["b", "b'", "A", "a''", None])
    def test_other_labels_rejected(self, label):
        with pytest.raises(ValueError):
            AliceSetting(label)


class TestCorrelationTable:
    def test_pr_table_chsh_is_four(self):
        assert chsh(CorrelationTable(1, 1, 1, -1)) == 4.0

    @pytest.mark.parametrize("bad", [1.000001, -1.000001, float("nan")])
    def test_out_of_range_rejected(self, bad):
        for field in range(4):
            values = [0.0] * 4
            values[field] = bad
            with pytest.raises(ValueError):
                CorrelationTable(*values)


class TestDeterministicTables:
    def test_chsh_is_plus_or_minus_two(self):
        assert sorted({chsh(table) for table in deterministic_tables()}) == [-2, 2]

    def test_all_sixteen_are_local(self):
        vertices = deterministic_tables()
        assert len(vertices) == 16
        for table in vertices:
            assert classify_locality(table) is Locality.LOCAL


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


class TestLocalityClassifier:
    def test_tilted_boundary(self):
        assert classify_locality(CorrelationTable(0.5, 0.5, 0.5, -0.5)) is Locality.LOCAL
        assert classify_locality(CorrelationTable(0.51, 0.51, 0.51, -0.51)) is Locality.NONLOCAL

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
