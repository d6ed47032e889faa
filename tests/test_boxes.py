import json
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
    classify_locality,
)
from nsbox.causality import frontier_grid, frontier_scan
from nsbox.coupling import (
    CouplingObjective,
    TripleCoupling,
    coupling_bounds,
    extremal_coupling,
    make_scalar_extremal_couplings,
)
from nsbox.macro import NoiseModel, sample_batches
from nsbox.records import _sweep_row, report_from_json
from nsbox.signalling import ProtocolConfig, advantage_ceiling, batch_law, postselect_guess_a
from oracles import chsh_variants, deterministic_tables, local_hull_membership

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


REPORT = {"advantage": 0.5, "ci_low": 0.0, "ci_high": 1.0, "n_used": 64,
          "verdict": "inconclusive", "n_trials": 2, "suggested_repetitions": None}
NOISELESS = NoiseModel(0.0)


def _sweep_row_with(**config):
    return _sweep_row({
        "command": "simulate-signalling",
        "config": {"C": 0.5, "N": 4, "reps": 64, "sigma": 0.1, "detector": "cov", **config},
        "report": REPORT,
    })


#: (argument name, call) for every real the library takes or reads back from disk
REAL_SITES = {
    **{name: (name, lambda x, k=k: CorrelationTable(*[0.5] * k, x, *[0.5] * (3 - k)))
       for k, name in enumerate(["c_ab", "c_abp", "c_apb", "c_apbp"])},
    "extremal_coupling": ("c_xb", lambda x: extremal_coupling(
        x, 0.0, CouplingObjective.MIN_DISAGREE)),
    "coupling_bounds": ("c_xbp", lambda x: coupling_bounds(0.0, x)),
    "make_scalar_extremal_couplings": ("c", make_scalar_extremal_couplings),
    "NoiseModel": ("sigma", NoiseModel),
    "frontier_scan": ("rhs", lambda x: frontier_scan(20, rhs=x)),
    "frontier_grid": ("rhs", lambda x: frontier_grid(11, symmetric=True, rhs=x)),
    "ProtocolConfig": ("postselect_threshold", lambda x: ProtocolConfig(
        4, 64, NOISELESS, postselect_threshold=x)),
    "postselect_guess_a": ("threshold", lambda x: postselect_guess_a(
        np.ones((1, 2)), np.ones((1, 2)), x)),
    "advantage_ceiling": ("tv_single", lambda x: advantage_ceiling(x, 1)),
    "report_from_json": ("advantage", lambda x: report_from_json({**REPORT, "advantage": x})),
    "_sweep_row": ("C", lambda x: _sweep_row_with(C=x)),
    "TripleCoupling": ("cell", lambda x: TripleCoupling(A, [0.125] * 3 + [x] + [0.125] * 4)),
}

_K = make_scalar_extremal_couplings(0.8)[0]

#: (argument name, call) for counts, beside those `_checked_int` already covered
COUNT_SITES = {
    **{f"ProtocolConfig-{name}": (name, lambda x, name=name: ProtocolConfig(
        **{"n_pairs": 4, "repetitions": 64, "group_size": 4, name: x}, noise=NOISELESS))
       for name in ["n_pairs", "repetitions", "group_size"]},
    "batch_law": ("n_pairs", lambda x: batch_law(_K, x)),
    "sample_batches": ("seed", lambda x: sample_batches(_K, 4, 2, NOISELESS, seed=x)),
    "advantage_ceiling": ("group_size", lambda x: advantage_ceiling(0.1, x)),
    "report_from_json": ("n_used", lambda x: report_from_json({**REPORT, "n_used": x})),
    "_sweep_row": ("N", lambda x: _sweep_row_with(N=x)),
}


class TestNumericInputs:
    """One rule for every number: a bool, a string, None or NaN is a
    ValueError that names the argument, and numpy scalars pass."""

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, math.nan, math.inf],
                             ids=["true", "false", "str", "none", "nan", "inf"])
    @pytest.mark.parametrize("site", REAL_SITES)
    def test_real_rejected_with_its_name(self, site, bad):
        name, call = REAL_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {bad!r}$"):
            call(bad)

    @pytest.mark.parametrize("good", [np.float64(0.5), np.float32(0.5), np.int64(1), 1, 0.5],
                             ids=["float64", "float32", "int64", "int", "float"])
    @pytest.mark.parametrize("site", REAL_SITES)
    def test_numpy_scalars_accepted(self, site, good):
        REAL_SITES[site][1](good)

    @pytest.mark.parametrize("bad", [True, "4", None, math.nan, 2.5],
                             ids=["true", "str", "none", "nan", "non-integer"])
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_count_rejected_with_its_name(self, site, bad):
        name, call = COUNT_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {bad!r}$"):
            call(bad)

    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_numpy_integer_count_accepted(self, site):
        COUNT_SITES[site][1](np.int64(4))

    def test_threshold_stored_as_float(self):
        for threshold in (np.float32(0.5), np.int64(1)):
            cfg = ProtocolConfig(4, 64, NOISELESS, postselect_threshold=threshold)
            assert type(cfg.postselect_threshold) is float
            assert cfg.postselect_threshold == threshold

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), 1], ids=repr)
    def test_reals_stored_as_floats(self, value):
        stored = [
            NoiseModel(value).sigma,
            *CorrelationTable(value, value, value, -value).as_tuple(),
            *TripleCoupling(A, [value] * 8).cells,
        ]
        assert [type(x) for x in stored] == [float] * len(stored)
        assert stored == [float(value)] * 4 + [-float(value)] + [float(value)] * 8

    def test_table_serializes_as_floats(self):
        table = CorrelationTable(1, 1, 1, -1)
        assert type(chsh(table)) is float
        assert json.dumps(table.as_dict()) == (
            '{"c_ab": 1.0, "c_abp": 1.0, "c_apb": 1.0, "c_apbp": -1.0}')

    def test_int_past_the_largest_float_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma must be a real in \[0, 1e\+100\], got 1000"):
            NoiseModel(10**400)


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
