import io
import itertools
import math
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from nsbox.boxes import CorrelationTable
from nsbox.coupling import make_scalar_extremal_couplings, pr_limit_couplings
from nsbox.macro import MacroObservation, NoiseModel, Strategy, sample_batches
from nsbox.signalling import (
    Detector,
    ProtocolConfig,
    SWEEP_CSV_HEADER,
    Verdict,
    advantage_ceiling,
    batch_law,
    couplings_for_table,
    detector_covariance_sign,
    detector_postselect,
    exact_tv_distance,
    make_likelihood_detector,
    optimal_advantage,
    resource_sweep,
    run_protocol,
    suggested_repetitions,
    wilson_interval,
    write_sweep_csv,
)

PR_A, PR_AP = pr_limit_couplings()
NOISELESS = NoiseModel(0.0)


def obs(b, bp):
    return MacroObservation(a_mean=0.0, b_mean=b, bp_mean=bp, noisy_b=b, noisy_bp=bp)


class TestBatchLaw:
    def test_pr_law_is_diagonal_binomial(self):
        lattice, law = batch_law(PR_A, 4)
        assert lattice.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for k in range(5):
            assert law[k, k] == pytest.approx(comb(4, k) / 16, abs=1e-15)
        assert np.abs(law - np.diag(np.diag(law))).max() == 0.0

    def test_law_normalized(self):
        k_a, k_ap = make_scalar_extremal_couplings(0.7)
        for k in (k_a, k_ap):
            _, law = batch_law(k, 9)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)


class TestExactTv:
    def test_pr_even_n_overlaps_at_origin(self):
        # diagonal and antidiagonal supports share only the (0, 0) point
        tv = exact_tv_distance(PR_A, PR_AP, 4, NOISELESS)
        assert tv == pytest.approx(1.0 - comb(4, 2) / 16, abs=1e-15)

    def test_pr_odd_n_disjoint_supports(self):
        assert exact_tv_distance(PR_A, PR_AP, 5, NOISELESS) == pytest.approx(1.0, abs=1e-15)

    def test_critical_point_vanishes(self):
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        for n in range(1, 13):
            assert exact_tv_distance(k_a, k_ap, n, NOISELESS) == pytest.approx(0.0, abs=1e-12)

    def test_identical_couplings(self):
        assert exact_tv_distance(PR_A, PR_A, 8, NoiseModel(0.1)) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_noise(self):
        values = [
            exact_tv_distance(PR_A, PR_AP, 8, NoiseModel(s)) for s in (0.02, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))
        assert values[0] <= exact_tv_distance(PR_A, PR_AP, 8, NOISELESS) + 1e-6

    def test_monotone_in_c_beyond_half(self):
        values = []
        for c in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            k_a, k_ap = make_scalar_extremal_couplings(c)
            values.append(exact_tv_distance(k_a, k_ap, 10, NOISELESS))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_matches_refined_grid(self):
        from nsbox.signalling import _tv_simpson

        lattice, law_a = batch_law(PR_A, 8)
        _, law_ap = batch_law(PR_AP, 8)
        diff = law_a - law_ap
        reported = exact_tv_distance(PR_A, PR_AP, 8, NoiseModel(0.2))
        fine = _tv_simpson(diff, lattice, 0.2, step_divisor=320)
        assert reported == pytest.approx(fine, abs=1e-6)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            exact_tv_distance(PR_A, PR_AP, 13, NOISELESS)


class TestAdvantageHelpers:
    @pytest.mark.parametrize("tv,expected", [(0.0, 0.5), (1.0, 1.0), (0.3, 0.65)])
    def test_optimal_advantage(self, tv, expected):
        assert optimal_advantage(tv) == pytest.approx(expected, abs=1e-15)

    def test_optimal_advantage_domain(self):
        with pytest.raises(ValueError):
            optimal_advantage(-0.1)

    def test_group_ceiling(self):
        assert advantage_ceiling(0.1, 1) == optimal_advantage(0.1)
        assert advantage_ceiling(0.1, 20) == 1.0

    def test_wilson_brackets_proportion(self):
        low, high = wilson_interval(90, 100)
        assert low < 0.9 < high
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_suggested_repetitions(self):
        assert suggested_repetitions(0.5) is None
        value = suggested_repetitions(0.6, delta=0.05)
        assert value == pytest.approx(math.log(20) / (2 * 0.01), rel=1e-12)


class TestDetectors:
    def test_covariance_sign_noiseless_groups(self):
        arrays = sample_batches(PR_A, 10, 64, NOISELESS, seed=4, stream=0)
        assert detector_covariance_sign(arrays.observations()) is Strategy.ALWAYS_A
        arrays = sample_batches(PR_AP, 10, 64, NOISELESS, seed=4, stream=1)
        assert detector_covariance_sign(arrays.observations()) is Strategy.ALWAYS_APRIME

    def test_covariance_tie_break(self):
        group = [obs(0.5, 0.5), obs(0.5, 0.5), obs(0.5, 0.5)]
        assert detector_covariance_sign(group) is Strategy.ALWAYS_A

    def test_covariance_needs_two(self):
        with pytest.raises(ValueError):
            detector_covariance_sign([obs(1, 1)])

    def test_postselect_keeps_extremes_only(self):
        group = [obs(1.0, 1.0), obs(0.5, 1.0), obs(-1.0, -1.0), obs(1.0, -1.0)]
        guess, n_surviving = detector_postselect(group, threshold=1.0)
        assert n_surviving == 3
        assert guess is Strategy.ALWAYS_A  # 2 of 3 survivors agree in sign

    def test_postselect_empty(self):
        guess, n_surviving = detector_postselect([obs(0.1, 0.1)], threshold=0.9)
        assert guess is None
        assert n_surviving == 0

    def test_postselect_bad_threshold(self):
        with pytest.raises(ValueError):
            detector_postselect([obs(1, 1)], threshold=0.0)

    def test_pr_survivors_always_agree(self):
        arrays = sample_batches(PR_A, 10, 2000, NOISELESS, seed=6, stream=0)
        survivors = [
            o for o in arrays.observations() if abs(o.noisy_b) >= 1 and abs(o.noisy_bp) >= 1
        ]
        assert survivors, "with 2000 batches some |B| = 1 batches exist"
        assert all(o.noisy_b == o.noisy_bp for o in survivors)

    def test_noisy_survivor_count_matches_gaussian_tail(self):
        # oracle: P(survive) = sum_v P(A=v) * s(v)^2 with
        # s(v) = P(|v + eps| >= t) from the normal tail (B = B' = A here)
        from math import erf, sqrt

        n, sigma, threshold, count = 4, 0.2, 1.0, 20_480

        def phi(x):
            return 0.5 * (1 + erf(x / sqrt(2)))

        def tail(v):
            return phi((v - threshold) / sigma) + phi((-threshold - v) / sigma)

        p_surv = sum(
            comb(n, k) / 2**n * tail((2 * k - n) / n) ** 2 for k in range(n + 1)
        )
        arrays = sample_batches(PR_A, n, count, NoiseModel(sigma), seed=60, stream=0)
        _, observed = detector_postselect(arrays.observations(), threshold)
        se = math.sqrt(count * p_surv * (1 - p_surv))
        assert abs(observed - count * p_surv) <= 5 * se

    def test_likelihood_detector_noiseless(self):
        guess = make_likelihood_detector(PR_A, PR_AP, 8, NOISELESS)
        arrays = sample_batches(PR_A, 8, 16, NOISELESS, seed=2, stream=0)
        assert guess(arrays.observations()) is Strategy.ALWAYS_A
        arrays = sample_batches(PR_AP, 8, 16, NOISELESS, seed=2, stream=1)
        assert guess(arrays.observations()) is Strategy.ALWAYS_APRIME

    def test_likelihood_detector_noisy(self):
        noise = NoiseModel(0.1)
        guess = make_likelihood_detector(PR_A, PR_AP, 8, noise)
        arrays = sample_batches(PR_A, 8, 64, noise, seed=2, stream=0)
        assert guess(arrays.observations()) is Strategy.ALWAYS_A


class TestRunProtocol:
    def test_reproducible_bit_for_bit(self):
        cfg = ProtocolConfig(
            n_pairs=8, repetitions=512, noise=NoiseModel(0.1), group_size=16
        )
        first = run_protocol(PR_A, PR_AP, cfg, seed=99)
        second = run_protocol(PR_A, PR_AP, cfg, seed=99)
        assert first == second

    def test_pr_signalling_detected(self):
        cfg = ProtocolConfig(
            n_pairs=16, repetitions=2000, noise=NoiseModel(0.1), group_size=32
        )
        report = run_protocol(PR_A, PR_AP, cfg, seed=11)
        assert report.verdict is Verdict.SIGNALLING
        assert report.advantage >= 0.99
        assert report.n_used == 2 * (2000 // 32) * 32

    def test_critical_point_consistent_with_fair_coin(self):
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        cfg = ProtocolConfig(
            n_pairs=8, repetitions=8192, noise=NoiseModel(0.05), group_size=32
        )
        report = run_protocol(k_a, k_ap, cfg, seed=3)
        se = 0.5 / math.sqrt(report.n_trials)
        assert abs(report.advantage - 0.5) <= 3 * se

    def test_huge_noise_kills_advantage(self):
        cfg = ProtocolConfig(
            n_pairs=8, repetitions=4096, noise=NoiseModel(50.0), group_size=32
        )
        report = run_protocol(PR_A, PR_AP, cfg, seed=21)
        se = 0.5 / math.sqrt(report.n_trials)
        assert abs(report.advantage - 0.5) <= 3 * se

    def test_postselect_inconclusive_when_nothing_survives(self):
        # N = 20 noiseless: P(|B| = 1) = 2^-19 per batch; 64 batches never survive
        cfg = ProtocolConfig(
            n_pairs=20,
            repetitions=64,
            noise=NOISELESS,
            detector=Detector.POSTSELECT_EXTREMES,
            postselect_threshold=1.0,
            group_size=8,
        )
        report = run_protocol(PR_A, PR_AP, cfg, seed=1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.n_used == 0
        assert report.n_trials == 0

    def test_postselect_detects_pr(self):
        cfg = ProtocolConfig(
            n_pairs=6,
            repetitions=4096,
            noise=NOISELESS,
            detector=Detector.POSTSELECT_EXTREMES,
            postselect_threshold=1.0,
            group_size=64,
        )
        report = run_protocol(PR_A, PR_AP, cfg, seed=13)
        assert report.verdict is Verdict.SIGNALLING
        assert 0 < report.n_used < 2 * 4096

    def test_likelihood_beats_covariance_or_matches(self):
        noise = NoiseModel(0.1)
        base = dict(n_pairs=8, repetitions=2048, noise=noise, group_size=8)
        cov = run_protocol(
            PR_A, PR_AP, ProtocolConfig(detector=Detector.COVARIANCE_SIGN, **base), seed=5
        )
        lr = run_protocol(
            PR_A, PR_AP, ProtocolConfig(detector=Detector.LIKELIHOOD, **base), seed=5
        )
        assert lr.advantage >= cov.advantage - 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=16, noise=NOISELESS, group_size=32)
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=0, noise=NOISELESS)
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=16, noise=NOISELESS, postselect_threshold=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(
                n_pairs=16, repetitions=64, noise=NOISELESS, detector=Detector.LIKELIHOOD
            )
        with pytest.raises(ValueError):
            ProtocolConfig(
                n_pairs=8,
                repetitions=64,
                noise=NOISELESS,
                detector=Detector.COVARIANCE_SIGN,
                group_size=1,
            )


class TestResourceSweep:
    def test_rows_and_csv_schema(self):
        table = CorrelationTable(1, 1, 1, -1)
        rows = resource_sweep(
            table,
            n_list=[8],
            r_list=[256],
            sigma_list=[0.05, 0.1],
            seed=17,
            detectors=(Detector.COVARIANCE_SIGN,),
        )
        assert len(rows) == 2
        buffer = io.StringIO()
        write_sweep_csv(buffer, rows)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[4] == "cov"

    def test_pr_rows_all_signal(self):
        rows = resource_sweep(
            CorrelationTable(1, 1, 1, -1),
            n_list=[8],
            r_list=[2048],
            sigma_list=[0.05, 0.1, 0.2],
            seed=29,
        )
        for row in rows:
            assert row.report.advantage >= 0.99

    def test_critical_rows_hug_half(self):
        rows = resource_sweep(
            CorrelationTable(0.5, 0.5, 0.5, -0.5),
            n_list=[8],
            r_list=[4096],
            sigma_list=[0.05],
            seed=31,
        )
        for row in rows:
            se = 0.5 / math.sqrt(row.report.n_trials)
            assert abs(row.report.advantage - 0.5) <= 3 * se

    def test_single_repetition_inconclusive_allowed(self):
        rows = resource_sweep(
            CorrelationTable(1, 1, 1, -1),
            n_list=[4],
            r_list=[1],
            sigma_list=[0.0],
            seed=7,
            detectors=(Detector.LIKELIHOOD,),
            base_config=ProtocolConfig(
                n_pairs=4,
                repetitions=1,
                noise=NOISELESS,
                detector=Detector.LIKELIHOOD,
                group_size=1,
            ),
        )
        report = rows[0].report
        assert report.n_trials == 2
        assert report.ci_high - report.ci_low > 0.3
        assert report.verdict in (Verdict.INCONCLUSIVE, Verdict.SIGNALLING)

    def test_ceiling_respected(self):
        table = CorrelationTable(0.75, 0.75, 0.75, -0.75)
        rows = resource_sweep(
            table,
            n_list=[8],
            r_list=[1024],
            sigma_list=[0.05],
            seed=41,
            detectors=(Detector.COVARIANCE_SIGN, Detector.LIKELIHOOD),
        )
        k_a, k_ap = couplings_for_table(table)
        tv = exact_tv_distance(k_a, k_ap, 8, NoiseModel(0.05))
        for row in rows:
            se = math.sqrt(0.25 / row.report.n_trials)
            assert row.report.advantage <= advantage_ceiling(tv, 32) + 3 * se

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            resource_sweep(CorrelationTable(1, 1, 1, -1), [], [10], [0.1], seed=1)

    def test_rows_equal_direct_protocol_runs(self):
        # the sweep draws each (N, sigma) once and scores prefixes of it;
        # R = 40 is no multiple of the group size, 4100 fills the first chunk
        # exactly and 4120 crosses into the second
        table = CorrelationTable(0.6, 0.6, 0.6, -0.6)
        base = ProtocolConfig(
            n_pairs=12,
            repetitions=4120,
            noise=NOISELESS,
            postselect_threshold=0.5,
            group_size=16,
        )
        grid = ([4, 12], [40, 4100, 4120], [0.0, 0.1], list(Detector))
        rows = resource_sweep(table, *grid[:3], seed=23, detectors=grid[3], base_config=base)
        assert [(r.n_pairs, r.repetitions, r.sigma, r.detector) for r in rows] == list(
            itertools.product(*grid)
        )
        k_a, k_ap = couplings_for_table(table)
        for row in rows:
            cfg = replace(
                base,
                n_pairs=row.n_pairs,
                repetitions=row.repetitions,
                noise=NoiseModel(row.sigma),
                detector=row.detector,
            )
            assert row.report == run_protocol(k_a, k_ap, cfg, seed=23), row


class TestCouplingsForTable:
    def test_matches_scalar_construction_for_tilted(self):
        k_a, k_ap = couplings_for_table(CorrelationTable(0.6, 0.6, 0.6, -0.6))
        s_a, s_ap = make_scalar_extremal_couplings(0.6)
        assert np.allclose(k_a.pmf, s_a.pmf, atol=1e-12)
        assert np.allclose(k_ap.pmf, s_ap.pmf, atol=1e-12)
