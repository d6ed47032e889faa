"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import time

import numpy as np

from nsbox.boxes import (
    CorrelationTable,
    Locality,
    classify_locality,
)
from nsbox.causality import (
    TSIRELSON_BOUND,
    frontier_scan,
)
from nsbox.coupling import (
    CouplingObjective,
    coupling_bounds,
    extremal_coupling,
    make_scalar_extremal_couplings,
)
from nsbox.macro import NoiseModel, sample_batches
from nsbox.signalling import (
    Detector,
    ProtocolConfig,
    Verdict,
    advantage_ceiling,
    couplings_for_table,
    exact_tv_distance,
    run_protocol,
)
from oracles import (
    Combination,
    critical_c_scalar,
    local_hull_membership,
    parallelogram_residuals,
    per_pair_variance,
    pr_limit_couplings,
)

MIN_D = CouplingObjective.MIN_DISAGREE
MAX_D = CouplingObjective.MAX_DISAGREE


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number} {status}: {description} | {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_pr_box_signalling():
    """PR couplings, N=16, sigma=0.1, R=2e4 per strategy, covariance detector:
    advantage >= 0.99 with the 95% CI excluding 0.5, in under 10 seconds."""
    k_a, k_ap = pr_limit_couplings()
    cfg = ProtocolConfig(
        n_pairs=16,
        repetitions=20_000,
        noise=NoiseModel(0.1),
        detector=Detector.COVARIANCE_SIGN,
        group_size=32,
    )
    start = time.perf_counter()
    report = run_protocol(k_a, k_ap, cfg, seed=20_240)
    elapsed = time.perf_counter() - start
    ok = (
        report.advantage >= 0.99
        and report.ci_low > 0.5
        and report.verdict is Verdict.SIGNALLING
        and elapsed < 10.0
    )
    _report(
        1,
        "PR-box signalling reproduced",
        ok,
        f"advantage={report.advantage:.4f} ci_low={report.ci_low:.4f} "
        f"trials={report.n_trials} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_scalar_critical_point():
    """At C = 1/2 the scalar extremal couplings are indistinguishable: exact
    TV = 0 for all N <= 12, simulated advantage within 3 SE of 0.5 at R=1e5,
    and the scalar critical value is exactly 1/2."""
    k_a, k_ap = make_scalar_extremal_couplings(0.5)
    tvs = [exact_tv_distance(k_a, k_ap, n, NoiseModel(0.0)) for n in range(1, 13)]
    tv_ok = all(tv == 0.0 for tv in tvs)

    cfg = ProtocolConfig(
        n_pairs=8,
        repetitions=100_000,
        noise=NoiseModel(0.05),
        detector=Detector.COVARIANCE_SIGN,
        group_size=32,
    )
    report = run_protocol(k_a, k_ap, cfg, seed=777)
    se = 0.5 / math.sqrt(report.n_trials)
    sim_ok = abs(report.advantage - 0.5) <= 3 * se
    exact_ok = critical_c_scalar() == 0.5
    _report(
        2,
        "scalar-model critical point at C = 1/2",
        tv_ok and sim_ok and exact_ok,
        f"max|TV|={max(abs(t) for t in tvs):.1e} advantage={report.advantage:.4f} "
        f"(3SE={3 * se:.4f}) critical={critical_c_scalar()}",
    )


def test_criterion_3_tsirelson_endpoint():
    """Frontier scan reaches 2 sqrt(2) at x = y = sqrt(2) within 1e-6;
    symmetric-family mode pins the critical C at sqrt(2)/2 within 1e-6."""
    general = frontier_scan(10_001)
    sym = frontier_scan(10_001, symmetric=True)
    x = general.argmax_table.c_ab + general.argmax_table.c_abp
    y = general.argmax_table.c_apb - general.argmax_table.c_apbp
    ok = (
        abs(general.max_chsh - TSIRELSON_BOUND) <= 1e-6
        and abs(x - math.sqrt(2)) <= 1e-6
        and abs(y - math.sqrt(2)) <= 1e-6
        and abs(sym.critical_c - math.sqrt(2) / 2) <= 1e-6
        and abs(sym.max_chsh - TSIRELSON_BOUND) <= 1e-6
    )
    _report(
        3,
        "Tsirelson endpoint from the causality constraint",
        ok,
        f"max_chsh={general.max_chsh:.9f} x={x:.9f} y={y:.9f} "
        f"critical_C={sym.critical_c:.9f}",
    )


def test_criterion_4_implication_suite():
    """On 1e6 random tables the causality condition implies |CHSH| <= 2 sqrt(2)
    with zero counterexamples, and the scan finds tables inside the CHSH bound
    that still violate causality.  Runtime under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    tables = rng.uniform(-1.0, 1.0, size=(1_000_000, 4))
    x = tables[:, 0] + tables[:, 1]
    y = tables[:, 2] - tables[:, 3]
    lhs = x * x + y * y
    chsh_abs = np.abs(x + y)
    causal = lhs <= 4.0 + 1e-12
    within = chsh_abs <= TSIRELSON_BOUND + 1e-12
    counterexamples = int(np.count_nonzero(causal & ~within))
    witnesses = int(np.count_nonzero(within & ~causal))
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and witnesses >= 1 and elapsed < 30.0
    _report(
        4,
        "causality implies the CHSH bound on 1e6 random tables",
        ok,
        f"counterexamples={counterexamples} witnesses={witnesses} elapsed={elapsed:.2f}s",
    )


def test_criterion_5_variance_algebra():
    """Parallelogram residual <= 1e-12 on 1e6 sampled batches; <B^2> within
    5 SE of 1/N for N in {10, 100} at 1e5 batches; per-pair budget
    Var(b+b') + Var(b-b') = 4 within 1e-12 for every LP coupling."""
    coupling = extremal_coupling(0.6, -0.2, MAX_D)
    arrays = sample_batches(coupling, 9, 1_000_000, NoiseModel(0.0), seed=50)
    max_residual = float(np.max(np.abs(parallelogram_residuals(arrays.b_mean, arrays.bp_mean))))
    residual_ok = max_residual <= 1e-12

    mean_square_ok = True
    mean_square_detail = []
    for n_pairs, seed in ((10, 51), (100, 52)):
        arrs = sample_batches(coupling, n_pairs, 100_000, NoiseModel(0.0), seed=seed)
        b2 = arrs.b_mean**2
        se = float(b2.std(ddof=1)) / math.sqrt(len(b2))
        deviation = abs(float(b2.mean()) - 1.0 / n_pairs)
        mean_square_ok &= deviation <= 5 * se
        mean_square_detail.append(f"N={n_pairs}: dev={deviation:.2e} 5SE={5 * se:.2e}")

    budget_ok = True
    worst_budget = 0.0
    grid = np.linspace(-1.0, 1.0, 9)
    for c1 in grid:
        for c2 in grid:
            for objective in (MIN_D, MAX_D):
                k = extremal_coupling(float(c1), float(c2), objective)
                total = per_pair_variance(k, Combination.SUM) + per_pair_variance(
                    k, Combination.DIFFERENCE
                )
                worst_budget = max(worst_budget, abs(total - 4.0))
    budget_ok = worst_budget <= 1e-12

    _report(
        5,
        "variance algebra (parallelogram, 1/N law, per-pair budget)",
        residual_ok and mean_square_ok and budget_ok,
        f"max_residual={max_residual:.1e} {' '.join(mean_square_detail)} "
        f"worst_budget_dev={worst_budget:.1e}",
    )


def test_criterion_6_coupling_bounds():
    """LP optima match the closed forms to 1e-9 on the C grid, and the
    brute-force scan of the feasible two-face agrees within 2e-3."""
    worst_lp = 0.0
    for c in np.linspace(0.0, 1.0, 11):
        c = float(c)
        for targets in ((c, c), (c, -c)):
            bounds = coupling_bounds(*targets)
            lo_k = extremal_coupling(*targets, MIN_D)
            hi_k = extremal_coupling(*targets, MAX_D)
            lo = float(lo_k.pair_marginal()[0, 1] + lo_k.pair_marginal()[1, 0])
            hi = float(hi_k.pair_marginal()[0, 1] + hi_k.pair_marginal()[1, 0])
            worst_lp = max(worst_lp, abs(lo - bounds.min_disagree), abs(hi - bounds.max_disagree))
    lp_ok = worst_lp <= 1e-9

    # brute force: scan the (t, m) coordinates of the feasible polytope
    worst_bf = 0.0
    step = 1e-3
    ts = np.arange(-1.0, 1.0 + step / 2, step)
    ms = np.arange(-1.0, 1.0 + step / 2, step)
    tg, mg = np.meshgrid(ts, ms, indexing="ij")
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        min_cell = np.full(tg.shape, np.inf)
        for idx in range(8):
            i = 1.0 if idx < 4 else -1.0
            j = 1.0 if (idx >> 1) % 2 == 0 else -1.0
            k = 1.0 if idx % 2 == 0 else -1.0
            cell = (1 + c * i * j + c * i * k + tg * j * k + mg * i * j * k) / 8
            np.minimum(min_cell, cell, out=min_cell)
        feasible_t = tg[min_cell >= -1e-12]
        bf_min = float((1 - feasible_t.max()) / 2)
        bf_max = float((1 - feasible_t.min()) / 2)
        bounds = coupling_bounds(c, c)
        worst_bf = max(
            worst_bf, abs(bf_min - bounds.min_disagree), abs(bf_max - bounds.max_disagree)
        )
    bf_ok = worst_bf <= 2e-3

    _report(
        6,
        "coupling bounds: LP vs closed forms vs brute force",
        lp_ok and bf_ok,
        f"worst_lp_dev={worst_lp:.1e} worst_bruteforce_dev={worst_bf:.1e}",
    )


def test_criterion_7_postselection_statistics():
    """PR couplings, sigma=0, N=10, 2^20 batches under ALWAYS_A: B = B' = 1
    has frequency within 5 SE of 2^-10 and B = 1 with B' = -1 never occurs."""
    k_a, _ = pr_limit_couplings()
    count = 2**20
    arrays = sample_batches(k_a, 10, count, NoiseModel(0.0), seed=4096, stream=0)
    both_plus = int(np.count_nonzero((arrays.b_mean == 1.0) & (arrays.bp_mean == 1.0)))
    contradictions = int(np.count_nonzero((arrays.b_mean == 1.0) & (arrays.bp_mean == -1.0)))
    p = 2.0**-10
    se = math.sqrt(p * (1 - p) / count)
    deviation = abs(both_plus / count - p)
    ok = deviation <= 5 * se and contradictions == 0
    _report(
        7,
        "post-selection statistics (2^-N, not 2^-2N; impossible cell empty)",
        ok,
        f"freq={both_plus / count:.3e} target={p:.3e} dev={deviation:.1e} "
        f"5SE={5 * se:.1e} contradictions={contradictions}",
    )


def test_criterion_8_detector_ceiling():
    """No swept configuration beats the total-variation ceiling for its
    decision unit: advantage <= (1 + min(1, g*TV))/2 + 3 SE."""
    group_size = 32
    violations = []
    checked = 0
    for c in (0.5, 0.75, 1.0):
        table = CorrelationTable(c, c, c, -c)
        k_a, k_ap = couplings_for_table(table)
        for n_pairs in (8, 12):
            for sigma in (0.05, 0.1):
                tv = exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(sigma))
                for detector in (Detector.COVARIANCE_SIGN, Detector.LIKELIHOOD):
                    cfg = ProtocolConfig(
                        n_pairs=n_pairs,
                        repetitions=2048,
                        noise=NoiseModel(sigma),
                        detector=detector,
                        group_size=group_size,
                    )
                    report = run_protocol(k_a, k_ap, cfg, seed=606)
                    se = math.sqrt(0.25 / report.n_trials)
                    ceiling = advantage_ceiling(tv, group_size) + 3 * se
                    checked += 1
                    if report.advantage > ceiling:
                        violations.append(
                            f"C={c} N={n_pairs} sigma={sigma} {detector.value}: "
                            f"{report.advantage:.4f} > {ceiling:.4f}"
                        )
    _report(
        8,
        "empirical advantage never beats the TV ceiling",
        not violations,
        f"configurations={checked} violations={violations or 'none'}",
    )


def test_criterion_9_locality_classifier():
    """The tilted family flips LOCAL -> NONLOCAL within 1e-12 of C = 1/2, and
    the eight-inequality classifier agrees with the 16-vertex hull LP on 1000
    random tables (every table realizable by a uniform-marginal box)."""
    local_at_half = classify_locality(CorrelationTable(0.5, 0.5, 0.5, -0.5)) is Locality.LOCAL
    beyond = 0.5 + 1e-12
    nonlocal_beyond = (
        classify_locality(CorrelationTable(beyond, beyond, beyond, -beyond))
        is Locality.NONLOCAL
    )
    boundary_ok = local_at_half and nonlocal_beyond

    rng = np.random.default_rng(92)
    disagreements = 0
    for _ in range(1000):
        table = CorrelationTable(*rng.uniform(-1.0, 1.0, size=4))
        by_inequalities = classify_locality(table) is Locality.LOCAL
        by_lp = local_hull_membership(table).inside
        disagreements += by_inequalities != by_lp
    ok = boundary_ok and disagreements == 0
    _report(
        9,
        "locality classifier: critical point and LP agreement",
        ok,
        f"local@0.5={local_at_half} nonlocal@0.5+1e-12={nonlocal_beyond} "
        f"lp_disagreements={disagreements}/1000",
    )
