import csv
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

import nsbox.coupling
import nsbox.signalling
from nsbox.boxes import A, A_PRIME, CorrelationTable
from nsbox.coupling import (
    I_VALUES,
    J_VALUES,
    JP_VALUES,
    TripleCoupling,
    make_scalar_extremal_couplings,
    validate_coupling,
)
from nsbox.macro import NoiseModel, sample_batches
from nsbox.signalling import (
    MAX_EXACT_PAIRS,
    NO_SIGNALLING_WIDTH,
    SIGNALLING_TAIL,
    Detector,
    ProtocolConfig,
    TV_BLOCK,
    TV_SEPARATED,
    SignallingReport,
    SweepRow,
    Verdict,
    _tv_simpsons,
    advantage_ceiling,
    batch_law,
    chance_tail,
    couplings_for_table,
    covariance_guess_a,
    draw_arms,
    exact_tv_distance,
    make_likelihood_detector,
    postselect_guess_a,
    resource_sweep,
    run_protocol,
    score_arms,
    suggested_repetitions,
    wilson_interval,
)
from nsbox.records import SWEEP_CSV_HEADER, write_sweep_csv
from oracles import RELABELLINGS, chsh_variants, pr_limit_couplings, reference_batch_law

I_VALUES, J_VALUES, JP_VALUES = map(np.array, (I_VALUES, J_VALUES, JP_VALUES))  # tuples in nsbox

PR_A, PR_AP = pr_limit_couplings()
NOISELESS = NoiseModel(0.0)


def group(*pairs):
    """One group of (noisy B, noisy B') pairs as the (1, g) rows u, v."""
    u, v = np.array(pairs, dtype=float).reshape(-1, 2).T
    return u[None, :], v[None, :]


def whole(arrays):
    """Every batch of a draw as one group: (1, g) rows of noisy B and B'."""
    return arrays.noisy_b[None, :], arrays.noisy_bp[None, :]


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

    @staticmethod
    def assert_reference_bytes(couplings):
        for n_pairs in range(1, 13):
            for k in couplings:
                lattice, law = batch_law(k, n_pairs)
                ref_lattice, ref_law = reference_batch_law(k, n_pairs)
                assert lattice.tobytes() == ref_lattice.tobytes()
                assert law.tobytes() == ref_law.tobytes(), (k.flat.tolist(), n_pairs)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, math.sqrt(2) / 2, 0.75, 1.0])
    def test_scalar_pairs_match_the_loop_bit_for_bit(self, c):
        self.assert_reference_bytes(make_scalar_extremal_couplings(c))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_table_couplings_match_the_loop_bit_for_bit(self, entries):
        self.assert_reference_bytes(couplings_for_table(CorrelationTable(*entries)))

    def test_numpy_integer_gives_the_int_law(self):
        k = make_scalar_extremal_couplings(0.75)[1]
        for n_pairs in (1, 7, 12):
            got, want = batch_law(k, np.int64(n_pairs)), batch_law(k, n_pairs)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_coupling_validated_once(self, monkeypatch):
        # a coupling cannot change, so its verdict is kept at first use
        runs = []
        monkeypatch.setattr(
            nsbox.coupling, "validate_coupling",
            lambda k: runs.append(k) or validate_coupling(k),
        )
        k = make_scalar_extremal_couplings(0.75)[0]
        laws = [batch_law(k, 6)[1].tobytes() for _ in range(3)]
        assert runs == [k]
        assert laws == [batch_law(make_scalar_extremal_couplings(0.75)[0], 6)[1].tobytes()] * 3

    def test_defective_coupling_raises_on_every_call(self):
        bad = TripleCoupling(A, np.full(8, 0.25))
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="coupling under a is defective") as error:
                batch_law(bad, 4)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert "'normalization': 1.0" in messages[0]

    @pytest.mark.parametrize("n_pairs", [0, 13, 2.5, "4", None], ids=repr)
    def test_pair_count_outside_the_exact_range_rejected(self, n_pairs):
        """One check, in `batch_law`, serves every exact-law caller, and a
        non-integer N is a ValueError there, not a TypeError."""
        k_a, k_ap = make_scalar_extremal_couplings(1.0)
        calls = (
            lambda: batch_law(k_a, n_pairs),
            lambda: exact_tv_distance(k_a, k_ap, n_pairs, NOISELESS),
            lambda: exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(0.1)),
            lambda: make_likelihood_detector(k_a, k_ap, n_pairs, NOISELESS),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"n_pairs must be an integer in \[1, 12\]"):
                call()

    def test_table_reuse_across_pair_counts_and_couplings(self):
        """Each N's terms are built once and reused; the coupling's powers
        are not, so a new coupling at a cached N gets its own law."""
        k_a, k_ap = make_scalar_extremal_couplings(0.75)
        t_a, t_ap = couplings_for_table(CorrelationTable(0.9, 0.3, -0.2, 0.6))
        nsbox.signalling._law_terms.cache_clear()
        for n_pairs, k in [(12, k_a), (5, k_ap), (12, t_ap), (1, t_a), (12, k_ap)]:
            got, want = batch_law(k, n_pairs), reference_batch_law(k, n_pairs)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n_pairs
        info = nsbox.signalling._law_terms.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 3, 3)

    def test_threads_at_two_pair_counts_get_the_loop_bytes(self):
        k = couplings_for_table(CorrelationTable(0.9, 0.3, -0.2, 0.6))[0]
        want = {n: reference_batch_law(k, n)[1].tobytes() for n in (8, 12)}
        nsbox.signalling._law_terms.cache_clear()
        start = threading.Barrier(2)
        got = {}

        def run(n_pairs):
            start.wait()
            got[n_pairs] = [batch_law(k, n_pairs)[1].tobytes() for _ in range(20)]

        threads = [threading.Thread(target=run, args=(n,)) for n in (8, 12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == {n: [law] * 20 for n, law in want.items()}

    def test_cached_terms_are_read_only(self):
        for array in nsbox.signalling._law_terms(6):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_cache_holds_one_entry_per_valid_pair_count(self):
        law_terms = nsbox.signalling._law_terms
        assert law_terms.cache_info().maxsize == MAX_EXACT_PAIRS
        law_terms.cache_clear()
        k = make_scalar_extremal_couplings(0.75)[0]
        for n_pairs in (0, 13, 2.5, "4"):
            with pytest.raises(ValueError):
                batch_law(k, n_pairs)
        assert law_terms.cache_info().currsize == 0
        batch_law(k, np.int64(4))
        batch_law(k, 4)
        assert law_terms.cache_info().currsize == 1


def reference_tv_simpson(
    diff: np.ndarray, lattice: np.ndarray, sigma: float, step_divisor: int
) -> float:
    """The untiled Simpson kernel: one 512 x m product and |.| per row block."""
    span = 1.0 + 7.0 * sigma
    step = sigma / step_divisor
    m = int(math.ceil(2.0 * span / step)) + 1
    m |= 1  # odd point count for Simpson
    grid = np.linspace(-span, span, m)
    h = grid[1] - grid[0]
    weights = np.ones(m)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    kernel = np.exp(-0.5 * ((grid[:, None] - lattice[None, :]) / sigma) ** 2) / (
        sigma * math.sqrt(2 * math.pi)
    )  # m x (N+1)
    total = 0.0
    block = 512
    inner = diff @ kernel.T  # (N+1) x m
    for lo in range(0, m, block):
        rows = kernel[lo : lo + block] @ inner  # block x m
        total += float((weights[lo : lo + block] @ np.abs(rows)) @ weights)
    return 0.5 * total


def grid_points(sigma: float, step_divisor: int) -> int:
    """The Simpson point count m that `_tv_simpsons` uses."""
    return int(math.ceil(2.0 * (1.0 + 7.0 * sigma) / (sigma / step_divisor))) + 1 | 1


# (N, sigma, step divisor) with m < 256 (37, 171), 256 < m < 512 (361) and
# m = 513, one row past a block
SMALL_GRIDS = ((5, 0.5, 2), (12, 0.1, 5), (12, 0.5, 20), (5, 0.00402, 1))


def kernel_cases(seed: int, count: int, sigmas: tuple = (0.01, 0.5)):
    """Seeded difference laws for the two Simpson kernels: N in 1..12, sigma
    log-uniform in `sigmas`, both step divisors, some laws with a zero row
    or a zero column, and the SMALL_GRIDS grids."""
    rng = np.random.default_rng(seed)
    points = list(SMALL_GRIDS)
    for _ in range(count):
        sigma = float(np.exp(rng.uniform(math.log(sigmas[0]), math.log(sigmas[1]))))
        points += [(int(rng.integers(1, 13)), sigma, d) for d in (20, 40)]
    for n, sigma, step_divisor in points:
        diff = rng.dirichlet(np.ones((n + 1) ** 2)) - rng.dirichlet(np.ones((n + 1) ** 2))
        diff = diff.reshape(n + 1, n + 1)
        zero = rng.integers(0, 4)
        if zero == 1:
            diff[rng.integers(0, n + 1)] = 0.0
        elif zero == 2:
            diff[:, rng.integers(0, n + 1)] = 0.0
        lattice = np.array([(2 * k - n) / n for k in range(n + 1)])
        yield diff, lattice, sigma, step_divisor


def kernel_mismatches(seed: int, count: int) -> list:
    """Cases where `_tv_simpsons` and `reference_tv_simpson` differ in any bit."""
    bad = []
    for diff, lattice, sigma, step_divisor in kernel_cases(seed, count):
        got = _tv_simpsons(diff, lattice, sigma, (step_divisor,))[0]
        want = reference_tv_simpson(diff, lattice, sigma, step_divisor)
        if got != want:
            bad.append([len(lattice) - 1, sigma, step_divisor, repr(got), repr(want)])
    return bad


def run_fresh(code: str, blas_threads: int) -> str:
    """stdout of `code` in a fresh interpreter with the given BLAS thread count."""
    path = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]
    )
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


# exact_tv_distance on the exact-oracle benchmark points, at 17 digits
ORACLE_GOLDEN = {
    (1.0, 12, 0.0): 0.7744140625,
    (1.0, 12, 0.1): 0.70360643942264478,
    (1.0, 12, 0.01): 0.77441406250074529,
    (1.0, 8, 0.01): 0.72656250000068068,
    (0.5, 12, 0.0): 0.0,
    (0.5, 12, 0.1): 0.0,
    (0.5, 12, 0.01): 0.0,
    (0.5, 8, 0.01): 0.0,
}

# (C, N, sigma) noisy laws for the BLAS thread-count check
THREAD_CASES = (
    (1.0, 12, 0.02), (0.9, 11, 0.03), (0.8, 10, 0.0228), (0.75, 9, 0.05), (0.7, 8, 0.07),
    (0.6, 7, 0.1), (0.95, 6, 0.15), (0.85, 5, 0.2), (0.65, 3, 0.3), (1.0, 1, 0.5),
)


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

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize(
        "pmf", [np.full(8, 0.25), np.array([0.6, -0.1, 0, 0, 0, 0, 0, 0.5])],
        ids=["mass 2", "negative cell"],
    )
    def test_defective_coupling_rejected(self, pmf, sigma):
        """Summed as laws, these couplings give a 'TV' of 7.5 and of 1.1257."""
        bad = TripleCoupling(A, pmf)
        k_ap = make_scalar_extremal_couplings(1.0)[1]
        with pytest.raises(ValueError, match="coupling under a is defective"):
            exact_tv_distance(bad, k_ap, 4, NoiseModel(sigma))
        with pytest.raises(ValueError, match="coupling under a is defective"):
            make_likelihood_detector(bad, k_ap, 4, NoiseModel(sigma))

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
        lattice, law_a = batch_law(PR_A, 8)
        _, law_ap = batch_law(PR_AP, 8)
        diff = law_a - law_ap
        reported = exact_tv_distance(PR_A, PR_AP, 8, NoiseModel(0.2))
        fine = _tv_simpsons(diff, lattice, 0.2, (320,))[0]
        assert reported == pytest.approx(fine, abs=1e-6)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            exact_tv_distance(PR_A, PR_AP, 13, NOISELESS)

    @pytest.mark.parametrize("n_pairs", [1, 4, 8, 12])
    @pytest.mark.parametrize("sigma", [1e-9, 1e-5, 1e-4, None],
                             ids=["1e-9", "1e-5", "1e-4", "1/(40N)"])
    @pytest.mark.parametrize("c", [1.0, 0.75])
    def test_separated_noise_is_the_lattice_sum(self, monkeypatch, c, sigma, n_pairs):
        """At N sigma <= 1/40 (None: exactly 1/40) the noisy means stay in their
        lattice cells, so the noise-free sum is returned and nothing is integrated."""
        if sigma is None:
            sigma = TV_SEPARATED / n_pairs
            assert n_pairs * sigma == TV_SEPARATED
        k_a, k_ap = make_scalar_extremal_couplings(c)
        diff = batch_law(k_a, n_pairs)[1] - batch_law(k_ap, n_pairs)[1]
        monkeypatch.setattr("nsbox.signalling._simpson_grid", None)
        tv = exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(sigma))
        assert tv == 0.5 * float(np.abs(diff).sum()) > 0.0

    @pytest.mark.parametrize("n_pairs, sigma", [(12, 0.0021), (4, 0.0063), (1, 0.0251)])
    def test_just_above_the_switch_integrates_near_the_lattice_sum(
        self, monkeypatch, n_pairs, sigma
    ):
        """Past N sigma = 1/40 both Simpson grids are integrated, and land
        within 1e-6 of the noise-free TV (about 1e-12 at these points)."""
        assert n_pairs * sigma > TV_SEPARATED
        built = []
        build = nsbox.signalling._simpson_grid

        def spy(*args):
            built.append(args[-1])
            return build(*args)

        monkeypatch.setattr("nsbox.signalling._simpson_grid", spy)
        tv = exact_tv_distance(PR_A, PR_AP, n_pairs, NoiseModel(sigma))
        assert built == [grid_points(sigma, 20), grid_points(sigma, 40)]
        assert tv == pytest.approx(exact_tv_distance(PR_A, PR_AP, n_pairs, NOISELESS), abs=1e-6)

    @pytest.mark.parametrize("c, n_pairs, sigma", sorted(ORACLE_GOLDEN))
    def test_oracle_golden(self, c, n_pairs, sigma):
        k_a, k_ap = make_scalar_extremal_couplings(c)
        tv = exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(sigma))
        assert tv == ORACLE_GOLDEN[c, n_pairs, sigma]

    def test_identical_laws_skip_the_integral(self, monkeypatch):
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        monkeypatch.setattr("nsbox.signalling._simpson_grid", None)
        assert exact_tv_distance(k_a, k_ap, 12, NoiseModel(0.003)) == 0.0

    @pytest.mark.parametrize("n_pairs", [1, 8, 12])
    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("pair", ["critical", "PR_A twice", "PR_AP twice"])
    def test_equal_pair_marginals_build_no_law(self, monkeypatch, pair, sigma, n_pairs):
        """C = 1/2 and a coupling with itself share the (j, j') marginal bit
        for bit, so the TV is 0.0 with no law and no Simpson grid built."""
        k_a, k_ap = {"critical": make_scalar_extremal_couplings(0.5),
                     "PR_A twice": (PR_A, PR_A), "PR_AP twice": (PR_AP, PR_AP)}[pair]
        called = []
        build = nsbox.signalling._simpson_grid
        monkeypatch.setattr("nsbox.signalling.batch_law",
                            lambda *a: called.append("law") or batch_law(*a))
        monkeypatch.setattr("nsbox.signalling._simpson_grid",
                            lambda *a: called.append("grid") or build(*a))
        tv = exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(sigma))
        assert (tv, math.copysign(1.0, tv), called) == (0.0, 1.0, [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.sampled_from([0, 1]),
           st.sampled_from([1, 5, 12]), st.sampled_from([0.0, 0.1]))
    def test_i_mirror_matches_the_reference_laws(self, entries, index, n_pairs, sigma):
        """A coupling and its i-mirror (planes swapped, under a') add the same
        two cells into each pair cell, so the shortcut's 0.0 is the TV of
        their reference laws."""
        k = couplings_for_table(CorrelationTable(*entries))[index]
        mirror = TripleCoupling(A_PRIME, k.flat.reshape(2, 2, 2)[::-1].ravel())
        assert mirror.cells == k.cells[4:] + k.cells[:4]
        laws = [reference_batch_law(c, n_pairs)[1] for c in (k, mirror)]
        tv = exact_tv_distance(k, mirror, n_pairs, NoiseModel(sigma))
        assert tv == 0.5 * float(np.abs(laws[0] - laws[1]).sum()) == 0.0

    @pytest.mark.parametrize("n_pairs", [0, 13, 2.5, True], ids=repr)
    def test_equal_pair_marginals_still_check_the_pair_count(self, n_pairs):
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        for sigma in (0.0, 0.1):
            with pytest.raises(ValueError, match=r"^n_pairs must be an integer in \[1, 12\]"):
                exact_tv_distance(k_a, k_ap, n_pairs, NoiseModel(sigma))

    def test_equal_pair_marginals_still_check_the_couplings_and_noise(self):
        bad = TripleCoupling(A, np.full(8, 0.25))
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        for sigma in (0.0, 0.1):
            with pytest.raises(ValueError, match="^coupling under a is defective"):
                exact_tv_distance(bad, bad, 4, NoiseModel(sigma))
        for noise in (0.1, 0.0, None, "0.1"):
            with pytest.raises(ValueError, match=f"^noise must be a NoiseModel, got {noise!r}$"):
                exact_tv_distance(k_a, k_ap, 4, noise)
        # in the full path's order: N, the coupling under a, then the one under a'
        with pytest.raises(ValueError, match="^n_pairs"):
            exact_tv_distance(bad, bad, 13, 0.1)
        with pytest.raises(ValueError, match="^coupling under a is defective"):
            exact_tv_distance(bad, TripleCoupling(A_PRIME, bad.flat), 4, 0.1)

    def test_huge_sigma_bounded(self):
        """Past `_MAX_SIGMA` the noise is refused before 1 + 7 sigma overflows
        the grid count; at it the distance is 0.0, far below the accuracy."""
        pair = make_scalar_extremal_couplings(1.0)
        with pytest.raises(ValueError, match=r"^sigma must be a real in \[0, 1e\+100\], got 3e\+307$"):
            exact_tv_distance(*pair, 4, NoiseModel(3e307))
        assert exact_tv_distance(*pair, 4, NoiseModel(1e100)) == 0.0

    def test_kernel_matches_reference_bit_for_bit(self):
        """The tiled kernel against the untiled one at one BLAS thread, as the
        benchmark runs; the grids cover m below, between and past the tiles."""
        ms = {grid_points(s, d) for _, _, s, d in kernel_cases(11, 20)}
        assert min(ms) < 256 and any(256 < m < 512 for m in ms) and 513 in ms
        out = run_fresh("import json, test_signalling as t; print(json.dumps("
                        "t.kernel_mismatches(11, 20)))", blas_threads=1)
        assert json.loads(out) == []

    def test_bits_independent_of_blas_threads(self):
        """exact_tv_distance on THREAD_CASES and the kernel on seed-1 laws, one
        of which the untiled kernel sums differently at two BLAS threads."""
        code = "\n".join([
            "import test_signalling as t",
            "from nsbox.coupling import make_scalar_extremal_couplings",
            "from nsbox.macro import NoiseModel",
            "from nsbox.signalling import _tv_simpsons, exact_tv_distance",
            "for c, n, s in t.THREAD_CASES:",
            "    pair = make_scalar_extremal_couplings(c)",
            "    print(repr(exact_tv_distance(*pair, n, NoiseModel(s))))",
            "for diff, lattice, s, d in t.kernel_cases(1, 20):",
            "    print(repr(_tv_simpsons(diff, lattice, s, (d,))[0]))",
        ])
        one = run_fresh(code, blas_threads=1)
        assert len(one.split()) == len(THREAD_CASES) + len(list(kernel_cases(1, 20)))
        assert run_fresh(code, blas_threads=2) == one


def pooled_kernel_cases() -> list:
    """Seed-1 kernel cases whose one grid holds enough row blocks for the pool
    (sigma up to 0.015 gives 12 or more blocks at step divisor 40)."""
    return [
        case for case in kernel_cases(1, 4, sigmas=(0.01, 0.015))
        if -(-grid_points(case[2], case[3]) // TV_BLOCK) >= nsbox.signalling._PARALLEL_BLOCKS
    ]


def oracle_tvs() -> dict:
    """exact_tv_distance on the ORACLE_GOLDEN points and the kernel on
    `pooled_kernel_cases`, with whether a thread pool ran and the live
    thread count after it; floats as repr."""
    golden = [
        repr(exact_tv_distance(*make_scalar_extremal_couplings(c), n, NoiseModel(s)))
        for c, n, s in sorted(ORACLE_GOLDEN)
    ]
    kernel = [repr(_tv_simpsons(diff, lattice, s, (d,))[0])
              for diff, lattice, s, d in pooled_kernel_cases()]
    return {
        "golden": golden,
        "kernel": kernel,
        "pooled": "concurrent.futures.thread" in sys.modules,
        "threads": threading.active_count(),
        "cores": len(os.sched_getaffinity(0)),
    }


def live_grid_counts() -> list:
    """For C = 1, N = 12 at sigma 0.1 and 0.01: as each Simpson grid is built,
    how many kernels of the grids built before it are still alive."""
    build = nsbox.signalling._simpson_grid
    kernels, counts = [], []

    def spy(*args):
        grid = build(*args)
        counts[-1].append(sum(ref() is not None for ref in kernels))
        kernels.append(weakref.ref(grid[0]))
        return grid

    nsbox.signalling._simpson_grid = spy
    try:
        for sigma in (0.1, 0.01):
            counts.append([])
            exact_tv_distance(*make_scalar_extremal_couplings(1.0), 12, NoiseModel(sigma))
    finally:
        nsbox.signalling._simpson_grid = build
    return counts


ORACLE_TVS = "import json, test_signalling as t; print(json.dumps(t.oracle_tvs()))"

#: (C, N, sigma) points whose two Richardson grids hold enough blocks for the pool
POOLED_POINTS = ((1.0, 8, 0.01), (0.8, 12, 0.01))


def pooled_tv(point) -> float:
    c, n_pairs, sigma = point
    return exact_tv_distance(*make_scalar_extremal_couplings(c), n_pairs, NoiseModel(sigma))


def tv_in_child(connection, point) -> None:
    connection.send(pooled_tv(point))
    connection.close()


def serial_tvs() -> list:
    """POOLED_POINTS on the calling thread: the pool threshold is out of reach."""
    threshold = nsbox.signalling._PARALLEL_BLOCKS
    nsbox.signalling._PARALLEL_BLOCKS = math.inf
    try:
        return [pooled_tv(point) for point in POOLED_POINTS]
    finally:
        nsbox.signalling._PARALLEL_BLOCKS = threshold


def user_threads_tvs() -> dict:
    """POOLED_POINTS computed by two user threads at once, against serial."""
    serial = serial_tvs()
    barrier = threading.Barrier(len(POOLED_POINTS))
    results = [None] * len(POOLED_POINTS)

    def run(k):
        barrier.wait()
        results[k] = pooled_tv(POOLED_POINTS[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(POOLED_POINTS))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    return {
        "alive": any(thread.is_alive() for thread in threads),
        "results": results,
        "serial": serial,
    }


def forked_child_tv() -> dict:
    """A pooled TV here, then the same TV in a fork-context child."""
    serial = serial_tvs()[0]
    parent = pooled_tv(POOLED_POINTS[0])
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=tv_in_child, args=(send, POOLED_POINTS[0]))
    child.start()
    send.close()
    try:
        got = receive.recv() if receive.poll(60) else None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    return {"serial": serial, "parent": parent, "child": got, "exitcode": child.exitcode}


class TestBlasThreads:
    """`_blas_threads` in a fresh interpreter started at a given BLAS thread count."""

    def test_asked_at_each_call(self):
        # a later count set through the library's own entry point is seen, and
        # nothing under /proc is read
        code = "\n".join([
            "import builtins, ctypes, json, numpy as np",
            "from nsbox.signalling import _blas_threads",
            "def no_proc(path, *args, **kwargs):",
            "    if str(path).startswith('/proc'):",
            "        raise OSError('no /proc')",
            "    return builtin_open(path, *args, **kwargs)",
            "builtin_open, builtins.open = builtins.open, no_proc",
            "first = _blas_threads()",
            "lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)",
            "setter = next(getattr(lib, s) for s in ('scipy_openblas_set_num_threads64_',"
            " 'openblas_set_num_threads64_', 'openblas_set_num_threads') if hasattr(lib, s))",
            "setter.argtypes, setter.restype = [ctypes.c_int], None",
            "setter(2)",
            "print(json.dumps([first, _blas_threads()]))",
        ])
        assert json.loads(run_fresh(code, blas_threads=1)) == [1, 2]

    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_reads_the_started_count(self, blas_threads):
        code = "\n".join([
            "import json, os",
            "from nsbox.signalling import _blas_threads",
            "print(json.dumps([_blas_threads(), len(os.sched_getaffinity(0))]))",
        ])
        threads, cores = json.loads(run_fresh(code, blas_threads))
        # OpenBLAS caps its thread count at the cores it may run on
        assert threads == min(blas_threads, cores)


class TestExactTvPool:
    """The Simpson row blocks on a thread pool, each case in a fresh
    interpreter so that the BLAS thread count is the one asked for."""

    @pytest.fixture(scope="class")
    def one_blas_thread(self):
        return json.loads(run_fresh(ORACLE_TVS, blas_threads=1))

    def test_pooled_matches_reference_and_golden(self, one_blas_thread):
        out = one_blas_thread
        assert out["golden"] == [repr(ORACLE_GOLDEN[point]) for point in sorted(ORACLE_GOLDEN)]
        cases = pooled_kernel_cases()
        assert len(cases) >= 4
        # the untiled reference at one BLAS thread, as the pooled run had
        code = "\n".join([
            "import json, test_signalling as t",
            "print(json.dumps([repr(t.reference_tv_simpson(*c)) for c in t.pooled_kernel_cases()]))",
        ])
        assert out["kernel"] == json.loads(run_fresh(code, blas_threads=1))
        # a pool ran wherever there was a second core, and closed with the call
        assert out["pooled"] == (out["cores"] > 1)
        assert out["threads"] == 1

    def test_richardson_pair_matches_reference(self):
        code = "\n".join([
            "import json, test_signalling as t",
            "from nsbox.coupling import make_scalar_extremal_couplings",
            "from nsbox.signalling import batch_law",
            "out = []",
            "for point in t.POOLED_POINTS:",
            "    c, n, s = point",
            "    k_a, k_ap = make_scalar_extremal_couplings(c)",
            "    lattice, law_a = batch_law(k_a, n)",
            "    diff = law_a - batch_law(k_ap, n)[1]",
            "    coarse, fine = (t.reference_tv_simpson(diff, lattice, s, d) for d in (20, 40))",
            "    out.append([repr(t.pooled_tv(point)), repr(fine + (fine - coarse) / 3.0)])",
            "print(json.dumps(out))",
        ])
        for pooled, reference in json.loads(run_fresh(code, blas_threads=1)):
            assert pooled == reference

    def test_serial_fallback_at_two_blas_threads(self, one_blas_thread):
        out = json.loads(run_fresh(ORACLE_TVS, blas_threads=2))
        assert out["golden"] == one_blas_thread["golden"]
        assert out["kernel"] == one_blas_thread["kernel"]
        assert not out["pooled"]
        assert out["threads"] == 1

    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_one_grid_alive_at_a_time(self, blas_threads):
        """Pooled or serial, each Richardson grid is freed before the next is built."""
        code = "import json, test_signalling as t; print(json.dumps(t.live_grid_counts()))"
        assert json.loads(run_fresh(code, blas_threads)) == [[0, 0], [0, 0]]

    def test_small_calls_start_no_thread(self):
        """Noise-free, identical-law and sigma = 0.1 calls stay on the calling
        thread even at one BLAS thread."""
        code = "\n".join([
            "import json, sys, threading",
            "from nsbox.coupling import make_scalar_extremal_couplings",
            "from nsbox.macro import NoiseModel",
            "from nsbox.signalling import exact_tv_distance",
            "tvs = [exact_tv_distance(*make_scalar_extremal_couplings(c), n, NoiseModel(s))",
            "       for c, n, s in ((1.0, 12, 0.0), (0.5, 12, 0.01), (0.5, 8, 0.01), (1.0, 12, 0.1))]",
            "print(json.dumps([tvs, 'concurrent.futures.thread' in sys.modules,"
            " threading.active_count()]))",
        ])
        tvs, pooled, threads = json.loads(run_fresh(code, blas_threads=1))
        assert tvs == [ORACLE_GOLDEN[1.0, 12, 0.0], 0.0, 0.0, ORACLE_GOLDEN[1.0, 12, 0.1]]
        assert not pooled
        assert threads == 1


class TestTvConcurrency:
    """The pooled oracle under user threads and fork, at one BLAS thread."""

    def test_user_threads_compute_at_once(self):
        code = "import json, test_signalling as t; print(json.dumps(t.user_threads_tvs()))"
        out = json.loads(run_fresh(code, blas_threads=1))
        assert not out["alive"]
        assert out["results"] == out["serial"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_computes_after_pooled_tv(self):
        # a pool that outlived the parent's TV would leave the child waiting on dead threads
        code = "import json, test_signalling as t; print(json.dumps(t.forked_child_tv()))"
        out = json.loads(run_fresh(code, blas_threads=1))
        assert out["parent"] == out["serial"]
        assert out["child"] == out["serial"]
        assert out["exitcode"] == 0


class TestAdvantageHelpers:
    @pytest.mark.parametrize("tv,expected", [(0.0, 0.5), (1.0, 1.0), (0.3, 0.65)])
    def test_single_batch_ceiling(self, tv, expected):
        # one batch: the best guess between equiprobable laws, (1 + TV) / 2
        assert advantage_ceiling(tv, 1) == pytest.approx(expected, abs=1e-15)

    def test_ceiling_domain(self):
        with pytest.raises(ValueError, match="tv_single must be a nonnegative total variation"):
            advantage_ceiling(-0.1, 1)

    @pytest.mark.parametrize("tv,group_size", [(math.nan, 1), (0.1, 0), (0.1, 2.5)],
                             ids=["nan-tv", "empty-group", "fractional-group"])
    def test_ceiling_rejects_what_it_once_answered(self, tv, group_size):
        # these once read 1.0, 0.5 and 0.625
        with pytest.raises(ValueError, match="^(tv_single|group_size) must be "):
            advantage_ceiling(tv, group_size)

    def test_ceiling_clamps_a_rounded_tv_above_one(self):
        assert advantage_ceiling(math.nextafter(1.0, 2.0), 1) == 1.0
        assert advantage_ceiling(0.3, 4) == 1.0

    def test_group_ceiling(self):
        assert advantage_ceiling(0.1, 1) == (1.0 + 0.1) / 2.0
        assert advantage_ceiling(0.1, 20) == 1.0

    def test_wilson_brackets_proportion(self):
        low, high = wilson_interval(90, 100)
        assert low < 0.9 < high
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_suggested_repetitions(self):
        assert suggested_repetitions(0.5) is None
        value = suggested_repetitions(0.6)
        assert value == pytest.approx(math.log(20) / (2 * 0.01), rel=1e-12)


class TestVerdictRule:
    def test_four_of_four_is_not_signalling(self):
        """At identical laws 4 of 4 correct has chance 1/16, though the
        Wilson interval of 4 of 4 excludes 1/2."""
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        cfg = ProtocolConfig(n_pairs=4, repetitions=64, noise=NoiseModel(0.1))
        report = run_protocol(k_a, k_ap, cfg, seed=2)
        assert (report.n_trials, report.advantage) == (4, 1.0)
        assert report.ci_low > 0.5
        assert chance_tail(4, 4) == 1 / 16
        assert report.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_narrow_interval_around_half_is_no_signalling(self, seed):
        """At identical laws 20,000 trials give a Wilson width of 0.0139,
        below `NO_SIGNALLING_WIDTH`, around an advantage near 1/2."""
        k_a, k_ap = make_scalar_extremal_couplings(0.5)
        cfg = ProtocolConfig(n_pairs=4, repetitions=20_000, noise=NoiseModel(0.1), group_size=2)
        report = run_protocol(k_a, k_ap, cfg, seed=seed)
        assert report.n_trials == 20_000
        assert report.ci_low <= 0.5 <= report.ci_high
        assert report.ci_high - report.ci_low < NO_SIGNALLING_WIDTH
        assert report.verdict is Verdict.NO_SIGNALLING

    def test_false_alarm_rate_at_most_the_level(self):
        """The exact chance, at identical laws, that n trials read SIGNALLING."""
        for n in range(201):
            rate = sum(
                Fraction(comb(n, k), 2**n)
                for k in range(n + 1)
                if chance_tail(k, n) <= SIGNALLING_TAIL
            )
            assert rate <= Fraction(1, 40), n

    def test_tail_edges(self):
        for n in range(201):
            assert chance_tail(0, n) == 1.0, n
            assert chance_tail(n + 1, n) == 0.0, n
            assert chance_tail(n, n) == pytest.approx(0.5**n, rel=1e-12), n

    def test_tail_falls_as_correct_rises(self):
        for n in (1, 2, 7, 40, 333, 4096):
            tails = [chance_tail(k, n) for k in range(n + 2)]
            assert all(hi >= lo for hi, lo in zip(tails, tails[1:])), n

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 40, 64, 101, 625, 1250, 4096])
    def test_verdict_matches_binomtest(self, n):
        for k in range(n + 1):
            pvalue = binomtest(k, n, 0.5, alternative="greater").pvalue
            assert chance_tail(k, n) == pytest.approx(pvalue, rel=1e-9, abs=1e-300), k
            assert (chance_tail(k, n) <= SIGNALLING_TAIL) == (pvalue <= 0.025), k


class TestDetectors:
    def test_covariance_sign_noiseless_groups(self):
        arrays = sample_batches(PR_A, 10, 64, NOISELESS, seed=4, stream=0)
        assert covariance_guess_a(*whole(arrays)).tolist() == [True]
        arrays = sample_batches(PR_AP, 10, 64, NOISELESS, seed=4, stream=1)
        assert covariance_guess_a(*whole(arrays)).tolist() == [False]

    def test_covariance_tie_break(self):
        # a zero covariance (degenerate group) guesses a
        assert covariance_guess_a(*group((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))).tolist() == [True]

    def test_covariance_near_tie_follows_np_cov(self):
        # the exact covariance is 0; np.cov rounds it to a tiny negative,
        # while a plain dot product of the centred rows gives 0 (guess a)
        u = np.array([-3, -1, -2, -1, 0, -2, 0, 1, 2, -2, -2, -1, -3, 1, -2, -1]) / 3
        v = np.array([0] * 15 + [-1]) / 3
        assert np.cov(u, v)[0, 1] < 0
        assert covariance_guess_a(u[None, :], v[None, :]).tolist() == [False]

    def test_covariance_of_int_observations(self):
        # int rows are read as floats, as np.cov reads them
        assert covariance_guess_a(np.array([[1, -1]]), np.array([[1, -1]])).tolist() == [True]
        assert covariance_guess_a(np.array([[1, -1]]), np.array([[-1, 1]])).tolist() == [False]

    def test_covariance_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            covariance_guess_a(*group((1.0, 1.0)))

    def test_postselect_keeps_extremes_only(self):
        u, v = group((1.0, 1.0), (0.5, 1.0), (-1.0, -1.0), (1.0, -1.0))
        guess_a, survivors = postselect_guess_a(u, v, threshold=1.0)
        assert survivors.tolist() == [3]
        assert guess_a.tolist() == [True]  # 2 of 3 survivors agree in sign

    def test_postselect_empty(self):
        _, survivors = postselect_guess_a(*group((0.1, 0.1)), threshold=0.9)
        assert survivors.tolist() == [0]

    def test_postselect_bad_threshold(self):
        for threshold in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                postselect_guess_a(*group((1.0, 1.0)), threshold=threshold)

    def test_pr_survivors_always_agree(self):
        arrays = sample_batches(PR_A, 10, 2000, NOISELESS, seed=6, stream=0)
        keep = (np.abs(arrays.noisy_b) >= 1) & (np.abs(arrays.noisy_bp) >= 1)
        assert keep.any(), "with 2000 batches some |B| = 1 batches exist"
        np.testing.assert_array_equal(arrays.noisy_b[keep], arrays.noisy_bp[keep])
        guess_a, survivors = postselect_guess_a(*whole(arrays), threshold=1.0)
        assert survivors.tolist() == [np.count_nonzero(keep)]
        assert guess_a.tolist() == [True]

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
        _, survivors = postselect_guess_a(*whole(arrays), threshold)
        se = math.sqrt(count * p_surv * (1 - p_surv))
        assert abs(int(survivors[0]) - count * p_surv) <= 5 * se

    def test_likelihood_detector_noiseless(self):
        guess_a = make_likelihood_detector(PR_A, PR_AP, 8, NOISELESS)
        arrays = sample_batches(PR_A, 8, 16, NOISELESS, seed=2, stream=0)
        assert guess_a(*whole(arrays)).tolist() == [True]
        arrays = sample_batches(PR_AP, 8, 16, NOISELESS, seed=2, stream=1)
        assert guess_a(*whole(arrays)).tolist() == [False]

    def test_likelihood_detector_noisy(self):
        noise = NoiseModel(0.1)
        guess_a = make_likelihood_detector(PR_A, PR_AP, 8, noise)
        arrays = sample_batches(PR_A, 8, 64, noise, seed=2, stream=0)
        assert guess_a(*whole(arrays)).tolist() == [True]

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_likelihood_detector_empty_group_ties(self, sigma):
        # both log-likelihoods are the empty sum 0.0; the tie guesses a
        guess_a = make_likelihood_detector(PR_A, PR_AP, 8, NoiseModel(sigma))
        assert guess_a(np.empty((1, 0)), np.empty((1, 0))).tolist() == [True]

    def test_likelihood_detector_noise_must_be_a_noise_model(self, monkeypatch):
        # rejected when the detector is made, before any law is built
        monkeypatch.setattr("nsbox.signalling.batch_law", None)
        with pytest.raises(ValueError, match="^noise must be a NoiseModel, got 0.1$"):
            make_likelihood_detector(PR_A, PR_AP, 4, 0.1)


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
        assert report == SignallingReport(0.5, 0.0, 1.0, 0, Verdict.INCONCLUSIVE, 0, None)

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

    @pytest.mark.parametrize(
        "defect, pmf",
        [
            ("mass deficit 0.3", 0.7 * PR_AP.flat),
            ("negative cells", (1 + 1.5 * I_VALUES * J_VALUES * JP_VALUES) / 8),
            ("non-uniform marginal", np.array([0.55, 0, 0, 0, 0, 0, 0, 0.45])),
        ],
    )
    def test_defective_coupling_rejected(self, defect, pmf):
        cfg = ProtocolConfig(n_pairs=4, repetitions=64, noise=NOISELESS, group_size=8)
        bad = TripleCoupling(A_PRIME, pmf)
        with pytest.raises(ValueError, match="coupling under a' is defective"):
            run_protocol(PR_A, bad, cfg, seed=1)

    @pytest.mark.parametrize("pair", [(PR_AP, PR_A), (PR_A, PR_A), (PR_AP, PR_AP)])
    def test_arm_settings_must_be_a_then_aprime(self, pair):
        cfg = ProtocolConfig(n_pairs=4, repetitions=64, noise=NOISELESS, group_size=8)
        with pytest.raises(ValueError, match="under a then a'"):
            run_protocol(*pair, cfg, seed=1)

    def test_draw_arms_noise_must_be_a_noise_model(self, monkeypatch):
        monkeypatch.setattr("nsbox.macro._chunk_words", None)
        with pytest.raises(ValueError, match="^noise must be a NoiseModel, got 0.1$"):
            draw_arms(PR_A, PR_AP, 4, 64, 0.1, seed=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=16, noise=NOISELESS, group_size=32)
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=0, noise=NOISELESS)
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=16, noise=NOISELESS, postselect_threshold=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(n_pairs=8, repetitions=16, noise=NOISELESS, postselect_threshold=0.0)
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

    @pytest.mark.parametrize(
        "field,value", [("detector", "cov"), ("noise", 0.1), ("postselect_threshold", "0.5")],
    )
    def test_fields_of_the_wrong_type_are_rejected(self, field, value):
        """Each once passed construction and failed only in `run_protocol`:
        an UnboundLocalError, an AttributeError and a bare TypeError."""
        fields = {"n_pairs": 4, "repetitions": 64, "noise": NOISELESS, field: value}
        with pytest.raises(ValueError, match=f"^{field} must .*, got {value!r}$"):
            ProtocolConfig(**fields)

    @pytest.mark.parametrize(
        "field,value", [("n_pairs", "4"), ("repetitions", 64.5), ("group_size", 32.0),
                        ("n_pairs", 0), ("repetitions", -64), ("group_size", None)],
    )
    def test_counts_must_be_positive_integers(self, field, value):
        counts = {"n_pairs": 4, "repetitions": 64, "group_size": 32, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got "):
            ProtocolConfig(noise=NOISELESS, **counts)

    def test_numpy_counts_are_stored_as_ints(self):
        cfg = ProtocolConfig(n_pairs=np.int64(4), repetitions=np.uint16(64), noise=NOISELESS,
                             group_size=np.int32(8))
        assert (cfg.n_pairs, cfg.repetitions, cfg.group_size) == (4, 64, 8)
        assert all(type(n) is int for n in (cfg.n_pairs, cfg.repetitions, cfg.group_size))


def reference_csv_fields(row: SweepRow) -> list[str]:
    """Sweep CSV fields formatted one at a time."""
    r = row.report
    return [
        f"{row.c:.17g}",
        str(row.n_pairs),
        str(row.repetitions),
        f"{row.sigma:.17g}",
        row.detector.value,
        f"{r.advantage:.17g}",
        f"{r.ci_low:.17g}",
        f"{r.ci_high:.17g}",
        str(r.n_used),
        r.verdict.value,
    ]


def reference_write_sweep_csv(stream, rows) -> None:
    """The sweep CSV through csv.writer."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    writer.writerows(reference_csv_fields(row) for row in rows)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, 1.0, math.inf, -math.inf]
SWEEP_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(
        st.tuples(
            SWEEP_FLOATS,
            st.integers(1, 2**40),
            st.integers(1, 2**40),
            SWEEP_FLOATS,
            st.sampled_from(Detector),
            st.lists(SWEEP_FLOATS.filter(lambda x: not math.isnan(x)), min_size=3, max_size=3),
            st.integers(0, 2**40),
            st.sampled_from(Verdict),
        ),
        max_size=6,
    )
)
def test_sweep_csv_matches_csv_writer(fields):
    rows = []
    for c, n_pairs, reps, sigma, detector, interval, n_used, verdict in fields:
        low, advantage, high = sorted(interval)
        report = SignallingReport(advantage, low, high, n_used, verdict, n_used // 2, None)
        rows.append(SweepRow(c, n_pairs, reps, sigma, detector, report))
    for row in rows:
        assert row.csv_fields() == reference_csv_fields(row)
    got, want = io.StringIO(), io.StringIO()
    write_sweep_csv(got, rows)
    reference_write_sweep_csv(want, rows)
    assert got.getvalue() == want.getvalue()


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

    @pytest.mark.parametrize(
        "n_list,r_list", [([1024, 2.5], [4096]), ([1024], [4096, 64.5]), ([4, "8"], [64])]
    )
    def test_bad_count_rejected_before_any_draw(self, monkeypatch, n_list, r_list):
        def spy(*args, **kwargs):
            raise AssertionError("sample_batches ran before the sweep's configs were checked")

        monkeypatch.setattr(nsbox.signalling, "sample_batches", spy)
        with pytest.raises(ValueError, match="must be a positive integer, got (2.5|64.5|'8')"):
            resource_sweep(CorrelationTable(1, 1, 1, -1), n_list, r_list, [0.1], seed=1)

    def test_detector_name_rejected_before_any_draw(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("sample_batches ran before the sweep's configs were checked")

        monkeypatch.setattr(nsbox.signalling, "sample_batches", spy)
        with pytest.raises(ValueError, match="^detector must be a Detector, got 'cov'$"):
            resource_sweep(CorrelationTable(1, 1, 1, -1), [4], [64], [0.1], seed=1,
                           detectors=("cov",))

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            resource_sweep(CorrelationTable(1, 1, 1, -1), [], [10], [0.1], seed=1)

    def test_numpy_arrays_give_the_list_rows(self):
        table = CorrelationTable(0.8, 0.8, 0.8, -0.8)
        n, r, sigma, detectors = (
            [4, 8], [64, 96], [0.0, 0.1], [Detector.COVARIANCE_SIGN, Detector.LIKELIHOOD]
        )
        want = resource_sweep(table, n, r, sigma, 2**63 + 3, detectors)
        got = resource_sweep(table, *map(np.array, (n, r, sigma)), np.uint64(2**63 + 3),
                             np.array(detectors))
        assert len(got) == 16
        assert [row.csv_line() for row in got] == [row.csv_line() for row in want]
        with pytest.raises(ValueError, match="nonempty"):
            resource_sweep(table, np.array(n), np.array([], int), np.array(sigma), seed=1)

    def test_table_past_one_sweeps_as_its_clamped_table(self):
        # CorrelationTable allows NORM_TOL past +/-1; the sweep reports the table's own C
        past, clamped = CorrelationTable(1 + 1e-13, 1, 1, -1), CorrelationTable(1, 1, 1, -1)
        got, want = (resource_sweep(t, [4], [64], [0.1], seed=3)[0] for t in (past, clamped))
        assert got.c == 1 + 1e-13
        assert got.report == want.report

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


# ---------------------------------------------------------------------------
# Scoring equivalence: whole-arm kernels against the per-group reference
# ---------------------------------------------------------------------------


#: One batch of a group as the per-group reference detectors read it.
Row = namedtuple("Row", "noisy_b noisy_bp")


def reference_covariance_sign(observations):
    u = np.array([o.noisy_b for o in observations])
    v = np.array([o.noisy_bp for o in observations])
    cov = float(np.cov(u, v, ddof=1)[0, 1])
    return A if cov >= 0.0 else A_PRIME


def reference_postselect(observations, threshold):
    survivors = [
        o for o in observations if abs(o.noisy_b) >= threshold and abs(o.noisy_bp) >= threshold
    ]
    if not survivors:
        return None, 0
    agree = sum(1 for o in survivors if (o.noisy_b >= 0) == (o.noisy_bp >= 0))
    guess = A if 2 * agree >= len(survivors) else A_PRIME
    return guess, len(survivors)


def reference_likelihood_detector(k_a, k_ap, n_pairs, noise):
    lattice, law_a = batch_law(k_a, n_pairs)
    _, law_ap = batch_law(k_ap, n_pairs)
    sigma = noise.sigma

    def log_likelihoods(observations):
        if sigma == 0.0:
            ll_a = ll_ap = 0.0
            for o in observations:
                k = int(round((o.noisy_b + 1.0) * n_pairs / 2.0))
                kp = int(round((o.noisy_bp + 1.0) * n_pairs / 2.0))
                p_a, p_ap = law_a[k, kp], law_ap[k, kp]
                ll_a += math.log(p_a) if p_a > 0 else -math.inf
                ll_ap += math.log(p_ap) if p_ap > 0 else -math.inf
            return ll_a, ll_ap
        u = np.array([o.noisy_b for o in observations])
        v = np.array([o.noisy_bp for o in observations])
        ku = np.exp(-0.5 * ((u[:, None] - lattice[None, :]) / sigma) ** 2)
        kv = np.exp(-0.5 * ((v[:, None] - lattice[None, :]) / sigma) ** 2)
        dens_a = np.einsum("gi,ij,gj->g", ku, law_a, kv)
        dens_ap = np.einsum("gi,ij,gj->g", ku, law_ap, kv)
        with np.errstate(divide="ignore"):
            return float(np.log(dens_a).sum()), float(np.log(dens_ap).sum())

    def guess(observations):
        ll_a, ll_ap = log_likelihoods(observations)
        return A if ll_a >= ll_ap else A_PRIME

    return guess


def reference_group_guesses(arrays, cfg, guess_fn, collect_survivors):
    guesses = []
    survivors_total = 0
    for g in range(cfg.repetitions // cfg.group_size):
        lo, hi = g * cfg.group_size, (g + 1) * cfg.group_size
        observations = [
            Row(*pair)
            for pair in zip(arrays.noisy_b[lo:hi].tolist(), arrays.noisy_bp[lo:hi].tolist())
        ]
        if collect_survivors:
            guess, n_surv = guess_fn(observations)
            survivors_total += n_surv
        else:
            guess = guess_fn(observations)
        guesses.append(guess)
    return guesses, survivors_total


def reference_score_arms(k_a, k_ap, arms, cfg):
    """The original scorer: one `Row` per batch, one detector
    call (and one `np.cov`) per group, and the verdict from scipy's exact
    binomial test.  `score_arms` must match it exactly."""
    if cfg.detector is Detector.COVARIANCE_SIGN:
        guess_fn, collect = reference_covariance_sign, False
    elif cfg.detector is Detector.POSTSELECT_EXTREMES:
        guess_fn = lambda o: reference_postselect(o, cfg.postselect_threshold)  # noqa: E731
        collect = True
    else:
        guess_fn = reference_likelihood_detector(k_a, k_ap, cfg.n_pairs, cfg.noise)
        collect = False
    n_batches = (cfg.repetitions // cfg.group_size) * cfg.group_size
    trials = correct = n_used = 0
    for setting, arrays in zip((A, A_PRIME), arms):
        guesses, survivors = reference_group_guesses(arrays, cfg, guess_fn, collect)
        n_used += survivors if collect else n_batches
        for guess in guesses:
            if guess is None:
                continue
            trials += 1
            correct += guess is setting
    if trials == 0:
        return SignallingReport(0.5, 0.0, 1.0, 0, Verdict.INCONCLUSIVE, 0, None)
    advantage = correct / trials
    ci_low, ci_high = wilson_interval(correct, trials)
    if binomtest(correct, trials, 0.5, alternative="greater").pvalue <= 0.025:
        verdict = Verdict.SIGNALLING
    elif ci_low <= 0.5 <= ci_high and (ci_high - ci_low) < NO_SIGNALLING_WIDTH:
        verdict = Verdict.NO_SIGNALLING
    else:
        verdict = Verdict.INCONCLUSIVE
    return SignallingReport(
        advantage, ci_low, ci_high, n_used, verdict, trials, suggested_repetitions(advantage)
    )


def scoring_configs(n_pairs, sigma, repetitions, group_sizes, thresholds):
    """Every detector at each group size: lr only where the exact laws
    exist, cov only for groups of at least 2 batches."""
    for group_size in group_sizes:
        detectors = [Detector.COVARIANCE_SIGN] if group_size >= 2 else []
        if n_pairs <= 12:
            detectors.append(Detector.LIKELIHOOD)
        base = dict(
            n_pairs=n_pairs, repetitions=repetitions, noise=NoiseModel(sigma), group_size=group_size
        )
        for detector in detectors:
            yield ProtocolConfig(detector=detector, **base)
        for threshold in thresholds:
            yield ProtocolConfig(
                detector=Detector.POSTSELECT_EXTREMES, postselect_threshold=threshold, **base
            )


class TestScoringEquivalence:
    # R = 1001 is no multiple of either group size; the large seed sits
    # where the benchmark's op seeds are
    @pytest.mark.parametrize("seed", [19, 2**63 + 19])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("n_pairs", [1, 4, 12, 256])
    @pytest.mark.parametrize("c", [1.0, 0.8, 0.5])
    def test_grid_matches_reference(self, c, n_pairs, sigma, seed):
        k_a, k_ap = couplings_for_table(CorrelationTable(c, c, c, -c))
        arms = draw_arms(k_a, k_ap, n_pairs, 1001, NoiseModel(sigma), seed)
        for cfg in scoring_configs(n_pairs, sigma, 1001, (2, 32), (0.5, 1.0)):
            assert score_arms(k_a, k_ap, arms, cfg) == reference_score_arms(
                k_a, k_ap, arms, cfg
            ), cfg

    @settings(max_examples=40, deadline=None)
    # groups of one batch: lr's noisy einsum then runs over every row at once
    @example(c=0.8, n_pairs=8, sigma=0.05, group_size=1, extra=37, threshold=0.5, seed=2**63 + 1)
    @given(
        c=st.floats(0.0, 1.0),
        n_pairs=st.sampled_from([1, 2, 3, 5, 8, 12, 40]),
        sigma=st.sampled_from([0.0, 0.05, 0.3]),
        group_size=st.integers(1, 40),
        extra=st.integers(0, 150),
        threshold=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_configs_match_reference(
        self, c, n_pairs, sigma, group_size, extra, threshold, seed
    ):
        k_a, k_ap = couplings_for_table(CorrelationTable(c, c, c, -c))
        repetitions = group_size + extra
        arms = draw_arms(k_a, k_ap, n_pairs, repetitions, NoiseModel(sigma), seed)
        for cfg in scoring_configs(n_pairs, sigma, repetitions, (group_size,), (threshold,)):
            assert score_arms(k_a, k_ap, arms, cfg) == reference_score_arms(
                k_a, k_ap, arms, cfg
            ), cfg


unit_correlations = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestCouplingsForTable:
    @given(unit_correlations, unit_correlations, unit_correlations, unit_correlations)
    @example(1.0, -1.0, 1.0, 1.0)  # the PR box with relabelled outputs
    def test_pair_realizes_its_table(self, c_ab, c_abp, c_apb, c_apbp):
        k_a, k_ap = couplings_for_table(CorrelationTable(c_ab, c_abp, c_apb, c_apbp))
        assert validate_coupling(k_a, (c_ab, c_abp)).ok
        assert validate_coupling(k_ap, (c_apb, c_apbp)).ok

    @pytest.mark.parametrize("n_pairs, tv", [(4, 0.351), (12, 0.390)])
    def test_relabelling_b_prime_keeps_the_signal(self, n_pairs, tv):
        """Bob's noise-free TV on the tilted table at C = 0.8 and on the same
        table with b' relabelled, which read 0.625 and 0.774 before its
        couplings took the closest ends of the E[jj'] ranges."""
        tilted = couplings_for_table(CorrelationTable(0.8, 0.8, 0.8, -0.8))
        relabelled = couplings_for_table(CorrelationTable(0.8, -0.8, 0.8, 0.8))
        got = exact_tv_distance(*relabelled, n_pairs, NOISELESS)
        assert got == exact_tv_distance(*tilted, n_pairs, NOISELESS)
        assert got == pytest.approx(tv, abs=5e-4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(unit_correlations, unit_correlations, unit_correlations, unit_correlations)
        .filter(lambda t: max(map(abs, chsh_variants(CorrelationTable(*t)))) > 2.0 + 1e-9)
    )
    @example((1.0, 1.0, 1.0, -1.0))  # the PR box
    @example((1.0, -1.0, 1.0, 1.0))  # the PR box with b' relabelled
    @example((0.7071, 0.7071, 0.7071, -0.7071))  # near the quantum point
    def test_nonlocal_signal_is_relabelling_invariant(self, entries):
        """Relabelling an outcome or a setting, Alice still choosing, leaves a
        nonlocal table's noise-free TV the same.  (Local tables break this
        today: their couplings signal where one common E[jj'] would not.)"""
        def tv(t, n_pairs):
            return exact_tv_distance(*couplings_for_table(CorrelationTable(*t)), n_pairs, NOISELESS)

        for n_pairs in (1, 4):
            want = tv(entries, n_pairs)
            for move in RELABELLINGS:
                assert abs(tv(move(entries), n_pairs) - want) <= 1e-12, (move(entries), n_pairs)

    def test_matches_scalar_construction_for_tilted(self):
        k_a, k_ap = couplings_for_table(CorrelationTable(0.6, 0.6, 0.6, -0.6))
        s_a, s_ap = make_scalar_extremal_couplings(0.6)
        assert np.allclose(k_a.flat, s_a.flat, atol=1e-12)
        assert np.allclose(k_ap.flat, s_ap.flat, atol=1e-12)
