import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import nsbox.macro
from nsbox.boxes import A, A_PRIME, AliceSetting
from nsbox.coupling import (
    I_VALUES,
    J_VALUES,
    JP_VALUES,
    CouplingObjective,
    TripleCoupling,
    extremal_coupling,
)
from nsbox.macro import (
    BATCH_CSV_HEADER,
    CHUNK,
    BatchArrays,
    NoiseModel,
    batch_lattice,
    sample_batches,
    write_batches_csv,
    _chunk_key,
    _ndtri,
    _word_limit,
)
from nsbox.signalling import ARMS
from oracles import mean_square_check, parallelogram_residuals, pr_limit_couplings

I_VALUES, J_VALUES, JP_VALUES = map(np.array, (I_VALUES, J_VALUES, JP_VALUES))  # tuples in nsbox

PR_A, PR_AP = pr_limit_couplings()
UNIFORM = extremal_coupling(0.0, 0.0, CouplingObjective.MIN_DISAGREE)
NOISELESS = NoiseModel(0.0)
COLUMNS = ("a_mean", "b_mean", "bp_mean", "noisy_b", "noisy_bp")


def first_row(arrays: BatchArrays) -> tuple:
    """Row 0 of the columns as (A, B, B', noisy B, noisy B')."""
    return tuple(float(getattr(arrays, name)[0]) for name in COLUMNS)


def first_batch(coupling, n_pairs, setting, seed, noise=NOISELESS):
    """Batch 0 of the stream of the arm under Alice's setting."""
    return first_row(
        sample_batches(coupling, n_pairs, 1, noise, seed, stream=ARMS.index(setting))
    )


class TestSampling:
    def test_deterministic(self):
        noise = NoiseModel(0.3)
        first = first_batch(PR_A, 12, A, 2024, noise)
        second = first_batch(PR_A, 12, A, 2024, noise)
        assert first == second

    def test_single_batch_matches_bulk(self):
        noise = NoiseModel(0.2)
        single = first_batch(PR_AP, 9, A_PRIME, 55, noise)
        bulk = sample_batches(PR_AP, 9, 3, noise, 55, stream=1)
        assert single == first_row(bulk)

    def test_offset_slices_agree_across_chunks(self):
        # batch index fully determines the draw, whatever range produced it
        full = sample_batches(UNIFORM, 5, 4200, NoiseModel(0.1), seed=9)
        part = sample_batches(UNIFORM, 5, 110, NoiseModel(0.1), seed=9, start=4090)
        np.testing.assert_array_equal(full.b_mean[4090:4200], part.b_mean)
        np.testing.assert_array_equal(full.noisy_bp[4090:4200], part.noisy_bp)

    def test_strategies_use_disjoint_streams(self):
        a = sample_batches(UNIFORM, 8, 10, NOISELESS, seed=1, stream=0)
        ap = sample_batches(UNIFORM, 8, 10, NOISELESS, seed=1, stream=1)
        assert not np.array_equal(a.a_mean, ap.a_mean)

    def test_pr_always_a_locks_all_three_means(self):
        a, b, bp, noisy_b, _ = first_batch(PR_A, 20, A, 7)
        assert b == a
        assert bp == a
        assert noisy_b == b

    def test_pr_always_aprime_anticorrelates(self):
        _, b, bp, _, _ = first_batch(PR_AP, 20, A_PRIME, 7)
        assert b == -bp

    def test_single_pair_means_are_signs(self):
        for seed in range(10):
            a, b, _, _, _ = first_batch(UNIFORM, 1, A, seed)
            assert a in (-1.0, 1.0)
            assert b in (-1.0, 1.0)

    def test_noise_leaves_pair_outcomes_alone(self):
        quiet = sample_batches(UNIFORM, 6, 50, NOISELESS, seed=3)
        loud = sample_batches(UNIFORM, 6, 50, NoiseModel(2.0), seed=3)
        np.testing.assert_array_equal(quiet.b_mean, loud.b_mean)
        assert not np.array_equal(loud.noisy_b, loud.b_mean)

    def test_lattice_invariant(self):
        arrays = sample_batches(UNIFORM, 7, 500, NOISELESS, seed=11)
        lattice = set(batch_lattice(7).tolist())
        for value in np.concatenate([arrays.a_mean, arrays.b_mean, arrays.bp_mean]):
            counts = 7 * (1 - value) / 2
            assert counts == round(counts)
            assert 0 <= counts <= 7
            assert float(value) in lattice

    def test_validation(self):
        with pytest.raises(ValueError, match="n_pairs"):
            sample_batches(UNIFORM, 0, 1, NOISELESS, seed=1)
        with pytest.raises(ValueError, match="seed"):
            sample_batches(UNIFORM, 4, 1, NOISELESS, seed=-1)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            sample_batches(UNIFORM, 4, 10, NOISELESS, seed=2**64)

    @pytest.mark.parametrize("stream, start, field", [
        (-1, 0, "stream must be a 32-bit unsigned integer"),
        (2**32, 0, "stream must be a 32-bit unsigned integer"),
        (1, -1, "start must be a nonnegative integer"),
        # the chunk index fills the key word's low 32 bits
        (1, 2**32 * CHUNK, "batch index out of range for the stream layout"),
    ])
    def test_rejects_keys_outside_their_bits(self, stream, start, field):
        # the key word is (stream << 32) | chunk: stream -1 drew stream 2**32 - 1's
        # batches, and start -1 drew the same batch on streams 0 and 1
        with pytest.raises(ValueError, match=field):
            sample_batches(UNIFORM, 4, 1, NOISELESS, seed=5, stream=stream, start=start)
        assert len(sample_batches(UNIFORM, 4, 1, NOISELESS, seed=5, stream=2**32 - 1)) == 1
        assert len(sample_batches(UNIFORM, 4, 1, NOISELESS, seed=5, start=2**32 * CHUNK - 1)) == 1

    def test_numpy_integers_key_the_int_stream(self):
        noise = NoiseModel(0.1)
        want = sample_batches(UNIFORM, 4, 9, noise, seed=2**63 + 5, stream=1, start=3)
        got = sample_batches(
            UNIFORM, np.int64(4), 9, noise, seed=np.uint64(2**63 + 5), stream=np.uint32(1),
            start=np.int64(3),
        )
        for field in ("a_mean", "b_mean", "bp_mean", "noisy_b", "noisy_bp"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    @pytest.mark.parametrize("value", [4.0, "4", None, np.float64(4.0)], ids=repr)
    @pytest.mark.parametrize("field", ["n_pairs", "n_batches", "seed", "stream", "start"])
    def test_non_integers_rejected(self, field, value):
        keys = {"n_pairs": 4, "n_batches": 1, "seed": 5, "stream": 0, "start": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a"):
            sample_batches(UNIFORM, noise=NOISELESS, **keys)

    @pytest.mark.parametrize("noise", [0.1, 0.0, None, "0.1"], ids=repr)
    def test_noise_must_be_a_noise_model(self, noise, monkeypatch):
        # checked before any word is drawn
        monkeypatch.setattr("nsbox.macro._chunk_words", None)
        with pytest.raises(ValueError, match=f"^noise must be a NoiseModel, got {noise!r}$"):
            sample_batches(UNIFORM, 4, 3, noise, 1)


# ---------------------------------------------------------------------------
# Determinism contract: golden values and the reference kernel
# ---------------------------------------------------------------------------

#: All eight cells carry distinct, non-dyadic mass.
GOLDEN_COUPLING = TripleCoupling(A, [0.05, 0.2, 0.1, 0.15, 0.125, 0.075, 0.17, 0.13])

#: Batches on both sides of the first chunk boundary, recorded with the
#: searchsorted kernel that `reference_sample_batches` keeps.
GOLDEN = {
    # (seed, stream, batch index, N, sigma): (A, B, B', noisy B, noisy B')
    (2024, 0, 4095, 1, 0.0): (1, -1, 1, -1, 1),
    (2024, 0, 4096, 1, 0.0): (1, 1, -1, 1, -1),
    (2024, 0, 4095, 1, 0.1): (1, -1, 1, -0.95056834930310519, 1.1342260153997326),
    (2024, 0, 4096, 1, 0.1): (1, 1, -1, 0.95366458347348138, -0.94982518409339045),
    (2024, 0, 4095, 16, 0.0): (0.125, -0.25, 0.125, -0.25, 0.125),
    (2024, 0, 4096, 16, 0.0): (-0.25, -0.375, 0.125, -0.375, 0.125),
    (2024, 0, 4095, 16, 0.1): (0.125, -0.25, 0.125, -0.42333370760681555, 0.086492555484141073),
    (2024, 0, 4096, 16, 0.1): (-0.25, -0.375, 0.125, -0.3606623101789711, 0.048618613535420935),
    (2024, 0, 4095, 1024, 0.0): (-0.0078125, -0.06640625, -0.119140625, -0.06640625, -0.119140625),
    (2024, 0, 4096, 1024, 0.0): (0.017578125, -0.03515625, -0.130859375, -0.03515625, -0.130859375),
    (2024, 0, 4095, 1024, 0.1): (-0.0078125, -0.06640625, -0.119140625, -0.062716417712509062, -0.18006284136200493),
    (2024, 0, 4096, 1024, 0.1): (0.017578125, -0.03515625, -0.130859375, -0.12600945950521564, -0.24182059867110564),
    (7, 1, 4095, 1, 0.0): (1, 1, -1, 1, -1),
    (7, 1, 4096, 1, 0.0): (-1, -1, 1, -1, 1),
    (7, 1, 4095, 1, 0.1): (1, 1, -1, 1.0663345376167908, -1.1311381027101644),
    (7, 1, 4096, 1, 0.1): (-1, -1, 1, -0.84043086570006853, 0.81018721004262917),
    (7, 1, 4095, 16, 0.0): (0, -0.375, -0.375, -0.375, -0.375),
    (7, 1, 4096, 16, 0.0): (0.125, -0.25, -0.25, -0.25, -0.25),
    (7, 1, 4095, 16, 0.1): (0, -0.375, -0.375, -0.2850132505048229, -0.22529537292641541),
    (7, 1, 4096, 16, 0.1): (0.125, -0.25, -0.25, -0.26614122977054555, -0.13629783164939557),
    (7, 1, 4095, 1024, 0.0): (-0.001953125, -0.1171875, -0.08984375, -0.1171875, -0.08984375),
    (7, 1, 4096, 1024, 0.0): (0.02734375, -0.15234375, -0.146484375, -0.15234375, -0.146484375),
    (7, 1, 4095, 1024, 0.1): (-0.001953125, -0.1171875, -0.08984375, -0.14996672846268605, -0.20785922959204844),
    (7, 1, 4096, 1024, 0.1): (0.02734375, -0.15234375, -0.146484375, -0.20204127852559489, -0.12957813099343427),
}


def _chunk_uniforms(seed, stream, chunk_index, n_cols) -> np.ndarray:
    """The chunk's uniforms from `Generator.random`, independently of the
    sampler's word path."""
    bit_generator = np.random.Philox(key=_chunk_key(seed, stream, chunk_index))
    return np.random.Generator(bit_generator).random(CHUNK * n_cols).reshape(CHUNK, n_cols)


def reference_sample_batches(
    coupling, n_pairs, n_batches, noise, seed, stream=0, start=0
) -> BatchArrays:
    """The original kernel: searchsorted cells, then the mean of the +/-1
    values per cell.  `sample_batches` must match it bit for bit."""
    cdf = np.cumsum(coupling.flat)
    n_cols = n_pairs + 2
    out = {name: np.empty(n_batches) for name in ("a", "b", "bp", "nb", "nbp")}
    filled = 0
    index = start
    while filled < n_batches:
        chunk_index, offset = divmod(index, CHUNK)
        take = min(CHUNK - offset, n_batches - filled)
        u = _chunk_uniforms(seed, stream, chunk_index, n_cols)[offset : offset + take]
        cells = np.minimum(np.searchsorted(cdf, u[:, :n_pairs], side="right"), 7)
        rows = slice(filled, filled + take)
        out["a"][rows] = I_VALUES[cells].mean(axis=1)
        out["b"][rows] = J_VALUES[cells].mean(axis=1)
        out["bp"][rows] = JP_VALUES[cells].mean(axis=1)
        if noise.sigma > 0:
            z = ndtri(np.clip(u[:, n_pairs:], 1e-300, None))
            out["nb"][rows] = out["b"][rows] + noise.sigma * z[:, 0]
            out["nbp"][rows] = out["bp"][rows] + noise.sigma * z[:, 1]
        else:
            out["nb"][rows] = out["b"][rows]
            out["nbp"][rows] = out["bp"][rows]
        filled += take
        index += take
    return BatchArrays(out["a"], out["b"], out["bp"], out["nb"], out["nbp"])


def normalised(weights) -> list[float]:
    return (np.array(weights, dtype=float) / sum(weights)).tolist()


def assert_bit_identical(got: BatchArrays, want: BatchArrays) -> None:
    for name in ("a_mean", "b_mean", "bp_mean", "noisy_b", "noisy_bp"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestDeterminismContract:
    @pytest.mark.parametrize("point", sorted(GOLDEN), ids=str)
    def test_golden_values(self, point):
        seed, stream, index, n_pairs, sigma = point
        arrays = sample_batches(
            GOLDEN_COUPLING, n_pairs, 1, NoiseModel(sigma), seed, stream=stream, start=index
        )
        assert first_row(arrays) == GOLDEN[point]

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0), st.integers(1, 1000)), min_size=8, max_size=8
        ).filter(any),
        n_pairs=st.integers(1, 40),
        start=st.integers(0, 2 * CHUNK),
        n_batches=st.integers(0, 40),
        sigma=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_reference_kernel(self, weights, n_pairs, start, n_batches, sigma, seed):
        pmf = np.array(weights, dtype=float) / sum(weights)
        coupling = TripleCoupling(A, pmf)
        args = (coupling, n_pairs, n_batches, NoiseModel(sigma), seed)
        assert_bit_identical(
            sample_batches(*args, stream=1, start=start),
            reference_sample_batches(*args, stream=1, start=start),
        )

    @pytest.mark.parametrize(
        "pmf, cdf_property",
        [
            # cells 0 and 1 are empty: bounds at exactly 0, repeated
            (normalised([0, 0, 3, 1, 0, 2, 0, 2]), lambda cdf: cdf[0] == cdf[1] == 0.0),
            # a run of empty cells repeats one interior bound four times
            (normalised([5, 0, 0, 0, 0, 3, 1, 1]), lambda cdf: cdf[0] == cdf[4] < 1.0),
            # the last cell is empty: cdf[6] is exactly 1
            (normalised([1, 1, 1, 1, 0, 0, 0, 0]), lambda cdf: cdf[3] == cdf[6] == 1.0),
            # rounding overshoots: cdf[6] > 1 with the last cell empty
            (normalised([58, 39, 97, 97, 1, 62, 80, 0]), lambda cdf: cdf[6] > 1.0),
            # rounding falls short: cdf[6] < 1, the rest goes to cell 7
            ([0.7, 0.1, 0.1, 0.1, 0, 0, 0, 0], lambda cdf: cdf[6] < 1.0),
            # a deficit of 5e-10, inside CORR_TOL, with cell 7 itself empty
            ([0.2, 0.2, 0, 0.2, 0, 0, 0.4 - 5e-10, 0], lambda cdf: cdf[6] < 1.0 - 1e-10),
        ],
        ids=["zero-bounds", "repeated", "cdf6-is-one", "overshoot", "rounding-deficit", "deficit"],
    )
    # N = 7, 8 and 9 leave 1, 0 and 7 bytes of padding after each row's pair flags
    @pytest.mark.parametrize("n_pairs", [1, 7, 8, 9, 16, 300, 1023])
    def test_edge_bounds_match_reference_kernel(self, pmf, cdf_property, n_pairs):
        assert cdf_property(np.cumsum(pmf)[:7])
        coupling = TripleCoupling(A, pmf)
        for sigma in (0.0, 0.1):
            args = (coupling, n_pairs, 300, NoiseModel(sigma), 2**63 + 3)
            assert_bit_identical(
                sample_batches(*args, stream=1, start=4000),
                reference_sample_batches(*args, stream=1, start=4000),
            )

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("n_pairs", [1, 2, 16, 1023])
    @pytest.mark.parametrize("start", [1, 3, 4095, 4097])
    def test_partial_chunks_match_reference_kernel(self, start, n_pairs, sigma):
        # draws that start inside a chunk skip its leading rows, or end early
        for n_batches in (1, 2):
            args = (GOLDEN_COUPLING, n_pairs, n_batches, NoiseModel(sigma), 2**62 + 5)
            assert_bit_identical(
                sample_batches(*args, stream=1, start=start),
                reference_sample_batches(*args, stream=1, start=start),
            )

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("start", [0, 4000])
    @pytest.mark.parametrize("n_pairs", [256, 1024])
    def test_parallel_draws_match_reference_kernel(self, n_pairs, start, sigma):
        # three chunks, cut into units, large enough for the thread pool
        n_batches = 2 * CHUNK + 1
        assert n_batches * (n_pairs + 2) >= nsbox.macro._PARALLEL_UNIFORMS
        args = (GOLDEN_COUPLING, n_pairs, n_batches, NoiseModel(sigma), 2**62 + 5)
        assert_bit_identical(
            sample_batches(*args, stream=1, start=start),
            reference_sample_batches(*args, stream=1, start=start),
        )

    def test_golden_value_in_fresh_interpreter(self):
        """A fresh process draws a noisy batch without loading any scipy module."""
        point = (7, 1, 4095, 1024, 0.1)
        seed, stream, index, n_pairs, sigma = point
        code = "\n".join([
            "import json, sys",
            "import numpy as np",
            "from nsbox.boxes import A",
            "from nsbox.coupling import TripleCoupling",
            "from nsbox.macro import NoiseModel, sample_batches",
            "assert not any(m.startswith('scipy') for m in sys.modules)",
            f"pmf = np.array({GOLDEN_COUPLING.flat.tolist()})",
            f"arrays = sample_batches(TripleCoupling(A, pmf), {n_pairs}, 1, NoiseModel({sigma}),"
            f" {seed}, stream={stream}, start={index})",
            "assert not any(m.startswith('scipy') for m in sys.modules)",
            "print(json.dumps([float(arrays.noisy_b[0]), float(arrays.noisy_bp[0])]))",
        ])
        src = str(Path(nsbox.macro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert json.loads(result.stdout) == list(GOLDEN[point][3:])

    def test_small_draw_starts_no_thread_in_fresh_interpreter(self):
        """The README draw stays on the calling thread; a large draw's pool
        is closed when the draw returns."""
        code = "\n".join([
            "import json, os, sys, threading",
            "import nsbox",
            "from nsbox.macro import sample_batches",
            "k_a, k_ap = nsbox.make_scalar_extremal_couplings(1.0)",
            "cfg = nsbox.ProtocolConfig(n_pairs=16, repetitions=20_000, noise=nsbox.NoiseModel(0.1))",
            "nsbox.run_protocol(k_a, k_ap, cfg, seed=7)",
            "small = ['concurrent.futures.thread' in sys.modules, threading.active_count()]",
            "sample_batches(k_a, 256, 8192, nsbox.NoiseModel(0.1), 7)",
            "large = ['concurrent.futures.thread' in sys.modules, threading.active_count()]",
            "print(json.dumps([small, large, len(os.sched_getaffinity(0))]))",
        ])
        src = str(Path(nsbox.macro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        small, large, cores = json.loads(result.stdout)
        assert small == [False, 1]
        assert large == [cores > 1, 1]

    @pytest.mark.parametrize(
        "pmf", [[0.5, 0, 0, 0, 0, 0, 0, 0], [0.2, 0.2, 0, 0.2, 0, 0, 0.1, 0], [0.3] * 4 + [0] * 4]
    )
    def test_rejects_mass_deficit(self, pmf):
        # a real deficit (or excess) would pile the missing mass onto cell 7
        coupling = TripleCoupling(A, pmf)
        with pytest.raises(ValueError, match="must sum to 1") as error:
            sample_batches(coupling, 16, 300, NOISELESS, seed=4)
        assert repr(float(coupling.flat.sum())) in str(error.value)

    def test_rejects_negative_mass(self):
        pmf = np.array([0.3, -0.05, 0.25, 0.0, 0.0, 0.25, 0.0, 0.25])
        with pytest.raises(ValueError, match="nonnegative"):
            sample_batches(TripleCoupling(A, pmf), 4, 10, NOISELESS, seed=1)

    def test_rejects_non_finite_mass(self):
        # TripleCoupling refuses NaN, so plant one behind its back
        coupling = TripleCoupling(A, np.full(8, 0.125))
        object.__setattr__(coupling, "cells", (math.nan,) * 8)
        with pytest.raises(ValueError, match="finite"):
            sample_batches(coupling, 4, 10, NOISELESS, seed=1)


WORD_MAX = 2**64 - 1


def uniform_of(word: int) -> float:
    """The uniform `Generator.random` makes of a 64-bit Philox word."""
    return (word >> 11) * 2.0**-53


class TestWordLimit:
    """`_word_limit(bound)` splits the words: w <= limit exactly when w's
    uniform is below the bound."""

    @settings(max_examples=1000, deadline=None)
    @given(bound=st.floats(0.0, 1.0 + 1e-9))
    @example(bound=0.0)
    @example(bound=5e-324)
    @example(bound=2.0**-53)
    @example(bound=math.nextafter(2.0**-53, 1.0))
    @example(bound=1.0 - 2.0**-53)
    @example(bound=1.0)
    @example(bound=math.nextafter(1.0, 2.0))
    def test_words_at_and_around_the_limit(self, bound):
        limit = _word_limit(bound)
        if limit is None:
            assert not uniform_of(0) < bound
            return
        top = int(limit)
        words = [w for w in (top - 1, top, top + 1) if 0 <= w <= WORD_MAX]
        assert [uniform_of(w) < bound for w in words] == [w <= top for w in words]
        # the sampler's comparison, on uint64 words
        hits = np.less_equal(np.array(words, dtype=np.uint64), limit)
        assert hits.tolist() == [w <= top for w in words]

    @pytest.mark.parametrize("bound, limit", [
        (0.0, None),
        (5e-324, 2**11 - 1),  # a subnormal: only the uniform 0 is below it
        (1.0 - 2.0**-53, WORD_MAX - 2**11),  # every uniform but the largest
        (1.0, WORD_MAX),
        (math.nextafter(1.0, 2.0), WORD_MAX),
    ], ids=repr)
    def test_edge_limits(self, bound, limit):
        assert _word_limit(bound) == limit


#: (N, batches, sigma, seed, stream) of draws large enough for the thread pool
LARGE_DRAWS = [(1024, 2 * CHUNK, 0.1, 11, 0), (256, 3 * CHUNK, 0.0, 12, 1)]


def up(y: float) -> float:
    return math.nextafter(y, 1.0)


def down(y: float) -> float:
    return math.nextafter(y, 0.0)


def assert_ndtri_bits(y: np.ndarray) -> None:
    """The port's quantiles are scipy's, bit for bit (-0.0 and 0.0 differ)."""
    got, want = _ndtri(y), ndtri(y)
    mismatch = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not mismatch.size, [(y.flat[k], got.flat[k], want.flat[k]) for k in mismatch[:5]]


EXP_M2 = math.exp(-2.0)
EXP_M32 = math.exp(-32.0)


def p2_switch() -> float:
    """The largest y whose tail coordinate sqrt(-2 log y) rounds to at least
    8, a few ulps above exp(-32): the last input of ndtri's far-tail fit."""
    y = EXP_M32
    while math.sqrt(-2.0 * math.log(up(y))) >= 8.0:
        y = up(y)
    return y


P2_SWITCH = p2_switch()


class TestNormalQuantile:
    """`_ndtri` against scipy.special.ndtri, which only the tests import."""

    @settings(max_examples=2000, deadline=None)
    @given(y=st.floats(1e-300, 1.0, exclude_max=True))
    @example(y=1e-300)
    @example(y=2.0**-53)
    @example(y=down(EXP_M32))
    @example(y=EXP_M32)
    @example(y=up(EXP_M32))
    @example(y=P2_SWITCH)
    @example(y=up(P2_SWITCH))
    @example(y=down(EXP_M2))
    @example(y=EXP_M2)
    @example(y=up(EXP_M2))
    @example(y=down(1.0 - EXP_M2))
    @example(y=1.0 - EXP_M2)
    @example(y=up(1.0 - EXP_M2))
    @example(y=0.5)
    @example(y=1.0 - 2.0**-53)
    def test_matches_scipy(self, y):
        assert_ndtri_bits(np.array([y]))

    def test_philox_sweep_matches_scipy(self):
        # the noise uniforms as sample_batches clips them
        u = np.random.Generator(np.random.Philox(key=[7, 2**32])).random((500_000, 2))
        assert_ndtri_bits(np.clip(u, 1e-300, None))


def draw_large(n_pairs, n_batches, sigma, seed, stream) -> list[bytes]:
    arrays = sample_batches(
        GOLDEN_COUPLING, n_pairs, n_batches, NoiseModel(sigma), seed, stream=stream
    )
    return [getattr(arrays, name).tobytes() for name in COLUMNS]


def draw_in_child(connection, draw) -> None:
    connection.send(draw_large(*draw))
    connection.close()


class TestConcurrency:
    @pytest.fixture
    def serial(self, monkeypatch):
        """LARGE_DRAWS on the calling thread: the pool threshold is out of reach."""
        with monkeypatch.context() as patch:
            patch.setattr(nsbox.macro, "_PARALLEL_UNIFORMS", math.inf)
            return [draw_large(*draw) for draw in LARGE_DRAWS]

    def test_user_threads_draw_at_once(self, serial):
        barrier = threading.Barrier(len(LARGE_DRAWS))
        results = [None] * len(LARGE_DRAWS)

        def run(k):
            barrier.wait()
            results[k] = draw_large(*LARGE_DRAWS[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(LARGE_DRAWS))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_draws_after_parallel_draw(self, serial):
        # a pool that outlived the parent's draw would leave the child waiting on dead threads
        assert draw_large(*LARGE_DRAWS[0]) == serial[0]
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=draw_in_child, args=(send, LARGE_DRAWS[0]))
        child.start()
        send.close()
        try:
            got = receive.recv() if receive.poll(60) else None
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == serial[0]
        assert child.exitcode == 0


class TestParallelogram:
    def test_examples(self):
        assert parallelogram_residuals(np.array([1.0]), np.array([-1.0]))[0] == 0.0
        assert abs(parallelogram_residuals(np.array([0.3]), np.array([0.7]))[0]) <= 1e-12

    @given(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    )
    def test_pointwise_identity(self, b, bp):
        assert abs(parallelogram_residuals(np.array([b]), np.array([bp]))[0]) <= 1e-12

    def test_vectorized_form(self):
        rng = np.random.default_rng(0)
        b, bp = rng.uniform(-1, 1, (2, 10000))
        assert np.max(np.abs(parallelogram_residuals(b, bp))) <= 1e-12


class TestMeanSquare:
    def test_pr_coupling(self):
        arrays = sample_batches(PR_A, 10, 20000, NOISELESS, seed=100)
        report = mean_square_check(arrays, 10)
        assert abs(report.z_b2) <= 5
        assert abs(report.z_bp2) <= 5

    def test_uncorrelated_coupling(self):
        arrays = sample_batches(UNIFORM, 10, 20000, NOISELESS, seed=101)
        report = mean_square_check(arrays, 10)
        assert abs(report.z_b2) <= 5

    def test_single_pair_is_exact(self):
        arrays = sample_batches(UNIFORM, 1, 200, NOISELESS, seed=5)
        report = mean_square_check(arrays, 1)
        assert report.estimate_b2 == 1.0
        assert report.z_b2 == 0.0

    def test_too_few_samples(self):
        arrays = sample_batches(UNIFORM, 4, 99, NOISELESS, seed=5)
        with pytest.raises(ValueError):
            mean_square_check(arrays, 4)


class TestEmpirical:
    def test_pr_sum_variance_matches_binomial(self):
        # under the C=1 coupling B + B' = 2A, so Var = 4/N
        arrays = sample_batches(PR_A, 25, 100_000, NOISELESS, seed=77)
        total = arrays.b_mean + arrays.bp_mean
        m2 = np.mean((total - total.mean()) ** 2)
        m4 = np.mean((total - total.mean()) ** 4)
        se = math.sqrt((m4 - m2**2) / len(total))
        assert abs(np.var(total, ddof=1) - 4 / 25) <= 5 * se

    def test_pr_anticorrelated_sum_vanishes(self):
        # under a' the C=1 coupling forces b = -b', so B + B' is identically 0
        arrays = sample_batches(PR_AP, 25, 5000, NOISELESS, seed=78, stream=1)
        assert np.all(arrays.b_mean + arrays.bp_mean == 0.0)


def reference_write_batches_csv(stream, arms, n_pairs, seed):
    """The batch dump through csv.writer, one formatted row at a time."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BATCH_CSV_HEADER.split(","))
    for setting, arrays in arms:
        label = {A: "always_a", A_PRIME: "always_aprime"}[setting]
        columns = (arrays.a_mean, arrays.b_mean, arrays.bp_mean, arrays.noisy_b, arrays.noisy_bp)
        for index, means in enumerate(zip(*(column.tolist() for column in columns))):
            writer.writerow([index, label, n_pairs, *(f"{m:.17g}" for m in means), seed])


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1 - 2**-53, -1.0, 1.0]


class TestCsvDump:
    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.integers(0, 12).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_subnormal=True)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=5,
                max_size=5,
            )
        ),
        setting=st.sampled_from(AliceSetting),
        n_pairs=st.one_of(st.just(1), st.integers(1, 10**6)),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    )
    def test_bytes_match_csv_writer(self, columns, setting, n_pairs, seed):
        arrays = BatchArrays(*(np.array(column, dtype=float) for column in columns))
        got, want = io.StringIO(), io.StringIO()
        write_batches_csv(got, [(setting, arrays)], n_pairs, seed)
        reference_write_batches_csv(want, [(setting, arrays)], n_pairs, seed)
        assert got.getvalue() == want.getvalue()

    def test_signed_zeros_of_one_column_keep_their_signs(self):
        """The means are formatted once per bit pattern, and 0.0 == -0.0 are
        two patterns: each row keeps its own "0" or "-0"."""
        zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.5, -0.0])
        arrays = BatchArrays(zeros, -zeros, zeros[::-1].copy(), zeros, -zeros)
        got, want = io.StringIO(), io.StringIO()
        write_batches_csv(got, [(A, arrays)], 2, 3)
        reference_write_batches_csv(want, [(A, arrays)], 2, 3)
        assert got.getvalue() == want.getvalue()
        assert [line.split(",")[3] for line in got.getvalue().splitlines()[1:]] == [
            "0", "-0", "-0", "0", "0.5", "-0"
        ]

    @pytest.mark.parametrize("n_batches", [0, 1, 5, 6, 7])
    def test_arms_in_slices_match_csv_writer(self, n_batches, monkeypatch):
        # one header, then each arm in order, its rows written 3 at a time
        monkeypatch.setattr(nsbox.macro, "_CSV_SLICE", 3)
        arms = [
            (setting, sample_batches(UNIFORM, 5, n_batches, NoiseModel(0.1), 9, stream=stream))
            for stream, setting in enumerate(ARMS)
        ]
        got, want = io.StringIO(), io.StringIO()
        write_batches_csv(got, arms, 5, 9)
        reference_write_batches_csv(want, arms, 5, 9)
        assert got.getvalue() == want.getvalue()

    def test_layout_and_precision(self):
        arrays = sample_batches(UNIFORM, 3, 4, NoiseModel(0.25), seed=8)
        buffer = io.StringIO()
        write_batches_csv(buffer, [(A, arrays)], 3, 8)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "always_a"
        assert first[2] == "3"
        assert first[8] == "8"
        # 17 significant digits round-trip exactly
        assert float(first[6]) == arrays.noisy_b[0]
