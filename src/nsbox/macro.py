"""Batch sampling and macroscopic observables.

A batch draws N i.i.d. triples (i, j, j') from one coupling and averages
them into A, B, B'.  Bob's weak measurement is modeled as independent
additive Gaussian noise on B and B' (the batch means, not the pairs).

Randomness is counter-based: batch b of stream s under seed k reads its
64-bit words from a fixed window of the Philox stream keyed
(k, s, b // 4096), so any execution order, serial or parallel, reproduces
the same values.  Word w stands for the uniform (w >> 11) * 2**-53 that
`Generator.random` makes of it, and a pair's cell is counted on the word
itself, against one integer limit per cdf bound.  A draw is cut into
cache-sized units of rows; each unit reads its own window, counts its
cells and writes its own rows, and large draws spread the units over the
available cores with the same bits on any core count.
The read-out noise is the normal quantile of each batch's two noise
uniforms, taken once per draw by a numpy port of the cephes `ndtri` that
scipy runs, bit for bit, so no draw imports scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .boxes import (
    _MAX_SEED, _MAX_SIGMA, A, A_PRIME, AliceSetting, _checked_instance, _checked_int, _checked_real,
)
from .coupling import CORR_TOL, I_VALUES, J_VALUES, JP_VALUES, TripleCoupling
from .records import csv_rows

CHUNK = 4096
#: A unit of a draw holds at most this many 64-bit words: 2 MB, cache-sized.
_UNIT_UNIFORMS = 2**18
#: Draws of fewer words than this stay on the calling thread.
_PARALLEL_UNIFORMS = 2**20
#: Row r turns a batch's pair counts in cells 0..k (k < 7) into its count of
#: +1 outcomes of i, j, j' (r = 0, 1, 2): cell k's +1 marks minus cell k+1's.
#: All N pairs add nothing, as cell 7 is (-, -, -).
_PLUS_ONE_STEPS = -np.diff((np.stack([I_VALUES, J_VALUES, JP_VALUES]) > 0).astype(np.int64))


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviation, at most `_MAX_SIGMA`, of the Gaussian read-out noise on B and B'."""

    sigma: float = 0.0

    def __post_init__(self) -> None:
        sigma = _checked_real(self.sigma, "sigma", f"a real in [0, {_MAX_SIGMA:g}]", 0.0,
                              _MAX_SIGMA)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class BatchArrays:
    """Column view of many batches; rows align across all five arrays."""

    a_mean: np.ndarray
    b_mean: np.ndarray
    bp_mean: np.ndarray
    noisy_b: np.ndarray
    noisy_bp: np.ndarray

    def __len__(self) -> int:
        return len(self.a_mean)


def _chunk_key(seed: int, stream: int, chunk_index: int) -> list[int]:
    if chunk_index >= 2**32:
        raise ValueError("batch index out of range for the stream layout")
    return [seed, (stream << 32) | chunk_index]


def _chunk_words(
    seed: int, stream: int, chunk_index: int, n_cols: int, offset: int, rows: int
) -> np.ndarray:
    """The 64-bit Philox words of rows offset..offset+rows-1 of the chunk,
    skipping 4-word Philox blocks whole.  `Generator.random` would turn
    word w into the uniform (w >> 11) * 2**-53."""
    bit_generator = np.random.Philox(key=_chunk_key(seed, stream, chunk_index))
    blocks, rest = divmod(offset * n_cols, 4)
    bit_generator.advance(blocks)
    return bit_generator.random_raw(rest + rows * n_cols)[rest:].reshape(rows, n_cols)


def _word_limit(bound: float) -> np.uint64 | None:
    """The largest word w whose uniform (w >> 11) * 2**-53 is below `bound`,
    or None when no uniform is: u < bound holds exactly when w >> 11 is below
    ceil(bound * 2**53), the top 53 bits being the uniform's integer numerator."""
    if bound <= 0.0:
        return None
    return np.uint64((min(math.ceil(bound * 2**53), 2**53) << 11) - 1)


def _units(start: int, n_batches: int, n_cols: int):
    """(first output row, chunk index, row offset, rows) of each unit of a draw."""
    max_rows = max(1, _UNIT_UNIFORMS // n_cols)
    filled = 0
    while filled < n_batches:
        chunk_index, offset = divmod(start + filled, CHUNK)
        take = min(CHUNK - offset, n_batches - filled, max_rows)
        yield filled, chunk_index, offset, take
        filled += take


# ---------------------------------------------------------------------------
# Normal quantile: the cephes ndtri algorithm, evaluated in its own order
# ---------------------------------------------------------------------------

_EXP_M2 = 0.13533528323661269189  # exp(-2): the centre/tail split
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
#: Rational fit for the centre, |y - 1/2| <= 1/2 - exp(-2).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
#: Rational fits in z = 1/x for the tails, x = sqrt(-2 log y) in [2, 8) ...
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
#: ... and x >= 8, that is y <= exp(-32).
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs: Sequence[float], monic: bool = False) -> np.ndarray:
    """Horner steps a = a*x + c from the leading coefficient; a monic
    polynomial (leading 1 left out of `coefs`) starts at x + coefs[0]."""
    a = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        a *= x
        a += c
    return a


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log, element by element: np.log's SIMD loop rounds
    some values differently."""
    return np.array(list(map(math.log, x.tolist())), dtype=float)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each y0 in (0, 1), bit for bit
    scipy.special.ndtri (cephes): the centre fit in y0 - 1/2 between
    exp(-2) and 1 - exp(-2); outside it, the tail fits in z = 1/x,
    x = sqrt(-2 log y), with y the smaller of y0 and 1 - y0."""
    out = np.empty_like(y0)
    flip = y0 > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y0, y0)
    centre = y > _EXP_M2
    tail = ~centre
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _S2PI
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    for part, p, q in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
        zp = z[part]
        x1[part] = zp * _polevl(zp, p) / _polevl(zp, q, monic=True)
    x = x0 - x1
    out[tail] = np.where(flip[tail], x, -x)
    return out


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

def _fill_unit(out, noise_u, limits, slot, n_pairs, seed, stream, unit) -> None:
    """Draw one unit's words and write its rows of `out`, and its rows of
    noise uniforms to `noise_u` unless that is None."""
    first, chunk_index, offset, take = unit
    words = _chunk_words(seed, stream, chunk_index, n_pairs + 2, offset, take)
    # one hit flag per pair, zero-padded to whole 8-byte words for the popcount
    hits = np.zeros((take, -(-n_pairs // 8) * 8), dtype=bool)
    below = np.zeros((len(limits), take), dtype=np.int64)
    for count, limit in zip(below, limits):
        if limit is not None:
            np.less_equal(words[:, :n_pairs], limit, out=hits[:, :n_pairs])
            np.bitwise_count(hits.view(np.uint64)).sum(axis=1, out=count)
    # pairs per batch in cells 0..k (the cdf is nondecreasing)
    at_most = below[slot]
    # a +/-1 mean is (2n - N) / N exactly, as the summed mean was
    a, b, bp = (2 * (_PLUS_ONE_STEPS @ at_most) - n_pairs) / n_pairs
    rows = slice(first, first + take)
    out.a_mean[rows], out.b_mean[rows], out.bp_mean[rows] = a, b, bp
    out.noisy_b[rows], out.noisy_bp[rows] = b, bp
    if noise_u is not None:
        noise_u[rows] = (words[:, n_pairs:] >> np.uint64(11)) * 2.0**-53


def sample_batches(
    coupling: TripleCoupling,
    n_pairs: int,
    n_batches: int,
    noise: NoiseModel,
    seed: int,
    stream: int = 0,
    start: int = 0,
) -> BatchArrays:
    """Draw many batches from one coupling; batch index fixes its randomness.

    Batches start..start+n_batches-1 of the given stream are returned, each a
    pure function of (seed, stream, index, coupling, n_pairs, sigma).  The
    draw is cut into units of rows within one chunk, at most `_UNIT_UNIFORMS`
    Philox words each, and a unit's cells are counted while its words are in
    cache: one pass per distinct cdf bound compares the raw words with the
    bound's integer limit (`_word_limit`), which decides exactly as comparing
    their uniforms with the bound would, and popcounts each row's hits.
    Draws of at least `_PARALLEL_UNIFORMS` words spread their units over the
    available cores.
    Each unit writes only its own rows, so the outputs are bit for bit those
    of assigning each pair its cell, on any number of cores.  With sigma > 0
    the units keep each batch's two noise uniforms, and their normal
    quantiles (`_ndtri`, bit for bit scipy's) are taken once, after the
    units: the tail's C-library logs hold the GIL.  A pmf that is
    negative, not finite or off 1 by more than `CORR_TOL` is rejected, and
    so are a stream outside [0, 2**32) and a negative start.
    """
    n_pairs = _checked_int(n_pairs, "n_pairs", "a positive integer", 1)
    n_batches = _checked_int(n_batches, "n_batches", "a nonnegative integer", 0)
    seed = _checked_int(seed, "seed", "a 64-bit unsigned integer", 0, _MAX_SEED)
    # the key word packs (stream << 32) | chunk: other values alias another stream
    stream = _checked_int(stream, "stream", "a 32-bit unsigned integer", 0, 2**32)
    start = _checked_int(start, "start", "a nonnegative integer", 0)
    _checked_instance(noise, "noise", NoiseModel)
    pmf = coupling.flat
    if not (np.all(np.isfinite(pmf)) and np.all(pmf >= 0)):
        raise ValueError(f"coupling pmf must be finite and nonnegative, got {pmf.tolist()}")
    total = float(pmf.sum())
    if abs(total - 1.0) > CORR_TOL:
        raise ValueError(f"coupling pmf must sum to 1 within {CORR_TOL}, got {total!r}")
    # cdf[k] bounds cell k; pairs past cdf[6] (a rounding-level deficit) land
    # in cell 7.  Zero-mass cells repeat a bound, which is compared only once.
    bounds, slot = np.unique(np.cumsum(pmf)[:7], return_inverse=True)
    limits = [_word_limit(bound) for bound in bounds.tolist()]
    out = BatchArrays(*(np.empty(n_batches) for _ in range(5)))
    noise_u = np.empty((n_batches, 2)) if noise.sigma > 0 else None
    fill = lambda unit: _fill_unit(out, noise_u, limits, slot, n_pairs, seed, stream, unit)
    units = list(_units(start, n_batches, n_pairs + 2))
    _parallel_map(fill, units, parallel=n_batches * (n_pairs + 2) >= _PARALLEL_UNIFORMS)
    if noise_u is not None:
        z = _ndtri(np.clip(noise_u, 1e-300, None))
        out.noisy_b[:] += noise.sigma * z[:, 0]
        out.noisy_bp[:] += noise.sigma * z[:, 1]
    return out


def _parallel_map(fn, items: list, parallel: bool) -> list:
    """[fn(item) for item in items], on a thread pool of one worker per
    available core (at most one per item) when `parallel` and there is more
    than one core.  The pool lives for this call only, so no thread outlives
    it (a later fork inherits none)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(items), cores or 1) if parallel else 1
    if workers < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # only work that repays it

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def batch_lattice(n_pairs: int) -> np.ndarray:
    """The N+1 possible values (2k - N)/N of a batch mean, ascending in k
    (the count of +1 outcomes), in the same float rounding as the sample
    means (integer sum divided by N)."""
    return np.array([(2 * k - n_pairs) / n_pairs for k in range(n_pairs + 1)])


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

BATCH_CSV_HEADER = "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"
#: The `strategy` field of an arm: Alice's setting on every pair of it.
BATCH_CSV_LABEL = {A: "always_a", A_PRIME: "always_aprime"}
#: Rows of the batch dump formatted per write: about 0.5 MB of text.
_CSV_SLICE = 4096


def _formatted(column: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` of each float of the column, formatted once per bit pattern."""
    bits = np.asarray(column, dtype=np.float64).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(["%.17g" % x for x in patterns.view(np.float64).tolist()], dtype=object)
    return texts[inverse]


def write_batches_csv(
    stream: TextIO,
    arms: Iterable[tuple[AliceSetting, BatchArrays]],
    n_pairs: int,
    seed: int,
) -> None:
    """Batch dump of every (Alice's setting, arrays) arm in order under one
    header.  The `strategy` field labels each row by its arm's setting
    (`BATCH_CSV_LABEL`: always_a, always_aprime), and floating-point fields
    take 17 significant digits.  The noiseless means sit on the lattice, so
    each of their distinct bit patterns is formatted once (-0.0 stays "-0").
    Rows are formatted `_CSV_SLICE` at a time, so the text never sits in
    memory whole."""
    stream.write(BATCH_CSV_HEADER + "\n")
    for setting, arrays in arms:
        index = np.arange(len(arrays))
        means = [_formatted(column) for column in (arrays.a_mean, arrays.b_mean, arrays.bp_mean)]
        columns = (index, *means, arrays.noisy_b, arrays.noisy_bp)
        template = f"%d,{BATCH_CSV_LABEL[setting]},{n_pairs},%s,%s,%s,%.17g,%.17g,{seed}\n"
        for lo in range(0, len(arrays), _CSV_SLICE):
            stream.write(csv_rows(template, [c[lo:lo + _CSV_SLICE].tolist() for c in columns]))
