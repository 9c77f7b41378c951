"""Seeded experiment drivers: sweeps over n, calibration, and power.

Reproducibility contract: every trial draws from the stream of
``default_rng(SeedSequence([master_seed, n_index, trial]))``, so a
sweep's output depends only on its configuration and master seed, never
on the worker count or scheduling order.  A block of trials builds one
generator and sets it to each key's state in turn; the states of the
whole block come from one run of SeedSequence's hash on arrays.
Results come back in (n_index, trial) order.  Trials are not timed: the
CSV's millis column is written as 0, so files stay byte-identical across
reruns, and a sweep reports only its total wall time
(``SweepResult.elapsed_s``).

One keyed trial engine: sweeps, calibration and power all run their
trials through ``_run_trials``.  It runs blocks of consecutive keys that
share (n_index, n).  A block computes the n-constants once (eps, the cell
grid, the box); then each key draws from its own stream
exactly what ``run_trial`` draws, and the drawn samples of many trials go
through one box filter and one count of distinct (trial, cell) pairs,
flushed every ``_BLOCK_SAMPLES`` samples so memory stays bounded.  The
count of a trial does not depend on which other trials share its block,
so any cut into blocks, and any worker count, gives the same records.
A record refers to the run's config and the block's cell grid.  Pools
are capped at the usable CPUs and at one process per block.
Calibration runs the null configuration at keys (seed, 0, t) for
t < T, so its statistics are exactly those of a T-trial null sweep at
the same n; power continues the trial index at (seed, 0, T + t), so the
two sets of trials never share a key.  Power is the mean of the exact
rejection weight: 1 above the threshold, tie_gamma at it, 0 below.

Thinned trials: run_trial generates only the null draws that can pass
the value box (their number is binomial, their values uniform on the
box) plus the planted points: a few draws per cell instead of n.  The
greedy count has the same law as on n full draws.  An oriented draw
makes generate_null_oriented's draws, but reads each chart straight off
the Gaussian basis (grassmann.sample_uniform_charts) instead of from an
orthonormal frame, and assembles the jets with detection.chart_jets, the
assembly of oriented_to_jets; the chart does not depend on the basis.

A block trial makes those draws in the fewest generator calls.  PCG64
turns ``random`` and ``uniform`` into the same stream of doubles, one
64-bit output each, so after the binomial M one ``random(M * per)`` call
takes all of a trial's uniforms in run_trial's order: for jets the value
row, the locations, the value row generate_null_jets draws and
run_trial overwrites (still consumed, or the stream would shift), and
the derivative rows; for oriented draws the value row and z, then the
Gaussian bases in one ``grassmann.sample_uniform_bases`` call.  The
trial keeps views of these arrays.  Every ``_BLOCK_SAMPLES`` samples the
block concatenates them once, scales them by Generator.uniform's own
formula low + (high - low) * u (bitwise the values uniform draws),
reads the charts of all oriented bases in one ``chart_slopes`` call and
drops the chart-singular draws, so its jets equal run_trial's bit for
bit.

Planted points enter the block's count as locations alone, for both
problems: the default alternative is a constant map whose jet lies in
every cell box, so only a planted point's cell decides.  run_trial, the
reference, plants the map's jets and box-filters them.

Cell sizing: sweeps use c2 = 1 + 1e-6 (EXPERIMENT_C2) rather than the
class-certifying construction constant.  The certifying c2 grows like
(c3/beta)^(alpha/(alpha-r)) and at beta ~ 1 it pushes the cell width past
1/2 for every practical n, leaving no grid at all; the exponent of the
statistic does not depend on c2, so the sweeps run at the smallest
admissible scaling and interpolant certification is exercised separately
at small eps.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .detection import (
    FitResult,
    cell_counts,
    chart_jets,
    exponent_rho,
    fit_scaling_exponent,
    generate_null_jets,
    greedy_cell_statistic,
    statistic_eps,
)
from .errors import ParamOrder
from .grassmann import chart_slopes, sample_uniform_bases, sample_uniform_charts
from .holder import CellGrid, GraphLift, HolderParams, JetSamples, cell_grid, constant_function

EXPERIMENT_C2 = 1.0 + 1e-6

CSV_COLUMNS = [
    "trial",
    "problem",
    "k",
    "d",
    "alpha",
    "beta",
    "r0",
    "n",
    "n1",
    "eps",
    "statistic",
    "cells_total",
    "seed",
    "millis",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One seeded experiment description."""

    problem: str  # "jets" | "oriented"
    k: int
    d: int
    alpha: float
    beta: float
    r0: int
    n: int
    n1: int
    seed: int
    trials: int

    def __post_init__(self):
        if self.problem not in ("jets", "oriented"):
            raise ParamOrder(f"unknown problem {self.problem!r}")
        if not 0 <= self.n1 <= self.n:
            raise ParamOrder(f"need 0 <= n1 <= n, got n1={self.n1}, n={self.n}")
        if self.problem == "oriented" and (self.alpha != 2 or self.r0 != 1):
            raise ParamOrder("the oriented problem requires alpha=2, r0=1")
        if self.seed < 0:
            raise ParamOrder("seed must be nonnegative")
        self.params()  # validates k, d, alpha, beta, r0

    def params(self) -> HolderParams:
        return HolderParams(self.k, self.d, self.alpha, self.beta, self.r0)


@dataclass
class RunRecord:
    """One Monte Carlo trial: its n, index and count, with the run's config
    and the cell grid at eps(n), which all trials of the run or the n share.

    ``grid.clamped`` flags trials where eps' exceeded 1/2 and the statistic
    fell back to a single cell; it is not in the CSV schema, and
    ``exponent-sweep`` reports its fraction per n in ``report.txt``.
    """

    config: ExperimentConfig
    n: int
    trial: int
    grid: CellGrid
    statistic: int


def default_alternative(config: ExperimentConfig):
    """Construction-aligned planted signal: the constant map at
    0.75 eps(config.n).

    run_trial builds it at the trial's own n and plants the jets of its
    map (the lift's g for the oriented problem).  Its jets sit inside every
    cell box (value in [eps/2, eps], slopes 0), so planted points fill
    cells and the greedy statistic saturates; an arbitrary class member
    would rarely intersect the boxes and the cell statistic would not
    see it.
    """
    params = config.params()
    eps = statistic_eps(params, config.n)
    g = constant_function(params.k, np.full(params.dim_out, 0.75 * eps))
    if config.problem == "jets":
        return g
    return GraphLift(g, params)


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's LCG
# multiplier: _key_states reproduces default_rng(SeedSequence(entropy)).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _words(value: int) -> list[int]:
    """The little-endian uint32 words of a nonnegative int; 0 is one word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's 8 output words (``generate_state(4, uint64)`` as
    little-endian uint32 pairs) for each column of an (L, m) uint32
    entropy array.  Every column has L >= 4 words: entropy shorter than
    the pool hashes as if padded with zero words up to 4, and no further.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    out = np.empty((2 * _POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out[i] = value ^ (value >> 16)
    return out


# Keys hashed at once: enough to amortize the array hash, few enough that
# a long block does not hold the state dicts of all its keys.
_KEY_CHUNK = 2**10


def _key_states(seed: int, n_index: int, trials: list[int]) -> Iterator[dict]:
    """The PCG64 state of ``default_rng(SeedSequence([seed, n_index, t]))``
    for each trial t in turn, with the SeedSequence hash run on arrays of
    up to ``_KEY_CHUNK`` keys.

    The entropy is the uint32 words of the three ints; keys with different
    word counts hash as separate groups.  PCG64 seeds from the 8 words as
    128-bit (state, increment) and takes one LCG step on each side of
    adding the state: Python ints do the 128-bit arithmetic.
    """
    head = _words(seed) + _words(n_index)
    for start in range(0, len(trials), _KEY_CHUNK):
        chunk = trials[start : start + _KEY_CHUNK]
        groups: dict[int, list[int]] = {}
        for i, trial in enumerate(chunk):
            groups.setdefault(len(_words(trial)), []).append(i)
        states: list[dict | None] = [None] * len(chunk)
        for width, rows in groups.items():
            entropy = np.zeros((max(_POOL_SIZE, len(head) + width), len(rows)), dtype=np.uint32)
            entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
            for w in range(width):
                entropy[len(head) + w] = [chunk[i] >> (32 * w) & _MASK32 for i in rows]
            words = _pool_words(entropy).astype(np.uint64)
            u64 = (words[0::2] | words[1::2] << np.uint64(32)).T.tolist()
            for i, (s_hi, s_lo, i_hi, i_lo) in zip(rows, u64):
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
                state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
                states[i] = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
        yield from states


def _check_n(config: ExperimentConfig, n: int) -> None:
    """The sample-size checks of every trial at n: n >= 1 and n1 <= n."""
    if n < 1:
        raise ParamOrder(f"need n >= 1 (it sets the cell scale), got n={n}")
    if config.n1 > n:
        raise ParamOrder(f"need n1 <= n, got n={n}, n1={config.n1}")


def _trial_constants(config: ExperimentConfig, n: int, c2: float | None):
    """What every trial at sample size n shares: the params and the cell grid."""
    _check_n(config, n)
    params = config.params()
    return params, cell_grid(params, statistic_eps(params, n), c2, clamp=True)


def _trial_samples(
    config: ExperimentConfig, params: HolderParams, n: int, grid: CellGrid, rng
) -> JetSamples:
    """One trial's null draws that can pass the value box (see run_trial)."""
    lo, hi = grid.bounds[0]
    m = int(rng.binomial(n - config.n1, (hi - lo) ** params.dim_out))
    values = rng.uniform(lo, hi, size=(m, params.dim_out))
    if config.problem == "jets":
        samples = generate_null_jets(m, params, rng)
        samples.ys[:, 0, :] = values
        return samples
    # generate_null_oriented's draws, with the charts read off the raw
    # Gaussian bases (sample_uniform_charts)
    z = rng.random((m, config.d))
    z[:, config.k :] = values
    return chart_jets(params, z, *sample_uniform_charts(rng, m, config.k, config.d))


def run_trial(
    config: ExperimentConfig,
    n: int,
    rng: np.random.Generator,
    c2: float = EXPERIMENT_C2,
):
    """One trial at sample size n: the greedy count on n - n1 null draws
    plus n1 points planted on the default alternative at eps(n).

    Only null draws whose value row lands in the box [eps/2, eps]^(d-k)
    can be counted.  The trial therefore draws their number
    M ~ Binomial(n - n1, q), with q = (eps/2)^(d-k) the box's null
    probability (eps(n) <= 1, so the box lies inside [0, 1]), and
    generates only those M: the value row uniform on the box, everything
    else from the null law.  The count has the same law as on n full
    draws.

    The n1 planted points follow the null draws: their locations xs1 carry
    the jets of the alternative's map g for both problems (an oriented
    point on the lift x -> (x, g(x)) reduces to the jet (x, g(x), Dg(x))
    exactly).  The block engine counts them by location alone; this
    reference plants and box-filters their jets.
    """
    params, grid = _trial_constants(config, n, c2)
    null = _trial_samples(config, params, n, grid, rng)
    xs1 = rng.random((config.n1, config.k))
    alternative = default_alternative(replace(config, n=n))
    g = alternative if config.problem == "jets" else alternative.g
    ys1 = g.jet_grid(xs1, params.index_set())
    samples = JetSamples(params, np.concatenate([null.xs, xs1]), np.concatenate([null.ys, ys1]))
    return greedy_cell_statistic(samples, params, n, c2=c2, clamp=True)


# Samples per count in a block of trials: the drawn samples are counted
# and dropped whenever they pass this many, so a block holds at most this
# many plus one trial's, whatever its trial count.
_BLOCK_SAMPLES = 2**12


def _run_block(payload) -> list[RunRecord]:
    """The trials of consecutive keys that share (n_index, n), in key order.

    Every trial draws from its own key's stream exactly what run_trial
    draws, through one generator set to each key's state: the binomial M,
    then all its uniforms in one call, in _trial_samples' order (see the
    module doc), then for oriented draws the Gaussian bases, then the
    planted locations.  Each trial keeps views of its draws; the block
    scales, reduces and counts the draws of many trials at once in
    ``_flush_counts``.
    """
    config, keys, c2 = payload
    n_index, n, _ = keys[0]
    params, grid = _trial_constants(config, n, c2)
    k, d, n1, dim_out = config.k, config.d, config.n1, params.dim_out
    lo, hi = grid.bounds[0]
    oriented = config.problem == "oriented"
    rows = len(params.index_set()) - 1
    # uniforms per draw: the value row, then z (oriented), or x, the value
    # row generate_null_jets draws and _trial_samples overwrites, and the
    # derivative rows (jets)
    per = dim_out + (d if oriented else k + dim_out + rows * dim_out)
    q = (hi - lo) ** dim_out
    counts: list[int] = []
    values, xs, tails, planted, sizes = [], [], [], [], []
    pending = 0
    rng = np.random.Generator(np.random.PCG64())
    states = _key_states(config.seed, n_index, [trial for _, _, trial in keys])
    for i, state in enumerate(states):
        rng.bit_generator.state = state
        m = int(rng.binomial(n - n1, q))
        u = rng.random(m * per)
        values.append(u[: m * dim_out].reshape(m, dim_out))
        if oriented:
            xs.append(u[m * dim_out :].reshape(m, d)[:, :k])
            tails.append(sample_uniform_bases(rng, m, k, d))
        else:
            xs.append(u[m * dim_out : m * (dim_out + k)].reshape(m, k))
            tails.append(u[m * (2 * dim_out + k) :].reshape(m, rows, dim_out))
        sizes.append(m)
        if n1:
            planted.append(rng.random((n1, k)))
        pending += m + n1
        if pending >= _BLOCK_SAMPLES or i == len(keys) - 1:
            counts += _flush_counts(config, grid, values, xs, tails, planted, sizes).tolist()
            values, xs, tails, planted, sizes = [], [], [], [], []
            pending = 0
    return [RunRecord(config, n, trial, grid, count) for (_, _, trial), count in zip(keys, counts)]


def _flush_counts(config, grid, values, xs, tails, planted, sizes) -> np.ndarray:
    """The counts of the trials whose raw draws ``_run_block`` holds.

    Per trial: the M value rows and locations as unit uniforms, the tails
    (derivative rows as unit uniforms for jets, Gaussian bases for
    oriented draws), the planted locations, and M.  Scaling uses
    Generator.uniform's own formula, low + (high - low) * u, so the jets
    equal run_trial's bit for bit; chart-singular oriented draws are
    dropped, as chart_jets drops them.  One box filter and one cell count
    then serve every trial, planted points entering as locations alone.
    """
    lo, hi = grid.bounds[0]
    trials = np.arange(len(sizes))
    owner = np.repeat(trials, sizes)
    value = np.concatenate(values)
    value *= hi - lo
    value += lo
    x = np.concatenate(xs)
    if config.problem == "oriented":
        slopes, ok = chart_slopes(np.concatenate(tails))
        if not ok.all():
            owner, value, x = owner[ok], value[ok], x[ok]
    else:
        slopes = np.concatenate(tails)
        slopes *= config.beta - -config.beta
        slopes += -config.beta
    ys = np.empty((len(x), 1 + slopes.shape[1], value.shape[1]))
    ys[:, 0, :] = value
    ys[:, 1:, :] = slopes
    if planted:
        x = np.concatenate([x, *planted])
        owner = np.concatenate([owner, np.repeat(trials, config.n1)])
    return cell_counts(grid, x, ys, owner, len(sizes))


def _run_trials(
    config: ExperimentConfig, keys, workers: int = 1, c2: float | None = EXPERIMENT_C2
) -> list[RunRecord]:
    """One seeded trial per (n_index, n, trial) key, records in key order.

    The keys run in blocks of consecutive keys that share (n_index, n),
    each n checked before the first trial runs.  ``workers`` is capped
    at the usable CPUs, and a pool gets the blocks cut to about an eighth
    of each worker's share of the keys, with at most one process per
    block; every cut gives the same records.
    """
    if workers < 1:
        raise ParamOrder(f"need workers >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    size = max(1, len(keys) if workers == 1 else len(keys) // (workers * 8))
    blocks = []
    for (_, n), run in itertools.groupby(keys, key=lambda key: key[:2]):
        _check_n(config, n)
        run = list(run)
        blocks += [(config, run[i : i + size], c2) for i in range(0, len(run), size)]
    workers = min(workers, len(blocks))
    if workers > 1:
        # imported on demand, so that a serial run does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [r for records in pool.map(_run_block, blocks) for r in records]
    return [r for block in blocks for r in _run_block(block)]


@dataclass
class SweepResult:
    records: list[RunRecord]
    means: list[tuple[int, float]]
    fit: FitResult | None
    target_rho: float
    elapsed_s: float


def run_sweep(
    config: ExperimentConfig,
    n_grid,
    trials: int | None = None,
    workers: int = 1,
    c2: float | None = EXPERIMENT_C2,
) -> SweepResult:
    """Trials at every n in the grid; per-n mean statistic and slope fit.

    The per-trial seeds depend only on (master seed, n index, trial), so
    any worker count produces identical records.  ``c2=None`` sizes the
    cells with the class-certifying ``construction_c2``.
    """
    n_grid = [int(n) for n in n_grid]
    if trials is None:
        trials = config.trials
    if trials < 1:
        raise ParamOrder("trials must be >= 1")
    keys = [(n_index, n, trial) for n_index, n in enumerate(n_grid) for trial in range(trials)]
    t0 = time.perf_counter()
    records = _run_trials(config, keys, workers, c2)
    elapsed = time.perf_counter() - t0
    stats = np.array([r.statistic for r in records]).reshape(len(n_grid), trials)
    means = [(n, float(row.mean())) for n, row in zip(n_grid, stats)]
    fit = None
    if len({n for n, _ in means}) >= 3 and all(m > 0 for _, m in means):
        fit = fit_scaling_exponent(means)
    target = float(exponent_rho(config.k, config.d, config.alpha, config.r0)[1])
    return SweepResult(records, means, fit, target, elapsed)


def records_to_csv(records) -> str:
    """Deterministic CSV text; the millis column is 0 (see module doc).

    Only the trial and the statistic vary within a run of records that
    share (config, n, grid), so the fields around them are formatted once
    per run.  No field needs quoting: the problem name is a plain word and
    the rest are numbers.
    """
    lines = [",".join(CSV_COLUMNS)]
    shared = None
    for r in records:
        if shared != (r.config, r.n, r.grid):
            shared = (r.config, r.n, r.grid)
            c = r.config
            middle = (f",{c.problem},{c.k},{c.d},{float(c.alpha)!r},{float(c.beta)!r},{c.r0},"
                      f"{r.n},{c.n1},{float(r.grid.eps)!r},")
            suffix = f",{r.grid.cells_total},{c.seed},0"
        lines.append(f"{r.trial}{middle}{r.statistic}{suffix}")
    return "\n".join(lines) + "\n"


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


# ---------------------------------------------------------------------------
# Calibration and power
# ---------------------------------------------------------------------------


@dataclass
class Threshold:
    """Randomized rejection rule: reject when stat > value, and when
    stat == value with probability tie_gamma.

    The statistic is integer-valued, so a deterministic cutoff cannot hit
    an exact level; the randomized rule makes the null rejection rate
    equal the level in expectation.  ``trials`` is the number of
    calibration trials, which power continues after.
    """

    value: float
    tie_gamma: float
    level: float
    trials: int


def null_quantile_threshold(config: ExperimentConfig, level: float, trials: int) -> Threshold:
    """Empirical randomized (1 - level) cutoff of the null statistic.

    The null trials are those of ``run_sweep(null config, [n], trials)``.
    """
    if not 0 < level < 1:
        raise ParamOrder("level must be in (0, 1)")
    if trials < 100:
        raise ParamOrder("need at least 100 calibration trials")
    keys = [(0, config.n, trial) for trial in range(trials)]
    records = _run_trials(replace(config, n1=0), keys)
    stats = np.array([r.statistic for r in records])
    for value in np.sort(np.unique(stats)):
        tail = float(np.mean(stats > value))
        if tail <= level:
            at = float(np.mean(stats == value))
            gamma = 0.0 if at == 0.0 else min(1.0, (level - tail) / at)
            return Threshold(float(value), gamma, level, trials)
    return Threshold(float(stats.max()), 0.0, level, trials)  # pragma: no cover


@dataclass
class PowerEstimate:
    power: float
    stderr: float
    trials: int


def power_estimate(config: ExperimentConfig, threshold: Threshold, trials: int) -> PowerEstimate:
    """Mean rejection weight under the configured alternative.

    The trials continue the key sequence after the threshold's
    calibration trials.  Each weighs 1 above the threshold, tie_gamma at
    it and 0 below; every weight lies in [0, 1], so sqrt(p (1 - p) /
    trials) bounds the standard error of their mean.
    """
    if trials < 1:
        raise ParamOrder("trials must be >= 1")
    first = threshold.trials
    keys = [(0, config.n, trial) for trial in range(first, first + trials)]
    records = _run_trials(config, keys)
    counts = np.array([r.statistic for r in records])
    weights = np.where(counts == threshold.value, threshold.tie_gamma, counts > threshold.value)
    p = float(np.mean(weights))
    return PowerEstimate(p, float(np.sqrt(p * (1 - p) / trials)), trials)
