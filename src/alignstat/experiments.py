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
grid, the box); then each key draws its trial from its own stream, and
the draws of many trials go through one reduction to jets, one box
filter and one count of the even cells each trial occupies, from one
(trial, raw cell) key per counted point (``detection.cell_counts``),
flushed every ``_BLOCK_SAMPLES`` samples so memory stays bounded.  The count of a
trial does not depend on which other trials share its block, so any cut
into blocks, and any worker count, gives the same records.  A record
refers to the run's config and the block's cell grid.  Pools are capped
at the usable CPUs and at one process per block.  Calibration runs the
null configuration at keys (seed, 0, t) for t < T, so its statistics are
exactly those of a T-trial null sweep at the same n; power continues the
trial index at (seed, 0, T + t), so the two sets of trials never share a
key.  Power is the mean of the exact rejection weight: 1 above the
threshold, tie_gamma at it, 0 below.  A call that would hold more than
``RECORD_BUDGET`` records is refused before its first key is built.

Thinned trials: a trial generates only the null draws that can pass the
value box (their number is binomial, their values uniform on the box)
plus the planted points: a few draws per cell instead of n, and the
greedy count has the same law as on n full draws.  ``_null_draws`` is
the one code that reads these draws off a stream, in the fewest
generator calls, and ``_null_jets`` the one that turns them into jets.
run_trial and the block engine share both and differ only in how they
count.  run_trial plants the alternative's jets and box-filters them
with greedy_cell_statistic.  The block plants locations alone and counts
with cell_counts: the default alternative is a constant map whose jet
lies in every cell box, so only a planted point's cell decides.

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
    exponent_rho,
    fit_scaling_exponent,
    generate_null_jets,
    greedy_cell_statistic,
    statistic_eps,
)
from .errors import BudgetExceeded, ParamOrder
from .grassmann import chart_slopes, sample_uniform_bases
from .holder import CellGrid, GraphLift, HolderParams, JetSamples, cell_grid, constant_function

# Nothing here calls generate_null_jets (a jets trial reads its stream in
# one call, see _null_draws), but the name stays imported: the benchmark's
# tracer test patches it in this module (perfbench/test_perfbench.py).
generate_null_jets

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


# Trial records one sweep, calibration or power call may hold: a record,
# its key and its CSV line take about 400 bytes, so 2^20 records stay near
# 400 MB.  A call over it is refused before its first key is built.
RECORD_BUDGET = 2**20


def _check_records(records: int) -> None:
    if records > RECORD_BUDGET:
        raise BudgetExceeded(f"{records} trial records > budget {RECORD_BUDGET}")


# Doubles one trial may draw: its null draws at their expected number and
# its planted locations.  A sample size whose trials need more is refused
# before anything is drawn (2^24 doubles are 128 MiB).
DRAW_BUDGET = 2**24


def _trial_constants(config: ExperimentConfig, n: int, c2: float | None):
    """What every trial at sample size n shares, once n is checked: the
    params, the cell grid, and the unit uniforms one null draw takes.

    The checks: 1 <= n <= 2^63 - 1 (the binomial draw takes its trial
    count as an int64), n1 <= n, and a trial's expected draw within
    ``DRAW_BUDGET`` doubles.
    """
    if n < 1:
        raise ParamOrder(f"need n >= 1 (it sets the cell scale), got n={n}")
    if n > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"n={n} exceeds the int64 range of the binomial draw")
    if config.n1 > n:
        raise ParamOrder(f"need n1 <= n, got n={n}, n1={config.n1}")
    params = config.params()
    grid = cell_grid(params, statistic_eps(params, n), c2, clamp=True)
    k, d, dim_out = config.k, config.d, params.dim_out
    oriented = config.problem == "oriented"
    # the unit uniforms of one draw, in _null_draws' order
    per = dim_out + (d if oriented else k + dim_out * len(params.index_set()))
    lo, hi = grid.bounds[0]
    doubles = (n - config.n1) * (hi - lo) ** dim_out * (per + oriented * d * k) + config.n1 * k
    if doubles > DRAW_BUDGET:
        raise BudgetExceeded(
            f"a trial at n={n} would draw about {doubles:.3g} doubles > budget {DRAW_BUDGET}"
        )
    return params, grid, per


def _null_draws(config, n, params, grid, per, rng, states) -> Iterator[tuple]:
    """Each trial's thinned null draws, raw, with ``rng`` set to each of
    ``states`` in turn: (M, value rows, locations, tails).

    Only a null draw whose value row lands in the box [eps/2, eps]^(d-k)
    can be counted, so a trial draws their number M ~ Binomial(n - n1, q),
    q = (eps/2)^(d-k) the box's null probability (eps(n) <= 1, so the box
    lies inside [0, 1]), and then only those M: the value row uniform on
    the box, everything else from the null law.  PCG64 turns ``random``
    and ``uniform`` into one double each, so one ``random(M * per)`` call
    takes all of a trial's unit uniforms: the value rows, then for oriented
    draws z, whose last d - k columns the value rows replace, or for jets
    the locations, the value rows generate_null_jets draws (consumed and
    never read, or the stream would shift) and the derivative rows.
    Oriented draws then take their Gaussian bases in one
    ``sample_uniform_bases`` call.  The yielded arrays are views of these
    draws.  The caller may draw its planted locations from ``rng`` before
    it asks for the next trial.
    """
    k, d, dim_out = config.k, config.d, params.dim_out
    lo, hi = grid.bounds[0]
    q = (hi - lo) ** dim_out
    rows = len(params.index_set()) - 1
    for state in states:
        rng.bit_generator.state = state
        m = int(rng.binomial(n - config.n1, q))
        u = rng.random(m * per)
        values = u[: m * dim_out].reshape(m, dim_out)
        if config.problem == "oriented":
            x = u[m * dim_out :].reshape(m, d)[:, :k]
            yield m, values, x, sample_uniform_bases(rng, m, k, d)
        else:
            x = u[m * dim_out : m * (dim_out + k)].reshape(m, k)
            yield m, values, x, u[m * (2 * dim_out + k) :].reshape(m, rows, dim_out)


def _null_jets(config: ExperimentConfig, grid: CellGrid, draws):
    """The jets of raw draws of ``_null_draws``, pooled: (owner, x, ys),
    ``owner`` the index in ``draws`` of each jet's trial.

    Scaling uses Generator.uniform's own formula, low + (high - low) * u,
    so the values are bitwise those of uniform draws.  An oriented draw's
    slope rows are the chart of its Gaussian basis (the chart of a plane
    does not depend on the basis), and chart-singular draws, a null event,
    are dropped, as oriented_to_jets drops them.
    """
    sizes, values, xs, tails = zip(*draws)
    lo, hi = grid.bounds[0]
    owner = np.repeat(np.arange(len(sizes)), sizes)
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
    return owner, x, ys


def run_trial(
    config: ExperimentConfig,
    n: int,
    rng: np.random.Generator,
    c2: float = EXPERIMENT_C2,
):
    """One trial at sample size n: the greedy count on the thinned null
    draws of n - n1 points (``_null_draws``) plus n1 points planted on the
    default alternative at eps(n).  The count has the same law as on n
    full draws.

    The n1 planted points follow the null draws: their locations xs1 carry
    the jets of the alternative's map g for both problems (an oriented
    point on the lift x -> (x, g(x)) reduces to the jet (x, g(x), Dg(x))
    exactly), box-filtered with the null jets.  The block engine draws the
    same stream and counts the planted points by location alone.
    """
    params, grid, per = _trial_constants(config, n, c2)
    draws = _null_draws(config, n, params, grid, per, rng, [rng.bit_generator.state])
    _, x, ys = _null_jets(config, grid, [next(draws)])
    xs1 = rng.random((config.n1, config.k))
    alternative = default_alternative(replace(config, n=n))
    g = alternative if config.problem == "jets" else alternative.g
    ys1 = g.jet_grid(xs1, params.index_set())
    samples = JetSamples(params, np.concatenate([x, xs1]), np.concatenate([ys, ys1]))
    return greedy_cell_statistic(samples, params, n, c2=c2, clamp=True)


# Samples per count in a block of trials: the drawn samples are counted
# and dropped whenever they pass this many, so a block holds at most this
# many plus one trial's, whatever its trial count.
_BLOCK_SAMPLES = 2**12


def _run_block(payload) -> list[RunRecord]:
    """The trials of consecutive keys that share (n_index, n), in key order.

    One generator, set to each key's state in turn, draws every trial's
    null draws (``_null_draws``) and then its planted locations.  Whenever
    the held draws pass ``_BLOCK_SAMPLES`` samples, one ``_null_jets``
    call turns them into jets and one ``cell_counts`` counts them, the
    planted points entering after the null jets as locations alone: they
    skip the box filter and go straight to the (trial, raw cell) keys.
    """
    config, keys, c2 = payload
    n_index, n, _ = keys[0]
    params, grid, per = _trial_constants(config, n, c2)
    rng = np.random.Generator(np.random.PCG64())
    states = _key_states(config.seed, n_index, [trial for _, _, trial in keys])
    counts: list[int] = []
    held, planted, pending = [], [], 0
    for i, draw in enumerate(_null_draws(config, n, params, grid, per, rng, states)):
        held.append(draw)
        if config.n1:
            planted.append(rng.random((config.n1, config.k)))
        pending += draw[0] + config.n1
        if pending >= _BLOCK_SAMPLES or i == len(keys) - 1:
            owner, x, ys = _null_jets(config, grid, held)
            if planted:
                x = np.concatenate([x, *planted])
                owner = np.concatenate([owner, np.repeat(np.arange(len(held)), config.n1)])
            counts += cell_counts(grid, x, ys, owner, len(held)).tolist()
            held, planted, pending = [], [], 0
    return [RunRecord(config, n, trial, grid, count) for (_, _, trial), count in zip(keys, counts)]


def _run_trials(
    config: ExperimentConfig, keys, workers: int = 1, c2: float | None = EXPERIMENT_C2
) -> list[RunRecord]:
    """One seeded trial per (n_index, n, trial) key, records in key order.

    The keys run in blocks of consecutive keys that share (n_index, n),
    each n checked (``_trial_constants``) before the first trial runs.  ``workers`` is capped
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
        _trial_constants(config, n, c2)
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
    _check_records(trials * len(n_grid))
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
    _check_records(trials)
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
    _check_records(trials)
    first = threshold.trials
    keys = [(0, config.n, trial) for trial in range(first, first + trials)]
    records = _run_trials(config, keys)
    counts = np.array([r.statistic for r in records])
    weights = np.where(counts == threshold.value, threshold.tie_gamma, counts > threshold.value)
    p = float(np.mean(weights))
    return PowerEstimate(p, float(np.sqrt(p * (1 - p) / trials)), trials)
