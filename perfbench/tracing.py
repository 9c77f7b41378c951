"""In-memory spans around alignstat's public functions, for traced runs.

Inside ``Tracer.recording()`` each traced function is replaced by a
wrapper in every alignstat module (and the package namespace) that holds
a reference to it, because callers import by name (``experiments`` does
``from .detection import generate_null_jets``); methods are wrapped on
their class.  Leaving the block restores the originals, so untraced runs
execute the library unmodified and record nothing.

A wrapper records a span (name, start, end, parent), counts the call,
adds the call's computed work counts, and on an exception counts it
under ``<module>.failed`` by exception class before re-raising.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

MODULES = ("experiments", "detection", "grassmann", "holder", "bumps", "nets", "cli")

GENERATORS = (
    "detection.generate_null_jets",
    "detection.generate_alt_jets",
    "detection.generate_null_oriented",
    "detection.generate_alt_oriented",
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans) -> dict[str, float]:
    """Per name: total span time minus the time covered by child spans.

    Spans come from one thread, so the children of a span never overlap
    and their durations can be summed.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.name] += (sp.end - sp.start) - child_time[sp.sid]
    return dict(out)


def _mb(*arrays) -> float:
    return sum(a.nbytes for a in arrays) / 2**20


def _tube_dp_name(args, kwargs) -> str:
    return f"detection.tube_dp_statistic.d{args[0].params.dim_out}"


def _tube_dp_counts(args, kwargs, result) -> dict:
    """DP states evaluated: x-cells times (value x slope levels)^(d-k)."""
    samples, beta, eps = args[:3]
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    levels = (math.floor(1.0 / eps) + 1) * (2 * math.floor(beta / delta) + 1)
    return {"detection.tube_dp.state_updates": n_cells * levels ** samples.params.dim_out}


def _membership_counts(args, kwargs, result) -> dict:
    """N^2 grid pairs; pair_mb is the two dense N x N x k and N x N x (d-k)
    difference tensors the scan materializes, in float64."""
    params = args[1]
    grid_n = kwargs.get("grid_n", args[2] if len(args) > 2 else None)
    if grid_n is None:
        grid_n = 101 if params.k == 1 else 21
    pairs = (grid_n**params.k) ** 2
    return {"holder.membership.pairs": pairs, "holder.membership.pair_mb": pairs * params.d * 8 / 2**20}


def _generated(args, kwargs, result) -> dict:
    arrays = (result.xs, result.ys) if hasattr(result, "ys") else (result.z, result.frames)
    return {"detection.samples_generated": len(result), "detection.generated_mb": _mb(*arrays)}


def _packing_counts(args, kwargs, result) -> dict:
    m = len(result)
    return {"nets.packing.pairs": m * (m - 1) // 2 if result.separation is not None else 0}


# (module, attribute path, span name or None for "<module>.<attr>", counts)
TARGETS = [
    ("experiments", "run_sweep", None, None),
    ("experiments", "run_trial", None, None),
    ("experiments", "null_quantile_threshold", None, None),
    ("experiments", "power_estimate", None, None),
    ("detection", "generate_null_jets", None, _generated),
    ("detection", "generate_alt_jets", None, _generated),
    ("detection", "generate_null_oriented", None, _generated),
    ("detection", "generate_alt_oriented", None, _generated),
    ("detection", "oriented_to_jets", None,
     lambda a, k, r: {"detection.oriented_to_jets.dropped": r[1]}),
    ("detection", "greedy_cell_statistic", None,
     lambda a, k, r: {"detection.greedy.selected": r.count,
                      "detection.greedy.clamped_trials": int(r.eps_clamped)}),
    ("detection", "tube_dp_statistic", _tube_dp_name, _tube_dp_counts),
    ("grassmann", "sample_uniform_frames", None,
     lambda a, k, r: {"grassmann.sample_uniform_frames.frames": r.shape[0]}),
    ("grassmann", "batch_canonical_angle", None,
     lambda a, k, r: {"grassmann.batch_canonical_angle.pairs": r.shape[0]}),
    ("holder", "GraphLift.tangent_frames", None, None),
    ("holder", "build_interpolant", None, None),
    ("holder", "HolderInterpolant.jet_grid", None, None),
    ("holder", "holder_membership_check", None, _membership_counts),
    ("holder", "bump_basis", None, None),
    ("bumps", "plateau_sq_derivs", None, None),
    ("nets", "estimate_span_bound", None, None),
    ("nets", "packing_family", None, _packing_counts),
    ("nets", "covering_family", None, lambda a, k, r: {"nets.covering.members": len(r)}),
    ("nets", "covering_radius_estimate", None,
     lambda a, k, r: {"nets.probe_pairs": a[1] * len(a[0])}),
    ("nets", "ball_measure_estimate", None, None),
    ("nets", "chart_cube_measure_estimate", None, None),
    ("cli", "main", None, None),
]


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()  # (module, exception class) -> count
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False  # True while the wrappers are installed

    # -- recording -------------------------------------------------------

    def _wrap(self, module: str, label: str, fn, name_fn, count_fn):
        tracer = self
        is_generator = label in GENERATORS

        def wrapper(*args, **kwargs):
            name = name_fn(args, kwargs) if name_fn else label
            parent = tracer._stack[-1] if tracer._stack else None
            # nested generators (alt draws its background from null) count once
            counted = count_fn is not None and not (
                is_generator and any(sp.name in GENERATORS for sp in tracer._stack))
            span = Span(len(tracer.spans), name, time.perf_counter(), math.nan,
                        parent.sid if parent else None)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.failures[(module, type(exc).__name__)] += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if counted:
                tracer.counts.update(count_fn(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, value) -> None:
        self.counts[key] += value

    # -- patching --------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Wrap the traced functions for the duration of the block."""
        try:
            self._install()
            self.active = True
            yield self
        finally:
            self.active = False
            for obj, attr, original in reversed(self._patches):
                setattr(obj, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        mods = {m: importlib.import_module(f"alignstat.{m}") for m in MODULES}
        holders = list(mods.values()) + [importlib.import_module("alignstat")]
        for module, path, name_fn, count_fn in TARGETS:
            label = f"{module}.{path}"
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mods[module], owner_name, None) if owner_name else mods[module]
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:  # renamed or removed: its metrics read 0
                print(f"perfbench: no {label} to trace", file=sys.stderr)
                continue
            if owner_name:
                self._patch(owner, attr, self._wrap(module, label, original, name_fn, count_fn))
                continue
            wrapped = self._wrap(module, label, original, name_fn, count_fn)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapped)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- reading ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), self.counts.copy()

    def since(self, mark) -> tuple[dict[str, float], Counter]:
        """Self times and counts recorded after ``mark``."""
        start, counts = mark
        return self_times(self.spans[start:]), self.counts - counts
