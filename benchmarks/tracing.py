"""Spans around digitstats' public calls, installed from outside the package.

`install` replaces every public function (no leading underscore) of the
package modules, in its home module and in each module that imports it
(for example ``digitstats.cli.running_stats``), with a wrapper that
records a span.
The ``DigitStream`` constructors and ``take`` are wrapped on the class.
A span is ``(id, parent, name, start, end, op)``: ``name`` is
``<layer>.<function>`` with the layer taken from the function's home
module, and ``op`` is the id of the operation the span belongs to.
Spans stay in memory until the run writes them out.

Attribution rule: a lazily produced stream has no span of its own. Its
digits are produced, and their time charged, inside whichever span
iterates them. The block stream of ``construct_mean_without_frequency``
is therefore charged to ``stats.running_stats`` in the library session
and to ``core.DigitStream.take`` under ``construct-mean-nofreq --emit
digits``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "core", "stats", "construct", "simulate", "rationals")
_STREAM_METHODS = ("from_digits", "constant", "from_function", "from_expansion", "take")

# per-call counts, keyed by span name: (args, result) -> {counter: increment}
COUNTERS = {
    "stats.running_stats": lambda a, r: {"stats.digits_counted": r[-1].n, "stats.checkpoints_served": len(r)},
    "stats.stats_to_csv": lambda a, r: {"stats.export_rows": len(a[0])},
    "stats.stats_to_json": lambda a, r: {"stats.export_rows": len(a[0])},
    "core.DigitStream.from_digits": lambda a, r: {"core.digits_validated": r.length},
    "core.expand_rational": lambda a, r: {"core.period_digits": len(r.period)},
    "construct.construct_mean_without_frequency": lambda a, r: {"construct.digits_generated": r[1].length},
    "construct.no_mean_example": lambda a, r: {"construct.digits_generated": len(r)},
    "construct.quota_construct": lambda a, r: {"construct.digits_generated": len(r)},
    "construct.beatty_construct": lambda a, r: {"construct.digits_generated": len(r)},
    "simulate.normality_experiment": lambda a, r: {"simulate.digits_drawn": a[0].depth * a[0].trials},
    "rationals.decimal_str": lambda a, r: {"rationals.decimal_str_calls": 1},
}

# per-layer time metrics: metric name -> span names whose inclusive time it sums
TIMED = {
    "core.from_digits_s": ("core.DigitStream.from_digits",),
    "core.take_s": ("core.DigitStream.take",),
    "core.expand_rational_s": ("core.expand_rational",),
    "core.evaluate_expansion_s": ("core.evaluate_expansion",),
    "core.format_parse_s": ("core.format_expansion", "core.parse_expansion"),
    "stats.running_stats_s": ("stats.running_stats",),
    "stats.geometric_checkpoints_s": ("stats.geometric_checkpoints",),
    "stats.export_s": ("stats.stats_to_csv", "stats.stats_to_json"),
    "stats.classify_limit_s": ("stats.classify_limit",),
    "construct.mean_without_frequency_s": ("construct.construct_mean_without_frequency",),
    "construct.no_mean_example_s": ("construct.no_mean_example",),
    "construct.quota_s": ("construct.quota_construct",),
    "construct.beatty_s": ("construct.beatty_construct",),
    "simulate.experiment_s": ("simulate.normality_experiment",),
    "simulate.render_s": ("simulate.summary_to_json",),
    "rationals.decimal_str_s": ("rationals.decimal_str",),
}

COUNTS = (
    "core.digits_validated",
    "core.period_digits",
    "stats.digits_counted",
    "stats.checkpoints_served",
    "stats.export_rows",
    "construct.digits_generated",
    "simulate.digits_drawn",
    "rationals.decimal_str_calls",
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced


def install(tracer: Tracer):
    """Wrap the package's public calls; return a function that undoes it."""
    modules = {layer: importlib.import_module(f"digitstats.{layer}") for layer in LAYERS}
    public = {
        value: f"{layer}.{attr}"
        for layer, module in modules.items()
        for attr, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_")
    }
    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in public:
                undo.append((module, attr, value))
                setattr(module, attr, tracer.wrap(value, public[value]))
    stream = modules["core"].DigitStream
    for attr in _STREAM_METHODS:
        raw = stream.__dict__[attr]
        undo.append((stream, attr, raw))
        if isinstance(raw, classmethod):
            setattr(stream, attr, classmethod(tracer.wrap(raw.__func__, f"core.DigitStream.{attr}")))
        else:
            setattr(stream, attr, tracer.wrap(raw, f"core.DigitStream.{attr}"))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def summarize(spans, root: int) -> dict[str, float]:
    """Self time per layer and inclusive time per TIMED metric under `root`.

    Self time is a span's duration minus the time its child spans cover.
    ``trace.unattributed_s`` is the root span's own self time: benchmark
    glue between calls. The layer self times plus it add up to
    ``trace.wall_s``, the root span's duration.
    """
    by_id = {s[0]: s for s in spans}
    inside = set()
    for s in spans:
        if s[0] == root or (s[1] in inside):
            inside.add(s[0])
    children = defaultdict(float)
    for sid in inside:
        s = by_id[sid]
        if s[1] is not None and s[1] in inside:
            children[s[1]] += s[4] - s[3]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({metric: 0.0 for metric in TIMED})
    metric_of = {name: metric for metric, names in TIMED.items() for name in names}
    for sid in inside:
        _, parent, name, start, end, _ = by_id[sid]
        own = end - start - children[sid]
        if sid == root:
            out["trace.unattributed_s"] = own
            out["trace.wall_s"] = end - start
            continue
        out[f"{name.split('.')[0]}.self_s"] += own
        metric = metric_of.get(name)
        if metric is not None and by_id[parent][2] != name:
            out[metric] += end - start
    return out

