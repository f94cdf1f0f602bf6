"""Spans around quantrel's public functions, installed from outside the package.

A wrapper replaces a function under every name the package binds it
to: `vrel.compose` is also `semantics.compose` and `bialgebra.compose`,
because those modules import it.  Spans nest on the one thread that
runs the benchmark, so the open span below a new one on the stack is
its parent.  When a span closes, its duration is added to its parent's
child time, and its self time is its duration minus the time its
children covered.  Spans are folded into per-name totals, and into
per-edge (parent, child) call counts and times, as they close instead of
being kept, because a traced run opens about a million.

A target that no longer resolves (a function deleted or moved) is
recorded as absent and its metrics are reported as `absent`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "quantrel"

@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    sums: Dict[str, float] = field(default_factory=dict)
    peak: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def high(self, key: str, value: float) -> None:
        if value > self.peak.get(key, 0.0):
            self.peak[key] = value


def _compose_sizes(stat: Stat, args, kwargs, out) -> None:
    r, s = args[0], args[1]
    a, b, c = len(r.source), len(r.target), len(s.target)
    support = out.support()
    stat.add("cells_in", a * b + b * c)
    stat.add("cells_out", a * c)
    stat.add("support_out", support)
    stat.high("max_support", support)


def _state_density(stat: Stat, args, kwargs, out) -> None:
    stat.add("support_out", out.support())
    stat.add("cells_out", len(out.target))


def _powerset_size(stat: Stat, args, kwargs, out) -> None:
    stat.add("size", len(args[0]))


def _eval_mode(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "restricted")
    return f"semantics.eval_categorical.{mode}"


@dataclass(frozen=True)
class Target:
    """A dotted name under the package, the span it opens, what it measures."""

    dotted: str
    span: str = ""
    span_of: Optional[Callable] = None
    measure: Optional[Callable] = None


TARGETS = (
    Target("lexicon.load_lexicon"),
    Target("sampling.randomize_model"),
    Target("grammar.tokenize"),
    Target("grammar.parse"),
    Target("grammar.classify"),
    Target("fuzzyset.proportion"),
    Target("fuzzyset.verb_image"),
    Target("fuzzyset.scale"),
    Target("quantifier.apply_quantifier_argmax"),
    # Called once per grid point the argmax scans, and per graded entry.
    Target("quantifier.apply_distribution"),
    Target("quantifier.graded_entry"),
    Target("semantics.compile_pipeline"),
    Target("semantics.eval_zadeh_direct"),
    Target("semantics.eval_categorical", span_of=_eval_mode),
    Target("semantics.lexical_state", measure=_state_density),
    Target("semantics.verb_state", measure=_state_density),
    Target("vrel.compose", measure=_compose_sizes),
    Target("vrel.tensor_rel"),
    Target("vrel.VRel.equal"),
    Target("vrel.snake_identities"),
    Target("bialgebra.PowersetObject.__init__", span="bialgebra.PowersetObject",
           measure=_powerset_size),
    Target("bialgebra.check_bialgebra"),
    Target("bialgebra.check_comonoid"),
    Target("bialgebra.check_monoid"),
)


class Tracer:
    """Installs span wrappers on the package and folds spans into Stats."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.absent: List[str] = []
        # (parent span, span) -> [calls, inclusive seconds]; the root
        # parent is "op"
        self.edges: Dict[Tuple[str, str], list] = {}
        self._stack: List[list] = []      # open spans: [name, child time]
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        for target in targets:
            try:
                owner, attr, original = self._resolve(target.dotted)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.dotted)
                continue
            span = target.span or target.dotted
            wrapper = self._wrap(original, span, target.span_of, target.measure)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()

    def _resolve(self, dotted: str):
        module_name, *path = dotted.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        return owner, attr, original

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, original, span: str, span_of, measure):
        stack, stats, edges, clock = self._stack, self.stats, self.edges, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span_of(args, kwargs) if span_of else span
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = "op"
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[parent, name] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = Stat()
                stat.calls += 1
                stat.busy += duration
                stat.self_time += duration - frame[1]
            if measure is not None:
                measure(stat, args, kwargs, out)
            return out

        return wrapper


# -- per-layer metrics -------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    target: str                      # dotted Target this metric needs
    value: Callable[[Dict[str, Stat], Dict[Tuple[str, str], list], float], float]


def _per_op(span: str, what: str):
    def value(stats, edges, ops):
        stat = stats.get(span, Stat())
        total = {"calls": stat.calls, "busy_s": stat.busy, "self_s": stat.self_time}.get(
            what, stat.sums.get(what, 0.0))
        return total / ops
    return value


def _ratio(span: str, num: str, den: str):
    def value(stats, edges, ops):
        stat = stats.get(span, Stat())
        d = stat.sums.get(den, 0.0)
        return stat.sums.get(num, 0.0) / d if d else 0.0
    return value


def _mean(span: str, what: str):
    def value(stats, edges, ops):
        stat = stats.get(span, Stat())
        return stat.sums.get(what, 0.0) / stat.calls if stat.calls else 0.0
    return value


def _peak(span: str, what: str):
    def value(stats, edges, ops):
        return stats.get(span, Stat()).peak.get(what, 0.0)
    return value


def _calls_under(parent: str, child: str):
    """Calls of child made directly from parent, per op."""
    def value(stats, edges, ops):
        return edges.get((parent, child), (0, 0.0))[0] / ops
    return value


def _m(span: str, what: str, unit: str, better: str, value, target: str = "") -> LayerMetric:
    return LayerMetric(f"{span}.{what}", unit, better, target or span, value)


def _busy(span, target=""):
    return _m(span, "busy_s", "s/op", "lower", _per_op(span, "busy_s"), target)


def _self(span, target=""):
    return _m(span, "self_s", "s/op", "lower", _per_op(span, "self_s"), target)


def _calls(span, target=""):
    return _m(span, "calls", "count/op", "lower", _per_op(span, "calls"), target)


def _density(span):
    return _m(span, "density", "ratio", "higher", _ratio(span, "support_out", "cells_out"))


OP_METRICS = (
    _calls("sampling.randomize_model"), _busy("sampling.randomize_model"),
    _busy("grammar.tokenize"), _busy("grammar.parse"), _busy("grammar.classify"),
    _calls("fuzzyset.proportion"), _busy("fuzzyset.proportion"),
    _busy("fuzzyset.verb_image"), _calls("fuzzyset.scale"),
    _calls("quantifier.apply_quantifier_argmax"), _busy("quantifier.apply_quantifier_argmax"),
    _m("quantifier.apply_quantifier_argmax", "grid_points", "count/op", "lower",
       _calls_under("quantifier.apply_quantifier_argmax", "quantifier.apply_distribution"),
       "quantifier.apply_distribution"),
    _calls("quantifier.graded_entry"), _busy("quantifier.graded_entry"),
    _busy("semantics.compile_pipeline"),
    _self("semantics.eval_zadeh_direct"),
    _self("semantics.eval_categorical.restricted", "semantics.eval_categorical"),
    _self("semantics.eval_categorical.exhaustive", "semantics.eval_categorical"),
    _calls("semantics.lexical_state"), _busy("semantics.lexical_state"),
    _density("semantics.lexical_state"),
    _busy("semantics.verb_state"), _density("semantics.verb_state"),
    _calls("vrel.compose"), _busy("vrel.compose"),
    _m("vrel.compose", "cells_in", "count/op", "lower", _per_op("vrel.compose", "cells_in")),
    _m("vrel.compose", "support_out", "count/op", "lower",
       _per_op("vrel.compose", "support_out")),
    _m("vrel.compose", "max_support", "count", "lower", _peak("vrel.compose", "max_support")),
    _density("vrel.compose"),
    _calls("vrel.tensor_rel"),
    _busy("vrel.VRel.equal"),
    _busy("vrel.snake_identities"),
    _calls("bialgebra.PowersetObject", "bialgebra.PowersetObject.__init__"),
    _busy("bialgebra.PowersetObject", "bialgebra.PowersetObject.__init__"),
    _m("bialgebra.PowersetObject", "size", "count", "lower",
       _mean("bialgebra.PowersetObject", "size"), "bialgebra.PowersetObject.__init__"),
    _busy("bialgebra.check_bialgebra"), _busy("bialgebra.check_comonoid"),
    _busy("bialgebra.check_monoid"),
)

# Measured over the set-up of a traced run rather than per op.
SETUP_METRICS = (
    LayerMetric("lexicon.load_lexicon.busy_s", "s", "lower", "lexicon.load_lexicon",
                lambda stats, edges, ops: stats.get("lexicon.load_lexicon", Stat()).busy),
)

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")
