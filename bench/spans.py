"""Span tracing of redlab's public functions, installed from outside.

`Tracer.install()` replaces each traced function, in every loaded redlab
module namespace and registry dict that holds it, with a wrapper that
records a span (layer, start, end, parent) and bumps exact work counters;
`uninstall()` puts the originals back. The program's source is not edited.

Self time of a span is its duration minus the time of its direct children,
each child counted with its wrapper's own bookkeeping time. Counters are per round: `end_round()` snapshots and resets them,
and the caller checks that identical rounds give identical snapshots.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from redlab import cli, harness, instances, oracles, reductions

# (module, attribute, layer): one span per call.
SPAN_TARGETS = [
    (cli, "cmd_verify", "cli.verify"),
    (cli, "cmd_fit", "cli.fit"),
    (harness, "generate", "harness.generate"),
    (harness, "verify_m_reduction", "harness.verify"),
    (harness, "verify_T_reduction", "harness.verify"),
    (harness, "fit_shortness", "harness.fit_shortness"),
    (instances, "validate", "instances.validate"),
    (instances, "serialize", "instances.serialize"),
    (instances, "parse", "instances.parse"),
] + [
    (reductions, name, f"reductions.{name}") for name in (
        "normalize_2sat3", "sat2_to_2cvc3", "cvc3_to_sat2", "sat2_to_3xce2",
        "xce2_to_2lp", "lp_to_2lp", "twolp_to_lp", "le_to_xor2sat",
        "normalize_dstcon", "dstcon_to_ap2dm", "reduce_degree_dstcon",
        "ap2dm_to_dstcon_queries")
] + [
    (oracles, name, f"oracles.{name}") for name in (
        "solve_2sat", "solve_dstcon", "solve_2cvc", "solve_xce", "solve_ap2dm",
        "solve_lin", "solve_xor2sat")
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in SPAN_TARGETS))
REDUCTION_NAMES = [layer.split(".", 1)[1] for layer in LAYERS
                   if layer.startswith("reductions.")]

# log-log slope groups: (metric suffix, layer, size group)
SLOPES = [
    ("harness.generate.2sat3", "harness.generate", "2sat3"),
    ("harness.generate.xce", "harness.generate", "xce"),
    ("harness.generate.ap2dm", "harness.generate", "ap2dm"),
    ("reductions.xce2_to_2lp", "reductions.xce2_to_2lp", ""),
    ("reductions.normalize_dstcon", "reductions.normalize_dstcon", ""),
    ("reductions.normalize_2sat3", "reductions.normalize_2sat3", ""),
    ("reductions.sat2_to_2cvc3", "reductions.sat2_to_2cvc3", ""),
    ("instances.validate.ap2dm", "instances.validate", "Ap2dmInstance"),
    ("instances.parse", "instances.parse", ""),
    ("instances.serialize", "instances.serialize", ""),
]

_PRIMARY_SIZE = {
    "CnfFormula": lambda f: f.num_vars,
    "Digraph": lambda g: g.num_vertices,
    "UGraph": lambda g: g.num_vertices,
    "XceInstance": lambda x: x.universe_size,
    "Ap2dmInstance": lambda a: a.universe_size,
    "LinSystem": lambda s: s.num_cols,
    "XorSystem": lambda x: x.num_vars,
}


def _size_of(layer: str, args, result):
    """(group, size) recorded with a span, used for the slope metrics."""
    if layer == "harness.generate":
        return args[0].problem, _PRIMARY_SIZE[type(result).__name__](result)
    if layer == "instances.validate":
        kind = type(args[0]).__name__
        return kind, _PRIMARY_SIZE[kind](args[0])
    if layer == "instances.serialize":
        return "", len(result)
    if layer == "instances.parse":
        return "", len(args[0])
    if layer == "reductions.normalize_2sat3":
        return "", args[0].num_vars
    if layer.startswith("reductions.") and isinstance(result, tuple) and result[1] is not None:
        return "", result[1].input_param.value
    return "", 0


class Tracer:
    """In-memory spans plus exact per-round work counters."""

    def __init__(self):
        self.spans: list = []  # [layer, start_ns, end_ns, parent, group, size, overhead_ns]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.rounds: list[dict] = []
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span = spans[idx] = [layer, start, end, parent, "", 0, 0]
                counts[layer + ".calls"] += 1
            span[4], span[5] = _size_of(layer, args, result)
            if layer.startswith("reductions."):
                _count_reduction(counts, layer, args, result)
            # the wrapper's own time, which self_times keeps out of the parent
            span[6] = (start - entered) + (perf_counter_ns() - end)
            return result

        return traced

    def _matchings_wrapper(self, fn):
        counts = self.counts

        def counted(a):
            result = fn(a)
            counts["oracles.perfect_matchings.matchings"] += len(result)
            return result

        return counted

    def install(self):
        targets = [(mod, attr, self._span_wrapper(layer, getattr(mod, attr)))
                   for mod, attr, layer in SPAN_TARGETS]
        targets.append((oracles, "perfect_matchings",
                        self._matchings_wrapper(oracles.perfect_matchings)))
        replacements = {id(getattr(mod, attr)): wrapper for mod, attr, wrapper in targets}
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "redlab" or name.startswith("redlab.")]
        namespaces += [reductions.REDUCTIONS, harness.GENERATORS]
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self):
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    # -- rounds and summaries ---------------------------------------------

    def end_round(self, extra: dict | None = None):
        snap = dict(self.counts)
        snap.update(extra or {})
        self.rounds.append(snap)
        self.counts.clear()

    def counters_repeat(self) -> bool:
        return all(r == self.rounds[0] for r in self.rounds[1:])

    def self_times(self) -> dict[str, list]:
        """Per layer: list of (self_ns, total_ns, group, size) per call."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _, overhead in self.spans:
            if parent >= 0:
                child[parent] += end - start + overhead
        out: dict[str, list] = defaultdict(list)
        for i, (layer, start, end, _, group, size, _) in enumerate(self.spans):
            out[layer].append((end - start - child[i], end - start, group, size))
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("layer,start_ns,end_ns,parent,group,size,overhead_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _count_reduction(counts: Counter, layer: str, args, result):
    if layer == "reductions.normalize_2sat3":
        counts[layer + ".in_size"] += args[0].num_vars
        counts[layer + ".out_size"] += result.num_vars
        return
    report = result[1]
    counts[layer + ".in_size"] += report.input_param.value
    counts[layer + ".out_size"] += report.output_param.value
    if report.queries:
        counts[layer + ".queries"] += len(report.queries)


def tail_level(n: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it."""
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - level) / 100.0 >= 10:
            return level
    return 50.0


def percentile(sorted_values: list, level: float) -> float:
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * level / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def log_log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(time) on ln(size); 0 without two sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_stats(calls: list) -> dict:
    selfs = sorted(c[0] / 1e6 for c in calls)
    level = tail_level(len(selfs))
    total = sum(c[1] for c in calls)
    return {
        "n": len(selfs),
        "p50_ms": percentile(selfs, 50.0),
        "tail_level": level,
        "tail_ms": percentile(selfs, level),
        "self_share": (sum(c[0] for c in calls) / total) if total else 0.0,
        "self_total_ms": sum(selfs),
    }


def slope_of(calls: list, group: str) -> float:
    """Slope over the per-size median self times of one size group."""
    by_size: dict[int, list] = defaultdict(list)
    for self_ns, _, g, size in calls:
        if g == group and size > 0:
            by_size[size].append(self_ns / 1e6)
    return log_log_slope([(s, statistics.median(v)) for s, v in by_size.items()])
