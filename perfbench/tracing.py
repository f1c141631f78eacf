"""In-memory spans around calls into each layer of ``repro``, and their metrics.

The traced run installs wrappers on the public functions of each layer at
run time, so the program under test is not edited.  A wrapper records one
span per call: ``[name, start_ns, end_ns, parent]``, where ``parent`` is the
index of the span that was open when the call started (``-1`` for none).
Nothing is aggregated while the program runs; :func:`layer_metrics` turns
the finished span list into per-layer self times, counts and ratios.

A span's *self time* is its duration minus the time its direct child spans
cover.  Calls are single-threaded and nest strictly, so children never
overlap and the self times of all spans add up to the time the root spans
cover.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Span name -> layer that owns its self time.  The layer names follow the
#: modules of ``repro``.
SPAN_LAYERS = {
    "sim": "repro.sim",
    "policy": "repro.core",
    "decoder.detectors": "repro.decoder",
    "decoder.decode": "repro.decoder",
    "decoder.blossom": "repro.decoder",
    "decoder.greedy": "repro.decoder",
    "experiment.run": "repro.experiments",
    "experiment.build": "repro.experiments",
    "sweep.chunk": "repro.experiments",
    "sweep.run": "repro.experiments",
    "store.probe": "repro.experiments",
    "store.save": "repro.experiments",
    "report.render_static": "repro.report",
    "report.render_sweep": "repro.report",
    "report.build": "repro.report",
}

#: Public methods of the vectorised engines that the ``sim`` span covers.
SIM_METHODS = (
    "run",
    "swap_instances",
    "measure_reset_masked",
    "lrc_finalize_instances",
    "leak_iswap_instances",
    "reset_instances",
    "leaked_at",
    "leaked_fraction",
)

#: Batched-protocol methods of the scheduling policies (the ``policy`` span).
POLICY_METHODS = ("decide_batch", "initial_assignment_batch", "start_batch")

_MISSING = object()

SpanName = Union[str, Callable[[object], str]]
OnResult = Callable[[tuple, object, bool], None]


class Tracer:
    """Records spans of wrapped calls; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: SpanName,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is a span name, or a function of the call's first argument
        (the instance, for methods) returning one.  ``on_result(args,
        result, outermost)`` runs after each call; ``outermost`` is False
        when the call is nested inside a span of the same name.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [span_name, clock(), 0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(args, result, parent < 0 or spans[parent][0] != span_name)
            return result

        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` without recording spans (restored on uninstall)."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Self time of every span, in the units of its timestamps."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def span_totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, int]]:
    """Per span name: summed self time, and calls and time of outermost entries.

    A call nested inside a span of the same name (a subclass method calling
    its base, ``contains`` calling ``load``) adds self time but is not a new
    entry, so ``calls`` and ``inclusive`` count each entry into the name once.
    """
    totals: Dict[str, Dict[str, int]] = {}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"self": 0, "inclusive": 0, "calls": 0})
        entry["self"] += own
        if parent < 0 or spans[parent][0] != name:
            entry["inclusive"] += end - start
            entry["calls"] += 1
    return totals


class Counters:
    """Counts gathered at the wrapped boundaries during a traced run."""

    def __init__(self) -> None:
        self.shots = 0
        self.shot_rounds = 0
        self.lrcs = 0.0
        self.true_positive = 0
        self.false_positive = 0
        self.false_negative = 0
        self.decoder: Dict[str, int] = {}
        self.matchers: List[object] = []
        self.store_hits = 0

    def record_experiment(self, args: tuple, result: object, outermost: bool) -> None:
        experiment = args[0]
        shot_rounds = result.shots * result.rounds
        self.shots += result.shots
        self.shot_rounds += shot_rounds
        self.lrcs += result.lrcs_per_round * shot_rounds
        speculation = result.speculation
        self.true_positive += speculation.true_positive
        self.false_positive += speculation.false_positive
        self.false_negative += speculation.false_negative
        if experiment.decoder is not None:
            # One decoder per experiment, and each experiment in the
            # workloads runs once, so its counters are this run's.
            for key, value in experiment.decoder.stats.as_dict().items():
                self.decoder[key] = self.decoder.get(key, 0) + value

    def record_probe(self, args: tuple, result: object, outermost: bool) -> None:
        if outermost and result is not None and result is not False:
            self.store_hits += 1

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready counts; matcher tier counters summed over every matcher."""
        tiers: Dict[str, int] = {}
        for matcher in self.matchers:
            for key, value in matcher.stats.items():
                tiers[key] = tiers.get(key, 0) + value
        return {
            "shots": self.shots,
            "shot_rounds": self.shot_rounds,
            "lrcs": self.lrcs,
            "true_positive": self.true_positive,
            "false_positive": self.false_positive,
            "false_negative": self.false_negative,
            "decoder": dict(self.decoder),
            "tiers": tiers,
            "store_hits": self.store_hits,
        }


def install_layer_spans(tracer: Tracer, counters: Counters) -> None:
    """Wrap the public functions of every layer of ``repro``."""
    import repro.decoder.decoder as decoder_module
    from repro.core.policies.base import LrcPolicy
    from repro.decoder.matching import GreedyMatcher, MwpmMatcher
    from repro.experiments.executor import SweepExecutor
    from repro.experiments.jobs import SweepJob
    from repro.experiments.memory import MemoryExperiment
    from repro.experiments.registry import ExperimentSpec
    from repro.experiments.store import ResultStore
    from repro.report.builder import ReportBuilder
    from repro.sim.batched_frame_simulator import BatchedLeakageFrameSimulator
    from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator

    for engine in (BatchedLeakageFrameSimulator, PackedLeakageFrameSimulator):
        for method in SIM_METHODS:
            tracer.wrap(engine, method, "sim")
    for policy in _class_tree(LrcPolicy):
        for method in POLICY_METHODS:
            # Only where the class defines it: inherited methods are
            # reached through the base class's wrapper.
            if method in vars(policy):
                tracer.wrap(policy, method, "policy")

    decoder = decoder_module.SurfaceCodeDecoder
    tracer.wrap(decoder, "build_detectors_batch", "decoder.detectors")
    tracer.wrap(decoder, "decode_batch", "decoder.decode")
    tracer.wrap(MwpmMatcher, "decode_nodes", "decoder.blossom")
    tracer.wrap(GreedyMatcher, "decode_nodes", "decoder.greedy")
    build_matcher = decoder_module.build_matcher

    def capture_matcher(*args, **kwargs):
        matcher = build_matcher(*args, **kwargs)
        counters.matchers.append(matcher)
        return matcher

    tracer.patch(decoder_module, "build_matcher", capture_matcher)

    tracer.wrap(MemoryExperiment, "run", "experiment.run", counters.record_experiment)
    tracer.wrap(SweepJob, "build_experiment", "experiment.build")
    tracer.wrap(SweepJob, "run_chunk", "sweep.chunk")
    tracer.wrap(SweepExecutor, "run", "sweep.run")
    tracer.wrap(ResultStore, "contains", "store.probe", counters.record_probe)
    tracer.wrap(ResultStore, "load", "store.probe", counters.record_probe)
    tracer.wrap(ResultStore, "save", "store.save")
    tracer.wrap(
        ExperimentSpec,
        "render_artifact",
        lambda spec: "report.render_sweep" if spec.has_plan else "report.render_static",
    )
    tracer.wrap(ReportBuilder, "build", "report.build")


def _class_tree(root: type) -> List[type]:
    found = [root]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Sequence],
    counts: Dict[str, object],
    traced_wall_s: float,
    untraced_wall_s: float,
    import_s: float,
    construct_s: float,
    sweep_stats: Optional[Dict[str, int]] = None,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``."""
    totals = span_totals(spans)

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self", 0) for n in names) / 1e9

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def inclusive_s(name: str) -> float:
        return totals.get(name, {}).get("inclusive", 0) / 1e9

    decoder = counts["decoder"]
    tiers = counts["tiers"]
    syndromes = decoder.get("shots", 0)
    nonempty = syndromes - decoder.get("empty", 0)
    reused = decoder.get("dedup_hits", 0) + decoder.get("cache_hits", 0)
    matched = decoder.get("matched", 0)
    shot_rounds = counts["shot_rounds"]
    scheduled = counts["true_positive"] + counts["false_positive"]
    leaked = counts["true_positive"] + counts["false_negative"]
    sweep_stats = sweep_stats or {}
    attributed_s = sum(self_times(spans)) / 1e9
    return {
        "sim.self_s": (self_s("sim"), "s"),
        "sim.calls": (calls("sim"), "count"),
        "sim.ns_per_shot_round": (_ratio(self_s("sim") * 1e9, shot_rounds), "ns"),
        "policy.self_s": (self_s("policy"), "s"),
        "policy.calls": (calls("policy"), "count"),
        "policy.lrcs_per_round": (_ratio(counts["lrcs"], shot_rounds), "count"),
        "policy.speculation_precision": (_ratio(counts["true_positive"], scheduled), "ratio"),
        "policy.speculation_recall": (_ratio(counts["true_positive"], leaked), "ratio"),
        "decoder.detectors_s": (self_s("decoder.detectors"), "s"),
        "decoder.blossom_s": (self_s("decoder.blossom"), "s"),
        "decoder.greedy_s": (self_s("decoder.greedy"), "s"),
        "decoder.self_s": (self_s("decoder.decode"), "s"),
        "decoder.syndromes": (syndromes, "count"),
        "decoder.empty": (decoder.get("empty", 0), "count"),
        "decoder.matched": (matched, "count"),
        "decoder.blossom_calls": (tiers.get("blossom", 0), "count"),
        "decoder.greedy_calls": (tiers.get("greedy", 0), "count"),
        "decoder.dp_calls": (tiers.get("dp", 0), "count"),
        "decoder.reuse_ratio": (_ratio(reused, nonempty), "ratio"),
        "decoder.us_per_match": (
            _ratio(self_s("decoder.blossom", "decoder.greedy") * 1e6, matched),
            "us",
        ),
        "experiment.build_s": (self_s("experiment.build"), "s"),
        "experiment.run_self_s": (self_s("experiment.run"), "s"),
        "sweep.chunk_s": (inclusive_s("sweep.chunk"), "s"),
        "sweep.chunks": (calls("sweep.chunk"), "count"),
        "sweep.self_s": (self_s("sweep.run"), "s"),
        "store.probe_s": (self_s("store.probe"), "s"),
        "store.probes": (calls("store.probe"), "count"),
        "store.hits": (counts["store_hits"], "count"),
        "store.save_s": (self_s("store.save"), "s"),
        "store.saves": (calls("store.save"), "count"),
        "sweep.cache_hit_ratio": (
            _ratio(sweep_stats.get("cache_hits", 0), sweep_stats.get("jobs_total", 0)),
            "ratio",
        ),
        "report.static_render_s": (self_s("report.render_static"), "s"),
        "report.sweep_render_self_s": (self_s("report.render_sweep"), "s"),
        "report.write_s": (self_s("report.build"), "s"),
        "setup.import_s": (import_s, "s"),
        "setup.construct_s": (construct_s, "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_pct": (
            _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s) * 100.0,
            "%",
        ),
        "trace.unattributed_s": (traced_wall_s - attributed_s, "s"),
        "trace.coverage_pct": (_ratio(attributed_s, traced_wall_s) * 100.0, "%"),
        "trace.spans": (len(spans), "count"),
    }


def layer_table(spans: Sequence[Sequence], traced_wall_s: float) -> str:
    """Human-readable self time per layer and span name."""
    totals = span_totals(spans)
    by_layer: Dict[str, float] = {}
    for name, entry in totals.items():
        layer = SPAN_LAYERS.get(name, name)
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self"] / 1e9
    lines = [f"{'layer / span':<28} {'self s':>9} {'share':>7} {'calls':>8}"]
    for layer in sorted(by_layer, key=by_layer.get, reverse=True):
        lines.append(
            f"{layer:<28} {by_layer[layer]:9.3f} "
            f"{_ratio(by_layer[layer], traced_wall_s):7.1%}"
        )
        for name in sorted(totals, key=lambda n: totals[n]["self"], reverse=True):
            if SPAN_LAYERS.get(name, name) == layer:
                entry = totals[name]
                lines.append(
                    f"  {name:<26} {entry['self'] / 1e9:9.3f} "
                    f"{_ratio(entry['self'] / 1e9, traced_wall_s):7.1%} {entry['calls']:8d}"
                )
    return "\n".join(lines)
