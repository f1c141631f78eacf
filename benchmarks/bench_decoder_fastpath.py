"""Decoder fast-path benchmark: layered dispatch vs the seed decoder.

Times the full syndrome->correction pipeline on fig14-style workloads
(ERASER policy, p=1e-3, ``cycles * distance`` rounds, packed engine) at
d=3/5/7 and compares the layered fast path (frame-parity tables, syndrome
dedup + LRU, cluster-split exact matching — see ``docs/ARCHITECTURE.md``)
against the seed implementation preserved in :mod:`repro.decoder.reference`.
Reported per distance:

* decode throughput (shots/s) for both pipelines and the speedup,
* per-stage timings: detector construction, frame-parity table build
  (one-off per graph), and the matching tail,
* fast-path dispatch counters: dedup/LRU hit rates, how many syndromes
  each matching engine (blossom / greedy) served, and the clusters the
  exact tier split them into,
* tie disagreements: shots whose logical-error outcome differs from the
  seed decoder's because the two exact matchers picked different
  matchings of equal weight.

The numbers are written to ``BENCH_decoder.json`` at the repository root —
the perf trajectory future decoder PRs regress against.  Before any timing
is trusted, every non-empty syndrome is checked: the exact tier's matching
weight must equal the seed's, and greedy-tier outcomes must be identical
(the exhaustive property tier lives in ``tests/test_decoder_fastpath.py``).

Environment knobs (see ``conftest.py``): ``ERASER_REPRO_SHOTS`` (default
200; the acceptance target is >= 3x at d=5 with 200 shots),
``ERASER_REPRO_MAX_DISTANCE`` (7 covers the full table),
``ERASER_REPRO_SEED``, and ``ERASER_REPRO_BENCH_OUT`` to redirect the JSON.
"""

import json
import os
import time

import numpy as np

from conftest import emit

from repro.core.policies import make_policy
from repro.decoder.decoder import DecoderStats
from repro.decoder.matching import _all_pairs, _frame_parity_rows, _shortest_paths
from repro.decoder.reference import (
    _reference_shortest_paths,
    build_reference_matcher,
    reference_decode_batch,
)
from repro.experiments.memory import MemoryExperiment

POLICY = "eraser"
CYCLES = 10
DISTANCES = (3, 5, 7)

#: The acceptance workload: d=5, 50 rounds, 200 shots — the fast path must
#: decode it >= 3x faster than the seed pipeline.  CI's quick mode runs
#: fewer shots, where fixed per-batch costs weigh more, so the guard there
#: is looser.
TARGET_DISTANCE = 5
TARGET_SPEEDUP = 3.0
QUICK_SPEEDUP = 1.5


def _workload(distance, shots, seed):
    """Simulate a fig14-style workload once; return (experiment, histories, finals)."""
    experiment = MemoryExperiment(
        distance=distance,
        policy=make_policy(POLICY),
        cycles=CYCLES,
        seed=seed,
        engine="packed",
        decode=True,
    )
    captured = {"h": [], "f": []}
    real_decode = experiment.decoder.decode_batch

    def capture(histories, finals):
        captured["h"].append(np.array(histories))
        captured["f"].append(np.array(finals))
        return np.zeros(histories.shape[0], dtype=bool)

    experiment.decoder.decode_batch = capture
    experiment.run(shots)
    experiment.decoder.decode_batch = real_decode
    return (
        experiment,
        np.concatenate(captured["h"]),
        np.concatenate(captured["f"]),
    )


def _matching_weight(graph, nodes, pairs, to_boundary):
    distances, _ = _all_pairs(graph)
    boundary = graph.boundary_node
    return sum(float(distances[nodes[i], nodes[j]]) for i, j in pairs) + sum(
        float(distances[nodes[i], boundary]) for i in to_boundary
    )


def _tie_disagreements(decoder, reference, detectors, seed_errors, fast_errors):
    """Check every syndrome; return how many outcomes differ on exact ties.

    Exact-tier syndromes must get a matching of the seed's weight (the
    outcome may differ only where both matchings are minimum-weight);
    greedy-tier syndromes must get the seed's outcome.
    """
    graph = decoder.graph
    exact = decoder._matcher._exact
    seed_exact = reference._exact
    ties = 0
    for shot in np.flatnonzero(detectors.any(axis=(1, 2))):
        nodes = graph.detector_nodes(detectors[shot])
        differs = bool(seed_errors[shot] != fast_errors[shot])
        if nodes.size > decoder.exact_threshold:
            assert not differs, f"greedy tier diverged on shot {shot}"
            continue
        fast = exact._match(_shortest_paths(graph, nodes))
        seed = seed_exact._match(_reference_shortest_paths(graph, nodes))
        assert _matching_weight(graph, nodes, *fast) == _matching_weight(
            graph, nodes, *seed
        ), f"exact tier lost minimum weight on shot {shot}"
        ties += differs
    return ties


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_decoder_fastpath(shots, seed, max_distance):
    distances = [d for d in DISTANCES if d <= max_distance]
    rows = []
    report = {
        "workload": {
            "policy": POLICY,
            "cycles": CYCLES,
            "shots": shots,
            "seed": seed,
            "p": 1e-3,
        },
        "distances": {},
    }
    speedups = {}
    for distance in distances:
        experiment, histories, finals = _workload(distance, shots, seed)
        decoder = experiment.decoder
        graph = decoder.graph

        # Stage: detector construction (shared by both pipelines).
        t_detectors, detectors = _best_of(
            lambda: decoder.build_detectors_batch(histories, finals)
        )
        observed = finals[:, decoder._logical_support()].sum(axis=1) % 2

        # Stage: one-off frame-parity table build (fast path only).  The
        # graph caches it, so clear first and measure a cold build.
        graph.clear_caches()
        distances_matrix, predecessors = _all_pairs(graph)
        start = time.perf_counter()
        _frame_parity_rows(graph, distances_matrix, predecessors)
        t_frame_table = time.perf_counter() - start

        # Seed pipeline: per-shot blossom + Python frame walks.
        reference = build_reference_matcher(graph, "auto")
        reference.decode(detectors[0])  # warm the APSP cache
        t_seed_tail, seed_errors = _best_of(
            lambda: reference_decode_batch(reference, graph, detectors, observed)
        )

        # Fast path: the production decode_batch (detector construction,
        # dedup, LRU, native blossom).  Cold LRU on every repeat so the
        # measurement does not flatter the cache.
        def fast_run():
            decoder._correction_cache.clear()
            return decoder.decode_batch(histories, finals)

        t_fast, fast_errors = _best_of(fast_run)
        ties = _tie_disagreements(
            decoder, reference, detectors, np.asarray(seed_errors), np.asarray(fast_errors)
        )

        # One clean cold pass for the dispatch statistics, then a warm rerun
        # where every repeated syndrome is served by the LRU.
        decoder.stats = DecoderStats()
        decoder._matcher.stats.clear()
        decoder._matcher.cluster_stats.update(clusters=0, cluster_blossoms=0)
        decoder._correction_cache.clear()
        decoder.decode_batch(histories, finals)
        cold_stats = decoder.stats.as_dict()
        matcher_stats = dict(decoder._matcher.stats)
        t_warm, warm_errors = _best_of(lambda: decoder.decode_batch(histories, finals))
        np.testing.assert_array_equal(np.asarray(fast_errors), np.asarray(warm_errors))

        t_seed = t_seed_tail + t_detectors
        stats = cold_stats
        nonempty = stats["shots"] - stats["empty"]
        dedup_rate = (
            (stats["dedup_hits"] + stats["cache_hits"]) / nonempty if nonempty else 0.0
        )
        speedups[distance] = t_seed / t_fast
        rows.append(
            f"d={distance}  rounds={experiment.rounds:3d}  "
            f"seed {t_seed * 1e3:8.1f} ms  fast {t_fast * 1e3:7.1f} ms  "
            f"warm {t_warm * 1e3:6.1f} ms  speedup {speedups[distance]:5.2f}x  "
            f"dedup+LRU {100 * dedup_rate:4.1f}%  ties {ties}"
        )
        report["distances"][str(distance)] = {
            "rounds": experiment.rounds,
            "detector_build_ms": t_detectors * 1e3,
            "frame_table_build_ms": t_frame_table * 1e3,
            "seed_matching_ms": t_seed_tail * 1e3,
            "fast_matching_ms": t_fast * 1e3 - t_detectors * 1e3,
            "seed_decode_ms": t_seed * 1e3,
            "fast_decode_ms": t_fast * 1e3,
            "warm_decode_ms": t_warm * 1e3,
            "speedup": speedups[distance],
            "shots_per_second_seed": shots / t_seed,
            "shots_per_second_fast": shots / t_fast,
            "dedup_lru_hit_rate": dedup_rate,
            "decoder_stats": stats,
            "matcher_stats": matcher_stats,
            "tie_disagreements": ties,
        }

    out_path = os.environ.get(
        "ERASER_REPRO_BENCH_OUT",
        os.path.join(os.path.dirname(__file__), "..", "BENCH_decoder.json"),
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"Decoder fast path vs seed decoder ({POLICY}, cycles={CYCLES}, "
        f"{shots} shots)",
        "\n".join(rows + [f"-> {os.path.abspath(out_path)}"]),
    )

    # Regression guard on the acceptance workload.  Full-size runs must hold
    # the 3x target; CI quick mode only guards against losing the edge.
    if TARGET_DISTANCE in speedups:
        floor = TARGET_SPEEDUP if shots >= 200 else QUICK_SPEEDUP
        assert speedups[TARGET_DISTANCE] >= floor, (
            f"decoder fast path lost its edge at d={TARGET_DISTANCE}: "
            f"{speedups[TARGET_DISTANCE]:.2f}x < {floor}x"
        )
