"""Packed (bit-parallel) vs scalar Monte-Carlo engine cost per shot.

Times ``MemoryExperiment.run`` on the same d=5 workload with the scalar
reference engine and the packed engine across every scheduling policy.  The
packed engine carries the X/Z/leakage frames as 64-shot machine words and
runs all circuit kernels as word-wide bitwise operations, unpacking only at
the syndrome-extraction boundary, so its advantage grows with the shot count
until memory bandwidth saturates.  The scalar engine's cost is flat per shot,
so it is timed on :data:`SCALAR_SHOTS` shots only and the two engines are
compared by *cost per shot*.

Three lanes are reported per policy:

* **sim-only** (``decode=False``) — the engine metric.  The MWPM decoder is
  shared by both engines, so this lane isolates the Monte-Carlo kernels the
  packed engine replaces.  Full-size runs (10k shots) must hold
  :data:`TARGET_SPEEDUP`; quick runs :data:`QUICK_SPEEDUP`, both on the
  worst policy.
* **decode-on** — cost per shot with the decoder running, recorded for
  honesty about what a full experiment gains (the decoder cost dilutes the
  ratio).
* **decode-on, artifact-warm** — the packed decode-on lane rerun with the
  shared-graph registry cleared before every repeat (emulating a fresh
  process) against a populated decoder-artifact store
  (:mod:`repro.decoder.artifacts`), vs the same fresh start without a
  store.  This measures what every pool worker gains from mmap-loading the
  decoding-graph tables instead of rebuilding them.

The numbers, with the workload settings and the interpreter/numpy versions
that produced them, are written to ``BENCH_packed.json`` at the repository
root.  Statistical equivalence between the engines is certified separately
by ``tests/test_batched_equivalence.py``; this benchmark only asserts the
throughput floor.

Environment knobs (see ``conftest.py``): ``ERASER_REPRO_SHOTS`` is
*ignored* here in favour of ``ERASER_REPRO_PACKED_SHOTS`` (packed shots,
default 10000 — the acceptance shot count; CI quick mode sets it lower),
plus ``ERASER_REPRO_SEED`` and ``ERASER_REPRO_BENCH_OUT`` to redirect the
JSON.
"""

import json
import os
import platform
import tempfile
import time

import numpy as np
from conftest import _int_env, emit

from repro.core.policies import make_policy
from repro.decoder.graph import clear_shared_graphs
from repro.experiments.memory import MemoryExperiment

POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal", "no-lrc")
DISTANCE = 5
CYCLES = 2
REPEATS = 2

#: Shots of every scalar run: its cost per shot does not depend on the
#: shot count, so a short run prices it.
SCALAR_SHOTS = 200

#: Acceptance workload: 10k packed shots, d=5, sim-only lane.
TARGET_SHOTS = 10_000
TARGET_SPEEDUP = 25.0
QUICK_SPEEDUP = 10.0


def _time_run(policy_name, engine, shots, seed, decode,
              artifact_dir=None, fresh_start=False):
    """Best-of-:data:`REPEATS` seconds per shot, and the last result."""
    def build():
        return MemoryExperiment(
            distance=DISTANCE,
            policy=make_policy(policy_name),
            cycles=CYCLES,
            seed=seed,
            engine=engine,
            decode=decode,
            decoder_artifact_dir=artifact_dir,
        )

    # ``fresh_start`` emulates a new worker process: the shared-graph
    # registry is dropped before every repeat, so each run pays the full
    # decoding-graph table preparation (or skips it via the artifact store).
    experiment = None if fresh_start else build()
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        if fresh_start:
            clear_shared_graphs()
            experiment = build()
        start = time.perf_counter()
        result = experiment.run(shots)
        best = min(best, time.perf_counter() - start)
    return best / shots, result


def test_packed_vs_scalar_cost_per_shot(seed):
    shots = _int_env("ERASER_REPRO_PACKED_SHOTS", TARGET_SHOTS)
    scalar_shots = min(shots, SCALAR_SHOTS)
    rows = []
    report = {
        "workload": {
            "distance": DISTANCE,
            "cycles": CYCLES,
            "packed_shots": shots,
            "scalar_shots": scalar_shots,
            "seed": seed,
            "repeats": REPEATS,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "policies": {},
    }
    sim_speedups = {}
    with tempfile.TemporaryDirectory() as artifact_dir:
        for policy_name in POLICIES:
            s_scalar, _ = _time_run(policy_name, "scalar", scalar_shots, seed, False)
            s_packed, _ = _time_run(policy_name, "packed", shots, seed, False)
            s_scalar_dec, rs_dec = _time_run(policy_name, "scalar", scalar_shots, seed, True)
            s_packed_dec, rp_dec = _time_run(policy_name, "packed", shots, seed, True)
            # Artifact-warm lane: fresh-start packed decode without a store
            # (per-process cold baseline) vs against the populated store.
            s_cold_start, _ = _time_run(
                policy_name, "packed", shots, seed, True, fresh_start=True
            )
            _time_run(  # populate the store outside the timed window
                policy_name, "packed", min(shots, 64), seed, True,
                artifact_dir=artifact_dir, fresh_start=True,
            )
            s_art_warm, r_art = _time_run(
                policy_name, "packed", shots, seed, True,
                artifact_dir=artifact_dir, fresh_start=True,
            )
            sim_speedups[policy_name] = s_scalar / s_packed
            rows.append(
                f"{policy_name:>10s}  sim-only: scalar {s_scalar * 1e6:8.1f}us/shot"
                f"  packed {s_packed * 1e6:6.1f}us/shot  {sim_speedups[policy_name]:6.1f}x"
                f"   decode-on: {s_scalar_dec / s_packed_dec:5.1f}x"
                f"   artifact-warm: {s_cold_start / s_art_warm:5.2f}x"
                f"  LER {rs_dec.logical_error_rate:.4f}/{rp_dec.logical_error_rate:.4f}"
            )
            report["policies"][policy_name] = {
                "sim_only": {
                    "scalar_us_per_shot": s_scalar * 1e6,
                    "packed_us_per_shot": s_packed * 1e6,
                    "speedup": sim_speedups[policy_name],
                },
                "decode_on": {
                    "scalar_us_per_shot": s_scalar_dec * 1e6,
                    "packed_us_per_shot": s_packed_dec * 1e6,
                    "speedup": s_scalar_dec / s_packed_dec,
                },
                "decode_on_artifact_warm": {
                    "cold_start_us_per_shot": s_cold_start * 1e6,
                    "artifact_warm_us_per_shot": s_art_warm * 1e6,
                    "speedup": s_cold_start / s_art_warm,
                    "logical_error_rate": r_art.logical_error_rate,
                },
                "lrcs_per_round": {
                    "scalar": rs_dec.lrcs_per_round,
                    "packed": rp_dec.lrcs_per_round,
                },
                "logical_error_rate": {
                    "scalar": rs_dec.logical_error_rate,
                    "packed": rp_dec.logical_error_rate,
                },
            }
    clear_shared_graphs()

    out_path = os.environ.get(
        "ERASER_REPRO_BENCH_OUT",
        os.path.join(os.path.dirname(__file__), "..", "BENCH_packed.json"),
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"Packed vs scalar engine, d={DISTANCE}, {CYCLES * DISTANCE} rounds, "
        f"{shots} packed / {scalar_shots} scalar shots",
        "\n".join(rows + [f"-> {os.path.abspath(out_path)}"]),
    )

    # Regression guard on the worst policy's sim-only cost-per-shot ratio.
    floor = TARGET_SPEEDUP if shots >= TARGET_SHOTS else QUICK_SPEEDUP
    worst = min(sim_speedups.values())
    assert worst >= floor, (
        f"packed engine lost its edge over scalar: {sim_speedups} (floor {floor}x)"
    )
