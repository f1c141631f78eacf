"""Parameter sweeps used by the CLI, the benchmark harness and the examples.

Every table and figure of the paper can be regenerated with a single call:

* :func:`ler_vs_distance` — Figure 14 / 17 / 20 style sweeps (LER vs distance
  for several policies),
* :func:`lpr_time_series` — Figure 5 / 6 / 15 / 18 / 21 style leakage
  population ratio traces,
* :func:`compare_policies` — a general sweep returning a
  :class:`~repro.experiments.results.PolicySweepResult`.

Sweeps are *planned* and then *executed*.  Each helper's ``*_plan`` twin
expands the parameter grid into a :class:`~repro.experiments.jobs.SweepPlan`
— one seeded :class:`~repro.experiments.jobs.SweepJob` per configuration,
with child seeds fanned out via ``numpy.random.SeedSequence.spawn`` — and the
helper hands that builder to :func:`run_sweep`, which runs the plan on a
:class:`~repro.experiments.executor.SweepExecutor`.  A helper takes its
builder's grid arguments plus the execution knobs of :data:`RUN_OPTIONS`:

* ``jobs`` — worker processes (``1`` = in-process; results are bit-identical
  either way),
* ``cache_dir`` — content-addressed on-disk result cache; reruns of any
  configuration already computed there skip its Monte-Carlo work entirely,
* ``resume`` — reuse the default cache directory so an interrupted sweep
  continues from the configurations already finished,
* ``executor`` — a pre-built executor (overrides the three above),
* ``decoder_artifact_dir`` — persistent decoder-artifact store,
* ``adaptive`` — a sequential stopping rule set on the plan
  (:mod:`repro.experiments.adaptive`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.qsg import PROTOCOL_SWAP
from repro.experiments.executor import SweepExecutor, warn_unseeded_cache
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.results import MemoryExperimentResult, PolicySweepResult
from repro.noise.leakage import LeakageTransportModel
from repro.noise.profiles import NoiseProfile
from repro.sim.rng import RngLike

DEFAULT_POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal")


#: Keywords of :func:`run_sweep` that configure execution, not the grid.
RUN_OPTIONS = (
    "jobs", "cache_dir", "resume", "executor", "decoder_artifact_dir", "adaptive",
)


def run_sweep(
    plan_builder: Callable[..., SweepPlan], *args, **options
) -> List[MemoryExperimentResult]:
    """Build ``plan_builder(*args, **grid)`` and execute it, in plan order.

    ``options`` holds the builder's grid keywords plus any of
    :data:`RUN_OPTIONS` (see the module docstring).
    """
    run = {key: options.pop(key) for key in RUN_OPTIONS if key in options}
    plan = plan_builder(*args, **options)
    adaptive = run.pop("adaptive", None)
    if adaptive is not None:
        plan = replace(plan, adaptive=adaptive)
    executor = run.pop("executor", None)
    if executor is None:
        warn_unseeded_cache(
            options.get("seed"), run.get("cache_dir"), run.get("resume", False)
        )
        executor = SweepExecutor(**run)
    return executor.run(plan)


def _config(
    distance: int,
    policy_name: str,
    p: float,
    shots: int,
    cycles: Optional[int] = None,
    rounds: Optional[int] = None,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    engine: str = "packed",
    batch_size: Optional[int] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> Dict[str, object]:
    """One grid point in the dict form consumed by :meth:`SweepPlan.build`."""
    return dict(
        distance=distance,
        policy=policy_name,
        p=p,
        shots=shots,
        cycles=cycles,
        rounds=rounds,
        leakage_enabled=leakage_enabled,
        transport_model=transport_model,
        protocol=protocol,
        decode=decode,
        decoder_method=decoder_method,
        engine=engine,
        batch_size=batch_size,
        code_family=code_family,
        noise_profile=noise_profile,
    )


def run_single_plan(
    distance: int,
    policy_name: str,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    rounds: Optional[int] = None,
    engine: str = "packed",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """A one-job plan for a single (distance, policy) configuration."""
    return SweepPlan.build(
        [
            _config(
                distance,
                policy_name,
                p,
                shots,
                cycles=cycles if rounds is None else None,
                rounds=rounds,
                leakage_enabled=leakage_enabled,
                transport_model=transport_model,
                protocol=protocol,
                decode=decode,
                decoder_method=decoder_method,
                engine=engine,
                batch_size=batch_size,
                code_family=code_family,
                noise_profile=noise_profile,
            )
        ],
        seed=seed,
        chunk_shots=chunk_shots,
    )


def run_single(*args, **options) -> MemoryExperimentResult:
    """Run one (distance, policy) configuration and return its result.

    Takes the arguments of :func:`run_single_plan` and :data:`RUN_OPTIONS`.
    """
    return run_sweep(run_single_plan, *args, **options)[0]


def compare_policies_plan(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "packed",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """The (distance x policy) grid behind Figures 14-17 and 20 as a plan."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            leakage_enabled=leakage_enabled,
            transport_model=transport_model,
            protocol=protocol,
            decode=decode,
            decoder_method=decoder_method,
            engine=engine,
            batch_size=batch_size,
            code_family=code_family,
            noise_profile=noise_profile,
        )
        for distance in distances
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def compare_policies(*args, **options) -> PolicySweepResult:
    """Sweep policies across code distances (the shape behind Figures 14-17, 20).

    Takes the arguments of :func:`compare_policies_plan` and
    :data:`RUN_OPTIONS`.  ``adaptive`` enables the sequential stopping rule
    on every decode job (see :mod:`repro.experiments.adaptive`): each
    (distance, policy) point runs only until the Wilson interval on its LER
    meets the target, which is what makes the low-``p`` Figure 14(b) regime
    affordable.
    """
    return PolicySweepResult(run_sweep(compare_policies_plan, *args, **options))


def ler_vs_distance(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    **kwargs,
) -> Dict[str, Dict[int, float]]:
    """Logical error rate per policy per distance (Figure 14 series)."""
    sweep = compare_policies(distances, policies, decode=True, **kwargs)
    return sweep.ler_table()


def lpr_time_series_plan(
    distance: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 50,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    seed: RngLike = None,
    engine: str = "packed",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """The per-policy LPR trace sweep as a plan (decoding disabled)."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            transport_model=transport_model,
            protocol=protocol,
            decode=False,
            engine=engine,
            batch_size=batch_size,
            code_family=code_family,
            noise_profile=noise_profile,
        )
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def lpr_time_series(*args, **options) -> Dict[str, np.ndarray]:
    """Per-round leakage population ratio per policy (Figures 5, 15, 18, 21).

    Takes the arguments of :func:`lpr_time_series_plan` and
    :data:`RUN_OPTIONS`.  Decoding is disabled because the LPR does not
    depend on it, which makes these long time-series sweeps much faster.
    """
    results = run_sweep(lpr_time_series_plan, *args, **options)
    return {result.policy: result.lpr_total for result in results}


#: Design-choice ablation axes (Section 5): LSB speculation threshold,
#: SWAP-table backup count, and decoding-graph matching engine.  Shared by
#: the registry plan, the report renderer and the ablation benchmark so the
#: three can never drift.
ABLATION_THRESHOLDS = (1, 2, 4)
ABLATION_BACKUPS = (0, 1, 3)
ABLATION_MATCHERS = ("mwpm", "greedy")


def ablation_plan(
    distance: int,
    shots: int,
    p: float = 1e-3,
    cycles: int = 10,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """The Section 5 design-choice grid: one ERASER config per axis point."""
    base = dict(distance=distance, policy="eraser", shots=shots, p=p, cycles=cycles)
    configs = (
        [dict(base, policy_kwargs={"speculation_threshold_override": t}) for t in ABLATION_THRESHOLDS]
        + [dict(base, policy_kwargs={"num_backups": b}) for b in ABLATION_BACKUPS]
        + [dict(base, decoder_method=m) for m in ABLATION_MATCHERS]
    )
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ablation_label(job: SweepJob) -> str:
    """Which ablation axis point a job of :func:`ablation_plan` represents."""
    kwargs = dict(job.policy_kwargs)
    if "speculation_threshold_override" in kwargs:
        return f"threshold={kwargs['speculation_threshold_override']}"
    if "num_backups" in kwargs:
        return f"backups={kwargs['num_backups']}"
    return f"matcher={job.decoder_method}"


def ler_vs_cycles_plan(
    distance: int,
    policies: Sequence[str],
    cycles_list: Sequence[int],
    p: float = 1e-3,
    shots: int = 100,
    leakage_enabled: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "packed",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """The (cycles x policy) grid behind Figures 1(c), 2(c) and 6 as a plan."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            leakage_enabled=leakage_enabled,
            decoder_method=decoder_method,
            engine=engine,
            batch_size=batch_size,
        )
        for cycles in cycles_list
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ler_vs_cycles(*args, **options) -> Dict[str, Dict[int, float]]:
    """LER as a function of the number of QEC cycles (Figures 1(c), 2(c), 6).

    Takes the arguments of :func:`ler_vs_cycles_plan` and :data:`RUN_OPTIONS`.
    """
    results = run_sweep(ler_vs_cycles_plan, *args, **options)
    table: Dict[str, Dict[int, float]] = {}
    for result in results:
        cycles = result.rounds // result.distance
        table.setdefault(result.policy, {})[cycles] = result.logical_error_rate
    return table


#: Scenario-diversity axes beyond the paper's uniform Section 5.2.1 model.
#: Shared by the registry entries, the report renderers and the scenario
#: benchmark so the three can never drift.
BIAS_ETAS = (1.0, 2.0, 4.0, 10.0)
HETEROGENEOUS_SPREADS = (0.0, 0.5, 1.0)
#: Fixed profile seed of the registry's heterogeneous sweep (the profile draw
#: is seeded separately from the Monte-Carlo stream, so this pins *which*
#: per-qubit rate landscape every run of the entry sees).
HETEROGENEOUS_PROFILE_SEED = 7


def ler_vs_bias_plan(
    distance: int,
    policies: Sequence[str] = ("always-lrc", "eraser"),
    etas: Sequence[float] = BIAS_ETAS,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """LER under Z-biased depolarising noise, one job per (policy, eta).

    ``eta = 1`` is the paper's uniform Pauli mix, so the sweep's first column
    doubles as a consistency anchor against the Figure 14 numbers.
    """
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            noise_profile=NoiseProfile.biased(eta),
        )
        for eta in etas
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ler_heterogeneous_plan(
    distance: int,
    policies: Sequence[str] = ("always-lrc", "eraser"),
    spreads: Sequence[float] = HETEROGENEOUS_SPREADS,
    profile_seed: int = HETEROGENEOUS_PROFILE_SEED,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """LER under log-normal per-qubit rate heterogeneity, per (policy, spread).

    ``spread = 0`` degenerates to uniform per-qubit arrays, whose statistics
    are bit-identical to the scalar fast path (the differential suite pins
    this), anchoring the sweep to the paper's operating point.
    """
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            noise_profile=NoiseProfile.heterogeneous(profile_seed, spread),
        )
        for spread in spreads
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)
