"""Registry mapping every paper table/figure to its reproduction entry point.

This is the machine-readable index of the paper's evaluation (the experiment
list that used to live in prose documentation): each entry names the workload,
the modules that implement it, and the benchmark that regenerates it, so
tooling (the CLI's ``experiments`` subcommand, documentation builds, CI) can
enumerate the full evaluation.

Monte-Carlo experiments additionally know how to *plan* themselves: their
:class:`ExperimentSpec` carries a builder that emits a
:class:`~repro.experiments.jobs.SweepPlan`, so ``eraser-repro experiments run
fig14 --jobs 4 --cache-dir cache/`` is a one-command, parallel, cached (and
therefore resumable) reproduction of that figure's data.  Analytic,
density-matrix and hardware entries have no plan and point at their benchmark
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.experiments.jobs import SweepPlan
from repro.noise.leakage import LeakageTransportModel
from repro.sim.rng import RngLike

#: Distances the paper sweeps; plans keep those ``<= max_distance``.
_PAPER_DISTANCES = (3, 5, 7, 9, 11)


def _distances(max_distance: int) -> list:
    """Valid (odd, >= 3) paper distances up to ``max_distance``, never empty."""
    selected = [d for d in _PAPER_DISTANCES if d <= max_distance]
    return selected or [min(_PAPER_DISTANCES)]


def _plan_fig2c(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    distance = _distances(max_distance)[0]
    configs = [
        dict(
            distance=distance, policy="no-lrc", shots=shots, cycles=cycles,
            leakage_enabled=leakage_enabled,
        )
        for leakage_enabled in (True, False)
        for cycles in (1, 2, 3, 4, 5)
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def _plan_fig5(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import lpr_time_series_plan

    return lpr_time_series_plan(
        distance=_distances(max_distance)[-1], policies=["always-lrc"], p=1e-3,
        cycles=10, shots=shots, seed=seed, chunk_shots=chunk_shots,
    )


def _plan_fig6(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import ler_vs_cycles_plan

    return ler_vs_cycles_plan(
        _distances(max_distance)[-1], ["always-lrc", "optimal"],
        cycles_list=[2, 6, 10], shots=shots, seed=seed, chunk_shots=chunk_shots,
    )


def _compare_plan(p, decode=True, transport=LeakageTransportModel.REMAIN):
    def build(shots, max_distance, seed, chunk_shots) -> SweepPlan:
        from repro.experiments.sweep import DEFAULT_POLICIES, compare_policies_plan

        return compare_policies_plan(
            distances=_distances(max_distance), policies=DEFAULT_POLICIES, p=p,
            cycles=10, shots=shots, decode=decode, transport_model=transport,
            seed=seed, chunk_shots=chunk_shots,
        )

    return build


#: Wilson half-width target of the ``ler-low-p-adaptive`` entry.  Loose
#: enough that the quick CI settings (a few hundred shots per job) reach it
#: and stop early, tight enough that the stopping rule is exercised (a
#: zero-failure job needs ~75 shots before the Wilson upper bound drops
#: under it: halfwidth(0, n) ~= 1.92 / (n + 3.84)).
LOW_P_ADAPTIVE_TARGET = 2.5e-2


def _plan_low_p_adaptive(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    """The fig14b grid under a stopping-rule target."""
    from repro.experiments.adaptive import AdaptiveConfig

    plan = _compare_plan(1e-4)(shots, max_distance, seed, chunk_shots)
    plan.adaptive = AdaptiveConfig(target_ci_halfwidth=LOW_P_ADAPTIVE_TARGET)
    return plan


def _plan_fig15(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import DEFAULT_POLICIES, lpr_time_series_plan

    return lpr_time_series_plan(
        distance=_distances(max_distance)[-1], policies=DEFAULT_POLICIES,
        p=1e-3, cycles=10, shots=shots, seed=seed, chunk_shots=chunk_shots,
    )


def _plan_fig20(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.dqlr.protocol import dqlr_comparison_plan

    return dqlr_comparison_plan(
        distances=_distances(max_distance), p=1e-3, cycles=10, shots=shots,
        seed=seed, chunk_shots=chunk_shots,
    )


def _plan_ablations(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import ablation_plan

    return ablation_plan(
        min(_distances(max_distance)[-1], 5), shots, seed=seed, chunk_shots=chunk_shots,
    )


def _plan_bias(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import ler_vs_bias_plan

    return ler_vs_bias_plan(
        distance=_distances(max_distance)[-1], shots=shots, seed=seed,
        chunk_shots=chunk_shots,
    )


def _plan_heterogeneous(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import ler_heterogeneous_plan

    return ler_heterogeneous_plan(
        distance=_distances(max_distance)[-1], shots=shots, seed=seed,
        chunk_shots=chunk_shots,
    )


def _plan_repetition(shots, max_distance, seed, chunk_shots) -> SweepPlan:
    from repro.experiments.sweep import DEFAULT_POLICIES, compare_policies_plan

    return compare_policies_plan(
        distances=_distances(max_distance), policies=DEFAULT_POLICIES, p=1e-3,
        cycles=10, shots=shots, code_family="repetition", seed=seed,
        chunk_shots=chunk_shots,
    )


def _render(style: str):
    """Render hook bound to a named renderer style.

    Resolved lazily so the registry never imports the (matplotlib-optional)
    report package unless a report is actually rendered — mirroring how plan
    builders lazily import the sweep helpers.
    """

    def hook(spec: "ExperimentSpec", context) -> object:
        from repro.report.renderers import get_renderer

        return get_renderer(style)(spec, context)

    return hook


#: Valid :attr:`ExperimentSpec.kind` values.  ``sweep`` entries are
#: Monte-Carlo; the others are closed-form or deterministic simulations.
EXPERIMENT_KINDS = ("sweep", "analytic", "density-matrix", "hardware")


@dataclass(frozen=True)
class ExperimentSpec:
    """One table or figure of the paper and how this repository reproduces it.

    Attributes:
        experiment_id: Short identifier (e.g. ``fig14``, ``table3``).
        title: What the experiment shows.
        workload: Workload and key parameters used by the paper.
        modules: Library modules implementing the pieces.
        benchmark: Benchmark file that regenerates the data.
        kind: One of :data:`EXPERIMENT_KINDS` — distinguishes Monte-Carlo
            sweeps from analytic / density-matrix / hardware entries so the
            CLI index and the report label entries consistently.
        plan: Optional builder ``(shots, max_distance, seed, chunk_shots) ->
            SweepPlan`` for Monte-Carlo experiments; ``None`` for entries
            that are not plan-backed, which run via their benchmark.
        render: Report hook ``(spec, RenderContext) -> ExperimentArtifact``
            producing this entry's figures/tables for ``eraser-repro report``.
    """

    experiment_id: str
    title: str
    workload: str
    modules: Tuple[str, ...]
    benchmark: str
    kind: str = "sweep"
    plan: Optional[Callable[..., SweepPlan]] = field(default=None, compare=False)
    render: Optional[Callable] = field(default=None, compare=False)

    @property
    def has_plan(self) -> bool:
        return self.plan is not None

    @property
    def has_render(self) -> bool:
        return self.render is not None

    def make_plan(
        self,
        shots: int = 200,
        max_distance: int = 5,
        seed: RngLike = None,
        chunk_shots: Optional[int] = None,
    ) -> SweepPlan:
        """Emit this experiment's sweep plan (raises for plan-less entries)."""
        if self.plan is None:
            raise ValueError(
                f"experiment {self.experiment_id!r} has no sweep plan; "
                f"run its benchmark instead: {self.benchmark}"
            )
        return self.plan(shots, max_distance, seed, chunk_shots)

    def render_artifact(self, context):
        """Produce this entry's report artifact (raises for hook-less entries)."""
        if self.render is None:
            raise ValueError(
                f"experiment {self.experiment_id!r} has no report renderer; "
                f"run its benchmark instead: {self.benchmark}"
            )
        return self.render(self, context)


_SPECS = (
    ExperimentSpec(
        "fig2c",
        "Leakage errors sharply degrade the logical error rate",
        "memory-Z, d=3 (paper: d=7), p=1e-3, 1-5 QEC cycles, with/without leakage",
        ("repro.experiments.sweep", "repro.core.policies"),
        "benchmarks/bench_fig02_leakage_impact.py",
        plan=_plan_fig2c,
        render=_render("ler_vs_cycles"),
    ),
    ExperimentSpec(
        "eq1-2",
        "LRCs facilitate leakage transport (analytic + Monte-Carlo)",
        "single stabilizer, p_leak=1e-4, p_transport=0.1",
        ("repro.analysis.analytic", "repro.sim.frame_simulator"),
        "benchmarks/bench_eq12_transport.py",
        kind="analytic",
        render=_render("transport_analytic"),
    ),
    ExperimentSpec(
        "table2",
        "Probability a leaked data qubit stays invisible for r rounds",
        "analytic, four-neighbour data qubit",
        ("repro.analysis.analytic",),
        "benchmarks/bench_table2_invisible.py",
        kind="analytic",
        render=_render("invisible_table"),
    ),
    ExperimentSpec(
        "fig5",
        "LPR under Always-LRCs, split into data and parity qubits",
        "memory-Z, d=5 (paper: d=7), p=1e-3, 10 cycles",
        ("repro.experiments.memory", "repro.core.policies.always_lrc"),
        "benchmarks/bench_fig05_lpr_always.py",
        plan=_plan_fig5,
        render=_render("lpr_time_series"),
    ),
    ExperimentSpec(
        "fig6",
        "Always-LRCs versus idealized (Optimal) scheduling",
        "memory-Z, d=5 (paper: d=7), p=1e-3, 10 cycles",
        ("repro.experiments.sweep", "repro.core.policies.optimal"),
        "benchmarks/bench_fig06_always_vs_optimal.py",
        plan=_plan_fig6,
        render=_render("ler_vs_cycles"),
    ),
    ExperimentSpec(
        "fig8",
        "Density-matrix study of leakage spread across one Z stabilizer",
        "five ququarts, RX(0.65*pi) faulty CNOTs, transport 0.1",
        ("repro.densitymatrix.study", "repro.densitymatrix.dm"),
        "benchmarks/bench_fig08_density_matrix.py",
        kind="density-matrix",
        render=_render("density_study"),
    ),
    ExperimentSpec(
        "fig14",
        "LER vs code distance for Always/ERASER/ERASER+M/Optimal at p=1e-3",
        "memory-Z, d=3..11 (default 3..5), 10 cycles",
        ("repro.experiments.sweep", "repro.core.policies", "repro.decoder"),
        "benchmarks/bench_fig14_ler_vs_distance.py",
        plan=_compare_plan(1e-3),
        render=_render("ler_vs_distance"),
    ),
    ExperimentSpec(
        "fig14b",
        "LER vs code distance at the lower physical error rate p=1e-4",
        "memory-Z, d=3..5, 10 cycles",
        ("repro.experiments.sweep",),
        "benchmarks/bench_fig14b_low_error_rate.py",
        plan=_compare_plan(1e-4),
        render=_render("ler_vs_distance"),
    ),
    ExperimentSpec(
        "ler-low-p-adaptive",
        "LER vs distance at p=1e-4 under the sequential stopping rule",
        "memory-Z, d=3..5, 10 cycles, Wilson half-width target 2.5e-2",
        ("repro.experiments.adaptive", "repro.experiments.sweep"),
        "benchmarks/bench_adaptive_allocation.py",
        plan=_plan_low_p_adaptive,
        render=_render("ler_vs_distance"),
    ),
    ExperimentSpec(
        "fig15",
        "LPR over time for all four policies",
        "memory-Z, d=5 (paper: d=11), p=1e-3, 10 cycles",
        ("repro.experiments.sweep",),
        "benchmarks/bench_fig15_lpr_policies.py",
        plan=_plan_fig15,
        render=_render("lpr_time_series"),
    ),
    ExperimentSpec(
        "fig16",
        "LRC speculation accuracy, FPR and FNR",
        "memory-Z, d=3..5 (paper: 3..11), p=1e-3, 10 cycles",
        ("repro.experiments.metrics", "repro.core.lsb"),
        "benchmarks/bench_fig16_speculation.py",
        plan=_compare_plan(1e-3, decode=False),
        render=_render("speculation"),
    ),
    ExperimentSpec(
        "table3",
        "FPGA utilisation and latency of the ERASER controller",
        "Kintex UltraScale+ xcku3p, d=3..11",
        ("repro.hardware.cost_model", "repro.hardware.rtl_gen"),
        "benchmarks/bench_table3_fpga.py",
        kind="hardware",
        render=_render("fpga_table"),
    ),
    ExperimentSpec(
        "table4",
        "Average LRCs scheduled per round per policy",
        "memory-Z, d=3..5 (paper: 3..11), p=1e-3, 10 cycles",
        ("repro.experiments.sweep",),
        "benchmarks/bench_table4_lrc_counts.py",
        plan=_compare_plan(1e-3),
        render=_render("lrc_counts"),
    ),
    ExperimentSpec(
        "fig17",
        "LER/LPR under the alternative (exchange) leakage-transport model",
        "memory-Z, d=3..5, p=1e-3, exchange transport",
        ("repro.noise.leakage", "repro.experiments.sweep"),
        "benchmarks/bench_fig17_alt_transport.py",
        plan=_compare_plan(1e-3, transport=LeakageTransportModel.EXCHANGE),
        render=_render("ler_vs_distance"),
    ),
    ExperimentSpec(
        "fig20",
        "Scheduling Google's DQLR protocol with ERASER",
        "memory-Z, d=3..5, p=1e-3, DQLR protocol, exchange transport",
        ("repro.dqlr.protocol", "repro.core.qsg"),
        "benchmarks/bench_fig20_dqlr.py",
        plan=_plan_fig20,
        render=_render("ler_vs_distance"),
    ),
    ExperimentSpec(
        "ablations",
        "Design-choice ablations: speculation threshold, backups, matcher",
        "memory-Z, d=5, p=1e-3, 10 cycles",
        ("repro.core.lsb", "repro.core.dli", "repro.decoder.matching"),
        "benchmarks/bench_ablation_design_choices.py",
        plan=_plan_ablations,
        render=_render("ablations"),
    ),
    ExperimentSpec(
        "ler-vs-bias",
        "LER under Z-biased depolarising noise (scenario diversity)",
        "memory-Z, d=5, p=1e-3, 10 cycles, bias eta in {1, 2, 4, 10}",
        ("repro.noise.profiles", "repro.experiments.sweep"),
        "benchmarks/bench_scenario_noise_profiles.py",
        plan=_plan_bias,
        render=_render("ler_vs_profile"),
    ),
    ExperimentSpec(
        "ler-heterogeneous",
        "LER under log-normal per-qubit rate heterogeneity (scenario diversity)",
        "memory-Z, d=5, p=1e-3, 10 cycles, spread in {0, 0.5, 1}",
        ("repro.noise.profiles", "repro.experiments.sweep"),
        "benchmarks/bench_scenario_noise_profiles.py",
        plan=_plan_heterogeneous,
        render=_render("ler_vs_profile"),
    ),
    ExperimentSpec(
        "repetition-baseline",
        "Repetition-code family under every policy (scenario diversity)",
        "memory-Z repetition code, d=3..5, p=1e-3, 10 cycles",
        ("repro.codes.repetition", "repro.experiments.sweep"),
        "benchmarks/bench_scenario_repetition.py",
        plan=_plan_repetition,
        render=_render("ler_vs_distance"),
    ),
)

EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.experiment_id: spec for spec in _SPECS}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (raises KeyError with a helpful message)."""
    key = experiment_id.strip().lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def spec_marker(spec: ExperimentSpec) -> str:
    """How an entry runs: plan-backed sweeps vs analytic/hardware benchmarks.

    The same marker text appears in ``eraser-repro experiments list`` and in
    the report index, so the two stay consistent.
    """
    if spec.has_plan:
        return f"[{spec.kind}: experiments run]"
    return f"[{spec.kind}: benchmark only]"


def format_experiment_index() -> str:
    """Plain-text index of every experiment (used by the CLI)."""
    lines = []
    for spec in _SPECS:
        lines.append(f"{spec.experiment_id:<10s} {spec.title}  {spec_marker(spec)}")
        lines.append(f"{'':<10s}   workload : {spec.workload}")
        lines.append(f"{'':<10s}   modules  : {', '.join(spec.modules)}")
        lines.append(f"{'':<10s}   benchmark: {spec.benchmark}")
    return "\n".join(lines)
