"""Scenario diversity: the repetition-code family under every policy.

Regenerates the data behind the ``repetition-baseline`` registry entry: a
Figure 14-shaped LER-vs-distance sweep with ``code_family="repetition"``.
The repetition code detects only bit flips, so at equal distance its logical
error rate sits well below the surface code's — the benchmark asserts that
every policy produces a valid LER and that the Optimal oracle does not do
worse than static Always-LRCs scheduling.
"""

from conftest import emit

from repro.analysis.tables import series_table
from repro.experiments.sweep import DEFAULT_POLICIES, compare_policies


def _run(distances, shots, seed, engine="packed", batch_size=None, sweep_opts=None):
    return compare_policies(
        distances=distances,
        policies=DEFAULT_POLICIES,
        p=1e-3,
        cycles=10,
        shots=shots,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        code_family="repetition",
        **(sweep_opts or {}),
    )


def test_scenario_repetition_baseline(
    benchmark, shots, distances, seed, engine, batch_size, sweep_opts
):
    sweep = benchmark.pedantic(
        _run,
        args=(distances, shots, seed, engine, batch_size, sweep_opts),
        iterations=1,
        rounds=1,
    )
    emit(
        f"Repetition-code baseline: LER vs distance, p=1e-3, 10 cycles, "
        f"{shots} shots/point",
        sweep.format_table()
        + "\n\n"
        + series_table(sweep.ler_table(), x_label="distance"),
    )
    table = sweep.ler_table()
    d = max(distances)
    assert table["optimal"][d] <= table["always-lrc"][d] + 2.0 / shots
    for values in table.values():
        assert all(0.0 <= ler <= 1.0 for ler in values.values())
