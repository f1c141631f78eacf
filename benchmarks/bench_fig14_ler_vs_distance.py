"""Figure 14: logical error rate vs code distance for the four policies.

The paper reports, at p=1e-3 over 10 QEC cycles, that ERASER improves the LER
over Always-LRCs by 3.3x on average (up to 4.3x) and that ERASER+M approaches
the Optimal bound.  The absolute values here carry large error bars at laptop
shot counts; the benchmark asserts only the policy ordering at the largest
swept distance.
"""

from conftest import emit

from repro.analysis.tables import series_table
from repro.experiments.sweep import compare_policies

POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal")


def _run(distances, shots, seed, engine="packed", batch_size=None, sweep_opts=None):
    return compare_policies(
        distances=distances,
        policies=POLICIES,
        p=1e-3,
        cycles=10,
        shots=shots,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        **(sweep_opts or {}),
    )


def test_fig14_ler_vs_distance(
    benchmark, shots, distances, seed, engine, batch_size, sweep_opts
):
    sweep = benchmark.pedantic(
        _run,
        args=(distances, shots, seed, engine, batch_size, sweep_opts),
        iterations=1,
        rounds=1,
    )
    emit(
        f"Figure 14: LER vs distance, p=1e-3, 10 cycles, {shots} shots/point",
        sweep.format_table() + "\n\n" + series_table(sweep.ler_table(), x_label="distance"),
    )
    table = sweep.ler_table()
    d = max(distances)
    # Shape check (the headline claim): adaptive scheduling does not do worse
    # than static Always-LRCs, and the Optimal oracle bounds ERASER from below.
    assert table["eraser"][d] <= table["always-lrc"][d] + 2.0 / shots
    assert table["optimal"][d] <= table["eraser"][d] + 2.0 / shots
