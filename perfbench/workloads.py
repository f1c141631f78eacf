"""The benchmark's workloads: how each is set up, called, summarised and checked.

Every workload makes exactly one public call into ``repro``:
``ReportBuilder.build()`` or ``MemoryExperiment.run()``.  The set-up before
it is split into imports and construction, so the runner can time each.
After the call, :meth:`Workload.summarize` reduces the output to plain data
and :meth:`Workload.check` validates that data.  The checks hold for any
correct program, including one with another random stream or matching
tie-break, so they pin invariants and statistical bands, not seeded counts.

This module imports only the standard library; ``repro`` is imported inside
:meth:`Workload.imports`, which the runner times.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Dict, List

#: Registry ids a full report renders (``index.md`` must list each one).
REPORT_IDS = (
    "fig2c", "eq1-2", "table2", "fig5", "fig6", "fig8", "fig14", "fig14b",
    "ler-low-p-adaptive", "fig15", "fig16", "table3", "table4", "fig17",
    "fig20", "ablations", "ler-vs-bias", "ler-heterogeneous",
    "repetition-baseline",
)

#: CSV columns that hold a logical error rate (or a bound of its interval).
LER_COLUMNS = ("ler", "logical_error_rate", "ler_ci_low", "ler_ci_high")

#: The d=7 configuration both single-experiment workloads run (one fig14 point).
D7 = {"distance": 7, "cycles": 10, "policy": "eraser", "p": 1e-3}

#: Shots of ``decode-d7``: about 10 s of mostly decoding.
DECODE_D7_SHOTS = 4096

#: Shots of ``lpr-d7``: one full packed batch.
LPR_D7_SHOTS = 16384

#: Reference LER of the ``decode-d7`` configuration, and the shots it rests
#: on: 5143 logical errors in 40960 shots (ten 4096-shot runs, seeds 101-110,
#: default engine and decoder).
DECODE_D7_REFERENCE_LER = 5143 / 40960
DECODE_D7_REFERENCE_SHOTS = 40960

#: Half-width of the LER band, in standard errors of the difference between
#: a run and the reference.  At 5 a correct program fails it about once in
#: two million runs.
LER_BAND_SIGMAS = 5.0


class Workload:
    """One benchmark workload."""

    name = ""
    why = ""

    def imports(self) -> Dict[str, object]:
        """Import what the workload needs; returns the names it uses."""
        raise NotImplementedError

    def construct(self, names: Dict[str, object], seed: int, tmp: Path) -> Callable[[], object]:
        """Build the objects; returns the call to time."""
        raise NotImplementedError

    def summarize(self, result: object, tmp: Path) -> Dict[str, object]:
        """Plain-data summary of the call's output (what :meth:`check` reads)."""
        raise NotImplementedError

    def check(self, summary: Dict[str, object]) -> List[str]:
        """Problems found in ``summary``; empty when the output is correct."""
        raise NotImplementedError


class ReportCold(Workload):
    name = "report-cold"
    why = (
        "cold default report (19 ids, 200 shots, d<=5): the headline number, "
        "and the only workload that runs orchestration and the renderers"
    )

    def imports(self):
        from repro.report.builder import ReportBuilder

        return {"ReportBuilder": ReportBuilder}

    def construct(self, names, seed, tmp):
        builder = names["ReportBuilder"](
            output_dir=str(tmp / "report"),
            cache_dir=str(tmp / "cache"),
            seed=seed,
            jobs=1,
            figures=False,
        )
        return builder.build

    def summarize(self, result, tmp):
        from repro.experiments.store import ResultStore

        output = Path(result.output_dir)
        index = result.index_path.read_text(encoding="utf-8")
        ler_values = []
        for path in sorted(output.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            columns = [i for i, h in enumerate(rows[0]) if h.lower() in LER_COLUMNS]
            for row in rows[1:]:
                ler_values.extend(float(row[i]) for i in columns)
        # The cache directory starts empty, so it holds exactly the jobs this
        # build executed, each saved once with the shots it ran.
        store = ResultStore(str(tmp / "cache"))
        shots = sum(store.load(key).shots for key in store.keys())
        return {
            "listed_ids": [i for i in REPORT_IDS if f"\n### {i} " in index],
            "stats": result.total_stats.to_dict(),
            "ler_values": ler_values,
            "shots": shots,
        }

    def check(self, summary):
        problems = []
        missing = sorted(set(REPORT_IDS) - set(summary["listed_ids"]))
        if missing:
            problems.append(f"index.md does not list {missing}")
        stats = summary["stats"]
        if stats["jobs_total"] != stats["cache_hits"] + stats["jobs_run"]:
            problems.append(f"jobs_total != cache_hits + jobs_run in {stats}")
        bad = [v for v in summary["ler_values"] if not 0.0 <= v <= 1.0]
        if bad or not summary["ler_values"]:
            problems.append(f"LERs outside [0, 1] in the CSVs: {bad[:5]}")
        if summary["shots"] < 1:
            problems.append("no Monte-Carlo shots executed")
        return problems


class _D7(Workload):
    """One d=7 fig14 point through ``MemoryExperiment.run``."""

    shots = 0
    decode = True

    def imports(self):
        from repro.experiments.memory import MemoryExperiment
        from repro.noise.model import NoiseParams

        return {"MemoryExperiment": MemoryExperiment, "NoiseParams": NoiseParams}

    def construct(self, names, seed, tmp):
        experiment = names["MemoryExperiment"](
            distance=D7["distance"],
            cycles=D7["cycles"],
            policy=D7["policy"],
            noise=names["NoiseParams"].standard(D7["p"]),
            decode=self.decode,
            seed=seed,
        )
        self._experiment = experiment
        return lambda: experiment.run(self.shots)

    def summarize(self, result, tmp):
        decoder = self._experiment.decoder
        return {
            "shots": result.shots,
            "rounds": result.rounds,
            "data_qubits": self._experiment.code.num_data_qubits,
            "logical_errors": result.logical_errors,
            "lpr": [
                float(v)
                for series in (result.lpr_total, result.lpr_data, result.lpr_parity)
                for v in series
            ],
            "speculation_total": result.speculation.total,
            "decoder": decoder.stats.as_dict() if decoder is not None else None,
        }


class DecodeD7(_D7):
    name = "decode-d7"
    why = "d=7 fig14 point, 4096 shots on the packed engine: decoding is ~70% of the time"
    shots = DECODE_D7_SHOTS

    def check(self, summary):
        problems = []
        stats = summary["decoder"]
        parts = stats["empty"] + stats["dedup_hits"] + stats["cache_hits"] + stats["matched"]
        if stats["shots"] != parts:
            problems.append(
                f"decoder syndromes {stats['shots']} != empty + dedup + cache + matched {parts}"
            )
        if stats["shots"] != summary["shots"]:
            problems.append(f"decoded {stats['shots']} syndromes for {summary['shots']} shots")
        shots = summary["shots"]
        ler = summary["logical_errors"] / shots
        p = DECODE_D7_REFERENCE_LER
        sigma = math.sqrt(p * (1 - p) * (1 / shots + 1 / DECODE_D7_REFERENCE_SHOTS))
        if abs(ler - p) > LER_BAND_SIGMAS * sigma:
            problems.append(
                f"LER {ler:.4f} outside {p:.4f} +/- {LER_BAND_SIGMAS * sigma:.4f}"
            )
        return problems


class LprD7(_D7):
    name = "lpr-d7"
    why = "the same point undecoded, one 16384-shot packed batch: the decoder bypass (LPR, speculation)"
    shots = LPR_D7_SHOTS
    decode = False

    def check(self, summary):
        problems = []
        if summary["logical_errors"] != -1:
            problems.append(f"logical_errors {summary['logical_errors']} != -1 without decoding")
        bad = [v for v in summary["lpr"] if not 0.0 <= v <= 1.0]
        if bad:
            problems.append(f"LPR values outside [0, 1]: {bad[:5]}")
        expected = summary["shots"] * summary["rounds"] * summary["data_qubits"]
        if summary["speculation_total"] != expected:
            problems.append(
                f"speculation total {summary['speculation_total']} != "
                f"shots x rounds x data qubits {expected}"
            )
        return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (ReportCold(), DecodeD7(), LprD7())}
