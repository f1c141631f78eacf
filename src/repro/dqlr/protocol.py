"""Google's DQLR protocol and its combination with ERASER (Appendix A.2).

The DQLR protocol removes leakage every round using a LeakageISWAP between
each data qubit and its (freshly reset) parity qubit, followed by another
parity reset.  The gate-level behaviour of the LeakageISWAP — including the
failure mode in which a failed parity reset re-excites the data qubit — is
implemented in the frame simulator (:class:`~repro.sim.circuit.LeakISwap`);
the QEC Schedule Generator inserts it when built with ``protocol="dqlr"``.

This module provides:

* :class:`DqlrBaselinePolicy` — the baseline that applies DQLR to (almost)
  every data qubit every round,
* :func:`run_dqlr_comparison` — the sweep behind Figures 20 and 21, comparing
  baseline DQLR against ERASER, ERASER+M, and Optimal scheduling of the same
  protocol under the alternative (exchange) leakage-transport model.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.dli import SwapLookupTable
from repro.core.policies.base import LrcPolicy, assignment_to_row
from repro.core.qsg import PROTOCOL_DQLR
from repro.experiments.jobs import SweepPlan
from repro.experiments.results import PolicySweepResult
from repro.experiments.sweep import run_sweep
from repro.noise.leakage import LeakageTransportModel
from repro.sim.rng import RngLike


class DqlrBaselinePolicy(LrcPolicy):
    """Apply the DQLR protocol to every data qubit every round.

    There are ``d*d`` data qubits but only ``d*d - 1`` parity partners, so the
    single unmatched data qubit is treated in alternating rounds, exactly as
    the leftover qubit is handled by Always-LRCs scheduling.
    """

    name = "dqlr"
    supports_batch = True

    def __init__(self) -> None:
        super().__init__()
        self._full_assignment: Dict[int, int] = {}
        self._leftover_assignment: Dict[int, int] = {}

    def _on_bind(self) -> None:
        table = SwapLookupTable(self.code, num_backups=None)
        self._full_assignment = table.primary_assignment(exclude_unmatched=True)
        leftover = table.unmatched_data_qubit
        self._leftover_assignment = dict(self._full_assignment)
        if leftover >= 0:
            # Swap the leftover in, dropping the qubit whose partner it borrows.
            partner = table.primary(leftover)
            self._leftover_assignment = {
                q: s for q, s in self._full_assignment.items() if s != partner
            }
            self._leftover_assignment[leftover] = partner

    def _assignment_for_round(self, round_index: int) -> Dict[int, int]:
        if round_index % 2 == 0:
            return dict(self._full_assignment)
        return dict(self._leftover_assignment)

    def initial_assignment(self) -> Dict[int, int]:
        return self._assignment_for_round(0)

    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        return self._assignment_for_round(round_index + 1)

    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> np.ndarray:
        # The static schedule is identical across shots: broadcast one row.
        row = assignment_to_row(
            self._assignment_for_round(round_index + 1), self.code.num_data_qubits
        )
        return np.tile(row, (detection_events.shape[0], 1))


#: The four policies compared in Figures 20 and 21.
DQLR_POLICIES = ("dqlr", "eraser", "eraser+m", "optimal")


def dqlr_policy_names() -> Sequence[str]:
    """The four policies compared in Figures 20 and 21."""
    return DQLR_POLICIES


def dqlr_comparison_plan(
    distances: Sequence[int],
    policies: Sequence[str] = DQLR_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "packed",
    batch_size: int = None,
    chunk_shots: int = None,
    code_family: str = None,
    noise_profile=None,
) -> SweepPlan:
    """The Appendix A.2 sweep (Figures 20/21) as an executable plan."""
    configs = [
        dict(
            distance=distance,
            policy=policy_name,
            p=p,
            shots=shots,
            cycles=cycles,
            transport_model=LeakageTransportModel.EXCHANGE,
            protocol=PROTOCOL_DQLR,
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


def run_dqlr_comparison(*args, **options) -> PolicySweepResult:
    """Sweep DQLR-based leakage removal across distances and policies.

    Matches the evaluation setup of Appendix A.2: the LeakageISWAP has CX-like
    fidelity and the alternative (exchange) leakage-transport model is used so
    the results reflect Sycamore-like transport behaviour.  Takes the
    arguments of :func:`dqlr_comparison_plan` plus the execution knobs of
    :data:`repro.experiments.sweep.RUN_OPTIONS` (``jobs``, ``cache_dir``,
    ``resume``, ...): the plan runs through a
    :class:`~repro.experiments.executor.SweepExecutor`, optionally in
    parallel and backed by the content-addressed result cache.
    """
    return PolicySweepResult(run_sweep(dqlr_comparison_plan, *args, **options))
