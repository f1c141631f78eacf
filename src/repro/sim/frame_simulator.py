"""Vectorised Pauli-frame simulator with leakage tracking.

The simulator tracks, for every physical qubit, an X-error bit, a Z-error bit
(the *Pauli frame*, i.e. the accumulated error relative to a noiseless
reference execution) and a boolean *leaked* flag.  Clifford gates propagate
the frame; noise channels flip frame bits stochastically; leakage is injected,
transported, and removed according to :class:`~repro.noise.leakage.LeakageModel`.

Measurement outcomes are reported as flips relative to the noiseless
reference, which is exactly what detector (parity-check comparison) logic
needs.  Measuring a leaked qubit yields a uniformly random outcome, matching
the paper's treatment of two-level discriminators; a multi-level discriminator
label (0, 1, or L) with classification error ``10p`` is reported alongside
every measurement so ERASER+M can be simulated without re-running circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import QubitNoise, channel_active, draw_pauli_codes
from repro.sim.circuit import (
    Cnot,
    Hadamard,
    LeakISwap,
    LrcFinalize,
    Measure,
    MeasureReset,
    Operation,
    Reset,
    RoundNoise,
)
from repro.sim.rng import RngLike, make_rng

#: Multi-level discriminator label for the leaked state |L>.
LABEL_LEAKED = 2


@dataclass
class MeasurementRecord:
    """Result of one measurement operation.

    Attributes:
        qubits: Physical qubit indices that were measured, in order.
        bits: Measured bits (flips relative to the noiseless reference).
        labels: Multi-level discriminator labels (0, 1, or 2 == |L>), including
            classification error.
        true_leaked: Ground-truth leakage status at measurement time (used by
            the idealized Optimal policy and by the metrics machinery; never
            exposed to ERASER itself).
        meta: Arbitrary metadata attached by the schedule generator (typically
            the stabilizer indices measured by these qubits).
    """

    qubits: np.ndarray
    bits: np.ndarray
    labels: np.ndarray
    true_leaked: np.ndarray
    meta: tuple


class LeakageFrameSimulator:
    """Pauli-frame + leakage simulator for one Monte-Carlo shot.

    Args:
        num_qubits: Total number of physical qubits.
        noise: Circuit-level noise parameters — a scalar
            :class:`~repro.noise.model.NoiseParams` (the paper's uniform
            model and the fast path) or a per-qubit
            :class:`~repro.noise.profiles.QubitNoise` resolved from a
            :class:`~repro.noise.profiles.NoiseProfile`.
        leakage: Leakage model parameters.
        rng: Seed or numpy generator.
    """

    def __init__(
        self,
        num_qubits: int,
        noise: Union[NoiseParams, QubitNoise],
        leakage: LeakageModel,
        rng: RngLike = None,
    ):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        noise.validate()
        if isinstance(noise, QubitNoise) and noise.num_qubits != num_qubits:
            raise ValueError(
                f"per-qubit noise covers {noise.num_qubits} qubits, "
                f"but the simulator has {num_qubits}"
            )
        leakage.validate()
        self.num_qubits = num_qubits
        self.noise = noise
        self.leakage = leakage
        self.rng = make_rng(rng)
        self.x = np.zeros(num_qubits, dtype=bool)
        self.z = np.zeros(num_qubits, dtype=bool)
        self.leaked = np.zeros(num_qubits, dtype=bool)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, operations: Sequence[Operation]) -> Dict[str, MeasurementRecord]:
        """Execute a list of operations and return measurement records by key."""
        records: Dict[str, MeasurementRecord] = {}
        for op in operations:
            if isinstance(op, RoundNoise):
                self._round_noise(op.qubits)
            elif isinstance(op, Hadamard):
                self._hadamard(op.qubits)
            elif isinstance(op, Cnot):
                self._cnot(op.controls, op.targets)
            elif isinstance(op, Measure):
                records[op.key] = self._measure(op.qubits, op.meta)
            elif isinstance(op, MeasureReset):
                records[op.key] = self._measure(op.qubits, op.meta)
                self._reset(op.qubits)
            elif isinstance(op, Reset):
                self._reset(op.qubits)
            elif isinstance(op, LrcFinalize):
                records[op.key] = self._lrc_finalize(op)
            elif isinstance(op, LeakISwap):
                self._leak_iswap(op.data_qubits, op.ancillas)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported operation {type(op).__name__}")
        return records

    def leaked_fraction(self, qubits: Optional[Sequence[int]] = None) -> float:
        """Fraction of the given qubits (default: all) currently leaked."""
        if qubits is None:
            return float(self.leaked.mean())
        idx = np.asarray(qubits, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self.leaked[idx].mean())

    def snapshot_leaked(self) -> np.ndarray:
        """Copy of the current per-qubit leakage flags."""
        return self.leaked.copy()

    # ------------------------------------------------------------------
    # Noise primitives
    # ------------------------------------------------------------------
    def _bernoulli(self, p: float, size: int) -> np.ndarray:
        if p <= 0.0 or size == 0:
            return np.zeros(size, dtype=bool)
        return self.rng.random(size) < p

    def _bernoulli_for(self, qubits: np.ndarray, p) -> np.ndarray:
        """Bernoulli draws over ``qubits`` with scalar or per-qubit ``p``.

        The scalar branch is the pre-profile code path, byte-for-byte: the
        per-qubit branch draws the same number of variates for the same
        qubits, so a uniform array reproduces the scalar stream exactly.
        """
        if not isinstance(p, np.ndarray):
            return self._bernoulli(p, qubits.size)
        if qubits.size == 0:
            return np.zeros(0, dtype=bool)
        local = p[qubits]
        if not local.any():
            return np.zeros(qubits.size, dtype=bool)
        return self.rng.random(qubits.size) < local

    _channel_active = staticmethod(channel_active)

    def _apply_pauli_codes(self, qubits: np.ndarray, codes: np.ndarray) -> None:
        """Apply Pauli errors encoded as 0=I, 1=X, 2=Y, 3=Z."""
        if qubits.size == 0:
            return
        self.x[qubits] ^= (codes == 1) | (codes == 2)
        self.z[qubits] ^= (codes == 3) | (codes == 2)

    def _pauli1_codes(self, size: int) -> np.ndarray:
        """Draw single-qubit error codes 1..3, biased when the profile says so."""
        return draw_pauli_codes(
            self.rng, getattr(self.noise, "pauli1_cdf", None), size, 3
        )

    def _pauli2_codes(self, size: int) -> np.ndarray:
        """Draw two-qubit error codes 1..15, biased when the profile says so."""
        return draw_pauli_codes(
            self.rng, getattr(self.noise, "pauli2_cdf", None), size, 15
        )

    def _depolarize1(self, qubits: np.ndarray, p) -> None:
        if qubits.size == 0 or not self._channel_active(p):
            return
        hit = self._bernoulli_for(qubits, p)
        victims = qubits[hit]
        if victims.size == 0:
            return
        codes = self._pauli1_codes(victims.size)
        self._apply_pauli_codes(victims, codes)

    def _depolarize2(self, controls: np.ndarray, targets: np.ndarray, p) -> None:
        if controls.size == 0 or not self._channel_active(p):
            return
        if isinstance(p, np.ndarray):
            # Per-qubit gate rates: a pair errs at the mean of its operands'
            # rates (the uniform model is the degenerate equal-rate case).
            pair_p = 0.5 * (p[controls] + p[targets])
            hit = self.rng.random(controls.size) < pair_p
        else:
            hit = self._bernoulli(p, controls.size)
        if not hit.any():
            return
        c = controls[hit]
        t = targets[hit]
        # Uniform (or profile-biased) over the 15 non-identity two-qubit Paulis.
        codes = self._pauli2_codes(c.size)
        self._apply_pauli_codes(c, codes // 4)
        self._apply_pauli_codes(t, codes % 4)

    def _random_pauli(self, qubits: np.ndarray) -> None:
        """Uniformly random Pauli (I, X, Y, Z) on each of the given qubits."""
        if qubits.size == 0:
            return
        codes = self.rng.integers(0, 4, size=qubits.size)
        self._apply_pauli_codes(qubits, codes)

    def _inject_leakage(self, qubits: np.ndarray, p: float) -> None:
        """Leak each (currently unleaked) qubit with probability ``p``."""
        if qubits.size == 0 or p <= 0.0:
            return
        candidates = qubits[~self.leaked[qubits]]
        if candidates.size == 0:
            return
        hit = self._bernoulli(p, candidates.size)
        self.leaked[candidates[hit]] = True

    def _return_to_computational(self, qubits: np.ndarray) -> None:
        """Return leaked qubits to the computational basis in a random state."""
        if qubits.size == 0:
            return
        self.leaked[qubits] = False
        self.x[qubits] = self.rng.random(qubits.size) < 0.5
        self.z[qubits] = self.rng.random(qubits.size) < 0.5

    # ------------------------------------------------------------------
    # Gate implementations
    # ------------------------------------------------------------------
    def _round_noise(self, qubits: np.ndarray) -> None:
        leaked = self.leaked[qubits]
        unleaked = qubits[~leaked]
        self._depolarize1(unleaked, self.noise.p_round_depolarize)
        self._inject_leakage(unleaked, self.leakage.p_leak_round)
        # Seepage: leaked qubits spontaneously return to the computational basis.
        leaked_qubits = qubits[leaked]
        if leaked_qubits.size and self.leakage.p_seepage > 0.0:
            seep = self._bernoulli(self.leakage.p_seepage, leaked_qubits.size)
            self._return_to_computational(leaked_qubits[seep])

    def _hadamard(self, qubits: np.ndarray) -> None:
        ok = qubits[~self.leaked[qubits]]
        if ok.size:
            tmp = self.x[ok].copy()
            self.x[ok] = self.z[ok]
            self.z[ok] = tmp
            self._depolarize1(ok, self.noise.p_gate1)

    def _cnot(self, controls: np.ndarray, targets: np.ndarray) -> None:
        if controls.size == 0:
            return
        leaked_c = self.leaked[controls]
        leaked_t = self.leaked[targets]
        both_ok = ~leaked_c & ~leaked_t

        # Normal frame propagation and gate noise on fully unleaked pairs.
        cc = controls[both_ok]
        tt = targets[both_ok]
        if cc.size:
            self.x[tt] ^= self.x[cc]
            self.z[cc] ^= self.z[tt]
            self._depolarize2(cc, tt, self.noise.p_gate2)

        # Interaction between a leaked and an unleaked operand: the unleaked
        # qubit suffers a random Pauli and may acquire leakage via transport.
        one_leaked = leaked_c ^ leaked_t
        if one_leaked.any():
            sources = np.where(leaked_c[one_leaked], controls[one_leaked], targets[one_leaked])
            receivers = np.where(leaked_c[one_leaked], targets[one_leaked], controls[one_leaked])
            self._random_pauli(receivers)
            transported = self._bernoulli(self.leakage.p_transport, receivers.size)
            if transported.any():
                newly_leaked = receivers[transported]
                self.leaked[newly_leaked] = True
                if self.leakage.transport_model is LeakageTransportModel.EXCHANGE:
                    self._return_to_computational(sources[transported])

        # Operation-induced leakage injection on currently unleaked operands.
        self._inject_leakage(controls, self.leakage.p_leak_gate)
        self._inject_leakage(targets, self.leakage.p_leak_gate)

    def _measure(self, qubits: np.ndarray, meta: tuple) -> MeasurementRecord:
        """Measure the given qubits in the Z basis.

        Error-application order (pinned by ``tests/test_frame_simulator.py``;
        the packed engine must match it exactly):

        1. the raw bit is the X-frame flip relative to the reference;
        2. the classical measurement error flips it with ``p_measure``;
        3. a leaked qubit's bit is then *overwritten* with a uniformly random
           outcome (the two-level discriminator cannot classify |L>), so the
           classical ``p_measure`` flip is **not** re-applied on top of it —
           leaked-qubit bits are uniform regardless of ``p_measure``;
        4. multi-level labels are derived from the post-overwrite bits (with
           |L> for truly leaked qubits) and then suffer the ``10p``
           classification error;
        5. measurement collapses the phase frame of the measured qubits.
        """
        true_leaked = self.leaked[qubits].copy()
        bits = self.x[qubits].copy()
        # Classical measurement error.
        bits ^= self._bernoulli_for(qubits, self.noise.p_measure)
        # A two-level discriminator classifies a leaked qubit randomly; this
        # overwrites (never XORs with) the classical-error bit from above.
        if true_leaked.any():
            random_bits = self.rng.random(int(true_leaked.sum())) < 0.5
            bits[true_leaked] = random_bits
        labels = bits.astype(np.int8)
        labels[true_leaked] = LABEL_LEAKED
        # Multi-level discriminator classification error (rate 10p): report one
        # of the two incorrect labels uniformly at random.
        p_ml = self.noise.p_multilevel_readout_error
        if self._channel_active(p_ml):
            wrong = self._bernoulli_for(qubits, p_ml)
            if wrong.any():
                shift = self.rng.integers(1, 3, size=int(wrong.sum())).astype(np.int8)
                labels[wrong] = (labels[wrong] + shift) % 3
        # Measurement collapses phase information relative to the reference.
        self.z[qubits] = False
        return MeasurementRecord(
            qubits=qubits.copy(),
            bits=bits.astype(np.uint8),
            labels=labels.astype(np.uint8),
            true_leaked=true_leaked,
            meta=meta,
        )

    def _reset(self, qubits: np.ndarray) -> None:
        self.x[qubits] = False
        self.z[qubits] = False
        self.leaked[qubits] = False
        # Initialisation error: qubit prepared in |1> instead of |0>.
        flips = self._bernoulli_for(qubits, self.noise.p_reset)
        self.x[qubits[flips]] = True

    def _lrc_finalize(self, op: LrcFinalize) -> MeasurementRecord:
        record = self._measure(op.data_qubits, op.meta)
        # The reset removes whatever leakage the data qubit carried; the parked
        # data state lives on the parity qubit and is about to be swapped back.
        self._reset(op.data_qubits)
        if op.adaptive_multilevel:
            leaked_label = record.labels == LABEL_LEAKED
        else:
            leaked_label = np.zeros(op.data_qubits.size, dtype=bool)
        swap_back = ~leaked_label
        d_back = op.data_qubits[swap_back]
        a_back = op.ancillas[swap_back]
        if d_back.size:
            # Two-CNOT swap-back (valid because the data-side qubit is in |0>).
            self._cnot(a_back, d_back)
            self._cnot(d_back, a_back)
            # The parity qubit physically ends in |0>; the residual phase frame
            # it would carry in the frame formalism is unphysical, so clear it.
            self.z[a_back] = False
        # ERASER+M QSG modification: when the measurement reports |L>, squash
        # the swap-back and reset the parity qubit instead (Section 4.6.2).
        d_squash = op.data_qubits[leaked_label]
        a_squash = op.ancillas[leaked_label]
        if a_squash.size:
            self._reset(a_squash)
            # The parked data state is lost; the data qubit is freshly reset,
            # which relative to the reference amounts to a random Pauli.
            self._random_pauli(d_squash)
        return record

    def _leak_iswap(self, data_qubits: np.ndarray, ancillas: np.ndarray) -> None:
        """DQLR LeakageISWAP: move data-qubit leakage onto reset parity qubits."""
        if data_qubits.size == 0:
            return
        leaked_d = self.leaked[data_qubits]
        leaked_a = self.leaked[ancillas]
        # Gate infidelity comparable to a CX: two-qubit depolarising noise on
        # pairs where both operands are in the computational basis.
        both_ok = ~leaked_d & ~leaked_a
        self._depolarize2(data_qubits[both_ok], ancillas[both_ok], self.noise.p_gate2)
        # Leakage moves from the data qubit to the parity qubit.
        move = leaked_d & ~leaked_a
        if move.any():
            moved_d = data_qubits[move]
            moved_a = ancillas[move]
            self.leaked[moved_a] = True
            self._return_to_computational(moved_d)
        # Failure mode: if the preceding parity reset failed (parity in |1>),
        # the LeakageISWAP can excite the data qubit to |L> (|11> <-> |20>).
        reset_failed = self.x[ancillas] & ~self.leaked[ancillas] & ~self.leaked[data_qubits]
        if reset_failed.any():
            excite = self._bernoulli(
                self.leakage.dqlr_reset_excitation, int(reset_failed.sum())
            )
            victims = data_qubits[reset_failed][excite]
            self.leaked[victims] = True
        # Operation-induced leakage, as for any two-qubit gate.
        self._inject_leakage(data_qubits, self.leakage.p_leak_gate)
        self._inject_leakage(ancillas, self.leakage.p_leak_gate)
