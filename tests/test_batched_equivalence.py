"""Statistical equivalence of the packed and scalar engines.

The two engines draw random numbers in a different order (and the packed
engine also draws different *amounts* via sparse binomial sampling), so a
shared seed gives bitwise-different shots; what must match is the
*distribution* of every aggregate observable.  This suite enforces that
contract for every policy x protocol x leakage-transport combination, with
the scalar engine as the reference the packed engine is compared against:

* logical error rates agree under a two-proportion z-test,
* leakage population ratios (total and per-partition) agree within loose
  relative bounds at the cheap tier and tight bounds at the deep tier,
* LRC counts are exactly equal for static schedules and statistically close
  for adaptive ones,
* deterministic (noise-free) paths are exactly equal, and
* each engine is exactly reproducible under a shared seed.

The cheap tier runs by default; the deep tier (high shot counts, tight
bounds) is marked ``slow`` and runs with ``pytest --runslow``.
"""

import math

import numpy as np
import pytest

from repro.codes import make_code
from repro.core.policies import make_policy
from repro.core.qsg import PROTOCOL_DQLR, PROTOCOL_SWAP
from repro.dqlr.protocol import DqlrBaselinePolicy
from repro.experiments.memory import MemoryExperiment
from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile
from repro.sim.circuit import Cnot, Hadamard, Measure, MeasureReset
from repro.sim.frame_simulator import LeakageFrameSimulator
from repro.sim.packed_bits import unpack_words
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator

#: Physical error rate boosted above the paper's default so that leakage,
#: LRC scheduling, and decoding all see plenty of events at small shot counts.
P = 3e-3

DISTANCE = 3
CYCLES = 2


def boosted_leakage(transport: LeakageTransportModel) -> LeakageModel:
    """Leakage model with boosted rates for statistically dense comparisons.

    At the paper's ``0.1 p`` injection rates a 300-shot, 6-round experiment
    sees only a handful of (strongly autocorrelated) leakage episodes, which
    makes aggregate LPR comparisons between the engines meaninglessly noisy.
    Boosting injection ~30x multiplies the event count without touching any
    of the code paths under test — both engines run the same model.
    """
    return LeakageModel(
        p_leak_round=1e-2,
        p_leak_gate=1e-3,
        p_transport=0.1,
        p_seepage=1e-3,
        transport_model=transport,
    )

#: Every (policy factory, protocol, transport) combination exercised by the
#: experiment harness.  Static policies have deterministic LRC schedules.
COMBOS = [
    ("no-lrc", lambda: make_policy("no-lrc"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN, True),
    ("always-lrc", lambda: make_policy("always-lrc"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN, True),
    ("eraser", lambda: make_policy("eraser"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN, False),
    ("eraser+m", lambda: make_policy("eraser+m"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN, False),
    ("optimal", lambda: make_policy("optimal"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN, False),
    ("no-lrc/x", lambda: make_policy("no-lrc"), PROTOCOL_SWAP, LeakageTransportModel.EXCHANGE, True),
    ("always-lrc/x", lambda: make_policy("always-lrc"), PROTOCOL_SWAP, LeakageTransportModel.EXCHANGE, True),
    ("eraser/x", lambda: make_policy("eraser"), PROTOCOL_SWAP, LeakageTransportModel.EXCHANGE, False),
    ("eraser+m/x", lambda: make_policy("eraser+m"), PROTOCOL_SWAP, LeakageTransportModel.EXCHANGE, False),
    ("optimal/x", lambda: make_policy("optimal"), PROTOCOL_SWAP, LeakageTransportModel.EXCHANGE, False),
    ("dqlr", DqlrBaselinePolicy, PROTOCOL_DQLR, LeakageTransportModel.EXCHANGE, True),
    ("eraser/dqlr", lambda: make_policy("eraser"), PROTOCOL_DQLR, LeakageTransportModel.EXCHANGE, False),
    ("eraser+m/dqlr", lambda: make_policy("eraser+m"), PROTOCOL_DQLR, LeakageTransportModel.EXCHANGE, False),
    ("optimal/dqlr", lambda: make_policy("optimal"), PROTOCOL_DQLR, LeakageTransportModel.EXCHANGE, False),
]

COMBO_IDS = [c[0] for c in COMBOS]

#: The four policies of the headline evaluation figures.
DEFAULT_POLICY_COMBOS = [c for c in COMBOS if c[0] in ("always-lrc", "eraser", "eraser+m", "optimal")]


def run_experiment(policy, protocol, transport, engine, shots, seed, decode):
    experiment = MemoryExperiment(
        distance=DISTANCE,
        policy=policy,
        noise=NoiseParams.standard(P),
        leakage=boosted_leakage(transport),
        cycles=CYCLES,
        protocol=protocol,
        decode=decode,
        seed=seed,
        engine=engine,
    )
    return experiment.run(shots)


def two_proportion_z(successes_a, successes_b, trials):
    """z statistic for the difference of two binomial proportions."""
    pooled = (successes_a + successes_b) / (2 * trials)
    stderr = math.sqrt(max(pooled * (1.0 - pooled) * 2.0 / trials, 1e-12))
    return (successes_a - successes_b) / trials / stderr


def assert_lpr_close(result_a, result_b, rel, floor=2e-4):
    """Mean LPRs must agree within a relative bound (ignoring tiny values).

    Per-shot leakage is strongly autocorrelated across rounds, so a clean
    closed-form variance is unavailable; the relative bound is calibrated to
    pass reliably at the given shot counts while catching gross physics
    regressions (doubled injection rates, leakage never removed, ...).
    """
    for attr in ("lpr_total", "lpr_data", "lpr_parity"):
        a = float(np.mean(getattr(result_a, attr)))
        b = float(np.mean(getattr(result_b, attr)))
        if max(a, b) < floor:
            continue
        assert abs(a - b) <= rel * max(a, b), (
            f"{attr} diverged: reference={a:.6f} other={b:.6f} (rel bound {rel})"
        )


def check_combo(name, policy_factory, protocol, transport, static, shots, seed,
                z_bound, lpr_rel, lrc_rel, decode):
    scalar = run_experiment(
        policy_factory(), protocol, transport, "scalar", shots, seed, decode
    )
    assert scalar.metadata["engine"] == "scalar"
    packed = run_experiment(
        policy_factory(), protocol, transport, "packed", shots, seed, decode
    )
    assert packed.metadata["engine"] == "packed"
    if decode:
        z = two_proportion_z(scalar.logical_errors, packed.logical_errors, shots)
        assert abs(z) < z_bound, (
            f"{name}: LER diverged, scalar={scalar.logical_error_rate:.4f} "
            f"packed={packed.logical_error_rate:.4f} z={z:+.2f}"
        )
    assert_lpr_close(scalar, packed, rel=lpr_rel)
    if static:
        # Static schedules do not depend on the noise stream at all.
        assert scalar.lrcs_per_round == packed.lrcs_per_round
    else:
        a, b = scalar.lrcs_per_round, packed.lrcs_per_round
        assert abs(a - b) <= lrc_rel * max(a, b) + 0.05, (
            f"{name}: LRC rate diverged, scalar={a:.3f} packed={b:.3f}"
        )


class TestCheapTier:
    """Default tier: every combination, LPR/LRC statistics, no decoding."""

    @pytest.mark.parametrize(
        "name,policy_factory,protocol,transport,static", COMBOS, ids=COMBO_IDS
    )
    def test_lpr_and_lrc_statistics_match(
        self, name, policy_factory, protocol, transport, static
    ):
        check_combo(
            name, policy_factory, protocol, transport, static,
            shots=300, seed=20230901, z_bound=None, lpr_rel=0.5, lrc_rel=0.35,
            decode=False,
        )

    @pytest.mark.parametrize(
        "name,policy_factory,protocol,transport,static",
        DEFAULT_POLICY_COMBOS,
        ids=[c[0] for c in DEFAULT_POLICY_COMBOS],
    )
    def test_ler_matches_for_default_policies(
        self, name, policy_factory, protocol, transport, static
    ):
        check_combo(
            name, policy_factory, protocol, transport, static,
            shots=400, seed=20230902, z_bound=4.5, lpr_rel=0.5, lrc_rel=0.35,
            decode=True,
        )


@pytest.mark.slow
class TestDeepTier:
    """Deep tier (``--runslow``): every combination with decoding and tight bounds."""

    @pytest.mark.parametrize(
        "name,policy_factory,protocol,transport,static", COMBOS, ids=COMBO_IDS
    )
    def test_full_statistics_match(
        self, name, policy_factory, protocol, transport, static
    ):
        check_combo(
            name, policy_factory, protocol, transport, static,
            shots=3000, seed=20230903, z_bound=4.0, lpr_rel=0.25, lrc_rel=0.2,
            decode=True,
        )


#: Scenario-diversity grid: every non-uniform noise profile and the
#: repetition-code family, each exercised under an adaptive and a static
#: policy.  Entries are (name, policy, code family, profile).
SCENARIO_COMBOS = [
    ("biased/eraser", "eraser", "rotated-surface", NoiseProfile.biased(6.0)),
    ("biased/always", "always-lrc", "rotated-surface", NoiseProfile.biased(6.0)),
    ("heterogeneous/eraser", "eraser", "rotated-surface", NoiseProfile.heterogeneous(5, 0.8)),
    ("hot-spot/eraser", "eraser", "rotated-surface", NoiseProfile.hot_spot([0, 4], 10.0)),
    ("repetition/eraser", "eraser", "repetition", None),
    ("repetition/always", "always-lrc", "repetition", None),
    ("repetition/biased", "eraser", "repetition", NoiseProfile.biased(6.0)),
]


class TestScenarioDiversityTier:
    """Cheap-tier differential checks for profiles and the repetition family."""

    @staticmethod
    def _run(engine, policy, code_family, profile, shots, seed, decode):
        experiment = MemoryExperiment(
            code=make_code(code_family, DISTANCE),
            policy=make_policy(policy),
            noise=NoiseParams.standard(P),
            noise_profile=profile,
            leakage=boosted_leakage(LeakageTransportModel.REMAIN),
            cycles=CYCLES,
            decode=decode,
            seed=seed,
            engine=engine,
        )
        return experiment.run(shots)

    @pytest.mark.parametrize(
        "name,policy,code_family,profile",
        SCENARIO_COMBOS,
        ids=[c[0] for c in SCENARIO_COMBOS],
    )
    def test_lpr_and_lrc_statistics_match(self, name, policy, code_family, profile):
        scalar = self._run("scalar", policy, code_family, profile, 300, 20240902, False)
        assert scalar.metadata["engine"] == "scalar"
        packed = self._run("packed", policy, code_family, profile, 300, 20240902, False)
        assert packed.metadata["engine"] == "packed"
        assert_lpr_close(scalar, packed, rel=0.5)
        if policy == "always-lrc":
            assert scalar.lrcs_per_round == packed.lrcs_per_round
        else:
            a, b = scalar.lrcs_per_round, packed.lrcs_per_round
            assert abs(a - b) <= 0.35 * max(a, b) + 0.05

    @pytest.mark.parametrize(
        "name,policy,code_family,profile",
        [c for c in SCENARIO_COMBOS if c[1] == "eraser"],
        ids=[c[0] for c in SCENARIO_COMBOS if c[1] == "eraser"],
    )
    def test_ler_matches(self, name, policy, code_family, profile):
        scalar = self._run("scalar", policy, code_family, profile, 400, 20240903, True)
        packed = self._run("packed", policy, code_family, profile, 400, 20240903, True)
        z = two_proportion_z(scalar.logical_errors, packed.logical_errors, 400)
        assert abs(z) < 4.5, (
            f"{name}: LER diverged, scalar={scalar.logical_error_rate:.4f} "
            f"packed={packed.logical_error_rate:.4f} z={z:+.2f}"
        )

    @pytest.mark.parametrize("engine", ["scalar", "packed"])
    def test_uniform_profile_is_bit_identical_to_noise_params(self, engine):
        """The degenerate profile must reproduce the profile-less run exactly."""
        plain = run_experiment(
            make_policy("eraser"), PROTOCOL_SWAP, LeakageTransportModel.REMAIN,
            engine, shots=60, seed=424242, decode=True,
        )
        experiment = MemoryExperiment(
            distance=DISTANCE,
            policy=make_policy("eraser"),
            noise=NoiseParams.standard(P),
            noise_profile=NoiseProfile.uniform(),
            leakage=boosted_leakage(LeakageTransportModel.REMAIN),
            cycles=CYCLES,
            decode=True,
            seed=424242,
            engine=engine,
        )
        profiled = experiment.run(60)
        assert plain.logical_errors == profiled.logical_errors
        assert plain.lrcs_per_round == profiled.lrcs_per_round
        np.testing.assert_array_equal(plain.lpr_total, profiled.lpr_total)


class TestDeterministicPaths:
    """Noise-free circuits must be exactly equal between the engines."""

    def _noiseless_simulators(self, num_qubits=5, shots=7):
        scalar = LeakageFrameSimulator(
            num_qubits, NoiseParams.noiseless(), LeakageModel.disabled(), rng=1
        )
        packed = PackedLeakageFrameSimulator(
            num_qubits, NoiseParams.noiseless(), LeakageModel.disabled(),
            shots=shots, rng=1,
        )
        return scalar, packed

    def test_noiseless_circuit_bits_identical(self):
        ops = [
            Hadamard([3, 4]),
            Cnot([0, 1], [3, 4]),
            Hadamard([3, 4]),
            MeasureReset([3], "ancilla"),
            Measure([0, 1, 2, 4], "data"),
        ]
        scalar, packed = self._noiseless_simulators()
        scalar_records = scalar.run(ops)
        records = packed.run(ops)
        assert set(scalar_records) == set(records)
        for key, scalar_record in scalar_records.items():
            record = records[key]
            np.testing.assert_array_equal(record.qubits, scalar_record.qubits)
            for shot in range(packed.shots):
                np.testing.assert_array_equal(record.bits[shot], scalar_record.bits)
                np.testing.assert_array_equal(record.labels[shot], scalar_record.labels)
        assert not packed.leaked.any()
        assert not scalar.leaked.any()

    def test_noiseless_frame_state_identical(self):
        ops = [Cnot([0, 2], [1, 3]), Hadamard([0]), Cnot([1], [2])]
        scalar, packed = self._noiseless_simulators()
        scalar.run(ops)
        packed.run(ops)
        packed_x = unpack_words(packed.x, packed.shots)
        packed_z = unpack_words(packed.z, packed.shots)
        for shot in range(packed.shots):
            np.testing.assert_array_equal(packed_x[shot], scalar.x)
            np.testing.assert_array_equal(packed_z[shot], scalar.z)

    def test_noiseless_experiment_has_no_errors_on_either_engine(self):
        for engine in ("scalar", "packed"):
            result = MemoryExperiment(
                distance=3,
                policy=make_policy("always-lrc"),
                noise=NoiseParams.noiseless(),
                leakage=LeakageModel.disabled(),
                cycles=2,
                seed=5,
                engine=engine,
            ).run(20)
            assert result.logical_errors == 0
            assert not result.lpr_total.any()
            assert not result.lpr_data.any()
            assert not result.lpr_parity.any()


class TestSharedSeedProtocol:
    """Each engine must be exactly reproducible under a shared seed."""

    @pytest.mark.parametrize("engine", ["scalar", "packed"])
    def test_same_seed_reproduces_everything(self, engine):
        def once():
            result = run_experiment(
                make_policy("eraser"), PROTOCOL_SWAP,
                LeakageTransportModel.REMAIN, engine,
                shots=60, seed=424242, decode=True,
            )
            return (
                result.logical_errors,
                result.lrcs_per_round,
                result.lpr_total.tolist(),
                result.speculation.true_positive,
                result.speculation.false_positive,
            )

        assert once() == once()

    @pytest.mark.parametrize("engine", ["packed"])
    def test_batch_size_does_not_change_distribution(self, engine):
        """Chunking into smaller batches must not shift aggregate statistics."""
        results = {}
        for batch_size in (None, 17):
            result = MemoryExperiment(
                distance=3,
                policy=make_policy("eraser"),
                noise=NoiseParams.standard(P),
                leakage=LeakageModel.standard(P),
                cycles=2,
                seed=31,
                engine=engine,
                batch_size=batch_size,
            ).run(400)
            results[batch_size] = result
        z = two_proportion_z(
            results[None].logical_errors, results[17].logical_errors, 400
        )
        assert abs(z) < 4.5
        assert_lpr_close(results[None], results[17], rel=0.5)
