"""Plan wire forms written before decoder tuning and stopping targets left the job.

Such a payload put ``decoder_dp_threshold``, ``decoder_cache_size``,
``decoder_artifact_dir`` and the three stopping-target keys on every job,
and named an engine that no longer exists (``"auto"`` or ``"batched"``).
The sweep service journals submissions in that form, so a journal written
before the upgrade must still replay: the decoder keys are dropped, uniform
targets become the plan's stopping rule, the engine becomes ``"packed"``,
and a record whose decode jobs disagree is refused rather than guessed at.
"""

import asyncio
import copy
import time

import pytest

from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.jobs import SweepPlan
from repro.experiments.store import ResultStore
from repro.service import SubmissionJournal, SweepScheduler


def _legacy_job(**fields):
    job = {
        "distance": 3,
        "policy": "eraser",
        "shots": 400,
        "rounds": 3,
        "p": 0.02,
        "code_family": "rotated-surface",
        "noise_profile": None,
        "leakage_enabled": True,
        "transport_model": "remain",
        "protocol": "swap",
        "decode": True,
        "decoder_method": "auto",
        "engine": "auto",
        "batch_size": None,
        "policy_kwargs": [],
        "seed_entropy": 7,
        "spawn_key": [0],
        "chunk_shots": 50,
        "decoder_dp_threshold": 0,
        "decoder_cache_size": 64,
        "decoder_artifact_dir": "client-artifacts",
        "target_ci_halfwidth": 0.2,
        "target_rel_halfwidth": None,
        "adaptive_min_chunks": 2,
    }
    job.update(fields)
    return job


#: The wire form of a two-job plan as the older code wrote it: a decode job
#: under a 0.2 Wilson half-width target, and an undecoded job without one.
LEGACY_PAYLOAD = {
    "jobs": [
        _legacy_job(),
        _legacy_job(
            policy="always-lrc",
            shots=100,
            decode=False,
            spawn_key=[1],
            decoder_dp_threshold=None,
            decoder_cache_size=None,
            target_ci_halfwidth=None,
            adaptive_min_chunks=None,
        ),
    ]
}

#: What :data:`LEGACY_PAYLOAD` computes, replayed on the packed engine: the
#: decode job stops after two 50-shot chunks with 27 logical errors.
LEGACY_STOP_SHOTS = 100
LEGACY_STOP_ERRORS = 27

#: Engine names the older code wrote; both replay on the packed engine.
LEGACY_ENGINES = ("auto", "batched")


def legacy_payload(engine):
    payload = copy.deepcopy(LEGACY_PAYLOAD)
    for job in payload["jobs"]:
        job["engine"] = engine
    return payload


def fresh_plan():
    configs = [
        dict(distance=3, policy="eraser", shots=400, cycles=1, p=0.02),
        dict(distance=3, policy="always-lrc", shots=100, cycles=1, p=0.02, decode=False),
    ]
    return SweepPlan.build(configs, seed=7, chunk_shots=50)


class TestPlanWire:
    def test_round_trip_carries_the_stopping_rule(self):
        plan = fresh_plan()
        plan.adaptive = AdaptiveConfig(target_rel_halfwidth=0.5, min_chunks=3)
        rebuilt = SweepPlan.from_wire(plan.to_wire())
        assert rebuilt == plan

    def test_fixed_plan_wire_has_no_adaptive_key(self):
        assert set(fresh_plan().to_wire()) == {"jobs"}

    def test_legacy_payload_lifts_uniform_targets(self):
        for engine in LEGACY_ENGINES:
            plan = SweepPlan.from_wire(legacy_payload(engine))
            assert plan.adaptive == AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2)
            assert plan.jobs == fresh_plan().jobs

    def test_legacy_payload_stops_where_it_used_to(self):
        for engine in LEGACY_ENGINES:
            executor = SweepExecutor()
            decoded, undecoded = executor.run(SweepPlan.from_wire(legacy_payload(engine)))
            assert (decoded.shots, decoded.logical_errors) == (
                LEGACY_STOP_SHOTS,
                LEGACY_STOP_ERRORS,
            )
            assert undecoded.shots == 100
            assert executor.last_stats.jobs_stopped_early == 1
            assert executor.last_stats.shots_saved == 300

    def test_differing_legacy_targets_are_rejected(self):
        payload = copy.deepcopy(LEGACY_PAYLOAD)
        payload["jobs"].append(_legacy_job(spawn_key=[2], target_ci_halfwidth=0.1))
        with pytest.raises(ValueError, match="differing stopping targets"):
            SweepPlan.from_wire(payload)

    def test_untargeted_legacy_decode_job_differs_from_targeted_one(self):
        payload = copy.deepcopy(LEGACY_PAYLOAD)
        payload["jobs"].append(
            _legacy_job(spawn_key=[2], target_ci_halfwidth=None, adaptive_min_chunks=None)
        )
        with pytest.raises(ValueError, match="differing stopping targets"):
            SweepPlan.from_wire(payload)


def accepted(serial, plan_wire):
    return {
        "event": "accepted",
        "id": f"sweep-{serial:06d}",
        "key": None,
        "ts": time.time(),
        "plan": plan_wire,
    }


class TestJournalReplay:
    def test_legacy_journal_replays_after_upgrade(self, tmp_path):
        bad = copy.deepcopy(LEGACY_PAYLOAD)
        bad["jobs"][1] = _legacy_job(spawn_key=[1], target_ci_halfwidth=0.1)
        journal = SubmissionJournal(tmp_path / "journal")
        journal.append(accepted(1, copy.deepcopy(LEGACY_PAYLOAD)))
        journal.append(accepted(2, bad))
        journal.close()

        async def body():
            scheduler = SweepScheduler(
                store=ResultStore(tmp_path / "cache"),
                workers=1,
                heartbeat_interval=0.05,
                journal=SubmissionJournal(tmp_path / "journal"),
            )
            await scheduler.start()
            try:
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["submissions_recovered"] == 1
                assert counters["submissions_unreplayable"] == 1
                with pytest.raises(KeyError):
                    scheduler.get("sweep-000002")
                assert await scheduler.wait("sweep-000001", 120) == "done"
                decoded, undecoded = scheduler.results("sweep-000001")
                assert (decoded.shots, decoded.logical_errors) == (
                    LEGACY_STOP_SHOTS,
                    LEGACY_STOP_ERRORS,
                )
                assert undecoded.shots == 100
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())
