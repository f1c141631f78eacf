"""Chaos suite: SIGKILL the server, reset connections, drop responses.

End-to-end proof of the crash-recovery acceptance criteria using the
:mod:`repro.service.chaos` harness against *real* processes and sockets:

* a ``serve`` subprocess SIGKILLed mid-sweep and restarted on the same
  journal resumes the same submission with zero re-executed completed
  chunks, while the retrying client rides through the dead window and the
  final statistics are bit-identical to a serial
  :class:`~repro.experiments.executor.SweepExecutor` run (the Section 6
  position-keyed seed discipline);
* a second ``serve`` pointed at a live journal directory refuses to start;
* connection resets injected by :class:`~repro.service.chaos.ChaosProxy`
  are absorbed by the client's jittered retry loop;
* a dropped response (request executed, reply lost — the ambiguous-failure
  window) dedupes on retry via the idempotency key instead of
  double-running the sweep;
* an unreachable service degrades :class:`~repro.service.client.ServiceExecutor`
  to its bit-identical local fallback.
"""

import asyncio
import subprocess
import threading
import time

import pytest

from repro.experiments.executor import SweepExecutor
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.store import ResultStore
from repro.service import (
    ServiceExecutor,
    SweepScheduler,
    SweepService,
    SweepServiceClient,
)
from repro.service.chaos import ChaosProxy, ServerProcess


def make_plan(shots=2500, chunk_shots=25, policies=("eraser",)):
    jobs = [
        SweepJob(
            distance=3,
            policy=policy,
            shots=shots,
            rounds=3,
            p=2e-3,
            chunk_shots=chunk_shots,
            seed_entropy=31337,
            spawn_key=(index,),
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


async def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise TimeoutError("condition not reached in time")


class TestChaosProxy:
    def test_client_retries_through_connection_resets(self, tmp_path):
        reference = SweepExecutor().run(make_plan(shots=200))

        async def body():
            scheduler = SweepScheduler(
                store=ResultStore(tmp_path / "cache", shards=4),
                workers=2,
                heartbeat_interval=0.05,
            )
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            try:
                with ChaosProxy(service.url) as proxy:
                    client = SweepServiceClient(
                        proxy.url, retries=6, backoff=0.05, backoff_cap=0.5
                    )
                    proxy.inject("reset", 2)
                    t = asyncio.to_thread
                    job_id = await t(client.submit, make_plan(shots=200))
                    status = await t(client.wait, job_id, 120)
                    assert status["state"] == "done"
                    results, _ = await t(client.results, job_id)
                    for ours, theirs in zip(results, reference):
                        assert ours.statistically_equal(theirs)
                    counters = client.telemetry.snapshot()["counters"]
                    assert counters["client_connect_errors"] >= 2
                    assert counters["client_retries"] >= 2
                    assert proxy.faults_injected == 2
                    assert proxy.pending_faults() == 0
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_dropped_response_dedupes_instead_of_double_running(self, tmp_path):
        plan = make_plan(shots=200)

        async def body():
            scheduler = SweepScheduler(
                store=ResultStore(tmp_path / "cache", shards=4),
                workers=2,
                heartbeat_interval=0.05,
            )
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            try:
                with ChaosProxy(service.url) as proxy:
                    client = SweepServiceClient(
                        proxy.url, retries=6, backoff=0.05, backoff_cap=0.5
                    )
                    # The submit reaches the scheduler but its response is
                    # lost — the ambiguous window a plain retry would turn
                    # into a duplicate sweep.
                    proxy.inject("drop-response", 1)
                    t = asyncio.to_thread
                    started = time.monotonic()
                    job_id = await t(client.submit, make_plan(shots=200))
                    # The lost response costs one short control timeout,
                    # not the client's full socket timeout.
                    assert time.monotonic() - started < 10
                    assert proxy.faults_injected == 1
                    # The retried submit deduped onto the first acceptance.
                    assert len(scheduler.list_submissions()) == 1
                    counters = scheduler.metrics.snapshot()["counters"]
                    assert counters["submissions_deduped"] == 1
                    await t(client.wait, job_id, 120)
                    # Exactly one execution of the plan, not two.
                    counters = scheduler.metrics.snapshot()["counters"]
                    assert counters["chunks_executed"] == plan.total_chunks
                    client_counters = client.telemetry.snapshot()["counters"]
                    assert client_counters["client_connect_errors"] >= 1
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())


class TestLocalFallback:
    def test_service_executor_degrades_to_local_run(self):
        plan = make_plan(shots=200)
        reference = SweepExecutor().run(make_plan(shots=200))
        # Nothing listens on port 9; connection is refused immediately.
        executor = ServiceExecutor("http://127.0.0.1:9", retries=0)
        results = executor.run(plan)
        assert executor.used_fallback
        assert executor.last_job_id is None
        for ours, theirs in zip(results, reference):
            assert ours.statistically_equal(theirs)
        counters = executor.client.telemetry.snapshot()["counters"]
        assert counters["client_local_fallbacks"] == 1
        assert executor.last_stats.jobs_total == len(plan.jobs)

    def test_unreachable_without_fallback_raises(self):
        from repro.service import ServiceUnreachable

        executor = ServiceExecutor(
            "http://127.0.0.1:9", retries=0, local_fallback=False
        )
        with pytest.raises(ServiceUnreachable):
            executor.run(make_plan(shots=200))


class TestServerSigkill:
    def test_sigkill_restart_resumes_bit_identical(self, tmp_path):
        plan = make_plan(shots=5000)  # 200 chunks: the kill lands mid-sweep
        reference = SweepExecutor().run(make_plan(shots=5000))

        with ServerProcess(tmp_path / "run", workers=2) as server:
            server.start()
            client = SweepServiceClient(
                server.url, timeout=10, retries=12, backoff=0.25, backoff_cap=1.0
            )
            job_id = client.submit(plan, submission_key="chaos-sigkill-1")

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id)["chunks_executed"] >= 3:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep never started executing chunks")

            server.sigkill()
            assert not server.alive()
            # The journal survived the kill.
            assert server.journal_path.exists()

            restarter = threading.Thread(
                target=lambda: (time.sleep(1.0), server.start()), daemon=True
            )
            restarter.start()
            # The client rides through the dead window on plain retries.
            status = client.wait(job_id, timeout=240)
            restarter.join(timeout=60)

            assert status["state"] == "done"
            assert status["id"] == job_id
            # Chunks spilled before the kill were recovered, not re-run.
            assert status["chunks_recovered"] >= 1
            assert (
                status["chunks_executed"] + status["chunks_recovered"]
                == plan.total_chunks
            )
            results, stats = client.results(job_id)
            assert stats.chunks_recovered >= 1
            for ours, theirs in zip(results, reference):
                assert ours.statistically_equal(theirs)

            server_counters = client.metrics()["counters"]
            assert server_counters["journal_replays"] >= 1
            assert server_counters["submissions_recovered"] >= 1
            assert server_counters["chunks_recovered"] >= 1

            client_counters = client.telemetry.snapshot()["counters"]
            assert client_counters["client_connect_errors"] >= 1
            assert client_counters["client_retries"] >= 1

    def test_parent_only_kill_orphans_self_exit_and_restart_works(self, tmp_path):
        """The operator drill: ``kill -9 $(cat serve.pid)`` strands the pool
        workers; their heartbeat watchdog must self-exit them (releasing the
        inherited listening socket) so a restart on the same port succeeds."""
        plan = make_plan(shots=5000)

        with ServerProcess(tmp_path / "run", workers=2) as server:
            server.start()
            client = SweepServiceClient(
                server.url, timeout=10, retries=12, backoff=0.25, backoff_cap=1.0
            )
            job_id = client.submit(plan, submission_key="chaos-parent-kill")
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id)["chunks_executed"] >= 3:
                    break
                time.sleep(0.02)

            server.sigkill_parent_only()
            # start() retries through the window where orphans still hold
            # the port; it must converge once the watchdog fires.
            server.start(timeout=60)
            status = client.wait(job_id, timeout=240)
            assert status["state"] == "done"
            assert status["chunks_recovered"] >= 1

    def test_double_start_refused_while_alive(self, tmp_path):
        with ServerProcess(tmp_path / "run", workers=1) as server:
            server.start()
            second = subprocess.run(
                server.command(),
                env=ServerProcess.environ(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert second.returncode == 1
            assert "already owns" in second.stdout + second.stderr
            # The original server is unharmed.
            assert server.alive()
            assert SweepServiceClient(server.url, retries=0).ping()
