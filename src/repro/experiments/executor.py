"""Sweep execution backends: serial, multiprocess, cached, resumable.

The :class:`SweepExecutor` turns a :class:`~repro.experiments.jobs.SweepPlan`
into results.  Work is scheduled at *chunk* granularity — every job is split
into fixed-size shot chunks with independent, order-insensitive random
streams — so a pool stays saturated even when the sweep mixes one expensive
configuration with many cheap ones, and the serial backend (``jobs=1``)
produces bit-identical statistics by running exactly the same chunks through
exactly the same merge.

When a cache directory is configured, finished jobs are persisted to a
content-addressed :class:`~repro.experiments.store.ResultStore` and looked up
before any Monte-Carlo work is scheduled.  A rerun of the same sweep (same
configurations, same seed) therefore performs zero simulation, and a sweep
interrupted part-way resumes from the jobs already on disk.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.jobs import SweepJob, SweepPlan, merge_chunk_results
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import ResultStore, default_cache_dir


def execute_chunk_with_stats(
    job: SweepJob, index: int, decoder_artifact_dir: Optional[str] = None
) -> Tuple[MemoryExperimentResult, Dict[str, int]]:
    """Worker entry point: run one chunk, return it with its decoder counters.

    Both backends sum every chunk's :class:`~repro.decoder.decoder.
    DecoderStats` (cache/LRU hits, artifact loads, APSP rebuilds, clusters)
    into :attr:`SweepStats.decoder`; the sweep service also merges them into
    the shared :class:`~repro.experiments.metrics.MetricsRegistry`.  The
    counters are empty for undecoded jobs.
    """
    decoder_stats: Dict[str, int] = {}
    result = job.run_chunk(index, decoder_artifact_dir, decoder_stats)
    return result, decoder_stats


def warn_unseeded_cache(seed, cache_dir, resume: bool) -> None:
    """Warn when caching can never produce a hit across invocations.

    An unseeded plan draws fresh OS entropy every build, and a live
    ``Generator`` contributes a fresh draw from its stream; either way the
    derived entropy is part of each job's content address, so
    ``cache_dir``/``resume`` writes entries that no later invocation can
    reuse.  Only an explicit integer seed gives stable cache addresses.
    """
    if (cache_dir or resume) and (
        seed is None or isinstance(seed, np.random.Generator)
    ):
        warnings.warn(
            "sweep caching/resume without an explicit integer seed: every "
            "invocation derives fresh entropy, so cached results can never "
            "be reused across runs — pass a fixed seed to make the cache "
            "effective",
            UserWarning,
            stacklevel=3,
        )


@dataclass
class SweepStats:
    """What the last :meth:`SweepExecutor.run` actually did."""

    jobs_total: int = 0
    cache_hits: int = 0
    jobs_run: int = 0
    chunks_run: int = 0
    elapsed_seconds: float = 0.0
    #: Decoding-graph artifact entries built up-front before fan-out, or
    #: ``None`` when no pending job used an artifact store.
    artifacts_prebuilt: Optional[int] = None
    #: Chunks reused from the crash-recovery spill store instead of being
    #: re-executed (service restarts only; ``0`` everywhere else).
    chunks_recovered: int = 0
    #: Shots the sequential stopping rule skipped: the difference between
    #: each adaptively-stopped job's planned budget and the shots it
    #: actually needed to hit its Wilson-interval target.
    shots_saved: int = 0
    #: Jobs the stopping rule finalised before their full shot budget ran.
    jobs_stopped_early: int = 0
    #: :class:`~repro.decoder.decoder.DecoderStats` counters summed over
    #: every chunk executed (cached and recovered chunks decode nothing).
    decoder: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "SweepStats") -> "SweepStats":
        """Accumulate another run's statistics into this one (returns self)."""
        self.jobs_total += other.jobs_total
        self.cache_hits += other.cache_hits
        self.jobs_run += other.jobs_run
        self.chunks_run += other.chunks_run
        self.elapsed_seconds += other.elapsed_seconds
        self.chunks_recovered += other.chunks_recovered
        self.shots_saved += other.shots_saved
        self.jobs_stopped_early += other.jobs_stopped_early
        self.add_decoder_counts(other.decoder)
        if other.artifacts_prebuilt is not None:
            self.artifacts_prebuilt = (
                self.artifacts_prebuilt or 0
            ) + other.artifacts_prebuilt
        return self

    def add_decoder_counts(self, counts: Optional[Dict[str, int]]) -> None:
        """Sum one chunk's (or another run's) decoder counters into ``decoder``."""
        for key, value in (counts or {}).items():
            self.decoder[key] = self.decoder.get(key, 0) + int(value)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (used by the report's ``run_stats.json``)."""
        return {
            "jobs_total": self.jobs_total,
            "cache_hits": self.cache_hits,
            "jobs_run": self.jobs_run,
            "chunks_run": self.chunks_run,
            "elapsed_seconds": self.elapsed_seconds,
            "artifacts_prebuilt": self.artifacts_prebuilt,
            "chunks_recovered": self.chunks_recovered,
            "shots_saved": self.shots_saved,
            "jobs_stopped_early": self.jobs_stopped_early,
            "decoder": dict(self.decoder),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepStats":
        """Rebuild stats from :meth:`to_dict` (the service wire format)."""
        artifacts = payload.get("artifacts_prebuilt")
        return cls(
            jobs_total=int(payload.get("jobs_total", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            jobs_run=int(payload.get("jobs_run", 0)),
            chunks_run=int(payload.get("chunks_run", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            artifacts_prebuilt=None if artifacts is None else int(artifacts),
            chunks_recovered=int(payload.get("chunks_recovered", 0)),
            shots_saved=int(payload.get("shots_saved", 0)),
            jobs_stopped_early=int(payload.get("jobs_stopped_early", 0)),
            decoder={key: int(value) for key, value in payload.get("decoder", {}).items()},
        )

    def summary(self) -> str:
        text = (
            f"{self.jobs_total} job(s): {self.cache_hits} cached, "
            f"{self.jobs_run} executed ({self.chunks_run} chunk(s)) "
            f"in {self.elapsed_seconds:.2f}s"
        )
        if self.artifacts_prebuilt is not None:
            text += f", {self.artifacts_prebuilt} decoder artifact(s) prebuilt"
        if self.chunks_recovered:
            text += f", {self.chunks_recovered} chunk(s) recovered"
        if self.jobs_stopped_early:
            text += (
                f", {self.jobs_stopped_early} job(s) stopped early "
                f"({self.shots_saved} shot(s) saved)"
            )
        return text


class PlanExecution:
    """Chunk-granular bookkeeping for one plan — the shared execution core.

    Both sweep backends drive this object: the in-process
    :class:`SweepExecutor` feeds it chunk results from a loop or a
    ``ProcessPoolExecutor``, and the service scheduler
    (:mod:`repro.service.scheduler`) feeds it from its supervised worker
    pool.  Construction performs the cache lookup (cached jobs never produce
    tasks); :meth:`record_chunk` merges and persists each job the moment its
    last chunk lands, which is what makes interrupted sweeps resumable at
    job granularity.  Because chunk random streams are position-keyed
    (Section 6 seed discipline, see :mod:`repro.experiments.jobs`), the
    merged statistics are bit-identical no matter which backend, worker
    interleaving, or crash/retry history produced the chunks.

    When a :class:`~repro.experiments.metrics.MetricsRegistry` is supplied,
    cache and execution traffic is counted into it (``chunks_executed``,
    ``chunks_cached``, ``chunks_recovered``, ``sweep_jobs_completed``,
    ``sweep_jobs_cached``) so that a live telemetry snapshot reconciles
    exactly with :attr:`stats`: chunks executed plus chunks cached plus
    chunks recovered equals the plan's total chunk count.

    When a ``chunk_store`` is supplied (the sweep service's journal-backed
    crash-recovery mode), every executed chunk except a job's last is also
    spilled to it under a chunk-granular content address, and construction
    reloads any spilled chunks for still-pending jobs.  A service killed
    mid-job therefore resumes without re-executing the chunks that already
    landed — and because chunk streams are position-keyed, the recovered
    statistics are bit-identical to an uninterrupted run.  Spilled entries
    are deleted the moment their job's merged result persists.

    **Adaptive mode.**  A plan carrying a Wilson-interval target
    (:attr:`~repro.experiments.jobs.SweepPlan.adaptive`) switches its decode
    jobs to a sequential stopping rule: backends must then dispatch
    work through :meth:`claim_tasks` (a chunk-index frontier) instead of
    the eager :attr:`tasks` list, and after every recorded chunk the rule
    looks for the smallest prefix length ``L >= min_chunks`` whose
    cumulative Wilson half-width meets the job's target.  When one exists
    the job finalises early: chunks ``0..L-1`` merge in a single
    :func:`merge_chunk_results` call (bit-identical to a fixed run of
    ``L * chunk_shots`` shots, by the position-keyed seed discipline) and
    the result persists under the *prefix job's* cache key
    (``replace(job, shots=L * chunk_shots)``), so a later fixed run of that
    prefix — or a warm adaptive rerun, which probes prefix keys during
    construction — is a pure cache hit.  The stop point depends only on
    the chunk statistics, never on arrival order or worker count;
    straggler chunks past the stop point are discarded on arrival.
    """

    def __init__(
        self,
        plan: SweepPlan,
        store: Optional[ResultStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        chunk_store: Optional[ResultStore] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.metrics = metrics
        self.chunk_store = chunk_store
        self.stats = SweepStats(jobs_total=len(plan.jobs))
        self.results: List[Optional[MemoryExperimentResult]] = [None] * len(plan.jobs)
        self.pending: List[int] = []
        self._chunk_results: Dict[Tuple[int, int], MemoryExperimentResult] = {}
        self._remaining: Dict[int, int] = {}
        self._cached_chunks = 0
        self._recovered_chunks = 0
        self._skipped_chunks = 0
        adaptive = plan.adaptive
        self._rule: Optional[AdaptiveConfig] = (
            adaptive if adaptive is not None and adaptive.enabled else None
        )
        #: Indices of the jobs the stopping rule applies to (decode jobs).
        self._adaptive: Set[int] = set()
        self._merge_base: Dict[int, MemoryExperimentResult] = {}
        self._base_chunks: Dict[int, int] = {}
        self._next_chunk: Dict[int, int] = {}
        self._rr_cursor = 0
        for index, job in enumerate(plan.jobs):
            config = self._rule if job.decode else None
            if config is not None:
                self._adaptive.add(index)
            cached = store.load(job.cache_key()) if store is not None else None
            if cached is not None:
                self.results[index] = cached
                self.stats.cache_hits += 1
                self._cached_chunks += job.num_chunks
                if metrics is not None:
                    metrics.counter("chunks_cached").inc(job.num_chunks)
                    metrics.counter("sweep_jobs_cached").inc()
                continue
            if config is not None and store is not None:
                prefix, length = self._probe_adaptive_prefix(job)
                if (
                    prefix is not None
                    and length >= config.min_chunks
                    and config.satisfied(prefix.logical_errors, prefix.shots)
                ):
                    # A previous adaptive run already stopped this job at
                    # ``length`` chunks and its interval still meets the
                    # target: a warm rerun is a pure cache hit.
                    self.results[index] = prefix
                    self.stats.cache_hits += 1
                    self.stats.shots_saved += job.shots - prefix.shots
                    self._cached_chunks += length
                    self._skipped_chunks += job.num_chunks - length
                    if metrics is not None:
                        metrics.counter("chunks_cached").inc(length)
                        metrics.counter("chunks_skipped").inc(job.num_chunks - length)
                        metrics.counter("sweep_jobs_cached").inc()
                    continue
                if prefix is not None:
                    # Cached prefix exists but no longer meets the (tighter)
                    # target: reuse it as the merge base and only simulate
                    # the chunks beyond it.  Counts are exact; merged LPR
                    # float means may differ from an uninterrupted run by
                    # final-rounding only.
                    self._merge_base[index] = prefix
                    self._base_chunks[index] = length
                    self._cached_chunks += length
                    if metrics is not None:
                        metrics.counter("chunks_cached").inc(length)
                    self.pending.append(index)
                    self._remaining[index] = job.num_chunks - length
                    self._next_chunk[index] = length
                    continue
            self.pending.append(index)
            self._remaining[index] = job.num_chunks
        self.stats.jobs_run = len(self.pending)
        if chunk_store is not None:
            self._recover_spilled_chunks()

    @property
    def adaptive_mode(self) -> bool:
        """True when a stopping rule applies to any job.

        Backends must then dispatch via :meth:`claim_tasks` so that chunks
        past a job's (unknown-in-advance) stop point are never simulated.
        """
        return bool(self._adaptive)

    def _probe_adaptive_prefix(
        self, job: SweepJob
    ) -> Tuple[Optional[MemoryExperimentResult], int]:
        """Longest cached *prefix* of an adaptive job (result, chunk count).

        An earlier adaptive run that stopped ``job`` at ``L`` chunks saved
        its merged result under ``replace(job, shots=L * chunk_shots)`` —
        the same content address a fixed run of that many shots would use.
        Returns ``(None, 0)`` when no prefix is cached.
        """
        assert self.store is not None
        for length in range(job.num_chunks - 1, 0, -1):
            prefix_job = replace(job, shots=length * job.chunk_shots)
            cached = self.store.load(prefix_job.cache_key())
            if cached is not None:
                return cached, length
        return None, 0

    # ------------------------------------------------------------------
    def _chunk_key(self, job_index: int, chunk: int) -> str:
        """Content address of one chunk's spilled result.

        Derived from the owning job's full configuration (which already
        embeds the plan entropy and the job's spawn key) plus the chunk
        index, so a spilled chunk can only ever be recovered by the exact
        chunk of the exact job that produced it.
        """
        from repro.experiments.store import config_hash

        return config_hash(
            {"chunk": chunk, "chunk_of": self.plan.jobs[job_index].config_dict()}
        )

    def _recover_spilled_chunks(self) -> None:
        """Reload chunks spilled by a previous (crashed) service process."""
        assert self.chunk_store is not None
        for job_index in list(self.pending):
            for chunk in range(self.plan.jobs[job_index].num_chunks):
                spilled = self.chunk_store.load(self._chunk_key(job_index, chunk))
                if spilled is not None:
                    self.record_chunk(job_index, chunk, spilled, recovered=True)

    @property
    def tasks(self) -> List[Tuple[int, int]]:
        """Every (job index, chunk index) pair that still needs simulation."""
        return [
            (job_index, chunk)
            for job_index in self.pending
            if self.results[job_index] is None
            for chunk in range(self.plan.jobs[job_index].num_chunks)
            if (job_index, chunk) not in self._chunk_results
        ]

    def claim_tasks(self, limit: int = 1) -> List[Tuple[int, int]]:
        """Claim up to ``limit`` frontier chunks for execution (adaptive mode).

        Unlike :attr:`tasks` (which eagerly lists every chunk of every
        pending job), this hands out chunk indices incrementally,
        round-robin across unfinished jobs, so the shot budget flows to the
        jobs whose confidence intervals are still loose: a job that
        finalises early simply stops being claimable and the worker slots
        it would have occupied drain to the remaining jobs.  Chunks already
        recorded (recovered spills, duplicate retries) are skipped.
        """
        claimed: List[Tuple[int, int]] = []
        if limit <= 0:
            return claimed
        active = [index for index in self.pending if self.results[index] is None]
        if not active:
            return claimed
        start = self._rr_cursor % len(active)
        order = active[start:] + active[:start]
        progressed = True
        while len(claimed) < limit and progressed:
            progressed = False
            for job_index in order:
                if len(claimed) >= limit:
                    break
                if self.results[job_index] is not None:
                    continue
                job = self.plan.jobs[job_index]
                chunk = self._next_chunk.get(job_index, 0)
                while chunk < job.num_chunks and (job_index, chunk) in self._chunk_results:
                    chunk += 1
                if chunk >= job.num_chunks:
                    self._next_chunk[job_index] = chunk
                    continue
                self._next_chunk[job_index] = chunk + 1
                claimed.append((job_index, chunk))
                self._rr_cursor += 1
                progressed = True
        return claimed

    @property
    def is_complete(self) -> bool:
        return all(result is not None for result in self.results)

    @property
    def jobs_done(self) -> int:
        return sum(1 for result in self.results if result is not None)

    @property
    def chunks_done(self) -> int:
        """Chunks accounted for so far (cached jobs count all their chunks).

        Chunks the stopping rule skipped count as done — an early-stopped
        job is finished, and progress displays should reach 100%.
        """
        return (
            self.stats.chunks_run
            + self._cached_chunks
            + self._recovered_chunks
            + self._skipped_chunks
        )

    def prebuild_artifacts(self, decoder_artifact_dir: Optional[str]) -> None:
        """Build each pending decode job's decoder artifacts once, up-front."""
        decode_jobs = [
            self.plan.jobs[index] for index in self.pending if self.plan.jobs[index].decode
        ]
        if not decoder_artifact_dir or not decode_jobs:
            return
        from repro.decoder.artifacts import prebuild_job_artifacts

        self.stats.artifacts_prebuilt = prebuild_job_artifacts(
            decode_jobs, decoder_artifact_dir
        )

    def record_chunk(
        self,
        job_index: int,
        chunk: int,
        result: MemoryExperimentResult,
        decoder_stats: Optional[Dict[str, int]] = None,
        recovered: bool = False,
    ) -> bool:
        """Account one executed chunk; returns True when its job completed.

        On job completion the chunks merge in fixed chunk order (so the
        arithmetic is backend-independent) and the merged result persists to
        the store immediately — a sweep killed later loses only unfinished
        jobs.  Duplicate deliveries of a chunk (a retried worker whose first
        attempt actually finished) are harmless: the rerun is bit-identical
        by seed discipline, and the chunk is only counted once.

        ``recovered=True`` marks a chunk reloaded from the crash-recovery
        spill store rather than freshly executed: it counts toward
        ``chunks_recovered`` instead of ``chunks_run``/``chunks_executed``.
        When a ``chunk_store`` is configured, every freshly-executed chunk
        except the job's last is spilled to it so a crash between job
        completions loses nothing already simulated.  (Adaptive jobs spill
        *every* chunk — the stop point isn't known in advance, so any chunk
        may turn out to be the last.)

        A chunk arriving after its job already finalised early (an
        in-flight straggler past the stop point) is counted as executed
        but otherwise discarded — the stopping rule's result depends only
        on the prefix.

        ``decoder_stats`` are the chunk's decoder counters (see
        :func:`execute_chunk_with_stats`), summed into ``stats.decoder``.
        """
        self.stats.add_decoder_counts(decoder_stats)
        if self.results[job_index] is not None or job_index not in self._remaining:
            # Job already finalised (adaptive early stop); straggler chunk.
            # Its slot was counted as skipped at finalise time — move it to
            # the executed/recovered column so chunks_done stays exact.
            self._skipped_chunks = max(0, self._skipped_chunks - 1)
            if recovered:
                self._recovered_chunks += 1
                self.stats.chunks_recovered += 1
                if self.metrics is not None:
                    self.metrics.counter("chunks_recovered").inc()
            else:
                self.stats.chunks_run += 1
                if self.metrics is not None:
                    self.metrics.counter("chunks_executed").inc()
                    self.metrics.counter("chunks_discarded").inc()
            return False
        duplicate = (job_index, chunk) in self._chunk_results
        self._chunk_results[(job_index, chunk)] = result
        if duplicate:
            return False
        if recovered:
            self._recovered_chunks += 1
            self.stats.chunks_recovered += 1
            if self.metrics is not None:
                self.metrics.counter("chunks_recovered").inc()
        else:
            self.stats.chunks_run += 1
            if self.metrics is not None:
                self.metrics.counter("chunks_executed").inc()
            if self.chunk_store is not None and (
                self._remaining[job_index] > 1 or job_index in self._adaptive
            ):
                self.chunk_store.save(self._chunk_key(job_index, chunk), result)
        self._remaining[job_index] -= 1
        if self._remaining[job_index] > 0:
            if job_index in self._adaptive:
                return self._maybe_finalize_early(job_index)
            return False
        if job_index in self._adaptive and self._maybe_finalize_early(job_index):
            return True
        del self._remaining[job_index]
        job = self.plan.jobs[job_index]
        base_chunks = self._base_chunks.pop(job_index, 0)
        parts: List[MemoryExperimentResult] = []
        if job_index in self._merge_base:
            parts.append(self._merge_base.pop(job_index))
        parts.extend(
            self._chunk_results.pop((job_index, c))
            for c in range(base_chunks, job.num_chunks)
        )
        merged = merge_chunk_results(parts)
        if self.store is not None:
            self.store.save(job.cache_key(), merged, config=job.config_dict())
        self.results[job_index] = merged
        if self.metrics is not None:
            self.metrics.counter("sweep_jobs_completed").inc()
        if self.chunk_store is not None:
            for spilled_chunk in range(job.num_chunks):
                self.chunk_store.remove(self._chunk_key(job_index, spilled_chunk))
        return True

    # -- adaptive stopping rule ----------------------------------------
    def _maybe_finalize_early(self, job_index: int) -> bool:
        """Apply the sequential stopping rule to ``job_index``.

        Scans prefix lengths over the *contiguous* recorded prefix and
        finalises at the smallest ``L >= min_chunks`` whose cumulative
        Wilson half-width meets the job's target.  Because the scan always
        walks lengths in ascending order over whatever prefix is contiguous
        so far, the chosen stop point is a pure function of the chunk
        statistics — independent of chunk arrival order and worker count.
        Returns True when the job finalised.
        """
        config = self._rule
        if self.results[job_index] is not None:
            return False
        job = self.plan.jobs[job_index]
        base = self._merge_base.get(job_index)
        base_chunks = self._base_chunks.get(job_index, 0)
        cum_errors = max(base.logical_errors, 0) if base is not None else 0
        cum_shots = base.shots if base is not None else 0
        length = base_chunks
        while (job_index, length) in self._chunk_results:
            part = self._chunk_results[(job_index, length)]
            cum_errors += max(part.logical_errors, 0)
            cum_shots += part.shots
            length += 1
            if length >= job.num_chunks:
                break  # full job: the normal completion merge handles it
            if length < config.min_chunks:
                continue
            if config.satisfied(cum_errors, cum_shots):
                self._finalize_early(job_index, length, cum_errors, cum_shots)
                return True
        if self.metrics is not None and cum_shots > 0:
            self.metrics.gauge(f"ler_ci_halfwidth_job{job_index}").set(
                config.halfwidth(cum_errors, cum_shots)
            )
        return False

    def _finalize_early(
        self, job_index: int, length: int, errors: int, shots: int
    ) -> None:
        """Finalise an adaptive job at ``length`` chunks (< num_chunks).

        The prefix merges in one :func:`merge_chunk_results` call and is
        saved under the cache key of the equivalent *fixed* job
        (``replace(job, shots=length * chunk_shots)``): by the
        position-keyed seed discipline that fixed job would run exactly
        these chunks, so the truncated result is bit-identical to it and
        either run's cache entry serves the other.
        """
        job = self.plan.jobs[job_index]
        config = self._rule
        base_chunks = self._base_chunks.pop(job_index, 0)
        parts: List[MemoryExperimentResult] = []
        if job_index in self._merge_base:
            parts.append(self._merge_base.pop(job_index))
        parts.extend(
            self._chunk_results.pop((job_index, c)) for c in range(base_chunks, length)
        )
        merged = merge_chunk_results(parts)
        prefix_shots = length * job.chunk_shots
        if self.store is not None:
            prefix_job = replace(job, shots=prefix_shots)
            self.store.save(
                prefix_job.cache_key(), merged, config=prefix_job.config_dict()
            )
        self.results[job_index] = merged
        del self._remaining[job_index]
        # Chunks past the stop point count as skipped — minus any that were
        # already executed out of order (pool stragglers), whose slots are
        # already in the executed column.
        skipped = job.num_chunks - length - sum(
            1
            for c in range(length, job.num_chunks)
            if (job_index, c) in self._chunk_results
        )
        self._skipped_chunks += skipped
        self.stats.shots_saved += job.shots - prefix_shots
        self.stats.jobs_stopped_early += 1
        if self.metrics is not None:
            self.metrics.counter("jobs_stopped_early").inc()
            self.metrics.counter("shots_saved").inc(job.shots - prefix_shots)
            self.metrics.counter("chunks_skipped").inc(skipped)
            self.metrics.counter("sweep_jobs_completed").inc()
            self.metrics.gauge(f"ler_ci_halfwidth_job{job_index}").set(
                config.halfwidth(errors, shots)
            )
        if self.chunk_store is not None:
            for spilled_chunk in range(job.num_chunks):
                self.chunk_store.remove(self._chunk_key(job_index, spilled_chunk))

    def finish(self, elapsed_seconds: float) -> SweepStats:
        """Stamp the elapsed time and return the final statistics."""
        self.stats.elapsed_seconds = elapsed_seconds
        return self.stats


class SweepExecutor:
    """Runs sweep plans serially or across a process pool, with caching.

    Args:
        jobs: Worker processes.  ``1`` (default) runs in-process; ``N > 1``
            fans chunks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
            Both backends yield identical statistics for the same plan.
        cache_dir: Directory for the content-addressed result store.  When
            set, completed jobs are saved there and future runs reuse them.
        resume: Reuse (and keep extending) the default cache directory when
            ``cache_dir`` is not given — the switch that lets an interrupted
            invocation pick up where it left off.
        store: Pre-built :class:`ResultStore` (overrides ``cache_dir``).
        decoder_artifact_dir: Persistent decoder-artifact store directory
            (:mod:`repro.decoder.artifacts`).  When set, every chunk
            (including those run by pool workers) decodes with it, and the
            executor pre-builds each unique decoding graph's tables *once*
            before fan-out so worker processes start artifact-warm instead
            of rebuilding APSP/frame tables N times.  Perf-only: job cache
            identity is unchanged.
        metrics: Optional :class:`~repro.experiments.metrics.MetricsRegistry`
            counting chunk/cache traffic and per-chunk latency (the same
            registry the sweep service snapshots over its API).

    The sequential stopping rule comes with the plan
    (:attr:`~repro.experiments.jobs.SweepPlan.adaptive`).

    After :meth:`run`, :attr:`last_stats` reports cache hits and the number of
    chunks actually simulated (``0`` on a fully-cached rerun).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        resume: bool = False,
        store: Optional[ResultStore] = None,
        decoder_artifact_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        if store is None:
            root = cache_dir if cache_dir else (default_cache_dir() if resume else None)
            store = ResultStore(root) if root else None
        self.store = store
        self.decoder_artifact_dir = decoder_artifact_dir
        self.metrics = metrics
        self.last_stats = SweepStats()

    # ------------------------------------------------------------------
    def run_job(self, job: SweepJob) -> MemoryExperimentResult:
        """Convenience wrapper: run a single job through the full machinery."""
        return self.run(SweepPlan([job]))[0]

    def run(self, plan: SweepPlan) -> List[MemoryExperimentResult]:
        """Execute ``plan`` and return results in plan order."""
        started = time.perf_counter()
        execution = PlanExecution(plan, store=self.store, metrics=self.metrics)
        # Build each unique decoding graph's APSP/frame tables once, here, so
        # the fan-out below (including every pool worker) loads them back as
        # shared memory maps instead of recomputing per process.
        execution.prebuild_artifacts(self.decoder_artifact_dir)
        execute = partial(
            execute_chunk_with_stats, decoder_artifact_dir=self.decoder_artifact_dir
        )

        if execution.adaptive_mode:
            self._run_adaptive(plan, execution, execute)
        else:
            tasks = execution.tasks
            if self.jobs > 1 and len(tasks) > 1:
                workers = min(self.jobs, len(tasks))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(execute, plan.jobs[job_index], chunk): (job_index, chunk)
                        for job_index, chunk in tasks
                    }
                    for future in as_completed(futures):
                        job_index, chunk = futures[future]
                        execution.record_chunk(job_index, chunk, *future.result())
            else:
                # tasks are job-major, so each job completes (and is saved)
                # before the next one starts.
                for job_index, chunk in tasks:
                    execution.record_chunk(
                        job_index, chunk, *execute(plan.jobs[job_index], chunk)
                    )

        self.last_stats = execution.finish(time.perf_counter() - started)
        return execution.results  # type: ignore[return-value]

    def _run_adaptive(
        self,
        plan: SweepPlan,
        execution: PlanExecution,
        execute: Callable[[SweepJob, int], Tuple[MemoryExperimentResult, Dict[str, int]]],
    ) -> None:
        """Drive an adaptive execution through its chunk frontier.

        Serial mode claims one chunk at a time, so a job executes exactly up
        to its stop point.  Pool mode keeps ``jobs`` chunks in flight and
        refills after every completion; up to ``jobs - 1`` straggler chunks
        past a stop point may execute and be discarded — the *recorded*
        statistics are unaffected (the stop point is arrival-order
        independent), only a bounded amount of surplus work is done.
        """
        if self.jobs > 1:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures: Dict[object, Tuple[int, int]] = {}

                def refill() -> None:
                    for job_index, chunk in execution.claim_tasks(
                        self.jobs - len(futures)
                    ):
                        future = pool.submit(execute, plan.jobs[job_index], chunk)
                        futures[future] = (job_index, chunk)

                refill()
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        job_index, chunk = futures.pop(future)
                        execution.record_chunk(job_index, chunk, *future.result())
                    refill()
        else:
            while True:
                claimed = execution.claim_tasks(1)
                if not claimed:
                    break
                job_index, chunk = claimed[0]
                execution.record_chunk(
                    job_index, chunk, *execute(plan.jobs[job_index], chunk)
                )
