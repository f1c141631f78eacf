"""Job-based sweep planning: fully-specified, seed-stable units of work.

A sweep (LER vs distance, an LPR time series, a DQLR comparison, ...) is
*planned* before it is executed: every point of the parameter grid becomes one
:class:`SweepJob` — a frozen record of primitives that completely determines a
Monte-Carlo run, including its random stream.  Planning and execution are
separated so that the :class:`~repro.experiments.executor.SweepExecutor` can
run jobs serially or across processes, cache them content-addressed on disk,
and resume interrupted sweeps, all without changing a single statistic.

Seed discipline
---------------
A plan derives one root entropy value from the user's seed and gives job ``i``
the :class:`numpy.random.SeedSequence` spawn key ``(i,)``.  Each job further
splits its shots into fixed-size chunks, and chunk ``c`` of job ``i`` draws
from the child sequence with spawn key ``(i, c)``.  Because spawn keys are
data (not "how many times has this generator been used so far"), the stream
feeding every chunk is independent of execution order, of which worker runs
it, and of whether any other chunk ran at all: serial and parallel execution
of the same plan produce bit-identical statistics, and a cached result is
exactly the result a fresh run would have produced.

Chunking also keeps a pool busy: one huge configuration becomes many tasks
instead of serialising the sweep behind a single worker.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes import DEFAULT_CODE_FAMILY, canonical_code_family, make_code
from repro.core.policies import make_policy
from repro.core.policies.base import LrcPolicy
from repro.core.qsg import PROTOCOL_SWAP
from repro.decoder.matching import MATCHING_REVISION
from repro.experiments.adaptive import DEFAULT_MIN_CHUNKS, AdaptiveConfig
from repro.experiments.memory import MemoryExperiment
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import config_hash
from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile
from repro.sim.rng import RngLike

#: Shots per executor task unless the plan overrides it.  Small enough that a
#: four-configuration sweep still fans out across a pool, large enough that
#: per-task overhead (fork, pickle, simulator setup) stays negligible.
DEFAULT_CHUNK_SHOTS = 256

#: Engine names of older wire forms, which :meth:`SweepJob.from_wire`
#: replays on the packed engine.  The cache key moves with the value, so
#: results cached under these names (other random streams) miss instead of
#: being served.
_LEGACY_ENGINES = ("auto", "batched")


def resolve_policy(name: str, **kwargs) -> LrcPolicy:
    """Instantiate any schedulable policy, including the DQLR baseline."""
    key = name.strip().lower()
    if key == "dqlr":
        # Imported lazily: repro.dqlr.protocol itself builds on this package.
        from repro.dqlr.protocol import DqlrBaselinePolicy

        return DqlrBaselinePolicy(**kwargs)
    return make_policy(name, **kwargs)


def canonical_policy_name(name: str) -> str:
    """The canonical name a policy reports in results (resolves aliases)."""
    return resolve_policy(name).name


def canonical_noise_profile(profile) -> Optional[str]:
    """Normalise any accepted noise-profile form for :class:`SweepJob` storage.

    Accepts ``None``, a :class:`~repro.noise.profiles.NoiseProfile`, its
    canonical JSON (as a string or as the parsed config dict), or a CLI spec
    string (``"biased:eta=4"``).  The uniform profile normalises to ``None``
    so the degenerate case shares the cache identity (and random stream) of
    a profile-less job.
    """
    if profile is None:
        return None
    if isinstance(profile, dict):
        profile = NoiseProfile.from_config(profile)
    elif isinstance(profile, str):
        text = profile.strip()
        profile = (
            NoiseProfile.from_json(text)
            if text.startswith("{")
            else NoiseProfile.parse(text)
        )
    profile.validate()
    return None if profile.is_uniform else profile.canonical_json()


@dataclass(frozen=True)
class SweepJob:
    """One fully-specified Monte-Carlo configuration.

    Every field is a primitive, so a job pickles cheaply to worker processes
    and serialises canonically for content-addressed caching.  ``seed_entropy``
    and ``spawn_key`` pin the job's random stream (see the module docstring);
    ``chunk_shots`` is part of the identity because it determines how the
    shots split across child streams.

    Every field is part of :meth:`config_dict`: settings that leave the
    statistics unchanged (where decoder tables are stored, when the stopping
    rule ends a job) belong to the executor or the plan, never to the job.
    """

    distance: int
    policy: str
    shots: int
    rounds: int
    p: float = 1e-3
    #: Code family the experiment runs on (see :func:`repro.codes.make_code`).
    code_family: str = DEFAULT_CODE_FAMILY
    #: Canonical JSON of a non-uniform :class:`~repro.noise.profiles.NoiseProfile`
    #: (``None`` = the paper's uniform model).
    noise_profile: Optional[str] = None
    leakage_enabled: bool = True
    transport_model: str = LeakageTransportModel.REMAIN.value
    protocol: str = PROTOCOL_SWAP
    decode: bool = True
    decoder_method: str = "auto"
    engine: str = "packed"
    batch_size: Optional[int] = None
    policy_kwargs: Tuple[Tuple[str, object], ...] = ()
    seed_entropy: int = 0
    spawn_key: Tuple[int, ...] = ()
    chunk_shots: int = DEFAULT_CHUNK_SHOTS

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(
                f"shots must be >= 1, got {self.shots}: a zero-shot job has "
                "no Monte-Carlo stream and would cache a degenerate result"
            )
        if self.chunk_shots < 1:
            raise ValueError(f"chunk_shots must be >= 1, got {self.chunk_shots}")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """JSON-serialisable form of every identity-relevant field.

        ``code_family`` and ``noise_profile`` join the identity only when
        they deviate from the degenerate defaults (rotated surface code,
        uniform noise), so every pre-existing cache entry keeps its address.
        Decoded jobs also carry the exact matcher's tie-break revision
        (:data:`~repro.decoder.matching.MATCHING_REVISION`), a constant
        rather than a setting: results decoded under another tie-break miss,
        while undecoded (LPR, speculation) jobs keep their keys.
        """
        config: Dict[str, object] = {}
        if self.code_family != DEFAULT_CODE_FAMILY:
            config["code_family"] = self.code_family
        if self.noise_profile is not None:
            config["noise_profile"] = self.noise_profile
        config.update({
            "distance": self.distance,
            "policy": self.policy,
            "shots": self.shots,
            "rounds": self.rounds,
            "p": self.p,
            "leakage_enabled": self.leakage_enabled,
            "transport_model": self.transport_model,
            "protocol": self.protocol,
            "decode": self.decode,
            "decoder_method": self.decoder_method,
            "engine": self.engine,
            "batch_size": self.batch_size,
            "policy_kwargs": {key: value for key, value in self.policy_kwargs},
            "seed_entropy": self.seed_entropy,
            "spawn_key": list(self.spawn_key),
            "chunk_shots": self.chunk_shots,
        })
        if self.decode:
            config["matching_revision"] = MATCHING_REVISION
        return config

    def cache_key(self) -> str:
        """Content address of this job (SHA-256 of the canonical config)."""
        return config_hash(self.config_dict())

    # ------------------------------------------------------------------
    # Wire form (sweep-service submissions)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, object]:
        """Every field as JSON primitives — the sweep-service submit body.

        Unlike :meth:`config_dict` this always names every field (defaults
        included), so a service-side job is exactly the job the client
        built.
        """
        return {
            "distance": self.distance,
            "policy": self.policy,
            "shots": self.shots,
            "rounds": self.rounds,
            "p": self.p,
            "code_family": self.code_family,
            "noise_profile": self.noise_profile,
            "leakage_enabled": self.leakage_enabled,
            "transport_model": self.transport_model,
            "protocol": self.protocol,
            "decode": self.decode,
            "decoder_method": self.decoder_method,
            "engine": self.engine,
            "batch_size": self.batch_size,
            "policy_kwargs": [[key, value] for key, value in self.policy_kwargs],
            "seed_entropy": self.seed_entropy,
            "spawn_key": list(self.spawn_key),
            "chunk_shots": self.chunk_shots,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "SweepJob":
        """Rebuild a job from :meth:`to_wire` (inverse, bit-identical).

        Legacy engine names (:data:`_LEGACY_ENGINES`) become ``"packed"``.
        """
        fields = dict(payload)
        if fields.get("engine") in _LEGACY_ENGINES:
            fields["engine"] = "packed"
        fields["policy_kwargs"] = tuple(
            (str(key), value) for key, value in fields.get("policy_kwargs", [])
        )
        fields["spawn_key"] = tuple(int(v) for v in fields.get("spawn_key", []))
        return cls(**fields)

    # ------------------------------------------------------------------
    # Seeds and chunks
    # ------------------------------------------------------------------
    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed_entropy, spawn_key=self.spawn_key)

    @property
    def num_chunks(self) -> int:
        return max(1, math.ceil(self.shots / self.chunk_shots))

    def chunk_sizes(self) -> List[int]:
        """Shots per chunk; all chunks full-size except possibly the last."""
        sizes = [self.chunk_shots] * (self.num_chunks - 1)
        sizes.append(self.shots - self.chunk_shots * (self.num_chunks - 1))
        return sizes

    def chunk_seed(self, index: int) -> np.random.SeedSequence:
        """The child sequence for chunk ``index``.

        Constructed directly from the extended spawn key (equivalent to
        ``self.seed_sequence().spawn(...)[index]``) so any chunk's stream can
        be rebuilt in any process without spawning its predecessors.
        """
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk index {index} out of range for {self.num_chunks} chunks")
        return np.random.SeedSequence(
            self.seed_entropy, spawn_key=self.spawn_key + (index,)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_experiment(
        self, rng: RngLike, decoder_artifact_dir: Optional[str] = None
    ) -> MemoryExperiment:
        """Materialise the configuration into a ready-to-run experiment.

        ``decoder_artifact_dir`` names a persistent decoder-artifact store
        (:mod:`repro.decoder.artifacts`); it only changes where the decoding
        graph's tables come from, never a correction.
        """
        noise = NoiseParams.standard(self.p)
        profile = (
            NoiseProfile.from_json(self.noise_profile)
            if self.noise_profile is not None
            else None
        )
        if self.leakage_enabled:
            leakage = LeakageModel.standard(
                self.p, transport_model=LeakageTransportModel(self.transport_model)
            )
        else:
            leakage = LeakageModel.disabled()
        return MemoryExperiment(
            code=make_code(self.code_family, self.distance),
            policy=resolve_policy(self.policy, **dict(self.policy_kwargs)),
            noise=noise,
            noise_profile=profile,
            leakage=leakage,
            rounds=self.rounds,
            protocol=self.protocol,
            decode=self.decode,
            decoder_method=self.decoder_method,
            decoder_artifact_dir=decoder_artifact_dir,
            seed=rng,
            engine=self.engine,
            batch_size=self.batch_size,
        )

    def run_chunk(
        self,
        index: int,
        decoder_artifact_dir: Optional[str] = None,
        decoder_stats: Optional[Dict[str, int]] = None,
    ) -> MemoryExperimentResult:
        """Run one chunk of this job on its own deterministic stream.

        ``decoder_stats``, when given, receives the chunk decoder's
        :class:`~repro.decoder.decoder.DecoderStats` counters.
        """
        shots = self.chunk_sizes()[index]
        rng = np.random.default_rng(self.chunk_seed(index))
        experiment = self.build_experiment(rng, decoder_artifact_dir)
        result = experiment.run(shots)
        if decoder_stats is not None and experiment.decoder is not None:
            decoder_stats.update(experiment.decoder.stats.as_dict())
        return result

    def run(self) -> MemoryExperimentResult:
        """Run every chunk in-process and merge (the serial reference path)."""
        return merge_chunk_results(
            [self.run_chunk(index) for index in range(self.num_chunks)]
        )


def merge_chunk_results(
    parts: Sequence[MemoryExperimentResult],
) -> MemoryExperimentResult:
    """Combine per-chunk results into the whole-job result.

    Chunks must be passed in chunk order; the shot-weighted arithmetic is then
    fixed, so merged statistics are identical no matter which backend (or
    which worker interleaving) produced the parts.
    """
    if not parts:
        raise ValueError("cannot merge zero chunk results")
    first = parts[0]
    if len(parts) == 1:
        return first
    total_shots = sum(part.shots for part in parts)
    lpr_total = np.zeros_like(first.lpr_total)
    lpr_data = np.zeros_like(first.lpr_data)
    lpr_parity = np.zeros_like(first.lpr_parity)
    speculation = first.speculation
    logical_errors = 0
    total_lrcs = 0.0
    decode = first.logical_errors >= 0
    for index, part in enumerate(parts):
        if part.rounds != first.rounds or part.policy != first.policy:
            raise ValueError("chunk results describe different configurations")
        lpr_total += part.lpr_total * part.shots
        lpr_data += part.lpr_data * part.shots
        lpr_parity += part.lpr_parity * part.shots
        total_lrcs += part.lrcs_per_round * part.shots * part.rounds
        logical_errors += max(part.logical_errors, 0)
        if index:
            speculation = speculation.merge(part.speculation)
    return MemoryExperimentResult(
        policy=first.policy,
        distance=first.distance,
        rounds=first.rounds,
        physical_error_rate=first.physical_error_rate,
        shots=total_shots,
        logical_errors=logical_errors if decode else -1,
        lpr_total=lpr_total / total_shots,
        lpr_data=lpr_data / total_shots,
        lpr_parity=lpr_parity / total_shots,
        lrcs_per_round=total_lrcs / (total_shots * first.rounds),
        speculation=speculation,
        metadata=dict(first.metadata),
    )


def resolve_rounds(distance: int, cycles: Optional[int], rounds: Optional[int]) -> int:
    """Normalise the paper's ``cycles`` convention (1 cycle = d rounds)."""
    if rounds is not None:
        return int(rounds)
    if cycles is None:
        raise ValueError("provide either rounds or cycles")
    return int(cycles) * int(distance)


def root_entropy(seed: RngLike) -> int:
    """Derive the plan-level entropy from any accepted seed form.

    Integers pass through (so identical user seeds address identical cache
    entries); ``None`` draws fresh OS entropy (unseeded sweeps stay random
    between invocations but remain internally deterministic); a live
    ``Generator`` contributes one draw from its stream.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    entropy = np.random.SeedSequence(seed).entropy
    return int(entropy)


#: Per-job wire keys of submissions written while decoder tuning and the
#: stopping targets still rode on :class:`SweepJob`.
#: :meth:`SweepPlan.from_wire` drops the decoder keys and lifts the targets
#: onto the plan, so a journal written before the upgrade still replays.
_LEGACY_DECODER_KEYS = (
    "decoder_dp_threshold", "decoder_cache_size", "decoder_artifact_dir",
)
_LEGACY_TARGET_KEYS = (
    "target_ci_halfwidth", "target_rel_halfwidth", "adaptive_min_chunks",
)


def _lift_legacy_targets(jobs: List[Dict[str, object]]) -> Optional[AdaptiveConfig]:
    """Strip the legacy per-job keys from ``jobs``; return the rule they set.

    Decoder keys never changed a statistic and are dropped.  Stopping
    targets only ever applied to decode jobs, and a plan holds one stopping
    rule, so the decode jobs must agree on them: a record whose decode jobs
    differ cannot be replayed faithfully and is rejected.
    """
    rules = set()
    for job in jobs:
        for key in _LEGACY_DECODER_KEYS:
            job.pop(key, None)
        ci, rel, min_chunks = (job.pop(key, None) for key in _LEGACY_TARGET_KEYS)
        if job.get("decode", True):
            if ci is None and rel is None:
                rules.add(None)
            else:
                rules.add((ci, rel, min_chunks or DEFAULT_MIN_CHUNKS))
    if len(rules) > 1:
        raise ValueError(
            "plan record gives its decode jobs differing stopping targets "
            f"{sorted(rules, key=repr)}; a plan holds a single stopping rule"
        )
    rule = rules.pop() if rules else None
    if rule is None:
        return None
    ci, rel, min_chunks = rule
    return AdaptiveConfig(
        target_ci_halfwidth=ci, target_rel_halfwidth=rel, min_chunks=int(min_chunks)
    )


@dataclass
class SweepPlan:
    """An ordered list of jobs sharing one root seed derivation.

    ``adaptive`` is the sequential stopping rule
    (:mod:`repro.experiments.adaptive`) applied to every decode job; ``None``
    runs every job to its full shot budget.  It is not part of any job's
    cache identity: a job stopped early is cached as the fixed job of the
    prefix it ran.
    """

    jobs: List[SweepJob] = field(default_factory=list)
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def build(
        cls,
        configs: Sequence[Dict[str, object]],
        seed: RngLike = None,
        chunk_shots: Optional[int] = None,
    ) -> "SweepPlan":
        """Turn a list of configuration dicts into seeded jobs.

        Each config supplies ``distance``, ``policy``, ``shots`` and either
        ``cycles`` or ``rounds``, plus any optional :class:`SweepJob` field.
        Job ``i`` receives spawn key ``(i,)`` under the shared root entropy.
        """
        entropy = root_entropy(seed)
        chunk = DEFAULT_CHUNK_SHOTS if chunk_shots is None else int(chunk_shots)
        if chunk < 1:
            raise ValueError("chunk_shots must be >= 1")
        jobs = []
        for index, config in enumerate(configs):
            config = dict(config)
            distance = int(config.pop("distance"))
            cycles = config.pop("cycles", None)
            rounds = resolve_rounds(distance, cycles, config.pop("rounds", None))
            transport = config.pop("transport_model", LeakageTransportModel.REMAIN)
            if isinstance(transport, LeakageTransportModel):
                transport = transport.value
            policy_kwargs = config.pop("policy_kwargs", None) or {}
            policy = canonical_policy_name(str(config.pop("policy")))
            code_family = canonical_code_family(
                str(config.pop("code_family", None) or DEFAULT_CODE_FAMILY)
            )
            noise_profile = canonical_noise_profile(config.pop("noise_profile", None))
            jobs.append(
                SweepJob(
                    distance=distance,
                    policy=policy,
                    rounds=rounds,
                    code_family=code_family,
                    noise_profile=noise_profile,
                    transport_model=str(transport),
                    policy_kwargs=tuple(sorted(policy_kwargs.items())),
                    seed_entropy=entropy,
                    spawn_key=(index,),
                    chunk_shots=chunk,
                    **config,
                )
            )
        return cls(jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[SweepJob]:
        return iter(self.jobs)

    @property
    def total_shots(self) -> int:
        return sum(job.shots for job in self.jobs)

    @property
    def total_chunks(self) -> int:
        return sum(job.num_chunks for job in self.jobs)

    def with_seed(self, seed: RngLike) -> "SweepPlan":
        """The same grid re-derived from a different root seed."""
        entropy = root_entropy(seed)
        return replace(
            self, jobs=[replace(job, seed_entropy=entropy) for job in self.jobs]
        )

    def to_wire(self) -> Dict[str, object]:
        """JSON form of the whole plan (the sweep-service submit body)."""
        wire: Dict[str, object] = {"jobs": [job.to_wire() for job in self.jobs]}
        if self.adaptive is not None:
            wire["adaptive"] = asdict(self.adaptive)
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "SweepPlan":
        """Rebuild a plan from :meth:`to_wire` (inverse, bit-identical).

        Also accepts the older wire form that carried decoder tuning and
        stopping targets on every job (see :func:`_lift_legacy_targets`).
        """
        jobs = [dict(job) for job in payload.get("jobs", [])]
        legacy = _lift_legacy_targets(jobs)
        adaptive = payload.get("adaptive")
        if adaptive is not None and legacy is not None:
            raise ValueError(
                "plan record sets stopping targets on both the plan and its jobs"
            )
        return cls(
            [SweepJob.from_wire(job) for job in jobs],
            AdaptiveConfig(**adaptive) if adaptive is not None else legacy,
        )
