"""Pins on the cache identity of every registry sweep.

A job's ``cache_key()`` is its content address in the result store, so a
change that moves any key silently orphans every cached result.  The digest
below covers every job of every plan-backed registry entry at two settings;
it may only change together with a declared identity bump.
"""

import dataclasses
import hashlib

from repro.decoder import MATCHING_REVISION
from repro.experiments.jobs import SweepJob
from repro.experiments.registry import EXPERIMENTS
from repro.noise.profiles import NoiseProfile

#: ``(shots, max_distance)`` settings the digest covers.
SETTINGS = ((200, 5), (40, 3))

#: SHA-256 over the concatenated keys, in registry order and, per entry, in
#: :data:`SETTINGS` order.
REGISTRY_DIGEST = "2d0cb1b87edc417a5683e7a189222a7eb4cbcc1ca1d424915af84438602debc9"
REGISTRY_KEYS = 182


def registry_cache_keys():
    keys = []
    for spec in EXPERIMENTS.values():
        if not spec.has_plan:
            continue
        for shots, max_distance in SETTINGS:
            plan = spec.make_plan(shots=shots, max_distance=max_distance, seed=1234)
            keys.extend(job.cache_key() for job in plan.jobs)
    return keys


def test_registry_cache_keys_are_pinned():
    keys = registry_cache_keys()
    assert len(keys) == REGISTRY_KEYS
    assert hashlib.sha256("".join(keys).encode()).hexdigest() == REGISTRY_DIGEST


def test_every_job_field_is_part_of_the_identity():
    # A field outside config_dict() would let jobs that differ in it share a
    # cache entry: settings that do not decide the statistics belong on the
    # executor or the plan, not on the job.
    job = SweepJob(
        distance=3,
        policy="eraser",
        shots=10,
        rounds=3,
        code_family="repetition",
        noise_profile=NoiseProfile.biased(4.0).canonical_json(),
    )
    config = job.config_dict()
    missing = [f.name for f in dataclasses.fields(SweepJob) if f.name not in config]
    assert missing == []


#: Cache key of :func:`undecoded_job` before the matching revision joined
#: the identity of decoded jobs.
UNDECODED_KEY = "f38caca413b38f6a0e57e43557aeb0dba404649a271e9103ad2d24439f48cb90"


def undecoded_job(**fields):
    config = dict(
        distance=5, policy="eraser", shots=200, rounds=10, decode=False,
        seed_entropy=1234, spawn_key=(3,),
    )
    config.update(fields)
    return SweepJob(**config)


def test_undecoded_job_keeps_its_key():
    # LPR and speculation jobs never match a syndrome, so the matcher's
    # tie-break revision must not move (and orphan) their cached results.
    job = undecoded_job()
    assert "matching_revision" not in job.config_dict()
    assert job.cache_key() == UNDECODED_KEY


def test_decoded_job_carries_the_matching_revision():
    config = undecoded_job(decode=True).config_dict()
    assert config["matching_revision"] == MATCHING_REVISION
