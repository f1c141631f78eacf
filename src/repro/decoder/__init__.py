"""Minimum-weight perfect matching decoding for the rotated surface code.

The paper decodes memory experiments with MWPM (Section 5.3).  This package
provides a from-scratch implementation: a space-time decoding graph built from
the code structure, exact shortest paths via scipy's Dijkstra with cached
frame-parity tables, and a layered matching fast path — syndrome dedup + LRU,
exact matching split into boundary-separated clusters (each solved in
closed form or by a native array-indexed blossom port), a vectorised greedy
matcher, and a Union-Find decoder.  The seed implementation is preserved in
:mod:`repro.decoder.reference` for equivalence testing and benchmarking.
"""

from repro.decoder.graph import (
    DecodingGraph,
    clear_shared_graphs,
    shared_decoding_graph,
)
from repro.decoder.matching import (
    MATCHING_REVISION,
    AutoMatcher,
    GreedyMatcher,
    MwpmMatcher,
    build_matcher,
)
from repro.decoder.union_find import UnionFindMatcher
from repro.decoder.decoder import DecoderStats, SurfaceCodeDecoder
from repro.decoder.artifacts import (
    DecoderArtifactStore,
    default_artifact_dir,
    get_artifact_store,
)
from repro.decoder.fault_injection import FaultInjector, FaultSignature

__all__ = [
    "DecodingGraph",
    "shared_decoding_graph",
    "clear_shared_graphs",
    "MATCHING_REVISION",
    "AutoMatcher",
    "MwpmMatcher",
    "GreedyMatcher",
    "UnionFindMatcher",
    "build_matcher",
    "DecoderStats",
    "SurfaceCodeDecoder",
    "DecoderArtifactStore",
    "get_artifact_store",
    "default_artifact_dir",
    "FaultInjector",
    "FaultSignature",
]
