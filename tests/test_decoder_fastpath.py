"""Exact-equivalence property tests for the decoder fast path.

The fast path layers (frame-parity tables, syndrome dedup + LRU, the native
blossom port, the vectorised greedy matcher) must all be
*performance-only*: for every input, corrections are bit-identical to the
seed implementation preserved in :mod:`repro.decoder.reference`.  These
tests enforce that property on randomized detector matrices — including
dense, tie-heavy syndromes far outside the realistic distribution — so any
divergence in tie-breaking or frame accumulation fails loudly.
"""

import numpy as np
import networkx as nx
import pytest

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.blossom import (
    min_weight_matching_complete,
    min_weight_matching_edges,
)
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.matching import _all_pairs, _frame_parity_rows, build_matcher
from repro.decoder.reference import (
    build_reference_matcher,
    reference_decode_batch,
)
from repro.decoder.union_find import UnionFindMatcher


def random_detectors(graph, rng, max_flips):
    detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
    for _ in range(int(rng.integers(0, max_flips + 1))):
        detectors[
            rng.integers(graph.num_layers), rng.integers(graph.num_checks)
        ] = True
    return detectors


#: (distance, rounds, space weight, time weight).  Unit weights make
#: equal-weight matchings common, so those graphs exercise the tie-breaks;
#: the non-integral weights cover graphs where matchings rarely tie.
GRAPH_SHAPES = [
    (3, 3, 1.0, 1.0),
    (3, 6, 1.0, 1.0),
    (5, 4, 1.0, 1.0),
    (3, 4, 0.7, 1.3),
]


@pytest.fixture(scope="module")
def graphs():
    return {
        (d, rounds, space, time): DecodingGraph(
            RotatedSurfaceCode(d),
            num_rounds=rounds,
            space_weight=space,
            time_weight=time,
        )
        for d, rounds, space, time in GRAPH_SHAPES
    }


class TestMatcherEquivalence:
    """Fast matchers vs the seed pipeline, per engine."""

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto"])
    @pytest.mark.parametrize("shape", GRAPH_SHAPES)
    def test_bit_identical_corrections(self, graphs, method, shape):
        graph = graphs[shape]
        fast = build_matcher(graph, method)
        ref = build_reference_matcher(graph, method)
        seed = sum(ord(c) for c in method) * 1000 + shape[0] * 10 + shape[1]
        rng = np.random.default_rng(seed)
        for _ in range(150):
            detectors = random_detectors(graph, rng, max_flips=20)
            assert fast.decode(detectors) == ref.decode(detectors)


class TestBlossomPort:
    """The native blossom port vs networkx, at the matching level."""

    def test_matching_sets_identical_on_tie_heavy_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            k = int(rng.integers(1, 13))
            weights = rng.integers(1, 7, size=(k, k)).astype(float)
            weights = np.triu(weights, 1) + np.triu(weights, 1).T
            boundary = rng.integers(1, 7, size=k).astype(float)
            edges = []
            for i in range(k):
                edges.extend((i, j, weights[i, j]) for j in range(i + 1, k))
                if k % 2 == 1:
                    edges.append((i, -1, float(boundary[i])))
            if not edges:
                continue
            graph = nx.Graph()
            graph.add_weighted_edges_from(edges)
            expected = nx.min_weight_matching(graph)
            assert min_weight_matching_edges(edges) == expected
            assert (
                min_weight_matching_complete(
                    weights, boundary if k % 2 == 1 else None
                )
                == expected
            )

    def test_float_weights(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            k = int(rng.integers(2, 11))
            weights = rng.uniform(0.1, 5.0, size=(k, k))
            weights = np.triu(weights, 1) + np.triu(weights, 1).T
            boundary = rng.uniform(0.1, 5.0, size=k)
            edges = []
            for i in range(k):
                edges.extend((i, j, weights[i, j]) for j in range(i + 1, k))
                if k % 2 == 1:
                    edges.append((i, -1, float(boundary[i])))
            graph = nx.Graph()
            graph.add_weighted_edges_from(edges)
            assert min_weight_matching_edges(edges) == nx.min_weight_matching(graph)


class TestFrameParityTable:
    """frame_parity[source, node] must equal the seed's predecessor walk."""

    @pytest.mark.parametrize(
        "weights",
        [
            dict(),
            dict(space_weight=0.7, time_weight=1.3),
            dict(diagonal_weight=1.9),
        ],
    )
    def test_table_matches_walk(self, weights):
        graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=3, **weights)
        distances, predecessors = _all_pairs(graph)
        table = _frame_parity_rows(graph, distances, predecessors)
        # Re-walk a sample of (source, target) pairs exactly as the seed did.
        rng = np.random.default_rng(0)
        n = graph.num_nodes + 1
        for _ in range(300):
            source = int(rng.integers(n))
            target = int(rng.integers(n))
            walked = False
            node = target
            while node != source:
                prev = int(predecessors[source, node])
                if prev < 0:
                    break
                walked ^= graph.edge_frame(prev, node)
                node = prev
            else:
                assert bool(table[source, target]) == walked


class TestDecoderFastPath:
    """decode_batch's dedup/LRU layers vs per-shot seed decoding."""

    @pytest.fixture(scope="class")
    def code(self):
        return RotatedSurfaceCode(3)

    def _random_shots(self, code, rng, shots, rounds, duplicate=True):
        histories = (
            rng.random((shots, rounds, code.num_stabilizers)) < 0.04
        ).astype(np.uint8)
        finals = (rng.random((shots, code.num_data_qubits)) < 0.04).astype(np.uint8)
        if duplicate and shots >= 4:
            # Force exact duplicates so the dedup layer actually engages.
            histories[1] = histories[0]
            finals[1] = finals[0]
            histories[3] = histories[2]
            finals[3] = finals[2]
        # And a weight-0 shot for the short-circuit layer.
        histories[-1] = 0
        finals[-1] = 0
        return histories, finals

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto", "union-find"])
    def test_decode_batch_matches_seed(self, code, method):
        rounds = 4
        decoder = SurfaceCodeDecoder(code, num_rounds=rounds, method=method)
        if method == "union-find":
            ref_matcher = UnionFindMatcher(decoder.graph)
        else:
            ref_matcher = build_reference_matcher(decoder.graph, method)
        rng = np.random.default_rng(11)
        for _ in range(4):
            histories, finals = self._random_shots(code, rng, 24, rounds)
            detectors = decoder.build_detectors_batch(histories, finals)
            observed = finals[:, decoder._logical_support()].sum(axis=1) % 2
            expected = reference_decode_batch(
                ref_matcher, decoder.graph, detectors, observed
            )
            np.testing.assert_array_equal(
                decoder.decode_batch(histories, finals), expected
            )
        stats = decoder.stats
        assert stats.shots == 4 * 24
        assert stats.dedup_hits + stats.cache_hits > 0
        assert stats.matched + stats.cache_hits + stats.dedup_hits + stats.empty == stats.shots

    def test_decode_shot_equals_decode_batch_row(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(12)
        histories, finals = self._random_shots(code, rng, 10, 3, duplicate=False)
        batch = decoder.decode_batch(histories, finals)
        for shot in range(10):
            assert decoder.decode_shot(histories[shot], finals[shot]) == batch[shot]

    def test_cache_disabled_still_identical(self, code):
        cached = SurfaceCodeDecoder(code, num_rounds=3)
        uncached = SurfaceCodeDecoder(code, num_rounds=3, cache_size=0)
        rng = np.random.default_rng(13)
        histories, finals = self._random_shots(code, rng, 20, 3)
        np.testing.assert_array_equal(
            cached.decode_batch(histories, finals),
            uncached.decode_batch(histories, finals),
        )
        assert uncached.stats.cache_hits == 0
        assert len(uncached._correction_cache) == 0

    def test_lru_serves_repeats_across_batches(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(14)
        histories, finals = self._random_shots(code, rng, 16, 3)
        first = decoder.decode_batch(histories, finals)
        matched_after_first = decoder.stats.matched
        second = decoder.decode_batch(histories, finals)
        np.testing.assert_array_equal(first, second)
        # The second pass decodes nothing new: every non-empty syndrome hits
        # the LRU populated by the first pass.
        assert decoder.stats.matched == matched_after_first

    def test_lru_stays_bounded(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3, cache_size=8)
        rng = np.random.default_rng(15)
        for _ in range(4):
            histories, finals = self._random_shots(code, rng, 16, 3)
            decoder.decode_batch(histories, finals)
        assert len(decoder._correction_cache) <= 8

    def test_cache_size_does_not_change_results(self, code):
        rng = np.random.default_rng(16)
        histories, finals = self._random_shots(code, rng, 24, 3)
        baseline = SurfaceCodeDecoder(code, num_rounds=3).decode_batch(
            histories, finals
        )
        for cache_size in (0, 2):
            variant = SurfaceCodeDecoder(code, num_rounds=3, cache_size=cache_size)
            np.testing.assert_array_equal(
                variant.decode_batch(histories, finals), baseline
            )

    def test_clear_caches_preserves_results(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(17)
        histories, finals = self._random_shots(code, rng, 12, 3)
        first = decoder.decode_batch(histories, finals)
        decoder.clear_caches()
        assert not hasattr(decoder.graph, "_apsp_cache")
        assert not hasattr(decoder.graph, "_frame_parity_cache")
        assert len(decoder._correction_cache) == 0
        np.testing.assert_array_equal(decoder.decode_batch(histories, finals), first)


class TestUnionFindEdgeOrder:
    """Union-Find edge ids (peeling tie-breakers) must match the seed's
    dict-iteration construction despite the vectorised setup."""

    def test_edges_match_dict_order(self):
        graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=3)
        matcher = UnionFindMatcher(graph)
        expected = [
            (u, v, float(graph.adjacency[u, v]), frame)
            for (u, v), frame in graph._edge_frames.items()
        ]
        assert matcher._edges == expected
