"""Equivalence property tests for the decoder fast path.

The fast path layers (frame-parity tables, syndrome dedup + LRU, the
vectorised greedy matcher) must be *performance-only*: for every input,
corrections are bit-identical to the seed implementation preserved in
:mod:`repro.decoder.reference`.  Exact matching is split into
boundary-separated clusters, which keeps the matching weight minimal but may
pick another of several equal-weight matchings than the seed's networkx
tie-break; there the contract is the matching weight, checked against the
seed, the whole-syndrome native blossom and networkx on randomized, dense,
tie-heavy syndromes far outside the realistic distribution.
"""

import numpy as np
import networkx as nx
import pytest

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.policies import make_policy
from repro.decoder import matching
from repro.decoder.blossom import min_weight_matching_complete
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.matching import (
    MwpmMatcher,
    _all_pairs,
    _frame_parity_rows,
    _shortest_paths,
    build_matcher,
)
from repro.decoder.reference import (
    _reference_shortest_paths,
    build_reference_matcher,
    reference_decode_batch,
)
from repro.decoder.union_find import UnionFindMatcher
from repro.experiments.memory import MemoryExperiment
from repro.noise.model import NoiseParams
from test_batched_equivalence import two_proportion_z


def matching_weight(graph, nodes, pairs, to_boundary):
    """Summed path length of a matching, after checking it is perfect."""
    covered = sorted([i for pair in pairs for i in pair] + list(to_boundary))
    assert covered == list(range(len(nodes)))
    distances, _ = _all_pairs(graph)
    boundary = graph.boundary_node
    return sum(float(distances[nodes[i], nodes[j]]) for i, j in pairs) + sum(
        float(distances[nodes[i], boundary]) for i in to_boundary
    )


def split_matching_weight(graph, nodes, found):
    """Weight of a ``{(u, v)}`` matching whose boundary vertex is negative."""
    pairs = [(u, v) for u, v in found if u >= 0 and v >= 0]
    to_boundary = [max(u, v) for u, v in found if min(u, v) < 0]
    return matching_weight(graph, nodes, pairs, to_boundary)


def fast_exact_weight(matcher, nodes):
    """Weight of the matching the production exact tier picks."""
    exact = getattr(matcher, "_exact", matcher)
    return matching_weight(
        matcher.graph, nodes, *exact._match(_shortest_paths(matcher.graph, nodes))
    )


def reference_exact_weight(matcher, nodes):
    """Weight of the matching the seed's networkx exact tier picks."""
    exact = getattr(matcher, "_exact", matcher)
    return matching_weight(
        matcher.graph,
        nodes,
        *exact._match(_reference_shortest_paths(matcher.graph, nodes)),
    )


def whole_syndrome_weight(graph, nodes):
    """Weight of one native-blossom matching over the whole syndrome."""
    paths = _shortest_paths(graph, nodes)
    odd = nodes.size % 2 == 1
    found = min_weight_matching_complete(
        paths.pair_distances(), paths.boundary_distances() if odd else None
    )
    return split_matching_weight(graph, nodes, found)


def networkx_weight(graph, nodes):
    """Weight of ``networkx.min_weight_matching`` with a mirrored boundary."""
    distances, _ = _all_pairs(graph)
    k = nodes.size
    nx_graph = nx.Graph()
    for i in range(k):
        nx_graph.add_weighted_edges_from(
            (i, j, float(distances[nodes[i], nodes[j]])) for j in range(i + 1, k)
        )
        if k % 2 == 1:
            nx_graph.add_edge(i, -1, weight=float(distances[nodes[i], graph.boundary_node]))
    return split_matching_weight(graph, nodes, nx.min_weight_matching(nx_graph))


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
        """Greedy, and exact matching on graphs where matchings rarely tie,
        are bit-identical to the seed.  Exact matching on the unit-weight
        (tie-heavy) graphs must match the seed's matching weight exactly."""
        graph = graphs[shape]
        fast = build_matcher(graph, method)
        ref = build_reference_matcher(graph, method)
        ties = method != "greedy" and shape[2:] == (1.0, 1.0)
        seed = sum(ord(c) for c in method) * 1000 + shape[0] * 10 + shape[1]
        rng = np.random.default_rng(seed)
        for _ in range(150):
            detectors = random_detectors(graph, rng, max_flips=20)
            nodes = graph.detector_nodes(detectors)
            if ties and nodes.size:
                assert fast_exact_weight(fast, nodes) == reference_exact_weight(ref, nodes)
            else:
                assert fast.decode(detectors) == ref.decode(detectors)


#: Unit-weight graphs of the tie-heavy weight corpus, and syndromes per graph.
CORPUS_SHAPES = [(3, 3), (3, 6), (5, 4), (5, 6)]
CORPUS_PER_SHAPE = 2560
#: About this many corpus syndromes (every n-th) are also checked against
#: networkx in the default tier.
NETWORKX_SUBSET = 400


def weight_corpus():
    """10,240 tie-heavy syndromes: random detector sets on unit-weight graphs.

    Sizes run from 3 to 12 detectors, so sparse syndromes (many small
    clusters) and dense ones (a few large clusters) are both common.
    """
    rng = np.random.default_rng(20231028)
    corpus = []
    for distance, rounds in CORPUS_SHAPES:
        graph = DecodingGraph(RotatedSurfaceCode(distance), num_rounds=rounds)
        for _ in range(CORPUS_PER_SHAPE):
            k = int(rng.integers(3, 13))
            nodes = np.sort(rng.choice(graph.num_nodes, size=k, replace=False))
            corpus.append((graph, nodes.astype(np.int64)))
    return corpus


class TestClusterSplitWeight:
    """Cluster-split exact matching keeps the global minimum weight."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return weight_corpus()

    def test_weight_equals_whole_syndrome_blossom(self, corpus):
        assert len(corpus) >= 10_000
        matchers = {}
        mismatches = []
        for graph, nodes in corpus:
            matcher = matchers.setdefault(id(graph), MwpmMatcher(graph))
            if fast_exact_weight(matcher, nodes) != whole_syndrome_weight(graph, nodes):
                mismatches.append(nodes)
        assert mismatches == []
        work = [m.cluster_stats for m in matchers.values()]
        # The corpus exercises every tier: closed-form and blossom clusters.
        assert sum(w["clusters"] for w in work) > len(corpus)
        assert sum(w["cluster_blossoms"] for w in work) > 0

    def test_weight_equals_networkx_on_a_subset(self, corpus):
        for graph, nodes in corpus[::len(corpus) // NETWORKX_SUBSET]:
            assert fast_exact_weight(MwpmMatcher(graph), nodes) == networkx_weight(
                graph, nodes
            )

    @pytest.mark.slow
    def test_weight_equals_networkx_on_the_full_corpus(self, corpus):
        matchers = {}
        for graph, nodes in corpus:
            matcher = matchers.setdefault(id(graph), MwpmMatcher(graph))
            assert fast_exact_weight(matcher, nodes) == networkx_weight(graph, nodes)

    def test_small_syndromes_take_the_closed_form(self, graphs):
        graph = graphs[(3, 3, 1.0, 1.0)]
        matcher = MwpmMatcher(graph)
        matcher.decode_nodes(np.array([0]))
        matcher.decode_nodes(np.array([0, 1]))
        assert matcher.stats == {"blossom": 2}
        assert matcher.cluster_stats["cluster_blossoms"] == 0

    def test_graph_above_the_apsp_limit(self, monkeypatch):
        """Without cached tables (per-shot Dijkstra, predecessor walks) the
        split picks the same matching, so corrections are unchanged."""
        cached_graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=6)
        cached = MwpmMatcher(cached_graph)
        rng = np.random.default_rng(31)
        syndromes = [random_detectors(cached_graph, rng, 16) for _ in range(120)]
        expected = [cached.decode(detectors) for detectors in syndromes]
        monkeypatch.setattr(matching, "_APSP_NODE_LIMIT", 8)
        graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=6)
        matcher = MwpmMatcher(graph)
        for detectors, correction in zip(syndromes, expected):
            nodes = graph.detector_nodes(detectors)
            if nodes.size:
                paths = _shortest_paths(graph, nodes)
                assert paths.frames is None
                weight = matching_weight(cached_graph, nodes, *matcher._match(paths))
                assert weight == whole_syndrome_weight(cached_graph, nodes)
            assert matcher.decode(detectors) == correction
        assert not hasattr(graph, "_apsp_cache")


def simulated_detectors(distance, policy, cycles, shots, seed):
    """Detector batches and raw observable flips of one memory experiment."""
    experiment = MemoryExperiment(
        distance=distance,
        policy=make_policy(policy),
        noise=NoiseParams.standard(1e-3),
        cycles=cycles,
        seed=seed,
    )
    decoder = experiment.decoder
    captured = []

    def capture(histories, finals):
        captured.append(
            (
                decoder.build_detectors_batch(histories, finals),
                finals[:, decoder._logical_support()].sum(axis=1) % 2,
            )
        )
        return np.zeros(histories.shape[0], dtype=bool)

    decoder.decode_batch = capture
    experiment.run(shots)
    detectors = np.concatenate([d for d, _ in captured])
    observed = np.concatenate([o for _, o in captured])
    return decoder, detectors, observed


def check_paired_ler(distance, policy, cycles, shots, seed):
    """Decode one batch with the production and the seed decoder (``auto``).

    Every syndrome whose correction differs must be an exact tie, and the
    two logical-error counts must pass the engine-equivalence z bound.
    Returns the number of tied syndromes whose corrections differ.
    """
    decoder, detectors, observed = simulated_detectors(
        distance, policy, cycles, shots, seed
    )
    fast = decoder.predict_corrections_batch(detectors)
    reference = build_reference_matcher(decoder.graph, "auto")
    slow = np.array([reference.decode(d) if d.any() else 0 for d in detectors])
    ties = 0
    for shot in np.flatnonzero(fast != slow):
        nodes = decoder.graph.detector_nodes(detectors[shot])
        assert nodes.size <= decoder.exact_threshold, "greedy tier diverged"
        fast_weight = fast_exact_weight(decoder._matcher, nodes)
        assert fast_weight == reference_exact_weight(reference, nodes)
        ties += 1
    errors_fast = int((observed.astype(np.int64) ^ fast).sum())
    errors_ref = int((observed.astype(np.int64) ^ slow).sum())
    z = two_proportion_z(errors_fast, errors_ref, shots)
    assert abs(z) < 4.0, (errors_fast, errors_ref, z)
    return ties


class TestPairedLer:
    """Gate (ii): the production decoder vs the seed on the same syndromes."""

    def test_always_lrc_d5(self):
        # The tie-heaviest configuration: this batch holds 7 tied syndromes.
        assert check_paired_ler(5, "always-lrc", cycles=4, shots=240, seed=515) > 0

    def test_eraser_d7(self):
        check_paired_ler(7, "eraser", cycles=4, shots=160, seed=717)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "distance,policy,cycles", [(5, "always-lrc", 10), (7, "eraser", 10)]
    )
    def test_deep(self, distance, policy, cycles):
        check_paired_ler(distance, policy, cycles, shots=2048, seed=2023)


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
            assert min_weight_matching_complete(
                weights, boundary if k % 2 == 1 else None
            ) == nx.min_weight_matching(graph)


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

    @pytest.mark.parametrize("method", ["mwpm", "auto", "union-find"])
    def test_cluster_counters_reach_decoder_stats(self, code, method):
        decoder = SurfaceCodeDecoder(code, num_rounds=4, method=method)
        rng = np.random.default_rng(18)
        for _ in range(3):
            histories, finals = self._random_shots(code, rng, 24, 4)
            decoder.decode_batch(histories, finals)
        stats = decoder.stats.as_dict()
        assert stats["shots"] == (
            stats["empty"] + stats["dedup_hits"] + stats["cache_hits"] + stats["matched"]
        )
        assert stats["clusters"] == decoder._matcher.cluster_stats["clusters"]
        assert stats["cluster_blossoms"] == decoder._matcher.cluster_stats["cluster_blossoms"]
        if method == "union-find":
            assert stats["clusters"] == 0
        else:
            # Every syndrome the exact tier matched is at least one cluster.
            assert stats["clusters"] >= decoder._matcher.stats["blossom"] > 0
            assert stats["cluster_blossoms"] <= stats["clusters"]

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
