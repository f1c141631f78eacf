"""Matching engines used by the MWPM decoder.

Three matchers are provided:

* :class:`MwpmMatcher` — exact minimum-weight perfect matching, the gold
  standard used in the paper, solved by the native blossom port
  (:mod:`repro.decoder.blossom`), whose tie-breaks reproduce networkx's so
  corrections stay bit-identical to the seed implementation
  (:mod:`repro.decoder.reference`).
* :class:`GreedyMatcher` — a fast approximate matcher that repeatedly pairs
  the closest remaining detectors (or sends a detector to the boundary),
  with option generation and sorting fully vectorised in numpy.
* :class:`AutoMatcher` — exact below a syndrome-size threshold, greedy above.

All matchers share the same distance/path infrastructure: scipy's Dijkstra
over the sparse decoding graph is cached all-pairs per graph, and a
*frame-parity table* — ``frame_parity[source, node]`` = XOR of edge frames
along the shortest path — is propagated once over the predecessor trees so
every per-path observable-frame query is an O(1) table lookup instead of a
Python predecessor walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.decoder.blossom import (
    min_weight_matching_complete,
    min_weight_matching_edges,
)
from repro.decoder.graph import DecodingGraph

@dataclass
class _ShortestPaths:
    """Dijkstra output from every flipped detector to every graph node.

    ``distances``/``predecessors``/``frames`` may be the graph's *full*
    cached matrices (``rows`` then holds each source's row index, avoiding a
    per-shot row copy) or per-shot row blocks from a direct Dijkstra call
    (``rows`` is then ``0..k-1``).  ``frames`` is the frame-parity table:
    entry ``[row, node]`` is the XOR of edge frames along the shortest path
    from the row's source to ``node``, exactly as the seed's predecessor
    walk would have accumulated it (both derive from the same cached scipy
    predecessor trees).  It is ``None`` when no table is available (graphs
    above the APSP cache limit, or non-positive edge weights);
    :meth:`path_frame` then falls back to the walk.
    """

    graph: DecodingGraph
    sources: np.ndarray
    distances: np.ndarray
    predecessors: np.ndarray
    frames: Optional[np.ndarray]
    rows: np.ndarray

    def pair_distances(self) -> np.ndarray:
        """``(k, k)`` distance matrix between the flipped detectors."""
        return self.distances[np.ix_(self.rows, self.sources)]

    def boundary_distances(self) -> np.ndarray:
        """Length-``k`` distances from each detector to the boundary."""
        return self.distances[self.rows, self.graph.boundary_node]

    def path_frame(self, source_pos: int, target_node: int) -> bool:
        """XOR of edge frames along the shortest path source -> target."""
        row = self.rows[source_pos]
        if self.frames is not None:
            return bool(self.frames[row, target_node])
        frame = False
        node = target_node
        preds = self.predecessors[row]
        source = int(self.sources[source_pos])
        while node != source:
            prev = int(preds[node])
            if prev < 0:
                raise ValueError("target node is unreachable from source")
            frame ^= self.graph.edge_frame(prev, node)
            node = prev
        return frame


#: Largest graph (node count) for which all-pairs shortest paths are cached.
#: Three arrays are cached per graph: distances (float64, 8 B/entry),
#: predecessors (int32, 4 B/entry) and the frame-parity table (bool,
#: 1 B/entry) — 13 bytes per node pair, i.e. ~55 MB at the 2048-node limit.
#: Typical memory-experiment graphs (d=5, 50 rounds: 613 detector nodes +
#: boundary) stay below 5 MB.  ``DecodingGraph.clear_caches()`` releases all
#: three.
_APSP_NODE_LIMIT = 2048


def _all_pairs(graph: DecodingGraph):
    """All-pairs Dijkstra output, computed once and cached on the graph.

    Decoding runs one shortest-path query per shot from the shot's flipped
    detectors; precomputing the full matrix turns the per-shot work into a
    row slice.  Per-source Dijkstra is deterministic and independent of the
    source set, so cached rows are identical to a direct per-shot call.

    When the graph carries an artifact store
    (:mod:`repro.decoder.artifacts`), the matrices are first looked up
    there: a hit installs memory-mapped views of the persisted tables (APSP
    *and* the frame-parity table, which travel together) instead of
    recomputing, so a warm store eliminates the whole build.  The tables
    are deterministic functions of the graph identity the store hashes, so
    loaded and computed tables are bit-identical.
    """
    cached = getattr(graph, "_apsp_cache", None)
    if cached is None:
        store = getattr(graph, "artifact_store", None)
        if store is not None:
            loaded = store.load_graph_tables(graph)
            if loaded is not None:
                distances, predecessors, frames = loaded
                graph.artifact_hits += 1
                cached = (distances, predecessors)
                graph._apsp_cache = cached
                if getattr(graph, "_frame_parity_cache", None) is None:
                    graph._frame_parity_cache = frames
                return cached
            graph.artifact_misses += 1
        distances, predecessors = dijkstra(
            graph.adjacency,
            directed=False,
            return_predecessors=True,
        )
        graph.apsp_builds += 1
        cached = (distances, predecessors)
        graph._apsp_cache = cached
    return cached


def _frame_parity_rows(
    graph: DecodingGraph, distances: np.ndarray, predecessors: np.ndarray
) -> np.ndarray:
    """Propagate edge-frame XORs over shortest-path trees, vectorised.

    For every source row, targets are visited in increasing-distance order,
    so each node's predecessor is finalised before the node itself and

        parity[s, t] = parity[s, pred[s, t]] XOR frame(pred[s, t], t)

    reproduces exactly the XOR the seed implementation accumulated by
    walking the predecessor chain.  Requires strictly positive edge weights
    (a predecessor is then strictly closer than its child); the caller
    checks this.  One pass over ``n`` distance-ordered columns with all
    sources advanced per step — O(k*n) total with numpy inner loops.
    """
    k, n = distances.shape
    frames = np.zeros((k, n), dtype=bool)
    if k == 0 or n == 0:
        return frames
    order = np.argsort(distances, axis=1, kind="stable")
    rows = np.arange(k)
    for col in range(n):
        targets = order[:, col]
        preds = predecessors[rows, targets]
        valid = preds >= 0
        if not valid.any():
            continue
        rv = rows[valid]
        tv = targets[valid]
        pv = preds[valid]
        frames[rv, tv] = frames[rv, pv] ^ graph.edge_frames_lookup(pv, tv)
    return frames


def _frame_parity_table(graph: DecodingGraph) -> Optional[np.ndarray]:
    """The graph's full frame-parity table, computed once and cached.

    Returns ``None`` (and caches the refusal) when the graph has
    non-positive edge weights, for which distance-ordered propagation is not
    well defined; path frames then fall back to predecessor walks.

    With an artifact store attached, a cold build persists the freshly
    computed APSP matrices and frame table together (atomically, via the
    store), so every later process mapping the same graph identity starts
    warm.  The non-positive-weight refusal is never persisted — such graphs
    have no table to share.
    """
    cached = getattr(graph, "_frame_parity_cache", None)
    if cached is None:
        if graph.edge_weights.size and not (graph.edge_weights > 0).all():
            cached = False
        else:
            distances, predecessors = _all_pairs(graph)
            # An artifact hit inside _all_pairs installs the frame table
            # too; re-check before paying for the propagation.
            cached = getattr(graph, "_frame_parity_cache", None)
            if cached is None:
                cached = _frame_parity_rows(graph, distances, predecessors)
                graph.frame_table_builds += 1
                store = getattr(graph, "artifact_store", None)
                if store is not None:
                    store.save_graph_tables(graph, distances, predecessors, cached)
        graph._frame_parity_cache = cached
    return None if cached is False else cached


def _shortest_paths(graph: DecodingGraph, nodes: np.ndarray) -> _ShortestPaths:
    if graph.adjacency.shape[0] <= _APSP_NODE_LIMIT:
        distances, predecessors = _all_pairs(graph)
        # The full cached matrices are shared, not sliced: consumers index
        # through ``rows`` so no per-shot row copies are made.
        return _ShortestPaths(
            graph=graph,
            sources=nodes,
            distances=distances,
            predecessors=predecessors,
            frames=_frame_parity_table(graph),
            rows=nodes,
        )
    distances, predecessors = dijkstra(
        graph.adjacency,
        directed=False,
        indices=nodes,
        return_predecessors=True,
    )
    if nodes.size == 1:
        distances = np.atleast_2d(distances)
        predecessors = np.atleast_2d(predecessors)
    return _ShortestPaths(
        graph=graph,
        sources=nodes,
        distances=distances,
        predecessors=predecessors,
        frames=None,
        rows=np.arange(nodes.size, dtype=np.int64),
    )


class _BaseMatcher:
    """Shared decode logic: compute paths, delegate pairing, accumulate frames."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        #: Dispatch counters (how many decodes each engine stage served);
        #: read by ``benchmarks/bench_decoder_fastpath.py``.
        self.stats: Dict[str, int] = {}

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def decode(self, detector_matrix: np.ndarray) -> int:
        """Return the predicted logical-observable correction (0 or 1)."""
        nodes = self.graph.detector_nodes(detector_matrix)
        return self.decode_nodes(nodes)

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        paths = _shortest_paths(self.graph, nodes)
        pairs, to_boundary = self._match(paths)
        correction = False
        for i, j in pairs:
            correction ^= paths.path_frame(i, int(nodes[j]))
        boundary = self.graph.boundary_node
        for i in to_boundary:
            correction ^= paths.path_frame(i, boundary)
        return int(correction)

    def _match(
        self, paths: _ShortestPaths
    ) -> Tuple[List[Tuple[int, int]], List[int]]:  # pragma: no cover - abstract
        raise NotImplementedError


class MwpmMatcher(_BaseMatcher):
    """Exact minimum-weight perfect matching.

    Shortest-path distances are computed on the full decoding graph, boundary
    node included, so the distance between two detectors already accounts for
    the cheapest route *through* the boundary; a matched pair whose shortest
    path crosses the boundary is physically two boundary terminations, and
    :meth:`_ShortestPaths.path_frame` accumulates its observable frame
    correctly either way.  A minimum-weight perfect matching on the ``k``
    detectors alone (plus one virtual boundary node when ``k`` is odd) is
    therefore exactly equivalent to the classic construction that mirrors
    every detector with a zero-weight boundary copy, while handing the
    matcher half the nodes and a quarter of the edges.
    """

    #: Virtual node pairing the odd detector with the boundary.  An integer
    #: label keeps the matching independent of ``PYTHONHASHSEED`` (detector
    #: positions are the non-negative integers).
    _BOUNDARY = -1

    def _blossom_edges_sparse(
        self, paths: _ShortestPaths, pair_dist: np.ndarray
    ) -> List[Tuple[int, int, float]]:
        """Blossom edge list for syndromes with an unreachable detector pair."""
        k = paths.sources.size
        odd = k % 2 == 1
        boundary_dist = paths.boundary_distances() if odd else None
        # Rare non-finite pair distances: simulate networkx's insertion
        # bookkeeping literally (node order = first appearance among the
        # *added* edges, which no longer follows the dense pattern).
        adjacency: Dict[int, List[Tuple[int, float]]] = {}

        def add(u: int, v: int, w: float) -> None:
            adjacency.setdefault(u, []).append((v, w))
            adjacency.setdefault(v, []).append((u, w))

        i_idx, j_idx = np.triu_indices(k, 1)
        weights = pair_dist[i_idx, j_idx]
        finite = np.isfinite(weights)
        for i, j, w in zip(
            i_idx[finite].tolist(), j_idx[finite].tolist(), weights[finite].tolist()
        ):
            add(i, j, w)
        if odd:
            for i in range(k):
                add(self._BOUNDARY, i, float(boundary_dist[i]))
        edges = []
        seen = set()
        for u in adjacency:
            for v, w in adjacency[u]:
                if (v, u) in seen or (u, v) in seen:
                    continue
                seen.add((u, v))
                edges.append((u, v, w))
        return edges

    def _match(self, paths: _ShortestPaths) -> Tuple[List[Tuple[int, int]], List[int]]:
        self._count("blossom")
        pair_dist = paths.pair_distances()
        if np.isfinite(pair_dist).all():
            boundary_dist = (
                paths.boundary_distances() if paths.sources.size % 2 == 1 else None
            )
            matching = min_weight_matching_complete(
                pair_dist, boundary_dist, boundary_label=self._BOUNDARY
            )
        else:
            matching = min_weight_matching_edges(
                self._blossom_edges_sparse(paths, pair_dist)
            )
        pairs: List[Tuple[int, int]] = []
        to_boundary: List[int] = []
        for u, v in matching:
            if u == self._BOUNDARY:
                to_boundary.append(v)
            elif v == self._BOUNDARY:
                to_boundary.append(u)
            else:
                pairs.append((u, v))
        return pairs, to_boundary


class GreedyMatcher(_BaseMatcher):
    """Greedy nearest-pair matching (fast, approximate).

    Option generation is fully vectorised: boundary and pair candidates are
    laid out in the seed implementation's insertion order (per detector, its
    boundary option followed by its pairs in index order) and sorted with a
    stable argsort, so equal-weight options are taken in the exact order the
    original Python loop-and-sort produced.
    """

    def _match(self, paths: _ShortestPaths) -> Tuple[List[Tuple[int, int]], List[int]]:
        nodes = paths.sources
        k = nodes.size
        self._count("greedy")
        boundary_dist = paths.boundary_distances()
        pair_dist = paths.pair_distances()
        i_idx, j_idx = np.triu_indices(k, 1)
        total = k + i_idx.size
        option_w = np.empty(total, dtype=np.float64)
        option_i = np.empty(total, dtype=np.int64)
        option_j = np.empty(total, dtype=np.int64)
        # Row i occupies one slot for its boundary option plus (k-1-i) pair
        # slots, mirroring the seed's append order exactly.
        counts = k - np.arange(k)
        starts = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)
        option_w[starts] = boundary_dist
        option_i[starts] = np.arange(k)
        option_j[starts] = -1
        if i_idx.size:
            pair_pos = starts[i_idx] + 1 + (j_idx - i_idx - 1)
            option_w[pair_pos] = pair_dist[i_idx, j_idx]
            option_i[pair_pos] = i_idx
            option_j[pair_pos] = j_idx
        keep = (option_j < 0) | np.isfinite(option_w)
        if not keep.all():
            option_w = option_w[keep]
            option_i = option_i[keep]
            option_j = option_j[keep]
        order = np.argsort(option_w, kind="stable").tolist()
        opt_i = option_i.tolist()
        opt_j = option_j.tolist()
        used = np.zeros(k, dtype=bool)
        pairs: List[Tuple[int, int]] = []
        to_boundary: List[int] = []
        for idx in order:
            i = opt_i[idx]
            if used[i]:
                continue
            j = opt_j[idx]
            if j >= 0:
                if used[j]:
                    continue
                used[i] = used[j] = True
                pairs.append((i, j))
            else:
                used[i] = True
                to_boundary.append(i)
            if used.all():
                break
        for i in range(k):
            if not used[i]:
                to_boundary.append(i)
        return pairs, to_boundary


class AutoMatcher(_BaseMatcher):
    """Exact matching for small syndromes, greedy beyond a size threshold."""

    def __init__(self, graph: DecodingGraph, exact_threshold: int = 40):
        super().__init__(graph)
        self.exact_threshold = exact_threshold
        self._exact = MwpmMatcher(graph)
        self._greedy = GreedyMatcher(graph)
        # Sub-matchers increment one shared counter dict.
        self._exact.stats = self.stats
        self._greedy.stats = self.stats

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        if nodes.size <= self.exact_threshold:
            return self._exact.decode_nodes(nodes)
        return self._greedy.decode_nodes(nodes)

    def _match(self, paths):  # pragma: no cover - never called directly
        raise NotImplementedError


def build_matcher(
    graph: DecodingGraph,
    method: str = "auto",
    exact_threshold: int = 40,
):
    """Construct a decoder engine by name.

    Accepted names: ``mwpm``/``exact``/``blossom`` (exact matching),
    ``greedy``, ``auto`` (exact below a syndrome-size threshold, greedy
    above), and ``union-find`` (the Union-Find decoder).
    """
    key = method.strip().lower()
    if key in ("mwpm", "exact", "blossom"):
        return MwpmMatcher(graph)
    if key == "greedy":
        return GreedyMatcher(graph)
    if key == "auto":
        return AutoMatcher(graph, exact_threshold=exact_threshold)
    if key in ("union-find", "unionfind", "uf"):
        from repro.decoder.union_find import UnionFindMatcher

        return UnionFindMatcher(graph)
    raise ValueError(f"unknown matching method {method!r}")
