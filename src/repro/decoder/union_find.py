"""Union-Find decoder (weighted-growth + peeling).

The paper decodes with MWPM but notes that "any other decoder may be used"
(Section 5.3).  This module provides the standard almost-linear-time
alternative — the Union-Find decoder of Delfosse and Nickerson — operating on
the same space-time :class:`~repro.decoder.graph.DecodingGraph`:

1. *Syndrome validation*: clusters are grown half-edge by half-edge around
   odd-parity sets of flipped detectors until every cluster either contains an
   even number of defects or touches the boundary.
2. *Peeling*: a spanning forest of the grown (erasure) region is peeled from
   the leaves inward, emitting correction edges whose observable frames are
   accumulated exactly as in the matching decoders.

It plugs into :class:`~repro.decoder.decoder.SurfaceCodeDecoder` through
``method="union-find"`` and is useful both as a faster decoder for large
sweeps and as an independent cross-check of the MWPM implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.decoder.graph import DecodingGraph


class _DisjointSet:
    """Union-find over node ids with cluster parity and boundary tracking."""

    def __init__(self, num_nodes: int, boundary: int):
        self.parent = list(range(num_nodes))
        self.rank = [0] * num_nodes
        self.parity = [0] * num_nodes
        self.touches_boundary = [False] * num_nodes
        self.touches_boundary[boundary] = True

    def find(self, node: int) -> int:
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parity[ra] ^= self.parity[rb]
        self.touches_boundary[ra] = self.touches_boundary[ra] or self.touches_boundary[rb]
        return ra


class UnionFindMatcher:
    """Union-Find decoder exposing the same interface as the matching engines."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        #: Counters of the matching engines' interface; none apply here.
        self.stats: Dict[str, int] = {}
        self.cluster_stats: Dict[str, int] = {"clusters": 0, "cluster_blossoms": 0}
        self._num_nodes = graph.num_nodes + 1  # + boundary
        # The graph exposes flat endpoint/weight/frame arrays in construction
        # order, so edge setup is a single zip instead of one sparse-matrix
        # scalar lookup per edge — and edge ids (which break peeling ties)
        # stay identical to the original per-edge loop.
        self._edges: List[Tuple[int, int, float, bool]] = list(
            zip(
                graph.edge_endpoints[:, 0].tolist(),
                graph.edge_endpoints[:, 1].tolist(),
                graph.edge_weights.tolist(),
                graph.edge_frame_bits.tolist(),
            )
        )
        self._incident: List[List[int]] = [[] for _ in range(self._num_nodes)]
        for edge_id, (u, v, _, _) in enumerate(self._edges):
            self._incident[u].append(edge_id)
            self._incident[v].append(edge_id)

    # ------------------------------------------------------------------
    def decode(self, detector_matrix: np.ndarray) -> int:
        """Return the predicted logical-observable correction (0 or 1)."""
        nodes = self.graph.detector_nodes(detector_matrix)
        return self.decode_nodes(nodes)

    def decode_nodes(self, nodes: np.ndarray) -> int:
        defects = [int(n) for n in np.asarray(nodes, dtype=np.int64)]
        if not defects:
            return 0
        erasure = self._grow_clusters(defects)
        return self._peel(erasure, set(defects))

    # ------------------------------------------------------------------
    # Phase 1: cluster growth (syndrome validation)
    # ------------------------------------------------------------------
    def _grow_clusters(self, defects: List[int]) -> Set[int]:
        boundary = self.graph.boundary_node
        dsu = _DisjointSet(self._num_nodes, boundary)
        for defect in defects:
            dsu.parity[defect] = 1
        # Growth per edge, in half-edge units of the (doubled) edge weight.
        growth = np.zeros(len(self._edges), dtype=np.float64)
        limits = np.array([2.0 * w for (_, _, w, _) in self._edges])
        grown: Set[int] = set()
        # Track which nodes belong to the grown region of each root lazily by
        # keeping the member lists of active clusters.
        members: Dict[int, Set[int]] = {}
        for defect in defects:
            members.setdefault(dsu.find(defect), set()).add(defect)

        def cluster_is_active(root: int) -> bool:
            return dsu.parity[root] == 1 and not dsu.touches_boundary[root]

        max_iterations = 4 * int(limits.sum()) + 10
        iteration = 0
        while True:
            iteration += 1
            if iteration > max_iterations:  # pragma: no cover - safety net
                break
            active_roots = [root for root in members if cluster_is_active(dsu.find(root))]
            # Re-canonicalise member map keys.
            if not active_roots:
                break
            canonical: Dict[int, Set[int]] = {}
            for root, nodes_in in members.items():
                canonical.setdefault(dsu.find(root), set()).update(nodes_in)
            members = canonical
            active_roots = [root for root in members if cluster_is_active(root)]
            if not active_roots:
                break
            newly_grown: List[int] = []
            touched_any = False
            for root in active_roots:
                for node in list(members[root]):
                    for edge_id in self._incident[node]:
                        if edge_id in grown:
                            continue
                        growth[edge_id] += 1.0
                        touched_any = True
                        if growth[edge_id] >= limits[edge_id]:
                            grown.add(edge_id)
                            newly_grown.append(edge_id)
            if not touched_any:
                # Active clusters with no growable edges left: nothing more to do.
                break
            for edge_id in newly_grown:
                u, v, _, _ = self._edges[edge_id]
                root_u, root_v = dsu.find(u), dsu.find(v)
                merged = dsu.union(u, v)
                merged_members = members.pop(root_u, set()) | members.pop(root_v, set())
                merged_members.add(u)
                merged_members.add(v)
                members[dsu.find(merged)] = merged_members
        return grown

    # ------------------------------------------------------------------
    # Phase 2: peeling
    # ------------------------------------------------------------------
    def _peel(self, erasure: Set[int], defects: Set[int]) -> int:
        boundary = self.graph.boundary_node
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for edge_id in erasure:
            u, v, _, _ = self._edges[edge_id]
            adjacency.setdefault(u, []).append((v, edge_id))
            adjacency.setdefault(v, []).append((u, edge_id))

        visited: Set[int] = set()
        order: List[Tuple[int, int, int]] = []  # (parent, child, edge_id) in BFS order

        def bfs(root: int) -> None:
            visited.add(root)
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for neighbor, edge_id in adjacency.get(node, []):
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    order.append((node, neighbor, edge_id))
                    queue.append(neighbor)

        # Root the forest at the boundary first so defects can drain into it.
        if boundary in adjacency:
            bfs(boundary)
        for node in list(adjacency):
            if node not in visited:
                bfs(node)

        marked = set(defects)
        correction = False
        for parent, child, edge_id in reversed(order):
            if child in marked:
                correction ^= self._edges[edge_id][3]
                marked.discard(child)
                if parent != boundary:
                    if parent in marked:
                        marked.discard(parent)
                    else:
                        marked.add(parent)
        return int(correction)
