"""Array-indexed minimum-weight perfect matching (blossom algorithm).

MWPM is the decoder the paper evaluates every policy with (Section 2.2
background; the logical error rate of Equation (4) is computed from its
corrections), which makes it the hottest serial code in the repository.

This module is a port of NetworkX's ``max_weight_matching`` /
``min_weight_matching`` (Galil's 1986 formulation of Edmonds' blossom +
primal-dual method), specialised for the decoder's dense detector graphs:

* vertices are the integers ``0..n-1`` (the decoder already labels detectors
  and its virtual boundary with small ints), so every vertex-keyed dict of
  the original becomes a flat list,
* the (doubled) edge weights live in a dense matrix, so the ``slack``
  evaluation in the algorithm's hot inner loops is two list lookups instead
  of a chain of dict/attribute accesses through a ``networkx`` graph.

The entry point is :func:`min_weight_matching_complete`, which solves one
complete graph: ``k`` detectors plus, for odd ``k``, one virtual boundary
vertex.  :class:`repro.decoder.matching.MwpmMatcher` calls it once per
cluster of three or more detectors.  The port keeps the original's vertex
order, neighbor order and first-wins tie-breaking, so on the same complete
graph it returns the same set of pairs as ``networkx.min_weight_matching``
(``tests/test_decoder_fastpath.py`` checks this).  The decoder's contract is
weaker: minimum weight, deterministically; which of several equal-weight
matchings a syndrome gets depends on how it splits into clusters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np


class _Blossom:
    """Representation of a non-trivial blossom or sub-blossom.

    Besides the structural fields of the original (``childs``, ``edges``,
    ``mybestedges``), each blossom carries its own ``label`` / ``labeledge``
    / ``bestedge``: the original keyed one dict by vertices *and* blossom
    objects, and splitting that into flat per-vertex lists plus per-blossom
    attributes removes the dict churn from the hottest loops.
    """

    __slots__ = ["childs", "edges", "mybestedges", "label", "labeledge", "bestedge"]

    # childs is an ordered list of the blossom's sub-blossoms, starting with
    # the base and going round the blossom; edges[i] = (v, w) connects
    # childs[i] (containing v) to childs[wrap(i+1)] (containing w);
    # mybestedges caches least-slack edges to neighboring S-blossoms.

    def __init__(self):
        self.mybestedges = None
        self.label = None
        self.labeledge = None
        self.bestedge = None

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def max_weight_matching_dense(
    num_vertices: int,
    maxweight: float,
    neighbors: Sequence[Sequence[int]],
    weight2: Sequence[List[float]],
) -> Dict[int, int]:
    """Maximum-cardinality maximum-weight matching over integer vertices.

    Args:
        num_vertices: Vertex count; vertices are ``0..num_vertices-1`` and
            the order ``0..n-1`` must equal the original graph's node
            insertion order.
        maxweight: ``max(0, max edge weight)`` — the dual-variable seed the
            original computes by scanning the edges.
        neighbors: Per-vertex neighbor lists in adjacency insertion order.
        weight2: Dense matrix of *doubled* edge weights.

    Returns:
        The ``mate`` dict (vertex -> partner), whose key insertion order is
        the order networkx's implementation produced — required to rebuild
        the returned edge set with identical tuple orientations.
    """
    if num_vertices == 0:
        return {}
    gnodes = list(range(num_vertices))
    # The decoder always feeds Python floats, for which networkx's
    # ``allinteger`` probe is False; the /2.0 branch below is fixed to match.

    mate: Dict[int, int] = {}
    # Vertex-keyed state lives in flat lists; blossom-keyed state lives on
    # the _Blossom objects.  A trivial top-level "blossom" IS its vertex
    # (inblossom[v] == v), so the original's paired writes
    # ``label[w] = label[b] = t`` collapse to one list store when b is an int.
    vlabel: List[Optional[int]] = [None] * num_vertices
    vlabeledge: List[Optional[Tuple[int, int]]] = [None] * num_vertices
    vbestedge: List[Optional[Tuple[int, int]]] = [None] * num_vertices
    inblossom: List[object] = list(range(num_vertices))
    blossomparent: Dict[object, Optional[_Blossom]] = dict.fromkeys(gnodes, None)
    blossombase: Dict[object, int] = dict(zip(gnodes, gnodes))
    dualvar: List[float] = [maxweight] * num_vertices
    blossomdual: Dict[_Blossom, float] = {}
    # allowedge is keyed by directed vertex pairs; pack them into one int.
    allowedge: Dict[int, bool] = {}
    n_key = num_vertices
    queue: List[int] = []

    def slack(v, w):
        return dualvar[v] + dualvar[w] - weight2[v][w]

    def get_label(b):
        return vlabel[b] if type(b) is int else b.label

    def get_labeledge(b):
        return vlabeledge[b] if type(b) is int else b.labeledge

    def get_bestedge(b):
        return vbestedge[b] if type(b) is int else b.bestedge

    def assignLabel(w, t, v):
        b = inblossom[w]
        edge = None if v is None else (v, w)
        vlabel[w] = t
        vlabeledge[w] = edge
        vbestedge[w] = None
        if type(b) is int:
            # b == w: a trivial top-level blossom is its own vertex.
            if t == 1:
                queue.append(w)
            elif t == 2:
                base = blossombase[b]
                assignLabel(mate[base], 1, base)
        else:
            b.label = t
            b.labeledge = edge
            b.bestedge = None
            if t == 1:
                queue.extend(b.leaves())
            elif t == 2:
                base = blossombase[b]
                assignLabel(mate[base], 1, base)

    NoNode = object()

    def scanBlossom(v, w):
        # Trace back from v and w, placing breadcrumbs as we go.
        path = []
        base = NoNode
        while v is not NoNode:
            b = inblossom[v]
            b_is_int = type(b) is int
            if (vlabel[b] if b_is_int else b.label) & 4:
                base = blossombase[b]
                break
            path.append(b)
            if b_is_int:
                vlabel[b] = 5
                ledge = vlabeledge[b]
            else:
                b.label = 5
                ledge = b.labeledge
            if ledge is None:
                v = NoNode
            else:
                v = ledge[0]
                b = inblossom[v]
                v = (vlabeledge[b] if type(b) is int else b.labeledge)[0]
            if w is not NoNode:
                v, w = w, v
        for b in path:
            if type(b) is int:
                vlabel[b] = 1
            else:
                b.label = 1
        return base

    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(get_labeledge(bv))
            v = get_labeledge(bv)[0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            ledge = get_labeledge(bw)
            edgs.append((ledge[1], ledge[0]))
            w = ledge[0]
            bw = inblossom[w]
        b.label = 1
        b.labeledge = get_labeledge(bb)
        blossomdual[b] = 0
        for v in b.leaves():
            if get_label(inblossom[v]) == 2:
                queue.append(v)
            inblossom[v] = b
        bestedgeto: Dict[object, Tuple[int, int]] = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [
                        (v, w) for v in bv.leaves() for w in neighbors[v] if v != w
                    ]
            else:
                nblist = [(bv, w) for w in neighbors[bv] if bv != w]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and get_label(bj) == 1
                    and ((bj not in bestedgeto) or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            if type(bv) is int:
                vbestedge[bv] = None
            else:
                bv.bestedge = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        b.bestedge = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        b.bestedge = mybestedge

    def expandBlossom(b, endstage):
        # Trampolined recursion, exactly as in the original.
        def _recurse(b, endstage):
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in s.leaves():
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            if (not endstage) and b.label == 2:
                entrychild = inblossom[b.labeledge[1]]
                j = b.childs.index(entrychild)
                if j & 1:
                    j -= len(b.childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = b.labeledge
                while j != 0:
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    vlabel[w] = None
                    vlabel[q] = None
                    assignLabel(w, 2, v)
                    allowedge[p * n_key + q] = allowedge[q * n_key + p] = True
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    allowedge[v * n_key + w] = allowedge[w * n_key + v] = True
                    j += jstep
                bw = b.childs[j]
                vlabel[w] = 2
                vlabeledge[w] = (v, w)
                if type(bw) is int:
                    # bw == w: the base sub-blossom is the vertex itself.
                    vbestedge[bw] = None
                else:
                    bw.label = 2
                    bw.labeledge = (v, w)
                    bw.bestedge = None
                j += jstep
                while b.childs[j] != entrychild:
                    bv = b.childs[j]
                    if get_label(bv) == 1:
                        j += jstep
                        continue
                    if isinstance(bv, _Blossom):
                        for v in bv.leaves():
                            if vlabel[v]:
                                break
                    else:
                        v = bv
                    if vlabel[v]:
                        vlabel[v] = None
                        vlabel[mate[blossombase[bv]]] = None
                        assignLabel(v, 2, vlabeledge[v][0])
                    j += jstep
            b.label = None
            b.labeledge = None
            b.bestedge = None
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augmentBlossom(b, v):
        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    augmentBlossom(bs, s)
                mate[s] = j
                ledge = get_labeledge(bs)
                if ledge is None:
                    break
                t = ledge[0]
                bt = inblossom[t]
                s, j = get_labeledge(bt)
                if isinstance(bt, _Blossom):
                    augmentBlossom(bt, j)
                mate[j] = s

    while 1:
        # Stage reset: clear every label/labeledge/bestedge (the original's
        # dict .clear() calls), vertex- and blossom-keyed alike.
        for v in gnodes:
            vlabel[v] = None
            vlabeledge[v] = None
            vbestedge[v] = None
        for b in blossomdual:
            b.mybestedges = None
            b.label = None
            b.labeledge = None
            b.bestedge = None
        allowedge.clear()
        queue[:] = []

        for v in gnodes:
            if (v not in mate) and get_label(inblossom[v]) is None:
                assignLabel(v, 1, None)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                # Dual variables cannot change while scanning v's neighbors
                # (only delta updates touch them), so hoist v's lookups.
                dualvar_v = dualvar[v]
                weight2_v = weight2[v]
                v_key = v * n_key
                neighbors_v = neighbors[v]
                for w in neighbors_v:
                    if w == v:
                        continue
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    allowed = v_key + w in allowedge
                    if not allowed:
                        kslack = dualvar_v + dualvar[w] - weight2_v[w]
                        if kslack <= 0:
                            allowedge[v_key + w] = allowedge[w * n_key + v] = True
                            allowed = True
                    if allowed:
                        label_bw = vlabel[bw] if type(bw) is int else bw.label
                        if label_bw is None:
                            assignLabel(w, 2, v)
                        elif label_bw == 1:
                            base = scanBlossom(v, w)
                            if base is not NoNode:
                                addBlossom(base, v, w)
                            else:
                                augmentMatching(v, w)
                                augmented = 1
                                break
                        elif vlabel[w] is None:
                            vlabel[w] = 2
                            vlabeledge[w] = (v, w)
                    elif (vlabel[bw] if type(bw) is int else bw.label) == 1:
                        best = vbestedge[bv] if type(bv) is int else bv.bestedge
                        if best is None or kslack < slack(*best):
                            if type(bv) is int:
                                vbestedge[bv] = (v, w)
                            else:
                                bv.bestedge = (v, w)
                    elif vlabel[w] is None:
                        best = vbestedge[w]
                        if best is None or kslack < slack(*best):
                            vbestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path; pump slack out of the dual variables.
            # delta1 is skipped: this port always runs max-cardinality mode.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            for v in gnodes:
                if get_label(inblossom[v]) is None:
                    best = vbestedge[v]
                    if best is not None:
                        d = slack(*best)
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 2
                            deltaedge = best

            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and get_label(b) == 1
                ):
                    best = get_bestedge(b)
                    if best is not None:
                        kslack = slack(*best)
                        d = kslack / 2.0
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 3
                            deltaedge = best

            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and b.label == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in gnodes:
                b = inblossom[v]
                lbl = vlabel[b] if type(b) is int else b.label
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if b.label == 1:
                        blossomdual[b] += delta
                    elif b.label == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                (v, w) = deltaedge
                allowedge[v * n_key + w] = allowedge[w * n_key + v] = True
                queue.append(v)
            elif deltatype == 3:
                (v, w) = deltaedge
                allowedge[v * n_key + w] = allowedge[w * n_key + v] = True
                queue.append(v)
            elif deltatype == 4:
                expandBlossom(deltablossom, False)

        if not augmented or len(mate) == num_vertices:
            # A perfect matching admits no augmenting path: the next stage
            # would only adjust duals, never ``mate``.
            break

        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and b.label == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    return mate


def _mate_to_matching(mate: Dict[int, int], labels: List[int]) -> Set[Tuple[int, int]]:
    """networkx's ``matching_dict_to_set``: first orientation encountered wins."""
    matching: Set[Tuple[int, int]] = set()
    for iu, iv in mate.items():
        edge = (labels[iu], labels[iv])
        if (edge[1], edge[0]) in matching or edge in matching:
            continue
        matching.add(edge)
    return matching


#: Layout cache for :func:`min_weight_matching_complete`, keyed by (detector
#: count, boundary present): the neighbor lists, which replicate the
#: adjacency insertion order of the seed's graph construction, and the
#: upper-triangle edge indices.  Both are read-only to the matcher, so
#: sharing them across calls is safe.
_COMPLETE_LAYOUT: Dict[Tuple[int, bool], Tuple[List[List[int]], Tuple[np.ndarray, ...]]] = {}


def _complete_layout(k: int, with_boundary: bool):
    key = (k, with_boundary)
    cached = _COMPLETE_LAYOUT.get(key)
    if cached is None:
        neighbors = [
            list(range(i)) + list(range(i + 1, k)) + ([k] if with_boundary else [])
            for i in range(k)
        ]
        if with_boundary:
            neighbors.append(list(range(k)))
        if len(_COMPLETE_LAYOUT) > 256:
            _COMPLETE_LAYOUT.clear()
        cached = (neighbors, np.triu_indices(len(neighbors), 1))
        _COMPLETE_LAYOUT[key] = cached
    return cached


def min_weight_matching_complete(
    pair_dist,
    boundary_dist=None,
    boundary_label: int = -1,
) -> Set[Tuple[int, int]]:
    """Minimum-weight perfect matching of ``k`` detectors (plus a boundary).

    ``pair_dist`` is the dense ``(k, k)`` matrix of finite pair distances
    (only the upper triangle is meaningful; the diagonal is ignored) and
    ``boundary_dist`` the length-``k`` boundary distances, or ``None`` when
    ``k`` is even and the matching runs on the detectors alone.  The edges
    are laid out as networkx reports a graph built per detector ``i``
    ascending — pairs ``(i, j > i)``, then ``(i, boundary_label)`` — and
    weights go through networkx's transformation (``w' = max_w + 1 - w``,
    then maximum-cardinality max-weight matching).  The doubled-weight
    matrix comes from one vectorised numpy expression and the neighbor
    lists and edge indices are cached per ``(k, parity)``.  Returns ``(u, v)`` tuples with
    detectors labelled ``0..k-1``.
    """
    k = int(pair_dist.shape[0])
    with_boundary = boundary_dist is not None
    n = k + 1 if with_boundary else k
    if n < 2:
        return set()
    dist = np.empty((n, n), dtype=np.float64)
    dist[:k, :k] = pair_dist
    if with_boundary:
        dist[:k, k] = boundary_dist
        dist[k, :k] = boundary_dist
        dist[k, k] = 0.0
    neighbors, upper = _complete_layout(k, with_boundary)
    # networkx's min_weight_matching offset, then its max_weight_matching
    # dual seed over the transformed weights.
    weights = dist[upper]
    max_weight = 1 + float(weights.max())
    maxweight = max(0, max_weight - float(weights.min()))
    weight2 = (2.0 * (max_weight - dist)).tolist()

    mate = max_weight_matching_dense(n, maxweight, neighbors, weight2)
    labels = list(range(k)) + ([boundary_label] if with_boundary else [])
    return _mate_to_matching(mate, labels)
