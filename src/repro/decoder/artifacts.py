"""Persistent, mmap-shared decoder artifacts (content-addressed store).

Infrastructure for the Section 5.3 MWPM decoding pipeline: the decoder's
expensive per-graph precomputation — the all-pairs shortest-path (APSP)
distance/predecessor matrices and the frame-parity table of
:mod:`repro.decoder.matching` — is persisted to an on-disk store so that
every process decoding the same graph starts warm.  At d=7 those tables
cost more to build than a cold decode itself (``BENCH_decoder.json``), and
every worker of a :class:`~repro.experiments.executor.SweepExecutor` pool
used to pay that build from scratch.

Layout and semantics mirror the experiment result cache
(:mod:`repro.experiments.store`): entries are content-addressed by the
SHA-256 hash of the canonical :class:`~repro.decoder.graph.DecodingGraph`
identity (code family, distance, rounds, stabilizer type, and a digest of
the edge endpoint/weight/frame arrays in construction order), written
atomically (temp file + ``os.replace``) with arrays first and a JSON commit
marker last, and read back treating missing, torn, or mismatched entries as
misses.  Each graph entry is a pair of files under the store root::

    <graph-key>.npz             APSP distances/predecessors + frame table
    <graph-key>.json            commit marker (format + identity)
    <graph-key>.lru-<id>.npz    syndrome->correction LRU snapshot
    <graph-key>.lru-<id>.json   commit marker (format + LRU identity)

Arrays are saved *uncompressed* and loaded by memory-mapping each ``.npy``
member of the zip archive in place (``numpy.load`` silently ignores
``mmap_mode`` for ``.npz`` archives, so the member offsets are resolved
here and handed to :class:`numpy.memmap` directly).  N worker processes
mapping the same entry therefore share one physical copy of the tables
through the page cache instead of building — or even copying — N of them.

On top of the graph tables, the decoder's cross-batch syndrome->correction
LRU (:class:`~repro.decoder.decoder.SurfaceCodeDecoder`) serialises its
packed-bitmap keys and corrections to the same store: saves merge with the
entry already on disk under a size bound, and decoder construction
pre-warms the in-memory LRU from it, so repeated syndromes are free across
runs, not just across batches.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

#: Bump when the on-disk layout changes; mismatched entries read as misses.
ARTIFACT_FORMAT_VERSION = 1

#: Environment variable naming the default artifact directory.
ENV_ARTIFACT_DIR = "ERASER_REPRO_DECODER_ARTIFACT_DIR"

#: Exceptions that mean "treat this entry as a cache miss".
_MISS_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    json.JSONDecodeError,
    zipfile.BadZipFile,
)


def default_artifact_dir() -> Optional[str]:
    """The artifact directory implied by the environment (``None`` = off)."""
    return os.environ.get(ENV_ARTIFACT_DIR) or None


# ----------------------------------------------------------------------
# Graph identity
# ----------------------------------------------------------------------
def graph_identity(graph) -> Dict[str, object]:
    """Canonical, process-independent identity of a decoding graph.

    Covers everything the APSP/frame tables depend on: the code family and
    distance, the round count, the decoded stabilizer type, the scalar edge
    weights, and a digest of the flat edge arrays *in construction order*
    (order is load-bearing: Union-Find tie-breaking and blossom edge
    enumeration both follow it).  Two graphs with equal identities produce
    bit-identical tables, so artifacts written by one process are valid in
    any other.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.edge_endpoints, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_weights, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_frame_bits, dtype=bool).tobytes())
    return {
        "format": ARTIFACT_FORMAT_VERSION,
        "code_family": getattr(graph.code, "family", "unknown"),
        "distance": int(graph.code.distance),
        "num_rounds": int(graph.num_rounds),
        "stabilizer_type": graph.stabilizer_type.name,
        "space_weight": float(graph.space_weight),
        "time_weight": float(graph.time_weight),
        "diagonal_weight": (
            None if graph.diagonal_weight is None else float(graph.diagonal_weight)
        ),
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "edges_sha256": digest.hexdigest(),
    }


def _canonical_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_key(graph) -> str:
    """SHA-256 content address of a graph's artifact entry."""
    return hashlib.sha256(_canonical_json(graph_identity(graph)).encode("utf-8")).hexdigest()


def lru_identity_key(identity: Dict[str, object]) -> str:
    """Short filename-safe hash of an LRU identity dict (method + knobs)."""
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Uncompressed-npz memory mapping
# ----------------------------------------------------------------------
def _read_npy_header(handle) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """Parse an npy header at the handle's position (shape, fortran, dtype)."""
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(handle)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(handle)
    raise ValueError(f"unsupported npy format version {version}")


def mmap_npz(path) -> Dict[str, np.ndarray]:
    """Memory-map every member of an *uncompressed* ``.npz`` archive.

    ``numpy.load(path, mmap_mode="r")`` quietly ignores ``mmap_mode`` for
    zip archives and returns in-memory copies, which would defeat the whole
    point of a shared store.  This helper resolves each ``.npy`` member's
    data offset from the zip directory (local header + npy header) and maps
    the array bytes in place with ``mode="r"``, so concurrent processes
    share one set of physical pages.  Raises on compressed members or
    object dtypes; callers treat any failure as a cache miss.
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    with open(path, "rb") as handle:
        for info in infos:
            if not info.filename.endswith(".npy"):
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename} is compressed; cannot mmap")
            # Local file header: 30 fixed bytes, then name + extra field
            # (their lengths can differ from the central directory's copy).
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local header for {info.filename}")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            shape, fortran_order, dtype = _read_npy_header(handle)
            if dtype.hasobject:
                raise ValueError(f"{info.filename} holds objects; cannot mmap")
            arrays[info.filename[: -len(".npy")]] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=handle.tell(),
                shape=shape,
                order="F" if fortran_order else "C",
            )
    return arrays


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class DecoderArtifactStore:
    """Filesystem-backed, content-addressed store of decoder artifacts.

    One store instance fronts one directory; use :func:`get_artifact_store`
    to share an instance per resolved path within a process.  All writes are
    atomic with the JSON file as commit marker, and all reads validate the
    marker's format and identity before touching the arrays — torn or stale
    entries read as ``None`` misses exactly like
    :class:`~repro.experiments.store.ResultStore`.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def graph_json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def graph_npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def lru_json_path(self, key: str, lru_key: str) -> Path:
        return self.root / f"{key}.lru-{lru_key}.json"

    def lru_npz_path(self, key: str, lru_key: str) -> Path:
        return self.root / f"{key}.lru-{lru_key}.npz"

    # -- atomic write ---------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=f".{path.stem}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _save_entry(
        self, npz_path: Path, json_path: Path, arrays: Dict[str, np.ndarray],
        marker: Dict[str, object],
    ) -> None:
        buffer = io.BytesIO()
        # np.savez (not savez_compressed): members must stay ZIP_STORED so
        # mmap_npz can map them in place.
        np.savez(buffer, **arrays)
        self._atomic_write(npz_path, buffer.getvalue())
        self._atomic_write(
            json_path, json.dumps(marker, sort_keys=True, indent=1).encode("utf-8")
        )

    def _load_marker(self, json_path: Path) -> Optional[Dict[str, object]]:
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != ARTIFACT_FORMAT_VERSION:
            return None
        return payload

    # -- graph tables ---------------------------------------------------
    def contains_graph(self, graph) -> bool:
        """Whether a complete, identity-matching entry exists for ``graph``."""
        return self.load_graph_tables(graph) is not None

    def save_graph_tables(
        self,
        graph,
        distances: np.ndarray,
        predecessors: np.ndarray,
        frames: np.ndarray,
    ) -> None:
        """Persist a graph's APSP matrices and frame-parity table."""
        key = graph_key(graph)
        self._save_entry(
            self.graph_npz_path(key),
            self.graph_json_path(key),
            {
                "distances": np.ascontiguousarray(distances),
                "predecessors": np.ascontiguousarray(predecessors),
                "frames": np.ascontiguousarray(frames, dtype=bool),
            },
            {
                "format": ARTIFACT_FORMAT_VERSION,
                "key": key,
                "identity": graph_identity(graph),
            },
        )

    def load_graph_tables(
        self, graph
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Memory-mapped ``(distances, predecessors, frames)``, or ``None``.

        The returned arrays are read-only :class:`numpy.memmap` views backed
        by the store file; every consumer indexes out the (small) rows it
        needs, so pages are shared across all processes mapping the entry.
        """
        key = graph_key(graph)
        try:
            marker = self._load_marker(self.graph_json_path(key))
            if marker is None or marker.get("identity") != graph_identity(graph):
                return None
            arrays = mmap_npz(self.graph_npz_path(key))
            distances = arrays["distances"]
            predecessors = arrays["predecessors"]
            frames = arrays["frames"]
            size = graph.num_nodes + 1
            if (
                distances.shape != (size, size)
                or predecessors.shape != (size, size)
                or frames.shape != (size, size)
                or frames.dtype != np.bool_
            ):
                return None
            return distances, predecessors, frames
        except _MISS_ERRORS:
            return None

    # -- syndrome->correction LRU ---------------------------------------
    def save_lru(
        self,
        graph,
        identity: Dict[str, object],
        entries: "OrderedDict[bytes, int]",
        bound: int,
    ) -> None:
        """Merge-and-save an LRU snapshot for ``(graph, identity)``.

        The snapshot on disk is merged with ``entries`` (newer wins and
        counts as most recent) and trimmed to the oldest-out ``bound``, so
        concurrent writers lose at most each other's tail, never the entry's
        integrity — the write itself is atomic.
        """
        if bound < 1 or not entries:
            return
        key = graph_key(graph)
        lru_key = lru_identity_key(identity)
        merged = self.load_lru(graph, identity) or OrderedDict()
        for packed, correction in entries.items():
            merged.pop(packed, None)
            merged[packed] = int(correction)
        while len(merged) > bound:
            merged.popitem(last=False)
        key_bytes = list(merged.keys())
        key_len = len(key_bytes[0])
        if any(len(item) != key_len for item in key_bytes):
            raise ValueError("LRU keys must have uniform length")
        keys_array = np.frombuffer(b"".join(key_bytes), dtype=np.uint8).reshape(
            len(key_bytes), key_len
        )
        corrections = np.asarray(list(merged.values()), dtype=np.int8)
        self._save_entry(
            self.lru_npz_path(key, lru_key),
            self.lru_json_path(key, lru_key),
            {"keys": keys_array, "corrections": corrections},
            {
                "format": ARTIFACT_FORMAT_VERSION,
                "key": key,
                "lru_identity": identity,
                "graph_identity": graph_identity(graph),
                "entries": len(merged),
            },
        )

    def load_lru(
        self, graph, identity: Dict[str, object]
    ) -> Optional["OrderedDict[bytes, int]"]:
        """The stored LRU snapshot in insertion (= recency) order, or ``None``."""
        key = graph_key(graph)
        lru_key = lru_identity_key(identity)
        try:
            marker = self._load_marker(self.lru_json_path(key, lru_key))
            if (
                marker is None
                or marker.get("lru_identity") != identity
                or marker.get("graph_identity") != graph_identity(graph)
            ):
                return None
            # LRU snapshots are small and mutate on save; plain load copies
            # are simpler than mapping here (the big shared tables are the
            # APSP/frame matrices above).
            with np.load(self.lru_npz_path(key, lru_key)) as archive:
                keys_array = archive["keys"]
                corrections = archive["corrections"]
            if keys_array.ndim != 2 or corrections.shape != (keys_array.shape[0],):
                return None
            entries: "OrderedDict[bytes, int]" = OrderedDict()
            for row, correction in zip(keys_array, corrections.tolist()):
                entries[row.tobytes()] = int(correction)
            return entries
        except _MISS_ERRORS:
            return None


# ----------------------------------------------------------------------
# Shared store instances and pre-building
# ----------------------------------------------------------------------
_STORE_REGISTRY: Dict[str, DecoderArtifactStore] = {}


def get_artifact_store(root) -> DecoderArtifactStore:
    """One :class:`DecoderArtifactStore` per resolved path, per process."""
    resolved = str(Path(root).resolve())
    store = _STORE_REGISTRY.get(resolved)
    if store is None:
        store = DecoderArtifactStore(resolved)
        _STORE_REGISTRY[resolved] = store
    return store


def ensure_graph_tables(graph) -> bool:
    """Build-and-persist a graph's tables if its store lacks them.

    Returns ``True`` when the tables were built and saved by this call,
    ``False`` when the store already held them (or the graph cannot use
    them: no store attached, above the APSP cache limit, or non-positive
    edge weights).  Used by the sweep executor to pre-build artifacts once
    before fanning out, so workers never race on construction.
    """
    store = getattr(graph, "artifact_store", None)
    if store is None:
        return False
    from repro.decoder.matching import _APSP_NODE_LIMIT, _frame_parity_table

    if graph.adjacency.shape[0] > _APSP_NODE_LIMIT:
        return False
    if store.contains_graph(graph):
        return False
    _frame_parity_table(graph)  # computes and saves through the store hook
    return store.contains_graph(graph)


def prebuild_job_artifacts(jobs: Iterable, directory: str) -> int:
    """Pre-build graph artifacts in ``directory`` for every decode job's graph.

    Deduplicates by (code family, distance, rounds) — the memory-experiment
    decoder always decodes Z detectors at unit weights, so that tuple pins
    the graph identity.  Returns how many entries were actually built
    (``0`` = the store was already warm).
    """
    from repro.codes import make_code
    from repro.decoder.graph import shared_decoding_graph

    store = get_artifact_store(directory)
    built = 0
    seen = set()
    for job in jobs:
        if not job.decode:
            continue
        signature = (job.code_family, job.distance, job.rounds)
        if signature in seen:
            continue
        seen.add(signature)
        graph = shared_decoding_graph(
            make_code(job.code_family, job.distance),
            job.rounds,
            artifact_store=store,
        )
        built += int(ensure_graph_tables(graph))
    return built
