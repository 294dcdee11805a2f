"""Dynamic updates for ProMIPS — the §I maintenance story, made concrete.

The paper motivates the lightweight index with update-heavy deployments
("in commonly used mobile devices or IoT devices, a huge amount of data will
be frequently inserted or deleted in a short time, where the heavyweight
index requiring more maintenance overhead may cause delays").  This module
supplies the standard engineering answer for a bulk-loaded structure:

* **inserts** land in a small in-memory *delta buffer* that queries scan
  exactly (it holds raw vectors, so no accuracy is lost);
* **deletes** are tombstones filtered from every result;
* a **compaction** re-bulk-loads the index over the live points only,
  clears the tombstone set, and reclaims the storage of dead rows — so
  the candidate over-fetch that absorbs tombstones (``k + #tombstones``)
  returns to ``k`` and the vector buffer shrinks back to the live set.
  Compaction triggers on *either* pressure source: delta size
  (``rebuild_threshold``, checked on insert) or tombstone ratio
  (``compact_threshold``, checked on delete) — a delete-only workload
  compacts just like an insert-only one.

All vectors (indexed, delta, and not-yet-compacted dead rows) live in one
growable 2-D buffer with amortised-O(1) appends; external ids are stable
across compactions and map to buffer rows through ``_row_of_external``.

For *serving*, the synchronous compaction above is the wrong shape: it runs
inside ``insert``/``delete`` and, behind a request lock, stalls every
concurrent query for the whole build.  The **generational protocol**
(:mod:`repro.core.maintenance`) splits it into three phases so an engine can
run the expensive part off the lock::

    ticket = index.begin_rebuild()           # under lock: O(live) snapshot
    staged = index.build_generation(ticket)  # off lock: the bulk load
    index.commit_rebuild(ticket, staged)     # under lock: swap + replay drift

Mutations that land between ``begin`` and ``commit`` are *replayed* into
the new generation at commit time: inserts become its delta buffer,
deletes of snapshotted points become its (only) tombstones.  Setting
``defer_maintenance = True`` (the engine does this on attach) turns the
synchronous trigger off so mutations stay O(1).

Correctness note: the guarantee machinery (Conditions A/B) runs against the
*indexed* points; delta points are merged by exact inner product afterwards,
which can only improve the returned set, and ``‖oM‖²`` is kept as the max
over indexed **and** delta points so Condition A stays sound.  Tombstoned
points may still be *verified* (they live in the index until compaction) but
are never returned; the guarantee then applies relative to the surviving
points, matching delete semantics.
"""

from __future__ import annotations

import numpy as np

from dataclasses import asdict, dataclass

from repro.api import (
    BatchResult,
    SearchResult,
    SearchStats,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.core.engine import (
    MERGE_SENTINEL,
    batch_inner_products,
    merge_topk_panels,
)
from repro.core.maintenance import RebuildTicket
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.core.rng import generator_state, resolve_rng, restore_generator
from repro.spec import IndexSpec, register_method

__all__ = ["DynamicProMIPS", "StagedGeneration"]


@dataclass(frozen=True)
class StagedGeneration:
    """The next generation, prepared off the lock by
    :meth:`DynamicProMIPS.build_generation` for
    :meth:`DynamicProMIPS.commit_rebuild`.

    Attributes:
        index: the inner :class:`ProMIPS` bulk-loaded over the snapshot.
        buffer: the new vector buffer — snapshot rows already in place,
            spare rows for the inserts that land during the build.
        snapshot_map: external id → buffer row for the snapshot.
    """

    index: ProMIPS
    buffer: np.ndarray
    snapshot_map: dict[int, int]


@register_method("dynamic", aliases=("Dynamic", "DynamicProMIPS"))
class DynamicProMIPS:
    """ProMIPS with insert/delete support via a delta buffer + tombstones.

    Args:
        data: initial ``(n, d)`` dataset.
        params: ProMIPS build parameters.
        rng: generator or seed used for (re)builds.
        rebuild_threshold: delta-buffer size triggering a compaction, as a
            fraction of the indexed size (checked on insert).
        compact_threshold: tombstone count triggering a compaction, as a
            fraction of the indexed size (checked on delete).
    """

    def __init__(
        self,
        data: np.ndarray,
        params: ProMIPSParams | None = None,
        rng: np.random.Generator | int | None = None,
        rebuild_threshold: float = 0.2,
        compact_threshold: float = 0.25,
    ) -> None:
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1], got {rebuild_threshold}"
            )
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in (0, 1], got {compact_threshold}"
            )
        self._rng = resolve_rng(rng)
        self.params = params or ProMIPSParams()
        self.rebuild_threshold = float(rebuild_threshold)
        self.compact_threshold = float(compact_threshold)

        data = np.asarray(data, dtype=np.float64)
        self._index = ProMIPS.build(data, self.params, rng=self._rng)
        self.dim = self._index.dim
        n = self._index.n
        # One growable 2-D buffer holds every stored vector; appends are
        # amortised O(1) (the initial array is full, so the first insert
        # copies into grown private storage and never mutates `data`).
        self._vec_buf = data
        self._n_rows = n
        # Stable external ids: indexed points get 0..n-1; inserts continue.
        self._row_of_external: dict[int, int] = {i: i for i in range(n)}
        self._install_generation(
            self._index, np.arange(n, dtype=np.int64), {}, set()
        )
        self._next_id = n
        self.rebuilds = 0
        self.reclaimed_bytes = 0
        # True while a MaintenanceEngine owns compaction scheduling: the
        # synchronous trigger inside insert/delete is suppressed.
        self.defer_maintenance = False
        self._rebuild_in_progress = False

    def _install_generation(
        self,
        index: ProMIPS,
        indexed_external: np.ndarray,
        delta: dict[int, int],
        tombstones: set[int],
        indexed_of_external: dict[int, int] | None = None,
    ) -> None:
        """Point the search path at a (new) generation's structures.

        ``indexed_of_external`` may be passed pre-computed (the generational
        path builds it off the serving lock) to keep this swap cheap.
        """
        self._index = index
        self._indexed_external = indexed_external
        self._indexed_of_external = (
            indexed_of_external
            if indexed_of_external is not None
            else {int(ext): idx for idx, ext in enumerate(indexed_external.tolist())}
        )
        self._delta = delta
        self._tombstones = tombstones
        mask = np.zeros(index.n, dtype=bool)
        for ext in tombstones:
            mask[self._indexed_of_external[ext]] = True
        self._tombstone_mask = mask

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "DynamicProMIPS":
        """Build from a spec: ProMIPS parameters plus the two maintenance
        thresholds, e.g. ``dynamic(c=0.9, rebuild_threshold=0.2,
        compact_threshold=0.25)``."""
        params = dict(spec.params)
        rebuild_threshold = params.pop("rebuild_threshold", 0.2)
        compact_threshold = params.pop("compact_threshold", 0.25)
        return cls(
            data,
            ProMIPSParams(**params),
            rng=resolve_rng(rng),
            rebuild_threshold=rebuild_threshold,
            compact_threshold=compact_threshold,
        )

    def spec(self) -> IndexSpec:
        return IndexSpec(
            "dynamic",
            {
                "rebuild_threshold": self.rebuild_threshold,
                "compact_threshold": self.compact_threshold,
                **asdict(self.params),
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """The wrapped index's state plus the mutable bookkeeping: every
        *reachable* stored vector (live, delta, and tombstoned — orphaned
        rows awaiting compaction are dropped, a logical compaction for
        free), the ids those rows belong to, the tombstone set, the delta
        ids, the indexed→external id map, and the exact position of the
        rebuild generator.

        The inner index's data array is NOT stored — its rows are exactly
        the buffer rows of ``indexed_external``, so :meth:`from_state`
        reconstructs it instead of doubling the file's dominant payload."""
        inner = {
            f"promips_{k}": v
            for k, v in self._index.state().items()
            if k != "data"
        }
        ids, rows = self._sorted_id_rows()
        if rows.size == self._n_rows and np.array_equal(
            rows, np.arange(self._n_rows)
        ):
            vectors = self._vec_buf[: self._n_rows]  # view; savez copies
        else:
            vectors = self._vec_buf[rows]
        return {
            **inner,
            "inner_m": np.array([self._index.params.m], dtype=np.int64),
            "vectors": vectors,
            "row_external": ids,
            "tombstones": np.array(sorted(self._tombstones), dtype=np.int64),
            "delta_ids": np.array(sorted(self._delta), dtype=np.int64),
            "indexed_external": self._indexed_external.copy(),
            "next_id": np.array([self._next_id], dtype=np.int64),
            "rebuilds": np.array([self.rebuilds], dtype=np.int64),
            "reclaimed_bytes": np.array([self.reclaimed_bytes], dtype=np.int64),
            "rng_state": generator_state(self._rng),
        }

    @classmethod
    def from_state(
        cls, spec: IndexSpec, state: dict[str, np.ndarray]
    ) -> "DynamicProMIPS":
        """Reconstruct with bit-identical search behaviour.

        The rebuild generator resumes at its saved position, so replicas
        loading one envelope stay identical through later rebuilds.
        Envelopes written before that position was saved get a freshly
        OS-seeded generator; everything a search touches is restored exactly.
        """
        thresholds = ("rebuild_threshold", "compact_threshold")
        params = {k: v for k, v in spec.params.items() if k not in thresholds}
        inner_spec = IndexSpec(
            "promips", {**params, "m": int(state["inner_m"][0])}
        )
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        # Pre-1.5 envelopes stored every vector positionally by external id
        # and no id counter; their layout is exactly row_external = 0..n-1,
        # next_id = n, so defaulting the missing keys keeps them loading.
        if "row_external" in state:
            row_external = np.asarray(state["row_external"], dtype=np.int64)
        else:
            row_external = np.arange(vectors.shape[0], dtype=np.int64)
        next_id = (
            int(state["next_id"][0])
            if "next_id" in state
            else vectors.shape[0]
        )
        indexed_external = np.asarray(state["indexed_external"], dtype=np.int64)
        row_of_external = {
            int(ext): row for row, ext in enumerate(row_external.tolist())
        }
        inner_state = {
            k[len("promips_"):]: v
            for k, v in state.items()
            if k.startswith("promips_")
        }
        inner_state["data"] = np.ascontiguousarray(
            vectors[[row_of_external[int(e)] for e in indexed_external.tolist()]]
        )
        inner = ProMIPS.from_state(inner_spec, inner_state)

        self = cls.__new__(cls)
        self._rng = (
            restore_generator(state["rng_state"])
            if "rng_state" in state
            else resolve_rng(None)
        )
        self.params = ProMIPSParams(**params)
        self.rebuild_threshold = float(spec.params.get("rebuild_threshold", 0.2))
        self.compact_threshold = float(spec.params.get("compact_threshold", 0.25))
        self.dim = inner.dim
        self._vec_buf = vectors
        self._n_rows = vectors.shape[0]
        self._row_of_external = row_of_external
        delta = {
            int(e): row_of_external[int(e)]
            for e in np.asarray(state["delta_ids"]).tolist()
        }
        tombstones = {int(e) for e in np.asarray(state["tombstones"]).tolist()}
        # Pre-1.5 files tombstoned deleted *delta* points too; today those
        # ids leave the row map entirely instead, so migrate them out of the
        # tombstone set (a tombstone now always names an indexed point).
        indexed_set = set(indexed_external.tolist())
        for ext in [e for e in tombstones if e not in indexed_set]:
            tombstones.discard(ext)
            row_of_external.pop(ext, None)
        self._install_generation(inner, indexed_external, delta, tombstones)
        self._next_id = next_id
        self.rebuilds = int(state["rebuilds"][0])
        self.reclaimed_bytes = int(state.get("reclaimed_bytes", [0])[0])
        self.defer_maintenance = False
        self._rebuild_in_progress = False
        return self

    # ------------------------------------------------------------- mutation

    def _sorted_id_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The row map as aligned ``(external ids, buffer rows)`` arrays,
        ascending by id — C-speed extraction, safe to run under a lock."""
        n_map = len(self._row_of_external)
        ids = np.fromiter(self._row_of_external.keys(), np.int64, n_map)
        rows = np.fromiter(self._row_of_external.values(), np.int64, n_map)
        order = np.argsort(ids)
        return ids[order], rows[order]

    @property
    def n_live(self) -> int:
        """Number of live (non-deleted) points."""
        return len(self._row_of_external) - len(self._tombstones)

    @property
    def delta_size(self) -> int:
        return len(self._delta)

    @property
    def tombstone_count(self) -> int:
        """Deleted-but-still-indexed points awaiting compaction."""
        return len(self._tombstones)

    @property
    def indexed_points(self) -> int:
        """Points in the current bulk-loaded generation (live + tombstoned)."""
        return self._index.n

    @property
    def buffer_rows(self) -> int:
        """Rows held in the vector buffer (live + dead, pre-compaction)."""
        return self._n_rows

    def _append_row(self, vector: np.ndarray) -> int:
        if self._n_rows == self._vec_buf.shape[0]:
            grown = np.empty(
                (max(8, 2 * self._vec_buf.shape[0]), self.dim), dtype=np.float64
            )
            grown[: self._n_rows] = self._vec_buf[: self._n_rows]
            self._vec_buf = grown
        self._vec_buf[self._n_rows] = vector
        self._n_rows += 1
        return self._n_rows - 1

    def insert(self, vector: np.ndarray) -> int:
        """Insert one point; returns its external id.  O(1) amortised."""
        vector = validate_query(vector, self.dim)
        ext_id = self._next_id
        self._next_id += 1
        row = self._append_row(vector)
        self._row_of_external[ext_id] = row
        self._delta[ext_id] = row
        self._maybe_maintain()
        return ext_id

    def delete(self, external_id: int) -> None:
        """Delete a point; it disappears from all subsequent results.

        A delta point is dropped outright (its row is reclaimed at the next
        compaction); an indexed point is tombstoned.  Validates *before*
        mutating: deleting the last live point raises without tombstoning
        it, so the structure is never left empty (and therefore corrupt for
        every subsequent search).
        """
        if (
            external_id not in self._row_of_external
            or external_id in self._tombstones
        ):
            raise KeyError(f"unknown or already-deleted id {external_id}")
        if self.n_live == 1:
            raise ValueError("cannot delete the last live point")
        if external_id in self._delta:
            del self._delta[external_id]
            del self._row_of_external[external_id]
        else:
            self._tombstones.add(int(external_id))
            self._tombstone_mask[self._indexed_of_external[external_id]] = True
        self._maybe_maintain()

    def maintenance_due(self) -> str | None:
        """Why a compaction is due now (``"delta"``/``"tombstones"``) or None."""
        base = max(1, self._index.n)
        if len(self._delta) > self.rebuild_threshold * base:
            return "delta"
        if len(self._tombstones) > self.compact_threshold * base:
            return "tombstones"
        return None

    def _maybe_maintain(self) -> None:
        if not self.defer_maintenance and self.maintenance_due() is not None:
            self.compact()

    # --------------------------------------------------- generational rebuild

    def begin_rebuild(self) -> RebuildTicket:
        """Snapshot the live set for a new generation (cheap; under lock).

        Raises:
            RuntimeError: a rebuild is already in flight — generations are
                strictly sequential (the maintenance engine serialises them).
        """
        if self._rebuild_in_progress:
            raise RuntimeError("a rebuild is already in progress")
        self._rebuild_in_progress = True
        try:
            # Vectorized: this runs with the serving lock held, so the id
            # filtering must be C-speed array work, not a per-id Python loop.
            ids, rows = self._sorted_id_rows()
            if self._tombstones:
                tomb = np.fromiter(
                    self._tombstones, np.int64, len(self._tombstones)
                )
                live = ~np.isin(ids, tomb)
                ids, rows = ids[live], rows[live]
            return RebuildTicket(
                live_ids=ids,
                vectors=self._vec_buf[rows],  # fancy index: independent copy
                next_id=self._next_id,
            )
        except BaseException:
            # A failed snapshot (e.g. MemoryError on the copy) must not
            # wedge every future rebuild behind the in-progress guard.
            self._rebuild_in_progress = False
            raise

    def build_generation(self, ticket: RebuildTicket) -> StagedGeneration:
        """Bulk-load the next generation (expensive; run OFF the lock).

        Also stages the new generation's vector buffer (snapshot rows
        already copied in, spare capacity for the drift accumulating while
        we build) and its external→index map, so the commit's lock-held
        phase is O(drift) row copies plus C-speed id scans — not an
        O(live × d) memcpy stalling every query behind the lock.
        """
        built = ProMIPS.build(ticket.vectors, self.params, rng=self._rng)
        n_indexed = ticket.live_ids.size
        # _next_id is a plain int, safe to read without the lock: an upper
        # bound on inserts that have landed since the snapshot.  Double it
        # (more can land before commit) plus slack; drift beyond the staged
        # capacity falls back to one allocation at commit.
        drift_hint = max(0, self._next_id - ticket.next_id)
        capacity = n_indexed + min(2 * drift_hint + 8, max(64, n_indexed))
        buffer = np.empty((max(8, capacity), self.dim), dtype=np.float64)
        buffer[:n_indexed] = ticket.vectors
        snapshot_map = {int(e): pos for pos, e in enumerate(ticket.live_ids.tolist())}
        return StagedGeneration(built, buffer, snapshot_map)

    def commit_rebuild(self, ticket: RebuildTicket, staged: StagedGeneration) -> dict:
        """Swap the new generation in and replay drift (cheap; under lock:
        O(drift) row copies plus C-speed id scans and one dict copy — the
        buffer and map were staged off-lock by :meth:`build_generation`).

        Mutations that landed between ``begin_rebuild`` and here replay into
        the new generation: still-live inserts (ids ``>= ticket.next_id``)
        become its delta buffer; snapshotted points deleted meanwhile become
        its tombstones.  Everything else — the old tombstones, dropped delta
        rows — is compacted away and its buffer storage reclaimed.

        Returns:
            Accounting for the maintenance engine: ``reclaimed_bytes``,
            ``replayed_inserts``, ``replayed_deletes``, ``live_points``,
            ``indexed_points``.
        """
        try:
            live_ids = ticket.live_ids
            n_indexed = live_ids.size
            # Snapshotted points deleted during the build: in the new index,
            # so they re-enter as the only tombstones of the new generation.
            # Vectorized — this runs with the serving lock held.
            n_map = len(self._row_of_external)
            current = np.fromiter(self._row_of_external.keys(), np.int64, n_map)
            dead_mask = ~np.isin(live_ids, current)
            if self._tombstones:
                tomb = np.fromiter(
                    self._tombstones, np.int64, len(self._tombstones)
                )
                dead_mask |= np.isin(live_ids, tomb)
            dead = {int(e) for e in live_ids[dead_mask].tolist()}
            # Inserts that landed during the build, still live.
            replayed = sorted(e for e in self._delta if e >= ticket.next_id)

            buf = staged.buffer
            need = n_indexed + len(replayed)
            if buf.shape[0] < need:  # drift larger than the staged headroom
                buf = np.empty((need, self.dim), dtype=np.float64)
                buf[:n_indexed] = ticket.vectors
            row_of_external = dict(staged.snapshot_map)  # C-speed copy, then drift
            delta: dict[int, int] = {}
            for j, ext in enumerate(replayed):
                row = n_indexed + j
                buf[row] = self._vec_buf[self._row_of_external[ext]]
                row_of_external[ext] = row
                delta[ext] = row
            n_rows = n_indexed + len(replayed)
            # Reclaimed = allocated buffer storage actually given back:
            # dead rows, orphans, and the doubling buffer's spare capacity.
            reclaimed = (
                max(0, self._vec_buf.shape[0] - buf.shape[0]) * self.dim * 8
            )

            self._vec_buf = buf
            self._n_rows = n_rows
            self._row_of_external = row_of_external
            self._install_generation(
                staged.index, live_ids.copy(), delta, dead,
                indexed_of_external=staged.snapshot_map,
            )
            self.rebuilds += 1
            self.reclaimed_bytes += reclaimed
            return {
                "reclaimed_bytes": reclaimed,
                "replayed_inserts": len(replayed),
                "replayed_deletes": len(dead),
                "live_points": self.n_live,
                "indexed_points": staged.index.n,
            }
        finally:
            self._rebuild_in_progress = False

    def abort_rebuild(self, ticket: RebuildTicket) -> None:
        """Drop an uncommitted generation; the current one keeps serving."""
        self._rebuild_in_progress = False

    def compact(self) -> dict:
        """Synchronous compaction: snapshot, bulk-load, swap — in one call.

        The standalone (non-served) maintenance path; blocks the caller for
        the build.  Returns the same accounting as :meth:`commit_rebuild`.
        """
        ticket = self.begin_rebuild()
        try:
            staged = self.build_generation(ticket)
        except BaseException:
            self.abort_rebuild(ticket)
            raise
        return self.commit_rebuild(ticket, staged)

    # --------------------------------------------------------------- search

    def search(self, query: np.ndarray, k: int = 1, **kwargs) -> SearchResult:
        """c-k-AMIP search over indexed + delta points, minus tombstones."""
        k = validate_k(k)
        query = validate_query(query, self.dim)
        return self._search_batch_core(query[None, :], k, kwargs)[0]

    def search_many(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> BatchResult:
        """Native vectorized batch path, bit-identical to looping
        :meth:`search`: the indexed candidates come from the inner index's
        own batch engine, the delta buffer is scanned with one fixed-panel
        GEMM for the whole batch, and the tombstone-masked merge runs as one
        axis-wise lexsort instead of a per-query Python loop."""
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()
        return self._search_batch_core(queries, k, kwargs)

    def _search_batch_core(
        self, queries: np.ndarray, k: int, kwargs: dict
    ) -> BatchResult:
        """Shared core of both entry points (which is what makes them agree
        bit for bit: identical GEMM shapes, identical merge order).

        The merge orders candidates by ``(-score, external_id)`` — the same
        total order the engine's top-k applies — over the indexed top
        ``k + #tombstones`` (over-fetched so tombstoned answers cannot crowd
        out live ones) plus every delta point.
        """
        n_q = queries.shape[0]
        k = min(k, self.n_live)
        index_k = min(self._index.n, k + len(self._tombstones))
        base = self._index.search_many(queries, k=index_k, **kwargs)

        # Indexed block: local ids -> external, pads and tombstones masked.
        pad = base.ids == BatchResult.PAD_ID
        safe = np.where(pad, 0, base.ids)
        dead = pad | self._tombstone_mask[safe]
        id_blocks = [np.where(dead, MERGE_SENTINEL, self._indexed_external[safe])]
        score_blocks = [np.where(dead, -np.inf, base.scores)]

        n_delta = len(self._delta)
        if n_delta:
            delta_ids = np.fromiter(self._delta.keys(), np.int64, n_delta)
            rows = np.fromiter(self._delta.values(), np.int64, n_delta)
            delta_scores = batch_inner_products(self._vec_buf[rows], queries)
            id_blocks.append(np.broadcast_to(delta_ids, (n_q, n_delta)))
            score_blocks.append(np.ascontiguousarray(delta_scores.T))

        top_ids, top_scores = merge_topk_panels(id_blocks, score_blocks, k)

        stats = [
            SearchStats(
                pages=s.pages,
                candidates=s.candidates + n_delta,
                extras={**s.extras, "delta_scanned": n_delta},
            )
            for s in base.stats
        ]
        return BatchResult(ids=top_ids, scores=top_scores, stats=stats)

    def index_size_bytes(self) -> int:
        """Everything beyond one copy of the live indexed data: the inner
        index's structures, every buffer row that is not live indexed data
        (delta copies, tombstoned rows, orphaned rows awaiting compaction,
        and the doubling buffer's allocated-but-unused capacity — all of it
        resident memory), and the id-mapping tables.  Before
        compaction-aware accounting this omitted the dead rows and the
        maps, underreporting exactly the storage a delete-heavy workload
        accumulates."""
        live_indexed = self._index.n - len(self._tombstones)
        aux_rows = self._vec_buf.shape[0] - live_indexed
        map_entries = (
            len(self._row_of_external)
            + len(self._indexed_of_external)
            + len(self._delta)
        )
        return (
            self._index.index_size_bytes()
            + aux_rows * self.dim * 8
            + self._indexed_external.nbytes
            + self._tombstone_mask.nbytes
            + 16 * map_entries  # two int64-sized words per mapping entry
        )

    def __repr__(self) -> str:
        return (
            f"DynamicProMIPS(live={self.n_live}, delta={self.delta_size}, "
            f"tombstones={self.tombstone_count}, rebuilds={self.rebuilds}, "
            f"reclaimed_bytes={self.reclaimed_bytes})"
        )
