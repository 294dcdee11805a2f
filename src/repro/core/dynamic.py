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
  returns to ``k`` and the delta buffer empties.
  Compaction triggers on *either* pressure source: delta size
  (``rebuild_threshold``, checked on insert) or tombstone ratio
  (``compact_threshold``, checked on delete) — a delete-only workload
  compacts just like an insert-only one.

**Row layout.**  Every point has a row, every id table is a flat ``int64``
array, and every vector is held exactly once:

* rows ``[0, n_indexed)`` are the current generation in inner-index order,
  so a row number *is* the inner index's point id; their vectors are the
  generation's own data, held by the inner index and nowhere else;
* rows ``[n_indexed, n_rows)`` are the inserts since that generation, in
  id order (deleted ones stay as dead rows until the next compaction);
  row ``r``'s vector is ``_delta_buf[r - n_indexed]``, a growable buffer
  with amortised-O(1) appends that holds only inserts;
* ``_external_of[row]`` is the external id stored in a row and
  ``_row_of[id]`` the row holding an id, ``-1`` meaning gone;
* ``_tombstone_mask[row]`` marks deleted rows of the current generation.

The invariant that makes this work: **external ids ascend with rows.**
A generation is bulk-loaded from a snapshot taken in ascending-id order,
and every later insert takes a fresh, larger id, so every indexed id is
smaller than every insert id.  Id-ordered views (the delta set, the
rebuild snapshot, ``state()``) are therefore row-ordered masks of
``_external_of`` — no sort, no per-id Python work.  External ids are
stable across compactions; only their rows move.

The build and :meth:`DynamicProMIPS.from_state` end in the same setup and
generation install; a load differs only in where the generation comes from.

For *serving*, the synchronous compaction above is the wrong shape: it runs
inside ``insert``/``delete`` and, behind a request lock, stalls every
concurrent query for the whole build.  The **generational protocol**
(:mod:`repro.core.maintenance`) splits it into three phases so an engine can
run the expensive part off the lock::

    ticket = index.begin_rebuild()          # under lock: O(live) snapshot
    built = index.build_generation(ticket)  # off lock: the bulk load
    index.commit_rebuild(ticket, built)     # under lock: swap + replay drift

The snapshot becomes the new generation's data as it is, so a rebuild
never leaves a second copy of the indexed vectors behind.  Mutations that
land between ``begin`` and ``commit`` are *replayed* into the new
generation at commit time: inserts become its delta buffer, deletes of
snapshotted points become its (only) tombstones.  Setting
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

from dataclasses import asdict

from repro.api import (
    BatchResult,
    SearchResult,
    SearchStats,
    validate_id,
    validate_k,
    validate_queries,
    validate_query,
    validate_data,
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

__all__ = ["DynamicProMIPS"]


def _grown(array: np.ndarray, used: int) -> np.ndarray:
    """A doubled copy of ``array`` keeping its first ``used`` entries."""
    grown = np.empty((max(8, 2 * array.shape[0]),) + array.shape[1:], array.dtype)
    grown[:used] = array[:used]
    return grown


# The compaction thresholds' defaults (fractions of the indexed size).
_REBUILD_THRESHOLD, _COMPACT_THRESHOLD = 0.2, 0.25


def _split_spec(params: dict) -> tuple[dict, float, float]:
    """A dynamic spec's ProMIPS parameters and its two thresholds (specs
    written before 1.5 have no ``compact_threshold``)."""
    params = dict(params)
    rebuild_threshold = params.pop("rebuild_threshold", _REBUILD_THRESHOLD)
    compact_threshold = params.pop("compact_threshold", _COMPACT_THRESHOLD)
    return params, rebuild_threshold, compact_threshold


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
        rebuild_threshold: float = _REBUILD_THRESHOLD,
        compact_threshold: float = _COMPACT_THRESHOLD,
    ) -> None:
        self._setup(
            params or ProMIPSParams(), resolve_rng(rng), rebuild_threshold,
            compact_threshold, rebuilds=0, reclaimed_bytes=0,
        )
        index = ProMIPS.build(data, self.params, rng=self._rng)
        # Stable external ids: indexed points get 0..n-1; inserts continue.
        # Inserts go to a delta buffer of their own, so `data` (which the
        # inner index holds as its data) is never written.
        ids = np.arange(index.n, dtype=np.int64)
        self._install_generation(
            index,
            np.empty((0, index.dim), dtype=np.float64),
            ids,
            ids.copy(),
            np.zeros(index.n, dtype=bool),
        )
        self._next_id = index.n

    def _setup(
        self, params: ProMIPSParams, rng: np.random.Generator,
        rebuild_threshold: float, compact_threshold: float,
        rebuilds: int, reclaimed_bytes: int,
    ) -> None:
        """The build's and :meth:`from_state`'s shared start: parameters,
        generator, validated thresholds, maintenance counters and flags."""
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1], got {rebuild_threshold}"
            )
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in (0, 1], got {compact_threshold}"
            )
        self.params = params
        self._rng = rng
        self.rebuild_threshold = float(rebuild_threshold)
        self.compact_threshold = float(compact_threshold)
        self.rebuilds = int(rebuilds)
        self.reclaimed_bytes = int(reclaimed_bytes)
        # True while a MaintenanceEngine owns compaction scheduling: the
        # synchronous trigger inside insert/delete is suppressed.
        self.defer_maintenance = False
        self._rebuild_in_progress = False

    def _install_generation(
        self,
        index: ProMIPS,
        delta: np.ndarray,
        external_of: np.ndarray,
        row_of: np.ndarray,
        tombstone_mask: np.ndarray,
    ) -> None:
        """Point the search path at a (new) generation laid out as the
        module docstring describes: ``index`` holds the generation's
        vectors in inner-index order, ``delta`` the live inserts since it
        in id order (its rows are all used), ``external_of`` has one entry
        per row and ``tombstone_mask`` one per indexed row.

        The two counters keep ``insert``/``delete`` free of whole-array
        passes: under serving, every numpy call that releases the GIL can
        park a mutation behind a concurrent search."""
        self._index = index
        self.dim = index.dim
        self._delta_buf = delta
        self._n_rows = index.n + delta.shape[0]
        self._external_of = external_of
        self._row_of = row_of
        self._tombstone_mask = tombstone_mask
        self._n_delta = delta.shape[0]  # a new generation's delta is all live
        self._n_tombstones = int(np.count_nonzero(tombstone_mask))

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
        params, rebuild_threshold, compact_threshold = _split_spec(spec.params)
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
        *reachable* stored vector (live, delta, and tombstoned — dead delta
        rows awaiting compaction are dropped, a logical compaction for
        free), the ids those rows belong to, the tombstone set, the delta
        ids, the indexed→external id map, and the exact position of the
        rebuild generator.  Every id array is ascending (the row layout's
        invariant), so each is one mask of ``_external_of``.

        The inner index's data array is NOT stored separately — it is the
        leading ``indexed_external`` rows of ``vectors``, so
        :meth:`from_state` hands those rows back to the inner index instead
        of doubling the file's dominant payload."""
        inner = {f"promips_{k}": v for k, v in self._index.state().items()}
        indexed = inner.pop("promips_data")
        n_indexed = self._index.n
        slots = self._delta_slots()
        delta_ids = self._external_of[n_indexed + slots]
        if slots.size:
            vectors = np.concatenate([indexed, self._delta_buf[slots]])
        else:
            vectors = indexed  # savez copies
        indexed_external = self._external_of[:n_indexed].copy()
        return {
            **inner,
            "inner_m": np.array([self._index.params.m], dtype=np.int64),
            "vectors": vectors,
            "row_external": np.concatenate([indexed_external, delta_ids]),
            "tombstones": indexed_external[self._tombstone_mask],
            "delta_ids": delta_ids,
            "indexed_external": indexed_external,
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
        params, rebuild_threshold, compact_threshold = _split_spec(spec.params)
        rng = restore_generator(state["rng_state"]) if "rng_state" in state else resolve_rng(None)
        self = cls.__new__(cls)
        self._setup(
            ProMIPSParams(**params), rng, rebuild_threshold, compact_threshold,
            rebuilds=int(state["rebuilds"][0]),
            reclaimed_bytes=int(state.get("reclaimed_bytes", [0])[0]),
        )
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        # Pre-1.5 envelopes stored every vector positionally by external id
        # and no id counter; their layout is exactly row_external = 0..n-1,
        # next_id = n, so defaulting the missing keys keeps them loading.
        if "row_external" in state:
            row_external = np.asarray(state["row_external"], dtype=np.int64)
        else:
            row_external = np.arange(vectors.shape[0], dtype=np.int64)
        next_id = int(state.get("next_id", [vectors.shape[0]])[0])
        indexed_external = np.asarray(state["indexed_external"], dtype=np.int64)
        n_indexed = indexed_external.size
        # The row layout: the generation in inner-index order, then the
        # delta in id order.  `vectors` is ascending by id, which for every
        # current envelope is already exactly this layout, so the generation
        # and the delta are two views of it (no copy); pre-1.5 files also
        # stored deleted delta points, which the gathers drop.
        external_of = np.concatenate(
            [indexed_external, np.asarray(state["delta_ids"], dtype=np.int64)]
        )
        positions = np.searchsorted(row_external, external_of)
        if positions.size == vectors.shape[0] and np.array_equal(
            positions, np.arange(positions.size)
        ):
            indexed, delta = vectors[:n_indexed], vectors[n_indexed:]
        else:
            indexed = vectors[positions[:n_indexed]]
            delta = vectors[positions[n_indexed:]]
        # The inner index validates the generation's rows, this the delta's.
        if delta.shape[0]:
            validate_data(delta)
        n_rows = external_of.size
        row_of = np.full(next_id, -1, dtype=np.int64)
        row_of[external_of] = np.arange(n_rows)
        # Pre-1.5 files also tombstoned deleted *delta* points; those ids
        # are in no row now, so only tombstones of indexed rows are kept.
        tombstone_rows = row_of[np.asarray(state["tombstones"], dtype=np.int64)]
        tombstone_mask = np.zeros(n_indexed, dtype=bool)
        tombstone_mask[tombstone_rows[tombstone_rows >= 0]] = True

        inner_state = {
            k[len("promips_"):]: v
            for k, v in state.items()
            if k.startswith("promips_")
        }
        inner_state["data"] = indexed
        inner_spec = IndexSpec("promips", {**params, "m": int(state["inner_m"][0])})
        inner = ProMIPS.from_state(inner_spec, inner_state)
        self._install_generation(inner, delta, external_of, row_of, tombstone_mask)
        self._next_id = next_id
        return self

    # ------------------------------------------------------------- mutation

    def _delta_slots(self) -> np.ndarray:
        """Delta-buffer positions of the live inserts, ascending (= id
        order); slot ``s`` is row ``n_indexed + s``."""
        n_indexed = self._index.n
        return np.flatnonzero(self._external_of[n_indexed : self._n_rows] >= 0)

    def _live_rows(self) -> np.ndarray:
        """Rows of every live point, ascending (= id order)."""
        live = self._external_of[: self._n_rows] >= 0
        live[: self._index.n] &= ~self._tombstone_mask
        return np.flatnonzero(live)

    @property
    def n_live(self) -> int:
        """Number of live (non-deleted) points."""
        return self._index.n - self._n_tombstones + self._n_delta

    @property
    def next_id(self) -> int:
        """The id the next insert gets: one past every id handed out."""
        return self._next_id

    @property
    def delta_size(self) -> int:
        return self._n_delta

    @property
    def tombstone_count(self) -> int:
        """Deleted-but-still-indexed points awaiting compaction."""
        return self._n_tombstones

    @property
    def indexed_points(self) -> int:
        """Points in the current bulk-loaded generation (live + tombstoned)."""
        return self._index.n

    @property
    def buffer_rows(self) -> int:
        """Rows in the row layout: the generation's points (live and
        tombstoned) plus every insert since it (live and deleted) — what a
        compaction shrinks back to the live set."""
        return self._n_rows

    def insert(self, vector: np.ndarray) -> int:
        """Insert one point; returns its external id.  O(1) amortised."""
        vector = validate_query(vector, self.dim)
        ext_id = self._next_id
        row = self._n_rows
        slot = row - self._index.n
        if slot == self._delta_buf.shape[0]:
            self._delta_buf = _grown(self._delta_buf, slot)
        if row == self._external_of.size:
            self._external_of = _grown(self._external_of, row)
        if ext_id == self._row_of.size:
            self._row_of = _grown(self._row_of, ext_id)
        self._delta_buf[slot] = vector
        self._external_of[row] = ext_id
        self._row_of[ext_id] = row
        self._n_rows += 1
        self._n_delta += 1
        self._next_id += 1
        self._maybe_maintain()
        return ext_id

    def delete(self, external_id: int) -> None:
        """Delete a point; it disappears from all subsequent results.

        A delta point is dropped outright (its row is reclaimed at the next
        compaction); an indexed point is tombstoned.  Validates *before*
        mutating: deleting the last live point raises without tombstoning
        it, so the structure is never left empty (and therefore corrupt for
        every subsequent search).

        Raises:
            ValueError: ``external_id`` is not an integer (bools included).
            KeyError: unknown or already-deleted id.
        """
        external_id = validate_id(external_id)
        n_indexed = self._index.n
        row = (
            int(self._row_of[external_id])
            if 0 <= external_id < self._next_id
            else -1
        )
        if row < 0 or (row < n_indexed and self._tombstone_mask[row]):
            raise KeyError(f"unknown or already-deleted id {external_id}")
        if self.n_live == 1:
            raise ValueError("cannot delete the last live point")
        if row < n_indexed:
            self._tombstone_mask[row] = True
            self._n_tombstones += 1
        else:
            self._external_of[row] = -1
            self._row_of[external_id] = -1
            self._n_delta -= 1
        self._maybe_maintain()

    def maintenance_due(self) -> str | None:
        """Why a compaction is due now (``"delta"``/``"tombstones"``) or None."""
        base = max(1, self._index.n)
        if self._n_delta > self.rebuild_threshold * base:
            return "delta"
        if self._n_tombstones > self.compact_threshold * base:
            return "tombstones"
        return None

    def _maybe_maintain(self) -> None:
        if not self.defer_maintenance and self.maintenance_due() is not None:
            self.compact()

    # --------------------------------------------------- generational rebuild

    def begin_rebuild(self) -> RebuildTicket:
        """Snapshot the live set for a new generation (cheap; under lock:
        one mask over the id array and one gather from the generation's
        data and the delta buffer into the snapshot).

        Raises:
            RuntimeError: a rebuild is already in flight — generations are
                strictly sequential (the maintenance engine serialises them).
        """
        if self._rebuild_in_progress:
            raise RuntimeError("a rebuild is already in progress")
        self._rebuild_in_progress = True
        try:
            rows = self._live_rows()
            n_indexed = self._index.n
            split = int(np.searchsorted(rows, n_indexed))
            vectors = np.empty((rows.size, self.dim), dtype=np.float64)
            # mode="clip" writes straight into `out` (the default "raise"
            # gathers into a temporary first); every row is in range.
            np.take(
                self._index.state()["data"], rows[:split], axis=0,
                out=vectors[:split], mode="clip",
            )
            np.take(
                self._delta_buf, rows[split:] - n_indexed, axis=0,
                out=vectors[split:], mode="clip",
            )
            return RebuildTicket(
                live_ids=self._external_of[rows],
                vectors=vectors,
                next_id=self._next_id,
            )
        except BaseException:
            # A failed snapshot (e.g. MemoryError on the copy) must not
            # wedge every future rebuild behind the in-progress guard.
            self._rebuild_in_progress = False
            raise

    def build_generation(self, ticket: RebuildTicket) -> ProMIPS:
        """Bulk-load the next generation over the snapshot (expensive; run
        OFF the lock).  The built index keeps ``ticket.vectors`` as its
        data, so the snapshot is the generation's one copy of its vectors.
        """
        return ProMIPS.build(ticket.vectors, self.params, rng=self._rng)

    def commit_rebuild(self, ticket: RebuildTicket, built: ProMIPS) -> dict:
        """Swap the new generation in and replay drift (cheap; under lock:
        O(drift) row copies plus array passes over the ids).

        Mutations that landed between ``begin_rebuild`` and here replay into
        the new generation: still-live inserts (ids ``>= ticket.next_id``)
        become its delta buffer; snapshotted points deleted meanwhile become
        its tombstones.  Everything else — the old generation's data, the
        old tombstones, dropped delta rows — is released.

        Returns:
            Accounting for the maintenance engine: ``reclaimed_bytes``,
            ``replayed_inserts``, ``replayed_deletes``, ``live_points``,
            ``indexed_points``.
        """
        try:
            live_ids = ticket.live_ids
            old_indexed = self._index.n
            # Snapshotted points deleted during the build: in the new index,
            # so they re-enter as the only tombstones of the new generation.
            # A deleted delta point has no row; a deleted indexed point is
            # tombstoned in the current generation.
            rows = self._row_of[live_ids]
            dead = rows < 0
            held = np.flatnonzero(~dead & (rows < old_indexed))
            dead[held] = self._tombstone_mask[rows[held]]
            # Inserts that landed during the build, still live, in id order:
            # all of them are delta rows of the current generation.
            drift_rows = self._row_of[ticket.next_id : self._next_id]
            replay_rows = drift_rows[drift_rows >= 0]
            delta = self._delta_buf[replay_rows - old_indexed]
            external_of = np.concatenate(
                [live_ids, self._external_of[replay_rows]]
            )
            row_of = np.full(self._row_of.size, -1, dtype=np.int64)
            row_of[external_of] = np.arange(external_of.size)
            # Reclaimed = vector rows held before minus rows held after:
            # tombstoned and dead rows, and the delta buffer's spare capacity.
            held_before = old_indexed + self._delta_buf.shape[0]
            held_after = built.n + delta.shape[0]
            reclaimed = max(0, held_before - held_after) * self.dim * 8

            self._install_generation(built, delta, external_of, row_of, dead)
            self.rebuilds += 1
            self.reclaimed_bytes += reclaimed
            return {
                "reclaimed_bytes": reclaimed,
                "replayed_inserts": int(replay_rows.size),
                "replayed_deletes": self._n_tombstones,
                "live_points": self.n_live,
                "indexed_points": built.n,
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
            built = self.build_generation(ticket)
        except BaseException:
            self.abort_rebuild(ticket)
            raise
        return self.commit_rebuild(ticket, built)

    # --------------------------------------------------------------- search

    def search(self, query: np.ndarray, k: int = 1, **kwargs) -> SearchResult:
        """c-k-AMIP search for one ``(d,)`` query: a one-row :meth:`search_many`."""
        query = validate_query(query, self.dim)
        return self.search_many(query[None, :], k=k, **kwargs)[0]

    def search_many(
        self, queries: np.ndarray, k: int = 1, **kwargs
    ) -> BatchResult:
        """c-k-AMIP search over indexed + delta points, minus tombstones.

        The indexed candidates come from the inner index's ``search_many``,
        the delta buffer is scanned with one fixed-panel GEMM for the whole
        batch, and the tombstone-masked merge runs as one axis-wise lexsort.
        The merge orders candidates by ``(-score, external_id)`` — the same
        total order the engine's top-k applies — over the indexed top
        ``k + #tombstones`` (over-fetched so tombstoned answers cannot crowd
        out live ones) plus every delta point.
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()

        n_q = queries.shape[0]
        k = min(k, self.n_live)
        index_k = min(self._index.n, k + self._n_tombstones)
        base = self._index.search_many(queries, k=index_k, **kwargs)

        # Indexed block: local ids -> external, pads and tombstones masked.
        pad = base.ids == BatchResult.PAD_ID
        safe = np.where(pad, 0, base.ids)
        dead = pad | self._tombstone_mask[safe]
        id_blocks = [np.where(dead, MERGE_SENTINEL, self._external_of[safe])]
        score_blocks = [np.where(dead, -np.inf, base.scores)]

        slots = self._delta_slots()
        n_delta = slots.size
        if n_delta:
            delta_scores = batch_inner_products(self._delta_buf[slots], queries)
            delta_ids = self._external_of[self._index.n + slots]
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
        index's structures, the delta buffer's whole capacity (live inserts,
        dead ones awaiting compaction, and allocated-but-unused rows — all
        of it resident memory), the tombstoned rows still held in the
        generation's data, and the id arrays (two int64 maps and the
        tombstone mask, capacity included)."""
        aux_rows = self._delta_buf.shape[0] + self._n_tombstones
        return (
            self._index.index_size_bytes()
            + aux_rows * self.dim * 8
            + self._external_of.nbytes
            + self._row_of.nbytes
            + self._tombstone_mask.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"DynamicProMIPS(live={self.n_live}, delta={self.delta_size}, "
            f"tombstones={self.tombstone_count}, rebuilds={self.rebuilds}, "
            f"reclaimed_bytes={self.reclaimed_bytes})"
        )
