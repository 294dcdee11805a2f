"""Generational background maintenance: rebuilds off the request lock.

The paper's case for a lightweight index is cheap maintenance under
update-heavy workloads (§I, Fig. 4(b)) — but *when* that maintenance runs
matters as much as what it costs.  A delta-buffer index that re-bulk-loads
synchronously inside ``insert``/``delete`` stalls every concurrent query for
the whole build; LEMP-style serving work (Abuzaid et al., "To Index or Not
to Index") makes the point that amortised maintenance cost must never appear
on the query critical path.

This module supplies that property for any index implementing the
**maintenance protocol** (:class:`repro.core.dynamic.DynamicProMIPS` is the
canonical implementation):

* ``maintenance_due() -> str | None`` — why a rebuild is needed now
  (``"delta"`` buffer over threshold, ``"tombstones"`` ratio over
  threshold), or ``None``;
* ``begin_rebuild() -> RebuildTicket`` — snapshot the live vector set
  (called under the serving lock; O(live) copy, no index build);
* ``build_generation(ticket) -> generation`` — bulk-load the next
  generation from the snapshot (called **off** the lock; the expensive
  part); the returned object is opaque to the engine and only handed to
  the commit;
* ``commit_rebuild(ticket, generation) -> dict`` — atomically swap the new
  generation in and *replay* the mutations that landed during the build
  (under the lock again; O(drift));
* ``abort_rebuild(ticket)`` — drop an in-flight generation after a failed
  build, leaving the current one serving;
* ``defer_maintenance`` — attribute the engine sets ``True`` so the index
  stops rebuilding synchronously inside its own mutation methods.

Composites advertise their rebuildable parts through
``maintenance_targets()`` (e.g. :class:`repro.core.sharded.ShardedIndex`
exposes one target per dynamic shard).  The :class:`MaintenanceEngine`
checks targets round-robin and rebuilds **at most one at a time**, so a
sharded deployment never has two shards paying build cost concurrently —
rebuilds are staggered and queries only ever wait for the two short
lock-holding phases (snapshot and swap), never the build itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["RebuildTicket", "MaintenanceEngine", "maintenance_targets"]

# How often the idle background thread re-checks rebuild thresholds.  Every
# check takes the serving lock, so it must stay far above a busy spin.
POLL_INTERVAL_S = 0.05


@dataclass
class RebuildTicket:
    """Snapshot taken under the serving lock when a rebuild begins.

    Attributes:
        live_ids: ascending external ids live at snapshot time.
        vectors: their vectors, ``(len(live_ids), d)``, an independent copy
            so the build can run while the live index keeps mutating.  The
            snapshot becomes the next generation's data as it is, so a
            rebuild never holds the generation's vectors twice.
        next_id: the id counter at snapshot time — every id ``>= next_id``
            seen at commit was inserted *during* the build and replays into
            the new generation's delta buffer.
    """

    live_ids: np.ndarray
    vectors: np.ndarray
    next_id: int


def maintenance_targets(index) -> list[tuple[str, object]]:
    """The rebuildable components of ``index`` as ``(label, target)`` pairs.

    Composites define ``maintenance_targets()`` themselves; a plain index
    implementing the maintenance protocol is its own single target; anything
    else (immutable methods) has none.
    """
    own = getattr(index, "maintenance_targets", None)
    if own is not None:
        return list(own())
    if hasattr(index, "begin_rebuild"):
        return [("index", index)]
    return []


class MaintenanceEngine:
    """Run generational rebuilds on a background thread, off the query lock.

    The engine owns the *scheduling* of maintenance; the index owns the
    *mechanics* (snapshot / build / swap+replay).  Attaching the engine sets
    ``defer_maintenance = True`` on every target, so mutations become pure
    O(1) buffer appends and the synchronous stop-the-world rebuild path
    never runs while the engine is responsible; :meth:`close` restores the
    standalone behaviour.

    Lock discipline per rebuild: ``lock`` is held for the snapshot, released
    for the whole build, and re-acquired for the swap — the serving runtime
    passes its request lock here, which is exactly what keeps query p99
    bounded during a rebuild (``benchmarks/bench_maintenance.py`` measures
    the bound).

    Args:
        index: the served index (or composite) to maintain.
        lock: the lock serialising index access (the serving runtime's
            request lock); a private one is created when maintaining an
            index nothing else touches concurrently.
        on_swap: called after every committed generation swap — the serving
            runtime hooks cache invalidation here, because a new generation
            may rank differently than the one cached answers came from.
    """

    def __init__(
        self,
        index,
        lock: threading.Lock | None = None,
        *,
        on_swap=None,
    ) -> None:
        targets = maintenance_targets(index)
        if not targets:
            raise ValueError(
                f"{type(index).__name__} has no maintainable components; "
                "maintenance needs a 'dynamic(...)' index or a composite "
                "with dynamic shards"
            )
        self._targets = targets
        self._lock = lock if lock is not None else threading.Lock()
        self._on_swap = on_swap
        self._cursor = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        self._in_flight: str | None = None
        self.rebuilds = 0
        self.reclaimed_bytes = 0
        self.replayed_inserts = 0
        self.replayed_deletes = 0
        self.errors = 0
        self.last_error: str | None = None
        self.last_rebuild_seconds: float | None = None
        self.last_reason: str | None = None
        for _, target in targets:
            target.defer_maintenance = True

    # ------------------------------------------------------------------ drive

    def run_once(self) -> dict | None:
        """Check targets round-robin; rebuild the first one due, if any.

        At most one rebuild per call (the stagger guarantee).  Returns the
        commit report (``target``, ``reason``, ``seconds``, replay counts,
        reclaimed bytes) or ``None`` when nothing was due.  A failed build
        aborts cleanly — the current generation keeps serving — counts
        toward :attr:`errors`, and re-raises for the caller.
        """
        n = len(self._targets)
        for step in range(n):
            pos = (self._cursor + step) % n
            label, target = self._targets[pos]
            with self._lock:
                reason = target.maintenance_due()
                if reason is None:
                    continue
                try:
                    ticket = target.begin_rebuild()
                except BaseException as exc:
                    # Advance past the failing target so it cannot starve
                    # the other due targets across retries.
                    self._cursor = (pos + 1) % n
                    with self._state_lock:
                        self.errors += 1
                        self.last_error = f"{label}: {exc!r}"
                    raise
                self._in_flight = label
            self._cursor = (pos + 1) % n
            start = time.perf_counter()
            try:
                generation = target.build_generation(ticket)
                with self._lock:
                    report = target.commit_rebuild(ticket, generation)
                    # Inside the lock: a search that computed against the
                    # old generation and races its cache put against this
                    # swap must see the bumped generation (and be refused),
                    # or a pre-swap ranking could be cached as fresh.
                    if self._on_swap is not None:
                        self._on_swap()
            except BaseException as exc:
                target.abort_rebuild(ticket)
                with self._state_lock:
                    self._in_flight = None
                    self.errors += 1
                    self.last_error = f"{label}: {exc!r}"
                raise
            elapsed = time.perf_counter() - start
            with self._state_lock:
                self._in_flight = None
                self.rebuilds += 1
                self.reclaimed_bytes += int(report.get("reclaimed_bytes", 0))
                self.replayed_inserts += int(report.get("replayed_inserts", 0))
                self.replayed_deletes += int(report.get("replayed_deletes", 0))
                self.last_rebuild_seconds = elapsed
                self.last_reason = f"{label}:{reason}"
            return {
                "target": label,
                "reason": reason,
                "seconds": elapsed,
                **report,
            }
        return None

    def _run(self) -> None:
        backoff = 0.0
        while not self._stop.is_set():
            try:
                ran = self.run_once()
                backoff = 0.0
            except Exception:
                # Counted (message kept in last_error) by run_once.
                # Exponential backoff: a build that keeps failing would
                # otherwise re-snapshot under the serving lock every poll
                # tick, forever.
                ran = None
                backoff = min(max(2.0 * backoff, 10.0 * POLL_INTERVAL_S), 5.0)
            if ran is None:
                self._stop.wait(max(POLL_INTERVAL_S, backoff))

    def start(self) -> "MaintenanceEngine":
        """Start the background thread (idempotent; restartable after
        :meth:`close`, which re-takes ownership of maintenance scheduling
        from the targets)."""
        if self._thread is None:
            for _, target in self._targets:
                target.defer_maintenance = True
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-maintenance", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the thread and hand synchronous maintenance back to the
        targets.  Idempotent; an in-flight rebuild finishes first."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        for _, target in self._targets:
            target.defer_maintenance = False

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Block until no target is due and no rebuild is in flight.

        With the background thread running this waits for it; without, it
        drives :meth:`run_once` inline.  Returns ``False`` on timeout.
        """
        deadline = time.monotonic() + float(timeout)
        while time.monotonic() < deadline:
            if self._thread is None:
                if self.run_once() is None:
                    return True
                continue
            with self._lock:
                busy = self._in_flight is not None or any(
                    target.maintenance_due() is not None
                    for _, target in self._targets
                )
            if not busy:
                return True
            time.sleep(0.005)
        return False

    # -------------------------------------------------------------- reporting

    @property
    def in_flight(self) -> str | None:
        """Label of the target currently rebuilding, or ``None``."""
        return self._in_flight

    def stats(self) -> dict:
        """JSON-ready counters for ``/stats``."""
        with self._state_lock:
            return {
                "enabled": True,
                "targets": len(self._targets),
                "running": self._thread is not None,
                "in_flight": self._in_flight,
                "rebuilds": self.rebuilds,
                "reclaimed_bytes": self.reclaimed_bytes,
                "replayed_inserts": self.replayed_inserts,
                "replayed_deletes": self.replayed_deletes,
                "errors": self.errors,
                "last_error": self.last_error,
                "last_rebuild_seconds": self.last_rebuild_seconds,
                "last_reason": self.last_reason,
            }

    def __enter__(self) -> "MaintenanceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MaintenanceEngine(targets={len(self._targets)}, "
            f"rebuilds={self.rebuilds}, in_flight={self._in_flight!r})"
        )
