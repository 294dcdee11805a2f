"""Span tracing from outside the library: wrap public functions, keep spans.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces the
layer boundaries listed in :data:`BOUNDARIES` with wrappers that record one
span per call — ``(id, name, start, end, parent, thread, request, attrs)`` —
into an in-memory list, written out once at the end (:meth:`Tracer.dump`).

* ``parent`` is the innermost open span on the same thread.  The sharded
  fan-out runs shards on pool threads, so the sharded wrapper registers
  itself as the parent of its shards' top-level spans (``_fanout``).
* ``request`` is the id of the ``ServingRuntime`` span that opened the
  request on a handler thread; spans of one request share it.
* ``attrs`` holds counts read at the boundary (batch sizes, the
  ``SearchStats`` of a search, candidates returned by a range search).

A layer's self time is its span minus the union of its child spans
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    """In-memory span recorder; ``first_id`` keeps ids of separate processes
    apart so their span lists can be merged."""

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._fanout: dict[int, tuple[int, int | None]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrapping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None,
             starts_request: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(sid, request, *args, **kwargs)`` and
        ``after(result, attrs, *args, **kwargs)`` return the span's attrs.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, request = stack[-1]
            else:
                link = tracer._fanout.get(id(args[0])) if args else None
                parent, request = link if link is not None else (None, None)
            sid = next(tracer._ids)
            if request is None and starts_request:
                request = sid
            attrs = before(sid, request, *args, **kwargs) if before else None
            stack.append((sid, request))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), request, {"error": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            if after is not None:
                attrs = after(result, attrs, *args, **kwargs)
            tracer.spans.append((sid, name, start, end, parent,
                                 threading.get_ident(), request, attrs))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # ------------------------------------------------------------------ hooks

    def _sharded_before(self, sid, request, index, queries, *args, **kwargs):
        for shard in index.shards:
            self._fanout[id(shard)] = (sid, request)
        return {"q": _n_queries(queries)}

    def _sharded_after(self, result, attrs, index, *args, **kwargs):
        for shard in index.shards:
            self._fanout.pop(id(shard), None)
        seconds = index.last_shard_seconds or []
        mean = sum(seconds) / len(seconds) if seconds else 0.0
        attrs["imbalance"] = max(seconds) / mean if mean > 0 else 1.0
        return attrs


def _n_queries(queries) -> int:
    shape = getattr(queries, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    return len(queries)


def _search_stats_attrs(stats_list) -> dict:
    """Per-call sums of the ProMIPS ``SearchStats`` (the paper's counters)."""
    out = {"q": 0, "pages": 0, "verified": 0, "range_calls": 0,
           "passed": 0, "groups": 0, "stop_b": 0}
    for stats in stats_list:
        extras = stats.extras
        out["q"] += 1
        out["pages"] += int(stats.pages)
        out["verified"] += int(stats.candidates)
        out["range_calls"] += 1 + int(extras.get("expansions", 0))
        out["passed"] += int(bool(extras.get("probe_passed", False)))
        out["groups"] += int(extras.get("groups_examined", 0))
        out["stop_b"] += int(extras.get("stopped_by") == "condition_b")
    return out


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary of the library; :meth:`Tracer.uninstall`
    restores the originals."""
    import repro.core.promips as promips_mod
    import repro.serve.server as server_mod
    from repro.core.binary_codes import BinaryCodeGroups
    from repro.core.dynamic import DynamicProMIPS
    from repro.core.engine import CandidateVerifier
    from repro.core.maintenance import MaintenanceEngine
    from repro.core.promips import ProMIPS
    from repro.core.quickprobe import QuickProbe
    from repro.core.sharded import ShardedIndex
    from repro.index.ring_idistance import RingIDistance
    from repro.serve.cache import ResultCache
    from repro.serve.microbatch import MicroBatcher
    from repro.storage.pagefile import VectorReader

    w = tracer.wrap
    # serve.server
    w(server_mod.ServingRuntime, "search", "runtime.search", starts_request=True)
    w(server_mod.ServingRuntime, "insert", "runtime.insert", starts_request=True)
    w(server_mod.ServingRuntime, "delete", "runtime.delete", starts_request=True)
    # serve.cache / serve.microbatch
    w(ResultCache, "get", "cache.get")
    w(ResultCache, "put", "cache.put")
    w(MicroBatcher, "search", "microbatch.search")
    # core.sharded
    w(ShardedIndex, "search_many", "sharded.search_many",
      before=tracer._sharded_before, after=tracer._sharded_after)
    # core.dynamic
    def dyn_before(sid, request, index, queries, *args, **kwargs):
        return {"q": _n_queries(queries), "delta": index.delta_size,
                "tomb": index.tombstone_count}
    w(DynamicProMIPS, "search_many", "dynamic.search_many", before=dyn_before)
    w(DynamicProMIPS, "search", "dynamic.search", before=dyn_before)
    w(DynamicProMIPS, "insert", "dynamic.insert")
    w(DynamicProMIPS, "delete", "dynamic.delete")
    w(DynamicProMIPS, "begin_rebuild", "dynamic.begin_rebuild")
    w(DynamicProMIPS, "build_generation", "dynamic.build_generation")
    w(DynamicProMIPS, "commit_rebuild", "dynamic.commit_rebuild")
    # core.maintenance
    w(MaintenanceEngine, "run_once", "maintenance.run_once")
    # core.promips (+ the projection GEMM it calls through its own namespace)
    w(ProMIPS, "search_many", "promips.search_many",
      after=lambda result, attrs, *a, **k: _search_stats_attrs(result.stats))
    w(ProMIPS, "search", "promips.search",
      after=lambda result, attrs, *a, **k: _search_stats_attrs([result.stats]))
    w(ProMIPS, "build", "promips.build")
    w(promips_mod, "project_batch", "projection.project_batch")
    # core.quickprobe / index.ring_idistance / storage.pagefile / core.engine
    w(QuickProbe, "probe_many", "quickprobe.probe_many")
    w(RingIDistance, "range_search", "ring.range_search",
      after=lambda result, attrs, *a, **k: {"cands": int(result[0].size)})
    w(RingIDistance, "__init__", "ring.build")
    w(BinaryCodeGroups, "__init__", "groups.build")
    w(VectorReader, "get_many", "storage.get_many")
    w(CandidateVerifier, "verify", "engine.verify")
    # core.persist, as the server module binds it
    w(server_mod, "load_index", "persist.load_index")
    return tracer


# ---------------------------------------------------------------- analysis


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, _name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
