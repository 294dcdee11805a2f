"""Per-layer metrics of a traced run, from spans plus ``/stats`` counters.

Time metrics are per query (a ProMIPS query: one shard's share of a sharded
query counts as one) unless their name says per call; a layer the workload
bypasses reports 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from tracing import self_times
from util import K, median

# Top-level index calls a coalesced batch can dispatch to.
_BATCH_ROOTS = ("sharded.search_many", "dynamic.search_many", "promips.search_many")


def _per_query(total_seconds: float, queries: int) -> float:
    return 1e3 * total_seconds / queries if queries else 0.0


# Spans counted over the whole run; every other span only when it starts
# inside the measured window (the warm-up's cold misses stay out).
_WHOLE_RUN = ("promips.build", "ring.build", "groups.build", "persist.load_index",
              "dynamic.begin_rebuild", "dynamic.build_generation", "dynamic.commit_rebuild")


def layer_metrics(spans, *, window=None, client=None, stats_before=None,
                  stats_after=None, envelope_bytes: int = 0, overhead: float = 0.0,
                  failed_share: float = 0.0) -> dict[str, float]:
    """``window`` is ``(start, end)`` on the shared monotonic clock of
    ``time.perf_counter``; ``client`` holds the client-side figures."""
    client = client or {}
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        if window is None or span[1] in _WHOLE_RUN or window[0] <= span[2] <= window[1]:
            by_name[span[1]].append(span)

    def dur(span) -> float:
        return span[3] - span[2]

    def total(name, own=False) -> float:
        return sum(selfs[s[0]] if own else dur(s) for s in by_name[name])

    def attr_sum(names, key) -> int:
        return sum((s[7] or {}).get(key, 0) for n in names for s in by_name[n])

    out: dict[str, float] = {}

    # ---- core.promips and the layers below it
    promips = ("promips.search_many", "promips.search")
    q = attr_sum(promips, "q")
    verified = attr_sum(promips, "verified")
    out["promips.self_ms"] = _per_query(total(promips[0], True) + total(promips[1], True), q)
    out["projection.ms"] = _per_query(total("projection.project_batch"), q)
    out["quickprobe.ms"] = _per_query(total("quickprobe.probe_many"), q)
    out["quickprobe.pass_share"] = attr_sum(promips, "passed") / q if q else 0.0
    out["quickprobe.groups_examined"] = attr_sum(promips, "groups") / q if q else 0.0
    out["ring.range_search_ms"] = _per_query(total("ring.range_search", True), q)
    out["ring.range_calls"] = attr_sum(promips, "range_calls") / q if q else 0.0
    out["ring.candidates"] = attr_sum(("ring.range_search",), "cands") / q if q else 0.0
    out["storage.get_many_ms"] = _per_query(total("storage.get_many", True), q)
    out["storage.pages"] = attr_sum(promips, "pages") / q if q else 0.0
    out["engine.verify_ms"] = _per_query(total("engine.verify", True), q)
    out["engine.verified"] = verified / q if q else 0.0
    out["engine.verify_yield"] = K * q / verified if verified else 0.0
    out["engine.stop_b_share"] = attr_sum(promips, "stop_b") / q if q else 0.0
    # Share of the traced ProMIPS wall time the layer self times account for.
    roots = [s for n in promips for s in by_name[n]]
    root_wall = sum(dur(s) for s in roots)
    layer_self = sum(
        total(n, True) for n in (*promips, "projection.project_batch",
                                 "quickprobe.probe_many", "ring.range_search",
                                 "storage.get_many", "engine.verify")
    )
    out["trace.self_coverage"] = layer_self / root_wall if root_wall else 0.0

    # ---- core.sharded
    sq = attr_sum(("sharded.search_many",), "q")
    out["sharded.search_many_ms"] = _per_query(total("sharded.search_many"), sq)
    out["sharded.merge_ms"] = _per_query(total("sharded.search_many", True), sq)
    imb = [s[7]["imbalance"] for s in by_name["sharded.search_many"] if s[7]]
    out["sharded.imbalance"] = sum(imb) / len(imb) if imb else 0.0

    # ---- core.dynamic
    dyn = ("dynamic.search_many", "dynamic.search")
    dq = attr_sum(dyn, "q")
    calls = [s for n in dyn for s in by_name[n] if s[7]]
    out["dynamic.search_ms"] = _per_query(total(dyn[0]) + total(dyn[1]), dq)
    out["dynamic.delta_size"] = sum(s[7]["delta"] for s in calls) / len(calls) if calls else 0.0
    out["dynamic.tombstones"] = sum(s[7]["tomb"] for s in calls) / len(calls) if calls else 0.0
    for kind in ("insert", "delete"):
        spans_k = by_name[f"dynamic.{kind}"]
        out[f"dynamic.{kind}_us"] = 1e6 * median([dur(s) for s in spans_k]) if spans_k else 0.0

    # ---- core.maintenance
    builds = by_name["dynamic.build_generation"]
    out["maintenance.build_s"] = median([dur(s) for s in builds]) if builds else 0.0
    begins = sorted(by_name["dynamic.begin_rebuild"], key=lambda s: s[2])
    commits = sorted(by_name["dynamic.commit_rebuild"], key=lambda s: s[2])
    holds = [dur(b) + dur(c) for b, c in zip(begins, commits)]
    out["maintenance.lock_hold_ms"] = 1e3 * median(holds) if holds else 0.0
    maint = (stats_after or {}).get("maintenance", {})
    out["maintenance.rebuilds"] = float(maint.get("rebuilds", 0))
    out["maintenance.replayed_ops"] = float(
        maint.get("replayed_inserts", 0) + maint.get("replayed_deletes", 0)
    )
    out["maintenance.reclaimed_bytes"] = float(maint.get("reclaimed_bytes", 0))

    # ---- core.persist and the bulk-load pieces (only spans inside a build)
    loads = by_name["persist.load_index"]
    out["persist.load_s"] = median([dur(s) for s in loads]) if loads else 0.0
    out["persist.envelope_bytes"] = float(envelope_bytes)
    build_ids = {s[0] for s in by_name["promips.build"]}
    out["build.total_s"] = median([dur(s) for s in by_name["promips.build"]]) if build_ids else 0.0
    for name, key in (("ring.build", "build.ring_s"), ("groups.build", "build.groups_s")):
        inside = [dur(s) for s in by_name[name] if s[4] in build_ids]
        out[key] = median(inside) if inside else 0.0

    # ---- serve.server, serve.microbatch, serve.cache
    rt_search = [dur(s) for s in by_name["runtime.search"]]
    rt_write = [dur(s) for n in ("runtime.insert", "runtime.delete") for s in by_name[n]]
    out["runtime.search_ms"] = 1e3 * median(rt_search) if rt_search else 0.0
    out["runtime.write_ms"] = 1e3 * median(rt_write) if rt_write else 0.0
    inner_write = defaultdict(float)
    for n in ("dynamic.insert", "dynamic.delete"):
        for s in by_name[n]:
            if s[4] is not None:
                inner_write[s[4]] += dur(s)
    waits = [dur(s) - inner_write[s[0]]
             for n in ("runtime.insert", "runtime.delete") for s in by_name[n]]
    out["runtime.write_lock_wait_ms"] = 1e3 * median(waits) if waits else 0.0
    out["http.overhead_ms"] = (
        client["raw_search_p50_ms"] - out["runtime.search_ms"]
        if rt_search and client.get("raw_search_p50_ms") else 0.0
    )
    out["http.write_overhead_ms"] = (
        client["raw_write_p50_ms"] - out["runtime.write_ms"]
        if rt_write and client.get("raw_write_p50_ms") else 0.0
    )
    out["microbatch.wait_ms"] = _coalescer_wait_ms(by_name)
    before = (stats_before or {}).get("cache", {})
    after = (stats_after or {}).get("cache", {})
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in ("hits", "misses", "evictions", "invalidations", "stale_puts")}
    lookups = delta["hits"] + delta["misses"]
    out["cache.hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    for key in ("evictions", "invalidations", "stale_puts"):
        out[f"cache.{key}"] = float(delta[key])
    out["microbatch.occupancy_mean"] = float(
        (stats_after or {}).get("batch", {}).get("mean_occupancy", 0.0)
    )

    # ---- generator and client-side figures
    out["generator.lag_ms"] = float(client.get("lag_ms", 0.0))
    out["client.write_p50_ms"] = float(client.get("write_p50_ms", 0.0))
    out["client.write_tail_ms"] = float(client.get("write_tail_ms", 0.0))
    out["trace.overhead"] = float(overhead)
    out["failed_share"] = float(failed_share)
    return out


def _coalescer_wait_ms(by_name) -> float:
    """Median ``MicroBatcher.search`` span minus its batch's index call.

    A request's batch runs on the dispatcher thread, starts after the
    request was submitted and ends before its future resolves: the
    latest-ending top-level batch call inside the request's span.
    """
    batches = sorted(
        (s for n in _BATCH_ROOTS for s in by_name[n] if s[4] is None),
        key=lambda s: s[3],
    )
    ends = [s[3] for s in batches]
    waits = []
    for span in by_name["microbatch.search"]:
        i = bisect.bisect_right(ends, span[3]) - 1
        # Batches run one after another, so if the latest one to end inside
        # the span started before it, no batch lies wholly inside.
        if i >= 0 and batches[i][2] >= span[2]:
            batch = batches[i]
            waits.append((span[3] - span[2]) - (batch[3] - batch[2]))
    return 1e3 * median(waits) if waits else 0.0
