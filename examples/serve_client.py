"""Serving walkthrough: drive the HTTP JSON API end to end.

By default this example is fully self-contained: it builds a small dynamic
ProMIPS index, boots the serving runtime (coalescer + cache + telemetry)
on a free local port, and then talks to it exactly the way any HTTP client
would — ``/healthz``, a cold and a warm ``/search``, a ``/search_batch``,
an ``/insert`` that invalidates the cache, a ``/delete``, and ``/stats``.

Point it at an already-running ``repro serve`` process instead with::

    python -m repro serve --spec "dynamic(c=0.9)" --dataset netflix --n 5000 &
    python examples/serve_client.py --url http://127.0.0.1:8080

Every step asserts the status code and the response shape, so the script
doubles as the CI smoke client — it exits non-zero if the server misbehaves.

Run:  python examples/serve_client.py
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.error
import urllib.request

import numpy as np


def call(base: str, path: str, payload: dict | None = None):
    """One JSON request; returns ``(status, decoded body)``."""
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"  ok: {message}")


def start_local_server() -> tuple[str, object, object]:
    """Self-host a small dynamic index; returns (base URL, server, runtime)."""
    from repro.data import make_latent_factor
    from repro.serve import ServingRuntime, make_server
    from repro.spec import build_index

    rng = np.random.default_rng(0)
    items, _ = make_latent_factor(5_000, 32, rng, n_queries=1)
    index = build_index("dynamic(c=0.9)", items, rng=1)
    runtime = ServingRuntime(index, max_batch=32, cache_size=256)
    server = make_server(runtime)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}", server, runtime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default=None,
        help="base URL of a running `repro serve` (default: self-host)",
    )
    args = parser.parse_args()

    server = runtime = None
    if args.url is None:
        base, server, runtime = start_local_server()
        print(f"self-hosted a dynamic index at {base}")
    else:
        base = args.url.rstrip("/")
        print(f"targeting {base}")

    # --- liveness ----------------------------------------------------------
    code, health = call(base, "/healthz")
    expect(code == 200 and health["status"] == "ok",
           f"/healthz is live (method={health.get('method')}, "
           f"n_live={health.get('n_live')}, dim={health.get('dim')})")
    dim = int(health["dim"])

    # --- single search: cold, then served from cache -----------------------
    query = np.linspace(-1.0, 1.0, dim).tolist()
    code, cold = call(base, "/search", {"query": query, "k": 5})
    expect(code == 200 and len(cold["ids"]) == len(cold["scores"]) > 0,
           f"cold /search returned top-{len(cold['ids'])} "
           f"(best id={cold['ids'][0]}, score={cold['scores'][0]:.4f})")
    code, warm = call(base, "/search", {"query": query, "k": 5})
    expect(code == 200 and warm["cached"] and warm["ids"] == cold["ids"],
           "warm /search hit the cache with the identical answer")

    # --- client-side batch --------------------------------------------------
    batch_queries = np.random.default_rng(1).standard_normal((4, dim)).tolist()
    code, batch = call(base, "/search_batch", {"queries": batch_queries, "k": 3})
    expect(code == 200 and batch["n_queries"] == 4 and len(batch["ids"]) == 4,
           "/search_batch answered 4 queries in one dispatch")

    # --- mutations invalidate the cache ------------------------------------
    spike = (np.asarray(query) * 25.0).tolist()
    code, inserted = call(base, "/insert", {"vector": spike})
    mutable = code == 200
    if mutable:
        code, after = call(base, "/search", {"query": query, "k": 5})
        expect(code == 200 and not after["cached"]
               and after["ids"][0] == inserted["id"],
               f"/insert id={inserted['id']} bumped generation to "
               f"{inserted['generation']} and took rank 1")
        code, deleted = call(base, "/delete", {"id": inserted["id"]})
        expect(code == 200 and deleted["deleted"] == inserted["id"],
               "/delete removed it again")
        code, final = call(base, "/search", {"query": query, "k": 5})
        expect(code == 200 and final["ids"] == cold["ids"],
               "post-delete /search matches the original answer")

        # --- churn round-trip: every insert is findable, every delete final
        churned = []
        for step in range(10):
            vec = (np.asarray(query) * (30.0 + step)).tolist()
            code, added = call(base, "/insert", {"vector": vec})
            expect(code == 200, f"churn insert #{step} accepted")
            churned.append(added["id"])
        code, topk = call(base, "/search", {"query": query, "k": 10})
        expect(code == 200 and set(churned) <= set(topk["ids"]),
               "all 10 churned inserts dominate the top-10")
        for cid in churned:
            code, _ = call(base, "/delete", {"id": cid})
            expect(code == 200, f"churn delete of id={cid} accepted")
        code, after_churn = call(base, "/search", {"query": query, "k": 10})
        expect(code == 200 and not set(churned) & set(after_churn["ids"]),
               "no deleted id survives the churn round-trip")

        # --- background maintenance is attached to every mutable index
        code, stats = call(base, "/stats")
        maint = stats.get("maintenance", {})
        expect(code == 200 and maint.get("enabled") is True,
               f"/stats reports maintenance "
               f"(enabled={maint.get('enabled')}, "
               f"rebuilds={maint.get('rebuilds')}, "
               f"reclaimed_bytes={maint.get('reclaimed_bytes')}, "
               f"in_flight={maint.get('in_flight')})")
    else:
        expect(code == 400 and "error" in inserted,
               f"immutable index refuses /insert with HTTP 400 "
               f"({inserted.get('error')}); skipping the mutation steps")

    # --- malformed requests get clean 400s ----------------------------------
    code, error = call(base, "/search", {"query": query, "k": 0})
    expect(code == 400 and "k must be a positive integer" in error["error"],
           "invalid k rejected with HTTP 400")

    # --- telemetry -----------------------------------------------------------
    code, stats = call(base, "/stats")
    # Refused mutations are errors, not answered requests: an immutable
    # index has answered only the two searches and the batch.
    expect(code == 200 and stats["requests_total"] >= (4 if mutable else 3)
           and stats["cache"]["hits"] >= 1,
           f"/stats: {stats['requests_total']} requests, "
           f"cache hit rate {stats['cache']['hit_rate']:.2f}, "
           f"search p50 {stats['latency']['p50_ms']:.2f}ms")

    if server is not None:
        server.shutdown()
        server.server_close()
        runtime.close()
        print("self-hosted server shut down cleanly")
    print("serving walkthrough complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
