"""HTTP serving runtime: cache → coalescer → index behind a JSON API.

Two layers:

* :class:`ServingRuntime` — the in-process serving stack.  Every single
  query flows **cache → micro-batcher → index**: a repeated ``(query, k)``
  is answered from the generation-aware LRU cache
  (:class:`repro.serve.cache.ResultCache`), a cold one coalesces with its
  concurrent neighbours into one batched GEMM
  (:class:`repro.serve.microbatch.MicroBatcher`), and mutations
  (``insert``/``delete`` on a dynamic or sharded-dynamic index) bump the
  cache generation so a stale entry is never served.  The runtime is usable
  without HTTP — the serving-latency bench drives it directly.
* The stdlib ``ThreadingHTTPServer`` front-end — one handler thread per
  connection, JSON in/out, no third-party dependencies:

  ==================  =====================================================
  ``POST /search``        one query: ``{"query": [...], "k": 10}``
  ``POST /search_batch``  many queries: ``{"queries": [[...], ...], "k"}``
  ``POST /insert``        ``{"vector": [...]}`` → new global id
  ``POST /delete``        ``{"id": 7}``
  ``GET /stats``          telemetry + cache counters
  ``GET /healthz``        liveness + index identity
  ==================  =====================================================

The runtime boots from either face of the PR-2 factory/persistence API:
an inline :class:`repro.spec.IndexSpec` string builds fresh over a dataset,
a persisted ``.npz`` envelope reloads bit-identically via
:func:`repro.core.persist.load_index` — one server, every registered method.

Index access is serialised by one runtime lock (held by the coalescer's
dispatch and by mutations), so Python-level index state never tears; the
concurrency win comes from coalescing — the batched GEMM itself already
spreads over cores inside BLAS.

Maintenance never runs on the request path: for a dynamic (or
sharded-dynamic) index the runtime attaches a
:class:`repro.core.maintenance.MaintenanceEngine` that rebuilds generations
on a background thread — snapshot and swap each hold the runtime lock
briefly, the bulk load itself runs off-lock, and mutations that land during
a build are replayed into the new generation at swap time.  Every swap bumps
the result-cache generation (a new generation may rank differently), and
``GET /stats`` reports the engine's counters (rebuilds, reclaimed bytes,
in-flight target).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.api import validate_k, validate_queries, validate_query
from repro.core.maintenance import MaintenanceEngine, maintenance_targets
from repro.core.persist import load_index
from repro.serve.cache import ResultCache
from repro.serve.microbatch import MicroBatcher
from repro.serve.telemetry import DEFAULT_WINDOW, Telemetry
from repro.spec import build_index

__all__ = ["ServingRuntime", "build_runtime", "make_server"]


class ServingRuntime:
    """The serving stack around one built index.

    Args:
        index: any built :class:`repro.api.MIPSIndex`.
        max_batch: coalescer batch ceiling (see :class:`MicroBatcher`).
        max_wait_ms: coalescer tick length.
        cache_size: LRU entries; ``0`` disables result caching.
        coalesce: route single queries through the micro-batcher; ``False``
            dispatches each request's own ``search`` call (the bench's
            baseline mode).
        telemetry_window: latency samples retained for percentiles.
        maintenance: attach a background :class:`MaintenanceEngine` when the
            index has rebuildable components; ``False`` keeps the index's
            own synchronous (stop-the-world) compaction inside the mutation
            endpoints.
        maintenance_poll_ms: idle re-check interval of the engine thread.
    """

    def __init__(
        self,
        index,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        coalesce: bool = True,
        telemetry_window: int = DEFAULT_WINDOW,
        maintenance: bool = True,
        maintenance_poll_ms: float = 50.0,
    ) -> None:
        self.index = index
        self.telemetry = Telemetry(window=telemetry_window)
        self.cache = ResultCache(cache_size)
        self._index_lock = threading.Lock()
        self.maintenance = (
            MaintenanceEngine(
                index,
                self._index_lock,
                poll_interval_ms=maintenance_poll_ms,
                on_swap=self.cache.bump_generation,
            )
            if maintenance and maintenance_targets(index)
            else None
        )
        try:
            self.batcher = (
                MicroBatcher(
                    index,
                    max_batch=max_batch,
                    max_wait_ms=max_wait_ms,
                    index_lock=self._index_lock,
                    telemetry=self.telemetry,
                )
                if coalesce
                else None
            )
        except BaseException:
            # A half-built runtime has no owner to close() it: release the
            # engine's claim on the index before the constructor raises.
            if self.maintenance is not None:
                self.maintenance.close()
            raise
        # Threads start only once the whole stack is wired, so a
        # constructor failure can never leak a live background rebuilder.
        if self.maintenance is not None:
            self.maintenance.start()

    # ---------------------------------------------------------------- search

    def search(self, query, k: int = 1, **kwargs) -> dict:
        """Answer one query through cache → coalescer → index.

        Returns a JSON-ready ``{"ids", "scores", "k", "cached"}`` dict.
        Cached answers are bit-identical to what the index would return:
        the key is the query's exact float64 bytes plus ``k`` and kwargs,
        and every mutation bumps the generation the entry is checked
        against.
        """
        start = time.monotonic()
        k = validate_k(k)
        query = validate_query(np.asarray(query, dtype=np.float64), self.index.dim)
        key = ResultCache.make_key(query, k, kwargs)
        hit = self.cache.get(key)
        if hit is not None:
            ids, scores = hit
            self.telemetry.record_request("search", time.monotonic() - start)
            return self._payload(ids, scores, k, cached=True)
        # Capture the generation *before* computing: if a mutation lands in
        # the window between the search and the put, the put is dropped
        # rather than stamping a pre-mutation answer as fresh.
        generation = self.cache.generation
        if self.batcher is not None:
            result = self.batcher.search(query, k=k, **kwargs)
        else:
            with self._index_lock:
                result = self.index.search(query, k=k, **kwargs)
        self.cache.put(key, result.ids, result.scores, generation=generation)
        self.telemetry.record_request("search", time.monotonic() - start)
        return self._payload(result.ids, result.scores, k, cached=False)

    def search_batch(self, queries, k: int = 1, **kwargs) -> dict:
        """Answer a client-assembled batch in one ``search_many`` call.

        Pre-batched requests bypass cache and coalescer — the client already
        did the batching, and a half-cached batch would still pay the full
        GEMM for its misses.
        """
        start = time.monotonic()
        k = validate_k(k)
        queries = validate_queries(
            np.asarray(queries, dtype=np.float64), self.index.dim
        )
        with self._index_lock:
            batch = self.index.search_many(queries, k=k, **kwargs)
        self.telemetry.record_request("search_batch", time.monotonic() - start)
        rows = [self._payload(r.ids, r.scores, k, cached=False) for r in batch]
        return {
            "n_queries": len(batch),
            "k": k,
            "ids": [row["ids"] for row in rows],
            "scores": [row["scores"] for row in rows],
        }

    @staticmethod
    def _payload(ids, scores, k, cached: bool) -> dict:
        return {
            "ids": np.asarray(ids).tolist(),
            "scores": np.asarray(scores).tolist(),
            "k": int(k),
            "cached": cached,
        }

    # ------------------------------------------------------------- mutations

    def _require_mutable(self, verb: str) -> None:
        if not (hasattr(self.index, "insert") and hasattr(self.index, "delete")):
            name = getattr(type(self.index), "method_name", type(self.index).__name__)
            raise ValueError(
                f"index method {name!r} does not support {verb}; serve a "
                "'dynamic(...)' or \"sharded(inner='dynamic(...)')\" spec"
            )

    def insert(self, vector) -> dict:
        """Insert one point; bumps the cache generation (O(1) invalidation)."""
        start = time.monotonic()
        self._require_mutable("insert")
        vector = validate_query(np.asarray(vector, dtype=np.float64), self.index.dim)
        with self._index_lock:
            new_id = int(self.index.insert(vector))
        generation = self.cache.bump_generation()
        self.telemetry.record_request("insert", time.monotonic() - start)
        return {"id": new_id, "generation": generation}

    def delete(self, point_id) -> dict:
        """Delete one point by id; bumps the cache generation."""
        start = time.monotonic()
        self._require_mutable("delete")
        if isinstance(point_id, bool) or not isinstance(point_id, int):
            raise ValueError(f"id must be an integer, got {point_id!r}")
        with self._index_lock:
            self.index.delete(point_id)
        generation = self.cache.bump_generation()
        self.telemetry.record_request("delete", time.monotonic() - start)
        return {"deleted": int(point_id), "generation": generation}

    # ------------------------------------------------------------ inspection

    def health(self) -> dict:
        info: dict = {"status": "ok", "dim": int(self.index.dim)}
        method = getattr(type(self.index), "method_name", None)
        if method is not None:
            info["method"] = method
            info["spec"] = str(self.index.spec())
        live = getattr(self.index, "n_live", None)
        info["n_live"] = int(live if live is not None else getattr(self.index, "n", 0))
        info["coalescing"] = self.batcher is not None
        info["maintenance"] = self.maintenance is not None
        return info

    def stats(self) -> dict:
        maintenance = (
            self.maintenance.stats()
            if self.maintenance is not None
            else {"enabled": False}
        )
        return {
            "index": self.health(),
            **self.telemetry.snapshot(
                cache_stats=self.cache.stats(), maintenance_stats=maintenance
            ),
        }

    def close(self) -> None:
        # Stop maintenance first so no swap races the draining coalescer.
        if self.maintenance is not None:
            self.maintenance.close()
        if self.batcher is not None:
            self.batcher.close()

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_runtime(
    spec: str | None = None,
    data: np.ndarray | None = None,
    index_path: str | Path | None = None,
    rng=None,
    **runtime_kwargs,
) -> ServingRuntime:
    """Boot a runtime from exactly one of the two index sources.

    Args:
        spec: inline :class:`repro.spec.IndexSpec` string (requires
            ``data`` to build over).
        data: ``(n, d)`` dataset for the ``spec`` path.
        index_path: persisted ``.npz`` envelope written by
            :func:`repro.core.persist.save_index` — reloads any registered
            method bit-identically, no dataset needed.
        rng: build seed/generator for the ``spec`` path.
        **runtime_kwargs: forwarded to :class:`ServingRuntime`.
    """
    if (spec is None) == (index_path is None):
        raise ValueError("pass exactly one of spec= or index_path=")
    if spec is not None:
        if data is None:
            raise ValueError("building from a spec requires data=")
        index = build_index(spec, data, rng=rng)
    else:
        index = load_index(index_path)
    return ServingRuntime(index, **runtime_kwargs)


# ------------------------------------------------------------------ HTTP layer


class _Handler(BaseHTTPRequestHandler):
    """JSON shim between HTTP and the :class:`ServingRuntime`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    @property
    def runtime(self) -> ServingRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging would swamp the bench; /stats carries counters

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, endpoint: str) -> None:
        self.runtime.telemetry.record_error(endpoint)
        self._reply(code, {"error": message})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._reply(200, self.runtime.health())
        elif self.path == "/stats":
            self._reply(200, self.runtime.stats())
        else:
            self._error(404, f"unknown path {self.path!r}", self.path)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        handler = {
            "/search": self._post_search,
            "/search_batch": self._post_search_batch,
            "/insert": self._post_insert,
            "/delete": self._post_delete,
        }.get(self.path)
        if handler is None:
            self._error(404, f"unknown path {self.path!r}", self.path)
            return
        endpoint = self.path.lstrip("/")
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # The body's framing is unknown (rfile.read(-1) would block until
            # the client hangs up), so answer and drop the connection.
            self.close_connection = True
            self._error(400, "Content-Length must be a non-negative integer", endpoint)
            return
        try:
            body = json.loads(self.rfile.read(int(length)) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            self._reply(200, handler(body))
        except json.JSONDecodeError:
            self._error(400, "request body is not valid JSON", endpoint)
        except KeyError as exc:
            # Unknown/already-deleted ids surface as KeyError from the index.
            self._error(404, str(exc.args[0] if exc.args else exc), endpoint)
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc), endpoint)

    @staticmethod
    def _field(body: dict, name: str):
        if name not in body:
            raise ValueError(f"missing required field {name!r}")
        return body[name]

    @staticmethod
    def _params(body: dict) -> dict:
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be a JSON object")
        return params

    def _post_search(self, body: dict) -> dict:
        return self.runtime.search(
            self._field(body, "query"), k=body.get("k", 1), **self._params(body)
        )

    def _post_search_batch(self, body: dict) -> dict:
        return self.runtime.search_batch(
            self._field(body, "queries"), k=body.get("k", 1), **self._params(body)
        )

    def _post_insert(self, body: dict) -> dict:
        return self.runtime.insert(self._field(body, "vector"))

    def _post_delete(self, body: dict) -> dict:
        return self.runtime.delete(self._field(body, "id"))


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # handler threads never block interpreter exit

    def __init__(self, address, runtime: ServingRuntime):
        super().__init__(address, _Handler)
        self.runtime = runtime


def make_server(
    runtime: ServingRuntime, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the JSON API to ``host:port`` (``port=0`` picks a free one).

    The caller owns the serve loop: ``server.serve_forever()`` blocks (run
    it in a thread for tests), ``server.shutdown()`` stops it, and
    ``runtime.close()`` then drains the coalescer.  The bound port is
    ``server.server_address[1]``.
    """
    return _Server((host, port), runtime)
