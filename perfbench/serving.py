"""``serve-zipf`` and ``serve-churn``: a real ``repro serve`` over HTTP.

The server runs as a subprocess (``python -m repro serve --index ... --port
0``, or :mod:`launch_server` for the traced run).  Load comes from one
generator: the main thread plus one helper thread, each owning one
keep-alive connection.  Requests follow a constant-rate open-loop schedule
(the seed picks the requests, not their times); each is timed from the
moment it was due, so a stall is charged to every request queued behind
it.  ``generator.lag_ms`` reports how late the
generator itself woke up against that schedule.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from util import BUILD_SEED, CORPUS_SEED, HERE, K, REFERENCE_PROBE_S, TMP, Phases, \
    at_reference, child_env, exact_topk, machine_probe, median, recall_and_ratio, tail_percentile, \
    valid_topk, vm_hwm_mb

_PORT_LINE = re.compile(r"on http://[^:]+:(\d+)\s*$")
START_TIMEOUT_S = 60.0
# How overdue a request must be before the helper connection takes it.
HANDOFF_S = 0.0005
# Idle time the main thread needs before a due request to take a probe.
PROBE_ROOM_S = 0.003
# Requests drawn for a capacity burst, per second of burst: an upper bound on
# what two connections can complete.
CAPACITY_CEILING_QPS = 400
STOP_TIMEOUT_S = 30.0
REPLAY_TIMEOUT_S = 120.0


# ------------------------------------------------------------------ server


class Server:
    """One ``repro serve`` subprocess; ``setup_s`` is spawn → first 200 on
    ``/healthz`` (envelope load plus runtime boot), at reference speed."""

    _count = 0

    def __init__(self, index_path, spans_path=None) -> None:
        TMP.mkdir(exist_ok=True)
        Server._count += 1
        self.log_path = TMP / f"server-{os.getpid()}-{Server._count}.log"
        self._log = open(self.log_path, "w")
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "repro"]
        else:
            argv = [sys.executable, "-u", str(HERE / "launch_server.py"), str(spans_path)]
        argv += ["serve", "--index", str(index_path), "--port", "0"]
        probe = machine_probe()
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log,
                                     env=child_env(), text=True)
        try:
            self.port = self._read_port(start + START_TIMEOUT_S)
            self._wait_healthy(start + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        elapsed = time.perf_counter() - start
        # The smaller probe: a spawn is mostly imports and file reads, which a
        # momentary spike in one probe would otherwise over-correct.
        self.setup_s = at_reference(elapsed, min(probe, machine_probe()))

    def _read_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _PORT_LINE.search(line.strip())
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def _get(self, path: str):
        conn = Conn(self.port)
        try:
            return conn.request("GET", path)
        finally:
            conn.close()

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self._get("/healthz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def stats(self) -> dict:
        status, body = self._get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode == 0:
            self.log_path.unlink()


class Conn:
    """One keep-alive HTTP/1.1 connection; a transport error drops it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                quickack: bool = False):
        """One request; ``quickack`` makes this client acknowledge the reply's
        segments at once instead of letting the kernel delay the ACK."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            if quickack:
                # Linux clears the flag on its own; set it per reply.
                self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            resp = self._conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        try:
            return resp.status, json.loads(payload)
        except ValueError:
            return resp.status, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# --------------------------------------------------------------- generator


@dataclass
class Op:
    at: float            # due time, seconds after the phase starts
    kind: str            # "search" | "insert" | "delete"
    meta: object = None  # query id / pool row / delete target
    body: bytes | None = None


@dataclass
class Sample:
    op: Op
    due: float
    sent: float
    end: float
    status: int | None
    reply: object
    lag: float
    extra: dict = field(default_factory=dict)
    probe: float = REFERENCE_PROBE_S

    @property
    def latency(self) -> float:
        """Seconds from due time to reply, at reference speed."""
        return at_reference(self.end - self.due, self.probe)

    @property
    def raw_latency(self) -> float:
        return self.end - self.due


_PATHS = {"search": "/search", "insert": "/insert", "delete": "/delete"}


def open_loop(conns, ops, prepare=None, on_reply=None, stop_after=None,
              quickack: bool = False, probe: bool = False) -> list[Sample]:
    """Send ``ops`` on schedule over the two connections (main thread plus
    one helper thread).

    The main thread's connection is preferred, like a LIFO connection pool:
    it takes the next request whenever it is free and sleeps until that
    request is due; the helper takes a request only once it is
    :data:`HANDOFF_S` overdue, i.e. while the main connection is busy.
    ``prepare(op) -> (body, extra)`` builds a body at send time;
    ``on_reply(sample)`` runs after each reply.  With ``stop_after``, no
    request is started later than that many seconds in; ``quickack`` is
    passed to :meth:`Conn.request`.  With ``probe``, the main thread takes a
    machine probe while it waits for a due request, and each sample carries
    the latest one.
    """
    lock = threading.Lock()
    cursor = [0]
    samples: list[Sample | None] = [None] * len(ops)
    t0 = time.perf_counter() + 0.01
    stop = math.inf if stop_after is None else t0 + stop_after
    latest = [machine_probe() if probe else REFERENCE_PROBE_S]

    def worker(conn: Conn, primary: bool) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(ops) or time.perf_counter() >= stop:
                    return
                due = t0 + ops[i].at
                wait = 0.0 if primary else due + HANDOFF_S - time.perf_counter()
                if wait <= 0:
                    cursor[0] += 1
            if wait > 0:
                time.sleep(wait)
                continue
            op = ops[i]
            now = time.perf_counter()
            if probe and primary and due - now > PROBE_ROOM_S:
                latest[0] = machine_probe()
                now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                sent = time.perf_counter()
                lag = sent - due
            else:
                sent, lag = now, 0.0
            body, extra = prepare(op) if prepare else (op.body, {})
            try:
                status, reply = conn.request("POST", _PATHS[op.kind], body, quickack)
            except (OSError, http.client.HTTPException):
                status, reply = None, None
            sample = Sample(op, due, sent, time.perf_counter(), status, reply, lag, extra,
                            latest[0])
            samples[i] = sample
            if on_reply is not None:
                on_reply(sample)

    helper = threading.Thread(target=worker, args=(conns[1], False), daemon=True)
    helper.start()
    try:
        worker(conns[0], True)
    finally:
        helper.join()
    return [s for s in samples if s is not None]


def constant_times(rate: float, duration: float) -> list[float]:
    """Due times of a constant-rate open loop (``rate`` per second)."""
    return [i / rate for i in range(int(rate * duration))]


def capacity(conns, make_ops, seconds: float, prepare=None, on_reply=None):
    """Closed-loop capacity: both connections send back to back for
    ``seconds``; returns ``(replies per second, samples)``."""
    ops = make_ops([0.0] * int(CAPACITY_CEILING_QPS * seconds))
    samples = open_loop(conns, ops, prepare, on_reply, stop_after=seconds)
    first = min(s.sent for s in samples)
    last = max(s.end for s in samples)
    # Not scaled to reference speed: with default ACKs each reply waits on
    # the kernel's wall-clock delayed-ACK timer, which no CPU slowdown moves.
    return len(samples) / (last - first), samples


def _window_bounds(samples) -> tuple[float, float]:
    return min(s.due for s in samples), max(s.end for s in samples)


def _lag_ms(samples) -> float:
    lags = [s.lag for s in samples if s.lag > 0]
    return 1e3 * tail_percentile(lags, 95) if lags else 0.0


def _spawn_for_setup(index_path, repeats: int) -> tuple[Server, float]:
    """Start the server ``repeats`` times; keep the last, report the median."""
    times = []
    server = None
    for i in range(repeats):
        server = Server(index_path)
        times.append(server.setup_s)
        if i < repeats - 1:
            server.stop()
    return server, median(times)


def _read_spans(path) -> list:
    with open(path) as fh:
        return json.load(fh)


def _query_body(vec) -> bytes:
    return json.dumps({"query": vec.tolist(), "k": K}).encode()


def _trace_builds(build):
    """Run ``build()`` with the span wrappers installed in this process."""
    from tracing import Tracer, install

    tracer = install(Tracer())
    try:
        result = build()
    finally:
        tracer.uninstall()
    return result, tracer.spans


# --------------------------------------------------------------- serve-zipf


def run_zipf(seed: int, seconds: float, trace: bool, sizes: dict, cfg: dict) -> dict:
    from repro.core.persist import save_index
    from repro.data.datasets import load_dataset
    from repro.spec import build_index

    wl = cfg
    phases = Phases()
    data = load_dataset("yahoo", n=sizes["n"], dim=64, n_queries=1, seed=CORPUS_SEED).data
    rng = np.random.default_rng(seed)
    pool_size = sizes["pool"]
    pool = data[rng.choice(data.shape[0], size=pool_size, replace=False)]
    weights = 1.0 / np.arange(1, pool_size + 1) ** wl["zipf_s"]
    probs = weights / weights.sum()
    bodies: dict[int, bytes] = {}

    def body(qid: int) -> bytes:
        if qid not in bodies:
            bodies[qid] = _query_body(pool[qid])
        return bodies[qid]

    def make_ops(times):
        qids = rng.choice(pool_size, size=len(times), p=probs)
        return [Op(t, "search", int(q), body(int(q))) for t, q in zip(times, qids)]

    spec = f"sharded(inner='promips()', shards={wl['shards']})"
    build_spans = []
    if trace:
        index, build_spans = _trace_builds(lambda: build_index(spec, data, rng=BUILD_SEED))
    else:
        index = build_index(spec, data, rng=BUILD_SEED)
    index_bytes = index.index_size_bytes()
    TMP.mkdir(exist_ok=True)
    envelope = save_index(index, TMP / f"zipf-{os.getpid()}.npz")
    del index
    phases.mark("prepare")

    warm_ops = [Op(0.0, "search", q, body(q)) for q in range(min(sizes["warm"], pool_size))]
    result = {"attempted": 0, "failed": 0, "samples": {}}
    all_samples: list[Sample] = []
    if trace:
        # Untraced baseline server first: its window is the overhead base.
        base = Server(envelope)
        try:
            _, base_window, base_warm = _zipf_window(
                base, warm_ops, make_ops(constant_times(wl["rate"], seconds / 2)))
        finally:
            base.stop()
        all_samples += base_warm + base_window
        spans_path = TMP / f"spans-{os.getpid()}.json"
        server = Server(envelope, spans_path=spans_path)
        window_s = seconds / 2
    else:
        server, setup_s = _spawn_for_setup(envelope, sizes["setup_repeats"])
        window_s = seconds * wl["fixed_share"]
    phases.mark("spawn")
    try:
        before, measured, warm = _zipf_window(
            server, warm_ops, make_ops(constant_times(wl["rate"], window_s)))
        all_samples += warm + measured
        if not trace:
            conns = [Conn(server.port), Conn(server.port)]
            try:
                cap_s = seconds - window_s
                sustained, cap_samples = capacity(conns, make_ops, cap_s)
            finally:
                for conn in conns:
                    conn.close()
            all_samples += cap_samples
            result["samples"]["capacity_requests"] = len(cap_samples)
        after = server.stats()
        rss = server.rss_mb()
    finally:
        server.stop()
    phases.mark("serve")

    # ---- correctness: every reply 200, and every served answer equal to a
    # replay on a copy loaded from the same envelope (ids and scores).
    distinct = sorted({s.op.meta for s in all_samples})
    replay = dict(zip(distinct, _replay(envelope, pool[distinct])))
    failed = sum(
        not (s.status == 200 and s.reply is not None
             and (s.reply["ids"], s.reply["scores"]) == replay[s.op.meta])
        for s in all_samples
    )
    exact_ids, exact_scores = exact_topk(data, pool[distinct])
    truth = {qid: (exact_ids[i], exact_scores[i]) for i, qid in enumerate(distinct)}
    quality = [recall_and_ratio(*replay[s.op.meta], *truth[s.op.meta]) for s in measured]
    envelope_bytes = envelope.stat().st_size
    envelope.unlink()
    phases.mark("check")

    search_lat = [s.latency for s in measured]
    lag = _lag_ms(all_samples)
    result["attempted"] = len(all_samples)
    result["failed"] = failed
    raw = [s.raw_latency for s in measured]
    result["samples"].update({"fixed_rate": wl["rate"], "window_s": window_s,
                              "window_searches": len(measured),
                              "raw_search_p50_ms": 1e3 * median(raw),
                              "raw_search_tail_ms": 1e3 * tail_percentile(raw, wl["tail"]["search"]),
                              "distinct_replayed": len(distinct),
                              "generator_lag_ms": lag, "phase_s": phases.seconds})
    if trace:
        from layers import layer_metrics

        spans = build_spans + _read_spans(spans_path)
        spans_path.unlink()
        base_p50 = median([s.latency for s in base_window])
        client = {"raw_search_p50_ms": 1e3 * median([s.raw_latency for s in measured]),
                  "lag_ms": lag}
        result["layers"] = layer_metrics(
            spans, window=_window_bounds(measured), client=client,
            stats_before=before, stats_after=after, envelope_bytes=envelope_bytes,
            overhead=median(search_lat) / base_p50 - 1.0,
            failed_share=failed / len(all_samples),
        )
        return result
    result["metrics"] = {
        "setup_s": setup_s,
        "qps": sustained,
        "search_p50_ms": 1e3 * median(search_lat),
        "search_tail_ms": 1e3 * tail_percentile(search_lat, wl["tail"]["search"]),
        "recall_at_10": float(np.mean([q[0] for q in quality])),
        "overall_ratio": float(np.mean([q[1] for q in quality])),
        "index_bytes": float(index_bytes),
        "rss_mb": rss,
    }
    return result


def _replay(envelope, queries: np.ndarray) -> list[tuple[list, list]]:
    """Replay ``queries`` on copies loaded from the envelope, split over two
    :mod:`replay` subprocesses (the sharded search is GIL-bound in one
    process).  Plain subprocesses, each waited for on every path out: a
    multiprocessing pool would leave its resource tracker behind."""
    procs, files = [], []
    try:
        for i, part in enumerate(np.array_split(queries, 2)):
            q_path = TMP / f"replay-{os.getpid()}-{i}.npy"
            out_path = TMP / f"replay-{os.getpid()}-{i}.json"
            files += [q_path, out_path]
            np.save(q_path, part)
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "replay.py"), str(envelope), str(q_path),
                 str(out_path)], env=child_env()))
        parts = []
        for proc, out_path in zip(procs, files[1::2]):
            if proc.wait(timeout=REPLAY_TIMEOUT_S) != 0:
                raise RuntimeError(f"replay worker exited with {proc.returncode}")
            with open(out_path) as fh:
                parts += [(ids, scores) for ids, scores in json.load(fh)]
        return parts
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for path in files:
            path.unlink(missing_ok=True)


def _zipf_window(server, warm_ops, window_ops):
    """Warm the cache with the most popular queries (back to back), then
    send one fixed-rate window; returns ``(stats before window,
    window samples, warm samples)``."""
    conns = [Conn(server.port), Conn(server.port)]
    try:
        warm = open_loop(conns, warm_ops, quickack=True)
        before = server.stats()
        window = open_loop(conns, window_ops, quickack=True, probe=True)
    finally:
        for conn in conns:
            conn.close()
    return before, window, warm


# -------------------------------------------------------------- serve-churn


class Mirror:
    """The benchmark's own view of one server's live set during churn."""

    def __init__(self, data, pool_vecs, delete_order) -> None:
        self.lock = threading.Lock()
        self.n = data.shape[0]
        self.data = data
        self.pool_vecs = pool_vecs
        self.vectors: dict[int, np.ndarray] = {}     # inserted id -> vector
        self.insert_ids: dict[int, int] = {}         # pool row -> acked id
        self.deleted_at: dict[int, float] = {}       # id -> delete ack time
        self.claimed: set[int] = set()               # ids a delete was sent for
        self.just_deleted: list[int] = []            # acked, not yet searched for
        self._initial = iter(delete_order.tolist())

    def vector(self, point_id: int):
        return self.data[point_id] if point_id < self.n else self.vectors.get(point_id)

    def query_of(self, sample: Sample):
        """The query vector a search sample actually sent."""
        return self.vector(sample.extra.get("query_id", sample.op.meta))

    def prepare(self, op: Op):
        """The body to send.  The first search after a delete is acknowledged
        looks for the deleted point's own vector, which would be its own
        top-1 if the delete had not taken effect."""
        if op.kind == "search":
            with self.lock:
                if not self.just_deleted:
                    return op.body, {}
                gone = self.just_deleted.pop()
            return _query_body(self.vector(gone)), {"query_id": gone}
        if op.kind != "delete":
            return op.body, {}
        with self.lock:
            target = self.insert_ids.get(op.meta) if op.meta is not None else None
            if target is None or target in self.claimed:
                target = next(i for i in self._initial if i not in self.claimed)
            self.claimed.add(target)
        return json.dumps({"id": target}).encode(), {"id": target}

    def on_reply(self, sample: Sample) -> None:
        if sample.status != 200:
            return
        with self.lock:
            if sample.op.kind == "insert":
                new_id = int(sample.reply["id"])
                self.insert_ids[sample.op.meta] = new_id
                self.vectors[new_id] = self.pool_vecs[sample.op.meta]
            elif sample.op.kind == "delete":
                self.deleted_at[sample.extra["id"]] = sample.end
                self.just_deleted.append(sample.extra["id"])

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        ids = [i for i in range(self.n) if i not in self.deleted_at]
        ids += [i for i in sorted(self.vectors) if i not in self.deleted_at]
        return np.array(ids, dtype=np.int64), np.stack([self.vector(i) for i in ids])

    def answer_ok(self, query, ids, scores, sent: float) -> bool:
        """Known ids, none deleted (acked) before ``sent``, and a valid top-k."""
        vecs = []
        for point_id in ids:
            vec = self.vector(point_id)
            if vec is None or self.deleted_at.get(point_id, math.inf) < sent:
                return False
            vecs.append(vec)
        return bool(vecs) and valid_topk(np.stack(vecs), query, ids, scores)


def run_churn(seed: int, seconds: float, trace: bool, sizes: dict, cfg: dict) -> dict:
    from repro.core.persist import save_index
    from repro.data.datasets import load_dataset
    from repro.spec import build_index

    wl = cfg
    phases = Phases()
    n = sizes["n"]
    corpus = load_dataset("netflix", n=n + sizes["insert_pool"], dim=64, n_queries=1,
                          seed=CORPUS_SEED).data
    data, pool_vecs = corpus[:n], corpus[n:]
    rng = np.random.default_rng(seed)
    query_order = rng.permutation(n)       # fresh item-vector queries, never repeated
    delete_order = rng.permutation(n)      # initial points deletes fall back to
    cursors = {"query": 0, "insert": 0}
    mix = np.cumsum([wl["mix"]["search"], wl["mix"]["insert"], wl["mix"]["delete"]])

    def next_query() -> int:
        qid = int(query_order[cursors["query"]])
        cursors["query"] += 1
        return qid

    def make_ops(times):
        ops = []
        for t in times:
            kind = ("search", "insert", "delete")[int(np.searchsorted(mix, rng.random() * mix[-1], side="right"))]
            if kind == "search":
                qid = next_query()
                ops.append(Op(t, kind, qid, _query_body(data[qid])))
            elif kind == "insert":
                row = cursors["insert"]
                cursors["insert"] += 1
                ops.append(Op(t, kind, row, json.dumps({"vector": pool_vecs[row].tolist()}).encode()))
            else:
                # Half the deletes target an earlier insert of this stream
                # (dropped from the delta buffer), half an indexed point
                # (tombstoned); an insert not yet acknowledged falls back.
                earlier = cursors["insert"] - wl["delete_insert_gap"]
                target = int(rng.integers(0, earlier)) if earlier > 0 and rng.random() < 0.5 else None
                ops.append(Op(t, kind, target))
        return ops

    spec = (f"dynamic(rebuild_threshold={wl['rebuild_threshold']}, "
            f"compact_threshold={wl['compact_threshold']})")
    build_spans = []
    if trace:
        index, build_spans = _trace_builds(lambda: build_index(spec, data, rng=BUILD_SEED))
    else:
        index = build_index(spec, data, rng=BUILD_SEED)
    index_bytes = index.index_size_bytes()
    TMP.mkdir(exist_ok=True)
    envelope = save_index(index, TMP / f"churn-{os.getpid()}.npz")
    envelope_bytes = envelope.stat().st_size
    del index
    phases.mark("prepare")

    attempted = failed = 0

    def serve_phase(server, window_s, with_capacity):
        """Warm, one fixed-rate window, optionally the capacity burst, then
        the probe set; checks every answer against this server's mirror."""
        nonlocal attempted, failed
        mirror = Mirror(data, pool_vecs, delete_order)
        conns = [Conn(server.port), Conn(server.port)]
        out = {}
        try:
            warm = open_loop(conns, [Op(0.0, "search", q, _query_body(data[q]))
                                     for q in (next_query() for _ in range(sizes["warm"]))],
                             quickack=True)
            out["before"] = server.stats()
            window = open_loop(conns, make_ops(constant_times(wl["rate"], window_s)),
                               mirror.prepare, mirror.on_reply, quickack=True, probe=True)
            samples = warm + window
            if with_capacity:
                out["sustained"], burst = capacity(
                    conns, make_ops, seconds - window_s, mirror.prepare, mirror.on_reply)
                out["capacity_requests"] = len(burst)
                samples += burst
            probes = data[[next_query() for _ in range(sizes["probes"])]]
            body = json.dumps({"queries": probes.tolist(), "k": K}).encode()
            probe_sent = time.perf_counter()
            status, reply = conns[0].request("POST", "/search_batch", body)
            out["after"] = server.stats()
            out["rss"] = server.rss_mb()
        finally:
            for conn in conns:
                conn.close()
        for s in samples:
            attempted += 1
            ok = s.status == 200
            if ok and s.op.kind == "search":
                ok = mirror.answer_ok(mirror.query_of(s), s.reply["ids"], s.reply["scores"], s.sent)
            failed += not ok
        # Probe set after the stream drained: exact truth over the live set.
        attempted += 1
        quality = []
        if status != 200:
            failed += 1
        else:
            live_ids, live_vecs = mirror.live()
            ex_rows, ex_scores = exact_topk(live_vecs, probes)
            bad = 0
            for i, query in enumerate(probes):
                ids, scores = reply["ids"][i], reply["scores"][i]
                bad += not mirror.answer_ok(query, ids, scores, probe_sent)
                quality.append(recall_and_ratio(ids, scores, live_ids[ex_rows[i]], ex_scores[i]))
            failed += bad > 0
        out["window"] = window
        out["samples"] = samples
        out["quality"] = quality
        return out

    result = {"samples": {}}
    try:
        if trace:
            base = Server(envelope)
            try:
                base_out = serve_phase(base, seconds / 2, False)
            finally:
                base.stop()
            spans_path = TMP / f"spans-{os.getpid()}.json"
            server = Server(envelope, spans_path=spans_path)
            window_s = seconds / 2
        else:
            server, setup_s = _spawn_for_setup(envelope, sizes["setup_repeats"])
            window_s = seconds * wl["fixed_share"]
        phases.mark("spawn")
        try:
            out = serve_phase(server, window_s, not trace)
        finally:
            server.stop()
    finally:
        envelope.unlink()
    phases.mark("serve_and_check")

    def latencies(samples, kinds):
        return [s.latency for s in samples if s.op.kind in kinds]

    search_lat = latencies(out["window"], ("search",))
    write_lat = latencies(out["window"], ("insert", "delete"))
    lag = _lag_ms(out["samples"])
    raw_write = [s.raw_latency for s in out["window"] if s.op.kind != "search"]
    client = {
        "raw_search_p50_ms": 1e3 * median([s.raw_latency for s in out["window"]
                                           if s.op.kind == "search"]),
        "raw_write_p50_ms": 1e3 * median(raw_write) if raw_write else 0.0,
        "write_p50_ms": 1e3 * median(write_lat) if write_lat else 0.0,
        "write_tail_ms": 1e3 * tail_percentile(write_lat, wl["tail"]["write"]) if write_lat else 0.0,
        "lag_ms": lag,
    }
    result.update({"attempted": attempted, "failed": failed})
    result["samples"].update({
        "fixed_rate": wl["rate"], "window_s": window_s,
        "window_searches": len(search_lat), "window_writes": len(write_lat),
        "raw_search_p50_ms": client["raw_search_p50_ms"],
        "raw_search_tail_ms": 1e3 * tail_percentile(
            [s.raw_latency for s in out["window"] if s.op.kind == "search"], wl["tail"]["search"]),
        "probes": len(out["quality"]), "generator_lag_ms": lag,
        "write_p50_ms": client["write_p50_ms"], "write_tail_ms": client["write_tail_ms"],
        "rebuilds": out["after"].get("maintenance", {}).get("rebuilds", 0),
        "phase_s": phases.seconds,
    })
    if trace:
        from layers import layer_metrics

        spans = build_spans + _read_spans(spans_path)
        spans_path.unlink()
        base_p50 = median(latencies(base_out["window"], ("search",)))
        result["layers"] = layer_metrics(
            spans, window=_window_bounds(out["window"]), client=client,
            stats_before=out["before"], stats_after=out["after"],
            envelope_bytes=envelope_bytes, overhead=median(search_lat) / base_p50 - 1.0,
            failed_share=failed / attempted,
        )
        return result
    result["samples"]["capacity_requests"] = out["capacity_requests"]
    result["metrics"] = {
        "setup_s": setup_s,
        "qps": out["sustained"],
        "search_p50_ms": 1e3 * median(search_lat),
        "search_tail_ms": 1e3 * tail_percentile(search_lat, wl["tail"]["search"]),
        "recall_at_10": float(np.mean([q[0] for q in out["quality"]])),
        "overall_ratio": float(np.mean([q[1] for q in out["quality"]])),
        "index_bytes": float(index_bytes),
        "rss_mb": out["rss"],
    }
    return result
