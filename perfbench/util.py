"""Shared helpers of the benchmark: paths, statistics, process facts, metadata.

Everything the benchmark writes goes under ``.perfbench_tmp/`` in the
directory it is run from (the repository root); nothing is read or written
elsewhere.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
HERE = Path(__file__).resolve().parent
METRICS_FILE = HERE / "metrics.json"

# Fixed corpus generation and build seeds: the corpus and the index are the
# same on every run, so run-to-run spread comes from the seeded queries,
# schedules and mixes alone.
CORPUS_SEED = 20210406
BUILD_SEED = 1
K = 10


# The machine this runs on shares its cores: for periods of seconds to
# minutes the same work takes up to ~1.7x longer (wall and CPU time alike).
# Every timed sample therefore carries a probe -- the time of a fixed
# pure-Python loop taken next to it -- and timing metrics are reported at
# the reference speed: a duration is scaled by REFERENCE_PROBE_S / probe, a
# rate by its inverse.  REFERENCE_PROBE_S is fixed (the probe's time on an
# uncontended 2-vCPU host), so scaled figures read close to raw ones there.
PROBE_LOOPS = 20000
REFERENCE_PROBE_S = 0.0007


def machine_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def at_reference(seconds: float, probe: float) -> float:
    """A duration measured next to ``probe``, scaled to the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe


class Phases:
    """Wall seconds of a run's consecutive phases, for the result's meta."""

    def __init__(self) -> None:
        self._last = time.perf_counter()
        self.seconds: dict[str, float] = {}

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = round(now - self._last, 3)
        self._last = now


def load_definitions() -> dict:
    with open(METRICS_FILE) as fh:
        return json.load(fh)


def tail_percentile(values, pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation, as numpy)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def exact_topk(data: np.ndarray, queries: np.ndarray, k: int = K, block: int = 32):
    """Exact top-k ids and scores per query, ties by ascending id.

    The benchmark's own ground truth: a blocked GEMM plus a full stable
    ordering, independent of the library's engine.
    """
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    scores = np.empty((queries.shape[0], k))
    for start in range(0, queries.shape[0], block):
        ips = queries[start : start + block] @ data.T
        for row, vec in enumerate(ips):
            part = np.argpartition(-vec, k - 1)[:k]
            order = part[np.lexsort((part, -vec[part]))]
            ids[start + row] = order
            scores[start + row] = vec[order]
    return ids, scores


def valid_topk(vectors: np.ndarray, query: np.ndarray, ids, scores) -> bool:
    """A well-formed top-k answer: k distinct ids, descending scores equal
    to the inner products of ``query`` with the ids' ``vectors``."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(ids) != K or len(set(ids)) != K or np.any(np.diff(scores) > 0):
        return False
    return bool(np.allclose(scores, vectors @ query, rtol=1e-9, atol=1e-9))


def recall_and_ratio(returned_ids, returned_scores, exact_ids, exact_scores):
    """Recall@k (``|returned ∩ exact| / k``) and the paper's overall ratio:
    rank-wise ``returned / exact`` inner products clipped to [0, 1] and
    averaged over the k ranks (a missing rank counts 0)."""
    k = len(exact_ids)
    hit = len(set(int(i) for i in returned_ids) & set(int(i) for i in exact_ids))
    ratios = np.zeros(k)
    got = np.asarray(returned_scores, dtype=np.float64)[:k]
    exact = np.asarray(exact_scores, dtype=np.float64)[: got.size]
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(exact != 0.0, got / exact, 1.0)
    ratios[: got.size] = np.clip(raw, 0.0, 1.0)
    return hit / k, float(ratios.mean())


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the root."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.exists():
                return target.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def blas_config() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - metadata only, never fatal
        return f"unknown ({exc!r})"


def run_metadata(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_config(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    """Environment for server subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env
