"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare`` — build all four methods on a registry dataset and print the
  §VIII metric table (ratio / recall / pages / CPU / total).
* ``sweep`` — one method over a k-grid (the row source of Figs. 5–9).
* ``tune`` — ProMIPS over a c- and p-grid (Figs. 10–11).
* ``throughput`` — queries/sec of the looped single-query path vs the
  vectorized ``search_many`` batch path, per method; sharded methods also
  report per-shard batch timings.
* ``build`` — build any method from a declarative spec and persist the
  index to a ``.npz`` file.
* ``query`` — reload a persisted index in a fresh process and answer the
  evaluation workload (or a query file) against it.
* ``serve`` — expose any index over HTTP: a JSON API with a micro-batching
  coalescer, a generation-aware result cache, and latency telemetry
  (see :mod:`repro.serve.server`); boots from an inline spec or a
  persisted ``.npz`` envelope.
* ``datasets`` — print Table III for the sim and paper profiles.

Method arguments accept registry names ("ProMIPS", "H2-ALSH", ...) or
inline specs like ``"promips(c=0.8, p=0.7)"`` (see :mod:`repro.spec`).

Examples::

    python -m repro compare --dataset netflix --n 8000 --dim 64 --k 10
    python -m repro sweep --dataset sift --method "promips(c=0.8)" --ks 10,40
    python -m repro tune --dataset yahoo --cs 0.7,0.9 --ps 0.3,0.9
    python -m repro throughput --dataset netflix --n 10000 --queries 256 --k 10
    python -m repro throughput --methods "sharded(inner='exact()', shards=4)"
    python -m repro build --spec "promips(c=0.9)" --dataset netflix --out idx.npz
    python -m repro query --index idx.npz --k 10
    python -m repro serve --spec "dynamic(c=0.9)" --dataset netflix --port 8080
    python -m repro serve --index idx.npz --port 8080
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.persist import inspect_index, load_index, save_index
from repro.data.datasets import DATASETS, load_dataset, table3_rows
from repro.eval.ground_truth import GroundTruth
from repro.eval.harness import (
    build_method,
    default_registry,
    measure_throughput,
    run_method,
)
from repro.eval.metrics import overall_ratio, recall
from repro.eval.reporting import format_series, format_table
from repro.spec import IndexSpec, build_index, get_method

from repro import __version__

__all__ = ["main"]


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="netflix", choices=sorted(DATASETS))
    parser.add_argument("--n", type=int, default=None, help="override point count")
    parser.add_argument("--dim", type=int, default=None, help="override dimensionality")
    parser.add_argument("--queries", type=int, default=25)
    parser.add_argument("--seed", type=int, default=20210406)


def _load(args: argparse.Namespace):
    return load_dataset(
        args.dataset, n=args.n, dim=args.dim, n_queries=args.queries, seed=args.seed
    )


def _split_methods(text: str) -> list[str]:
    """Split a comma list of method names, ignoring commas inside parens
    (inline specs like ``sharded(inner='exact()', shards=4)`` carry both)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _load(args)
    registry = default_registry()
    ground_truth = GroundTruth(dataset.data, dataset.queries, k_max=args.k)
    rows = []
    for method in registry.names():
        index, build = build_method(registry, method, dataset, seed=1)
        report = run_method(index, dataset, ground_truth, k=args.k, method=method)
        rows.append([
            method, build.build_seconds, build.index_mb, report.overall_ratio,
            report.recall, report.pages, report.cpu_ms, report.total_ms,
        ])
    print(format_table(
        ["method", "build_s", "index_MB", "ratio", "recall", "pages", "cpu_ms",
         "total_ms"],
        rows,
        title=f"c-{args.k}-AMIP on {dataset.name} (n={dataset.n}, d={dataset.dim})",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load(args)
    ks = [int(x) for x in args.ks.split(",")]
    registry = default_registry()
    ground_truth = GroundTruth(dataset.data, dataset.queries, k_max=max(ks))
    try:
        index, _ = build_method(registry, args.method, dataset, seed=1)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    reports = [run_method(index, dataset, ground_truth, k=k, method=args.method)
               for k in ks]
    print(format_series(
        "k", ks,
        {
            "ratio": [r.overall_ratio for r in reports],
            "recall": [r.recall for r in reports],
            "pages": [r.pages for r in reports],
            "cpu_ms": [r.cpu_ms for r in reports],
        },
        title=f"{args.method} on {dataset.name}",
    ))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.promips import ProMIPS, ProMIPSParams
    from repro.eval.metrics import overall_ratio

    dataset = _load(args)
    cs = [float(x) for x in args.cs.split(",")]
    ps = [float(x) for x in args.ps.split(",")]
    ground_truth = GroundTruth(dataset.data, dataset.queries, k_max=args.k)
    index = ProMIPS.build(
        dataset.data, ProMIPSParams(page_size=dataset.page_size), rng=1
    )
    rows = []
    for c in cs:
        for p in ps:
            ratios, pages = [], []
            for qi, q in enumerate(dataset.queries):
                _, exact_ips = ground_truth.topk(qi, args.k)
                res = index.search(q, k=args.k, c=c, p=p)
                ratios.append(overall_ratio(res.scores, exact_ips))
                pages.append(res.stats.pages)
            rows.append([c, p, float(np.mean(ratios)), float(np.mean(pages))])
    print(format_table(
        ["c", "p", "ratio", "pages"], rows,
        title=f"ProMIPS c/p sweep on {dataset.name} (k={args.k})",
    ))
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    if args.repeats <= 0:
        print(f"error: --repeats must be positive, got {args.repeats}")
        return 2
    dataset = _load(args)
    registry = default_registry(include_extras=True)
    methods = (
        registry.names() if args.methods == "all" else _split_methods(args.methods)
    )
    # Reject typos before the expensive build+measure loop: every entry must
    # be a registry name or an inline spec naming a registered method.
    for method in methods:
        if method in registry.names():
            continue
        try:
            get_method(IndexSpec.parse(method).method)
        except (ValueError, KeyError):
            print(
                f"error: unknown method {method!r}; known: {registry.names()} "
                "or an inline spec like \"sharded(inner='exact()', shards=4)\""
            )
            return 2
    rows = []
    shard_lines = []
    for method in methods:
        # Registry names and inline specs both resolve through registry.build.
        try:
            index, _ = build_method(registry, method, dataset, seed=1)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        report = measure_throughput(
            index,
            dataset.queries,
            k=args.k,
            method=method,
            dataset=dataset.name,
            repeats=args.repeats,
        )
        rows.append([
            method,
            report.loop_qps,
            report.batch_qps,
            report.speedup,
        ])
        if report.shard_seconds is not None:
            timings = ", ".join(
                f"s{i}={sec * 1e3:.2f}ms" for i, sec in enumerate(report.shard_seconds)
            )
            shard_lines.append(f"{method}: per-shard batch time [{timings}]")
    print(format_table(
        ["method", "loop_qps", "batch_qps", "speedup"],
        rows,
        title=(
            f"single vs batch throughput on {dataset.name} "
            f"(n={dataset.n}, d={dataset.dim}, q={len(dataset.queries)}, k={args.k})"
        ),
    ))
    for line in shard_lines:
        print(line)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    dataset = _load(args)
    start = time.perf_counter()
    try:
        index = build_index(args.spec, dataset.data, rng=args.build_seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    elapsed = time.perf_counter() - start
    # Record the workload so `query` can regenerate it in a fresh process.
    extras = {
        "dataset": {
            "name": args.dataset,
            "n": args.n,
            "dim": args.dim,
            "n_queries": args.queries,
            "seed": args.seed,
        }
    }
    path = save_index(index, args.out, extra_meta=extras)
    spec = index.spec()
    print(f"built {spec} on {dataset.name} (n={dataset.n}, d={dataset.dim}) "
          f"in {elapsed:.2f}s")
    print(f"index size: {index.index_size_bytes() / 2**20:.2f} MiB "
          f"(file: {path.stat().st_size / 2**20:.2f} MiB)")
    print(f"saved to {path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    path = Path(args.index)
    if not path.exists():
        print(f"error: no such index file {path}")
        return 2
    try:
        meta = inspect_index(path)
        index = load_index(path)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    print(f"loaded {meta['method']} index from {path} (spec: {index.spec()})")

    if args.query_file:
        queries = np.atleast_2d(np.load(args.query_file))
        dataset = None
    else:
        stored = meta.get("extras", {}).get("dataset")
        if not stored:
            print("error: index file records no dataset; pass --query-file")
            return 2
        dataset = load_dataset(
            stored["name"], n=stored["n"], dim=stored["dim"],
            n_queries=args.queries or stored["n_queries"], seed=stored["seed"],
        )
        queries = dataset.queries

    try:
        batch = index.search_many(queries, k=args.k)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if dataset is not None:
        gt = GroundTruth(dataset.data, queries, k_max=args.k)
        ratios, recalls = [], []
        for qi, result in enumerate(batch):
            exact_ids, exact_ips = gt.topk(qi, args.k)
            ratios.append(overall_ratio(result.scores, exact_ips))
            recalls.append(recall(result.ids, exact_ids))
        pages = float(np.mean([s.pages for s in batch.stats]))
        print(format_table(
            ["queries", "k", "ratio", "recall", "pages"],
            [[len(batch), args.k, float(np.mean(ratios)),
              float(np.mean(recalls)), pages]],
            title=f"reloaded-index workload on {dataset.name}",
        ))
    for qi in range(min(len(batch), args.show)):
        result = batch[qi]
        pairs = ", ".join(
            f"{pid}:{score:.4f}" for pid, score in zip(result.ids, result.scores)
        )
        print(f"query {qi}: top-{len(result)} [{pairs}]")
    return 0


def _serve_runtime(args: argparse.Namespace):
    """Build the :class:`repro.serve.ServingRuntime` the ``serve`` command
    will expose (split out so tests can boot it without a serve loop)."""
    from repro.serve import build_runtime

    runtime_kwargs = dict(max_batch=args.max_batch, cache_size=args.cache_size)
    if args.index is not None:
        path = Path(args.index)
        if not path.exists():
            raise ValueError(f"no such index file {path}")
        return build_runtime(index_path=path, **runtime_kwargs)
    dataset = _load(args)
    return build_runtime(
        spec=args.spec, data=dataset.data, rng=args.build_seed, **runtime_kwargs
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import make_server

    try:
        runtime = _serve_runtime(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    server = make_server(runtime, host=args.host, port=args.port)
    # SIGINT and SIGTERM end serve_forever, so the finally below always runs;
    # shutdown() waits for the loop, hence the thread.  A job backgrounded by
    # a shell without job control starts with SIGINT ignored.
    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        host, port = server.server_address[:2]
        health = runtime.health()
        print(f"serving {health.get('spec', type(runtime.index).__name__)} "
              f"({health['n_live']} points, d={health['dim']}) "
              f"on http://{host}:{port}", flush=True)
        print("endpoints: POST /search /search_batch /insert /delete, "
              "GET /stats /healthz  (Ctrl-C or SIGTERM to stop)", flush=True)
        server.serve_forever()
    finally:
        server.shutdown()
        server.server_close()
        runtime.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    for profile in ("paper", "sim"):
        kwargs: dict = {"n_queries": 2}
        if profile == "sim":
            if args.n is not None:
                kwargs["n"] = args.n
            if args.dim is not None:
                kwargs["dim"] = args.dim
        rows = [
            [r["dataset"], r["n"], r["d"], r["size_mb"]]
            for r in table3_rows(profile=profile, **(kwargs if profile == "sim" else {}))
        ]
        print(format_table(
            ["dataset", "n", "d", "size_MiB"], rows,
            title=f"Table III — {profile} profile",
        ))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ProMIPS reproduction experiment runner"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="all methods on one dataset")
    _add_dataset_args(compare)
    compare.add_argument("--k", type=int, default=10)
    compare.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="one method over a k grid")
    _add_dataset_args(sweep)
    sweep.add_argument(
        "--method", default="ProMIPS",
        help='registry name (ProMIPS, H2-ALSH, Range-LSH, PQ-Based) or an '
             'inline spec like "promips(c=0.8)"',
    )
    sweep.add_argument("--ks", default="10,40,70,100")
    sweep.set_defaults(func=_cmd_sweep)

    tune = sub.add_parser("tune", help="ProMIPS c/p sweep")
    _add_dataset_args(tune)
    tune.add_argument("--k", type=int, default=10)
    tune.add_argument("--cs", default="0.7,0.8,0.9")
    tune.add_argument("--ps", default="0.3,0.5,0.7,0.9")
    tune.set_defaults(func=_cmd_tune)

    throughput = sub.add_parser(
        "throughput", help="queries/sec: looped search vs search_many"
    )
    _add_dataset_args(throughput)
    throughput.add_argument("--k", type=int, default=10)
    throughput.add_argument(
        "--methods", default="all",
        help='comma list from the registry (+ "Exact", "SimHash", "Sharded"), '
             'an inline spec like "sharded(inner=\'exact()\', shards=4)", '
             'or "all"',
    )
    throughput.add_argument("--repeats", type=int, default=3)
    throughput.set_defaults(func=_cmd_throughput)

    build = sub.add_parser(
        "build", help="build any method from a spec and persist the index"
    )
    _add_dataset_args(build)
    build.add_argument(
        "--spec", required=True,
        help='index spec, e.g. "promips(c=0.9, p=0.5)" or "h2alsh(c=0.8)"',
    )
    build.add_argument("--out", required=True, help="target .npz file")
    build.add_argument(
        "--build-seed", type=int, default=1, dest="build_seed",
        help="rng seed for the build pre-process",
    )
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser(
        "query", help="reload a persisted index and answer queries against it"
    )
    query.add_argument("--index", required=True, help="index .npz written by `build`")
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--queries", type=int, default=None,
        help="override the stored workload's query count",
    )
    query.add_argument(
        "--query-file", default=None,
        help=".npy array of queries (skips the ratio/recall metrics)",
    )
    query.add_argument(
        "--show", type=int, default=3,
        help="print the top-k of the first N queries",
    )
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve", help="serve an index over HTTP (coalescing + caching JSON API)"
    )
    _add_dataset_args(serve)
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec",
        help='build fresh from an inline spec, e.g. "dynamic(c=0.9)" '
             "(uses the --dataset workload options)",
    )
    source.add_argument(
        "--index", help="boot from a persisted .npz envelope written by `build`"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, dest="max_batch",
        help="most concurrent searches coalesced into one batched dispatch",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, dest="cache_size",
        help="LRU result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--build-seed", type=int, default=1, dest="build_seed",
        help="rng seed when building from --spec",
    )
    serve.set_defaults(func=_cmd_serve)

    datasets = sub.add_parser("datasets", help="print Table III")
    datasets.add_argument("--n", type=int, default=None)
    datasets.add_argument("--dim", type=int, default=None)
    datasets.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
