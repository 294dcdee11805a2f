"""The repository's benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload offline-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload, untraced and traced, tiny sizes

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload with span wrappers installed around the library's layer boundaries
(the first half of the window untraced, for the overhead) and prints every
per-layer metric.  Each metric is printed by name with its unit and
direction, then a ``meta:`` line (commit, seed, machine, sample counts,
generator lag), and last one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Definitions live in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from util import SRC, load_definitions, run_metadata

WORKLOADS = ("offline-batch", "serve-zipf", "serve-churn")


def _runner(name: str):
    if name == "offline-batch":
        from offline import run
    elif name == "serve-zipf":
        from serving import run_zipf as run
    else:
        from serving import run_churn as run
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    defs = load_definitions()
    cfg = defs["workloads"][name]
    sizes = cfg["smoke_sizes" if smoke else "sizes"]
    start = time.perf_counter()
    result = _runner(name)(seed, seconds, trace, sizes, cfg)
    section = "per_layer" if trace else "end_to_end"
    values = result["layers"] if trace else result["metrics"]
    metrics = {
        key: {"value": float(values[key]), "unit": spec["unit"]}
        for key, spec in defs[section].items()
    }
    for key, spec in defs[section].items():
        print(f"{key:32s} {values[key]:>16.6g} {spec['unit']:<9s} ({spec['better']} is better)")
    meta = run_metadata(name, seed, trace, seconds)
    meta["samples"] = result["samples"]
    meta["wall_s"] = time.perf_counter() - start
    lag = result["samples"].get("generator_lag_ms", 0.0)
    meta["valid"] = lag <= defs["generator"]["lag_bound_ms"]
    if trace:
        meta["trace_overhead"] = result["layers"]["trace.overhead"]
    print("meta: " + json.dumps(meta, sort_keys=True))
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, run every workload "
                             "untraced and traced")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every server and worker process
    # started so far is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"error: no library sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                print(f"== {name} trace={int(trace)}")
                out = run_workload(name, args.seed, 2.0, trace, smoke=True)
                print(json.dumps(out))
                ok &= out["correct"]
        return 0 if ok else 1
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
