"""Batch queries: answer a whole user cohort through ``search_many``.

A recommendation back-end rarely answers one user at a time — a refresh job
scores thousands of user vectors against the item catalogue at once.  This
example builds ProMIPS and the exact scan, answers a 512-user cohort through
one ``search_many`` call, verifies the batch answers are bit-identical to
looping ``search`` (each call a one-row batch), and times both.

Run:  python examples/batch_queries.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import ExactMIPS, ProMIPS, ProMIPSParams
from repro.data import make_latent_factor
from repro.eval.metrics import p95


def main() -> None:
    rng = np.random.default_rng(0)
    items, cohort = make_latent_factor(10_000, 64, rng, n_queries=512)

    promips = ProMIPS.build(items, ProMIPSParams(c=0.9, p=0.5), rng=1)
    exact = ExactMIPS(items)

    batches = {}
    for name, index in [("ProMIPS", promips), ("Exact", exact)]:
        start = time.perf_counter()
        batch = batches[name] = index.search_many(cohort, k=10)
        batch_s = time.perf_counter() - start

        start = time.perf_counter()
        singles = [index.search(q, k=10) for q in cohort]
        loop_s = time.perf_counter() - start

        identical = all(
            np.array_equal(s.ids, batch[i].ids)
            and np.array_equal(s.scores, batch[i].scores)
            for i, s in enumerate(singles)
        )
        print(
            f"{name:8s} batch {len(cohort)/batch_s:8.0f} q/s   "
            f"loop {len(cohort)/loop_s:8.0f} q/s   "
            f"speedup {loop_s/batch_s:4.1f}x   bit-identical={identical}"
        )

    # Aggregate accounting for capacity planning: one SearchStats per row.
    stats = batches["ProMIPS"].stats
    pages = [s.pages for s in stats]
    print(
        f"\ncohort of {len(stats)}: mean {np.mean(pages):.0f} pages/query, "
        f"p95 {p95(pages):.0f}, {sum(s.candidates for s in stats)} candidates verified"
    )


if __name__ == "__main__":
    main()
