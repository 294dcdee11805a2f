"""Answer queries on a fresh copy loaded from an index envelope.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/replay.py INDEX.npz QUERIES.npy OUT.json

Writes ``[[ids, scores], ...]`` (one pair per query row, k = 10) to
``OUT.json``.  ``serve-zipf`` runs two of these side by side to check every
served answer.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from util import K


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    from repro.core.persist import load_index

    envelope, queries_path, out_path = sys.argv[1:]
    batch = load_index(envelope).search_many(np.load(queries_path), k=K)
    with open(out_path, "w") as fh:
        json.dump([[row.ids.tolist(), row.scores.tolist()] for row in batch], fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
