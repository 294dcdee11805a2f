"""Byte-identity digest of every registered method's answers and state.

Builds each of the 8 registered methods on a seeded yahoo-like corpus, where
ProMIPS' verifier stops inside its first ordered prefix, plus ``promips()``
on a corpus with widely spread norms and repeated rows, where it reads
through several prefix extensions and compensation annuli, past exactly
tied distances.  Prints one SHA-256 per method
and phase over:

* ``answers`` — ids, score bytes and every ``SearchStats`` field (pages,
  candidates, extras) of a seeded ``search_many`` batch, plus looped
  ``search`` on its first rows (and MIP-Search-I for ``promips``);
* ``size`` — ``index_size_bytes()``;
* ``state`` — every ``state()`` array: key, dtype, shape and bytes.

Phases: ``built``; ``loaded`` (after ``save_index``/``load_index``); and,
for the two mutable specs, ``mutated`` (after seeded inserts and deletes)
and ``mutated+loaded``.  A change that must not move any answer is checked
by running this script against both trees and diffing the outputs::

    PYTHONPATH=src python benchmarks/answer_digest.py > head.txt
    PYTHONPATH=<base checkout>/src python benchmarks/answer_digest.py > base.txt
    diff base.txt head.txt

It also checks that each load reproduces what was saved, and exits 1
otherwise.  One reload difference is known and allowed: a mutated
``dynamic()`` index (also as a shard) reports a different
``index_size_bytes()`` after a reload, because the spare capacity of its
delta buffers is not stored.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.persist import load_index, save_index
from repro.data.datasets import load_dataset
from repro.spec import build_index

# One spec per registered method.
SPECS = {
    "promips": "promips()",
    "dynamic": "dynamic(c=0.9)",
    "sharded": "sharded(inner='promips()', shards=2)",
    "exact": "exact()",
    "simhash": "simhash(n_bits=24)",
    "h2alsh": "h2alsh(c=0.9)",
    "rangelsh": "rangelsh(c=0.9, n_parts=8)",
    "pq": "pq(n_coarse=4, n_centroids=16, min_local_train=64)",
}
# Both hold dynamic() indexes, whose size may change on a reload once mutated.
MUTABLE = {
    "dynamic": "dynamic(c=0.9)",
    "sharded-dynamic": "sharded(inner='dynamic(c=0.9)', shards=2)",
}

K = 10
LOOPED = 4  # rows of the batch also answered by looped search
N = 20_000
DIM = 32
QUERIES = 64
SEED = 1


def _corpora(n: int, dim: int, n_queries: int, seed: int):
    """The yahoo-like corpus and the spread-norm corpus, each with half its
    queries drawn from its items and half Gaussian."""
    gen = np.random.default_rng(seed)
    yahoo = load_dataset("yahoo", n=n, dim=dim, n_queries=1, seed=seed).data
    spread = gen.standard_normal((n, dim)) * np.exp(gen.normal(0.0, 0.6, (n, 1)))
    # Every tenth row repeats another, so projected distances tie exactly.
    spread[::10] = spread[gen.choice(n, len(spread[::10]), replace=False)]
    out = []
    for data in (yahoo, spread):
        queries = np.vstack([
            data[gen.choice(n, n_queries // 2, replace=False)],
            gen.standard_normal((n_queries - n_queries // 2, dim)) * data.std(),
        ])
        out.append((data, queries))
    return out


def _feed(digest, result) -> None:
    digest.update(np.ascontiguousarray(result.ids, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(result.scores, dtype=np.float64).tobytes())
    stats = result.stats if isinstance(result.stats, list) else [result.stats]
    for row in stats:
        extras = sorted((key, repr(value)) for key, value in row.extras.items())
        digest.update(repr((row.pages, row.candidates, extras)).encode())


def digests(index, queries) -> dict[str, str]:
    answers = hashlib.sha256()
    _feed(answers, index.search_many(queries, k=K))
    for query in queries[:LOOPED]:
        _feed(answers, index.search(query, k=K))
        if hasattr(index, "search_incremental"):
            _feed(answers, index.search_incremental(query, k=K))
    state = hashlib.sha256()
    for key, value in sorted(index.state().items()):
        value = np.ascontiguousarray(value)
        state.update(repr((key, value.dtype.str, value.shape)).encode())
        state.update(value.tobytes())
    size = hashlib.sha256(str(index.index_size_bytes()).encode())
    return {"answers": answers.hexdigest(), "size": size.hexdigest(),
            "state": state.hexdigest()}


def _reloaded(index, directory: Path, name: str):
    return load_index(save_index(index, directory / name))


def _mutate(index, data, seed: int) -> None:
    gen = np.random.default_rng(seed)
    for row in data[gen.choice(len(data), 200, replace=False)]:
        index.insert(row + 1e-3 * gen.standard_normal(data.shape[1]))
    for pid in gen.choice(len(data), 150, replace=False).tolist():
        index.delete(pid)


def run(n: int, dim: int, n_queries: int, seed: int) -> tuple[list[str], list[str]]:
    """The digest lines, and the reload mismatches found on the way."""
    (data, queries), spread = _corpora(n, dim, n_queries, seed)
    lines: list[str] = []
    problems: list[str] = []

    def record(method: str, phase: str, values: dict[str, str]) -> None:
        for field, value in values.items():
            lines.append(f"{method:16s} {phase:15s} {field:8s} {value}")

    def check(method: str, before: dict, after: dict, phase: str) -> None:
        for field in before:
            if before[field] == after[field]:
                continue
            if field == "size" and phase == "mutated+loaded":
                continue
            problems.append(f"{method}: {field} changed on {phase}")

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        cases = [(method, spec, data, queries) for method, spec in SPECS.items()]
        cases.append(("promips-spread", SPECS["promips"], *spread))
        for method, spec, corpus, corpus_queries in cases:
            index = build_index(spec, corpus, rng=seed)
            built = digests(index, corpus_queries)
            loaded = digests(_reloaded(index, directory, method), corpus_queries)
            record(method, "built", built)
            record(method, "loaded", loaded)
            check(method, built, loaded, "loaded")
        for method, spec in MUTABLE.items():
            index = build_index(spec, data, rng=seed)
            _mutate(index, data, seed)
            mutated = digests(index, queries)
            loaded = digests(_reloaded(index, directory, method), queries)
            record(method, "mutated", mutated)
            record(method, "mutated+loaded", loaded)
            check(method, mutated, loaded, "mutated+loaded")
    return lines, problems


def main() -> int:
    lines, problems = run(N, DIM, QUERIES, SEED)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"RELOAD MISMATCH: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
