"""Save/load a built index of **any** registered method.

The pre-process (projections, hash tables, k-means, codebooks, disk layout)
is the expensive part of the lifecycle; persisting its outputs lets a
service restart without re-building.  The format is a single ``.npz`` file
holding plain arrays plus a JSON-encoded envelope — no pickling, so files
are portable across Python versions and safe to load from untrusted
storage.

The envelope records the registered method name and its round-trippable
:class:`repro.spec.IndexSpec`; :func:`load_index` dispatches through the
method registry to the class's ``from_state``, so every method (ProMIPS,
Dynamic, H2-ALSH, Range-LSH, PQ-Based, Exact, SimHash) reloads with
bit-identical search behaviour.  Format version 1 (the ProMIPS-only layout
of earlier releases) still loads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.spec import IndexSpec, get_method

__all__ = [
    "save_index",
    "load_index",
    "inspect_index",
    "pack_substate",
    "unpack_substate",
]

_FORMAT_VERSION = 2
_STATE_PREFIX = "state__"


def _encode_meta(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def _decode_meta(blob: np.ndarray) -> dict:
    return json.loads(bytes(np.asarray(blob).tobytes()).decode())


def save_index(index, path: str | Path, extra_meta: dict | None = None) -> Path:
    """Serialize any registered built index to ``path`` (a ``.npz`` file).

    The file is the index's envelope packed under the empty prefix — the
    same codec :func:`pack_substate` applies to the shards of a composite.

    Args:
        index: a built index implementing the registry contract
            (``spec()`` / ``state()``, see :mod:`repro.spec`).
        path: target file; the ``.npz`` suffix is ensured.
        extra_meta: optional JSON-serializable annotations stored in the
            envelope (e.g. the CLI records the dataset a ``build`` used so
            ``query`` can regenerate the workload); read back with
            :func:`inspect_index`.

    Returns:
        The path written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    np.savez_compressed(path, **_pack(index, "", extras=extra_meta or {}))
    return path


def pack_substate(index, prefix: str) -> dict[str, np.ndarray]:
    """Flatten a built index into a prefixed *sub-envelope* of plain arrays.

    Composite indexes (e.g. :class:`repro.core.sharded.ShardedIndex`) nest
    other registered methods inside their own ``state()``.  This helper
    serialises one inner index the same way :func:`save_index` does — a
    JSON meta blob naming the method and its spec, plus its state arrays —
    but into a flat dict under ``prefix`` instead of a file, so the composite
    still persists through the single v2 ``.npz`` envelope.

    Args:
        index: a built index implementing the registry contract.
        prefix: key prefix for this sub-envelope; end it with a delimiter
            (e.g. ``"shard0_"``) so prefixes cannot shadow each other.

    Returns:
        ``{f"{prefix}__meta__": ..., f"{prefix}state__{k}": ...}`` arrays,
        invertible with :func:`unpack_substate`.
    """
    return _pack(index, prefix)


def _pack(index, prefix: str, **meta_fields) -> dict[str, np.ndarray]:
    """The envelope codec: meta blob (method, spec, ``meta_fields``) plus
    the state arrays, every key under ``prefix``."""
    method = getattr(type(index), "method_name", None)
    if method is None or not (hasattr(index, "spec") and hasattr(index, "state")):
        raise TypeError(
            f"{type(index).__name__} is not a registered method "
            "(missing @register_method / spec() / state())"
        )
    meta = {
        "format_version": _FORMAT_VERSION,
        "method": method,
        "spec": index.spec().to_dict(),
        **meta_fields,
    }
    out: dict[str, np.ndarray] = {f"{prefix}__meta__": _encode_meta(meta)}
    for key, value in index.state().items():
        if not isinstance(value, np.ndarray):
            raise TypeError(f"state() of {method!r} returned non-array entry {key!r}")
        out[f"{prefix}{_STATE_PREFIX}{key}"] = value
    return out


def unpack_substate(state: dict[str, np.ndarray], prefix: str):
    """Reconstruct an index packed by :func:`pack_substate` under ``prefix``
    (:func:`load_index` is this with the empty prefix)."""
    meta_key = f"{prefix}__meta__"
    if meta_key not in state:
        raise ValueError(f"no sub-envelope under prefix {prefix!r}")
    meta = _decode_meta(state[meta_key])
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format {meta.get('format_version')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    spec = IndexSpec.from_dict(meta["spec"])
    body_prefix = f"{prefix}{_STATE_PREFIX}"
    sub_state = {
        key[len(body_prefix):]: np.asarray(value)
        for key, value in state.items()
        if key.startswith(body_prefix)
    }
    return get_method(meta["method"]).from_state(spec, sub_state)


def load_index(path: str | Path):
    """Reconstruct an index saved by :func:`save_index`.

    The envelope names the method; the registered class's ``from_state``
    rebuilds the index, so the caller does not need to know what was saved.
    """
    path = Path(path)
    with np.load(path) as blob:
        if "__meta__" in blob.files:
            return unpack_substate({key: blob[key] for key in blob.files}, "")
        if "meta" in blob.files:
            return _load_v1(blob)
        raise ValueError(f"{path} is not a saved index (no envelope found)")


def inspect_index(path: str | Path) -> dict:
    """The envelope of a saved index without reconstructing it.

    Returns a dict with ``format_version``, ``method``, ``spec`` (as a
    dict), and ``extras``.
    """
    path = Path(path)
    with np.load(path) as blob:
        if "__meta__" in blob.files:
            return _decode_meta(blob["__meta__"])
        if "meta" in blob.files:
            meta = _decode_meta(blob["meta"])
            return {
                "format_version": meta.get("format_version"),
                "method": "promips",
                "spec": {"method": "promips", "params": meta.get("params", {})},
                "extras": {},
            }
    raise ValueError(f"{path} is not a saved index (no envelope found)")


def _load_v1(blob) -> "object":
    """Load the ProMIPS-only format version 1 of earlier releases."""
    from repro.core.promips import ProMIPS

    meta = _decode_meta(blob["meta"])
    if meta.get("format_version") != 1:
        raise ValueError(
            f"unsupported index format {meta.get('format_version')!r} "
            f"(expected {_FORMAT_VERSION} or the legacy 1)"
        )
    spec = IndexSpec("promips", meta["params"])
    state = {
        "data": np.asarray(blob["data"], dtype=np.float64),
        "projection_matrix": np.asarray(blob["projection_matrix"], dtype=np.float64),
        **{key: np.asarray(blob[key]) for key in blob.files if key.startswith("ring_")},
    }
    return ProMIPS.from_state(spec, state)
