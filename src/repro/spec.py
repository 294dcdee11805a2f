"""Declarative index specs and the self-registering method registry.

Every MIPS method in the repository is addressed by a declarative
:class:`IndexSpec` — a method name plus a flat dict of typed parameters —
instead of a bespoke constructor call.  Specs are constructible from
keyword arguments, a plain dict, or a parseable string::

    IndexSpec("promips", {"c": 0.9, "p": 0.5})
    IndexSpec.parse("promips(c=0.9, p=0.5)")
    IndexSpec.coerce({"method": "h2alsh", "params": {"c": 0.8}})

and round-trip through their string form (``IndexSpec.parse(str(spec)) ==
spec``), which is what lets the persistence layer record exactly how an
index was configured.

The **registry contract**: an index class registers itself with the
:func:`register_method` decorator and implements four members —

* ``from_spec(data, spec, rng=None)`` (classmethod): build the index from a
  dataset and a spec; ``rng`` passes through :func:`repro.core.rng.resolve_rng`.
* ``spec()``: the round-trippable current configuration as an
  :class:`IndexSpec` (canonical method name, fully resolved parameters).
* ``state()``: the built index's arrays as a flat ``dict[str, np.ndarray]``
  (everything its searches need that is not derivable from ``spec()``).
* ``from_state(spec, state)`` (classmethod): reconstruct a built index from
  ``spec()`` + ``state()`` output with bit-identical search behaviour.

:func:`build_index` dispatches a spec to the registered class, and
``repro.core.persist`` uses the same contract to save/load **any**
registered method through one versioned ``.npz`` envelope.

Registered methods (canonical names): ``promips``, ``dynamic``, ``h2alsh``,
``rangelsh``, ``pq``, ``exact``, ``simhash``, and the composite ``sharded``
(horizontal partitioning over any of the others).  The paper's display names
("ProMIPS", "H2-ALSH", "Range-LSH", "PQ-Based", ...) are registered aliases,
so harness and CLI names resolve to the same classes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

from repro.core.rng import resolve_rng

__all__ = [
    "IndexSpec",
    "register_method",
    "get_method",
    "registered_methods",
    "build_index",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_SPEC_RE = re.compile(r"(?s)\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*(?:\((.*)\))?\s*")


def _normalize(name: str) -> str:
    """Registry key for a method name: case- and punctuation-insensitive."""
    return re.sub(r"[^a-z0-9]", "", name.lower())


def _coerce_value(value):
    """Normalise a parameter value to a plain spec literal (or raise)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_coerce_value(v) for v in value)
    raise TypeError(
        "spec parameter values must be None, bool, int, float, str or "
        f"tuples of those, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class IndexSpec:
    """A method name plus its typed build parameters.

    Attributes:
        method: registered method name (matched case/punctuation-insensitively,
            so ``"ProMIPS"``, ``"promips"`` and ``"H2-ALSH"``/``"h2alsh"``
            address the same classes).
        params: flat parameter mapping; values are plain literals so every
            spec round-trips through ``str``/:meth:`parse` and JSON.
    """

    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not _NAME_RE.fullmatch(self.method):
            raise ValueError(f"invalid method name {self.method!r}")
        clean = {}
        for key, value in dict(self.params).items():
            if not isinstance(key, str) or not key.isidentifier():
                raise ValueError(f"invalid parameter name {key!r}")
            clean[key] = _coerce_value(value)
        object.__setattr__(self, "params", clean)

    # ------------------------------------------------------------ construction

    @classmethod
    def parse(cls, text: str) -> "IndexSpec":
        """Parse ``"name"`` or ``"name(key=value, ...)"`` into a spec.

        Values use Python literal syntax: ``promips(c=0.9, p=0.5, m=None)``,
        ``simhash(n_bits=32)``, ``exact``.
        """
        if not isinstance(text, str):
            raise TypeError(f"expected a spec string, got {type(text).__name__}")
        match = _SPEC_RE.fullmatch(text)
        if match is None:
            raise ValueError(f"unparseable index spec {text!r}")
        name, args = match.group(1), match.group(2)
        params: dict = {}
        if args and args.strip():
            try:
                call = ast.parse(f"_spec({args})", mode="eval").body
            except SyntaxError as exc:
                raise ValueError(f"unparseable spec parameters in {text!r}") from exc
            if call.args:
                raise ValueError(
                    f"spec parameters must be keyword=value pairs, got {text!r}"
                )
            for kw in call.keywords:
                if kw.arg is None:
                    raise ValueError(f"'**' is not allowed in a spec: {text!r}")
                try:
                    params[kw.arg] = ast.literal_eval(kw.value)
                except ValueError as exc:
                    raise ValueError(
                        f"parameter {kw.arg!r} in {text!r} is not a literal"
                    ) from exc
        return cls(name, params)

    @classmethod
    def coerce(cls, spec: "IndexSpec | str | dict") -> "IndexSpec":
        """Normalise any accepted spec form (spec, string, dict) to a spec."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        raise TypeError(
            f"cannot interpret {type(spec).__name__} as an IndexSpec "
            "(expected IndexSpec, str, or dict)"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexSpec":
        """Build from ``{"method": ..., "params": {...}}`` (params optional)."""
        extra = set(payload) - {"method", "params"}
        if "method" not in payload or extra:
            raise ValueError(
                f"spec dict needs 'method' and optional 'params', got {sorted(payload)}"
            )
        return cls(payload["method"], dict(payload.get("params") or {}))

    # ------------------------------------------------------------- conversion

    def to_dict(self) -> dict:
        """JSON-ready form, the inverse of :meth:`from_dict`."""
        return {"method": self.method, "params": dict(self.params)}

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.method}({inner})"


# --------------------------------------------------------------------- registry

_REGISTRY: dict[str, type] = {}

# Modules whose import registers every built-in method (kept lazy so that
# `import repro.spec` inside an index module is cycle-free).
_METHOD_MODULES = (
    "repro.core.promips",
    "repro.core.dynamic",
    "repro.baselines.exact",
    "repro.baselines.simhash",
    "repro.baselines.rangelsh",
    "repro.baselines.h2alsh",
    "repro.baselines.pq",
    "repro.core.sharded",
)


def register_method(name: str, *, aliases: tuple[str, ...] = ()):
    """Class decorator: register an index class under ``name`` (+ aliases).

    Sets ``cls.method_name`` to the canonical name.  The decorated class must
    implement the registry contract (``from_spec`` / ``spec`` / ``state`` /
    ``from_state``, see the module docstring).
    """

    def decorate(cls: type) -> type:
        cls.method_name = name
        for alias in (name, *aliases):
            key = _normalize(alias)
            current = _REGISTRY.get(key)
            if current is not None and current is not cls:
                raise ValueError(
                    f"method alias {alias!r} already registered to "
                    f"{current.__name__}"
                )
            _REGISTRY[key] = cls
        return cls

    return decorate


def _ensure_registered() -> None:
    for module in _METHOD_MODULES:
        import_module(module)


def get_method(name: str) -> type:
    """The registered index class for a method name or alias."""
    _ensure_registered()
    cls = _REGISTRY.get(_normalize(name))
    if cls is None:
        raise KeyError(
            f"unknown method {name!r}; registered: {registered_methods()}"
        )
    return cls


def registered_methods() -> list[str]:
    """Sorted canonical names of every registered method."""
    _ensure_registered()
    return sorted({cls.method_name for cls in _REGISTRY.values()})


def build_index(
    spec: IndexSpec | str | dict,
    data: np.ndarray,
    rng: np.random.Generator | int | None = None,
):
    """Build any registered method from a declarative spec.

    Args:
        spec: an :class:`IndexSpec`, a parseable string like
            ``"promips(c=0.9, p=0.5)"``, or a ``{"method", "params"}`` dict.
        data: ``(n, d)`` dataset to index.
        rng: generator or seed (see :func:`repro.core.rng.resolve_rng`).

    Returns:
        A built index satisfying :class:`repro.api.MIPSIndex`.
    """
    spec = IndexSpec.coerce(spec)
    cls = get_method(spec.method)
    try:
        return cls.from_spec(data, spec, rng=resolve_rng(rng))
    except TypeError as exc:
        raise ValueError(f"invalid parameters for {spec.method!r}: {exc}") from exc
