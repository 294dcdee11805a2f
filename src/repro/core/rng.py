"""Shared RNG coercion for every index constructor and ``from_spec``.

Every randomized method in the repository accepts the same spectrum of
``rng`` arguments — an existing :class:`numpy.random.Generator`, an integer
seed, or ``None`` for OS entropy — and resolves it through
:func:`resolve_rng`.  Centralising the coercion keeps the behaviour uniform
(a ``Generator`` passes through untouched, so several builds can share one
stream) and gives specs a single documented seeding story.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["resolve_rng", "generator_state", "restore_generator"]


def resolve_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce ``rng`` to a :class:`numpy.random.Generator`.

    Args:
        rng: an existing generator (returned as-is, sharing its stream), an
            integer seed, or ``None`` for a fresh OS-seeded generator.

    Raises:
        TypeError: for anything else (a float seed is almost always a bug).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be a numpy Generator, an int seed, or None, got {type(rng).__name__}"
    )


def generator_state(rng: np.random.Generator) -> np.ndarray:
    """The exact position of ``rng`` as a ``uint8`` array (JSON bytes).

    ``bit_generator.state`` holds integers wider than 64 bits (PCG64's
    128-bit state) and, for some bit generators, arrays (MT19937's key), so
    it is stored as JSON text, which fits the pickle-free ``.npz``
    envelope; :func:`restore_generator` inverts it.
    """
    text = json.dumps(rng.bit_generator.state, default=lambda arr: arr.tolist())
    return np.frombuffer(text.encode(), dtype=np.uint8)


def restore_generator(blob: np.ndarray) -> np.random.Generator:
    """A generator at exactly the position :func:`generator_state` recorded.

    Raises:
        ValueError: if the recorded bit generator is not a numpy
            :class:`~numpy.random.BitGenerator` class.
    """
    state = json.loads(bytes(np.asarray(blob, dtype=np.uint8).tobytes()).decode())
    cls = getattr(np.random, str(state.get("bit_generator")), None)
    if not (isinstance(cls, type) and issubclass(cls, np.random.BitGenerator)):
        raise ValueError(f"unknown bit generator {state.get('bit_generator')!r}")
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
