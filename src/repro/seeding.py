"""Deterministic seed-stream derivation shared by the whole library.

Every stage of the pipeline (synthesis, per-basis sampling, per-shard
sampling, noise-profile drawing, ...) needs its own independent random
stream, derived reproducibly from one user-facing integer seed.  The
historical approach — ad-hoc ``seed``, ``seed + 1``, ``seed + 11`` offsets
scattered through the estimator and the experiment drivers — silently
correlates streams whenever two call sites pick overlapping offsets.  This
module centralises the derivation on :class:`numpy.random.SeedSequence`,
whose ``spawn`` mechanism guarantees statistically independent children.

Three derivation primitives cover every use in the library:

``spawn_streams(seed, n)``
    ``n`` ordered independent child streams of ``seed`` (positional stages,
    e.g. the two logical bases of a memory experiment, or shot shards).

``named_stream(seed, stage)``
    an independent stream keyed by a *stage name* (e.g. ``"synthesis"``,
    ``"evaluation"``), stable under insertion or reordering of other stages.

``stream_to_int(stream)``
    collapse a stream to a plain integer for legacy APIs that accept only
    ``seed: int`` (e.g. :class:`repro.core.MCTSConfig`).

``None`` propagates through all helpers, preserving "fresh OS entropy"
semantics end to end.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "SeedLike",
    "as_seed_sequence",
    "spawn_streams",
    "named_stream",
    "stage_seed",
    "stream_to_int",
]

#: Anything accepted wherever the library takes a seed.
SeedLike = "int | np.random.SeedSequence | None"

_ENTROPY_MASK = (1 << 64) - 1


def as_seed_sequence(seed: int | np.random.SeedSequence | None) -> np.random.SeedSequence | None:
    """Coerce ``seed`` to a :class:`~numpy.random.SeedSequence` (``None`` passes through)."""
    if seed is None:
        return None
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed) & _ENTROPY_MASK)


def spawn_streams(
    seed: int | np.random.SeedSequence | None, n: int
) -> list[np.random.SeedSequence | None]:
    """Return ``n`` independent child streams of ``seed`` (all ``None`` if unseeded)."""
    root = as_seed_sequence(seed)
    if root is None:
        return [None] * n
    return root.spawn(n)


def named_stream(
    seed: int | np.random.SeedSequence | None, stage: str
) -> np.random.SeedSequence | None:
    """Return an independent stream for ``(seed, stage)``.

    Unlike :func:`spawn_streams`, the derivation depends only on the stage
    *name*, so adding or reordering stages elsewhere never shifts a stage's
    stream (which positional ``spawn`` indices would).
    """
    root = as_seed_sequence(seed)
    if root is None:
        return None
    entropy = list(root.entropy) if isinstance(root.entropy, (list, tuple)) else [root.entropy]
    # Fold in the spawn_key so spawned children of the same root derive
    # distinct named streams (the entropy alone is shared by all children).
    entropy += list(root.spawn_key)
    return np.random.SeedSequence(entropy + [zlib.crc32(stage.encode("utf-8"))])


def stream_to_int(stream: np.random.SeedSequence | None) -> int | None:
    """Collapse a stream to a 32-bit integer seed for ``seed: int`` APIs."""
    if stream is None:
        return None
    return int(stream.generate_state(1, np.uint32)[0])


def stage_seed(
    seed: int | np.random.SeedSequence | None, stage: str
) -> int | None:
    """Integer form of :func:`named_stream` for ``seed: int`` APIs.

    One call for the common ``stream_to_int(named_stream(seed, stage))``
    composition, so every stage-seed consumer (the ``alphasyndrome``
    registry builder and the experiment suites) derives identical integers
    by construction.
    """
    return stream_to_int(named_stream(seed, stage))
