"""Content-addressed on-disk cache of per-chunk estimation results.

The chunk engine (:func:`repro.parallel.sample_and_decode`) consumes
fixed deterministic chunks whose
content is a pure function of the run's configuration: the code, noise,
scheduler and decoder specs, the synthesis budget, the master seed, the
chunk plan (``Budget.plan_shots`` + chunk size) and the chunk index.  That
makes each chunk's ``(shots, errors)`` summary *content addressable* — this
module keys it by the SHA-256 of the canonical JSON of exactly those
inputs.

Deliberately **excluded** from the address:

``workers``
    an execution detail; the worker-invariance guarantee says it never
    changes results, so a cache written on an 8-core server is valid on a
    1-core laptop.
``target_rse`` / ``confidence`` / ``shots``
    precision knobs that decide *how many* chunks are consumed, never what
    a chunk contains.  A run with a tighter ``target_rse`` therefore
    *refines* a cached point — it replays every cached chunk and only
    samples the additional ones — instead of starting over.

Entries are one small JSON file each (sharded by key prefix, written
atomically via ``os.replace``), so concurrent processes can share a cache
directory without locking: the worst case is two processes computing the
same chunk and one idempotent overwrite winning.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.api.spec import RunSpec

__all__ = ["CACHE_VERSION", "ChunkSummary", "ChunkStore", "ResultCache", "chunk_address"]

#: Bump when the address schema or the chunk semantics change; the version
#: is folded into every key, so stale entries simply stop matching.
#: v2: ``RunSpec`` gained ``eval_stage`` (the evaluation seeding stage used
#: by the experiment suites), which enters the spec payload and therefore
#: the address of every chunk.
#: v3: ``RunSpec`` gained ``rounds`` (noisy syndrome rounds per memory
#: experiment), which likewise enters every chunk address.
#: (``RunSpec.sampler`` needed no bump: ``to_dict`` omits it at its default
#: ``"dem"`` — the historical sampling path — so old addresses keep
#: matching, while any non-default sampler enters the address and keys its
#: chunks separately.)
CACHE_VERSION = 3

#: Budget fields that never influence a chunk's content (see module docs).
_NON_CONTENT_BUDGET_FIELDS = ("shots", "target_rse", "max_shots", "confidence")


def chunk_address(spec: RunSpec, basis: str, index: int, chunk_shots: int) -> dict:
    """The canonical (pre-hash) address of one chunk of one run.

    ``plan_shots`` pins the chunk layout and seed-stream plan the chunk was
    drawn from; the spec enters minus ``workers`` and minus the precision
    knobs, per the module contract.
    """
    payload = spec.to_dict()
    payload.pop("workers", None)
    for field_name in _NON_CONTENT_BUDGET_FIELDS:
        payload["budget"].pop(field_name, None)
    return {
        "v": CACHE_VERSION,
        "spec": payload,
        "plan_shots": int(spec.budget.plan_shots),
        "chunk_shots": int(chunk_shots),
        "basis": basis,
        "chunk": int(index),
    }


def _key_of(address: dict) -> str:
    canonical = json.dumps(address, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChunkSummary:
    """Persisted outcome of one chunk: sample size and logical-error count."""

    shots: int
    errors: int


class ChunkStore:
    """One run-and-basis view of a :class:`ResultCache`.

    The chunk engine talks to this narrow interface only; the store
    resolves chunk indices to content-addressed files underneath.
    """

    def __init__(self, cache: "ResultCache", spec: RunSpec, basis: str, chunk_shots: int) -> None:
        self._cache = cache
        self._spec = spec
        self._basis = basis
        self._chunk_shots = int(chunk_shots)

    def _address(self, index: int) -> dict:
        return chunk_address(self._spec, self._basis, index, self._chunk_shots)

    def get(self, index: int) -> ChunkSummary | None:
        """The persisted summary of chunk ``index``, or ``None`` on a miss.

        Every call reads the file: the engine asks for each index once, and
        another process may fill a miss in the meantime.
        """
        payload = self._cache._read(_key_of(self._address(index)))
        if payload is None:
            return None
        try:
            return ChunkSummary(shots=int(payload["shots"]), errors=int(payload["errors"]))
        except (KeyError, TypeError, ValueError):
            return None  # corrupt entry: fall back to resampling it

    def put(self, index: int, shots: int, errors: int) -> None:
        """Persist chunk ``index`` (atomic; idempotent across processes)."""
        address = self._address(index)
        self._cache._write(
            _key_of(address),
            {"address": address, "shots": int(shots), "errors": int(errors)},
        )


class ResultCache:
    """A directory of content-addressed chunk summaries.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level sharding keeps
    directory listings manageable for large sweeps.  All methods tolerate a
    missing root (a fresh cache is just an empty directory).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r})"

    # ------------------------------------------------------------------
    # Store construction
    # ------------------------------------------------------------------
    def chunk_store(self, spec: RunSpec, basis: str, chunk_shots: int) -> ChunkStore:
        """The :class:`ChunkStore` for one (run spec, basis) pair."""
        return ChunkStore(self, spec, basis, chunk_shots)

    # ------------------------------------------------------------------
    # Raw entry IO
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _read(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        return payload if isinstance(payload, dict) else None

    def _write(self, key: str, payload: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: readers either see the old entry or the complete
        # new one, never a torn write — the cross-process safety story.
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Inspection / maintenance (the `repro cache` CLI surface)
    # ------------------------------------------------------------------
    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self._entry_files())

    def entries(self) -> "list[dict]":
        """Every readable entry's payload, with its key under ``"key"``."""
        rows = []
        for path in self._entry_files():
            try:
                payload = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                continue
            if isinstance(payload, dict):
                payload["key"] = path.stem
                rows.append(payload)
        return rows

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (unreadable stragglers) — leave it
        return removed
