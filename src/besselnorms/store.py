"""The one result store: truncated integrals, held in memory and, when a
CLI run names a file with --cache, mirrored to that JSON file.

An entry is keyed by its full identity: kind ("power" or "cross"), d, p, k,
the resolved radius R and QuadConfig.key().  Only the truncated integral on
[0, R] is stored; callers add the tail bound when they read it, so norms,
verifiers, sweeps and the reproduction tables share entries.  The file
carries only the engine version: a file from another version is discarded
whole, and an entry that does not decode to a valid enclosure is dropped.

The store also holds, in memory only, the J values its even-exponent
integrals have evaluated, keyed by order and node array
(quadrature._amplitude): those integrals at one radius share their starting
nodes, so a command evaluates each order there once.  save() never writes
them.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from . import __version__
from .quadrature import DEFAULT_QUAD_CONFIG, Enclosure, QuadConfig

__all__ = ["ResultCache", "current", "using"]


def _entry_key(kind: str, d: int, p: float, k: int, R: float, cfg: QuadConfig) -> str:
    return repr((kind, int(d), float(p), int(k), float(R), cfg.key()))


def _decode(entry) -> Enclosure:
    """[lower, upper, truncation_bound, quad_error_bound] back to an Enclosure,
    whose constructor rejects inconsistent ends and budgets."""
    if not (isinstance(entry, list) and len(entry) == 4 and all(isinstance(v, float) and math.isfinite(v) for v in entry)):
        raise ValueError(f"malformed entry {entry!r}")
    return Enclosure(*entry)


class ResultCache:
    """Stored truncated integrals; backed by a JSON file when path is given.

    config_digest is the engine-version stamp a file must carry to be read.
    """

    def __init__(self, path: str | None = None, config_digest: str = __version__):
        self.path = None if path is None else Path(path).expanduser()
        self.config_digest = config_digest
        self.data: dict = {}
        self.bessel: dict = {}
        self.dirty = False
        if self.path is not None:
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if isinstance(payload, dict) and payload.get("config_digest") == self.config_digest:
            entries = payload.get("entries")
            self.data = entries if isinstance(entries, dict) else {}

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps({"config_digest": self.config_digest, "entries": self.data}, sort_keys=True))
            self.dirty = False
        except OSError:
            pass

    def get_enclosure(self, key: str) -> Enclosure | None:
        entry = self.data.get(key)
        if entry is None:
            return None
        try:
            return _decode(entry)
        except ValueError:
            del self.data[key]
            self.dirty = True
            return None

    def clear(self) -> None:
        """Drop the in-memory entries and J values; the file is untouched."""
        self.data.clear()
        self.bessel.clear()

    def enclosure(
        self,
        kind: str,
        compute: Callable[..., Enclosure],
        d: int,
        p: float,
        k: int,
        R: float,
        cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    ) -> Enclosure:
        """The stored truncated integral; compute(d, p, k, R, cfg, kind,
        self.bessel) on a miss, so that it shares this store's J values."""
        key = _entry_key(kind, d, p, k, R, cfg)
        enc = self.get_enclosure(key)
        if enc is None:
            enc = compute(d, p, k, R, cfg, kind, self.bessel)
            self.data[key] = [enc.lower, enc.upper, enc.truncation_bound, enc.quad_error_bound]
            self.dirty = True
        return enc


_current = ResultCache()


def current() -> ResultCache:
    """The store every norm, cross norm and reproduction row reads and writes."""
    return _current


@contextmanager
def using(cache: ResultCache):
    """Make cache the current store for the duration of the block."""
    global _current
    previous, _current = _current, cache
    try:
        yield cache
    finally:
        _current = previous
