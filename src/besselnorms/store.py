"""The one result store: truncated integrals, held in memory and, when a
CLI run names a file with --cache, journaled to that file.

An entry is keyed by its full identity: kind ("power" or "cross"), d, p, k,
the resolved radius R and QuadConfig.key().  Only the truncated integral on
[0, R] is stored; callers add the tail bound when they read it, so norms,
verifiers, sweeps and the reproduction tables share entries.  The J values
its even-exponent integrals evaluate, keyed by order and node array
(quadrature._amplitude), stay in memory so that a command evaluates each
order once at shared nodes; save() never writes them.

The file's first line is the engine-version stamp, config_digest; each entry
then starts a line of its own, key<TAB>[lower, upper, truncation_bound,
quad_error_bound].  save() appends, in one write, only the entries the
command computed, so a warm command does not touch the file, and a torn last
line ends where the next append begins.  A file that does not start with the
stamp is discarded whole.  A line is decoded only when read: the last line
for a key wins, and one that does not decode is dropped and recomputed.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, suppress
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
    """Stored truncated integrals; journaled to a file when path is given."""

    def __init__(self, path: str | None = None, config_digest: str = __version__):
        self.path = None if path is None else Path(path).expanduser()
        self.config_digest = config_digest
        self.data: dict[str, str] = {}  # key -> undecoded value
        self.bessel: dict = {}
        self.added: list[str] = []  # keys computed since the last save
        self.journaled = False  # whether the file is a journal of this version
        if self.path is not None:
            self._load()

    def _load(self) -> None:
        try:
            stamp, *lines = self.path.read_text().split("\n")
        except (OSError, ValueError):
            return
        if stamp == self.config_digest:
            self.journaled = True
            self.data = dict(line.split("\t", 1) for line in lines if "\t" in line)

    def save(self) -> None:
        if self.path is None or not self.added:
            return
        text = "".join(f"\n{key}\t{self.data[key]}" for key in self.added)
        with suppress(OSError):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("ab" if self.journaled else "wb", buffering=0) as fh:
                fh.write((text if self.journaled else self.config_digest + text).encode())
            self.added.clear()
            self.journaled = True

    def get_enclosure(self, key: str) -> Enclosure | None:
        if key in self.data:
            try:
                return _decode(json.loads(self.data[key]))
            except ValueError:
                del self.data[key]
        return None

    def clear(self) -> None:
        """Drop the in-memory entries and J values; the file is untouched."""
        self.data.clear()
        self.bessel.clear()
        self.added.clear()

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
            self.data[key] = json.dumps([enc.lower, enc.upper, enc.truncation_bound, enc.quad_error_bound])
            self.added.append(key)
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
