"""Sharded on-disk result store, safe for concurrent writers.

This extends the harness's original flat atomic cache (temp file +
``os.replace`` in one directory) into the store every sweep's workers
share:

* **Keys** carry everything that can change a result: benchmark,
  scheduler, grid config, the package *fingerprint* (a hash of every
  ``repro`` source file), a hash of the workload source, and a hash of
  the :class:`~repro.machine.MachineConfig` the point was simulated
  under.  A sweep therefore can never read a result computed under
  other sources or a different machine.
* **Sharding**: entries live in ``<root>/<dd>/`` where ``dd`` is the
  first byte (two hex digits) of the key digest — 256 directories, so
  heavy concurrent writers (grid workers, several sweeps sharing one
  cache) spread their directory-entry churn instead of serializing on
  one directory's mutex.
* **Atomic writes**: a temp file created next to the target and
  published with ``os.replace``; readers never observe a torn entry and
  racing writers of the same deterministic entry simply both publish
  identical bytes.  The temp file is unlinked in a ``finally`` so no
  failure path leaks it.
* **Orphan reaping**: a writer killed hard (SIGKILL, OOM, power loss)
  between ``mkstemp`` and ``os.replace`` can still leak its temp file.
  :meth:`ResultStore.reap_orphans` sweeps ``*.tmp`` files older than
  the current run at startup; live writers are protected by a grace
  window.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..obs.metrics import REGISTRY as _METRICS

#: Store traffic counters (repro.obs.metrics): every load is a hit, a
#: miss, or a torn-entry error; stores and reaped orphans are counted
#: too.  Recording never changes what the store returns.
_STORE_HITS = _METRICS.counter(
    "repro_store_hits_total", "result-store loads served from disk")
_STORE_MISSES = _METRICS.counter(
    "repro_store_misses_total", "result-store loads that found nothing")
_STORE_ERRORS = _METRICS.counter(
    "repro_store_errors_total",
    "torn/unreadable store entries dropped on load")
_STORE_WRITES = _METRICS.counter(
    "repro_store_writes_total", "result-store entries published")
_STORE_REAPED = _METRICS.counter(
    "repro_store_orphans_reaped_total",
    "orphaned temp files removed at startup")

#: Temp files older than (run start - grace) are considered orphaned.
#: The grace window protects a concurrent process's in-flight write
#: that happened to start just before this one.
REAP_GRACE_SECONDS = 60.0

#: Suffix given to every in-flight atomic write.
TMP_SUFFIX = ".tmp"


def atomic_write_json(path: Path, payload) -> None:
    """Write JSON atomically: temp file in the same directory, then
    ``os.replace``.  Readers never observe a torn file, concurrent
    writers of the same (deterministic) entry race to publish identical
    contents, and the temp file is always unlinked — success moves it
    over the target, every failure path removes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    finally:
        # Only a process killed between mkstemp and replace can still
        # leak the temp file; reap_orphans() collects those at startup.
        try:
            os.unlink(tmp)
        except OSError:
            pass


def source_hash(source: str) -> str:
    """Short digest of one workload's source text."""
    return hashlib.sha256(source.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class StoreKey:
    """Complete identity of one cached grid-point result."""

    benchmark: str
    scheduler: str
    config: str
    fingerprint: str      # package-source fingerprint
    source_hash: str      # workload-source digest
    machine_hash: str     # MachineConfig digest

    @property
    def digest(self) -> str:
        body = "\x00".join((self.benchmark, self.scheduler, self.config,
                            self.fingerprint, self.source_hash,
                            self.machine_hash))
        return hashlib.sha256(body.encode()).hexdigest()

    @property
    def shard(self) -> str:
        """Two-hex-digit shard directory name."""
        return self.digest[:2]

    @property
    def filename(self) -> str:
        return (f"{self.benchmark}-{self.scheduler}-{self.config}-"
                f"{self.fingerprint}-{self.source_hash}-"
                f"{self.machine_hash}.json")


class ResultStore:
    """Fingerprint-sharded JSON result cache under one root directory.

    The store only moves bytes; interpreting a payload (e.g. as a
    :class:`~repro.harness.experiment.RunResult`) is the caller's job.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # ---------------------------------------------------------- layout
    def path_for(self, key: StoreKey) -> Path:
        return self.root / key.shard / key.filename

    def shards(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir()
                      if p.is_dir() and len(p.name) == 2)

    def entries(self) -> list[Path]:
        """Every published entry across all shards."""
        return sorted(p for shard in self.shards()
                      for p in shard.glob("*.json"))

    # ------------------------------------------------------------- i/o
    def load(self, key: StoreKey) -> Optional[dict]:
        """The payload for *key*, or None.  Torn or unreadable entries
        are unlinked so the next writer's fresh copy replaces them."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            _STORE_MISSES.inc()
            return None
        except (ValueError, OSError):
            _STORE_ERRORS.inc()
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        _STORE_HITS.inc()
        return payload

    def store(self, key: StoreKey, payload: dict) -> Path:
        path = self.path_for(key)
        atomic_write_json(path, payload)
        _STORE_WRITES.inc()
        return path

    # -------------------------------------------------------- reaping
    def reap_orphans(self, older_than: Optional[float] = None,
                     grace: float = REAP_GRACE_SECONDS) -> list[Path]:
        """Unlink temp files abandoned by crashed/killed writers.

        *older_than* is a UNIX timestamp (default: now); any ``*.tmp``
        file under the root whose mtime predates ``older_than - grace``
        cannot belong to a live writer of the current run and is
        removed.  Returns the reaped paths (for logging/tests).
        """
        if not self.root.is_dir():
            return []
        cutoff = (time.time() if older_than is None else older_than) \
            - grace
        reaped: list[Path] = []
        for path in self.root.rglob(f"*{TMP_SUFFIX}"):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
                reaped.append(path)
            except OSError:
                # Raced with the writer publishing or another reaper.
                continue
        if reaped:
            _STORE_REAPED.inc(len(reaped))
        return reaped
