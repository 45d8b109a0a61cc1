"""Content-addressed on-disk cache of session summaries.

One JSON file per session, named by the spec's sha256 content address.
Workers reduce a finished session to a
:class:`~repro.metrics.summary.SessionSummary` before it ever reaches the
cache, so entries are small scalar rows, not multi-megabyte traces.
JSON round-trips Python floats exactly (shortest-repr parsing), so a
cache hit reproduces the summary bit for bit.  A format-3 entry that
an older writer gave a compressed ``key.npz`` column blob (referenced,
with its own sha256, from the entry document) still reads as a verified
hit, and the blob moves with its entry into quarantine.

Writes are atomic (temp file + rename) so parallel workers racing on the
same key at worst redo the work, never corrupt an entry.  Reads verify a
sha256 checksum over the summary payload, so damage *after* the write —
a torn write on a full disk, a flipped bit on bad media — is detected
and classified, not silently deserialised.  :meth:`ResultCache.lookup`
distinguishes three outcomes:

* **hit** — entry present, version readable (current v3, or a v2 entry
  read-migrated transparently), checksum verified;
* **miss** — no entry, or an entry from an unreadable format version
  (harmless: the runner recomputes and overwrites);
* **corrupt** — an entry that exists but fails parsing or checksum
  verification.  The runner moves it aside with
  :meth:`ResultCache.quarantine` and recomputes (the *degraded* path in
  ``docs/FAILURE_MODES.md``).

I/O failures other than a missing file raise
:class:`~repro.errors.CacheError`; interrupts propagate untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from .spec import CACHE_FORMAT_VERSION
from ..errors import CacheError
from ..metrics.summary import SessionSummary

#: Entry file versions this reader accepts.  Version 2 entries (no
#: column blob support) remain verified hits — transparent
#: read-migration — while anything else is a plain miss.
READABLE_VERSIONS = frozenset({2, CACHE_FORMAT_VERSION})

__all__ = [
    "CacheLookup",
    "ResultCache",
    "READABLE_VERSIONS",
    "summary_to_dict",
    "summary_from_dict",
    "summary_checksum",
]


def summary_to_dict(summary: SessionSummary) -> dict:
    """JSON-ready form of a summary row."""
    return {
        "platform": summary.platform,
        "policy": summary.policy,
        "workload": summary.workload,
        "seed": summary.seed,
        "duration_seconds": summary.duration_seconds,
        "mean_power_mw": summary.mean_power_mw,
        "mean_cpu_power_mw": summary.mean_cpu_power_mw,
        "energy_mj": summary.energy_mj,
        "mean_frequency_khz": summary.mean_frequency_khz,
        "mean_online_cores": summary.mean_online_cores,
        "mean_load_percent": summary.mean_load_percent,
        "mean_scaled_load_percent": summary.mean_scaled_load_percent,
        "load_std_percent": summary.load_std_percent,
        "mean_quota": summary.mean_quota,
        "mean_fps": summary.mean_fps,
        "dvfs_transitions": summary.dvfs_transitions,
        "hotplug_transitions": summary.hotplug_transitions,
        "workload_metrics": dict(summary.workload_metrics),
    }


def summary_from_dict(payload: dict) -> SessionSummary:
    """Rebuild a summary row from :func:`summary_to_dict` output."""
    return SessionSummary(**payload)


def summary_checksum(payload: dict) -> str:
    """sha256 hex over the canonical JSON form of a summary payload.

    Canonicalisation (sorted keys, tight separators) makes the checksum
    a function of the summary's *values*, not of JSON whitespace — the
    same canonical form the cache key itself hashes.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheLookup:
    """The classified result of one cache read.

    Attributes:
        status: ``"hit"``, ``"miss"``, or ``"corrupt"``.
        summary: The cached summary on a hit, else ``None``.
        detail: Human-readable reason for a corrupt entry (checksum
            mismatch, truncated JSON, malformed summary...); empty
            otherwise.
        version: The entry file's format version on a hit (``2`` for a
            read-migrated pre-columnar entry, ``3`` for current), else
            ``None``.
    """

    status: str
    summary: Optional[SessionSummary] = None
    detail: str = ""
    version: Optional[int] = None

    @property
    def hit(self) -> bool:
        """True when the entry was present and verified."""
        return self.status == "hit"

    @property
    def corrupt(self) -> bool:
        """True when an entry exists but cannot be trusted."""
        return self.status == "corrupt"


class ResultCache:
    """Content-addressed store: cache key -> session summary.

    Args:
        root: Directory holding the entries; created on first use.
        on_store: Optional callback invoked as ``on_store(key, document)``
            after each successful :meth:`store` write, with the exact
            entry document that landed on disk.  The experiment store
            (:class:`~repro.store.ExperimentStore`) hooks this to ingest
            writes into its sqlite index as they happen; the cache itself
            never depends on the callback.
    """

    #: Subdirectory (under ``root``) where corrupt entries are moved.
    QUARANTINE_DIR = "quarantine"

    def __init__(
        self,
        root: Union[str, Path],
        on_store: Optional[Callable[[str, dict], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.on_store = on_store

    def path(self, key: str) -> Path:
        """Where *key*'s entry lives."""
        return self.root / f"{key}.json"

    def columns_path(self, key: str) -> Path:
        """Where *key*'s ``.npz`` column blob lives, if an older writer left one."""
        return self.root / f"{key}.npz"

    @property
    def quarantine_root(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.root / self.QUARANTINE_DIR

    def lookup(self, key: str) -> CacheLookup:
        """Read and classify *key*'s entry (hit / miss / corrupt).

        A missing file or an entry written by an unreadable format
        version is a plain miss; version-2 entries are still verified
        hits (read-migration — their summary schema is unchanged).  An
        entry that exists at a readable version but fails JSON parsing,
        checksum verification, or summary reconstruction is *corrupt* —
        the caller should :meth:`quarantine` it and recompute.
        Unexpected I/O failures raise
        :class:`~repro.errors.CacheError`; interrupts propagate.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return CacheLookup("miss")
        except OSError as error:
            raise CacheError(f"cannot read cache entry {key}: {error}") from error
        try:
            document = json.loads(text)
        except ValueError as error:
            return CacheLookup("corrupt", detail=f"unparseable JSON: {error}")
        if not isinstance(document, dict):
            return CacheLookup("corrupt", detail="entry is not a JSON object")
        version = document.get("version")
        if version not in READABLE_VERSIONS:
            # A format migration we cannot read, not damage: recompute
            # and overwrite.  Version-2 entries read fine (their summary
            # schema and checksum are unchanged) and migrate for free.
            return CacheLookup("miss")
        payload = document.get("summary")
        if not isinstance(payload, dict):
            return CacheLookup("corrupt", detail="summary payload missing")
        expected = document.get("checksum")
        actual = summary_checksum(payload)
        if expected != actual:
            return CacheLookup(
                "corrupt",
                detail=f"checksum mismatch (stored {str(expected)[:12]}..., "
                f"computed {actual[:12]}...)",
            )
        try:
            return CacheLookup(
                "hit", summary=summary_from_dict(payload), version=version
            )
        except (KeyError, TypeError) as error:
            return CacheLookup("corrupt", detail=f"malformed summary: {error}")

    def load(self, key: str) -> Optional[SessionSummary]:
        """The cached summary for *key*, or None on any kind of non-hit.

        The lenient wrapper around :meth:`lookup` for callers that do
        not distinguish miss from corrupt; I/O failures still raise
        :class:`~repro.errors.CacheError`.
        """
        return self.lookup(key).summary

    def quarantine(self, key: str) -> Optional[Path]:
        """Move *key*'s entry into the quarantine directory.

        Returns the quarantined path, or ``None`` when the entry vanished
        (another process already quarantined or overwrote it).  The file
        keeps its name, so the content address it claimed is preserved
        for post-mortem diffing against the recomputed entry.
        """
        source = self.path(key)
        target = self.quarantine_root / source.name
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(source, target)
        except FileNotFoundError:
            return None
        except OSError as error:
            raise CacheError(f"cannot quarantine cache entry {key}: {error}") from error
        # A column blob without its entry is unverifiable (the checksum
        # lives in the entry): move it aside with the entry.
        try:
            os.replace(
                self.columns_path(key),
                self.quarantine_root / self.columns_path(key).name,
            )
        except FileNotFoundError:
            pass
        except OSError as error:
            raise CacheError(
                f"cannot quarantine cache columns {key}: {error}"
            ) from error
        return target

    def store(self, key: str, summary: SessionSummary, spec_payload: dict) -> None:
        """Atomically persist *summary* under *key*.

        The spec payload is stored alongside for debuggability (a human
        can read what produced an entry); only the key is ever matched.
        The stored checksum covers the summary payload, so later reads
        can tell damage from a legitimate entry.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(f"cannot create cache root {self.root}: {error}") from error
        payload = summary_to_dict(summary)
        document = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "spec": spec_payload,
            "summary": payload,
            "checksum": summary_checksum(payload),
        }
        text = json.dumps(document, sort_keys=True)
        self._write_atomic(self.path(key), text.encode("utf-8"), key)
        if self.on_store is not None:
            self.on_store(key, document)

    def read_document(self, key: str) -> Optional[dict]:
        """The raw entry document for *key*, or ``None`` when unreadable.

        Returns the parsed JSON object exactly as :meth:`store` wrote it
        (version, key, spec, summary, checksum, optional columns) without
        checksum verification — callers that need a trusted summary use
        :meth:`lookup`.  Used by the experiment store so live ingest and
        lazy backfill index the same document shape.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (FileNotFoundError, ValueError):
            return None
        except OSError as error:
            raise CacheError(f"cannot read cache entry {key}: {error}") from error
        if not isinstance(document, dict):
            return None
        return document

    def keys(self) -> Iterator[str]:
        """Keys of every entry file in the cache root, sorted.

        Quarantined entries live in a subdirectory and are excluded; the
        iteration is a directory scan, so entries written after the call
        starts may or may not appear.
        """
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(path.stem for path in self.root.glob("*.json")))

    def _write_atomic(self, target: Path, data: bytes, key: str) -> None:
        """Write *data* to *target* via temp-file + rename (crash-safe)."""
        try:
            descriptor, temp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=f".{key[:12]}.", suffix=".tmp"
            )
        except OSError as error:
            raise CacheError(f"cannot stage cache entry {key}: {error}") from error
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, target)
        except BaseException as error:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            if isinstance(error, OSError):
                raise CacheError(
                    f"cannot write cache entry {key}: {error}"
                ) from error
            raise

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
