"""Crash-safe generational snapshots for tenant model state.

A tenant worker can be SIGKILLed at any byte of a snapshot write, so
durability comes from three mechanical rules:

1. **Atomic replace** — the payload is written to a tempfile in the same
   directory, flushed, fsynced, then ``os.rename``d over the final name
   (POSIX rename is atomic within a filesystem), and the directory is
   fsynced so the rename itself survives a host crash.
2. **Self-verifying envelope** — the JSON body is wrapped with a SHA-256
   of its canonical serialization.  A torn or bit-rotted file fails
   verification instead of restoring garbage into a live model.
3. **Generations** — each save gets a monotonically increasing
   generation number; :meth:`SnapshotStore.load_latest` walks
   generations newest-first and falls back past any snapshot that fails
   to verify (with a :class:`RuntimeWarning`), so one torn write costs
   one snapshot interval of progress, never the tenant.

The body carried for a tenant is
``{"applied_seq": <last WAL batch applied>, "wall_time": <unix time>,
"model": WindowedKRRModel.state_dict(), "shards": Shards.state_dict()?}``
— everything the worker needs to resume exactly, with the WAL replaying
any acked batch newer than ``applied_seq``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .._util import _fsync_dir

__all__ = [
    "SnapshotError",
    "SnapshotStore",
    "write_atomic",
]


class SnapshotError(RuntimeError):
    """No verifiable snapshot could be loaded."""


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmpfile + fsync + rename + dir fsync."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def _envelope(body: Dict[str, Any]) -> bytes:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(
        {"kind": SnapshotStore.KIND, "version": SnapshotStore.VERSION,
         "sha256": digest, "body": body},
        sort_keys=True,
    ).encode()


def _verify(raw: bytes) -> Dict[str, Any]:
    """Decode + checksum-verify an envelope; raises ``ValueError`` if torn."""
    env = json.loads(raw)
    if env.get("kind") != SnapshotStore.KIND:
        raise ValueError("not a service snapshot")
    if int(env.get("version", -1)) != SnapshotStore.VERSION:
        raise ValueError(f"unsupported snapshot version {env.get('version')!r}")
    body = env["body"]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if digest != env.get("sha256"):
        raise ValueError("snapshot checksum mismatch (torn or corrupted write)")
    assert isinstance(body, dict)
    return body


_SNAP_RE = re.compile(r"^snap-(\d{12})\.json$")


class SnapshotStore:
    """Generational snapshot files for one tenant directory.

    >>> store = SnapshotStore(data_dir / "snapshots" / tenant_id)
    >>> gen = store.save(body)               # atomic, verifiable
    >>> gen, body = store.load_latest()      # falls back past torn files
    """

    KIND = "repro-service-snapshot"
    VERSION = 1

    def __init__(self, root: "Path | str", keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    # ------------------------------------------------------------------
    def _path(self, generation: int) -> Path:
        return self.root / f"snap-{generation:012d}.json"

    def generations(self) -> List[int]:
        """Existing generation numbers, ascending (unverified)."""
        gens = []
        for entry in self.root.iterdir():
            m = _SNAP_RE.match(entry.name)
            if m:
                gens.append(int(m.group(1)))
        return sorted(gens)

    # ------------------------------------------------------------------
    def save(self, body: Dict[str, Any]) -> int:
        """Durably write ``body`` as the next generation; prune old ones.

        Pruning keeps the newest ``keep`` generations so there is always
        a previous generation to fall back to if the newest file turns
        out torn (the atomic rename makes that window one of filesystem
        corruption, not of process crash — but the fallback is cheap).
        """
        gens = self.generations()
        generation = (gens[-1] + 1) if gens else 1
        write_atomic(self._path(generation), _envelope(body))
        for old in gens[: max(0, len(gens) + 1 - self.keep)]:
            try:
                self._path(old).unlink()
            except OSError:  # pragma: no cover - already pruned
                pass
        return generation

    def load(self, generation: int) -> Dict[str, Any]:
        """Load + verify one specific generation."""
        return _verify(self._path(generation).read_bytes())

    def load_latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Newest snapshot that verifies, or ``None`` when starting fresh.

        Unverifiable generations are skipped with a ``RuntimeWarning``
        (torn-write debris); if *every* existing generation fails,
        :class:`SnapshotError` is raised — silently restarting a tenant
        from scratch when snapshots exist but are all corrupt would mask
        real data loss.
        """
        gens = self.generations()
        if not gens:
            return None
        for generation in reversed(gens):
            try:
                return generation, self.load(generation)
            except (ValueError, OSError, json.JSONDecodeError) as exc:
                warnings.warn(
                    f"{self._path(generation)}: unusable snapshot "
                    f"({exc}); falling back to the previous generation",
                    RuntimeWarning,
                    stacklevel=2,
                )
        raise SnapshotError(
            f"{self.root}: {len(gens)} snapshot generation(s) present but "
            "none verified — refusing to silently restart from empty state"
        )
