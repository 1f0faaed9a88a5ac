"""Per-tenant ingest write-ahead log: acked means durable.

The daemon's contract is that an HTTP 200 on ``/ingest`` can never be
un-happened by a worker crash.  Model state only hits disk every
snapshot interval, so the gap is covered the classic way: the *parent*
appends every accepted batch to a JSONL write-ahead log — flushed and
fsynced before the ack — and each snapshot records the highest batch
sequence number it contains (``applied_seq``).  A restarting worker
loads the newest snapshot, then replays every WAL batch with
``seq > applied_seq``, in order; batches that also still sit in the
(re-created) delivery queue are deduplicated by the same sequence
number.

The log is segmented (``wal-<first_seq>.jsonl``) so reclamation is
whole-file deletion: once a snapshot covers a segment's last batch the
segment is dropped (:meth:`TenantWAL.compact`), never rewritten in
place.  Replay tolerates a torn trailing line on the *newest* segment
only (a parent crash mid-append — by definition unacked, so dropping it
loses nothing); a torn line anywhere else raises :class:`WALError`,
because those bytes were fsynced and acked.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple

from .._util import _fsync_dir

__all__ = [
    "TenantWAL",
    "WALError",
]


class WALError(RuntimeError):
    """The write-ahead log lost or corrupted an acked record."""


_SEG_RE = re.compile(r"^wal-(\d{12})\.jsonl$")

#: One replayed ingest batch: ``(seq, keys, sizes)``.
Batch = Tuple[int, List[int], List[int]]


class TenantWAL:
    """Segmented JSONL write-ahead log for one tenant's acked batches."""

    def __init__(
        self, root: "Path | str", segment_bytes: int = 4 * 1024 * 1024
    ) -> None:
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self._fh: Optional[IO[bytes]] = None
        self._fh_path: Optional[Path] = None
        self._last_seq = 0
        for seq, _, _ in self.replay(0):  # establish last_seq from disk
            self._last_seq = seq

    # ------------------------------------------------------------------
    def _segments(self) -> List[Path]:
        """Segment files ordered by first contained sequence number."""
        segs = []
        for entry in self.root.iterdir():
            if _SEG_RE.match(entry.name):
                segs.append(entry)
        return sorted(segs)

    @property
    def last_seq(self) -> int:
        """Highest sequence number ever appended (0 when empty)."""
        return self._last_seq

    def next_seq(self) -> int:
        return self._last_seq + 1

    # ------------------------------------------------------------------
    def append(self, seq: int, keys: List[int], sizes: Optional[List[int]]) -> None:
        """Durably append one batch (flush + fsync before returning)."""
        if seq <= self._last_seq:
            raise WALError(
                f"non-monotonic WAL append: seq {seq} after {self._last_seq}"
            )
        record = {"seq": int(seq), "keys": [int(k) for k in keys]}
        if sizes is not None:
            record["sizes"] = [int(s) for s in sizes]
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        fh = self._writer(seq)
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
        self._last_seq = int(seq)

    def _writer(self, seq: int) -> IO[bytes]:
        """The append handle, rolling to a new segment past the size cap."""
        if self._fh is not None and self._fh_path is not None:
            if self._fh.tell() < self.segment_bytes:
                return self._fh
            self._fh.close()
            self._fh = None
        if self._fh is None:
            segs = self._segments()
            fresh = not (segs and segs[-1].stat().st_size < self.segment_bytes)
            if fresh:
                self._fh_path = self.root / f"wal-{seq:012d}.jsonl"
            else:
                self._fh_path = segs[-1]
            self._fh = self._fh_path.open("ab")
            if fresh:
                # fsyncing the file persists its bytes, not its directory
                # entry: without this, a host crash after the ack can make
                # the whole new segment vanish.
                _fsync_dir(self.root)
        return self._fh

    # ------------------------------------------------------------------
    def replay(self, after_seq: int) -> Iterator[Batch]:
        """Yield every durable batch with ``seq > after_seq``, in order."""
        segs = self._segments()
        for si, seg in enumerate(segs):
            newest = si == len(segs) - 1
            with seg.open("rb") as fh:
                raw = fh.read()
            lines = raw.split(b"\n")
            for li, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except json.JSONDecodeError:
                    tail = newest and not any(
                        l.strip() for l in lines[li + 1:]
                    )
                    if tail:
                        # Parent died mid-append: the batch was never acked.
                        warnings.warn(
                            f"{seg}: dropping torn trailing WAL line "
                            "(crash mid-append, batch was never acked)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        break
                    raise WALError(
                        f"{seg}: corrupt WAL record at line {li + 1} — an "
                        "acked batch is unreadable"
                    )
                seq = int(d["seq"])
                if seq > after_seq:
                    yield seq, d["keys"], d.get("sizes")

    # ------------------------------------------------------------------
    def compact(self, through_seq: int) -> int:
        """Delete whole segments fully covered by ``through_seq``.

        A segment is reclaimable when the *next* segment starts at or
        below ``through_seq + 1`` (so every record it holds is older).
        The newest segment is never deleted — it is the append target.
        Returns the number of segments removed.
        """
        segs = self._segments()
        removed = 0
        for si in range(len(segs) - 1):
            nxt = _SEG_RE.match(segs[si + 1].name)
            assert nxt is not None
            if int(nxt.group(1)) <= through_seq + 1:
                if segs[si] == self._fh_path and self._fh is not None:
                    break  # pragma: no cover - append target, keep
                segs[si].unlink()
                removed += 1
            else:
                break
        return removed

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TenantWAL":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
