"""JSON-lines sweep checkpoints: stream finished rows, resume by skipping.

A multi-hour sweep that dies at config 47/48 should not redo the first
46.  :class:`SweepCheckpoint` appends each completed configuration as one
JSON line (flushed and fsynced, so a SIGKILL loses at most the row being
written) under a header that fingerprints the sweep — seed, config grid,
``max_size`` and a CRC of the trace columns.  On resume the header is
validated: a checkpoint from a *different* sweep raises
:class:`CheckpointMismatch` instead of silently splicing foreign rows
into the grid.

Bit-exactness: Python's ``json`` serializes floats via ``repr``, which
round-trips IEEE-754 doubles exactly, so resumed miss-ratio arrays are
bit-identical to freshly computed ones (the acceptance bar for resume).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .._util import _fsync_dir

__all__ = [
    "CheckpointMismatch",
    "SweepCheckpoint",
]


#: A finished row in transit: ``(index, sizes, miss_ratios, unit, stats)``.
Row = Tuple[int, np.ndarray, np.ndarray, str, dict]


class CheckpointMismatch(ValueError):
    """The checkpoint on disk was written by a different sweep."""


class SweepCheckpoint:
    """Append-only JSONL checkpoint for one sweep signature.

    >>> ckpt = SweepCheckpoint(path, signature)
    >>> done = ckpt.load()          # {} for a fresh file; validates header
    >>> ckpt.append(row)            # called as each config completes
    """

    KIND = "repro-sweep-checkpoint"
    VERSION = 1

    def __init__(self, path: "str | os.PathLike[str]", signature: dict) -> None:
        self.path = Path(path)
        self.signature = signature
        self._header_written = False

    # ------------------------------------------------------------------
    def load(self) -> Dict[int, Row]:
        """Completed rows by grid index; ``{}`` when starting fresh.

        A torn *final* line (the previous run died mid-``append``) is
        expected crash debris: it is truncated off the file with a
        :class:`RuntimeWarning`, so subsequent appends continue from a
        clean record boundary.  A malformed line anywhere *else* means
        the file was corrupted after it was fsynced — that raises
        :class:`CheckpointMismatch` (as does a header that does not match
        this sweep's signature) instead of silently dropping rows.
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            return {}
        with self.path.open("rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        # Byte offset where each line starts, for torn-tail truncation.
        offsets = [0]
        for line in lines[:-1]:
            offsets.append(offsets[-1] + len(line) + 1)
        try:
            header = json.loads(lines[0])
        except (json.JSONDecodeError, IndexError):
            raise CheckpointMismatch(
                f"{self.path}: not a sweep checkpoint (unreadable header)"
            )
        if (
            header.get("kind") != self.KIND
            or header.get("version") != self.VERSION
        ):
            raise CheckpointMismatch(
                f"{self.path}: not a v{self.VERSION} sweep checkpoint"
            )
        if header.get("signature") != self.signature:
            raise CheckpointMismatch(
                f"{self.path}: checkpoint was written by a different sweep "
                "(seed, config grid, max_size or trace changed) — delete it "
                "or point --checkpoint elsewhere"
            )
        self._header_written = True
        rows: Dict[int, Row] = {}
        last_data = max(
            (i for i in range(1, len(lines)) if lines[i].strip()), default=0
        )
        for i in range(1, len(lines)):
            line = lines[i].strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                if i == last_data:
                    # Crash mid-append: drop the torn tail so the file ends
                    # on a record boundary again.
                    warnings.warn(
                        f"{self.path}: dropping torn final checkpoint line "
                        f"({len(raw) - offsets[i]} bytes) left by a crash "
                        "mid-append; resuming from the last complete row",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    with self.path.open("r+b") as fh:
                        fh.truncate(offsets[i])
                    break
                raise CheckpointMismatch(
                    f"{self.path}: corrupt checkpoint row {i} (not at the "
                    "tail, so this is not crash debris) — delete the file "
                    "or point --checkpoint elsewhere"
                )
            rows[int(d["index"])] = self._decode(d)
        return rows

    def append(self, row: Row) -> None:
        """Durably append one finished row (flush + fsync per line)."""
        index, sizes, miss_ratios, unit, stats = row
        record = {
            "index": int(index),
            "sizes": np.asarray(sizes).tolist(),
            "sizes_dtype": str(np.asarray(sizes).dtype),
            "miss_ratios": np.asarray(miss_ratios, dtype=np.float64).tolist(),
            "unit": unit,
            "stats": stats,
        }
        created = not self.path.exists()
        with self.path.open("a") as fh:
            if not self._header_written:
                if fh.tell() == 0:
                    header = {
                        "kind": self.KIND,
                        "version": self.VERSION,
                        "signature": self.signature,
                    }
                    fh.write(json.dumps(header) + "\n")
                self._header_written = True
            elif self._needs_newline():
                fh.write("\n")
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            # The file's bytes are fsynced above, but its directory entry
            # is not: without a directory fsync a host crash can drop the
            # whole checkpoint file even though every row in it was synced.
            _fsync_dir(self.path.parent)

    # ------------------------------------------------------------------
    def _needs_newline(self) -> bool:
        """True when the file ends mid-line (previous run died writing)."""
        size = self.path.stat().st_size
        if size == 0:
            return False
        with self.path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"

    @staticmethod
    def _decode(d: dict) -> Row:
        sizes = np.asarray(d["sizes"], dtype=d.get("sizes_dtype", "float64"))
        ratios = np.asarray(d["miss_ratios"], dtype=np.float64)
        return (int(d["index"]), sizes, ratios, d["unit"], d["stats"])
