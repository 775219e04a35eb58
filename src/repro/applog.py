"""Durable append-only JSONL logs: one fsynced write path, one replay.

Every crash-safe log in the repo — the NAS trial journal
(:class:`~repro.nas.TrialJournal`), the per-tile scan journal
(:class:`~repro.robust.ScanJournal`) and the fleet job queue
(:class:`~repro.fleet.JobQueue`) — is a file of one JSON object per
line that only ever grows.  The owners keep their record formats and
header checks; the bytes go to disk, and come back, only through here:

* :func:`append` writes records with one open/write/fsync/close, so a
  record is on disk before the call returns and no long-lived handle
  can leak when the process is killed;
* :func:`replay` parses the file back, repairing the one artifact a
  kill mid-append can leave at the end (see its docstring).  A
  malformed line anywhere else is corruption and raises the owner's
  :class:`LogError` subclass.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["LogError", "append", "replay"]


class LogError(RuntimeError):
    """A durable log is corrupt or breaks its owner's format."""


def _durable(path: Path, mode: str, write) -> None:
    with open(path, mode) as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())


def append(path: str | Path, records: list[dict], *,
           truncate: bool = False) -> None:
    """Append ``records`` as JSON lines and force them to disk.

    One fsync covers the whole batch.  ``truncate=True`` starts the file
    over with ``records`` (a fresh log's header).
    """
    data = "".join(json.dumps(record, allow_nan=False) + "\n"
                   for record in records).encode("utf-8")
    _durable(Path(path), "wb" if truncate else "ab",
             lambda fh: fh.write(data))


def replay(path: str | Path, *, error: type[LogError] = LogError,
           ) -> list[dict]:
    """Parse a JSONL log, tolerating — and repairing — a torn final write.

    A process killed mid-append leaves one of two crash artifacts at the
    end of the file: a partial line that is not valid JSON, or a valid
    line missing its terminating newline.  Both are repaired in place:
    the torn partial line is truncated away, the unterminated valid line
    gets its newline — so a later append can never concatenate onto
    damaged bytes and turn a recoverable crash artifact into mid-file
    corruption.  A malformed line *followed by more data* is genuine
    corruption (no crash produces it) and raises ``error``.  A missing
    file replays as empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw = path.read_bytes()
    records: list[dict] = []
    good_end = 0              # bytes known to hold intact, terminated lines
    tail_valid_unterminated = False
    pos = 0
    line_no = 0
    n = len(raw)
    while pos < n:
        line_no += 1
        nl = raw.find(b"\n", pos)
        end = n if nl < 0 else nl
        terminated = nl >= 0
        chunk = raw[pos:end].strip()
        if chunk:
            try:
                record = json.loads(chunk.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if terminated:
                    raise error(f"{path}: corrupt line {line_no}") from None
                break  # torn trailing write from a crash — recoverable
            records.append(record)
            if terminated:
                good_end = nl + 1
            else:
                tail_valid_unterminated = True
        elif terminated:      # blank line: harmless, keep it as intact bytes
            good_end = nl + 1
        pos = end + 1
    if tail_valid_unterminated:
        _durable(path, "ab", lambda fh: fh.write(b"\n"))
    elif good_end < n:
        _durable(path, "r+b", lambda fh: fh.truncate(good_end))
    return records
