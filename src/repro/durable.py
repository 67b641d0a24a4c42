"""Durable files: the checksummed JSONL line codec and atomic writes.

Every file the package persists is one of two shapes, and this module
is the only code that knows how either is written:

* **Checksummed JSONL logs** — campaign and exploration record stores,
  trace files.  Each line is a canonical (sorted-keys) JSON object
  carrying ``_crc``, the CRC32 of the same object without that key, so
  a reader can always tell a torn line (a kill mid-append) or a flipped
  bit from a good record.  :func:`open_append` stitches a newline after
  a torn tail before appending, so one torn line never swallows the
  next record; :func:`scan` classifies every line on the way back.
* **Whole files replaced atomically** — manifests, work units, job
  tables, metric snapshots, reports.  :func:`write_atomic` writes a
  per-process tmp file and renames it over the target, so a reader
  sees the old bytes or the new ones, never a mix.

The durability model is *process death* (``kill -9``, an OOM kill), not
power loss: nothing here calls ``fsync``.  Every mutating call goes
through the :class:`~repro.testing.faults.FS` seam it is handed, which
is how the chaos suite tears, crashes and fills the disk under each of
these files.

Stdlib-only, and imports nothing from :mod:`repro` but the seam, so any
layer (:mod:`repro.obs` included) can use it without an import cycle.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .testing.faults import FS

__all__ = [
    "CORRUPT_DIRNAME",
    "CRC_KEY",
    "decode_line",
    "encode_line",
    "fsck_file",
    "open_append",
    "scan",
    "write_atomic",
]

#: JSON key carrying the per-line CRC32 checksum (sorts before every
#: record key, so checksummed lines visibly lead with their check).
CRC_KEY = "_crc"

#: quarantine directory, next to the checked file, for damaged lines.
CORRUPT_DIRNAME = "corrupt"


def _crc(record: dict) -> str:
    """CRC32 (hex) of the record's canonical JSON body, ``_crc`` excluded."""
    body = json.dumps(record, sort_keys=True)
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"


def encode_line(record: dict) -> str:
    """One log line: the record plus its CRC32, canonical JSON, no newline."""
    return json.dumps({CRC_KEY: _crc(record), **record}, sort_keys=True)


def decode_line(line: str, *, require_crc: bool
                ) -> Tuple[Optional[dict], Optional[str]]:
    """``(record, None)`` for a good line, ``(None, reason)`` otherwise.

    ``record`` comes back with ``_crc`` stripped.  ``reason`` is
    ``"unparsable"`` (torn or garbage JSON, or not an object) or
    ``"checksum"`` (parses, but the stored CRC disagrees with the body:
    bit rot, a spliced line, a hand-edit).  A line with no ``_crc`` at
    all is a ``"checksum"`` failure under ``require_crc``; otherwise it
    is accepted as written before checksums existed.
    """
    try:
        rec = json.loads(line)
    except ValueError:
        return None, "unparsable"
    if not isinstance(rec, dict):
        return None, "unparsable"
    if CRC_KEY not in rec:
        return (None, "checksum") if require_crc else (rec, None)
    if rec.pop(CRC_KEY) != _crc(rec):
        return None, "checksum"
    return rec, None


def scan(path, *, require_crc: bool
         ) -> Iterator[Tuple[int, str, Optional[dict], Optional[str]]]:
    """Yield ``(line_no, raw, record, reason)`` for every non-blank line.

    ``raw`` is the line with surrounding whitespace stripped; ``record``
    and ``reason`` are :func:`decode_line`'s verdict.  One line is held
    in memory at a time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                record, reason = decode_line(line, require_crc=require_crc)
                yield line_no, line, record, reason


def open_append(path, fs: FS):
    """Append-mode text handle on ``path``, its directory created.

    If a previous writer died mid-append the file ends in a torn
    half-line; appending straight after it would weld the next line
    onto the garbage and lose it too.  A newline is stitched in first,
    so the torn fragment stays one isolated bad line and every new line
    starts clean.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    torn = False
    with open(path, "ab+") as raw:
        if raw.seek(0, os.SEEK_END) > 0:
            raw.seek(-1, os.SEEK_END)
            torn = raw.read(1) != b"\n"
    fh = open(path, "a", encoding="utf-8")
    try:
        if torn:
            fs.append_text(fh, "\n")
    except BaseException:
        fh.close()
        raise
    return fh


def write_atomic(path, text: str, fs: FS) -> None:
    """Replace ``path``'s contents with ``text`` in one rename.

    The tmp file ``.{name}.{pid}.tmp`` sits next to the target and is
    unique per process, so concurrent writers of the same file (shards
    racing to write one manifest) never rename each other's half-written
    tmp away; whichever rename lands last wins.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fs.write_text(tmp, text)
    fs.replace(tmp, path)


def fsck_file(path, *, require_crc: bool, repair: bool, fs: FS
              ) -> Tuple[List[dict], List[dict]]:
    """Check every line of one log; optionally quarantine the damage.

    Returns ``(records, damaged)``: the good records in file order, and
    one ``{"file", "line", "reason"}`` per damaged line.  With
    ``repair=True`` the damaged raw lines are appended to
    ``corrupt/<name>.bad`` next to the file, and the file is rewritten
    (atomically) without them.
    """
    path = Path(path)
    records: List[dict] = []
    damaged: List[dict] = []
    keep: List[str] = []
    bad: List[str] = []
    for line_no, raw, record, reason in scan(path, require_crc=require_crc):
        if reason is None:
            records.append(record)
            keep.append(raw)
        else:
            damaged.append({"file": path.name, "line": line_no, "reason": reason})
            bad.append(raw)
    if repair and bad:
        quarantine = path.parent / CORRUPT_DIRNAME / f"{path.name}.bad"
        with open_append(quarantine, fs) as qh:
            fs.append_text(qh, "".join(line + "\n" for line in bad))
        write_atomic(path, "".join(line + "\n" for line in keep), fs)
    return records, damaged
