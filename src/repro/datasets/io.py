"""Stream file I/O.

The on-disk stream format is tab-separated, one event per line, in
timestamp order::

    # timestamp  src  src_type  etype  dst  dst_type
    0.013500	ip4	ip	TCP	ip91	ip

Lines starting with ``#`` and blank lines are ignored. Fields must not
contain tabs; everything is read back as strings (vertex ids are opaque).

Malformed lines fail the parse by default (the historical behaviour —
a reproduction run should not silently diverge from its input). Long
unattended ingests can instead arm a :class:`BadRecordLog` with the
``skip`` or ``quarantine`` policy: bad lines are counted (with a bounded
sample of line numbers and reasons kept for diagnostics), optionally
appended verbatim to a dead-letter JSONL file, and the stream continues.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..errors import ParseError
from ..graph.types import EdgeEvent

_COLUMNS = 6

#: Bad-record policies: ``fail`` re-raises (default), ``skip`` drops the
#: line after counting it, ``quarantine`` additionally appends it to a
#: dead-letter JSONL file for later repair/replay.
ON_BAD_RECORD = ("fail", "skip", "quarantine")

#: Cap on the per-run sample of bad lines kept in memory for diagnostics.
_MAX_BAD_SAMPLES = 5


class BadRecordLog:
    """Disposition tracker for malformed stream lines in one ingest pass.

    Owns the policy decision (:data:`ON_BAD_RECORD`) and the evidence:
    a total count, a bounded sample of ``(lineno, reason)`` pairs, and —
    under ``quarantine`` — a dead-letter JSONL file holding each bad
    line verbatim (``{"path", "lineno", "line", "reason"}`` per record)
    so the rejected slice of the stream can be repaired and replayed.
    """

    def __init__(
        self,
        policy: str = "fail",
        *,
        quarantine_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if policy not in ON_BAD_RECORD:
            raise ValueError(
                f"unknown bad-record policy {policy!r}; expected one of "
                f"{ON_BAD_RECORD}"
            )
        if policy == "quarantine" and quarantine_path is None:
            raise ValueError(
                "bad-record policy 'quarantine' needs a quarantine_path"
            )
        self.policy = policy
        self.quarantine_path = (
            None if quarantine_path is None else Path(quarantine_path)
        )
        self.bad_records = 0
        self.samples: List[dict] = []
        self._handle = None

    def record(self, path, lineno: int, line: str, reason: str) -> None:
        """Account for one malformed line per the policy.

        Under ``fail`` raises :class:`~repro.errors.ParseError`
        (identical to an unarmed parse); otherwise counts, samples and —
        for ``quarantine`` — appends the dead-letter record.
        """
        if self.policy == "fail":
            raise ParseError(f"{path}:{lineno}: {reason}")
        self.bad_records += 1
        if len(self.samples) < _MAX_BAD_SAMPLES:
            self.samples.append({"lineno": lineno, "reason": reason})
        if self.policy == "quarantine":
            if self._handle is None:
                self.quarantine_path.parent.mkdir(parents=True, exist_ok=True)
                # Long-lived sink, closed explicitly in close().
                self._handle = open(  # noqa: SIM115
                    self.quarantine_path, "a", encoding="utf-8"
                )
            self._handle.write(
                json.dumps(
                    {
                        "path": str(path),
                        "lineno": lineno,
                        "line": line,
                        "reason": reason,
                    }
                )
                + "\n"
            )
            self._handle.flush()

    def metrics(self) -> dict:
        """Counters for the telemetry pump (``repro_ingest_*`` family)."""
        return {
            "bad_records": self.bad_records,
            "quarantined": (
                self.bad_records if self.policy == "quarantine" else 0
            ),
        }

    def summary(self) -> Optional[str]:
        """One human line for the CLI report, or None when clean."""
        if not self.bad_records:
            return None
        verb = "quarantined" if self.policy == "quarantine" else "skipped"
        where = (
            f" -> {self.quarantine_path}"
            if self.policy == "quarantine"
            else ""
        )
        first = "; ".join(
            f"line {s['lineno']}: {s['reason']}" for s in self.samples
        )
        return (
            f"bad records {verb}: {self.bad_records}{where} "
            f"(first: {first})"
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BadRecordLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_stream(path: Union[str, Path], events: Iterable[EdgeEvent]) -> int:
    """Write events as TSV; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# timestamp\tsrc\tsrc_type\tetype\tdst\tdst_type\n")
        for event in events:
            handle.write(
                f"{event.timestamp!r}\t{event.src}\t{event.src_type}\t"
                f"{event.etype}\t{event.dst}\t{event.dst_type}\n"
            )
            count += 1
    return count


def read_stream(
    path: Union[str, Path],
    *,
    bad_records: Optional[BadRecordLog] = None,
) -> Iterator[EdgeEvent]:
    """Stream events back from a TSV file written by :func:`write_stream`.

    ``bad_records`` routes malformed lines through a
    :class:`BadRecordLog`; without one (the default) the first bad line
    raises :class:`~repro.errors.ParseError` — crash-consistent ingest
    never silently drops input. A timestamp must parse as a finite float:
    ``nan``, ``inf`` and ``-inf`` make a line bad too.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != _COLUMNS:
                reason = (
                    f"expected {_COLUMNS} tab-separated fields, got "
                    f"{len(parts)}"
                )
                if bad_records is None:
                    raise ParseError(f"{path}:{lineno}: {reason}")
                bad_records.record(path, lineno, line, reason)
                continue
            try:
                timestamp = float(parts[0])
            except ValueError:
                timestamp = math.nan
            if not math.isfinite(timestamp):
                # nan / inf / -inf parse, but no window can hold them
                reason = f"bad timestamp {parts[0]!r}"
                if bad_records is None:
                    raise ParseError(f"{path}:{lineno}: {reason}")
                bad_records.record(path, lineno, line, reason)
                continue
            yield EdgeEvent(
                src=parts[1],
                dst=parts[4],
                etype=parts[3],
                timestamp=timestamp,
                src_type=parts[2],
                dst_type=parts[5],
            )


def chunk_events(
    events: Iterable[EdgeEvent], chunk_size: int
) -> Iterator[List[EdgeEvent]]:
    """Regroup an event iterable into lists of at most ``chunk_size``.

    Works on any iterator, so a caller can peel a warmup prefix off a
    :func:`read_stream` iterator and chunk the remainder without a second
    parse pass. The final chunk may be shorter; no empty chunks are
    yielded.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = iter(events)
    while True:
        chunk = list(itertools.islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def count_stream_events(path: Union[str, Path]) -> int:
    """Number of events in a TSV stream file.

    Counts data lines textually (same comment/blank rule as
    :func:`read_stream`) without building :class:`EdgeEvent` objects —
    the cheap first pass of the CLI's two-pass chunked ingest. Malformed
    lines are counted here and rejected by the parse pass.
    """
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                count += 1
    return count
