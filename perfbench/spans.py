"""In-memory spans in the repository's JSON-lines span schema.

The benchmark times calls into each layer from its own files: a
:class:`Tracer` keeps one record per span (``trace_id`` / ``span_id`` /
``parent_id``, ``start_ts`` and ``seconds``, as :mod:`repro.obs.spans`
writes them) and writes them out once the run is over, so
``tools/trace_tree.py`` can rebuild and validate the tree.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: The span-record version :mod:`repro.obs.trace` writes.
TRACE_SCHEMA_VERSION = 2


class Tracer:
    """One trace tree: a root span and everything opened under it."""

    def __init__(self, root_name: str, **fields) -> None:
        self.trace_id = os.urandom(8).hex()
        self.records: List[dict] = []
        self._stack: List[str] = []
        self._root = self.open(root_name, **fields)

    def open(self, name: str, parent: Optional[str] = None,
             **fields) -> dict:
        """Start a span (child of ``parent``, else of the innermost
        open span) and return its record; finish it with
        :meth:`close`."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "v": TRACE_SCHEMA_VERSION,
            "ev": "span",
            "name": name,
            "trace_id": self.trace_id,
            "span_id": os.urandom(8).hex(),
            "parent_id": parent,
            "ts": time.time(),
            "start_ts": time.perf_counter(),
        }
        record.update(fields)
        self._stack.append(record["span_id"])
        return record

    def close(self, record: dict) -> None:
        record["seconds"] = time.perf_counter() - record["start_ts"]
        self._stack.remove(record["span_id"])
        self.records.append(record)

    def add(self, name: str, start: float, seconds: float,
            parent: Optional[str] = None, **fields) -> None:
        """Record an already-measured interval as a finished span."""
        record = self.open(name, parent, **fields)
        record["start_ts"] = start
        record["seconds"] = seconds
        self._stack.remove(record["span_id"])
        self.records.append(record)

    @property
    def root_id(self) -> str:
        return self._root["span_id"]

    def finish(self) -> None:
        if "seconds" not in self._root:
            self.close(self._root)

    def write(self, path: str) -> None:
        self.finish()
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.records,
                                 key=lambda r: r["start_ts"]):
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")


def self_times(records: List[dict]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    part of it its children cover (children are assumed sequential and
    inside the parent, as the benchmark records them)."""
    child_seconds: Dict[str, float] = defaultdict(float)
    for record in records:
        if record.get("parent_id"):
            child_seconds[record["parent_id"]] += record["seconds"]
    totals: Dict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"]] += max(
            0.0, record["seconds"] - child_seconds[record["span_id"]])
    return dict(totals)


def counts(records: List[dict]) -> Dict[str, int]:
    """Number of spans per name."""
    tally: Dict[str, int] = defaultdict(int)
    for record in records:
        tally[record["name"]] += 1
    return dict(tally)
