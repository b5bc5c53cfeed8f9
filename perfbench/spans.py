"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{"id", "parent", "trace", "name", "start", "end", "attrs"}``
with ``perf_counter`` seconds; spans of one request share ``trace``.
Nothing is written until :meth:`Recorder.write` runs at the end, so the
recorder costs one list append per span while the workload runs.

Some layers report their own duration instead of being wrapped here: the
server's ``elapsed_ms`` on every response and the engine's ``measured_ms``
in an explain report.  :meth:`Recorder.child` records those as child spans
of the call that carried them.  Only their duration is measured, so they
are placed centred inside the parent; self-times depend on durations only.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects spans; a disabled recorder records nothing at all."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Dict[str, object]]]:
        """Time the body as span ``name``, nested under the open span of
        this thread (a span opened with no parent starts a new trace)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record: Dict[str, object] = {
            "id": span_id,
            "parent": None if parent is None else parent["id"],
            "trace": span_id if parent is None else parent["trace"],
            "name": name,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)

    def child(
        self, parent: Optional[Dict[str, object]], name: str, duration_s: float
    ) -> Optional[Dict[str, object]]:
        """Record a child of ``parent`` whose duration a layer reported."""
        if parent is None or parent["end"] is None:
            return None
        outer = float(parent["end"]) - float(parent["start"])
        duration_s = min(max(duration_s, 0.0), outer)
        start = float(parent["start"]) + (outer - duration_s) / 2
        record: Dict[str, object] = {
            "id": next(self._ids),
            "parent": parent["id"],
            "trace": parent["trace"],
            "name": name,
            "start": start,
            "end": start + duration_s,
            "attrs": {},
        }
        self.spans.append(record)
        return record

    def write(self, path) -> None:
        """Write every span as one JSON line (start order)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda span: span["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(int(span["parent"]), []).append(
                (float(span["start"]), float(span["end"]))
            )
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = _covered(children.get(int(span["id"]), []), start, end)
        result[int(span["id"])] = (end - start) - covered
    return result


def coverage(spans: List[Dict[str, object]], root: str) -> float:
    """Share of the ``root`` spans' wall time that named child layers
    account for: one minus the roots' own self-time over their duration."""
    own = self_times(spans)
    wall = unattributed = 0.0
    for span in spans:
        if span["name"] == root:
            wall += float(span["end"]) - float(span["start"])
            unattributed += own[int(span["id"])]
    return 0.0 if wall <= 0 else 1.0 - unattributed / wall
