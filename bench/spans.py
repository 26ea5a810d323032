"""Span recorder for the traced pass.

Spans are recorded from the benchmark's side of each layer boundary
(name, start, end, parent span, round id), kept in memory, and written
out once at the end.  A layer's self time is its span minus the part
its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, round id].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.round_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        row = [name, time.perf_counter(), None, parent, self.round_id]
        self._open.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span called ``name``, in order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def per_round(self, name: str) -> list[float]:
        """Seconds spent in ``name`` spans, summed within each round."""
        totals: dict[int | None, float] = {}
        for n, start, end, _, round_id in self.spans:
            if n == name:
                totals[round_id] = totals.get(round_id, 0.0) + end - start
        return list(totals.values())

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (span minus its children)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, round_id) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "round": round_id,
                        }
                    )
                    + "\n"
                )
