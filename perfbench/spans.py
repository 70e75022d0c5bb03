"""In-memory spans and counters for the traced benchmark run.

A span records a name, start and end (``time.perf_counter`` seconds) and the
index of the span open around it. Spans are only opened from the benchmark's
own files, around calls into multbound's modules; nothing inside the package
is instrumented.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def _root(self, index):
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return self.spans[index][0]

    def durations(self, name, root):
        """Durations in seconds of the spans called name under the top-level span root."""
        return [
            end - start
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name and self._root(i) == root
        ]

    def total(self, name, root):
        return sum(self.durations(name, root))

    def to_json(self):
        """Spans with times relative to the first span, plus the counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }
