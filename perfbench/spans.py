"""Timing of the benchmark's calls into the program, with optional spans.

Every call a job makes into scythe goes through Recorder.call.  The job's
time is the sum of its timed calls, so checks and trace-only probes made
between them are never counted.  With traced=True each call also leaves a
span (name, start, end, parent span, job id) in memory; write() saves
them once the run is over.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.elapsed = 0.0
        self.job = None
        self._stack = []

    def start_job(self, job_id):
        """Begin a job: reset its clock and open its root span."""
        self.job = job_id
        self.elapsed = 0.0
        if self.traced:
            self._stack = [self._open("job", perf_counter())]

    def end_job(self):
        if self.traced and self._stack:
            self._close(self._stack.pop(), perf_counter())
        self.job = None

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, None, parent, self.job])
        return len(self.spans) - 1

    def _close(self, index, end):
        self.spans[index][2] = end

    @contextmanager
    def call(self, name, timed=True):
        """Time one call; timed=False marks a probe outside the job's time."""
        index = None
        if self.traced:
            index = self._open(name, 0.0)
            self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            if timed:
                self.elapsed += end - start
            if index is not None:
                self._stack.pop()
                self.spans[index][1] = start
                self._close(index, end)

    def totals(self, first=0, last=None):
        """Summed duration per span name, over spans[first:last]."""
        out = {}
        for name, start, end, _, _ in self.spans[first:last]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path):
        rows = [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "job": job}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")
