"""In-memory spans around calls into the library, recorded from outside it.

A `Tracer` rebinds a name in the module that calls it (for example
``dvokit.training.triplet_loss``) to a wrapper that records one span per
call: its name, start, end, parent span and op id.  Spans stay in memory
until `write_spans` is called at the end of a run.  `restore` puts every
rebound name back.
"""

from __future__ import annotations

import csv
import time


class Tracer:
    """Records nested spans for the calls routed through its wrappers."""

    def __init__(self):
        # (span id, name, start s, end s, parent span id or -1, op id)
        self.spans = []
        self.op = -1  # op id stamped on new spans; -1 is set-up
        self._stack = []
        self._rebound = []  # (module, attribute, original)

    def wrap(self, name, fn, observe=None):
        """`fn` with a span named `name` around each call.

        `observe`, when given, is called with each result after the span
        has closed, so its cost lands in no span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id so children sort after it
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.op)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, module, attribute, name, observe=None):
        """Route `module.attribute` through a span named `name`."""
        original = getattr(module, attribute)
        self._rebound.append((module, attribute, original))
        setattr(module, attribute, self.wrap(name, original, observe))

    def restore(self):
        """Put back every name `rebind` replaced, newest first."""
        while self._rebound:
            module, attribute, original = self._rebound.pop()
            setattr(module, attribute, original)

    def totals(self, ops):
        """Per-name ``(calls, busy s, self s)`` over spans whose op id is in `ops`.

        A span's self time is its duration minus the durations of its
        child spans.  Calls run one at a time on one thread, so children
        nest inside their parent and never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for span_id, _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span_id, name, start, end, _parent, op in self.spans:
            if op not in ops:
                continue
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + (end - start),
                         own + (end - start - child[span_id]))
        return out

    def write_spans(self, path):
        """Write every span as one CSV row; times are seconds on one clock."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for span_id, name, start, end, parent, op in self.spans:
                writer.writerow([span_id, name, repr(start), repr(end), parent, op])
