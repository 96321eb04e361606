"""Spans recorded around the benchmark's own calls into griddom.

A span is (id, op, parent, name, start_ns, end_ns). Every call the benchmark
makes into a griddom layer goes through `call`; each operation opens one root
span named "bench.op" and all spans of that operation share its op id. The
layer of a span is the part of its name before the first dot. Spans stay in
memory until the run ends.
"""

import json
from collections import defaultdict
from time import perf_counter_ns


def direct(name, fn, *args, **kwargs):
    """The untraced form of Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._parent = None
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, sid
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._parent = parent
            self.spans[sid] = (sid, self._op, parent, name, start, end)

    def op(self, op_id, fn, *args):
        """Run fn(*args, self.call) as one operation; returns (result, seconds)."""
        self._op = op_id
        sid = len(self.spans)
        result = self.call("bench.op", fn, *args, self.call)
        _, _, _, _, start, end = self.spans[sid]
        return result, (end - start) / 1e9

    def durations(self, name):
        """Wall seconds of every span with this name, in call order."""
        return [(e - s) / 1e9 for _, _, _, n, s, e in self.spans if n == name]

    def self_times(self):
        """{span name: (self seconds summed, calls)}; self time is a span's
        duration minus the time its direct children cover."""
        child = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0])
        for sid, _, _, name, start, end in self.spans:
            acc = out[name]
            acc[0] += end - start - child[sid]
            acc[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}

    def root_wall(self):
        return sum(e - s for _, _, parent, _, s, e in self.spans if parent is None) / 1e9

    def write(self, path):
        keys = ("id", "op", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
