"""In-memory span recorder for the traced pass.

Each span holds a name, a start and end time, the index of its parent span
(-1 for none) and an operation id (-1 for set-up work).  Spans are kept in
flat typed arrays, so a traced pass of ~2M spans costs tens of megabytes,
and are written out once, when the pass ends.  Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array


class SpanRecorder:
    """Records nested spans around wrapped callables, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: float):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call.

        ``count(recorder, args, kwargs, result)`` runs after a call that
        returned, outside the span, to add exact work counts.
        """
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(recorder.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(recorder, args, kwargs, result)
            return result

        return traced

    def run_op(self, name: str, op_id: int, fn):
        """Call ``fn()`` as operation ``op_id`` under a root span ``name``."""
        self.op_id = op_id
        return self.wrap(name, fn)()

    def arrays(self):
        """The spans as numpy arrays: (name, start, end, parent, op)."""
        import numpy as np

        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.op, dtype=np.int32).copy(),
        )

    def write(self, path: str):
        import numpy as np

        name, start, end, parent, op = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=op,
        )


def self_times(start, end, parent):
    """Per-span self time: duration minus the summed durations of direct children."""
    import numpy as np

    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(names, name, start, end, parent, op, min_op: int = -1) -> dict:
    """{span name: {"calls", "s", "self_s"}} over spans with op id >= ``min_op``."""
    import numpy as np

    own = self_times(start, end, parent)
    keep = np.asarray(op) >= min_op
    ids = np.asarray(name)[keep]
    dur = (np.asarray(end) - np.asarray(start))[keep]
    calls = np.bincount(ids, minlength=len(names))
    total = np.bincount(ids, weights=dur, minlength=len(names))
    own_total = np.bincount(ids, weights=own[keep], minlength=len(names))
    return {
        n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own_total[i])}
        for i, n in enumerate(names)
    }
