"""In-memory spans around calls into hmqm, installed by patching names.

A span records its name, start, end, the span that caused it (its parent)
and the top-level span it belongs to.  A layer's self time is its span's
duration minus the time its child spans cover; every per-layer time this
benchmark reports is self time.  Byte counts and sizes are kept as plain
per-name samples beside the spans.

Patches go where a name is looked up, not where it is defined: `adversary`
holds its own references to `bank_mint` and `holder_verify`, and
`holder_verify` finds `measure_positions` and `bank_check` in `protocol`'s
globals.
"""

import functools
import statistics
import threading
import time
from contextlib import contextmanager


@contextmanager
def swapped(targets):
    """Replace each owner.attribute by make(original) while the block runs."""
    originals = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


class Recorder:
    """Collects spans and samples; safe to use from several threads."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, name, start, end, self_s)
        self.samples: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def wrap(self, fn, name):
        """fn wrapped in a span; name is a string or a function of fn's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else None
            frame = [span_id, parent[1] if parent else span_id, 0.0]  # id, root, child time
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.spans.append((span_id, parent[0] if parent else None, frame[1],
                                   label, start, end, end - start - frame[2]))

        return wrapper

    def patched(self, targets):
        """Wrap each (owner, attribute, name) in a span while the block runs."""
        return swapped([(owner, attr, lambda fn, name=name: self.wrap(fn, name))
                        for owner, attr, name in targets])

    def self_times(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for span in self.spans:
            out.setdefault(span[3], []).append(span[6])
        return out

    def dump(self) -> dict:
        """Plain-data summary, for a process that hands its spans to another."""
        return {"self_times": self.self_times(), "samples": self.samples}

    def merge(self, dumped: dict) -> None:
        """Add another process's dump(); its spans keep only their self times."""
        for name, times in dumped["self_times"].items():
            self.spans.extend((None, None, None, name, None, None, t) for t in times)
        for name, values in dumped["samples"].items():
            for value in values:
                self.sample(name, value)


def layer_metrics(names, self_times: dict[str, list[float]]) -> dict:
    """calls, busy_s and p50_ms of self time for each layer name; 0 when never called."""
    metrics = {}
    for name in names:
        times = self_times.get(name, [])
        metrics[f"{name}.calls"] = (len(times), "count")
        metrics[f"{name}.busy_s"] = (float(sum(times)), "s")
        metrics[f"{name}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    return metrics
