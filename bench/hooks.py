"""Function wrappers the benchmark installs inside the child process.

``acgcl.trainer`` and ``acgcl.cli`` import functions by name, so replacing a
function in its defining module alone would miss those call sites. ``patch``
therefore replaces every reference to the function object held by any loaded
``acgcl`` module. A name that no longer exists is reported as absent instead
of failing the run, so the benchmark keeps working when a module is
reorganised.

``Tracer`` keeps one span per wrapped call in memory (name, start, end,
parent span) and aggregates self times once the command has finished: a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def patch(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace ``module_name.attr`` wherever an acgcl module refers to it.

    Returns False, and patches nothing, when the function does not exist.
    """
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None) if module is not None else None
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "acgcl" or name.startswith("acgcl.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


class Tracer:
    """In-memory span recorder; one list entry per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, observe=None):
        """Time each call of ``fn`` as a span called ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after the span closes,
        so its own cost is not charged to the layer.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for record in self.spans:
            counts[record[0]] += 1
        return dict(counts)
