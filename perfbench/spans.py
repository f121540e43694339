"""In-memory span recording and the arithmetic the traced run reports.

A span is a list ``[name, parent, step, start_ns, end_ns]``. ``parent`` is
the index of the enclosing span (-1 at the root) and ``step`` is the number
of training steps begun when the span opened. Spans are recorded from one
thread, so a span's children are the calls made while it was open.
"""

from __future__ import annotations

import functools
import math
import time

NAME, PARENT, STEP, START, END = range(5)


class Tracer:
    """Records a span around every call to a wrapped function.

    A call to the function wrapped under ``step_span`` begins a new step;
    it and every span opened before the next one carry that step's index.
    """

    def __init__(self, step_span: str):
        self.spans: list[list] = []
        self.step = 0
        self._step_span = step_span
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result, args)`` sees each
        result, for counts taken where the work happens."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == self._step_span:
                self.step += 1
            index = len(spans)
            span = [name, open_[-1] if open_ else -1, self.step, 0, 0]
            spans.append(span)
            open_.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def write_tsv(self, path):
        with open(path, "w") as f:
            f.write("index\tname\tparent\tstep\tstart_ns\tend_ns\n")
            for i, (name, parent, step, start, end) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{parent}\t{step}\t{start}\t{end}\n")


def self_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def tail_quantile(n: int, cap: float = 0.99, beyond: int = 10) -> float:
    """Highest quantile, up to ``cap``, with at least ``beyond`` of ``n``
    samples above it; the median when no quantile of at least 0.5 has."""
    if n <= 0:
        return 0.5
    return max(0.5, min(cap, (n - beyond) / n))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least a share ``q``
    of the samples at or below it; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def boundary_metrics(spans, boundaries) -> tuple[dict, dict]:
    """Per boundary: calls, inclusive and self seconds, p50 and tail
    microseconds. Also returns, per tail metric, (quantile used, samples)."""
    selfs = self_ns(spans)
    durations = {b: [] for b in boundaries}
    self_total = dict.fromkeys(boundaries, 0)
    for span, own in zip(spans, selfs):
        if span[NAME] in durations:
            durations[span[NAME]].append(span[END] - span[START])
            self_total[span[NAME]] += own
    metrics, tails = {}, {}
    for b in boundaries:
        d = durations[b]
        tail = tail_quantile(len(d))
        tails[f"{b}.us_p99"] = (tail, len(d))
        metrics[f"{b}.calls"] = len(d)
        metrics[f"{b}.s"] = sum(d) / 1e9
        metrics[f"{b}.self_s"] = self_total[b] / 1e9
        metrics[f"{b}.us_p50"] = quantile(d, 0.5) / 1e3
        metrics[f"{b}.us_p99"] = quantile(d, tail) / 1e3
    return metrics, tails
