"""In-memory span tracer that wraps itpsearch module attributes from outside.

A span is recorded at each wrapped call: its id, the id of the span that was
open when it started (0 at the root), the unit it belongs to, its name, start
and end times, and its self time (its duration minus the time covered by its
child spans).  Some boundaries also record a count, such as the probes a
search spent.  Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import csv
import functools
import importlib
from time import perf_counter

# (module, attribute, span name) for every call site the tracer intercepts.
# Callers bind these names at import time, so each binding is wrapped where it
# is looked up: bench's own imports, the CLI's imports, and datasets' codec.
WRAPPED = (
    ("itpsearch.bench", "sweep_n", "bench.sweep_n"),
    ("itpsearch.bench", "sweep_kappa", "bench.sweep_kappa"),
    ("itpsearch.bench", "run_trials", "bench.run_trials"),
    ("itpsearch.bench", "write_csv", "bench.write_csv"),
    ("itpsearch.bench", "search", "search"),
    ("itpsearch.bench", "sample_list", "distributions.sample_list"),
    ("itpsearch.bench", "sample_target", "distributions.sample_target"),
    ("itpsearch.bench", "trial_rng", "distributions.trial_rng"),
    ("itpsearch.datasets", "load_text", "datasets.load_text"),
    ("itpsearch.datasets", "encode_base27", "keycodec.encode_base27"),
    ("itpsearch.cli", "search", "search"),
    ("itpsearch.cli", "sample_list", "distributions.sample_list"),
    ("itpsearch.cli", "sample_target", "distributions.sample_target"),
    ("itpsearch.cli", "encode_base27", "keycodec.encode_base27"),
    ("itpsearch.cli", "make_probe_fn", "search.make_probe_fn"),
    ("itpsearch.oracle", "linear_scan", "oracle.linear_scan"),
    ("itpsearch.oracle", "minimax_depth", "oracle.minimax_depth"),
    ("itpsearch.oracle", "strategy_worst_depth", "oracle.strategy_worst_depth"),
    ("itpsearch.oracle", "sequential_rule", "oracle.sequential_rule"),
    ("itpsearch.oracle", "binary_equality_profile", "oracle.binary_equality_profile"),
    ("itpsearch.oracle", "average_depth_c2", "oracle.average_depth_c2"),
)

SEARCH_LABELS = ("binary", "interpolation", "itp-strict", "itp-relaxed")


def config_label(config) -> str:
    """Strategy label of a SearchConfig: binary, interpolation or itp-<variant>."""
    if config.strategy.value == "itp":
        return "itp-" + type(config.variant).__name__.lower()
    return config.strategy.value


class Tracer:
    def __init__(self) -> None:
        # (span_id, parent_id, unit_id, name, start, end, self_s, count)
        self.spans: list[tuple] = []
        self.unit_id = 0
        self._stack: list[list] = []  # [span_id, time covered by children]
        self._next_id = 1
        self._saved: list[tuple] = []

    def span(self, name: str, fn, count=None, rename=None):
        """Wrap fn so each call records a span.

        ``count(result)`` gives the span's count; ``rename(args)`` refines the
        name from the call's arguments.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append(
                (
                    span_id,
                    parent[0] if parent else 0,
                    self.unit_id,
                    rename(args) if rename else name,
                    start,
                    end,
                    end - start - frame[1],
                    count(result) if count else None,
                )
            )
            if parent is not None:
                # the parent's self time excludes this wrapper's bookkeeping too
                parent[1] += perf_counter() - start
            return result

        return wrapper

    def install(self) -> None:
        """Replace every WRAPPED attribute with a tracing wrapper.

        An attribute a later version no longer has is skipped, so its metrics
        read 0 and the moved call site shows instead of stopping the run.
        """
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper_for(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper_for(self, name: str, fn):
        if name == "search":
            return self.span(
                name,
                fn,
                count=lambda out: (out.queries, out.capped),
                rename=lambda args: "search." + config_label(args[2]),
            )
        if name == "datasets.load_text":
            return self.span(name, fn, count=lambda ds: (ds.list.n + 1, ds.dedup_count))
        if name == "search.make_probe_fn":
            rule_span = functools.partial(self.span, "search.probe_rule")
            return self.span(name, lambda *a, **k: rule_span(fn(*a, **k)))
        return self.span(name, fn)

    def absorb(self, rows, unit_id: int) -> None:
        """Append spans recorded in another process, renumbered into this one."""
        offset = self._next_id
        top = 0
        for span_id, parent_id, _, name, start, end, self_s, count in rows:
            top = max(top, span_id)
            self.spans.append(
                (
                    span_id + offset,
                    parent_id + offset if parent_id else 0,
                    unit_id,
                    name,
                    start,
                    end,
                    self_s,
                    tuple(count) if isinstance(count, list) else count,
                )
            )
        self._next_id = offset + top + 1

    def write(self, path) -> None:
        """Save the spans as CSV, times in microseconds from the first start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span_id", "parent_id", "unit_id", "name", "start_us", "end_us", "self_us"))
            for span_id, parent_id, unit_id, name, start, end, self_s, _ in self.spans:
                writer.writerow(
                    (
                        span_id,
                        parent_id,
                        unit_id,
                        name,
                        round((start - t0) * 1e6, 1),
                        round((end - t0) * 1e6, 1),
                        round(self_s * 1e6, 1),
                    )
                )


def summarize(spans) -> dict:
    """Per span name: calls, busy (total duration), self time, and counts."""
    out: dict = {}
    for _, _, _, name, start, end, self_s, count in spans:
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "probes": 0, "capped": 0})
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += self_s
        if name.startswith("search.") and count is not None:
            s["probes"] += count[0]
            s["capped"] += int(count[1])
    return out
