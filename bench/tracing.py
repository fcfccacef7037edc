"""In-process traced runs: per-layer times and counts of a workload.

The tracer wraps risbeam's public functions at the module attributes
their callers look them up through (``risbeam.analysis.dtpq``,
``risbeam.channel.local_angle_matrices``, ...), so the program itself is
not edited.  Each call records a span -- name, layer, parent span and
thread -- and the counters below.  Work that ``run_sweep`` hands to its
thread pool is attributed to the submitting span.

A layer's self time is the time its spans spend outside their child
spans; the layer self times plus the unattributed harness time add up to
the traced runs' wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import cli_runner

LAYERS = ("cli", "analysis", "quantization", "channel", "geometry", "radiation")


def _count_design(counts, args, result):
    counts["quantization.calls"] += 1
    counts["quantization.candidates"] += result.candidates_evaluated
    counts["quantization.candidate_cells"] += (
        result.candidates_evaluated * result.shifts.level_indices.size
    )


def _count_field(counts, args, result):
    counts["channel.field_point_cells"] += len(result) * args[0].panel.num_cells


def _count_link(counts, args, result):
    counts["channel.link_state_calls"] += 1


def _count_rows(size):
    def count(counts, args, result):
        counts["cli.rows_written"] += size(args)
    return count


# (module, attribute, layer, counter)
WRAPS = (
    ("risbeam.cli", "main", "cli", None),
    ("risbeam.cli", "load_scenario", "cli", None),
    ("risbeam.cli", "write_shifts_csv", "cli", _count_rows(lambda a: a[1].level_indices.size)),
    ("risbeam.cli", "write_sweep_csv", "cli", _count_rows(lambda a: len(a[1]))),
    ("risbeam.cli", "write_map_csv", "cli", _count_rows(lambda a: a[3].size)),
    ("risbeam.cli", "run_sweep", "analysis", None),
    ("risbeam.cli", "angle_scan", "analysis", None),
    ("risbeam.cli", "gradient_map", "analysis", None),
    ("risbeam.cli", "pl_slope_fit", "analysis", None),
    ("risbeam.analysis", "path_loss_samples", "analysis", None),
    ("risbeam.cli", "dtpq", "quantization", _count_design),
    ("risbeam.cli", "eipq", "quantization", _count_design),
    ("risbeam.cli", "fixed_threshold", "quantization", _count_design),
    ("risbeam.cli", "exhaustive_search", "quantization", _count_design),
    ("risbeam.analysis", "dtpq", "quantization", _count_design),
    ("risbeam.analysis", "eipq", "quantization", _count_design),
    ("risbeam.analysis", "fixed_threshold", "quantization", _count_design),
    ("risbeam.cli", "link_state", "channel", _count_link),
    ("risbeam.analysis", "link_state", "channel", _count_link),
    ("risbeam.quantization", "link_state", "channel", _count_link),
    ("risbeam.analysis", "field_at_rx_points", "channel", _count_field),
    ("risbeam.channel", "path_length_matrices", "geometry", None),
    ("risbeam.geometry", "path_length_matrices", "geometry", None),
    ("risbeam.channel", "local_angle_matrices", "geometry", None),
    ("risbeam.channel", "combined_pattern_matrix", "radiation", None),
)

_DESIGNS = ("dtpq", "eipq", "fixed_threshold", "exhaustive_search")
_WRITERS = ("write_shifts_csv", "write_sweep_csv", "write_map_csv")
# Inclusive-time metrics: metric name -> wrapped function names.
TIMED = {
    "quantization.dtpq_s": ("dtpq",),
    "quantization.eipq_s": ("eipq",),
    "quantization.fixed_s": ("fixed_threshold",),
    "channel.field_s": ("field_at_rx_points",),
    "channel.link_state_s": ("link_state",),
    "geometry.path_length_s": ("path_length_matrices",),
    "geometry.local_angles_s": ("local_angle_matrices",),
    "radiation.pattern_s": ("combined_pattern_matrix",),
    "cli.parse_s": ("load_scenario",),
    "cli.write_s": _WRITERS,
}
# Counted metrics: metric name -> wrapped functions whose counters feed it.
COUNTED = {
    "quantization.calls": _DESIGNS,
    "quantization.candidates": _DESIGNS,
    "quantization.candidate_cells": _DESIGNS,
    "channel.field_point_cells": ("field_at_rx_points",),
    "channel.link_state_calls": ("link_state",),
    "cli.rows_written": _WRITERS,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    """Installs the wrappers and collects spans and counts while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.installed: set[str] = set()  # names of the wrapped functions
        self.broken: set[str] = set()  # wrapped functions whose counter failed
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, layer: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, layer, stack[-1] if stack else None,
                        threading.get_ident(), time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if counter is not None:
                with tracer._lock:
                    try:
                        counter(tracer.counts, args, result)
                    except (AttributeError, IndexError, TypeError):
                        tracer.broken.add(name)
            return result

        return functools.wraps(fn)(wrapper)

    def _pool_class(self, executor):
        """Executor class whose tasks run as children of the submitting span."""
        tracer = self

        class TracedPool(executor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task():
                    inner = tracer._stack()
                    if parent is not None:
                        inner.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        if parent is not None:
                            inner.pop()

                return super().submit(task)

        return TracedPool

    def _replace(self, module_name: str, attr: str, make) -> bool:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(f"{module_name}.{attr}")
            return False
        setattr(module, attr, make(original))
        self._originals.append((module, attr, original))
        return True

    def install(self) -> None:
        for module_name, attr, layer, counter in WRAPS:
            if self._replace(module_name, attr, lambda fn: self._wrap(fn, attr, layer, counter)):
                self.installed.add(attr)
        self._replace("risbeam.analysis", "ThreadPoolExecutor", self._pool_class)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Spans and counts recorded so far; starts a fresh recording."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _union_length(children[s.id]) for s in spans}


def pool_workers(spans: list[Span]) -> int:
    """Largest number of distinct threads the children of one span ran on."""
    threads: dict[int, set[int]] = defaultdict(set)
    for s in spans:
        if s.parent is not None:
            threads[s.parent].add(s.thread)
    return max((len(t) for t in threads.values()), default=1)


def layer_metrics(tracer: Tracer, spans: list[Span], counts: dict[str, float],
                  wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A metric is left out (and so reported absent) when none of the
    functions it is measured at could be wrapped, or a counter could not
    read the call it counts.
    """
    incl: dict[str, float] = defaultdict(float)
    for s in spans:
        incl[s.name] += s.end - s.start
    metrics = {}
    for metric, names in TIMED.items():
        if tracer.installed.intersection(names):
            metrics[metric] = sum(incl[n] for n in names)
    for metric, names in COUNTED.items():
        if tracer.installed.intersection(names) and not tracer.broken.intersection(names):
            metrics[metric] = counts.get(metric, 0.0)
    if "channel.field_s" in metrics and "channel.field_point_cells" in metrics:
        cells = metrics["channel.field_point_cells"]
        metrics["channel.field_ns_per_point_cell"] = (
            metrics["channel.field_s"] / cells * 1e9 if cells else 0.0
        )
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.layer] += own[s.id]
    metrics.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    ids = {s.id for s in spans}
    roots = sum(s.end - s.start for s in spans if s.parent not in ids)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - roots
    return metrics


def run_job(job) -> tuple[float, tuple[int, str]]:
    """Run one job through the CLI in this process; (wall time, (exit code, stdout))."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_runner.invoke(list(job.argv))
    return time.perf_counter() - start, (code, out.getvalue())


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# Reference rows: (metric, label, unit scale, unit, reference value).  The
# references were measured on a 2-core machine with numpy 2.4.6, best of 3.
BASELINE_ROWS = (
    ("baseline.link_state_ms.c512", "link_state, 512 cells", 1.0, "ms", 0.8),
    ("baseline.link_state_ms.c1250", "link_state, 1250 cells", 1.0, "ms", 0.8),
    ("baseline.link_state_ms.c20000", "link_state, 20000 cells", 1.0, "ms", 5.7),
    ("quantization.dtpq_s.c512", "dtpq, 512 cells", 1e3, "ms", 26.0),
    ("quantization.dtpq_s.c2048", "dtpq, 2048 cells", 1.0, "s", 0.40),
    ("quantization.dtpq_s.c5000", "dtpq, 5000 cells", 1.0, "s", 2.1),
    ("baseline.sweep51_1thread_s", "run_sweep 51 pts, 1 thread", 1.0, "s", 1.03),
    ("analysis.sweep51_2thread_s", "run_sweep 51 pts, 2 threads", 1.0, "s", 0.55),
    ("baseline.angle_scan_s", "angle_scan 181 pts", 1e3, "ms", 53.0),
    ("baseline.gradient_map_s", "gradient_map 181x181", 1.0, "s", 2.3),
)


def baseline(tracer: Tracer) -> tuple[dict[str, float], set[str]]:
    """The reference table's rows, timed with tracing off except the 2-thread sweep.

    The 2-thread sweep runs traced, which gives the pool's worker count.
    A row whose API a later change removed is reported absent.
    """
    import risbeam.cli

    metrics: dict[str, float] = {}
    absent: set[str] = set()

    def sweep51():
        return risbeam.SweepSpec(axis="rx_distance", start=5.0, stop=10.0, step=0.1,
                                 methods=("continuous", "dtpq", "eipq", "fixed"),
                                 epsilon_deg=5.0, gamma_deg=235.0)

    def link_rows():
        for cells, scenario, repeats in (
            (512, risbeam.ris_2p6ghz(), 5),
            (1250, risbeam.ris_4p9ghz(), 5),
            (20000, risbeam.ris_2p6ghz().with_panel(rows=200, cols=100), 3),
        ):
            metrics[f"baseline.link_state_ms.c{cells}"] = 1e3 * _median_time(
                lambda: risbeam.link_state(scenario), repeats)

    def dtpq_rows():
        for cells, rows, cols, repeats in ((512, 32, 16, 5), (2048, 64, 32, 3), (5000, 100, 50, 1)):
            scenario = risbeam.ris_2p6ghz().with_panel(rows=rows, cols=cols)
            state = risbeam.link_state(scenario)
            metrics[f"quantization.dtpq_s.c{cells}"] = _median_time(
                lambda: risbeam.dtpq(scenario, state), repeats)
        metrics["quantization.dtpq_scaling_exp"] = statistics.linear_regression(
            [math.log(c) for c in (512, 2048, 5000)],
            [math.log(metrics[f"quantization.dtpq_s.c{c}"]) for c in (512, 2048, 5000)],
        ).slope

    def sweep_rows():
        scenario = risbeam.ris_2p6ghz()
        metrics["baseline.sweep51_1thread_s"] = _median_time(
            lambda: risbeam.run_sweep(scenario, sweep51(), max_workers=1), 1)
        tracer.take()
        tracer.enabled = True
        try:
            # Through the wrapped attribute, so the sweep itself is a span.
            metrics["analysis.sweep51_2thread_s"] = _median_time(
                lambda: risbeam.cli.run_sweep(scenario, sweep51(), max_workers=2), 1)
        finally:
            tracer.enabled = False
        spans, _ = tracer.take()
        metrics["analysis.pool_workers"] = float(pool_workers(spans))

    def field_rows():
        scenario = risbeam.ris_2p6ghz()
        metrics["baseline.angle_scan_s"] = _median_time(
            lambda: risbeam.angle_scan(scenario, -90.0, 90.0, 1.0, math.radians(45.0),
                                       ("continuous", "dtpq", "fixed"), gamma_deg=235.0), 3)
        theta = risbeam.grid_values(0.0, 90.0, 0.5)
        phi = risbeam.grid_values(0.0, 360.0, 2.0)
        metrics["baseline.gradient_map_s"] = _median_time(
            lambda: risbeam.gradient_map(scenario, (math.radians(45.0), math.pi),
                                         theta, phi, "dtpq"), 1)

    for name, rows in (("link_state", link_rows), ("dtpq", dtpq_rows),
                       ("run_sweep", sweep_rows), ("angle_scan/gradient_map", field_rows)):
        try:
            rows()
        except (AttributeError, TypeError) as exc:
            absent.add(f"baseline {name}: {exc}")
    return metrics, absent


def traced_run(jobs, clean, check) -> tuple[dict[str, float], int, dict[str, str], set[str]]:
    """Each job run in this process untraced and traced, then the reference rows.

    The two runs of a job follow each other, in alternating order, so
    that drift in the machine's speed hardly enters ``trace.overhead_s``.
    ``clean`` removes the jobs' outputs and ``check(jobs, results)``
    checks outputs.  Returns the per-layer metrics, the runs attempted,
    the failed runs and the names of wrapped functions or rows that were
    absent.
    """
    sys.path.insert(0, str(cli_runner.SRC))
    import risbeam  # noqa: F401  (import cost stays out of both passes)

    tracer = Tracer()
    tracer.install()
    walls = {"untraced": 0.0, "traced": 0.0}
    failures: dict[str, str] = {}
    last: dict[str, tuple[str, tuple[int, str]]] = {}
    try:
        clean()
        for i, job in enumerate(jobs):
            for mode in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
                tracer.enabled = mode == "traced"
                try:
                    wall, result = run_job(job)
                finally:
                    tracer.enabled = False
                walls[mode] += wall
                last[job.name] = mode, result
                for name, reason in check([job], {job.name: result}).items():
                    failures[f"{name} ({mode})"] = reason
        # Cross-method checks on the outputs left on disk, charged to the run that wrote them.
        for name, reason in check(jobs, {n: r for n, (_, r) in last.items()}).items():
            failures.setdefault(f"{name} ({last[name][0]})", reason)
        spans, counts = tracer.take()
        metrics = layer_metrics(tracer, spans, counts, walls["traced"])
        metrics["trace.untraced_wall_s"] = walls["untraced"]
        metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
        extra, absent = baseline(tracer)
        metrics.update(extra)
    finally:
        tracer.uninstall()
    return metrics, 2 * len(jobs), failures, tracer.absent | absent
