"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the package's public functions by replacing them
at their module-attribute call sites (every `haartrace` module global that
is bound to the function, so `from .x import f` copies are covered too).
Each span is (id, layer, start, end, parent id, report id); nothing is
written until the run ends.

Self time is wall time attributed to the innermost open spans: at every
instant inside a report the elapsed time is shared equally by the open
spans that have no open child.  On one thread this is the usual duration
minus the children's time; under the worker pool two sampling spans that
run side by side get half of the interval each, so the self times of a
report always sum to its root spans' wall time.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

# layer name -> (module, attribute) call sites that open a span of that layer.
# Entry points of one layer nest without a second span (`trace_cumulant`
# dispatches to the per-group functions, which `simulate` also calls directly).
SPAN_LAYERS = {
    "sampling.haar_sample": [("haartrace.sampling", "haar_sample")],
    "empirics.map_replicas": [("haartrace.empirics", "map_replicas")],
    "empirics.trace_field": [("haartrace.empirics", "trace_field")],
    "empirics.process_value": [("haartrace.empirics", "process_value")],
    "empirics.covariance_mc": [("haartrace.empirics", "covariance_mc")],
    "empirics.kstat_estimators": [("haartrace.empirics", "kstat_estimators")],
    "cumulants.trace_cumulant": [("haartrace.cumulants", "trace_cumulant"),
                                 ("haartrace.cumulants", "trace_cumulant_unitary"),
                                 ("haartrace.cumulants", "trace_cumulant_orthogonal")],
    "cumulants.cumulant_via_moments": [("haartrace.cumulants", "cumulant_via_moments")],
    "cumulants.covariance_closed": [("haartrace.cumulants", "covariance_closed")],
    "weingarten.weingarten_unitary": [("haartrace.weingarten", "weingarten_unitary")],
    "weingarten.weingarten_orthogonal": [("haartrace.weingarten", "weingarten_orthogonal")],
    "weingarten.gram_inverse": [("haartrace.weingarten", "_bareiss_inverse")],
}
# Hot helpers that are only counted: a span each would cost more than they do.
COUNT_LAYERS = {
    "combinatorics.enumerate_partitions": ("haartrace.combinatorics", "enumerate_partitions"),
    "combinatorics.join": ("haartrace.combinatorics", "join"),
    "combinatorics.refines": ("haartrace.combinatorics", "refines"),
    "combinatorics.mobius": ("haartrace.combinatorics", "mobius"),
}
ROOT_LAYER = "cli.main"
# tracemalloc peak is taken around this layer only, so the rest runs untracked.
MEMORY_LAYER = "empirics.covariance_mc"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[Counter] = []  # per report
        self.peak_bytes: list[int] = []
        self.report = -1
        self.enabled = False
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_report(self) -> None:
        self.report += 1
        self.counts.append(Counter())
        self.enabled = True

    def end_report(self) -> None:
        self.enabled = False

    def wrap(self, layer: str, fn):
        """`fn` recording one span per call while a report is being traced."""
        memory = layer == MEMORY_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:  # a pool thread: the caller is the main thread's open span
                main = self._stacks.get(self._main)
                parent = main[-1][0] if main else -1
            sid = next(self._ids)
            stack.append((sid, layer))
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if memory:
                    self.peak_bytes.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                self.spans.append((sid, layer, t0, t1, parent, self.report))
        return traced

    def _count(self, layer: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[self.report][layer] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every call site of the traced functions with a wrapper."""
        modules = [m for name, m in sys.modules.items()
                   if (name == "haartrace" or name.startswith("haartrace.")) and m is not None]
        wrappers = []
        for layer, sites in SPAN_LAYERS.items():
            for mod, attr in sites:
                fn = getattr(sys.modules[mod], attr)
                wrappers.append((fn, self.wrap(layer, fn)))
        for layer, (mod, attr) in COUNT_LAYERS.items():
            fn = getattr(sys.modules[mod], attr)
            wrappers.append((fn, self._count(layer, fn)))
        for fn, wrapper in wrappers:
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def report_spans(self, report: int) -> list[tuple]:
        return [s for s in self.spans if s[5] == report]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span id (see the module docstring)."""
    parent = {s[0]: s[4] for s in spans}
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    prev = None
    for t, opening, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        p = parent[sid]
        if opening:
            open_children[sid] = 0
            leaves.add(sid)
            if p in open_children:
                if open_children[p] == 0:
                    leaves.discard(p)
                open_children[p] += 1
        else:
            del open_children[sid]
            leaves.discard(sid)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return {s[0]: own.get(s[0], 0.0) for s in spans}


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Spans whose parent is missing or does not enclose them."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, layer, t0, t1, parent, report in spans:
        if t1 < t0:
            errors.append(f"{layer} #{sid} ends before it starts")
        if parent == -1:
            if layer != ROOT_LAYER:
                errors.append(f"{layer} #{sid} has no parent")
            continue
        p = by_id.get(parent)
        if p is None or p[5] != report:
            errors.append(f"{layer} #{sid}: parent #{parent} not in report {report}")
        elif not (p[2] <= t0 and t1 <= p[3]):
            errors.append(f"{layer} #{sid} outside its parent {p[1]} #{parent}")
    return errors
