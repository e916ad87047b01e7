"""Span recorder for the traced benchmark run.

Spans are recorded around the calls into each rdmsim layer by swapping
the layer's entry points on their modules for timing wrappers; nothing
inside the library changes.  Only coarse entry points are wrapped: a
per-step helper such as ``collapse.collapse_step`` is looked up on every
step and would distort the very time it measures.

A span is (name, start, end, parent index).  Its layer is the part of
the name before the first dot.  A layer's self time is the duration of
its spans minus the part covered by their child spans, so nested calls
(``cli.main`` -> ``collapse.run_trajectory`` -> ...) are not counted
twice.  Work counts are derived from each call's arguments and result,
and only at the outermost span of a layer, so a writer that calls
another writer counts its bytes once.  A call that raises keeps its
span but adds no counts.
"""

import functools
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in used with tracing off: spans cost one method call."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, layer) -> bool:
        return any(_layer(self.spans[i][0]) == layer for i in self._stack)

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[_layer(name)] += (end - start) - covered
        return dict(out)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# --- work counts, from a call's bound arguments and its result ----------

def _collapse(calls, useful, stepped):
    return {"collapse.calls": calls, "collapse.trial_steps": useful,
            "collapse.stepped_steps": stepped}


def _count_outcomes(a, res):
    steps = res["steps"]
    # live_fraction denominator: every trial stepped to the slowest one
    return _collapse(1, int(steps.sum()), a["n_trials"] * int(steps.max()))


def _count_statistics(a, res):
    n = a["n_trials"] * a["n_steps"]
    return _collapse(1, n, n)


def _count_trajectory(a, res):
    return _collapse(1, res["steps"], res["steps"])


def _count_written(a, res):
    return {"io.bytes_written": os.path.getsize(a["path"])}


# (module = layer, attribute, counter or None)
ENTRY_POINTS = [
    ("collapse", "ensemble_outcomes", _count_outcomes),
    ("collapse", "ensemble_statistics", _count_statistics),
    ("collapse", "run_trajectory", _count_trajectory),
    ("beable", "ensemble_jump_run",
     lambda a, r: {"beable.traj_steps": a["n_traj"] * a["steps"]}),
    ("beable", "jump_trajectory",
     lambda a, r: {"beable.traj_steps": a["steps"]}),
    ("protective", "zeno_protective_run",
     lambda a, r: {"protective.projections": a["setup"].n_projections}),
    # one density and one flux projection per region
    ("protective", "tomography",
     lambda a, r: {"protective.projections": 2 * a["n_regions"]}),
    # both particles' stay events are boosted and paired
    ("frames", "boosted_correlation_stats",
     lambda a, r: {"frames.events": 2 * a["traj"].instants}),
    ("frames", "multiparticle_appearance_scan",
     lambda a, r: {"frames.events": a["traj"].instants}),
    ("schrodinger", "evolve_grid",
     lambda a, r: {"schrodinger.grid_steps": a["steps"]}),
    ("rdm", "sample_stays", lambda a, r: {"rdm.draws": a["n"]}),
    ("rdm", "sample_entangled_stays", lambda a, r: {"rdm.draws": a["n"]}),
    ("cli", "main", lambda a, r: {"cli.jobs": 1}),
    ("io", "write_json", _count_written),
    ("io", "write_csv", _count_written),
    ("io", "write_trajectory_csv", _count_written),
    ("io", "write_paired_trajectory_csv", _count_written),
    ("io", "write_trajectory_binary", _count_written),
    ("verify", "run_suites", None),
]


def _wrap(tracer, fn, layer, counter):
    sig = inspect.signature(fn)
    name = f"{layer}.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = not tracer.inside(layer)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None and outermost:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.counts.update(counter(bound.arguments, result))
        return result

    return wrapper


@contextmanager
def instrumented(tracer, package):
    """Swap every entry point of ``package`` (the imported rdmsim) for a
    span-recording wrapper, and restore the originals on exit.

    The acceptance criteria that ``verify`` runs are reached through the
    ``acceptance.ALL_CRITERIA`` list, so that list is swapped as a whole
    and its criteria are timed as the verify layer.
    """
    saved = []
    try:
        for layer, attr, counter in ENTRY_POINTS:
            mod = getattr(package, layer)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, layer, counter))
        acc = package.acceptance
        saved.append((acc, "ALL_CRITERIA", acc.ALL_CRITERIA))
        acc.ALL_CRITERIA = [_wrap(tracer, fn, "verify", None) for fn in acc.ALL_CRITERIA]
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
