"""Outside-in tracing of the pencilci layers for the benchmark's traced run.

Nothing in the package changes. The tracer rebinds the public names that the
callers look up at call time:

* ``pencilci.continuation.{gen_eig_ordered, predict, sign_correct,
  step_control, secant_guard, veering_traverse}``, which ``trace`` and
  ``veering_traverse`` resolve as module globals;
* ``pencilci.detect.trace_loop``, which ``sweep_grid`` and ``refine_box``
  reach through ``_trace_box``. Its result carries ``step_stats``.

Pencils are wrapped in a forwarding proxy that times ``eval``. Detect-level
spans (``sweep_grid``, ``refine_box``) are opened by the benchmark around its
own calls. For census, cells run in pool workers, so the benchmark rebinds
``pencilci.census._run_cell`` to :func:`traced_run_cell`, which traces the
cell inside the worker and leaves the tallies next to the cell file.

Per-step calls (tens of thousands per pass) are tallied as call count,
inclusive time and self time per name. Coarse calls (loops, veering
traversals, sweeps, refinements) are also kept as spans:
name, start, end, and the index of the enclosing span. All of it stays in
memory until the run writes it out.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import pencilci.census as _census
import pencilci.continuation as _cont
import pencilci.detect as _detect

_ORIGINAL_RUN_CELL = _census._run_cell

# Names rebound in pencilci.continuation; trace() and veering_traverse()
# look each of them up as a module global on every call.
_CONTINUATION_NAMES = (
    "gen_eig_ordered",
    "predict",
    "sign_correct",
    "step_control",
    "secant_guard",
    "veering_traverse",
)
# Calls recorded as spans as well as tallies.
_SPAN_NAMES = {"trace_loop", "veering_traverse", "sweep_grid", "refine_box"}


class _Frame:
    __slots__ = ("name", "child", "span")

    def __init__(self, name, span):
        self.name = name
        self.child = 0.0
        self.span = span


class Tracer:
    """Tallies and spans for one process; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.calls = Counter()
        self.calls_by_parent = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.identity_violations = []
        self._stack = [_Frame("root", None)]
        self._saved = []
        self._last_overlap = math.inf
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        span = None
        if name in _SPAN_NAMES:
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
            span = len(self.spans)
            self.spans.append([name, time.perf_counter() - self._t0, None, parent])
        frame = _Frame(name, span)
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start):
        end = time.perf_counter()
        dt = end - start
        self._stack.pop()
        parent = self._stack[-1]
        parent.child += dt
        self.calls[frame.name] += 1
        self.calls_by_parent[(frame.name, parent.name)] += 1
        self.total_s[frame.name] += dt
        self.self_s[frame.name] += dt - frame.child
        if frame.span is not None:
            self.spans[frame.span][2] = end - self._t0

    @contextmanager
    def span(self, name):
        """Time a call the benchmark itself makes."""
        frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, start)

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- per-name hooks ---------------------------------------------------

    def _after_sign_correct(self, result, args, kwargs):
        self._last_overlap = result[2]

    def _after_step_control(self, result, args, kwargs):
        # trace() rejects when the overlap is ambiguous or rho is over budget;
        # an ambiguous overlap is counted as such whatever rho says.
        if self._last_overlap < _cont.AMBIGUOUS_OVERLAP:
            self.counts["rejected.ambiguous"] += 1
        elif not result.accept:
            self.counts["rejected.rho"] += 1

    def _after_secant_guard(self, result, args, kwargs):
        h = args[2] if len(args) > 2 else kwargs["h"]
        if result < h:
            self.counts["secant_caps"] += 1

    def _after_veering(self, result, args, kwargs):
        self.counts["veering.points"] += len(result.points)

    def _traced_trace_loop(self, fn):
        timed = self._timed("trace_loop", fn)

        def trace_loop(*args, **kwargs):
            eig0 = self.calls["gen_eig_ordered"]
            sub0 = self.calls_by_parent[("gen_eig_ordered", "veering_traverse")]
            ent0 = self.calls["veering_traverse"]
            pts0 = self.counts["veering.points"]
            try:
                result = timed(*args, **kwargs)
            except Exception:
                self.counts["loops.unresolvable"] += 1
                self.counts["eigensolves.unresolvable"] += self.calls["gen_eig_ordered"] - eig0
                raise
            stats = result.step_stats
            eig = self.calls["gen_eig_ordered"] - eig0
            substeps = self.calls_by_parent[("gen_eig_ordered", "veering_traverse")] - sub0
            entries = self.calls["veering_traverse"] - ent0
            veer_points = self.counts["veering.points"] - pts0
            accepted = stats["accepted"] - veer_points
            self.counts["loops.ok"] += 1
            self.counts["accepted"] += accepted
            self.counts["rejected"] += stats["rejected"]
            self.counts["eigensolves.ok"] += eig
            # Every eigensolve of a trace is its start, an accepted or rejected
            # predictor step, a veering entry, or a veering substep.
            expected = 1 + accepted + stats["rejected"] + entries + substeps
            if eig != expected or entries != stats["veering_events"]:
                self.identity_violations.append(
                    {"eigensolves": eig, "expected": expected, "veering_entries": entries,
                     "veering_events": stats["veering_events"]}
                )
            return result

        return trace_loop

    # -- installation -----------------------------------------------------

    def _rebind(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self):
        """Wrap the continuation and detect names in this process."""
        hooks = {
            "sign_correct": self._after_sign_correct,
            "step_control": self._after_step_control,
            "secant_guard": self._after_secant_guard,
            "veering_traverse": self._after_veering,
        }
        for name in _CONTINUATION_NAMES:
            self._rebind(_cont, name, self._timed(name, getattr(_cont, name), hooks.get(name)))
        self._rebind(_detect, "trace_loop", self._traced_trace_loop(_detect.trace_loop))

    def install_census(self):
        """Trace census cells inside the pool workers instead of in this process."""
        self._rebind(_census, "_run_cell", traced_run_cell)

    def uninstall(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def pencil(self, pencil):
        return TracedPencil(pencil, self)

    def count_sweep(self, sweep):
        self.counts["boxes"] += len(sweep.boxes)
        self.counts["retry_boxes"] += sum(1 for b in sweep.boxes if b.attempts > 1)
        self.counts["unresolved"] += len(sweep.unresolved)

    def count_refine(self, estimate):
        self.counts["refine.levels"] += estimate.depth

    # -- export -----------------------------------------------------------

    def tallies(self):
        return {
            "calls": dict(self.calls),
            "calls_by_parent": {f"{a}<{b}": v for (a, b), v in self.calls_by_parent.items()},
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "identity_violations": self.identity_violations,
        }

    def collect_cells(self, cell_dir):
        """Merge the tallies that traced_run_cell left in a census cell directory."""
        for name in sorted(os.listdir(cell_dir)):
            if name.endswith(".trace.json"):
                with open(os.path.join(cell_dir, name), encoding="utf-8") as fh:
                    self.merge(json.load(fh))

    def merge(self, tallies):
        """Add tallies exported by another tracer."""
        self.calls.update(tallies["calls"])
        for key, value in tallies["calls_by_parent"].items():
            self.calls_by_parent[tuple(key.split("<", 1))] += value
        for key, value in tallies["total_s"].items():
            self.total_s[key] += value
        for key, value in tallies["self_s"].items():
            self.self_s[key] += value
        self.counts.update(tallies["counts"])
        self.identity_violations.extend(tallies["identity_violations"])


class NullTracer:
    """Stand-in for the untraced passes: no wrapping, no recording."""

    def span(self, name):
        return nullcontext()

    def pencil(self, pencil):
        return pencil

    def count_sweep(self, sweep):
        pass

    def count_refine(self, estimate):
        pass

    def collect_cells(self, cell_dir):
        pass


class TracedPencil:
    """Forwarding proxy that times ``eval``; every other attribute passes through."""

    def __init__(self, pencil, tracer):
        self._pencil = pencil
        self.eval = tracer._timed("eval", pencil.eval)

    def __getattr__(self, name):
        return getattr(self._pencil, name)


def traced_run_cell(task):
    """Stand-in for ``pencilci.census._run_cell`` inside a census worker.

    Traces the cell with a fresh tracer and writes the tallies to
    ``<cell file>.trace.json``, which the census report ignores.
    """
    tracer = Tracer()
    tracer.install()
    original_sweep = _census.sweep_grid

    def sweep_grid(pencil, grid, **kwargs):
        with tracer.span("sweep_grid"):
            result = original_sweep(tracer.pencil(pencil), grid, **kwargs)
        tracer.count_sweep(result)
        return result

    tracer._rebind(_census, "sweep_grid", sweep_grid)
    try:
        out_path = _ORIGINAL_RUN_CELL(task)
    finally:
        tracer.uninstall()
    with open(out_path + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.tallies(), fh)
    return out_path
