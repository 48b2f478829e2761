"""The benchmark's problem instances, one timed pass per workload, and the
checks on each pass's outputs.

All three workloads work on the same instances: the ROADMAP baseline SG+
pencils ``cell_seed(0, "full", 0, n, 0)`` at n = 10, 20, 30 (delta 0.45), on a
4x8 block of the baseline 16x32 grid over [0, pi] x [0, 2 pi]. The block keeps
the baseline box size, so loops, rejections and shared edges look as in a
full sweep, at 1/16 of its cost; it is the block whose eigensolves per box
sit within 8% of the full grid's at all three n. The instances are fixed so
that outputs can be pinned and every run does the same work; the ``--seed``
goes to the program's own seed arguments (the retry offsets of ``sweep_grid``
and ``refine_box``).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

import pencilci
from pencilci.census import ExperimentSpec, cell_seed
from pencilci.detect import GridSpec, refine_box, sweep_grid
from pencilci.errors import PencilError
from pencilci.linalg import gen_eig_ordered

DIMS = (10, 20, 30)
DELTA = 0.45
# Calibrator() takes about CAL_REF_S on the 2-core Xeon VM the benchmark was
# written on, so reference seconds read as seconds on that machine at its
# usual speed.
CAL_STEPS = 50
CAL_REF_S = 0.02
BASELINE_GRID = GridSpec(rows=16, cols=32, x_range=(0.0, math.pi), y_range=(0.0, 2.0 * math.pi))
# Rows 12..15 and columns 16..23 of the baseline grid.
BLOCK_GRID = GridSpec(
    rows=4,
    cols=8,
    x_range=(BASELINE_GRID.box(12, 16)[0], BASELINE_GRID.box(15, 23)[1]),
    y_range=(BASELINE_GRID.box(12, 16)[2], BASELINE_GRID.box(15, 23)[3]),
)

# Flag count and flagged-box digest of one block sweep per n.
SWEEP_PINS = {
    10: (6, "5723fd39897f11f6"),
    20: (14, "c871d145de02c686"),
    30: (39, "8d06117ede0992bb"),
}

# locate: refine the first flagged (box, pair) of the coarse sweep at these n
# until the half-diagonal of the final rectangle is at most LOCATE_UNCERTAINTY.
# One refinement (about 1.8 s at n = 10) keeps a pass short enough for several
# passes per run.
LOCATE_REFINE_DIMS = (10,)
LOCATE_UNCERTAINTY = 1e-10
# At a conical intersection the pair's gap grows linearly with distance, so at
# the estimate it is of the order of the uncertainty; 1e-7 relative leaves
# three orders of margin and still fails for any point off the intersection.
LOCATE_GAP_TOL = 1e-7

# census: digests of census_counts.csv, census_fits.csv and census_loglog.dat,
# keyed by the number of realizations per n.
CENSUS_PINS = {
    2: ("7bf9d30af00069a6", "f83763261acb39d2", "4135af0692cb88ee"),
}
CENSUS_FILES = ("counts", "fits", "loglog")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def baseline_pencil(n: int):
    seed = cell_seed(0, "full", 0, n, 0)
    return pencilci.sgplus_pencil(pencilci.sgplus_generate(n, n - 1, DELTA, seed))


def census_spec() -> ExperimentSpec:
    """At least 2 x nproc cells, so every worker runs more than one cell.

    Cells run in n_list order. Largest n first: the first cell of each
    freshly forked worker pays its warm-up, which a short n = 10 cell would
    turn into a noisy sweep_n10_s.
    """
    return ExperimentSpec(
        seed=0,
        n_list=DIMS[::-1],
        b_list=("full",),
        delta_list=(DELTA,),
        realizations=max(2, math.ceil(2 * nproc() / len(DIMS))),
        rows=BLOCK_GRID.rows,
        cols=BLOCK_GRID.cols,
        x_range=BLOCK_GRID.x_range,
        y_range=BLOCK_GRID.y_range,
    )


def setup(workload: str):
    """Everything built before the timed section: the pencils, or the census spec."""
    if workload == "census":
        return census_spec()
    return {n: baseline_pencil(n) for n in DIMS}


def flag_digest(sweep) -> str:
    flags = [(b.row, b.col, b.pairs) for b in sweep.boxes if b.pairs]
    return hashlib.sha256(repr(flags).encode()).hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def kernel_seconds() -> float:
    """One run of the calibration kernel: a continuation step's shape at each n."""
    rng = np.random.default_rng(0)
    pencils = []
    for n in DIMS:
        L = rng.standard_normal((n, n))
        M = rng.standard_normal((n, n))
        pencils.append((L @ L.T, M @ M.T + n * np.eye(n)))
    start = time.perf_counter()
    for _ in range(CAL_STEPS):
        for A, B in pencils:
            w, V = scipy.linalg.eigh(A, B)
            denom = np.subtract.outer(w, w)
            np.fill_diagonal(denom, 1.0)
            float(np.max(np.abs((V.T @ A @ V) / denom)))
    return time.perf_counter() - start


class Calibrator:
    """Times a fixed numpy/scipy kernel: the machine's speed right now.

    The host's speed drifts by up to 1.6x over tens of seconds. The kernel
    is shaped like a continuation step (generalized eigh, a projection,
    divided differences) at n = 10, 20 and 30, and uses nothing from
    pencilci, so a change to the program does not move it. Run next to
    every timed unit, it removes most of that drift: over 10-s windows the
    spread of the n = 10 block sweep's median fell from 14% to 5%.

    With workers > 1 the kernel runs in that many worker processes at once
    and the mean is taken, for units that keep every core busy: how fast two
    processes run together also depends on where the host places the cores.
    The workers are ``run.py --calibration-worker`` processes that time the
    kernel once per line read. Use the calibrator as a context manager so
    they are stopped.
    """

    def __init__(self, workers: int = 1):
        self.last = None
        self._workers = []
        if workers > 1:
            command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                       "--workload", "census", "--calibration-worker"]
            self._workers = [
                subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                for _ in range(workers)
            ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for worker in self._workers:
            worker.stdin.close()
        for worker in self._workers:
            worker.wait(timeout=60)

    def __call__(self) -> float:
        if not self._workers:
            self.last = kernel_seconds()
            return self.last
        for worker in self._workers:
            worker.stdin.write("\n")
            worker.stdin.flush()
        self.last = statistics.fmean(float(w.stdout.readline()) for w in self._workers)
        return self.last


class PassResult:
    """Times and outcome of one pass; failed counts failed operations.

    Times are reference seconds: calibrations bracket each timed unit (one
    calibration ends a unit and starts the next), and the unit's time is
    multiplied by CAL_REF_S / (mean of the two).
    """

    def __init__(self, calibrator):
        self._calibrator = calibrator
        self.wall = 0.0
        self.scale = 1.0
        self.sweep_s = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.census = {}

    @contextmanager
    def unit(self, n=None):
        """Time one unit of the pass; with n, it is the sweep at that n."""
        before = self._calibrator.last or self._calibrator()
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self.scale = 2.0 * CAL_REF_S / (before + self._calibrator())
        self.wall += self.scale * seconds
        if n is not None:
            self.sweep_s[n] = self.scale * seconds

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _sweep(result, tracer, pencil, n, seed):
    """One timed block sweep; unresolved boxes count as failed operations."""
    with result.unit(n), tracer.span("sweep_grid"):
        sweep = sweep_grid(tracer.pencil(pencil), BLOCK_GRID, seed=seed)
    tracer.count_sweep(sweep)
    result.attempted += len(sweep.boxes)
    result.failed += len(sweep.unresolved)
    if sweep.unresolved:
        result.problems.append(f"n={n}: {len(sweep.unresolved)} unresolved boxes")
    count, digest = SWEEP_PINS[n]
    got = (sweep.total_count, flag_digest(sweep))
    result.check(got == (count, digest), f"n={n}: flags {got}, pinned {(count, digest)}")
    return sweep


def sweep_pass(pencils, seed, tracer, work_dir, calibrator) -> PassResult:
    result = PassResult(calibrator)
    for n in DIMS:
        _sweep(result, tracer, pencils[n], n, seed)
    return result


def locate_depth() -> int:
    half_diag = 0.5 * math.hypot(BLOCK_GRID.dx, BLOCK_GRID.dy)
    return math.ceil(math.log2(half_diag / LOCATE_UNCERTAINTY))


def _check_estimate(result, pencil, n, rect, pair, est):
    x0, x1, y0, y1 = rect
    u = est.uncertainty
    result.check(u <= LOCATE_UNCERTAINTY, f"n={n}: uncertainty {u:.3e}")
    inside = x0 - u <= est.x <= x1 + u and y0 - u <= est.y <= y1 + u
    result.check(inside and est.pair == pair, f"n={n}: estimate {est} outside {rect}")
    lam = gen_eig_ordered(*pencil.eval(est.x, est.y)).values
    gap = (lam[pair - 1] - lam[pair]) / (abs(lam[pair - 1]) + 1.0)
    result.check(gap < LOCATE_GAP_TOL, f"n={n}: pair {pair} gap {gap:.3e} at estimate")


def locate_pass(pencils, seed, tracer, work_dir, calibrator) -> PassResult:
    result = PassResult(calibrator)
    depth = locate_depth()
    for n in DIMS:
        sweep = _sweep(result, tracer, pencils[n], n, seed)
        if n not in LOCATE_REFINE_DIMS:
            continue
        if not sweep.flagged:
            result.check(False, f"n={n}: coarse sweep flagged nothing to refine")
            continue
        box = sweep.flagged[0]
        rect = sweep.rect_of(box)
        pair = box.pairs[0]
        try:
            with result.unit(), tracer.span("refine_box"):
                est = refine_box(tracer.pencil(pencils[n]), rect, pair=pair, depth=depth, seed=seed)
        except PencilError as exc:
            result.check(False, f"n={n}: refine_box raised {type(exc).__name__}: {exc}")
            continue
        tracer.count_refine(est)
        result.attempted += 1
        _check_estimate(result, pencils[n], n, rect, pair, est)
    return result


def census_pass(spec, seed, tracer, work_dir, calibrator) -> PassResult:
    """run_census + write_report into a fresh directory, removed afterwards."""
    result = PassResult(calibrator)
    out_dir = os.path.join(work_dir, f"census-{os.getpid()}-{time.monotonic_ns()}")
    workers = nproc()
    try:
        with result.unit():
            start = time.perf_counter()
            report = pencilci.run_census(spec, out_dir, workers=workers)
            mid = time.perf_counter()
            paths = pencilci.write_report(report, out_dir)
            end = time.perf_counter()
        digests = tuple(file_digest(paths[name]) for name in CENSUS_FILES)
        tracer.collect_cells(os.path.join(out_dir, "cells"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    cell_s = [c["wall_time"] for c in report.cells]
    for n in DIMS:
        cells = [c["wall_time"] for c in report.cells if c["n"] == n]
        result.sweep_s[n] = result.scale * statistics.median(cells)
    for cell in report.cells:
        result.attempted += spec.rows * spec.cols
        result.failed += cell["n_unresolved"]
    result.census = {
        "digests": digests,
        "cell_s.p50": statistics.median(cell_s),
        "cell_s.max": max(cell_s),
        "pool_efficiency": sum(cell_s) / (workers * (mid - start)),
        "report_s": end - mid,
    }
    pinned = CENSUS_PINS.get(spec.realizations)
    if pinned is not None:
        result.check(digests == pinned, f"census digests {digests}, pinned {pinned}")
    return result


PASSES = {"sweep": sweep_pass, "locate": locate_pass, "census": census_pass}
