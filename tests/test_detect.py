import csv
import functools
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilci.continuation as continuation
import pencilci.detect as detect
from pencilci.detect import (
    GridSpec,
    decode_signature,
    refine_box,
    sweep_grid,
    write_ci_csv,
    write_sweep_summary,
)
from pencilci.census import cell_seed
from pencilci.continuation import trace_loop
from pencilci.errors import OddSignCount, RefinementInconsistent
from pencilci.pencil import (
    BoxPerimeter, analytic_ci_pencil, segment, sgplus_generate, sgplus_pencil,
)

from oracles import ci_location, embed_2x2, signature_from_counts, spd_sqrt, symmetrize


def test_decode_signature_examples():
    assert decode_signature(np.array([1, -1, -1, 1])) == (2,)
    assert decode_signature(np.array([-1, -1])) == (1,)
    assert decode_signature(np.array([1, 1, 1])) == ()
    # -1 entries at positions 1 and 3 bracket pairs 1 and 2
    assert decode_signature(np.array([-1, 1, -1, 1])) == (1, 2)


def test_decode_signature_odd_count():
    with pytest.raises(OddSignCount):
        decode_signature(np.array([1, -1, 1]))


def test_signature_from_counts_examples():
    assert signature_from_counts([1]).tolist() == [-1, -1]
    assert signature_from_counts([2]).tolist() == [1, 1]
    assert signature_from_counts([0, 1, 0]).tolist() == [1, -1, -1, 1]


def test_signature_from_counts_validation():
    with pytest.raises(ValueError):
        signature_from_counts([])
    with pytest.raises(ValueError):
        signature_from_counts([1, -1])


def test_signature_roundtrip_small_exhaustive():
    for n in range(2, 6):
        for d in itertools.product((0, 1, 2), repeat=n - 1):
            D = signature_from_counts(d)
            assert int(np.prod(D)) == 1
            odd = tuple(i + 1 for i, v in enumerate(d) if v % 2)
            assert decode_signature(D) == odd


@given(st.integers(0, 2**32 - 1))
def test_signature_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = rng.integers(0, 5, size=n - 1)
    odd = tuple(i + 1 for i, v in enumerate(d) if v % 2)
    assert decode_signature(signature_from_counts(d)) == odd


def test_grid_spec_boxes():
    g = GridSpec(rows=4, cols=8, x_range=(0.0, 2.0), y_range=(-1.0, 1.0))
    assert g.dx == 0.5 and g.dy == 0.25
    assert g.box(0, 0) == (0.0, 0.5, -1.0, -0.75)
    assert g.box(3, 7) == (1.5, 2.0, 0.75, 1.0)
    with pytest.raises(ValueError):
        GridSpec(rows=0, cols=1)
    # a count must be an integer: a fraction or a bool is refused, not truncated
    for rows, cols in ((2.5, 2), (2, 2.0), (True, 2), (2, False), ("2", 2), (2, 0)):
        with pytest.raises(ValueError, match="rows|cols"):
            GridSpec(rows, cols)
    with pytest.raises(ValueError):
        GridSpec(rows=1, cols=1, x_range=(1.0, 0.0))
    for bad in ((0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(rows=1, cols=1, x_range=bad)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(rows=1, cols=1, y_range=bad)


def test_grid_spec_lines_are_shared_box_sides():
    g = GridSpec(rows=16, cols=32, x_range=(0.0, math.pi), y_range=(0.0, 2.0 * math.pi))
    xs, ys = g.lines()
    assert len(xs) == 17 and len(ys) == 33
    assert (xs[0], xs[-1], ys[0], ys[-1]) == (0.0, math.pi, 0.0, 2.0 * math.pi)
    for r, c in itertools.product(range(g.rows), range(g.cols)):
        assert g.box(r, c) == (xs[r], xs[r + 1], ys[c], ys[c + 1])


def test_sweep_flags_single_interior_box():
    pen = analytic_ci_pencil(0.1)
    grid = GridSpec(rows=8, cols=8, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(pen, grid, seed=0)
    assert len(sw.boxes) == 64
    assert len(sw.flagged) == 1
    assert not sw.unresolved
    box = sw.flagged[0]
    assert box.pairs == (1,)
    assert box.attempts == 1 and box.rect == grid.box(box.row, box.col)
    x0, x1, y0, y1 = grid.box(box.row, box.col)
    cx, cy = ci_location(pen.eps)
    assert x0 < cx < x1 and y0 < cy < y1
    assert sw.total_count == 1
    assert sw.pair_counts() == {1: 1}


def test_sweep_corner_coalescence_uses_retry():
    # coalescence exactly on a grid corner, then with the grid shifted so the
    # corner sits about 1e-16 off it: moving the inner lines must rescue both
    pen = analytic_ci_pencil(0.0)
    for off in (0.0, 1e-16):
        grid = GridSpec(rows=4, cols=4, x_range=(-1.0 + off, 1.0 + off), y_range=(-1.0, 1.0))
        assert abs(grid.box(2, 2)[0] - off) <= 0.2 * off  # vertex next to the intersection
        sw = sweep_grid(pen, grid, seed=0)
        assert len(sw.flagged) == 1, off
        assert not sw.unresolved, off
        box = sw.flagged[0]
        assert box.attempts > 1
        assert box.rect != grid.box(box.row, box.col)
        x0, x1, y0, y1 = sw.rect_of(box)
        assert x0 < 0.0 < x1 and y0 < 0.0 < y1


class _TwoIntersections:
    """A = [[f, g], [g, -f]], B = I with f = x - y/(4c) and g = y(y - c).

    Pair 1 coalesces where f = g = 0: at (0, 0) and at (1/4, c).
    """

    n = 2

    def __init__(self, c):
        self._c = c

    def eval(self, x, y):
        f = x - y / (4.0 * self._c)
        g = y * (y - self._c)
        return np.array([[f, g], [g, -f]]), np.eye(2)


@pytest.mark.parametrize(
    "seed, c",
    # (0, 0) is a vertex of the 4x4 grid, so attempt 1 retraces with the inner
    # lines moved by (sx, sy). Each c is 0.5 + sy/2 for its seed: halfway
    # between the line y = 0.5 and its moved copy, where a retry that moved
    # only the failing boxes would miss it (seed 0) or count it twice (seed 4).
    [(0, 0.5 - 7.532e-5), (4, 0.5 + 1.0330e-4)],
    ids=["gap", "overlap"],
)
def test_sweep_retry_counts_each_intersection_once(seed, c):
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(_TwoIntersections(c), grid, seed=seed)
    assert max(b.attempts for b in sw.boxes) > 1
    assert not sw.unresolved
    assert sw.total_count == 2


def test_sweep_retry_keeps_the_domain_boundary():
    # (0, 0) is on the side x = 0 of the domain: moving inner lines cannot
    # take it off that side, so its box stays unresolved and says why. It is
    # also on the inner line y = 0 at first, so one retry moves that line
    # away, and then only the boundary side fails and retries stop
    grid = GridSpec(rows=2, cols=4, x_range=(0.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(analytic_ci_pencil(0.0), grid, seed=0)
    rects = {(b.row, b.col): sw.rect_of(b) for b in sw.boxes}
    xs = [rects[r, 0][0] for r in range(grid.rows)] + [rects[grid.rows - 1, 0][1]]
    ys = [rects[0, c][2] for c in range(grid.cols)] + [rects[0, grid.cols - 1][3]]
    assert (xs[0], xs[-1], ys[0], ys[-1]) == (0.0, 1.0, -1.0, 1.0)
    assert xs == sorted(set(xs)) and ys == sorted(set(ys))
    for (r, c), rect in rects.items():
        assert rect == (xs[r], xs[r + 1], ys[c], ys[c + 1])
    assert [(b.row, b.col, b.attempts) for b in sw.unresolved] == [(0, 2, 2)]
    assert sw.unresolved[0].message.startswith("StepUnderflow")


def test_sweep_retries_only_what_a_move_can_reach():
    xs, ys = [0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]
    cause = "StepUnderflow: ... on a side"
    failed_box = [(None, cause, {})]
    boundary = [
        segment((0.0, -1.0), (0.5, -1.0)),  # +x at y = -1
        segment((0.5, 1.0), (1.0, 1.0)),  # +x at y = 1
        segment((0.0, -1.0), (0.0, 0.0)),  # +y at x = 0
        segment((1.0, 0.0), (1.0, 1.0)),  # +y at x = 1
    ]
    for side in boundary:
        assert not detect._retry_can_move(failed_box, {side: cause}, xs, ys)
    for side in (segment((0.0, 0.0), (0.5, 0.0)), segment((0.5, -1.0), (0.5, 0.0))):
        assert detect._retry_can_move(failed_box, {boundary[0]: cause, side: cause}, xs, ys)
    # a box that fails with every side clean (an odd count) is retried
    odd = [(None, "signature has an odd number of -1 entries", {})]
    assert detect._retry_can_move(odd, {}, xs, ys)
    assert not detect._retry_can_move([((1,), "", {})], {}, xs, ys)


def test_sweep_worker_count_does_not_change_result():
    pen = analytic_ci_pencil(0.0)
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw1 = sweep_grid(pen, grid, seed=0, workers=1)
    sw2 = sweep_grid(pen, grid, seed=0, workers=2)
    assert sw1.boxes == sw2.boxes


class _FaultyPencil:
    """analytic_ci_pencil(0.1) with a bad evaluation inside a small disc.

    The disc sits on the grid edge x = 0 between boxes (1, 3) and (2, 3) of
    a 4x4 grid over [-1, 1]^2, clear of every other box perimeter.
    """

    n = 2

    def __init__(self, fault):
        self._base = analytic_ci_pencil(0.1)
        self._fault = fault

    def eval(self, x, y):
        A, B = self._base.eval(x, y)
        if math.hypot(x, y - 0.75) < 0.1:
            return self._fault(A, B)
        return A, B


def _raise_value_error(A, B):
    raise ValueError("no pencil here")


@pytest.mark.parametrize(
    "fault, cause",
    [
        (lambda A, B: (A, -B), "NotPositiveDefinite"),
        (lambda A, B: (np.full_like(A, np.nan), B), "NonFiniteInput"),
        (_raise_value_error, "EvaluationFailed: ValueError: no pencil here at (x, y) = ("),
    ],
    ids=["indefinite_B", "nan_A", "eval_raises"],
)
def test_sweep_bad_evaluation_stays_local(fault, cause, tmp_path):
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(_FaultyPencil(fault), grid, seed=0)
    assert {(b.row, b.col) for b in sw.unresolved} == {(1, 3), (2, 3)}
    for box in sw.unresolved:
        assert box.pairs == () and box.attempts == 4
        assert box.message.startswith(cause)
    assert sw.total_count == 1  # the intersection's box is unaffected
    write_sweep_summary(sw, tmp_path / "summary.json")
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["attempts"] == 4
    entries = summary["unresolved_boxes"]
    assert [e[:2] for e in entries] == [[1, 3], [2, 3]]
    assert all(e[2].startswith(cause) for e in entries)


def test_sweep_reports(tmp_path):
    pen = analytic_ci_pencil(0.1)
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(pen, grid, seed=0)
    csv_path = tmp_path / "ci.csv"
    write_ci_csv(sw, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["box_row", "box_col", "center_x", "center_y", "pair_index"]
    assert len(rows) == 2
    assert rows[1][4] == "1"
    box = sw.flagged[0]
    assert float(rows[1][2]) == box.center[0]

    js_path = tmp_path / "summary.json"
    write_sweep_summary(sw, js_path)
    with open(js_path) as fh:
        summary = json.load(fh)
    assert summary["n_boxes"] == 16
    assert summary["n_flagged_boxes"] == 1
    assert summary["total_count"] == 1
    assert summary["pair_counts"] == {"1": 1}
    assert summary["attempts"] == 1
    assert summary["unresolved_boxes"] == []


def test_sweep_carries_each_box_step_stats(tmp_path):
    # box (0, 0) encloses the intersection at (-0.025, -0.03125)
    pen = analytic_ci_pencil(0.1)
    grid = GridSpec(rows=2, cols=2, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    sw = sweep_grid(pen, grid, seed=0)
    # the last box is traced first, all four sides itself, as a lone loop is;
    # the others share the sides traced before them
    first = sw.boxes[-1]
    x0, x1, y0, y1 = first.rect
    assert first.step_stats == trace_loop(pen, BoxPerimeter(x0, y0, x1, y1)).step_stats
    assert sw.boxes[0].pairs == (1,) and not sw.unresolved
    totals = {k: sum(b.step_stats[k] for b in sw.boxes) for k in sw.boxes[0].step_stats}
    assert sw.step_stats == totals
    assert totals["eigensolves"] == totals["accepted"] + totals["rejected"] + 4

    write_sweep_summary(sw, tmp_path / "summary.json")
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["step_stats"] == totals


def test_unresolved_box_has_no_step_stats():
    # a corner on the intersection at every attempt: the domain corner never moves
    sw = sweep_grid(analytic_ci_pencil(0.0), GridSpec(1, 1, (0.0, 1.0), (0.0, 1.0)))
    (box,) = sw.unresolved
    assert box.step_stats == {}
    assert sw.step_stats == {}


def test_refine_box_converges():
    pen = analytic_ci_pencil(0.1)
    est = refine_box(pen, (-0.25, 0.0, -0.25, 0.0), pair=1, depth=6, seed=0)
    cx, cy = ci_location(pen.eps)
    assert math.hypot(est.x - cx, est.y - cy) <= est.uncertainty
    x0, x1, y0, y1 = est.rect
    assert est.uncertainty == pytest.approx(0.5 * math.hypot(x1 - x0, y1 - y0))
    assert est.depth == 6 and est.pair == 1


def test_refine_box_without_coalescence_fails():
    pen = analytic_ci_pencil(0.1)
    with pytest.raises(RefinementInconsistent):
        refine_box(pen, (0.5, 0.75, 0.5, 0.75), pair=1, depth=1)


def test_refine_box_names_the_cause_of_an_unresolved_child():
    # (0, 0) lies on the outer side x = 0, which no retry moves
    with pytest.raises(RefinementInconsistent) as info:
        refine_box(analytic_ci_pencil(0.0), (0.0, 0.5, -0.25, 0.25), pair=1, depth=3)
    message = str(info.value)
    assert "level 0" in message and "StepUnderflow" in message


def test_refine_box_moves_centre_lines_through_the_intersection():
    # (0, 0) lies on both centre lines of the level-0 split, so every child
    # fails until the lines move
    est = refine_box(analytic_ci_pencil(0.0), (-0.5, 0.5, -0.5, 0.5), pair=1, depth=8, seed=0)
    assert math.hypot(est.x, est.y) <= est.uncertainty


def _counted(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its positional arguments to the returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_refine_box_retries_a_y_split_through_the_intersection(monkeypatch):
    # the model of the analytic pencil roots at the intersection (0, 0) itself,
    # so the first jump's sub-rectangle has it on its side y = 0 and fails;
    # the level is then bisected: the x-split keeps [-0.3, 0.1], and its
    # y-split line y = 0 runs through the intersection: only that line moves,
    # the outer sides stay
    loops = _counted(monkeypatch, detect, "trace_loop")
    est = refine_box(analytic_ci_pencil(0.0), (-0.3, 0.5, -0.5, 0.5), pair=1, depth=8, seed=0)
    assert math.hypot(est.x, est.y) <= est.uncertainty
    rects = [(p.x0, p.x1, p.y0, p.y1) for _, p, *_ in loops]
    assert rects[0] == (-0.3, 0.5, -0.5, 0.5)
    x0, x1, y0, y1 = rects[1]
    assert x0 < 0.0 < x1 and y0 == 0.0
    xm = -0.3 + 0.5 * (0.5 - -0.3)  # 0.1 up to rounding
    assert rects[2:4] == [(xm, 0.5, -0.5, 0.5), (-0.3, xm, 0.0, 0.5)]
    x0, x1, y0, y1 = rects[4]
    assert (x0, x1, y1) == (-0.3, xm, 0.5) and 0.0 < abs(y0) <= 1e-3 * 0.5


@functools.lru_cache(maxsize=1)
def _locate_inputs():
    """The benchmark's locate refinement: the n = 10 perfbench block sweep's
    first flagged box and pair, and the depth that refines it to a
    half-diagonal of at most 1e-10."""
    pencil = _baseline_pencil(10)
    box = sweep_grid(pencil, _PERFBENCH_BLOCK, seed=0).flagged[0]
    half_diag = 0.5 * math.hypot(_PERFBENCH_BLOCK.dx, _PERFBENCH_BLOCK.dy)
    return pencil, box.rect, box.pairs[0], math.ceil(math.log2(half_diag / 1e-10))


def test_refine_box_traces_one_half_per_split(monkeypatch):
    # the start rectangle is traced, then verified jumps from the pair's 2x2
    # model and, where a jump is refused, one traced half per split; the
    # estimate is the one of refining by full 2x2 sweeps (1,057 eigensolves)
    # and by bisection alone (63 loops, 616 eigensolves), bitwise
    pencil, rect, pair, depth = _locate_inputs()
    loops = _counted(monkeypatch, detect, "trace_loop")
    solves = _counted(monkeypatch, continuation, "gen_eig_ordered")
    est = refine_box(pencil, rect, pair=pair, depth=depth, seed=0)
    assert (depth, pair) == (31, 3)
    assert (est.x, est.y) == (2.439245081788557, 4.039701494056494)
    assert len(loops) <= 12
    assert len(solves) <= 200


def test_refine_box_pins_a_banded_estimate():
    # the n = 20, b = 3 perfbench block's box (0, 1), pair 3, to the locate
    # depth: bisection alone reaches the same estimate
    pencil = sgplus_pencil(sgplus_generate(20, 3, 0.45, cell_seed(0, 3, 0, 20, 0)))
    box = sweep_grid(pencil, _PERFBENCH_BLOCK, seed=0).boxes[1]
    assert (box.row, box.col) == (0, 1) and 3 in box.pairs
    _, _, _, depth = _locate_inputs()
    est = refine_box(pencil, box.rect, pair=3, depth=depth, seed=0)
    assert (est.x, est.y) == (2.3719653478432976, 3.3804610631664183)


def test_refused_jumps_fall_back_to_bisection(monkeypatch):
    # every model root is moved by half the rectangle into the other x-half,
    # so no jump's sub-rectangle (a quarter of the rectangle or less in x)
    # holds the intersection: each jump is traced, refused, and followed by
    # one bisection level, and the estimate is bisection's
    pencil, rect, pair, depth = _locate_inputs()
    jump = detect._jump
    tried = []

    def wrong_half(rect, roots, levels):
        x0, x1, _, _ = rect
        half = 0.5 * (x1 - x0)
        moved = [(x - half if x >= x0 + half else x + half, y) for x, y in roots]
        target = jump(rect, moved, levels)
        tried.append(target is not None)
        return target

    monkeypatch.setattr(detect, "_jump", wrong_half)
    loops = _counted(monkeypatch, detect, "trace_loop")
    est = refine_box(pencil, rect, pair=pair, depth=depth, seed=0)
    assert (est.x, est.y) == (2.439245081788557, 4.039701494056494)
    assert any(tried)
    assert len(loops) == 1 + 2 * depth + sum(tried)


def test_refine_box_solves_one_start_per_trace(monkeypatch):
    # the benchmark's eigensolve accounting counts one start per trace_loop
    # call: a jump traces the four sides of its sub-rectangle, and a split's
    # upper half the three or four sides not traced before, all from the
    # start corner or from the ends of the sides traced before
    pencil, rect, pair, depth = _locate_inputs()
    starts = _counted(monkeypatch, continuation, "init_decomposition")
    per_call = []

    def one_loop(*args, **kwargs):
        before = len(starts)
        result = trace_loop(*args, **kwargs)
        per_call.append(len(starts) - before)
        return result

    monkeypatch.setattr(detect, "trace_loop", one_loop)
    refine_box(pencil, rect, pair=pair, depth=depth, seed=0)
    assert per_call and set(per_call) == {1}


def test_refine_box_traces_no_side_twice(monkeypatch):
    # with every jump refused, bisection does all 31 levels through one dict
    # of traced sides: a split's upper half has its outer side known, and
    # three sides to trace, right after the start loop or a kept upper half;
    # after a kept lower half, whose outer side is half of a cut side, it has
    # four
    pencil, rect, pair, depth = _locate_inputs()
    monkeypatch.setattr(detect, "_jump", lambda rect, roots, levels: None)
    sides = _counted(monkeypatch, continuation, "_trace")
    bisect = detect._bisect
    splits = []  # (sides traced, upper half kept)

    def split(pencil, rect, axis, *args):
        before = len(sides)
        kept = bisect(pencil, rect, axis, *args)
        splits.append((len(sides) - before, kept[2 * axis] != rect[2 * axis]))
        return kept

    monkeypatch.setattr(detect, "_bisect", split)
    est = refine_box(pencil, rect, pair=pair, depth=depth, seed=0)
    assert (est.x, est.y) == (2.439245081788557, 4.039701494056494)
    traced = [count for count, _ in splits]
    assert len(traced) == 2 * depth and len(sides) == 4 + sum(traced)
    assert traced == [3] + [3 if upper else 4 for _, upper in splits[:-1]]
    assert 3 in traced[1:] and 4 in traced


def test_refine_box_validation():
    with pytest.raises(ValueError):
        refine_box(analytic_ci_pencil(0.1), (0.0, 1.0, 0.0, 1.0), pair=1, depth=0)
    for pair in (0, 2):
        with pytest.raises(ValueError, match="pair"):
            refine_box(analytic_ci_pencil(0.1), (-0.25, 0.0, -0.25, 0.0), pair=pair, depth=3)


def _no_trace(*args, **kwargs):
    raise AssertionError("trace_loop called")


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_bad_seed_is_refused_before_any_trace(monkeypatch, seed):
    monkeypatch.setattr(detect, "trace_loop", _no_trace)
    pen = analytic_ci_pencil(0.0)
    with pytest.raises(ValueError, match="seed"):
        sweep_grid(pen, GridSpec(2, 2, (-1, 1), (-1, 1)), seed=seed)
    with pytest.raises(ValueError, match="seed"):
        refine_box(pen, (-1.0, 1.0, -1.0, 1.0), pair=1, seed=seed)


@pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
def test_bad_workers_is_refused_before_any_trace(monkeypatch, workers):
    monkeypatch.setattr(detect, "trace_loop", _no_trace)
    with pytest.raises(ValueError, match=r"^workers: "):
        sweep_grid(analytic_ci_pencil(0.0), GridSpec(2, 2, (-1, 1), (-1, 1)), workers=workers)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("depth", 0, r"depth: 0 is below 1"),
        ("depth", 2.5, r"depth: 2\.5 is not an integer"),
        ("depth", "2", r"depth: '2' is not an integer"),
        ("depth", True, r"depth: True is not an integer"),
        ("pair", 0, r"pair must be in 1\.\.3, got 0"),
        ("pair", 4, r"pair must be in 1\.\.3, got 4"),
        ("pair", 1.5, r"pair: 1\.5 is not an integer"),
        ("pair", "2", r"pair: '2' is not an integer"),
        ("pair", True, r"pair: True is not an integer"),
    ],
)
def test_bad_refine_argument_is_refused_before_any_trace(monkeypatch, name, value, message):
    # on the n = 4 embedded pencil, whose pair 2 coalesces at the origin
    monkeypatch.setattr(detect, "trace_loop", _no_trace)
    pen = embed_2x2(analytic_ci_pencil(0.0), 4, 2, (9.0, -7.0))
    arguments = {"pair": 2, "depth": 3, name: value}
    with pytest.raises(ValueError, match=f"^{message}$"):
        refine_box(pen, (-0.5, 0.25, -0.5, 0.25), **arguments)


def _baseline_pencil(n):
    """The SG+ pencil of census cell (seed 0, b full, delta 0.45, n, realization 0)."""
    return sgplus_pencil(sgplus_generate(n, "full", 0.45, cell_seed(0, "full", 0, n, 0)))


def _cholesky_form(A, B):
    """L^-1 A L^-T with L the Cholesky factor of B."""
    L = np.linalg.cholesky(B)
    return np.linalg.solve(L, np.linalg.solve(L, A).T)


def _sqrt_form(A, B):
    """B^-1/2 A B^-1/2."""
    R = np.linalg.inv(spd_sqrt(B))
    return R @ A @ R


class _StandardForm:
    """The standard problem (C, I) with the eigenvalues of the pencil (A, B).

    Its eigenvectors are a smooth transform of the pencil's (W = L^T V for
    the Cholesky form), so its loop signatures must be the pencil's.
    """

    def __init__(self, pencil, reduce):
        self.n = pencil.n
        self._pencil = pencil
        self._reduce = reduce

    def eval(self, x, y):
        A, B = self._pencil.eval(x, y)
        return symmetrize(self._reduce(A, B)), np.eye(self.n)


def _block(rows, cols):
    """The boxes rows x cols (ranges) of the 16x32 grid over [0, pi] x [0, 2 pi]."""
    full = GridSpec(rows=16, cols=32, x_range=(0.0, math.pi), y_range=(0.0, 2.0 * math.pi))
    first, last = full.box(rows[0], cols[0]), full.box(rows[-1], cols[-1])
    return GridSpec(
        rows=len(rows), cols=len(cols), x_range=(first[0], last[1]), y_range=(first[2], last[3])
    )


_PERFBENCH_BLOCK = _block(range(12, 16), range(16, 24))


class _RecordingPencil:
    """Forwards eval and records each evaluated point."""

    def __init__(self, pencil):
        self.n = pencil.n
        self._pencil = pencil
        self.points = []

    def eval(self, x, y):
        self.points.append((x, y))
        return self._pencil.eval(x, y)


def test_sweep_traces_each_side_once(monkeypatch):
    # a side's trace evaluates points inside it (its midpoint first, to size
    # its first step) and its end corner; dropping corners, each trace is one
    # run of points inside one side, so a side traced twice has two runs
    pen = _RecordingPencil(_baseline_pencil(10))
    solved = []  # the index in pen.points of the pencil each solve solved
    solve = continuation.gen_eig_ordered

    def recording_solve(A, B):
        solved.append(len(pen.points) - 1)
        return solve(A, B)

    monkeypatch.setattr(continuation, "gen_eig_ordered", recording_solve)
    sw = sweep_grid(pen, _PERFBENCH_BLOCK, seed=0, workers=1)
    assert not sw.unresolved and sw.boxes[0].attempts == 1
    xs, ys = _PERFBENCH_BLOCK.lines()

    def side(x, y):
        if y in ys and x not in xs:
            return ("x", max(i for i, v in enumerate(xs) if v < x), ys.index(y))
        if x in xs and y not in ys:
            return (xs.index(x), "y", max(j for j, v in enumerate(ys) if v < y))
        assert x in xs and y in ys, (x, y)  # a corner
        return None

    inside = [(k, s) for k, s in enumerate(map(side, *zip(*pen.points))) if s is not None]
    starts = [inside[j] for j in range(len(inside)) if j == 0 or inside[j][1] != inside[j - 1][1]]
    runs = [s for _, s in starts]
    assert len(runs) == len(set(runs)) == 4 * 9 + 5 * 8
    # no veering here: each solve is a box's start corner or a step
    stats = sw.step_stats
    assert stats["veering_events"] == 0
    assert stats["eigensolves"] == len(sw.boxes) + stats["accepted"] + stats["rejected"]
    # every eval is solved once, except the probes that shortened their
    # side's first step; a first step the probe kept solves the probe's pencil
    assert len(solved) == len(set(solved)) == stats["eigensolves"]
    unsolved = set(range(len(pen.points))) - set(solved)
    assert unsolved < {k for k, _ in starts}
    assert len(pen.points) == stats["eigensolves"] + len(unsolved)


def test_side_end_anchor_is_the_fresh_solve_at_its_corner(monkeypatch):
    # a side that starts where a traced side ends starts from that side's
    # end anchor, not from a solve: the anchor must be bitwise the solve that
    # a trace starting at that corner would make
    pen = _baseline_pencil(10)
    paths = _counted(monkeypatch, continuation, "_trace")
    checks = _counted(monkeypatch, continuation, "_piece_signs")
    sw = sweep_grid(pen, _PERFBENCH_BLOCK, seed=0)
    assert not sw.unresolved
    assert len(paths) == len(checks) == 4 * 9 + 5 * 8
    for (_, path, _, _), (anchor, _, _) in zip(paths, checks):
        x, y = path.point(1.0)
        fresh = continuation.init_decomposition(pen, segment((x, y), (x + 1.0, y)), 0.0)
        assert anchor.t == fresh.t == 0.0
        for name in ("V", "lam", "gaps"):
            assert getattr(anchor, name).tobytes() == getattr(fresh, name).tobytes(), (path, name)


def test_probed_first_steps_save_rejected_solves():
    # a side's first step, shortened where the probe at half the side
    # foresees a rejection, keeps every flag; with half the side as the
    # first step these blocks take 1,273 eigensolves and reject 230 steps
    pins = {10: (6, "5723fd39897f11f6"), 20: (14, "c871d145de02c686"), 30: (39, "8d06117ede0992bb")}
    stats = Counter()
    for n, pin in pins.items():
        sw = sweep_grid(_baseline_pencil(n), _PERFBENCH_BLOCK, seed=0)
        assert not sw.unresolved
        count, _, digest = _flags(sw)
        assert (count, digest) == pin
        stats.update(sw.step_stats)
    assert stats["eigensolves"] <= 1150
    assert stats["rejected"] <= 80


def _first_step_estimates(monkeypatch, name, ns):
    """Each side's estimate by the probe's function name, paired with
    step_control's decision on the side's first step, over the benchmark
    blocks at each n. Both estimates are neutralized (rho 0, no rotation
    rejection), so every side takes its half-side first step."""
    estimates, decisions = [], []
    neutral = {"_rho_estimate": 0.0, "_rotation_estimate": math.inf}
    original, control = getattr(continuation, name), continuation.step_control

    def recording(*args):
        estimates.append(original(*args))
        return neutral[name]

    def recording_control(*args):
        dec = control(*args)
        if len(decisions) < len(estimates):
            decisions.append(dec)
        return dec

    for other, value in neutral.items():
        monkeypatch.setattr(continuation, other, lambda *args, value=value: value)
    monkeypatch.setattr(continuation, name, recording)
    monkeypatch.setattr(continuation, "step_control", recording_control)
    for n in ns:
        sw = sweep_grid(_baseline_pencil(n), _PERFBENCH_BLOCK, seed=0)
        assert not sw.unresolved
    assert len(estimates) == len(decisions) == len(ns) * (4 * 9 + 5 * 8)
    return estimates, decisions


def test_rho_estimate_tracks_the_first_steps_rho(monkeypatch):
    # the probe's estimate against step_control's rho for the same step
    estimates, decisions = _first_step_estimates(monkeypatch, "_rho_estimate", (20,))
    rhos = [dec.rho for dec in decisions]
    assert 0.8 <= float(np.median(np.divide(estimates, rhos))) <= 1.4


def test_rotation_estimate_foresees_the_first_steps_rotation_rejections(monkeypatch):
    # a rotation rejection foreseen where step_control finds one, and none
    # where it finds none, on nearly all first steps of the three blocks
    estimates, decisions = _first_step_estimates(monkeypatch, "_rotation_estimate", (10, 20, 30))
    foreseen = np.less(estimates, continuation._PAIR_DIAG_MIN)
    rejected = np.array([not dec.rotation_ok for dec in decisions])
    assert rejected.sum() >= 40  # the blocks do have rotation rejections to foresee
    assert np.count_nonzero(foreseen == rejected) >= 0.9 * len(decisions)


def test_shared_sides_change_no_result():
    pen = _baseline_pencil(10)
    sw = sweep_grid(pen, _PERFBENCH_BLOCK, seed=0)
    assert sw.total_count == 6
    for box in sw.boxes:
        x0, x1, y0, y1 = box.rect
        lone = trace_loop(pen, BoxPerimeter(x0, y0, x1, y1))
        assert box.pairs == decode_signature(lone.D)
    # bands of rows traced apart, with sides of their own: the same pairs,
    # statuses and causes, on a grid with resolved boxes and one with
    # unresolved ones
    faulty = (_FaultyPencil(_raise_value_error), GridSpec(4, 4, (-1.0, 1.0), (-1.0, 1.0)))
    for pencil, grid in ((pen, _PERFBENCH_BLOCK), faulty):
        one, two = (sweep_grid(pencil, grid, seed=0, workers=w) for w in (1, 2))
        assert [_outcome(b) for b in one.boxes] == [_outcome(b) for b in two.boxes]
    assert one.unresolved


def test_pool_tasks_are_bands_of_rows():
    # each pool task is a band of whole rows with sides of its own: two
    # bands trace only the sides between them twice, four bands of one row
    # the sides between every two rows
    pen = _baseline_pencil(10)
    solves = [
        sweep_grid(pen, _PERFBENCH_BLOCK, seed=0, workers=w).step_stats["eigensolves"]
        for w in (1, 2, 4)
    ]
    assert solves[0] < solves[1] < solves[2]


def test_one_band_is_traced_in_process(monkeypatch):
    # a one-row grid is one band at any worker count: no pool is opened, and
    # the boxes, step_stats included, are those of one worker
    pen = analytic_ci_pencil(0.1)
    grid = GridSpec(rows=1, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    one = sweep_grid(pen, grid, seed=0, workers=1)
    monkeypatch.setattr(detect, "ProcessPoolExecutor", None)
    two = sweep_grid(pen, grid, seed=0, workers=2)
    assert [(b, b.step_stats) for b in two.boxes] == [(b, b.step_stats) for b in one.boxes]
    assert one.total_count == 1


def _outcome(box):
    return box.pairs, box.status, box.message, box.attempts


@pytest.mark.parametrize("reduce", [_cholesky_form, _sqrt_form], ids=["cholesky", "sqrt"])
def test_standard_form_sweep_matches_pencil(reduce):
    block = _block(range(12, 16), range(16, 24))
    pencil = _baseline_pencil(10)
    own = sweep_grid(pencil, block, seed=0)
    reduced = sweep_grid(_StandardForm(pencil, reduce), block, seed=0)
    assert own.total_count == 6 and not own.unresolved and not reduced.unresolved
    assert [b.pairs for b in reduced.boxes] == [b.pairs for b in own.boxes]


def test_torus_sweep_counts_every_pair_evenly():
    # SG+ pencils are 2 pi-periodic in x and y, so over the torus the box
    # perimeters cancel in pairs and each pair's total count is even
    grid = GridSpec(rows=16, cols=16, x_range=(0.0, 2.0 * math.pi), y_range=(0.0, 2.0 * math.pi))
    sw = sweep_grid(_baseline_pencil(10), grid, seed=0, workers=2)
    assert not sw.unresolved
    assert sw.total_count == 128
    assert all(count % 2 == 0 for count in sw.pair_counts().values())


def _block_flags(pencil, rows, cols):
    """Count, flags (row, col, pairs) and flag digest of a sweep over
    _block(rows, cols); row and col count from the block's corner."""
    sweep = sweep_grid(pencil, _block(rows, cols), seed=0)
    assert not sweep.unresolved
    return _flags(sweep)


def _flags(sweep):
    """Count, flags (row, col, pairs) and flag digest of a sweep."""
    flags = [(b.row, b.col, b.pairs) for b in sweep.boxes if b.pairs]
    return sweep.total_count, flags, hashlib.sha256(repr(flags).encode()).hexdigest()[:16]


def test_full_baseline_grid_flags_are_pinned():
    # the whole 16x32 grid of the ROADMAP baseline at n = 10
    count, _, digest = _block_flags(_baseline_pencil(10), range(16), range(32))
    assert count == 74
    assert digest == "790a924116cbb670"


def test_n50_b3_block_flags_are_pinned():
    # rows 8..11 and columns 24..31 for the SG+ pencil of census cell
    # (seed 0, b 3, delta 0.45, n 50, realization 0): a narrow band, where
    # close pairs are stepped as clusters
    pencil = sgplus_pencil(sgplus_generate(50, 3, 0.45, cell_seed(0, 3, 0, 50, 0)))
    count, _, digest = _block_flags(pencil, range(8, 12), range(24, 32))
    assert count == 183
    assert digest == "8250d9f741dee19a"


@pytest.mark.parametrize("n, count, digest", [(20, 23, "ade869b7033123f4"), (30, 52, "157b30b713fb4556")])
def test_banded_block_flags_are_pinned(n, count, digest):
    # rows 12..15 and columns 16..23 (the perfbench block) for census cell
    # (seed 0, b 3, delta 0.45, n, realization 0): a narrow band, where most
    # steps step clusters, so the choice of CLUSTER_GAP must keep these flags
    pencil = sgplus_pencil(sgplus_generate(n, 3, 0.45, cell_seed(0, 3, 0, n, 0)))
    found, _, found_digest = _block_flags(pencil, range(12, 16), range(16, 24))
    assert (found, found_digest) == (count, digest)


def test_n30_full_block_flags_are_pinned():
    # rows 12..15 and columns 16..23 for census cell (seed 0, full, delta
    # 0.45, n 30, realization 1). Step rules that save eigensolves by
    # stepping past avoided crossings inside a cluster lose flags here: with
    # linked pairs left out of the secant guard the block flags 41.
    pencil = sgplus_pencil(sgplus_generate(30, "full", 0.45, cell_seed(0, "full", 0, 30, 1)))
    count, flags, digest = _block_flags(pencil, range(12, 16), range(16, 24))
    assert count == 43
    assert (0, 6, (9, 20)) in flags and (1, 1, (25,)) in flags
    assert digest == "89106e3065a51ca4"


@pytest.mark.parametrize("n, counts, tail", [(20, [14, 14, 8], 14), (30, [39, 37, 19], 39.25)])
def test_levels_equal_direct_sweeps_on_nested_grids(n, counts, tail):
    # halving rows and cols of the perfbench block keeps every coarse line
    # bitwise a line of the block, so a direct sweep at a coarse size traces
    # exactly the coarse boxes whose flags the levels read by parity
    pencil = _baseline_pencil(n)
    summary = sweep_grid(pencil, _PERFBENCH_BLOCK, seed=0).summary()
    levels = summary["levels"]
    assert [(lv["rows"], lv["cols"]) for lv in levels] == [(4, 8), (2, 4), (1, 2)]
    assert [lv["total_count"] for lv in levels] == counts
    assert all(lv["n_unknown"] == 0 for lv in levels)
    ranges = (_PERFBENCH_BLOCK.x_range, _PERFBENCH_BLOCK.y_range)
    for lv in levels[1:]:
        direct = sweep_grid(pencil, GridSpec(lv["rows"], lv["cols"], *ranges), seed=0)
        assert not direct.unresolved and direct.total_count == lv["total_count"]
    assert summary["tail"] == tail


def test_levels_count_the_tiling_a_retry_kept():
    # the intersection sits on a vertex of every level at first, so the kept
    # tiling is a moved one, and each of its coarse boxes holds it once
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    summary = sweep_grid(analytic_ci_pencil(0.0), grid, seed=0).summary()
    assert summary["attempts"] > 1
    assert [(lv["rows"], lv["total_count"], lv["n_unknown"]) for lv in summary["levels"]] == [
        (4, 1, 0), (2, 1, 0), (1, 1, 0)
    ]
    assert summary["tail"] == 1


def test_an_unresolved_box_makes_its_coarse_boxes_unknown():
    # boxes (1, 3) and (2, 3) stay unresolved; the intersection is in box
    # (1, 1), whose 2x2 box (0, 0) holds no unresolved box, but the 1x1 box does
    grid = GridSpec(rows=4, cols=4, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
    summary = sweep_grid(_FaultyPencil(_raise_value_error), grid, seed=0).summary()
    assert summary["levels"] == [
        {"rows": 4, "cols": 4, "total_count": 1, "n_unknown": 2},
        {"rows": 2, "cols": 2, "total_count": 1, "n_unknown": 2},
        {"rows": 1, "cols": 1, "total_count": 0, "n_unknown": 1},
    ]
    assert summary["tail"] is None


def _as_levels(*counts, unknown=0):
    return [{"rows": 0, "cols": 0, "total_count": c, "n_unknown": unknown} for c in counts]


def test_tail_arithmetic():
    # the ROADMAP's n = 50, b = 3 counts at 64x128, 32x64 and 16x32
    assert detect._tail(_as_levels(3261, 3085, 2621)) == 3261 + 176**2 / 288
    assert detect._tail(_as_levels(14, 14, 8)) == 14
    assert detect._tail(_as_levels(7, 7, 9)) == 7  # the finer increment alone decides
    assert detect._tail(_as_levels(39, 37, 19, 5)) == 39.25  # the three finest only
    for counts in [(10, 12, 8), (12, 8, 6), (12, 10, 8), (5, 5)]:
        assert detect._tail(_as_levels(*counts)) is None, counts
    assert detect._tail(_as_levels(6, 6, 6, unknown=1)) is None
