"""Locating eigenvalue coalescences of a pencil family over a 2-D domain.

A coalescence between adjacent eigenvalues of (A(x, y), B(x, y)) flips the
signs of the associated eigenvector pair when transported around any small
enclosing loop. Tracing the boundary of each box of a grid therefore flags
exactly those boxes whose interior holds an odd number of coalescences per
pair; bisection of a flagged box then pins the location.

Pair indices are 1-based throughout: pair i couples eigenvalues i and i+1 in
decreasing order. Box rows index the first coordinate, columns the second.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .continuation import trace_loop
from .errors import (
    LoopUnresolvable, NonFiniteInput, OddSignCount, PencilError, RefinementInconsistent,
)
from .fields import read_int, read_seed, write_csv, write_json
from .linalg import pair_terms
from .pencil import BoxPerimeter, evaluate

__all__ = [
    "GridSpec",
    "BoxResult",
    "SweepResult",
    "CIEstimate",
    "decode_signature",
    "sweep_grid",
    "refine_box",
    "write_ci_csv",
    "write_sweep_summary",
]

# A sweep retry moves the inner grid lines by up to this fraction of a box side.
_SHIFT_FRAC = 1e-3
_SHIFT_TAG = 0xA11E
# Tilings traced by sweep_grid, the first one unshifted.
_SWEEP_ATTEMPTS = 4

# refine_box jumps only when the pair model's roots agree to within
# 1/_JUMP_MARGIN of each side of the sub-rectangle that holds them, and only
# _MIN_JUMP or more levels down: a jump traces one loop, and one level of
# bisection traces two, so a shorter jump would save at most one loop and
# risk three (the refused jump and the level it falls back to).
_JUMP_MARGIN = 8
_MIN_JUMP = 2
# The model is anchored at this many distinct traced points, those with the
# smallest relative gap of the pair, and each anchor's root takes at most
# _NEWTON_STEPS Newton steps with a forward-difference Jacobian whose step is
# _FD_STEP * max(1, |coordinate|).
_MODEL_ANCHORS = 3
_NEWTON_STEPS = 6
_EPS = np.finfo(float).eps
_FD_STEP = math.sqrt(_EPS)


def decode_signature(D: np.ndarray) -> tuple[int, ...]:
    """Flagged pair indices (1-based) from a loop sign signature.

    The -1 entries of D come in consecutive runs delimiting the flipped
    eigenvector columns: with 1-based -1 positions i_1 < i_2 < ... < i_2m,
    pair i is flagged exactly when i_{2j-1} <= i < i_{2j} for some j.

    Raises
    ------
    OddSignCount
        If D has an odd number of -1 entries (no valid loop produces one).
    """
    D = np.asarray(D)
    neg = np.flatnonzero(D < 0) + 1
    if neg.size % 2:
        raise OddSignCount(f"signature has {neg.size} entries equal to -1")
    flagged: list[int] = []
    for j in range(0, neg.size, 2):
        flagged.extend(range(int(neg[j]), int(neg[j + 1])))
    return tuple(flagged)


@dataclass(frozen=True)
class GridSpec:
    """Uniform box grid over [x0, x1] x [y0, y1].

    rows boxes partition the x-range (first coordinate), cols boxes the
    y-range. Box (r, c), 0-based, covers [xs[r], xs[r+1]] x [ys[c], ys[c+1]]
    with (xs, ys) = lines().
    """

    rows: int
    cols: int
    x_range: tuple[float, float] = (0.0, 1.0)
    y_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        read_int(self.rows, "rows", minimum=1)
        read_int(self.cols, "cols", minimum=1)
        if not all(math.isfinite(v) for v in (*self.x_range, *self.y_range)):
            raise ValueError("ranges must be finite")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ValueError("ranges must be increasing")

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.rows

    @property
    def dy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.cols

    def lines(self) -> tuple[list[float], list[float]]:
        """The rows + 1 x-lines and cols + 1 y-lines; the last of each is the range end."""
        xs = [self.x_range[0] + i * self.dx for i in range(self.rows)] + [self.x_range[1]]
        ys = [self.y_range[0] + j * self.dy for j in range(self.cols)] + [self.y_range[1]]
        return xs, ys

    def box(self, row: int, col: int) -> tuple[float, float, float, float]:
        """Corner rectangle (x0, x1, y0, y1) of box (row, col)."""
        xs, ys = self.lines()
        return (xs[row], xs[row + 1], ys[col], ys[col + 1])


@dataclass(frozen=True)
class BoxResult:
    """Outcome for one grid box; pairs lists the flagged 1-based indices.

    rect is the rectangle traced, attempts the sweep attempt whose tiling it
    belongs to (the same for every box of a sweep). step_stats count the
    solves of the box's final trace_loop call (see continuation.trace):
    its start corner and the steps of the sides it traced itself, not of
    sides shared from boxes traced before it; empty when it is unresolved.
    They describe the work, not the result, and take no part in equality.
    """

    row: int
    col: int
    rect: tuple[float, float, float, float]
    pairs: tuple[int, ...]
    status: str  # "ok" or "unresolved"
    attempts: int
    message: str = ""
    step_stats: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def center(self) -> tuple[float, float]:
        x0, x1, y0, y1 = self.rect
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))


@dataclass(frozen=True, eq=False)
class SweepResult:
    grid: GridSpec
    boxes: list[BoxResult]

    @property
    def flagged(self) -> list[BoxResult]:
        return [b for b in self.boxes if b.pairs]

    @property
    def unresolved(self) -> list[BoxResult]:
        return [b for b in self.boxes if b.status != "ok"]

    @property
    def total_count(self) -> int:
        """Total flags summed over boxes and pairs."""
        return sum(len(b.pairs) for b in self.boxes)

    def pair_counts(self) -> dict[int, int]:
        c: Counter = Counter()
        for b in self.boxes:
            c.update(b.pairs)
        return dict(sorted(c.items()))

    @property
    def step_stats(self) -> dict[str, int]:
        """Key-wise sums of the boxes' step_stats."""
        c: Counter = Counter()
        for b in self.boxes:
            c.update(b.step_stats)
        return dict(c)

    def summary(self) -> dict:
        """Box counts, per-pair totals, attempts, unresolved boxes and causes, step_stats,
        and the counts of coarser levels and their tail (see _levels and _tail).

        sweep_summary.json holds it after the grid, and each census cell
        file after the cell's identity.
        """
        levels = _levels(self)
        return {
            "n_boxes": len(self.boxes),
            "n_flagged_boxes": len(self.flagged),
            "n_unresolved": len(self.unresolved),
            "total_count": self.total_count,
            "pair_counts": {str(k): v for k, v in self.pair_counts().items()},
            "attempts": max(b.attempts for b in self.boxes),
            "unresolved_boxes": [[b.row, b.col, b.message] for b in self.unresolved],
            "step_stats": self.step_stats,
            "levels": levels,
            "tail": _tail(levels),
        }

    def rect_of(self, box: BoxResult) -> tuple[float, float, float, float]:
        """Rectangle actually traced for this box, with any retry's moved lines.

        Refinement must start from this rectangle: a coalescence on an
        original inner grid line lies strictly inside it.
        """
        return box.rect


def _levels(sweep: SweepResult) -> list[dict]:
    """{"rows", "cols", "total_count", "n_unknown"} of the sweep's grid and of
    each coarser grid that halves rows and cols while both stay whole, finest first.

    A coarse box is a block of the tiling's boxes and its signature the product
    of theirs, so it flags a pair exactly when an odd number of them do. One
    holding an unresolved box is unknown: it adds no flags and counts in n_unknown.
    """
    flags = [(b.row, b.col, p) for b in sweep.boxes for p in b.pairs]
    unresolved = [(b.row, b.col) for b in sweep.unresolved]
    rows, cols, levels = sweep.grid.rows, sweep.grid.cols, []
    for shift in range(max(rows, cols).bit_length()):
        if rows % (1 << shift) or cols % (1 << shift):
            break
        unknown = {(r >> shift, c >> shift) for r, c in unresolved}
        odd = Counter((r >> shift, c >> shift, p) for r, c, p in flags)
        count = sum(k % 2 for (r, c, _), k in odd.items() if (r, c) not in unknown)
        levels.append({"rows": rows >> shift, "cols": cols >> shift, "total_count": count,
                       "n_unknown": len(unknown)})
    return levels


def _tail(levels: list[dict]):
    """The count extrapolated from the increments finer and coarser of the three
    finest levels: the finest count when finer is 0, plus finer^2 / (coarser - finer),
    the sum of later increments that shrink by finer / coarser each, when
    0 < finer < coarser; else None, as with fewer than three levels or an unknown box.
    """
    if len(levels) < 3 or any(level["n_unknown"] for level in levels):
        return None
    finest, mid, coarse = (level["total_count"] for level in levels[:3])
    finer, coarser = finest - mid, mid - coarse
    if finer == 0:
        return finest
    if 0 < finer < coarser:
        return finest + finer * finer / (coarser - finer)
    return None


def _trace_box(pencil, rect, sides: dict, traces: dict | None = None):
    """Loop signature of one box perimeter: (pairs, error message, step_stats).

    sides is the shared dict of traced sides that trace_loop reads and fills,
    traces the dict of side traces it fills (see continuation.trace_loop).
    """
    x0, x1, y0, y1 = rect
    try:
        res = trace_loop(pencil, BoxPerimeter(x0, y0, x1, y1), sides, traces)
    except LoopUnresolvable as exc:
        return None, str(exc), {}
    return decode_signature(res.D), "", res.step_stats


def _trace_boxes(pencil, rects: list) -> tuple[list, dict]:
    """_trace_box outcomes of rects, in order, from one dict of sides, and
    the failed sides: each side path that failed, mapped to its cause.

    The boxes are traced from the last to the first, so on a block of rows
    in (row, col) order each box's right and top sides are already traced,
    by the boxes right of and above it, or start where its own bottom and
    left sides end; the box solves only its start corner besides its steps.
    """
    sides: dict = {}
    outcomes = [_trace_box(pencil, rect, sides) for rect in rects[::-1]][::-1]
    return outcomes, {path: cause for path, cause in sides.items() if isinstance(cause, str)}


def _retry_can_move(outcomes: list, failed: dict, xs: list, ys: list) -> bool:
    """Whether a retry's moved inner lines can change what failed.

    A failed side on the domain boundary (a +x side at a y range end, a +y
    side at an x range end) stays where it is, so only a failed side off the
    boundary, or a box that failed with no failed side (an odd count of -1
    entries), is worth a retry.
    """
    causes = set(failed.values())
    if any(pairs is None and msg not in causes for pairs, msg, _ in outcomes):
        return True
    return any(
        path.x0 not in (xs[0], xs[-1]) if path.x0 == path.x1 else path.y0 not in (ys[0], ys[-1])
        for path in failed
    )


def _retry_shift(seed: int, attempt: int, sx: float, sy: float) -> tuple[float, float]:
    """Offset of the inner grid lines at a sweep attempt, up to _SHIFT_FRAC * (sx, sy).

    Attempt 0 is the first try and gets no offset.
    """
    if attempt == 0:
        return (0.0, 0.0)
    ss = np.random.SeedSequence([seed, _SHIFT_TAG, attempt])
    rng = np.random.Generator(np.random.Philox(ss))
    mag = rng.uniform(0.25, 1.0, size=2)
    sign = 2.0 * rng.integers(0, 2, size=2) - 1.0
    return (
        float(mag[0] * sign[0] * _SHIFT_FRAC * sx),
        float(mag[1] * sign[1] * _SHIFT_FRAC * sy),
    )


def sweep_grid(pencil, grid: GridSpec, seed: int = 0, workers: int = 1) -> SweepResult:
    """Trace every box perimeter of the grid and collect flagged pairs.

    A perimeter through (or numerically through) a coalescence is
    unresolvable. When any box fails, the whole grid is traced again with
    its inner lines moved by a small deterministic offset, up to
    _SWEEP_ATTEMPTS attempts in all. The domain boundary never moves, so
    every tiling covers the domain exactly, adjacent boxes share their sides
    bit for bit, and each coalescence inside the domain is counted once; one
    on the boundary leaves its box unresolved. Any PencilError inside a
    trace (a non-definite B or a non-finite value, say) fails only that box.
    Retries stop early when every failed side lies on the domain boundary,
    where no move of the inner lines can reach it (a 1x1 grid has no inner
    lines at all); a box that fails with no failed side is always retried.
    Boxes still failing at the last attempt are reported with status
    "unresolved", no pairs, and the cause as message.

    Each box is traced as its four sides (see continuation.trace_loop), and
    an attempt traces each side of the grid once: the boxes share one dict
    of traced sides. The rows are split into min(workers, rows) bands of
    whole rows (at least one), each traced from a dict of its own, so only
    the sides between bands are traced twice, by both bands. One band is
    traced in this process; more bands are tasks of a process pool, one
    worker per band, and the pencil must then be picklable. A side's sign
    vector depends only on its two ends, so flags and messages do not
    depend on workers; step_stats do. Results are in (row, col) order
    regardless of completion order.

    Raises
    ------
    ValueError
        If seed or workers is not an integer, or seed < 0 or workers < 1;
        checked before any tracing.
    """
    seed = read_seed(seed, "seed")
    workers = read_int(workers, "workers", minimum=1)
    xs, ys = grid.lines()
    cells = [(r, c) for r in range(grid.rows) for c in range(grid.cols)]
    bands = max(1, min(workers, grid.rows))  # band k starts at row rows * k // bands
    cuts = [grid.cols * (grid.rows * k // bands) for k in range(bands + 1)]
    with ProcessPoolExecutor(max_workers=bands) if bands > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for attempt in range(_SWEEP_ATTEMPTS):
            sx, sy = _retry_shift(seed, attempt, grid.dx, grid.dy)
            mx = [xs[0], *(x + sx for x in xs[1:-1]), xs[-1]]
            my = [ys[0], *(y + sy for y in ys[1:-1]), ys[-1]]
            rects = [(mx[r], mx[r + 1], my[c], my[c + 1]) for r, c in cells]
            tasks = [rects[a:b] for a, b in zip(cuts, cuts[1:])]
            done = list(run(_trace_boxes, [pencil] * bands, tasks))
            outcomes = [outcome for band, _ in done for outcome in band]
            failed = {path: cause for _, band in done for path, cause in band.items()}
            if not _retry_can_move(outcomes, failed, xs, ys):
                break
    boxes = [
        BoxResult(
            row=r,
            col=c,
            rect=rect,
            pairs=pairs or (),
            status="ok" if pairs is not None else "unresolved",
            attempts=attempt + 1,
            message=msg,
            step_stats=stats,
        )
        for (r, c), rect, (pairs, msg, stats) in zip(cells, rects, outcomes)
    ]
    return SweepResult(grid=grid, boxes=boxes)


@dataclass(frozen=True)
class CIEstimate:
    """Coalescence location estimate from recursive box subdivision.

    rect is the rectangle after depth levels of bisection, whether
    refine_box reached it split by split or by verified jumps.
    """

    x: float
    y: float
    uncertainty: float  # half-diagonal of the final rectangle
    pair: int
    depth: int
    rect: tuple[float, float, float, float]


def refine_box(
    pencil,
    rect: tuple[float, float, float, float],
    pair: int,
    depth: int = 10,
    seed: int = 0,
) -> CIEstimate:
    """Pin a coalescence inside a flagged box by verified jumps and bisection.

    The start rectangle is traced once and must flag the target pair. One
    dict of traced sides serves the whole refinement, so no side is traced
    twice. A level of bisection splits the current rectangle at its
    midpoint in x and then in y. A split traces only its upper half (the
    half at the larger x or y): one trace_loop call from one start solve,
    over the sides not traced before, three when the rectangle's outer side
    is known (after the start loop, a jump or a kept upper half) and four
    otherwise. The two halves' signatures multiply to the rectangle's,
    since their common side cancels, so a pair's flags compose by parity:
    the rectangle flags the pair, and the lower half flags it exactly when
    the upper half does not. The half that flags it becomes the next
    rectangle. An upper half that fails is traced again with the
    split line, and only it, moved by the sweep's retry offset along the
    split axis, up to _SWEEP_ATTEMPTS tries in all; the outer sides never
    move.

    Near a coalescence the pair's two eigenvectors span a smooth subspace,
    so the pencil restricted to them is a smooth 2x2 pencil whose double
    eigenvalue solves two equations in (x, y). Before each level, the
    points of the last loops traced with the smallest gap of the pair
    anchor such a model, and Newton's method finds its root from each
    anchor (_model_roots; pencil evaluations only, no eigensolve). When the
    roots lie inside the rectangle and agree to within 1/_JUMP_MARGIN of
    the dyadic sub-rectangle _MIN_JUMP or more levels down that holds them
    (the deepest such, up to depth), that sub-rectangle, built with the
    split arithmetic of bisection, is traced as one loop and becomes the
    rectangle if it flags the pair: a verified jump over those levels. In
    every other case (a root outside, a singular Jacobian, disagreeing
    roots, a jump loop that fails or does not flag the pair) the level is
    bisected as above. Every rectangle moved to flags the pair either way.
    The estimate is the center of the rectangle after depth levels, with
    the half-diagonal as uncertainty.

    Raises
    ------
    ValueError
        If seed, depth or pair is not an integer, or not in 0.., 1.. or
        1..n - 1; checked before any tracing.
    RefinementInconsistent
        If the start rectangle does not flag the pair, or an upper half
        stays unresolved at every try. The message names the level, the
        split axis and the cause.
    """
    seed = read_seed(seed, "seed")
    depth = read_int(depth, "depth", minimum=1)
    pair = read_int(pair, "pair")
    if not 1 <= pair <= pencil.n - 1:
        raise ValueError(f"pair must be in 1..{pencil.n - 1}, got {pair}")
    known: dict = {}
    traces: dict = {}
    pairs, cause, _ = _trace_box(pencil, rect, known, traces)
    if pair not in (pairs or ()):
        found = f"unresolved: {cause}" if pairs is None else f"flags {pairs}"
        raise RefinementInconsistent(
            f"level 0: the start rectangle {_show(rect)} does not flag pair {pair}: {found}"
        )
    level = 0
    while level < depth:
        target = _jump(rect, _model_roots(pencil, traces, pair), depth - level)
        traces = {}
        if target is not None:
            sub, levels = target
            pairs, _, _ = _trace_box(pencil, sub, known, traces)
            if pair in (pairs or ()):
                rect, level = sub, level + levels
                continue
        for axis in (0, 1):
            rect = _bisect(pencil, rect, axis, pair, seed, level, known, traces)
        level += 1
    x0, x1, y0, y1 = rect
    half_diag = 0.5 * math.hypot(x1 - x0, y1 - y0)
    return CIEstimate(
        x=0.5 * (x0 + x1),
        y=0.5 * (y0 + y1),
        uncertainty=half_diag,
        pair=pair,
        depth=depth,
        rect=rect,
    )


def _model_roots(pencil, traces: dict, pair: int) -> list:
    """Roots of the pair's 2x2 model from the traced points with its smallest gap.

    traces maps side paths to TraceResults. At each of the _MODEL_ANCHORS
    distinct points with the smallest relative gap of the pair, W holds the
    pair's two eigenvector columns, and the model at (x, y) is the 2x2
    pencil (W.T A W, W.T B W), whose eigenvalues coincide where pair_terms'
    ah and bh both vanish. Each anchor's root is Newton's on (ah, bh) from
    the anchor; an anchor whose Newton step meets a singular or non-finite
    Jacobian, or a pencil error, gives no root.
    """
    k = pair - 1
    anchors: dict = {}
    for path, tr in traces.items():
        for point in tr.points:
            anchors.setdefault(path.point(point.t), point)
    closest = sorted(anchors.items(), key=lambda item: item[1].gaps[k])[:_MODEL_ANCHORS]
    roots = []
    for xy, point in closest:
        root = _newton_root(pencil, point.V[:, k : k + 2], xy)
        if root is not None:
            roots.append(root)
    return roots


def _newton_root(pencil, W, xy) -> tuple[float, float] | None:
    """Newton's root of the pair's (ah, bh) from xy, or None (see _model_roots)."""

    def terms(x, y):
        A, B = evaluate(pencil, x, y)
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise NonFiniteInput(f"non-finite A or B at (x, y) = ({x:.12g}, {y:.12g})")
        return pair_terms(A, B, W)

    x, y = xy
    try:
        for _ in range(_NEWTON_STEPS):
            f, g = terms(x, y)
            sx = _FD_STEP * max(1.0, abs(x))
            sy = _FD_STEP * max(1.0, abs(y))
            fx, gx = terms(x + sx, y)
            fy, gy = terms(x, y + sy)
            j11, j21, j12, j22 = (fx - f) / sx, (gx - g) / sx, (fy - f) / sy, (gy - g) / sy
            det = j11 * j22 - j12 * j21
            if not (math.isfinite(det) and det != 0.0):
                return None
            dx = (j22 * f - j12 * g) / det
            dy = (j11 * g - j21 * f) / det
            x, y = x - dx, y - dy
            if not (math.isfinite(x) and math.isfinite(y)):
                return None
            if max(abs(dx), abs(dy)) <= 4.0 * _EPS * max(1.0, abs(x), abs(y)):
                break
    except PencilError:
        return None
    return x, y


def _jump(rect, roots: list, levels: int):
    """(sub-rectangle, its levels below rect) of a jump to the model roots, or None.

    The sub-rectangle is the one bisection reaches when every split keeps
    the half holding the roots, built by _halves unshifted, as _bisect's
    first try is, so it is bitwise a rectangle bisection can reach. It is
    the deepest one, _MIN_JUMP to levels down, that holds all the roots, at
    least two of them, with their spread within 1/_JUMP_MARGIN of each of
    its sides.
    """
    if len(roots) < 2 or levels < _MIN_JUMP:
        return None
    x0, x1, y0, y1 = rect
    if not all(x0 < x < x1 and y0 < y < y1 for x, y in roots):
        return None
    coords = tuple(zip(*roots))
    spread = [max(c) - min(c) for c in coords]
    sub = rect
    best = None
    for level in range(1, levels + 1):
        for axis in (0, 1):
            lower, upper = _halves(sub, axis)
            cut = upper[2 * axis]
            if min(coords[axis]) >= cut:
                sub = upper
            elif max(coords[axis]) < cut:
                sub = lower
            else:
                return best
        if any(spread[a] * _JUMP_MARGIN > sub[2 * a + 1] - sub[2 * a] for a in (0, 1)):
            return best
        if level >= _MIN_JUMP:
            best = (sub, level)
    return best


def _halves(rect, axis, shift=0.0):
    """(lower, upper) halves of rect split in axis at its midpoint moved by shift.

    The cut is lo + 0.5 * (hi - lo) + shift; a shift of 0.0 leaves it bitwise
    unmoved, since the cut is never -0.0.
    """
    lo, hi = rect[2 * axis], rect[2 * axis + 1]
    cut = lo + 0.5 * (hi - lo) + shift
    lower, upper = list(rect), list(rect)
    lower[2 * axis + 1] = upper[2 * axis] = cut
    return tuple(lower), tuple(upper)


def _bisect(pencil, rect, axis, pair, seed, level, known, traces):
    """One split of refine_box: the half of rect that flags pair. Only the
    upper half is traced, through the dict of traced sides known; traces
    collects the traces of the sides it traces."""
    half = (0.5 * (rect[1] - rect[0]), 0.5 * (rect[3] - rect[2]))
    for attempt in range(_SWEEP_ATTEMPTS):
        lower, upper = _halves(rect, axis, _retry_shift(seed, attempt, *half)[axis])
        pairs, cause, _ = _trace_box(pencil, upper, known, traces)
        if pairs is not None:
            break
    else:
        raise RefinementInconsistent(
            f"level {level}: the upper half of {_show(rect)} split in {'xy'[axis]} at "
            f"{upper[2 * axis]:.6g} stays unresolved after {_SWEEP_ATTEMPTS} attempts: {cause}"
        )
    return upper if pair in pairs else lower


def _show(rect) -> str:
    x0, x1, y0, y1 = rect
    return f"({x0:.6g}, {x1:.6g}) x ({y0:.6g}, {y1:.6g})"


def write_ci_csv(result: SweepResult, path) -> None:
    """One row per flagged (box, pair): row, col, center, pair index."""
    write_csv(path, ["box_row", "box_col", "center_x", "center_y", "pair_index"], (
        [b.row, b.col, *b.center, p] for b in result.boxes for p in b.pairs
    ))


def write_sweep_summary(result: SweepResult, path) -> None:
    """JSON of the grid's fields and the sweep's summary()."""
    write_json(path, {**asdict(result.grid), **result.summary()})
