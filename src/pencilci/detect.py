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

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .continuation import _pieces, trace_loop
from .errors import LoopUnresolvable, OddSignCount, RefinementInconsistent
from .fields import read_seed, write_json
from .pencil import BoxPerimeter

__all__ = [
    "GridSpec",
    "BoxResult",
    "SweepResult",
    "CIEstimate",
    "decode_signature",
    "signature_from_counts",
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


def signature_from_counts(counts) -> np.ndarray:
    """Sign signature of a loop enclosing d_i coalescences of each pair.

    counts has length n-1; entry d_i (1-based pair i) is the number of
    enclosed coalescences between eigenvalues i and i+1. The signature is
    D_1 = (-1)^{d_1}, D_i = (-1)^{d_{i-1} + d_i}, D_n = (-1)^{d_{n-1}}, so
    decode_signature recovers exactly the pairs with odd d_i.
    """
    d = np.asarray(counts, dtype=int)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("counts must be a 1-D sequence with at least one entry")
    if np.any(d < 0):
        raise ValueError("counts must be non-negative")
    n = d.size + 1
    exponents = np.zeros(n, dtype=int)
    exponents[:-1] += d
    exponents[1:] += d
    return np.where(exponents % 2 == 0, 1, -1).astype(int)


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
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
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

    def rect_of(self, box: BoxResult) -> tuple[float, float, float, float]:
        """Rectangle actually traced for this box, with any retry's moved lines.

        Refinement must start from this rectangle: a coalescence on an
        original inner grid line lies strictly inside it.
        """
        return box.rect


def _trace_box(pencil, rect, sides: dict):
    """Loop signature of one box perimeter: (pairs, error message, step_stats).

    sides is the shared dict of traced sides that trace_loop reads and fills.
    """
    x0, x1, y0, y1 = rect
    try:
        res = trace_loop(pencil, BoxPerimeter(x0, y0, x1, y1), sides)
    except LoopUnresolvable as exc:
        return None, str(exc), {}
    return decode_signature(res.D), "", res.step_stats


def _trace_boxes(pencil, rects: list) -> list:
    """_trace_box outcomes of rects, in order, from one dict of sides.

    The boxes are traced from the last to the first, so on a block of rows
    in (row, col) order each box's right and top sides are already traced,
    by the boxes right of and above it, or start where its own bottom and
    left sides end; the box solves only its start corner besides its steps.
    """
    sides: dict = {}
    return [_trace_box(pencil, rect, sides) for rect in rects[::-1]][::-1]


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
    Boxes still failing at the last attempt are reported with status
    "unresolved", no pairs, and the cause as message.

    Each box is traced as its four sides (see continuation.trace_loop), and
    an attempt traces each side of the grid once: the boxes share one dict
    of traced sides. With workers > 1 the rows are split into one band of
    whole rows per worker (at most rows bands), each a task of a process
    pool with a dict of its own, so only the sides between bands are traced
    twice, by both bands; the pencil must then be picklable. A side's sign
    vector depends only on its two ends, so flags and messages do not
    depend on workers; step_stats do. Results are in (row, col) order
    regardless of completion order.

    Raises
    ------
    ValueError
        If seed is not a non-negative integer; checked before any tracing.
    """
    seed = read_seed(seed, "seed")
    xs, ys = grid.lines()
    cells = [(r, c) for r in range(grid.rows) for c in range(grid.cols)]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for attempt in range(_SWEEP_ATTEMPTS):
            sx, sy = _retry_shift(seed, attempt, grid.dx, grid.dy)
            mx = [xs[0], *(x + sx for x in xs[1:-1]), xs[-1]]
            my = [ys[0], *(y + sy for y in ys[1:-1]), ys[-1]]
            rects = [(mx[r], mx[r + 1], my[c], my[c + 1]) for r, c in cells]
            if pool is not None:
                bands = min(workers, grid.rows)  # band k starts at row rows * k // bands
                cuts = [grid.cols * (grid.rows * k // bands) for k in range(bands + 1)]
                tasks = [rects[a:b] for a, b in zip(cuts, cuts[1:])]
                done = pool.map(_trace_boxes, [pencil] * bands, tasks)
                outcomes = [outcome for band in done for outcome in band]
            else:
                outcomes = _trace_boxes(pencil, rects)
            if all(pairs is not None for pairs, _, _ in outcomes):
                break
    finally:
        if pool is not None:
            pool.shutdown()
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
    """Coalescence location estimate from recursive box subdivision."""

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
    """Pin a coalescence inside a flagged box by bisection.

    The start rectangle is traced once and must flag the target pair. Each
    level then splits the current rectangle at its midpoint in x and then
    in y, carrying the sign vectors of its four sides from split to split.
    A split traces only its upper half (the half at the larger x or y),
    whose outer side is the rectangle's own: one trace_loop call from one
    start solve, over three sides. The lower half's sides are products of
    known sign vectors: each half of a cut side is the rectangle's side
    times the upper half's, its inner side is the upper half's, and its
    outer side the rectangle's. So the lower half's signature is the
    product of the rectangle's and the upper half's, and it flags the pair
    exactly when the upper half does not; the half that flags it becomes
    the next rectangle. An upper half that fails is traced again with the
    split line, and only it, moved by the sweep's retry offset along the
    split axis, up to _SWEEP_ATTEMPTS tries in all; the outer sides never
    move. The estimate is the center of the rectangle after depth levels,
    with the half-diagonal as uncertainty.

    Raises
    ------
    RefinementInconsistent
        If the start rectangle does not flag the pair, or an upper half
        stays unresolved at every try. The message names the level, the
        split axis and the cause.
    """
    seed = read_seed(seed, "seed")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not 1 <= pair <= pencil.n - 1:
        raise ValueError(f"pair must be in 1..{pencil.n - 1}, got {pair}")
    known: dict = {}
    pairs, cause, _ = _trace_box(pencil, rect, known)
    if pair not in (pairs or ()):
        found = f"unresolved: {cause}" if pairs is None else f"flags {pairs}"
        raise RefinementInconsistent(
            f"level 0: the start rectangle {_show(rect)} does not flag pair {pair}: {found}"
        )
    signs = _signs(rect, known)
    for level in range(depth):
        for axis in (0, 1):
            rect, signs = _bisect(pencil, rect, signs, axis, pair, seed, level)
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


# Per split axis (x, y), as indices into _sides' order: the two sides that a
# split cuts in two, and the outer sides of the lower and the upper half.
_CUT = ((0, 3), (1, 2))
_OUTER = ((1, 2), (0, 3))


def _sides(rect) -> tuple:
    """The four side paths of a rectangle, as trace_loop keys them in sides:
    bottom, left, right, top."""
    x0, x1, y0, y1 = rect
    return tuple(_pieces(BoxPerimeter(x0, y0, x1, y1)))


def _signs(rect, known: dict) -> list:
    """The +-1 sign vectors of rect's sides, read from a dict of traced sides."""
    return [np.sign(known[side]) for side in _sides(rect)]


def _bisect(pencil, rect, signs, axis, pair, seed, level):
    """One split of refine_box: the half of rect that flags pair, and its side signs."""
    half = (0.5 * (rect[1] - rect[0]), 0.5 * (rect[3] - rect[2]))
    below, above = _OUTER[axis]
    for attempt in range(_SWEEP_ATTEMPTS):
        cut = rect[2 * axis] + half[axis] + _retry_shift(seed, attempt, *half)[axis]
        upper = list(rect)
        upper[2 * axis] = cut
        known = {_sides(upper)[above]: signs[above]}
        pairs, cause, _ = _trace_box(pencil, tuple(upper), known)
        if pairs is not None:
            break
    else:
        raise RefinementInconsistent(
            f"level {level}: the upper half of {_show(rect)} split in {'xy'[axis]} at "
            f"{cut:.6g} stays unresolved after {_SWEEP_ATTEMPTS} attempts: {cause}"
        )
    up = _signs(upper, known)
    if pair in pairs:
        return tuple(upper), up
    lower = list(rect)
    lower[2 * axis + 1] = cut
    down = list(signs)
    for k in _CUT[axis]:
        down[k] = signs[k] * up[k]
    down[above] = up[below]
    return tuple(lower), down


def _show(rect) -> str:
    x0, x1, y0, y1 = rect
    return f"({x0:.6g}, {x1:.6g}) x ({y0:.6g}, {y1:.6g})"


def write_ci_csv(result: SweepResult, path) -> None:
    """One row per flagged (box, pair): row, col, center, pair index."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["box_row", "box_col", "center_x", "center_y", "pair_index"])
        for b in result.boxes:
            for p in b.pairs:
                writer.writerow(
                    [b.row, b.col, f"{b.center[0]:.17g}", f"{b.center[1]:.17g}", p]
                )


def write_sweep_summary(result: SweepResult, path) -> None:
    """JSON summary: box counts, per-pair totals, attempts, unresolved boxes and causes.

    step_stats holds the boxes' step_stats summed key-wise.
    """
    summary = {
        "rows": result.grid.rows,
        "cols": result.grid.cols,
        "x_range": list(result.grid.x_range),
        "y_range": list(result.grid.y_range),
        "n_boxes": len(result.boxes),
        "n_flagged_boxes": len(result.flagged),
        "n_unresolved": len(result.unresolved),
        "total_count": result.total_count,
        "pair_counts": {str(k): v for k, v in result.pair_counts().items()},
        "attempts": max(b.attempts for b in result.boxes),
        "unresolved_boxes": [[b.row, b.col, b.message] for b in result.unresolved],
        "step_stats": result.step_stats,
    }
    write_json(path, summary)
