"""Parametric pencil families and path parametrizations.

A pencil maps a 2-D parameter point (x, y) to a pair (A, B) with A symmetric
and B symmetric positive definite. Built-in families:

* the SG+ random ensemble (banded Gaussian lower-triangular factors with
  Gamma-distributed positive diagonals),
* a 2x2 analytic test pencil with one conical intersection at a known point.

Pencils are duck-typed: the pipeline needs only the integer n and the pure
eval(x, y) that :func:`evaluate` states. A pencil JSON file holds a
descriptor, a kind and the fields that kind reads, from which
:func:`pencil_from_descriptor` builds the pencil again; matrices are never
stored.

Paths map a scalar t in [0, 1] to parameter points through point(t), and
say by closed whether they are loops; a circle, the closed kind, satisfies
point(0) == point(1) exactly. A box perimeter is no path:
continuation.trace_loop traces it as its four sides, each a segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthOutOfRange, DispersionOutOfRange, EvaluationFailed, PencilError
from .fields import read_bandwidth, read_int, read_json, read_kind, read_number, read_seed

__all__ = [
    "SGPlusRealization",
    "SGPlusPencil",
    "AnalyticCIPencil",
    "evaluate",
    "sgplus_generate",
    "sgplus_pencil",
    "analytic_ci_pencil",
    "dispersion_bound",
    "sgplus_bandwidth",
    "BoxPerimeter",
    "CirclePath",
    "SegmentPath",
    "circle",
    "segment",
    "pencil_from_descriptor",
    "load_pencil",
]


def evaluate(pencil, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """A and B of pencil at (x, y).

    A pencil is any object with an integer ``n`` and an ``eval(x, y)`` that
    returns (A, B), A symmetric and B symmetric positive definite, as a pure
    function: identical inputs give bitwise-identical matrices, which boxes
    that share a side rely on.

    Any exception from the pencil's own eval that is not a PencilError is
    raised again as EvaluationFailed, so a bad evaluation fails one trace
    like any other PencilError.
    """
    try:
        return pencil.eval(x, y)
    except PencilError:
        raise
    except Exception as exc:
        raise EvaluationFailed(
            f"{type(exc).__name__}: {exc} at (x, y) = ({x:.12g}, {y:.12g})"
        ) from exc


def dispersion_bound(n: int) -> float:
    """Upper limit sqrt((n+1)/(n+5)) of the admissible dispersion range."""
    return float(np.sqrt((n + 1) / (n + 5)))


@dataclass(frozen=True, eq=False)
class SGPlusRealization:
    """One draw of the SG+ ensemble: n and the matrices, nothing else.

    :func:`sgplus_generate` draws it again from (n, b, delta, seed); the
    realization keeps none of b, delta and seed, which only a descriptor holds.

    factors, of shape (4, 2, n, n), holds the strictly-lower-triangular
    banded factors (entries only where 0 < i - j <= b): factors[k-1] is the
    pair (L_Ak, L_Bk). diags, of shape (2, n, n), holds the positive
    diagonals D_A and D_B as diagonal matrices.
    """

    n: int
    factors: np.ndarray
    diags: np.ndarray


def sgplus_bandwidth(n: int, b, delta: float) -> int:
    """Check n >= 2, 1 <= b <= n - 1 and 0 < delta < sqrt((n+1)/(n+5)).

    Returns b as an integer, "full" meaning n - 1. Raises ValueError,
    BandwidthOutOfRange or DispersionOutOfRange, in that order of checks.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    b = n - 1 if b == "full" else b
    if not 1 <= b <= n - 1:
        raise BandwidthOutOfRange(f"bandwidth {b} outside 1..{n - 1} for n = {n}")
    bound = dispersion_bound(n)
    if not 0.0 < delta < bound:
        raise DispersionOutOfRange(
            f"delta = {delta} outside the open interval "
            f"(0, sqrt((n+1)/(n+5))) = (0, {bound:.6f}) for n = {n}"
        )
    return b


def sgplus_generate(n: int, b, delta: float, seed: int) -> SGPlusRealization:
    """Draw an SG+ realization with a pinned sampler and draw order.

    Band entries of each factor are i.i.d. Normal(0, 1) scaled by
    sigma_n = delta / sqrt(n + 1); diagonal entries are sigma_n * sqrt(2 v_i)
    with v_i ~ Gamma(a_i, rate 1) and a_i = (n+1)/(2 delta^2) + (1 - i)/2,
    i = 1..n. The generator is counter-based (Philox) and the draw order is
    fixed: L_A1..L_A4 then L_B1..L_B4, band entries row-major within each
    factor, then D_A, then D_B. Each draw is written straight into the
    layout :meth:`SGPlusPencil.eval` reads: L_Ak is factors[k-1, 0], L_Bk is
    factors[k-1, 1], and D_A and D_B are the diagonals of diags[0] and
    diags[1]. The delta constraint keeps every a_i > 3, so the vectorized
    gamma sampler stays in its shape >= 1 regime. b may be "full"; (n, b,
    delta) are checked by :func:`sgplus_bandwidth`.
    """
    b = sgplus_bandwidth(n, b, delta)
    sigma = delta / np.sqrt(n + 1)
    rng = np.random.Generator(np.random.Philox(seed))

    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    rows, cols = np.nonzero((offsets > 0) & (offsets <= b))
    factors = np.zeros((4, 2, n, n))
    for k in range(8):  # L_A1..L_A4, then L_B1..L_B4
        factors[k % 4, k // 4, rows, cols] = sigma * rng.standard_normal(rows.size)

    i = np.arange(1, n + 1)
    a = (n + 1) / (2.0 * delta * delta) + (1.0 - i) / 2.0
    diags = np.zeros((2, n, n))
    for d in diags:
        d.flat[:: n + 1] = sigma * np.sqrt(2.0 * rng.standard_gamma(a))
    return SGPlusRealization(n=n, factors=factors, diags=diags)


@dataclass(frozen=True, eq=False)
class SGPlusPencil:
    """Trigonometric SG+ pencil, 2*pi-periodic in each parameter.

    A(x, y) = L(x, y) L(x, y)^T with
    L(x, y) = cos(x) L1 + sin(x) L2 + cos(y) L3 + sin(y) L4 + D;
    same for B with its own factors. B is SPD by construction: its L is lower
    triangular with strictly positive diagonal D_B.

    eval forms both L's with one product of the coefficient vector
    c = (cos x, sin x, cos y, sin y) and the factor stack,
    L = (c @ factors.reshape(4, -1)).reshape(2, n, n) + diags,
    and A and B with one batched L @ L.T.
    """

    realization: SGPlusRealization

    @property
    def n(self) -> int:
        return self.realization.n

    def eval(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        r = self.realization
        c = np.array((math.cos(x), math.sin(x), math.cos(y), math.sin(y)))
        L = (c @ r.factors.reshape(4, -1)).reshape(2, r.n, r.n)
        L += r.diags
        # numpy computes X @ X.T with syrk, so A and B come out exactly symmetric.
        AB = L @ L.transpose(0, 2, 1)
        return AB[0], AB[1]


def sgplus_pencil(realization: SGPlusRealization) -> SGPlusPencil:
    """Wrap a realization as a parametric pencil."""
    return SGPlusPencil(realization=realization)


@dataclass(frozen=True)
class AnalyticCIPencil:
    """2x2 test pencil with a single conical intersection at a known point.

    A(x, y) = [[4x + 3y, 5y], [5y, -4x + 3y]] + eps * [[1, 1], [1, -1]],
    B = [[5, 3], [3, 5]]. For eps = 0 the eigenvalues are +-sqrt(x^2 + y^2),
    coalescing at the origin; for eps != 0 the intersection moves to
    (-eps/4, -5 eps/16).
    """

    eps: float = 0.0

    @property
    def n(self) -> int:
        return 2

    def eval(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        e = self.eps
        A = np.array(
            [
                [4.0 * x + 3.0 * y + e, 5.0 * y + e],
                [5.0 * y + e, -4.0 * x + 3.0 * y - e],
            ]
        )
        B = np.array([[5.0, 3.0], [3.0, 5.0]])
        return A, B


def analytic_ci_pencil(eps: float = 0.0) -> AnalyticCIPencil:
    """The 2x2 analytic test pencil with perturbation eps."""
    return AnalyticCIPencil(eps=eps)


_DESCRIPTOR_KEYS = {
    "sgplus": ("n", "b", "delta", "seed"),
    "analytic_ci": ("eps",),
}


def pencil_from_descriptor(desc: dict):
    """Build a pencil from its descriptor dictionary: kind sgplus or analytic_ci.

    An sgplus descriptor needs n, b and delta, and seed defaults to 0; an
    analytic_ci descriptor's eps defaults to 0.0.
    """
    kind, get = read_kind(desc, "pencil descriptor", _DESCRIPTOR_KEYS)
    if kind == "sgplus":
        n, b, delta = get("n", read_int), get("b", read_bandwidth), get("delta", read_number)
        return sgplus_pencil(sgplus_generate(n, b, delta, get("seed", read_seed, 0)))
    return analytic_ci_pencil(get("eps", read_number, 0.0))


def load_pencil(path):
    """Reconstruct a pencil from a descriptor JSON file."""
    return pencil_from_descriptor(read_json(path))


@dataclass(frozen=True)
class BoxPerimeter:
    """Counterclockwise perimeter of [x0, x1] x [y0, y1], given by its corners.

    continuation.trace_loop traces it as its four sides, each a segment in
    the +x or +y direction between two corners, so boxes built from the same
    grid lines share their sides bit for bit.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    closed = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError("box corners must be finite")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("box sides must be positive")


@dataclass(frozen=True)
class CirclePath:
    """Counterclockwise circle; t taken mod 1 so the loop closes exactly."""

    cx: float
    cy: float
    radius: float
    closed = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.cx, self.cy, self.radius))):
            raise ValueError("circle center and radius must be finite")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def point(self, t: float) -> tuple[float, float]:
        theta = 2.0 * np.pi * (t % 1.0)
        return (self.cx + self.radius * np.cos(theta), self.cy + self.radius * np.sin(theta))


@dataclass(frozen=True)
class SegmentPath:
    """Straight open segment from (x0, y0) at t=0 to (x1, y1) at t=1.

    Both ends are returned exactly, so segments that share an end meet there
    bit for bit.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    closed = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError("segment ends must be finite")

    def point(self, t: float) -> tuple[float, float]:
        if t == 1.0:
            return (self.x1, self.y1)
        return (self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0))


def circle(cx: float, cy: float, radius: float) -> CirclePath:
    """Closed counterclockwise circle of given center and radius."""
    return CirclePath(cx=cx, cy=cy, radius=radius)


def segment(p0: tuple[float, float], p1: tuple[float, float]) -> SegmentPath:
    """Open straight segment from p0 to p1."""
    return SegmentPath(x0=p0[0], y0=p0[1], x1=p1[0], y1=p1[1])
