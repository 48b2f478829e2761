"""Parametric pencil families and path parametrizations.

A pencil maps a 2-D parameter point (x, y) to a pair (A, B) with A symmetric
and B symmetric positive definite. Built-in families:

* the SG+ random ensemble (banded Gaussian lower-triangular factors with
  Gamma-distributed positive diagonals),
* a 2x2 analytic test pencil with one conical intersection at a known point,
* block-diagonal embeddings that plant a 2x2 pencil at a chosen pair index
  inside a larger constant-diagonal pencil.

Paths map a scalar t in [0, 1] to parameter points; closed kinds satisfy
point(0) == point(1) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthOutOfRange, DispersionOutOfRange, EvaluationFailed, PencilError, SpectrumOverlap,
)
from .fields import (
    read_array, read_bandwidth, read_int, read_json, read_kind, read_number, read_seed, write_json,
)
from .linalg import eig2x2_pencil

__all__ = [
    "ParametricPencil",
    "SGPlusRealization",
    "SGPlusPencil",
    "AnalyticCIPencil",
    "EmbeddedPencil",
    "evaluate",
    "sgplus_generate",
    "sgplus_pencil",
    "analytic_ci_pencil",
    "embed_2x2",
    "dispersion_bound",
    "sgplus_bandwidth",
    "Path",
    "BoxPerimeter",
    "CirclePath",
    "SegmentPath",
    "box_perimeter",
    "circle",
    "segment",
    "pencil_from_descriptor",
    "load_pencil",
    "save_pencil",
]


class ParametricPencil:
    """Base class: a deterministic map (x, y) -> (A, B), A symmetric, B SPD.

    Subclasses set ``n`` and implement :meth:`eval` as a pure function
    (identical inputs give bitwise-identical matrices) and :meth:`descriptor`
    returning a JSON-serializable reconstruction recipe.
    """

    n: int

    def eval(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


def evaluate(pencil, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """A and B of pencil at (x, y).

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
    """One draw of the SG+ ensemble, reproducible from (n, b, delta, seed).

    factors, of shape (4, 2, n, n), holds the strictly-lower-triangular
    banded factors (entries only where 0 < i - j <= b): factors[k-1] is the
    pair (L_Ak, L_Bk). diags, of shape (2, n, n), holds the positive
    diagonals D_A and D_B as diagonal matrices.
    """

    n: int
    b: int
    delta: float
    seed: int
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
    return SGPlusRealization(n=n, b=b, delta=delta, seed=seed, factors=factors, diags=diags)


@dataclass(frozen=True, eq=False)
class SGPlusPencil(ParametricPencil):
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

    def descriptor(self) -> dict:
        r = self.realization
        return {
            "kind": "sgplus",
            "n": r.n,
            "b": r.b,
            "delta": r.delta,
            "seed": r.seed,
        }


def sgplus_pencil(realization: SGPlusRealization) -> SGPlusPencil:
    """Wrap a realization as a parametric pencil."""
    return SGPlusPencil(realization=realization)


@dataclass(frozen=True)
class AnalyticCIPencil(ParametricPencil):
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

    def ci_location(self) -> tuple[float, float]:
        """Parameter point where the two eigenvalues coalesce."""
        return (-self.eps / 4.0, -5.0 * self.eps / 16.0)

    def descriptor(self) -> dict:
        return {"kind": "analytic_ci", "eps": self.eps}


def analytic_ci_pencil(eps: float = 0.0) -> AnalyticCIPencil:
    """The 2x2 analytic test pencil with perturbation eps."""
    return AnalyticCIPencil(eps=eps)


@dataclass(frozen=True)
class EmbeddedPencil(ParametricPencil):
    """Block-diagonal n x n pencil with a 2x2 inner pencil at rows j, j+1.

    The remaining diagonal of A carries the constant outer spectrum (first
    j-1 values above the inner block, the rest below); B is the identity
    outside the inner block. Pair index j is 1-based, matching reported pair
    indices.
    """

    inner: ParametricPencil
    dim: int
    j: int
    outer_spectrum: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.dim

    def eval(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        A_in, B_in = self.inner.eval(x, y)
        n, j = self.dim, self.j
        A = np.zeros((n, n))
        B = np.eye(n)
        above = self.outer_spectrum[: j - 1]
        below = self.outer_spectrum[j - 1 :]
        for k, val in enumerate(above):
            A[k, k] = val
        for k, val in enumerate(below):
            A[j + 1 + k, j + 1 + k] = val
        A[j - 1 : j + 1, j - 1 : j + 1] = A_in
        B[j - 1 : j + 1, j - 1 : j + 1] = B_in
        return A, B

    def descriptor(self) -> dict:
        return {
            "kind": "embedded",
            "inner": self.inner.descriptor(),
            "n": self.dim,
            "j": self.j,
            "outer_spectrum": list(self.outer_spectrum),
        }


def embed_2x2(
    inner: ParametricPencil,
    n: int,
    j: int,
    outer_spectrum: tuple[float, ...],
) -> EmbeddedPencil:
    """Embed a 2x2 pencil at pair index j (1-based) of an n x n pencil.

    The deterministic outer spectrum must stay strictly separated from the
    inner pencil's eigenvalue range so that sorting places the inner pair at
    positions j, j+1: exactly j-1 outer values above it and n-j-1 below it.
    Separation is verified on a 9 x 9 sample grid over [-2, 2]^2.

    Raises
    ------
    SpectrumOverlap
        If separation fails at any sampled point.
    """
    if inner.n != 2:
        raise ValueError("inner pencil must be 2x2")
    if not (2 <= n and 1 <= j <= n - 1):
        raise ValueError(f"need 2 <= n and 1 <= j <= n-1, got n={n}, j={j}")
    if len(outer_spectrum) != n - 2:
        raise ValueError(f"outer_spectrum must have {n - 2} values")
    above = outer_spectrum[: j - 1]
    below = outer_spectrum[j - 1 :]
    sample = np.linspace(-2.0, 2.0, 9)
    for x in sample:
        for y in sample:
            A_in, B_in = inner.eval(x, y)
            _, _, lam1, lam2 = eig2x2_pencil(
                A_in[0, 0], A_in[0, 1], A_in[1, 1],
                B_in[0, 0], B_in[0, 1], B_in[1, 1],
            )
            if any(v <= lam1 for v in above) or any(v >= lam2 for v in below):
                raise SpectrumOverlap(
                    f"outer spectrum not separated from inner range "
                    f"[{lam2:.6g}, {lam1:.6g}] at (x, y) = ({x:.6g}, {y:.6g})"
                )
    return EmbeddedPencil(inner=inner, dim=n, j=j, outer_spectrum=tuple(outer_spectrum))


_DESCRIPTOR_KEYS = {
    "sgplus": ("n", "b", "delta", "seed"),
    "analytic_ci": ("eps",),
    "embedded": ("inner", "n", "j", "outer_spectrum"),
}


def pencil_from_descriptor(desc: dict) -> ParametricPencil:
    """Reconstruct a pencil from its descriptor dictionary."""
    kind, get = read_kind(desc, "pencil descriptor", _DESCRIPTOR_KEYS)
    if kind == "sgplus":
        n, b, delta = get("n", read_int), get("b", read_bandwidth), get("delta", read_number)
        return sgplus_pencil(sgplus_generate(n, b, delta, get("seed", read_seed)))
    if kind == "analytic_ci":
        return analytic_ci_pencil(get("eps", read_number, 0.0))
    inner, outer = pencil_from_descriptor(desc.get("inner")), get("outer_spectrum", read_array)
    return embed_2x2(inner, get("n", read_int), get("j", read_int), outer)


def save_pencil(pencil: ParametricPencil, path) -> None:
    """Write a pencil descriptor as JSON. Matrices are regenerated, not stored."""
    write_json(path, pencil.descriptor())


def load_pencil(path) -> ParametricPencil:
    """Reconstruct a pencil from a descriptor JSON file."""
    return pencil_from_descriptor(read_json(path))


class Path:
    """Base class for parameter paths t in [0, 1] -> (x, y)."""

    closed: bool = False

    def point(self, t: float) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class BoxPerimeter(Path):
    """Counterclockwise perimeter of [x0, x1] x [y0, y1]; corners at t = 0, 1/4, 1/2, 3/4.

    The parameter is taken mod 1, so point(0) == point(1) exactly, and the
    corner parameters return the corner coordinates themselves, so boxes
    built from the same grid lines share their corners bit for bit.
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

    @property
    def side_x(self) -> float:
        return self.x1 - self.x0

    @property
    def side_y(self) -> float:
        return self.y1 - self.y0

    def point(self, t: float) -> tuple[float, float]:
        s = 4.0 * (t % 1.0)
        if s < 1.0:
            return (self.x0 + s * self.side_x, self.y0)
        if s < 2.0:
            return (self.x1, self.y0 + (s - 1.0) * self.side_y)
        if s < 3.0:
            return (self.x0 + (3.0 - s) * self.side_x, self.y1)
        return (self.x0, self.y0 + (4.0 - s) * self.side_y)


@dataclass(frozen=True)
class CirclePath(Path):
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
class SegmentPath(Path):
    """Straight open segment from (x0, y0) at t=0 to (x1, y1) at t=1.

    Both ends are returned exactly, so segments that share an end meet there
    bit for bit.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    closed = False

    def point(self, t: float) -> tuple[float, float]:
        if t == 1.0:
            return (self.x1, self.y1)
        return (self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0))


def box_perimeter(x0: float, y0: float, side_x: float, side_y: float) -> BoxPerimeter:
    """Closed counterclockwise perimeter of [x0, x0+side_x] x [y0, y0+side_y]."""
    return BoxPerimeter(x0=x0, y0=y0, x1=x0 + side_x, y1=y0 + side_y)


def circle(cx: float, cy: float, radius: float) -> CirclePath:
    """Closed counterclockwise circle of given center and radius."""
    return CirclePath(cx=cx, cy=cy, radius=radius)


def segment(p0: tuple[float, float], p1: tuple[float, float]) -> SegmentPath:
    """Open straight segment from p0 to p1."""
    return SegmentPath(x0=p0[0], y0=p0[1], x1=p1[0], y1=p1[1])
