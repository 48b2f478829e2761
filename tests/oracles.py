"""Reference functions and pencils that only the tests call.

The paper reduces A - lambda B to standard form through B^{1/2}. The package
never forms B^{1/2} (every solve is LAPACK dsygvd), so the SPD square root,
its series cross-check and the Lyapunov derivative of the square root live
here, as oracles for acceptance criterion 6 and the linalg tests, next to the
signature that a loop enclosing given coalescence counts must carry.

The closed-form eigenvalues of a 2x2 pencil, and the block-diagonal
embedding that plants a 2x2 pencil at a chosen pair index of a larger
pencil (acceptance criterion 2), are here too: the pipeline roots a pair's
2x2 model through linalg.pair_terms and never needs either. So is the known
intersection point of the analytic test pencil, which the localization
tests measure their estimates against.

Matrices are plain float ndarrays; the symmetric ones are kept exactly
symmetric by construction via :func:`symmetrize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from pencilci.errors import NotPositiveDefinite, PencilError
from pencilci.linalg import _pencil2x2_terms

_EPS = np.finfo(float).eps

# spd_sqrt_series stops once a term's Frobenius norm falls below
# SERIES_TOL and gives up after SERIES_MAX_TERMS terms.
SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 100_000

# Relative positivity floor: an eigenvalue of B at or below 1e3*eps times
# the largest one is treated as a positive-definiteness violation.
PIVOT_FLOOR_FACTOR = 1e3 * _EPS


class SeriesDiverged(PencilError):
    """Square-root series terms stopped contracting.

    Raised when the scaling precondition gamma > ||B|| is violated, or when
    term norms fail to decrease monotonically after the third term.
    """


class SpectrumOverlap(PencilError):
    """Embedding spectrum not separated from the inner block's eigenvalues."""


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M.T)/2, enforcing exact entrywise symmetry."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def _eigh_spd(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of B, raising if B is not safely SPD."""
    B = np.asarray(B, dtype=float)
    w, U = scipy.linalg.eigh(B)
    floor = PIVOT_FLOOR_FACTOR * float(np.max(np.abs(w), initial=0.0))
    if w[0] <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[0]:.6e} is at or below the floor {floor:.6e}"
        )
    return w, U


def spd_sqrt(B: np.ndarray) -> np.ndarray:
    """The unique SPD square root of B, via spectral decomposition.

    Raises
    ------
    NotPositiveDefinite
        If B has an eigenvalue at or below the positivity floor.
    """
    w, U = _eigh_spd(B)
    return symmetrize((U * np.sqrt(w)) @ U.T)


def spd_sqrt_series(B: np.ndarray, gamma: float) -> np.ndarray:
    """SPD square root via the binomial series, scaled by gamma.

    Writes C = B/gamma = I + Y and sums sqrt(gamma) * (I + Y)^{1/2} with the
    series (1 + y)^{1/2} = 1 + y/2 - y^2/8 + y^3/16 - ..., whose coefficients
    satisfy c_k = c_{k-1} (3 - 2k) / (2k), c_0 = 1. Convergence needs
    ||Y|| < 1, i.e. gamma > ||B||_2. Slow by design: this exists as a
    cross-check oracle for :func:`spd_sqrt`, not for production use.

    Raises
    ------
    SeriesDiverged
        If gamma <= ||B||_2, or term norms fail to decrease monotonically
        after the third term, or SERIES_MAX_TERMS is exhausted.
    """
    B = np.asarray(B, dtype=float)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    norm_b = float(np.linalg.norm(B, 2))
    if norm_b >= gamma:
        raise SeriesDiverged(
            f"||B|| = {norm_b:.6e} >= gamma = {gamma:.6e}; series cannot contract"
        )
    n = B.shape[0]
    Y = B / gamma - np.eye(n)
    S = np.eye(n)
    power = np.eye(n)
    coeff = 1.0
    prev_norm = math.inf
    for k in range(1, SERIES_MAX_TERMS + 1):
        coeff *= (3.0 - 2.0 * k) / (2.0 * k)
        power = power @ Y
        term = coeff * power
        term_norm = float(np.linalg.norm(term))
        S = S + term
        if term_norm < SERIES_TOL:
            break
        if k > 3 and term_norm >= prev_norm:
            raise SeriesDiverged(
                f"term {k} norm {term_norm:.6e} did not decrease "
                f"(previous {prev_norm:.6e})"
            )
        prev_norm = term_norm
    else:
        raise SeriesDiverged(f"no convergence within {SERIES_MAX_TERMS} terms")
    return math.sqrt(gamma) * symmetrize(S)


def sqrt_derivative(S: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """The unique symmetric X with X @ S + S @ X = dB, for SPD S.

    This is the derivative of the SPD square root: if S(t)^2 = B(t) then
    X = dS/dt solves the above with dB = dB/dt. Solved in S's eigenbasis,
    where the equation decouples to X_ij = dB_ij / (s_i + s_j).
    """
    dB = np.asarray(dB, dtype=float)
    s, U = _eigh_spd(S)
    dBt = U.T @ dB @ U
    X = U @ (dBt / np.add.outer(s, s)) @ U.T
    return symmetrize(X)


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


def eig2x2_pencil(
    a: float, b: float, c: float, alpha: float, beta: float, gamma: float
) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues of the 2x2 pencil ([[a,b],[b,c]], [[alpha,beta],[beta,gamma]]).

    Rescales to at = a/alpha, ct = c/gamma, bt = b/sqrt(alpha*gamma),
    dt = beta/sqrt(alpha*gamma) and solves the shifted quadratic through
    ah = (at - ct)/2 and bh = bt - dt*(at + ct)/2:

        mu = (-bh*dt +- sqrt(bh^2 + (1 - dt^2) ah^2)) / (1 - dt^2),
        lam = mu + (at + ct)/2.

    Returns (mu1, mu2, lam1, lam2) with lam1 >= lam2.

    Raises
    ------
    NotPositiveDefinite
        If [[alpha, beta], [beta, gamma]] is not positive definite.
    """
    ah, bh, dt, shift = _pencil2x2_terms(a, b, c, alpha, beta, gamma)
    denom = 1.0 - dt * dt
    disc = math.sqrt(bh * bh + denom * ah * ah)
    mu1 = (-bh * dt + disc) / denom
    mu2 = (-bh * dt - disc) / denom
    return mu1, mu2, mu1 + shift, mu2 + shift


def ci_location(eps: float) -> tuple[float, float]:
    """Parameter point where the two eigenvalues of analytic_ci_pencil(eps) coalesce."""
    return (-eps / 4.0, -5.0 * eps / 16.0)


@dataclass(frozen=True)
class EmbeddedPencil:
    """Block-diagonal n x n pencil with a 2x2 inner pencil at rows j, j+1.

    The remaining diagonal of A carries the constant outer spectrum (first
    j-1 values above the inner block, the rest below); B is the identity
    outside the inner block. Pair index j is 1-based, matching reported pair
    indices.
    """

    inner: object  # a 2x2 pencil
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


def embed_2x2(
    inner,
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
