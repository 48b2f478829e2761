"""Dense symmetric and symmetric-definite kernels.

The SPD square root (spectral route plus a series-based cross-check), the
Lyapunov derivative of the square root, ordered generalized
eigendecompositions with B-orthonormal eigenvectors, and closed-form
treatment of 2x2 pencils.

Matrices are plain float ndarrays; the symmetric ones are kept exactly
symmetric by construction via :func:`symmetrize`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dsygvd

from .errors import NonFiniteInput, NotPositiveDefinite, SeriesDiverged

__all__ = [
    "EigenPair",
    "symmetrize",
    "spd_sqrt",
    "spd_sqrt_series",
    "sqrt_derivative",
    "gen_eig_ordered",
    "eig2x2_pencil",
    "pair_terms",
]

_EPS = np.finfo(float).eps

# spd_sqrt_series stops once a term's Frobenius norm falls below
# SERIES_TOL and gives up after SERIES_MAX_TERMS terms.
SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 100_000

# Relative positivity floor: an eigenvalue of B at or below 1e3*eps times
# the largest one is treated as a positive-definiteness violation.
PIVOT_FLOOR_FACTOR = 1e3 * _EPS


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M.T)/2, enforcing exact entrywise symmetry."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class EigenPair:
    """Ordered eigendecomposition of a symmetric-definite pencil (A, B).

    values are sorted decreasing and vectors' columns satisfy V.T @ B @ V = I.
    Column signs are unspecified; callers normalize.
    """

    values: np.ndarray
    vectors: np.ndarray


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


@functools.cache
def _zeros(size: int) -> np.ndarray:
    """A read-only vector of size zeros, built once per size."""
    z = np.zeros(size)
    z.flags.writeable = False
    return z


def gen_eig_ordered(A: np.ndarray, B: np.ndarray) -> EigenPair:
    """Ordered eigendecomposition of the symmetric-definite pencil (A, B).

    Returns eigenvalues sorted decreasing and B-orthonormal eigenvectors
    (V.T @ B @ V = I), computed by LAPACK dsygvd (A x = lambda B x, lower
    triangles, the routine and arguments scipy.linalg.eigh(A, B) uses), which
    reduces the pencil to a standard symmetric problem. Close or equal
    adjacent eigenvalues are returned as they are; callers judge closeness.

    Raises
    ------
    NotPositiveDefinite
        If B is not positive definite (any nonzero LAPACK info).
    NonFiniteInput
        If A or B has a NaN or infinite entry.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    # 0 * x is 0 for every finite x and NaN for an infinite or NaN x, so each
    # dot product with zeros is 0 exactly when its matrix is finite; no
    # finite entry, however large, can overflow it.
    if not math.isfinite(np.vdot(A, _zeros(A.size)) + np.vdot(B, _zeros(B.size))):
        raise NonFiniteInput("pencil has non-finite entries")
    w, V, info = dsygvd(A, B)
    if info != 0:
        raise NotPositiveDefinite(f"B is not positive definite: dsygvd info {info}")
    return EigenPair(values=w[::-1].copy(), vectors=V[:, ::-1].copy())


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


def pair_terms(A: np.ndarray, B: np.ndarray, W: np.ndarray) -> tuple[float, float]:
    """(ah, bh) of :func:`eig2x2_pencil` for the 2x2 pencil (W.T A W, W.T B W).

    With W two eigenvector columns of a pair, this is the pair's model: its
    eigenvalues coincide exactly where ah = bh = 0.

    Raises
    ------
    NotPositiveDefinite
        If W.T B W is not positive definite.
    """
    a = W.T @ A @ W
    b = W.T @ B @ W
    ah, bh, _, _ = _pencil2x2_terms(
        float(a[0, 0]), 0.5 * float(a[0, 1] + a[1, 0]), float(a[1, 1]),
        float(b[0, 0]), 0.5 * float(b[0, 1] + b[1, 0]), float(b[1, 1]),
    )
    return ah, bh


def _pencil2x2_terms(
    a: float, b: float, c: float, alpha: float, beta: float, gamma: float
) -> tuple[float, float, float, float]:
    """(ah, bh, dt, shift) of :func:`eig2x2_pencil`'s rescaled pencil.

    The eigenvalues coincide exactly when ah = bh = 0, since 1 - dt^2 > 0.

    Raises
    ------
    NotPositiveDefinite
        If [[alpha, beta], [beta, gamma]] is not positive definite.
    """
    if not (alpha > 0.0 and alpha * gamma - beta * beta > 0.0):
        raise NotPositiveDefinite(
            f"[[{alpha}, {beta}], [{beta}, {gamma}]] is not positive definite"
        )
    root_ag = math.sqrt(alpha * gamma)
    at = a / alpha
    ct = c / gamma
    dt = beta / root_ag
    shift = 0.5 * (at + ct)
    return 0.5 * (at - ct), b / root_ag - shift * dt, dt, shift

