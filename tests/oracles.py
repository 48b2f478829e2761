"""Reference functions that only the tests call.

The paper reduces A - lambda B to standard form through B^{1/2}. The package
never forms B^{1/2} (every solve is LAPACK dsygvd), so the SPD square root,
its series cross-check and the Lyapunov derivative of the square root live
here, as oracles for acceptance criterion 6 and the linalg tests, next to the
signature that a loop enclosing given coalescence counts must carry.

Matrices are plain float ndarrays; the symmetric ones are kept exactly
symmetric by construction via :func:`symmetrize`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from pencilci.errors import NotPositiveDefinite, PencilError

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
