"""Dense symmetric-definite kernels.

Ordered generalized eigendecompositions with B-orthonormal eigenvectors, and
the terms of a pair's 2x2 model, whose eigenvalues coincide where both vanish.

Matrices are plain float ndarrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsygvd

from .errors import NonFiniteInput, NotPositiveDefinite

__all__ = [
    "EigenPair",
    "gen_eig_ordered",
    "pair_terms",
]


@dataclass(frozen=True)
class EigenPair:
    """Ordered eigendecomposition of a symmetric-definite pencil (A, B).

    values are sorted decreasing and vectors' columns satisfy V.T @ B @ V = I.
    Column signs are unspecified; callers normalize.
    """

    values: np.ndarray
    vectors: np.ndarray


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


def pair_terms(A: np.ndarray, B: np.ndarray, W: np.ndarray) -> tuple[float, float]:
    """(ah, bh) of :func:`_pencil2x2_terms` for the 2x2 pencil (W.T A W, W.T B W).

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
    """(ah, bh, dt, shift) of the 2x2 pencil ([[a,b],[b,c]], [[alpha,beta],[beta,gamma]]).

    Rescales to at = a/alpha, ct = c/gamma, bt = b/sqrt(alpha*gamma),
    dt = beta/sqrt(alpha*gamma), with ah = (at - ct)/2,
    bh = bt - dt*(at + ct)/2 and shift = (at + ct)/2. The eigenvalues are
    shift + (-bh*dt +- sqrt(bh^2 + (1 - dt^2) ah^2)) / (1 - dt^2), so they
    coincide exactly when ah = bh = 0, since 1 - dt^2 > 0.

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

