"""Smooth ordered eigendecomposition along a 1-D parameter path.

Predictor-corrector continuation for symmetric-definite pencils (A(t), B(t)):
an Euler predictor for the eigenvalues and a second-order one for the
B-orthonormal eigenvectors between clusters, per-column sign correction
against the prediction, stepsize control driven by prediction errors, a
secant guard against imminent ordering violations, and a dedicated traversal
mode for veering intervals where two eigenvalues nearly coalesce and their
eigenvectors rotate rapidly.

Eigenvectors lose smoothness where eigenvalues come close, while the
projectors onto their joint invariant subspaces stay smooth. Adjacent
eigenvalues whose relative gap is below CLUSTER_GAP = 3e-2 (at the current
point or at the solved candidate) form a cluster, which a step follows on its
projector: the predictor leaves out the in-cluster rotation, step control
measures the cluster's subspace and eigenvalue sum instead of its single
columns, and the fresh eigenvectors, signed by overlap, may rotate inside the
cluster by up to about 41 degrees per step. Between clusters the columns are
smooth, and on a step where at most two thirds of the columns are clustered
the predictor follows them to second order, so there the error is third
order and the eigenvalues and the columns' normalization size the steps. A
step with no cluster is the plain column-wise step. 3e-2 is the largest gap
scanned at which the steps of n = 30 SG+ loops stay sized by their error
estimate; above it clusters grow and the stepsize cap H_MAX_FRAC becomes the
step rule (scanned with H_MAX_FRAC = 1/16).

Closed loops additionally yield the sign signature D, the diagonal +-1 matrix
with V(1) = V(0) D; its -1 entries betray eigenvalue coalescences enclosed by
the loop. D is a product over the loop's pieces: a box perimeter is traced as
four open sides, each from a canonically signed basis at its start corner to
the one at its end, so the boxes of a grid can share their sides.

Pair indices in public interfaces are 1-based: pair i couples the i-th and
(i+1)-th eigenvalues in decreasing order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateStart,
    GapTooSmall,
    LoopUnresolvable,
    PencilError,
    StepUnderflow,
    TripleDegeneracy,
)
from .fields import write_csv
from .linalg import gen_eig_ordered
from .pencil import BoxPerimeter, evaluate, segment

__all__ = [
    "EigenPoint",
    "StepDecision",
    "TraceResult",
    "LoopResult",
    "TOLSTEP",
    "TOLDIST",
    "CLUSTER_GAP",
    "init_decomposition",
    "predict",
    "sign_correct",
    "step_control",
    "secant_guard",
    "trace",
    "trace_loop",
    "write_trace_csv",
]

_EPS = np.finfo(float).eps

# Prediction-error budget per step; rho is the worst error over this budget.
TOLSTEP = 1e-2
# Accept a step when rho = max(rho_lambda, rho_V) / TOLSTEP stays below this.
RHO_ACCEPT = 1.5
# The eigenvalues' and the normalization's local error grows as h^2 (the
# error between clusters as h^3): a step of h_new would have rho near
# rho * (h_new/h)^2, so the next step h * STEP_SAFETY / sqrt(rho) aims
# at rho = STEP_SAFETY^2, just under 1.
STEP_SAFETY = 0.9
# h never grows by more than this factor per step (the rule diverges as rho -> 0).
# Where secant_guard cuts steps short, as at n = 50, b = 3, the cap sets how
# fast h recovers: a 4x8 block of such SG+ boxes takes 2,619 solves at 4
# against 3,335 at 2, with the same flags.
GROWTH_CAP = 4.0
# Relative-gap threshold below which a pair counts as close to veering.
TOLDIST = 1e6 * _EPS
# Adjacent pairs whose relative gap is below this, at the current point or at
# the solved candidate, are linked; maximal runs of linked pairs are clusters.
# Of the gaps scanned on a 4x8 block of SG+ boxes (1e-2, 3e-2, 5e-2, 1e-1),
# 3e-2 is the largest at which n = 30 steps stay sized by their error
# estimate: 30 of its 842 accepted steps ran at H_MAX_FRAC, against 277 of
# 727 at 5e-2, where the largest cluster also grows from 5 to 15 columns
# (measured with H_MAX_FRAC = 1/16).
CLUSTER_GAP = 3e-2
# predict adds its second-order term Y2 only on a step where at most this
# share of the columns is clustered. Y2 lengthens the steps that the error
# between clusters sizes, for two more n x n products a step; where most
# columns are clustered, secant_guard and the rotation cap size the steps
# instead. On 4x8 blocks of SG+ boxes, Y2 on every step saved 24% / 22% /
# 17% / 9% of the solves at n = 10 / 20 / 30 / 40 (full band), but 1% at
# n = 50 full band and none at n = 50, b = 3, both then slower than without
# it. At this share Y2 is on every step of the n <= 20 blocks, on 95% at
# n = 30, 30% at n = 40 and 3% at n = 50 (full band), and on 0-8% at b = 3
# and 5; so n = 40 full band and n = 30, b = 5 forgo 10% and 8% of their
# solves.
_SECOND_ORDER_SHARE = 2.0 / 3.0
# A relative gap at or below this makes the divided differences of predict
# meaningless; a trace can neither start nor predict from such a point.
MIN_REL_GAP = 10.0 * _EPS
# Leave veering mode only once the gap exceeds this multiple of TOLDIST.
VEERING_EXIT_FACTOR = 10.0
# Sign decisions with overlap below this are unreliable; reject the step.
AMBIGUOUS_OVERLAP = 0.1
# Stepsize cap and stepsize floor, as fractions of the path span t = 0 -> 1;
# a trace's first step is its cap, unless the probe shortens it. A loop
# around one intersection turns the pair's eigenvectors by pi whatever the
# loop's size, so near an intersection the cap sets the step count. At 1/8 a
# step turns the pair by 22.5 degrees on average, about half the cluster
# rotation cap (_PAIR_DIAG_MIN, about 41 degrees); at 1/4 it would be 45
# degrees, and rotation rejections would size the steps.
H_MAX_FRAC = 1.0 / 8.0
H_MIN_FRAC = 1e-14
# Signature entries must sit within this distance of +-1 (diagonal) and 0
# (off-diagonal) before rounding.
SIGNATURE_TOL = 1e-6

# Veering traversal: per-substep guards. The in-pair sign decision needs the
# 2x2 overlap diagonal decisively away from zero (rotation under 45 degrees);
# outer columns rotate slowly and must overlap strongly. Clustered predictor
# steps apply the same diagonal bound to every column of a cluster.
_PAIR_DIAG_MIN = 0.75
_PAIR_ORTHO_TOL = 0.05
_OUTER_DIAG_MIN = 0.9
_VEER_GROW = 1.5
_VEER_EASY = 0.98
_MAX_SUBSTEPS = 10_000


@dataclass(frozen=True, eq=False)
class EigenPoint:
    """Decomposition at one path parameter: V.T B V = I, A V = B V Lambda.

    gaps holds the relative gaps of lam (see _rel_gaps), which steps from
    the point read. h, rho_lambda, rho_V and veering describe the accepted
    step that reached the point (NaN rho entries while veering); a trace
    start keeps the defaults.
    """

    t: float
    V: np.ndarray
    lam: np.ndarray
    gaps: np.ndarray
    h: float = 0.0
    rho_lambda: float = math.nan
    rho_V: float = math.nan
    veering: bool = False


class StepDecision(NamedTuple):
    """Outcome of stepsize control for one attempted step.

    rotation_ok is False when some cluster column rotated too far; the step
    is then rejected whatever rho says.
    """

    rho: float
    h_new: float
    accept: bool
    rho_lambda: float
    rho_V: float
    rotation_ok: bool


@dataclass(frozen=True, eq=False)
class TraceResult:
    """A completed trace of a path, open or closed, from t = 0 to 1.

    points holds the start and every accepted point, veering_events the
    (t_enter, t_exit, pair) of each veering traversal, and step_stats the
    counts described in :func:`trace`.
    """

    points: list[EigenPoint]
    veering_events: list[tuple[float, float, int]]
    step_stats: dict


@dataclass(frozen=True, eq=False)
class LoopResult:
    """A closed loop's +-1 signature D, with V(1) = V(0) diag(D), its diagonal
    before rounding (signature_raw) and step_stats (see :func:`trace_loop`)."""

    D: np.ndarray
    signature_raw: np.ndarray
    step_stats: dict


class _VeeringResult(NamedTuple):
    event: tuple[float, float, int]
    points: list[EigenPoint]  # one per accepted substep; the last is the exit state
    substeps: int  # eigensolves after the entry step
    B: np.ndarray  # B at the exit state


def _rel_gaps(lam: np.ndarray) -> np.ndarray:
    """Adjacent eigenvalue gaps scaled by (|lambda_i| + 1)."""
    return (lam[:-1] - lam[1:]) / (np.abs(lam[:-1]) + 1.0)


def _clusters(links: np.ndarray) -> np.ndarray | None:
    """Cluster labels of the columns, or None when no adjacent pair is linked.

    Pair k couples columns k and k + 1. Column k's label counts the unlinked
    pairs before it, so a maximal run of linked pairs shares one label (a
    cluster), and a column linked to neither neighbour has a label of its own.
    None selects the plain column-wise step, cheaper when no pair is close: on
    such a step at n = 10, step_control takes 13-16 us plain, 31-37 us as a cluster.
    """
    if not np.logical_or.reduce(links):
        return None
    labels = np.zeros(links.size + 1, dtype=np.intp)
    np.add.accumulate(~links, dtype=np.intp, out=labels[1:])
    return labels


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """The n x n mask of the off-diagonal entries, built once per n and read-only."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def init_decomposition(pencil, path, t: float) -> EigenPoint:
    """Ordered decomposition at a path parameter, with deterministic signs.

    One pencil evaluation and one solve, signed by :func:`_anchor`: the one
    start solve of :func:`trace`, and of a :func:`trace_loop` box, at its
    start corner.

    Raises
    ------
    DegenerateStart
        If some adjacent pair's relative gap is at or below MIN_REL_GAP, the
        rule :func:`predict` applies, so every trace start can be stepped from.
    EvaluationFailed
        When the pencil's eval raises anything but a PencilError.
    """
    A, B = evaluate(pencil, *path.point(t))
    ep = gen_eig_ordered(A, B)
    return _anchor(ep.vectors, ep.values, _rel_gaps(ep.values), t, t)


def _anchor(V, lam, gaps, solved_at: float, t: float = 0.0) -> EigenPoint:
    """The point solved at path parameter solved_at as a trace start at t.

    Each column is flipped so that its largest-magnitude entry is positive.
    The signs then depend only on the solve, not on solver conventions or on
    the signs a trace gave the point, so a trace's end anchors bitwise as a
    fresh solve there: :func:`trace_loop` pays for a side's end anchor with
    these signs alone, built at t = 0 of the sides that start there.

    Raises
    ------
    DegenerateStart
        If some adjacent relative gap is at or below MIN_REL_GAP.
    """
    close = (gaps <= MIN_REL_GAP).nonzero()[0]
    if close.size:
        raise DegenerateStart(
            f"adjacent eigenvalues of pairs {tuple(int(p) + 1 for p in close)} "
            f"closer than 10*eps at t = {solved_at:.12g}"
        )
    peak = V[np.abs(V).argmax(axis=0), np.arange(lam.size)]
    return EigenPoint(t=t, V=V * np.where(peak < 0.0, -1.0, 1.0), lam=lam, gaps=gaps)


class _Expansion(NamedTuple):
    """The next point's decomposition in the current one's basis; see :func:`_expand`."""

    lam_pred: np.ndarray
    a: np.ndarray
    b: np.ndarray
    m: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray | None
    bY1: np.ndarray | None
    aY1: np.ndarray | None
    diff: np.ndarray
    outside: np.ndarray


def _project(
    state: EigenPoint, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pencil (A, B) in state's basis, for :func:`predict`: Lambda_pred,
    a = V.T A V - Lambda and b = V.T B V - I. It does not depend on the
    clusters, so one projection serves any of them."""
    V, lam = state.V, state.lam
    n = lam.size
    a = V.T @ A @ V
    b = V.T @ B @ V
    lam_pred = a.diagonal() - lam * (b.diagonal() - 1.0)
    a.ravel()[:: n + 1] -= lam
    b.ravel()[:: n + 1] -= 1.0
    return lam_pred, a, b


def _second_order(clusters: np.ndarray | None, n: int) -> bool:
    """Whether :func:`predict` adds Y2 on a step of n columns grouped by
    clusters: when at most _SECOND_ORDER_SHARE of them are clustered."""
    if clusters is None:
        return True
    # the columns that share their label, n less those of one-column labels
    return n - np.count_nonzero(np.bincount(clusters) == 1) <= _SECOND_ORDER_SHARE * n


def _expand(
    state: EigenPoint,
    projected: tuple[np.ndarray, np.ndarray, np.ndarray],
    clusters: np.ndarray | None,
    second_order: bool = True,
) -> _Expansion:
    """The terms of :func:`predict`'s expansion from state to the point
    :func:`_project` projected, for the columns grouped by clusters (a label
    per column, or None); this is the one place that forms them.

    Returns lam_pred, a, b, m = lam_pred - Lambda, Y1 and Y2 as predict's
    docstring defines them, and for :func:`_rho_estimate` the products
    bY1 = b Y1 and aY1 = a Y1, the divisor diff = lambda_i - lambda_k and
    outside, True where columns i and k are in different clusters: the
    entries where a term divides by diff. Without second_order, Y2, bY1
    and aY1 are None.
    """
    lam_pred, a, b = projected
    lam = state.lam
    n = lam.size
    outside = _off_diagonal(n) if clusters is None else clusters[:, None] != clusters
    diff = lam[:, None] - lam
    m = lam_pred - lam
    Y1 = np.divide(b * lam - a, diff, out=-0.5 * b, where=outside)
    if not second_order:
        return _Expansion(lam_pred, a, b, m, Y1, None, None, None, diff, outside)
    bY1 = b @ Y1
    aY1 = a @ Y1
    Y2 = Y1 + b
    Y2 *= m
    Y2 += bY1 * lam
    Y2 -= aY1
    Y2 = np.divide(Y2, diff, out=np.zeros((n, n)), where=outside)
    return _Expansion(lam_pred, a, b, m, Y1, Y2, bY1, aY1, diff, outside)


def predict(
    state: EigenPoint,
    A_next: np.ndarray,
    B_next: np.ndarray,
    clusters: np.ndarray | None = None,
    projected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictors for the decomposition at the next parameter value.

    With A_V = V.T A(t+h) V and B_V = V.T B(t+h) V, a = A_V - Lambda and
    b = B_V - I (V, Lambda from the current state), the predictions are

        Lambda_pred = diag(A_V) - Lambda (diag(B_V) - I),   m = Lambda_pred - Lambda,
        V_pred = V (I + Y1 + Y2),   Y1 = P + H,   P = -b/2,
        H_ik = ((lambda_i + lambda_k)/2 b_ik - a_ik) / (lambda_i - lambda_k),
        Y2_ik = ((Y1 + b)_ik m_k + lambda_k (b Y1)_ik - (a Y1)_ik) / (lambda_i - lambda_k)

    for i != k, H_ii = Y2_ii = 0; so Y1_ik = (lambda_k b_ik - a_ik) /
    (lambda_i - lambda_k) where H_ik divides, and -b_ik / 2 where H_ik = 0.
    Y1 is the Euler term, H skew-symmetric; Y2 is the next term of the
    expansion between columns. The finite differences of A and B across the
    step replace the time derivatives of the underlying first-order system.
    So the eigenvalues and the columns' normalization (the diagonal of
    V^-1 V_pred) carry O(h^2) local error, which step_control's h^2 rule
    sizes, and the error between columns is O(h^3). The diagonal's
    second-order term is left out on purpose: with it, and the eigenvalues'
    second-order term, the error would be O(h^3) everywhere and the h^2 rule
    would overshoot (on the n = 30 benchmark block of SG+ boxes, with Y2 on
    every step, rejected steps rose from 38 to 56).

    clusters, a label per column (see _clusters), also sets H_ik = Y2_ik = 0
    for i and k with one label, without dividing by their small gap: the
    prediction then follows each cluster's subspace but not the rotation
    inside it. Where more than _SECOND_ORDER_SHARE of the columns are
    clustered, Y2 is left out (V_pred = V (I + Y1)): there the clusters size
    the steps, and Y2's products cost more than the solves they save.
    projected, when given, is :func:`_project` (state, A_next, B_next),
    formed by the caller; predict then does not form it again.

    Raises
    ------
    GapTooSmall
        If some adjacent relative gap (state.gaps) is at or below
        MIN_REL_GAP; the divided differences are then meaningless.
        Only direct callers meet this: :func:`trace` starts veering traversal
        at gaps below TOLDIST, and its start has passed this test.
    """
    if state.lam.size > 1 and np.minimum.reduce(state.gaps) <= MIN_REL_GAP:
        raise GapTooSmall(f"adjacent eigenvalues closer than 10*eps at t = {state.t:.12g}")
    n = state.lam.size
    if projected is None:
        projected = _project(state, A_next, B_next)
    x = _expand(state, projected, clusters, _second_order(clusters, n))
    Y = _eye(n) + x.Y1
    if x.Y2 is not None:
        Y += x.Y2
    return x.lam_pred, state.V @ Y


def sign_correct(
    V_raw: np.ndarray, BV_pred: np.ndarray, overlaps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Choose column signs of V_raw to best match the prediction.

    BV_pred is B_next @ V_pred, which :func:`step_control` reuses. The sign
    matrix S = diag(sign(diag(V_raw.T BV_pred))) minimizes
    || S V_raw.T BV_pred - I ||_F over diagonal sign matrices. overlaps, when
    given, is that diagonal, taken from a product the caller formed. Returns
    (V_raw S, S diagonal, smallest overlap magnitude). Exact zero overlaps
    resolve to +1; :func:`trace` rejects any step whose smallest overlap is
    below AMBIGUOUS_OVERLAP.
    """
    d = np.einsum("ij,ij->j", V_raw, BV_pred) if overlaps is None else overlaps
    s = np.where(d >= 0.0, 1.0, -1.0)
    return V_raw * s, s, float(np.minimum.reduce(np.abs(d)))


def step_control(
    lam_new: np.ndarray,
    lam_pred: np.ndarray,
    V_new: np.ndarray,
    V_pred: np.ndarray,
    B_new: np.ndarray,
    BV_pred: np.ndarray,
    h: float,
    clusters: np.ndarray | None = None,
    M: np.ndarray | None = None,
) -> StepDecision:
    """Accept/reject an attempted step and propose the next stepsize.

    rho_lambda = max_i |lam_new_i - lam_pred_i| / (|lam_new_i| + 1) and
    rho_V = sqrt(tr[(V_new - V_pred).T B_new (V_new - V_pred)] / n) measure
    prediction quality; rho = max(rho_lambda, rho_V) / TOLSTEP. The step is
    accepted when rho <= RHO_ACCEPT. The predictors' error is O(h^2) in
    the eigenvalues and the columns' normalization (see :func:`predict`),
    so the new stepsize is h * STEP_SAFETY / sqrt(rho), with growth capped
    at GROWTH_CAP * h (also at rho = 0).

    Each cluster c of clusters (a label per column, as passed to
    :func:`predict`) is measured on its projector. With BV_pred = B_new @
    V_pred, the product :func:`sign_correct` used, and M = V_new.T BV_pred,
    its columns of V_new - V_pred become V_new,c M_c - V_pred,c, the
    part of V_pred,c outside the new subspace (M_c the cluster's block of
    M), and its terms of rho_lambda become one error of its eigenvalue sum,
    |sum(lam_new_c - lam_pred_c)| / (|sum(lam_new_c)| + size). A diagonal
    entry of M in a cluster column below _PAIR_DIAG_MIN (a rotation over
    about 41 degrees, which would make the column signs ambiguous) rejects
    the step with rotation_ok False and h_new at most h / 2. A caller that
    has formed M passes it, and step_control then does not form it again.
    """
    n = lam_new.size
    if clusters is None:
        lam_err = np.abs(lam_new - lam_pred) / (np.abs(lam_new) + 1.0)
        E = V_new - V_pred
        rotation_ok = True
    else:
        # per label; a label of one column gives that column's plain error
        size = np.bincount(clusters)
        lam_err = np.abs(np.bincount(clusters, lam_new - lam_pred)) / (
            np.abs(np.bincount(clusters, lam_new)) + size
        )
        clustered = size[clusters] > 1
        if M is None:
            M = V_new.T @ BV_pred
        # V_new times M on the cluster blocks and the identity elsewhere
        in_block = clusters[:, None] == clusters
        in_block &= clustered
        E = V_new @ np.where(in_block, M, _eye(n)) - V_pred
        diag_min = np.minimum.reduce(np.abs(M.diagonal()), where=clustered, initial=math.inf)
        rotation_ok = float(diag_min) >= _PAIR_DIAG_MIN
    rho_lambda = float(np.maximum.reduce(lam_err))
    rho_V = math.sqrt(max(float(np.add.reduce(E * (B_new @ E), axis=None)), 0.0) / n)
    rho = max(rho_lambda, rho_V) / TOLSTEP
    h_new = h * min(GROWTH_CAP, STEP_SAFETY / math.sqrt(max(rho, _EPS)))
    if not rotation_ok:
        h_new = min(h_new, h / 2.0)
    return StepDecision(
        rho=rho,
        h_new=h_new,
        accept=rho <= RHO_ACCEPT and rotation_ok,
        rho_lambda=rho_lambda,
        rho_V=rho_V,
        rotation_ok=rotation_ok,
    )


def _rho_estimate(state: EigenPoint, x: _Expansion, second_order: bool) -> float:
    """The rho that :func:`step_control` would give the step from state to
    the point of the expansion x (:func:`_expand` with Y2, and with the
    clusters that state's gaps link), estimated without a solve, for the
    predictor with Y2 (second_order) or without it.

    Both predictors leave out the diagonal's second-order normalization
    term; without Y2 the error between clusters is Y2, and with it the
    third-order term Y3. With m_k = a_kk - lambda_k b_kk, those are

        d_k = -(b Y1)_kk - sum_j Y1_jk^2 / 2,
        mu2_k = (a Y1)_kk - lambda_k (b Y1)_kk - (Y1_kk + b_kk) m_k,
        Y3_ik = (Y2_ik m_k + (Y1 + b)_ik mu2_k + lambda_k (b Y2)_ik
                 + m_k (b Y1)_ik - (a Y2)_ik) / (lambda_i - lambda_k)

    for i and k in different clusters, with Y2's diagonal set to d (mu2 is
    the eigenvalues' second-order term). The estimate is the eigenvector
    term of rho, ||E||_F / (sqrt(n) TOLSTEP), with E = offdiag(Y3) + diag(d)
    or offdiag(Y2) + diag(d). With Y2, its median ratio to the solved step's
    rho, on the half-side first steps of the 4x8 benchmark blocks of SG+
    boxes, is about 1.0 / 1.1 / 1.2 at n = 10 / 20 / 30.
    """
    lam = state.lam
    n = lam.size
    b_Y1 = x.bY1.diagonal()
    d = -b_Y1 - 0.5 * np.einsum("jk,jk->k", x.Y1, x.Y1)
    Y2 = x.Y2.copy()
    Y2.flat[:: n + 1] = d
    if not second_order:
        return math.sqrt(float(np.vdot(Y2, Y2)) / n) / TOLSTEP
    mu2 = x.aY1.diagonal() - lam * b_Y1 - (x.Y1.diagonal() + x.b.diagonal()) * x.m
    Y3 = np.divide(
        (Y2 + x.bY1) * x.m + (x.Y1 + x.b) * mu2 + (x.b @ Y2) * lam - x.a @ Y2,
        x.diff, out=np.diag(d), where=x.outside,
    )
    return math.sqrt(float(np.vdot(Y3, Y3)) / n) / TOLSTEP


def _rotation_estimate(state: EigenPoint, x: _Expansion) -> float:
    """The smallest cluster diagonal of M that :func:`step_control` would
    see on the step from state to the point of the expansion x, estimated
    without a solve; inf when state links no pair.

    A pair k linked at state (gaps_k < CLUSTER_GAP) is followed on its
    subspace, and the fresh eigenvectors rotate inside it by about the angle
    that diagonalizes the pair's block of C = V.T A V - lambda_bar V.T B V,
    lambda_bar = (lambda_k + lambda_k+1) / 2:

        theta = atan2(2 |C_k,k+1|, C_kk - C_k+1,k+1) / 2,

    with C formed from x as a + Lambda - lambda_bar (b + I). The estimate is
    the smallest cos(theta); below _PAIR_DIAG_MIN, step_control would reject
    the step with rotation_ok False. On the 228 half-side first steps of the
    three 4x8 benchmark blocks (n = 10, 20, 30), it foresaw 64 such
    rejections against 65, with 5 missed and 4 false alarms.
    """
    linked = state.gaps < CLUSTER_GAP
    if not np.logical_or.reduce(linked):
        return math.inf
    lam = state.lam
    mid = 0.5 * (lam[:-1] + lam[1:])
    a, b = x.a.diagonal(), x.b.diagonal()
    d = a[:-1] - a[1:] + (lam[:-1] - lam[1:]) - mid * (b[:-1] - b[1:])
    off = x.a.diagonal(1) - mid * x.b.diagonal(1)
    cos = np.cos(0.5 * np.arctan2(2.0 * np.abs(off), d))
    return float(np.minimum.reduce(cos, where=linked, initial=math.inf))


def secant_guard(
    lam_prev: np.ndarray, lam_new: np.ndarray, h: float, h_taken: float
) -> float:
    """Cap h so secant extrapolation predicts no eigenvalue-ordering violation.

    Secant slopes (lam_new - lam_prev) / h_taken extrapolate each eigenvalue
    over the candidate step h. If the extrapolated values stay ordered, h is
    returned unchanged; otherwise h is reduced to 0.9 times the earliest
    predicted crossing time gap_i / (slope_{i+1} - slope_i) over the
    violating pairs.
    """
    slopes = (lam_new - lam_prev) / h_taken
    sec = lam_new + h * slopes
    viol = sec[:-1] < sec[1:]
    if not np.logical_or.reduce(viol):
        return h
    gaps = lam_new[:-1] - lam_new[1:]
    sdiff = slopes[1:] - slopes[:-1]
    crossing = float(np.min(gaps[viol] / sdiff[viol]))
    return min(h, 0.9 * crossing)


def _step(pencil, path, t: float, h: float, pair: int = -1, at=None):
    """Evaluate and solve at t + h, the step clamped to end at t = 1.

    Returns (t_new, h_step, A, B, ep, gaps, close), close being the 0-based
    pair whose relative gap is below TOLDIST, or -1. Only the pair being
    traversed (pair; -1 outside veering) or about to be may be that close;
    any other raises TripleDegeneracy. at, when given, is the pencil's
    (A, B) at t_new, evaluated by the caller.
    """
    h_step = min(h, 1.0 - t)
    t_new = 1.0 if h_step == 1.0 - t else t + h_step
    A, B = evaluate(pencil, *path.point(t_new)) if at is None else at
    ep = gen_eig_ordered(A, B)
    gaps = _rel_gaps(ep.values)
    close = -1
    if np.minimum.reduce(gaps, initial=math.inf) < TOLDIST:
        flagged = np.flatnonzero(gaps < TOLDIST)
        close = int(flagged[0])
        if flagged.size > 1 or pair not in (-1, close):
            named = tuple(k + 1 for k in sorted({*flagged.tolist(), pair} - {-1}))
            raise TripleDegeneracy(f"pairs {named} near-degenerate together at t = {t_new:.12g}")
    return t_new, h_step, A, B, ep, gaps, close


def veering_traverse(state: EigenPoint, pencil, path, entry, h_max: float) -> _VeeringResult:
    """Advance past the veering interval that the step from state entered.

    entry, the solved step whose relative gap fell below TOLDIST, is the
    first substep, and its close pair is the one traversed. Substeps take
    fresh ordered decompositions and chain column signs by overlap with the
    previous point. The pair's eigenvectors rotate rapidly while its
    invariant subspace stays smooth, so each substep must keep the pair's
    2x2 overlap block close to orthogonal with a decisive diagonal (rotation
    under 45 degrees); the stepsize halves until that holds. Outer columns
    must overlap strongly with their predecessors. After an easy substep
    (pair diagonal above _VEER_EASY) the stepsize grows by _VEER_GROW, up to
    the predictor's cap h_max.

    The traversal ends at the first substep whose relative gap is at least
    VEERING_EXIT_FACTOR * TOLDIST; that substep's decomposition, signs
    chained by overlap, is where predictor stepping resumes. Reaching t = 1
    still inside the zone ends the traversal there; downstream signature
    checks decide whether the result is usable.

    Raises
    ------
    StepUnderflow
        If the required substep falls below H_MIN_FRAC (a coalescence sits
        on or numerically on the path).
    TripleDegeneracy
        If any other pair falls below TOLDIST during the traversal.
    """
    t_enter = t = state.t
    V_prev = state.V
    t_new, h_step, _, B_new, ep, gaps, i = entry
    h_v = h_step
    points: list[EigenPoint] = []
    outer = np.array([k for k in range(state.lam.size) if k not in (i, i + 1)], dtype=int)
    pair_block = np.ix_([i, i + 1], [i, i + 1])
    eye2 = np.eye(2)

    for substeps in range(_MAX_SUBSTEPS):
        M = V_prev.T @ B_new @ ep.vectors
        diag = M.diagonal()
        Mp = M[pair_block]
        outer_ok = outer.size == 0 or float(np.abs(diag[outer]).min()) >= _OUTER_DIAG_MIN
        pair_diag = float(np.abs(Mp.diagonal()).min())
        pair_ok = (
            pair_diag >= _PAIR_DIAG_MIN
            and float(np.linalg.norm(Mp.T @ Mp - eye2)) <= _PAIR_ORTHO_TOL
        )
        if not (outer_ok and pair_ok):
            h_v = h_step / 2.0
            if h_v < H_MIN_FRAC:
                raise StepUnderflow(
                    f"eigenvector rotation unresolvable near t = {t:.12g} "
                    f"(substep {h_v:.3e} below floor {H_MIN_FRAC:.3e})"
                )
        else:
            t, B_prev = t_new, B_new
            V_prev = ep.vectors * np.where(diag >= 0.0, 1.0, -1.0)
            points.append(
                EigenPoint(t=t, V=V_prev, lam=ep.values, h=h_step, veering=True, gaps=gaps)
            )
            if gaps[i] >= VEERING_EXIT_FACTOR * TOLDIST or t >= 1.0:
                break
            if pair_diag > _VEER_EASY:
                h_v = min(h_v * _VEER_GROW, h_max)
        t_new, h_step, _, B_new, ep, gaps, _ = _step(pencil, path, t, h_v, i)
    else:
        raise StepUnderflow(
            f"veering zone starting at t = {t_enter:.12g} did not resolve "
            f"within {_MAX_SUBSTEPS} substeps"
        )

    return _VeeringResult((t_enter, t, i + 1), points, substeps, B_prev)


def trace(pencil, path) -> TraceResult:
    """Smooth ordered eigendecomposition of a pencil along a path, t = 0 -> 1.

    Predictor-corrector stepping with sign correction and adaptive stepsize;
    pairs with relative gap below CLUSTER_GAP at either end of a step are
    stepped as clusters (see :func:`predict` and :func:`step_control`), and
    veering intervals are detected at the candidate point (relative gap below
    TOLDIST) and delegated to :func:`veering_traverse`. Every step is at
    most H_MAX_FRAC, and the first step is H_MAX_FRAC unless the probe
    shortens it: before the first solve the pencil is evaluated at the first
    step's end, unsolved, and the step is shortened where it foresees either
    cause of a rejection by :func:`step_control`, as that rejection would
    shorten it: a rho over RHO_ACCEPT (:func:`_rho_estimate`) to
    h * STEP_SAFETY / sqrt(rho), and a cluster rotation past _PAIR_DIAG_MIN
    (:func:`_rotation_estimate`) to at most H_MAX_FRAC / 2. A first step
    that the probe keeps solves the probe's pencil and predicts from its
    projection (:func:`_project`); one that it shortens evaluates again, so
    that trace evaluates the pencil once more than it solves. The steps are
    still judged by :func:`step_control`. This is the one source of
    decompositions along a path, open or closed; :func:`trace_loop` gives a
    closed loop's signature, and traces a box, which is no path, as its four
    sides.

    step_stats counts eigensolves (the start, every predictor step and every
    veering substep), accepted predictor and veering steps (accepted), the
    accepted steps that stepped a cluster (clustered), the accepted steps
    whose next stepsize secant_guard shortened (secant_caps), rejected
    steps (rejected) split by cause into an ambiguous sign overlap
    (rejected_ambiguous), a cluster rotation over the cap
    (rejected_rotation) and a prediction error over budget (rejected_rho),
    and veering events.

    Raises
    ------
    DegenerateStart, StepUnderflow, TripleDegeneracy
        Propagated from the starting decomposition and the stepping modes.
    NotPositiveDefinite, NonFiniteInput
        Propagated from the eigensolve at any evaluated point.
    EvaluationFailed
        When the pencil's eval raises anything but a PencilError.
    """
    result, _ = _trace(pencil, path, init_decomposition(pencil, path, 0.0), H_MAX_FRAC)
    result.step_stats["eigensolves"] += 1  # the start
    return result


def _trace(pencil, path, start: EigenPoint, h_max: float) -> tuple[TraceResult, np.ndarray]:
    """:func:`trace` from a solved start at t = 0, with stepsize cap h_max,
    which is also the first step before the probe; also returns B at the
    last point. The probe reads the start and the path alone.

    step_stats["eigensolves"] counts the steps' solves only, not the start's.
    """
    state, h = start, h_max
    # the pencil at the first step's end, unsolved, shortens a step that it
    # expects rejected, as the rejection would; an unusable estimate keeps h
    probe = evaluate(pencil, *path.point(state.t + h))
    projected = _project(state, *probe)
    clusters = _clusters(state.gaps < CLUSTER_GAP)
    x = _expand(state, projected, clusters)
    rho = _rho_estimate(state, x, _second_order(clusters, state.lam.size))
    if RHO_ACCEPT < rho < math.inf:
        h *= STEP_SAFETY / math.sqrt(rho)
    if _rotation_estimate(state, x) < _PAIR_DIAG_MIN:
        h = min(h, h_max / 2.0)
    # a first step the probe kept ends where the probe evaluated and projected
    if h != h_max:
        probe = projected = None
    points = [state]
    events: list[tuple[float, float, int]] = []
    eigensolves = clustered = secant_caps = by_rho = ambiguous = rotation = 0

    while state.t < 1.0:
        solved = _step(pencil, path, state.t, h, at=probe)
        eigensolves += 1
        t_next, h_try, A_next, B_next, ep, gaps, close = solved
        reused, probe, projected = projected, None, None
        if close >= 0:
            vr = veering_traverse(state, pencil, path, solved, h_max)
            eigensolves += vr.substeps
            events.append(vr.event)
            points.extend(vr.points)
            state, B_state = points[-1], vr.B
            h = h_try  # the stepsize at which the veering zone was entered
            continue
        # fmin, not minimum: a NaN gap at one end must not hide the other end's link
        clusters = _clusters(np.fmin(state.gaps, gaps) < CLUSTER_GAP)
        lam_pred, V_pred = predict(state, A_next, B_next, clusters, reused)
        BV_pred = B_next @ V_pred
        if clusters is None:
            V_corr, _, min_overlap = sign_correct(ep.vectors, BV_pred)
            M = None
        else:
            # one product for both: a sign scaling of its rows is exact, so
            # s M is bitwise V_corr.T BV_pred
            M = ep.vectors.T @ BV_pred
            V_corr, s, min_overlap = sign_correct(ep.vectors, BV_pred, M.diagonal())
            M = s[:, None] * M
        dec = step_control(
            ep.values, lam_pred, V_corr, V_pred, B_next, BV_pred, h_try, clusters, M
        )
        if dec.accept and min_overlap >= AMBIGUOUS_OVERLAP:
            h_cap = min(dec.h_new, h_max)
            h = secant_guard(state.lam, ep.values, h_cap, h_taken=h_try)
            secant_caps += h < h_cap
            state = EigenPoint(
                t=t_next, V=V_corr, lam=ep.values, h=h_try,
                rho_lambda=dec.rho_lambda, rho_V=dec.rho_V, gaps=gaps,
            )
            B_state = B_next
            points.append(state)
            clustered += clusters is not None
        else:
            h = dec.h_new
            if min_overlap < AMBIGUOUS_OVERLAP:
                h = min(h, h_try / 2.0)
                ambiguous += 1
            elif dec.rotation_ok:
                by_rho += 1
            else:
                rotation += 1
        if h < H_MIN_FRAC and state.t < 1.0:
            raise StepUnderflow(
                f"stepsize {h:.3e} below floor {H_MIN_FRAC:.3e} at t = {state.t:.12g}"
            )

    stats = {
        "eigensolves": eigensolves,
        "accepted": len(points) - 1,
        "rejected": by_rho + ambiguous + rotation,
        "veering_events": len(events),
        "clustered": clustered,
        "secant_caps": secant_caps,
        "rejected_rho": by_rho,
        "rejected_ambiguous": ambiguous,
        "rejected_rotation": rotation,
    }
    return TraceResult(points=points, veering_events=events, step_stats=stats), B_state


def _pieces(loop) -> list[tuple]:
    """The (path, start corner, end corner) pieces a closed loop is traced as, in order.

    A box is its four sides, each a segment in the +x or +y direction from
    its lower-left end: bottom and left from the box's start corner 0, then
    right and top from corners 1 and 3, where bottom and left end. Any other
    loop is one piece, from its corner 0 back to it. Every piece is a trace
    whose cap, and first step before the probe, is the loop's H_MAX_FRAC in
    units of the piece; the probe reads only the start anchor and the path,
    so a side's trace depends only on its two ends.
    """
    if not isinstance(loop, BoxPerimeter):
        return [(loop, 0, 0)]
    corners = ((loop.x0, loop.y0), (loop.x1, loop.y0), (loop.x1, loop.y1), (loop.x0, loop.y1))
    # (start, end): bottom, left, right, top
    return [(segment(corners[a], corners[b]), a, b) for a, b in ((0, 1), (0, 3), (1, 2), (3, 2))]


def _piece_signs(anchor: EigenPoint, B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The diagonal of anchor.V.T B V, for a piece that reached anchor's point with V.

    Raises LoopUnresolvable unless the diagonal is within SIGNATURE_TOL of
    +-1 and the off-diagonal within SIGNATURE_TOL of 0.
    """
    M = anchor.V.T @ B @ V
    d = M.diagonal().copy()
    M.flat[:: d.size + 1] = 0.0
    off = float(np.maximum.reduce(np.abs(M), axis=None))
    diag_err = float(np.maximum.reduce(np.abs(np.abs(d) - 1.0)))
    if diag_err > SIGNATURE_TOL or off > SIGNATURE_TOL:
        raise LoopUnresolvable(
            f"signature not clean: diagonal within {diag_err:.3e} of +-1, "
            f"off-diagonal magnitude {off:.3e} (tolerance {SIGNATURE_TOL})"
        )
    return d


def trace_loop(pencil, loop, sides: dict | None = None, traces: dict | None = None) -> LoopResult:
    """Trace a closed loop piece by piece and extract the sign signature D.

    The loop is traced as the open paths of :func:`_pieces`: a box
    perimeter as its four sides, each in the +x or +y direction, any other
    closed loop as one piece from its start back to it. Every piece is
    traced by one rule: its first step is its cap, 1/8 of the loop (half a
    box side), shortened only where the probe of :func:`trace` estimates a
    rejection. Each piece's sign vector is the diagonal of V_a.T B V, with V
    the traced basis at the piece's end and V_a, B the canonically signed
    anchor there; its entries must sit within SIGNATURE_TOL of +-1
    (off-diagonal entries of 0). The loop's signature_raw is the product of
    its pieces' diagonals, and D, the product of their rounded signs, gives
    V(1) = V(0) diag(D) around the loop; it must have an even number of -1.

    sides, shared by the loops of a grid, maps each piece's path to its
    diagonal or, if it failed, to the cause; a piece found there is not
    traced again, and a failed one fails this loop with the same cause. A
    side's sign vector depends only on its two ends, so sharing changes no
    D. A box pays for one start solve (:func:`init_decomposition`) at its
    start corner, and for each side not in sides one probe, one trace, one
    end anchor (the trace's last solve, signed by :func:`_anchor`: bitwise a
    fresh solve there, and the start of the sides that go on from there)
    and one sign check (:func:`_piece_signs`). A corner that no traced side
    reaches is solved instead.

    traces, when given, maps the path of each piece this call traced to the
    piece's TraceResult (:func:`trace` gives the decompositions along a
    path; a loop of one piece maps to its result, less the start's solve).
    step_stats (see :func:`trace`) sum those pieces' counts and the call's
    start solves.

    Raises
    ------
    LoopUnresolvable
        On any PencilError inside a piece (the message starts with its class
        name, and for a box side ends with the side), when a sign vector
        fails the cleanliness checks, or when D has an odd count of -1.
    """
    if not getattr(loop, "closed", False):
        raise ValueError("trace_loop requires a closed path")
    if sides is None:
        sides = {}
    pieces = _pieces(loop)
    h_max = len(pieces) * H_MAX_FRAC
    anchors: list[EigenPoint | None] = [None] * 4  # by corner index
    stats = {"eigensolves": 0}
    d = 1.0
    for path, a, b in pieces:
        found = sides.get(path)
        if found is None:
            try:
                start = anchors[a]
                if start is None:
                    start = anchors[a] = init_decomposition(pencil, path, 0.0)
                    stats["eigensolves"] += 1
                tr, B = _trace(pencil, path, start, h_max)
                end = tr.points[-1]
                anchors[b] = _anchor(end.V, end.lam, end.gaps, end.t)
                found = _piece_signs(anchors[b], B, end.V)
            except PencilError as exc:
                name = "" if isinstance(exc, LoopUnresolvable) else f"{type(exc).__name__}: "
                found = f"{name}{exc}{_where(path, loop)}"
            else:
                for key, count in tr.step_stats.items():
                    stats[key] = stats.get(key, 0) + count
                if traces is not None:
                    traces[path] = tr
            sides[path] = found
        if isinstance(found, str):
            raise LoopUnresolvable(found)
        d = d * found
    D = np.where(d > 0.0, 1, -1)
    if np.count_nonzero(D < 0) % 2:
        raise LoopUnresolvable("signature has an odd number of -1 entries")
    return LoopResult(D=D, signature_raw=d, step_stats=stats)


def _where(path, loop) -> str:
    """The side a cause happened on; empty for a loop traced as one piece."""
    if path is loop:
        return ""
    return f" on the side ({path.x0:.12g}, {path.y0:.12g}) -> ({path.x1:.12g}, {path.y1:.12g})"


def write_trace_csv(pieces: list[TraceResult], path) -> None:
    """One row per accepted step of a path's piece traces, in order: piece,
    t, h, eigenvalues, rho values, veering flag. A piece's t runs from 0 to 1
    and its start point has no row; a box's pieces are its sides in
    :func:`_pieces` order, a circle or a segment is the one piece 0."""
    n = pieces[0].points[0].lam.size
    lams = (f"lambda_{k + 1}" for k in range(n))
    write_csv(path, ["piece", "t", "h", *lams, "rho_lambda", "rho_V", "veering"], (
        [i, p.t, p.h, *p.lam, p.rho_lambda, p.rho_V, int(p.veering)]
        for i, piece in enumerate(pieces) for p in piece.points[1:]
    ))
