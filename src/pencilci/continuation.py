"""Smooth ordered eigendecomposition along a 1-D parameter path.

Predictor-corrector continuation for symmetric-definite pencils (A(t), B(t)):
Euler predictors for eigenvalues and B-orthonormal eigenvectors, per-column
sign correction against the prediction, stepsize control driven by prediction
errors, a secant guard against imminent ordering violations, and a dedicated
traversal mode for veering intervals where two eigenvalues nearly coalesce
and their eigenvectors rotate rapidly.

Eigenvectors lose smoothness where eigenvalues come close, while the
projectors onto their joint invariant subspaces stay smooth. Adjacent
eigenvalues whose relative gap is below CLUSTER_GAP = 3e-2 (at the current
point or at the solved candidate) form a cluster, which a step follows on its
projector: the predictor leaves out the in-cluster rotation, step control
measures the cluster's subspace and eigenvalue sum instead of its single
columns, and the fresh eigenvectors, signed by overlap, may rotate inside the
cluster by up to about 41 degrees per step. A step with no cluster is the
plain column-wise step. 3e-2 is the largest gap scanned at which the steps
of n = 30 SG+ loops stay sized by their error estimate; above it clusters
grow and the stepsize cap H_MAX_FRAC becomes the step rule (scanned with
H_MAX_FRAC = 1/16).

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
from .pencil import BoxPerimeter, Path, evaluate, segment

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
# The predictors' local error grows as h^2: a step of h_new would have rho
# near rho * (h_new/h)^2, so the next step h * STEP_SAFETY / sqrt(rho) aims
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
    """The n x n mask of off-diagonal entries, built once per n and read-only."""
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


def predict(
    state: EigenPoint,
    A_next: np.ndarray,
    B_next: np.ndarray,
    clusters: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler predictors for the decomposition at the next parameter value.

    With A_V = V.T A(t+h) V and B_V = V.T B(t+h) V (V, Lambda from the
    current state), the predictions are

        Lambda_pred = diag(A_V) - Lambda (diag(B_V) - I),
        V_pred = V (I + P + H),   P = (I - B_V)/2,
        H_ik = ((lambda_i + lambda_k)/2 B_V[i,k] - A_V[i,k]) / (lambda_i - lambda_k)

    for i != k, H_ii = 0. H is skew-symmetric; the finite differences of A
    and B across the step replace the time derivatives of the underlying
    first-order system, so both predictions carry O(h^2) local error.

    clusters, a label per column (see _clusters), also sets H_ik = 0 for i
    and k with one label, without dividing by their small gap: the
    prediction then follows each cluster's subspace but not the rotation
    inside it.

    Raises
    ------
    GapTooSmall
        If some adjacent relative gap (state.gaps) is at or below
        MIN_REL_GAP; the divided differences in H are then meaningless.
        Only direct callers meet this: :func:`trace` starts veering traversal
        at gaps below TOLDIST, and its start has passed this test.
    """
    V = state.V
    lam = state.lam
    n = lam.size
    if n > 1 and np.minimum.reduce(state.gaps) <= MIN_REL_GAP:
        raise GapTooSmall(f"adjacent eigenvalues closer than 10*eps at t = {state.t:.12g}")
    A_V = V.T @ A_next @ V
    A_V = 0.5 * (A_V + A_V.T)
    B_V = V.T @ B_next @ V
    B_V = 0.5 * (B_V + B_V.T)
    lam_pred = A_V.diagonal() - lam * (B_V.diagonal() - 1.0)
    eye = _eye(n)
    col = lam[:, None]
    # H is zero on the diagonal and inside clusters, the divided difference elsewhere
    outside = _off_diagonal(n) if clusters is None else clusters[:, None] != clusters
    H = np.divide(
        0.5 * (col + lam) * B_V - A_V, col - lam, out=np.zeros((n, n)), where=outside
    )
    V_pred = V @ (eye + 0.5 * (eye - B_V) + H)
    return lam_pred, V_pred


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
    accepted when rho <= RHO_ACCEPT. Both predictors carry O(h^2) local
    error, so the new stepsize is h * STEP_SAFETY / sqrt(rho), with growth
    capped at GROWTH_CAP * h (also at rho = 0).

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


def _rho_estimate(state: EigenPoint, A: np.ndarray, B: np.ndarray) -> float:
    """The rho that :func:`step_control` would give the step from state to
    the point where the pencil is (A, B), estimated without a solve.

    In state's basis, a = V.T A V - Lambda and b = V.T B V - I. The solved
    basis there is V (I + Y1 + Y2 + ...), and Y1, as :func:`predict` takes
    it (P + H), is (lambda_k b_ik - a_ik) / (lambda_i - lambda_k) for i and
    k in different clusters of state (CLUSTER_GAP) and -b_ik / 2 elsewhere.
    The predictor's error is then mostly the second-order term

        Y2_ik = ((Y1_ik + b_ik) m_k + lambda_k (b Y1)_ik - (a Y1)_ik) / (lambda_i - lambda_k),
        m_k = a_kk - lambda_k b_kk,

    for i and k in different clusters, 0 elsewhere; the estimate is
    ||Y2||_F / (sqrt(n) TOLSTEP), the eigenvector term of rho. Its ratio to
    the solved step's rho has a median near 1 on the first steps of SG+ box
    sides (n = 10-30).
    """
    V, lam = state.V, state.lam
    n = lam.size
    a = V.T @ A @ V
    a.flat[:: n + 1] -= lam
    b = V.T @ B @ V
    b.flat[:: n + 1] -= 1.0
    clusters = _clusters(state.gaps < CLUSTER_GAP)
    outside = _off_diagonal(n) if clusters is None else clusters[:, None] != clusters
    diff = lam[:, None] - lam
    Y1 = np.divide(lam * b - a, diff, out=-0.5 * b, where=outside)
    m = a.diagonal() - lam * b.diagonal()
    Y2 = np.divide(
        (Y1 + b) * m + b @ (Y1 * lam) - a @ Y1, diff, out=np.zeros((n, n)), where=outside
    )
    return math.sqrt(float(np.vdot(Y2, Y2)) / n) / TOLSTEP


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


def _step(pencil, path, t: float, h: float, pair: int = -1):
    """Evaluate and solve at t + h, the step clamped to end at t = 1.

    Returns (t_new, h_step, A, B, ep, gaps, close), close being the 0-based
    pair whose relative gap is below TOLDIST, or -1. Only the pair being
    traversed (pair; -1 outside veering) or about to be may be that close;
    any other raises TripleDegeneracy.
    """
    h_step = min(h, 1.0 - t)
    t_new = 1.0 if h_step == 1.0 - t else t + h_step
    A, B = evaluate(pencil, *path.point(t_new))
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
    step's end, unsolved, and a step whose estimated rho
    (:func:`_rho_estimate`) is over RHO_ACCEPT is shortened to
    h * STEP_SAFETY / sqrt(rho), as a rejection would shorten it; so a trace
    evaluates the pencil once more than it solves, and the steps are still
    judged by :func:`step_control`. This is the one source of decompositions
    along a path, open or closed; :func:`trace_loop` gives a closed path's
    signature.

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
    # the pencil at the first step's end, unsolved, shortens a step whose
    # estimated rho would reject it; an unusable estimate keeps h
    rho = _rho_estimate(state, *evaluate(pencil, *path.point(state.t + h)))
    if RHO_ACCEPT < rho < math.inf:
        h *= STEP_SAFETY / math.sqrt(rho)
    points = [state]
    events: list[tuple[float, float, int]] = []
    eigensolves = clustered = secant_caps = by_rho = ambiguous = rotation = 0

    while state.t < 1.0:
        solved = _step(pencil, path, state.t, h)
        eigensolves += 1
        t_next, h_try, A_next, B_next, ep, gaps, close = solved
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
        lam_pred, V_pred = predict(state, A_next, B_next, clusters)
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


def _pieces(loop) -> list[tuple[Path, int, int]]:
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


def _where(path: Path, loop) -> str:
    """The side a cause happened on; empty for a loop traced as one piece."""
    if path is loop:
        return ""
    return f" on the side ({path.x0:.12g}, {path.y0:.12g}) -> ({path.x1:.12g}, {path.y1:.12g})"


def write_trace_csv(result: TraceResult, path) -> None:
    """One row per accepted step of a :func:`trace`, in order of t: t, h,
    eigenvalues, rho values, veering flag. The start point has no row."""
    n = result.points[0].lam.size
    header = ["t", "h", *(f"lambda_{k + 1}" for k in range(n)), "rho_lambda", "rho_V", "veering"]
    write_csv(path, header, (
        [p.t, p.h, *p.lam, p.rho_lambda, p.rho_V, int(p.veering)] for p in result.points[1:]
    ))
