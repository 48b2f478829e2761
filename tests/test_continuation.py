import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pencilci.continuation as continuation
import pencilci.detect as detect
from pencilci.continuation import (
    EigenPoint,
    init_decomposition,
    predict,
    secant_guard,
    sign_correct,
    step_control,
    trace,
    trace_loop,
    write_trace_csv,
)
from pencilci.detect import GridSpec, sweep_grid
from pencilci.errors import DegenerateStart, GapTooSmall, LoopUnresolvable, TripleDegeneracy
from pencilci.linalg import gen_eig_ordered
from pencilci.pencil import (
    BoxPerimeter,
    ParametricPencil,
    Path,
    analytic_ci_pencil,
    circle,
    embed_2x2,
    segment,
    sgplus_generate,
    sgplus_pencil,
)

from conftest import rand_spd
from oracles import symmetrize


def _sg_pencil(n=6, seed=2024):
    return sgplus_pencil(sgplus_generate(n, n - 1, 0.45, seed))


class ClosedCurve(Path):
    closed = True

    def __init__(self, fn):
        self.point = fn


def test_init_decomposition_canonical_signs():
    pen = _sg_pencil()
    path = segment((0.3, 0.9), (1.1, 1.7))
    st1 = init_decomposition(pen, path, 0.0)
    st2 = init_decomposition(pen, path, 0.0)
    assert np.array_equal(st1.V, st2.V)
    # largest-magnitude entry of each column is positive
    idx = np.argmax(np.abs(st1.V), axis=0)
    assert np.all(st1.V[idx, np.arange(st1.V.shape[1])] > 0)
    x, y = path.point(0.0)
    A, B = pen.eval(x, y)
    assert np.allclose(st1.V.T @ B @ st1.V, np.eye(pen.n), atol=1e-12)


def test_init_decomposition_degenerate_start():
    pen = analytic_ci_pencil(0.0)
    # exactly on the intersection (a double zero eigenvalue), and 1e-16 off
    # it, where the gap is tiny but not zero and predict would refuse to step
    for x0 in (0.0, 1e-16):
        with pytest.raises(DegenerateStart):
            init_decomposition(pen, segment((x0, 0.0), (1.0, 0.0)), 0.0)


def test_predict_local_orders():
    # eigenvalue and eigenvector predictors are both locally second order
    pen = _sg_pencil()
    path = segment((0.3, 0.9), (1.1, 1.7))
    state = init_decomposition(pen, path, 0.2)
    lam_errs, vec_errs = [], []
    for k in range(4):
        h = 0.04 / 2**k
        x, y = path.point(0.2 + h)
        A, B = pen.eval(x, y)
        lam_pred, V_pred = predict(state, A, B)
        ref = gen_eig_ordered(A, B)
        V_ref, _, _ = sign_correct(ref.vectors, B @ V_pred)
        lam_errs.append(np.linalg.norm(lam_pred - ref.values))
        vec_errs.append(np.linalg.norm(V_pred - V_ref))
    for errs in (lam_errs, vec_errs):
        for a, b in zip(errs, errs[1:]):
            assert 3.0 <= a / b <= 5.0


def _documented_predict(state, A_next, B_next, clusters=None):
    """predict's docstring formula, one numpy step at a time."""
    V, lam = state.V, state.lam
    n = lam.size
    A_V = symmetrize(V.T @ A_next @ V)
    B_V = symmetrize(V.T @ B_next @ V)
    lam_pred = np.diag(A_V) - lam * (np.diag(B_V) - 1.0)
    P = 0.5 * (np.eye(n) - B_V)
    denom = np.subtract.outer(lam, lam)
    np.fill_diagonal(denom, 1.0)
    H = (0.5 * np.add.outer(lam, lam) * B_V - A_V) / denom
    np.fill_diagonal(H, 0.0)
    if clusters is not None:
        for label in np.unique(clusters):
            inside = np.flatnonzero(clusters == label)
            H[np.ix_(inside, inside)] = 0.0
    return lam_pred, V @ (np.eye(n) + P + H)


def _split_labels(n):
    """Columns 1..2 and 4..6 clustered, every other column alone."""
    return np.array([0, 1, 1, 2, 3, 3, 3] + list(range(4, n - 3)))


@pytest.mark.parametrize(
    "n, labels",
    [
        pytest.param(10, None, id="10"),
        pytest.param(30, None, id="30"),
        pytest.param(10, _split_labels, id="10-clusters"),
        pytest.param(30, _split_labels, id="30-clusters"),
    ],
)
def test_predict_is_bitwise_the_documented_formula(n, labels):
    pen = _sg_pencil(n)
    path = segment((0.3, 0.9), (1.1, 1.7))
    state = init_decomposition(pen, path, 0.2)
    clusters = None if labels is None else labels(n)
    for h in (0.05, 0.01):
        A, B = pen.eval(*path.point(0.2 + h))
        lam_pred, V_pred = predict(state, A, B, clusters)
        lam_ref, V_ref = _documented_predict(state, A, B, clusters)
        assert np.array_equal(lam_pred, lam_ref) and np.array_equal(V_pred, V_ref)


def test_predict_drops_only_the_in_cluster_rotation():
    # clusters zero H inside each cluster and leave every other entry of the
    # documented formula as it was
    pen = _sg_pencil(8)
    path = segment((0.3, 0.9), (1.1, 1.7))
    state = init_decomposition(pen, path, 0.2)
    A, B = pen.eval(*path.point(0.25))
    lam_ref, V_ref = predict(state, A, B)
    clusters = np.array([0, 1, 1, 2, 3, 3, 3, 4])  # columns 1..2 and 4..6
    lam_pred, V_pred = predict(state, A, B, clusters)
    assert np.array_equal(lam_pred, lam_ref)
    # V_pred = V (I + P + H), so V^-1 (V_ref - V_pred) is the part of H dropped
    dropped = np.linalg.solve(state.V, V_ref - V_pred)
    inside = np.zeros((8, 8), dtype=bool)
    for a, b in ((1, 3), (4, 7)):
        inside[a:b, a:b] = True
    np.fill_diagonal(inside, False)
    assert np.abs(dropped[~inside]).max() <= 1e-12
    assert np.abs(dropped[inside]).min() > 1e-8
    assert np.allclose(dropped, -dropped.T, atol=1e-12)


def test_clusters_are_maximal_runs_of_linked_pairs():
    # pair k couples columns k and k + 1; columns that share a label are a
    # cluster: here columns 1..3 and 4..5
    links = np.array([False, True, True, False, True, False, False])
    assert continuation._clusters(links).tolist() == [0, 1, 1, 1, 2, 2, 3, 4]
    assert continuation._clusters(np.zeros(4, dtype=bool)) is None


def test_predict_rejects_tiny_gap():
    lam = np.array([1.0, 1.0 - 1e-16])
    state = EigenPoint(t=0.0, V=np.eye(2), lam=lam, gaps=continuation._rel_gaps(lam))
    with pytest.raises(GapTooSmall):
        predict(state, np.eye(2), np.eye(2))


@given(st.integers(0, 2**32 - 1))
def test_sign_correct_recovers_flips(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    B = rand_spd(rng, n)
    ep = gen_eig_ordered(np.diag(np.arange(n, dtype=float)), B)
    signs = rng.choice([-1.0, 1.0], size=n)
    V_pred = ep.vectors * signs + 1e-6 * rng.standard_normal((n, n))
    V_corr, s, overlap = sign_correct(ep.vectors, B @ V_pred)
    assert np.array_equal(s, signs)
    assert overlap > 0.9
    assert np.allclose(V_corr, ep.vectors * signs)


def test_sign_correct_zero_overlap_resolves_positive():
    B = np.eye(2)
    V_raw = np.eye(2)
    V_pred = np.array([[0.0, 1.0], [1.0, 0.0]])  # orthogonal to V_raw columns
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the caller rejects on the overlap; no warning
        _, s, overlap = sign_correct(V_raw, B @ V_pred)
    assert overlap == 0.0
    assert np.all(s == 1.0)  # zero overlap resolves to +1


def test_step_control_worked_example():
    # prediction off by 0.03 against budget 0.01 gives rho 3: reject; the
    # error grows as h^2, so retry at 0.9 h / sqrt(3)
    lam_new = np.array([0.0])
    lam_pred = np.array([0.03])
    V = np.eye(1)
    dec = step_control(lam_new, lam_pred, V, V, np.eye(1), V, h=1.0)
    assert dec.rho == pytest.approx(3.0)
    assert not dec.accept
    assert dec.h_new == pytest.approx(0.9 / math.sqrt(3.0))
    assert dec.rho_lambda == pytest.approx(0.03)
    assert dec.rho_V == 0.0


def test_step_control_growth_cap():
    lam = np.array([1.0, -1.0])
    V = np.eye(2)
    dec = step_control(lam, lam, V, V, np.eye(2), V, h=0.1)
    assert dec.accept
    # an exact prediction grows h by the growth cap
    assert dec.h_new == pytest.approx(0.1 * continuation.GROWTH_CAP)


@pytest.mark.parametrize(
    "err, factor",
    [
        (0.0025, 1.8),  # rho 0.25: 0.9 / sqrt(0.25)
        (0.0, continuation.GROWTH_CAP),  # rho 0: the growth cap, no division by zero
        (0.015, 0.9 / math.sqrt(1.5)),  # rho 1.5: accepted at the limit, h shrinks
    ],
)
def test_step_control_sizes_for_h_squared_error(err, factor):
    lam_new = np.array([0.0])
    lam_pred = np.array([err])
    V = np.eye(1)
    dec = step_control(lam_new, lam_pred, V, V, np.eye(1), V, h=0.1)
    assert dec.rho == pytest.approx(err / 0.01)
    assert dec.accept
    assert dec.h_new == pytest.approx(0.1 * factor)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_step_control_on_a_cluster_measures_its_subspace():
    # V_new rotates V_pred by 30 degrees inside the cluster of columns 0 and
    # 1: column by column that is a large error, but the subspace is the
    # same, and the cluster's eigenvalue sum is exact although its single
    # values are not
    V_pred = np.eye(3)
    V_new = np.eye(3)
    V_new[:2, :2] = _rotation(math.radians(30.0))
    lam_new = np.array([1.0, 0.99, -2.0])
    lam_pred = np.array([1.02, 0.97, -2.0])
    plain = step_control(lam_new, lam_pred, V_new, V_pred, np.eye(3), V_pred, h=0.1)
    assert not plain.accept and plain.rotation_ok
    dec = step_control(
        lam_new, lam_pred, V_new, V_pred, np.eye(3), V_pred, h=0.1, clusters=np.array([0, 0, 1])
    )
    assert dec.accept and dec.rotation_ok
    assert dec.rho_V <= 1e-15 and dec.rho_lambda <= 1e-15
    assert dec.h_new == pytest.approx(0.1 * continuation.GROWTH_CAP)


def test_step_control_caps_the_in_cluster_rotation():
    # 45 degrees puts the overlap diagonal at 0.707, under the 0.75 bound:
    # reject whatever rho says, and at least halve the step
    V_pred = np.eye(3)
    V_new = np.eye(3)
    V_new[1:, 1:] = _rotation(math.radians(45.0))
    lam = np.array([3.0, 1.0, 0.995])
    dec = step_control(
        lam, lam, V_new, V_pred, np.eye(3), V_pred, h=0.1, clusters=np.array([0, 1, 1])
    )
    assert dec.rho <= 1e-12
    assert not dec.accept and not dec.rotation_ok
    assert dec.h_new <= 0.05
    # 40 degrees (diagonal 0.766) passes
    V_new[1:, 1:] = _rotation(math.radians(40.0))
    dec = step_control(
        lam, lam, V_new, V_pred, np.eye(3), V_pred, h=0.1, clusters=np.array([0, 1, 1])
    )
    assert dec.accept and dec.rotation_ok


def test_secant_guard_worked_example():
    # gap 1, secant slopes -1 and +1, candidate h=1: crossing at 1/2, keep 0.45
    lam_prev = np.array([2.0, -1.0])
    lam_new = np.array([1.0, 0.0])
    assert secant_guard(lam_prev, lam_new, 1.0, h_taken=1.0) == pytest.approx(0.45)


def test_secant_guard_no_violation():
    lam_prev = np.array([1.0, 0.0])
    lam_new = np.array([2.0, -1.0])  # diverging eigenvalues
    assert secant_guard(lam_prev, lam_new, 5.0, h_taken=1.0) == 5.0


@given(st.integers(0, 2**32 - 1))
def test_secant_guard_never_grows(seed):
    rng = np.random.default_rng(seed)
    lam_new = np.sort(rng.standard_normal(5))[::-1]
    lam_prev = np.sort(lam_new + 0.5 * rng.standard_normal(5))[::-1]
    h = float(rng.uniform(0.01, 2.0))
    assert secant_guard(lam_prev, lam_new, h, h_taken=0.3) <= h


def test_trace_invariants_and_determinism():
    pen = analytic_ci_pencil(0.0)
    loop = circle(0.0, 0.0, 1.0)
    res = trace(pen, loop)
    ts = [p.t for p in res.points]
    assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0
    det_signs = set()
    for p in res.points:
        x, y = loop.point(p.t)
        A, B = pen.eval(x, y)
        assert np.linalg.norm(p.V.T @ B @ p.V - np.eye(2)) <= 1e-9
        assert np.linalg.norm(A @ p.V - B @ p.V @ np.diag(p.lam)) <= 1e-9
        det_signs.add(np.sign(np.linalg.det(p.V)))
    assert len(det_signs) == 1
    res2 = trace(pen, loop)
    assert all(
        np.array_equal(p.lam, q.lam) and np.array_equal(p.V, q.V)
        for p, q in zip(res.points, res2.points)
    )


@pytest.mark.parametrize(
    "rho, factor",
    [
        (6.0, 0.9 / math.sqrt(6.0)),  # a rejection's retry, without the rejected solve
        (1.5, 1.0),  # accepted at the limit: h stays
        (0.01, 1.0),  # the probe never lengthens h
        (math.inf, 1.0),
        (math.nan, 1.0),
    ],
)
def test_probe_shortens_a_first_step_it_expects_rejected(monkeypatch, rho, factor):
    steps = []
    step = continuation._step

    def recording_step(pencil, path, t, h, *args):
        steps.append(h)
        return step(pencil, path, t, h, *args)

    monkeypatch.setattr(continuation, "_rho_estimate", lambda state, A, B: rho)
    monkeypatch.setattr(continuation, "_step", recording_step)
    # a trace's first step is its cap: 1/8 of a free path, half a box side
    trace(_sg_pencil(), segment((0.0, 0.0), (1.0, 1.0)))
    assert steps[0] == pytest.approx(continuation.H_MAX_FRAC * factor)
    steps.clear()
    trace_loop(_sg_pencil(), BoxPerimeter(0.3, 0.9, 0.3 + 0.8, 0.9 + 0.8))
    assert steps[0] == pytest.approx(4 * continuation.H_MAX_FRAC * factor)


def test_loop_signature_shapes_around_origin():
    # the sign flip is a property of the enclosed point, not the loop shape
    pen = analytic_ci_pencil(0.0)
    ellipse = ClosedCurve(
        lambda t: (0.8 * math.cos(2 * math.pi * (t % 1.0)),
                   1.3 * math.sin(2 * math.pi * (t % 1.0)))
    )
    for loop in (
        circle(0.0, 0.0, 1.0),
        BoxPerimeter(-0.6, -0.7, -0.6 + 1.3, -0.7 + 1.2),
        ellipse,
    ):
        res = trace_loop(pen, loop)
        assert res.D.tolist() == [-1, -1]
    res = trace_loop(pen, circle(2.0, 0.0, 0.5))
    assert res.D.tolist() == [1, 1]


@pytest.mark.parametrize("side", [1e-3, 1e-6])
def test_small_loop_around_intersection_is_capped_by_rotation_not_size(side):
    # the pair turns by pi around any loop enclosing the intersection, so the
    # step count does not shrink with the loop: the cap of 1/8 of the loop
    # sets it, and no step turns the pair past the rotation cap
    loop = BoxPerimeter(-side / 2, -side / 3, -side / 2 + side, -side / 3 + side)
    res = trace_loop(analytic_ci_pencil(0.0), loop)
    assert res.D.tolist() == [-1, -1]
    assert res.step_stats["eigensolves"] <= 12
    assert res.step_stats["rejected_rotation"] == 0


def test_double_loop_gives_identity():
    pen = analytic_ci_pencil(0.0)
    base = circle(0.0, 0.0, 1.0)
    doubled = ClosedCurve(lambda t: base.point(2.0 * t))
    res = trace_loop(pen, doubled)
    assert res.D.tolist() == [1, 1]


def test_trace_loop_requires_closed_path():
    with pytest.raises(ValueError):
        trace_loop(analytic_ci_pencil(0.0), segment((1.0, 0.0), (2.0, 0.0)))


def test_loop_through_coalescence_unresolvable():
    pen = analytic_ci_pencil(0.0)
    # coalescence on the starting corner
    with pytest.raises(LoopUnresolvable):
        trace_loop(pen, BoxPerimeter(0.0, 0.0, 1.0, 1.0))
    # coalescence mid-edge
    with pytest.raises(LoopUnresolvable):
        trace_loop(pen, BoxPerimeter(-0.3, 0.0, -0.3 + 1.0, 1.0))


def _signed_basis(n=6, seed=7):
    """An anchor's B-orthonormal basis, B, and the same basis with some columns flipped."""
    rng = np.random.default_rng(seed)
    A, B = symmetrize(rand_spd(rng, n)), rand_spd(rng, n)
    ep = gen_eig_ordered(A, B)
    anchor = EigenPoint(t=0.0, V=ep.vectors, lam=ep.values, gaps=continuation._rel_gaps(ep.values))
    signs = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
    return anchor, B, ep.vectors * signs, signs


def test_piece_signs_of_a_clean_basis_are_its_signs():
    anchor, B, V, signs = _signed_basis()
    d = continuation._piece_signs(anchor, B, V)
    assert np.allclose(d, signs, rtol=0.0, atol=1e-12)
    assert np.array_equal(np.sign(d), signs)


@pytest.mark.parametrize(
    "where, cause",
    [
        pytest.param(
            "diagonal", r"within 2\.000e-06 of \+-1, off-diagonal magnitude \S+e-1\d ", id="diagonal"
        ),
        pytest.param(
            "off-diagonal", r"within \S+e-1\d of \+-1, off-diagonal magnitude 2\.000e-06",
            id="off-diagonal",
        ),
    ],
)
def test_piece_signs_refuses_an_unclean_signature(where, cause):
    # an entry 2 * SIGNATURE_TOL off its clean value, on the diagonal (a
    # column scaled away from B-norm 1) or off it (a column mixed with
    # another); the message names that error, and the other stays at rounding
    anchor, B, V, _ = _signed_basis()
    if where == "diagonal":
        V[:, 2] *= 1.0 + 2.0 * continuation.SIGNATURE_TOL
    else:
        V[:, 2] += 2.0 * continuation.SIGNATURE_TOL * anchor.V[:, 4]
    with pytest.raises(LoopUnresolvable, match=f"signature not clean: diagonal {cause}"):
        continuation._piece_signs(anchor, B, V)


def _assert_decompositions(pen, loop, res):
    """V.T B V = I and A V = B V Lambda at every point, veering substeps included,
    and each point carries the relative gaps of its eigenvalues."""
    for p in res.points:
        assert np.array_equal(p.gaps, continuation._rel_gaps(p.lam))
        A, B = pen.eval(*loop.point(p.t))
        n = p.lam.size
        assert np.linalg.norm(p.V.T @ B @ p.V - np.eye(n)) <= 1e-9
        assert np.linalg.norm(A @ p.V - B @ p.V @ np.diag(p.lam)) <= 1e-9


def test_veering_near_miss_keeps_signature():
    # edge passing 5e-11 from the coalescence: the signature must still tell
    # inside from outside, with a veering interval on that edge; the embedded
    # 4x4 pencil gives the pair outer columns, which substeps chain by overlap
    pencils = [
        (analytic_ci_pencil(0.0), 1),
        (embed_2x2(analytic_ci_pencil(0.0), 4, 2, (9.0, -7.0)), 2),
    ]
    for pen, pair in pencils:
        n = pen.n
        in_pair = np.isin(np.arange(1, n + 1), (pair, pair + 1))
        outside_loop = BoxPerimeter(5e-11, -0.5, 5e-11 + 1.0, -0.5 + 1.0)
        outside = trace_loop(pen, outside_loop)
        assert outside.D.tolist() == [1] * n
        assert outside.step_stats["veering_events"] >= 1
        inside_loop = BoxPerimeter(-1.0 + 5e-11, -0.5, -1.0 + 5e-11 + 1.0, -0.5 + 1.0)
        inside = trace_loop(pen, inside_loop)
        assert inside.D.tolist() == np.where(in_pair, -1, 1).tolist()
        assert inside.step_stats["veering_events"] >= 1
        # the veering points and events come from a trace of the same boxes
        outside, inside = trace(pen, outside_loop), trace(pen, inside_loop)
        assert len(outside.veering_events) >= 1 and len(inside.veering_events) >= 1
        t_lo, t_hi, event_pair = outside.veering_events[0]
        assert event_pair == pair
        assert 0.75 <= t_lo <= t_hi <= 1.0
        for loop, res in ((outside_loop, outside), (inside_loop, inside)):
            assert any(p.veering for p in res.points)
            _assert_decompositions(pen, loop, res)


def test_sgplus_loop_signature_properties():
    pen = sgplus_pencil(sgplus_generate(8, 7, 0.45, 31))
    res = trace_loop(pen, circle(1.0, 2.0, 0.6))
    assert set(np.unique(res.D)).issubset({-1, 1})
    assert int(np.prod(res.D)) == 1
    assert np.max(np.abs(np.abs(res.signature_raw) - 1.0)) <= 1e-6


def test_write_trace_csv_roundtrip(tmp_path):
    pen = _sg_pencil(n=4, seed=9)
    res = trace(pen, circle(0.5, 0.5, 0.3))
    out = tmp_path / "trace.csv"
    write_trace_csv(res, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t", "h", "lambda_1", "lambda_2", "lambda_3", "lambda_4",
        "rho_lambda", "rho_V", "veering",
    ]
    assert len(rows) - 1 == len(res.points) - 1 == res.step_stats["accepted"]
    # 17 significant digits round-trip losslessly
    assert float(rows[1][2]) == res.points[1].lam[0]
    assert all(r[-1] in ("0", "1") for r in rows[1:])


class _CountingPencil(ParametricPencil):
    def __init__(self, pencil, counts):
        self.n = pencil.n
        self._pencil = pencil
        self._counts = counts

    def eval(self, x, y):
        self._counts["evals"] += 1
        return self._pencil.eval(x, y)


def _count_eigensolves(monkeypatch, pencil, loop):
    """trace_loop with its evals and eigensolves counted, solves split by
    veering traversal, and the path parameter of each solve recorded."""
    counts = {"evals": 0, "solves": 0, "entries": 0, "substeps": 0, "veer_points": 0}
    counts["solved_t"] = []
    last_t = [None]
    inside_veering = [False]
    solve = continuation.gen_eig_ordered
    traverse = continuation.veering_traverse

    def point(t):
        last_t[0] = t
        return loop.point(t)

    def counting_solve(A, B):
        counts["solves"] += 1
        counts["substeps"] += inside_veering[0]
        counts["solved_t"].append(last_t[0])
        return solve(A, B)

    def counting_traverse(*args, **kwargs):
        counts["entries"] += 1
        inside_veering[0] = True
        try:
            result = traverse(*args, **kwargs)
        finally:
            inside_veering[0] = False
        counts["veer_points"] += len(result.points)
        return result

    monkeypatch.setattr(continuation, "gen_eig_ordered", counting_solve)
    monkeypatch.setattr(continuation, "veering_traverse", counting_traverse)
    return trace_loop(_CountingPencil(pencil, counts), ClosedCurve(point)), counts


def _assert_one_eval_per_solve_and_probe(counts):
    # the signature reuses B(0), and veering starts from the solved entry
    # point; the one eval left over is the probe that sizes the first step
    assert counts["evals"] == counts["solves"] + 1
    ts = counts["solved_t"]
    assert all(a != b for a, b in zip(ts, ts[1:]))


def test_eigensolve_accounting_without_veering(monkeypatch):
    # each eigensolve is the start, an accepted step or a rejected step
    res, counts = _count_eigensolves(
        monkeypatch, _sg_pencil(), BoxPerimeter(0.3, 0.9, 0.3 + 1.6, 0.9 + 1.6)
    )
    stats = res.step_stats
    assert stats["veering_events"] == 0 and counts["entries"] == 0
    assert stats["rejected"] > 0
    assert counts["solves"] == 1 + stats["accepted"] + stats["rejected"]
    assert stats["eigensolves"] == counts["solves"]
    _assert_one_cause_per_rejection(stats)
    _assert_one_eval_per_solve_and_probe(counts)


def _assert_one_cause_per_rejection(stats):
    causes = ("rejected_rho", "rejected_ambiguous", "rejected_rotation")
    assert stats["rejected"] == sum(stats[c] for c in causes)


@pytest.mark.parametrize("miss", [8e-3, 1e-4, 1e-6])
def test_near_miss_steps_the_close_pair_as_a_cluster(monkeypatch, miss):
    # edges passing miss from the intersection of pair 2 keep its relative
    # gap between TOLDIST and CLUSTER_GAP (about 1.6e-2 at its smallest for
    # miss 8e-3): no veering, clustered steps, the signature of plain
    # column-wise stepping, and fewer eigensolves
    pen = embed_2x2(analytic_ci_pencil(0.1), 5, 2, (9.0, -7.0, -8.0))
    cx, cy = pen.inner.ci_location()
    for x0, D in ((cx + miss, [1] * 5), (cx - 1.0 + miss, [1, -1, -1, 1, 1])):
        loop = BoxPerimeter(x0, cy - 0.5, x0 + 1.0, cy - 0.5 + 1.0)
        with monkeypatch.context() as m:
            m.setattr(continuation, "CLUSTER_GAP", 0.0)
            plain, plain_counts = _count_eigensolves(m, pen, loop)
        res, counts = _count_eigensolves(monkeypatch, pen, loop)
        stats = res.step_stats
        assert stats["veering_events"] == 0 and stats["clustered"] > 0
        assert plain.step_stats["clustered"] == 0
        assert res.D.tolist() == plain.D.tolist() == D
        assert counts["solves"] == 1 + stats["accepted"] + stats["rejected"]
        assert counts["solves"] < plain_counts["solves"]
        _assert_one_cause_per_rejection(stats)
        _assert_one_eval_per_solve_and_probe(counts)
        # the counting patch is still active: the trace comes after the counts
        traced = trace(pen, loop)
        gaps = np.array([continuation._rel_gaps(p.lam).min() for p in traced.points])
        assert continuation.TOLDIST < gaps.min() < continuation.CLUSTER_GAP
        _assert_decompositions(pen, loop, traced)


def test_eigensolve_accounting_with_veering(monkeypatch):
    # the 5e-11 near miss of test_veering_near_miss_keeps_signature: veering
    # entries and substeps account for the solves that are not predictor steps
    res, counts = _count_eigensolves(
        monkeypatch, analytic_ci_pencil(0.0), BoxPerimeter(5e-11, -0.5, 5e-11 + 1.0, -0.5 + 1.0)
    )
    stats = res.step_stats
    assert counts["entries"] == stats["veering_events"] >= 1
    assert counts["substeps"] > 0
    assert stats["eigensolves"] == counts["solves"]
    assert counts["solves"] == (
        1
        + (stats["accepted"] - counts["veer_points"])
        + stats["rejected"]
        + counts["entries"]
        + counts["substeps"]
    )
    _assert_one_eval_per_solve_and_probe(counts)


class _DiagonalPencil(ParametricPencil):
    """A = diag(spectrum(x)), B = I; the eigenvalues are the spectrum."""

    def __init__(self, spectrum, n):
        self.spectrum = spectrum
        self.n = n

    def eval(self, x, y):
        return np.diag(self.spectrum(x)), np.eye(self.n)


def _unresolved_box(pencil, x_range):
    sweep = sweep_grid(pencil, GridSpec(rows=1, cols=1, x_range=x_range, y_range=(0.0, 1.0)))
    (box,) = sweep.boxes
    assert box.status == "unresolved" and sweep.unresolved == [box]
    return box.message


def test_triple_degeneracy_in_predictor_mode():
    # three eigenvalues meet at x = 0; x = -1/16 + t/2, so the first step,
    # the cap of 1/8, lands on it
    pen = _DiagonalPencil(lambda x: [x, 0.0, -x], 3)
    with pytest.raises(TripleDegeneracy, match=r"pairs \(1, 2\) near-degenerate"):
        trace(pen, segment((-1 / 16, 0.0), (7 / 16, 0.0)))
    # the box's bottom side runs x = -1/16 + t: its first step, half the
    # side, crosses x = 0, and the rejections close in on it
    message = _unresolved_box(pen, (-1 / 16, 15 / 16))
    assert message.startswith("TripleDegeneracy: pairs (1, 2) near-degenerate")


def test_single_box_grid_is_traced_once(monkeypatch):
    # a 1x1 grid has no inner lines for a retry to move, so the triple
    # degeneracy's box is traced once, not once per attempt
    loops = []
    traced = detect.trace_loop

    def counted(*args, **kwargs):
        loops.append(args)
        return traced(*args, **kwargs)

    monkeypatch.setattr(detect, "trace_loop", counted)
    pen = _DiagonalPencil(lambda x: [x, 0.0, -x], 3)
    grid = GridSpec(rows=1, cols=1, x_range=(-1 / 16, 15 / 16), y_range=(0.0, 1.0))
    (box,) = sweep_grid(pen, grid).unresolved
    assert box.attempts == 1 and len(loops) == 1
    assert box.message.startswith("TripleDegeneracy: pairs (1, 2) near-degenerate")


def test_triple_degeneracy_in_veering_mode(monkeypatch):
    # pair 1's relative gap stays ~5e-13, inside the veering zone, with
    # constant eigenvectors, so veering starts at the first step (h = 1/8,
    # the cap) and every substep is easy: h would grow by 1.5 per substep,
    # but the cap holds it at 1/8. Pair 3, two pairs away, coalesces at
    # x = 0, which a substep hits exactly.
    entries = []
    traverse = continuation.veering_traverse

    def recording_traverse(state, *args):
        entries.append(state.t)
        return traverse(state, *args)

    monkeypatch.setattr(continuation, "veering_traverse", recording_traverse)
    pen = _DiagonalPencil(lambda x: [1.0 + 1e-12, 1.0, abs(x), -abs(x)], 4)
    # x = -1/4 + t: substeps at t = 1/8 (the entry) and 1/4, which is x = 0
    with pytest.raises(TripleDegeneracy, match=r"pairs \(1, 3\) near-degenerate"):
        trace(pen, segment((-1 / 4, 0.0), (3 / 4, 0.0)))
    assert entries == [0.0]
    # a box side's steps start at its cap, half the side. Bottom side
    # x = (t - 1)/2: the entry step t = 1/2 flags pair 1 only, and the next
    # substep, t = 1, lands on x = 0
    message = _unresolved_box(pen, (-0.5, 0.0))
    assert message.startswith("TripleDegeneracy: pairs (1, 3) near-degenerate")
    assert set(entries) == {0.0}
