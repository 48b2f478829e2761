import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pencilci.errors import (
    BandwidthOutOfRange,
    DispersionOutOfRange,
    EvaluationFailed,
    NotPositiveDefinite,
)
from pencilci.fields import write_json
from pencilci.linalg import gen_eig_ordered
from pencilci.pencil import (
    BoxPerimeter,
    analytic_ci_pencil,
    circle,
    dispersion_bound,
    evaluate,
    load_pencil,
    pencil_from_descriptor,
    segment,
    sgplus_generate,
    sgplus_pencil,
)

from oracles import SpectrumOverlap, ci_location, embed_2x2, symmetrize


def test_sgplus_deterministic():
    r1 = sgplus_generate(8, 3, 0.45, 99)
    r2 = sgplus_generate(8, 3, 0.45, 99)
    assert np.array_equal(r1.factors, r2.factors)
    assert np.array_equal(r1.diags, r2.diags)
    r3 = sgplus_generate(8, 3, 0.45, 100)
    assert not np.array_equal(r1.factors[0, 0], r3.factors[0, 0])


def _documented_draws(n, b, delta, seed):
    """factors and diags drawn one factor at a time in the documented order."""
    band = n - 1 if b == "full" else b
    sigma = delta / np.sqrt(n + 1)
    rng = np.random.Generator(np.random.Philox(seed))
    entries = [(i, j) for i in range(n) for j in range(n) if 0 < i - j <= band]
    factors = np.zeros((4, 2, n, n))
    for side in (0, 1):  # L_A1..L_A4, then L_B1..L_B4
        for k in range(4):
            values = sigma * rng.standard_normal(len(entries))
            for (i, j), v in zip(entries, values):  # row-major band entries
                factors[k, side, i, j] = v
    a = (n + 1) / (2.0 * delta * delta) + (1.0 - np.arange(1, n + 1)) / 2.0
    diags = np.zeros((2, n, n))
    for side in (0, 1):  # D_A, then D_B
        diags[side] = np.diag(sigma * np.sqrt(2.0 * rng.standard_gamma(a)))
    return factors, diags


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("b", [1, "full"])
def test_sgplus_draw_order(n, b):
    r = sgplus_generate(n, b, 0.45, 2024)
    factors, diags = _documented_draws(n, b, 0.45, 2024)
    assert r.factors.shape == (4, 2, n, n) and r.diags.shape == (2, n, n)
    # bitwise, zero signs included
    assert r.factors.tobytes() == factors.tobytes()
    assert r.diags.tobytes() == diags.tobytes()


@given(st.integers(0, 2**32 - 1))
def test_sgplus_factor_structure(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    b = int(rng.integers(1, n))
    r = sgplus_generate(n, b, 0.45, seed)
    for M in r.factors.reshape(8, n, n):
        assert np.array_equal(M, np.tril(M, -1))
        assert np.array_equal(M, np.triu(M, -b))  # zero below the b-th subdiagonal
    for M in r.diags:
        assert np.array_equal(M, np.diag(np.diag(M))) and np.all(np.diag(M) > 0)


def test_sgplus_validation():
    with pytest.raises(BandwidthOutOfRange):
        sgplus_generate(10, 0, 0.45, 0)
    with pytest.raises(BandwidthOutOfRange):
        sgplus_generate(10, 10, 0.45, 0)
    with pytest.raises(ValueError):
        sgplus_generate(1, 1, 0.45, 0)
    with pytest.raises(DispersionOutOfRange) as exc:
        sgplus_generate(10, 3, 0.99, 0)
    assert "sqrt((n+1)/(n+5))" in str(exc.value)
    with pytest.raises(DispersionOutOfRange):
        sgplus_generate(10, 3, 0.0, 0)
    # just below the bound is legal
    sgplus_generate(10, 3, dispersion_bound(10) - 1e-9, 0)


def test_sgplus_gamma_shapes_exceed_three():
    # the dispersion bound keeps every gamma shape parameter above 3
    for n in (2, 5, 20):
        delta = dispersion_bound(n) - 1e-12
        i = np.arange(1, n + 1)
        a = (n + 1) / (2 * delta * delta) + (1 - i) / 2
        assert np.all(a > 3)


def test_sgplus_pencil_eval_contracts():
    pen = sgplus_pencil(sgplus_generate(7, 3, 0.45, 5))
    A, B = pen.eval(0.3, 1.1)
    assert np.array_equal(A, A.T)
    assert np.array_equal(B, B.T)
    np.linalg.cholesky(B)  # SPD or raises
    A2, B2 = pen.eval(0.3 + 2 * np.pi, 1.1 - 2 * np.pi)
    assert np.allclose(A, A2, atol=1e-12)
    assert np.allclose(B, B2, atol=1e-12)
    # at (0, 0) the factor collapses to L1 + L3 + diag
    r = pen.realization
    L = r.factors[0, 0] + r.factors[2, 0] + r.diags[0]
    assert np.allclose(pen.eval(0.0, 0.0)[0], L @ L.T)


def _documented_eval(r, x, y):
    """A and B from the class docstring: both L's from one product of the
    coefficient vector and the factor stack, then L @ L.T one side at a time."""
    c = np.array([math.cos(x), math.sin(x), math.cos(y), math.sin(y)])
    L = (c @ r.factors.reshape(4, -1)).reshape(2, r.n, r.n) + r.diags
    return symmetrize(L[0] @ L[0].T), symmetrize(L[1] @ L[1].T)


@pytest.mark.parametrize("n", [10, 20, 30])
@pytest.mark.parametrize("b", [3, "full"])
def test_sgplus_eval_is_bitwise_the_documented_formula(n, b):
    pen = sgplus_pencil(sgplus_generate(n, b, 0.45, 11))
    copy = pickle.loads(pickle.dumps(pen))
    for x, y in [(0.0, 0.0), (0.3, 1.1), (2.9, 5.5), (3.7, 4.0), (-1.2, 7.9)]:
        A_ref, B_ref = _documented_eval(pen.realization, x, y)
        for p in (pen, copy):
            A, B = p.eval(x, y)
            assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
    # the pickle carries one copy of factors and diags, and little else
    stored = pen.realization.factors.nbytes + pen.realization.diags.nbytes
    assert stored < len(pickle.dumps(pen)) <= stored + 1000


def test_sgplus_descriptor_roundtrip(tmp_path):
    pen = sgplus_pencil(sgplus_generate(6, 2, 0.3, 17))
    path = tmp_path / "pencil.json"
    write_json(path, {"kind": "sgplus", "n": 6, "b": 2, "delta": 0.3, "seed": 17})
    pen2 = load_pencil(path)
    A1, B1 = pen.eval(0.7, 0.2)
    A2, B2 = pen2.eval(0.7, 0.2)
    assert np.array_equal(A1, A2)
    assert np.array_equal(B1, B2)


def test_analytic_pencil_eigenvalues():
    pen = analytic_ci_pencil(0.0)
    for x, y in [(0.5, 0.0), (-0.2, 0.7), (1.0, -1.0)]:
        ep = gen_eig_ordered(*pen.eval(x, y))
        r = math.hypot(x, y)
        assert np.allclose(ep.values, [r, -r], atol=1e-12)
    _, B = pen.eval(0.1, 0.2)
    assert np.array_equal(B, np.array([[5.0, 3.0], [3.0, 5.0]]))


def test_analytic_pencil_ci_location():
    pen = analytic_ci_pencil(0.1)
    x, y = ci_location(0.1)
    assert (x, y) == (-0.025, -0.03125)
    ep = gen_eig_ordered(*pen.eval(x, y))
    assert abs(ep.values[0] - ep.values[1]) < 1e-14


def test_embedded_pencil_spectrum():
    pen = embed_2x2(analytic_ci_pencil(0.0), n=4, j=2, outer_spectrum=(9.0, -7.0))
    ep = gen_eig_ordered(*pen.eval(0.6, 0.8))
    assert np.allclose(ep.values, [9.0, 1.0, -1.0, -7.0], atol=1e-12)
    _, B = pen.eval(0.6, 0.8)
    assert B[0, 0] == 1.0 and B[3, 3] == 1.0 and B[0, 1] == 0.0


def test_embedded_rejects_overlapping_outer():
    with pytest.raises(SpectrumOverlap):
        embed_2x2(analytic_ci_pencil(0.0), n=4, j=2, outer_spectrum=(0.1, -7.0))


def test_unknown_descriptor_kind():
    with pytest.raises(ValueError):
        pencil_from_descriptor({"kind": "nope"})


def test_box_perimeter_is_a_closed_loop_of_corners_only():
    # a box is traced only as its four sides, so it has no parametrization
    p = BoxPerimeter(-1.0, 2.0, 2.0, 6.0)
    assert p.closed
    assert not hasattr(p, "point")


def test_circle_closure_exact():
    c = circle(0.3, -0.2, 1.5)
    assert c.closed
    assert c.point(1.0) == c.point(0.0)
    for t in np.linspace(0, 1, 17):
        x, y = c.point(t)
        assert math.hypot(x - 0.3, y + 0.2) == pytest.approx(1.5, abs=1e-12)


def test_paths_counterclockwise():
    # positive shoelace area for the closed path kind
    ts = np.linspace(0.0, 1.0, 201)
    pts = np.array([circle(0.0, 0.0, 1.0).point(t) for t in ts])
    area = 0.5 * np.sum(pts[:-1, 0] * pts[1:, 1] - pts[1:, 0] * pts[:-1, 1])
    assert area > 0


def test_segment_path():
    s = segment((0.0, 1.0), (2.0, -1.0))
    assert not s.closed
    assert s.point(0.0) == (0.0, 1.0)
    assert s.point(1.0) == (2.0, -1.0)
    assert s.point(0.5) == (1.0, 0.0)


class _RaisingPencil:
    n = 2

    def __init__(self, exc):
        self.exc = exc

    def eval(self, x, y):
        raise self.exc


def test_evaluate_wraps_foreign_errors_only():
    pen = analytic_ci_pencil(0.1)
    A, B = evaluate(pen, 0.25, -0.5)
    A_ref, B_ref = pen.eval(0.25, -0.5)
    assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
    own = NotPositiveDefinite("B is not positive definite")
    with pytest.raises(NotPositiveDefinite) as info:
        evaluate(_RaisingPencil(own), 0.0, 0.0)
    assert info.value is own
    foreign = ZeroDivisionError("division by zero")
    message = r"^ZeroDivisionError: division by zero at \(x, y\) = \(0\.25, -0\.5\)$"
    with pytest.raises(EvaluationFailed, match=message) as info:
        evaluate(_RaisingPencil(foreign), 0.25, -0.5)
    assert info.value.__cause__ is foreign


def test_path_factory_validation():
    with pytest.raises(ValueError):
        BoxPerimeter(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        circle(0.0, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((0.0, 0.0, bad), (bad, 0.0, 1.0), (0.0, bad, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                circle(*args)
        for k in range(4):
            corners = [0.0, 0.0, 1.0, 1.0]
            corners[k] = bad
            with pytest.raises(ValueError, match="finite"):
                BoxPerimeter(*corners)
            with pytest.raises(ValueError, match="finite"):
                segment(corners[:2], corners[2:])
