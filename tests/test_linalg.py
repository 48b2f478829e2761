import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilci.errors import NonFiniteInput, NotPositiveDefinite
from pencilci.linalg import gen_eig_ordered

from conftest import rand_spd, rand_sym
from oracles import (
    SeriesDiverged, eig2x2_pencil, spd_sqrt, spd_sqrt_series, sqrt_derivative, symmetrize,
)


@given(st.integers(0, 2**32 - 1))
def test_symmetrize(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((5, 5))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    assert np.allclose(S, 0.5 * (M + M.T))


@given(st.integers(0, 2**32 - 1))
def test_spd_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    B = rand_spd(rng, n)
    S = spd_sqrt(B)
    assert np.array_equal(S, S.T)
    assert np.all(np.linalg.eigvalsh(S) > 0)
    assert np.allclose(S @ S, B, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_spd_sqrt_series_matches_spectral(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    B = rand_spd(rng, n)
    gamma = 1.1 * np.linalg.norm(B, 2)
    S = spd_sqrt_series(B, gamma)
    assert np.max(np.abs(S - spd_sqrt(B))) < 1e-10


def test_spd_sqrt_series_diverges_for_small_gamma():
    rng = np.random.default_rng(0)
    B = rand_spd(rng, 4)
    # the scaled series needs ||B||_2 < gamma
    with pytest.raises(SeriesDiverged):
        spd_sqrt_series(B, 0.5 * np.linalg.norm(B, 2))


@given(st.integers(0, 2**32 - 1))
def test_sqrt_derivative_solves_lyapunov(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    B = rand_spd(rng, n)
    dB = rand_sym(rng, n)
    S = spd_sqrt(B)
    dS = sqrt_derivative(S, dB)
    # d/dt (S S) = dB forces S dS + dS S = dB
    assert np.allclose(S @ dS + dS @ S, dB, atol=1e-9)
    assert np.allclose(dS, dS.T)


def test_sqrt_derivative_finite_difference_ratio():
    rng = np.random.default_rng(7)
    B = rand_spd(rng, 5)
    dB = rand_sym(rng, 5)
    dS = sqrt_derivative(spd_sqrt(B), dB)
    errs = []
    for k in range(4):
        h = 1e-2 / 2**k
        fd = (spd_sqrt(B + h * dB) - spd_sqrt(B - h * dB)) / (2 * h)
        errs.append(np.linalg.norm(fd - dS))
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5


@given(st.integers(0, 2**32 - 1))
def test_gen_eig_ordered_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    A = rand_sym(rng, n)
    B = rand_spd(rng, n)
    ep = gen_eig_ordered(A, B)
    assert np.all(np.diff(ep.values) <= 0)
    assert np.allclose(ep.vectors.T @ B @ ep.vectors, np.eye(n), atol=1e-12)
    assert np.allclose(A @ ep.vectors, B @ ep.vectors @ np.diag(ep.values), atol=1e-10)
    ref = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[::-1]
    assert np.allclose(ep.values, ref, atol=1e-12)


def test_gen_eig_rejects_indefinite_B():
    A = np.eye(2)
    with pytest.raises(NotPositiveDefinite):
        gen_eig_ordered(A, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [2, 10, 30])
def test_gen_eig_ordered_is_eigh_reversed_bitwise(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = rand_sym(rng, n)
        B = rand_spd(rng, n)
        ep = gen_eig_ordered(A, B)
        w, V = scipy.linalg.eigh(A, B)
        assert np.array_equal(ep.values, w[::-1])
        assert np.array_equal(ep.vectors, V[:, ::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gen_eig_ordered_rejects_non_finite(bad):
    rng = np.random.default_rng(0)
    A = rand_sym(rng, 3)
    B = rand_spd(rng, 3)
    # in A, in B, and in both with opposite signs (+inf in A, -inf in B)
    for entries in ((bad, None), (None, bad), (bad, -bad)):
        M = [A.copy(), B.copy()]
        for X, value in zip(M, entries):
            if value is not None:
                X[1, 2] = X[2, 1] = value
        with pytest.raises(NonFiniteInput):
            gen_eig_ordered(*M)


def test_gen_eig_ordered_accepts_finite_entries_whose_sum_overflows():
    # the finiteness check must not sum the entries: 1e308 + 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ep = gen_eig_ordered(np.diag([1e308, 1e308, -1.0]), np.eye(3))
    assert ep.values.tolist() == [1e308, 1e308, -1.0]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_eig2x2_matches_general_solver(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal(3)
    Bm = rand_spd(rng, 2)
    mu1, mu2, l1, l2 = eig2x2_pencil(a, b, c, Bm[0, 0], Bm[0, 1], Bm[1, 1])
    assert l1 >= l2
    ref = gen_eig_ordered(np.array([[a, b], [b, c]]), Bm).values
    assert abs(l1 - ref[0]) <= 1e-12 * (1 + abs(ref[0]))
    assert abs(l2 - ref[1]) <= 1e-12 * (1 + abs(ref[1]))


def test_eig2x2_rejects_non_spd():
    with pytest.raises(NotPositiveDefinite):
        eig2x2_pencil(1.0, 0.0, 1.0, -1.0, 0.0, 1.0)
    with pytest.raises(NotPositiveDefinite):
        eig2x2_pencil(1.0, 0.0, 1.0, 1.0, 2.0, 1.0)


def test_eig2x2_proportional_pencil_double_eigenvalue():
    # A = 2 B: both eigenvalues equal 2
    al, be, ga = 5.0, 3.0, 5.0
    mu1, mu2, l1, l2 = eig2x2_pencil(2 * al, 2 * be, 2 * ga, al, be, ga)
    assert abs(l1 - l2) < 1e-14
