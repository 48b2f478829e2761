"""End-to-end gate: one test per headline guarantee, each printing a
single ACCEPTANCE <n> PASS/FAIL line with the measured values and the
tolerance it was held to."""

import itertools
import math
import os
import shutil
import time

import numpy as np

from conftest import rand_spd, rand_sym
from pencilci.census import ExperimentSpec, fit_power_law, run_census, write_report
from pencilci.continuation import init_decomposition, predict, trace, trace_loop
from pencilci.detect import GridSpec, decode_signature, refine_box, signature_from_counts, sweep_grid
from pencilci.errors import LoopUnresolvable
from pencilci.linalg import (
    eig2x2_pencil,
    gen_eig_ordered,
    spd_sqrt,
    spd_sqrt_series,
    sqrt_derivative,
)
from pencilci.pencil import (
    analytic_ci_pencil,
    circle,
    embed_2x2,
    segment,
    sgplus_generate,
    sgplus_pencil,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "reference_counts.csv")

# the desk-scale study of criterion 4, shipped as scripts/desk_census.json
DESK_CENSUS_SPEC = ExperimentSpec(
    seed=0,
    n_list=(10, 15, 20, 25, 30),
    b_list=("full",),
    delta_list=(0.45,),
    realizations=10,
    rows=16,
    cols=32,
)

# power-law fits of the bundled reference counts, pinned offline: (p, c, rmsd)
REFERENCE_FITS = {
    "3": (2.5855, 0.1347, 4.5564e-3),
    "4": (2.5534, 0.1224, 1.0384e-2),
    "5": (2.4461, 0.1697, 1.0675e-2),
    "full": (2.0226, 0.7074, 7.3364e-3),
}


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_1_analytic_localization():
    t_start = time.perf_counter()
    tol = 2.0 * 2.0**-10
    parts = []
    ok = True
    for eps in (0.0, 0.1):
        pen = analytic_ci_pencil(eps)
        cx, cy = pen.ci_location()
        grid = GridSpec(rows=8, cols=8, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0))
        sw = sweep_grid(pen, grid, seed=0)
        one_box = len(sw.flagged) == 1 and not sw.unresolved
        contains = False
        err = math.inf
        if one_box:
            box = sw.flagged[0]
            x0, x1, y0, y1 = grid.box(box.row, box.col)
            contains = x0 <= cx <= x1 and y0 <= cy <= y1
            est = refine_box(pen, sw.rect_of(box), pair=box.pairs[0], depth=10, seed=0)
            err = math.hypot(est.x - cx, est.y - cy)
        ok = ok and one_box and contains and err <= tol
        parts.append(f"eps={eps}: flagged={len(sw.flagged)} box contains CI={contains} err={err:.2e}")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 60.0
    detail = "; ".join(parts) + f" (tol {tol:.2e}); elapsed {elapsed:.1f}s (limit 60s)"
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_embedded_signature():
    pen = embed_2x2(analytic_ci_pencil(0.0), 4, 2, (9.0, -7.0))
    res = trace_loop(pen, circle(0.0, 0.0, 1.0))
    D = [int(v) for v in res.D]
    pairs = decode_signature(res.D)
    ok_loop = D == [1, -1, -1, 1] and pairs == (2,)
    far = trace_loop(pen, circle(2.5, 0.0, 0.4))
    ok_far = [int(v) for v in far.D] == [1, 1, 1, 1]
    n_checked = 0
    ok_codec = True
    for n in range(2, 9):
        for d in itertools.product((0, 1, 2), repeat=n - 1):
            want = tuple(i + 1 for i, v in enumerate(d) if v % 2)
            ok_codec = ok_codec and decode_signature(signature_from_counts(d)) == want
            n_checked += 1
    ok = ok_loop and ok_far and ok_codec
    detail = (
        f"embedded loop D={D} pairs={list(pairs)} (want [1,-1,-1,1] / [2]); "
        f"distant loop identity={ok_far}; decode(encode(d))==odd entries for "
        f"{n_checked} count vectors={ok_codec}"
    )
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_reference_count_fit():
    import csv

    with open(DATA, newline="") as fh:
        rows = list(csv.DictReader(fh))
    t_start = time.perf_counter()
    fits = {}
    for token in REFERENCE_FITS:
        pts = [(float(r["n"]), float(r["mean_count"])) for r in rows if r["bandwidth"] == token]
        fits[token] = fit_power_law(pts)
    elapsed = time.perf_counter() - t_start
    dev_p = max(abs(fits[t].p - REFERENCE_FITS[t][0]) for t in fits)
    dev_c = max(abs(fits[t].c - REFERENCE_FITS[t][1]) / REFERENCE_FITS[t][1] for t in fits)
    dev_r = max(abs(fits[t].rmsd - REFERENCE_FITS[t][2]) / REFERENCE_FITS[t][2] for t in fits)
    ok = dev_p <= 0.01 and dev_c <= 0.1 and dev_r <= 0.15 and elapsed < 1.0
    detail = (
        f"4 bandwidth groups, 8 points each; max |dp|={dev_p:.2e} (tol 0.01), "
        f"max rel dc={dev_c:.2e} (tol 0.1), max rel drmsd={dev_r:.2e} (tol 0.15); "
        f"fit time {elapsed * 1e3:.1f}ms (limit 1s)"
    )
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_desk_scale_census(tmp_path):
    t_start = time.perf_counter()
    spec = DESK_CENSUS_SPEC
    workers = min(8, os.cpu_count() or 1)
    report = run_census(spec, tmp_path, workers=workers)
    write_report(report, tmp_path)
    means = [report.means[("full", 0, n)] for n in spec.n_list]
    fit = report.fits[("full", 0)]
    elapsed = time.perf_counter() - t_start
    increasing = all(a < b for a, b in zip(means, means[1:]))
    ok = increasing and 1.6 <= fit.p <= 2.4 and elapsed < 7200.0
    detail = (
        f"mean counts {[round(m, 1) for m in means]} strictly increasing={increasing}; "
        f"p={fit.p:.3f} (want [1.6, 2.4]); elapsed {elapsed:.0f}s "
        f"(limit 7200s, workers={workers})"
    )
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_loop_invariants():
    rng = np.random.default_rng(42)
    n = 10
    completed = 0
    worst_orth = worst_resid = worst_raw = 0.0
    prods_ok = True
    for i in range(100):
        cx, cy = rng.uniform(0.0, 2.0 * np.pi, size=2)
        radius = rng.uniform(0.2, 1.2)
        pen = sgplus_pencil(sgplus_generate(n, n - 1, 0.45, 1000 + i))
        loop = circle(cx, cy, radius)
        try:
            res = trace_loop(pen, loop)
        except LoopUnresolvable:
            continue
        completed += 1
        # a circle is one piece: trace gives the points that trace_loop stepped
        for pt in trace(pen, loop).points:
            A, B = pen.eval(*loop.point(pt.t))
            worst_orth = max(worst_orth, np.linalg.norm(pt.V.T @ B @ pt.V - np.eye(n)))
            worst_resid = max(worst_resid, np.linalg.norm(A @ pt.V - B @ pt.V @ np.diag(pt.lam)))
        worst_raw = max(worst_raw, float(np.max(np.abs(np.abs(res.signature_raw) - 1.0))))
        prods_ok = prods_ok and int(np.prod(res.D)) == 1
    ok = completed >= 95 and worst_orth <= 1e-9 and worst_resid <= 1e-9 and worst_raw <= 1e-6 and prods_ok
    detail = (
        f"{completed}/100 loops completed (need >= 95); worst orthonormality defect "
        f"{worst_orth:.1e} and residual {worst_resid:.1e} (tol 1e-9); worst "
        f"|signature|-1 {worst_raw:.1e} (tol 1e-6); all det products +1={prods_ok}"
    )
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6_matrix_function_cross_checks():
    rng = np.random.default_rng(6)
    worst_sqrt = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 21))
        B = rand_spd(rng, m)
        gamma = 1.1 * np.linalg.norm(B, 2)
        worst_sqrt = max(worst_sqrt, float(np.max(np.abs(spd_sqrt(B) - spd_sqrt_series(B, gamma)))))
    ok_sqrt = worst_sqrt <= 1e-10

    B = rand_spd(rng, 5)
    dB = rand_sym(rng, 5)
    dS = sqrt_derivative(spd_sqrt(B), dB)
    errs = []
    for k in range(4):
        h = 1e-2 / 2**k
        fd = (spd_sqrt(B + h * dB) - spd_sqrt(B - h * dB)) / (2.0 * h)
        errs.append(float(np.linalg.norm(fd - dS)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok_fd = all(3.5 <= r <= 4.5 for r in ratios)

    worst_eig = 0.0
    for _ in range(1000):
        a, b, c = rng.standard_normal(3)
        Bm = rand_spd(rng, 2)
        _, _, l1, l2 = eig2x2_pencil(a, b, c, Bm[0, 0], Bm[0, 1], Bm[1, 1])
        ref = gen_eig_ordered(np.array([[a, b], [b, c]]), Bm).values
        worst_eig = max(
            worst_eig,
            abs(l1 - ref[0]) / (1.0 + abs(ref[0])),
            abs(l2 - ref[1]) / (1.0 + abs(ref[1])),
        )
    ok_eig = worst_eig <= 1e-12

    ok = ok_sqrt and ok_fd and ok_eig
    detail = (
        f"50 SPD sqrt series-vs-spectral max diff {worst_sqrt:.1e} (tol 1e-10); "
        f"sqrt derivative FD ratios {[round(r, 2) for r in ratios]} (want [3.5, 4.5]); "
        f"1000 closed-form 2x2 eigenvalues max rel err {worst_eig:.1e} (tol 1e-12)"
    )
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_predictor_order():
    pencil = sgplus_pencil(sgplus_generate(6, 5, 0.45, 7))
    path = segment((0.2, 0.9), (1.7, 2.3))
    t0 = 0.3
    state = init_decomposition(pencil, path, t0)
    errs_l, errs_v = [], []
    for k in range(4):
        h = 0.04 / 2**k
        A_next, B_next = pencil.eval(*path.point(t0 + h))
        lam_pred, V_pred = predict(state, A_next, B_next, h)
        exact = init_decomposition(pencil, path, t0 + h)
        errs_l.append(float(np.max(np.abs(exact.lam - lam_pred))))
        s = np.sign(np.diag(V_pred.T @ B_next @ exact.V))
        errs_v.append(float(np.linalg.norm(exact.V * s - V_pred)))
    ratios_l = [a / b for a, b in zip(errs_l, errs_l[1:])]
    ratios_v = [a / b for a, b in zip(errs_v, errs_v[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios_l + ratios_v)
    detail = (
        f"halving h from 0.04: eigenvalue error ratios {[round(r, 2) for r in ratios_l]}, "
        f"eigenvector error ratios {[round(r, 2) for r in ratios_v]} (want [3.5, 4.5] = locally second order)"
    )
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8_reproducibility(tmp_path):
    spec = ExperimentSpec(
        seed=3,
        n_list=(4, 6),
        b_list=("full",),
        delta_list=(0.45,),
        realizations=2,
        rows=4,
        cols=4,
    )

    def aggregates(d):
        return {
            f: (d / f).read_bytes()
            for f in ("census_counts.csv", "census_fits.csv", "census_loglog.dat")
        }

    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_report(run_census(spec, out_a, workers=2), out_a)
    write_report(run_census(spec, out_b, workers=1), out_b)
    same_parallel = aggregates(out_a) == aggregates(out_b)

    (out_c / "cells").mkdir(parents=True)
    names = sorted(os.listdir(out_a / "cells"))
    for nm in names[: len(names) // 2]:
        shutil.copy(out_a / "cells" / nm, out_c / "cells" / nm)
    write_report(run_census(spec, out_c, workers=1, resume=True), out_c)
    same_resume = aggregates(out_a) == aggregates(out_c)

    ok = same_parallel and same_resume
    detail = (
        f"workers=2 vs workers=1 aggregated files byte-identical={same_parallel}; "
        f"resume from {len(names) // 2}/{len(names)} cells byte-identical={same_resume}"
    )
    _report(8, ok, detail)
    assert ok, detail
