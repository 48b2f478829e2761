import json
import logging
import math
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from pencilci.census import (
    GOE_REFERENCE_EXPONENTS,
    CensusReport,
    ExperimentSpec,
    cell_seed,
    fit_power_law,
    run_census,
    write_report,
)
from pencilci.census import _cell_filename, _cell_identity, sweep_grid
from pencilci.cli import main
from pencilci.errors import NonPositiveCount
from pencilci.pencil import sgplus_generate, sgplus_pencil
from test_acceptance import DESK_CENSUS_SPEC

# one n = 4 SG+ cell on a 3x3 grid: count 4, pairs {1: 1, 2: 1, 3: 2}
TINY_SGPLUS = dict(seed=0, n_list=(4,), rows=3, cols=3)


def test_cell_seed_deterministic_and_distinct():
    base = cell_seed(0, "full", 0, 50, 0)
    assert base == cell_seed(0, "full", 0, 50, 0)
    assert 0 <= base < 2**128
    variants = {
        cell_seed(1, "full", 0, 50, 0),
        cell_seed(0, 3, 0, 50, 0),
        cell_seed(0, "full", 1, 50, 0),
        cell_seed(0, "full", 0, 51, 0),
        cell_seed(0, "full", 0, 50, 1),
    }
    assert base not in variants
    assert len(variants) == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n_list=(10,), delta_list=(2.0,))  # above the sigma bound
    with pytest.raises(ValueError):
        ExperimentSpec(n_list=(10,), b_list=(0,))
    with pytest.raises(ValueError):
        ExperimentSpec(n_list=(10,), b_list=(10,))  # max is n - 1
    with pytest.raises(ValueError):
        ExperimentSpec(n_list=(10,), realizations=0)
    with pytest.raises(ValueError):
        ExperimentSpec(n_list=(10,), rows=0)
    with pytest.raises(ValueError, match="colls, realisations"):  # misspelt keys
        ExperimentSpec.from_dict({"n_list": [10], "realisations": 3, "colls": 8})
    for name, value in (("pencil_kind", "sgplus"), ("pencil_params", {})):  # SG+ only
        with pytest.raises(ValueError, match=f"unknown experiment spec keys: {name}"):
            ExperimentSpec.from_dict({"n_list": [10], name: value})
    for name in ("rows", "cols", "realizations", "seed"):  # non-integer values
        for bad in ("3", 3.0, True):
            with pytest.raises(ValueError, match=name):
                ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("n_list", 10.7), ("n_list", "10"), ("n_list", True),
                      ("b_list", 3.9), ("b_list", "3"), ("b_list", False)):
        with pytest.raises(ValueError, match=name):  # entries are not truncated to int
            ExperimentSpec.from_dict({"n_list": [10], **{name: [bad]}})
    for name, bad in (("x_range", [0, 0]), ("y_range", [1.0, 0.5])):  # empty ranges
        with pytest.raises(ValueError, match="increasing"):
            ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("x_range", [0, math.inf]), ("y_range", [-math.inf, 0])):
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("n_list", 4), ("b_list", "full"), ("delta_list", 0.45),
                      ("x_range", 3), ("y_range", None)):
        with pytest.raises(ValueError, match=f"{name}: .* is not an array"):
            ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("x_range", [0, 1, 2]), ("y_range", [1])):
        with pytest.raises(ValueError, match=f"{name}: .* array of two numbers"):
            ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("delta_list", ["0.45"]), ("delta_list", [True]),
                      ("x_range", ["0", 1]), ("y_range", [0, False])):
        with pytest.raises(ValueError, match=f"{name}: .* is not a number"):
            ExperimentSpec.from_dict({"n_list": [10], name: bad})
    for name, bad in (("n_list", [4, 4]), ("b_list", ["full", 2, "full"]),
                      ("delta_list", [0.3, 0.45, 0.3])):  # a repeat would run its cells twice
        with pytest.raises(ValueError, match=f"{name}: .* has a repeated entry"):
            ExperimentSpec.from_dict({"n_list": [10], **{name: bad}})


def test_spec_json_roundtrip(tmp_path):
    spec = ExperimentSpec(
        seed=7,
        n_list=(10, 20),
        b_list=(3, "full"),
        delta_list=(0.3, 0.45),
        realizations=2,
        rows=4,
        cols=8,
    )
    spec.to_json(tmp_path / "spec.json")
    assert ExperimentSpec.from_json(tmp_path / "spec.json") == spec
    spec2 = ExperimentSpec(**TINY_SGPLUS)
    spec2.to_json(tmp_path / "spec2.json")
    assert ExperimentSpec.from_json(tmp_path / "spec2.json") == spec2
    assert ExperimentSpec.from_dict(asdict(spec2)) == spec2


def test_desk_census_spec_file_matches_acceptance(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "desk_census.json")
    assert ExperimentSpec.from_json(path) == DESK_CENSUS_SPEC
    # byte for byte what to_json writes, so no stale key stays in the file
    DESK_CENSUS_SPEC.to_json(tmp_path / "desk_census.json")
    with open(path, "rb") as fh:
        assert fh.read() == (tmp_path / "desk_census.json").read_bytes()


def test_spec_cell_order_deterministic():
    spec = ExperimentSpec(n_list=(4, 6), b_list=(3, "full"), realizations=2)
    cells = list(spec.cells())
    assert cells == list(spec.cells())
    assert len(cells) == 2 * 2 * 1 * 2


def test_fit_power_law_exact_recovery():
    ns = np.array([50, 60, 70, 80])
    fit = fit_power_law(zip(ns, 0.13 * ns**2.5))
    assert fit.p == pytest.approx(2.5, abs=1e-12)
    assert fit.c == pytest.approx(0.13, rel=1e-12)
    assert fit.rmsd == pytest.approx(0.0, abs=1e-14)
    assert fit.n_points == 4


def test_fit_power_law_scale_consistency():
    rng = np.random.default_rng(11)
    ns = np.arange(50, 130, 10)
    counts = 0.2 * ns**2.3 * np.exp(rng.normal(0, 0.05, ns.size))
    f1 = fit_power_law(zip(ns, counts))
    f2 = fit_power_law(zip(ns, 3.0 * counts))
    assert f2.p == pytest.approx(f1.p, abs=1e-12)
    assert f2.c == pytest.approx(3.0 * f1.c, rel=1e-12)
    assert f2.rmsd == pytest.approx(f1.rmsd, abs=1e-12)


def test_fit_power_law_drops_nonpositive():
    with pytest.warns(NonPositiveCount):
        fit = fit_power_law([(10, 100.0), (20, 0.0), (30, 900.0)])
    assert fit.n_points == 2
    with pytest.warns(NonPositiveCount):
        with pytest.raises(ValueError):
            fit_power_law([(10, 0.0), (20, -1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(10, 5.0)])


def test_census_cell_matches_direct_sweep(tmp_path):
    spec = ExperimentSpec(**TINY_SGPLUS)
    report = run_census(spec, tmp_path)
    assert len(report.cells) == 1
    cell = report.cells[0]
    seed = cell_seed(0, "full", 0, 4, 0)
    direct = sweep_grid(sgplus_pencil(sgplus_generate(4, "full", 0.45, seed)), spec.grid, seed=seed)
    assert cell["seed"] == seed
    # the cell file is its identity, the sweep's summary and its wall time, key for key
    identity = _cell_identity(spec, ("full", 0, 4, 0))
    assert cell == {**identity, **direct.summary(), "wall_time": cell["wall_time"]}
    assert cell["total_count"] == 4
    assert cell["wall_time"] > 0
    assert report.means[("full", 0, 4)] == 4.0
    assert report.fits[("full", 0)] is None  # one n cannot pin a slope


def test_census_cell_carries_its_sweep_step_stats(tmp_path):
    spec = ExperimentSpec(**TINY_SGPLUS)
    cell = run_census(spec, tmp_path).cells[0]
    seed = cell_seed(0, "full", 0, 4, 0)
    direct = sweep_grid(sgplus_pencil(sgplus_generate(4, "full", 0.45, seed)), spec.grid, seed=seed)
    assert cell["step_stats"] == direct.step_stats
    assert cell["step_stats"]["eigensolves"] > 0


def test_census_reruns_cell_file_that_is_not_an_object(tmp_path):
    spec = ExperimentSpec(**TINY_SGPLUS)
    path = tmp_path / "cells" / _cell_filename("full", 0, 4, 0)
    run_census(spec, tmp_path)
    for text in ("[]", "null", '"x"'):
        path.write_text(text)
        report = run_census(spec, tmp_path)
        assert report.cells[0]["total_count"] == 4
        with open(path) as fh:
            assert json.load(fh)["total_count"] == 4


def test_census_reruns_cell_file_with_a_bad_count(tmp_path):
    spec = ExperimentSpec(**TINY_SGPLUS)
    path = tmp_path / "cells" / _cell_filename("full", 0, 4, 0)
    run_census(spec, tmp_path)
    # a bool is not an integer; a count is never negative; a count alone
    # lacks the fields the report reads
    for count in ("true", "-1", "3"):
        path.write_text(f'{{"total_count": {count}}}')
        report = run_census(spec, tmp_path)
        assert report.cells[0]["total_count"] == 4


@pytest.mark.parametrize(
    "change",
    [dict(seed=5), dict(delta_list=(0.3,)), dict(rows=8, cols=8),
     dict(seed=5, delta_list=(0.3,), rows=8, cols=8)],
    ids=["seed", "delta", "grid", "all"],
)
def test_census_reruns_cell_files_of_another_spec(tmp_path, change):
    # both specs name their one cell alike, so spec b finds spec a's file; a's
    # count is 15, and b's is 13 (seed), 14 (delta) or 17 (grid, all)
    spec_a = ExperimentSpec(seed=0, n_list=(6,), rows=4, cols=4)
    spec_b = ExperimentSpec(**{**asdict(spec_a), **change})
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert run_census(spec_a, shared).cells[0]["total_count"] == 15
    write_report(run_census(spec_b, shared), shared)
    write_report(run_census(spec_b, fresh), fresh)
    assert _read_aggregates(shared) == _read_aggregates(fresh)
    with open(shared / "cells" / _cell_filename("full", 0, 6, 0)) as fh:
        assert json.load(fh)["total_count"] != 15


def test_census_empty_n_list(tmp_path):
    spec = ExperimentSpec(n_list=())
    report = run_census(spec, tmp_path)
    assert report.cells == [] and report.means == {}
    paths = write_report(report, tmp_path)
    with open(paths["counts"]) as fh:
        assert fh.read() == "b,delta,n,realization,count,n_unresolved\n"
    with open(paths["fits"]) as fh:
        assert fh.read() == "b,delta,p,c,rmsd,n_points\n"


def test_census_logs_progress(tmp_path, caplog):
    spec = ExperimentSpec(**TINY_SGPLUS, realizations=2)

    def progress_lines():
        lines = [r.getMessage() for r in caplog.records if r.name == "pencilci.census"]
        caplog.clear()
        return lines

    with caplog.at_level(logging.INFO, logger="pencilci.census"):
        run_census(spec, tmp_path)
        lines = progress_lines()
        assert [line.split(",")[0] for line in lines] == [
            "census: 1/2 cells done", "census: 2/2 cells done"
        ]
        assert "s elapsed" in lines[0] and "ETA" in lines[0]
        assert lines[1].endswith("ETA 0.0 s")
        os.remove(tmp_path / "cells" / _cell_filename("full", 0, 4, 1))
        run_census(spec, tmp_path)  # resumed: the skipped cell counts as done
        assert [line.split(",")[0] for line in progress_lines()] == ["census: 2/2 cells done"]
        run_census(spec, tmp_path)
        assert progress_lines() == []


# counts of a synthetic census, keyed (b, delta_index, n): two bandwidths, two
# dispersions, n_list out of order, a zero mean in ("3", 1) and a single
# positive mean in ("full", 1), whose fit is None
SYNTHETIC_SPEC = ExperimentSpec(
    n_list=(6, 4, 5), b_list=(3, "full"), delta_list=(0.3, 0.45), realizations=2,
    rows=1, cols=1,
)
SYNTHETIC_COUNTS = {
    (3, 0, 6): (30, 35), (3, 0, 4): (10, 12), (3, 0, 5): (19, 22),
    (3, 1, 6): (41, 44), (3, 1, 4): (0, 0), (3, 1, 5): (25, 26),
    ("full", 0, 6): (50, 53), ("full", 0, 4): (14, 15), ("full", 0, 5): (30, 31),
    ("full", 1, 6): (0, 0), ("full", 1, 4): (7, 8), ("full", 1, 5): (0, 0),
}


def _synthetic_census(out_dir):
    """Write the synthetic cell files, so run_census only assembles them."""
    os.makedirs(out_dir / "cells")
    for b, di, n, r in SYNTHETIC_SPEC.cells():
        cell = {
            **_cell_identity(SYNTHETIC_SPEC, (b, di, n, r)),
            "total_count": SYNTHETIC_COUNTS[(b, di, n)][r], "pair_counts": {}, "n_unresolved": r,
            "wall_time": 1.0,
        }
        with open(out_dir / "cells" / _cell_filename(b, di, n, r), "w") as fh:
            json.dump(cell, fh)
    return write_report(run_census(SYNTHETIC_SPEC, out_dir, resume=True), out_dir)


def test_aggregates_from_cell_files(tmp_path):
    paths = _synthetic_census(tmp_path)
    fits, loglog = ["b,delta,p,c,rmsd,n_points"], ["# b delta n mean_count log_n log_mean"]
    for b, di, delta in ((3, 0, "0.29999999999999999"), (3, 1, "0.45000000000000001"),
                         ("full", 0, "0.29999999999999999"), ("full", 1, "0.45000000000000001")):
        means = [(n, sum(SYNTHETIC_COUNTS[(b, di, n)]) / 2) for n in (6, 4, 5)]
        means = [(n, m) for n, m in means if m > 0]
        if len(means) >= 2:
            f = fit_power_law(means)
            fits.append(f"{b},{delta},{f.p:.17g},{f.c:.17g},{f.rmsd:.17g},{len(means)}")
        loglog += [f"{b} {delta} {n} {m:.17g} {math.log(n):.17g} {math.log(m):.17g}"
                   for n, m in means] + [""]
    with open(paths["fits"]) as fh:
        text = fh.read()
    assert text == "\n".join(fits) + "\n"
    assert len(text.splitlines()) == 4  # ("full", 1) has no fit
    with open(paths["loglog"]) as fh:
        text = fh.read()
    assert text == "\n".join(loglog) + "\n"
    assert "\n3 0.45000000000000001 4 " not in text  # the zero mean has no log
    with open(paths["counts"]) as fh:
        rows = fh.read().splitlines()
    assert rows[1:4] == ["3,0.29999999999999999,6,0,30,0", "3,0.29999999999999999,6,1,35,1",
                         "3,0.29999999999999999,4,0,10,0"]
    assert len(rows) == 1 + len(SYNTHETIC_SPEC.cells())


def test_fit_command_matches_census_fits(tmp_path):
    paths = _synthetic_census(tmp_path / "census")
    assert main(["fit", "--data", paths["counts"], "--out-dir", str(tmp_path / "fit")]) == 0
    with open(paths["fits"], "rb") as fh:
        census_fits = fh.read()
    with open(tmp_path / "fit" / "fit_summary.csv", "rb") as fh:
        assert fh.read() == census_fits


def _read_aggregates(out_dir):
    blobs = {}
    for name in ("census_counts.csv", "census_fits.csv", "census_loglog.dat"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_census_determinism_and_resume(tmp_path):
    spec = ExperimentSpec(
        seed=3, n_list=(4, 6), realizations=1, rows=3, cols=3
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_report(run_census(spec, dir_a, workers=1), dir_a)
    write_report(run_census(spec, dir_b, workers=2), dir_b)
    assert _read_aggregates(dir_a) == _read_aggregates(dir_b)

    # resume from a partial cell directory reproduces the same aggregates
    dir_c = tmp_path / "c"
    os.makedirs(dir_c / "cells")
    names = sorted(os.listdir(dir_a / "cells"))
    for name in names[: len(names) // 2]:
        shutil.copy(dir_a / "cells" / name, dir_c / "cells" / name)
    write_report(run_census(spec, dir_c, workers=1, resume=True), dir_c)
    assert _read_aggregates(dir_a) == _read_aggregates(dir_c)


def test_write_report_files(tmp_path):
    spec = ExperimentSpec(**TINY_SGPLUS)
    report = run_census(spec, tmp_path)
    paths = write_report(report, tmp_path)
    assert set(paths) == {"counts", "fits", "loglog", "report"}
    with open(paths["report"]) as fh:
        doc = json.load(fh)
    assert set(doc) >= {"spec", "cells", "means", "fits"}
    assert ExperimentSpec.from_dict(doc["spec"]) == spec
    assert doc["cells"] == report.cells
    assert doc["cells"][0]["total_count"] == 4
    with open(paths["counts"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "b,delta,n,realization,count,n_unresolved"
    assert lines[1].split(",") == ["full", "0.45000000000000001", "4", "0", "4", "0"]


def test_goe_reference_exponents():
    assert GOE_REFERENCE_EXPONENTS == {"full": 2.00, "5": 2.55, "4": 2.66, "3": 2.73}
