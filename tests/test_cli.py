import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import pencilci
from pencilci.census import ExperimentSpec, fit_power_law
from pencilci.cli import _build_parser, _parse_loop, main
import pencilci.continuation as continuation
from pencilci.continuation import trace, trace_loop
from pencilci.fields import write_json
from pencilci.pencil import (
    BoxPerimeter,
    analytic_ci_pencil,
    circle,
    load_pencil,
    sgplus_generate,
    sgplus_pencil,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "reference_counts.csv")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def analytic_descriptor(tmp_path):
    path = tmp_path / "analytic.json"
    write_json(path, {"kind": "analytic_ci", "eps": 0.1})
    return str(path)


def test_generate_sgplus_roundtrip(tmp_path):
    rc = run(
        "generate", "--kind", "sgplus", "--n", 6, "--b", 3, "--delta", 0.4,
        "--seed", 5, "--out-dir", tmp_path,
    )
    assert rc == 0
    pencil = load_pencil(tmp_path / "pencil.json")
    direct = sgplus_pencil(sgplus_generate(6, 3, 0.4, 5))
    for x, y in [(0.0, 0.0), (1.3, 2.1)]:
        A1, B1 = pencil.eval(x, y)
        A2, B2 = direct.eval(x, y)
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(B1, B2)
    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh)["config"]["b"] == 3  # the integer, not the flag's text


def test_generate_full_bandwidth_token(tmp_path):
    rc = run(
        "generate", "--n", 5, "--b", "full", "--delta", 0.4,
        "--out-dir", tmp_path,
    )
    assert rc == 0
    # pencil.json holds the flags as given: "full" stays the token, and no --seed means no seed
    with open(tmp_path / "pencil.json") as fh:
        assert json.load(fh) == {"kind": "sgplus", "n": 5, "b": "full", "delta": 0.4}
    pencil = load_pencil(tmp_path / "pencil.json")
    direct = sgplus_pencil(sgplus_generate(5, 4, 0.4, 0))
    for x, y in [(0.7, 0.2), (-2.3, 4.1)]:
        for M1, M2 in zip(pencil.eval(x, y), direct.eval(x, y)):
            np.testing.assert_array_equal(M1, M2)


@pytest.mark.parametrize(
    "argv, problem",
    [
        (("--kind", "analytic_ci", "--n", 4), "unknown pencil descriptor keys: n"),
        (("--kind", "analytic_ci", "--b", 3), "unknown pencil descriptor keys: b"),
        (("--kind", "analytic_ci", "--delta", 0.4), "unknown pencil descriptor keys: delta"),
        (("--kind", "analytic_ci", "--seed", 1), "unknown pencil descriptor keys: seed"),
        (("--n", 6, "--b", 3, "--delta", 0.4, "--eps", 0.1), "unknown pencil descriptor keys: eps"),
        (("--b", 3, "--delta", 0.4), "pencil descriptor 'n'"),
        (("--n", 6, "--delta", 0.4), "pencil descriptor 'b'"),
        (("--n", 6, "--b", 3), "pencil descriptor 'delta'"),
    ],
    ids=[
        "analytic_ci-n", "analytic_ci-b", "analytic_ci-delta", "analytic_ci-seed", "sgplus-eps",
        "sgplus-no-n", "sgplus-no-b", "sgplus-no-delta",
    ],
)
def test_generate_refuses_flags_the_kind_does_not_read_or_needs(tmp_path, caplog, argv, problem):
    out = tmp_path / "out"
    assert run("generate", *argv, "--out-dir", out) == 1
    assert problem in caplog.text
    assert not os.listdir(out)


def test_generate_rejects_bad_bandwidth(tmp_path):
    rc = run(
        "generate", "--n", 6, "--b", 0, "--delta", 0.4, "--out-dir", tmp_path,
    )
    assert rc == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("generate", "--n", 6, "--b", "wide", "--delta", 0.4), "--b"),
        (("generate", "--n", 6, "--b", 2.5, "--delta", 0.4), "--b"),
        (("generate", "--n", 6, "--b", 3, "--delta", 0.4, "--seed", -1), "--seed"),
        (("sweep", "--pencil", "pencil.json", "--rows", 2, "--cols", 2, "--x-range", -1, 1,
          "--y-range", -1, 1, "--seed", -1), "--seed"),
        (("sweep", "--pencil", "pencil.json", "--rows", 2, "--cols", 2, "--x-range", -1, 1,
          "--y-range", -1, 1, "--workers", 0), "--workers"),
        (("sweep", "--pencil", "pencil.json", "--rows", 2, "--cols", 2, "--x-range", -1, 1,
          "--y-range", -1, 1, "--workers", -3), "--workers"),
        (("census", "--spec", "spec.json", "--workers", 0), "--workers"),
        (("census", "--spec", "spec.json", "--workers", -3), "--workers"),
    ],
    ids=[
        "b-word", "b-fraction", "generate-seed-negative", "sweep-seed-negative",
        "sweep-workers-zero", "sweep-workers-negative", "census-workers-zero",
        "census-workers-negative",
    ],
)
def test_bad_flag_value_is_usage_error_naming_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out-dir", tmp_path)
    assert exc.value.code == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not os.listdir(tmp_path)  # refused before anything is written


def test_generate_rejects_bad_dispersion(tmp_path, caplog):
    rc = run(
        "generate", "--n", 10, "--b", 3, "--delta", 2.0, "--out-dir", tmp_path,
    )
    assert rc == 1
    assert "sqrt((n+1)/(n+5))" in caplog.text


def test_generate_rejects_non_finite_eps(tmp_path):
    line = _cli_error_line(
        "generate", "--kind", "analytic_ci", "--eps", "nan", "--out-dir", tmp_path
    )
    assert "eps" in line
    assert not (tmp_path / "pencil.json").exists()


def test_trace_loop_around_coalescence(tmp_path, analytic_descriptor, capfd):
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "circle", "center": [0, 0], "radius": 1}',
        "--out-dir", tmp_path,
    )
    assert rc == 0
    out = capfd.readouterr().out
    assert "D = -1 -1" in out
    assert "flagged pairs: 1" in out
    with open(tmp_path / "signature.json") as fh:
        sig = json.load(fh)
    assert sig["D"] == [-1, -1]
    assert sig["pairs"] == [1]
    assert all(abs(abs(v) - 1) < 1e-6 for v in sig["signature_raw"])
    assert (tmp_path / "trace.csv").exists()


def test_trace_distant_loop_identity(tmp_path, analytic_descriptor):
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "circle", "center": [2.5, 0], "radius": 0.4}',
        "--out-dir", tmp_path,
    )
    assert rc == 0
    with open(tmp_path / "signature.json") as fh:
        sig = json.load(fh)
    assert sig["D"] == [1, 1]
    assert sig["pairs"] == []


def test_trace_loop_spec_from_file(tmp_path, analytic_descriptor):
    loop = tmp_path / "loop.json"
    loop.write_text('{"kind": "box", "rect": [-1, 1, -1, 1]}')
    rc = run(
        "trace", "--pencil", analytic_descriptor, "--loop", f"@{loop}",
        "--out-dir", tmp_path,
    )
    assert rc == 0
    with open(tmp_path / "signature.json") as fh:
        assert json.load(fh)["pairs"] == [1]


def test_box_spec_traces_the_corners_it_names():
    # x0 + (x1 - x0) is 1.9999999999999998 here, and y0 + (y1 - y0) is
    # 0.40000000000000013: the box must be the rect itself, as a sweep traces it
    box = _parse_loop('{"kind": "box", "rect": [-0.3, 2.0, -0.7, 0.4]}')
    assert (box.x0, box.x1, box.y0, box.y1) == (-0.3, 2.0, -0.7, 0.4)


def test_trace_box_writes_its_side_traces(tmp_path, monkeypatch):
    # trace.csv of a box holds the four side traces behind signature.json,
    # piece by piece, each from t = 0 to 1, and the box is traced once
    assert run("generate", "--n", 6, "--b", "full", "--delta", 0.4, "--out-dir", tmp_path) == 0
    traces = {}
    loop = trace_loop(
        load_pencil(tmp_path / "pencil.json"), BoxPerimeter(0.0, 0.0, 1.0, 1.0), traces=traces
    )
    solve = continuation.gen_eig_ordered
    solves = []
    monkeypatch.setattr(
        continuation, "gen_eig_ordered", lambda A, B: solves.append(1) or solve(A, B)
    )
    rc = run(
        "trace", "--pencil", tmp_path / "pencil.json",
        "--loop", '{"kind": "box", "rect": [0, 1, 0, 1]}', "--out-dir", tmp_path,
    )
    assert rc == 0
    assert len(solves) == loop.step_stats["eigensolves"]
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(k, p) for k, tr in enumerate(traces.values()) for p in tr.points[1:]]
    assert [int(r["piece"]) for r in rows] == [k for k, _ in expected]
    assert sorted({k for k, _ in expected}) == [0, 1, 2, 3]
    for row, (_, p) in zip(rows, expected):
        values = [p.t, p.h, *p.lam, p.rho_lambda, p.rho_V]
        assert [float(row[c]) for c in list(row)[1:-1]] == values
    for tr in traces.values():
        assert tr.points[-1].t == 1.0
    with open(tmp_path / "signature.json") as fh:
        sig = json.load(fh)
    assert sig["D"] == loop.D.tolist() == [1] * 6 and sig["pairs"] == []
    assert sig["signature_raw"] == loop.signature_raw.tolist()


def test_trace_circle_is_traced_once(tmp_path, analytic_descriptor, monkeypatch):
    # a circle is one piece: its signature and trace.csv come from one trace
    circle_spec = {"kind": "circle", "center": [0.5, 0.5], "radius": 0.3}
    once = trace(load_pencil(analytic_descriptor), circle(0.5, 0.5, 0.3))
    solve = continuation.gen_eig_ordered
    solves = []
    monkeypatch.setattr(
        continuation, "gen_eig_ordered", lambda A, B: solves.append(1) or solve(A, B)
    )
    rc = run(
        "trace", "--pencil", analytic_descriptor, "--loop", json.dumps(circle_spec),
        "--out-dir", tmp_path,
    )
    assert rc == 0
    assert len(solves) == once.step_stats["eigensolves"]
    with open(tmp_path / "trace.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == once.step_stats["accepted"]


def test_trace_open_segment_through_coalescence(tmp_path, analytic_descriptor):
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "segment", "start": [-1, -0.03125], "end": [1, -0.03125]}',
        "--out-dir", tmp_path,
    )
    assert rc == 2


def test_trace_bad_loop_kind(tmp_path, analytic_descriptor):
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "spiral"}', "--out-dir", tmp_path,
    )
    assert rc == 1


def test_sweep_matches_single_loop(tmp_path, analytic_descriptor):
    sweep_dir = tmp_path / "sweep"
    rc = run(
        "sweep", "--pencil", analytic_descriptor, "--rows", 1, "--cols", 1,
        "--x-range", -1, 1, "--y-range", -1, 1, "--workers", 1,
        "--out-dir", sweep_dir,
    )
    assert rc == 0
    with open(sweep_dir / "ci_boxes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["pair_index"] == "1"

    trace_dir = tmp_path / "trace"
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "box", "rect": [-1, 1, -1, 1]}',
        "--out-dir", trace_dir,
    )
    assert rc == 0
    with open(trace_dir / "signature.json") as fh:
        assert json.load(fh)["pairs"] == [int(rows[0]["pair_index"])]


def test_sweep_outputs_deterministic(tmp_path):
    desc = tmp_path / "pencil.json"
    write_json(desc, {"kind": "sgplus", "n": 6, "b": 5, "delta": 0.45, "seed": 2})
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = run(
            "sweep", "--pencil", desc, "--rows", 4, "--cols", 8,
            "--x-range", 0, 3.141592653589793, "--y-range", 0, 6.283185307179586,
            "--seed", 1, "--workers", 2, "--out-dir", out,
        )
        assert rc == 0
        blobs.append(
            tuple((out / f).read_bytes() for f in ("ci_boxes.csv", "sweep_summary.json"))
        )
    assert blobs[0] == blobs[1]


def test_census_cli(tmp_path, capfd):
    spec = ExperimentSpec(n_list=(4,), rows=3, cols=3)
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, asdict(spec))
    out = tmp_path / "census"
    rc = run("census", "--spec", spec_path, "--workers", 1, "--out-dir", out)
    assert rc == 0
    for name in (
        "census_counts.csv", "census_fits.csv", "census_loglog.dat",
        "census_report.json", "manifest.json",
    ):
        assert (out / name).exists()
    with open(out / "census_counts.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",4,0")
    assert "p = " not in capfd.readouterr().out  # one n: the group has no fit


def test_census_no_resume_reruns_valid_cells(tmp_path):
    spec = ExperimentSpec(n_list=(4,), rows=1, cols=1)
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, asdict(spec))
    out = tmp_path / "census"
    argv = ("census", "--spec", spec_path, "--workers", 1, "--out-dir", out)
    assert run(*argv) == 0
    (cell_path,) = (out / "cells").glob("*.json")
    # wall_time is not part of a cell's validity, so the edited file stays valid
    cell = json.loads(cell_path.read_text())
    cell["wall_time"] = -1
    cell_path.write_text(json.dumps(cell))
    assert run(*argv) == 0
    assert json.loads(cell_path.read_text())["wall_time"] == -1
    assert run(*argv, "--no-resume") == 0
    assert json.loads(cell_path.read_text())["wall_time"] >= 0


def _cli_error_line(*argv):
    """Run pencilci in a subprocess; exit 1 with one stderr line, no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pencilci.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "pencilci.cli", *(str(a) for a in argv)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


def _census_error_line(tmp_path, spec_text):
    """Run pencilci census on a bad spec file."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    return _cli_error_line(
        "census", "--spec", spec_path, "--workers", 1, "--out-dir", tmp_path / "out"
    )


@pytest.mark.parametrize(
    "loop, field",
    [
        ("[]", "JSON object"),
        ('"box"', "JSON object"),
        ('{"kind": "box", "rect": 5}', "rect"),
        ('{"kind": "circle", "center": null, "radius": 1}', "center"),
        ('{"kind": "circle", "center": [0, 0], "radius": NaN}', "radius"),
        ('{"kind": "box", "rect": [0, Infinity, 0, 1]}', "rect"),
        ('{"kind": "circle", "center": [0, 0], "radius": 1, "rect": [0, 1, 0, 1]}', "rect"),
        ('{"kind": "segment", "start": [0, 0], "end": [1, 1], "closed": true}', "closed"),
    ],
    ids=[
        "list", "string", "rect-number", "center-null", "radius-nan", "rect-infinity",
        "circle-stray-rect", "segment-stray-key",
    ],
)
def test_trace_malformed_loop_spec_is_one_line(tmp_path, analytic_descriptor, loop, field):
    line = _cli_error_line(
        "trace", "--pencil", analytic_descriptor, "--loop", loop, "--out-dir", tmp_path
    )
    assert field in line


def _sweep_error_line(tmp_path, pencil, *ranges):
    return _cli_error_line(
        "sweep", "--pencil", pencil, "--rows", 2, "--cols", 2, *ranges,
        "--workers", 1, "--out-dir", tmp_path / "out",
    )


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[]", "JSON object"),
        ('{"kind": "sgplus", "n": null, "b": 3, "delta": 0.4, "seed": 0}', "'n'"),
        ('{"kind": "sgplus", "n": 4, "b": "wide", "delta": 0.4, "seed": 0}', "'b'"),
        ('{"kind": "analytic_ci", "eps": NaN}', "eps"),
        ('{"kind": "sgplus", "n": 4, "b": 3, "delta": NaN, "seed": 0}', "delta"),
        (
            '{"kind": "embedded", "inner": {"kind": "analytic_ci"}, "n": 3, "j": 1,'
            ' "outer_spectrum": [9.0]}',
            "unknown pencil descriptor kind: 'embedded'",
        ),
        ('{"kind": "sgplus", "n": 4, "b": 2.7, "delta": 0.4, "seed": 0}', "'b'"),
        ('{"kind": "sgplus", "n": 4, "b": 3, "delta": 0.4, "seed": 1.9}', "'seed'"),
        ('{"kind": "sgplus", "n": "4", "b": 3, "delta": 0.4, "seed": 0}', "'n'"),
        ('{"kind": "analytic_ci", "eps": true}', "'eps'"),
        ('{"kind": "sgplus", "n": 4, "b": 3, "delta": 0.4, "seed": -1}', "'seed'"),
        ('{"kind": "analytic_ci", "esp": 0.1}', "esp"),
        ('{"kind": "sgplus", "n": 4, "b": 3, "delta": 0.4, "seed": 0, "eps": 0}', "eps"),
    ],
    ids=[
        "list", "n-null", "b-word", "eps-nan", "delta-nan", "embedded-kind",
        "b-fraction", "seed-fraction", "n-string", "eps-bool",
        "seed-negative", "analytic-misspelt-key", "sgplus-stray-key",
    ],
)
def test_sweep_malformed_pencil_descriptor_is_one_line(tmp_path, text, problem):
    pencil = tmp_path / "pencil.json"
    pencil.write_text(text)
    line = _sweep_error_line(tmp_path, pencil, "--x-range", 0, 1, "--y-range", 0, 1)
    assert problem in line


def test_descriptor_kinds_are_the_generate_kinds():
    # a descriptor kind that generate cannot write is one that nothing writes
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (kind,) = [a for a in sub.choices["generate"]._actions if "--kind" in a.option_strings]
    assert set(pencilci.pencil._DESCRIPTOR_KEYS) == set(kind.choices)


def test_generate_flags_are_the_descriptor_keys():
    # generate writes each flag given as the descriptor key of its name
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices["generate"]._actions}
    keys = set().union(*pencilci.pencil._DESCRIPTOR_KEYS.values())
    assert dests - {"help", "kind", "out_dir", "log_level"} == keys


def test_sweep_full_bandwidth_descriptor(tmp_path):
    flags = []
    for b in ('"full"', "3"):
        pencil = tmp_path / f"pencil-{b}.json"
        pencil.write_text(f'{{"kind": "sgplus", "n": 4, "b": {b}, "delta": 0.4, "seed": 0}}')
        out = tmp_path / f"out-{b}"
        rc = run(
            "sweep", "--pencil", pencil, "--rows", 3, "--cols", 3,
            "--x-range", 0, 3.141592653589793, "--y-range", 0, 6.283185307179586,
            "--workers", 1, "--out-dir", out,
        )
        assert rc == 0
        flags.append((out / "ci_boxes.csv").read_bytes())
    assert flags[0] == flags[1] and flags[0].count(b"\n") > 1


def test_sweep_rejects_infinite_range(tmp_path, analytic_descriptor):
    ranges = ("--x-range", 0, "inf", "--y-range", 0, 1)
    assert "finite" in _sweep_error_line(tmp_path, analytic_descriptor, *ranges)


def test_census_rejects_unknown_spec_key(tmp_path):
    line = _census_error_line(
        tmp_path,
        '{"n_list": [4], "pencil_kind": "analytic_ci", "pencil_params": {"eps": 0.1},'
        ' "realisations": 2}',
    )
    assert "pencil_kind, pencil_params, realisations" in line


def test_census_rejects_spec_that_is_not_an_object(tmp_path):
    for text in ("[]", "null"):
        assert "JSON object" in _census_error_line(tmp_path, text)


def test_census_rejects_non_integer_spec_value(tmp_path):
    line = _census_error_line(
        tmp_path, '{"n_list": [4], "rows": "3"}'
    )
    assert "rows" in line


def test_census_rejects_fractional_dimension(tmp_path):
    line = _census_error_line(tmp_path, '{"n_list": [10.7]}')
    assert "n_list" in line and "10.7" in line


def test_census_rejects_spec_list_that_is_not_an_array(tmp_path):
    line = _census_error_line(tmp_path, '{"n_list": 4}')
    assert "n_list" in line and "array" in line


def test_fit_matches_library(tmp_path, capfd):
    rc = run("fit", "--data", DATA, "--out-dir", tmp_path)
    assert rc == 0
    printed = capfd.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [
        "bandwidth=3", "bandwidth=4", "bandwidth=5", "bandwidth=full"
    ]

    with open(DATA, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "fit_summary.csv", newline="") as fh:
        fitted = {r["bandwidth"]: r for r in csv.DictReader(fh)}
    assert set(fitted) == {"3", "4", "5", "full"}
    for token, row in fitted.items():
        pts = [
            (float(r["n"]), float(r["mean_count"]))
            for r in rows
            if r["bandwidth"] == token
        ]
        ref = fit_power_law(pts)
        assert float(row["p"]) == ref.p
        assert float(row["c"]) == ref.c
        assert float(row["rmsd"]) == ref.rmsd
        assert int(row["n_points"]) == 8


def test_fit_prints_p_c_and_rmsd_only(tmp_path, capfd):
    # no reference exponent follows a fit: the package holds none with a source
    data = tmp_path / "counts.csv"
    data.write_text("bandwidth,n,count\n2,50,100\n2,60,150\n3,50,110\n3,60,160\n")
    assert run("fit", "--data", data, "--out-dir", tmp_path) == 0
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, token in zip(lines, ("2", "3")):
        assert re.fullmatch(rf"bandwidth={token}: p = \S+, c = \S+, rmsd = \S+", line), line


def test_fit_quotes_a_group_key(tmp_path):
    # census and fit write their fits through one csv writer, so a key
    # with a comma or a quote reads back as it was written
    data = tmp_path / "counts.csv"
    data.write_text('b,n,count\n"x,y",10,5\n"x,y",20,19\n"q""z",10,3\n"q""z",20,11\n')
    assert run("fit", "--data", data, "--out-dir", tmp_path) == 0
    with open(tmp_path / "fit_summary.csv", newline="") as fh:
        assert [r["b"] for r in csv.DictReader(fh)] == ["x,y", 'q"z']


def test_fit_empty_data(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("bandwidth,n,mean_count\n")
    assert run("fit", "--data", empty, "--out-dir", tmp_path) == 1


def test_fit_missing_file(tmp_path):
    assert run("fit", "--data", tmp_path / "nope.csv", "--out-dir", tmp_path) == 1


def test_fit_short_row_names_its_line(tmp_path):
    data = tmp_path / "short.csv"
    data.write_text("bandwidth,n,count\n3,50,10\n3,60\n")
    line = _cli_error_line("fit", "--data", data, "--out-dir", tmp_path / "out")
    assert "line 3" in line and "count" in line


@pytest.mark.parametrize(
    "row, column",
    [("3,60,abc", "'count'"), ("3,60,inf", "'count'"), ("3,60,nan", "'count'"),
     ("3,-70,20", "'n'"), ("3,0,20", "'n'"), ("3,sixty,20", "'n'")],
    ids=["count-word", "count-inf", "count-nan", "n-negative", "n-zero", "n-word"],
)
def test_fit_bad_value_names_its_line_and_column(tmp_path, row, column):
    data = tmp_path / "bad.csv"
    data.write_text(f"bandwidth,n,count\n3,50,10\n{row}\n3,70,30\n")
    line = _cli_error_line("fit", "--data", data, "--out-dir", tmp_path / "out")
    assert "line 3" in line and column in line
    assert not (tmp_path / "out" / "fit_summary.csv").exists()


def test_fit_needs_a_known_count_column(tmp_path):
    data = tmp_path / "avg.csv"
    data.write_text("bandwidth,n,avg_count\n3,50,3340\n3,60,5318\n")
    assert run("fit", "--data", data, "--out-dir", tmp_path) == 1
    assert not (tmp_path / "fit_summary.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--spec", "spec.json", "--seed", 1),
        ("fit", "--data", "counts.csv", "--workers", 2),
        ("trace", "--pencil", "pencil.json", "--loop", "{}", "--seed", 1),
        ("generate", "--workers", 2),
        ("generate", "--out", "p.json"),
    ],
    ids=["census-seed", "fit-workers", "trace-seed", "generate-workers", "generate-out"],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 1


def test_workers_default_is_the_affinity_set(monkeypatch):
    # a run pinned to one core of two (taskset -c 0) starts one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for argv in (["sweep", "--pencil", "p.json", "--rows", "1", "--cols", "1",
                  "--x-range", "0", "1", "--y-range", "0", "1"],
                 ["census", "--spec", "spec.json"]):
        assert _build_parser().parse_args(argv).workers == 1
    # where the OS has no affinity set, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _build_parser().parse_args(["census", "--spec", "spec.json"]).workers == 2


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_missing_required_argument_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("trace", "--out-dir", tmp_path)
    assert exc.value.code == 1


def test_manifest_shape(tmp_path, analytic_descriptor):
    rc = run(
        "trace", "--pencil", analytic_descriptor,
        "--loop", '{"kind": "circle", "center": [0, 0], "radius": 1}',
        "--out-dir", tmp_path,
    )
    assert rc == 0
    with open(tmp_path / "manifest.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "config", "outputs", "version"}
    assert doc["command"] == "trace"
    assert doc["outputs"] == ["signature.json", "trace.csv"]
    assert not {"func", "seed", "workers"} & set(doc["config"])


def test_readme_flag_table_matches_parser():
    """The README's subcommand/flag table lists exactly the flags each subcommand takes."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (.+?) \| (.+) \|$", section, flags=re.M)
    table = {name.strip("`"): set(re.findall(r"`(--[a-z-]+)`", flags)) for name, flags in rows}
    table.pop("Subcommand")  # the header row
    common = table.pop("every subcommand")
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert {name: flags | common for name, flags in table.items()} == parsed


def test_readme_library_quick_start_runs(capsys):
    """The first two Python blocks of the README's library quick start run as
    written and print what their comments say."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    namespace: dict = {}
    for block in blocks[:2]:
        exec(compile(block, README, "exec"), namespace)
    assert namespace["result"].D.tolist() == [-1, -1]
    est = namespace["est"]
    assert est.pair == 1
    assert math.hypot(est.x - -0.025, est.y - -0.03125) <= est.uncertainty
    assert "[-1 -1]" in capsys.readouterr().out
