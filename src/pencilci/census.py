"""Ensemble coalescence census over (bandwidth, dispersion, dimension) grids.

For every cell (b, delta, n, realization) a random SPD pencil is generated,
its parameter domain swept for eigenvalue coalescences, and the count stored
as one JSON file. Completed cells are skipped on restart, so interrupted runs
resume exactly; all aggregation is order-deterministic, making the aggregated
CSV outputs byte-identical across reruns and resumptions with the same spec.

Mean counts per (b, delta, n) feed a log-log least-squares power-law fit
count ~ c * n**p per (b, delta) group.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .detect import GridSpec, sweep_grid
from .errors import NonPositiveCount
from .pencil import AnalyticCIPencil, dispersion_bound, sgplus_generate, sgplus_pencil

__all__ = [
    "ExperimentSpec",
    "PowerLawFit",
    "CensusReport",
    "GOE_REFERENCE_EXPONENTS",
    "cell_seed",
    "run_census",
    "write_report",
    "fit_power_law",
    "summarize_exponents",
]

# Fixed reference exponents for Gaussian orthogonal ensemble pencils; not
# recomputed here, used only for side-by-side context in summaries.
GOE_REFERENCE_EXPONENTS = {"full": 2.00, "5": 2.55, "4": 2.66, "3": 2.73}

_SEED_NAMESPACE = "pencilci-census"


def _b_token(b) -> str:
    """Canonical string form of a bandwidth entry: 'full' or the integer."""
    if b == "full":
        return "full"
    return str(int(b))


def cell_seed(seed0: int, b, delta_index: int, n: int, realization: int) -> int:
    """Pinned per-cell seed: SHA-256 over a namespaced key string.

    Cells are independent and individually re-runnable; the first 16 digest
    bytes (big-endian) seed the cell's generator.
    """
    key = f"{_SEED_NAMESPACE}|{seed0}|{_b_token(b)}|{delta_index}|{n}|{realization}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one census run; JSON round-trippable.

    b_list entries are positive integers or "full" (bandwidth n-1).
    pencil_kind "analytic_ci" overrides the ensemble with the fixed 2x2
    family (pencil_params holds its eps); the (b, delta, n) axes then only
    label cells.
    """

    seed: int = 0
    n_list: tuple[int, ...] = ()
    b_list: tuple = ("full",)
    delta_list: tuple[float, ...] = (0.45,)
    realizations: int = 1
    rows: int = 16
    cols: int = 32
    x_range: tuple[float, float] = (0.0, math.pi)
    y_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    pencil_kind: str = "sgplus"
    pencil_params: tuple = ()

    def __post_init__(self):
        for name in ("seed", "realizations", "rows", "cols"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "b_list", tuple("full" if b == "full" else int(b) for b in self.b_list)
        )
        object.__setattr__(self, "delta_list", tuple(float(d) for d in self.delta_list))
        object.__setattr__(self, "x_range", tuple(float(v) for v in self.x_range))
        object.__setattr__(self, "y_range", tuple(float(v) for v in self.y_range))
        object.__setattr__(self, "pencil_params", tuple(tuple(p) for p in self.pencil_params))
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if self.pencil_kind not in ("sgplus", "analytic_ci"):
            raise ValueError(f"unknown pencil_kind {self.pencil_kind!r}")
        if self.pencil_kind == "sgplus":
            for n in self.n_list:
                if n < 2:
                    raise ValueError("dimensions must be at least 2")
                bound = dispersion_bound(n)
                for d in self.delta_list:
                    if not 0.0 < d < bound:
                        raise ValueError(
                            f"dispersion {d} outside (0, {bound:.6g}) for n = {n}"
                        )
                for b in self.b_list:
                    if b != "full" and not 1 <= b <= n - 1:
                        raise ValueError(f"bandwidth {b} outside 1..{n - 1} for n = {n}")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(
            rows=self.rows, cols=self.cols, x_range=self.x_range, y_range=self.y_range
        )

    def cells(self) -> list[tuple]:
        """All (b, delta_index, n, realization) keys in deterministic order."""
        return [
            (b, di, n, r)
            for b in self.b_list
            for di in range(len(self.delta_list))
            for n in self.n_list
            for r in range(self.realizations)
        ]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pencil_params"] = {k: v for k, v in self.pencil_params}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {', '.join(unknown)}")
        params = d.get("pencil_params", {})
        if isinstance(params, dict):
            d["pencil_params"] = tuple(sorted(params.items()))
        return cls(**d)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _make_pencil(spec: ExperimentSpec, b, delta: float, n: int, seed: int):
    if spec.pencil_kind == "analytic_ci":
        return AnalyticCIPencil(eps=float(dict(spec.pencil_params).get("eps", 0.0)))
    b_val = n - 1 if b == "full" else int(b)
    return sgplus_pencil(sgplus_generate(n, b_val, delta, seed))


def _cell_filename(b, delta_index: int, n: int, realization: int) -> str:
    return f"cell_b{_b_token(b)}_d{delta_index}_n{n}_r{realization}.json"


def _cell_valid(path: str) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return isinstance(data.get("count"), int)
    except (OSError, ValueError):
        return False


def _run_cell(task: tuple) -> str:
    """Sweep one cell and persist its JSON atomically; returns the path.

    task is (spec, (b, delta_index, n, realization), out_path, sweep_workers).
    """
    spec, (b, delta_index, n, realization), out_path, sweep_workers = task
    seed = cell_seed(spec.seed, b, delta_index, n, realization)
    delta = spec.delta_list[delta_index]
    pencil = _make_pencil(spec, b, delta, n, seed)
    start = time.perf_counter()
    result = sweep_grid(pencil, spec.grid, seed=seed, workers=sweep_workers)
    wall = time.perf_counter() - start
    payload = {
        "b": b,
        "delta": delta,
        "delta_index": delta_index,
        "n": n,
        "realization": realization,
        "seed": seed,
        "count": result.total_count,
        "pair_counts": {str(k): v for k, v in result.pair_counts().items()},
        "n_unresolved": len(result.unresolved),
        "wall_time": wall,
    }
    tmp = f"{out_path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, out_path)
    return out_path


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(count) = p log(n) + log(c)."""

    p: float
    c: float
    rmsd: float
    n_points: int = 0


def fit_power_law(points) -> PowerLawFit:
    """Ordinary least squares on (log n, log count) pairs.

    points is an iterable of (n, count). Non-positive counts cannot enter a
    log fit; they are dropped with a NonPositiveCount warning rather than
    regularized, since flooring zeros would bias the exponent.

    Raises
    ------
    ValueError
        If fewer than two points with positive count remain.
    """
    pts = [(float(n), float(c)) for n, c in points]
    kept = [(n, c) for n, c in pts if c > 0.0]
    if len(kept) < len(pts):
        warnings.warn(
            f"dropped {len(pts) - len(kept)} non-positive counts from power-law fit",
            NonPositiveCount,
            stacklevel=2,
        )
    if len(kept) < 2:
        raise ValueError("power-law fit needs at least two positive counts")
    ln_n = np.log([n for n, _ in kept])
    ln_c = np.log([c for _, c in kept])
    slope, intercept = np.polyfit(ln_n, ln_c, 1)
    resid = ln_c - (slope * ln_n + intercept)
    rmsd = float(np.sqrt(np.mean(resid**2)))
    return PowerLawFit(p=float(slope), c=float(np.exp(intercept)), rmsd=rmsd, n_points=len(kept))


@dataclass(frozen=True, eq=False)
class CensusReport:
    """Aggregated census: per-cell counts, per-(b, delta, n) means, fits."""

    spec: ExperimentSpec
    cells: list[dict]
    means: dict  # (b_token, delta_index, n) -> mean count
    fits: dict  # (b_token, delta_index) -> PowerLawFit | None


def _assemble_report(spec: ExperimentSpec, cell_dir: str) -> CensusReport:
    cells = []
    for b, di, n, r in spec.cells():
        path = os.path.join(cell_dir, _cell_filename(b, di, n, r))
        with open(path, encoding="utf-8") as fh:
            cells.append(json.load(fh))
    means: dict = {}
    for b in spec.b_list:
        token = _b_token(b)
        for di in range(len(spec.delta_list)):
            for n in spec.n_list:
                counts = [
                    c["count"]
                    for c in cells
                    if _b_token(c["b"]) == token
                    and c["delta_index"] == di
                    and c["n"] == n
                ]
                if counts:
                    means[(token, di, n)] = float(np.mean(counts))
    fits: dict = {}
    for b in spec.b_list:
        token = _b_token(b)
        for di in range(len(spec.delta_list)):
            pts = [
                (n, means[(token, di, n)])
                for n in spec.n_list
                if (token, di, n) in means and means[(token, di, n)] > 0.0
            ]
            # pts holds positive means only, so the fit drops nothing
            fits[(token, di)] = fit_power_law(pts) if len({n for n, _ in pts}) >= 2 else None
    return CensusReport(spec=spec, cells=cells, means=means, fits=fits)


def run_census(
    spec: ExperimentSpec, out_dir, workers: int = 1, resume: bool = True
) -> CensusReport:
    """Run (or resume) the census described by spec, persisting into out_dir.

    Each cell writes out_dir/cells/<cell>.json atomically on completion; with
    resume=True, existing valid cell files are kept and only missing cells
    run. With more pending cells than one, workers > 1 parallelizes over
    cells (sweeps inside each cell stay serial); otherwise the sweep level
    uses the worker budget.
    """
    out_dir = str(out_dir)
    cell_dir = os.path.join(out_dir, "cells")
    os.makedirs(cell_dir, exist_ok=True)
    pending = []
    for key in spec.cells():
        out_path = os.path.join(cell_dir, _cell_filename(*key))
        if not (resume and _cell_valid(out_path)):
            pending.append((key, out_path))
    parallel = workers > 1 and len(pending) > 1
    tasks = [(spec, key, out_path, 1 if parallel else workers) for key, out_path in pending]
    if parallel:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_run_cell, tasks))
    else:
        for task in tasks:
            _run_cell(task)
    return _assemble_report(spec, cell_dir)


def write_report(report: CensusReport, out_dir) -> dict:
    """Write aggregated census files; returns {name: path}.

    census_counts.csv and census_fits.csv and census_loglog.dat contain no
    timing data and are byte-identical across reruns of the same spec;
    census_report.json additionally records per-cell wall times.
    """
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    spec = report.spec
    paths = {
        "counts": os.path.join(out_dir, "census_counts.csv"),
        "fits": os.path.join(out_dir, "census_fits.csv"),
        "loglog": os.path.join(out_dir, "census_loglog.dat"),
        "report": os.path.join(out_dir, "census_report.json"),
    }

    by_key = {
        (_b_token(c["b"]), c["delta_index"], c["n"], c["realization"]): c
        for c in report.cells
    }
    with open(paths["counts"], "w", newline="", encoding="utf-8") as fh:
        fh.write("b,delta,n,realization,count,n_unresolved\n")
        for b, di, n, r in spec.cells():
            c = by_key[(_b_token(b), di, n, r)]
            fh.write(
                f"{_b_token(b)},{spec.delta_list[di]:.17g},{n},{r},"
                f"{c['count']},{c['n_unresolved']}\n"
            )

    with open(paths["fits"], "w", newline="", encoding="utf-8") as fh:
        fh.write("b,delta,p,c,rmsd,n_points\n")
        for b in spec.b_list:
            token = _b_token(b)
            for di in range(len(spec.delta_list)):
                fit = report.fits.get((token, di))
                if fit is None:
                    continue
                fh.write(
                    f"{token},{spec.delta_list[di]:.17g},{fit.p:.17g},"
                    f"{fit.c:.17g},{fit.rmsd:.17g},{fit.n_points}\n"
                )

    with open(paths["loglog"], "w", encoding="utf-8") as fh:
        fh.write("# b delta n mean_count log_n log_mean\n")
        for b in spec.b_list:
            token = _b_token(b)
            for di in range(len(spec.delta_list)):
                rows = [
                    (n, report.means[(token, di, n)])
                    for n in spec.n_list
                    if (token, di, n) in report.means
                ]
                for n, mean in rows:
                    if mean > 0:
                        fh.write(
                            f"{token} {spec.delta_list[di]:.17g} {n} {mean:.17g} "
                            f"{math.log(n):.17g} {math.log(mean):.17g}\n"
                        )
                if rows:
                    fh.write("\n")

    doc = {
        "spec": report.spec.to_dict(),
        "cells": report.cells,
        "means": [
            {"b": k[0], "delta_index": k[1], "n": k[2], "mean_count": v}
            for k, v in sorted(report.means.items())
        ],
        "fits": [
            {
                "b": k[0],
                "delta_index": k[1],
                "p": f.p,
                "c": f.c,
                "rmsd": f.rmsd,
                "n_points": f.n_points,
            }
            for k, f in sorted(report.fits.items())
            if f is not None
        ],
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def summarize_exponents(fits: dict) -> list[dict]:
    """Side-by-side of fitted exponents against the fixed reference values.

    fits maps (b_token, delta_index) or b_token to PowerLawFit; entries with
    no reference exponent get reference_p None.
    """
    rows = []
    for key, fit in sorted(fits.items(), key=lambda kv: str(kv[0])):
        if fit is None:
            continue
        token = key[0] if isinstance(key, tuple) else _b_token(key)
        ref = GOE_REFERENCE_EXPONENTS.get(str(token))
        rows.append(
            {
                "b": str(token),
                "p": fit.p,
                "reference_p": ref,
                "difference": None if ref is None else fit.p - ref,
            }
        )
    return rows
