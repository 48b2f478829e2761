"""Ensemble coalescence census over (bandwidth, dispersion, dimension) grids.

For every cell (b, delta, n, realization) a random SPD pencil is generated,
its parameter domain swept for eigenvalue coalescences, and the count stored
as one JSON file. A restart skips cells already done for the same seed, delta
and grid, and all aggregation is order-deterministic, so reruns and
resumptions of one spec write byte-identical aggregated CSV outputs.

Mean counts per (b, delta, n) feed a log-log least-squares power-law fit
count ~ c * n**p per (b, delta) group.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .detect import GridSpec, sweep_grid
from .errors import NonPositiveCount
from .fields import (
    read_array, read_bandwidth, read_int, read_json, read_object, write_csv, write_json,
)
from .pencil import sgplus_bandwidth, sgplus_generate, sgplus_pencil

__all__ = [
    "ExperimentSpec",
    "PowerLawFit",
    "CensusReport",
    "GOE_REFERENCE_EXPONENTS",
    "cell_seed",
    "run_census",
    "write_report",
    "write_fits_csv",
    "fit_power_law",
    "group_fits",
]

_log = logging.getLogger(__name__)

# Fixed reference exponents for Gaussian orthogonal ensemble pencils; not
# recomputed here, used only for side-by-side context in summaries.
GOE_REFERENCE_EXPONENTS = {"full": 2.00, "5": 2.55, "4": 2.66, "3": 2.73}

_SEED_NAMESPACE = "pencilci-census"


def cell_seed(seed0: int, b, delta_index: int, n: int, realization: int) -> int:
    """Pinned per-cell seed: SHA-256 over a namespaced key string.

    Cells are independent and individually re-runnable; the first 16 digest
    bytes (big-endian) seed the cell's generator. b is an integer or "full".
    """
    key = f"{_SEED_NAMESPACE}|{seed0}|{b}|{delta_index}|{n}|{realization}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


# the reader of each ExperimentSpec field, in field order
_SPEC_READERS = {
    "seed": read_int,
    "n_list": partial(read_array, reader=read_int),
    "b_list": partial(read_array, reader=read_bandwidth),
    "delta_list": read_array,
    "realizations": partial(read_int, minimum=1),
    "rows": read_int,
    "cols": read_int,
    "x_range": partial(read_array, length=2),
    "y_range": partial(read_array, length=2),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one census run; JSON round-trippable.

    Every cell is an SG+ pencil. b_list entries are positive integers or
    "full" (bandwidth n-1).
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

    def __post_init__(self):
        for name, reader in _SPEC_READERS.items():
            object.__setattr__(self, name, reader(getattr(self, name), name))
        for name in ("n_list", "b_list", "delta_list"):  # a repeat would run its cells twice
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name}: {list(values)!r} has a repeated entry")
        self.grid  # GridSpec checks rows, cols and the ranges
        for n, b, d in itertools.product(self.n_list, self.b_list, self.delta_list):
            sgplus_bandwidth(n, b, d)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.rows, self.cols, self.x_range, self.y_range)

    def cells(self) -> list[tuple]:
        """All (b, delta_index, n, realization) keys in deterministic order."""
        return [
            (b, di, n, r)
            for b in self.b_list
            for di in range(len(self.delta_list))
            for n in self.n_list
            for r in range(self.realizations)
        ]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(**read_object(d, "experiment spec", [f.name for f in fields(cls)]))

    def to_json(self, path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        return cls.from_dict(read_json(path))


def _cell_filename(b, delta_index: int, n: int, realization: int) -> str:
    return f"cell_b{b}_d{delta_index}_n{n}_r{realization}.json"


def _cell_identity(spec: ExperimentSpec, key: tuple) -> dict:
    """The fields that tie a cell file to its cell of spec: key, seed, delta and grid."""
    b, delta_index, n, realization = key
    grid = {"rows": spec.rows, "cols": spec.cols, "x_range": [*spec.x_range],
            "y_range": [*spec.y_range]}
    return {"b": b, "delta": spec.delta_list[delta_index], "delta_index": delta_index, "n": n,
            "realization": realization, "seed": cell_seed(spec.seed, *key), "grid": grid}


def _cell_valid(path: str, identity: dict) -> bool:
    """Whether the cell file at path holds the counts the report reads and identity."""
    try:
        cell = read_object(read_json(path), "cell file")
        for name in ("total_count", "n_unresolved"):
            read_int(cell.get(name), name, minimum=0)
    except (OSError, ValueError):
        return False
    return all(cell.get(name) == value for name, value in identity.items())


def _run_cell(task: tuple) -> str:
    """Sweep one cell and persist its JSON atomically; returns the path.

    task is (spec, the cell's _cell_identity, out_path, sweep_workers).
    """
    spec, cell, out_path, sweep_workers = task
    pencil = sgplus_pencil(sgplus_generate(cell["n"], cell["b"], cell["delta"], cell["seed"]))
    start = time.perf_counter()
    result = sweep_grid(pencil, spec.grid, seed=cell["seed"], workers=sweep_workers)
    wall = time.perf_counter() - start
    write_json(out_path, {**cell, **result.summary(), "wall_time": wall})
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


def group_fits(rows) -> tuple[dict, dict]:
    """Mean count per (group, n) and a power-law fit per group.

    rows holds (group, n, count) triples. Returns (means, fits): means maps
    (group, n) to the mean count; fits maps each group to the fit of its
    positive means, or None when fewer than two remain. Groups and n keep
    first-seen order, which orders the fit points and both dictionaries.
    """
    counts: dict = {}
    for group, n, count in rows:
        counts.setdefault((group, n), []).append(count)
    means = {key: float(np.mean(values)) for key, values in counts.items()}
    points: dict = {group: [] for group, _ in means}
    for (group, n), mean in means.items():
        if mean > 0.0:
            points[group].append((n, mean))
    # points hold positive means only, so the fit drops nothing
    fits = {g: fit_power_law(pts) if len(pts) >= 2 else None for g, pts in points.items()}
    return means, fits


def _assemble_report(spec: ExperimentSpec, cell_dir: str) -> CensusReport:
    cells = [read_json(os.path.join(cell_dir, _cell_filename(*key))) for key in spec.cells()]
    means, fits = group_fits(
        ((str(c["b"]), c["delta_index"]), c["n"], c["total_count"]) for c in cells
    )
    means = {(*group, n): mean for (group, n), mean in means.items()}
    return CensusReport(spec=spec, cells=cells, means=means, fits=fits)


def run_census(
    spec: ExperimentSpec, out_dir, workers: int = 1, resume: bool = True
) -> CensusReport:
    """Run (or resume) the census described by spec, persisting into out_dir.

    Each cell writes out_dir/cells/<cell>.json atomically on completion; with
    resume=True, a cell file is kept when it holds the counts the report
    reads and the cell's seed, delta and grid under this spec; every other
    cell runs again and overwrites its file. With more pending cells than
    one, workers > 1 parallelizes over cells (sweeps inside each cell stay
    serial); otherwise the sweep level uses the worker budget. Logs cells
    done, elapsed time and ETA at INFO as each cell finishes, in cell order.
    """
    cell_dir = os.path.join(out_dir, "cells")
    os.makedirs(cell_dir, exist_ok=True)
    pending = []
    for key in spec.cells():
        cell, out_path = _cell_identity(spec, key), os.path.join(cell_dir, _cell_filename(*key))
        if not (resume and _cell_valid(out_path, cell)):
            pending.append((cell, out_path))
    parallel = workers > 1 and len(pending) > 1
    tasks = [(spec, cell, out_path, 1 if parallel else workers) for cell, out_path in pending]
    skipped, start = len(spec.cells()) - len(tasks), time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        finished = pool.map(_run_cell, tasks) if parallel else map(_run_cell, tasks)
        for ran, _ in enumerate(finished, 1):
            elapsed = time.perf_counter() - start
            _log.info(
                "census: %d/%d cells done, %.1f s elapsed, ETA %.1f s",
                skipped + ran, skipped + len(tasks), elapsed, elapsed / ran * (len(tasks) - ran),
            )
    return _assemble_report(spec, cell_dir)


def write_fits_csv(path, columns, fits: dict) -> None:
    """One row per fitted group: its key's values under columns, then p, c,
    rmsd and n_points; groups whose fit is None are left out."""
    write_csv(path, [*columns, "p", "c", "rmsd", "n_points"], (
        [*key, fit.p, fit.c, fit.rmsd, fit.n_points] for key, fit in fits.items() if fit is not None
    ))


def write_report(report: CensusReport, out_dir) -> dict:
    """Write aggregated census files; returns {name: path}.

    census_counts.csv and census_fits.csv and census_loglog.dat contain no
    timing data and are byte-identical across reruns of the same spec;
    census_report.json additionally records per-cell wall times.
    """
    os.makedirs(out_dir, exist_ok=True)
    spec = report.spec
    paths = {
        "counts": os.path.join(out_dir, "census_counts.csv"),
        "fits": os.path.join(out_dir, "census_fits.csv"),
        "loglog": os.path.join(out_dir, "census_loglog.dat"),
        "report": os.path.join(out_dir, "census_report.json"),
    }

    write_csv(paths["counts"], ["b", "delta", "n", "realization", "count", "n_unresolved"], (
        [c["b"], spec.delta_list[c["delta_index"]], c["n"], c["realization"], c["total_count"],
         c["n_unresolved"]] for c in report.cells
    ))
    write_fits_csv(
        paths["fits"],
        ("b", "delta"),
        {(token, spec.delta_list[di]): fit for (token, di), fit in report.fits.items()},
    )

    # means run group by group (cells are ordered b, delta, n); a blank line ends each group
    with open(paths["loglog"], "w", encoding="utf-8") as fh:
        fh.write("# b delta n mean_count log_n log_mean\n")
        for (token, di), group in itertools.groupby(report.means.items(), lambda kv: kv[0][:2]):
            for (_, _, n), mean in group:
                if mean > 0:
                    fh.write(
                        f"{token} {spec.delta_list[di]:.17g} {n} {mean:.17g} "
                        f"{math.log(n):.17g} {math.log(mean):.17g}\n"
                    )
            fh.write("\n")

    doc = {
        "spec": asdict(report.spec),
        "cells": report.cells,
        "means": [
            {"b": k[0], "delta_index": k[1], "n": k[2], "mean_count": v}
            for k, v in sorted(report.means.items())
        ],
        "fits": [
            {"b": k[0], "delta_index": k[1], **asdict(f)}
            for k, f in sorted(report.fits.items())
            if f is not None
        ],
    }
    write_json(paths["report"], doc)
    return paths

