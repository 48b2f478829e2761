"""Command line for pencil generation, tracing, sweeping, census, fitting.

Subcommands: generate | trace | sweep | census | fit. Every run writes a
manifest.json (resolved configuration + tool version, no timestamps) next to
its outputs, and all floating-point output uses 17 significant digits so
values round-trip exactly.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(unresolvable loop, definiteness violation, step underflow).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from functools import partial

from . import __version__
from .census import ExperimentSpec, group_fits, run_census, write_fits_csv, write_report
from .continuation import trace, trace_loop, write_trace_csv
from .detect import GridSpec, decode_signature, sweep_grid, write_ci_csv, write_sweep_summary
from .errors import PencilError
from .fields import (
    flag, parse_text, read_array, read_bandwidth, read_int, read_json, read_kind, read_number,
    read_seed, write_json,
)
from .pencil import BoxPerimeter, circle, load_pencil, pencil_from_descriptor, segment

log = logging.getLogger("pencilci")


class _Parser(argparse.ArgumentParser):
    """argparse parser that takes no abbreviated flag; usage errors exit 1, not 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_manifest(args, outputs: list[str]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    doc = {"command": args.command, "version": __version__, "config": config}
    write_json(os.path.join(args.out_dir, "manifest.json"), {**doc, "outputs": sorted(outputs)})


_LOOP_KEYS = {"box": ("rect",), "circle": ("center", "radius"), "segment": ("start", "end")}


def _parse_loop(spec: str):
    """Path from an inline JSON loop spec or @file reference.

    Kinds: {"kind": "box", "rect": [x0, x1, y0, y1]},
    {"kind": "circle", "center": [cx, cy], "radius": r},
    {"kind": "segment", "start": [x, y], "end": [x, y]} (open).
    """
    data = read_json(spec[1:]) if spec.startswith("@") else json.loads(spec)
    kind, get = read_kind(data, "loop spec", _LOOP_KEYS)
    if kind == "box":
        x0, x1, y0, y1 = get("rect", read_array, length=4)
        return BoxPerimeter(x0, y0, x1, y1)
    if kind == "circle":
        return circle(*get("center", read_array, length=2), get("radius", read_number))
    return segment(get("start", read_array, length=2), get("end", read_array, length=2))


def _print_fits(fits: dict, columns) -> None:
    """One line per fitted group, in key order: column values, p, c and rmsd."""
    for key, fit in sorted(fits.items(), key=lambda kv: str(kv[0])):
        label = ", ".join(f"{c}={v}" for c, v in zip(columns, key)) or "all"
        print(f"{label}: p = {fit.p:.6g}, c = {fit.c:.6g}, rmsd = {fit.rmsd:.6g}")


def _cmd_generate(args) -> int:
    """Write pencil.json as kind plus the flags given, once they build a pencil.

    pencil_from_descriptor refuses a flag the kind does not read as it does
    that key in a hand-written pencil.json.
    """
    skip = ("func", "command", "out_dir", "log_level")
    desc = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    pencil_from_descriptor(desc)
    out = os.path.join(args.out_dir, "pencil.json")
    write_json(out, desc)
    _write_manifest(args, ["pencil.json"])
    log.info("wrote %s", out)
    return 0


def _cmd_trace(args) -> int:
    pencil = load_pencil(args.pencil)
    path = _parse_loop(args.loop)
    outputs = ["trace.csv"]
    traces: dict = {}  # the path's pieces in trace order: a box's sides, or the path itself
    if path.closed:
        result = trace_loop(pencil, path, traces=traces)
        sig = {
            "D": [int(v) for v in result.D],
            "pairs": [int(p) for p in decode_signature(result.D)],
            "signature_raw": [float(v) for v in result.signature_raw],
        }
        write_json(os.path.join(args.out_dir, "signature.json"), sig)
        outputs.append("signature.json")
        print("D =", " ".join(str(v) for v in result.D))
        print("flagged pairs:", " ".join(str(p) for p in sig["pairs"]) or "none")
    else:
        result = traces[path] = trace(pencil, path)
    write_trace_csv(list(traces.values()), os.path.join(args.out_dir, "trace.csv"))
    fmt = "accepted %(accepted)d steps, rejected %(rejected)d, veering events %(veering_events)d"
    log.info(fmt, result.step_stats)  # a lone mapping argument fills the named fields
    _write_manifest(args, outputs)
    return 0


def _cmd_sweep(args) -> int:
    pencil = load_pencil(args.pencil)
    grid = GridSpec(args.rows, args.cols, tuple(args.x_range), tuple(args.y_range))
    result = sweep_grid(pencil, grid, seed=args.seed, workers=args.workers)
    write_ci_csv(result, os.path.join(args.out_dir, "ci_boxes.csv"))
    write_sweep_summary(result, os.path.join(args.out_dir, "sweep_summary.json"))
    _write_manifest(args, ["ci_boxes.csv", "sweep_summary.json"])
    print(
        f"flagged {len(result.flagged)} of {len(result.boxes)} boxes; "
        f"total count {result.total_count}; unresolved {len(result.unresolved)}"
    )
    return 0


def _cmd_census(args) -> int:
    spec = ExperimentSpec.from_json(args.spec)
    report = run_census(spec, args.out_dir, workers=args.workers, resume=args.resume)
    paths = write_report(report, args.out_dir)
    _write_manifest(args, [os.path.basename(p) for p in paths.values()])
    _print_fits(report.fits, ("b", "delta_index"))
    log.info("census complete: %d cells", len(report.cells))
    return 0


def _cmd_fit(args) -> int:
    with open(args.data, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise ValueError(f"no data rows in {args.data}")
    fields = rows[0][1].keys()
    count_col = next((c for c in ("mean_count", "count") if c in fields), None)
    if "n" not in fields or count_col is None:
        raise ValueError("data file needs an 'n' column and a count column (mean_count or count)")
    group_cols = [c for c in ("b", "bandwidth", "delta") if c in fields]
    points = []
    for line, row in rows:
        missing = [c for c in group_cols + ["n", count_col] if not row[c]]
        if missing:
            raise ValueError(f"{args.data} line {line}: no value for {', '.join(missing)}")
        where = f"{args.data} line {line} column"
        n = read_number(parse_text(row["n"]), f"{where} 'n'", positive=True)
        count = read_number(parse_text(row[count_col]), f"{where} {count_col!r}")
        points.append((tuple(row[c] for c in group_cols), n, count))
    _, fits = group_fits(points)
    if not fits:
        raise ValueError("no group has positive mean counts at two or more n")

    write_fits_csv(os.path.join(args.out_dir, "fit_summary.csv"), group_cols, fits)
    _write_manifest(args, ["fit_summary.csv"])
    _print_fits(fits, group_cols)
    return 0


def _build_parser() -> _Parser:
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument(
        "--workers",
        type=flag(partial(read_int, minimum=1)),
        default=_available_cpus(),
        help="worker processes (default: available parallelism)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory (default .)")
    common.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="logging verbosity",
    )

    parser = _Parser(prog="pencilci", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pencilci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", parents=[common], help="write a pencil descriptor")
    p.add_argument("--kind", default="sgplus", choices=["sgplus", "analytic_ci"])
    p.add_argument("--n", type=int, help="sgplus: dimension")
    p.add_argument("--b", type=flag(read_bandwidth), help="sgplus: bandwidth (integer or 'full')")
    p.add_argument("--delta", type=float, help="sgplus: dispersion")
    p.add_argument("--seed", type=flag(read_seed), help="sgplus: seed (default 0)")
    p.add_argument("--eps", type=float, help="analytic_ci: offset (default 0.0)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("trace", parents=[common], help="trace a path, report the signature")
    p.add_argument("--pencil", required=True, help="pencil descriptor JSON")
    p.add_argument("--loop", required=True, help="loop spec JSON (inline or @file)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep", parents=[common, pooled], help="sweep a box grid for coalescences")
    p.add_argument("--seed", type=flag(read_seed), default=0, help="master seed (default 0)")
    p.add_argument("--pencil", required=True, help="pencil descriptor JSON")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--x-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--y-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("census", parents=[common, pooled], help="run an ensemble census")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--no-resume", dest="resume", action="store_false")
    p.set_defaults(func=_cmd_census, resume=True)

    p = sub.add_parser("fit", parents=[common], help="power-law fit of count data")
    p.add_argument("--data", required=True, help="CSV with n and count columns")
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level), format="%(levelname)s %(message)s"
    )
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        log.error("%s", exc)
        return 1
    except PencilError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
