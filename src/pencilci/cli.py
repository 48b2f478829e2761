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
import math
import os
import sys

from . import __version__
from .census import GOE_REFERENCE_EXPONENTS, ExperimentSpec, group_fits, run_census, write_report
from .continuation import trace, trace_loop, write_trace_csv
from .detect import GridSpec, decode_signature, sweep_grid, write_ci_csv, write_sweep_summary
from .errors import PencilError
from .pencil import (
    analytic_ci_pencil,
    box_perimeter,
    circle,
    load_pencil,
    save_pencil,
    segment,
    sgplus_generate,
    sgplus_pencil,
)

log = logging.getLogger("pencilci")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(out_dir: str, command: str, config: dict, outputs: list[str]) -> None:
    clean = {k: v for k, v in config.items() if k not in ("func", "command")}
    doc = {
        "command": command,
        "version": __version__,
        "config": clean,
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _loop_numbers(data: dict, field: str, size: int) -> list[float]:
    """The size finite numbers of a loop spec field: a list, or a bare number when size is 1."""
    value = data.get(field)
    items = [value] if size == 1 else value
    try:
        if isinstance(items, list) and len(items) == size:
            numbers = [float(v) for v in items]
            if all(math.isfinite(v) for v in numbers):
                return numbers
    except (TypeError, ValueError):
        pass
    raise ValueError(
        f"loop spec field {field!r} must hold {size} finite number(s), got {value!r}"
    )


def _parse_loop(spec: str):
    """Path from an inline JSON loop spec or @file reference.

    Kinds: {"kind": "box", "rect": [x0, x1, y0, y1]},
    {"kind": "circle", "center": [cx, cy], "radius": r},
    {"kind": "segment", "start": [x, y], "end": [x, y]} (open).
    """
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(spec)
    if not isinstance(data, dict):
        raise ValueError(f"loop spec must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "box":
        x0, x1, y0, y1 = _loop_numbers(data, "rect", 4)
        return box_perimeter(x0, y0, x1 - x0, y1 - y0)
    if kind == "circle":
        cx, cy = _loop_numbers(data, "center", 2)
        (radius,) = _loop_numbers(data, "radius", 1)
        return circle(cx, cy, radius)
    if kind == "segment":
        return segment(tuple(_loop_numbers(data, "start", 2)), tuple(_loop_numbers(data, "end", 2)))
    raise ValueError(f"unknown loop kind: {kind!r}")


def _print_fits(fits: dict, columns) -> None:
    """One line per fitted group, in key order: column values, p, c, rmsd and reference p."""
    for key, fit in sorted(fits.items(), key=lambda kv: str(kv[0])):
        if fit is None:
            continue
        label = ", ".join(f"{c}={v}" for c, v in zip(columns, key)) or "all"
        ref_p = GOE_REFERENCE_EXPONENTS.get(str(key[0])) if key else None
        ref = "" if ref_p is None else f"  (reference p {ref_p})"
        print(f"{label}: p = {fit.p:.6g}, c = {fit.c:.6g}, rmsd = {fit.rmsd:.6g}{ref}")


def _cmd_generate(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.kind == "analytic_ci":
        pencil = analytic_ci_pencil(args.eps)
    else:
        if args.n is None or args.b is None or args.delta is None:
            raise ValueError("generate --kind sgplus requires --n, --b and --delta")
        b = args.b if args.b == "full" else int(args.b)
        pencil = sgplus_pencil(sgplus_generate(args.n, b, args.delta, args.seed))
    out = args.out or os.path.join(args.out_dir, "pencil.json")
    save_pencil(pencil, out)
    _write_manifest(args.out_dir, "generate", vars(args), [os.path.basename(out)])
    log.info("wrote %s", out)
    return 0


def _cmd_trace(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    pencil = load_pencil(args.pencil)
    path = _parse_loop(args.loop)
    outputs = ["trace.csv"]
    if path.closed:
        result = trace_loop(pencil, path)
        sig = {
            "D": [int(v) for v in result.D],
            "pairs": [int(p) for p in decode_signature(result.D)],
            "signature_raw": [float(v) for v in result.signature_raw],
        }
        with open(os.path.join(args.out_dir, "signature.json"), "w", encoding="utf-8") as fh:
            json.dump(sig, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append("signature.json")
        print("D =", " ".join(str(v) for v in result.D))
        print("flagged pairs:", " ".join(str(p) for p in sig["pairs"]) or "none")
    else:
        result = trace(pencil, path)
    write_trace_csv(result, os.path.join(args.out_dir, "trace.csv"))
    stats = result.step_stats
    log.info(
        "accepted %d steps, rejected %d, veering events %d",
        stats["accepted"],
        stats["rejected"],
        stats["veering_events"],
    )
    _write_manifest(args.out_dir, "trace", vars(args), outputs)
    return 0


def _cmd_sweep(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    pencil = load_pencil(args.pencil)
    grid = GridSpec(
        rows=args.rows,
        cols=args.cols,
        x_range=tuple(args.x_range),
        y_range=tuple(args.y_range),
    )
    result = sweep_grid(pencil, grid, seed=args.seed, workers=args.workers)
    write_ci_csv(result, os.path.join(args.out_dir, "ci_boxes.csv"))
    write_sweep_summary(result, os.path.join(args.out_dir, "sweep_summary.json"))
    _write_manifest(args.out_dir, "sweep", vars(args), ["ci_boxes.csv", "sweep_summary.json"])
    print(
        f"flagged {len(result.flagged)} of {len(result.boxes)} boxes; "
        f"total count {result.total_count}; unresolved {len(result.unresolved)}"
    )
    return 0


def _cmd_census(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    spec = ExperimentSpec.from_json(args.spec)
    report = run_census(spec, args.out_dir, workers=args.workers, resume=args.resume)
    paths = write_report(report, args.out_dir)
    _write_manifest(
        args.out_dir, "census", vars(args), [os.path.basename(p) for p in paths.values()]
    )
    _print_fits(report.fits, ("b", "delta_index"))
    log.info("census complete: %d cells", len(report.cells))
    return 0


def _cmd_fit(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
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
    for line, row in rows:
        missing = [c for c in group_cols + ["n", count_col] if not row[c]]
        if missing:
            raise ValueError(f"{args.data} line {line}: no value for {', '.join(missing)}")
    _, fits = group_fits(
        (tuple(row[c] for c in group_cols), float(row["n"]), float(row[count_col]))
        for _, row in rows
    )
    fits = {key: fit for key, fit in fits.items() if fit is not None}
    if not fits:
        raise ValueError("no group has positive mean counts at two or more n")

    out = os.path.join(args.out_dir, "fit_summary.csv")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(group_cols + ["p", "c", "rmsd", "n_points"])
        for key, fit in fits.items():
            writer.writerow(
                list(key)
                + [f"{fit.p:.17g}", f"{fit.c:.17g}", f"{fit.rmsd:.17g}", fit.n_points]
            )
    _write_manifest(args.out_dir, "fit", vars(args), ["fit_summary.csv"])
    _print_fits(fits, group_cols)
    return 0


def _build_parser() -> _Parser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
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

    p = sub.add_parser("generate", parents=[common, seeded], help="write a pencil descriptor")
    p.add_argument("--kind", default="sgplus", choices=["sgplus", "analytic_ci"])
    p.add_argument("--n", type=int, help="dimension")
    p.add_argument("--b", help="bandwidth (integer or 'full')")
    p.add_argument("--delta", type=float, help="dispersion")
    p.add_argument("--eps", type=float, default=0.0, help="offset of the analytic family")
    p.add_argument("--out", help="descriptor path (default <out-dir>/pencil.json)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("trace", parents=[common], help="trace a path, report the signature")
    p.add_argument("--pencil", required=True, help="pencil descriptor JSON")
    p.add_argument("--loop", required=True, help="loop spec JSON (inline or @file)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "sweep", parents=[common, seeded, pooled], help="sweep a box grid for coalescences"
    )
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
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        log.error("%s", exc)
        return 1
    except PencilError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
