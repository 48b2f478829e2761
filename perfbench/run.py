#!/usr/bin/env python3
"""pencilci benchmark: sweep, locate and census workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,locate,census} --seed N --seconds S --trace {0,1}

With --trace 0 the run repeats identical passes of the workload until S
seconds have gone (at least three), and reports the end-to-end metrics as
medians over passes. With --trace 1 it runs four passes, untraced and traced
in turn, and reports the per-layer metrics of the first traced pass, the
tracing overhead, the eigensolve accounting identity, and whether the
machine-independent counts repeat in the second traced pass. Every pass
checks its outputs. Human-readable lines come first; the last line of
standard output is the JSON result. The exit code is 1 when a check fails.
See perfbench/README.md for the workloads and metrics.
"""

import os
import sys

# One BLAS / OpenMP thread, set before anything imports numpy. Census pool
# workers inherit the environment.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "locate", "census")
MIN_PASSES = 3
# Setup is timed once in this process and once in each probe process.
SETUP_PROBES = 6
OUT_DIR = ".perfbench_out"

# Counts that depend only on the inputs; two traced passes must agree on them.
REPEATING = (
    "pencil.eval.calls",
    "linalg.gen_eig_ordered.calls",
    "continuation.accepted",
    "continuation.rejected",
    "continuation.rejected.rho",
    "continuation.rejected.ambiguous",
    "continuation.secant_caps",
    "continuation.veering.entries",
    "continuation.veering.substeps",
    "detect.boxes",
    "detect.refine.levels",
    "detect.refine.loops_per_level",
)


def import_program():
    """Put ./src first on sys.path and import pencilci from there, or exit 2."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.isfile(os.path.join(src, "pencilci", "__init__.py")):
        print("perfbench: no ./src/pencilci; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, HERE]
    import pencilci

    if not os.path.realpath(pencilci.__file__).startswith(src + os.sep):
        print(f"perfbench: pencilci imported from {pencilci.__file__}, not ./src", file=sys.stderr)
        sys.exit(2)


def timed_setup(workload):
    """Import pencilci and build the workload's inputs; returns (inputs, seconds)."""
    start = time.perf_counter()
    import_program()
    import bench_workloads

    inputs = bench_workloads.setup(workload)
    return inputs, time.perf_counter() - start


def probe_setup(workload):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import bench_workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": bench_workloads.nproc(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def describe(values):
    return f"median of {len(values)} (min {min(values):.4g}, max {max(values):.4g})"


def end_to_end(args, inputs, setup_s, work_dir, calibrator):
    """Passes until args.seconds have gone; every time is a median over samples.

    Pass times are reference seconds (see bench_workloads.Calibrator): each
    timed unit is scaled by the calibrations on either side of it. Setup times
    are plain seconds; the calibration does not track import time, and
    scaling made their spread three times wider.
    """
    from bench_trace import NullTracer
    from bench_workloads import CAL_REF_S, DIMS, PASSES

    setup_samples = [setup_s]
    run_pass = PASSES[args.workload]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(inputs, args.seed, NullTracer(), work_dir, calibrator))
    rss = peak_rss_mb()
    setup_samples += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    samples = {
        "setup_s": setup_samples,
        "wall_s": [p.wall for p in passes],
        **{f"sweep_n{n}_s": [p.sweep_s[n] for p in passes] for n in DIMS},
    }
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["peak_rss_mb"] = rss
    print(f"pass times in reference seconds; the last calibration took "
          f"{calibrator.last / CAL_REF_S:.3g}x its reference time")
    for name, vals in samples.items():
        print(f"{name} = {metrics[name]:.6g} s, {describe(vals)}")
    print(f"peak_rss_mb = {rss:.6g} MB, one sample (this process plus its largest child)")
    return passes, metrics


def layer_metrics(tracer, census):
    """Per-layer metrics of one traced pass; census holds the census.* values."""
    calls, total, own, c = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts

    def us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    loops = calls["trace_loop"]
    attempted_steps = c["accepted"] + c["rejected"]
    levels = c["refine.levels"]
    return {
        "pencil.eval.calls": calls["eval"],
        "pencil.eval.us": us("eval"),
        "linalg.gen_eig_ordered.calls": calls["gen_eig_ordered"],
        "linalg.gen_eig_ordered.us": us("gen_eig_ordered"),
        "continuation.eigensolves_per_box": calls["gen_eig_ordered"] / loops if loops else 0.0,
        "continuation.accepted": c["accepted"],
        "continuation.rejected": c["rejected"],
        "continuation.rejected.rho": c["rejected.rho"],
        "continuation.rejected.ambiguous": c["rejected.ambiguous"],
        "continuation.reject_ratio": c["rejected"] / attempted_steps if attempted_steps else 0.0,
        "continuation.secant_caps": c["secant_caps"],
        "continuation.predict.us": us("predict"),
        "continuation.sign_correct.us": us("sign_correct"),
        "continuation.step_control.us": us("step_control"),
        "continuation.self_s": sum(
            own[name]
            for name in (
                "trace_loop",
                "veering_traverse",
                "predict",
                "sign_correct",
                "step_control",
                "secant_guard",
            )
        ),
        "continuation.veering.entries": calls["veering_traverse"],
        "continuation.veering.substeps": tracer.calls_by_parent[("gen_eig_ordered", "veering_traverse")],
        "continuation.veering.s": total["veering_traverse"],
        "detect.boxes": c["boxes"],
        "detect.retry_boxes": c["retry_boxes"],
        "detect.unresolved": c["unresolved"],
        "detect.self_s": own["sweep_grid"] + own["refine_box"],
        "detect.refine.levels": levels,
        "detect.refine.loops_per_level": (
            tracer.calls_by_parent[("trace_loop", "refine_box")] / levels if levels else 0.0
        ),
        "detect.refine.s": total["refine_box"],
        "census.cell_s.p50": census.get("cell_s.p50", 0.0),
        "census.cell_s.max": census.get("cell_s.max", 0.0),
        "census.pool_efficiency": census.get("pool_efficiency", 0.0),
        "census.report_s": census.get("report_s", 0.0),
    }


def identity(tracer):
    """The eigensolve accounting identity over all traces; returns (holds, text)."""
    c = tracer.counts
    eig = tracer.calls["gen_eig_ordered"]
    starts = c["loops.ok"]
    entries = tracer.calls["veering_traverse"]
    substeps = tracer.calls_by_parent[("gen_eig_ordered", "veering_traverse")]
    lost = c["eigensolves.unresolvable"]
    total = starts + c["accepted"] + c["rejected"] + entries + substeps + lost
    split = c["rejected.rho"] + c["rejected.ambiguous"]
    holds = eig == total and split == c["rejected"] and not tracer.identity_violations
    text = (
        f"eigensolves {eig} {'=' if eig == total else '!='} starts {starts} + accepted "
        f"{c['accepted']} + rejected {c['rejected']} + veering entries {entries} + veering "
        f"substeps {substeps} + in unresolvable loops {lost}; rejected {c['rejected']} "
        f"{'=' if split == c['rejected'] else '!='} rho {c['rejected.rho']} + ambiguous "
        f"{c['rejected.ambiguous']}; {len(tracer.identity_violations)} loops break it"
    )
    return holds, text


def per_layer(args, inputs, work_dir, calibrator):
    from bench_trace import NullTracer, Tracer
    from bench_workloads import PASSES

    run_pass = PASSES[args.workload]
    passes, untraced, traced = [], [], []
    for traced_pass in (False, True, False, True):
        if traced_pass:
            tracer = Tracer()
            if args.workload == "census":
                tracer.install_census()
            else:
                tracer.install()
            try:
                result = run_pass(inputs, args.seed, tracer, work_dir, calibrator)
            finally:
                tracer.uninstall()
            traced.append((tracer, result))
        else:
            result = run_pass(inputs, args.seed, NullTracer(), work_dir, calibrator)
            untraced.append(result)
        passes.append(result)

    # Tracing inflates cell times, so census.* come from an untraced pass.
    (tracer, _), (tracer2, result2) = traced
    metrics = layer_metrics(tracer, untraced[0].census)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall for _, r in traced) / statistics.median(r.wall for r in untraced)
        - 1.0
    )
    again = layer_metrics(tracer2, untraced[0].census)
    differ = [name for name in REPEATING if metrics[name] != again[name]]
    checks = [identity(tracer), identity(tracer2)]
    checks.append((not differ, f"counts repeat in the second traced pass; differing: {differ}"))
    for holds, text in checks:
        if holds:
            print(f"ok: {text}")
        result2.check(holds, text)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g}")

    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "machine": machine(),
                "span_fields": ["name", "start_s", "end_s", "parent"],
                "passes": [
                    {"spans": tr.spans, "tallies": tr.tallies()} for tr, _ in traced
                ],
            },
            fh,
        )
    print(f"spans written to {path}")
    return passes, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="pencilci benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--calibration-worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.calibration_worker:
        import_program()
        from bench_workloads import kernel_seconds

        for _ in sys.stdin:
            print(repr(kernel_seconds()), flush=True)
        return 0

    inputs, setup_s = timed_setup(args.workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    from bench_workloads import Calibrator, nproc

    work_dir = os.path.abspath(OUT_DIR)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    # Census passes keep every core busy, so they are calibrated on every core.
    with Calibrator(nproc() if args.workload == "census" else 1) as calibrator:
        if args.trace:
            passes, metrics = per_layer(args, inputs, work_dir, calibrator)
        else:
            passes, metrics = end_to_end(args, inputs, setup_s, work_dir, calibrator)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.workload == "census":
        digests = {p.census["digests"] for p in passes}
        ok = len(digests) == 1
        attempted += 1
        failed += 0 if ok else 1
        print(f"{'ok' if ok else 'FAILED'}: census aggregate files identical across "
              f"{len(passes)} passes")
    for p in passes:
        for problem in p.problems:
            print(f"FAILED: {problem}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
