"""Smooth eigendecompositions of SPD matrix pencils along parameter paths,
sign-signature detection of eigenvalue coalescences over 2-D domains, and
random-ensemble coalescence censuses with power-law fits."""

import os as _os

# One BLAS thread per process: tracing calls many small dense kernels, and
# sweep and census pools already run a process per core. Takes effect only
# when numpy has not been imported yet; a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .census import (
    CensusReport,
    ExperimentSpec,
    PowerLawFit,
    cell_seed,
    fit_power_law,
    run_census,
    write_report,
)
from .continuation import (
    EigenPoint,
    LoopResult,
    StepDecision,
    TOLDIST,
    TOLSTEP,
    TraceResult,
    init_decomposition,
    predict,
    secant_guard,
    sign_correct,
    step_control,
    trace,
    trace_loop,
    write_trace_csv,
)
from .detect import (
    BoxResult,
    CIEstimate,
    GridSpec,
    SweepResult,
    decode_signature,
    refine_box,
    signature_from_counts,
    sweep_grid,
    write_ci_csv,
    write_sweep_summary,
)
from .errors import (
    BandwidthOutOfRange,
    DegenerateStart,
    DispersionOutOfRange,
    EvaluationFailed,
    GapTooSmall,
    LoopUnresolvable,
    NonFiniteInput,
    NonPositiveCount,
    NotPositiveDefinite,
    OddSignCount,
    PencilError,
    RefinementInconsistent,
    SeriesDiverged,
    SpectrumOverlap,
    StepUnderflow,
    TripleDegeneracy,
)
from .linalg import (
    EigenPair,
    eig2x2_pencil,
    gen_eig_ordered,
    spd_sqrt,
    spd_sqrt_series,
    sqrt_derivative,
    symmetrize,
)
from .pencil import (
    AnalyticCIPencil,
    BoxPerimeter,
    CirclePath,
    EmbeddedPencil,
    ParametricPencil,
    Path,
    SegmentPath,
    SGPlusPencil,
    SGPlusRealization,
    analytic_ci_pencil,
    box_perimeter,
    circle,
    dispersion_bound,
    embed_2x2,
    load_pencil,
    pencil_from_descriptor,
    save_pencil,
    segment,
    sgplus_generate,
    sgplus_pencil,
)

__all__ = [name for name in dir() if not name.startswith("_")]
