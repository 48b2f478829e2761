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

from .census import *
from .continuation import *
from .detect import *
from .errors import *
from .linalg import *
from .pencil import *

__all__ = [name for name in dir() if not name.startswith("_")]
